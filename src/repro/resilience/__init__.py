"""Service resilience layer: watchdog, admission, retry, degrade, faults.

The paper's system is a *service*, not just an engine: it keeps answering
under load, slow queries, lock contention, and partial failures.  This
package supplies the mechanisms the :class:`~repro.engine.service.GES`
facade composes into that behavior:

* :mod:`.watchdog` — per-query deadlines with cooperative cancellation
  (checked at operator and chunk boundaries, raising a typed
  :class:`~repro.errors.QueryTimeout`);
* :mod:`.admission` — concurrent-query and estimated-memory admission
  control with bounded queueing (:class:`~repro.errors.AdmissionRejected`);
* :mod:`.retry` — bounded, deterministically-jittered retry for the
  retryable error set (``TransactionAborted`` / ``LockTimeout`` /
  ``TransientError``);
* :mod:`.degrade` — the graceful-degradation ladder (factorized → flat
  executor, cached → uncached compile, pooled → direct allocation);
* :mod:`.faults` — the one deterministic seeded fault-injection registry:
  transient sites for the chaos campaign (``repro chaos``) and the stress
  harness, kill sites for the kill -9 crash harness.
"""

from .admission import AdmissionController
from .degrade import with_fallback
from .faults import FaultPlan, FaultRule, fault_scope, maybe_fire
from .retry import RetryPolicy
from .watchdog import Deadline, current_deadline, deadline_scope

__all__ = [
    "AdmissionController",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "current_deadline",
    "deadline_scope",
    "fault_scope",
    "maybe_fire",
    "with_fallback",
]
