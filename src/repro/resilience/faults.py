"""Deterministic, seeded fault injection.

A :class:`FaultPlan` maps named *sites* — fixed choke points instrumented
throughout the stack — to firing rules (probability per hit, or every Nth
hit).  Each site draws from its own ``random.Random(f"{seed}:{site}")``
stream, so whether a given hit fires depends only on the plan's seed and
the site's hit ordinal: the same campaign seed replays the same faults,
which is what makes chaos failures shrinkable and debuggable (the same
principle that made the PR-3 stress harness useful).

Instrumented sites (:data:`SITES` is the catalog; a test holds it equal
to the literal site names passed to ``fire``/``maybe_fire`` in the code).
A *transient* site raises :class:`~repro.errors.TransientError` when it
fires — a member of the retryable set — so the chaos campaign can assert
that every injected fault is retried, degraded, or surfaced typed, never
a wrong answer:

===============================  =============================================
transient site                   choke point
===============================  =============================================
``memory_pool.acquire``          :meth:`MemoryPool.acquire` — degraded in place
                                 to a direct allocation (never surfaces)
``locks.acquire``                start of :meth:`LockManager.acquire_all` —
                                 before any lock is taken, so a fired fault
                                 leaves the transaction clean and re-committable
``plan_cache.lookup``            :meth:`PlanCache.lookup` — the service degrades
                                 to an uncached compile
``snapshot.load``                :func:`repro.storage.io.load_graph` entry
``snapshot.save``                :func:`repro.storage.io.save_graph` entry —
                                 before any byte is written, so a fired fault
                                 never leaves a half-written snapshot behind
``executor.operator``            every operator boundary (``OpTimer.__enter__``
                                 and the Volcano dispatch loop)
===============================  =============================================

A *kill* site SIGKILLs the process when it fires: no atexit handlers, no
flushes, no cleanup — the closest a test gets to pulling the power cord.
They mark the durability protocol's least convenient moments, in protocol
order, and the kill -9 harness (:mod:`repro.testkit.crashtest`) fires
exactly one ``(site, hit)`` pair in a forked child:

===============================  =============================================
kill site                        moment
===============================  =============================================
``commit.wal_append``            before the commit record's bytes are written
``commit.wal_fsync``             record written, fsync not yet issued
``commit.applied``               record durable, mutations applied
``checkpoint.tmp_written``       temp snapshot complete, not yet renamed
``checkpoint.renamed``           checkpoint visible, WAL not yet switched
``checkpoint.segment_switched``  new WAL segment live, old not pruned
``checkpoint.truncated``         mid-prune: some old files already gone
===============================  =============================================

Injection is process-global (module attribute ``ACTIVE``) so deep call
sites need no plumbing; every site guards with ``if faults.ACTIVE is not
None`` (or calls :func:`maybe_fire`), so the disarmed cost is one
attribute read.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..errors import TransientError
from ..obs.events import EVENTS

#: What firing a site does: raise ``TransientError``, or SIGKILL the process.
TRANSIENT = "transient"
KILL = "kill"

#: The catalog of instrumented sites and what firing each one does.
SITES: dict[str, str] = {
    "memory_pool.acquire": TRANSIENT,
    "locks.acquire": TRANSIENT,
    "plan_cache.lookup": TRANSIENT,
    "snapshot.load": TRANSIENT,
    "snapshot.save": TRANSIENT,
    "executor.operator": TRANSIENT,
    "commit.wal_append": KILL,
    "commit.wal_fsync": KILL,
    "commit.applied": KILL,
    "checkpoint.tmp_written": KILL,
    "checkpoint.renamed": KILL,
    "checkpoint.segment_switched": KILL,
    "checkpoint.truncated": KILL,
}

#: The kill sites, in protocol order: what the crash harness sweeps.
KILL_SITES = tuple(site for site, effect in SITES.items() if effect == KILL)


@dataclass(frozen=True)
class FaultRule:
    """When a site fires: with *probability* per hit and/or every Nth hit.

    ``max_fires`` bounds the total (0 = unlimited) so a test can inject
    exactly one fault and assert exactly one recovery;
    ``FaultRule(site, every_nth=n, max_fires=1)`` fires on the *n*-th hit
    and never again.
    """

    site: str
    probability: float = 0.0
    every_nth: int = 0
    max_fires: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.every_nth < 0:
            raise ValueError(f"every_nth must be >= 0, got {self.every_nth}")
        if self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {tuple(SITES)}")


@dataclass
class FaultPlan:
    """A seeded set of fault rules plus hit/fire accounting."""

    rules: Iterable[FaultRule] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rules: dict[str, FaultRule] = {}
        for rule in self.rules:
            if rule.site in self._rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self._rules[rule.site] = rule
        self._rngs = {
            site: random.Random(f"{self.seed}:{site}") for site in self._rules
        }
        self._hits = {site: 0 for site in self._rules}
        self._fired = {site: 0 for site in self._rules}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Rewind all accounting and RNG streams to the just-built state.

        A plan is mutable (hit counts and random streams advance as sites
        fire), so reusing one across runs would make the second run diverge
        from the first.  Harnesses that promise one-seed-one-execution
        (:func:`~repro.testkit.stress.run_stress`) reset the plan up front.
        """
        with self._lock:
            self._rngs = {
                site: random.Random(f"{self.seed}:{site}") for site in self._rules
            }
            self._hits = {site: 0 for site in self._rules}
            self._fired = {site: 0 for site in self._rules}

    def fire(self, site: str) -> None:
        """Record a hit at *site*; if the rule fires, raise ``TransientError``
        (a transient site) or SIGKILL this process (a kill site)."""
        rule = self._rules.get(site)
        if rule is None:
            return
        with self._lock:
            self._hits[site] += 1
            if rule.max_fires and self._fired[site] >= rule.max_fires:
                return
            fires = False
            if rule.every_nth and self._hits[site] % rule.every_nth == 0:
                fires = True
            elif rule.probability and self._rngs[site].random() < rule.probability:
                fires = True
            if not fires:
                return
            self._fired[site] += 1
            ordinal = self._fired[site]
        if SITES[site] == KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        EVENTS.emit("fault_fired", site=site, ordinal=ordinal)
        raise TransientError(f"injected fault at {site}")

    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired.values())

    def summary(self) -> dict[str, Any]:
        with self._lock:
            return {
                site: {"hits": self._hits[site], "fired": self._fired[site]}
                for site in self._rules
            }


#: The process-global active plan; None disables injection entirely.
#: Hot call sites guard on this attribute before calling :func:`maybe_fire`.
ACTIVE: FaultPlan | None = None


def maybe_fire(site: str) -> None:
    """Fire *site* against the active plan, if any."""
    plan = ACTIVE
    if plan is not None:
        plan.fire(site)


@contextmanager
def fault_scope(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Install *plan* as the active fault plan for the duration of the block."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = prev
