"""Bounded retry with exponential backoff and deterministic seeded jitter.

Only the *retryable* error set is retried: optimistic-concurrency aborts
(``TransactionAborted``), lock-wait expiry (``LockTimeout``), and injected
transients (``TransientError``).  Everything else — syntax errors, plan
errors, timeouts — propagates immediately; retrying those would either
never succeed or violate the caller's budget.

Jitter is drawn from ``random.Random(f"{seed}:retry")`` so two runs with
the same seed back off identically — the same determinism contract as the
fault-injection registry, keeping chaos campaigns replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from time import sleep
from typing import Callable, Optional, TypeVar

from ..errors import LockTimeout, TransactionAborted, TransientError
from .watchdog import Deadline

T = TypeVar("T")

#: Errors worth re-running: the failed attempt left no partial effects
#: (aborted txn, lock never granted, injected transient).
RETRYABLE = (TransactionAborted, LockTimeout, TransientError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and seeded jitter.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *k* (1-based) is ``backoff_ms * multiplier**(k-1)`` capped at
    ``max_backoff_ms``, scaled by a jitter factor in [0.5, 1.0) drawn from
    the policy's seeded stream.
    """

    attempts: int = 3
    backoff_ms: float = 1.0
    multiplier: float = 2.0
    max_backoff_ms: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def delay_ms(self, retry_index: int, rng: Random) -> float:
        """Backoff before the *retry_index*-th retry (1-based), jittered."""
        base = self.backoff_ms * self.multiplier ** (retry_index - 1)
        return min(base, self.max_backoff_ms) * (0.5 + 0.5 * rng.random())

    def run(
        self,
        fn: Callable[[], T],
        *,
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> T:
        """Call *fn* until it succeeds, exhausts attempts, or hits the deadline.

        ``on_retry(retry_index, error)`` is invoked before each re-attempt
        (the service uses it to bump the ``ges_retries_total`` counter).
        A deadline that has already expired suppresses further retries —
        the last error propagates rather than burning budget on backoff.
        """
        rng: Random | None = None  # built lazily: the success path pays nothing
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except RETRYABLE as exc:
                if attempt >= self.attempts:
                    raise
                if deadline is not None and deadline.expired():
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if rng is None:
                    rng = Random(f"{self.seed}:retry")
                delay = self.delay_ms(attempt, rng)
                if delay > 0.0:
                    sleep(delay / 1e3)


@dataclass
class RetryStats:
    """Mutable retry accounting for callers without a metrics registry."""

    retries: int = 0
    last_error: str = ""
    by_type: dict = field(default_factory=dict)

    def record(self, _attempt: int, exc: BaseException) -> None:
        self.retries += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        name = type(exc).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1
