"""Exception hierarchy for the GES reproduction.

Every error raised by the library derives from :class:`GesError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class GesError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(GesError):
    """A label, property, or attribute was used inconsistently with the catalog."""


class StorageError(GesError):
    """The storage layer was asked to do something impossible (bad id, bad key)."""


class WalCorrupt(StorageError):
    """A write-ahead-log record failed its integrity check (torn tail,
    checksum mismatch, bad header).  Recovery stops cleanly at the first
    corrupt record; ``repro fsck`` names the torn byte offset."""


class PlanError(GesError):
    """A logical plan is malformed or references unknown attributes."""


class ExpressionError(GesError):
    """An expression could not be compiled or evaluated."""


class ExecutionError(GesError):
    """A physical operator failed during evaluation."""


class FactorizationError(GesError):
    """An f-Tree invariant (disjoint schema partition, index-vector bounds) was violated."""


class TransactionError(GesError):
    """Base class for concurrency-control failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (deadlock avoidance or explicit rollback)."""


class LockTimeout(TransactionError):
    """A lock could not be acquired within the configured wait budget."""


class QueryTimeout(GesError):
    """The query exceeded its deadline and was cooperatively cancelled."""


class TransientError(GesError):
    """A retryable transient failure (injected fault or recoverable glitch)."""


class CypherSyntaxError(GesError):
    """The Cypher frontend rejected the query text."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class CypherUnsupportedError(GesError):
    """The query is valid Cypher but outside the supported subset."""


class DriverError(GesError):
    """The LDBC benchmark driver hit an unrecoverable condition."""
