"""Size-class memory pool backing copy-on-write snapshots (paper §5).

The paper's engine "employs a memory pool to facilitate the copy-on-write
strategy, reducing the overhead caused by frequent memory allocation and
deallocation".  This reproduction keeps freelists of NumPy buffers bucketed
by power-of-two size class; acquire/release round-trips reuse buffers
instead of re-allocating, and hit/miss counters make the effect measurable
(see ``benchmarks/bench_ablation_memory_pool.py``).
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from ..errors import TransientError
from ..obs.metrics import MetricsRegistry, REGISTRY
from ..resilience import faults
from ..types import DataType


def _size_class(n: int) -> int:
    """Smallest power of two >= n (and >= 8)."""
    size = 8
    while size < n:
        size <<= 1
    return size


class MemoryPool:
    """Thread-safe pool of reusable NumPy buffers, bucketed by size class."""

    def __init__(self, max_buffers_per_class: int = 64) -> None:
        self._freelists: dict[tuple[int, str], list[np.ndarray]] = defaultdict(list)
        self._lock = threading.Lock()
        self._max_per_class = max_buffers_per_class
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.direct_allocs = 0

    def acquire(self, n: int, dtype: DataType | np.dtype = DataType.INT64) -> np.ndarray:
        """A buffer with at least *n* elements (contents undefined).

        The returned array may be larger than requested; callers slice to
        the length they need.

        Pool exhaustion (fault site ``memory_pool.acquire``) degrades in
        place to a direct allocation — a pooled buffer is an optimization,
        never a correctness requirement, so the failure stays invisible to
        the query apart from the ``direct_allocs`` counter.
        """
        np_dtype = dtype.numpy_dtype if isinstance(dtype, DataType) else np.dtype(dtype)
        size = _size_class(n)
        if faults.ACTIVE is not None:
            try:
                faults.ACTIVE.fire("memory_pool.acquire")
            except TransientError:
                with self._lock:
                    self.direct_allocs += 1
                return np.empty(size, dtype=np_dtype)
        bucket = (size, np_dtype.str)
        with self._lock:
            freelist = self._freelists[bucket]
            if freelist:
                self.hits += 1
                return freelist.pop()
            self.misses += 1
        return np.empty(size, dtype=np_dtype)

    def release(self, buffer: np.ndarray) -> None:
        """Return a buffer to the pool for reuse."""
        size = len(buffer)
        if size & (size - 1) or size < 8:
            return  # not one of ours; let the GC have it
        bucket = (size, buffer.dtype.str)
        with self._lock:
            freelist = self._freelists[bucket]
            if len(freelist) < self._max_per_class:
                freelist.append(buffer)
                self.releases += 1

    @property
    def pooled_buffers(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._freelists.values())

    @property
    def pooled_bytes(self) -> int:
        """Total bytes parked in the freelists (how much memory the pool is
        already holding)."""
        with self._lock:
            return sum(
                buffer.nbytes
                for freelist in self._freelists.values()
                for buffer in freelist
            )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._freelists.clear()

    def bind_metrics(
        self, registry: MetricsRegistry | None = None, **labels: str
    ) -> None:
        """Expose this pool's occupancy and hit rate as callback gauges.

        Callback gauges read the pool lazily at export time, so an idle
        pool costs nothing; *labels* distinguish multiple pools (the
        default pool registers with ``pool="default"``).
        """
        registry = registry if registry is not None else REGISTRY
        registry.gauge(
            "ges_memory_pool_buffers",
            "Buffers currently parked in the pool's freelists.",
            fn=lambda: self.pooled_buffers,
            **labels,
        )
        registry.gauge(
            "ges_memory_pool_hit_rate",
            "Fraction of acquires served from a freelist.",
            fn=lambda: self.hit_rate,
            **labels,
        )
        registry.gauge(
            "ges_memory_pool_bytes",
            "Bytes currently parked in the pool's freelists.",
            fn=lambda: self.pooled_bytes,
            **labels,
        )


#: Process-wide default pool used by the transaction layer when the engine
#: is not configured with a dedicated one.
DEFAULT_POOL = MemoryPool()
DEFAULT_POOL.bind_metrics(pool="default")
