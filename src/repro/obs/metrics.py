"""Process-wide metrics registry: counters, gauges, log-bucketed histograms.

The engine-level instruments behind the paper's evaluation (queries served
per variant, plan-cache hit rate, factorization compression ratio, defactor
rate, memory-pool occupancy, per-LDBC-query-type latency) all live in one
:data:`REGISTRY` so a single export call — Prometheus text or JSON, see
:mod:`repro.obs.export` — captures the whole process.

Design points:

* **Histograms are log-bucketed** (geometric bucket bounds): p50/p95/p99
  come from bucket interpolation, so no samples are retained no matter how
  many observations arrive — a histogram is O(#buckets) forever.
* **Labels** follow the Prometheus model: one *family* per metric name, one
  instrument per label combination (``counter("ges_queries_total",
  variant="GES_f*")``).
* **Callback gauges** read their value lazily at export time (memory-pool
  occupancy), so idle subsystems cost nothing.

Naming scheme (documented in DESIGN.md): ``ges_`` prefix, base units
(seconds, bytes, ratios in [0, 1]), ``_total`` suffix on counters.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterator

#: Label key used to sort/identify one instrument inside a family.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("labels", "_value", "_lock")

    def __init__(self, labels: LabelKey = ()) -> None:
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative count."""
        return self._value


class Gauge:
    """A value that can go up and down, or be computed lazily via callback."""

    __slots__ = ("labels", "_value", "_fn", "_lock")

    def __init__(
        self, labels: LabelKey = (), fn: Callable[[], float] | None = None
    ) -> None:
        self.labels = labels
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to *value* (ignored for callback gauges)."""
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by *delta* (up or down; in-flight accounting)."""
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        """Current value (callback gauges evaluate their callback)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Log-bucketed histogram yielding percentiles without retained samples.

    Bucket ``i`` covers ``(lowest * growth**(i-1), lowest * growth**i]``;
    values at or below ``lowest`` land in bucket 0.  Percentile estimates
    interpolate geometrically inside the owning bucket and are clamped to
    the observed [min, max], so a single observation reports itself exactly.
    """

    __slots__ = (
        "labels", "lowest", "growth", "_counts", "_lock",
        "count", "sum", "min", "max",
    )

    def __init__(
        self,
        labels: LabelKey = (),
        lowest: float = 1e-6,
        growth: float = 2.0,
    ) -> None:
        if lowest <= 0 or growth <= 1:
            raise ValueError("need lowest > 0 and growth > 1")
        self.labels = labels
        self.lowest = lowest
        self.growth = growth
        # Keyed by bucket index; math.inf keys the overflow bucket.
        self._counts: dict[float, int] = {}
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket_of(self, value: float) -> float:
        if value <= self.lowest:
            return 0
        if value == math.inf:
            return math.inf  # the overflow bucket (upper bound +Inf)
        # ceil(log_growth(value / lowest)) suffers float fuzz exactly on
        # bucket boundaries, where log(growth**k)/log(growth) can land an
        # epsilon above or below k.  upper_bound() is the ground truth, so
        # the candidate is nudged until it is the *smallest* bucket whose
        # inclusive upper bound covers the value — boundary observations
        # land in one deterministic bucket.
        bucket = max(
            0, math.ceil(math.log(value / self.lowest) / math.log(self.growth))
        )
        while bucket > 0 and self.upper_bound(bucket - 1) >= value:
            bucket -= 1
        while self.upper_bound(bucket) < value:
            bucket += 1
        return bucket

    def upper_bound(self, bucket: float) -> float:
        """Inclusive upper bound of *bucket* (+Inf for the overflow bucket)."""
        if bucket == math.inf:
            return math.inf
        return self.lowest * self.growth**bucket

    def observe(self, value: float) -> None:
        """Record one observation.

        Any finite value is accepted — zero and negatives land in bucket 0
        (whose interpolation is clamped to the observed min), ``+inf``
        lands in the overflow bucket with upper bound ``+Inf`` — but NaN
        is rejected: it has no order, so no bucket or percentile could
        ever report it meaningfully.
        """
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        bucket = self._bucket_of(value)
        with self._lock:
            self._counts[bucket] = self._counts.get(bucket, 0) + 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (nan when empty)."""
        return self.sum / self.count if self.count else math.nan

    def percentile(self, pct: float) -> float:
        """Estimated value at percentile *pct* in [0, 100] (nan when empty).

        Nearest-rank bucket lookup with geometric interpolation inside the
        bucket, clamped to the observed range.
        """
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(pct / 100.0 * self.count))
        cumulative = 0
        for bucket in sorted(self._counts):
            in_bucket = self._counts[bucket]
            if cumulative + in_bucket >= rank:
                hi = self.upper_bound(bucket)
                if not math.isfinite(hi):  # overflow bucket: only +inf lives here
                    return float(self.max)
                lo = hi / self.growth if bucket > 0 else min(self.min, hi)
                frac = (rank - cumulative) / in_bucket
                if lo <= 0:
                    estimate = hi * frac
                else:
                    estimate = lo * (hi / lo) ** frac
                return float(min(max(estimate, self.min), self.max))
            cumulative += in_bucket
        return float(self.max)

    def summary(self) -> dict[str, float]:
        """count/sum/mean/min/max plus p50/p95/p99 in one dict."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": math.nan if empty else self.min,
            "max": math.nan if empty else self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs for Prometheus export."""
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bucket in sorted(self._counts):
            cumulative += self._counts[bucket]
            out.append((self.upper_bound(bucket), cumulative))
        return out


class MetricFamily:
    """All instruments sharing one metric name (one per label combination)."""

    __slots__ = ("name", "kind", "help", "instruments")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.instruments: dict[LabelKey, Any] = {}


class MetricsRegistry:
    """Thread-safe home of every metric family in the process."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _instrument(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict[str, Any],
        factory: Callable[[LabelKey], Any],
    ) -> Any:
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = factory(key)
                family.instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter for *name* + *labels* (created on first use)."""
        return self._instrument(name, "counter", help, labels, Counter)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
        **labels: Any,
    ) -> Gauge:
        """The gauge for *name* + *labels*; *fn* makes it a callback gauge."""
        return self._instrument(
            name, "gauge", help, labels, lambda key: Gauge(key, fn=fn)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        lowest: float = 1e-6,
        growth: float = 2.0,
        **labels: Any,
    ) -> Histogram:
        """The histogram for *name* + *labels* (created on first use)."""
        return self._instrument(
            name,
            "histogram",
            help,
            labels,
            lambda key: Histogram(key, lowest=lowest, growth=growth),
        )

    def families(self) -> Iterator[MetricFamily]:
        """All registered families, sorted by name."""
        with self._lock:
            snapshot = sorted(self._families.values(), key=lambda f: f.name)
        yield from snapshot

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under *name*, or None."""
        return self._families.get(name)

    def reset(self) -> None:
        """Drop every family (tests only — instruments held by engines
        keep counting into their now-orphaned objects)."""
        with self._lock:
            self._families.clear()


#: The process-wide default registry every engine instruments into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY
