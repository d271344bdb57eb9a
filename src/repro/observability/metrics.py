"""Thread-safe metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is the single sink every instrumented
subsystem reports into.  Metrics are identified by ``(name, labels)``
— the Prometheus data model — and created on first use, so call sites
never coordinate registration.  The registry exports two formats:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict that round-trips
  losslessly through :meth:`MetricsRegistry.from_snapshot` (the BENCH
  breakdown section and the ``python -m repro metrics`` CLI use this);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, for scraping or eyeballing.

Disabled observability must cost nothing on the hot path, so the
module also provides no-op twins (:data:`NULL_REGISTRY` and the null
metric singletons it hands out): a single attribute lookup plus an
empty method call per instrumentation point, no locks, no allocation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import ObservabilityError

#: Default histogram buckets (seconds): spans four decades of latency,
#: from sub-millisecond crypto primitives to multi-second requests.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default buckets for size-like quantities (batch sizes, chunk sizes).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: ints without a decimal."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, pool size).

    Alongside the current value the gauge tracks its **high-water
    mark** — the maximum ever set — which leak/soak sentinels read to
    bound quantities like channel depth over a whole run.  The mark is
    in-memory introspection only (not part of the snapshot or the
    Prometheus export, whose formats are frozen by golden tests).
    """

    __slots__ = ("name", "labels", "_lock", "_value", "_high_water")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._high_water = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._high_water:
                self._high_water = self._value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._high_water:
                self._high_water = self._value

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_water(self) -> float:
        """Maximum value this gauge ever held."""
        return self._high_water


class Histogram:
    """A fixed-bucket histogram of observations.

    ``buckets`` are ascending upper bounds; one implicit overflow
    bucket (``+Inf``) catches everything beyond the last bound, so an
    observation is never dropped.  Counts are cumulative only at
    export time (Prometheus semantics); internally each bucket holds
    its own count, which is what the snapshot round-trips.  Like a
    gauge's high-water mark, the largest observation (:attr:`max`) is
    in-memory introspection only.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts",
                 "_sum", "_count", "_max")

    def __init__(self, name: str, labels: _LabelKey,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(
                f"histogram {name} needs at least one bucket"
            )
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name} buckets must be strictly ascending"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max: float | None = None

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float | None:
        """Largest observation (None before the first)."""
        return self._max

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last is the overflow."""
        with self._lock:
            return list(self._counts)


class MetricsRegistry:
    """Get-or-create home for every metric, keyed by name + labels."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, _LabelKey], object] = {}

    def _get_or_create(self, kind: str, name: str, labels: _LabelKey,
                       factory):
        key = (kind, name, labels)
        metric = self._metrics.get(key)
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for other_kind in ("counter", "gauge", "histogram"):
                    if other_kind != kind and \
                            (other_kind, name, labels) in self._metrics:
                        raise ObservabilityError(
                            f"metric {name!r} already registered as a "
                            f"{other_kind}, cannot re-register as a "
                            f"{kind}"
                        )
                metric = factory()
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(labels)
        return self._get_or_create(
            "counter", name, key, lambda: Counter(name, key)
        )

    def gauge(self, name: str, **labels) -> Gauge:
        key = _label_key(labels)
        return self._get_or_create(
            "gauge", name, key, lambda: Gauge(name, key)
        )

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None,
                  **labels) -> Histogram:
        key = _label_key(labels)
        bounds = DEFAULT_BUCKETS if buckets is None else buckets
        return self._get_or_create(
            "histogram", name, key,
            lambda: Histogram(name, key, bounds),
        )

    def find(self, kind: str, name: str):
        """Every registered metric of ``kind`` (``counter`` /
        ``gauge`` / ``histogram``) named ``name``, as a list of
        ``(labels_dict, metric)`` pairs.  Soak sentinels use this to
        read e.g. every ``stream_queue_depth`` gauge's high-water mark
        without knowing the label sets in advance."""
        with self._lock:
            items = list(self._metrics.items())
        return [(dict(labels), metric)
                for (metric_kind, metric_name, labels), metric in items
                if metric_kind == kind and metric_name == name]

    # -- export --------------------------------------------------------

    def _sorted_metrics(self):
        with self._lock:
            items = list(self._metrics.items())
        return sorted(items, key=lambda kv: (kv[0][1], kv[0][2]))

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric; see :meth:`from_snapshot`."""
        counters, gauges, histograms = [], [], []
        for (kind, name, labels), metric in self._sorted_metrics():
            entry: dict = {"name": name, "labels": dict(labels)}
            if kind == "counter":
                entry["value"] = metric.value
                counters.append(entry)
            elif kind == "gauge":
                entry["value"] = metric.value
                gauges.append(entry)
            else:
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = metric.bucket_counts()
                entry["sum"] = metric.sum
                entry["count"] = metric.count
                histograms.append(entry)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    @classmethod
    def from_snapshot(cls, doc: Mapping) -> "MetricsRegistry":
        """Rebuild a registry whose :meth:`snapshot` equals ``doc``."""
        registry = cls()
        for entry in doc.get("counters", ()):
            registry.counter(entry["name"], **entry["labels"]).inc(
                entry["value"]
            )
        for entry in doc.get("gauges", ()):
            registry.gauge(entry["name"], **entry["labels"]).set(
                entry["value"]
            )
        for entry in doc.get("histograms", ()):
            histogram = registry.histogram(
                entry["name"], buckets=entry["buckets"],
                **entry["labels"],
            )
            with histogram._lock:
                histogram._counts = list(entry["counts"])
                histogram._sum = entry["sum"]
                histogram._count = entry["count"]
        return registry

    def to_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        seen_types: set = set()
        for (kind, name, labels), metric in self._sorted_metrics():
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")
            label_text = ",".join(f'{k}="{v}"' for k, v in labels)
            suffix = f"{{{label_text}}}" if label_text else ""
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{suffix} {_format_value(metric.value)}"
                )
                continue
            cumulative = 0
            counts = metric.bucket_counts()
            for bound, bucket_count in zip(
                list(metric.buckets) + [float("inf")], counts
            ):
                cumulative += bucket_count
                le = ([f'le="{_format_value(bound)}"']
                      + [f'{k}="{v}"' for k, v in labels])
                lines.append(
                    f"{name}_bucket{{{','.join(le)}}} {cumulative}"
                )
            lines.append(
                f"{name}_sum{suffix} {_format_value(metric.sum)}"
            )
            lines.append(f"{name}_count{suffix} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# No-op twins: what disabled observability hands to the hot paths.
# ----------------------------------------------------------------------

class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def high_water(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    buckets: Tuple[float, ...] = ()

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    @property
    def max(self) -> None:
        return None

    def bucket_counts(self) -> List[int]:
        return []


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Registry twin that allocates nothing and records nothing."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None,
                  **labels) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def find(self, kind: str, name: str) -> list:
        return []

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}

    def to_prometheus(self) -> str:
        return ""


#: Shared no-op registry; safe to hand to any number of components.
NULL_REGISTRY = NullRegistry()
