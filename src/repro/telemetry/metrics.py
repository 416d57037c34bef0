"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is a namespace of named instruments.  Two
registries matter in practice:

* the **process-wide** registry (:func:`get_registry`) carries the
  library-level series — fit restarts, oracle builds, executor tasks,
  shared-memory broadcast traffic;
* each :class:`~repro.serving.engine.InferenceEngine` owns a private
  registry for its serving series, so two engines in one process never
  mix their counters.

Three properties make the registry fit the worker-pool architecture:

* **mergeable snapshots** — :meth:`MetricsRegistry.snapshot` returns a
  plain JSON-safe dict; :func:`snapshot_diff` subtracts two snapshots
  and :meth:`MetricsRegistry.merge` adds a (delta) snapshot back in.
  Executor workers accumulate into their own process-local registry
  and ship per-task deltas back over their result pipes
  (:mod:`repro.core.executor`), where the parent reduces them — the
  parent's totals are then independent of how tasks were scheduled.
* **bucketed latency** — histograms never retain samples: observations
  land in fixed cumulative buckets, so p50/p95/p99 come from bucket
  interpolation at O(#buckets) memory regardless of traffic.
* **Prometheus exposition** — :func:`prometheus_text` renders one or
  more snapshots in the Prometheus text format (stdlib only), which is
  what ``GET /v1/metrics`` on the decision service serves.

Instrument handles are cheap to hold: resolve them once (e.g. in a
constructor) and call ``inc``/``observe`` on the hot path — each call
is one small-lock round trip.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ValidationError

#: Default latency buckets (seconds): 10 us to 2.5 s, roughly
#: logarithmic — wide enough for both the ~20 us single-record serving
#: path and multi-second fits.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5,
)

LabelsLike = Optional[Mapping[str, str]]


def _metric_key(name: str, labels: LabelsLike) -> str:
    """Flat snapshot key: ``name`` or ``name|k=v|k2=v2`` (sorted)."""
    if not labels:
        return name
    parts = "|".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}|{parts}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of the snapshot key encoding: ``(name, labels)``."""
    if "|" not in key:
        return key, {}
    name, *pairs = key.split("|")
    return name, dict(pair.split("=", 1) for pair in pairs)


class Counter:
    """Monotonic counter (floats allowed: byte totals, seconds)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only move forward")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move both ways (pool sizes, cache entries)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram; no sample retention.

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit +Inf bucket catches the rest.  Quantiles are estimated by
    linear interpolation inside the bucket holding the target rank —
    exact to within one bucket width, O(1) memory forever.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValidationError(
                "histogram bounds must be strictly increasing and non-empty"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated q-quantile (NaN while empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError("quantile must lie in [0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count > 0:
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                if index >= len(self.bounds):
                    return self.bounds[-1]  # +Inf bucket: clamp to last edge
                upper = self.bounds[index]
                fraction = (rank - previous) / count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]  # pragma: no cover - loop always returns

    def _state(self) -> Dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Named instruments + mergeable snapshots + Prometheus rendering."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create, idempotent) -----------------

    def counter(self, name: str, labels: LabelsLike = None) -> Counter:
        key = _metric_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
            return instrument

    def gauge(self, name: str, labels: LabelsLike = None) -> Gauge:
        key = _metric_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
            return instrument

    def histogram(
        self,
        name: str,
        labels: LabelsLike = None,
        *,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        key = _metric_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(bounds)
            return instrument

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-safe state of every instrument (see :func:`snapshot_diff`)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {key: c.value for key, c in counters.items()},
            "gauges": {key: g.value for key, g in gauges.items()},
            "histograms": {key: h._state() for key, h in histograms.items()},
        }

    def merge(self, snapshot: Optional[Dict]) -> None:
        """Fold a snapshot (typically a delta) into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last-write-wins — a worker's gauge describes the
        worker's current state, not an increment).
        """
        if not snapshot:
            return
        for key, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(key).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            self.gauge(key).set(value)
        for key, state in snapshot.get("histograms", {}).items():
            histogram = self.histogram(key, bounds=state["bounds"])
            if list(histogram.bounds) != list(state["bounds"]):
                raise ValidationError(
                    f"histogram {key!r} merge with different bucket bounds"
                )
            with histogram._lock:
                for index, count in enumerate(state["counts"]):
                    histogram._counts[index] += count
                histogram._sum += state["sum"]
                histogram._count += state["count"]

    def value(self, name: str, labels: LabelsLike = None) -> float:
        """Current value of a counter or gauge (0.0 when absent)."""
        key = _metric_key(name, labels)
        with self._lock:
            if key in self._counters:
                instrument = self._counters[key]
            elif key in self._gauges:
                instrument = self._gauges[key]
            else:
                return 0.0
        return instrument.value

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def to_prometheus(self) -> str:
        """This registry alone in Prometheus text format."""
        return prometheus_text(self.snapshot())


def snapshot_diff(current: Dict, previous: Optional[Dict]) -> Dict:
    """``current - previous``, dropping all-zero entries.

    The worker-side half of delta shipping: a worker snapshots after
    each task, diffs against what it last shipped, and sends only the
    change.  Gauges pass through at their current value (they are not
    cumulative).  An empty diff returns ``{}`` so callers can skip the
    pickle entirely.
    """
    previous = previous or {}
    diff: Dict = {}
    counters = {
        key: value - previous.get("counters", {}).get(key, 0.0)
        for key, value in current.get("counters", {}).items()
    }
    counters = {key: value for key, value in counters.items() if value}
    if counters:
        diff["counters"] = counters
    gauges = {
        key: value
        for key, value in current.get("gauges", {}).items()
        if previous.get("gauges", {}).get(key) != value
    }
    if gauges:
        diff["gauges"] = gauges
    histograms: Dict = {}
    for key, state in current.get("histograms", {}).items():
        prev = previous.get("histograms", {}).get(key)
        if prev is None:
            if state["count"]:
                histograms[key] = state
            continue
        delta_counts = [
            c - p for c, p in zip(state["counts"], prev["counts"])
        ]
        if any(delta_counts):
            histograms[key] = {
                "bounds": state["bounds"],
                "counts": delta_counts,
                "sum": state["sum"] - prev["sum"],
                "count": state["count"] - prev["count"],
            }
    if histograms:
        diff["histograms"] = histograms
    return diff


def merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Reduce snapshots into one (counters/buckets add, gauges last-win)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def sum_counter(snapshot: Dict, name: str) -> float:
    """Sum one counter series across every label combination.

    The reduction half of :func:`relabel_snapshot`: after worker deltas
    are merged under ``worker="<i>"`` labels, the unlabelled total of a
    series (e.g. ``serving_requests_total``) is the sum over all its
    labelled keys.  Resilience series added by the PR 9 dispatcher
    (``serving_deadline_kills_total``, ``serving_shed_total``,
    ``serving_worker_evictions_total``, ...) reduce the same way.
    """
    return sum(
        value
        for key, value in snapshot.get("counters", {}).items()
        if parse_metric_key(key)[0] == name
    )


def sum_gauge(snapshot: Dict, name: str) -> float:
    """Sum one gauge series across every label combination.

    Meaningful for additive gauges (per-worker cache entry counts, live
    slot counts); last-write-wins gauges should be read per label.
    """
    return sum(
        value
        for key, value in snapshot.get("gauges", {}).items()
        if parse_metric_key(key)[0] == name
    )


def relabel_snapshot(snapshot: Optional[Dict], labels: Mapping[str, str]) -> Dict:
    """Fold ``labels`` into every metric key of ``snapshot``.

    The serving dispatcher ships each engine worker's registry delta
    back to the parent and merges it under a ``worker="<i>"`` label, so
    one ``/v1/metrics`` scrape exposes per-worker series while the
    unlabeled totals remain derivable by summing over the label.  Keys
    that already carry one of ``labels`` keep their own value (a verb
    label set in the worker is never overwritten).
    """
    if not snapshot:
        return {}
    if not labels:
        return snapshot

    def rekey(key: str) -> str:
        name, existing = parse_metric_key(key)
        merged_labels = dict(labels)
        merged_labels.update(existing)
        return _metric_key(name, merged_labels)

    relabeled: Dict = {}
    for section in ("counters", "gauges", "histograms"):
        if section in snapshot:
            relabeled[section] = {
                rekey(key): value for key, value in snapshot[section].items()
            }
    return relabeled


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(*snapshots: Dict) -> str:
    """Render snapshots in the Prometheus text exposition format.

    Multiple snapshots are merged first (e.g. an engine's serving
    registry plus the process-wide library registry), so one scrape
    endpoint covers every series in the process.
    """
    merged = (
        snapshots[0] if len(snapshots) == 1 else merge_snapshots(list(snapshots))
    )
    lines: List[str] = []
    typed: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(merged.get("counters", {})):
        name, labels = parse_metric_key(key)
        type_line(name, "counter")
        lines.append(
            f"{name}{_prometheus_labels(labels)} "
            f"{_format_value(merged['counters'][key])}"
        )
    for key in sorted(merged.get("gauges", {})):
        name, labels = parse_metric_key(key)
        type_line(name, "gauge")
        lines.append(
            f"{name}{_prometheus_labels(labels)} "
            f"{_format_value(merged['gauges'][key])}"
        )
    for key in sorted(merged.get("histograms", {})):
        name, labels = parse_metric_key(key)
        state = merged["histograms"][key]
        type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(state["bounds"], state["counts"]):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(bound)
            lines.append(
                f"{name}_bucket{_prometheus_labels(bucket_labels)} {cumulative}"
            )
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(
            f"{name}_bucket{_prometheus_labels(bucket_labels)} {state['count']}"
        )
        lines.append(
            f"{name}_sum{_prometheus_labels(labels)} "
            f"{_format_value(state['sum'])}"
        )
        lines.append(
            f"{name}_count{_prometheus_labels(labels)} {state['count']}"
        )
    return "\n".join(lines) + "\n"


_REGISTRY: Optional[MetricsRegistry] = None
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (library-level series)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        if _REGISTRY is None:
            _REGISTRY = MetricsRegistry()
        return _REGISTRY
