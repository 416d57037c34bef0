"""Online inference over a fitted serving artifact.

The :class:`InferenceEngine` answers the four serving verbs —
``transform``, ``score``, ``rank``, ``decide`` — on top of a
:class:`~repro.serving.artifacts.ServingArtifact`.  Three mechanisms
make it fit online traffic rather than batch experiments:

* **micro-batching** — concurrent callers' records are coalesced into
  one matrix pass through the model (leader/follower pattern: the
  first caller in becomes the flusher for everything queued behind it);
* **LRU caching** — the fair representation of each record is cached
  under a hash of its raw bytes, so repeated records (hot users, retry
  storms) skip the model entirely;
* **chunked evaluation** — the model evaluates at most ``batch_size``
  rows at a time (see ``IFair.memberships``), so a single huge request
  cannot blow memory.  Each chunk goes through the row-stable kernels
  of :mod:`repro.utils.kernels`, with bitwise-identical results for
  any chunking; for models above the kernel's small-problem threshold
  (``K * N > ~200``) that means ``O(batch * K)`` extra memory per
  pass with no ``(batch, K, N)`` tensor, while tiny models use the
  difference-tensor form where it is trivially small.

All request maths is delegated to the library layers the batch
pipeline already trusts: ``IFair.transform`` for representations,
``LogisticRegression`` for scores, ``GroupThresholdAdjuster`` for
decisions, and :mod:`repro.ranking` / :mod:`repro.metrics` for ranking
order and diagnostics.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.schema import TabularDataset
from repro.exceptions import ValidationError
from repro.metrics.group import protected_share_at_k
from repro.ranking.engine import RankingEvaluation, evaluate_scores
from repro.ranking.query import Query
from repro.serving.artifacts import ServingArtifact
from repro.telemetry.fairness import FairnessMonitor
from repro.telemetry.metrics import (
    Counter,
    MetricsRegistry,
    get_registry,
    prometheus_text,
)
from repro.telemetry.tracing import get_tracer
from repro.utils.validation import check_binary_labels


class NonFiniteOutputError(ValidationError):
    """A serving stage turned finite records into non-finite numbers.

    Finite but extreme inputs (say, every feature 1e308) can overflow
    the scaler, the prototype pass or the scorer.  The request is
    well-formed JSON the model cannot represent, so it answers 422
    and names the ``stage`` that overflowed (``scale``, ``model`` or
    ``scorer``) instead of leaking ``NaN`` into the reply.
    """

    status = 422

    def __init__(self, stage: str):
        super().__init__(
            f"the {stage} stage produced non-finite values from finite "
            "records: the input lies outside the range the fitted model "
            "can represent"
        )
        self.stage = stage


class _PendingBatch:
    """One caller's rows waiting inside the micro-batcher."""

    __slots__ = ("rows", "event", "result", "error", "promoted")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.event = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.promoted = False


class MicroBatcher:
    """Coalesce concurrent row batches into single model passes.

    ``submit`` enqueues rows and blocks until a flush delivers their
    results.  The first thread to find no flush in progress becomes the
    *leader*: it optionally waits ``max_delay`` seconds for followers
    to pile in, then runs ``fn`` once over every queued row and wakes
    all waiters.  With ``max_delay=0`` a lone caller pays no latency —
    coalescing then only captures rows that were already queued.
    """

    def __init__(
        self,
        fn,
        *,
        max_delay: float = 0.0,
        flush_counter: Optional[Counter] = None,
        coalesced_counter: Optional[Counter] = None,
    ):
        if max_delay < 0:
            raise ValidationError("max_delay must be non-negative")
        self._fn = fn
        self._max_delay = float(max_delay)
        self._lock = threading.Lock()
        self._queue: List[_PendingBatch] = []
        self._flushing = False
        # Counters live in the owning engine's metrics registry when one
        # is supplied, so /v1/metrics and these attributes agree by
        # construction; standalone batchers get private counters.
        self._n_flushes = flush_counter if flush_counter is not None else Counter()
        self._n_coalesced = (
            coalesced_counter if coalesced_counter is not None else Counter()
        )

    @property
    def n_flushes(self) -> int:
        return int(self._n_flushes.value)

    @property
    def n_coalesced(self) -> int:
        return int(self._n_coalesced.value)

    def submit(self, rows: np.ndarray) -> np.ndarray:
        with self._lock:
            solo = self._max_delay == 0.0 and not self._flushing and not self._queue
            if solo:
                self._flushing = True
            else:
                entry = _PendingBatch(rows)
                self._queue.append(entry)
                leader = not self._flushing
                if leader:
                    self._flushing = True
        if solo:
            # Uncontended fast path (the p50/p99 single-record route):
            # no queue entry, no Event, no concatenate — one lock
            # round-trip and the model pass itself.  Followers that
            # queued during the pass inherit leadership on the way out.
            self._n_flushes.inc()
            try:
                return self._fn(rows)
            finally:
                with self._lock:
                    if self._queue:
                        successor = self._queue[0]
                        successor.promoted = True
                        successor.event.set()
                    else:
                        self._flushing = False
        if leader:
            if self._max_delay > 0:
                time.sleep(self._max_delay)
            self._drain(entry)
        else:
            entry.event.wait()
            if entry.promoted and entry.result is None and entry.error is None:
                # the previous leader finished its own work and handed
                # the flush duty to us; our rows are still queued
                self._drain(entry)
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def _drain(self, own: _PendingBatch) -> None:
        """Leader loop: flush queued batches until done or handed off.

        The ``_flushing`` flag stays set for the whole drain, so rows
        arriving while a model pass is in flight queue up and ride the
        *next* pass instead of starting their own.  Once the leader's
        own rows are answered it hands leadership to the oldest queued
        entry instead of draining forever — under a sustained request
        stream this bounds every caller's latency to ~2 model passes
        rather than starving whichever thread became leader first.
        """
        while True:
            with self._lock:
                if not self._queue:
                    self._flushing = False
                    return
                if own.result is not None or own.error is not None:
                    successor = self._queue[0]
                    successor.promoted = True
                    successor.event.set()
                    return
                batch, self._queue = self._queue, []
            self._flush(batch)

    def _flush(self, batch: List[_PendingBatch]) -> None:
        self._n_flushes.inc()
        if len(batch) > 1:
            self._n_coalesced.inc(len(batch) - 1)
        try:
            stacked = np.concatenate([entry.rows for entry in batch], axis=0)
            results = self._fn(stacked)
            offset = 0
            for entry in batch:
                n = entry.rows.shape[0]
                entry.result = results[offset : offset + n]
                offset += n
        except BaseException as exc:  # deliver the failure to every waiter
            for entry in batch:
                entry.error = exc
        finally:
            for entry in batch:
                entry.event.set()


class LRUCache:
    """Thread-safe byte-key -> array LRU with hit/miss accounting."""

    def __init__(
        self,
        capacity: int,
        *,
        hit_counter: Optional[Counter] = None,
        miss_counter: Optional[Counter] = None,
    ):
        if capacity < 0:
            raise ValidationError("cache capacity must be non-negative")
        self.capacity = int(capacity)
        self._store: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = hit_counter if hit_counter is not None else Counter()
        self._misses = miss_counter if miss_counter is not None else Counter()

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    def get(self, key: bytes) -> Optional[np.ndarray]:
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                self._store.move_to_end(key)
        if value is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return value

    def put(self, key: bytes, value: np.ndarray) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


class InferenceEngine:
    """Serve a fitted pipeline to online callers.

    Parameters
    ----------
    artifact:
        The fitted pipeline to serve.
    batch_size:
        Upper bound on rows per model evaluation (chunking).
    cache_size:
        Per-record representation cache capacity; 0 disables caching.
    max_batch_delay:
        Seconds the micro-batch leader waits for followers.  The
        default 0 adds no latency; raise it (e.g. to 0.002) to trade
        latency for throughput under heavy concurrency.
    micro_batch:
        Disable to bypass the batcher entirely (diagnostics only).
    """

    def __init__(
        self,
        artifact: ServingArtifact,
        *,
        batch_size: int = 256,
        cache_size: int = 4096,
        max_batch_delay: float = 0.0,
        micro_batch: bool = True,
    ):
        if batch_size < 1:
            raise ValidationError("batch_size must be a positive integer")
        self.artifact = artifact
        self.batch_size = int(batch_size)
        # Every serving counter lives in a per-engine registry — two
        # engines in one process never mix series, and /v1/metrics
        # renders this registry merged with the process-wide one.
        self.registry = MetricsRegistry()
        self._cache = LRUCache(
            cache_size,
            hit_counter=self.registry.counter("serving_cache_hits_total"),
            miss_counter=self.registry.counter("serving_cache_misses_total"),
        )
        self._batcher = MicroBatcher(
            self._represent,
            max_delay=max_batch_delay,
            flush_counter=self.registry.counter("serving_batch_flushes_total"),
            coalesced_counter=self.registry.counter(
                "serving_coalesced_requests_total"
            ),
        )
        self._micro_batch = bool(micro_batch)
        self._requests = self.registry.counter("serving_requests_total")
        self._records = self.registry.counter("serving_records_total")
        self._latency: Dict[str, object] = {
            verb: self.registry.histogram(
                "serving_request_seconds", {"verb": verb}
            )
            for verb in ("transform", "score", "rank", "decide")
        }
        self.monitor = FairnessMonitor(
            artifact.protected_indices, registry=self.registry
        )
        # Attached by serve_artifact(online_refit=True); the HTTP layer
        # taps data-plane traffic into it and routes /v1/admin/online.
        self.online_controller = None
        self.started_at = time.time()
        # Per-request config resolution hoisted out of the hot loop:
        # the artifact's layout is immutable once served, so the
        # attribute chains are bound once rather than re-resolved on
        # every record.
        self._model = artifact.model
        self._encoder = artifact.encoder
        self._scaler = artifact.scaler
        self._n_features = int(artifact.n_features)

    @property
    def n_requests(self) -> int:
        return int(self._requests.value)

    @property
    def n_records(self) -> int:
        return int(self._records.value)

    @property
    def uptime_s(self) -> float:
        """Seconds since this engine was constructed."""
        return time.time() - self.started_at

    # ------------------------------------------------------------------
    # record ingestion

    def _encode(self, records) -> np.ndarray:
        """Raw request records -> the encoded numeric feature space."""
        if self._encoder is not None:
            X = self._encoder.transform(np.asarray(records, dtype=object))
        else:
            X = np.asarray(records, dtype=np.float64)
            if X.ndim == 1:
                X = X.reshape(1, -1)
            if X.ndim != 2:
                raise ValidationError("records must be a 2-D array-like")
        if X.shape[0] == 0:
            raise ValidationError("records must not be empty")
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"records have {X.shape[1]} features, model expects "
                f"{self._n_features}"
            )
        if not np.all(np.isfinite(X)):
            raise ValidationError("records contain NaN or infinite values")
        return X

    def _represent(self, X: np.ndarray) -> np.ndarray:
        """Encoded records -> fair representation (scaler + iFair).

        Inputs were validated by :meth:`_encode`, so both stages skip
        their own re-validation scans (``validate=False`` — the
        arithmetic is the batch pipeline's, unchanged).
        """
        with get_tracer().span(
            "serving.model_pass", n_rows=int(X.shape[0])
        ), np.errstate(over="ignore", invalid="ignore"):
            if self._scaler is not None:
                X = self._scaler.transform(X, validate=False)
            return self._model.transform(
                X, batch_size=self.batch_size, validate=False
            )

    def _check_finite(self, X: np.ndarray, Z: np.ndarray) -> None:
        """Raise :class:`NonFiniteOutputError` unless ``Z`` is finite.

        Checked per caller on its own rows, so an overflowing record
        never fails another request coalesced into the same model
        pass.  The slow path re-runs the scaler alone to tell a
        ``scale`` overflow from a ``model`` one.
        """
        if np.isfinite(Z).all():
            return
        stage = "model"
        if self._scaler is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = self._scaler.transform(X, validate=False)
            if not np.isfinite(scaled).all():
                stage = "scale"
        raise NonFiniteOutputError(stage)

    @staticmethod
    def _keys(X: np.ndarray) -> List[bytes]:
        return [hashlib.blake2b(row.tobytes(), digest_size=16).digest() for row in X]

    def _fair_representation(self, records) -> np.ndarray:
        """Cache-aware path from raw records to fair representations."""
        X = self._encode(records)
        self._requests.inc()
        self._records.inc(X.shape[0])
        if self._cache.capacity == 0:  # skip per-row hashing entirely
            if self._micro_batch:
                Z = self._batcher.submit(X)
            else:
                Z = self._represent(X)
            self._check_finite(X, Z)
            return Z
        keys = self._keys(X)
        Z = np.empty((X.shape[0], self.artifact.n_features))
        miss_rows: List[int] = []
        for i, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is None:
                miss_rows.append(i)
            else:
                Z[i] = cached
        if miss_rows:
            X_miss = X[miss_rows]
            if self._micro_batch:
                Z_miss = self._batcher.submit(X_miss)
            else:
                Z_miss = self._represent(X_miss)
            self._check_finite(X_miss, Z_miss)
            for j, i in enumerate(miss_rows):
                Z[i] = Z_miss[j]
                self._cache.put(keys[i], Z_miss[j].copy())
        return Z

    # ------------------------------------------------------------------
    # serving verbs

    def _score_impl(self, records) -> np.ndarray:
        if self.artifact.scorer is None:
            raise ValidationError(
                "artifact carries no scorer; fit-save with a labelled dataset"
            )
        Z = self._fair_representation(records)
        scores = self.artifact.scorer.predict_proba(Z)
        if not np.isfinite(scores).all():
            raise NonFiniteOutputError("scorer")
        return scores

    def transform(self, records) -> np.ndarray:
        """Fair representation of each record (Definition 3)."""
        start = time.perf_counter()
        try:
            return self._fair_representation(records)
        finally:
            self._latency["transform"].observe(time.perf_counter() - start)

    def score(self, records) -> np.ndarray:
        """P(positive outcome) per record via the artifact's scorer."""
        start = time.perf_counter()
        try:
            return self._score_impl(records)
        finally:
            self._latency["score"].observe(time.perf_counter() - start)

    def rank(
        self,
        records,
        *,
        top_k: Optional[int] = None,
        groups=None,
    ) -> Dict:
        """Order the request's candidates by predicted score.

        Returns the full ordering (best first), the per-record scores,
        and — when per-record ``groups`` are supplied — the protected
        share of the returned prefix (the paper's %protected measure).
        """
        start = time.perf_counter()
        try:
            scores = self._score_impl(records)
            order = np.argsort(-scores, kind="mergesort")
            k = scores.size if top_k is None else int(top_k)
            if k < 1:
                raise ValidationError("top_k must be a positive integer")
            k = min(k, scores.size)
            result: Dict = {
                "order": order[:k].tolist(),
                "scores": scores.tolist(),
                "top_k": k,
            }
            if groups is not None:
                groups = check_binary_labels(groups, "groups", length=scores.size)
                result["protected_share"] = protected_share_at_k(
                    order, groups, k=k
                )
            return result
        finally:
            self._latency["rank"].observe(time.perf_counter() - start)

    def decide(self, records, groups) -> Dict:
        """Accept/reject each record under the calibrated thresholds.

        Every decided record also feeds the sliding-window
        :class:`~repro.telemetry.fairness.FairnessMonitor`, whose drift
        flags ride along in the response (and in ``/v1/stats``): a
        caller logging decisions gets the live fairness state with
        them.
        """
        if self.artifact.thresholds is None:
            raise ValidationError(
                "artifact carries no decision thresholds; fit-save with "
                "--criterion to calibrate them"
            )
        start = time.perf_counter()
        try:
            scores = self._score_impl(records)
            groups = check_binary_labels(groups, "groups", length=scores.size)
            decisions = self.artifact.thresholds.predict(scores, groups)
            # decide() is not the latency-critical verb, so the extra
            # encode pass to feed the monitor's feature window is
            # acceptable (and cheap next to the scoring pass above).
            self.monitor.observe(self._encode(records), groups, decisions)
            return {
                "decisions": decisions.tolist(),
                "scores": scores.tolist(),
                "criterion": self.artifact.thresholds.criterion,
                "thresholds": {
                    str(int(g)): t
                    for g, t in sorted(
                        self.artifact.thresholds.thresholds_.items()
                    )
                },
                "fairness_drift": self.monitor.drift_flags(),
            }
        finally:
            self._latency["decide"].observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # diagnostics

    def evaluate_ranking(
        self,
        records,
        true_scores,
        groups,
        *,
        k: int = 10,
    ) -> RankingEvaluation:
        """Offline ranking quality of the served scores on one query.

        Builds a single-query dataset from the request and reuses the
        batch evaluation engine (:func:`repro.ranking.evaluate_scores`)
        so online monitoring reports the same MAP/KT/yNN/%protected
        numbers as the paper pipeline.
        """
        X = self._encode(records)
        predicted = self.score(records)
        dataset = TabularDataset(
            name="serving-query",
            X=X,
            y=np.asarray(true_scores, dtype=np.float64).ravel(),
            protected=check_binary_labels(groups, "groups", length=X.shape[0]),
            protected_indices=self.artifact.protected_indices,
            task="ranking",
        )
        query = Query(qid=0, indices=np.arange(X.shape[0], dtype=np.intp))
        return evaluate_scores(dataset, [query], predicted, k=k)

    def stats(self) -> Dict:
        """Serving counters: traffic, cache behaviour, batching.

        Every number is read from the engine's metrics registry — the
        same instruments ``/v1/metrics`` renders — plus the fairness
        monitor's current window state.
        """
        hits, misses = self._cache.hits, self._cache.misses
        lookups = hits + misses
        self.registry.gauge("serving_cache_entries").set(len(self._cache))
        return {
            "requests": self.n_requests,
            "records": self.n_records,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_ratio": (hits / lookups) if lookups else 0.0,
            "cache_entries": len(self._cache),
            "batch_flushes": self._batcher.n_flushes,
            "coalesced_requests": self._batcher.n_coalesced,
            "endpoints": sorted(self.endpoints()),
            "uptime_s": self.uptime_s,
            "fairness": self.monitor.metrics(),
        }

    def metrics_text(self) -> str:
        """Prometheus text: this engine's series + the library series.

        The library registry (:func:`repro.telemetry.metrics.get_registry`)
        carries fit/executor/shm counters — including worker deltas the
        executors reduced — so one scrape covers the whole process.
        """
        self.registry.gauge("serving_cache_entries").set(len(self._cache))
        self.registry.gauge("serving_uptime_seconds").set(self.uptime_s)
        return prometheus_text(
            self.registry.snapshot(), get_registry().snapshot()
        )

    def endpoints(self) -> List[str]:
        """Verbs this artifact can answer."""
        return serving_endpoints(self.artifact)

    def health(self) -> Dict:
        """Liveness verdict, mirroring the dispatcher's shape.

        A single in-process engine has no worker slots that can fail
        independently — if this method answers, the engine is ``ok``.
        Keeping the shape lets ``GET /v1/health`` report a uniform
        ``status`` + ``resilience`` block across both serving tiers.
        """
        return {"status": "ok", "workers": 1, "workers_alive": 1}

    def drift_flags(self) -> Dict:
        """The fairness monitor's current drift verdict.

        Uniform surface with :meth:`EngineDispatcher.drift_flags` so
        the online controller reads one method on either serving tier.
        """
        return self.monitor.drift_flags()


def serving_endpoints(artifact: ServingArtifact) -> List[str]:
    """Verbs ``artifact`` can answer, from its fitted decision heads.

    Module-level so front ends that never build a local engine (the
    multi-process dispatcher routes requests to worker-owned engines)
    can still advertise the verb list in ``/v1/health``.
    """
    verbs = ["transform"]
    if artifact.scorer is not None:
        verbs += ["score", "rank"]
        if artifact.thresholds is not None:
            verbs.append("decide")
    return verbs
