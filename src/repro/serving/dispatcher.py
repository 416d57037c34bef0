"""Multi-process serving tier: shm-backed engine workers, thin routers.

One :class:`~repro.serving.engine.InferenceEngine` in one process is
GIL-bound: ``ThreadingHTTPServer`` accepts concurrent connections, but
every model pass serialises on the interpreter lock, so adding CPU
cores buys nothing.  :class:`EngineDispatcher` breaks that ceiling with
the same ingredients the fit-time executor uses
(:mod:`repro.core.executor`):

* **N forked worker processes**, each owning a full engine (its own
  micro-batcher, representation cache, metrics registry, and fairness
  monitor), connected to the parent by one duplex pipe each;
* **shared-memory model broadcast** — the artifact's float arrays are
  published once through a dispatcher-owned
  :class:`~repro.utils.shm.SharedArrays` generation and workers attach
  read-only views, so the model is never pickled per worker and N
  workers map the same physical pages;
* **telemetry deltas** — each response ships the worker's registry
  delta and trace spans back on the pipe (the PR 6 snapshot-delta
  pattern); the parent folds them into one registry under a
  ``worker="<i>"`` label, so ``GET /v1/metrics`` stays in-process and
  still exposes per-worker series.

HTTP handler threads stay thin: ``do_POST`` hands the *raw body bytes*
to :meth:`EngineDispatcher.handle_http`, which picks the least-loaded
worker (round-robin tie-break) and waits on that worker's pipe; JSON
decode/encode happens inside the worker, off the parent's GIL.  GET
endpoints never cross a pipe.

Resilience (PR 9) — the dispatcher answers *definitively* even when
workers crash, hang, or corrupt their pipe:

* **Per-request deadlines** — the pipe wait is ``poll(timeout)``
  against a per-attempt deadline.  A worker that does not answer in
  time is killed on the spot (it is wedged, not slow — a slow reply
  would have landed inside the deadline) and the request is rerouted
  to a *different* live worker before a definitive 503.
* **Bounded admission** — an optional gate (``max_inflight`` +
  ``shed_queue_s``) sheds excess load with a 429
  :class:`AdmissionError` carrying ``retry_after_s`` instead of
  letting accept threads pile up behind busy pipes.
* **Crash-loop breaker** — a dead slot is *never* respawned inline on
  the request path.  A background probe thread respawns it after a
  jittered exponential backoff, verifies the replacement with a
  ``ping`` round-trip, and only then returns it to rotation.  A slot
  that dies ``breaker_threshold`` times inside ``breaker_window_s``
  is evicted for ``evict_probation_s`` (capacity degrades, ``health``
  reports ``degraded``); the probe re-admits it once a respawn proves
  healthy.  All spawns serialise under the admin lock, so a blue/green
  reload can never race a revival onto a stale artifact spec.
* **Chaos plane** — workers accept a
  :class:`~repro.serving.chaos.ChaosConfig` (or the ``REPRO_CHAOS``
  env spec) and inject crash/hang/slow/corrupt faults at their pipe
  boundary; the stress suite and ``benchmarks/bench_chaos.py`` drive
  it to pin "zero non-shed errors, bitwise-identical answers".

Blue/green model swap: :meth:`EngineDispatcher.reload` loads a new
artifact directory (checksum-verified by the manifest reader),
publishes its arrays as a new shared-memory generation, then flips
workers **one at a time** under each worker's request lock — capacity
never drops to zero, and holding the lock means the worker's in-flight
request on the old version completes before it flips.  The old
generation is unlinked only after every worker acknowledged the new
version (workers that still map it keep their pages until they drop
them); :meth:`EngineDispatcher.stop` unlinks the current one.  Dead
slots are skipped: the probe respawns them from the post-reload spec.
"""

from __future__ import annotations

import json
import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.core.executor import _process_context
from repro.serving.artifacts import (
    ServingArtifact,
    artifact_payload,
    assemble_artifact,
    load_artifact,
)
from repro.serving.chaos import ChaosConfig, ChaosPlane
from repro.serving.engine import InferenceEngine, serving_endpoints
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import (
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    parse_metric_key,
    prometheus_text,
    relabel_snapshot,
    snapshot_diff,
    sum_counter,
)
from repro.telemetry.tracing import get_tracer
from repro.utils.shm import SharedArrays, attach

_DISPATCH_LOG = get_logger("serving.dispatcher")

_JOIN_TIMEOUT_S = 5.0
#: Blue/green flips wait this long for a worker's "load" ack before the
#: worker is declared wedged and killed (engine builds are seconds at
#: most; a flip blocked behind a hung request must not stall reloads
#: forever).
_FLIP_TIMEOUT_S = 30.0
#: The probe waits this long for a respawned worker's first ping — it
#: covers the engine build from the shm spec.
_PING_TIMEOUT_S = 30.0


class DispatchError(ReproError):
    """The dispatcher could not answer (worker loss, stopped tier).

    ``retry_after_s`` is the dispatcher's estimate of when retrying
    could succeed (serialised into the error body and the
    ``Retry-After`` header by the HTTP layer); ``worker`` is the slot
    index of the last worker involved, when one was.
    """

    def __init__(
        self,
        message: str,
        status: int = 503,
        retry_after_s: Optional[float] = None,
        worker: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s
        self.worker = worker


class AdmissionError(DispatchError):
    """The admission gate shed this request (tier at capacity)."""

    def __init__(
        self, message: str, retry_after_s: Optional[float] = None
    ):
        super().__init__(message, status=429, retry_after_s=retry_after_s)


# ----------------------------------------------------------------------
# wire format


@dataclass(frozen=True)
class _ArtifactSpec:
    """Picklable recipe a worker rebuilds its engine from.

    ``handles`` point at shared-memory segments (the heavy float
    payload); ``inline`` carries the zero-size arrays a segment cannot
    hold (e.g. ``protected_indices`` of an all-numeric pipeline).  The
    manifest is the JSON half of :func:`artifact_payload`.
    """

    manifest: Dict
    handles: Dict
    inline: Dict = field(default_factory=dict)
    checksum: Optional[str] = None


def _spec_arrays(spec: _ArtifactSpec, attachments: List) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = dict(spec.inline)
    if spec.handles:
        attached = attach(spec.handles)
        # Keep the mapping alive for the worker's lifetime: the engine
        # holds views into these pages, and (as in the executor) the
        # mappings die with the process rather than being torn down
        # under live views.
        attachments.append(attached)
        arrays.update(attached.arrays)
    return arrays


def _build_engine(
    spec: _ArtifactSpec, engine_kwargs: Dict, attachments: List
) -> InferenceEngine:
    artifact = assemble_artifact(
        spec.manifest, _spec_arrays(spec, attachments), checksum=spec.checksum
    )
    return InferenceEngine(artifact, **engine_kwargs)


# ----------------------------------------------------------------------
# worker process


def _answer(engine: InferenceEngine, path: str, raw: bytes) -> Tuple[int, bytes]:
    """One POST request, JSON in / JSON out, entirely in this worker.

    Encodes exactly as the in-process tier does (:func:`reply_bytes`,
    :func:`error_payload`), so both tiers answer byte-identically.
    """
    from repro.serving.service import (
        RequestError,
        dispatch,
        error_payload,
        reply_bytes,
    )

    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return reply_bytes(
            400, {"error": f"request body is not valid JSON: {exc}"}
        )
    try:
        return reply_bytes(200, dispatch(engine, "POST", path, payload))
    except RequestError as exc:
        return reply_bytes(*error_payload(exc))


def _serving_worker_main(
    spec,
    engine_kwargs,
    conn,
    index: int = 0,
    chaos: Optional[ChaosConfig] = None,
    generation: int = 0,
) -> None:
    """Engine-worker loop: build from the spec, answer until ``None``.

    Replies are ``(kind, a, b, telemetry)`` tuples where telemetry is
    the executor-style ``(metrics_delta, spans)`` pair (or ``None``)
    accumulated since the previous reply.  ``("ping",)`` messages are
    the probe's liveness/readiness check.  When ``chaos`` is enabled,
    a :class:`~repro.serving.chaos.ChaosPlane` may crash/hang/slow/
    corrupt data-plane replies — admin messages are never faulted.
    """
    attachments: List = []
    registry = get_registry()
    tracer = get_tracer()
    # Fork inherits the parent's registry contents and tracer buffer —
    # re-baseline so only counts produced by this worker ship back.
    tracer.clear()

    plane: Optional[ChaosPlane] = None
    if chaos is not None and chaos.enabled:
        plane = ChaosPlane(chaos, worker_index=index, generation=generation)

    engine: Optional[InferenceEngine] = None
    error: Optional[str] = None
    try:
        engine = _build_engine(spec, engine_kwargs, attachments)
    except BaseException as exc:  # surfaced per-request as a 503
        error = f"worker failed to build engine: {exc}"

    def combined():
        parts = [registry.snapshot()]
        if engine is not None:
            parts.append(engine.registry.snapshot())
        return merge_snapshots(parts)

    shipped = combined()

    def telemetry_delta():
        nonlocal shipped
        current = combined()
        delta = snapshot_diff(current, shipped)
        shipped = current
        spans = tracer.drain() if tracer.enabled else []
        if not delta and not spans:
            return None
        return (delta or None, spans or None)

    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            kind = message[0]
            if kind == "ping":
                conn.send(("ping", True, None, telemetry_delta()))
                continue
            if kind == "load":
                try:
                    fresh = _build_engine(message[1], engine_kwargs, attachments)
                except BaseException as exc:
                    # Old engine keeps serving; the parent aborts the flip.
                    conn.send(
                        ("load", False, f"reload failed in worker: {exc}",
                         telemetry_delta())
                    )
                    continue
                # Flush the old engine's remaining counters under its
                # labels, then re-baseline on the fresh registry so the
                # next delta never goes backwards.
                final_delta = telemetry_delta()
                engine, error = fresh, None
                shipped = combined()
                conn.send(("load", True, fresh.artifact.checksum, final_delta))
                continue
            path, raw = message[1], message[2]
            if plane is not None and plane.inject(conn):
                continue  # fault consumed the request (corrupt frame sent)
            if engine is None:
                conn.send(
                    ("http", 503,
                     json.dumps(
                         {"error": error, "retry_after_s": 1.0, "worker": index}
                     ).encode("utf-8"),
                     telemetry_delta())
                )
                continue
            status, body = _answer(engine, path, raw)
            engine.registry.gauge("serving_cache_entries").set(len(engine._cache))
            conn.send(("http", status, body, telemetry_delta()))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    # Shared segments stay mapped until process exit (see _spec_arrays).


# ----------------------------------------------------------------------
# parent-side dispatcher


class _Worker:
    """One engine worker slot: process + pipe + breaker state.

    ``alive`` is the slot's rotation flag (a slot can hold a running
    process and still be out of rotation while the probe verifies it);
    ``deaths`` are monotonic timestamps inside the breaker window;
    ``not_before`` is the earliest monotonic time the probe may try a
    respawn; ``evicted`` marks a slot the breaker took out of service.
    """

    __slots__ = (
        "index", "process", "conn", "lock", "pending",
        "alive", "deaths", "backoff_s", "not_before", "evicted",
    )

    def __init__(self, index, process, conn, backoff_s: float = 0.05):
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.pending = 0
        self.alive = True
        self.deaths: List[float] = []
        self.backoff_s = backoff_s
        self.not_before = 0.0
        self.evicted = False


class EngineDispatcher:
    """Fan requests out to N forked engine workers sharing one model.

    Duck-types the :class:`~repro.serving.engine.InferenceEngine`
    surface that :func:`repro.serving.service.dispatch` touches
    (``artifact``, ``uptime_s``, ``endpoints``, ``stats``,
    ``metrics_text``, ``health``, plus the transform/score/rank/decide
    verbs), so :class:`~repro.serving.service.DecisionService` and the
    in-process client work unchanged against a multi-process tier.

    Parameters mirror the engine's: ``batch_size`` / ``cache_size`` /
    ``max_batch_delay`` apply *per worker*.  Resilience knobs:

    ``deadline_s``
        per-attempt reply deadline (None = wait forever, the pre-PR 9
        behaviour).  A request may be retried on other workers, so the
        definitive worst case is ``deadline_s * (max_retries + 1)``
        plus admission wait — the "deadline + grace" envelope.
    ``max_inflight`` / ``shed_queue_s``
        admission gate: at most ``max_inflight`` requests past the
        gate; a request that cannot enter within ``shed_queue_s`` is
        shed with a 429 :class:`AdmissionError` (None = unbounded).
    ``max_retries``
        how many *additional* workers a failed attempt may be rerouted
        to before a definitive 503.
    ``breaker_threshold`` / ``breaker_window_s`` / ``backoff_base_s``
        / ``backoff_max_s`` / ``evict_probation_s`` / ``probe_interval_s``
        crash-loop breaker shape (see module docstring).
    ``chaos``
        optional :class:`~repro.serving.chaos.ChaosConfig` injected
        into every worker; defaults to the ``REPRO_CHAOS`` env spec.
    """

    def __init__(
        self,
        artifact: ServingArtifact,
        *,
        n_workers: int = 2,
        batch_size: int = 256,
        cache_size: int = 4096,
        max_batch_delay: float = 0.0,
        max_retries: int = 2,
        deadline_s: Optional[float] = None,
        max_inflight: Optional[int] = None,
        shed_queue_s: float = 0.1,
        breaker_threshold: int = 5,
        breaker_window_s: float = 30.0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        evict_probation_s: float = 2.0,
        probe_interval_s: float = 0.05,
        chaos: Optional[ChaosConfig] = None,
    ):
        if int(n_workers) < 1:
            raise ValidationError("n_workers must be a positive integer")
        if deadline_s is not None and not float(deadline_s) > 0:
            raise ValidationError("deadline_s must be positive (or None)")
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValidationError("max_inflight must be >= 1 (or None)")
        if float(shed_queue_s) < 0:
            raise ValidationError("shed_queue_s must be non-negative")
        if int(max_retries) < 0:
            raise ValidationError("max_retries must be non-negative")
        if int(breaker_threshold) < 1:
            raise ValidationError("breaker_threshold must be >= 1")
        if not float(backoff_base_s) > 0 or float(backoff_max_s) < float(backoff_base_s):
            raise ValidationError(
                "backoff_base_s must be positive and <= backoff_max_s"
            )
        if not float(probe_interval_s) > 0:
            raise ValidationError("probe_interval_s must be positive")
        self.artifact = artifact
        self.n_workers = int(n_workers)
        self.max_retries = int(max_retries)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.shed_queue_s = float(shed_queue_s)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_window_s = float(breaker_window_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.evict_probation_s = float(evict_probation_s)
        self.probe_interval_s = float(probe_interval_s)
        self._deadline_s = None if deadline_s is None else float(deadline_s)
        self._chaos = chaos if chaos is not None else ChaosConfig.from_env()
        self._engine_kwargs = dict(
            batch_size=batch_size,
            cache_size=cache_size,
            max_batch_delay=max_batch_delay,
        )
        self.registry = MetricsRegistry()
        # Attached by serve_artifact(online_refit=True); the HTTP layer
        # taps data-plane traffic into it and routes /v1/admin/online.
        self.online_controller = None
        self.started_at = time.time()
        self._ctx = _process_context()
        # Lock order (deadlock-free by construction): _admin_lock ->
        # worker.lock; _pick_lock and the admission condition never
        # nest with either.  Every process (re)spawn happens under
        # _admin_lock, so reloads and probe revivals serialise.
        self._admin_lock = threading.Lock()
        self._pick_lock = threading.Lock()
        self._admit_cond = threading.Condition()
        self._inflight = 0
        self._rr = 0
        self._stopped = False
        self._closing = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        self._generations: Dict[int, int] = {}
        self._spec, self._shm = self._make_spec(artifact)
        self._requests = self.registry.counter("serving_dispatch_requests_total")
        self._respawns = self.registry.counter("serving_worker_respawns_total")
        self._reloads = self.registry.counter("serving_reloads_total")
        self._retries = self.registry.counter("serving_request_retries_total")
        self._deadline_kills = self.registry.counter("serving_deadline_kills_total")
        self._shed = self.registry.counter("serving_shed_total")
        self._evictions = self.registry.counter("serving_worker_evictions_total")
        self._readmissions = self.registry.counter(
            "serving_worker_readmissions_total"
        )
        self._corrupt = self.registry.counter("serving_corrupt_frames_total")
        self._latency = self.registry.histogram("serving_dispatch_seconds")
        self._admission_wait = self.registry.histogram(
            "serving_admission_wait_seconds"
        )
        self._inflight_gauge = self.registry.gauge("serving_inflight")
        self._alive_gauge = self.registry.gauge("serving_workers_alive")
        try:
            self._workers = [
                self._spawn(index) for index in range(self.n_workers)
            ]
        except BaseException:
            self.stop()
            raise
        self._alive_gauge.set(self.n_workers)
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-serving-probe", daemon=True
        )
        self._probe_thread.start()

    # ------------------------------------------------------------------
    # worker lifecycle

    @staticmethod
    def _make_spec(artifact: ServingArtifact):
        """Publish ``artifact``'s arrays; returns (spec, its segments)."""
        manifest, arrays = artifact_payload(artifact)
        shm_arrays = {k: v for k, v in arrays.items() if v.size}
        inline = {k: np.asarray(v) for k, v in arrays.items() if not v.size}
        shm = SharedArrays(shm_arrays) if shm_arrays else None
        spec = _ArtifactSpec(
            manifest=manifest,
            handles=shm.handles if shm is not None else {},
            inline=inline,
            checksum=artifact.checksum,
        )
        return spec, shm

    def _spawn(self, index: int, spec: Optional[_ArtifactSpec] = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Per-slot spawn counter -> the chaos plane's generation: a
        # seeded replacement must not replay its predecessor's faults.
        generation = self._generations.get(index, 0)
        self._generations[index] = generation + 1
        process = self._ctx.Process(
            target=_serving_worker_main,
            args=(
                spec or self._spec,
                dict(self._engine_kwargs),
                child_conn,
                index,
                self._chaos,
                generation,
            ),
            daemon=True,
            name=f"repro-serving-worker-{index}",
        )
        process.start()
        child_conn.close()  # the worker's end lives in the worker
        return _Worker(index, process, parent_conn, backoff_s=self.backoff_base_s)

    def _kill_locked(self, worker: _Worker) -> None:
        """SIGKILL a wedged worker process; caller holds its lock."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass

    def _on_death_locked(self, worker: _Worker, reason: str) -> None:
        """Take a dead slot out of rotation; caller holds its lock.

        Records the death in the breaker window, schedules the probe's
        next respawn attempt (jittered exponential backoff), and evicts
        the slot when it has died ``breaker_threshold`` times inside
        ``breaker_window_s``.  Never spawns anything — that is the
        probe's job.
        """
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:
            pass
        now = time.monotonic()
        horizon = now - self.breaker_window_s
        worker.deaths = [t for t in worker.deaths if t >= horizon]
        worker.deaths.append(now)
        if len(worker.deaths) >= self.breaker_threshold and not worker.evicted:
            worker.evicted = True
            worker.not_before = now + self.evict_probation_s
            self._evictions.inc()
            _DISPATCH_LOG.error(
                "engine worker %d died %d times in %.0fs (%s); evicted for %.1fs",
                worker.index, len(worker.deaths), self.breaker_window_s,
                reason, self.evict_probation_s,
                extra={"worker": worker.index, "reason": reason},
            )
        else:
            delay = worker.backoff_s * (0.5 + random.random())
            worker.not_before = now + delay
            worker.backoff_s = min(self.backoff_max_s, worker.backoff_s * 2.0)
            _DISPATCH_LOG.warning(
                "engine worker %d died (%s); probe respawn in %.0f ms",
                worker.index, reason, delay * 1000.0,
                extra={"worker": worker.index, "reason": reason},
            )
        self._alive_gauge.set(sum(1 for w in self._workers if w.alive))

    # ------------------------------------------------------------------
    # background probe: the only place workers are ever (re)spawned

    def _probe_loop(self) -> None:
        while not self._closing.wait(self.probe_interval_s):
            for worker in list(self._workers):
                if self._closing.is_set() or self._stopped:
                    return
                if worker.alive or time.monotonic() < worker.not_before:
                    continue
                try:
                    self._try_revive(worker)
                except BaseException:  # pragma: no cover - defensive
                    _DISPATCH_LOG.error(
                        "probe failed reviving worker %d", worker.index,
                        extra={"worker": worker.index},
                    )
                    worker.not_before = time.monotonic() + worker.backoff_s

    def _try_revive(self, worker: _Worker) -> None:
        """Respawn one dead slot and verify it before re-admission.

        Runs under ``_admin_lock`` so a blue/green reload can never
        interleave: by the time this spawns, ``self._spec`` is either
        fully pre-reload or fully post-reload.
        """
        with self._admin_lock:
            if self._stopped:
                return
            with worker.lock:
                if worker.alive or self._stopped:
                    return
                worker.process.join(timeout=0.0)
                if worker.process.is_alive():  # deadline-killed but unreaped
                    self._kill_locked(worker)
                    worker.process.join(timeout=_JOIN_TIMEOUT_S)
                try:
                    replacement = self._spawn(worker.index)
                except BaseException:
                    worker.not_before = time.monotonic() + worker.backoff_s
                    raise
                worker.process, worker.conn = replacement.process, replacement.conn
                self._respawns.inc()
                if not self._ping_locked(worker):
                    self._kill_locked(worker)
                    self._on_death_locked(worker, "probe-ping")
                    return
                horizon = time.monotonic() - self.breaker_window_s
                worker.deaths = [t for t in worker.deaths if t >= horizon]
                if worker.evicted:
                    worker.evicted = False
                    worker.deaths = []
                    self._readmissions.inc()
                    _DISPATCH_LOG.info(
                        "engine worker %d re-admitted after probation",
                        worker.index, extra={"worker": worker.index},
                    )
                # A verified ping resets the backoff: exponential delay
                # guards *startup* crash loops (ping keeps failing),
                # while serving-time crash loops are the breaker's job
                # (death count -> eviction + probation).  Keeping the
                # doubled delay here would slow every recovery from a
                # recoverable fault to the backoff ceiling.
                worker.backoff_s = self.backoff_base_s
                worker.alive = True
            self._alive_gauge.set(sum(1 for w in self._workers if w.alive))

    def _ping_locked(self, worker: _Worker) -> bool:
        """One ping round-trip; True iff the worker is answering."""
        try:
            worker.conn.send(("ping",))
            deadline = time.monotonic() + _PING_TIMEOUT_S
            while not self._closing.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                if worker.conn.poll(min(0.1, remaining)):
                    reply = worker.conn.recv()
                    self._ingest(
                        worker.index, reply[3] if len(reply) > 3 else None
                    )
                    return reply[0] == "ping"
        except (BrokenPipeError, EOFError, OSError, IndexError, TypeError):
            pass
        return False

    # ------------------------------------------------------------------
    # admission gate

    def _shed_retry_after(self) -> float:
        return round(max(0.05, 2.0 * self.shed_queue_s), 3)

    def _admit(self) -> None:
        """Enter the in-flight window or shed with a 429."""
        if self.max_inflight is None:
            return
        entered = time.monotonic()
        give_up = entered + self.shed_queue_s
        with self._admit_cond:
            while self._inflight >= self.max_inflight:
                remaining = give_up - time.monotonic()
                if remaining <= 0 or self._stopped:
                    self._shed.inc()
                    raise AdmissionError(
                        f"serving tier at capacity "
                        f"({self.max_inflight} requests in flight); "
                        f"shed after {self.shed_queue_s:.3f}s queue wait",
                        retry_after_s=self._shed_retry_after(),
                    )
                self._admit_cond.wait(remaining)
            self._inflight += 1
            self._inflight_gauge.set(self._inflight)
        self._admission_wait.observe(time.monotonic() - entered)

    def _release(self) -> None:
        if self.max_inflight is None:
            return
        with self._admit_cond:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
            self._admit_cond.notify()

    # ------------------------------------------------------------------
    # request path

    def _revival_eta(self) -> float:
        """Seconds until the probe may next revive a dead slot."""
        now = time.monotonic()
        etas = [
            max(0.0, w.not_before - now)
            for w in self._workers
            if not w.alive
        ]
        if not etas:
            return 1.0
        return round(max(0.05, min(etas) + self.probe_interval_s), 3)

    def _pick(self, tried: Set[int] = frozenset()) -> _Worker:
        """Choose a live worker, preferring slots this request has not
        tried yet; falls back to any live slot (a respawned worker may
        legitimately answer a retry)."""
        with self._pick_lock:
            if self._stopped or not self._workers:
                raise DispatchError("serving dispatcher is stopped")
            live = [w for w in self._workers if w.alive]
            if not live:
                # Fast definitive 503: no deadline burn when the whole
                # tier is down (breaker open on every slot).
                raise DispatchError(
                    "no live engine workers (crash-loop breaker open)",
                    retry_after_s=self._revival_eta(),
                )
            pool = [w for w in live if w.index not in tried] or live
            n = len(pool)
            start = self._rr
            self._rr += 1
            # Least-loaded steal with a rotating tie-break: min() keeps
            # the first of equals, and the rotation makes "first" fair.
            worker = min(
                (pool[(start + i) % n] for i in range(n)),
                key=lambda w: w.pending,
            )
            worker.pending += 1
            return worker

    def _pick_with_wait(self, tried: Set[int], wait_until: float) -> _Worker:
        """:meth:`_pick`, waiting out a *transient* all-dead window.

        Two workers can die within one probe interval (say, a crash
        and a corrupt frame back to back); the probe revives them in
        backoff + probe_interval, typically tens of milliseconds.
        Failing requests during that blip would turn a survivable
        fault burst into user-visible 503s, so wait in short slices
        for a revival, bounded by ``wait_until`` — but only while at
        least one slot is still admissible.  A fully *evicted* pool is
        the crash-loop breaker speaking, and that 503 must stay fast.
        """
        while True:
            try:
                return self._pick(tried)
            except DispatchError as exc:
                if self._stopped or exc.status != 503:
                    raise
                with self._pick_lock:
                    revivable = any(not w.evicted for w in self._workers)
                if not revivable or time.monotonic() >= wait_until:
                    raise
            time.sleep(min(0.01, self.probe_interval_s))

    def handle_http(self, path: str, raw: bytes) -> Tuple[int, bytes]:
        """Route one POST body to a worker; returns (status, json bytes).

        The worker does all JSON and model work; this thread only
        waits on the pipe, bounded by ``deadline_s`` per attempt.  A
        worker fault (crash, hang past the deadline, corrupt frame)
        reroutes the request to a *different* live worker up to
        ``max_retries`` times before a definitive 503
        :class:`DispatchError`; the dead slot rejoins rotation later
        via the probe.  Over capacity, the admission gate sheds with a
        429 :class:`AdmissionError` before any worker is touched.
        """
        if self._stopped:
            raise DispatchError("serving dispatcher is stopped")
        start = time.perf_counter()
        self._admit()
        try:
            tried: Set[int] = set()
            attempts = self.max_retries + 1
            fault = "unattempted"
            worker: Optional[_Worker] = None
            # One revival-wait budget for the whole request, sized to
            # the retry envelope (deadline x attempts): a burst that
            # downs every slot stalls picks until the probe revives
            # one — respawn + ping can span a few hundred ms under
            # load — but never past the envelope.
            revival_until = time.monotonic() + (self._deadline_s or 1.0) * attempts
            for attempt in range(attempts):
                worker = self._pick_with_wait(tried, revival_until)
                tried.add(worker.index)
                attempt_deadline = (
                    None
                    if self._deadline_s is None
                    else time.monotonic() + self._deadline_s
                )
                try:
                    outcome = self._attempt(worker, path, raw, attempt_deadline)
                finally:
                    with self._pick_lock:
                        worker.pending -= 1
                if outcome[0] == "ok":
                    _, status, body, telemetry = outcome
                    self._ingest(worker.index, telemetry)
                    self._requests.inc()
                    self._latency.observe(time.perf_counter() - start)
                    return int(status), body
                fault = outcome[1]
                if attempt < attempts - 1:
                    self._retries.inc()
                    _DISPATCH_LOG.warning(
                        "request attempt %d on worker %d failed (%s); rerouting",
                        attempt + 1, worker.index, fault,
                        extra={"worker": worker.index, "fault": fault},
                    )
            raise DispatchError(
                f"request failed on {attempts} worker attempt(s) "
                f"(last fault: {fault})",
                retry_after_s=self._revival_eta(),
                worker=None if worker is None else worker.index,
            )
        finally:
            self._release()

    def _attempt(
        self,
        worker: _Worker,
        path: str,
        raw: bytes,
        attempt_deadline: Optional[float],
    ):
        """One send/receive on one worker.

        Returns ``("ok", status, body, telemetry)`` or
        ``("fault", kind)`` after taking the slot out of rotation; the
        caller decides whether to reroute.
        """
        with worker.lock:
            if self._stopped:
                raise DispatchError("serving dispatcher is stopped")
            if not worker.alive:
                return ("fault", "dead")  # lost the slot while queued on it
            try:
                worker.conn.send(("http", path, bytes(raw)))
            except (BrokenPipeError, OSError, ValueError):
                self._on_death_locked(worker, "send")
                return ("fault", "crash")
            try:
                if attempt_deadline is not None:
                    remaining = attempt_deadline - time.monotonic()
                    if not worker.conn.poll(max(0.0, remaining)):
                        # Hung past the deadline: a merely slow worker
                        # would have answered by now.  Kill it — the
                        # probe respawns the slot with backoff.
                        self._deadline_kills.inc()
                        _DISPATCH_LOG.warning(
                            "engine worker %d missed the %.3fs deadline; killing",
                            worker.index, self._deadline_s,
                            extra={"worker": worker.index},
                        )
                        self._kill_locked(worker)
                        self._on_death_locked(worker, "deadline")
                        return ("fault", "deadline")
                reply = worker.conn.recv()
                kind, status, body, telemetry = reply
                if kind != "http":
                    raise ValueError(f"unexpected worker frame kind {kind!r}")
            except (BrokenPipeError, EOFError, OSError):
                self._on_death_locked(worker, "crash")
                return ("fault", "crash")
            except (ValueError, TypeError, IndexError, pickle.UnpicklingError):
                # The pipe stream can no longer be trusted after a
                # malformed frame — kill the worker and reroute.
                self._corrupt.inc()
                self._kill_locked(worker)
                self._on_death_locked(worker, "corrupt-frame")
                return ("fault", "corrupt-frame")
        return ("ok", status, body, telemetry)

    def _ingest(self, index: int, telemetry) -> None:
        """Fold a worker's telemetry delta in under its worker label."""
        if not telemetry:
            return
        delta, spans = telemetry
        if delta:
            self.registry.merge(
                relabel_snapshot(delta, {"worker": str(index)})
            )
        if spans:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.ingest(spans)

    # ------------------------------------------------------------------
    # engine-compatible verbs (used by dispatch() and InProcessClient)

    def _call(self, path: str, payload: Dict) -> Dict:
        status, body = self.handle_http(
            path, json.dumps(payload).encode("utf-8")
        )
        answer = json.loads(body.decode("utf-8"))
        if status >= 400:
            raise DispatchError(
                str(answer.get("error", "request failed")),
                status=status,
                retry_after_s=answer.get("retry_after_s"),
                worker=answer.get("worker"),
            )
        return answer

    @staticmethod
    def _listify(records):
        return records.tolist() if isinstance(records, np.ndarray) else list(records)

    def transform(self, records) -> np.ndarray:
        answer = self._call("/v1/transform", {"records": self._listify(records)})
        return np.asarray(answer["transformed"], dtype=np.float64)

    def score(self, records) -> np.ndarray:
        answer = self._call("/v1/score", {"records": self._listify(records)})
        return np.asarray(answer["scores"], dtype=np.float64)

    def rank(self, records, *, top_k=None, groups=None) -> Dict:
        payload: Dict = {"records": self._listify(records)}
        if top_k is not None:
            payload["top_k"] = top_k
        if groups is not None:
            payload["groups"] = self._listify(np.asarray(groups))
        return self._call("/v1/rank", payload)

    def decide(self, records, groups) -> Dict:
        return self._call(
            "/v1/decide",
            {
                "records": self._listify(records),
                "groups": self._listify(np.asarray(groups)),
            },
        )

    # ------------------------------------------------------------------
    # blue/green reload

    def reload(self, artifact_path: str) -> Dict:
        """Swap every worker onto the artifact at ``artifact_path``.

        Loads + checksum-verifies the artifact, publishes its arrays as
        a new shared-memory generation, then flips workers one at a
        time — each flip waits for that worker's in-flight request
        under its lock, and the other workers keep answering on
        whichever version they hold, so capacity never reaches zero.
        Dead slots are skipped: the probe (which shares ``_admin_lock``
        with this method) respawns them from the post-reload spec.  On
        any failure the flipped workers are rolled back and the new
        generation unlinked.  The old generation is unlinked only after
        every live worker acknowledged the new one.
        """
        if not isinstance(artifact_path, str) or not artifact_path:
            raise ValidationError("reload requires an 'artifact' directory path")
        with self._admin_lock:
            if self._stopped:
                raise DispatchError("serving dispatcher is stopped")
            artifact = load_artifact(artifact_path)
            spec, shm = self._make_spec(artifact)
            previous = self.artifact.checksum
            flipped: List[_Worker] = []
            try:
                for worker in self._workers:
                    self._flip(worker, spec)
                    flipped.append(worker)
            except BaseException:
                for worker in flipped:
                    try:
                        self._flip(worker, self._spec)
                    except ReproError:  # pragma: no cover - best effort
                        pass
                if shm is not None:
                    shm.unlink()
                raise
            old_shm = self._shm
            self._spec, self._shm, self.artifact = spec, shm, artifact
            if old_shm is not None:
                old_shm.unlink()
            self._reloads.inc()
            _DISPATCH_LOG.info(
                "reloaded %d workers onto artifact %s",
                len(flipped),
                artifact.checksum,
                extra={"checksum": artifact.checksum, "previous": previous},
            )
            return {
                "status": "ok",
                "checksum": artifact.checksum,
                "previous_checksum": previous,
                "workers": len(flipped),
            }

    def _flip(self, worker: _Worker, spec: _ArtifactSpec) -> None:
        with worker.lock:
            if not worker.alive:
                return  # probe respawns this slot from the updated spec
            try:
                worker.conn.send(("load", spec))
                if not worker.conn.poll(_FLIP_TIMEOUT_S):
                    self._kill_locked(worker)
                    self._on_death_locked(worker, "flip-timeout")
                    return
                _, ok, payload, telemetry = worker.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                self._on_death_locked(worker, "flip")
                return
            except (ValueError, TypeError, IndexError, pickle.UnpicklingError):
                self._corrupt.inc()
                self._kill_locked(worker)
                self._on_death_locked(worker, "corrupt-frame")
                return
        self._ingest(worker.index, telemetry)
        if not ok:
            raise ValidationError(str(payload))

    # ------------------------------------------------------------------
    # engine-compatible introspection (GET endpoints, in-process)

    @property
    def uptime_s(self) -> float:
        return time.time() - self.started_at

    def endpoints(self) -> List[str]:
        return serving_endpoints(self.artifact)

    def health(self) -> Dict:
        """Slot-level liveness for ``GET /v1/health``.

        ``ok`` — every slot in rotation; ``degraded`` — some slots
        down/evicted but capacity remains; ``unavailable`` — no slot
        can answer (callers see fast 503s until the probe revives one).
        """
        with self._pick_lock:
            workers = list(self._workers)
        alive = sum(1 for w in workers if w.alive)
        evicted = sorted(w.index for w in workers if w.evicted)
        if workers and alive == len(workers):
            status = "ok"
        elif alive > 0:
            status = "degraded"
        else:
            status = "unavailable"
        return {
            "status": status,
            "workers": len(workers) or self.n_workers,
            "workers_alive": alive,
            "workers_evicted": evicted,
            "deadline_s": self._deadline_s,
            "max_inflight": self.max_inflight,
        }

    def drift_flags(self) -> Dict:
        """Fairness drift verdict reduced across worker processes.

        Each worker's engine publishes its monitor's ``fairness_drift``
        gauge (1.0 when any drift flag is up); the dispatcher sees them
        relabelled per worker in its merged registry.  ``any`` is true
        when at least one live window flags — the per-dimension detail
        stays worker-local, which is all the online controller needs.
        """
        snapshot = self.registry.snapshot()
        flagged = any(
            float(value) >= 1.0
            for key, value in snapshot.get("gauges", {}).items()
            if parse_metric_key(key)[0] == "fairness_drift"
        )
        return {"any": flagged}

    def stats(self) -> Dict:
        """Traffic/cache counters reduced across workers.

        Sums each worker-labelled series back into the engine's
        unlabelled totals and adds a ``workers`` block (liveness,
        respawns, reloads, per-worker request counts) plus a
        ``resilience`` block (deadline kills, shed, breaker state).
        Window-local fairness state stays per worker and is not merged.
        """
        snapshot = self.registry.snapshot()
        hits = sum_counter(snapshot, "serving_cache_hits_total")
        misses = sum_counter(snapshot, "serving_cache_misses_total")
        lookups = hits + misses
        per_worker: Dict[str, int] = {}
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_metric_key(key)
            if name == "serving_requests_total" and "worker" in labels:
                per_worker[labels["worker"]] = (
                    per_worker.get(labels["worker"], 0) + int(value)
                )
        cache_entries = sum(
            value
            for key, value in snapshot.get("gauges", {}).items()
            if parse_metric_key(key)[0] == "serving_cache_entries"
        )
        with self._pick_lock:
            workers = list(self._workers)
        alive = sum(1 for w in workers if w.alive)
        evicted = sorted(w.index for w in workers if w.evicted)
        with self._admit_cond:
            inflight = self._inflight
        return {
            "requests": int(sum_counter(snapshot, "serving_requests_total")),
            "records": int(sum_counter(snapshot, "serving_records_total")),
            "cache_hits": int(hits),
            "cache_misses": int(misses),
            "cache_hit_ratio": (hits / lookups) if lookups else 0.0,
            "cache_entries": int(cache_entries),
            "batch_flushes": int(
                sum_counter(snapshot, "serving_batch_flushes_total")
            ),
            "coalesced_requests": int(
                sum_counter(snapshot, "serving_coalesced_requests_total")
            ),
            "endpoints": sorted(self.endpoints()),
            "uptime_s": self.uptime_s,
            "workers": {
                "n": self.n_workers,
                "alive": alive,
                "dispatched": int(self._requests.value),
                "respawns": int(self._respawns.value),
                "reloads": int(self._reloads.value),
                "requests": per_worker,
            },
            "resilience": {
                "deadline_s": self._deadline_s,
                "max_inflight": self.max_inflight,
                "inflight": inflight,
                "deadline_kills": int(self._deadline_kills.value),
                "shed": int(self._shed.value),
                "retries": int(self._retries.value),
                "corrupt_frames": int(self._corrupt.value),
                "evictions": int(self._evictions.value),
                "readmissions": int(self._readmissions.value),
                "evicted": evicted,
            },
        }

    def metrics_text(self) -> str:
        """Prometheus text: merged worker series + dispatcher + library."""
        self.registry.gauge("serving_uptime_seconds").set(self.uptime_s)
        self.registry.gauge("serving_workers").set(self.n_workers)
        return prometheus_text(
            self.registry.snapshot(), get_registry().snapshot()
        )

    # ------------------------------------------------------------------
    # shutdown

    def stop(self) -> None:
        """Drain and stop every worker; unlink the model segments.

        Idempotent.  Stops the probe thread first (``_closing`` aborts
        any in-flight revival quickly), then waits for each worker's
        in-flight request (its lock) before sending the shutdown
        sentinel, mirroring the executor's pool teardown.
        """
        self._closing.set()
        with self._admin_lock:
            already = self._stopped
            self._stopped = True
            with self._pick_lock:
                workers, self._workers = getattr(self, "_workers", []), []
        probe = self._probe_thread
        if probe is not None and probe.is_alive():
            probe.join(timeout=_JOIN_TIMEOUT_S)
        if already:
            return
        with self._admit_cond:
            self._admit_cond.notify_all()
        for worker in workers:
            with worker.lock:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError, ValueError):
                    pass
        for worker in workers:
            worker.process.join(timeout=_JOIN_TIMEOUT_S)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.kill()
                worker.process.join(timeout=_JOIN_TIMEOUT_S)
            try:
                worker.conn.close()
            except OSError:
                pass
        if self._shm is not None:
            self._shm.unlink()
            self._shm = None

    def __enter__(self) -> "EngineDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
