"""Serve workloads: ``repro serve`` under closed-loop keep-alive clients.

Each set-up runs the program as a user would: ``repro fit-save`` builds
the artifact, ``repro serve`` starts the tier, and set-up ends when the
first reply arrives and matches the in-process answer.  The clients are
threads of this process, one keep-alive ``http.client`` connection
each, and every run sends the same seeded bodies in the same order.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import common
from common import BenchError, Phases, TreeWatch

#: Set-ups per run; setup_s is their median.
SETUPS = 4
WARMUP_REQUESTS = 16
REQUEST_TIMEOUT_S = 10.0
HEADERS = {"Content-Type": "application/json"}
FIT_SAVE = ["credit", "--records", "1000", "--n-prototypes", "8", "--max-iter", "30"]


@dataclass(frozen=True)
class ServeShape:
    workers: int
    connections: int
    min_rows: int
    max_rows: int
    n_bodies: int
    decide_share: float  # share of /v1/decide; the rest splits score / rank
    rank_share: float


SHAPES = {
    # 1-16 rows per /v1/score: model work is ~0.1 ms, so the HTTP layer
    # is nearly the whole latency.  1024 bodies (~8.7k distinct rows)
    # exceed the engine's 4096-record cache, so wrapping around the
    # sequence never turns into cache hits.
    "serve-small": ServeShape(1, 1, 1, 16, 1024, 0.0, 0.0),
    # 256-row batches on two workers: parse, pipe hop, engine and the
    # fairness monitor do the work.  Reads keep the median in one mode;
    # decides set the tail.
    "serve-mixed": ServeShape(2, 2, 256, 256, 128, 0.25, 0.375),
}


@dataclass
class Request:
    path: str
    body: bytes
    expected: Optional[bytes] = None


def make_requests(shape: ServeShape, seed: int) -> List[Request]:
    """The seeded request sequence: warm-up bodies first, then measured.

    Every ``/v1/decide`` body is a permutation of one fixed 256-record
    set, so the fairness monitor window of any worker holds the same
    multiset whatever the routing, and the drift flags in the replies
    do not depend on which worker answered.
    """
    from repro.data import generate_credit

    rng = np.random.default_rng([seed, 17])
    # Exact verb counts in each segment, in seeded order, so that every
    # seed sends the same mix.
    paths = []
    for count in (WARMUP_REQUESTS, shape.n_bodies):
        decides = round(shape.decide_share * count)
        ranks = round(shape.rank_share * count)
        segment = (["/v1/decide"] * decides + ["/v1/rank"] * ranks
                   + ["/v1/score"] * (count - decides - ranks))
        paths += [segment[i] for i in rng.permutation(count)]
    sizes = rng.integers(shape.min_rows, shape.max_rows + 1, size=len(paths))
    data = generate_credit(int(sizes.sum()) + 256, random_state=seed + 1)
    X, groups = data.X, data.protected.astype(int)
    decide_X, decide_g = X[-256:], groups[-256:]
    requests, offset = [], 0
    for path, size in zip(paths, sizes):
        if path == "/v1/decide":
            order = rng.permutation(256)
            payload = {
                "records": decide_X[order].tolist(),
                "groups": decide_g[order].tolist(),
            }
        else:
            rows = slice(offset, offset + int(size))
            offset += int(size)
            payload = {"records": X[rows].tolist()}
            if path == "/v1/rank":
                payload.update(top_k=10, groups=groups[rows].tolist())
        requests.append(Request(path, json.dumps(payload).encode("utf-8")))
    return requests


class Reference:
    """In-process answers from the same artifact, computed before timing.

    With ``timed=True`` it also times each layer the engine crosses for
    every body (parse, scale, prototype pass, scorer, verb, encode) and
    the fairness monitor's ``observe``.
    """

    def __init__(self, artifact_dir: Path, timed: bool = False):
        from repro.serving.artifacts import load_artifact
        from repro.serving.engine import InferenceEngine

        self.artifact = load_artifact(str(artifact_dir))
        self.engine = InferenceEngine(self.artifact)
        self.timed = timed
        self.layers: Dict[str, List[float]] = {}
        self.answer_s: Dict[int, float] = {}  # crc32(body) -> parse+dispatch+encode

    def _time(self, name: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.layers.setdefault(name, []).append(time.perf_counter() - start)
        return out

    def answer(self, request: Request) -> bytes:
        from repro.serving.service import dispatch

        if not self.timed:
            payload = json.loads(request.body)
            return json.dumps(
                dispatch(self.engine, "POST", request.path, payload)
            ).encode("utf-8")
        start = time.perf_counter()
        payload = self._time("engine.parse_ms", json.loads, request.body)
        verb = request.path.rsplit("/", 1)[-1]
        body = self._time(
            f"engine.{verb}_ms", dispatch, self.engine, "POST", request.path, payload
        )
        data = self._time("engine.serialize_ms", json.dumps, body).encode("utf-8")
        self.answer_s[zlib.crc32(request.body)] = time.perf_counter() - start
        self._time_stages(payload["records"])
        return data

    def _time_stages(self, records) -> None:
        X = np.asarray(records, dtype=np.float64)
        Xs = self._time("engine.scale_ms", self.artifact.scaler.transform, X)
        Z = self._time("engine.proto_ms", self.artifact.model.transform, Xs)
        self._time("engine.scorer_ms", self.artifact.scorer.predict_proba, Z)

    def fill(self, requests: Sequence[Request]) -> None:
        from repro.telemetry.fairness import FairnessMonitor

        original = FairnessMonitor.observe
        if self.timed:
            samples = self.layers.setdefault("fairness.observe_ms", [])

            def observe(monitor, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(monitor, *args, **kwargs)
                finally:
                    samples.append(time.perf_counter() - start)

            FairnessMonitor.observe = observe
        try:
            for request in requests:
                request.expected = self.answer(request)
                if request.path == "/v1/decide":
                    drift = json.loads(request.expected)["fairness_drift"]
                    if drift["any"]:
                        raise BenchError(
                            "the seeded decide stream raises a drift flag "
                            "in process; replies would depend on routing"
                        )
        finally:
            FairnessMonitor.observe = original


class Server:
    """One ``repro serve`` process (optionally under the tracing wrapper)."""

    def __init__(self, artifact: Path, workers: int, work: Path, tag: str,
                 trace_out=None):
        if trace_out is None:
            args = [*common.python(tag), "-u", "-m", "repro", "serve"]
        else:
            args = [
                *common.python(tag), "-u",
                str(Path(__file__).with_name("traced_serve.py")),
                str(trace_out), "serve",
            ]
        args += [
            "--artifact", str(artifact), "--port", "0", "--workers", str(workers),
        ]
        self.proc = common.launch(args, stderr_path=work / "server.stderr")
        line = common.read_line(self.proc, timeout=60.0)
        if "http://" not in line:
            raise BenchError(f"unexpected serve banner: {line!r}")
        hostport = line.split("http://", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )

    def get_json(self, path: str) -> Dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int:
        return common.stop(self.proc)


def send(conn, request: Request) -> tuple:
    """One POST on ``conn``: ``(ok, seconds, conn, reply)``.

    A non-200 status, a timeout, a dropped connection or a reply that
    differs from the in-process answer is a failed operation; after a
    transport error the connection is replaced.
    """
    start = time.perf_counter()
    reply = None
    try:
        conn.request("POST", request.path, request.body, HEADERS)
        response = conn.getresponse()
        data = response.read()
        reply = data if response.status == 200 else None
    except (OSError, http.client.HTTPException):
        conn.close()
        conn = http.client.HTTPConnection(conn.host, conn.port, timeout=conn.timeout)
    elapsed = time.perf_counter() - start
    ok = reply is not None and reply == request.expected
    if reply is not None and not ok and request.expected is not None:
        common.log(f"reply to {request.path} differs from the in-process answer")
    return ok, elapsed, conn, reply


def warm(server: Server, requests: Sequence[Request], phases: Phases) -> None:
    """Send the warm-up bodies in order on one keep-alive connection."""
    conn = server.connect()
    try:
        for request in requests:
            ok, _, conn, _ = send(conn, request)
            phases.record("warmup", ok)
    finally:
        conn.close()


def drive(server: Server, requests: Sequence[Request], connections: int,
          seconds: float, phases: Phases, phase: str) -> Dict:
    """Closed loop: each connection walks its own slice of the sequence.

    Connection ``c`` sends items ``c, c + C, c + 2C, ...`` (wrapping),
    so each connection's order is the same in every run.  A failed
    request counts with at least the client timeout, so it misses any
    latency limit.
    """
    latencies: List[List[float]] = [[] for _ in range(connections)]
    completed = [0] * connections
    barrier = threading.Barrier(connections + 1)
    window = {}

    def client(c: int) -> None:
        conn = server.connect()
        i = c
        try:
            barrier.wait(timeout=30)
            while time.perf_counter() < window["deadline"]:
                ok, elapsed, conn, _ = send(conn, requests[i % len(requests)])
                i += connections
                phases.record(phase, ok)
                completed[c] += ok
                latencies[c].append(elapsed if ok else max(elapsed, REQUEST_TIMEOUT_S))
        finally:
            conn.close()
            window[c] = time.perf_counter()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(connections)]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter()
    window["deadline"] = window["start"] + seconds
    barrier.wait(timeout=30)
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S + 30)
    wall = max(window.get(c, time.perf_counter()) for c in range(connections)) - window["start"]
    samples = [x for per_conn in latencies for x in per_conn]
    if not samples:
        raise BenchError("no request completed in the measured phase")
    return {"samples": samples, "completed": sum(completed), "wall_s": wall}


def summarize(measured: Dict) -> Dict:
    samples = measured["samples"]
    pct, value, beyond = common.tail(samples)
    return {
        "p50_ms": common.ms(common.median(samples)),
        "tail_ms": common.ms(value),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(samples),
        "ops_per_s": measured["completed"] / measured["wall_s"],
    }


def setup_once(index: int, shape: ServeShape, seed: int, work: Path, tag: str,
               first: Request, watch: TreeWatch, live: List["Server"]) -> tuple:
    """fit-save + serve + first reply.

    Returns ``(seconds, fit-save seconds, reply, artifact dir)``.  The
    started server is appended to ``live``.  The reply is checked by the
    caller once the in-process answers exist.
    """
    artifact = work / f"artifact{index}"
    start = time.perf_counter()
    fit = common.launch(
        [*common.python(tag), "-m", "repro", "fit-save", *FIT_SAVE,
         "--seed", str(seed), "--out", str(artifact)],
        stderr_path=work / "fit-save.stderr",
        stdout=subprocess.DEVNULL,
    )
    watch.watch(fit.pid)
    try:
        status = fit.wait(timeout=120)
    except subprocess.TimeoutExpired:
        common.kill_session(fit)
        raise BenchError("fit-save did not finish within 120 s")
    if status != 0:
        raise BenchError(f"fit-save exited with {status}")
    built = time.perf_counter() - start
    live.append(Server(artifact, shape.workers, work, tag))
    watch.watch(live[-1].proc.pid)
    _, _, conn, reply = send(live[-1].connect(), first)
    conn.close()
    return time.perf_counter() - start, built, reply, artifact


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        watch: TreeWatch, phases: Phases, tag: str) -> Dict:
    shape = SHAPES[workload]
    requests = make_requests(shape, seed)
    warmup, measured = requests[:WARMUP_REQUESTS], requests[WARMUP_REQUESTS:]
    live: List[Server] = []
    try:
        return _run(shape, seed, seconds, trace, work, watch, phases, tag,
                    warmup, measured, live)
    finally:
        for server in live:
            server.stop()


def _run(shape, seed, seconds, trace, work, watch, phases, tag, warmup,
         measured, live) -> Dict:
    # The reference answers are computed after the timed set-ups, so
    # none of their work lands in setup_s; each set-up's first reply and
    # artifact checksum are checked then.
    setups, builds, replies, checksums = [], [], [], []
    for index in range(1 if trace else SETUPS):
        if live:
            live.pop().stop()
        elapsed, built, reply, artifact = setup_once(
            index, shape, seed, work, tag, warmup[0], watch, live
        )
        setups.append(elapsed)
        builds.append(built)
        replies.append(reply)
        manifest = json.loads((artifact / "manifest.json").read_text())
        checksums.append(manifest["arrays_sha256"])
    reference = Reference(artifact, timed=trace)
    reference.fill(warmup + measured)
    for reply, checksum in zip(replies, checksums):
        phases.record(
            "setup", reply == warmup[0].expected and checksum == checksums[0]
        )

    watch.reset_peak()
    warm(live[-1], warmup[1:], phases)
    result = summarize(drive(live[-1], measured, shape.connections,
                             seconds / 2 if trace else seconds, phases, "measured"))
    stats = live[-1].get_json("/v1/stats")
    live.pop().stop()
    result.update(
        setup_s=common.median(setups),
        setup_samples_s=setups,
        setup_fit_save_s=builds,
        fit_loss=float(reference.artifact.metadata["ifair_loss"]),
        peak_rss_mb=watch.peak_mb,
        server_stats={k: stats.get(k) for k in ("requests", "cache_hits", "cache_misses")},
    )
    if trace:
        live.append(Server(artifact, shape.workers, work, tag,
                           trace_out=work / "server_trace.json"))
        watch.watch(live[-1].proc.pid)
        result["layers"] = traced_layers(shape, live, work, warmup, measured,
                                         seconds / 2, result, reference, phases)
    return result


def traced_layers(shape, live, work, warmup, measured, seconds, untraced,
                  reference, phases) -> Dict:
    """Measure again under the tracing wrapper; per-layer figures.

    A layer whose timers saw nothing is left out: with one worker the
    server never calls the dispatcher, and only the verbs a workload
    sends are timed in process.
    """
    server = live[-1]
    warm(server, warmup, phases)
    traced = summarize(drive(server, measured, shape.connections, seconds, phases, "measured"))
    stats = server.get_json("/v1/stats")
    live.pop().stop()
    samples = json.loads((work / "server_trace.json").read_text())
    skip = len(warmup)  # the warm-up requests arrive first
    handler = samples["handler"][skip:]
    handle_http = samples["handle_http"][skip:]
    hops = [
        elapsed - reference.answer_s[crc]
        for crc, elapsed in handle_http
        if crc in reference.answer_s
    ]

    layers = {
        name: common.median_ms(values) for name, values in reference.layers.items()
    }
    handler_ms = common.median_ms(handler)
    untraced.update(
        traced_p50_ms=traced["p50_ms"],
        traced_posts=len(warmup) + traced["samples"],
        handler_samples=len(samples["handler"]),
    )
    layers.update({
        "service.handler_ms": handler_ms,
        "dispatcher.handle_ms": common.median_ms([elapsed for _, elapsed in handle_http]),
        "dispatcher.hop_ms": common.median_ms(hops),
        "trace.overhead_pct": 100.0 * (traced["p50_ms"] / untraced["p50_ms"] - 1.0),
    })
    if handler_ms is not None:
        layers["service.unaccounted_ms"] = traced["p50_ms"] - handler_ms
    if handle_http:
        layers["dispatcher.failed"] = float(samples["handle_failed"])
    if "resilience" in stats:
        layers["dispatcher.retries"] = float(stats["resilience"]["retries"])
    return {name: value for name, value in layers.items() if value is not None}
