"""Fast self-test of the benchmark's own code at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks three things and exits non-zero if any fails:

1. every metric declared in ``BENCHMARK.json`` is printed, with its
   declared unit, by untraced runs and by a traced run of each
   workload (a traced run fails if a layer its workload exercises got
   no sample);
2. a request to a stopped server is counted as a failed operation;
3. on ``serve-small`` the handler timer saw every POST sent to the
   traced server once, and ``0 < service.handler_ms < traced p50``.
   ``service.handler_ms + service.unaccounted_ms`` is the traced p50 by
   definition; it must be within 10 % of the untraced ``p50_ms`` (the
   tracing overhead check).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time

import common
import fit
import run
import serve


def shrink() -> None:
    """Tiny sizes: one set-up, few bodies, a small artifact."""
    serve.SETUPS = fit.SETUPS = 1
    serve.FIT_SAVE = ["credit", "--records", "200", "--n-prototypes", "4", "--max-iter", "5"]
    for name, shape in serve.SHAPES.items():
        serve.SHAPES[name] = dataclasses.replace(shape, n_bodies=32)


def invoke(workload: str, trace: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} --trace {trace} exited {code}: {lines[-1:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result: dict, trace: int, declared: dict) -> None:
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{kind} printed {got}, declared {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], float):
            raise AssertionError(f"{name} has no numeric value")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")


def check_handler(report: dict, layers: dict) -> None:
    result = report["result"]
    if result["handler_samples"] != result["traced_posts"]:
        raise AssertionError(
            f"handler timed {result['handler_samples']} POSTs, "
            f"{result['traced_posts']} were sent"
        )
    handler = layers["service.handler_ms"]["value"]
    if not 0 < handler < result["traced_p50_ms"]:
        raise AssertionError(
            f"handler_ms {handler:.3f} outside (0, traced p50 {result['traced_p50_ms']:.3f})"
        )
    total = handler + layers["service.unaccounted_ms"]["value"]
    p50 = result["p50_ms"]
    if abs(total - p50) > 0.1 * p50:
        raise AssertionError(
            f"tracing overhead: traced p50 {total:.3f} ms, untraced p50 {p50:.3f} ms"
        )


def check_stopped_server() -> None:
    tag = f"selftest-{time.time_ns()}"
    work = common.make_work(tag)
    watch = common.TreeWatch()
    live = []
    try:
        shape = serve.SHAPES["serve-small"]
        request = serve.make_requests(shape, seed=1)[0]
        serve.setup_once(0, shape, 1, work, tag, request, watch, live)
        server = live.pop()
        server.stop()
        phases = common.Phases()
        ok, _, conn, _ = serve.send(server.connect(), request)
        conn.close()
        phases.record("measured", ok)
        if phases.totals() != (1, 1):
            raise AssertionError("a request to a stopped server was not counted as failed")
    finally:
        for server in live:
            server.stop()
        watch.close()
        common.remove_work(work)


def main() -> int:
    shrink()
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()

    for workload in ("serve-small", "fit-restarts"):
        _, untraced = invoke(workload, 0)
        check_metrics(untraced, 0, declared)
    for workload in run.WORKLOADS:
        report, traced = invoke(workload, 1)
        check_metrics(traced, 1, declared)
        if workload == "serve-small":
            check_handler(report, traced["metrics"])

    check_stopped_server()
    common.log(f"self-test passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
