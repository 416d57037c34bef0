"""iFair serving and fitting benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Workloads: ``serve-small``, ``serve-mixed``, ``fit-sharded``,
``fit-restarts`` (see ``perfbench/README.md``).  The program under test
is the ``repro`` package in ``src/``; nothing is built.  Standard output
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); the line before it is the full report, including the
run environment and per-phase operation counts.  The exit code is 0
only when every operation was correct and the run left no process or
shared-memory segment behind.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

import common
from common import BenchError, Phases, TreeWatch

#: Hard limit for one run; the caller allows 180 s.
RUN_LIMIT_S = 170

WORKLOADS = ("serve-small", "serve-mixed", "fit-sharded", "fit-restarts")

END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.handler_ms": "ms",
    "service.unaccounted_ms": "ms",
    "dispatcher.handle_ms": "ms",
    "dispatcher.hop_ms": "ms",
    "dispatcher.retries": "count",
    "dispatcher.failed": "count",
    "engine.parse_ms": "ms",
    "engine.scale_ms": "ms",
    "engine.proto_ms": "ms",
    "engine.scorer_ms": "ms",
    "engine.score_ms": "ms",
    "engine.rank_ms": "ms",
    "engine.decide_ms": "ms",
    "engine.serialize_ms": "ms",
    "fairness.observe_ms": "ms",
    "oracle.calls": "count",
    "oracle.call_ms": "ms",
    "oracle.share": "ratio",
    "lbfgs.ms": "ms",
    "shards.call_ms": "ms",
    "shards.serial_call_ms": "ms",
    "shards.parallel_speedup": "ratio",
    "shards.reduce_ms": "ms",
    "executor.start_ms": "ms",
    "executor.map_ms": "ms",
    "executor.parallel_speedup": "ratio",
    "trace.overhead_pct": "%",
}

_ENGINE_READ = (
    "engine.parse_ms", "engine.scale_ms", "engine.proto_ms", "engine.scorer_ms",
    "engine.score_ms", "engine.serialize_ms",
)
_ORACLE = ("oracle.calls", "oracle.call_ms", "oracle.share", "lbfgs.ms")
_EXECUTOR = ("executor.start_ms", "executor.map_ms", "executor.parallel_speedup")

#: The per-layer metrics a traced run of each workload must measure.  A
#: run that collects no sample for one of them fails; the others read 0,
#: because the workload does not exercise their layer.
EXERCISED = {
    "serve-small": {
        "service.handler_ms", "service.unaccounted_ms", *_ENGINE_READ,
        "trace.overhead_pct",
    },
    "serve-mixed": {
        "service.handler_ms", "service.unaccounted_ms",
        "dispatcher.handle_ms", "dispatcher.hop_ms", "dispatcher.retries",
        "dispatcher.failed", *_ENGINE_READ, "engine.rank_ms", "engine.decide_ms",
        "fairness.observe_ms", "trace.overhead_pct",
    },
    "fit-sharded": {
        *_ORACLE, "shards.call_ms", "shards.serial_call_ms",
        "shards.parallel_speedup", "shards.reduce_ms", *_EXECUTOR,
        "trace.overhead_pct",
    },
    "fit-restarts": {*_ORACLE, *_EXECUTOR, "trace.overhead_pct"},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metrics_block(workload: str, result: dict, trace: bool) -> dict:
    """The declared metrics with units; unexercised layers read 0."""
    if trace:
        layers = result["layers"]
        missing = sorted(EXERCISED[workload] - layers.keys())
        if missing:
            raise BenchError(f"the traced run measured nothing for {missing}")
        return {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    return {
        name: {"value": float(result[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def execute(args) -> tuple:
    """Run one workload; returns (report, phases)."""
    if not (common.SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program's sources are missing under {common.SRC}")
    sys.path.insert(0, str(common.SRC))
    tag = f"perfbench-{os.getpid()}-{time.time_ns()}"
    work = common.make_work(tag)
    phases = Phases()
    watch = TreeWatch()
    shm_before = common.shm_segments()
    family = args.workload.split("-", 1)[0]
    report = {"env": common.environment(family, args.workload, args.seed)}
    try:
        if family == "serve":
            import serve

            result = serve.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work, watch, phases, tag)
        else:
            import fit

            result = fit.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), work, watch, phases, tag)
    finally:
        watch.unwatch()
        teardown = common.teardown_check(watch, tag, shm_before)
        watch.close()
        stderr_tail = {
            path.name: path.read_text(errors="replace")[-2000:]
            for path in work.glob("*.stderr")
        }
        common.remove_work(work)
    report.update(result=result, teardown=teardown, phases=phases.report())
    if not teardown["ok"]:
        report["stderr"] = stderr_tail
    return report, phases


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        common.log("--seconds must be positive")
        return 2

    def overtime(signum, frame):
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(RUN_LIMIT_S)
    try:
        report, phases = execute(args)
        metrics = metrics_block(args.workload, report["result"], bool(args.trace))
    except BenchError as exc:
        common.log(f"error: {exc}")
        return 1
    finally:
        signal.alarm(0)
    attempted, failed = phases.totals()
    correct = failed == 0 and report["teardown"]["ok"]
    common.emit({"report": report})
    common.emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
