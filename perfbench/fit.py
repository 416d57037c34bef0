"""Fit workloads: ``IFair.fit`` in a separate process, as a user runs it.

Set-up is timed from launching ``fitter.py`` to its first fitted model
and repeated ``SETUPS`` times in fresh processes; the last process goes
on to the warm-up reference fits and the measured fits.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import common
from common import BenchError, Phases, TreeWatch

#: Set-ups per run; setup_s is their median.
SETUPS = 4
FITTER = Path(__file__).with_name("fitter.py")


def _launch(workload, seed, seconds, trace, setup_only, work, tag):
    args = [
        *common.python(tag), "-u", str(FITTER), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    return common.launch(args, stderr_path=work / "fitter.stderr")


def _event(proc, name: str, timeout: float) -> Dict:
    line = common.read_line(proc, timeout)
    event = json.loads(line)
    if event.get("event") != name:
        raise BenchError(f"expected {name!r} from the fitter, got {line!r}")
    return event


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        watch: TreeWatch, phases: Phases, tag: str) -> Dict:
    setups: List[float] = []
    firsts: List[Dict] = []
    proc = None
    for index in range(SETUPS):
        last = index == SETUPS - 1
        start = time.perf_counter()
        proc = _launch(workload, seed, seconds, trace, not last, work, tag)
        watch.watch(proc.pid)
        firsts.append(_event(proc, "ready", timeout=120)["first"])
        setups.append(time.perf_counter() - start)
        if not last:
            if proc.wait(timeout=60) != 0:
                raise BenchError(f"set-up fitter exited with {proc.returncode}")
    watch.reset_peak()
    done = _event(proc, "done", timeout=170)
    if proc.wait(timeout=60) != 0:
        raise BenchError(f"fitter exited with {proc.returncode}")
    references = done["references"]
    for _ in references:
        phases.record("warmup", True)
    for fit in firsts:
        # Each set-up's fitted model repeats the reference fit bitwise.
        reference = references[fit["dataset"]]
        phases.record(
            "setup",
            fit["loss"] == reference["loss"]
            and fit["theta_sha256"] == reference["theta_sha256"],
        )
    for fit in done["fits"] + done["traced"]:
        # Every fit repeats its matrix's reference fit bitwise: the same
        # loss and theta at one job and at two (for fit-sharded:
        # oracle_jobs 1 and 2 on the same shard plan).
        reference = references[fit["dataset"]]
        phases.record(
            "measured",
            fit["loss"] == reference["loss"]
            and fit["theta_sha256"] == reference["theta_sha256"],
        )
    times = [fit["seconds"] for fit in done["fits"]]
    pct, tail, beyond = common.tail(times)
    result = {
        "p50_ms": common.ms(common.median(times)),
        "tail_ms": common.ms(tail),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(times),
        "fit_samples_s": times,
        "ops_per_s": len(times) / sum(times),
        "fit_loss": [reference["loss"] for reference in references],
        "setup_s": common.median(setups),
        "setup_samples_s": setups,
        "peak_rss_mb": watch.peak_mb,
        "reference_fit_s": [reference["seconds"] for reference in references],
    }
    if trace:
        result["layers"] = _layers(references, done["traced"], times)
    return result


def _layers(references: List[Dict], traced: List[Dict],
            untraced_times: List[float]) -> Dict:
    """Per-layer figures; a layer whose timers saw nothing is left out."""
    def per_fit(key: str) -> float:
        return common.median([fit["counts"][key] for fit in traced])

    def pooled(name: str) -> List[float]:
        return [s for fit in traced for s in fit["samples"].get(name, [])]

    calls = per_fit("perfbench_oracle_calls_total")
    oracle_s = per_fit("perfbench_oracle_seconds_total")
    restart_s = per_fit("perfbench_restart_seconds_total")
    traced_s = common.median([fit["seconds"] for fit in traced])
    untraced_s = common.median(untraced_times)
    call_ms = common.median_ms(pooled("shards.call"))
    serial_call_ms = common.median_ms(
        [s for ref in references for s in ref["samples"].get("shards.call", [])]
    )
    reference_s = common.median([ref["seconds"] for ref in references])
    # The Neumaier tree reduction runs six times per sharded oracle call.
    reduce_per_call = [
        sum(chunk) for chunk in _chunks(pooled("shards.reduce"), 6)
    ]
    layers = {
        "executor.start_ms": common.median_ms(pooled("executor.start")),
        "executor.map_ms": common.median_ms(pooled("executor.map")),
        "executor.parallel_speedup": reference_s / untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    if calls:
        layers.update({
            "oracle.calls": calls,
            "oracle.call_ms": common.ms(oracle_s / calls),
        })
    if restart_s:
        layers.update({
            "oracle.share": oracle_s / restart_s,
            "lbfgs.ms": common.ms(restart_s - oracle_s),
        })
    if call_ms is not None and serial_call_ms is not None:
        layers.update({
            "shards.call_ms": call_ms,
            "shards.serial_call_ms": serial_call_ms,
            "shards.parallel_speedup": serial_call_ms / call_ms,
        })
    layers["shards.reduce_ms"] = common.median_ms(reduce_per_call)
    return {name: value for name, value in layers.items() if value is not None}


def _chunks(values: List[float], size: int) -> List[List[float]]:
    return [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
