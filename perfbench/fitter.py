"""Fit-workload program: one process that sets up, then fits repeatedly.

Usage::

    python fitter.py --workload fit-sharded --seed 1 --seconds 10 \
        [--trace] [--setup-only]

Prints JSON lines on stdout.  ``{"event": "ready", ...}`` comes with
the first fitted model, the first answer a user of the fit gets
(imports, data, the worker pool's start and one fit of the first
matrix); the parent times set-up up to that line.  Unless
``--setup-only``, one reference fit at one job per seeded matrix
follows (the warm-up), then fits at two jobs, the matrices in turn,
until ``--seconds`` have passed, and a final ``{"event": "done", ...}``.

``--trace`` splits the measured time: the first half untraced, the
second half with timers around the oracle, the restart loop, the
executor and the Neumaier reduction.  The timers count through the
library's metrics registry, so counts made inside pool workers come
back with each task's telemetry.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.executor import ParallelExecutor
from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.shards import ShardedLandmarkOracle
from repro.telemetry.metrics import get_registry
from repro.utils import kernels

from common import emit

SHAPES = {
    # The oracle call dominates the fit: shard compute, shard transport
    # and the Neumaier reduction do the work; there is one restart, so
    # restart parallelism is unused.  At M = 5e4 one call takes ~0.1 s
    # on the two-job pool, and max_iter = 16 gives each fit ~25 calls,
    # enough for the call-to-call scheduling noise of the pool to average
    # out within a fit.  The landmark anchors depend on the data, so the
    # L-BFGS evaluation count differs between matrices; fitting four
    # seeded matrices in turn keeps the median from following one count.
    "fit-sharded": {
        "m": 50_000,
        "n": 8,
        "permute": False,
        "datasets": 4,
        "params": dict(
            n_prototypes=4, pair_mode="landmark", n_landmarks=32,
            oracle_shards=8, oracle_jobs=2, n_restarts=1, max_iter=16,
            random_state=0,
        ),
        "reference": dict(oracle_jobs=1),
    },
    # The paper's exact full-pair objective at a size where one oracle
    # call is cheap: pool spawn, the shm broadcast of X, the restart map
    # and L-BFGS bookkeeping take a large share.  The objective does not
    # depend on row order, so the seed permutes the rows of one fixed
    # matrix and every seed asks for the same optimisation work.
    "fit-restarts": {
        "m": 1500,
        "n": 20,
        "permute": True,
        "datasets": 1,
        "params": dict(
            n_prototypes=8, pair_mode="full", n_restarts=4, n_jobs=2,
            max_iter=25, random_state=0,
        ),
        "reference": dict(n_jobs=1),
    },
}

CALLS = "perfbench_oracle_calls_total"
ORACLE_S = "perfbench_oracle_seconds_total"
RESTART_S = "perfbench_restart_seconds_total"


def matrix(workload: str, seed: int, index: int) -> np.ndarray:
    """Seeded training matrix ``index``; the last column is protected."""
    shape = SHAPES[workload]
    m, n = shape["m"], shape["n"]
    rng = np.random.default_rng([0 if shape["permute"] else seed, 29, index])
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    if shape["permute"]:
        X = X[np.random.default_rng([seed, 31]).permutation(m)]
    return X


class Tracer:
    """Class-level timers around the layers' public entry points."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self._saved = []

    def _wrap(self, owner, name: str, key=None, counter=None, calls=None):
        original = getattr(owner, name)
        samples = self.samples.setdefault(key, []) if key else None

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if samples is not None:
                    samples.append(elapsed)
                if counter:
                    registry = get_registry()
                    registry.counter(counter).inc(elapsed)
                    if calls:
                        registry.counter(calls).inc()

        self._saved.append((owner, name, original))
        setattr(owner, name, timed)

    def install(self) -> None:
        self._wrap(IFairObjective, "loss_and_grad", counter=ORACLE_S, calls=CALLS)
        self._wrap(ShardedLandmarkOracle, "loss_and_grad", key="shards.call",
                   counter=ORACLE_S, calls=CALLS)
        self._wrap(IFair, "_run_restart", counter=RESTART_S)
        self._wrap(ParallelExecutor, "start", key="executor.start")
        self._wrap(ParallelExecutor, "map", key="executor.map")
        self._wrap(kernels, "neumaier_tree_reduce", key="shards.reduce")

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self) -> Dict[str, List[float]]:
        taken = {k: list(v) for k, v in self.samples.items()}
        for values in self.samples.values():
            values.clear()
        return taken


def counters() -> Dict[str, float]:
    registry = get_registry()
    return {name: registry.counter(name).value for name in (CALLS, ORACLE_S, RESTART_S)}


def timed_fit(X: np.ndarray, params: Dict, tracer: Tracer = None,
              dataset: int = 0) -> Dict:
    before = counters()
    start = time.perf_counter()
    model = IFair(**params).fit(X, [X.shape[1] - 1])
    elapsed = time.perf_counter() - start
    after = counters()
    digest = hashlib.sha256(
        model.prototypes_.tobytes() + model.alpha_.tobytes()
    ).hexdigest()
    record = {
        "dataset": dataset,
        "seconds": elapsed,
        "loss": float(model.loss_),
        "theta_sha256": digest,
    }
    if tracer is not None:
        record["counts"] = {k: after[k] - before[k] for k in after}
        record["samples"] = tracer.take()
    return record


def fit_until(records: List[Dict], matrices: List[np.ndarray], params: Dict,
              seconds: float, tracer: Tracer = None) -> None:
    """Fit the matrices in turn while another fit of median length still
    ends within ``seconds``."""
    start = time.perf_counter()
    while True:
        k = len(records) % len(matrices)
        records.append(timed_fit(matrices[k], params, tracer, dataset=k))
        typical = float(np.median([r["seconds"] for r in records]))
        if time.perf_counter() - start + typical > seconds:
            return


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    shape = SHAPES[args.workload]
    matrices = [
        matrix(args.workload, args.seed, k) for k in range(shape["datasets"])
    ]
    params = dict(shape["params"])
    emit({"event": "ready", "first": timed_fit(matrices[0], params)})
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    references = [
        timed_fit(X, {**params, **shape["reference"]}, tracer, dataset=k)
        for k, X in enumerate(matrices)
    ]
    fits, traced = [], []
    untraced_s = args.seconds / 2 if tracer is not None else args.seconds
    if tracer is not None:
        tracer.uninstall()
    fit_until(fits, matrices, params, untraced_s)
    if tracer is not None:
        tracer.install()
        fit_until(traced, matrices, params, args.seconds / 2, tracer)
        tracer.uninstall()
    emit({"event": "done", "references": references, "fits": fits, "traced": traced})
    return 0


if __name__ == "__main__":
    sys.exit(main())
