"""Sharded landmark-oracle rows: training at M = 100k / 1M (ISSUE 8).

Quick mode (CI smoke) times a full M = 100,000 sharded landmark fit —
the ``m1e5_fit_s`` row gates in ``GATE_LOWER_IS_BETTER`` because its
shape is identical under quick and full runs — and verifies the
sharded oracle against the single-process objective at rtol 1e-10
(``sharded_parity_ok``, a ``GATE_MUST_STAY_TRUE`` flag that also
checks bitwise n_jobs-independence at a fixed shard plan).

Full mode adds the headline acceptance row: an M = 1,000,000 landmark
fit (``m1e6_fit_s``) plus a stochastic mini-batch fit at the same M
(``m1e6_stochastic_fit_s``) whose per-call cost is bounded by
``batch_size`` instead of M.

Usage (standalone)::

    PYTHONPATH=src python benchmarks/bench_sharded.py [--full]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.shards import ShardedLandmarkOracle

N, K, L = 8, 4, 32
FIT_SHARDS = 8
MAX_ITER = 3
PARITY_M = 4000


def _matrix(m: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, N))
    X[:, N - 1] = (rng.random(m) > 0.5).astype(float)
    return X


def _timed_fit(X: np.ndarray, **overrides) -> tuple:
    params = dict(
        n_prototypes=K,
        pair_mode="landmark",
        n_landmarks=L,
        oracle_shards=FIT_SHARDS,
        n_restarts=1,
        max_iter=MAX_ITER,
        random_state=0,
    )
    params.update(overrides)
    start = time.perf_counter()
    model = IFair(**params).fit(X, [N - 1])
    return time.perf_counter() - start, model


def _parity_ok() -> bool:
    """Sharded-vs-single-process parity + fixed-plan n_jobs bitwiseness."""
    X = _matrix(PARITY_M, seed=5)
    objective = IFairObjective(
        X,
        [N - 1],
        n_prototypes=K,
        pair_mode="landmark",
        n_landmarks=L,
        random_state=0,
    )
    theta = np.random.default_rng(6).uniform(0.1, 0.9, size=objective.n_params)
    loss_ref, grad_ref = objective.loss_and_grad(theta)
    serial = ShardedLandmarkOracle(objective, n_shards=FIT_SHARDS, n_jobs=1)
    loss_1, grad_1 = serial.loss_and_grad(theta)
    with ShardedLandmarkOracle(
        objective, n_shards=FIT_SHARDS, n_jobs=2
    ) as oracle:
        loss_2, grad_2 = oracle.loss_and_grad(theta)

    grad_scale = float(np.abs(grad_ref).max())
    parity = (
        abs(loss_1 - loss_ref) <= 1e-10 * abs(loss_ref)
        and bool(
            np.allclose(
                grad_1, grad_ref, rtol=1e-10, atol=1e-10 * grad_scale
            )
        )
    )
    bitwise = loss_1 == loss_2 and bool(np.array_equal(grad_1, grad_2))
    return parity and bitwise


def bench_sharded(quick: bool = True) -> dict:
    entry: dict = {
        "sharded_N": N,
        "sharded_K": K,
        "sharded_L": L,
        "sharded_shards": FIT_SHARDS,
        "sharded_max_iter": MAX_ITER,
        "sharded_parity_ok": _parity_ok(),
    }
    # The gated timing row: identical shape under quick and full runs.
    m1e5_s, model = _timed_fit(_matrix(100_000))
    entry["m1e5_fit_s"] = m1e5_s
    entry["m1e5_loss"] = float(model.loss_)

    if not quick:
        m1e6 = _matrix(1_000_000)
        m1e6_s, model = _timed_fit(m1e6, oracle_jobs=2)
        entry["m1e6_fit_s"] = m1e6_s
        entry["m1e6_loss"] = float(model.loss_)
        sto_s, sto_model = _timed_fit(
            m1e6, batch_mode="stochastic", batch_size=100_000
        )
        entry["m1e6_stochastic_fit_s"] = sto_s
        entry["m1e6_stochastic_loss"] = float(sto_model.loss_)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="include the M = 1,000,000 acceptance rows",
    )
    args = parser.parse_args()
    print(json.dumps(bench_sharded(quick=not args.full), indent=2))


if __name__ == "__main__":
    main()
