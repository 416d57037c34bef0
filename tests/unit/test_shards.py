"""Unit tests for the sharded-oracle building blocks.

Covers the pieces the property/stress suites rely on: shard planning,
plan validation, the fixed-order compensated tree reduction, the
oracle's constructor contracts, the new :class:`IFair` knobs, and the
per-worker fit slots (which must never serve another fit's tasks).
"""

import math

import numpy as np
import pytest

from repro.core import executor as executor_module
from repro.core import model as model_module
from repro.core import shards as shards_module
from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.core.shards import (
    ShardedLandmarkOracle,
    _check_plan,
    plan_shards,
)
from repro.exceptions import ValidationError
from repro.utils.kernels import neumaier_tree_reduce


class TestPlanShards:
    @pytest.mark.parametrize(
        "n_rows,n_shards", [(10, 1), (10, 3), (7, 7), (3, 8), (0, 2), (100, 9)]
    )
    def test_matches_array_split(self, n_rows, n_shards):
        plan = plan_shards(n_rows, n_shards)
        expected, start = [], 0
        for piece in np.array_split(np.arange(n_rows), n_shards):
            expected.append((start, start + piece.size))
            start += piece.size
        assert plan == tuple(expected)

    def test_contiguous_cover(self):
        plan = plan_shards(23, 5)
        assert plan[0][0] == 0 and plan[-1][1] == 23
        for (_, stop), (start, _) in zip(plan, plan[1:]):
            assert stop == start

    def test_more_shards_than_rows_yields_empty_tail(self):
        plan = plan_shards(2, 5)
        assert len(plan) == 5
        assert plan[2:] == ((2, 2), (2, 2), (2, 2))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            plan_shards(-1, 2)
        with pytest.raises(ValidationError):
            plan_shards(10, 0)


class TestCheckPlan:
    def test_accepts_valid_plan_with_empty_ranges(self):
        plan = ((0, 0), (0, 4), (4, 4), (4, 9))
        assert _check_plan(plan, 9) == plan

    def test_rejects_gap(self):
        with pytest.raises(ValidationError):
            _check_plan(((0, 3), (4, 9)), 9)

    def test_rejects_short_cover(self):
        with pytest.raises(ValidationError):
            _check_plan(((0, 5),), 9)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValidationError):
            _check_plan(((0, 5), (5, 3)), 9)

    def test_rejects_empty_plan(self):
        with pytest.raises(ValidationError):
            _check_plan((), 0)


class TestNeumaierTreeReduce:
    def test_near_fsum_on_ill_conditioned_scalars(self):
        # Massive cancellation: the naive sum loses the 1e-8 entirely;
        # the compensated tree keeps it to within a few ulp of the
        # partials (fsum-exactness is not the contract, compensation is).
        terms = [1e16, 1.0, -1e16, 1.0, 1e-8, -2.0]
        exact = math.fsum(terms)
        assert abs(float(neumaier_tree_reduce(terms)) - exact) < 1e-12

    def test_exact_on_pairwise_cancellation(self):
        terms = [1e16, 1.0, -1e16, -1.0]
        assert float(neumaier_tree_reduce(terms)) == 0.0

    def test_elementwise_on_arrays(self):
        rng = np.random.default_rng(0)
        terms = [rng.normal(size=(3, 4)) * 10.0**e for e in (16, 0, -8, 8)]
        terms += [-t for t in terms]
        result = neumaier_tree_reduce(terms)
        expected = np.array(
            [
                [math.fsum(t[i, j] for t in terms) for j in range(4)]
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)

    def test_single_term_is_identity(self):
        term = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(neumaier_tree_reduce([term]), term)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            neumaier_tree_reduce([])

    def test_order_of_magnitude_sweep_stays_exact(self):
        # 17 terms (odd count exercises the carried tail node).
        terms = [(-4.0) ** i for i in range(17)]
        assert float(neumaier_tree_reduce(terms)) == math.fsum(terms)


def _landmark_objective(m=30, n=5, k=3, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    X[:, n - 1] = (rng.random(m) > 0.5).astype(float)
    return IFairObjective(
        X,
        [n - 1],
        n_prototypes=k,
        pair_mode="landmark",
        n_landmarks=8,
        random_state=seed,
        **kwargs,
    )


class TestOracleValidation:
    def test_requires_landmark_objective(self):
        rng = np.random.default_rng(0)
        obj = IFairObjective(rng.normal(size=(20, 4)), [3], n_prototypes=2)
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(obj)

    def test_stochastic_requires_batch_size(self):
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(_landmark_objective(), batch_mode="stochastic")

    def test_batch_size_requires_stochastic(self):
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(_landmark_objective(), batch_size=5)

    def test_batch_size_range(self):
        obj = _landmark_objective(m=30)
        for bad in (0, 31):
            with pytest.raises(ValidationError):
                ShardedLandmarkOracle(
                    obj, batch_mode="stochastic", batch_size=bad
                )

    def test_rejects_bad_knobs(self):
        obj = _landmark_objective()
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(obj, batch_mode="minibatch")
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(obj, n_shards=0)

    def test_plan_hook_is_validated(self):
        with pytest.raises(ValidationError):
            ShardedLandmarkOracle(_landmark_objective(m=30), plan=((0, 10),))

    def test_seed_entropy_accepts_generator(self):
        a = ShardedLandmarkOracle._seed_entropy(np.random.default_rng(3))
        b = ShardedLandmarkOracle._seed_entropy(np.random.default_rng(3))
        assert a == b
        assert ShardedLandmarkOracle._seed_entropy(42) == 42
        assert ShardedLandmarkOracle._seed_entropy(None) >= 0

    def test_loss_is_the_first_oracle_component(self):
        oracle = ShardedLandmarkOracle(_landmark_objective(), n_shards=3)
        theta = np.random.default_rng(0).uniform(
            0.1, 0.9, size=oracle.n_params
        )
        assert oracle.loss(theta) == oracle.loss_and_grad(theta)[0]

    def test_close_is_idempotent_and_start_serial_is_a_noop(self):
        oracle = ShardedLandmarkOracle(_landmark_objective(), n_jobs=1)
        oracle.start()
        assert oracle._executor is None
        oracle.close()
        oracle.close()


class TestModelKnobs:
    def test_sharded_knobs_require_landmark_mode(self):
        for kwargs in (
            {"oracle_jobs": 2},
            {"oracle_shards": 4},
            {"batch_mode": "stochastic", "batch_size": 8},
        ):
            with pytest.raises(ValidationError):
                IFair(**kwargs)

    def test_stochastic_requires_batch_size(self):
        with pytest.raises(ValidationError):
            IFair(pair_mode="landmark", batch_mode="stochastic")

    def test_batch_size_requires_stochastic(self):
        with pytest.raises(ValidationError):
            IFair(pair_mode="landmark", batch_size=16)

    def test_sharded_excludes_restart_parallelism(self):
        with pytest.raises(ValidationError):
            IFair(pair_mode="landmark", oracle_jobs=2, n_jobs=2)

    def test_get_params_carries_the_new_knobs(self):
        params = IFair(
            pair_mode="landmark",
            oracle_jobs=2,
            oracle_shards=4,
            batch_mode="stochastic",
            batch_size=16,
        ).get_params()
        assert params["oracle_jobs"] == 2
        assert params["oracle_shards"] == 4
        assert params["batch_mode"] == "stochastic"
        assert params["batch_size"] == 16


class TestWorkerSlots:
    """Worker-side fit slots rebuild for a new ``state`` object.

    A forked worker inherits the parent's module globals, so a slot
    left over from an earlier in-process run must never answer another
    fit's tasks: slots are matched by ``state`` identity.
    """

    def _run_with(self, monkeypatch, fn, payload, state, X):
        monkeypatch.setattr(executor_module, "_WORKER_STATE", state)
        monkeypatch.setattr(executor_module, "_WORKER_SHARED", {"X": X})
        return fn(payload)

    def test_restart_slot_follows_the_state(self, monkeypatch):
        monkeypatch.setattr(model_module, "_WORKER_FIT", None)
        rng = np.random.default_rng(0)
        X_a, X_b = rng.normal(size=(20, 4)), rng.normal(size=(30, 4))
        params = IFair(n_prototypes=2, max_iter=3).get_params()
        for X in (X_a, X_b):
            state = {"params": params, "protected": [3]}
            self._run_with(monkeypatch, model_module._restart_task, (0, 1), state, X)
            _, _, objective, _ = model_module._WORKER_FIT
            assert objective.X.shape == X.shape
        same = model_module._WORKER_FIT
        self._run_with(monkeypatch, model_module._restart_task, (1, 2), state, X_b)
        assert model_module._WORKER_FIT is same  # one build per fit

    def test_shard_slot_follows_the_state(self, monkeypatch):
        monkeypatch.setattr(shards_module, "_WORKER_SUPPORT", None)
        X = np.random.default_rng(1).normal(size=(12, 4))
        first = {"nonprotected": [0, 1, 2], "anchors": [0, 5], "use_fast": True}
        second = dict(first, anchors=[1, 2, 3])
        monkeypatch.setattr(executor_module, "_WORKER_SHARED", {"X": X})
        a = shards_module._worker_support(first)
        assert shards_module._worker_support(first) is a
        b = shards_module._worker_support(second)
        assert b is not a and b.anchor_idx.tolist() == [1, 2, 3]
