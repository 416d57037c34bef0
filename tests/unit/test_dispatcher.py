"""Unit tests for the multi-process serving dispatcher.

The dispatcher must be *transparent*: N shm-backed engine workers
answer bitwise-identically to one in-process engine, survive worker
crashes, swap models blue/green without dropping capacity, and ship
per-worker telemetry back into one mergeable registry — all without
leaking shared-memory segments.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ReproError, ValidationError
from repro.serving import (
    AdmissionError,
    ArtifactError,
    ChaosConfig,
    DispatchError,
    EngineDispatcher,
    InferenceEngine,
    InProcessClient,
    fit_serving_pipeline,
    load_artifact,
    save_artifact,
)
from repro.utils.shm import leaked_segments


@pytest.fixture(scope="module")
def artifact_dir(tiny_compas, tmp_path_factory):
    artifact = fit_serving_pipeline(
        tiny_compas, n_prototypes=4, max_iter=25, max_pairs=500, random_state=3
    )
    return save_artifact(
        str(tmp_path_factory.mktemp("dispatch") / "compas"), artifact
    )


@pytest.fixture(scope="module")
def engine(artifact_dir):
    return InferenceEngine(load_artifact(artifact_dir), cache_size=256)


@pytest.fixture(scope="module")
def dispatcher(artifact_dir):
    with EngineDispatcher(
        load_artifact(artifact_dir), n_workers=2, cache_size=256
    ) as running:
        yield running


@pytest.fixture(scope="module")
def records(tiny_compas):
    return tiny_compas.X[:12]


@pytest.fixture(scope="module")
def groups(tiny_compas):
    return tiny_compas.protected[:12]


class TestParity:
    def test_transform_bitwise(self, dispatcher, engine, records):
        assert np.array_equal(
            dispatcher.transform(records), engine.transform(records)
        )

    def test_score_bitwise(self, dispatcher, engine, records):
        assert np.array_equal(dispatcher.score(records), engine.score(records))

    def test_rank_matches_json_roundtrip(self, dispatcher, engine, records):
        expected = json.loads(json.dumps(engine.rank(records, top_k=5)))
        assert dispatcher.rank(records, top_k=5) == expected

    def test_decide_matches_modulo_drift_window(
        self, dispatcher, engine, records, groups
    ):
        # fairness_drift reflects each worker's private sliding window,
        # which legitimately depends on which worker served what.
        got = dispatcher.decide(records, groups)
        expected = json.loads(json.dumps(engine.decide(records, groups)))
        got.pop("fairness_drift")
        expected.pop("fairness_drift")
        assert got == expected

    def test_in_process_client_works_against_dispatcher(
        self, dispatcher, engine, records
    ):
        client = InProcessClient(dispatcher)
        assert client.score(records.tolist()) == json.loads(
            json.dumps(engine.score(records).tolist())
        )


class TestErrors:
    def test_bad_width_maps_to_400(self, dispatcher):
        with pytest.raises(DispatchError) as excinfo:
            dispatcher.score([[1.0, 2.0]])
        assert excinfo.value.status == 400

    def test_n_workers_must_be_positive(self, artifact_dir):
        with pytest.raises(ValidationError):
            EngineDispatcher(load_artifact(artifact_dir), n_workers=0)

    def test_stopped_dispatcher_refuses(self, artifact_dir, records):
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=1)
        dispatcher.stop()
        dispatcher.stop()  # idempotent
        with pytest.raises(DispatchError):
            dispatcher.score(records)


class TestTelemetry:
    def test_metrics_carry_worker_labels(self, dispatcher, records):
        dispatcher.score(records)
        text = dispatcher.metrics_text()
        assert 'serving_requests_total{worker="' in text
        assert "serving_dispatch_seconds" in text

    def test_stats_reduce_across_workers(self, dispatcher, records):
        for _ in range(4):
            dispatcher.score(records)
        stats = dispatcher.stats()
        assert stats["requests"] == sum(
            stats["workers"]["requests"].values()
        )
        assert stats["records"] >= stats["requests"] * len(records)
        assert stats["workers"]["n"] == 2
        assert stats["workers"]["alive"] == 2
        assert "score" in stats["endpoints"]

    def test_health_surface(self, dispatcher, artifact_dir):
        # The duck-typed engine surface dispatch() reads for /v1/health.
        assert dispatcher.artifact.checksum
        assert dispatcher.uptime_s >= 0.0
        assert dispatcher.endpoints() == ["transform", "score", "rank", "decide"]
        assert dispatcher.n_workers == 2


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_requests_survive(
        self, artifact_dir, records
    ):
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir), n_workers=2, cache_size=0
        )
        try:
            baseline = dispatcher.score(records)
            victim = dispatcher._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            # Requests survive throughout: the first to hit the dead
            # slot is rerouted to the live peer, never failed.
            for _ in range(6):
                assert np.array_equal(dispatcher.score(records), baseline)
            # The probe respawns the slot in the background (backoff +
            # ping verification), so rotation recovers shortly after.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = dispatcher.stats()["workers"]
                if stats["alive"] == 2:
                    break
                time.sleep(0.05)
            assert stats["respawns"] >= 1
            assert stats["alive"] == 2
            assert np.array_equal(dispatcher.score(records), baseline)
        finally:
            dispatcher.stop()


class TestAdmission:
    def test_overload_is_shed_with_429_and_retry_hint(
        self, artifact_dir, records
    ):
        # One worker that answers slowly (chaos slow fault on every
        # request), one admission slot, a 20 ms queue budget: of three
        # simultaneous calls one is served and the others are shed.
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir),
            n_workers=1,
            cache_size=0,
            max_inflight=1,
            shed_queue_s=0.02,
            chaos=ChaosConfig(slow=1.0, slow_ms=400.0, seed=5),
        )
        try:
            outcomes = []
            barrier = threading.Barrier(3)

            def call():
                barrier.wait()
                try:
                    dispatcher.score(records)
                    outcomes.append(("ok", None))
                except DispatchError as exc:
                    outcomes.append((exc.status, exc))

            threads = [threading.Thread(target=call) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            statuses = [status for status, _ in outcomes]
            assert statuses.count("ok") >= 1
            assert statuses.count(429) >= 1
            shed_exc = next(exc for status, exc in outcomes if status == 429)
            assert isinstance(shed_exc, AdmissionError)
            assert shed_exc.retry_after_s and shed_exc.retry_after_s > 0
            assert dispatcher.stats()["resilience"]["shed"] >= 1
        finally:
            dispatcher.stop()

    def test_unbounded_by_default(self, dispatcher):
        assert dispatcher.max_inflight is None
        assert dispatcher.stats()["resilience"]["inflight"] == 0


class TestBreaker:
    def test_crash_loop_evicts_then_probe_readmits(
        self, artifact_dir, records
    ):
        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir),
            n_workers=1,
            cache_size=0,
            max_retries=1,
            breaker_threshold=1,
            evict_probation_s=30.0,  # held open until the test heals it
            backoff_base_s=0.02,
            probe_interval_s=0.02,
            chaos=ChaosConfig(crash=1.0, seed=2),
        )
        try:
            # Every attempt crashes its worker; with the only slot dead
            # the request surfaces a definitive 503.
            with pytest.raises(DispatchError) as excinfo:
                dispatcher.score(records)
            assert excinfo.value.status == 503
            assert dispatcher.stats()["resilience"]["evictions"] >= 1
            assert dispatcher.health()["status"] == "unavailable"
            assert dispatcher.health()["workers_evicted"] == [0]
            # Breaker open: refusals are fast (no deadline burn) and
            # carry a retry hint.
            t0 = time.perf_counter()
            with pytest.raises(DispatchError) as refused:
                dispatcher.score(records)
            assert time.perf_counter() - t0 < 1.0
            assert refused.value.status == 503
            assert refused.value.retry_after_s is not None
            # Heal the fault and let probation expire: the probe
            # respawns, ping-verifies, and re-admits the slot.
            dispatcher._chaos = None
            for worker in dispatcher._workers:
                worker.not_before = 0.0
            deadline = time.monotonic() + 15.0
            answer = None
            while time.monotonic() < deadline:
                try:
                    answer = dispatcher.score(records)
                    break
                except DispatchError:
                    time.sleep(0.05)
            assert answer is not None
            assert dispatcher.health()["status"] == "ok"
            resilience = dispatcher.stats()["resilience"]
            assert resilience["readmissions"] >= 1
            assert resilience["evicted"] == []
        finally:
            dispatcher.stop()


class TestReload:
    def test_reload_same_artifact_changes_nothing(
        self, dispatcher, engine, artifact_dir, records
    ):
        before = dispatcher.score(records)
        answer = dispatcher.reload(artifact_dir)
        assert answer["status"] == "ok"
        assert answer["checksum"] == engine.artifact.checksum
        assert answer["previous_checksum"] == engine.artifact.checksum
        assert answer["workers"] == 2
        assert np.array_equal(dispatcher.score(records), before)

    def test_reload_new_artifact_swaps_checksum_and_answers(
        self, tiny_compas, artifact_dir, tmp_path, records
    ):
        other = fit_serving_pipeline(
            tiny_compas, n_prototypes=3, max_iter=20, max_pairs=400,
            random_state=11,
        )
        other_dir = save_artifact(str(tmp_path / "other"), other)
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        try:
            old = dispatcher.score(records)
            answer = dispatcher.reload(other_dir)
            assert answer["checksum"] == other.checksum
            assert dispatcher.artifact.checksum == other.checksum
            fresh = InferenceEngine(load_artifact(other_dir))
            assert np.array_equal(dispatcher.score(records), fresh.score(records))
            assert not np.array_equal(dispatcher.score(records), old)
            # ...and back: the blue artifact's segments were released
            # but republish cleanly.
            assert dispatcher.reload(artifact_dir)["checksum"] != other.checksum
            assert np.array_equal(dispatcher.score(records), old)
        finally:
            dispatcher.stop()

    def test_reload_missing_artifact_fails_and_keeps_serving(
        self, dispatcher, records, tmp_path
    ):
        before = dispatcher.score(records)
        with pytest.raises(ArtifactError):
            dispatcher.reload(str(tmp_path / "nope"))
        with pytest.raises(ValidationError):
            dispatcher.reload("")
        assert np.array_equal(dispatcher.score(records), before)


class TestCleanup:
    def test_stop_releases_all_segments(self, artifact_dir, records):
        before = set(leaked_segments())
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        dispatcher.score(records)
        dispatcher.stop()
        assert set(leaked_segments()) <= before


class TestModelGenerations:
    """The dispatcher owns one shared-memory generation per artifact."""

    @pytest.fixture
    def other_dir(self, tiny_compas, tmp_path):
        other = fit_serving_pipeline(
            tiny_compas, n_prototypes=3, max_iter=20, max_pairs=400,
            random_state=11,
        )
        return save_artifact(str(tmp_path / "other"), other)

    def test_reloads_then_stop_leave_no_segments(
        self, artifact_dir, other_dir, records
    ):
        before = set(leaked_segments())  # other tests' live dispatchers
        dispatcher = EngineDispatcher(load_artifact(artifact_dir), n_workers=2)
        try:
            first = set(leaked_segments()) - before
            assert first
            dispatcher.reload(other_dir)
            second = set(leaked_segments()) - before
            # The old generation is unlinked once every worker flipped.
            assert second and second.isdisjoint(first)
            dispatcher.reload(artifact_dir)
            third = set(leaked_segments()) - before
            assert len(third) == len(first) and third.isdisjoint(second)
            dispatcher.score(records)
        finally:
            dispatcher.stop()
        assert set(leaked_segments()) <= before

    def test_worker_killed_after_reload_respawns_on_new_generation(
        self, artifact_dir, other_dir, records
    ):
        from repro.serving.service import (
            RequestError,
            dispatch,
            error_payload,
            reply_bytes,
        )

        dispatcher = EngineDispatcher(
            load_artifact(artifact_dir), n_workers=2, cache_size=0
        )
        reference = InferenceEngine(load_artifact(other_dir), cache_size=0)
        try:
            dispatcher.reload(other_dir)
            victim = dispatcher._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            # The first request to hit the dead slot reroutes to the
            # live peer; the probe then respawns the slot.
            for _ in range(4):
                dispatcher.score(records)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                slot = dispatcher._workers[0]
                if slot.alive and slot.process.pid != victim.pid:
                    break
                time.sleep(0.05)
            assert dispatcher._workers[0].process.pid != victim.pid
            assert dispatcher.health()["workers_alive"] == 2
            # The replacement attached the post-reload generation (the
            # pre-reload one is already unlinked), and every worker
            # answers byte-identically to in-process dispatch.
            payload = {"records": records.tolist()}
            for path in ("/v1/transform", "/v1/score", "/v1/rank"):
                try:
                    expected = reply_bytes(
                        200, dispatch(reference, "POST", path, payload)
                    )
                except RequestError as exc:  # pragma: no cover - defensive
                    expected = reply_bytes(*error_payload(exc))
                raw = json.dumps(payload).encode("utf-8")
                for worker in list(dispatcher._workers):
                    outcome = dispatcher._attempt(worker, path, raw, None)
                    assert outcome[0] == "ok"
                    assert (outcome[1], outcome[2]) == expected, (path, worker.index)
        finally:
            dispatcher.stop()
