"""Tests for repro.core.executor."""

import os
import tempfile

import numpy as np
import pytest

from repro.core.executor import (
    ParallelExecutor,
    TaskError,
    WorkerCrashError,
    WorkerPool,
    effective_n_jobs,
    get_shared,
    get_state,
    in_worker,
    run_tasks,
)
from repro.exceptions import ValidationError
from repro.utils.shm import leaked_segments


def _double(payload):
    return payload * 2


def _shared_row_sum(i):
    return float(get_shared()["X"][i].sum()) * get_state()["scale"]


def _raise_on_two(payload):
    if payload == 2:
        raise ValueError("payload two is broken")
    return payload


def _crash(payload):
    os._exit(17)


class TestEffectiveNJobs:
    def test_none_and_one_are_serial(self):
        assert effective_n_jobs(None) == 1
        assert effective_n_jobs(1) == 1

    def test_minus_one_uses_cpus(self):
        assert effective_n_jobs(-1) == (os.cpu_count() or 1)

    def test_limit_clamps(self):
        assert effective_n_jobs(8, limit=3) == 3

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValidationError):
            effective_n_jobs(bad)


#: The two execution paths: in-process (one job) and a forked pool.
PATHS = pytest.mark.parametrize("n_jobs", [2, 1], ids=["process", "serial"])


class TestBackends:
    @PATHS
    def test_map_preserves_order(self, n_jobs):
        out = run_tasks(_double, list(range(7)), n_jobs=n_jobs)
        assert out == [0, 2, 4, 6, 8, 10, 12]

    @PATHS
    def test_state_and_shared_reach_tasks(self, n_jobs):
        X = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = run_tasks(
            _shared_row_sum,
            [0, 1, 2],
            n_jobs=n_jobs,
            state={"scale": 2.0},
            shared={"X": X},
        )
        assert out == [12.0, 44.0, 76.0]

    def test_empty_payloads(self):
        assert run_tasks(_double, [], n_jobs=2) == []

    def test_n_jobs_one_runs_inline(self):
        executor = ParallelExecutor(_double, 1)
        assert executor.map([1, 2]) == [2, 4]
        assert executor._pool is None  # no worker was ever forked

    def test_closures_work_under_fork(self):
        captured = np.array([10.0, 20.0])
        out = run_tasks(lambda i: float(captured[i]), [0, 1], n_jobs=2)
        assert out == [10.0, 20.0]


class TestWorkerFlags:
    def test_parent_not_in_worker(self):
        assert not in_worker()

    def test_process_tasks_see_worker_flag(self):
        assert run_tasks(lambda _: in_worker(), [0], n_jobs=2) == [True]

    def test_serial_map_leaves_flag_down(self):
        # A serial search over parallel fits is legitimate; only real
        # pools raise the nested-parallelism guard.
        assert run_tasks(lambda _: in_worker(), [0]) == [False]

    def test_nested_jobs_collapse_inside_worker(self):
        out = run_tasks(lambda _: effective_n_jobs(8), [0], n_jobs=2)
        assert out == [1]


class TestTaskErrors:
    def test_task_error_carries_remote_traceback(self):
        with pytest.raises(TaskError) as excinfo:
            run_tasks(_raise_on_two, [0, 1, 2, 3], n_jobs=2)
        assert excinfo.value.task_index == 2
        assert excinfo.value.exc_type == "ValueError"
        assert "payload two is broken" in str(excinfo.value)
        assert "Traceback" in excinfo.value.remote_traceback

    def test_pool_survives_task_error(self):
        with ParallelExecutor(_raise_on_two, 2) as executor:
            with pytest.raises(TaskError):
                executor.map([0, 2])
            assert executor.map([0, 1, 3]) == [0, 1, 3]

    def test_serial_backend_raises_directly(self):
        with pytest.raises(ValueError):
            run_tasks(_raise_on_two, [2])


class TestCrashRecovery:
    def test_crash_retried_on_fresh_worker(self, tmp_path):
        marker_dir = str(tmp_path)

        def crash_once(i):
            marker = os.path.join(marker_dir, str(i))
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(13)
            return i * 10

        out = run_tasks(crash_once, [0, 1, 2, 3], n_jobs=2)
        assert out == [0, 10, 20, 30]

    def test_persistent_crash_raises_after_retries(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            run_tasks(_crash, [0], n_jobs=2, max_retries=1)
        assert excinfo.value.task_index == 0
        assert excinfo.value.attempts == 2

    def test_pool_usable_after_crash_abort(self):
        executor = ParallelExecutor(_crash, 2, max_retries=0)
        with pytest.raises(WorkerCrashError):
            executor.map([0])
        # The crashed pool was torn down; a new map restarts it.
        executor.fn = _double
        assert executor.map([3]) == [6]
        executor.shutdown()


class TestSharedMemoryLifecycle:
    def test_no_segments_leak_after_map(self):
        X = np.ones((4, 4))
        run_tasks(_shared_row_sum, [0], n_jobs=2, state={"scale": 1.0}, shared={"X": X})
        assert leaked_segments() == []

    def test_no_segments_leak_after_task_error(self):
        X = np.ones((4, 4))
        with pytest.raises(TaskError):
            run_tasks(_raise_on_two, [2], n_jobs=2, shared={"X": X})
        assert leaked_segments() == []

    def test_no_segments_leak_after_crash(self):
        X = np.ones((4, 4))
        with pytest.raises(WorkerCrashError):
            run_tasks(_crash, [0], n_jobs=2, max_retries=0, shared={"X": X})
        assert leaked_segments() == []


def _pid(payload):
    return os.getpid()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestPoolLifecycle:
    """One pool per executor: forked at start, gone at shutdown."""

    def test_each_executor_forks_fresh_workers(self):
        first = set(run_tasks(_pid, range(4), n_jobs=2))
        second = set(run_tasks(_pid, range(4), n_jobs=2))
        assert len(first) == 2 and os.getpid() not in first
        assert first.isdisjoint(second)

    def test_shutdown_stops_workers_and_unlinks_segments(self):
        executor = ParallelExecutor(
            _shared_row_sum, 2, state={"scale": 1.0}, shared={"X": np.ones((2, 2))}
        )
        with executor:
            pids = executor._pool.worker_pids()
            assert len(leaked_segments()) == 1
            assert executor.map([0, 1]) == [2.0, 2.0]
        assert leaked_segments() == []
        assert not any(_alive(pid) for pid in pids)

    def test_respawned_worker_serves_the_same_context(self, tmp_path):
        marker = str(tmp_path / "crashed")

        def crash_once_then_read(i):
            if i == 0 and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(19)
            return _shared_row_sum(i)

        X = np.arange(8, dtype=np.float64).reshape(2, 4)
        out = run_tasks(
            crash_once_then_read,
            [0, 1],
            n_jobs=2,
            state={"scale": 3.0},
            shared={"X": X},
        )
        assert out == [18.0, 66.0]
        assert leaked_segments() == []

    def test_failed_start_leaves_nothing_behind(self):
        executor = ParallelExecutor(_double, 2, shared={"X": np.empty((0, 3))})
        with pytest.raises(ValidationError, match="must not be empty"):
            executor.start()
        assert executor._pool is None
        assert leaked_segments() == []
        executor._shared_input = {"X": np.ones((2, 3))}
        assert executor.map([1, 2]) == [2, 4]  # restartable after fix-up
        executor.shutdown()
        assert leaked_segments() == []

    def test_worker_pool_needs_a_worker(self):
        with pytest.raises(ValidationError):
            WorkerPool(0, _double)


@pytest.mark.nightly
class TestExecutorStress:
    """High-volume checks, run on the scheduled nightly profile."""

    def test_many_tasks_preserve_order(self):
        out = run_tasks(_double, list(range(200)), n_jobs=4)
        assert out == [2 * i for i in range(200)]

    def test_repeated_crash_recovery(self, tmp_path):
        marker_dir = str(tmp_path)

        def crash_once(i):
            marker = os.path.join(marker_dir, str(i))
            if not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(11)
            return i

        out = run_tasks(crash_once, list(range(12)), n_jobs=3, max_retries=1)
        assert out == list(range(12))
