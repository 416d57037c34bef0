"""Tests for repro.utils.shm."""

import os
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.shm import (
    SEGMENT_PREFIX,
    SharedArrays,
    attach,
    leaked_segments,
)


@pytest.fixture
def arrays():
    rng = np.random.default_rng(5)
    return {
        "X": rng.normal(size=(6, 4)),
        "y": np.arange(6, dtype=np.int64),
    }


class TestSharedArrays:
    def test_roundtrip_values_shape_dtype(self, arrays):
        with SharedArrays(arrays) as shm:
            attached = attach(shm.handles)
            for key, original in arrays.items():
                view = attached.arrays[key]
                assert view.shape == original.shape
                assert view.dtype == original.dtype
                np.testing.assert_array_equal(view, original)
            attached.close()

    def test_views_are_read_only(self, arrays):
        with SharedArrays(arrays) as shm:
            with pytest.raises(ValueError):
                shm.arrays["X"][0, 0] = 1.0
            attached = attach(shm.handles)
            with pytest.raises(ValueError):
                attached.arrays["X"][0, 0] = 1.0
            attached.close()

    def test_handles_are_picklable(self, arrays):
        with SharedArrays(arrays) as shm:
            restored = pickle.loads(pickle.dumps(shm.handles))
            assert set(restored) == {"X", "y"}
            assert restored["X"].shape == (6, 4)
            attached = attach(restored)
            np.testing.assert_array_equal(attached.arrays["X"], arrays["X"])
            attached.close()

    def test_segments_carry_the_module_prefix(self, arrays):
        with SharedArrays(arrays) as shm:
            for handle in shm.handles.values():
                assert handle.name.startswith(SEGMENT_PREFIX)

    def test_unlink_removes_segments(self, arrays):
        shm = SharedArrays(arrays)
        assert len(leaked_segments()) == 2
        shm.unlink()
        assert leaked_segments() == []
        shm.unlink()  # idempotent

    def test_context_manager_cleans_up_on_exception(self, arrays):
        with pytest.raises(RuntimeError):
            with SharedArrays(arrays):
                assert len(leaked_segments()) == 2
                raise RuntimeError("boom")
        assert leaked_segments() == []

    def test_copies_are_independent_of_source(self):
        source = np.ones((3, 3))
        with SharedArrays({"X": source}) as shm:
            source[:] = 7.0
            np.testing.assert_array_equal(shm.arrays["X"], np.ones((3, 3)))

    def test_non_contiguous_input_is_copied(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        with SharedArrays({"X": base[:, ::2]}) as shm:
            np.testing.assert_array_equal(shm.arrays["X"], base[:, ::2])

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValidationError):
            SharedArrays({})

    def test_empty_array_rejected(self):
        with pytest.raises(ValidationError):
            SharedArrays({"X": np.empty((0, 3))})
        assert leaked_segments() == []

    def test_attach_close_keeps_segment_alive(self, arrays):
        with SharedArrays(arrays) as shm:
            with attach(shm.handles) as attached:
                np.testing.assert_array_equal(attached.arrays["X"], arrays["X"])
            # worker detached; the parent's copy is untouched
            np.testing.assert_array_equal(shm.arrays["X"], arrays["X"])
        assert leaked_segments() == []


class TestLeakedSegments:
    def test_only_this_process_segments_are_listed(self):
        # A segment named for another creator pid (a benchmark running
        # alongside) must never read as this process's leak.
        foreign = shared_memory.SharedMemory(
            create=True, size=8, name=f"{SEGMENT_PREFIX}{os.getpid() + 1}_0"
        )
        try:
            assert foreign.name.lstrip("/") not in leaked_segments()
            with SharedArrays({"X": np.ones(3)}) as shm:
                own = shm.handles["X"].name
                assert leaked_segments() == [own]
        finally:
            foreign.close()
            foreign.unlink()
        assert leaked_segments() == []
