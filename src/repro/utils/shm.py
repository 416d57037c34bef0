"""Zero-copy broadcast of numpy arrays to worker processes.

Process-parallel tuning (:mod:`repro.core.executor`) fans hundreds of
candidate fits over a worker pool.  Pickling the training/validation
matrices into every task would copy a 20k x N dataset once per grid
point; instead the parent publishes each array once into a POSIX
shared-memory segment (:mod:`multiprocessing.shared_memory`) and
workers map the same pages read-only.

:class:`SharedArrays` owns the parent side (create, unlink), and
:func:`attach` opens the worker side from the picklable
:class:`SharedArrayHandle` descriptors.  Both ends are context
managers so segments are released even when a fit raises — leaked
``/dev/shm`` entries are a test-enforced bug
(``tests/unit/test_shm.py``), checked per process through
:func:`leaked_segments`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import get_tracer

#: Prefix of every segment this module creates; tests sweep
#: ``/dev/shm`` for it to prove nothing leaks.
SEGMENT_PREFIX = "repro_shm_"

# pid + a process-local counter makes names unique: only the creating
# process mints them, and concurrent parents differ in pid.
_SEGMENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable descriptor of one shared array (name, layout)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class AttachedArrays:
    """Worker-side view of a :class:`SharedArrays` broadcast.

    Maps every segment named by ``handles`` and exposes read-only
    ndarray views under the original keys.  ``close()`` (or the
    context manager) drops the mappings; the parent keeps the unlink
    responsibility.
    """

    def __init__(self, handles: Mapping[str, SharedArrayHandle]):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        try:
            for key, handle in handles.items():
                # Workers share the parent's resource-tracker process
                # (the fd rides along under both fork and spawn), and
                # its registration cache is a per-name set — attaching
                # here neither duplicates the entry nor takes over the
                # unlink duty, which stays with the creating parent.
                shm = shared_memory.SharedMemory(name=handle.name)
                self._segments[key] = shm
                view = np.ndarray(
                    handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
                )
                view.flags.writeable = False
                self.arrays[key] = view
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Drop every mapping (views become invalid)."""
        self.arrays = {}
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._segments = {}

    def __enter__(self) -> "AttachedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(handles: Mapping[str, SharedArrayHandle]) -> AttachedArrays:
    """Open the worker-side view of a broadcast (see ``SharedArrays``)."""
    return AttachedArrays(handles)


class SharedArrays:
    """Parent-side owner of a set of shared-memory array segments.

    Parameters
    ----------
    arrays:
        Mapping of key -> ndarray.  Each array is copied once into a
        fresh segment (C-contiguous); workers then attach by name with
        no further copies or pickling.

    Use as a context manager (or call :meth:`unlink`) so the segments
    are removed from ``/dev/shm`` even when the parallel section
    raises.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        if not arrays:
            raise ValidationError("SharedArrays needs at least one array")
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._handles: Dict[str, SharedArrayHandle] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        registry = get_registry()
        try:
            with get_tracer().span("shm.broadcast", n_arrays=len(arrays)):
                self._create(arrays, registry)
        except BaseException:
            self.unlink()
            raise

    def _create(self, arrays: Mapping[str, np.ndarray], registry) -> None:
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            if array.size == 0:
                raise ValidationError(f"shared array {key!r} must not be empty")
            shm = shared_memory.SharedMemory(
                create=True,
                size=array.nbytes,
                name=f"{SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_COUNTER)}",
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
            view.flags.writeable = False
            self._segments[key] = shm
            self._handles[key] = SharedArrayHandle(
                name=shm.name, shape=tuple(array.shape), dtype=array.dtype.str
            )
            self.arrays[key] = view
            registry.counter("shm_broadcast_segments_total").inc()
            registry.counter("shm_broadcast_bytes_total").inc(array.nbytes)

    @property
    def handles(self) -> Dict[str, SharedArrayHandle]:
        """Picklable descriptors for :func:`attach` in workers."""
        return dict(self._handles)

    def unlink(self) -> None:
        """Close the mappings and remove the segments from the system."""
        self.arrays = {}
        self._handles = {}
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = {}

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def leaked_segments() -> List[str]:
    """Names of live segments this process created (diagnostics).

    Scans ``/dev/shm`` for ``<SEGMENT_PREFIX><pid>_`` with the calling
    process's pid — the prefix every segment it creates carries — so
    segments of other processes on the machine (a benchmark running
    alongside) never count.  Returns ``[]`` on platforms without a
    visible tmpfs mount.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    own = f"{SEGMENT_PREFIX}{os.getpid()}_"
    return sorted(name for name in entries if name.startswith(own))
