"""Helpers shared by the serve and fit workloads.

Statistics (median, tail percentile), per-phase operation accounting,
child-process launch and teardown, process-tree memory sampling via
``/proc``, the shared-memory leak check and the run-environment
record.  Standard library plus numpy only: the benchmark must not
import anything the program under test does not already need.
"""

from __future__ import annotations

import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # per-run scratch space inside the checkout
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_shm_"

#: Percentiles tried for ``tail_ms``, highest first.  The reported one
#: is the highest with at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

#: Thread-count settings a BLAS or OpenMP runtime reads at start-up.
#: The benchmark records them and never sets them.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


# ----------------------------------------------------------------------
# statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def median_ms(seconds: Sequence[float]) -> Optional[float]:
    """Median of ``seconds`` in ms, or None when nothing was timed."""
    return ms(median(seconds)) if seconds else None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the tail metric.

    The highest ladder percentile that leaves at least ten samples
    above it.  With ten samples or fewer no percentile qualifies and
    the maximum is reported as percentile 100 with nothing beyond.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct), beyond
    return 100.0, float(max(values)), 0


# ----------------------------------------------------------------------
# operation accounting


class Phases:
    """Operations attempted / failed per phase (set-up, warm-up, measured).

    Thread-safe: the serve workloads record from one thread per
    connection.
    """

    ORDER = ("setup", "warmup", "measured")

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, List[int]] = {}

    def record(self, phase: str, ok: bool) -> None:
        with self._lock:
            counts = self._counts.setdefault(phase, [0, 0])
            counts[0] += 1
            counts[1] += 0 if ok else 1

    def totals(self) -> Tuple[int, int]:
        with self._lock:
            attempted = sum(c[0] for c in self._counts.values())
            failed = sum(c[1] for c in self._counts.values())
        return attempted, failed

    def report(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            ordered = sorted(self._counts.items(), key=lambda kv: self.ORDER.index(kv[0]))
        return {
            phase: {"attempted": attempted, "succeeded": attempted - failed, "failed": failed}
            for phase, (attempted, failed) in ordered
        }


# ----------------------------------------------------------------------
# scratch space and child processes


def make_work(tag: str) -> Path:
    work = WORK / tag
    work.mkdir(parents=True)
    return work


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()  # only once no other run is using it
    except OSError:
        pass


def child_env() -> Dict[str, str]:
    """The caller's environment plus ``src`` on ``PYTHONPATH``.

    Thread settings are inherited untouched (see ``THREAD_ENV``).
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def python(tag: str) -> List[str]:
    """This interpreter, with the run's tag on its command line.

    ``-X`` takes any key and the interpreter ignores unknown ones; the
    tag only marks the command line, which forked workers inherit, so
    teardown can find every process of the run (``tagged_processes``).
    """
    return [sys.executable, "-X", f"perfbench_tag={tag}"]


def launch(args: Sequence[str], *, stderr_path: Path, stdout=subprocess.PIPE):
    """Start a child in its own session so teardown can reach all of it."""
    with open(stderr_path, "ab") as err:
        return subprocess.Popen(
            list(args),
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=err,
            start_new_session=True,
        )


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """Next stdout line of ``proc`` (binary pipe), or BenchError."""
    deadline = time.monotonic() + timeout
    buf = getattr(proc, "_bench_buf", b"")
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no output from pid {proc.pid} within {timeout}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            raise BenchError(
                f"pid {proc.pid} closed its output (exit {proc.poll()})"
            )
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    proc._bench_buf = rest
    return line.decode("utf-8", "replace")


def stop(proc: subprocess.Popen, sig=signal.SIGINT, timeout: float = 20.0) -> int:
    """Signal ``proc`` and wait; kill its whole session if it lingers."""
    if proc.poll() is None:
        try:
            proc.send_signal(sig)
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_session(proc)
    return proc.wait(timeout=timeout)


def kill_session(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


# ----------------------------------------------------------------------
# /proc: process tree, memory, leftovers


def _stat(pid: int) -> Optional[Tuple[int, int, str]]:
    """(ppid, start time, state) of ``pid`` or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    fields = data[data.rfind(")") + 2 :].split()
    return int(fields[1]), int(fields[19]), fields[0]


def _pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def tree(root: int) -> Dict[int, int]:
    """``{pid: start time}`` of ``root`` and every live descendant."""
    children: Dict[int, List[int]] = {}
    starts: Dict[int, int] = {}
    for pid in _pids():
        info = _stat(pid)
        if info is None or info[2] == "Z":
            continue
        children.setdefault(info[0], []).append(pid)
        starts[pid] = info[1]
    if root not in starts:
        return {}
    found, stack = {}, [root]
    while stack:
        pid = stack.pop()
        found[pid] = starts[pid]
        stack.extend(children.get(pid, ()))
    return found


def rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeWatch:
    """Sample the resident memory of a process tree on a daemon thread.

    ``peak_mb`` is the largest sum of VmRSS over the tree seen in any
    sample.  Every (pid, start time) seen is remembered, so teardown
    can prove that none of them survived.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak_kb = 0
        self.seen: Dict[int, int] = {}
        self._roots: List[int] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def watch(self, pid: int) -> None:
        with self._lock:
            self._roots = [pid]
        self.sample()

    def unwatch(self) -> None:
        with self._lock:
            self._roots = []

    def reset_peak(self) -> None:
        with self._lock:
            self.peak_kb = 0

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def sample(self) -> None:
        with self._lock:
            roots = list(self._roots)
        for root in roots:
            members = tree(root)
            total = sum(rss_kb(pid) for pid in members)
            with self._lock:
                self.seen.update(members)
                self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def survivors(self) -> List[int]:
        """Seen processes still alive (same pid and start time)."""
        alive = []
        for pid, start in sorted(self.seen.items()):
            info = _stat(pid)
            if info is not None and info[1] == start and info[2] != "Z":
                alive.append(pid)
        return alive


def tagged_processes(tag: str) -> List[int]:
    """Live processes other than this one whose command line has ``tag``.

    Every launch carries the tag (``python``), and forked workers
    inherit their parent's command line, so a child orphaned before any
    sample saw it is still found.
    """
    found = []
    encoded = tag.encode()
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        info = _stat(pid)
        if encoded in cmdline and info is not None and info[2] != "Z":
            found.append(pid)
    return found


def shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def teardown_check(watch: TreeWatch, tag: str, shm_before: set) -> Dict:
    """Leftover processes and shared-memory segments of this run."""
    deadline = time.monotonic() + 5.0
    while True:
        procs = sorted(set(watch.survivors()) | set(tagged_processes(tag)))
        leaked = sorted(shm_segments() - shm_before)
        if (not procs and not leaked) or time.monotonic() > deadline:
            break
        time.sleep(0.1)  # exiting children may still be unlinking
    for pid in procs:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return {"processes": procs, "shm_segments": leaked, "ok": not procs and not leaked}


# ----------------------------------------------------------------------
# environment


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")
                }
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(family: str, workload: str, seed: int) -> Dict:
    import numpy as np

    blas: Dict = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": config.get("name"), "version": config.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        f"{family}_cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        # Without bytecode caching every launch compiles the program's
        # sources again, which is part of setup_s.
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "workload": workload,
        "seed": seed,
    }


def emit(obj: Dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    sys.stderr.write(f"[perfbench] {message}\n")
    sys.stderr.flush()


def ms(seconds: float) -> float:
    return seconds * 1000.0

