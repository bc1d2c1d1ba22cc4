"""Shared helpers of the benchmark: statistics, memory, host context.

Everything here measures from outside the program: it times calls to
public functions and reads process-level counters.  Nothing imports
private names of ``repro``.
"""

from __future__ import annotations

import ctypes
import glob
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

#: minimum samples beyond the reported tail percentile
TAIL_SAMPLES = 10

#: set-ups per run: at least SETUP_MIN_REPS and SETUP_S seconds of them,
#: at most SETUP_MAX_REPS, spread evenly over the run; ``setup_s`` is
#: their median
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_S = 5, 15, 8.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def setup_marks(first_s: float, seconds: float) -> list[float]:
    """Operation-time marks at which a run sets up again.

    A run sets up ``n`` times, ``n`` the number of set-ups of
    ``first_s`` seconds that fill :data:`SETUP_S`, within
    ``[SETUP_MIN_REPS, SETUP_MAX_REPS]``.  After the first, the others
    are spread evenly over the ``seconds`` of operations, so their
    median samples the host over the whole run.
    """
    n = min(SETUP_MAX_REPS,
            max(SETUP_MIN_REPS, math.ceil(SETUP_S / max(first_s, 1e-9))))
    return [seconds * k / n for k in range(1, n)]


def median_time(fn, repeats: int) -> float:
    """Median wall-clock of ``repeats`` calls of ``fn()``."""
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile of ``values`` with
    at least :data:`TAIL_SAMPLES` samples beyond it.

    With fewer than ``2 * TAIL_SAMPLES`` samples no percentile above the
    median qualifies, and the median (percentile 50) is returned.
    """
    n = len(values)
    if n < 2 * TAIL_SAMPLES:
        return 50.0, statistics.median(values)
    pct = 100.0 * (1.0 - TAIL_SAMPLES / n)
    # nearest rank: the k-th smallest, k = ceil(pct/100 * n)
    k = math.ceil(pct / 100.0 * n - 1e-9)
    return pct, sorted(values)[k - 1]


# ----------------------------------------------------------------------
# memory

def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB; 0 if the
    kernel does not expose it."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, MiB.

    Children are the process backend's workers; call this while the
    pool is still open.  Shared-memory pages a worker touched count in
    its own peak too, so the sum is an upper bound of the footprint.
    """
    own = _vm_hwm_kb("self")
    if own == 0:  # no /proc: fall back to the portable counter
        scale = 1 if sys.platform == "darwin" else 1024
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale // 1024
    kids = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# processes

def stop_processes(timeout: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    These are the process backend's workers (children of this process)
    and multiprocessing's resource tracker, which the pool starts with
    ``spawnv`` and which would otherwise outlive this process as an
    orphan until it reads end-of-file on its pipe.  The tracker is
    stopped after the workers, because each forked worker holds a copy
    of that pipe's write end.
    """
    children = multiprocessing.active_children()
    for p in children:
        p.terminate()
    for p in children:
        p.join(timeout)
        if p.is_alive():
            p.kill()
            p.join(timeout)
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)  # end-of-file: the tracker cleans up and exits
    if pid is None:
        return
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
        except ChildProcessError:
            return
        time.sleep(0.01)
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


# ----------------------------------------------------------------------
# host context

def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS builds loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            rows = [line.split() for line in fh]
        found = {r[-1] for r in rows
                 if len(r) >= 6 and "openblas" in Path(r[-1]).name}
        if found:
            return sorted(found)
    except OSError:
        pass
    import numpy
    import scipy
    roots = [Path(numpy.__file__).parent.parent / "numpy.libs",
             Path(scipy.__file__).parent.parent / "scipy.libs"]
    return sorted(p for r in roots for p in glob.glob(str(r / "*openblas*")))


def blas_threads() -> dict:
    """Effective thread count of every loaded OpenBLAS build.

    NumPy ships ``libscipy_openblas64_`` (symbol suffix ``64_``) and
    SciPy ``libscipy_openblas``; each has its own thread pool.
    """
    out = {}
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = {"symbol": sym, "threads": fn()}
                break
    return out


def host_block(seed: int, start_method: str) -> dict:
    """Context of a result; printed with it and never compared."""
    import numpy
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "start_method": start_method,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": blas_threads(),
    }
