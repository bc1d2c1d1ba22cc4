"""Per-process OpenBLAS thread control through ``ctypes``.

The process backend relies on one invariant of tiled factorizations
(PLASMA, Buttari et al.): one single-threaded BLAS per core, with all
parallelism coming from the task DAG.  Environment variables such as
``OPENBLAS_NUM_THREADS`` are read only when OpenBLAS loads, so they
cannot pin a forked child, which inherits its parent's
already-initialized library.  This module instead calls each loaded
OpenBLAS build's own ``set_num_threads`` / ``get_num_threads``.

NumPy and SciPy wheels each ship a separate build with its own thread
pool — ``libscipy_openblas64_`` (symbol suffix ``64_``) and
``libscipy_openblas`` — so every build found in the process is handled.
Nothing here raises: a missing library or symbol just means that build
is skipped (or absent from the report).
"""

from __future__ import annotations

import ctypes
import glob
import os

__all__ = ["blas_threads", "openblas_builds", "openblas_libraries",
           "pin_blas_threads"]

#: symbol prefixes, most specific first: the ``scipy_`` builds rename
#: OpenBLAS's exports; plain builds keep ``openblas_``
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS builds loaded into this process.

    Read from ``/proc/self/maps``; where that is unavailable, the
    ``numpy.libs`` / ``scipy.libs`` wheel directories are globbed
    instead (loading such a path by ``ctypes`` reuses the instance the
    extension modules already mapped).
    """
    try:
        with open("/proc/self/maps") as fh:
            found = {parts[-1] for parts in map(str.split, fh)
                     if len(parts) >= 6
                     and "openblas" in os.path.basename(parts[-1])}
        if found:
            return sorted(found)
    except OSError:
        pass
    roots = []
    for mod in ("numpy", "scipy"):
        try:
            pkg = __import__(mod)
        except ImportError:
            continue
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        roots.append(os.path.join(site, f"{mod}.libs"))
    return sorted(p for r in roots
                  for p in glob.glob(os.path.join(r, "*openblas*")))


def _symbol(lib, verb: str):
    """The first ``<prefix>_<verb>_num_threads<suffix>`` ``lib`` exports."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def openblas_builds() -> list[tuple[str, ctypes.CDLL]]:
    """``(file name, CDLL)`` of every loaded build ctypes can open.

    Finding them reads ``/proc/self/maps`` (~1 ms); a caller that
    probes repeatedly keeps this list and passes it back.
    """
    out = []
    for path in openblas_libraries():
        try:
            out.append((os.path.basename(path), ctypes.CDLL(path)))
        except OSError:
            continue
    return out


def blas_threads(builds=None) -> dict[str, int]:
    """Effective thread count of each loaded OpenBLAS build, by file
    name (empty when none is loaded or none exports a getter)."""
    out = {}
    for name, lib in openblas_builds() if builds is None else builds:
        fn = _symbol(lib, "get")
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            out[name] = int(fn())
    return out


def pin_blas_threads(n: int = 1, builds=None) -> dict[str, int]:
    """Set every loaded OpenBLAS build to ``n`` threads; return the
    effective counts afterwards (see :func:`blas_threads`)."""
    builds = openblas_builds() if builds is None else builds
    for _, lib in builds:
        fn = _symbol(lib, "set")
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(int(n))
    return blas_threads(builds)
