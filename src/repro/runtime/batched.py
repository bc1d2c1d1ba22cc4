"""Batched level-synchronous execution backend (S20).

The task executors in :mod:`repro.runtime.executor` retire one tile
task at a time through Python, which caps real factorization speed far
below the hardware (Python overhead per small-tile kernel dominates).
This backend exploits the same structural fact the paper builds on: at
any Kahn level of the DAG, all tasks of one kernel type are mutually
independent.  It therefore

1. groups the DAG's tasks into ``(level, kernel)`` batches (cached on
   the :class:`~repro.planner.Plan` via ``Plan.level_groups()``),
2. gathers the operand tiles of each group from a contiguous
   :class:`~repro.tiles.pool.TilePool` into ``(batch, nb, nb)`` stacks
   (ragged border tiles zero-padded — exact, see the pool docs), and
3. executes each group as one sequence of stacked 3-D operations using
   the kernels in :mod:`repro.kernels.batched`.

Within a level, groups run in kernel-enum order; any order is correct
because same-level tasks never write the same tile region (write-write
or read-write pairs on a tile are always DAG-ordered; the V=NODEP
triangle sharing of the TT kernels touches disjoint triangles).

Numerical contract: each task's result agrees with the reference
backend to rounding (``~1e-12 * ||A||`` for the reconstructed
``Q @ R``); bitwise identity is *not* guaranteed because batched
reductions may associate differently.

Each factor group files its ``T`` blocks into one slot-indexed T store
(:func:`repro.runtime.groups.tstore_shape`, addressed by
``DispatchArrays.fslot``), which the apply groups read by source slot.
The returned :class:`~repro.runtime.executor.ExecutionContext` keeps
that store, and ``apply_q`` / ``apply_q_right`` replay ``Q`` from it
one factor group at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.backend import get_backend
from ..kernels.batched import (
    factor_stacked_batched,
    factor_stacked_lapack_pool,
    geqrt_batched,
    geqrt_lapack_pool,
    lapack_batched_supported,
)
from ..kernels.costs import Kernel
from ..kernels.stacked import ts_support, tt_support
from ..obs.metrics import MetricsRegistry
from ..tiles.layout import TiledMatrix
from ..tiles.pool import TilePool
from .executor import ExecutionContext, _clamp_ib
from .groups import (
    DispatchArrays,
    apply_group_pool,
    dispatch_arrays,
    store_tfactors,
    stored_tfactor,
    tstore_shape,
)

__all__ = ["KernelGroup", "level_kernel_groups", "execute_batched"]

_KERNEL_TO_CODE = {k: c for c, k in enumerate(KERNEL_CODES)}

#: group-size histogram buckets (powers of two)
_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class KernelGroup:
    """All tasks of one kernel type at one Kahn level of the DAG.

    The coordinate arrays are aligned with :attr:`tids` (``pivs`` /
    ``js`` use ``-1`` where the kernel has no such coordinate), so the
    executor never touches the Python :class:`~repro.dag.tasks.Task`
    objects on its hot path.
    """

    level: int
    kernel: Kernel
    tids: np.ndarray
    rows: np.ndarray
    pivs: np.ndarray
    cols: np.ndarray
    js: np.ndarray

    def __len__(self) -> int:
        return int(self.tids.size)


def level_kernel_groups(graph) -> list[KernelGroup]:
    """Group a graph's tasks by (Kahn level, kernel type).

    Levels come from the :class:`~repro.dag.index.GraphIndex` (built
    once per graph and shared with the simulators); all tasks of one
    group are mutually independent by construction.  Prefer the
    memoized ``Plan.level_groups()`` when a plan is available.
    """
    if isinstance(graph, TaskGraph):
        g = graph
    else:
        g = getattr(graph, "graph", None)
        if not isinstance(g, TaskGraph):
            raise TypeError(
                f"expected a TaskGraph or a Plan, got {type(graph).__name__}")
    idx = g.index()
    tasks = g.tasks
    n = len(tasks)
    codes = np.fromiter((_KERNEL_TO_CODE[t.kernel] for t in tasks),
                        dtype=np.int8, count=n)
    rows = np.fromiter((t.row for t in tasks), dtype=np.int64, count=n)
    pivs = np.fromiter((-1 if t.piv is None else t.piv for t in tasks),
                       dtype=np.int64, count=n)
    cols = np.fromiter((t.col for t in tasks), dtype=np.int64, count=n)
    js = np.fromiter((-1 if t.j is None else t.j for t in tasks),
                     dtype=np.int64, count=n)
    groups: list[KernelGroup] = []
    order, lp = idx.order, idx.level_ptr
    for lvl in range(len(lp) - 1):
        seg = order[lp[lvl]:lp[lvl + 1]]
        seg_codes = codes[seg]
        for code, kern in enumerate(KERNEL_CODES):
            tids = seg[seg_codes == code]
            if tids.size:
                groups.append(KernelGroup(
                    level=lvl, kernel=kern, tids=tids, rows=rows[tids],
                    pivs=pivs[tids], cols=cols[tids], js=js[tids]))
    return groups


class _GroupTask:
    """Duck-typed :class:`~repro.dag.tasks.Task` stand-in so the tracer
    records one span per executed (level, kernel) group."""

    __slots__ = ("tid", "kernel", "row", "piv", "col", "j", "_label")

    def __init__(self, grp: KernelGroup):
        self.tid = int(grp.tids[0])
        self.kernel = grp.kernel
        self.row = int(grp.rows[0])
        self.piv = int(grp.pivs[0]) if grp.pivs[0] >= 0 else None
        self.col = int(grp.cols[0])
        self.j = int(grp.js[0]) if grp.js[0] >= 0 else None
        self._label = f"{grp.kernel.value}[x{len(grp)}]@L{grp.level}"

    def __str__(self) -> str:
        return self._label


def _run_group(grp: KernelGroup, pool: TilePool, tstore: np.ndarray,
               da: DispatchArrays, ib: int, use_lapack: bool = False) -> None:
    """Execute one (level, kernel) group against the pool.

    Factor groups file their T blocks into ``tstore`` under the tasks'
    ``da.fslot``; apply groups read them back by ``da.src``.  With
    ``use_lapack`` the three factor kernels run as per-slice LAPACK
    calls (same results to rounding — see
    :mod:`repro.kernels.batched`); the update kernels always use the
    stacked NumPy path, which is already BLAS-bound.
    """
    kern = grp.kernel
    if kern is Kernel.GEQRT:
        slots = pool.slot(grp.rows, grp.cols)
        if use_lapack:  # per-slice loop: factor in place, skip take/put
            bt = geqrt_lapack_pool(pool.stack, slots, ib)
        else:
            a = pool.take(slots)
            bt = geqrt_batched(a, ib)
            pool.put(slots, a)
        store_tfactors(tstore, da.fslot[grp.tids], bt)
    elif kern in (Kernel.TSQRT, Kernel.TTQRT):
        support = ts_support if kern is Kernel.TSQRT else tt_support
        rslots = pool.slot(grp.pivs, grp.cols)
        bslots = pool.slot(grp.rows, grp.cols)
        if use_lapack:  # per-slice loop: factor in place, skip take/put
            bt = factor_stacked_lapack_pool(
                pool.stack, rslots, bslots, ib,
                triangular=kern is Kernel.TTQRT)
        else:
            r = pool.take(rslots)
            b = pool.take(bslots)
            bt = factor_stacked_batched(r, b, ib, support)
            pool.put(rslots, r)
            pool.put(bslots, b)
        store_tfactors(tstore, da.fslot[grp.tids], bt)
    elif kern in (Kernel.UNMQR, Kernel.TSMQR, Kernel.TTMQR):
        srcs = da.src[grp.tids]
        apply_group_pool(
            pool.stack, _KERNEL_TO_CODE[kern], pool.slot(grp.rows, grp.cols),
            None if kern is Kernel.UNMQR else pool.slot(grp.pivs, grp.js),
            pool.slot(grp.rows, grp.js),
            lambda b: stored_tfactor(tstore, slice(srcs[b], srcs[b] + 1),
                                     pool.nb))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown kernel {kern}")


def execute_batched(
    graph,
    tiled: TiledMatrix,
    ib: int = 32,
    numeric: str = "auto",
    on_task_done=None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    collect_metrics: bool = False,
    bus=None,
) -> ExecutionContext:
    """Run a factorization DAG with the batched backend.

    Usually reached via ``execute_graph(..., mode="batched")`` or
    ``repro.api.factor(..., mode="batched")``; see the module docstring
    for semantics.  ``graph`` may be a
    :class:`~repro.dag.tasks.TaskGraph` or a
    :class:`~repro.planner.Plan` (whose cached level groups are
    reused).  The ``backend`` selection of the task executors does not
    apply here; instead ``numeric`` picks the factor-kernel
    implementation:

    - ``"numpy"`` — stacked NumPy kernels throughout;
    - ``"lapack"`` — per-slice LAPACK ``?geqrt``/``?tpqrt`` for the
      factor kernels (real dtypes only; raises ``ValueError``
      otherwise), stacked NumPy applies;
    - ``"auto"`` (default) — ``"lapack"`` when supported for the
      matrix dtype, else ``"numpy"``.

    ``bus`` (an :class:`~repro.obs.stream.EventBus` or ``None``)
    receives streaming telemetry: ``run_start``/``run_done``,
    ``level_start`` at each Kahn-level barrier, and
    ``group_start``/``group_done`` per dispatched (level, kernel)
    batch — ``count`` is the batch size, ``value`` the group seconds.
    """
    plan_obj = None
    if isinstance(graph, TaskGraph):
        g = graph
    else:
        g = getattr(graph, "graph", None)
        if not isinstance(g, TaskGraph):
            raise TypeError(
                f"expected a TaskGraph or a Plan, got {type(graph).__name__}")
        plan_obj = graph
    if numeric not in ("auto", "numpy", "lapack"):
        raise ValueError(
            f"numeric must be 'auto', 'numpy' or 'lapack', got {numeric!r}")
    if numeric == "lapack" and not lapack_batched_supported(tiled.array.dtype):
        raise ValueError(
            f"numeric='lapack' does not support dtype {tiled.array.dtype}")
    use_lapack = (numeric == "lapack"
                  or (numeric == "auto"
                      and lapack_batched_supported(tiled.array.dtype)))
    if tracer is not None and not tracer.enabled:
        tracer = None
    if bus is not None and not getattr(bus, "enabled", True):
        bus = None
    if metrics is None and collect_metrics:
        metrics = MetricsRegistry()
    ib = _clamp_ib(ib, tiled.nb, metrics)
    observed = tracer is not None or metrics is not None
    timed = observed or bus is not None
    ntasks = len(g.tasks)
    if metrics is not None:
        metrics.counter("scheduler.tasks_total").inc(ntasks)
        metrics.gauge("scheduler.workers", keep_samples=False).set(1)
        metrics.counter(
            "batched.numeric." + ("lapack" if use_lapack else "numpy")).inc()
    if ntasks == 0:
        return ExecutionContext(tiled=tiled, graph=g,
                                backend=get_backend("reference"), ib=ib,
                                tracer=tracer, metrics=metrics)

    if plan_obj is not None and hasattr(plan_obj, "level_groups"):
        groups = plan_obj.level_groups()
        da = plan_obj.dispatch_arrays()
    else:
        groups = level_kernel_groups(g)
        da = dispatch_arrays(g)

    pool = TilePool(tiled)
    tstore = np.zeros(tstore_shape(da.nfactor, tiled.nb, ib),
                      dtype=tiled.array.dtype)
    done_count = 0
    if bus is not None:
        bus.publish("run_start", total=ntasks, count=1,
                    problem=getattr(g, "problem", "") or "")
    cur_level = -1
    for grp in groups:
        if bus is not None:
            if grp.level != cur_level:
                cur_level = grp.level
                bus.publish("level_start", level=cur_level)
            bus.publish("group_start", kernel=grp.kernel.value,
                        level=grp.level, count=len(grp), worker=0)
        if timed:
            t0 = time.perf_counter()
        _run_group(grp, pool, tstore, da, ib, use_lapack)
        if timed:
            t1 = time.perf_counter()
        if bus is not None:
            bus.publish("group_done", kernel=grp.kernel.value,
                        level=grp.level, count=len(grp), worker=0,
                        value=t1 - t0)
        if observed:
            if tracer is not None:
                rel = t0 - tracer.epoch
                tracer.record(_GroupTask(grp), rel, rel,
                              t1 - tracer.epoch, count=len(grp))
            if metrics is not None:
                name = grp.kernel.value
                metrics.counter(f"tasks.retired.{name}").inc(len(grp))
                metrics.histogram(f"kernel.seconds.{name}").observe(t1 - t0)
                metrics.counter("batched.groups").inc()
                metrics.histogram("batched.group_size",
                                  buckets=_SIZE_BUCKETS).observe(len(grp))
        if on_task_done is not None:
            for tid in grp.tids.tolist():
                done_count += 1
                on_task_done(g.tasks[tid], done_count, ntasks)
        else:
            done_count += len(grp)
    if metrics is not None and groups:
        metrics.counter("batched.levels").inc(groups[-1].level + 1)
    pool.scatter()
    if bus is not None:
        bus.publish("run_done", count=done_count, value=bus.now())
    return ExecutionContext(tiled=tiled, graph=g,
                            backend=get_backend("reference"), ib=ib,
                            tracer=tracer, metrics=metrics, tstore=tstore,
                            plan=plan_obj)
