"""Task-graph executors: sequential and threaded dataflow (S12).

Given a :class:`~repro.dag.tasks.TaskGraph` and a
:class:`~repro.tiles.layout.TiledMatrix`, the executors run the actual
numeric kernels.  Two modes:

* **sequential** — tasks in emission (topological) order; the baseline
  and reference for correctness.
* **threaded** — a dynamic dataflow scheduler on a thread pool: a task
  becomes ready the moment its last dependency retires, mirroring
  PLASMA's runtime.  Ready tasks are popped from a heap ordered by
  *descending bottom-level* (critical-path priority, from the Plan's
  memoized ``bottom_levels``; FIFO when no Plan is supplied), so
  critical-path work is never starved by ready filler tasks.
  NumPy/LAPACK kernels release the GIL inside BLAS, so genuine
  parallelism is possible, though Python-level scheduling overhead
  limits scaling for small tiles (this is the documented substitution
  for the paper's 48-core C runtime; see DESIGN.md §2).

A third mode lives in :mod:`repro.runtime.batched` and is reached via
``execute_graph(..., mode="batched")``: level-synchronous batched
execution of stacked tile groups (the fast path for real
factorizations; see that module and docs/performance.md).

The executor owns the side table of ``T`` factors produced by the
factor kernels and consumed by the update kernels; it is returned as an
:class:`ExecutionContext` so the Q factor can later be applied to
arbitrary right-hand sides by replaying the factor groups of the level
grouping (:meth:`ExecutionContext.apply_q`).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

import numpy as np

from ..dag.tasks import Task, TaskGraph
from ..kernels.backend import KernelBackend, get_backend
from ..kernels.costs import Kernel
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..tiles.layout import TiledMatrix
from .options import ExecOptions

__all__ = ["ExecutionContext", "ExecOptions", "execute_graph"]

logger = logging.getLogger(__name__)


def _clamp_ib(ib: int, nb: int, metrics: MetricsRegistry | None) -> int:
    """Clamp the inner blocking size to the tile size, once, at entry.

    ``ib=32`` silently exceeding a small ``nb`` used to be absorbed by
    each kernel's internal ``min`` — correct, but invisible.  Clamp
    here and say so.  Non-positive ``ib`` is passed through untouched
    so kernel-level validation still fires.
    """
    if ib > nb:
        logger.warning("ib=%d exceeds tile size nb=%d; clamped to %d",
                       ib, nb, nb)
        if metrics is not None:
            metrics.counter("executor.ib_clamped").inc()
        return nb
    return ib

#: which T-factor slot each kernel reads/writes
_KIND = {
    Kernel.GEQRT: "ge", Kernel.UNMQR: "ge",
    Kernel.TSQRT: "ts", Kernel.TSMQR: "ts",
    Kernel.TTQRT: "tt", Kernel.TTMQR: "tt",
}

_FACTOR_KERNELS = (Kernel.GEQRT, Kernel.TSQRT, Kernel.TTQRT)

#: update kernels eligible for *stacked* execution when the threaded
#: scheduler claims a micro-batch (factor kernels batch too, but run
#: per-task inside the claim — stacked factor reductions associate
#: differently and would break numpy-path bit-exactness)
_APPLY_KERNELS = (Kernel.UNMQR, Kernel.TSMQR, Kernel.TTMQR)


def _run_apply_group(ctx: "ExecutionContext", tasks_: list[Task]) -> bool:
    """Execute a same-kernel apply micro-batch as stacked operations.

    Returns ``False`` (caller loops ``run_task``) unless every tile
    involved is a full ``nb x nb`` view — ragged edge tiles cannot
    stack — and the context runs the reference backend (whose
    per-tile applies the stacked kernels reproduce bitwise; the
    LAPACK backend's applies are different routines, so grouping them
    stacked would silently change which numerics ran).  Same V-run
    decomposition as the batched/process backends
    (:func:`repro.runtime.groups.v_runs`): tiles sharing one source
    V/T are one broadcast batched apply.
    """
    from ..kernels.batched import apply_stacked_batched, unmqr_batched
    from ..kernels.stacked import ts_support, tt_support
    from .groups import broadcast_tfactor, v_runs

    tiled = ctx.tiled
    nb = tiled.nb
    kern = tasks_[0].kernel
    for t in tasks_:
        if (tiled.row_height(t.row) != nb or tiled.col_width(t.col) != nb
                or tiled.col_width(t.j) != nb):
            return False
        if t.piv is not None and tiled.row_height(t.piv) != nb:
            return False
    kind = _KIND[kern]
    ib = ctx.ib
    tf = ctx.tfactors
    vkeys = np.fromiter((t.row * tiled.q + t.col for t in tasks_),
                        dtype=np.int64, count=len(tasks_))
    ckeys = np.fromiter((t.row * tiled.q + t.j for t in tasks_),
                        dtype=np.int64, count=len(tasks_))
    order, bounds = v_runs(vkeys, ckeys)
    ordered = [tasks_[int(i)] for i in order]
    if kern is Kernel.UNMQR:
        c = np.stack([tiled.tile(t.row, t.j) for t in ordered])
        for u0, u1 in zip(bounds[:-1], bounds[1:]):
            lead = ordered[u0]
            bt = broadcast_tfactor(
                tf[(lead.row, lead.col, "ge")].blocks, ib)
            unmqr_batched(tiled.tile(lead.row, lead.col)[None], bt,
                          c[u0:u1])
        for i, t in enumerate(ordered):
            tiled.tile(t.row, t.j)[:] = c[i]
        return True
    support = tt_support if kern is Kernel.TTMQR else ts_support
    c_top = np.stack([tiled.tile(t.piv, t.j) for t in ordered])
    c_bot = np.stack([tiled.tile(t.row, t.j) for t in ordered])
    for u0, u1 in zip(bounds[:-1], bounds[1:]):
        lead = ordered[u0]
        bt = broadcast_tfactor(tf[(lead.row, lead.col, kind)].blocks, ib)
        apply_stacked_batched(tiled.tile(lead.row, lead.col)[None], bt,
                              c_top[u0:u1], c_bot[u0:u1], support,
                              mask=kern is Kernel.TTMQR)
    for i, t in enumerate(ordered):
        tiled.tile(t.piv, t.j)[:] = c_top[i]
        tiled.tile(t.row, t.j)[:] = c_bot[i]
    return True


class ExecutionContext:
    """State of an executed factorization: tiles, T factors, task order.

    The ``T`` factors live in one slot-indexed T store
    (:func:`repro.runtime.groups.tstore_shape`, slot
    ``DispatchArrays.fslot`` of each factor task), which
    :meth:`apply_q` reads.  The batched and process backends hand the
    store over directly; the task executors fill :attr:`tfactors`
    and the store is built from it on first use.  :attr:`tfactors`
    is the per-task view keyed ``(row, col, kind)``, sliced to each
    tile's valid reflectors; a context created from a store builds it
    only when it is read.

    When the run was observed, :attr:`tracer` holds the span capture
    and :attr:`metrics` the registry the executor wrote into; both are
    ``None`` for unobserved runs.  ``plan`` (optional) is the
    :class:`~repro.planner.Plan` of ``graph``, whose memoized level
    groups and dispatch arrays the replay reuses.
    """

    def __init__(self, tiled: TiledMatrix, graph: TaskGraph,
                 backend: KernelBackend, ib: int,
                 tfactors: Optional[dict] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tstore: Optional[np.ndarray] = None, plan=None):
        self.tiled = tiled
        self.graph = graph
        self.backend = backend
        self.ib = ib
        self.tracer = tracer
        self.metrics = metrics
        if tfactors is None and tstore is None:
            tfactors = {}
        self._tfactors = tfactors
        self._tstore = tstore
        self._plan = plan

    # ------------------------------------------------------------------
    @property
    def tfactors(self) -> dict[tuple[int, int, str], Any]:
        """Per-task T factors keyed ``(row, col, kind)``.

        :class:`~repro.kernels.geqrt.TFactor` on the reference backend,
        :class:`~repro.kernels.lapack.LapackT` on the LAPACK backend —
        what the per-tile kernels of :attr:`backend` consume.
        """
        if self._tfactors is None:
            self._tfactors = self._tfactors_from_store()
        return self._tfactors

    @property
    def tstore(self) -> np.ndarray:
        """The ``(nfactor, npanels, ib, ib)`` T store (built on first use)."""
        if self._tstore is None:
            self._tstore = self._store_from_tfactors()
        return self._tstore

    def _planned(self):
        """A plan of :attr:`graph` memoizing the level groups and
        dispatch arrays the store and the replay index."""
        if not (hasattr(self._plan, "level_groups")
                and hasattr(self._plan, "dispatch_arrays")):
            from ..planner import Plan
            self._plan = Plan(self.tiled.p, self.tiled.q, None, None, None,
                              self.graph)
        return self._plan

    def _factor_tasks(self):
        """``(slot, row, col, kind, k)`` of every factor task, with ``k``
        the tile's valid reflector count."""
        da = self._planned().dispatch_arrays()
        tiled = self.tiled
        for tid in np.flatnonzero(da.fslot >= 0).tolist():
            row, col = int(da.rows[tid]), int(da.cols[tid])
            kind = _KIND[self.graph.tasks[tid].kernel]
            if kind == "ge":
                k = min(tiled.row_height(row), tiled.col_width(col))
            else:  # stacked kernels: one reflector per (valid) column
                k = tiled.col_width(col)
            yield int(da.fslot[tid]), row, col, kind, k

    def _store_from_tfactors(self) -> np.ndarray:
        from ..kernels.geqrt import panel_starts
        from ..kernels.lapack import LapackT
        from .groups import tstore_shape
        tiled, tf = self.tiled, self._tfactors
        da = self._planned().dispatch_arrays()
        store = np.zeros(tstore_shape(da.nfactor, tiled.nb, self.ib),
                         dtype=tiled.array.dtype)
        for s, row, col, kind, _ in self._factor_tasks():
            t = tf[(row, col, kind)]
            if isinstance(t, LapackT):
                blocks = [t.t[:jb, j0:j0 + jb]
                          for j0, jb in panel_starts(t.t.shape[1], t.ib)]
            else:
                blocks = t.blocks
            for pi, blk in enumerate(blocks):
                store[s, pi, :blk.shape[0], :blk.shape[1]] = blk
        return store

    def _tfactors_from_store(self) -> dict:
        from ..kernels.geqrt import TFactor, panel_starts
        from ..kernels.lapack import LapackT
        store, ib = self._tstore, self.ib
        lapack = self.backend.name == "lapack"
        tf: dict = {}
        for s, row, col, kind, k in self._factor_tasks():
            if lapack:
                # reflectors past k have tau = 0: the leading
                # (min(ib, k), k) corner is the T of the valid ones
                ibk = max(1, min(ib, k))
                t = np.zeros((ibk, k), dtype=store.dtype)
                for pi, (j0, jb) in enumerate(panel_starts(k, ibk)):
                    t[:jb, j0:j0 + jb] = store[s, pi, :jb, :jb]
                l = (min(self.tiled.row_height(row), self.tiled.col_width(col))
                     if kind == "tt" else 0)
                tf[(row, col, kind)] = LapackT(t, ibk, l)
            else:
                tf[(row, col, kind)] = TFactor(
                    blocks=[store[s, pi, :jb, :jb]
                            for pi, (_, jb) in enumerate(panel_starts(k, ib))],
                    ib=ib)
        return tf

    # ------------------------------------------------------------------
    def run_task(self, t: Task) -> None:
        """Execute one kernel task against the tile views."""
        bk, tiles, tf = self.backend, self.tiled, self.tfactors
        if t.kernel is Kernel.GEQRT:
            tf[(t.row, t.col, "ge")] = bk.geqrt(tiles.tile(t.row, t.col), self.ib)
        elif t.kernel is Kernel.UNMQR:
            bk.unmqr(tiles.tile(t.row, t.col), tf[(t.row, t.col, "ge")],
                     tiles.tile(t.row, t.j))
        elif t.kernel is Kernel.TSQRT:
            tf[(t.row, t.col, "ts")] = bk.tsqrt(
                tiles.tile(t.piv, t.col), tiles.tile(t.row, t.col), self.ib)
        elif t.kernel is Kernel.TSMQR:
            bk.tsmqr(tiles.tile(t.row, t.col), tf[(t.row, t.col, "ts")],
                     tiles.tile(t.piv, t.j), tiles.tile(t.row, t.j))
        elif t.kernel is Kernel.TTQRT:
            tf[(t.row, t.col, "tt")] = bk.ttqrt(
                tiles.tile(t.piv, t.col), tiles.tile(t.row, t.col), self.ib)
        elif t.kernel is Kernel.TTMQR:
            bk.ttmqr(tiles.tile(t.row, t.col), tf[(t.row, t.col, "tt")],
                     tiles.tile(t.piv, t.j), tiles.tile(t.row, t.j))
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown kernel {t.kernel}")

    # ------------------------------------------------------------------
    def apply_q_right(self, c: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply ``Q`` (or ``Q^H``) of the factorization to ``c`` from
        the right, in place.

        ``c`` must have ``m`` columns.  ``C op(Q) = (op(Q)^H C^H)^H``,
        so this is :meth:`apply_q` on the conjugate transpose.
        """
        if c.shape[1] != self.tiled.m:
            raise ValueError(
                f"c has {c.shape[1]} columns, factorization has {self.tiled.m}")
        ch = np.ascontiguousarray(c.conj().T)
        self.apply_q(ch, adjoint=not adjoint)
        c[...] = ch.conj().T
        return c

    def apply_q(self, c: np.ndarray, adjoint: bool = True) -> np.ndarray:
        """Apply ``Q`` or ``Q^H`` of the factorization to ``c`` in place.

        ``c`` must have ``m`` rows (padded rows included if the
        factorization padded).  The factor groups of the level
        grouping are replayed as stacked applies — in level order for
        ``Q^H`` (the factorization direction), in reverse with
        un-adjointed reflectors for ``Q``.  Any linearization of the
        DAG yields the same product, because transformations touching
        a common row block are DAG-ordered, so same-level tasks act on
        disjoint row blocks.  Each group gathers its V tiles and its
        ``T`` from the store by slot and updates ``c`` viewed as
        ``(p, nb, k)`` row blocks; ragged edges are zero-padded, which
        is exact.
        """
        from ..kernels.batched import apply_stacked_batched, unmqr_batched
        from ..kernels.stacked import ts_support, tt_support
        from .groups import stored_tfactor

        tiled = self.tiled
        if c.shape[0] != tiled.m:
            raise ValueError(
                f"c has {c.shape[0]} rows, factorization has {tiled.m}")
        nb, p, q = tiled.nb, tiled.p, tiled.q
        c2 = c.reshape(c.shape[0], -1)
        k = c2.shape[1]
        padded = p * nb != tiled.m or not c2.flags.c_contiguous
        if padded:
            buf = np.zeros((p * nb, k), dtype=c.dtype)
            buf[: tiled.m] = c2
        else:
            buf = c2
        cb = buf.reshape(p, nb, k)
        a = tiled.array
        if a.shape != (p * nb, q * nb) or not a.flags.c_contiguous:
            a = np.zeros((p * nb, q * nb), dtype=a.dtype)
            a[: tiled.m, : tiled.n] = tiled.array
        vt = a.reshape(p, nb, q, nb)
        store = self.tstore
        plan = self._planned()
        fslot = plan.dispatch_arrays().fslot
        groups = [g for g in plan.level_groups()
                  if g.kernel in _FACTOR_KERNELS]
        for g in (groups if adjoint else reversed(groups)):
            rows, pivs, kern = g.rows, g.pivs, g.kernel
            v = vt[rows, :, g.cols, :]
            t = stored_tfactor(store, fslot[g.tids], nb)
            bot = cb[rows]
            if kern is Kernel.GEQRT:
                unmqr_batched(v, t, bot, adjoint=adjoint)
            else:
                top = cb[pivs]
                tt = kern is Kernel.TTQRT
                apply_stacked_batched(v, t, top, bot,
                                      tt_support if tt else ts_support,
                                      adjoint=adjoint, mask=tt)
                cb[pivs] = top
            cb[rows] = bot
        if padded:
            c2[...] = buf[: tiled.m]
        return c


def execute_graph(
    graph,
    tiled: TiledMatrix,
    backend: str | KernelBackend = "reference",
    ib: int = 32,
    workers: int | None = None,
    mode: str = "task",
    numeric: str = "auto",
    start_method: str | None = None,
    pool=None,
    batch="auto",
    on_task_done=None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    collect_metrics: bool = False,
    bus=None,
    options: ExecOptions | None = None,
) -> ExecutionContext:
    """Run every kernel of ``graph`` against ``tiled``.

    Parameters
    ----------
    graph : TaskGraph or Plan
        The factorization DAG (from :func:`repro.dag.build_dag`), or a
        :class:`~repro.planner.Plan` wrapping one (from
        :func:`repro.api.plan`).  Passing the Plan is preferred: the
        batched mode reuses its cached level groups and the threaded
        scheduler its memoized bottom-levels.
    tiled : TiledMatrix
        Tile views over the working array (mutated in place).
    backend : str or KernelBackend
        ``"reference"`` or ``"lapack"``.  Ignored by
        ``mode="batched"``, which always runs its own stacked NumPy
        kernels.
    ib : int
        Inner blocking size for the kernels.  Clamped to ``tiled.nb``
        at entry (with a log warning and an ``executor.ib_clamped``
        metrics counter) — ``ib > nb`` is meaningless and used to be
        silently absorbed by each kernel.
    workers : int or None
        ``None`` or ``1`` runs sequentially; otherwise a threaded
        dataflow scheduler with that many workers.  Ignored by
        ``mode="batched"`` (level-synchronous, single-threaded
        orchestration over multi-threaded BLAS).
    mode : str
        ``"task"`` (default) retires one task at a time (sequential or
        threaded per ``workers``); ``"batched"`` delegates to
        :func:`repro.runtime.batched.execute_batched`, which executes
        each (level, kernel) group of independent tasks as stacked 3-D
        operations — typically much faster for real factorizations;
        ``"process"`` delegates to
        :func:`repro.runtime.procpool.execute_process`, which runs the
        kernels on ``workers`` worker *processes* over a shared-memory
        tile pool with a rolling ready-frontier (no level barrier).
    numeric : str
        Factor-kernel implementation for ``mode="batched"`` and
        ``mode="process"`` (ignored otherwise): ``"numpy"``,
        ``"lapack"``, or ``"auto"`` (LAPACK when the dtype supports
        it).  See :func:`repro.runtime.batched.execute_batched`.
    start_method : str or None
        ``mode="process"`` only: the :mod:`multiprocessing` start
        method (``"fork"``, ``"spawn"``, ``"forkserver"``; ``None``
        picks ``fork`` where available).
    pool : repro.runtime.procpool.ProcessPool or None
        ``mode="process"`` only: reuse a persistent worker pool
        instead of starting (and stopping) an ephemeral one — this is
        how repeated factorizations amortize worker start-up.
    batch : int or str
        Micro-batch dispatch (``mode="process"`` and the threaded
        ``mode="task"`` scheduler): ``"auto"`` (default) sizes groups
        from the frontier width, the worker count and the estimated
        task cost, an int >= 2 fixes the group size,
        ``"off"`` (or ``1``) dispatches single tasks.  Compatible
        (same-kernel) ready tasks execute as one stacked group —
        bit-exact with single-task dispatch on the numpy path.  See
        :func:`repro.runtime.groups.resolve_batch`.
    on_task_done : callable or None
        Optional observer ``(task, done_count, total) -> None`` invoked
        after each kernel retires (progress bars, logging).  In
        threaded mode it is called from worker threads, serialized
        under the scheduler lock; keep it fast.  An exception raised by
        the observer aborts the run and re-raises in the caller — it
        cannot deadlock the scheduler.  For tracing prefer ``tracer=``,
        which also records timestamps and placement.
    tracer : Tracer or None
        Span tracer recording one :class:`~repro.obs.tracer.Span` per
        task (submit/start/finish wall-times, worker thread).  ``None``
        or a disabled tracer (:data:`~repro.obs.tracer.NULL_TRACER`)
        keeps the hot path free of any per-task tracing work.
    metrics : MetricsRegistry or None
        Registry receiving per-kernel retirement counters and
        wall-time histograms plus scheduler-health series (in-flight
        task depth, time spent waiting on / holding the scheduler
        lock — a direct measure of Python overhead).
    collect_metrics : bool
        Convenience: create a fresh registry when ``metrics`` is not
        given.  The registry used is returned on the context's
        ``metrics`` attribute either way.
    bus : EventBus or None
        Live event bus (:class:`repro.obs.stream.EventBus`) receiving
        streaming telemetry while the run progresses: ``run_start`` /
        ``run_done``, per-task ``task_start`` / ``task_done`` (with
        worker index and kernel seconds), and ``frontier`` depth after
        each retirement.  ``None`` or a disabled bus
        (:data:`~repro.obs.stream.NULL_BUS`) skips all publishing on
        the hot path.
    options : ExecOptions or None
        Bundle of the execution knobs (``mode``, ``workers``,
        ``numeric``, ``start_method``, ``pool``) as one object — the
        preferred spelling for new call sites.  The individual
        keywords remain accepted; a keyword that *conflicts* with a
        non-default value in the bundle raises rather than silently
        winning (see :meth:`ExecOptions.resolve`).

    Returns
    -------
    ExecutionContext
    """
    opts = ExecOptions.resolve(options, mode=mode, workers=workers,
                               numeric=numeric, start_method=start_method,
                               pool=pool, batch=batch)
    mode, workers, numeric = opts.mode, opts.workers, opts.numeric
    start_method, pool, batch = opts.start_method, opts.pool, opts.batch
    if mode == "process":
        from .procpool import execute_process
        return execute_process(graph, tiled, ib=ib, numeric=numeric,
                               workers=workers, start_method=start_method,
                               pool=pool, batch=batch,
                               on_task_done=on_task_done,
                               tracer=tracer, metrics=metrics,
                               collect_metrics=collect_metrics, bus=bus)
    if mode == "batched":
        from .batched import execute_batched
        return execute_batched(graph, tiled, ib=ib, numeric=numeric,
                               on_task_done=on_task_done, tracer=tracer,
                               metrics=metrics,
                               collect_metrics=collect_metrics, bus=bus)
    plan_obj = None
    if not isinstance(graph, TaskGraph):
        wrapped = getattr(graph, "graph", None)  # Plan-shaped object
        if not isinstance(wrapped, TaskGraph):
            raise TypeError(
                f"expected a TaskGraph or a Plan, got {type(graph).__name__}")
        plan_obj = graph
        graph = wrapped
    if tracer is not None and not tracer.enabled:
        tracer = None
    if bus is not None and not getattr(bus, "enabled", True):
        bus = None
    if metrics is None and collect_metrics:
        metrics = MetricsRegistry()
    ib = _clamp_ib(ib, tiled.nb, metrics)
    ctx = ExecutionContext(tiled=tiled, graph=graph,
                           backend=get_backend(backend), ib=ib,
                           tracer=tracer, metrics=metrics, plan=plan_obj)
    observed = tracer is not None or metrics is not None
    timed = observed or bus is not None
    if metrics is not None:
        metrics.counter("scheduler.tasks_total").inc(len(graph.tasks))
        metrics.gauge("scheduler.workers", keep_samples=False).set(
            1 if workers is None else max(1, workers))

    problem = getattr(graph, "problem", "") or ""

    if workers is None or workers <= 1:
        total = len(graph.tasks)
        if bus is not None:
            bus.publish("run_start", total=total, count=1, problem=problem)
        for i, t in enumerate(graph.tasks, start=1):
            if bus is not None:
                bus.publish("task_start", tid=t.tid,
                            kernel=t.kernel.value, worker=0)
            if timed:
                t0 = time.perf_counter()
            ctx.run_task(t)
            if timed:
                t1 = time.perf_counter()
                if observed:
                    _observe_task(t, t0, t1, tracer, metrics,
                                  submit=t0, worker=0)
            if bus is not None:
                bus.publish("task_done", tid=t.tid, kernel=t.kernel.value,
                            worker=0, value=t1 - t0)
            if on_task_done is not None:
                on_task_done(t, i, total)
        if bus is not None:
            bus.publish("run_done", count=total, value=bus.now())
        return ctx

    # Threaded dataflow scheduler with a priority ready-queue.  Ready
    # tasks sit in a heap keyed by descending bottom-level (when a Plan
    # supplied one) so the deepest remaining critical path is always
    # served first; the monotone push sequence breaks ties, which also
    # makes the no-priority case plain FIFO.
    n = len(graph.tasks)
    if n == 0:
        return ctx
    succ = graph.successors()
    indeg = [len(t.deps) for t in graph.tasks]
    prio = None
    if plan_obj is not None and hasattr(plan_obj, "bottom_levels"):
        prio = np.asarray(plan_obj.bottom_levels(), dtype=np.float64)
    # Micro-batching (same --batch option as the process backend): a
    # worker claims up to batch_size same-kernel ready tasks in one
    # lock acquisition and executes apply kernels stacked.
    if batch == "off":
        batch_size = 1
    else:
        from .groups import _CLAIM_SECONDS, resolve_batch
        batch_size = resolve_batch(batch, tiled.nb, graph.index(),
                                   workers=max(1, workers),
                                   descriptor_s=_CLAIM_SECONDS)
    stack_ok = ctx.backend.name == "reference"
    if metrics is not None:
        metrics.gauge("scheduler.batch.size", keep_samples=False).set(
            batch_size)
    lock = threading.Lock()
    done = threading.Event()
    remaining = [n]
    active = [0]  # worker loops currently alive
    seq = itertools.count()
    ready: list[tuple[float, int, int]] = []  # (-bottom_level, seq, tid)
    errors: list[BaseException] = []
    # Submit stamps are epoch-relative; the queue wait (start - submit)
    # is epoch-invariant, so a metrics-only run uses a local epoch while
    # a traced run shares the tracer's (keeping span submit times
    # consistent with spans recorded elsewhere).
    submit_ts = [0.0] * n if observed else None
    epoch = tracer.epoch if tracer is not None else time.perf_counter()
    W = max(1, workers)

    def push(tid: int) -> None:  # lock held
        if submit_ts is not None:
            submit_ts[tid] = time.perf_counter() - epoch
        key = -prio[tid] if prio is not None else 0.0
        heapq.heappush(ready, (key, next(seq), tid))

    def pop() -> int:  # lock held
        _, s, tid = heapq.heappop(ready)
        # A popped task younger than some queued task means FIFO would
        # have run the wrong (shallower) task first.  O(queue) scan,
        # paid only on observed runs.
        if metrics is not None and ready and min(
                e[1] for e in ready) < s:
            metrics.counter("scheduler.priority_inversions_avoided").inc()
        return tid

    with ThreadPoolExecutor(max_workers=W) as pool:

        def abort(exc: BaseException) -> None:
            with lock:
                errors.append(exc)
                active[0] -= 1
            done.set()

        def worker_loop() -> None:
            while True:
                with lock:
                    if errors or not ready:
                        active[0] -= 1
                        return
                    tid = pop()
                    claimed = [tid]
                    if batch_size > 1:
                        k0 = graph.tasks[tid].kernel
                        # leave at least one ready task per other
                        # worker — one claim must not drain the
                        # frontier the rest of the pool would run
                        limit = min(batch_size,
                                    1 + max(0, len(ready) - (W - 1)))
                        while (len(claimed) < limit and ready
                               and graph.tasks[ready[0][2]].kernel
                               is k0):
                            claimed.append(pop())
                tasks_ = [graph.tasks[t_] for t_ in claimed]
                k = len(tasks_)
                if bus is not None:
                    widx = bus.worker_index()
                    for task in tasks_:
                        bus.publish("task_start", tid=task.tid,
                                    kernel=task.kernel.value, worker=widx)
                if timed:
                    t0 = time.perf_counter()
                try:
                    if not (k > 1 and stack_ok
                            and tasks_[0].kernel in _APPLY_KERNELS
                            and _run_apply_group(ctx, tasks_)):
                        for task in tasks_:
                            ctx.run_task(task)
                except BaseException as exc:  # propagate to the caller
                    abort(exc)
                    return
                if timed:
                    t1 = time.perf_counter()
                    share = (t1 - t0) / k
                    if observed:
                        # stacked kernels leave no per-task boundaries:
                        # split the claim's window evenly, as the
                        # process backend does for its groups
                        for i, task in enumerate(tasks_):
                            _observe_task(task, t0 + i * share,
                                          t0 + (i + 1) * share, tracer,
                                          metrics, submit_ts=submit_ts,
                                          epoch=epoch)
                # retire: release successors, top the worker pool back up
                newly_ready = []
                if metrics is not None:
                    t_req = time.perf_counter()
                with lock:
                    if metrics is not None:
                        t_in = time.perf_counter()
                    done_base = n - remaining[0]
                    remaining[0] -= k
                    if on_task_done is not None:
                        try:
                            for i, task in enumerate(tasks_):
                                on_task_done(task, done_base + i + 1, n)
                        except BaseException as exc:
                            # An observer failure must not leave done
                            # unset (deadlock); abort like a kernel
                            # failure.
                            errors.append(exc)
                            active[0] -= 1
                            done.set()
                            return
                    if remaining[0] == 0:
                        done.set()
                    for task in tasks_:
                        for s_ in succ[task.tid]:
                            indeg[s_] -= 1
                            if indeg[s_] == 0:
                                newly_ready.append(s_)
                    for s_ in newly_ready:
                        push(s_)
                    spawn = min(W - active[0], len(ready))
                    active[0] += spawn
                    depth = active[0] + len(ready)
                    frontier = len(ready)
                if bus is not None:
                    for task in tasks_:
                        bus.publish("task_done", tid=task.tid,
                                    kernel=task.kernel.value,
                                    worker=widx, value=share)
                        bus.publish("frontier", value=float(frontier),
                                    count=depth)
                if metrics is not None:
                    t_out = time.perf_counter()
                    metrics.counter("scheduler.lock_wait_seconds").inc(
                        t_in - t_req)
                    metrics.counter("scheduler.lock_hold_seconds").inc(
                        t_out - t_in)
                    metrics.gauge("scheduler.inflight_tasks").set(
                        depth, t=t_out)
                    metrics.histogram(
                        "scheduler.newly_ready",
                        buckets=(0, 1, 2, 4, 8, 16, 32),
                    ).observe(len(newly_ready))
                for _ in range(spawn):
                    pool.submit(worker_loop)
                # loop back for the next ready claim

        if bus is not None:
            bus.publish("run_start", total=n, count=W, problem=problem)
        with lock:
            for t in graph.tasks:
                if indeg[t.tid] == 0:
                    push(t.tid)
            spawn = min(W, len(ready))
            active[0] = spawn
            frontier0 = len(ready)
        if bus is not None:
            bus.publish("frontier", value=float(frontier0), count=spawn)
        for _ in range(spawn):
            pool.submit(worker_loop)
        done.wait()
    if bus is not None:
        bus.publish("run_done", count=n - remaining[0], value=bus.now())
    if errors:
        raise errors[0]
    return ctx


#: queue-wait histogram bucket edges (seconds) — ready-to-start delays
#: range from microseconds (idle worker grabs immediately) to whole
#: milliseconds (deep frontier, few workers)
_WAIT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _observe_task(
    task: Task,
    t0: float,
    t1: float,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None,
    submit: float | None = None,
    worker: int | None = None,
    submit_ts: list[float] | None = None,
    epoch: float | None = None,
) -> None:
    """Record one finished task into the tracer and/or registry.

    ``t0``/``t1`` are raw :func:`time.perf_counter` readings; the
    tracer re-bases them onto its epoch.  When ``submit_ts``/``epoch``
    are given (threaded scheduler) the ready-to-start queue wait is
    also observed into ``scheduler.queue_wait_seconds``.

    Lifecycle comparability: the span's ``submit`` is the *ready*
    stamp (the moment the task entered the ready queue), so in the
    degenerate lifecycle view (:func:`repro.obs.analyze.overhead_report`
    on a plain capture) thread-mode queue wait lands in the ``queued``
    phase and the kernel in ``computing`` — directly comparable with
    the process backend's six-phase attribution, whose four extra
    phases are identically zero here (no process boundary to cross).
    """
    if tracer is not None:
        sub = (submit_ts[task.tid] if submit_ts is not None
               else (submit or t0) - tracer.epoch)
        tracer.record(task, sub, t0 - tracer.epoch, t1 - tracer.epoch,
                      worker=worker)
    if metrics is not None:
        name = task.kernel.value
        metrics.counter(f"tasks.retired.{name}").inc()
        metrics.histogram(f"kernel.seconds.{name}").observe(t1 - t0)
        if submit_ts is not None and epoch is not None:
            wait = max(0.0, (t0 - epoch) - submit_ts[task.tid])
            metrics.histogram("scheduler.queue_wait_seconds",
                              buckets=_WAIT_BUCKETS).observe(wait)
