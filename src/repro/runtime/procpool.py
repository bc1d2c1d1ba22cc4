"""Process-parallel execution over a shared-memory tile pool (S22).

The batched backend (:mod:`repro.runtime.batched`) drives every
stacked kernel from one GIL-bound Python thread and synchronizes at
every Kahn level of the DAG.  This backend removes both limits:

* **Worker processes, zero-copy tiles.**  A persistent
  :class:`ProcessPool` of worker processes operates *in place* on a
  :class:`~repro.tiles.shared_pool.SharedTilePool` — the same
  ``(p * q, nb, nb)`` slot-addressed stack as the batched backend, in
  :mod:`multiprocessing.shared_memory`.  Only ``(tid, kernel,
  slot-coords)`` descriptors cross the queues; tile data never does.
  The compact-WY ``T`` blocks flow through a second shared segment
  (uniform ``(factor_tasks, npanels, ib, ib)`` because padded slots
  factor with a full panel count), so apply kernels read their source
  ``T`` without pickling either.
* **Rolling ready-frontier.**  The parent runs a Kahn scheduler over
  the Plan's CSR :class:`~repro.dag.index.GraphIndex`: a task is
  dispatched the moment its last predecessor retires, ordered by
  descending bottom-level (critical path first) — factor kernels of
  level ``L + 1`` overlap update tasks of level ``L`` instead of
  waiting at a level barrier.  Each worker holds at most a small
  number of in-flight tasks so priority stays meaningful while queue
  latency hides behind execution.
* **Telemetry across the process boundary.**  Workers publish
  ``task_start`` / ``task_done`` through the pool's
  :class:`~repro.obs.stream.BusRelay`; the parent adds ``run_start`` /
  ``frontier`` / ``run_done``, so ``--progress`` and ``repro top``
  work unchanged.

Correctness rests on two established facts: every pair of conflicting
tile accesses is DAG-ordered (the guarantee the threaded executor
already relies on — the completion round-trip through the parent gives
cross-process happens-before), and zero-padded slots are exact for
every kernel (see :mod:`repro.tiles.pool`).  Results match the
reference backend to rounding, like the batched backend.

Reached via ``execute_graph(mode="process", workers=N)`` /
``repro.api.factor(..., mode="process")`` / ``repro factor --mode
process``; reuse a :class:`ProcessPool` across runs to amortize
worker start-up (significant under the ``spawn`` start method).
"""

from __future__ import annotations

import heapq
import os
import queue as queue_mod
import time
import traceback
from typing import Optional

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.backend import get_backend
from ..kernels.batched import lapack_batched_supported
from ..kernels.costs import Kernel
from ..kernels.geqrt import TFactor, panel_starts
from ..kernels.lapack import LapackT
from ..obs.metrics import MetricsRegistry
from ..obs.stream import NULL_BUS, BusRelay
from ..obs.tracer import DistributedTracer, estimate_clock_sync
from ..tiles.layout import TiledMatrix
from ..tiles.shared_pool import SharedArray, SharedTilePool
from .blas import blas_threads, openblas_builds, pin_blas_threads
from .executor import ExecutionContext, _clamp_ib
from .groups import (
    FACTOR_CODES,
    GroupFrontier,
    apply_group_pool,
    broadcast_tfactor,
    dedup_hits,
    dispatch_arrays,
    resolve_batch,
    stored_tfactor,
    tstore_shape,
)

__all__ = ["ProcessPool", "execute_process"]

_KERNEL_TO_CODE = {k: c for c, k in enumerate(KERNEL_CODES)}
_CODE_TO_NAME = tuple(k.value for k in KERNEL_CODES)
_GEQRT, _UNMQR, _TSQRT, _TSMQR, _TTQRT, _TTMQR = (
    _KERNEL_TO_CODE[k] for k in (
        Kernel.GEQRT, Kernel.UNMQR, Kernel.TSQRT, Kernel.TSMQR,
        Kernel.TTQRT, Kernel.TTMQR))

#: tasks a worker may hold queued beyond the one it is executing —
#: enough to hide queue latency, small enough that the parent's
#: priority order is what actually runs.  The cap counts *tasks*, not
#: descriptors: with micro-batching one descriptor may carry a whole
#: group, and a descriptor-counted cap would let one worker hoard
#: ``(1 + _PREFETCH) * batch`` tasks while its siblings idle.
_PREFETCH = 2

#: group-size histogram buckets (powers of two), shared with the
#: batched backend's ``batched.group_size``
_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: seconds between liveness checks while waiting for completions
_POLL_S = 1.0

#: traced tasks a worker buffers before shipping one batched
#: ``task_spans`` record — the merge only happens after the run's
#: drain barrier, so a whole typical run rides in the endrun flush
#: (zero mid-run relay traffic); the threshold just bounds buffer
#: growth on very large runs
_SPAN_FLUSH = 4096

#: thread-count variables a freshly loading BLAS reads (start-up only;
#: see ProcessPool._ensure_started)
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _RunState:
    """Per-run worker state: mapped segments + resolved kernels."""

    __slots__ = ("stack_sa", "tstore_sa", "stack", "tstore", "bk", "ib",
                 "nb", "q", "panels", "publish", "trace", "lapack",
                 "span_buf", "_tf_cache")

    def __init__(self, stack_handle, tstore_handle, cfg: dict):
        self.stack_sa = SharedArray.attach(stack_handle)
        self.tstore_sa = SharedArray.attach(tstore_handle)
        self.stack = self.stack_sa.array
        self.tstore = self.tstore_sa.array
        self.bk = get_backend(cfg["backend"])
        self.ib = cfg["ib"]
        self.nb = cfg["nb"]
        self.q = cfg["q"]
        self.publish = cfg["publish"]
        self.trace = cfg.get("trace", False)
        self.lapack = cfg["lapack"]
        #: buffered (tid, recv, start, finish, publish) span stamps
        self.span_buf: list = []
        # padded slots always factor a full nb-column panel sequence
        self.panels = panel_starts(self.nb, self.ib)
        #: fslot -> BatchedTFactor of *views* into the T store.  A T
        #: slot is written exactly once (by its factor task, which the
        #: DAG orders before every apply that reads it), so the cached
        #: views stay valid for the rest of the run.
        self._tf_cache: dict = {}

    def tfactor(self, fslot: int, l: int = 0):
        """The padded T factor of factor-task slot ``fslot`` (views).

        LAPACK representation: the slot *is* the ``(ib, nb)`` compact-WY
        ``T`` (``l`` is the TT trapezoid height, ``nb`` on padded
        slots).  Reference representation: panel blocks, ``l`` unused.
        """
        if self.lapack:
            return LapackT(self.tstore[fslot], self.ib, l)
        t = TFactor(ib=self.ib)
        for pi, (_, jb) in enumerate(self.panels):
            t.blocks.append(self.tstore[fslot, pi, :jb, :jb])
        return t

    def tfactor_batched(self, fslot: int):
        """Broadcastable batch-of-one T factor of slot ``fslot``.

        Views into the shared T store, sliced exactly as the pool
        LAPACK helpers and the reference panel blocks lay them out, so
        stacked applies read the same values the per-tile kernels
        would.  Memoized per slot (write-once, views stay valid).
        """
        tf = self._tf_cache.get(fslot)
        if tf is not None:
            return tf
        if self.lapack:
            t = self.tstore[fslot]
            tf = broadcast_tfactor(
                [t[:jb, j0:j0 + jb] for j0, jb in self.panels], self.ib)
        else:
            tf = stored_tfactor(self.tstore, slice(fslot, fslot + 1),
                                self.nb)
        self._tf_cache[fslot] = tf
        return tf

    def store_t(self, fslot: int, t) -> None:
        if self.lapack:
            tt = t.t  # (ib, nb) on padded slots
            self.tstore[fslot, : tt.shape[0], : tt.shape[1]] = tt
            return
        for pi, blk in enumerate(t.blocks):
            jb = blk.shape[0]
            self.tstore[fslot, pi, :jb, :jb] = blk

    def close(self) -> None:
        self.stack = self.tstore = None
        self.stack_sa.close()
        self.tstore_sa.close()


def _exec_task(st: _RunState, code: int, row: int, piv: int, col: int,
               j: int, fslot: int, src: int) -> None:
    """Run one kernel against the shared slots, padded ``nb x nb``."""
    stack, q, ib = st.stack, st.q, st.ib
    bk = st.bk
    if code == _GEQRT:
        st.store_t(fslot, bk.geqrt(stack[row * q + col], ib))
    elif code == _UNMQR:
        bk.unmqr(stack[row * q + col], st.tfactor(src),
                 stack[row * q + j])
    elif code == _TSQRT:
        st.store_t(fslot, bk.tsqrt(stack[piv * q + col],
                                   stack[row * q + col], ib))
    elif code == _TSMQR:
        bk.tsmqr(stack[row * q + col], st.tfactor(src),
                 stack[piv * q + j], stack[row * q + j])
    elif code == _TTQRT:
        st.store_t(fslot, bk.ttqrt(stack[piv * q + col],
                                   stack[row * q + col], ib))
    else:
        bk.ttmqr(stack[row * q + col], st.tfactor(src, l=st.nb),
                 stack[piv * q + j], stack[row * q + j])


def _exec_group(st: _RunState, code: int, rows, pivs, cols, js,
                fslots, srcs) -> None:
    """Run one same-kernel micro-batch against the shared slots.

    Factor kernels loop per slice — exactly the calls single-task
    dispatch makes, so grouping never changes their results bitwise.
    Apply kernels gather their C tiles into a contiguous stack, run
    one broadcast stacked apply per shared-V run, and scatter back;
    the stacked applies perform the per-tile matmul chain slice by
    slice, so the numpy path stays bit-exact under grouping (the
    LAPACK path matches to rounding, as everywhere else).
    """
    if code in FACTOR_CODES:
        for i in range(len(rows)):
            _exec_task(st, code, rows[i], pivs[i], cols[i], js[i],
                       fslots[i], srcs[i])
        return
    q = st.q
    rows_a = np.asarray(rows, dtype=np.int64)
    cols_a = np.asarray(cols, dtype=np.int64)
    js_a = np.asarray(js, dtype=np.int64)
    vslots = rows_a * q + cols_a
    bot = rows_a * q + js_a
    top = (None if code == _UNMQR
           else np.asarray(pivs, dtype=np.int64) * q + js_a)
    srcs_a = np.asarray(srcs, dtype=np.int64)
    apply_group_pool(st.stack, code, vslots, top, bot,
                     lambda b: st.tfactor_batched(int(srcs_a[b])))


def _flush_spans(state: "_RunState", widx: int, publisher) -> None:
    """Ship the buffered span stamps as one batched relay record.

    Beyond the four per-task boundaries, each entry carries its
    micro-batch context — the group's shared recv/publish stamps, the
    group size, and the worker's last idle stamp — so the tracer can
    amortize the once-per-group parent-side costs (descriptor
    transit, retirement) across the members and exclude deliberate
    prefetch overlap from the ``dispatched`` phase.
    """
    buf = state.span_buf
    if not buf:
        return
    state.span_buf = []
    publisher.publish("task_spans", worker=widx,
                      tid=[b[0] for b in buf],
                      recv=[b[1] for b in buf],
                      start=[b[2] for b in buf],
                      finish=[b[3] for b in buf],
                      publish=[b[4] for b in buf],
                      grecv=[b[5] for b in buf],
                      gpub=[b[6] for b in buf],
                      gsize=[b[7] for b in buf],
                      gfree=[b[8] for b in buf])


def _worker_main(widx: int, inq, done_q, publisher) -> None:
    """Worker process loop: attach per run, execute tasks, report.

    Must stay importable at module level for the ``spawn`` start
    method.  Every exception is shipped to the parent as a formatted
    traceback — a worker never dies on a task failure.

    When the run is traced (``cfg["trace"]``) the worker stamps four
    ``perf_counter`` boundaries per task — message receipt, kernel
    entry/return, completion published — and buffers them; every
    :data:`_SPAN_FLUSH` tasks (and at endrun, before the ``closed``
    ack) the buffer ships through the relay as one batched
    ``"task_spans"`` record, so tracing costs one queue put per batch
    instead of per task and every record still precedes the parent's
    endrun barrier.  A ``("sync", token)`` message answers with the
    worker's own clock reading (``("sync_ack", widx, token, t)``): the
    parent's NTP-style handshake that aligns those stamps onto its
    timeline.

    Before its first message the worker pins every loaded OpenBLAS
    build to one thread (:func:`~repro.runtime.blas.pin_blas_threads`:
    a forked child inherits its parent's BLAS thread pool, whatever
    the environment says) and announces itself with ``("ready", widx,
    counts)``, ``counts`` the effective threads per build.  Every
    per-run ``ready`` ack carries a fresh reading of the same probe.
    """
    builds = openblas_builds()
    done_q.put(("ready", widx, pin_blas_threads(1, builds)))
    state: _RunState | None = None
    free_t = 0.0
    while True:
        # free_t marks the moment this worker went idle: any descriptor
        # already sitting in the inbox was overlapped with useful work,
        # so the tracer charges ``dispatched`` only from max(dispatch,
        # free) — deliberate prefetch overlap is queueing, not IPC
        free_t = time.perf_counter()
        msg = inq.get()
        kind = msg[0]
        if kind == "task":
            recv_t = time.perf_counter()
            _, tid, code, row, piv, col, j, fslot, src = msg
            if state.publish:
                publisher.publish("task_start", tid=tid,
                                  kernel=_CODE_TO_NAME[code], worker=widx)
            t0 = time.perf_counter()
            try:
                _exec_task(state, code, row, piv, col, j, fslot, src)
            except BaseException:
                done_q.put(("error", widx, tid, traceback.format_exc()))
                continue
            dt = time.perf_counter() - t0
            t1 = t0 + dt
            if state.publish:
                publisher.publish("task_done", tid=tid,
                                  kernel=_CODE_TO_NAME[code], worker=widx,
                                  value=dt)
            done_q.put(("done", widx, tid, dt))
            if state.trace:
                pub_t = time.perf_counter()
                state.span_buf.append((tid, recv_t, t0, t1, pub_t,
                                       recv_t, pub_t, 1, free_t))
                if len(state.span_buf) >= _SPAN_FLUSH:
                    _flush_spans(state, widx, publisher)
        elif kind == "grp":
            recv_t = time.perf_counter()
            _, tids, code, rows, pivs, cols, js, fslots, srcs = msg
            kname = _CODE_TO_NAME[code]
            if state.publish:
                for tid in tids:
                    publisher.publish("task_start", tid=tid, kernel=kname,
                                      worker=widx)
            t0 = time.perf_counter()
            try:
                _exec_group(state, code, rows, pivs, cols, js, fslots,
                            srcs)
            except BaseException:
                done_q.put(("error", widx, tids, traceback.format_exc()))
                continue
            t1 = time.perf_counter()
            dt = t1 - t0
            share = dt / len(tids)
            if state.publish:
                for tid in tids:
                    publisher.publish("task_done", tid=tid, kernel=kname,
                                      worker=widx, value=share)
            done_q.put(("done", widx, tids, dt))
            if state.trace:
                # the stacked kernels leave no per-task boundaries, so
                # the group's kernel window is split evenly; the
                # deserialize/publish windows are paid once per group
                # and amortized as a 1/K slice around each member's
                # compute slice.  The group stamps (recv_t, pub_t) and
                # the group size ride along so the tracer's merge can
                # amortize the parent-side transit and retire costs the
                # same way — per-phase sums equal the true group costs
                # and the telescoping identity still holds exactly.
                pub_t = time.perf_counter()
                k = len(tids)
                d_deser = (t0 - recv_t) / k
                d_pub = (pub_t - t1) / k
                for i, tid in enumerate(tids):
                    s_i = t0 + i * share
                    f_i = s_i + share
                    state.span_buf.append(
                        (tid, s_i - d_deser, s_i, f_i, f_i + d_pub,
                         recv_t, pub_t, k, free_t))
                if len(state.span_buf) >= _SPAN_FLUSH:
                    _flush_spans(state, widx, publisher)
        elif kind == "mgrp":
            # multi-group descriptor: several kernel groups that share
            # one queue round-trip and one completion message.  Groups
            # execute in dispatch order; a failure mid-descriptor
            # reports the failed group and everything after it as one
            # error (the parent books them out of flight together)
            # while the completed prefix still retires normally.
            recv_t = time.perf_counter()
            groups = msg[1]
            results: list = []   # (tids, dt, t0, t1) per group
            failed_tb = None
            t1 = recv_t
            for gi, grp in enumerate(groups):
                tids, code = grp[0], grp[1]
                kname = _CODE_TO_NAME[code]
                if state.publish:
                    for tid in tids:
                        publisher.publish("task_start", tid=tid,
                                          kernel=kname, worker=widx)
                t0 = time.perf_counter()
                try:
                    if len(tids) == 1:
                        _exec_task(state, code, grp[2][0], grp[3][0],
                                   grp[4][0], grp[5][0], grp[6][0],
                                   grp[7][0])
                    else:
                        _exec_group(state, code, grp[2], grp[3],
                                    grp[4], grp[5], grp[6], grp[7])
                except BaseException:
                    failed_tb = traceback.format_exc()
                    rem = tuple(t for g in groups[gi:] for t in g[0])
                    done_q.put(("error", widx, rem, failed_tb))
                    break
                t1 = time.perf_counter()
                results.append((tids, t1 - t0, t0, t1))
                if state.publish:
                    share = (t1 - t0) / len(tids)
                    for tid in tids:
                        publisher.publish("task_done", tid=tid,
                                          kernel=kname, worker=widx,
                                          value=share)
            if results:
                done_q.put(("mdone", widx,
                            tuple((r[0], r[1]) for r in results)))
            if state.trace and results:
                # same amortized per-member stamps as "grp", except
                # the shared deserialize / publish / transit / retire
                # windows split across every member of the descriptor
                pub_t = time.perf_counter()
                n_ok = sum(len(r[0]) for r in results)
                d_deser = (results[0][2] - recv_t) / n_ok
                d_pub = (pub_t - results[-1][3]) / n_ok
                for tids, dt, t0, _ in results:
                    share = dt / len(tids)
                    for i, tid in enumerate(tids):
                        s_i = t0 + i * share
                        f_i = s_i + share
                        state.span_buf.append(
                            (tid, s_i - d_deser, s_i, f_i, f_i + d_pub,
                             recv_t, pub_t, n_ok, free_t))
                if len(state.span_buf) >= _SPAN_FLUSH:
                    _flush_spans(state, widx, publisher)
        elif kind == "sync":
            done_q.put(("sync_ack", widx, msg[1], time.perf_counter()))
        elif kind == "run":
            _, stack_handle, tstore_handle, cfg = msg
            try:
                state = _RunState(stack_handle, tstore_handle, cfg)
            except BaseException:
                done_q.put(("error", widx, -1, traceback.format_exc()))
                continue
            done_q.put(("ready", widx, blas_threads(builds)))
        elif kind == "endrun":
            if state is not None:
                _flush_spans(state, widx, publisher)
                state.close()
                state = None
            done_q.put(("closed", widx))
        else:  # "stop"
            if state is not None:
                _flush_spans(state, widx, publisher)
                state.close()
            return


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _resolve_start_method(start_method: Optional[str]) -> str:
    import multiprocessing as mp

    if start_method is None:
        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    if start_method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {start_method!r} not available; choose from "
            f"{mp.get_all_start_methods()}")
    return start_method


class ProcessPool:
    """Persistent pool of kernel worker processes.

    Workers start lazily on the first :meth:`run` and persist across
    runs (per-run cost is two shared-memory attaches per worker),
    which matters under ``spawn`` where each worker pays a full
    interpreter + NumPy import at start-up.  Close with
    :meth:`close` or use as a context manager::

        with ProcessPool(workers=4) as pool:
            ctx1 = pool.run(plan1, tiled1)
            ctx2 = pool.run(plan2, tiled2)   # same workers

    Parameters
    ----------
    workers : int or None
        Worker process count (default ``os.cpu_count()``).
    start_method : {"fork", "spawn", "forkserver"} or None
        ``multiprocessing`` start method; ``None`` picks ``fork``
        where available (fast start-up; see docs/performance.md for
        the fork-vs-spawn trade-offs).
    relay_capacity : int
        Bound of the cross-process telemetry queue (overflow events
        are dropped at the producer, never blocking a worker).
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 relay_capacity: int = 8192) -> None:
        import multiprocessing as mp

        self.start_method = _resolve_start_method(start_method)
        self.workers = (int(workers) if workers is not None
                        else (os.cpu_count() or 1))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._ctx = mp.get_context(self.start_method)
        self._relay = BusRelay(NULL_BUS, capacity=relay_capacity,
                               ctx=self._ctx)
        self._inqs: list = []
        self._done_q = None
        self._procs: list = []
        self._closed = False
        self._broken = False
        # distributed-tracing state: in-flight parent stamps for the
        # current run only (cleared every run — a persistent pool must
        # not accumulate per-task bookkeeping), and the previous clock
        # estimate per worker so re-syncs can report drift
        self._pending: dict[int, list] = {}
        self._clock_prev: dict = {}
        self._sched_ok = 0
        self._blas: dict[int, dict[str, int]] = {}

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def blas_threads(self) -> dict[int, dict[str, int]]:
        """Effective OpenBLAS threads per worker, ``{widx: {lib: n}}``.

        What each worker last reported (at start-up and at every run's
        ``ready`` ack), read through each build's ``get_num_threads``:
        an observation of the pin, not a setting.  Empty until the
        workers start.
        """
        return {w: dict(c) for w, c in self._blas.items()}

    def start(self) -> "ProcessPool":
        """Start the workers now (idempotent) and wait until each has
        pinned its BLAS and reported ready; :meth:`run` otherwise
        starts them lazily."""
        self._ensure_started()
        return self

    def _ensure_started(self) -> None:
        if self._procs:
            return
        if self._closed or self._broken:
            raise RuntimeError("process pool is closed")
        # Start the resource tracker *before* forking: children inherit
        # the running tracker's pipe, so their attach-side shared-memory
        # registrations collapse into the parent's (set-idempotent) and
        # the owner's unlink leaves it clean.  A tracker first started
        # inside a fork child would be private to it and warn about
        # "leaked" segments the parent already unlinked.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
        self._done_q = self._ctx.Queue()
        # The worker's own pin is what makes it single-threaded.  These
        # variables only speed up spawn/forkserver start-up: a child
        # that loads OpenBLAS afresh then loads it single-threaded, with
        # no helper threads spinning through the imports (~0.1 s at
        # W=2).  A fork child inherits the loaded library and ignores
        # them.
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            for k in _BLAS_ENV:
                os.environ[k] = "1"
            for widx in range(self.workers):
                inq = self._ctx.Queue()
                p = self._ctx.Process(
                    target=_worker_main,
                    args=(widx, inq, self._done_q,
                          self._relay.publisher()),
                    name=f"repro-worker-{widx}", daemon=True)
                p.start()
                self._inqs.append(inq)
                self._procs.append(p)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        # each worker pins its BLAS, then announces itself
        self._await("ready", self.workers)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._relay.stop()
        for inq in self._inqs:
            try:
                inq.put(("stop",))
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout)
            if p.is_alive():
                p.terminate()
                p.join(1.0)
        for q in self._inqs + ([self._done_q] if self._done_q else []):
            q.close()
        self._inqs, self._procs, self._done_q = [], [], None
        self._blas.clear()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        dead = [(p.name, p.exitcode) for p in self._procs
                if not p.is_alive()]
        if dead:
            self._broken = True
            self.close(timeout=0.1)
            raise RuntimeError(
                f"worker process(es) died: {dead}; the pool is closed")

    def _sync_clocks(self, dtracer: DistributedTracer,
                     metrics: MetricsRegistry | None,
                     pings: int = 8) -> None:
        """NTP-style clock handshake with every worker.

        Each ping records ``(t_send, t_worker, t_recv)`` on the
        parent's ``perf_counter``; the minimum-RTT sample bounds the
        worker's clock offset to within half that round-trip.  Runs at
        the start of every traced run, so a persistent pool re-syncs
        periodically and the drift since the previous estimate is
        reported alongside the offset.
        """
        for w, inq in enumerate(self._inqs):
            samples: list[tuple[float, float, float]] = []
            # first sync of a worker takes the full ping budget; later
            # re-syncs only refresh drift, so half the pings suffice
            n_pings = pings if w not in self._clock_prev \
                else max(3, pings // 2)
            for tok in range(n_pings):
                t_send = time.perf_counter()
                inq.put(("sync", tok))
                deadline = time.monotonic() + 30.0
                while True:
                    try:
                        msg = self._done_q.get(timeout=_POLL_S)
                    except queue_mod.Empty:
                        self._check_alive()
                        if time.monotonic() > deadline:
                            self._broken = True
                            self.close(timeout=0.1)
                            raise RuntimeError(
                                f"timed out syncing clock of worker {w}")
                        continue
                    if msg[0] == "sync_ack" and msg[1] == w \
                            and msg[2] == tok:
                        samples.append((t_send, msg[3],
                                        time.perf_counter()))
                        break
                    if msg[0] == "error":
                        self._broken = True
                        self.close(timeout=0.1)
                        raise RuntimeError(
                            f"worker failed during clock sync:\n{msg[3]}")
                    # stale completions / acks from an aborted run
            sync = estimate_clock_sync(w, samples,
                                       prev=self._clock_prev.get(w))
            self._clock_prev[w] = sync
            dtracer.set_clock(sync)
            if metrics is not None:
                metrics.gauge(f"procpool.clock.offset_us.w{w}",
                              keep_samples=False).set(sync.offset * 1e6)
                metrics.gauge(f"procpool.clock.residual_us.w{w}",
                              keep_samples=False).set(sync.residual * 1e6)

    def run(
        self,
        graph,
        tiled: TiledMatrix,
        ib: int = 32,
        numeric: str = "auto",
        batch="auto",
        on_task_done=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        collect_metrics: bool = False,
        bus=None,
    ) -> ExecutionContext:
        """Execute a factorization DAG on the worker pool.

        Parameters mirror
        :func:`~repro.runtime.batched.execute_batched`; ``numeric``
        picks the per-tile kernel backend the workers run
        (``"numpy"`` → reference kernels, ``"lapack"`` → LAPACK tile
        kernels, ``"auto"`` → LAPACK when the dtype supports it).
        ``batch`` controls frontier micro-batching (``"auto"`` /
        ``"off"`` / int group size — see
        :func:`repro.runtime.groups.resolve_batch`): compatible ready
        tasks ship as one group descriptor and execute through the
        stacked kernels, amortizing the queue round-trip and
        deserialization across the group.
        Returns an :class:`~repro.runtime.executor.ExecutionContext`
        holding the T store copied out of shared memory, so
        ``apply_q`` replays ``Q`` exactly as for the other backends.
        """
        plan_obj = None
        if isinstance(graph, TaskGraph):
            g = graph
        else:
            g = getattr(graph, "graph", None)
            if not isinstance(g, TaskGraph):
                raise TypeError(
                    f"expected a TaskGraph or a Plan, got "
                    f"{type(graph).__name__}")
            plan_obj = graph
        if numeric not in ("auto", "numpy", "lapack"):
            raise ValueError(
                f"numeric must be 'auto', 'numpy' or 'lapack', "
                f"got {numeric!r}")
        dtype = tiled.array.dtype
        if numeric == "lapack" and not lapack_batched_supported(dtype):
            raise ValueError(
                f"numeric='lapack' does not support dtype {dtype}")
        use_lapack = (numeric == "lapack"
                      or (numeric == "auto"
                          and lapack_batched_supported(dtype)))
        backend_name = "lapack" if use_lapack else "reference"
        if tracer is not None and not tracer.enabled:
            tracer = None
        if bus is not None and not getattr(bus, "enabled", True):
            bus = None
        if metrics is None and collect_metrics:
            metrics = MetricsRegistry()
        ib = _clamp_ib(ib, tiled.nb, metrics)
        panels = panel_starts(tiled.nb, ib)  # validates ib >= 1
        n = len(g.tasks)
        if metrics is not None:
            metrics.counter("scheduler.tasks_total").inc(n)
            metrics.gauge("scheduler.workers", keep_samples=False).set(
                self.workers)
            metrics.counter(f"procpool.start_method.{self.start_method}"
                            ).inc()
            metrics.counter("procpool.numeric." + (
                "lapack" if use_lapack else "numpy")).inc()
        if n == 0:
            return ExecutionContext(tiled=tiled, graph=g,
                                    backend=get_backend(backend_name), ib=ib,
                                    tracer=tracer, metrics=metrics)
        self._ensure_started()

        # ---- flattened dispatch arrays (plan-cached when possible) ----
        if plan_obj is not None and hasattr(plan_obj, "dispatch_arrays"):
            da = plan_obj.dispatch_arrays()
        else:
            da = dispatch_arrays(g)

        idx = plan_obj.index if plan_obj is not None else g.index()
        prio = (np.asarray(plan_obj.bottom_levels(), dtype=np.float64)
                if plan_obj is not None
                and hasattr(plan_obj, "bottom_levels") else None)
        batch_size = resolve_batch(batch, tiled.nb, idx,
                                   workers=self.workers)
        if metrics is not None:
            metrics.gauge("procpool.batch.size", keep_samples=False).set(
                batch_size)

        pool = SharedTilePool(tiled)
        # LAPACK kernels emit one (ib, nb) compact-WY T per padded
        # factor task; the reference kernels a (npanels, ib, ib) panel
        # stack.  Size the shared T store for whichever runs.
        tshape = ((max(1, da.nfactor), ib, tiled.nb) if use_lapack
                  else tstore_shape(da.nfactor, tiled.nb, ib))
        tstore = SharedArray(tshape, dtype)
        try:
            # The relay keeps pointing at this bus after the run
            # returns: mp.Queue feeder threads give no cross-queue
            # ordering, so a worker's last task_done may trail its
            # completion message — late events drain into the same bus
            # instead of being dropped (see docs/observability.md).
            dtracer = (tracer if isinstance(tracer, DistributedTracer)
                       else None)
            self._relay.bus = bus if bus is not None else NULL_BUS
            self._relay.span_sink = (dtracer.add_worker_span
                                     if dtracer is not None else None)
            if bus is not None or dtracer is not None:
                self._relay.start()
            base_done = self._relay.pumped("task_done")
            base_spans = self._relay.pumped("task_spans")
            base_dropped = self._relay.dropped
            cfg = {"nb": tiled.nb, "ib": ib, "q": tiled.q,
                   "backend": backend_name, "publish": bus is not None,
                   "trace": dtracer is not None, "lapack": use_lapack}
            for inq in self._inqs:
                inq.put(("run", pool.handle(), tstore.handle(), cfg))
            self._await("ready", self.workers)
            if dtracer is not None:
                # handshake at every run start = periodic re-sync on a
                # persistent pool; the previous estimate feeds drift
                self._sync_clocks(dtracer, metrics)
            if bus is not None:
                bus.publish("run_start", total=n, count=self.workers,
                            problem=getattr(g, "problem", "") or "")
            self._sched_ok = 0
            err: BaseException | None = None
            try:
                self._schedule(g, idx, prio, da, batch_size,
                               on_task_done, tracer, metrics, bus)
            except BaseException as exc:
                err = exc
            # detach the workers even after a failed run, so the pool
            # stays reusable (skip when a dead worker closed the pool)
            if self._procs:
                try:
                    self._await("closed", self.workers,
                                _send_endrun=True)
                except Exception:
                    if err is None:
                        raise
            if dtracer is not None:
                # close parent spans of dispatched-but-unretired tasks
                # (aborted run / dead worker): tagged, never dropped
                now_rel = time.perf_counter() - dtracer.epoch
                for tid, ent in self._pending.items():
                    if ent[2] >= 0:
                        dtracer.record_parent(g.tasks[tid], ent[0],
                                              ent[1], now_rel, ent[2],
                                              aborted=True)
            self._pending.clear()
            # Drain the relay before declaring the run over: mp.Queue
            # feeder threads give no cross-queue ordering, so a
            # worker's last task_done / task_spans may trail its
            # completion message.  run_done is only published once
            # every completion this run produced has been pumped (or
            # was dropped at a full relay), so `repro top`'s final
            # frame and any phase accounting keyed on run boundaries
            # see a complete run.
            targets = []
            if bus is not None:
                targets.append(("task_done", base_done))
            if dtracer is not None:
                targets.append(("task_spans", base_spans))
            if targets and self._relay.running:
                deadline = time.monotonic() + 5.0
                while self._relay.running:
                    lost = self._relay.dropped - base_dropped
                    if all(self._relay.pumped(k) - b + lost
                           >= self._sched_ok for k, b in targets):
                        break
                    if time.monotonic() > deadline:
                        if metrics is not None:
                            metrics.counter(
                                "procpool.relay_drain_timeout").inc()
                        break
                    time.sleep(0.0002)
            if dtracer is not None:
                self._relay.span_sink = None
                dtracer.finalize()
            if err is not None:
                raise err
            if bus is not None:
                bus.publish("run_done", count=n, value=bus.now())
            # copy the T store out of shared memory before the unlink,
            # in the panel layout apply_q reads (the LAPACK store
            # keeps each T as one (ib, nb) row of side-by-side panels)
            if use_lapack:
                store = np.zeros(tstore_shape(da.nfactor, tiled.nb, ib),
                                 dtype=dtype)
                for pi, (j0, jb) in enumerate(panels):
                    store[:, pi, :jb, :jb] = tstore.array[:, :jb,
                                                          j0:j0 + jb]
            else:
                store = tstore.array.copy()
            pool.scatter()
        finally:
            pool.close()
            tstore.close()
        return ExecutionContext(tiled=tiled, graph=g,
                                backend=get_backend(backend_name), ib=ib,
                                tracer=tracer, metrics=metrics,
                                tstore=store, plan=plan_obj)

    # ------------------------------------------------------------------
    def _await(self, expect: str, count: int, deadline_s: float = 60.0,
               _send_endrun: bool = False) -> None:
        if _send_endrun:
            for inq in self._inqs:
                inq.put(("endrun",))
        deadline = time.monotonic() + deadline_s
        got = 0
        while got < count:
            try:
                msg = self._done_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                self._check_alive()
                if time.monotonic() > deadline:
                    self._broken = True
                    self.close(timeout=0.1)
                    raise RuntimeError(
                        f"timed out waiting for worker {expect!r} acks")
                continue
            if msg[0] == expect:
                got += 1
                if expect == "ready":
                    self._blas[msg[1]] = msg[2]
            elif msg[0] == "error":
                self._broken = True
                self.close(timeout=0.1)
                raise RuntimeError(
                    f"worker failed during {expect!r}:\n{msg[3]}")
            # anything else is a stale completion from an aborted run

    def _schedule(self, g, idx, prio, da, batch_size, on_task_done,
                  tracer, metrics, bus) -> None:
        """Rolling ready-frontier over the CSR index, in micro-batches.

        Tasks are dispatched the moment their last predecessor
        retires, highest bottom-level first, grouped with up to
        ``batch_size - 1`` compatible (same-kernel) ready peers per
        descriptor, to the worker with the least outstanding *weight*
        (Table-1 units).  The in-flight cap counts constituent
        *tasks*, not descriptors, so one giant group can never hoard
        a multiple of the intended prefetch depth while other workers
        starve: ``1 + _PREFETCH`` tasks for unbatched dispatch, two
        descriptors' worth (``2 * batch_size``) when batching — with
        a refill hysteresis that tops a worker up only once it is
        down to its final descriptor, letting ready successors pool
        into full groups between refills.
        """
        codes, weights = da.codes, idx.weights
        rows, pivs, cols = da.rows, da.pivs, da.cols
        js, fslot, src = da.js, da.fslot, da.src
        n = len(codes)
        W = self.workers
        indeg = idx.indegree
        succ_ptr, succ_adj = idx.succ_ptr, idx.succ_adj
        dtracer = (tracer if isinstance(tracer, DistributedTracer)
                   else None)
        epoch = tracer.epoch if tracer is not None else time.perf_counter()
        # per-run in-flight bookkeeping: tid -> [ready, dispatch,
        # worker] stamps, popped at retire and cleared by run() — a
        # persistent pool carries nothing across runs
        pending = self._pending
        pending.clear()

        frontier = GroupFrontier(codes, batch_size, src=src)
        t_ready = (time.perf_counter() - epoch
                   if tracer is not None else 0.0)
        for tid in np.flatnonzero(indeg == 0).tolist():
            frontier.push(tid, -prio[tid] if prio is not None else 0.0)
            if tracer is not None:
                pending[tid] = [t_ready, -1.0, -1]
        load = [0] * W          # in-flight tasks (the capacity unit)
        wload = [0.0] * W       # in-flight weight (the placement key)
        outstanding = 0
        completed = 0
        abort_exc: BaseException | None = None
        # batch == 1: the classic rolling frontier — dispatch the
        # moment a worker has room, _PREFETCH tasks deep.  batch > 1:
        # keep the pipeline two descriptors deep with a refill
        # *hysteresis* — top a worker up only once it is down to its
        # last descriptor's worth of tasks, so ready successors pool
        # in the frontier between refills and form full groups
        # instead of draining one by one as singletons (transit stays
        # hidden behind the in-flight descriptor).
        if batch_size == 1:
            cap = 1 + _PREFETCH
        else:
            cap = 2 * batch_size
        refill_at = cap - batch_size
        track_batch = metrics is not None and batch_size > 1

        def _encode(code, tids) -> tuple:
            ix = np.asarray(tids, dtype=np.intp)
            return (tuple(tids), int(code),
                    tuple(rows[ix].tolist()),
                    tuple(pivs[ix].tolist()),
                    tuple(cols[ix].tolist()),
                    tuple(js[ix].tolist()),
                    tuple(fslot[ix].tolist()),
                    tuple(src[ix].tolist()))

        def dispatch() -> None:
            nonlocal outstanding
            t_disp = -1.0
            # groups bound for the same worker in this dispatch wave
            # coalesce into ONE multi-group descriptor: the heavy
            # apply group and the lone factor task popped next to it
            # share a single queue round-trip and a single completion
            # message instead of paying the per-message cost twice.
            # Placement and execution order are exactly what per-group
            # messages would produce — only the framing changes.
            out: dict[int, list] = {}
            while len(frontier) and abort_exc is None:
                cands = [i for i in range(W) if load[i] <= refill_at]
                if not cands:
                    break
                w = min(cands, key=lambda i: (wload[i], load[i]))
                room = cap - load[w]
                code, tids = frontier.pop_group(limit=room)
                if tracer is not None:
                    if t_disp < 0.0:
                        # one stamp per dispatch wave — tasks pushed in
                        # the same wave leave the scheduler together
                        t_disp = time.perf_counter() - epoch
                    for tid in tids:
                        ent = pending[tid]
                        ent[1] = t_disp
                        ent[2] = w
                out.setdefault(w, []).append((code, tids))
                k = len(tids)
                load[w] += k
                wload[w] += float(weights[tids].sum()) if k > 1 \
                    else float(weights[tids[0]])
                outstanding += k
                if metrics is not None:
                    metrics.counter("procpool.dispatched").inc(k)
                    if track_batch:
                        metrics.counter("procpool.batch.groups").inc()
                        metrics.histogram(
                            "procpool.batch.group_size",
                            buckets=_SIZE_BUCKETS).observe(k)
                        if k > 1 and int(src[tids[0]]) >= 0:
                            hits = dedup_hits(src[tids])
                            if hits:
                                metrics.counter(
                                    "procpool.batch.dedup_hits").inc(hits)
            for w, groups in out.items():
                if len(groups) == 1 and len(groups[0][1]) == 1:
                    code, tids = groups[0]
                    tid = tids[0]
                    self._inqs[w].put((
                        "task", tid, int(code), int(rows[tid]),
                        int(pivs[tid]), int(cols[tid]), int(js[tid]),
                        int(fslot[tid]), int(src[tid])))
                elif len(groups) == 1:
                    code, tids = groups[0]
                    self._inqs[w].put(("grp",) + _encode(code, tids))
                else:
                    self._inqs[w].put((
                        "mgrp", tuple(_encode(c, t) for c, t in groups)))
                if track_batch:
                    metrics.counter("procpool.batch.descriptors").inc()

        def release_group(tids, now: float) -> None:
            """Vectorized successor release for a retired descriptor.

            One ``np.subtract.at`` over the concatenated successor
            slices replaces K Python decrement loops; a successor fed
            by several group members is decremented once per edge, and
            the newly-ready set is pushed in ascending-tid order (the
            heap key decides execution order, so push order only
            breaks priority ties).
            """
            slices = [succ_adj[succ_ptr[t]:succ_ptr[t + 1]]
                      for t in tids]
            alls = np.concatenate(slices)
            if not alls.size:
                return
            np.subtract.at(indeg, alls, 1)
            newly = alls[indeg[alls] == 0]
            if not newly.size:
                return
            for s in np.unique(newly).tolist():
                frontier.push(s, -prio[s] if prio is not None else 0.0)
                if tracer is not None:
                    pending[s] = [now, -1.0, -1]

        def retire(tid: int, w: int, share: float, now: float,
                   release: bool = True) -> None:
            nonlocal abort_exc
            if release and abort_exc is None:
                for s in succ_adj[succ_ptr[tid]:
                                  succ_ptr[tid + 1]].tolist():
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        frontier.push(
                            s, -prio[s] if prio is not None else 0.0)
                        if tracer is not None:
                            # ready the instant this retirement lands —
                            # reuse its stamp
                            pending[s] = [now, -1.0, -1]
            task = g.tasks[tid]
            if dtracer is not None:
                ent = pending.pop(tid)
                dtracer.record_parent(task, ent[0], ent[1], now, w,
                                      dt=share)
            elif tracer is not None:
                ent = pending.pop(tid)
                tracer.record(task, ent[1], max(ent[1], now - share),
                              now, worker=w)
            if metrics is not None:
                name = task.kernel.value
                metrics.counter(f"tasks.retired.{name}").inc()
                metrics.histogram(f"kernel.seconds.{name}").observe(share)
            if on_task_done is not None and abort_exc is None:
                try:
                    on_task_done(task, completed, n)
                except BaseException as exc:
                    abort_exc = exc

        dispatch()
        if bus is not None:
            bus.publish("frontier", value=float(len(frontier)),
                        count=outstanding + len(frontier))
        while completed < n:
            if abort_exc is not None and outstanding == 0:
                break
            try:
                msg = self._done_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                self._check_alive()
                continue
            kind = msg[0]
            if kind == "done":
                _, w, tids, dt = msg
                tids = (tids,) if isinstance(tids, int) else tids
                k = len(tids)
                load[w] -= k
                wload[w] -= (float(weights[list(tids)].sum()) if k > 1
                             else float(weights[tids[0]]))
                outstanding -= k
                completed += k
                self._sched_ok += k
                share = dt / k
                now = (time.perf_counter() - epoch
                       if tracer is not None else 0.0)
                if k > 1:
                    if abort_exc is None:
                        release_group(tids, now)
                    for tid in tids:
                        retire(tid, w, share, now, release=False)
                else:
                    retire(tids[0], w, share, now)
                if abort_exc is None:
                    dispatch()
                if bus is not None:
                    bus.publish("frontier", value=float(len(frontier)),
                                count=outstanding + len(frontier))
            elif kind == "mdone":
                # one completion for a whole multi-group descriptor
                _, w, parts = msg
                all_tids = [t for tids, _ in parts for t in tids]
                k = len(all_tids)
                load[w] -= k
                wload[w] -= float(weights[all_tids].sum())
                outstanding -= k
                completed += k
                self._sched_ok += k
                now = (time.perf_counter() - epoch
                       if tracer is not None else 0.0)
                if abort_exc is None:
                    release_group(all_tids, now)
                for tids, dt in parts:
                    share = dt / len(tids)
                    for tid in tids:
                        retire(tid, w, share, now, release=False)
                if abort_exc is None:
                    dispatch()
                if bus is not None:
                    bus.publish("frontier", value=float(len(frontier)),
                                count=outstanding + len(frontier))
            elif kind == "error":
                _, w, tids, tb = msg
                tids = (tids,) if isinstance(tids, int) else tids
                k = len(tids)
                load[w] -= k
                wload[w] -= (float(weights[list(tids)].sum()) if k > 1
                             else float(weights[tids[0]]))
                outstanding -= k
                completed += k
                if abort_exc is None:
                    tid = tids[0]
                    abort_exc = RuntimeError(
                        f"task {tid} ({_CODE_TO_NAME[int(codes[tid])]}) "
                        f"failed in worker {w}:\n{tb}")
            # "ready"/"closed" acks never interleave with completions
        if abort_exc is not None:
            raise abort_exc


def execute_process(
    graph,
    tiled: TiledMatrix,
    ib: int = 32,
    numeric: str = "auto",
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
    pool: Optional[ProcessPool] = None,
    batch="auto",
    on_task_done=None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    collect_metrics: bool = False,
    bus=None,
) -> ExecutionContext:
    """Run a factorization DAG on worker processes (one-shot helper).

    Usually reached via ``execute_graph(..., mode="process")``.
    Creates an ephemeral :class:`ProcessPool` (``workers``,
    ``start_method``) unless an existing ``pool`` is passed — reuse a
    pool when factoring repeatedly, especially under ``spawn``.
    ``batch`` controls micro-batched dispatch (``"auto"``/``"off"``/N;
    see :func:`repro.runtime.groups.resolve_batch`).
    """
    if pool is not None:
        return pool.run(graph, tiled, ib=ib, numeric=numeric, batch=batch,
                        on_task_done=on_task_done, tracer=tracer,
                        metrics=metrics, collect_metrics=collect_metrics,
                        bus=bus)
    with ProcessPool(workers=workers, start_method=start_method) as p:
        return p.run(graph, tiled, ib=ib, numeric=numeric, batch=batch,
                     on_task_done=on_task_done, tracer=tracer,
                     metrics=metrics, collect_metrics=collect_metrics,
                     bus=bus)
