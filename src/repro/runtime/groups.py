"""Micro-batch group formation and stacked group execution (S24).

PR 9's distributed tracer put a number on the process backend's
dispatch tax: ~150µs of queue/deserialize/publish overhead *per task*,
the same order as an nb=64 kernel itself.  The batched backend already
amortizes Python overhead by executing whole ``(level, kernel)`` groups
as stacked 3-D operations, but pays a level barrier for it.  This
module merges the two mechanisms: the rolling ready-frontier keeps its
no-barrier dataflow order, but dispatches *micro-batches* — small
groups of compatible ready tasks — so one queue round-trip, one
deserialization and one stacked ``np.matmul`` sequence cover K tasks.

Compatibility is cheap to decide.  Two tasks can share a group iff
they run the same kernel; everything else is implied by readiness:

* tasks that are simultaneously ready are mutually independent (a
  dependency path would order them), so their *output* tiles are
  disjoint — any write-write or read-write pair on a tile is
  DAG-ordered, hence never co-ready;
* a newly ready task cannot conflict with an in-flight one for the
  same reason: its conflicting predecessors have all retired.

So group formation needs no pairwise tile checks at all — it is a pop
of up to ``batch`` tasks from one per-kernel ready heap, O(frontier)
total, not O(frontier²).  :class:`GroupFrontier` implements exactly
that; :func:`dispatch_arrays` flattens a graph once into the aligned
coordinate arrays the frontier and the workers index (memoized on the
:class:`~repro.planner.Plan` as ``Plan.dispatch_arrays()``).

Execution splits by kernel class, mirroring
:mod:`repro.runtime.batched`:

* **factor kernels** (GEQRT/TSQRT/TTQRT) run per-slice inside the
  group — LAPACK tile kernels are per-slice anyway, and the per-slice
  reference kernels keep the numpy path *bitwise* identical to
  unbatched execution (stacked factor reductions associate
  differently; stacked applies do not — see below);
* **apply kernels** (UNMQR/TSMQR/TTMQR) sort the group by source
  (V/T) tile — :func:`v_runs` — and execute each run as one broadcast
  stacked apply (:func:`apply_group_pool`): the V tile and its ``T``
  blocks are processed once per run instead of once per task.  The
  stacked apply performs the same matmul chain per batch slice as the
  per-tile kernel, so the numpy path stays bit-exact under grouping.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.batched import (
    BatchedTFactor,
    _panels,
    apply_stacked_batched,
    unmqr_batched,
)
from ..kernels.costs import Kernel
from ..kernels.stacked import ts_support, tt_support

__all__ = [
    "APPLY_CODES", "FACTOR_CODES", "DispatchArrays", "GroupFrontier",
    "apply_group_pool", "dispatch_arrays", "frontier_width",
    "resolve_batch", "store_tfactors", "stored_tfactor", "tstore_shape",
    "v_runs",
]

_KERNEL_TO_CODE = {k: c for c, k in enumerate(KERNEL_CODES)}

#: the QR factor kernels: produce a T factor, run per-slice in groups
FACTOR_CODES = frozenset(
    _KERNEL_TO_CODE[k] for k in (Kernel.GEQRT, Kernel.TSQRT, Kernel.TTQRT))

#: the QR update kernels: consume a T factor, run stacked in groups
APPLY_CODES = frozenset(
    _KERNEL_TO_CODE[k] for k in (Kernel.UNMQR, Kernel.TSMQR, Kernel.TTMQR))

_UNMQR = _KERNEL_TO_CODE[Kernel.UNMQR]
_TTMQR = _KERNEL_TO_CODE[Kernel.TTMQR]

#: calibrated seconds per Table-1 weight unit at nb=64, one BLAS
#: thread (kernel wall-times scale ~nb³; see docs/performance.md):
#: a pinned worker computed the 16385 units of 1024²/nb=64 in 0.32 s
_UNIT_SECONDS_NB64 = 20e-6

#: measured fixed cost of one descriptor — queue round trip,
#: deserialization, completion and successor release in the parent:
#: (wall - compute) / descriptors of 1024²/nb=64 at W=1, batch="off"
_DESCRIPTOR_SECONDS = 120e-6

#: measured fixed cost of one claim in the threaded executor — a lock
#: round trip and heap pops, no message: two threads at 1024²/nb=64
#: (lapack) ran ~23 ms slower with single-task claims than with 7-task
#: claims, ~9.5 us per claim saved
_CLAIM_SECONDS = 10e-6

#: auto widens a group until the descriptor's fixed cost is at most
#: the first share of the group's compute, and stops growing it once
#: that cost is the second share — more only delays successor release
_AUTO_OVERHEAD_SHARES = (0.05, 0.01)

#: auto never exceeds this group size — beyond it, placement quality
#: and in-flight fairness cost more than the amortization returns
_AUTO_MAX = 256


def frontier_width(index) -> float:
    """Task-weighted mean width of a graph's Kahn levels.

    ``sum(w_l ** 2) / sum(w_l)`` over the level widths ``w_l``: the
    size of the level an average task belongs to, i.e. how many tasks
    are typically ready alongside it (the mean width ``n / L`` would
    let the long, narrow tail of a QR DAG hide its wide early levels).
    """
    w = np.diff(np.asarray(index.level_ptr, dtype=np.float64))
    return float((w * w).sum() / w.sum()) if w.size else 1.0


def resolve_batch(batch, nb: int, index=None, workers: int = 1,
                  descriptor_s: float = _DESCRIPTOR_SECONDS) -> int:
    """Resolve a ``--batch`` setting to a concrete group size (>= 1).

    ``"off"`` (or 1) disables grouping; an int is used as-is.
    ``"auto"`` gives each worker an equal share of the ready set,
    ``ceil(width / workers)``, widened or narrowed by what one
    descriptor costs.  Everything but ``nb``, ``workers`` and the
    descriptor cost comes from the graph's ``index``
    (:class:`~repro.dag.index.GraphIndex`):

    * ``width`` is the typical ready-set size (:func:`frontier_width`;
      :data:`_AUTO_MAX` without an index).  At 1024²/nb=64 it is 92.7,
      and the measured mean ready set of a per-task run is 101–104.
    * A descriptor costs ``c`` = ``descriptor_s`` whatever its size
      (:data:`_DESCRIPTOR_SECONDS` for a process-pool message;
      the threaded executor passes its own, much cheaper, claim cost);
      a task ``t = w * _UNIT_SECONDS_NB64 * (nb / 64)³``, ``w`` the
      mean Table-1 weight of the index's tasks (5 without an index).
      The share is raised to ``ceil(c / (0.05 t))``, so
      ``c`` stays within 5% of the group's compute, and capped at
      ``ceil(c / (0.01 t))``: past 1% a bigger group saves nothing
      and holds back the successors of its first members (they retire
      with the whole descriptor), so large tiles fall to single-task
      dispatch.
    * The result never exceeds ``width`` (one group cannot hold more
      than is ready) nor :data:`_AUTO_MAX`.

    Measured on one-BLAS-thread workers, 2 CPUs, interleaved medians
    (W=2; the rule's pick in brackets): 1024²/nb=64 [47] 0.310 s at 8,
    0.199–0.208 s at 32–128, 0.223 s at 256; 512²/nb=64 [22] 0.052 s
    at 13, 0.048 s at 26–256; 512²/nb=32 [93] 0.119 s at 47, 0.111–
    0.114 s at 93–186; 1024²/nb=128 [13] 0.109 s at 7, 0.114 s at 14,
    0.120 s at 26, 0.154 s at 1.  W=1 takes the whole width (93 at
    1024²/nb=64, where it stops improving past ~64).

    The threaded executor's claim (:data:`_CLAIM_SECONDS`) gives 9 at
    1024²/nb=64 and 47 at 512²/nb=32 for two threads.  Its claims run
    unstacked on the lapack backend, and one thread drains them in
    order, so the message cost would over-size them.  Two threads on
    2 CPUs, lapack, 10 alternating pairs against a 1 ms-per-group
    target (7 and 56), median time ratios: 0.989 and 1.019 with the
    message cost (47 and 93), 0.958 and 0.994 with the claim cost.
    """
    if batch == "off":
        return 1
    if batch == "auto":
        mean_weight, width = 5.0, _AUTO_MAX
        if index is not None and index.weights.size:
            mean_weight = float(index.weights.mean())
            width = frontier_width(index)
        task_s = max(mean_weight, 1.0) * _UNIT_SECONDS_NB64 * (nb / 64.0) ** 3
        floor, cap = (math.ceil(descriptor_s / (share * task_s))
                      for share in _AUTO_OVERHEAD_SHARES)
        size = max(math.ceil(width / max(1, workers)), floor)
        return max(1, min(size, cap, math.ceil(width), _AUTO_MAX))
    size = int(batch)
    if size < 1:
        raise ValueError(f"batch must be >= 1, 'auto' or 'off', got {batch!r}")
    return size


# ----------------------------------------------------------------------
# graph flattening (cached per Plan)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DispatchArrays:
    """A graph flattened into the aligned per-task dispatch arrays.

    ``codes`` positions follow :data:`~repro.dag.tasks.KERNEL_CODES`;
    coordinate arrays use ``-1`` where a kernel has no such coordinate.
    ``fslot`` numbers the factor tasks' T-store slots densely in tid
    order; ``src`` points each apply task at its producer's slot
    (QR kernels only — ``-1`` elsewhere).  Immutable and plan-cachable:
    building these is O(tasks) and was previously repeated on every
    ``ProcessPool.run``.
    """

    codes: np.ndarray
    rows: np.ndarray
    pivs: np.ndarray
    cols: np.ndarray
    js: np.ndarray
    fslot: np.ndarray
    src: np.ndarray
    nfactor: int

    def __len__(self) -> int:
        return int(self.codes.size)


def dispatch_arrays(graph: TaskGraph) -> DispatchArrays:
    """Flatten ``graph`` into :class:`DispatchArrays` (one pass).

    Prefer the memoized ``Plan.dispatch_arrays()`` when a plan is
    available — persistent pools then skip the per-run flattening.
    """
    tasks = graph.tasks
    n = len(tasks)
    codes = np.fromiter((_KERNEL_TO_CODE[t.kernel] for t in tasks),
                        dtype=np.int8, count=n)
    rows = np.fromiter((t.row for t in tasks), dtype=np.int64, count=n)
    pivs = np.fromiter((-1 if t.piv is None else t.piv for t in tasks),
                       dtype=np.int64, count=n)
    cols = np.fromiter((t.col for t in tasks), dtype=np.int64, count=n)
    js = np.fromiter((-1 if t.j is None else t.j for t in tasks),
                     dtype=np.int64, count=n)
    # factor tasks get a slot in the shared T store; apply tasks
    # reference their source factor's slot (same (row, col, kind) key
    # convention as ExecutionContext.tfactors)
    from .executor import _KIND
    fmap: dict[tuple[int, int, str], int] = {}
    fslot = np.full(n, -1, dtype=np.int64)
    src = np.full(n, -1, dtype=np.int64)
    for t in tasks:
        code = _KERNEL_TO_CODE[t.kernel]
        if code in FACTOR_CODES:
            s = len(fmap)
            fmap[(t.row, t.col, _KIND[t.kernel])] = s
            fslot[t.tid] = s
    for t in tasks:
        code = _KERNEL_TO_CODE[t.kernel]
        if code in APPLY_CODES:
            src[t.tid] = fmap[(t.row, t.col, _KIND[t.kernel])]
    return DispatchArrays(codes=codes, rows=rows, pivs=pivs, cols=cols,
                          js=js, fslot=fslot, src=src, nfactor=len(fmap))


# ----------------------------------------------------------------------
# group-aware ready frontier
# ----------------------------------------------------------------------

class GroupFrontier:
    """Priority ready-frontier that pops same-kernel micro-batches.

    Ready tasks bucket by ``(kernel code, source slot)`` — the source
    is the producing factor task, so one bucket is exactly one shared
    V/T tile.  A per-code *border* heap tracks each push, keyed like
    the task itself, so the best ready task of a code is O(1) to find
    (stale border entries — tasks already popped — are skipped
    lazily, classic lazy-deletion heap).  :meth:`pop_group` selects
    the code whose border carries the globally best (minimum) key,
    then fills the group *bucket by bucket* in border order: the best
    task comes first, and the rest of its V/T bucket rides along
    before any other source is touched.  That source affinity is what
    makes the stacked apply amortize — every bucket drained whole is
    one ``v_runs`` run, one broadcast T fetch, one stacked matmul
    chain (the batched backend gets the same effect from its level
    grouping).  Every popped group is valid by the readiness argument
    in the module docstring: same kernel, mutually independent,
    disjoint outputs — no pairwise checks needed.

    With ``batch == 1`` (or ``src=None``, the degenerate single
    bucket per code) this reduces exactly to one priority heap per
    kernel code popping the globally best task.
    """

    __slots__ = ("_codes", "_src", "batch", "_buckets", "_border",
                 "_seq", "_n")

    def __init__(self, codes: np.ndarray, batch: int = 1, src=None):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self._codes = codes
        self._src = src
        self.batch = batch
        #: code -> {src slot -> heap of (key, seq, tid)}
        self._buckets: dict[int, dict[int, list]] = {}
        #: code -> heap of (key, seq, src slot); one entry per push
        self._border: dict[int, list] = {}
        self._seq = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def push(self, tid: int, key: float = 0.0) -> None:
        """Add a ready task (``key`` sorts ascending — negate
        bottom-levels for critical-path-first order)."""
        code = int(self._codes[tid])
        s = int(self._src[tid]) if self._src is not None else -1
        buckets = self._buckets.get(code)
        if buckets is None:
            buckets = self._buckets[code] = {}
            self._border[code] = []
        heap = buckets.get(s)
        if heap is None:
            heap = buckets[s] = []
        entry = (key, self._seq, tid)
        heapq.heappush(heap, entry)
        heapq.heappush(self._border[code], (key, self._seq, s))
        self._seq += 1
        self._n += 1

    def _head(self, code: int):
        """Valid border head of ``code`` (lazily dropping stale
        entries), or ``None`` when the code has no ready tasks.

        A border entry is stale iff its task was already popped; the
        border is a superset-heap of all bucket entries, so its first
        non-stale entry always mirrors some bucket's current head.
        """
        border = self._border[code]
        buckets = self._buckets[code]
        while border:
            key, seq, s = border[0]
            heap = buckets.get(s)
            if heap and heap[0][1] == seq:
                return border[0]
            heapq.heappop(border)
        return None

    def pop_group(self, limit: int | None = None) -> tuple[int, list[int]]:
        """Pop the best compatible group: ``(code, tids)``.

        ``limit`` additionally caps the group size (the dispatcher
        passes the target worker's remaining in-flight *task*
        capacity, so one giant group cannot blow past the cap that
        exists to keep priority meaningful).
        """
        if not self._n:
            raise IndexError("pop from an empty frontier")
        best_code = -1
        best_head = None
        for code in self._border:
            head = self._head(code)
            if head is not None and (best_head is None
                                     or head < best_head):
                best_head = head
                best_code = code
        buckets = self._buckets[best_code]
        size = self.batch
        if limit is not None:
            size = max(1, min(size, limit))
        tids: list[int] = []
        while len(tids) < size:
            head = self._head(best_code)
            if head is None:
                break
            heap = buckets[head[2]]
            while heap and len(tids) < size:
                tids.append(heapq.heappop(heap)[2])
        self._n -= len(tids)
        return best_code, tids


# ----------------------------------------------------------------------
# stacked group execution over pool slots
# ----------------------------------------------------------------------

def v_runs(vslots: np.ndarray, cslots: np.ndarray):
    """Sort an apply group by source-tile slot and yield the runs.

    Returns ``(order, bounds)``: ``order`` permutes the group's tasks
    so that tasks sharing one V tile are contiguous, each run sorted
    by its updated tile's slot ``cslots``, and ``bounds[i]:bounds[i+1]``
    delimits run ``i``.  Each run's applies then execute as one
    broadcast batched operation — the V tile and its T blocks are
    processed once instead of once per task — and a run over one tile
    row lands in ascending, typically consecutive, slots.
    """
    order = np.lexsort((cslots, vslots))
    sv = vslots[order]
    bounds = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1], True])
    return order, bounds


def dedup_hits(srcs) -> int:
    """Source-tile loads an apply group saves by sharing V/T runs."""
    a = np.asarray(srcs)
    return int(a.size - np.unique(a).size)


def _consecutive(slots: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Which runs of a sorted group cover consecutive slots ``s0..s0+r``."""
    cum = np.r_[0, np.cumsum(np.diff(slots) != 1)]
    return cum[bounds[1:] - 1] == cum[bounds[:-1]]


def apply_group_pool(stack: np.ndarray, code: int, vslots: np.ndarray,
                     top_slots: np.ndarray | None, bot_slots: np.ndarray,
                     tfactor_of) -> None:
    """Execute one apply group in place against a ``(S, nb, nb)`` pool.

    ``stack`` is any slot-addressed tile pool backing array (a
    :class:`~repro.tiles.pool.TilePool`'s or a
    :class:`~repro.tiles.shared_pool.SharedTilePool`'s); ``vslots``
    names each task's V tile, ``bot_slots`` its updated tile
    (``c_bot``), ``top_slots`` the pivot-row tile for the TS/TT
    kernels (``None`` for UNMQR).  ``tfactor_of(i)`` returns the
    broadcastable batch-of-one :class:`BatchedTFactor` of task ``i``
    (pre-sort index).  Every run is one broadcast stacked apply.  A
    run whose C slots (and pivot-row slots) are consecutive — one
    tile row, columns ``j..j+r`` — is applied directly on the
    ``stack[s0:s0+r]`` views; only the remaining runs are gathered
    into one contiguous copy and scattered back.
    """
    order, bounds = v_runs(vslots, bot_slots)
    slots = ([bot_slots[order]] if code == _UNMQR
             else [top_slots[order], bot_slots[order]])
    inplace = np.logical_and.reduce([_consecutive(s, bounds) for s in slots])
    sizes = np.diff(bounds)
    moved = np.flatnonzero(np.repeat(~inplace, sizes))
    bufs = [stack[s[moved]] for s in slots] if moved.size else []
    # each gathered run's offset into the copies
    offs = np.r_[0, np.cumsum(np.where(inplace, 0, sizes))]
    mask = code == _TTMQR
    support = tt_support if mask else ts_support
    bl, offs = bounds.tolist(), offs.tolist()
    for r, flat in enumerate(inplace.tolist()):
        u0, u1 = bl[r], bl[r + 1]
        if flat:
            cs = [stack[s[u0]:s[u0] + u1 - u0] for s in slots]
        else:
            cs = [buf[offs[r]:offs[r + 1]] for buf in bufs]
        b = int(order[u0])
        v = stack[vslots[b]][None]
        if code == _UNMQR:
            unmqr_batched(v, tfactor_of(b), cs[0])
        else:
            apply_stacked_batched(v, tfactor_of(b), cs[0], cs[1], support,
                                  mask=mask)
    if moved.size:
        for s, buf in zip(slots, bufs):
            stack[s[moved]] = buf


def broadcast_tfactor(blocks, ib: int) -> BatchedTFactor:
    """A batch-of-one :class:`BatchedTFactor` from per-panel blocks.

    The apply kernels broadcast it across however many C tiles the
    source tile updates (run length), so no per-task T stacking is
    needed.
    """
    bt = BatchedTFactor(ib=ib)
    bt.blocks = [blk[None] for blk in blocks]
    return bt


# ----------------------------------------------------------------------
# the slot-indexed T store
# ----------------------------------------------------------------------

def tstore_shape(nfactor: int, nb: int, ib: int) -> tuple[int, ...]:
    """Shape of the T store of ``nfactor`` factor tasks on ``nb`` tiles.

    One ``(npanels, ib, ib)`` panel stack per factor task (slot
    ``DispatchArrays.fslot``); panel ``pi`` of width ``jb`` occupies
    ``[pi, :jb, :jb]``.  Tiles are zero-padded to ``nb x nb``, so every
    slot holds the full panel count and entries outside a factor's
    valid reflectors are zero (identity reflectors).
    """
    return (max(1, nfactor), len(_panels(nb, ib)), ib, ib)


def store_tfactors(tstore: np.ndarray, fslots: np.ndarray,
                   bt: BatchedTFactor) -> None:
    """File a factor group's T blocks under the tasks' store slots."""
    for pi, blk in enumerate(bt.blocks):
        jb = blk.shape[-1]
        tstore[fslots, pi, :jb, :jb] = blk


def stored_tfactor(tstore: np.ndarray, slots, nb: int) -> BatchedTFactor:
    """Stacked T factor of the store ``slots`` on ``nb``-wide tiles.

    An index array gathers one ``(len(slots), jb, jb)`` stack per
    panel (one copy); a slice ``s:s + 1`` gives the broadcastable
    batch-of-one factor of slot ``s`` as views.
    """
    t = tstore[slots]
    bt = BatchedTFactor(ib=t.shape[2])
    bt.blocks = [t[:, pi, :jb, :jb]
                 for pi, (_, jb) in enumerate(_panels(nb, t.shape[2]))]
    return bt
