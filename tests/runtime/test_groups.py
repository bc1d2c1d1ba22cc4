"""Stacked apply groups over a slot-addressed tile pool.

:func:`repro.runtime.groups.apply_group_pool` applies a run of tasks
sharing one V tile directly on the ``stack[s0:s0+r]`` views when the
run's C slots (and pivot-row slots) are consecutive, and through a
gathered copy otherwise.  Both paths must reproduce the per-tile
reference kernels bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag.tasks import KERNEL_CODES
from repro.kernels import Kernel, geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr
from repro.runtime.groups import (
    _consecutive,
    apply_group_pool,
    broadcast_tfactor,
    v_runs,
)

NB, IB, Q = 8, 3, 7
#: source tile rows (and their pivot rows) of the two runs
SOURCES = ((1, 0), (4, 2))


def _pool(rng, dtype):
    a = rng.standard_normal((6 * Q, NB, NB))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(a.shape)
    return a.astype(dtype)


def _factor_sources(stack, kern):
    """Factor each run's source tile in place; return its T factor."""
    tf = {}
    for row, piv in SOURCES:
        v, top = stack[row * Q], stack[piv * Q]
        if kern is Kernel.UNMQR:
            tf[row] = geqrt(v, IB)
        elif kern is Kernel.TSMQR:
            geqrt(top, IB)
            tf[row] = tsqrt(top, v, IB)
        else:
            geqrt(top, IB)
            geqrt(v, IB)
            tf[row] = ttqrt(top, v, IB)
    return tf


def _group(cols_of, rng):
    """A shuffled apply group: ``(rows, pivs, js)`` per task."""
    tasks = [(row, piv, j) for row, piv in SOURCES for j in cols_of[row]]
    tasks = [tasks[i] for i in rng.permutation(len(tasks))]
    return tuple(np.array(x, dtype=np.int64) for x in zip(*tasks))


def _reference(stack, kern, tf, rows, pivs, js):
    for row, piv, j in zip(rows.tolist(), pivs.tolist(), js.tolist()):
        v, t = stack[row * Q], tf[row]
        if kern is Kernel.UNMQR:
            unmqr(v, t, stack[row * Q + j])
        elif kern is Kernel.TSMQR:
            tsmqr(v, t, stack[piv * Q + j], stack[row * Q + j])
        else:
            ttmqr(v, t, stack[piv * Q + j], stack[row * Q + j])


#: C columns per source row: consecutive runs (the view path), runs
#: with gaps (the gather path), and one of each
LAYOUTS = {
    "consecutive": {1: range(1, Q), 4: range(2, 6)},
    "gapped": {1: (1, 3, 6), 4: (2, 5)},
    "mixed": {1: range(1, Q), 4: (1, 4, 6)},
}


@pytest.mark.parametrize("kern", [Kernel.UNMQR, Kernel.TSMQR, Kernel.TTMQR],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_apply_group_pool_bit_identical_to_per_tile(rng, dtype, kern,
                                                    layout):
    stack = _pool(rng, dtype)
    tf = _factor_sources(stack, kern)
    rows, pivs, js = _group(LAYOUTS[layout], rng)
    vslots = rows * Q
    bot = rows * Q + js
    top = None if kern is Kernel.UNMQR else pivs * Q + js

    # the layout exercises the path its name says
    order, bounds = v_runs(vslots, bot)
    flat = _consecutive(bot[order], bounds)
    if top is not None:
        flat &= _consecutive(top[order], bounds)
    assert flat.tolist() == {"consecutive": [True, True],
                             "gapped": [False, False],
                             "mixed": [True, False]}[layout]

    ref = stack.copy()
    _reference(ref, kern, tf, rows, pivs, js)
    apply_group_pool(stack, KERNEL_CODES.index(kern), vslots, top, bot,
                     lambda b: broadcast_tfactor(tf[int(rows[b])].blocks,
                                                 IB))
    assert np.array_equal(stack, ref)


def test_single_task_runs_apply_in_place(rng):
    """A run of one task is trivially consecutive: no gather at all."""
    stack = _pool(rng, np.float64)
    tf = _factor_sources(stack, Kernel.UNMQR)
    rows = np.array([1, 4], dtype=np.int64)
    js = np.array([5, 3], dtype=np.int64)
    order, bounds = v_runs(rows * Q, rows * Q + js)
    assert _consecutive((rows * Q + js)[order], bounds).all()
    ref = stack.copy()
    _reference(ref, Kernel.UNMQR, tf, rows, rows, js)
    apply_group_pool(stack, KERNEL_CODES.index(Kernel.UNMQR), rows * Q,
                     None, rows * Q + js,
                     lambda b: broadcast_tfactor(tf[int(rows[b])].blocks,
                                                 IB))
    assert np.array_equal(stack, ref)
