"""Grouped ``Q`` replay over the slot-indexed T store.

``ExecutionContext.apply_q`` replays the factor groups of the level
grouping as stacked applies.  Every public ``Q`` product must agree
with a per-tile replay of the panel tasks through the context's own
tile kernels: bit for bit on the NumPy path, within ``1e-12 * ||A||``
when LAPACK produced the reflectors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import load_factorization, save_factorization, tiled_qr
from repro.kernels import Kernel
from repro.runtime import ProcessPool
from tests.conftest import random_matrix

NB, IB = 8, 3

#: (mode, kernel choice): the context's backend is "lapack" exactly
#: for the LAPACK rows, and those are compared to rounding
CONFIGS = [
    ("task", {"backend": "reference"}),
    ("task", {"backend": "lapack"}),
    ("batched", {"numeric": "numpy"}),
    ("batched", {"numeric": "lapack"}),
    ("process", {"numeric": "numpy"}),
    ("process", {"numeric": "lapack"}),
]

#: ragged rows, ragged columns, both, and an exact grid
SHAPES = [(43, 24), (48, 21), (45, 19), (48, 24)]


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2, start_method="fork") as p:
        yield p


def per_tile_apply(ctx, c, adjoint):
    """``op(Q) @ c`` in place, one panel task at a time (reference)."""
    bk, tiles, tf, nb = ctx.backend, ctx.tiled, ctx.tfactors, ctx.tiled.nb

    def block(i):
        return c[i * nb : min((i + 1) * nb, tiles.m)]

    panel = [t for t in ctx.graph.tasks
             if t.kernel in (Kernel.GEQRT, Kernel.TSQRT, Kernel.TTQRT)]
    for t in (panel if adjoint else reversed(panel)):
        v = tiles.tile(t.row, t.col)
        if t.kernel is Kernel.GEQRT:
            bk.unmqr(v, tf[(t.row, t.col, "ge")], block(t.row),
                     adjoint=adjoint)
        elif t.kernel is Kernel.TSQRT:
            bk.tsmqr(v, tf[(t.row, t.col, "ts")], block(t.piv),
                     block(t.row), adjoint=adjoint)
        else:
            bk.ttmqr(v, tf[(t.row, t.col, "tt")], block(t.piv),
                     block(t.row), adjoint=adjoint)
    return c


def _padded(f, c):
    out = np.zeros((f.context.tiled.m, c.shape[1]),
                   dtype=np.result_type(c, f.context.tiled.array))
    out[: f.m] = c
    return out


def _factor(a, mode, kw, family, pool):
    if mode == "process":
        kw = dict(kw, pool=pool)
    return tiled_qr(a, nb=NB, ib=IB, family=family, mode=mode, **kw)


def _check(got, ref, exact, scale):
    if exact:
        assert np.array_equal(got, ref)
    else:
        assert np.abs(got - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("mode,kw", CONFIGS,
                         ids=[f"{m}-{next(iter(k.values()))}"
                              for m, k in CONFIGS])
def test_grouped_replay_matches_per_tile(rng, dtype, pool, mode, kw, shape,
                                         family):
    if kw.get("numeric") == "lapack" and np.dtype(dtype).kind == "c":
        pytest.skip("the batched LAPACK factor path is real-only")
    m, n = shape
    a = random_matrix(rng, m, n, dtype)
    b = random_matrix(rng, m, 3, dtype)
    f = _factor(a, mode, kw, family, pool)
    exact = f.context.backend.name == "reference"
    scale = np.linalg.norm(a)

    for adjoint, got in ((True, f.qh_matmul(b)), (False, f.q_matmul(b))):
        ref = per_tile_apply(f.context, _padded(f, b), adjoint)[:m]
        _check(got, ref, exact, scale)

    eye = np.zeros((f.context.tiled.m, n), dtype=f.context.tiled.array.dtype)
    np.fill_diagonal(eye, 1.0)
    _check(f.q(), per_tile_apply(f.context, eye, False)[:m], exact, 1.0)

    # C op(Q) = (op(Q)^H C^H)^H
    z = random_matrix(rng, 2, m, dtype)
    for adjoint in (False, True):
        zh = _padded(f, z.conj().T)
        ref = per_tile_apply(f.context, zh, not adjoint)[:m].conj().T
        _check(f.matmul_q(z, adjoint=adjoint), ref, exact, scale)


def test_batched_save_load_roundtrip(tmp_path, rng, dtype):
    a = random_matrix(rng, 45, 19, dtype)
    b = random_matrix(rng, 45, 2, dtype)
    f = tiled_qr(a, nb=NB, ib=IB, mode="batched")
    path = tmp_path / "batched.npz"
    save_factorization(f, path)
    g = load_factorization(path)
    assert np.array_equal(g.r(), f.r())
    assert np.array_equal(g.qh_matmul(b), f.qh_matmul(b))
    assert np.array_equal(g.q(), f.q())
    assert np.allclose(g.solve_lstsq(b), f.solve_lstsq(b), atol=1e-12)

