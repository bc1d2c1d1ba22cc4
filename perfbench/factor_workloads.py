"""The factor workloads: ``tall-lstsq`` and ``square-process``.

Each one factors a seeded Gaussian matrix with the Greedy tree and the
TT kernels through :func:`repro.api.factor`, in a closed loop with one
caller: the next operation starts only after the previous one returned
and its output was checked (the check is outside the timed window).

``run_end_to_end`` gives the user-visible numbers with tracing off;
``run_layers`` is the separate traced run that splits one operation's
wall-clock into the layers of ``repro`` (see README.md for the map of
each layer metric to the end-to-end metric it should move).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from repro.api import DistributedTracer, factor, overhead_report, plan
from repro.kernels.costs import Kernel, kernel_flops, qr_flops
from repro.obs import PHASES, Tracer
from repro.obs.analyze import analyze_sim
from repro.obs.metrics import MetricsRegistry
from repro.planner import clear_plan_cache
from repro.runtime import ProcessPool
from repro.sim.simulate import simulate_bounded
from repro.tiles import TiledMatrix, TilePool

from common import (median_time, peak_rss_mb, setup_marks, tail,
                    timed)

SCHEME = "greedy"
#: backward error ||A - QR|| / ||A|| the repo guarantees on every path
BACKWARD_TOL = 1e-12
#: relative distance of the least-squares solution to SciPy's
LSTSQ_TOL = 1e-10
#: Gaussian probe vectors of the backward-error estimate
PROBES = 8
#: an operation this much slower than the fastest set-up counts as timed out
TIMEOUT_FACTOR = 20.0
#: consecutive failures after which a run stops issuing operations
MAX_CONSECUTIVE_FAILURES = 3

FACTOR_KERNELS = ("GEQRT", "TSQRT", "TTQRT")
APPLY_KERNELS = ("UNMQR", "TSMQR", "TTMQR")


@dataclass(frozen=True)
class Config:
    m: int
    n: int
    nb: int
    ib: int
    mode: str
    backend: str = "reference"
    rhs: int = 0  # right-hand sides solved per operation (0: factor only)

    @property
    def grid(self) -> tuple[int, int]:
        return self.m // self.nb, self.n // self.nb

    def flops(self) -> float:
        """Useful flops of one operation: the QR plus the solve."""
        f = qr_flops(self.m, self.n)
        if self.rhs:
            m, n, k = self.m, self.n, self.rhs
            f += 4.0 * m * n * k - 2.0 * n * n * k  # apply Q^T to B
            f += float(n * n * k)                    # back-substitution
        return f


CONFIGS = {
    "tall-lstsq": Config(m=8192, n=512, nb=64, ib=16, mode="batched",
                         rhs=16),
    "square-process": Config(m=1024, n=1024, nb=64, ib=16, mode="process"),
}
#: the threaded executor's problem: tiles so small that per-task
#: scheduling costs about as much as the kernels (a sub-run of
#: square-process's traced run, see README.md)
THREADS = Config(m=512, n=512, nb=32, ib=8, mode="task", backend="lapack")


class Inputs:
    """Seeded matrix (and right-hand sides with their SciPy solution)."""

    def __init__(self, cfg: Config, seed: int):
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((cfg.m, cfg.n))
        self.b = self.x_ref = None
        if cfg.rhs:
            self.b = rng.standard_normal((cfg.m, cfg.rhs))
            self.x_ref = scipy.linalg.lstsq(self.a, self.b,
                                            lapack_driver="gelsy")[0]
        # ||(A - QR) X||_F / sqrt(k) estimates ||A - QR||_F for Gaussian
        # X with k columns, at a k/n share of the cost of forming QR
        self.probe = rng.standard_normal((cfg.n, PROBES))
        self.a_probe = self.a @ self.probe
        self.a_norm = float(np.linalg.norm(self.a))


class FactorRun:
    """One configured executor over one input: set-up, op, check."""

    def __init__(self, cfg: Config, inputs: Inputs, workers: int):
        self.cfg, self.inputs, self.workers = cfg, inputs, workers
        self.plan = None
        self.pool: Optional[ProcessPool] = None

    def start(self) -> None:
        """Cold plan build, pool start, one warm-up operation."""
        clear_plan_cache()
        self.plan = plan(*self.cfg.grid, SCHEME)
        if self.cfg.mode == "process":
            self.pool = ProcessPool(workers=self.workers)
        try:
            self.op()
        except BaseException:
            self.close()
            raise

    def factor(self, tracer=None, metrics=None, **kw):
        """Factor the input; keyword overrides replace the workload's
        execution options (another ``mode`` drops its pool, workers and
        backend)."""
        c = self.cfg
        kw.setdefault("mode", c.mode)
        if kw["mode"] == c.mode:
            kw.setdefault("pool", self.pool)
            kw.setdefault("workers", self.workers)
            kw.setdefault("backend", c.backend)
        return factor(self.inputs.a, nb=c.nb, ib=c.ib, scheme=self.plan,
                      tracer=tracer, metrics=metrics, **kw)

    def op(self, tracer=None):
        """One operation: ``(f, x, factor_s, solve_s)``."""
        t_f, f = timed(self.factor, tracer)
        x, t_s = None, 0.0
        if self.cfg.rhs:
            t_s, x = timed(f.solve_lstsq, self.inputs.b)
        return f, x, t_f, t_s

    def check(self, f, x) -> tuple[bool, float]:
        """``(ok, error)`` of one operation's output."""
        if self.cfg.rhs:
            ref = self.inputs.x_ref
            err = float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
            return bool(err <= LSTSQ_TOL), err
        inp = self.inputs
        rx = f.r() @ inp.probe
        qrx = f.q_matmul(np.vstack([rx, np.zeros((self.cfg.m - self.cfg.n,
                                                  PROBES))]))
        err = float(np.linalg.norm(qrx - inp.a_probe)
                    / (np.sqrt(PROBES) * inp.a_norm))
        return bool(err <= BACKWARD_TOL), err

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class Loop:
    """Closed-loop bookkeeping: op times, attempts, failures."""

    def __init__(self, seconds: float, deadline: float, timeout: float):
        self.seconds, self.deadline, self.timeout = seconds, deadline, timeout
        self.times: list[float] = []
        self.attempted = self.failed = self.streak = 0
        self.errors: list[float] = []
        self.busy = 0.0

    def running(self) -> bool:
        return (self.busy < self.seconds
                and time.monotonic() < self.deadline
                and self.streak < MAX_CONSECUTIVE_FAILURES)

    def issue(self, run: FactorRun, tracer=None):
        """Run and check one op; ``None`` if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run.op(tracer)
        except Exception as exc:  # a failed op is counted, not fatal
            self.busy += time.perf_counter() - t0
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        f, x, t_f, t_s = out
        dt = t_f + t_s
        self.busy += dt
        self.times.append(dt)
        ok, err = run.check(f, x)
        self.errors.append(err)
        if not ok:
            self._fail(f"output check failed: error {err:.3e}")
        elif dt > self.timeout:
            self._fail(f"timed out: {dt:.3f} s > {self.timeout:.3f} s")
        else:
            self.streak = 0
        return out

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.streak += 1
        print(f"op {self.attempted} failed: {why}", flush=True)


def run_end_to_end(name: str, seed: int, seconds: float,
                   deadline: float) -> dict:
    cfg = CONFIGS[name]
    workers = os.cpu_count() or 1
    inputs = Inputs(cfg, seed)
    run = FactorRun(cfg, inputs, workers)
    first, _ = timed(run.start)
    setups = [first]
    marks = setup_marks(first, seconds)
    try:
        loop = Loop(seconds, deadline, TIMEOUT_FACTOR * first)
        while loop.running():
            if marks and loop.busy >= marks[0]:
                marks.pop(0)
                run.close()
                run = FactorRun(cfg, inputs, workers)
                setups.append(timed(run.start)[0])
            loop.issue(run)
        rss = peak_rss_mb()
    finally:
        run.close()
    times = loop.times
    if not times:
        raise RuntimeError(f"no operation of {name} completed")
    pct, tail_s = tail(times)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": tail_s,
            "gflops": cfg.flops() * len(times) / sum(times) / 1e9,
            "ok_frac": 1.0 - loop.failed / max(loop.attempted, 1),
            "peak_rss_mb": rss,
        },
        "info": {
            "samples": len(times), "setup_samples": len(setups),
            "tail_percentile": pct, "workers": workers,
            "error_max": max(loop.errors, default=0.0),
        },
    }


# ----------------------------------------------------------------------
# traced run: per-layer attribution

def tile_gemm_gflops(nb: int, tiles: int = 256) -> float:
    """Stacked ``nb x nb`` matmul rate: the roofline of a tile apply."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((tiles, nb, nb))
    y = rng.standard_normal((tiles, nb, nb))
    out = np.empty_like(x)
    t = median_time(lambda: np.matmul(x, y, out=out), 7)
    return 2.0 * nb ** 3 * tiles / t / 1e9


def gemm_gflops(n: int = 1024) -> float:
    """Dense ``n x n`` matmul rate."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty_like(x)
    t = median_time(lambda: np.matmul(x, y, out=out), 5)
    return 2.0 * n ** 3 / t / 1e9


def _kernel_totals(tracer) -> dict:
    """Per-kernel ``(seconds, tasks)`` summed over a tracer's spans."""
    out: dict[str, list] = {}
    for s in tracer.spans:
        rec = out.setdefault(s.kernel, [0.0, 0])
        rec[0] += s.duration
        rec[1] += s.count
    return out


def _interleaved(run: FactorRun, loop: Loop, make_tracer):
    """Untraced and traced ops in pairs, alternating which goes first.

    Returns the untraced and traced factor times and the last traced
    op as ``(tracer, f, x, factor_s, solve_s)``.
    """
    plain, traced, last = [], [], None
    while loop.running():
        first_traced = len(traced) % 2 == 1
        for is_traced in (first_traced, not first_traced):
            tracer = make_tracer() if is_traced else None
            out = loop.issue(run, tracer)
            if out is None:
                continue
            (traced if is_traced else plain).append(out[2])
            if is_traced:
                last = (tracer,) + out
    if last is None or not plain:
        raise RuntimeError("no traced operation completed")
    return plain, traced, last


def _factor_times(cfg: Config, inputs: Inputs, workers: int,
                  ops: int) -> list[float]:
    """Untraced factor times of the problem on ``workers`` workers
    (after one warm-up)."""
    run = FactorRun(cfg, inputs, workers)
    try:
        run.start()
        return [timed(run.factor)[0] for _ in range(ops)]
    finally:
        run.close()


def _thread_layers(seed: int, workers: int, seconds: float,
                   deadline: float) -> tuple[dict, Loop]:
    """The threaded executor on :data:`THREADS` at ``workers`` threads."""
    inputs = Inputs(THREADS, seed)
    run = FactorRun(THREADS, inputs, workers)
    run.start()
    try:
        loop = Loop(seconds, deadline, float("inf"))
        plain, traced, (tracer, *_) = _interleaved(run, loop, Tracer)
    finally:
        run.close()
    kernel_s = sum(s.duration for s in tracer.spans)
    rep = overhead_report(tracer)
    one = _factor_times(THREADS, inputs, 1, len(plain))
    return {
        "executor.kernel_s": kernel_s,
        "executor.busy_frac": tracer.busy_fraction(),
        "executor.overhead_us_per_task":
            (workers * rep.makespan - kernel_s) / rep.tasks * 1e6,
        "executor.scaling": statistics.median(one) / statistics.median(plain),
        "executor.tracing_overhead":
            statistics.median(traced) / statistics.median(plain),
    }, loop


def run_layers(name: str, seed: int, seconds: float,
               deadline: float) -> dict:
    cfg = CONFIGS[name]
    workers = os.cpu_count() or 1
    lanes = workers if cfg.mode == "process" else 1
    inputs = Inputs(cfg, seed)
    L: dict[str, float] = {}

    # planner: cold builds of the workload's plan
    builds = []
    for _ in range(3):
        clear_plan_cache()
        t, pl = timed(plan, *cfg.grid, SCHEME)
        builds.append(t)
    groups = pl.level_groups()
    L["planner.build_s"] = statistics.median(builds)
    L["planner.tasks"] = len(pl.graph.tasks)
    L["planner.levels"] = groups[-1].level + 1
    L["planner.groups"] = len(groups)

    run = FactorRun(cfg, inputs, workers)
    run.start()
    try:
        loop = Loop(seconds, deadline, float("inf"))
        plain, traced, last = _interleaved(
            run, loop, DistributedTracer if cfg.mode == "process" else Tracer)
        L["obs.tracing_overhead"] = (statistics.median(traced)
                                     / statistics.median(plain))
        tracer, f, _, t_factor, t_solve = last
        rep = overhead_report(tracer, run.plan)
        per_kernel = _kernel_totals(tracer)

        # kernels
        fac_s = sum(per_kernel.get(k, [0.0])[0] for k in FACTOR_KERNELS)
        app_s = sum(per_kernel.get(k, [0.0])[0] for k in APPLY_KERNELS)
        app_flops = sum(per_kernel[k][1] * kernel_flops(Kernel(k), cfg.nb)
                        for k in APPLY_KERNELS if k in per_kernel)
        L["kernels.factor_s"] = fac_s
        L["kernels.apply_s"] = app_s
        L["kernels.apply_gflops"] = app_flops / app_s / 1e9
        L["host.tile_gemm_gflops"] = tile_gemm_gflops(cfg.nb)
        L["kernels.apply_roofline_frac"] = (L["kernels.apply_gflops"]
                                            / L["host.tile_gemm_gflops"])

        # tiles: direct gather / scatter of the workload's tile pool
        tiles = TilePool(TiledMatrix(inputs.a.copy(), cfg.nb))
        L["tiles.gather_s"] = median_time(tiles.gather, 5)
        L["tiles.scatter_s"] = median_time(tiles.scatter, 5)
        L["tiles.bytes"] = 2 * tiles.stack.nbytes

        # wall-clock attribution of the last traced op
        run_s = rep.makespan
        L["attrib.wall_s"] = t_factor + t_solve
        L["attrib.run_s"] = run_s
        L["attrib.sched_s"] = run_s - (fac_s + app_s) / lanes
        L["attrib.unattributed_s"] = (t_factor - run_s - L["tiles.gather_s"]
                                      - L["tiles.scatter_s"])

        # the paper's model: fitted per-kernel seconds, simulated at P
        costs = {Kernel(k): sec / cnt for k, (sec, cnt) in per_kernel.items()}
        fitted = plan(*cfg.grid, SCHEME, costs=costs)
        t_sim, sim = timed(simulate_bounded, fitted, lanes)
        t_an, _ = timed(analyze_sim, sim)
        L["sim.simulate_s"] = t_sim
        L["analyze.report_s"] = t_an
        L["sim.measured_over_pred"] = statistics.median(plain) / sim.makespan

        if cfg.mode == "batched":
            L["batched.groups_run"] = len(tracer.spans)
            L["batched.other_s"] = t_factor - fac_s - app_s
            L["core.solve_s"] = median_time(
                lambda: f.solve_lstsq(inputs.b), 3)
            L["core.qh_matmul_s"] = median_time(
                lambda: f.qh_matmul(inputs.b), 3)
            L["check.lstsq_err_max"] = max(loop.errors)
            L["check.backward_err_max"] = f.residual(inputs.a)
        else:
            L["check.backward_err_max"] = max(loop.errors)
            for ph in PHASES:
                L[f"procpool.{ph}_s"] = rep.phase_totals[ph]
            L["procpool.ipc_us_per_task"] = rep.ipc_tax_s * 1e6
            reg = MetricsRegistry()
            run.factor(metrics=reg)
            L["procpool.descriptors"] = reg.counter(
                "procpool.batch.descriptors").value
            L["procpool.mean_group_size"] = reg.histogram(
                "procpool.batch.group_size").mean
            batched_kernel_s = []
            for _ in range(2):
                bt = Tracer()
                run.factor(tracer=bt, mode="batched")
                batched_kernel_s.append(sum(s.duration for s in bt.spans))
            L["procpool.compute_inflation"] = (
                rep.phase_totals["computing"] / min(batched_kernel_s))
            one = _factor_times(cfg, inputs, 1, 3)
            L["procpool.scaling"] = (statistics.median(one)
                                     / statistics.median(plain))

        # same-session host references
        L["host.gemm_gflops"] = gemm_gflops()
        L["host.scipy_qr_s"] = median_time(
            lambda: scipy.linalg.qr(inputs.a, mode="economic"), 3)
        L["host.sequential_s"] = timed(
            run.factor, mode="task", workers=1, backend="lapack")[0]
    finally:
        run.close()
    attempted, failed = loop.attempted, loop.failed
    if cfg.mode == "process":
        # the thread transport, measured beside the process transport
        threads, tloop = _thread_layers(seed, workers, min(4.0, seconds / 3),
                                        deadline)
        L.update(threads)
        attempted += tloop.attempted
        failed += tloop.failed
        L["check.backward_err_max"] = max(L["check.backward_err_max"],
                                          max(tloop.errors))
    return {"attempted": attempted, "failed": failed, "layers": L,
            "info": {"workers": workers, "traced_ops": len(traced),
                     "plain_ops": len(plain)}}
