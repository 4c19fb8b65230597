"""One-off scaling table: a single call per layer for N = 1..8.

Each timing sits next to the accuracy that call reached, so a faster layer
cannot hide lost digits.  This is not one of the repeated workloads; it is
run with ``python3 perfbench/run.py --scaling``.
"""

from __future__ import annotations

import json
import time

import numpy as np

import reference
from workloads import Reference, generated_config, draw_points


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _rel(a, b) -> float:
    return float(abs(a - b) / max(abs(a), abs(b), 1e-300))


SEED = 1
SITES = range(1, 9)


def rows_for(tc, root, sites: int):
    """(stage, seconds, accuracy, what the accuracy is) for one chain."""
    rng = np.random.default_rng(SEED)
    cfg = generated_config(tc, root, rng, sites)
    ctx, ref = cfg.context(), Reference(cfg)
    center = complex(np.mean(cfg.chain.theta))
    u = center + 0.37 + 0.21j
    rows = []

    family, dt = _timed(tc.chain.build_monodromy, cfg.chain)
    rows.append(("build_monodromy", dt, ref.monodromy_rel_err(tc), "rel. gap to dense product"))

    transfer = tc.chain.build_transfer(cfg.chain, cfg.twist, family)
    t0 = time.perf_counter()
    values = [v for v, _ in tc.linalg.eigenpairs(transfer(u))]
    dt = time.perf_counter() - t0
    _, gap = reference.match_spectrum(values, ref.spectrum(u), np.inf)
    rows.append(("transfer+eigenpairs", dt, gap, "eigenvalue gap / spectral radius"))

    free = ctx.roots(draw_points(rng, center, sites))
    t0 = time.perf_counter()
    tc.bethe.bethe_residuals(ctx, free)
    jac = tc.bethe.bethe_jacobian(ctx, free)
    dt = time.perf_counter() - t0
    h = 1e-6
    fd = np.column_stack([
        (tc.bethe.bethe_residuals(ctx, ctx.roots(free.values + h * e))
         - tc.bethe.bethe_residuals(ctx, ctx.roots(free.values - h * e))) / (2 * h)
        for e in np.eye(sites)
    ])
    rows.append(("residuals+jacobian", dt,
                 float(np.linalg.norm(jac - fd) / np.linalg.norm(jac)),
                 "rel. gap to central difference"))

    sols, dt = _timed(tc.solver.solve_newton, ctx, starts=1, seed=SEED)
    worst = max((s.max_residual / s.tau for s in sols), default=None)
    rows.append(("newton_1_start", dt, worst, f"residual/tolerance, {len(sols)} set(s)"))

    tq, dt = _timed(tc.solver.solve_tq_fit, ctx, tol=cfg.tol)
    good = [s for s in tq if s.flag is None]
    worst = max((s.max_residual / s.tau for s in good), default=None)
    rows.append(("solve_tq_fit", dt, worst,
                 f"residual/tolerance, {len(good)}/{2 ** sites} unflagged"))
    if not good:
        return rows
    roots = good[0].roots.sorted()

    modified = tc.twist.build_modified_operators(family, ctx.fact)
    w0, dt = _timed(tc.states.w0, ctx, roots)
    ket = tc.states.build_bethe_vector(modified, roots)
    via_vacuum = (cfg.twist.kappa_minus / (ctx.fact.mu * ctx.fact.rho)) ** sites * ket.amplitudes[0]
    rows.append(("w0", dt, _rel(w0, via_vacuum), "rel. gap to vacuum overlap"))

    t0 = time.perf_counter()
    dual = tc.states.build_dual_vector(modified, roots)
    ket = tc.states.build_bethe_vector(modified, roots)
    direct = tc.overlaps.scalar_direct(dual, ket)
    rows.append(("vectors+scalar_direct", time.perf_counter() - t0, None, "-"))

    norm, dt = _timed(tc.overlaps.gaudin_norm, ctx, roots, verify_limit=False)
    rows.append(("gaudin_norm", dt, _rel(norm, direct), "rel. gap to contraction"))

    other = tuple(draw_points(rng, center, sites))
    overlap = tc.overlaps.scalar_direct(
        tc.states.build_dual_vector(modified, roots),
        tc.states.build_bethe_vector(modified, ctx.roots(other)))
    value, dt = _timed(tc.overlaps.slavnov_formula, ctx, roots, other, "u-onshell")
    rows.append(("slavnov_formula", dt, _rel(value, overlap), "rel. gap to contraction"))
    return rows


def table(tc, root) -> None:
    print(f"{'N':>2}  {'stage':<22}{'seconds':>12}  {'accuracy':>10}  measure")
    everything = []
    for sites in SITES:
        for stage, dt, acc, what in rows_for(tc, root, sites):
            shown = "-" if acc is None else f"{acc:.2e}"
            print(f"{sites:>2}  {stage:<22}{dt:>12.6f}  {shown:>10}  {what}", flush=True)
            everything.append({"sites": sites, "stage": stage, "seconds": dt,
                               "accuracy": acc, "measure": what})
    print(json.dumps(everything))
