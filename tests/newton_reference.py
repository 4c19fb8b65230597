"""Reference copies of the Newton route as it stood before its kernel calls
were batched: one residual kernel call per step halving, one pass per
kernel term; and of the pool as it stood before its root sets were
attached together: one kernel call and one eigenvalue per probe for each
set.  The solver's versions must reproduce these bit for bit."""

from dataclasses import replace

import numpy as np

from twistchain.bethe import (
    CoincidenceError,
    VariableSet,
    _leave_one_out,
    bethe_residuals,
    eps_dist,
    onshell_scales,
    onshell_tolerance,
    transfer_eigenvalue,
)
from twistchain.solver import (
    DEDUP_TOL,
    NEAR_DUP_TOL,
    PROBES,
    BetheSolution,
    _newton_steps,
    probe_points,
    root_distance,
)


def bethe_system(ctx, batch, jacobian=False):
    u = np.asarray(batch, dtype=complex)
    c = ctx.c
    t, rho = ctx.twist, ctx.fact.rho
    n = u.shape[-1]
    diag = np.eye(n, dtype=bool)
    g = u[:, :, None] - u[:, None, :]
    close = np.abs(g) <= eps_dist(c)
    coincident = np.any(close & ~diag, axis=(1, 2))
    close |= diag
    g[close] = 1.0
    np.divide(c, g, out=g)
    g[close] = 0.0
    l1, l2 = ctx.lam(u)
    x = t.kappa_tilde - rho
    y = t.kappa - rho
    res = np.zeros_like(u)
    jac = None
    d1 = d2 = 0.0
    if jacobian:
        d1, d2 = ctx.dlam(u)
        w = g * g / c
        jac = np.zeros_like(g)
    for coeff, slope, offset, sign in (
        (-x * l1, -x * d1, 1.0, -1.0),
        (y * l2, y * d2, 1.0, 1.0),
        (2 * rho * l1 * l2, 2 * rho * (d1 * l2 + l1 * d2), 0.0, 1.0),
    ):
        factors = sign * g
        factors += offset
        factors[:, diag] = 1.0
        full = np.prod(factors, axis=-1)
        res += coeff * full
        if jacobian:
            loo = _leave_one_out(factors)
            loo *= w
            jac += (sign * coeff)[..., None] * loo
            jac[:, diag] += slope * full - sign * coeff * np.sum(loo, axis=-1)
    return res, jac, coincident


def newton_batch(ctx, starts, max_iter, tol):
    u = np.array(starts, dtype=complex)
    res, _, coincident = bethe_system(ctx, u)
    alive = ~coincident
    running = alive.copy()
    score = np.linalg.norm(res, axis=1)
    for _ in range(max_iter):
        running &= ~(np.max(np.abs(res), axis=1) <= 1e-14 * onshell_scales(ctx, u))
        rows = np.flatnonzero(running)
        if rows.size == 0:
            break
        _, jac, _ = bethe_system(ctx, u[rows], jacobian=True)
        step, ok = _newton_steps(jac, res[rows])
        alive[rows[~ok]] = running[rows[~ok]] = False
        rows, step = rows[ok], step[ok]
        scale = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        for _ in range(20):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            cand = u[rows[idx]] - scale[idx, None] * step[idx]
            cres, _, hit_pole = bethe_system(ctx, cand)
            cscore = np.linalg.norm(cres, axis=1)
            better = ~hit_pole & (cscore < score[rows[idx]])
            done = rows[idx[better]]
            u[done], res[done], score[done] = cand[better], cres[better], cscore[better]
            pending[idx[better]] = False
            scale[idx[~better]] /= 2
        running[rows[pending]] = False
    onshell = np.max(np.abs(res), axis=1) <= tol * onshell_scales(ctx, u)
    return u[alive & onshell]


def newton_starts(ctx, starts, seed):
    n = ctx.sites
    rng = np.random.default_rng(seed)
    theta = np.asarray(ctx.chain.theta, dtype=complex)
    center = complex(np.mean(theta))
    scale = max(1.0, abs(ctx.c), 2 * float(np.max(np.abs(theta))))
    radius = 4.0 * (1 + n) * scale
    batch = np.empty((starts, n), dtype=complex)
    for b in range(starts):
        radii = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
        angles = rng.uniform(0.0, 2 * np.pi, n)
        batch[b] = center + radii * np.exp(1j * angles)
    return batch


def attach(ctx, values, method, tol, flag=None):
    try:
        rs = VariableSet(values, eps_dist(ctx.c)).sorted()
    except CoincidenceError:
        rs = VariableSet(values, 0.0).sorted()
        flag = flag or "coincident-roots"
    res = np.abs(bethe_residuals(ctx, rs))
    tau = onshell_tolerance(ctx, rs, tol)
    lam = np.empty(PROBES, dtype=complex)
    for k, p in enumerate(probe_points(ctx, PROBES)):
        try:
            lam[k] = transfer_eigenvalue(ctx, p, rs)
        except CoincidenceError:
            lam[k] = np.nan
            flag = flag or "probe-collision"
    return BetheSolution(
        roots=rs,
        residuals=res,
        onshell=bool(np.max(res) <= tau),
        tau=tau,
        method=method,
        matched_eigenvalue=lam,
        flag=flag,
    )


def pool(ctx, rows, method, tol, flags=None):
    left = np.arange(len(rows))
    near = np.zeros(len(rows), dtype=bool)
    pool = []
    while left.size:
        k, left = left[0], left[1:]
        sol = attach(ctx, rows[k], method, tol, flags[k] if flags else None)
        if near[k] and sol.flag is None:
            sol = replace(sol, flag="near-duplicate")
        pool.append(sol)
        d = root_distance(rows[k], rows[left])
        near[left[d < NEAR_DUP_TOL]] = True
        left = left[d >= DEDUP_TOL]
    pool.sort(key=BetheSolution.canonical_key)
    return pool
