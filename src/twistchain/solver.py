"""Root finding for the inhomogeneous Bethe equations at full order.

Two independent routes are provided.  Damped Newton iteration from random
starts works directly on the residual map with its analytic Jacobian.  The
polynomial-fit route extracts each eigenvalue of the transfer matrix from
exact diagonalization, one magnetization sector at a time, then solves a
linear system for the monic root polynomial that the functional relation
forces.  Agreement of the two lists, each root set compared as the
unordered roots of Q by root_distance, is the desk-scale completeness
check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bethe import (
    SpectralContext,
    VariableSet,
    _tq_base,
    _tq_system,
    bethe_system,
    eps_dist,
)
from .linalg import _spectral_order, eigenpairs
from .states import build_bethe_vector

# thresholds on root_distance: one set below DEDUP_TOL of an earlier one is
# absorbed, below NEAR_DUP_TOL it is kept but flagged, and across methods
# two sets below MATCH_TOL are paired
DEDUP_TOL = 1e-6
NEAR_DUP_TOL = 1e-4
MATCH_TOL = 1e-5
VANISHING_TOL = 1e-9
# a T-Q fit whose relative least-squares residual exceeds FIT_TOL is flagged
FIT_TOL = 1e-6
# eigenvalue samples per root set, compared across methods and to the spectrum
PROBES = 3
# exponents [lo, hi) of the Newton step scales 2^-h, one kernel call per
# chunk: a full step settles most rows, a few halvings nearly all the rest
_HALVINGS = ((0, 1), (1, 5), (5, 20))

# fixed generic offsets, scaled by |c| and recentered on the mean
# inhomogeneity, so probe evaluations are reproducible run to run
_PROBE_OFFSETS = (
    0.3117 + 0.1193j,
    -0.4271 + 0.2913j,
    0.1729 - 0.8121j,
    0.9241 + 0.3313j,
    -0.7351 - 0.5507j,
)


@dataclass(frozen=True)
class BetheSolution:
    """One candidate root set, canonically sorted, with its residuals."""

    roots: VariableSet
    residuals: np.ndarray
    onshell: bool
    tau: float
    method: str
    matched_eigenvalue: np.ndarray | None = None
    flag: str | None = None

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    def canonical_key(self):
        return tuple((z.real, z.imag) for z in self.roots.values)


def probe_points(ctx: SpectralContext, count: int = 3) -> list[complex]:
    if count > len(_PROBE_OFFSETS):
        raise ValueError(f"at most {len(_PROBE_OFFSETS)} probe points")
    base = complex(np.mean(np.asarray(ctx.chain.theta, dtype=complex)))
    scale = max(1.0, abs(ctx.c))
    return [base + scale * off for off in _PROBE_OFFSETS[:count]]


def root_distance(a, rows):
    """Order-free, scale-relative distance from root set a to each row.

    Each root is paired with its nearest root in the other set, and the gap
    |a_i - b_j| / max(1, |a_i|, |b_j|) is read both ways; the distance is
    the largest gap, or inf unless the pairing is one-to-one both ways, so
    two different multisets never compare equal.  rows is one set (a float
    comes back) or a (K, n) stack (K distances come back).
    """
    a = np.asarray(getattr(a, "values", a), dtype=complex)
    b = np.asarray(getattr(rows, "values", rows), dtype=complex)
    stack = np.atleast_2d(b)
    dist = np.full(len(stack), np.inf)
    if stack.shape[1] == a.size:
        ai, bj = a[:, None], stack[:, None, :]
        gap = np.abs(ai - bj) / np.maximum(1.0, np.maximum(np.abs(ai), np.abs(bj)))
        ident = np.arange(a.size)
        paired = np.all(np.sort(gap.argmin(axis=2), axis=1) == ident, axis=1)
        paired &= np.all(np.sort(gap.argmin(axis=1), axis=1) == ident, axis=1)
        far = np.maximum(gap.min(axis=2).max(axis=1), gap.min(axis=1).max(axis=1))
        dist[paired] = far[paired]
    return float(dist[0]) if b.ndim == 1 else dist


def _pool(ctx: SpectralContext, rows, method: str, tol: float, flags=None) -> list:
    """Attach each distinct root set among rows once, canonically ordered.

    The first row of every group closer than DEDUP_TOL is kept; one inside
    NEAR_DUP_TOL of an earlier kept row is flagged instead of collapsed.
    flags[k], when given, is row k's own flag; after it come
    "coincident-roots", for a set with two roots within eps_dist(c) (its
    residuals are nan, since the kernel g has a pole there, and its roots
    carry no distance guard), "probe-collision", for a set with a root
    within eps_dist(c) of a probe point (its sample there is nan), then
    "near-duplicate".  The kept sets are attached together: residuals and
    tolerances from one kernel call, and at each probe the kernel-row
    products of every set from one reduction, combined set by set as
    ``transfer_eigenvalue`` does.  A set with a repeated root, which no
    VariableSet holds, raises CoincidenceError.
    """
    left = np.arange(len(rows))
    near = np.zeros(len(rows), dtype=bool)
    kept = []
    while left.size:
        k, left = left[0], left[1:]
        kept.append(k)
        d = root_distance(rows[k], rows[left])
        near[left[d < NEAR_DUP_TOL]] = True
        left = left[d >= DEDUP_TOL]
    if not kept:
        return []
    sets = np.asarray(rows, dtype=complex)[kept]
    sets = np.take_along_axis(sets, np.lexsort((sets.imag, sets.real), axis=-1), axis=-1)
    res, _, coincident, scale = bethe_system(ctx, sets)
    res[coincident] = np.nan
    c, t, f = ctx.c, ctx.twist, ctx.fact
    a, b, z = t.kappa_tilde - f.rho, t.kappa - f.rho, 2 * f.rho
    lam = np.full((len(sets), PROBES), np.nan, dtype=complex)
    collided = np.zeros(len(sets), dtype=bool)
    for j, p in enumerate(probe_points(ctx, PROBES)):
        diff = p - sets
        met = np.any(np.abs(diff) <= eps_dist(c), axis=-1)
        collided |= met
        g = c / diff[~met]
        p1, p2, p3 = (np.prod(x, axis=-1) for x in (1 - g, 1 + g, g))
        l1, l2 = ctx.lam(p)
        # scalar products: numpy's elementwise complex multiply may fuse
        # multiply-adds, which would move the last bit of a sample
        for i, k in enumerate(np.flatnonzero(~met)):
            lam[k, j] = a * l1 * p1[i] + b * l2 * p2[i] + z * l1 * l2 * p3[i]
    pool = []
    for i, k in enumerate(kept):
        flag = flags[k] if flags else None
        if coincident[i]:
            flag = flag or "coincident-roots"
        if collided[i]:
            flag = flag or "probe-collision"
        if near[k] and flag is None:
            flag = "near-duplicate"
        absres = np.abs(res[i])
        tau = tol * float(scale[i])
        pool.append(
            BetheSolution(
                roots=VariableSet(sets[i], 0.0 if coincident[i] else eps_dist(c)),
                residuals=absres,
                onshell=bool(np.max(absres) <= tau),
                tau=tau,
                method=method,
                matched_eigenvalue=lam[i],
                flag=flag,
            )
        )
    pool.sort(key=BetheSolution.canonical_key)
    return pool


def vector_weight(ctx: SpectralContext, roots: VariableSet) -> float:
    """Size of the constructed state relative to the operators building it.

    The residual equations admit exact root sets that nevertheless create
    the zero vector: a root at an inhomogeneity paired with one shifted
    down by the coupling kills every amplitude identically, for any twist.
    The normalized weight separates those from physical solutions by many
    orders of magnitude, so a loose threshold is safe.
    """
    modified = ctx.modified
    vec = build_bethe_vector(modified, roots)
    ref = 1.0
    for u in roots.values:
        ref *= max(1.0, float(np.linalg.norm(modified.t12(u))))
    return float(np.linalg.norm(vec.amplitudes)) / ref


def _newton_steps(jac: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J^-1 E for a batch, and a mask of the rows that have one.

    The batched solve raises for the whole batch when any Jacobian is
    exactly singular; then the rows are solved one by one so that only the
    singular ones go without a step.
    """
    ok = np.ones(len(res), dtype=bool)
    try:
        return np.linalg.solve(jac, res[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        step = np.zeros_like(res)
        for b in range(len(res)):
            try:
                step[b] = np.linalg.solve(jac[b], res[b])
            except np.linalg.LinAlgError:
                ok[b] = False
        return step, ok


def _newton_batch(
    ctx: SpectralContext,
    starts: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Damped Newton from every row of starts at once; the rows that end on
    shell, in start order.

    Every row takes the steps it would take alone; the masks only decide
    which rows take part in each round.  A row is dropped when it starts on
    coincident roots or meets an exactly singular Jacobian, and stops when
    polished to rounding level or when no step scale 2^-h, h < 20, lowers
    its residual norm; stopped rows then face the on-shell gate.  One
    kernel call tries a chunk of scales (_HALVINGS) on every pending row,
    which takes the first scale that improves, as halving one at a time
    would; once the pending rows times the scales left fit in a call of
    len(starts) rows, the scales left go in one call.  The polish stop and
    the gate read each row's on-shell scale from the kernel call that
    scored its point.  The step is solved in v = u/s, s = max(1, |c|),
    since J ~ 1/c.
    """
    u = np.array(starts, dtype=complex)
    s = max(1.0, abs(ctx.c))
    res, _, coincident, ref = bethe_system(ctx, u)
    alive = ~coincident
    running = alive.copy()
    score = np.linalg.norm(res, axis=1)
    factors = np.ldexp(1.0, -np.arange(_HALVINGS[-1][1]))
    for _ in range(max_iter):
        rows = np.flatnonzero(running)
        # polish to rounding level, not to the acceptance tolerance: the
        # determinant formulas downstream amplify any residual off-shellness
        polished = np.max(np.abs(res[rows]), axis=1) <= 1e-14 * ref[rows]
        running[rows[polished]] = False
        rows = rows[~polished]
        if rows.size == 0:
            break
        _, jac, _, _ = bethe_system(ctx, u[rows], jacobian=True)
        step, ok = _newton_steps(s * jac, res[rows])
        alive[rows[~ok]] = running[rows[~ok]] = False
        rows, step = rows[ok], s * step[ok]
        tried = 0
        for lo, hi in _HALVINGS:  # halving guards against the kernel poles
            if rows.size == 0 or lo < tried:
                break
            if rows.size * (factors.size - lo) <= len(u):
                hi = factors.size  # the rest fit in a call no larger than the first
            scale = factors[lo:hi]
            cand = u[rows, None] - scale[:, None] * step[:, None]
            cres, _, hit_pole, cref = bethe_system(ctx, cand.reshape(-1, u.shape[1]))
            cres = cres.reshape(cand.shape)
            cscore = np.linalg.norm(cres, axis=2)
            better = ~hit_pole.reshape(cscore.shape) & (cscore < score[rows, None])
            hit = better.any(axis=1)
            first = hit, better[hit].argmax(axis=1)  # each hit row's first better scale
            done = rows[hit]
            u[done], res[done], score[done] = cand[first], cres[first], cscore[first]
            ref[done] = cref.reshape(cscore.shape)[first]
            rows, step = rows[~hit], step[~hit]
            tried = hi
        # stagnated; the final gate decides whether this counts
        running[rows] = False
    onshell = np.max(np.abs(res), axis=1) <= tol * ref
    return u[alive & onshell]


def solve_newton(
    ctx: SpectralContext,
    starts: int = 200,
    seed: int = 1,
    max_iter: int = 80,
    tol: float = 1e-8,
    keep_vanishing: bool = False,
) -> list[BetheSolution]:
    """Multi-start damped Newton on the residual map; deterministic in the
    seed, one entry per unordered root set, canonically ordered.

    Starts fill a disk around the mean inhomogeneity whose radius grows
    with the chain length, since the outermost root sets drift outward as
    more roots are added.  All starts advance together on the batched
    residual/Jacobian kernel bethe_system; the converged rows go through
    one _pool pass.  Root sets that build the zero vector are dropped
    unless keep_vanishing is set, in which case they come back flagged.
    """
    n = ctx.sites
    rng = np.random.default_rng(seed)
    theta = np.asarray(ctx.chain.theta, dtype=complex)
    center = complex(np.mean(theta))
    scale = max(1.0, abs(ctx.c), 2 * float(np.max(np.abs(theta))))
    radius = 4.0 * (1 + n) * scale
    # start by start, n radii then n angles
    draws = rng.uniform(0.0, 1.0, (starts, 2, n))
    radii = radius * np.sqrt(draws[:, 0])
    batch = center + radii * np.exp(1j * (2 * np.pi * draws[:, 1]))
    kept = []
    for sol in _pool(ctx, _newton_batch(ctx, batch, max_iter, tol), "newton", tol):
        if vector_weight(ctx, sol.roots) < VANISHING_TOL:
            if not keep_vanishing:
                continue
            sol = replace(sol, flag=sol.flag or "vanishing-vector")
        kept.append(sol)
    return kept


def _tq_linear_fit(lam_poly: np.ndarray, base) -> tuple[np.ndarray, float]:
    """Solve the T-Q relation for the monic root polynomial.

    Linear in the N unknown low-order coefficients of Q, with 2N + 1
    equations; least squares keeps the fit honest.  base is _tq_base(ctx).
    """
    a, b = _tq_system(lam_poly, base)
    # the monic top coefficient moves to the rhs
    rhs = b - a[:, -1]
    a = a[:, :-1]
    q, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    fit_res = float(
        np.linalg.norm(a @ q - rhs) / max(1.0, float(np.linalg.norm(rhs)))
    )
    return np.concatenate((q, [1.0 + 0.0j])), fit_res


def solve_tq_fit(ctx: SpectralContext, tol: float = 1e-8) -> list[BetheSolution]:
    """One solution candidate per eigenvector of a sector block.

    Each sector block (``SpectralContext.sectors``) is diagonalized once at
    a probe point; the blocks are diagonal blocks of a block-triangular
    conjugate of the commuting transfer family, so they commute too, and
    the same vector diagonalizes every coefficient matrix of its block:
    one Rayleigh quotient per coefficient gives the eigenvalue polynomial
    exactly.  The candidates are fitted in the (Re, Im) order of their
    eigenvalues at the probe.  The quotients are coefficients in z = u/c;
    the T-Q fit works in v = u/s, s = max(1, |c|) (``bethe._tq_base``), so
    they are rescaled by (s/c)**k once and the fitted roots by s.  Degenerate
    spectra break that premise and surface as large fit residuals, which
    are flagged rather than repaired.
    """
    base = _tq_base(ctx)
    u0 = probe_points(ctx, 1)[0]
    values, polys = [], []
    for sector in ctx.sectors:
        for value, vec in eigenpairs(sector(u0)):
            values.append(value)
            polys.append(sector.coeffs @ vec @ vec.conj())
    s = max(1.0, abs(ctx.c))
    to_v = (ctx.c / s) ** np.arange(ctx.sites + 1)
    rows, flags = [], []
    for k in _spectral_order(np.array(values)):
        monic, fit_res = _tq_linear_fit(polys[k] / to_v, base)
        # a residual that overflowed to nan is no passing fit
        flags.append(None if fit_res <= FIT_TOL else "tq-residual")
        rows.append(s * np.roots(monic[::-1]))
    return _pool(ctx, np.array(rows), "tq", tol, flags)


@dataclass(frozen=True)
class MatchReport:
    """Cross-method pairing of solution lists."""

    pairs: tuple
    unmatched_a: tuple
    unmatched_b: tuple
    max_root_distance: float
    max_eigenvalue_gap: float

    @property
    def complete(self) -> bool:
        return not self.unmatched_a and not self.unmatched_b


def classify_solutions(a: list[BetheSolution], b: list[BetheSolution]) -> MatchReport:
    """Greedy nearest pairing by root_distance below MATCH_TOL; eigenvalue
    samples are compared on the paired entries only, each gap relative to
    the samples' size, |la - lb| / max(1, |la|, |lb|), as in
    ``spectrum_match``: the samples grow like |u/c|^N, so an absolute gap
    would measure their size."""
    stack = np.array([s.roots.values for s in b])
    free = np.ones(len(b), dtype=bool)
    pairs, unmatched_a = [], []
    worst_gap = 0.0
    for i, sa in enumerate(a):
        d = np.where(free, root_distance(sa.roots, stack), np.inf)
        if not d.size or d.min() >= MATCH_TOL:
            unmatched_a.append(i)
            continue
        j = int(np.argmin(d))
        free[j] = False
        pairs.append((i, j, float(d[j])))
        la, lb = sa.matched_eigenvalue, b[j].matched_eigenvalue
        if la is not None and lb is not None:
            scale = np.maximum(1.0, np.maximum(np.abs(la), np.abs(lb)))
            gap = np.nanmax(np.abs(la - lb) / scale)
            worst_gap = max(worst_gap, float(gap))
    return MatchReport(
        pairs=tuple(pairs),
        unmatched_a=tuple(unmatched_a),
        unmatched_b=tuple(int(j) for j in np.flatnonzero(free)),
        max_root_distance=max((p[2] for p in pairs), default=0.0),
        max_eigenvalue_gap=worst_gap,
    )


def spectrum_match(ctx: SpectralContext, solutions: list[BetheSolution]) -> dict:
    """Compare the eigenvalue samples each solution carries
    (``matched_eigenvalue``, one per probe point) against the full spectrum
    at each probe point; greedy nearest assignment, in solution order, with
    the lowest free index taking a tie.  A sample lost to a probe collision
    is nan and keeps the gap nan."""
    expected = 2 ** ctx.sites
    max_rel = 0.0 if solutions else float("inf")
    for k, p in enumerate(probe_points(ctx, PROBES)):
        spectrum = ctx.spectrum(p)
        free = np.ones(len(spectrum), dtype=bool)
        for sol in solutions:
            lam = sol.matched_eigenvalue[k]
            left = np.flatnonzero(free)
            if not left.size:
                max_rel = float("inf")
                break
            j = left[np.argmin(np.abs(spectrum[left] - lam))]
            free[j] = False
            gap = abs(spectrum[j] - lam) / max(1.0, abs(spectrum[j]))
            max_rel = float(np.maximum(max_rel, gap))
    return {
        "expected": expected,
        "found": len(solutions),
        "counts_match": len(solutions) == expected,
        "max_rel_gap": max_rel,
    }
