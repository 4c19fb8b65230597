"""Scalar products of twisted Bethe states and their determinant forms.

The direct route contracts explicitly built vectors.  The compact route
evaluates the determinant formulas: the on-shell/off-shell overlap from the
Jacobian of the inhomogeneous eigenvalue, and the norm from the associated
Gaudin-type matrix.  Both routes are kept fully independent so that their
agreement is evidence, not bookkeeping.  Determinants are always taken at
the canonical sorted root order; the Cauchy and Jacobian factors then pick
up the same permutation signs and their ratio is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bethe import (
    CoincidenceError,
    SpectralContext,
    VariableSet,
    _as_set,
    _kernel_row,
    _leave_one_out,
    bethe_residuals,
    diag_residual,
    eigenvalue_gradient,
    kernel_g,
    onshell_tolerance,
    raising_eigenpart,
    transfer_eigenvalue,
)
from .linalg import determinant
from .solver import BetheSolution, probe_points
from .states import build_bethe_vector, build_dual_vector, w0
from .twist import twist_alpha

ERROR_FLOOR = 1e-30
# largest deviation of the norm matrix from its coinciding-point limit form
LIMIT_TOL = 1e-5


class OffShellError(ValueError):
    """A set required to satisfy the Bethe equations does not."""


@dataclass(frozen=True)
class OverlapReport:
    """Two-route evaluation of one overlap, with the relative gap."""

    direct: complex
    formula: complex
    relative_error: float


def relative_gap(a: complex, b: complex) -> float:
    # floored so orthogonal pairs do not divide zero by zero
    return abs(a - b) / max(abs(a), abs(b), ERROR_FLOOR)


def _require_onshell(
    ctx: SpectralContext, rs: VariableSet, label: str, res=None
) -> None:
    """Raise OffShellError unless the residuals of rs are within tolerance;
    res defaults to the Bethe residuals of the modified ansatz.  A root
    that is not finite is rejected first, before any arithmetic on it."""
    if not np.all(np.isfinite(rs.values)):
        raise OffShellError(f"{label} set is off shell: roots {rs.values.tolist()} are not all finite")
    res = np.abs(bethe_residuals(ctx, rs) if res is None else res)
    tau = onshell_tolerance(ctx, rs)
    # written so that a NaN residual or tolerance fails the test
    if not float(np.max(res)) <= tau:
        raise OffShellError(
            f"{label} set is off shell: residuals {res.tolist()}, "
            f"tolerance {tau:.3e}"
        )


def _require_disjoint(a: VariableSet, b: VariableSet) -> None:
    gaps = np.abs(a.values[:, None] - b.values[None, :])
    if float(np.min(gaps)) <= max(a.eps, b.eps):
        raise CoincidenceError("the two parameter sets share a point")


def scalar_direct(dual, ket) -> complex:
    """Plain contraction of dual amplitudes with ket amplitudes.

    No conjugation is involved: the dual vector already carries the left
    action, so the overlap is a bilinear pairing.
    """
    a = np.asarray(dual.amplitudes)
    b = np.asarray(ket.amplitudes)
    if a.shape != b.shape:
        raise ValueError(f"incompatible vector shapes {a.shape} and {b.shape}")
    return complex(a @ b)


def _cauchy_determinant(cauchy: np.ndarray) -> complex:
    """det of the Cauchy matrix g(free_i, onshell_j), the overlap formulas'
    denominator; a zero, which a Cauchy matrix of distinct points has only
    in rounding, is a ValueError naming it."""
    det = determinant(cauchy)
    if det == 0:
        raise ValueError(
            "the Cauchy matrix of the two parameter sets is singular in double "
            "precision, so the overlap formula has no denominator"
        )
    return det


def slavnov_formula(
    ctx: SpectralContext,
    us,
    vs,
    orientation: str = "u-onshell",
) -> complex:
    """Determinant form of the overlap of dual(us) with ket(vs) at full order.

    One of the two sets must solve the Bethe equations; the orientation
    selects which.  The Jacobian entry (i, j) is the derivative of the
    eigenvalue at the j-th free point with respect to the i-th on-shell
    root, the whole matrix from one broadcast ``eigenvalue_gradient`` call,
    and the Cauchy kernel is evaluated at the matching orientation.  The
    coupling's power c^n is taken inside the determinant as det(c J): J
    scales as 1/c, so at large |c| c^n overflows where det J underflows.
    """
    us = _as_set(us, ctx.c).sorted()
    vs = _as_set(vs, ctx.c).sorted()
    n = ctx.sites
    if len(us) != n or len(vs) != n:
        raise ValueError(f"both sets must have exactly {n} entries")
    _require_disjoint(us, vs)
    if orientation == "u-onshell":
        onshell, free = us, vs
    elif orientation == "v-onshell":
        onshell, free = vs, us
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    _require_onshell(ctx, onshell, orientation)
    jac = eigenvalue_gradient(ctx, free.values[None, :], onshell, np.arange(n)[:, None])
    cauchy = kernel_g(free.values[:, None], onshell.values[None, :], ctx.c)
    t, f = ctx.twist, ctx.fact
    stretch = t.kappa_tilde + t.kappa - f.rho
    prefactor = (f.mu ** 2 / stretch) ** n * w0(ctx, onshell)
    return prefactor * determinant(ctx.c * jac) / _cauchy_determinant(cauchy)


def gaudin_matrix(ctx: SpectralContext, roots) -> np.ndarray:
    """Norm matrix of the on-shell state, in the order the roots are given.

    Diagonal entries mix the logarithmic derivatives of the vacuum weights
    with pair kernels over the remaining roots; off-diagonal entries carry
    only the pair kernels of the removed pair.  All of them are read off
    the pair differences u_i - u_k, as in ``bethe_system``.
    """
    u = _as_set(roots, ctx.c).values
    c = ctx.c
    t, f = ctx.twist, ctx.fact
    x = t.kappa_tilde - f.rho
    y = t.kappa - f.rho
    sign = (-1) ** ctx.sites
    diag = np.eye(u.size, dtype=bool)
    d = u[:, None] - u[None, :]
    # row i holds h(u_k, u_i) and h(u_i, u_k), 1 on the diagonal; their
    # leave-one-out products are h(ubar_ij, u_i) and h(u_i, ubar_ij) at
    # (i, j), and h(ubar_i, u_i) and h(u_i, ubar_i) at (i, i)
    left = (c - d) / c
    right = (d + c) / c
    left[diag] = right[diag] = 1.0
    left, right = _leave_one_out(left), _leave_one_out(right)
    l1, l2 = ctx.lam(u)
    d1, d2 = ctx.dlam(u)
    s1 = np.sum(left, axis=1, where=~diag)
    s2 = np.sum(right, axis=1, where=~diag)
    # off the diagonal, entry (i, j) carries the kernels of u_j over ubar_ij
    g = (sign * x * l1[:, None] * left - y * l2[:, None] * right).T
    g[diag] = (
        2 * f.rho * c * (l2 * d1 + l1 * d2)
        + sign * x * (c * np.diagonal(left) * d1 - l1 * s1)
        + y * (c * np.diagonal(right) * d2 + l2 * s2)
    )
    return g


def gaudin_limit_deviation(
    ctx: SpectralContext, roots, matrix: np.ndarray | None = None
) -> float:
    """Check the matrix against the coinciding-point limit of the Jacobian.

    Each entry must equal lim c * dLam/du_i / g(v_j, ubar) as v_j
    approaches u_j.  The limit is taken numerically as the mean of the
    values at offsets +h and -h, h = 1e-4 |c|: the kernel g = c/(u - v)
    varies on the scale |c|, so the offset is the same fraction of it at
    every coupling.  The symmetric mean cancels the linear error term
    without the rounding gain of a one-sided extrapolation near the pole.
    At |c| <= 1e-5 the offset is within the coincidence guard
    ``eps_dist(c)``, which is absolute there, and the kernel raises
    CoincidenceError.  The return value is the worst relative deviation
    over all entries, NaN when any entry's is, or when a root is not
    finite, which is answered before any arithmetic.
    ``matrix`` is gaudin_matrix(ctx, roots) when the caller already holds
    it.
    """
    rs = _as_set(roots, ctx.c)
    if not np.all(np.isfinite(rs.values)):
        return float("nan")
    n = len(rs)
    ref = gaudin_matrix(ctx, rs) if matrix is None else matrix
    # deviations are measured against the matrix scale, not entrywise: the
    # extrapolation error of a small entry is set by the large ones
    floor = max(1.0, float(np.max(np.abs(ref))))
    h = 1e-4 * abs(ctx.c)
    deviations = []
    for i in range(n):
        for j in range(n):

            def raw(eps: float) -> complex:
                vj = rs[j] + eps
                return (
                    ctx.c
                    * eigenvalue_gradient(ctx, vj, rs, i)
                    / np.prod(kernel_g(vj, rs.values, ctx.c))
                )

            limit = (raw(h) + raw(-h)) / 2
            deviations.append(abs(limit - ref[i, j]) / floor)
    # np.max, unlike the builtin max, propagates a NaN
    return float(np.max(deviations, initial=0.0))


def gaudin_norm(
    ctx: SpectralContext,
    roots,
    verify_limit: bool = True,
) -> complex:
    """Determinant form of the squared norm of an on-shell state."""
    rs = _as_set(roots, ctx.c).sorted()
    n = ctx.sites
    if len(rs) != n:
        raise ValueError(f"the norm formula needs exactly {n} roots")
    _require_onshell(ctx, rs, "norm")
    gaudin = gaudin_matrix(ctx, rs)
    if verify_limit:
        dev = gaudin_limit_deviation(ctx, rs, gaudin)
        if not dev <= LIMIT_TOL:
            raise ValueError(
                f"norm matrix disagrees with its limit form by {dev:.3e}"
            )
    t, f = ctx.twist, ctx.fact
    stretch = t.kappa_tilde + t.kappa - f.rho
    upper, lower = np.triu_indices(n, 1)
    a, b = rs.values[upper], rs.values[lower]
    pair = np.prod(kernel_g(a, b, ctx.c) * kernel_g(b, a, ctx.c))
    prefactor = (f.mu ** 2 / stretch) ** n * w0(ctx, rs) * pair
    return prefactor * determinant(gaudin)


def slavnov_norm_limit(ctx: SpectralContext, roots) -> complex:
    """Overlap formula at a perturbed copy of the roots, extrapolated back.

    Confirms that the norm is the coinciding-set limit of the overlap: the
    free set is displaced by eps times (1, ..., N), and the mean of the
    displacements +eps and -eps, eps = 1e-5 max(1, |c|), removes the
    linear error.
    """
    rs = _as_set(roots, ctx.c).sorted()
    offsets = np.arange(1, len(rs) + 1, dtype=complex)
    eps = 1e-5 * max(1.0, abs(ctx.c))

    def sample(eps: float) -> complex:
        shifted = VariableSet(rs.values + eps * offsets, rs.eps)
        return slavnov_formula(ctx, rs, shifted, "u-onshell")

    return (sample(eps) + sample(-eps)) / 2


def _classical_gradient(ctx: SpectralContext, u, vs: VariableSet, i: int) -> complex:
    # two-term Jacobian of the diagonal eigenvalue; deliberately coded
    # apart from the full gradient so the U(1) reduction is compared
    # against an independent path
    t = ctx.twist
    l1, l2 = ctx.lam(u)
    gi = kernel_g(u, vs[i], ctx.c)
    g = _kernel_row(u, vs.values, ctx.c, i)
    return (
        gi ** 2
        / ctx.c
        * (-t.kappa_tilde * l1 * np.prod(1 - g) + t.kappa * l2 * np.prod(1 + g))
    )


def classical_slavnov(ctx: SpectralContext, us, vs) -> complex:
    """Reference overlap for a diagonal twist, vs on shell.

    The standard two-term determinant formula for the sector-preserving
    chain; used to confirm that the modified formula degrades to it when
    the sector-breaking coupling is switched off.
    """
    us = _as_set(us, ctx.c).sorted()
    vs = _as_set(vs, ctx.c).sorted()
    if len(us) != len(vs):
        raise ValueError("classical overlap needs sets of equal size")
    _require_disjoint(us, vs)
    t = ctx.twist
    m = len(vs)
    res = [diag_residual(ctx, i, vs, t.kappa_tilde, t.kappa) for i in range(m)]
    _require_onshell(ctx, vs, "classical", res)
    lam2bar = 1.0 + 0.0j
    for v in vs:
        lam2bar *= ctx.lam(v)[1]
    jac = np.array(
        [
            [_classical_gradient(ctx, us[j], vs, i) for j in range(m)]
            for i in range(m)
        ]
    )
    cauchy = kernel_g(us.values[:, None], vs.values[None, :], ctx.c)
    prefactor = (1 / t.kappa_tilde) ** m * lam2bar
    return prefactor * determinant(ctx.c * jac) / _cauchy_determinant(cauchy)


def n1_reference(ctx: SpectralContext, u: complex, v: complex) -> dict:
    """Closed-form cross-checks available on the two-site-free chain.

    Evaluates the off-shell parametrization of the single-root overlap, the
    symmetric-coupling alternative, and (when v is on shell) the reduction
    obtained by trading the quadratic weight term for the linear ones.
    All are compared against the direct contraction.
    """
    if ctx.sites != 1:
        raise ValueError("closed forms are specific to a single-site chain")
    if abs(u - v) <= max(1e-12, ctx.roots([u]).eps):
        raise CoincidenceError("u and v must be distinct")
    t, f = ctx.twist, ctx.fact
    stretch = t.kappa_tilde + t.kappa - f.rho
    dual = build_dual_vector(ctx.modified, ctx.roots([u]))
    ket = build_bethe_vector(ctx.modified, ctx.roots([v]))
    direct = scalar_direct(dual, ket)

    l1u, l2u = ctx.lam(u)
    l1v, l2v = ctx.lam(v)
    g_uv = kernel_g(u, v, ctx.c)
    s_diag = g_uv * (l1v * l2u - l1u * l2v)
    w0u = l1u + l2u
    w0v = l1v + l2v
    parametrized = f.mu * (
        s_diag
        + (f.mu / stretch)
        * (
            raising_eigenpart(ctx, u, ctx.roots([v])) * w0v
            + raising_eigenpart(ctx, v, ctx.roots([u])) * w0u
        )
    )
    report = {
        "direct": direct,
        "parametrized": parametrized,
        "parametrization_error": relative_gap(direct, parametrized),
        "onshell_reduction": None,
        "onshell_reduction_error": None,
    }
    if f.rho != 0:
        # quadratic weight rewritten through the coupling product; only
        # meaningful when the sector-breaking part is present
        alternative = f.mu ** 2 * s_diag + f.mu ** 2 * (
            f.rho ** 2 / (t.kappa_plus * t.kappa_minus)
        ) * w0u * w0v
        report["alternative"] = alternative
        report["alternative_error"] = relative_gap(direct, alternative)
    vset = ctx.roots([v])
    resv = abs(bethe_residuals(ctx, vset)[0])
    if resv <= onshell_tolerance(ctx, vset):
        reduced = (
            -(f.mu ** 2 / stretch)
            * w0v
            * bethe_residuals(ctx, ctx.roots([u]))[0]
            * kernel_g(v, u, ctx.c)
        )
        report["onshell_reduction"] = reduced
        report["onshell_reduction_error"] = relative_gap(direct, reduced)
    return report


def simple_aba_check(
    ctx: SpectralContext, solutions: list[BetheSolution] | None = None
) -> dict:
    """Verify the eigenvalue branch built from one twist eigenvalue alone.

    The branch alpha*lam1 + (kappa + kappa_tilde - alpha)*lam2 must appear
    in the exact spectrum at every probe point.  When a solution list is
    supplied, the root set whose eigenvalue tracks the branch is reported.
    """
    alpha = twist_alpha(ctx.twist)
    beta = ctx.twist.kappa + ctx.twist.kappa_tilde - alpha
    pts = probe_points(ctx, 5)
    worst = 0.0
    branch = []
    for p in pts:
        l1, l2 = ctx.lam(p)
        val = alpha * l1 + beta * l2
        branch.append(val)
        worst = max(worst, float(np.min(np.abs(ctx.spectrum(p) - val))))
    report = {
        "alpha": alpha,
        "max_spectrum_gap": worst,
        "matched_index": None,
        "matched_gap": None,
    }
    if solutions:
        gaps = []
        for sol in solutions:
            gap = max(
                abs(transfer_eigenvalue(ctx, p, sol.roots) - b)
                for p, b in zip(pts, branch)
            )
            gaps.append(gap)
        best = int(np.argmin(gaps))
        report["matched_index"] = best
        report["matched_gap"] = float(gaps[best])
    return report


def overlap_report(
    ctx: SpectralContext,
    us,
    vs,
    orientation: str = "u-onshell",
    modified=None,
) -> OverlapReport:
    """Both overlap routes side by side for dual(us) against ket(vs);
    ``modified`` defaults to ctx.modified."""
    us = _as_set(us, ctx.c).sorted()
    vs = _as_set(vs, ctx.c).sorted()
    if modified is None:
        modified = ctx.modified
    direct = scalar_direct(
        build_dual_vector(modified, us), build_bethe_vector(modified, vs)
    )
    formula = slavnov_formula(ctx, us, vs, orientation)
    return OverlapReport(
        direct=direct,
        formula=formula,
        relative_error=relative_gap(direct, formula),
    )


def norm_report(ctx: SpectralContext, roots, modified=None) -> OverlapReport:
    """Both norm routes side by side for an on-shell root set;
    ``modified`` defaults to ctx.modified."""
    rs = _as_set(roots, ctx.c).sorted()
    if modified is None:
        modified = ctx.modified
    direct = scalar_direct(
        build_dual_vector(modified, rs), build_bethe_vector(modified, rs)
    )
    formula = gaudin_norm(ctx, rs)
    return OverlapReport(
        direct=direct,
        formula=formula,
        relative_error=relative_gap(direct, formula),
    )
