"""Bethe vectors as explicit amplitude arrays, and the action identities.

Everything here is desk-scale linear algebra on 2^N components, so each
algebraic identity can be checked as a concrete vector equation.  Vectors
stay unnormalized throughout: the determinant formulas downstream are
normalization sensitive, so no hidden rescaling is allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .bethe import (
    SpectralContext,
    VariableSet,
    _as_set,
    diag_eigenvalue,
    diag_residual,
    kernel_g,
    prod_f,
    raising_eigenpart,
    term_F,
    term_G,
    transfer_eigenvalue,
)
from .chain import MonodromyFamily, build_monodromy, vacuum_state
from .twist import build_modified_operators


def _sites_of(family: MonodromyFamily) -> int:
    d = family.t12.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError(f"operator dimension {d} is not a power of two")
    return n


def _prepend(u: complex, vs: VariableSet) -> VariableSet:
    # coincidence of u with an existing entry is rejected by the constructor
    return VariableSet(np.concatenate(([u], vs.values)), vs.eps)


def _append(u: complex, vs: VariableSet) -> VariableSet:
    return VariableSet(np.concatenate((vs.values, [u])), vs.eps)


@dataclass(frozen=True)
class BetheVector:
    """An unnormalized creation-string state.

    ``amplitudes`` is the full 2^N coefficient vector; ``dual`` marks a row
    vector built from the annihilation-side string instead.  ``oversized``
    flags more parameters than sites, where the construction still runs but
    carries no on-shell meaning.
    """

    parameters: VariableSet
    amplitudes: np.ndarray
    dual: bool = False
    oversized: bool = False

    @property
    def order(self) -> int:
        return len(self.parameters)


def build_bethe_vector(nu: MonodromyFamily, roots) -> BetheVector:
    """Apply the modified creation operator once per parameter, rightmost
    argument first, starting from the all-up reference state."""
    rs = roots if isinstance(roots, VariableSet) else VariableSet(roots)
    n = _sites_of(nu)
    amp = vacuum_state(n)
    for u in reversed(rs.values):
        amp = nu.t12(u) @ amp
    return BetheVector(
        parameters=rs, amplitudes=amp, dual=False, oversized=len(rs) > n
    )


def build_dual_vector(nu: MonodromyFamily, roots) -> BetheVector:
    """Row vector: dual reference state times one annihilation-side factor
    per parameter, leftmost argument first."""
    rs = roots if isinstance(roots, VariableSet) else VariableSet(roots)
    n = _sites_of(nu)
    amp = vacuum_state(n)
    for u in rs.values:
        amp = amp @ nu.t21(u)
    return BetheVector(
        parameters=rs, amplitudes=amp, dual=True, oversized=len(rs) > n
    )


def transfer_from_modified(
    nu: MonodromyFamily, ctx: SpectralContext, u: complex
) -> np.ndarray:
    """Transfer matrix at u through its modified diagonal form."""
    t, f = ctx.twist, ctx.fact
    return (t.kappa_tilde - f.rho) * nu.t11(u) + (t.kappa - f.rho) * nu.t22(u)


def offshell_action_residuals(
    nu: MonodromyFamily, ctx: SpectralContext, u, roots
) -> dict[str, float]:
    """Residual norms of the five action identities on a creation string.

    Keys: nu12_action (pure raising, probed through a permuted build order),
    nu11_action, nu22_action, nu21_action (with both lowering sums), and
    transfer_action.
    """
    rs = _as_set(roots, ctx.c)
    m = len(rs)
    n = _sites_of(nu)
    if m > n:
        raise ValueError(f"need at most {n} parameters, got {m}")
    u = complex(u)
    c = ctx.c
    f = ctx.fact
    rp = f.ratio_plus

    base = build_bethe_vector(nu, rs).amplitudes
    plus = build_bethe_vector(nu, _prepend(u, rs)).amplitudes
    # B(u, ubar_i): the i-th argument traded for the probe point
    swapped = [
        build_bethe_vector(nu, _prepend(u, rs.drop(i))).amplitudes
        for i in range(m)
    ]

    # creation: apply last vs apply first, equal only because the family
    # commutes with itself
    permuted = build_bethe_vector(nu, _append(u, rs)).amplitudes
    r12 = np.linalg.norm(nu.t12(u) @ base - permuted)

    acc11 = rp * plus + diag_eigenvalue(ctx, u, rs, 1.0, 0.0) * base
    acc22 = rp * plus + diag_eigenvalue(ctx, u, rs, 0.0, 1.0) * base
    for i in range(m):
        ui = rs[i]
        rest = rs.drop(i)
        l1, l2 = ctx.lam(ui)
        acc11 = acc11 + kernel_g(u, ui, c) * l1 * prod_f(rest, ui, c) * swapped[i]
        acc22 = acc22 + kernel_g(ui, u, c) * l2 * prod_f(ui, rest, c) * swapped[i]
    r11 = np.linalg.norm(nu.t11(u) @ base - acc11)
    r22 = np.linalg.norm(nu.t22(u) @ base - acc22)

    acc21 = rp ** 2 * plus + rp * diag_eigenvalue(ctx, u, rs, 1.0, 1.0) * base
    for i in range(m):
        acc21 = acc21 + rp * kernel_g(rs[i], u, c) * diag_residual(
            ctx, i, rs, 1.0, 1.0
        ) * swapped[i]
        lowered = build_bethe_vector(nu, rs.drop(i)).amplitudes
        acc21 = acc21 + term_F(ctx, u, i, rs) * lowered
    for i in range(m):
        for j in range(i + 1, m):
            pair = build_bethe_vector(nu, _prepend(u, rs.drop2(i, j))).amplitudes
            acc21 = acc21 + term_G(ctx, u, i, j, rs) * pair
    r21 = np.linalg.norm(nu.t21(u) @ base - acc21)

    x = ctx.twist.kappa_tilde - f.rho
    y = ctx.twist.kappa - f.rho
    acct = (ctx.twist.kappa_minus / f.mu) * plus + diag_eigenvalue(
        ctx, u, rs, x, y
    ) * base
    for i in range(m):
        acct = acct + kernel_g(rs[i], u, c) * diag_residual(
            ctx, i, rs, x, y
        ) * swapped[i]
    rt = np.linalg.norm(transfer_from_modified(nu, ctx, u) @ base - acct)

    return {
        "nu12_action": float(r12),
        "nu11_action": float(r11),
        "nu22_action": float(r22),
        "nu21_action": float(r21),
        "transfer_action": float(rt),
    }


def raising_identity_residual(
    nu: MonodromyFamily, ctx: SpectralContext, u, roots
) -> float:
    """Residual of the closure identity expressing the order-(N+1) string
    through order-N strings; requires exactly N parameters."""
    rs = _as_set(roots, ctx.c)
    n = _sites_of(nu)
    if len(rs) != n:
        raise ValueError(f"closure identity needs exactly {n} parameters")
    u = complex(u)
    c = ctx.c
    f = ctx.fact

    lhs = (ctx.twist.kappa_minus / f.mu) * build_bethe_vector(
        nu, _prepend(u, rs)
    ).amplitudes
    rhs = raising_eigenpart(ctx, u, rs) * build_bethe_vector(nu, rs).amplitudes
    for i in range(n):
        rest = rs.drop(i)
        coeff = kernel_g(rs[i], u, c) * raising_eigenpart(ctx, rs[i], rest)
        rhs = rhs + coeff * build_bethe_vector(nu, _prepend(u, rest)).amplitudes
    # relative up to a unit floor: the amplitudes grow with the chain and
    # an absolute gap would just measure their magnitude
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs) / scale)


def eigenstate_residual(
    nu: MonodromyFamily, ctx: SpectralContext, roots, u, dual: bool = False
) -> float:
    """Relative residual of the eigenstate property at a probe point; only
    meaningful for on-shell parameter sets of full order."""
    rs = _as_set(roots, ctx.c)
    lam = transfer_eigenvalue(ctx, u, rs)
    tmat = transfer_from_modified(nu, ctx, complex(u))
    if dual:
        vec = build_dual_vector(nu, rs).amplitudes
        resid = vec @ tmat - lam * vec
    else:
        vec = build_bethe_vector(nu, rs).amplitudes
        resid = tmat @ vec - lam * vec
    scale = max(np.linalg.norm(vec) * abs(lam), 1e-300)
    return float(np.linalg.norm(resid) / scale)


def sector_mask(sites: int, n_down: int) -> np.ndarray:
    """Boolean mask over the product basis selecting a fixed number of
    flipped spins (basis index bit = flipped site)."""
    return np.array(
        [bin(i).count("1") == n_down for i in range(2 ** sites)], dtype=bool
    )


def raising_coefficient(
    nu: MonodromyFamily, ctx: SpectralContext, u, roots, which: str
) -> complex:
    """Fit the coefficient of the order-(M+1) string in an operator action.

    Projects both sides onto the (M+1)-flip sector, where only the raising
    term survives, then solves the one-parameter least-squares fit.
    """
    rs = _as_set(roots, ctx.c)
    m = len(rs)
    n = _sites_of(nu)
    if m + 1 > n:
        raise ValueError("no higher sector available to project onto")
    u = complex(u)
    if which == "transfer":
        op = transfer_from_modified(nu, ctx, u)
    elif which in ("nu11", "nu22", "nu21"):
        op = getattr(nu, "t" + which[2:])(u)
    else:
        raise ValueError(f"unknown operator label {which!r}")
    mask = sector_mask(n, m + 1)
    acted = (op @ build_bethe_vector(nu, rs).amplitudes)[mask]
    target = build_bethe_vector(nu, _prepend(u, rs)).amplitudes[mask]
    den = np.vdot(target, target)
    if den == 0:
        raise ValueError("target string has no amplitude in the sector")
    return complex(np.vdot(target, acted) / den)


# ---------------------------------------------------------------------------
# Projection of the modified creation string onto plain-operator strings.


@dataclass(frozen=True)
class ProjectionTerm:
    """One ordered-partition term: ``kept`` arguments stay inside the plain
    creation string, ``merged`` ones are absorbed into the scalar weight."""

    kept: tuple
    merged: tuple
    weight: complex

    @property
    def sym_arity(self) -> int:
        return len(self.merged)


@dataclass(frozen=True)
class ProjectionExpansion:
    parameters: VariableSet
    terms: tuple
    w0_expansion: complex
    w0_direct: complex | None
    w0_difference: float | None


def w_coefficient(ctx: SpectralContext, merged, kept=()) -> complex:
    """Symmetrized weight of an ordered partition.

    Product over the merged block, each factor evaluated against everything
    strictly after it in the permuted order plus the whole kept block;
    averaged over permutations of the merged block.
    """
    merged = tuple(complex(x) for x in merged)
    kept = tuple(complex(x) for x in kept)
    m = len(merged)
    if m == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in permutations(merged):
        prod = 1.0 + 0.0j
        for j, uj in enumerate(perm):
            prod *= diag_eigenvalue(ctx, uj, perm[j + 1 :] + kept, 1.0, 1.0)
        total += prod
    return total / math.factorial(m)


def w0(ctx: SpectralContext, roots) -> complex:
    """Scalar normalization of the creation string: the fully merged weight.

    This matrix-free route stays finite in the diagonal limit, where the
    direct vacuum-overlap definition degenerates to 0/0.
    """
    rs = _as_set(roots, ctx.c)
    return w_coefficient(ctx, tuple(rs.values), ())


def projection_expansion(
    ctx: SpectralContext, roots, modified: MonodromyFamily | None = None
) -> ProjectionExpansion:
    """All ordered-partition weights, plus the scalar normalization computed
    both matrix-free and from the vacuum overlap (when the twist allows)."""
    rs = _as_set(roots, ctx.c)
    vals = tuple(complex(x) for x in rs.values)
    m = len(vals)
    f = ctx.fact
    terms = []
    for size_kept in range(m + 1):
        for kept_idx in combinations(range(m), size_kept):
            kept = tuple(vals[k] for k in kept_idx)
            merged = tuple(
                vals[k] for k in range(m) if k not in kept_idx
            )
            terms.append(
                ProjectionTerm(
                    kept=kept,
                    merged=merged,
                    weight=w_coefficient(ctx, merged, kept),
                )
            )
    w0_exp = next(t.weight for t in terms if not t.kept)
    w0_dir = None
    diff = None
    if f.rho != 0 and ctx.twist.kappa_minus != 0:
        if modified is None:
            modified = build_modified_operators(build_monodromy(ctx.chain), f)
        n = _sites_of(modified)
        amp = build_bethe_vector(modified, rs).amplitudes
        ratio = ctx.twist.kappa_minus / (f.mu * f.rho)
        w0_dir = complex(ratio ** m * (vacuum_state(n) @ amp))
        diff = abs(w0_exp - w0_dir)
    return ProjectionExpansion(
        parameters=rs,
        terms=tuple(terms),
        w0_expansion=w0_exp,
        w0_direct=w0_dir,
        w0_difference=diff,
    )


def reassemble_projection(
    expansion: ProjectionExpansion,
    family: MonodromyFamily,
    fact,
    dual: bool = False,
) -> np.ndarray:
    """Rebuild the modified string from plain-operator strings.

    The ket expansion weights carry powers of rho over the annihilation-side
    twist entry; the dual expansion mirrors them with the creation-side one.
    """
    n = _sites_of(family)
    m = len(expansion.parameters)
    ratio = fact.ratio_plus if dual else fact.ratio_minus
    out = np.zeros(2 ** n, dtype=complex)
    for term in expansion.terms:
        pref = fact.mu ** m * ratio ** (m - len(term.kept)) * term.weight
        if dual:
            vec = vacuum_state(n)
            for x in term.kept:
                vec = vec @ family.t21(x)
        else:
            vec = vacuum_state(n)
            for x in reversed(term.kept):
                vec = family.t12(x) @ vec
        out = out + pref * vec
    return out
