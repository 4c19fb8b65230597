"""Bethe vectors as explicit amplitude arrays, and the action identities.

Everything here is desk-scale linear algebra on 2^N components, so each
algebraic identity can be checked as a concrete vector equation.  Vectors
stay unnormalized throughout: the determinant formulas downstream are
normalization sensitive, so no hidden rescaling is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bethe import (
    CoincidenceError,
    SpectralContext,
    VariableSet,
    _as_set,
    action_coefficients,
    eps_dist,
    kernel_g,
    raising_eigenpart,
    transfer_eigenvalue,
)
from .chain import MonodromyFamily, _contract, _scaled_gap, vacuum_state


def _sites_of(family: MonodromyFamily) -> int:
    d = family.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError(f"operator dimension {d} is not a power of two")
    return n


def _prepend(u: complex, vs: VariableSet) -> VariableSet:
    # coincidence of u with an existing entry is rejected by the constructor
    return VariableSet(np.concatenate(([u], vs.values)), vs.eps)


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


class _StringBuilder:
    """Creation strings over subsets of one list of points, each operator
    matrix given once.

    ``mats[k]`` is the creation operator at point k; calling the builder
    with a tuple of point indices applies one matrix per index, rightmost
    first, to the reference state, exactly as ``build_bethe_vector`` does
    for those points.  Every partial string (the string of a suffix of the
    tuple) is kept, read-only, so a string starts from its longest suffix
    built before, one matrix-vector product per new index, and its
    amplitudes are those of the full build bit for bit.
    """

    def __init__(self, mats, sites: int):
        self.mats = list(mats)
        vacuum = vacuum_state(sites)
        vacuum.setflags(write=False)
        self.strings = {(): vacuum}

    def __call__(self, keys: tuple) -> np.ndarray:
        start = next(k for k in range(len(keys) + 1) if keys[k:] in self.strings)
        amp = self.strings[keys[start:]]
        for k in reversed(range(start)):
            amp = self.mats[keys[k]] @ amp
            amp.setflags(write=False)
            self.strings[keys[k:]] = amp
        return amp


def offshell_action_residuals(
    nu: MonodromyFamily, ctx: SpectralContext, u, roots
) -> dict[str, float]:
    """Residuals of the five action identities on a creation string, each
    relative to the larger side's norm with a unit floor.

    Keys: nu12_action (pure raising, probed through a permuted build order),
    nu11_action, nu22_action, nu21_action (with both lowering sums), and
    transfer_action.  Every scalar coefficient is read off one
    ``action_coefficients`` call.
    """
    rs = _as_set(roots, ctx.c)
    m = len(rs)
    n = _sites_of(nu)
    if m > n:
        raise ValueError(f"need at most {n} parameters, got {m}")
    u = complex(u)
    f = ctx.fact
    rp = f.ratio_plus
    coef = action_coefficients(ctx, u, rs)

    # each operator is evaluated once per point: all four at u, the
    # creation operator alone at each root; every string below is a
    # product of these matrices, keyed by point index with the probe at 0
    # and root i at i + 1
    at_u = nu.at(u)
    (t11u, t12u), (t21u, t22u) = at_u
    string = _StringBuilder([t12u, *(nu.t12(x) for x in rs.values)], n)
    roots_at = tuple(range(1, m + 1))

    def without(*skip) -> tuple:
        return tuple(k for k in roots_at if k - 1 not in skip)

    base = string(roots_at)
    plus = string((0, *roots_at))

    # creation: apply last vs apply first, equal only because the family
    # commutes with itself
    permuted = string((*roots_at, 0))
    r12 = _scaled_gap(t12u @ base, permuted)

    def strings(keys) -> np.ndarray:
        out = np.empty((len(keys), base.size), dtype=complex)
        for row, key in zip(out, keys):
            row[:] = string(key)
        return out

    # B(u, ubar_i): the i-th argument traded for the probe point
    swapped = strings([(0, *without(i)) for i in range(m)])

    def diagonal_side(x, y, raising) -> np.ndarray:
        """Right side of the action of x nu11 + y nu22 on the string, the
        order-(m+1) string weighted by ``raising``."""
        return raising * plus + coef.diag_eigenvalue(x, y) * base + coef.swapped(x, y) @ swapped

    r11 = _scaled_gap(t11u @ base, diagonal_side(1.0, 0.0, rp))
    r22 = _scaled_gap(t22u @ base, diagonal_side(0.0, 1.0, rp))

    # nu21 adds the lowering sums: B(ubar_i) and B(u, ubar_ij)
    first, second = np.triu_indices(m, 1)
    acc21 = (
        rp * diagonal_side(1.0, 1.0, rp)
        + coef.F @ strings([without(i) for i in range(m)])
        + coef.G[first, second] @ strings([(0, *without(i, j)) for i, j in zip(first, second)])
    )
    r21 = _scaled_gap(t21u @ base, acc21)

    # the transfer matrix tr_a(D nu(u)), from the blocks above
    x, y = np.diag(f.d_factor)
    acct = diagonal_side(x, y, ctx.twist.kappa_minus / f.mu)
    rt = _scaled_gap(_contract(at_u, f.d_factor.T) @ base, acct)

    return {
        "nu12_action": r12,
        "nu11_action": r11,
        "nu22_action": r22,
        "nu21_action": r21,
        "transfer_action": rt,
    }


def raising_identity_residual(
    nu: MonodromyFamily, ctx: SpectralContext, u, roots
) -> float:
    """Residual of the closure identity expressing the order-(N+1) string
    through order-N strings, relative to the sum of the norms of its lhs and
    of every term on its rhs; requires exactly N parameters."""
    rs = _as_set(roots, ctx.c)
    n = _sites_of(nu)
    if len(rs) != n:
        raise ValueError(f"closure identity needs exactly {n} parameters")
    u = complex(u)
    c = ctx.c
    f = ctx.fact

    # the probe is point 0, root i is point i + 1
    string = _StringBuilder([nu.t12(x) for x in _prepend(u, rs).values], n)
    roots_at = tuple(range(1, n + 1))
    lhs = (ctx.twist.kappa_minus / f.mu) * string((0, *roots_at))
    terms = [raising_eigenpart(ctx, u, rs) * string(roots_at)]
    for i in range(n):
        rest = rs.drop(i)
        coeff = kernel_g(rs[i], u, c) * raising_eigenpart(ctx, rs[i], rest)
        terms.append(coeff * string((0, *roots_at[:i], *roots_at[i + 1 :])))
    # the terms can be many orders larger than their sum and cancel, so the
    # gap is taken relative to the sum of all the norms, with a unit floor
    scale = max(1.0, sum(float(np.linalg.norm(v)) for v in (lhs, *terms)))
    return float(np.linalg.norm(lhs - sum(terms)) / scale)


def eigenstate_residual(
    nu: MonodromyFamily, ctx: SpectralContext, roots, u, dual: bool = False
) -> float:
    """Relative residual of the eigenstate property at a probe point; only
    meaningful for on-shell parameter sets of full order."""
    rs = _as_set(roots, ctx.c)
    lam = transfer_eigenvalue(ctx, u, rs)
    tmat = _contract(nu.at(complex(u)), ctx.fact.d_factor.T)
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
        op = _contract(nu.at(u), ctx.fact.d_factor.T)
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


@dataclass(frozen=True)
class ProjectionExpansion:
    parameters: VariableSet
    terms: tuple
    w0_expansion: complex
    w0_direct: complex | None
    w0_difference: float | None


def _weight_table(ctx: SpectralContext, values) -> np.ndarray:
    """Every ordered-partition weight of the parameters in one table.

    Entry S (bit k set = parameter k merged) is W(S | V - S): the product
    over the merged block, each factor D(u, T) = lam1(u) f(T, u)
    + lam2(u) f(u, T) evaluated against everything after it in the order
    plus the kept block V - S, averaged over the orders of S.  Conditioning
    on the last element of the order, whose factor faces only V - S, gives

        W(S | V - S) = (1/|S|) sum_{j in S} D(u_j, V - S) W(S - j | V - (S - j)),

    so the table fills in order of |S| from W(empty) = 1.  The f-products
    over every T are built by doubling, one parameter at a time, and never
    divide by f, so sets with u_k - u_j = -c (where an f vanishes) stay
    exact; the only division is by |S|.  O(2^m m) operations in all.
    """
    u = np.asarray(values, dtype=complex)
    m = u.size
    c = ctx.c
    gap = u[:, None] - u[None, :]
    off = ~np.eye(m, dtype=bool)
    if np.any(np.abs(gap[off]) <= eps_dist(c)):
        raise CoincidenceError("kernel g evaluated at coincident parameters")
    gap[~off] = 1.0
    g = c / gap  # g[j, k] = g(u_j, u_k); f(u_k, u_j) = 1 - g, f(u_j, u_k) = 1 + g
    size = 1 << m
    left = np.ones((size, m), dtype=complex)  # [T, j]: f(T, u_j)
    right = np.ones((size, m), dtype=complex)  # [T, j]: f(u_j, T)
    for k in range(m):
        half = 1 << k
        np.multiply(left[:half], 1.0 - g[:, k], out=left[half : 2 * half])
        np.multiply(right[:half], 1.0 + g[:, k], out=right[half : 2 * half])
    l1, l2 = ctx.lam(u)
    d = l1 * left + l2 * right  # d[T, j] = D(u_j, T)

    masks = np.arange(size)
    bits = 1 << np.arange(m)
    inside = (masks[:, None] & bits) != 0
    order = inside.sum(axis=1)
    table = np.zeros(size, dtype=complex)
    table[0] = 1.0
    for s in range(1, m + 1):
        sets = np.flatnonzero(order == s)
        terms = d[(size - 1) ^ sets] * table[sets[:, None] ^ bits]
        table[sets] = np.sum(terms, axis=1, where=inside[sets]) / s
    return table


def w0(ctx: SpectralContext, roots) -> complex:
    """Scalar normalization of the creation string: the fully merged weight.

    The symmetrized product over all m! orders of the set, computed by the
    subset recursion of ``_weight_table`` in O(2^m m) operations.  This
    matrix-free route stays finite in the diagonal limit, where the direct
    vacuum-overlap definition degenerates to 0/0.
    """
    rs = _as_set(roots, ctx.c)
    return complex(_weight_table(ctx, rs.values)[-1])


def projection_expansion(ctx: SpectralContext, roots) -> ProjectionExpansion:
    """All ordered-partition weights, plus the scalar normalization computed
    both matrix-free and from the vacuum overlap (when the twist allows).

    Every term's weight W(merged | kept) is read from the one subset table
    of ``_weight_table`` (O(2^m m) operations for all 2^m terms), whose
    full entry is w0.
    """
    rs = _as_set(roots, ctx.c)
    vals = tuple(complex(x) for x in rs.values)
    m = len(vals)
    f = ctx.fact
    table = _weight_table(ctx, rs.values)
    terms = []
    for size_kept in range(m + 1):
        for kept_idx in combinations(range(m), size_kept):
            merged_idx = [k for k in range(m) if k not in kept_idx]
            terms.append(
                ProjectionTerm(
                    kept=tuple(vals[k] for k in kept_idx),
                    merged=tuple(vals[k] for k in merged_idx),
                    weight=complex(table[sum(1 << k for k in merged_idx)]),
                )
            )
    w0_exp = complex(table[-1])
    w0_dir = None
    diff = None
    if f.rho != 0 and ctx.twist.kappa_minus != 0:
        amp = build_bethe_vector(ctx.modified, rs).amplitudes
        ratio = ctx.twist.kappa_minus / (f.mu * f.rho)
        w0_dir = complex(ratio ** m * (vacuum_state(ctx.sites) @ amp))
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
    build = build_dual_vector if dual else build_bethe_vector
    out = np.zeros(2 ** n, dtype=complex)
    for term in expansion.terms:
        pref = fact.mu ** m * ratio ** (m - len(term.kept)) * term.weight
        kept = VariableSet(term.kept, expansion.parameters.eps)
        out = out + pref * build(family, kept).amplitudes
    return out
