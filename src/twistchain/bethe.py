"""Scalar layer of the modified Bethe ansatz: kernels, eigenvalues, residuals.

Kernels on C^2 spectral parameters:

    g(u, v) = c / (u - v),   f(u, v) = 1 + g(u, v),   h(u, v) = f/g.

Arguments written as sets mean products over all pairs, with the empty
product equal to 1; ubar_i and ubar_ij denote the set with one or two
entries removed.  Every such product is read off an array of g values: the
kernel row g(x, ubar) of one point against a set for the scalar
coefficients, the pair-difference matrix of a batch of sets for the Bethe
residuals and Jacobians.  Entries are left out by index, never divided out,
so a vanishing f stays exact.  On top of the kernels sit the inhomogeneous
eigenvalue of the twisted transfer matrix,

    Lam(u, ubar) = (kt - rho) lam1(u) f(ubar, u)
                 + (k  - rho) lam2(u) f(u, ubar)
                 + 2 rho lam1(u) lam2(u) g(u, ubar),

its off-shell residual E(u_i, ubar_i) (the Bethe equations read E = 0), the
analytic Jacobians of both, and the equivalent T-Q relation, written once as
a matrix on the coefficients of Q that the spectrum-first solver fits and
tq_polynomial_residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import (
    ChainParams,
    MonodromyFamily,
    _contract,
    build_monodromy,
    build_transfer,
    magnetization_sectors,
    vacuum_weight_derivatives,
    vacuum_weights,
)
from .linalg import MatrixPolynomial, _spectral_order, eigenvalues
from .twist import (
    TwistFactorization,
    TwistParams,
    build_modified_operators,
    diagonal_factorization,
    factorize_twist,
    twist_alpha,
)

__all__ = [
    "ActionCoefficients",
    "CoincidenceError",
    "SpectralContext",
    "VariableSet",
    "action_coefficients",
    "bethe_jacobian",
    "bethe_residuals",
    "bethe_system",
    "cauchy_determinant_closed",
    "diag_eigenvalue",
    "diag_residual",
    "eigenvalue_gradient",
    "eps_dist",
    "kernel_g",
    "onshell_scales",
    "onshell_tolerance",
    "raising_eigenpart",
    "shift_polynomial",
    "term_F",
    "term_G",
    "tq_polynomial_residual",
    "transfer_eigenvalue",
]


class CoincidenceError(ValueError):
    """Two spectral parameters collide within the distinctness tolerance."""


def eps_dist(c: complex) -> float:
    """Pairwise-distinctness tolerance used throughout the scalar layer."""
    return 1e-9 * max(1.0, abs(c))


def kernel_g(u, v, c):
    """g(u, v) = c/(u - v); raises on near-coincident arguments."""
    diff = np.asarray(u, dtype=complex) - np.asarray(v, dtype=complex)
    if np.any(np.abs(diff) <= eps_dist(c)):
        raise CoincidenceError("kernel g evaluated at coincident parameters")
    return c / diff


class VariableSet:
    """Ordered tuple of pairwise-distinct Bethe parameters.

    ``drop`` and ``drop2`` give the sets ubar_i and ubar_ij that creation
    sub-strings are built from; scalar coefficients leave entries out of a
    kernel row by index instead.
    """

    __slots__ = ("values", "eps")

    def __init__(self, values, eps: float = 1e-9):
        arr = np.atleast_1d(np.asarray(values, dtype=complex)).copy()
        if arr.ndim != 1:
            raise ValueError("Bethe parameters must form a flat sequence")
        if arr.size > 1:
            diffs = np.abs(arr[:, None] - arr[None, :])
            np.fill_diagonal(diffs, np.inf)
            if np.min(diffs) <= eps:
                raise CoincidenceError(
                    f"parameters closer than {eps:g}: {arr.tolist()}"
                )
        arr.setflags(write=False)
        self.values = arr
        self.eps = float(eps)

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i) -> complex:
        return complex(self.values[i])

    def __repr__(self) -> str:
        return f"VariableSet({self.values.tolist()!r})"

    def drop(self, i: int) -> "VariableSet":
        """The set with entry i removed (ubar_i)."""
        return VariableSet(np.delete(self.values, i), self.eps)

    def drop2(self, i: int, j: int) -> "VariableSet":
        """The set with entries i and j removed (ubar_ij)."""
        if i == j:
            raise ValueError("drop2 needs two distinct indices")
        return VariableSet(np.delete(self.values, [i, j]), self.eps)

    def sorted(self) -> "VariableSet":
        order = np.lexsort((self.values.imag, self.values.real))
        return VariableSet(self.values[order], self.eps)


def _as_set(x, c) -> VariableSet:
    if isinstance(x, VariableSet):
        return x
    return VariableSet(x, eps_dist(c))


@dataclass(frozen=True)
class SpectralContext:
    """Chain data plus one factorization branch of the twist, and the
    operators they determine.

    The monodromy blocks T(u), the modified blocks nu(u) = L T(u) L, the
    transfer matrix t(u) = tr_a(K T(u)) and its sector blocks are built on
    first use and kept: every layer reads them from here.  The inputs are
    frozen, so a cached operator never goes stale.
    """

    chain: ChainParams
    twist: TwistParams
    fact: TwistFactorization

    @classmethod
    def create(
        cls, chain: ChainParams, twist: TwistParams, branch: str = "minus"
    ) -> "SpectralContext":
        if twist.kappa_plus == 0 and twist.kappa_minus == 0:
            fact = diagonal_factorization(twist)
        else:
            fact = factorize_twist(twist, branch)
        return cls(chain=chain, twist=twist, fact=fact)

    @property
    def c(self) -> complex:
        return self.chain.c

    @property
    def sites(self) -> int:
        return self.chain.sites

    def lam(self, u: complex) -> tuple[complex, complex]:
        return vacuum_weights(self.chain, u)

    def dlam(self, u: complex) -> tuple[complex, complex]:
        return vacuum_weight_derivatives(self.chain, u)

    def roots(self, values) -> VariableSet:
        return VariableSet(values, eps_dist(self.c))

    @cached_property
    def family(self) -> MonodromyFamily:
        return build_monodromy(self.chain)

    @cached_property
    def modified(self) -> MonodromyFamily:
        return build_modified_operators(self.family, self.fact)

    @cached_property
    def transfer(self) -> MatrixPolynomial:
        return build_transfer(self.chain, self.twist, self.family)

    @cached_property
    def sectors(self) -> tuple[MatrixPolynomial, ...]:
        """alpha t11 + beta t22 on each down-spin sector M = 0..N, with
        alpha and beta = tr K - alpha the eigenvalues of the twist.

        R(u) commutes with Q (x) Q for every 2x2 Q, so a Schur form
        K = Q S Q^-1 (S upper triangular, diagonal (alpha, beta)) gives
        t(u) = Q^(x)N tr_a(S T(u)) Q^(x)-N with
        tr_a(S T) = alpha t11 + beta t22 + S_12 t21.  t21 lowers M and the
        diagonal blocks keep it, so the spectrum of t(u) is that of the
        sector blocks, for every K, defective or singular included, and Q
        is never formed.  Each block is one ``_contract`` over the sector's
        rows and columns of the family's stack, in the same variable.
        """
        alpha = twist_alpha(self.twist)
        weights = np.diag([alpha, self.twist.trace - alpha])
        coeffs = self.family.coeffs
        return tuple(
            MatrixPolynomial(_contract(coeffs[..., idx[:, None], idx], weights), self.family.unit)
            for idx in magnetization_sectors(self.sites)
        )

    def spectrum(self, u: complex) -> np.ndarray:
        """Eigenvalues of t(u) in (Re, Im) order, sector by sector; the
        largest eigen-solve is C(N, N/2), not 2^N."""
        vals = np.concatenate([eigenvalues(sector(u)) for sector in self.sectors])
        return vals[_spectral_order(vals)]


def _kernel_row(x, values: np.ndarray, c, leave=()) -> np.ndarray:
    """Kernel row g(x, v_k) = c/(x - v_k) of a point against a set.

    Every scalar coefficient reads its products over a set S from this row:
    f(S, x) = prod(1 - g), f(x, S) = prod(1 + g) and g(x, S) = prod(g).  The
    entries whose indices are in ``leave`` are left out (ubar_i, ubar_ij),
    never divided out, so a vanishing f stays exact; an empty row gives the
    empty product 1.  Raises CoincidenceError when x meets a kept entry.
    """
    return kernel_g(x, np.delete(values, leave), c)


def _leave_one_out(factors: np.ndarray) -> np.ndarray:
    """out[..., k] = product of factors[..., l] over l != k, without division.

    Exclusive prefix times exclusive suffix cumulative products, so a zero
    factor stays exact: the other entries of its row carry the zero, its own
    entry does not.
    """
    prefix = np.ones_like(factors)
    suffix = np.ones_like(factors)
    np.cumprod(factors[..., :-1], axis=-1, out=prefix[..., 1:])
    np.cumprod(factors[..., :0:-1], axis=-1, out=suffix[..., :-1][..., ::-1])
    prefix *= suffix
    return prefix


def _three_term(ctx: SpectralContext, u, roots, a, b, z, leave=()) -> complex:
    """a lam1(u) f(S, u) + b lam2(u) f(u, S) + z lam1(u) lam2(u) g(u, S).

    S is the root set with the entries in ``leave`` left out of the kernel
    row.  Every eigenvalue-type coefficient is this shape for one choice of
    (a, b, z) and S: the eigenvalue Lam takes (kt - rho, k - rho, 2 rho)
    over ubar, the residual E takes (-(kt - rho), k - rho, 2 rho) at u_i
    over ubar_i.
    """
    g = _kernel_row(u, _as_set(roots, ctx.c).values, ctx.c, leave)
    l1, l2 = ctx.lam(u)
    return a * l1 * np.prod(1 - g) + b * l2 * np.prod(1 + g) + z * l1 * l2 * np.prod(g)


def diag_eigenvalue(ctx: SpectralContext, u, roots, x, y) -> complex:
    """x lam1(u) f(ubar, u) + y lam2(u) f(u, ubar): the diagonal-twist shape."""
    return _three_term(ctx, u, roots, x, y, 0.0)


def diag_residual(ctx: SpectralContext, i: int, roots, x, y) -> complex:
    """-x lam1(u_i) f(ubar_i, u_i) + y lam2(u_i) f(u_i, ubar_i)."""
    rs = _as_set(roots, ctx.c)
    return _three_term(ctx, rs[i], rs, -x, y, 0.0, i)


def transfer_eigenvalue(ctx: SpectralContext, u, roots) -> complex:
    """Inhomogeneous eigenvalue Lam(u, ubar) of the twisted transfer matrix."""
    t, f = ctx.twist, ctx.fact
    return _three_term(
        ctx, u, roots, t.kappa_tilde - f.rho, t.kappa - f.rho, 2 * f.rho
    )


def raising_eigenpart(ctx: SpectralContext, u, roots) -> complex:
    """2 rho lam1 lam2 g(u, ubar): the sector-raising piece of the spectrum.

    Appears both as the third term of the inhomogeneous eigenvalue and as
    the coefficient closing the oversized creation string.
    """
    return _three_term(ctx, u, roots, 0.0, 0.0, 2 * ctx.fact.rho)


def bethe_system(ctx: SpectralContext, batch, jacobian: bool = False):
    """Residuals E, optionally Jacobians J, for a batch of root sets at once.

    batch has shape (B, n).  Returns (E, J, coincident): E[b, i] is
    E(u_i, ubar_i) of row b, J[b, i, j] = d E[b, i] / d u_j (None unless
    jacobian is set), and coincident[b] marks rows with a pair of roots
    within eps_dist(c), whose E and J entries are meaningless.

    Everything comes from the pair differences d[b, i, k] = u_i - u_k.  In
    row i the three kernels facing the other roots are f(u_k, u_i) = 1 - c/d,
    f(u_i, u_k) = 1 + c/d and g(u_i, u_k) = c/d, with 1 on the diagonal; the
    products over ubar_i are the row products and those over ubar_ij their
    leave-one-out products, neither formed by division, so root sets where
    some f vanishes (the vanishing-vector sets) stay exact.  With w = g(u_i, u_j)^2/c, the u_j-derivatives of the three
    kernels are -w, w and w, and their u_i-derivatives the opposite.  The
    kernels are taken one at a time to keep the temporaries of a large
    batch small.
    """
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
    d1 = d2 = 0.0  # slopes are only used for J
    if jacobian:
        d1, d2 = ctx.dlam(u)
        w = g * g / c
        jac = np.zeros_like(g)
    # E is a sum of three terms, coeff(u_i) times the product over ubar_i of
    # one kernel offset + sign * g(u_i, u_k); that kernel's u_j-derivative
    # is sign * w, and slope is the u_i-derivative of coeff
    for coeff, slope, offset, sign in (
        (-x * l1, -x * d1, 1.0, -1.0),
        (y * l2, y * d2, 1.0, 1.0),
        (2 * rho * l1 * l2, 2 * rho * (d1 * l2 + l1 * d2), 0.0, 1.0),
    ):
        factors = sign * g
        factors += offset
        factors[:, diag] = 1.0
        full = np.prod(factors, axis=-1)  # over ubar_i
        res += coeff * full
        if jacobian:
            loo = _leave_one_out(factors)  # over ubar_ij
            loo *= w
            jac += (sign * coeff)[..., None] * loo
            jac[:, diag] += slope * full - sign * coeff * np.sum(loo, axis=-1)
    return res, jac, coincident


def _single_row(ctx: SpectralContext, roots, jacobian: bool):
    rs = _as_set(roots, ctx.c)
    res, jac, coincident = bethe_system(ctx, rs.values[None, :], jacobian)
    if coincident[0]:
        raise CoincidenceError("kernel g evaluated at coincident parameters")
    return res[0], None if jac is None else jac[0]


def bethe_residuals(ctx: SpectralContext, roots) -> np.ndarray:
    """E(u_i, ubar_i) for every i: one row of bethe_system."""
    return _single_row(ctx, roots, jacobian=False)[0]


def bethe_jacobian(ctx: SpectralContext, roots) -> np.ndarray:
    """J[i, j] = d E(u_i, ubar_i) / d u_j, exact up to rounding: one row of
    bethe_system."""
    return _single_row(ctx, roots, jacobian=True)[1]


def onshell_scales(ctx: SpectralContext, batch) -> np.ndarray:
    """max(1, |lam1 lam2|) over each row of a (B, n) batch of root sets;
    normalizes on-shell tolerances."""
    l1, l2 = ctx.lam(np.asarray(batch, dtype=complex))
    return np.maximum(1.0, np.max(np.abs(l1 * l2), axis=-1, initial=0.0))


def onshell_tolerance(ctx: SpectralContext, roots, factor: float = 1e-8) -> float:
    rs = _as_set(roots, ctx.c)
    return factor * float(onshell_scales(ctx, rs.values[None, :])[0])


def eigenvalue_gradient(ctx: SpectralContext, u, roots, i: int) -> complex:
    """Analytic partial derivative of Lam(u, ubar) with respect to u_i.

    d/du_i Lam(u, ubar) = g(u, u_i)^2 / c * [ -(kt - rho) lam1(u) f(ubar_i, u)
        + (k - rho) lam2(u) f(u, ubar_i) + 2 rho lam1 lam2 g(u, ubar_i) ].
    """
    rs = _as_set(roots, ctx.c)
    t, f = ctx.twist, ctx.fact
    gi = kernel_g(u, rs[i], ctx.c)
    bracket = _three_term(
        ctx, u, rs, -(t.kappa_tilde - f.rho), t.kappa - f.rho, 2 * f.rho, i
    )
    return gi ** 2 / ctx.c * bracket


def term_F(ctx: SpectralContext, u, i: int, roots) -> complex:
    """Two-parameter lowering coefficient in the annihilation-side action.

    In each summand, lam1 takes the argument whose f-products face the rest
    of the set from the left; the u <-> u_i mirror swaps everything at once.
    Fixed by a coefficient fit against the explicit matrix action.
    """
    rs = _as_set(roots, ctx.c)
    ui = rs[i]
    c = ctx.c
    gu = _kernel_row(u, rs.values, c, i)
    gi = _kernel_row(ui, rs.values, c, i)
    l1u, l2u = ctx.lam(u)
    l1i, l2i = ctx.lam(ui)
    return (
        kernel_g(u, ui, c) * l1i * l2u * np.prod(1 + gu) * np.prod(1 - gi)
        + kernel_g(ui, u, c) * l1u * l2i * np.prod(1 + gi) * np.prod(1 - gu)
    )


def term_G(ctx: SpectralContext, u, i: int, j: int, roots) -> complex:
    """Pairwise lowering coefficient in the annihilation-side action.

    Same lam pairing rule as term_F: lam2 rides with the argument that is
    dressed by f(., rest) from the left.  Fixed by the same coefficient fit.
    """
    rs = _as_set(roots, ctx.c)
    if i == j:
        raise ValueError("term_G needs two distinct indices")
    ui, uj = rs[i], rs[j]
    c = ctx.c
    gi = _kernel_row(ui, rs.values, c, (i, j))
    gj = _kernel_row(uj, rs.values, c, (i, j))
    gij = kernel_g(ui, uj, c)
    l1i, l2i = ctx.lam(ui)
    l1j, l2j = ctx.lam(uj)
    return (
        kernel_g(u, ui, c)
        * kernel_g(uj, u, c)
        * l1j
        * l2i
        * (1.0 + gij)
        * np.prod(1 + gi)
        * np.prod(1 - gj)
        + kernel_g(u, uj, c)
        * kernel_g(ui, u, c)
        * l1i
        * l2j
        * (1.0 - gij)
        * np.prod(1 + gj)
        * np.prod(1 - gi)
    )


@dataclass(frozen=True)
class ActionCoefficients:
    """Every scalar coefficient of the off-shell actions of nu_ij(u) on the
    creation string of ubar, as arrays over the indices of ubar.

    ``diag`` is (lam1(u) f(ubar, u), lam2(u) f(u, ubar)), ``residual`` the
    (2, m) array of lam1(u_i) f(ubar_i, u_i) and lam2(u_i) f(u_i, ubar_i)
    and ``kernel`` the column g(u_i, u).  The action of x nu11 + y nu22 on
    the string of ubar is ``diag_eigenvalue(x, y)`` times that string plus
    ``swapped(x, y)[i]`` times the string of {u} and ubar_i; the weights of
    nu11 and nu22 alone are ``swapped(1, 0)`` and ``swapped(0, 1)``.  ``F``
    holds term_F for each i and ``G`` term_G for each pair, symmetric, with
    a zero diagonal.
    """

    diag: np.ndarray
    residual: np.ndarray
    kernel: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def diag_eigenvalue(self, x, y) -> complex:
        return x * self.diag[0] + y * self.diag[1]

    def diag_residual(self, x, y) -> np.ndarray:
        return -x * self.residual[0] + y * self.residual[1]

    def swapped(self, x, y) -> np.ndarray:
        return self.kernel * self.diag_residual(x, y)


def action_coefficients(ctx: SpectralContext, u, roots) -> ActionCoefficients:
    """The ``ActionCoefficients`` of probe u and root set ubar from one
    pair-difference matrix of {u} and ubar.

    Row 0 holds the kernels g(u, u_k), rows i > 0 the kernels g(u_i, u_k)
    against the roots, 0 on the diagonal.  Products over ubar are row
    products, those over ubar_i and ubar_ij leave-one-out products of a row
    (``_leave_one_out``), never divided out, so a vanishing f stays exact.
    With P_i = lam1(u_i) f(ubar_i, u_i) and Q_i = lam2(u_i) f(u_i, ubar_i),

        term_F(i)    = g(u, u_i) P_i lam2(u) f(u, ubar_i)
                       + g(u_i, u) Q_i lam1(u) f(ubar_i, u),
        term_G(i, j) = X_ij + X_ji,
        X_ij         = g(u, u_i) g(u_j, u) Q_i lam1(u_j) f(ubar_ij, u_j),

    since Q_i carries the factor f(u_i, u_j) of term_G.  Raises
    CoincidenceError when two of the points meet.  The per-index functions
    ``diag_eigenvalue``, ``diag_residual``, ``term_F`` and ``term_G`` are
    the reference.
    """
    c = ctx.c
    w = np.concatenate(([complex(u)], _as_set(roots, c).values))
    gap = w[:, None] - w[None, :]
    same = np.eye(w.size, dtype=bool)
    if np.any(np.abs(gap[~same]) <= eps_dist(c)):
        raise CoincidenceError("kernel g evaluated at coincident parameters")
    gap[same] = 1.0
    g = c / gap
    g[same] = 0.0
    l1, l2 = ctx.lam(w)
    gu, gr, kernel = g[0, 1:], g[1:, 1:], g[1:, 0]  # g(u, u_i), g(u_i, u_k), g(u_i, u)
    minus = 1.0 - gr  # f(u_k, u_i), 1 on the diagonal
    p = l1[1:] * np.prod(minus, axis=1)
    q = l2[1:] * np.prod(1.0 + gr, axis=1)
    # lam1(u) f(ubar_i, u) and lam2(u) f(u, ubar_i)
    left, right = l1[0] * _leave_one_out(1.0 - gu), l2[0] * _leave_one_out(1.0 + gu)
    # x[i, j] = X_ij; row j of the leave-one-out of minus, entry i, is f(ubar_ij, u_j)
    x = (gu * q)[:, None] * (kernel * l1[1:])[None, :] * _leave_one_out(minus).T
    np.fill_diagonal(x, 0.0)
    return ActionCoefficients(
        diag=np.array([l1[0] * np.prod(1.0 - gu), l2[0] * np.prod(1.0 + gu)]),
        residual=np.array([p, q]),
        kernel=kernel,
        F=gu * p * right + kernel * q * left,
        G=x + x.T,
    )


def cauchy_determinant_closed(vs, us, c) -> complex:
    """Closed form of det[ g(v_i, u_j) ]: g(vbar, ubar) over the pair gaps."""
    va = np.atleast_1d(np.asarray(vs, dtype=complex))
    ua = np.atleast_1d(np.asarray(us, dtype=complex))
    if va.size != ua.size:
        raise ValueError("Cauchy determinant needs equally sized sets")
    n = va.size
    denom = 1.0 + 0.0j
    for i in range(n):
        for j in range(i + 1, n):
            denom *= kernel_g(ua[i], ua[j], c) * kernel_g(va[j], va[i], c)
    return complex(np.prod(kernel_g(va[:, None], ua[None, :], c))) / denom


def _shift_matrix(n: int, s: complex) -> np.ndarray:
    """Binomial matrix [m, k] = C(k, m) s^(k - m): it takes the low-to-high
    coefficients of a polynomial p of degree at most n to those of p(u + s).
    Powers of s beyond the float range come out inf or nan, not raised."""
    k = np.arange(n + 1)
    gap = np.maximum(k - k[:, None], 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vectorize(math.comb)(k, k[:, None]) * complex(s) ** gap


def shift_polynomial(coeffs, s: complex) -> np.ndarray:
    """Coefficients (low to high) of p(u + s) given those of p(u)."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return _shift_matrix(a.size - 1, s) @ a


def _product_matrix(p: np.ndarray, n: int) -> np.ndarray:
    """The (2n + 1) x (n + 1) matrix taking Q's coefficients to those of p Q,
    for p of degree at most n: entry [j + k, j] is p[k]."""
    out = np.zeros((2 * n + 1, n + 1), dtype=complex)
    j = np.arange(n + 1)
    out[np.arange(p.size)[:, None] + j, j] = p[:, None]
    return out


def _lam_coeffs(ctx: SpectralContext) -> tuple[np.ndarray, np.ndarray]:
    """Low-to-high coefficients of lam1 and lam2, built one factor
    (u - theta + c)/c or (u - theta)/c at a time, so no c**N overflows."""
    c = ctx.c
    l1 = l2 = np.ones(1, dtype=complex)
    for t in ctx.chain.theta:
        l1 = np.convolve(l1, [(c - t) / c, 1 / c])
        l2 = np.convolve(l2, [-t / c, 1 / c])
    return l1, l2


def _tq_base(ctx: SpectralContext) -> tuple[np.ndarray, np.ndarray]:
    """The Lam-free part of the T-Q relation on the N + 1 coefficients of Q.

    Returns (B, b), each with 2N + 1 rows: B q holds the coefficients of
    (kt - rho) lam1 Q(u - c) + (k - rho) lam2 Q(u + c), and b those of
    2 rho c^N lam1 lam2, with c^N lam2 = prod (u - theta).
    """
    n, c = ctx.sites, ctx.c
    down, up = _shift_matrix(n, -c), _shift_matrix(n, c)
    if not np.all(np.isfinite((down, up))):
        raise ValueError(
            f"coupling c = {c} overflows the shifted polynomials "
            "Q(u -+ c) of the T-Q fit"
        )
    t, f = ctx.twist, ctx.fact
    l1, l2 = _lam_coeffs(ctx)
    mat = (t.kappa_tilde - f.rho) * _product_matrix(l1, n) @ down
    mat += (t.kappa - f.rho) * _product_matrix(l2, n) @ up
    inhom = 2 * f.rho * np.convolve(l1, np.poly(ctx.chain.theta)[::-1])
    return mat, inhom


def _tq_system(lam_coeffs, base) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) such that A q - b holds the coefficients of the T-Q relation

        Lam Q - (kt - rho) lam1 Q(u - c) - (k - rho) lam2 Q(u + c)
              - 2 rho c^N lam1 lam2

    for Lam of degree at most N (low to high); base is _tq_base(ctx), the
    part every Lam of one chain shares.
    """
    mat, inhom = base
    n = mat.shape[1] - 1
    lam = np.atleast_1d(np.asarray(lam_coeffs, dtype=complex))
    if lam.size > n + 1:
        raise ValueError(f"Lam must have degree at most {n}, got {lam.size - 1}")
    return _product_matrix(lam, n) - mat, inhom


def tq_polynomial_residual(ctx: SpectralContext, lam_coeffs, q_coeffs) -> float:
    """Max coefficient modulus of Lam Q - (kt-rho) lam1 Q(.-c) - (k-rho) lam2 Q(.+c) - 2 rho c^N lam1 lam2.

    lam_coeffs and q_coeffs are low-to-high coefficient arrays; Q must be
    monic of degree N.
    """
    q = np.atleast_1d(np.asarray(q_coeffs, dtype=complex))
    n = ctx.sites
    if q.size != n + 1:
        raise ValueError(f"Q must have degree {n}, got degree {q.size - 1}")
    if abs(q[-1] - 1.0) > 1e-10:
        raise ValueError("Q must be monic")
    a, b = _tq_system(lam_coeffs, _tq_base(ctx))
    return float(np.max(np.abs(a @ q - b)))
