"""Operator content of the inhomogeneous XXX spin-1/2 chain.

Conventions
-----------
Local space C^2 with spin-up as the first basis vector; the 2^N chain basis
is the lexicographic tensor order, site 1 the slowest index.  The rational
R-matrix is R(u) = (u/c) I + P with P the permutation on C^2 (x) C^2, and the
monodromy T_a(u) = R_{a1}(u - theta_1) ... R_{aN}(u - theta_N) carries the
auxiliary space a as the slowest tensor slot.  Its auxiliary blocks t_ij(u)
are degree-N matrix polynomials; the twisted transfer matrix traces the
2x2 twist against them.

The reference state |0> (all spins up) diagonalizes t11/t22 with weights
lam1(u) = prod_i (u - theta_i + c)/c  and  lam2(u) = prod_i (u - theta_i)/c,
and is annihilated by t21.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import MatrixPolynomial, kron_chain

__all__ = [
    "ChainParams",
    "MonodromyFamily",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "ID2",
    "PERM4",
    "build_hamiltonian",
    "build_monodromy",
    "build_r_matrix",
    "build_transfer",
    "local_operator",
    "magnetization_sectors",
    "monodromy_matrix",
    "structure_checks",
    "total_sz",
    "vacuum_state",
    "vacuum_weights",
    "vacuum_weight_derivatives",
]

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS
SIGMA_Y = 1j * (SIGMA_MINUS - SIGMA_PLUS)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Permutation operator on C^2 (x) C^2, P |x>|y> = |y>|x>.
PERM4 = sum(
    np.kron(_e, _f)
    for _e, _f in [
        (np.outer(a, b), np.outer(b, a))
        for a in np.eye(2, dtype=complex)
        for b in np.eye(2, dtype=complex)
    ]
)


@dataclass(frozen=True)
class ChainParams:
    """Chain length, crossing parameter c and inhomogeneities theta."""

    sites: int
    c: complex = 1.0 + 0.0j
    theta: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.sites, (int, np.integer)) or self.sites < 1:
            raise ValueError(f"sites must be a positive integer, got {self.sites!r}")
        c = complex(self.c)
        if c == 0:
            raise ValueError("crossing parameter c must be nonzero")
        object.__setattr__(self, "c", c)
        theta = self.theta
        if theta is None:
            theta = (0.0 + 0.0j,) * self.sites
        else:
            theta = tuple(complex(t) for t in theta)
        if len(theta) != self.sites:
            raise ValueError(
                f"need {self.sites} inhomogeneities, got {len(theta)}"
            )
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return 2 ** self.sites


def vacuum_state(sites: int) -> np.ndarray:
    """All-spins-up reference column vector."""
    v = np.zeros(2 ** sites, dtype=complex)
    v[0] = 1.0
    return v


def local_operator(op: np.ndarray, site: int, sites: int) -> np.ndarray:
    """Embed a single-site operator at 0-based position `site`."""
    if not 0 <= site < sites:
        raise ValueError(f"site {site} outside 0..{sites - 1}")
    factors = [ID2] * sites
    factors[site] = np.asarray(op, dtype=complex)
    return kron_chain(factors)


def total_sz(sites: int) -> np.ndarray:
    return sum(local_operator(SIGMA_Z, k, sites) for k in range(sites))


def magnetization_sectors(sites: int) -> list[np.ndarray]:
    """Chain basis indices by down-spin count, M = 0..N in list order.

    In the lexicographic basis with spin-up first, the bits of an index
    mark its down spins, so M is the number of set bits.  The monodromy
    conserves sigma^z_a + S^z: t11 and t22 keep M, t12 raises it by one and
    t21 lowers it by one.
    """
    down = _down_counts(sites)
    return [np.flatnonzero(down == m) for m in range(sites + 1)]


def _down_counts(sites: int) -> np.ndarray:
    """Down-spin count M of each chain basis index: its number of set bits."""
    index = np.arange(2 ** sites)
    return sum((index >> k) & 1 for k in range(sites))


def vacuum_weights(params: ChainParams, u: complex) -> tuple[complex, complex]:
    """(lam1, lam2) at spectral parameter u; an array u gives arrays."""
    c = params.c
    l1 = 1.0 + 0.0j
    l2 = 1.0 + 0.0j
    for t in params.theta:
        l1 *= (u - t + c) / c
        l2 *= (u - t) / c
    return l1, l2


def vacuum_weight_derivatives(params: ChainParams, u: complex) -> tuple[complex, complex]:
    """(d lam1/du, d lam2/du) by the product rule, one factor at a time.

    Each factor (u - t + c)/c or (u - t)/c has derivative 1/c, so nothing
    divides by c**N (which overflows for large |c|) and zeros of lam are
    safe.  An array u gives arrays.
    """
    c = params.c
    l1 = l2 = 1.0 + 0.0j
    d1 = d2 = 0.0 + 0.0j
    for t in params.theta:
        a1 = (u - t + c) / c
        a2 = (u - t) / c
        d1 = d1 * a1 + l1 / c
        d2 = d2 * a2 + l2 / c
        l1 = l1 * a1
        l2 = l2 * a2
    return d1, d2


def build_r_matrix(u: complex, c: complex) -> np.ndarray:
    """Rational R-matrix (u/c) I + P on C^2 (x) C^2."""
    if complex(c) == 0:
        raise ValueError("crossing parameter c must be nonzero")
    return (u / c) * np.eye(4, dtype=complex) + PERM4


def _embed_pair(op4: np.ndarray, p: int, q: int, nspaces: int) -> np.ndarray:
    """Embed a two-site operator on tensor slots p < q of nspaces qubits."""
    if not 0 <= p < q < nspaces:
        raise ValueError(f"invalid slot pair ({p}, {q}) for {nspaces} spaces")
    dim = 2 ** nspaces
    m = np.kron(np.asarray(op4, dtype=complex), np.eye(2 ** (nspaces - 2)))
    t = m.reshape((2,) * (2 * nspaces))
    # current factor order: (p, q, remaining slots ascending)
    order = [p, q] + [s for s in range(nspaces) if s not in (p, q)]
    dest = order + [s + nspaces for s in order]
    t = np.moveaxis(t, list(range(2 * nspaces)), dest)
    return t.reshape(dim, dim)


def monodromy_matrix(params: ChainParams, u: complex) -> np.ndarray:
    """T_a(u) on aux (x) chain, dimension 2^(N+1)."""
    n = params.sites + 1
    out = np.eye(2 ** n, dtype=complex)
    for k in range(params.sites):
        r = build_r_matrix(u - params.theta[k], params.c)
        out = out @ _embed_pair(r, 0, k + 1, n)
    return out


def _block(i: int, j: int) -> cached_property:
    return cached_property(lambda self: MatrixPolynomial(self.coeffs[i, j], self.unit))


class MonodromyFamily(MatrixPolynomial):
    """T_a(u) as one matrix polynomial over its auxiliary blocks.

    coeffs has shape (2, 2, N + 1, d, d) with t_ij at [i, j], in the
    variable z = u / unit with unit = c, so ``at(u)`` evaluates all four
    blocks in one contraction, and t11..t22 are the blocks as polynomials
    in the same variable whose coefficients are read-only views of the
    stack.
    """

    t11, t12, t21, t22 = (_block(i, j) for i, j in itertools.product((0, 1), repeat=2))

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs.ndim != 5 or self.coeffs.shape[:2] != (2, 2):
            raise ValueError(
                f"coeffs must have shape (2, 2, k, d, d), got {self.coeffs.shape}"
            )

    def at(self, u: complex) -> np.ndarray:
        """The four blocks at u as one (2, 2, d, d) array, t_ij(u) at [i, j]."""
        return self(u)


def build_monodromy(params: ChainParams) -> MonodromyFamily:
    """Exact coefficients of T_a(u) in z = u/c, one block polynomial per t_ij.

    The family keeps the full degree-N stack of ``_monodromy_stack``,
    read-only, as its coefficients, with unit c.  In z the coefficients
    stay O(1) for every c (in u they would carry c**-k), so
    ``coefficient(k)`` is the matrix multiplying (u/c)**k.  With c = 1 and
    integer inhomogeneities every coefficient is an exact integer.  Raises
    ValueError naming the coupling when a coefficient leaves the float
    range, as (theta/c)**k does for tiny |c|.
    """
    coef = _monodromy_stack(params, params.sites)
    coef.setflags(write=False)
    return MonodromyFamily(coef, params.c)


def _monodromy_stack(params: ChainParams, degree: int) -> np.ndarray:
    """Coefficients 0..degree of the blocks of T_a(z c), shape
    (2, 2, min(degree, N) + 1, 2^N, 2^N) with t_ij at [i, j].

    Site by site, T^(n) = T^(n-1) R_an(u - theta_n) with
    R_an = (z - theta_n/c) I + P_an, and P_an = sum_jk E_kj (x) E_jk on
    aux (x) site n, so the blocks follow the recursion

        t_ij^(n) = (z - theta_n/c) t_ij^(n-1) (x) I + sum_k t_ik^(n-1) (x) E_jk

    with the new site as the fastest tensor slot.  Each step writes the
    doubled block-major stack from the previous one with a few strided
    assignments, so the work doubles per site and the last site dominates.
    A coefficient of degree k reads only coefficients of degree <= k, so
    the stack is cut at ``degree`` and each kept coefficient is the one of
    the full stack bit for bit.  A step only copies, scales and adds
    coefficients.  Raises ValueError naming the coupling on overflow.
    """
    c = params.c
    coef = np.eye(2, dtype=complex).reshape(2, 2, 1, 1, 1)
    try:
        # the stack starts finite, so it holds an inf or a nan only after a
        # shift or one of the array steps below overflowed
        with np.errstate(over="raise", invalid="raise"):
            for theta in params.theta:
                shift = theta / c
                if not cmath.isfinite(shift):
                    raise FloatingPointError("theta/c overflows")
                _, _, m, d, _ = coef.shape
                kept = min(m + 1, degree + 1)
                out = np.zeros((2, 2, kept, 2 * d, 2 * d), dtype=complex)
                # axes (i, j, degree, row of sites < n, row of site n,
                # column of sites < n, column of site n)
                grid = out.reshape(2, 2, kept, d, 2, d, 2)
                for j, k in itertools.product((0, 1), repeat=2):
                    grid[:, j, :m, :, j, :, k] = coef[:, k]  # t_ik (x) E_jk
                for s in (0, 1):  # (z - theta/c) t_ij (x) I
                    diag = grid[:, :, :, :, s, :, s]
                    diag[:, :, :m] -= shift * coef
                    diag[:, :, 1:] += coef[:, :, : kept - 1]
                coef = out
    except FloatingPointError:
        raise ValueError(
            f"chain.c: the monodromy coefficients (theta/c)**k overflow at c = {c}"
        ) from None
    return coef


def _contract(blocks, weights) -> np.ndarray:
    """sum_ij weights[..., i, j] t_ij over the four auxiliary blocks.

    ``blocks`` holds t_ij at [i, j] of its two leading axes: a
    ``MonodromyFamily.coeffs`` stack, the (2, 2, d, d) value of
    ``MonodromyFamily.at``, or any array with those leading axes.
    ``weights`` is one 2x2 matrix or a stack of them, and the result
    carries its leading axes.  A 2x2 matrix M acts on the auxiliary space
    as a twisted trace, tr_a(M T) = sum_ij M_ji t_ij, with weights M^T, and
    as a dressing, (A T B)_ab = sum_ij A_ai t_ij B_jb, with weights
    A_ai B_jb.  The whole contraction is one (k x 4) @ (4 x rest) product
    into one new read-only array.
    """
    w = np.asarray(weights, dtype=complex)
    b = np.asarray(blocks, dtype=complex)
    rows = w.reshape(-1, 4)
    out = np.empty(w.shape[:-2] + b.shape[2:], dtype=complex)
    np.matmul(rows, b.reshape(4, -1), out=out.reshape(len(rows), -1))
    out.setflags(write=False)
    return out


def build_transfer(params: ChainParams, twist, family: MonodromyFamily) -> MatrixPolynomial:
    """Twisted transfer matrix t(u) = tr_a( K_a T_a(u) ) as a matrix
    polynomial in the family's variable."""
    return MatrixPolynomial(_contract(family.coeffs, twist.matrix().T), family.unit)


def _boundary_substitutions(twist) -> list[np.ndarray]:
    """Images K^-1 sigma K of sigma^x, sigma^y, sigma^z across the twisted
    seam, written as adj(K) sigma K / gamma with gamma = det K."""
    gamma = twist.gamma
    if gamma == 0:
        raise ValueError("twist matrix is singular (det K = 0); no twisted closing")
    k = twist.matrix()
    adj = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]])
    return [adj @ s @ k / gamma for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]


def build_hamiltonian(params: ChainParams, twist, route: str = "direct") -> np.ndarray:
    """Heisenberg Hamiltonian with the twisted boundary.

    route="direct" writes sum_k sigma_k . sigma_{k+1} with the boundary
    substitution at the seam; route="transfer" uses the logarithmic
    derivative 2c t'(0) t(0)^{-1} - N at vanishing inhomogeneities, which
    in z = u/c is 2 t_z'(0) t(0)^{-1} - N, free of c.  It reads only the
    coefficients 0 and 1 of the monodromy.  There t(0) = K_1 U with U the
    cyclic shift of the sites, so t(0) is as well conditioned as K.
    """
    n = params.sites
    if route == "direct":
        # one Kronecker product per term, identities around the 4x4 bond;
        # the seam couples site N to the twisted site 1, which at one site
        # is the 2x2 product itself
        paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        eye = [np.eye(2 ** k) for k in range(n)]
        bonds = (
            np.kron(np.kron(eye[k], np.kron(s, s)), eye[n - k - 2])
            for k in range(n - 1)
            for s in paulis
        )
        seam = (
            np.kron(np.kron(s_tw, eye[n - 2]), s) if n > 1 else s @ s_tw
            for s, s_tw in zip(paulis, _boundary_substitutions(twist))
        )
        return sum(itertools.chain(bonds, seam))
    if route == "transfer":
        if any(abs(t) > 1e-12 for t in params.theta):
            raise ValueError("transfer route requires vanishing inhomogeneities")
        kmat = twist.matrix()
        if np.linalg.cond(kmat) > 1e12:
            raise ValueError("transfer matrix is singular at u = 0")
        t0, dt0 = _contract(_monodromy_stack(params, 1), kmat.T)  # t(0), d t / dz at 0
        # dt0 t0^-1 as the transpose of the solve t0^T x = dt0^T
        return 2 * np.linalg.solve(t0.T, dt0.T).T - n * np.eye(params.dim)
    raise ValueError(f"unknown route {route!r}; use 'direct' or 'transfer'")


def structure_checks(
    params: ChainParams,
    twist,
    u: complex,
    v: complex,
    family: MonodromyFamily,
) -> dict[str, float]:
    """Frobenius residuals of the defining exchange structure, each a
    scaled gap between its two sides.

    Every two-point check reads the block products t_ij(u) t_kl(v) and
    t_kl(v) t_ij(u) off the two tables of ``_graded_products``, which are
    taken one magnetization block at a time: the RTT relation through its
    16 block components (``_rtt_gap``), the three exchange relations used
    by the algebraic Bethe ansatz, which are three of those components, and
    commutativity of the transfer matrix, the twist-weighted sum of each
    table split by charge.  Blocks in different (row, column) sectors are
    disjoint, so their squared norms add and every gap is exact.
    ``magnetization_conservation`` is the share of the blocks at u and v
    that lies outside the magnetization grading.  GL(2) invariance of the
    R-matrix against the twist is a 4x4 check.
    """
    if abs(u - v) <= 1e-9 * max(1.0, abs(params.c)):
        raise ValueError("structure checks need two distinct spectral points")
    c = params.c
    uv, vu, charge, off_grade = _graded_products(family, u, v)

    # t(x) t(y) = sum_{ij,kl} K_ji K_lk t_ij(x) t_kl(y); terms of one total
    # charge share a layout and add, terms of different charges are disjoint
    kmat = twist.matrix()
    tuv, tvu = {}, {}
    for i, j, k, l in _QUADS:
        q = charge[i, j] + charge[k, l]
        w = kmat[j, i] * kmat[l, k]
        tuv[q] = tuv.get(q, 0.0) + w * uv[i, j, k, l]
        tvu[q] = tvu.get(q, 0.0) + w * vu[i, j, k, l]

    r4 = build_r_matrix(u - v, c)
    kk = np.kron(kmat, kmat)
    out = {
        "rtt": _rtt_gap(uv, vu, (u - v) / c),
        "transfer_commutator": _summed_gap((tuv[q], tvu[q]) for q in tuv),
        "gl2_invariance": _scaled_gap(r4 @ kk, kk @ r4),
    }
    out.update(_exchange_gaps(uv, vu, c / (u - v)))
    out["magnetization_conservation"] = off_grade
    return out


# t_ij moves the down-spin count M to M + q_ij with q_ij = j - i: t11 and
# t22 keep it, t12 raises it and t21 lowers it
_CHARGE = np.array([[0, 1], [-1, 0]])
_PAIRS = tuple(itertools.product((0, 1), repeat=2))
_QUADS = tuple(itertools.product((0, 1), repeat=4))


def _graded_products(family: MonodromyFamily, u: complex, v: complex):
    """Tables uv[i, j, k, l] = t_ij(u) t_kl(v) and vu[i, j, k, l] =
    t_ij(v) t_kl(u) of every block product, one block of a grading at a time.

    A grading is a list of sectors of the chain basis and a charge q_ij per
    block, such that t_ij maps sector M into sector M + q_ij and vanishes
    elsewhere.  The blocks are evaluated once at each point; when every
    entry outside the magnetization grading (``magnetization_sectors``,
    q = ``_CHARGE``) is exactly 0 at both points, that grading is used,
    otherwise one sector holding the whole basis with q = 0, which is the
    dense product.  A product t_ij(x) t_kl(y) maps M to M + Q with
    Q = q_ij + q_kl and is formed on each column sector M as
    t_ij[M + Q, M + q_kl] @ t_kl[M + q_kl, M]; it is stored as one vector
    of those blocks, M ascending, each flattened, so products of one Q share
    a layout and combine entrywise.  Returns (uv, vu, charge, off_grade),
    with off_grade the norm of the entries outside the magnetization
    grading over max(1, norm of the blocks).
    """
    sites = family.dim.bit_length() - 1
    at = (family.at(u), family.at(v))
    down = _down_counts(sites)
    outside = down[:, None] - down[None, :] != _CHARGE[..., None, None]
    graded = True
    off_sq = total_sq = 0.0
    for blocks in at:
        off = blocks[outside]
        off_sq += np.vdot(off, off).real
        total_sq += np.vdot(blocks, blocks).real
        graded = graded and not off.any()
    off_grade = float(np.sqrt(off_sq) / max(1.0, np.sqrt(total_sq)))
    if graded:
        sectors, charge = magnetization_sectors(sites), _CHARGE
    else:
        sectors, charge = [np.arange(family.dim)], np.zeros_like(_CHARGE)

    n = len(sectors)
    pieces = [
        {
            (i, j, m): blocks[i, j][sectors[m + charge[i, j]][:, None], sectors[m]]
            for i, j in _PAIRS
            for m in range(n)
            if 0 <= m + charge[i, j] < n
        }
        for blocks in at
    ]
    del at
    layouts = {}
    for q in range(-2, 3):
        spans, start = [], 0
        for m in range(max(0, -q), min(n, n - q)):
            shape = (len(sectors[m + q]), len(sectors[m]))
            spans.append((m, slice(start, start + shape[0] * shape[1]), shape))
            start += shape[0] * shape[1]
        layouts[q] = spans, start

    def table(first, second):
        out = {}
        for i, j, k, l in _QUADS:
            spans, length = layouts[charge[i, j] + charge[k, l]]
            vec = np.zeros(length, dtype=complex)
            for m, span, shape in spans:
                # a middle sector outside 0..N leaves the block zero
                if (k, l, m) in second:
                    np.matmul(
                        first[i, j, m + charge[k, l]],
                        second[k, l, m],
                        out=vec[span].reshape(shape),
                    )
            out[i, j, k, l] = vec
        return out

    return table(*pieces), table(*pieces[::-1]), charge, off_grade


def _rtt_gap(uv: dict, vu: dict, a: complex) -> float:
    """Scaled gap between R_ab(u - v) T_a(u) T_b(v) and
    T_b(v) T_a(u) R_ab(u - v) on slots (a, b, chain), a = (u - v)/c.

    R_ab = a I + P_ab; P_ab swaps the row slots on the left and the column
    slots on the right, so block (ik, jl) of the two sides is
    a t_ij(u) t_kl(v) + t_kj(u) t_il(v) and a t_kl(v) t_ij(u) + t_kj(v) t_il(u).
    The squared norms add up block by block, so neither side is formed.
    """
    return _summed_gap(
        (a * uv[i, j, k, l] + uv[k, j, i, l], a * vu[k, l, i, j] + vu[k, j, i, l])
        for i, j, k, l in _QUADS
    )


def _summed_gap(pairs) -> float:
    """``_scaled_gap`` of two operators given as (lhs, rhs) pairs of
    disjoint blocks, their squared norms summed block by block."""
    sq = np.zeros(3)
    for lhs, rhs in pairs:
        sq += [np.vdot(x, x).real for x in (lhs, rhs, lhs - rhs)]
    norm_l, norm_r, norm_d = np.sqrt(sq)
    return float(norm_d / max(1.0, norm_l, norm_r))


def _scaled_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs|| / max(1, ||lhs||, ||rhs||): the gap between the two
    sides of an operator identity relative to their scale.  Operators and
    amplitudes grow with the chain, so an absolute gap would measure their
    size; the unit floor keeps tiny sides from inflating pure roundoff."""
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs) / scale)


def exchange_residuals(
    family: MonodromyFamily, c: complex, u: complex, v: complex
) -> dict[str, float]:
    """Scale-relative residuals of the three two-point exchange relations
    for any family of monodromy blocks; the twisted operators obey the same
    relations as the plain ones, so this is shared by both."""
    uv, vu, _, _ = _graded_products(family, u, v)
    return _exchange_gaps(uv, vu, c / (u - v))


def _exchange_gaps(uv: dict, vu: dict, g: complex) -> dict[str, float]:
    """The exchange relations read off the ``_graded_products`` tables, with
    g = g(u, v) = c/(u - v); index 0 is 1, so uv[0, 0, 0, 1] = t11(u) t12(v)."""
    f_uv = 1.0 + g            # f(u, v)
    f_vu = 1.0 - g            # f(v, u), since g(v, u) = -g(u, v)
    ex_11 = _scaled_gap(uv[0, 0, 0, 1], f_vu * vu[0, 1, 0, 0] + g * uv[0, 1, 0, 0])
    ex_22 = _scaled_gap(uv[1, 1, 0, 1], f_uv * vu[0, 1, 1, 1] - g * uv[0, 1, 1, 1])
    # The creation/annihilation exchange closes on the diagonal blocks.  The
    # ordering t12(v) t21(u) on the right is the one compatible with the
    # global commutator structure; swapping the arguments only works at N=1
    # where t12 and t21 are constant in the spectral parameter.
    ex_21 = _scaled_gap(
        uv[1, 0, 0, 1], vu[0, 1, 1, 0] + g * (vu[0, 0, 1, 1] - uv[0, 0, 1, 1])
    )
    return {
        "exchange_t11_t12": ex_11,
        "exchange_t22_t12": ex_22,
        "exchange_t21_t12": ex_21,
    }
