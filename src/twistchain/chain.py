"""Operator content of the inhomogeneous XXX spin-1/2 chain.

Conventions
-----------
Local space C^2 with spin-up as the first basis vector; the 2^N chain basis
is the lexicographic tensor order, site 1 the slowest index.  The rational
R-matrix is R(u) = (u/c) I + P with P the permutation on C^2 (x) C^2, and the
monodromy T_a(u) = R_{a1}(u - theta_1) ... R_{aN}(u - theta_N) carries the
auxiliary space a as the slowest tensor slot.  Its auxiliary blocks t_ij(u)
are degree-N matrix polynomials; the twisted transfer matrix traces the
2x2 twist against them.  R commutes with Q (x) Q, so t11 and t22 keep the
number of down spins and t12 and t21 shift it by one: only those blocks
are stored (``Grading``), and the twist enters as a 2x2 (x) 2x2 dressing.

The reference state |0> (all spins up) diagonalizes t11/t22 with weights
lam1(u) = prod_i (u - theta_i + c)/c  and  lam2(u) = prod_i (u - theta_i)/c,
and is annihilated by t21.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .linalg import _read_only, kron_chain

__all__ = [
    "ChainParams",
    "Grading",
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
    "eps_dist",
    "local_operator",
    "magnetization_grading",
    "magnetization_sectors",
    "monodromy_matrix",
    "monodromy_product_gap",
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


def eps_dist(c: complex) -> float:
    """Pairwise-distinctness tolerance used throughout the scalar layer."""
    return 1e-9 * max(1.0, abs(c))


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


def monodromy_matrix(params: ChainParams, u: complex, start: int = 0, stop: int | None = None) -> np.ndarray:
    """T_a(u) on aux (x) chain, dimension 2^(N+1), or its rows start..stop - 1:
    the R-matrix product applied to the identity one factor at a time.

    Right multiplication by R_ak(u - theta_k) = ((u - theta_k)/c) I + P_ak
    scales each row and adds it with the column slots of the auxiliary
    space and of site k swapped, O(2^(N+1)) per row and factor.  Rows
    never mix, so a run of rows starts from the same rows of the identity
    and takes the same steps as in the whole product.
    """
    dim = 2 * params.dim
    slots = (2,) * (params.sites + 1)
    stop = dim if stop is None else stop
    out = np.zeros((stop - start, dim), dtype=complex)
    out[np.arange(stop - start), np.arange(start, stop)] = 1.0
    for k, theta in enumerate(params.theta, 1):
        swapped = np.swapaxes(out.reshape(-1, *slots), 1, k + 1).reshape(out.shape)
        out = (u - theta) / params.c * out + swapped
    return out


# t_ij moves the down-spin count M to M + q_ij with q_ij = j - i: t11 and
# t22 keep it, t12 raises it and t21 lowers it
_CHARGE = np.array([[0, 1], [-1, 0]])
_CHARGE.setflags(write=False)
_PAIRS = tuple(itertools.product((0, 1), repeat=2))
# the dressing of a bare family, nu_ab = t_ab
_BARE = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
_BARE.setflags(write=False)


class Grading:
    """Which entries of the four auxiliary blocks a family stores, and where
    they sit.

    ``sectors`` split the chain basis, and t_ij maps sector m into sector
    m + charge[i, j] and vanishes elsewhere.  A family stores, for t11,
    t12, t21 and t22 in turn, the blocks t_ij[m + q_ij, m] of ``layout``,
    and ``index`` holds the position of each stored entry in the flattened
    d x d matrix of its block.  Blocks of one charge share that layout and
    so their positions, and a weighted sum of them adds entrywise.  The
    monodromy is stored on ``magnetization_grading``; one sector holding
    the whole basis with zero charges stores the four dense blocks.
    """

    def __init__(self, sectors, charge: np.ndarray):
        self.sectors, self.charge = tuple(sectors), charge
        self.dim = sum(len(s) for s in self.sectors)
        # (i, j, m) -> (slice of the stored entries, shape) of t_ij[m + q_ij, m];
        # (i, j) -> slice of all the stored entries of t_ij
        self.spans, self.pairs, index, start = {}, {}, [], 0
        for ij in _PAIRS:
            q, first = charge[ij], start
            for m, span, shape in self.layout(q):
                self.spans[(*ij, m)] = slice(first + span.start, first + span.stop), shape
                index.append((self.sectors[m + q][:, None] * self.dim + self.sectors[m]).ravel())
                start = first + span.stop
            self.pairs[ij] = slice(first, start)
        self.size = start  # stored entries per coefficient
        self.index = np.concatenate(index)
        self.index.setflags(write=False)

    def layout(self, q: int) -> list:
        """(m, slice, shape) of each block [m + q, m] between sectors, m
        ascending, each flattened row by row after the one before."""
        out, start, n = [], 0, len(self.sectors)
        for m in range(max(0, -q), min(n, n - q)):
            shape = (len(self.sectors[m + q]), len(self.sectors[m]))
            out.append((m, slice(start, start + shape[0] * shape[1]), shape))
            start += shape[0] * shape[1]
        return out

    def blocks(self, entries: np.ndarray) -> dict:
        """(i, j, m) -> the block t_ij[m + q_ij, m] of stored entries with
        any leading axes, as a view."""
        lead = entries.shape[:-1]
        return {key: entries[..., span].reshape(*lead, *shape) for key, (span, shape) in self.spans.items()}


@lru_cache(maxsize=None)
def magnetization_grading(sites: int) -> Grading:
    """The monodromy's grading: the sectors of ``magnetization_sectors``,
    with t_ij moving M by q_ij = j - i."""
    sectors = magnetization_sectors(sites)
    for s in sectors:
        s.setflags(write=False)
    return Grading(tuple(sectors), _CHARGE)


def _evaluate(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """powers @ coeffs as a new complex array, for real or complex coeffs."""
    if coeffs.dtype == complex:
        return powers @ coeffs
    # one real product against the real and imaginary parts of the
    # powers, whose two columns are the real and imaginary parts of the sum
    return (coeffs.T @ powers[:, None].view(float)).view(complex)[:, 0]


def _write(entries: np.ndarray, charges, out: np.ndarray) -> None:
    """out[positions] = sum of entries[stored] * weight over the terms of
    each (positions, [(stored, weight or None)]) of ``charges``, summed in
    term order; ``stored`` is a slice or an index array."""
    for index, terms in charges:
        total = None
        for span, w in terms:
            term = entries[span] if w is None else entries[span] * w
            total = term if total is None else total + term
        out[index] = total


def _block(a: int, b: int) -> cached_property:
    return cached_property(lambda self: _Block(self, self.dressing[a, b]))


class MonodromyFamily:
    """The four auxiliary blocks of T_a(u), or of a dressing of them, as
    polynomials in z = u / unit.

    ``coeffs`` has shape (degree + 1, grading.size): coefficient k of every
    entry the grading stores, read-only.  ``build_monodromy`` stores it
    real when every theta/c is real, as for a real coupling and real
    inhomogeneities; that halves its size and the cost of an evaluation.  ``dressing`` maps the stored
    blocks t_ij to the family's blocks, nu_ab = sum_ij dressing[a, b, i, j]
    t_ij; it is the identity for T.  A dense value is placed only at a
    point: ``entries(u)`` evaluates the stored entries in one product of
    the powers (1, z, ..., z**degree) against ``coeffs``, ``at(u)`` places
    all four blocks as one (2, 2, d, d) array, t11..t22 place one block
    each, and ``contract(w)`` places a weighted sum of them.  A block's
    dense coefficient stack is placed only on request (``t_ij.coeffs``).
    """

    t11, t12, t21, t22 = (_block(a, b) for a, b in _PAIRS)

    def __init__(self, coeffs, unit: complex, grading: Grading, dressing=_BARE):
        if not (isinstance(coeffs, np.ndarray) and coeffs.dtype in (float, complex) and _read_only(coeffs)):
            # copy, so no caller keeps a writable handle on the coefficients
            coeffs = np.array(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
            coeffs.setflags(write=False)
        if coeffs.ndim != 2 or coeffs.shape[1] != grading.size:
            raise ValueError(f"coeffs must have shape (k, {grading.size}), got {coeffs.shape}")
        if dressing is not _BARE:
            dressing = np.array(dressing, dtype=complex).reshape(2, 2, 2, 2)
            dressing.setflags(write=False)
        self.coeffs, self.unit, self.grading, self.dressing = coeffs, complex(unit), grading, dressing

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.grading.dim

    def entries(self, u: complex) -> np.ndarray:
        """The stored entries at u, complex."""
        return _evaluate(self.coeffs, (complex(u) / self.unit) ** np.arange(self.degree + 1))

    def at(self, u: complex) -> np.ndarray:
        """The four blocks at u as one (2, 2, d, d) array, nu_ab(u) at [a, b]."""
        entries = self.entries(u)
        d = self.dim
        out = np.zeros((4, d * d), dtype=complex)
        for block, dest in zip((self.t11, self.t12, self.t21, self.t22), out):
            block.place(entries, dest)
        return out.reshape(2, 2, d, d)

    def contract(self, weights) -> "_Block":
        """sum_ab weights[a, b] nu_ab, placed at a point by calling it.  A
        2x2 matrix M acts on the auxiliary space as a twisted trace,
        tr_a(M nu) = sum_ab M_ba nu_ab, with weights M^T."""
        return _Block(self, np.tensordot(weights, self.dressing, 2))

    def dressed(self, weights) -> "MonodromyFamily":
        """The family sum_cd weights[a, b, c, d] nu_cd at [a, b], on the same
        coefficient array."""
        return type(self)(self.coeffs, self.unit, self.grading, np.tensordot(weights, self.dressing, 2))


class _Block:
    """sum_ij weights[i, j] t_ij over the stored blocks of a family: one of
    its blocks, nu_ab with the weights dressing[a, b], or a contraction.

    A dense value is placed from the stored entries at each point, and the
    dense coefficient stack (degree + 1, d, d) only when ``coeffs`` is
    read.  Blocks of one charge share their positions (``Grading.index``),
    so the weighted blocks of each charge are summed entrywise in storage
    order and the sum is written once.  The weights multiply, each as one
    complex scalar, only when some weight is not 0 or 1.  A check that
    reads several blocks at one point evaluates the stored entries once
    (``MonodromyFamily.entries``) and places each block from them
    (``placed``), or only its column 0, the block applied to the reference
    state (``column``).  It keeps what it reads of the family, not the
    family, which caches its four blocks.
    """

    def __init__(self, family: MonodromyFamily, weights: np.ndarray):
        self._coeffs, self._unit, self._dim = family.coeffs, family.unit, family.dim
        self._exponents = np.arange(family.degree + 1)
        grading = family.grading
        used = [ij for ij in _PAIRS if weights[ij] != 0]
        scaled = any(weights[ij] != 1 for ij in used)
        # charge -> (positions of its blocks, [(stored slice, weight or None)])
        self._charges = {}
        for ij in used:
            span = grading.pairs[ij]
            w = weights[ij] if scaled else None
            self._charges.setdefault(grading.charge[ij], (grading.index[span], []))[1].append((span, w))

    def place(self, entries: np.ndarray, out: np.ndarray) -> None:
        """Write the block from one vector of stored entries into the zeroed
        flattened matrix ``out``."""
        _write(entries, self._charges.values(), out)

    def placed(self, entries: np.ndarray) -> np.ndarray:
        """The d x d block from one vector of stored entries."""
        out = np.zeros(self._dim * self._dim, dtype=complex)
        self.place(entries, out)
        return out.reshape(self._dim, self._dim)

    def __call__(self, u: complex) -> np.ndarray:
        return self.placed(_evaluate(self._coeffs, (complex(u) / self._unit) ** self._exponents))

    def column(self, entries: np.ndarray) -> np.ndarray:
        """Column 0 of the block from one vector of stored entries, the
        block applied to the reference state: the sums of ``place`` over
        only the stored entries in that column."""
        out = np.zeros(self._dim, dtype=complex)
        _write(entries, self._column, out)
        return out

    @cached_property
    def _column(self) -> list:
        """The charges' (rows, terms) of ``place`` in column 0."""
        parts = []
        for index, terms in self._charges.values():
            hit = np.flatnonzero(index % self._dim == 0)
            stored = [(np.arange(span.start, span.stop)[hit], w) for span, w in terms]
            parts.append((index[hit] // self._dim, stored))
        return parts

    @property
    def coeffs(self) -> np.ndarray:
        out = np.zeros((len(self._coeffs), self._dim, self._dim), dtype=complex)
        for row, dest in zip(self._coeffs, out.reshape(len(out), -1)):
            self.place(row, dest)
        return out


def build_monodromy(params: ChainParams) -> MonodromyFamily:
    """Exact coefficients of T_a(u) in z = u/c, on the magnetization grading.

    The family keeps the stored blocks of ``_monodromy_stack``, read-only,
    with unit c and the identity dressing.  In z the coefficients stay O(1)
    for every c (in u they would carry c**-k), so coefficient k is the
    matrix multiplying (u/c)**k.  With c = 1 and integer inhomogeneities
    every coefficient is an exact integer.  Raises ValueError naming the
    coupling when a coefficient leaves the float range, as (theta/c)**k
    does for tiny |c|.
    """
    coeffs = _monodromy_stack(params, params.sites)
    return MonodromyFamily(coeffs, params.c, magnetization_grading(params.sites))


@lru_cache(maxsize=None)
def _site_gathers(n: int) -> tuple[np.ndarray, ...]:
    """The two gathers of site n over the entries that
    ``magnetization_grading`` stores at n - 1 sites: (copies, sources) for
    the P term and (diagonal, reads) for the (z - theta_n/c) I term, each
    a list of entries at n sites and the entry at n - 1 sites it reads.
    Planned once per n and kept read-only, like the gradings."""
    new, old = magnetization_grading(n), magnetization_grading(n - 1)
    pair, old_pair = (
        np.repeat(np.arange(4), [s.stop - s.start for s in g.pairs.values()]) for g in (new, old)
    )
    # where[(2i + j) d'^2 + r' d' + c'] is the stored entry of t_ij[r', c']
    cells = old.dim * old.dim
    where = np.zeros(4 * cells, dtype=np.intp)
    where[old_pair * cells + old.index] = np.arange(old.size)
    # entry t_ij[2r' + a, 2c' + b], with the new site the fastest slot
    row, col = np.divmod(new.index, new.dim)
    cell = (row >> 1) * old.dim + (col >> 1)
    a, b, i, j = row & 1, col & 1, pair >> 1, pair & 1
    copies, diagonal = np.flatnonzero(a == j), np.flatnonzero(a == b)
    sources = where[(2 * i + b)[copies] * cells + cell[copies]]
    reads = where[pair[diagonal] * cells + cell[diagonal]]
    for gather in (copies, sources, diagonal, reads):
        gather.setflags(write=False)
    return copies, sources, diagonal, reads


def _monodromy_stack(params: ChainParams, degree: int) -> np.ndarray:
    """Coefficients 0..degree of the blocks of T_a(z c) that
    ``magnetization_grading`` stores, shape (min(degree, N) + 1, size),
    read-only.

    Site by site, T^(n) = T^(n-1) R_an(u - theta_n) with
    R_an = (z - theta_n/c) I + P_an, and P_an = sum_jk E_kj (x) E_jk on
    aux (x) site n, so the blocks follow the recursion

        t_ij^(n) = (z - theta_n/c) t_ij^(n-1) (x) I + sum_k t_ik^(n-1) (x) E_jk

    with the new site as the fastest tensor slot.  Each step is two gathers
    over the stored entries of n - 1 sites (``_site_gathers``): entry
    t_ij^(n)[2r + a, 2c + b] copies its P term from t_ib^(n-1)[r, c] when
    a = j, then, when a = b, subtracts theta_n/c t_ij^(n-1)[r, c] and adds
    t_ij^(n-1)[r, c] one degree up.  Each entry sees the same copy,
    scaling and additions, in the same order, as in the recursion on dense
    2^N blocks, so every stored coefficient equals the dense one bit for
    bit.  When every theta/c is real the recursion runs in real arithmetic
    and the stack is real.  A coefficient of degree k reads only
    coefficients of degree <= k, so the stack is cut at ``degree``.  Raises
    ValueError naming the coupling on overflow.
    """
    c = params.c
    shifts = [theta / c for theta in params.theta]
    real = all(shift.imag == 0 for shift in shifts)
    # T^(0), the auxiliary identity: t11 = t22 = 1 on the empty chain
    coeffs = np.ones((1, magnetization_grading(0).size), dtype=float if real else complex)
    try:
        # the entries start finite, so they hold an inf or a nan only after
        # a shift or one of the array steps below overflowed
        with np.errstate(over="raise", invalid="raise"):
            for n, shift in enumerate(shifts, 1):
                if not cmath.isfinite(shift):
                    raise FloatingPointError("theta/c overflows")
                shift = shift.real if real else shift
                copies, sources, diagonal, reads = _site_gathers(n)
                m, kept = len(coeffs), min(len(coeffs) + 1, degree + 1)
                out = np.zeros((kept, magnetization_grading(n).size), dtype=coeffs.dtype)
                out[:m, copies] = coeffs[:, sources]
                # scaled in place and gathered again: no third gather-sized array
                term = coeffs[:, reads]
                value = out[:, diagonal]
                value[:m] -= np.multiply(shift, term, out=term)
                del term
                value[1:] += coeffs[: kept - 1, reads]
                out[:, diagonal] = value
                coeffs = out
    except FloatingPointError:
        raise ValueError(
            f"chain.c: the monodromy coefficients (theta/c)**k overflow at c = {c}"
        ) from None
    coeffs.setflags(write=False)
    return coeffs


def build_transfer(params: ChainParams, twist, family: MonodromyFamily) -> _Block:
    """Twisted transfer matrix t(u) = tr_a( K_a T_a(u) ) as the contraction
    of the family's blocks with K^T: calling it at u places t(u) from one
    evaluation of the stored entries."""
    return family.contract(twist.matrix().T)


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
    substitution at the seam.  Each term is a 4x4 matrix on two sites,
    sigma (x) sigma on sites k, k + 1 and K^-1 sigma K (x) sigma on sites 1
    and N, and is added into one d x d array by index placement: row r
    takes the term's entries at its two bits of r, in the columns that
    keep r's other bits.  The terms are added one at a time in the order
    bonds then seam, so every entry is the sum of the Kronecker products
    I (x) term (x) I bit for bit, without forming them; at one site the
    seam is the 2x2 product itself.  route="transfer" uses the logarithmic
    derivative 2c t'(0) t(0)^{-1} - N at vanishing inhomogeneities, which
    in z = u/c is 2 t_z'(0) t(0)^{-1} - N, free of c.  It reads only the
    coefficients 0 and 1 of the monodromy.  There t(0) = K_1 U with U the
    cyclic shift of the sites, so t(0) is as well conditioned as K.  The
    two coefficients are placed from the stored blocks of a degree-1
    recursion, without a family of the full degree.
    """
    n = params.sites
    if route == "direct":
        paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        twisted = _boundary_substitutions(twist)
        if n == 1:
            return sum(s @ s_tw for s, s_tw in zip(paulis, twisted))
        # (term, first site, second site), the first the slower tensor slot
        terms = [(np.kron(s, s), k, k + 1) for k in range(n - 1) for s in paulis]
        terms += [(np.kron(s_tw, s), 0, n - 1) for s, s_tw in zip(paulis, twisted)]
        d = params.dim
        out = np.zeros(d * d, dtype=complex)
        rows = np.arange(d)
        for term, p, q in terms:
            bit_p, bit_q = 1 << (n - 1 - p), 1 << (n - 1 - q)
            # the term's row index of each r, and r with both bits cleared
            # as the flat position of its column 0
            slot = 2 * ((rows & bit_p) > 0) + ((rows & bit_q) > 0)
            base = rows * d + (rows & ~(bit_p | bit_q))
            for col, shift in enumerate((0, bit_q, bit_p, bit_p | bit_q)):
                out[base + shift] += term[slot, col]
        return out.reshape(d, d)
    if route == "transfer":
        if any(abs(t) > 1e-12 for t in params.theta):
            raise ValueError("transfer route requires vanishing inhomogeneities")
        kmat = twist.matrix()
        if np.linalg.cond(kmat) > 1e12:
            raise ValueError("transfer matrix is singular at u = 0")
        low = MonodromyFamily(_monodromy_stack(params, 1), params.c, magnetization_grading(n))
        t0, dt0 = low.contract(kmat.T).coeffs  # t(0), d t / dz at 0
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
    scaled gap between its two sides, for a bare family.

    Every two-point check reads the block products t_ij(u) t_kl(v) and
    t_kl(v) t_ij(u) off the tables of ``_graded_products``, one column
    sector at a time, where the 16 products of each total charge Q are
    stacked: the RTT relation through its 16 block components, one stack
    of sides per charge (``_rtt_sides``); the three exchange relations
    used by the algebraic Bethe ansatz, which are three of those
    components (``_exchange_sides``); and commutativity of the transfer
    matrix, the twist-weighted sum of each charge's stack
    (``_commutator_sides``).  Blocks in different (row, column) sectors are
    disjoint, so their squared norms add and every gap is exact.
    ``magnetization_conservation`` is the share of the stored entries at u
    and v that sit outside the magnetization grading; the chain's
    monodromy stores none there and reads 0, so its blocks are checked
    against the R-matrix product by ``monodromy_product_gap``.  GL(2)
    invariance of the R-matrix against the twist is a 4x4 check.  A
    dressed family raises ValueError.
    """
    if abs(u - v) <= eps_dist(params.c):
        raise ValueError("structure checks need two distinct spectral points")
    c = params.c
    groups, off_grade, sectors = _graded_products(family, u, v)
    kmat = twist.matrix()
    weights = groups.weights(kmat)
    gaps = _summed_gaps(
        {
            "rtt": _rtt_sides(uv, vu, (u - v) / c, groups),
            "transfer_commutator": _commutator_sides(uv, vu, weights),
            **_exchange_sides(uv, vu, c / (u - v), groups),
        }
        for uv, vu in sectors
    )
    r4 = build_r_matrix(u - v, c)
    kk = np.kron(kmat, kmat)
    out = {
        "rtt": gaps.pop("rtt"),
        "transfer_commutator": gaps.pop("transfer_commutator"),
        "gl2_invariance": _scaled_gap(r4 @ kk, kk @ r4),
    }
    out.update(gaps)
    out["magnetization_conservation"] = off_grade
    return out


class _ProductGroups:
    """The 16 block products t_ij t_kl of a grading, grouped by their total
    charge Q = q_ij + q_kl, which maps column sector M to M + Q: the
    products of one Q share a shape there and stack.

    A group holds runs of one (q_ij, q_kl), ij-major: every block of
    charge q_ij times every block of charge q_kl, which share their
    middle sector and are one broadcast ``matmul``.  ``quads[Q]`` lists
    the group's products as (i, j, k, l), ``position[i, j, k, l]`` is
    (Q, index in its group), and ``swap[Q]`` and ``cross[Q]`` give, for
    each product t_ij t_kl of a group, the index of t_kj t_il and of
    t_kl t_ij, which have the same charge.
    """

    def __init__(self, charge: tuple):
        charge = np.reshape(charge, (2, 2))
        members = {}  # charge -> its blocks, in storage order
        for ij in _PAIRS:
            members.setdefault(int(charge[ij]), []).append(ij)
        self.members, self.runs, self.quads = members, {}, {}
        for q1, q2 in itertools.product(sorted(members), repeat=2):
            quads = self.quads.setdefault(q1 + q2, [])
            run = slice(len(quads), len(quads) + len(members[q1]) * len(members[q2]))
            self.runs.setdefault(q1 + q2, []).append((q1, q2, run))
            quads += [(*ij, *kl) for ij in members[q1] for kl in members[q2]]
        self.position = {quad: (q, k) for q, quads in self.quads.items() for k, quad in enumerate(quads)}
        at = self.position
        self.swap = {q: np.array([at[k, j, i, l][1] for i, j, k, l in quads]) for q, quads in self.quads.items()}
        self.cross = {q: np.array([at[k, l, i, j][1] for i, j, k, l in quads]) for q, quads in self.quads.items()}

    def weights(self, kmat: np.ndarray) -> dict:
        """Q -> K_ji K_lk of each product of the group, its weight in
        t(x) t(y) = sum_{ij,kl} K_ji K_lk t_ij(x) t_kl(y)."""
        return {
            q: np.array([kmat[j, i] * kmat[l, k] for i, j, k, l in quads])
            for q, quads in self.quads.items()
        }


# one _ProductGroups per charge matrix, as a tuple
_product_groups = lru_cache(maxsize=None)(_ProductGroups)


def _graded_products(family: MonodromyFamily, u: complex, v: complex):
    """The block products of a bare family, one column sector of its
    grading at a time, stacked by total charge.

    The grading's sectors split the chain basis, and t_ij maps sector M
    into sector M + q_ij and vanishes elsewhere, so the pieces at each
    point come from one evaluation of the stored entries: the
    magnetization blocks for the chain's monodromy, the four dense blocks
    for a family stored on one sector with zero charges.  The blocks of
    one charge share a layout, so each point's blocks of charge q in
    sector M are one (members, rows, cols) stack.  A product t_ij(x)
    t_kl(y) maps M to M + Q with Q = q_ij + q_kl; on column sector M it is
    t_ij[M + Q, M + q_kl] @ t_kl[M + q_kl, M], zero when the middle sector
    lies outside the grading and empty when M + Q does.  Returns (groups,
    off_grade, sectors): ``groups`` is the ``_ProductGroups`` of the
    grading's charges, and ``sectors`` yields, for each M in turn, the
    tables uv[Q] and vu[Q], the stacks t_ij(u) t_kl(v) and t_ij(v) t_kl(u)
    over the group's products in order, so uv[Q][k] with (Q, k) =
    groups.position[i, j, k, l] is t_ij(u) t_kl(v).  off_grade is the norm
    of the stored entries at u and v outside the magnetization grading
    over max(1, norm of all of them): an entry of t_ij at [r, c]
    (``Grading.index``) is outside when M(r) - M(c) != j - i.  A dressed
    family mixes the blocks its grading keeps apart, so it raises
    ValueError.
    """
    if not np.array_equal(family.dressing, _BARE):
        raise ValueError("block products need a bare family; a dressed one mixes its grading's charges")
    grading = family.grading
    groups = _product_groups(tuple(grading.charge.ravel().tolist()))
    entries = [family.entries(x) for x in (u, v)]
    down = _down_counts(grading.dim.bit_length() - 1)
    row, col = np.divmod(grading.index, grading.dim)
    stored_charge = np.repeat(_CHARGE.ravel(), [s.stop - s.start for s in grading.pairs.values()])
    outside = down[row] - down[col] != stored_charge
    off_sq = total_sq = 0.0
    for e in entries:
        off = e[outside]
        off_sq += np.vdot(off, off).real
        total_sq += np.vdot(e, e).real
    off_grade = float(np.sqrt(off_sq) / max(1.0, np.sqrt(total_sq)))

    def stacks(e: np.ndarray) -> dict:
        # charge q -> sector M -> the blocks of charge q at [M + q, M]
        out = {}
        for q, ijs in groups.members.items():
            stored = np.stack([e[grading.pairs[ij]] for ij in ijs])
            out[q] = {m: stored[:, span].reshape(len(ijs), *shape) for m, span, shape in grading.layout(q)}
        return out

    pieces = [stacks(e) for e in entries]
    sizes = [len(s) for s in grading.sectors]
    n = len(sizes)

    def table(first, second, m):
        out = {}
        for q, runs in groups.runs.items():
            rows = sizes[m + q] if 0 <= m + q < n else 0
            out[q] = stack = np.empty((len(groups.quads[q]), rows, sizes[m]), dtype=complex)
            for q1, q2, run in runs:
                if rows and 0 <= m + q2 < n:
                    left, right = first[q1][m + q2], second[q2][m]
                    shape = (len(left), len(right), rows, sizes[m])
                    np.matmul(left[:, None], right[None], out=stack[run].reshape(shape))
                else:
                    stack[run] = 0.0
        return out

    sectors = ((table(*pieces, m), table(*pieces[::-1], m)) for m in range(n))
    return groups, off_grade, sectors


# entries per run of rows of the R-matrix product (256 KB): the whole
# aux row of blocks up to N=6, 32 rows at N=8, where runs of a quarter of
# the rows took longer and a larger transient beside the held entries
_PRODUCT_ENTRIES = 2 ** 14


def monodromy_product_gap(params: ChainParams, family: MonodromyFamily, u: complex) -> float:
    """Scaled gap between the family's four blocks at u, as one operator on
    aux (x) chain, and the R-matrix product ``monodromy_matrix``, which
    shares neither the recursion nor the storage.  The stored entries are
    evaluated once; one auxiliary row of blocks is placed from them at a
    time and compared with runs of rows of the product of at most
    ``_PRODUCT_ENTRIES`` entries, their squared norms summed."""
    d = family.dim
    run = max(1, _PRODUCT_ENTRIES // (2 * d))
    entries = family.entries(u)

    def runs():
        for a, pair in enumerate(((family.t11, family.t12), (family.t21, family.t22))):
            left, right = (block.placed(entries) for block in pair)
            for start in range(0, d, run):
                rows = monodromy_matrix(params, u, a * d + start, a * d + min(start + run, d))
                here = slice(start, start + run)
                yield {"product": [(left[here], rows[:, :d]), (right[here], rows[:, d:])]}
            del left, right

    return _summed_gaps(runs())["product"]


# entries per slice of a stack of products that the RTT sides are formed
# on (64 KB): at N=8 the middle sectors' stacks reach 470 KB, and sides
# formed on whole stacks of that size took longer than one product at a
# time
_SIDE_ENTRIES = 4096


def _rtt_sides(uv: dict, vu: dict, a: complex, groups: _ProductGroups):
    """The two sides of R_ab(u - v) T_a(u) T_b(v) = T_b(v) T_a(u) R_ab(u - v)
    on slots (a, b, chain), a = (u - v)/c, as its 16 block components, one
    stack per total charge.

    R_ab = a I + P_ab; P_ab swaps the row slots on the left and the column
    slots on the right, so block (ik, jl) of the two sides is
    a t_ij(u) t_kl(v) + t_kj(u) t_il(v) and a t_kl(v) t_ij(u) + t_kj(v) t_il(u),
    products of one charge.  A stack is taken a slice of about
    ``_SIDE_ENTRIES`` entries at a time.
    """
    for q, swap in groups.swap.items():
        cross = groups.cross[q]
        step = max(1, _SIDE_ENTRIES // max(1, uv[q][0].size))
        for k in range(0, len(swap), step):
            part = slice(k, k + step)
            yield a * uv[q][part] + uv[q][swap[part]], a * vu[q][cross[part]] + vu[q][swap[part]]


def _commutator_sides(uv: dict, vu: dict, weights: dict):
    """t(u) t(v) and t(v) t(u), one total charge at a time, each the
    weighted sum (``_ProductGroups.weights``) of that charge's stack:
    terms of different charges are disjoint."""
    for q, w in weights.items():
        yield w @ uv[q].reshape(len(w), -1), w @ vu[q].reshape(len(w), -1)


# squared norms of two sides below this have a difference whose squared
# norm, at most 2 (||lhs||^2 + ||rhs||^2), stays below 2**1023
_SAFE_SQUARE = 2.0 ** 1021


def _gap_exponent(lhs: np.ndarray, rhs: np.ndarray, squares) -> int:
    """The e >= 0 for which lhs and rhs, scaled by 2**-e, which is exact,
    give their gap without overflow.  e = 0, and the gap is computed as it
    always was, bit for bit, while both squared norms (``squares``) stay
    below ``_SAFE_SQUARE``; larger sides get the e that puts every entry
    below 1 in magnitude.  Sides with an inf or a nan keep e = 0 and their
    gap, and so does a caller whose error state raises on overflow: ``cli``
    verify names an input beyond double precision that way."""
    if max(squares) < _SAFE_SQUARE or np.geterr()["over"] == "raise":
        return 0
    largest = max(float(np.max(np.abs(part), initial=0.0)) for x in (lhs, rhs) for part in (x.real, x.imag))
    return math.frexp(largest)[1] if math.isfinite(largest) else 0


def _gap_squares(lhs: np.ndarray, rhs: np.ndarray) -> tuple[list, int]:
    """([||lhs||^2, ||rhs||^2, ||lhs - rhs||^2], e) of the sides scaled by
    2**-e (``_gap_exponent``)."""
    squares = [np.vdot(x, x).real for x in (lhs, rhs)]
    e = _gap_exponent(lhs, rhs, squares)
    if e:
        lhs, rhs = lhs * math.ldexp(1.0, -e), rhs * math.ldexp(1.0, -e)
        squares = [np.vdot(x, x).real for x in (lhs, rhs)]
    diff = lhs - rhs
    return [*squares, np.vdot(diff, diff).real], e


def _summed_gaps(sides) -> dict[str, float]:
    """``_scaled_gap`` of each named operator identity whose two sides come
    in disjoint blocks: ``sides`` yields {name: (lhs, rhs) pairs}, and the
    squared norms of each name's pairs are summed before the ratio.  Each
    name's sum is kept scaled by 4**-e with the largest exponent e of its
    pairs (``_gap_squares``), 0 unless some pair would overflow."""
    sq = {}
    for named in sides:
        for name, pairs in named.items():
            acc, shift = sq.get(name, (np.zeros(3), 0))
            for lhs, rhs in pairs:
                squares, e = _gap_squares(lhs, rhs)
                if e > shift:
                    acc, shift = np.ldexp(acc, 2 * (shift - e)), e
                acc += squares if e == shift else np.ldexp(squares, 2 * (e - shift))
            sq[name] = acc, shift
    return {
        name: float(np.sqrt(acc[2]) / max(math.ldexp(1.0, -shift), *np.sqrt(acc[:2])))
        for name, (acc, shift) in sq.items()
    }


def _scaled_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs|| / max(1, ||lhs||, ||rhs||): the gap between the two
    sides of an operator identity relative to their scale.  Operators and
    amplitudes grow with the chain, so an absolute gap would measure their
    size; the unit floor keeps tiny sides from inflating pure roundoff.
    Sides too large to square are scaled by 2**-e first, and the floor
    with them (``_gap_exponent``)."""
    e = _gap_exponent(lhs, rhs, [np.vdot(x, x).real for x in (lhs, rhs)])
    if e:
        lhs, rhs = lhs * math.ldexp(1.0, -e), rhs * math.ldexp(1.0, -e)
    scale = max(math.ldexp(1.0, -e), float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs) / scale)


def exchange_residuals(
    family: MonodromyFamily, c: complex, u: complex, v: complex
) -> dict[str, float]:
    """Scale-relative residuals of the three two-point exchange relations
    for a bare family of monodromy blocks, read off the
    ``_graded_products`` tables one column sector at a time, as
    ``structure_checks`` reads them.  The twisted operators obey the same
    relations as the plain ones; a dressed family raises ValueError, so
    they are checked on their blocks stored as a bare family."""
    groups, _, sectors = _graded_products(family, u, v)
    g = c / (u - v)
    return _summed_gaps(_exchange_sides(uv, vu, g, groups) for uv, vu in sectors)


def _exchange_sides(uv: dict, vu: dict, g: complex, groups: _ProductGroups) -> dict:
    """The sides of the exchange relations in the ``_graded_products``
    tables, with g = g(u, v) = c/(u - v); index 0 is 1, so u_v(0, 0, 0, 1)
    below is t11(u) t12(v) and v_u(0, 0, 0, 1) is t11(v) t12(u)."""

    def product(table, *quad):
        q, k = groups.position[quad]
        return table[q][k]

    f_uv = 1.0 + g            # f(u, v)
    f_vu = 1.0 - g            # f(v, u), since g(v, u) = -g(u, v)
    u_v, v_u = partial(product, uv), partial(product, vu)
    # The creation/annihilation exchange closes on the diagonal blocks.  The
    # ordering t12(v) t21(u) on the right is the one compatible with the
    # global commutator structure; swapping the arguments only works at N=1
    # where t12 and t21 are constant in the spectral parameter.
    return {
        "exchange_t11_t12": [(u_v(0, 0, 0, 1), f_vu * v_u(0, 1, 0, 0) + g * u_v(0, 1, 0, 0))],
        "exchange_t22_t12": [(u_v(1, 1, 0, 1), f_uv * v_u(0, 1, 1, 1) - g * u_v(0, 1, 1, 1))],
        "exchange_t21_t12": [
            (u_v(1, 0, 0, 1), v_u(0, 1, 1, 0) + g * (v_u(0, 0, 1, 1) - u_v(0, 0, 1, 1)))
        ],
    }
