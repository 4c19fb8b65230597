"""Twist matrix and its symmetric LDL-type factorization.

A generic 2x2 twist K = [[kappa_tilde, kappa_plus], [kappa_minus, kappa]]
with nonzero off-diagonal product factorizes as K = L D L where

    L = sqrt(mu) [[1, rho/kappa_minus], [rho/kappa_plus, 1]],
    D = diag(kappa_tilde - rho, kappa - rho),

rho is a root of rho^2 - (kappa_tilde + kappa) rho + kappa_plus kappa_minus
and mu = (kappa_tilde + kappa - rho) / (kappa_tilde + kappa - 2 rho).  The
dressing nu = L T_a L of the monodromy gives the "modified" operators the
modified algebraic Bethe ansatz is built from, and the transfer matrix is
tr_a(K T) = tr_a(D nu).  Both are contractions of the four blocks with 2x2
matrices (``chain._contract``).  All square roots take the principal branch
so both rho branches are bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainParams,
    MonodromyFamily,
    _contract,
    _scaled_gap,
    vacuum_state,
    vacuum_weights,
)
from .linalg import MatrixPolynomial

__all__ = [
    "TwistDegeneracyError",
    "TwistFactorization",
    "TwistParams",
    "build_modified_operators",
    "diagonal_factorization",
    "factorize_twist",
    "modified_diagonal_residual",
    "twist_alpha",
    "vacuum_action_residuals",
]


class TwistDegeneracyError(ValueError):
    """The requested factorization does not exist for this twist."""


@dataclass(frozen=True)
class TwistParams:
    """Entries of the 2x2 twist matrix."""

    kappa_tilde: complex
    kappa: complex
    kappa_plus: complex
    kappa_minus: complex

    def __post_init__(self):
        for name in ("kappa_tilde", "kappa", "kappa_plus", "kappa_minus"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def gamma(self) -> complex:
        """det K = kappa_tilde kappa - kappa_plus kappa_minus."""
        return self.kappa_tilde * self.kappa - self.kappa_plus * self.kappa_minus

    @property
    def trace(self) -> complex:
        return self.kappa_tilde + self.kappa

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.kappa_tilde, self.kappa_plus], [self.kappa_minus, self.kappa]],
            dtype=complex,
        )


@dataclass(frozen=True)
class TwistFactorization:
    """One branch of the K = L D L factorization.

    ratio_plus = rho/kappa_plus and ratio_minus = rho/kappa_minus are stored
    explicitly so the diagonal (U(1)) limit, where rho and the off-diagonal
    entries vanish together, stays finite downstream.
    """

    rho: complex
    mu: complex
    alpha: complex
    ratio_plus: complex
    ratio_minus: complex
    l_factor: np.ndarray
    d_factor: np.ndarray
    branch: str


def _overflow_checked(factorize):
    """Wraps a factorization so that a twist entry too large for the float
    range, which turns its numbers into inf or nan, raises a
    TwistDegeneracyError naming the twist instead of warning."""

    @functools.wraps(factorize)
    def checked(twist: TwistParams, *args, **kwargs) -> TwistFactorization:
        with np.errstate(all="ignore"):
            fact = factorize(twist, *args, **kwargs)
        numbers = (fact.rho, fact.mu, fact.alpha, fact.l_factor, fact.d_factor)
        if not all(np.all(np.isfinite(x)) for x in numbers):
            raise TwistDegeneracyError(
                f"twist K = {twist.matrix().tolist()} overflows its factorization; "
                "scale the twist down, which leaves the Bethe roots unchanged"
            )
        return fact

    return checked


def twist_alpha(twist: TwistParams) -> complex:
    """Twist eigenvalue entering the plain-ansatz eigenvalue branch."""
    kt, k = twist.kappa_tilde, twist.kappa
    # a product, not ** 2: a complex power raises OverflowError where a
    # product overflows to inf, which ``_overflow_checked`` reports
    disc = (k - kt) * (k - kt) + 4 * twist.kappa_plus * twist.kappa_minus
    return (k + kt + np.sqrt(complex(disc))) / 2


@_overflow_checked
def factorize_twist(twist: TwistParams, branch: str = "minus") -> TwistFactorization:
    """Factorize a twist with nonzero off-diagonal product.

    branch selects the root of the rho quadratic: "minus" takes
    (trace - sqrt(disc))/2 under the principal square root, "plus" the
    other one.
    """
    if branch not in ("minus", "plus"):
        raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")
    kp, km = twist.kappa_plus, twist.kappa_minus
    if kp * km == 0:
        raise TwistDegeneracyError(
            "kappa_plus * kappa_minus = 0: the L D L factorization degenerates; "
            "use diagonal_factorization for the U(1) limit"
        )
    s = twist.trace
    disc = s * s - 4 * kp * km
    root = np.sqrt(complex(disc))
    rho = (s - root) / 2 if branch == "minus" else (s + root) / 2
    denom = s - 2 * rho
    scale = max(1.0, abs(s))
    if abs(denom) <= 1e-12 * scale:
        other = "plus" if branch == "minus" else "minus"
        raise TwistDegeneracyError(
            f"kappa_tilde + kappa - 2 rho vanishes on branch {branch!r} "
            f"(mu singular); try branch {other!r}"
        )
    mu = (s - rho) / denom
    ratio_plus = rho / kp
    ratio_minus = rho / km
    sq = np.sqrt(complex(mu))
    l_factor = sq * np.array([[1.0, ratio_minus], [ratio_plus, 1.0]], dtype=complex)
    d_factor = np.diag([twist.kappa_tilde - rho, twist.kappa - rho]).astype(complex)
    return TwistFactorization(
        rho=complex(rho),
        mu=complex(mu),
        alpha=twist_alpha(twist),
        ratio_plus=complex(ratio_plus),
        ratio_minus=complex(ratio_minus),
        l_factor=l_factor,
        d_factor=d_factor,
        branch=branch,
    )


@_overflow_checked
def diagonal_factorization(twist: TwistParams) -> TwistFactorization:
    """Trivial factorization of a diagonal twist (kappa_plus = kappa_minus = 0).

    rho = 0, mu = 1 and L = I, so the modified operators reduce to the bare
    monodromy blocks and the machinery degrades to the plain ansatz.
    """
    if twist.kappa_plus != 0 or twist.kappa_minus != 0:
        raise TwistDegeneracyError(
            "diagonal_factorization needs kappa_plus = kappa_minus = 0"
        )
    return TwistFactorization(
        rho=0.0 + 0.0j,
        mu=1.0 + 0.0j,
        alpha=twist_alpha(twist),
        ratio_plus=0.0 + 0.0j,
        ratio_minus=0.0 + 0.0j,
        l_factor=np.eye(2, dtype=complex),
        d_factor=np.diag([twist.kappa_tilde, twist.kappa]).astype(complex),
        branch="diagonal",
    )


def build_modified_operators(
    family: MonodromyFamily, fact: TwistFactorization
) -> MonodromyFamily:
    """L T_a(u) L = mu L0 T_a(u) L0 as a family of the input's shape.

    L0 = [[1, rho/kappa_minus], [rho/kappa_plus, 1]] is built from the
    stored ratios, so the diagonal limit (both ratios zero, mu = 1) returns
    the input family unchanged, and mu is applied once rather than as
    sqrt(mu) on each side.  The dressing is one ``chain._contract``
    product over the input's coefficient stack.
    """
    l0 = np.array([[1.0, fact.ratio_minus], [fact.ratio_plus, 1.0]], dtype=complex)
    weights = fact.mu * np.einsum("ai,jb->abij", l0, l0)
    return MonodromyFamily(_contract(family.coeffs, weights), family.unit)


def modified_diagonal_residual(
    modified: MonodromyFamily,
    transfer: MatrixPolynomial,
    twist: TwistParams,
    fact: TwistFactorization,
    u: complex,
) -> float:
    """Scaled gap (``chain._scaled_gap``) between tr_a(D nu(u)) and t(u),
    equal since K = L D L and nu = L T L; the D entries are
    kappa_tilde - rho and kappa - rho, so ``twist`` is implied by ``fact``."""
    return _scaled_gap(_contract(modified.at(u), fact.d_factor.T), transfer(u))


def vacuum_action_residuals(
    modified: MonodromyFamily,
    fact: TwistFactorization,
    params: ChainParams,
    u: complex,
) -> dict[str, float]:
    """Residuals of the modified-operator actions on the reference state,
    each a scaled gap (``chain._scaled_gap``) between the two sides.

    nu11 and nu22 act diagonally up to a rho/kappa_plus leak into the
    creation operator nu12; nu21 annihilates the vacuum only up to the same
    leak at second order.
    """
    v0 = vacuum_state(params.sites)
    l1, l2 = vacuum_weights(params, u)
    rp = fact.ratio_plus
    # nu_ij(u) |0> for all four blocks, from one evaluation
    (nu11, b), (nu21, nu22) = modified.at(u) @ v0
    return {
        "nu11_vacuum": _scaled_gap(nu11, l1 * v0 + rp * b),
        "nu22_vacuum": _scaled_gap(nu22, l2 * v0 + rp * b),
        "nu21_vacuum": _scaled_gap(nu21, rp * (l1 + l2) * v0 + rp ** 2 * b),
    }
