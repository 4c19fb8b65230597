"""Twist matrix and its symmetric LDL-type factorization.

A generic 2x2 twist K = [[kappa_tilde, kappa_plus], [kappa_minus, kappa]]
with nonzero off-diagonal product factorizes as K = L D L where

    L = sqrt(mu) [[1, rho/kappa_minus], [rho/kappa_plus, 1]],
    D = diag(kappa_tilde - rho, kappa - rho),

rho is a root of rho^2 - (kappa_tilde + kappa) rho + kappa_plus kappa_minus
and mu = (kappa_tilde + kappa - rho) / (kappa_tilde + kappa - 2 rho).  A
diagonal twist is the limit rho = 0, mu = 1, L = I of the same record.  The
dressing nu = L T_a L of the monodromy gives the "modified" operators the
modified algebraic Bethe ansatz is built from, and the transfer matrix is
tr_a(K T) = tr_a(D nu).  Both act on the four blocks through 2x2
matrices: nu is T with the dressing mu L0 (x) L0
(``MonodromyFamily.dressed``).  All square roots take the principal
branch so both rho branches are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainParams,
    MonodromyFamily,
    _Block,
    _scaled_gap,
    vacuum_state,
    vacuum_weights,
)

__all__ = [
    "TwistDegeneracyError",
    "TwistFactorization",
    "TwistParams",
    "build_modified_operators",
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
    """One branch of the K = L D L factorization, L = sqrt(mu) L0.

    ratio_plus = rho/kappa_plus and ratio_minus = rho/kappa_minus are stored
    explicitly so the diagonal (U(1)) limit, where rho and the off-diagonal
    entries vanish together, stays finite downstream.
    """

    rho: complex
    mu: complex
    ratio_plus: complex
    ratio_minus: complex
    d_factor: np.ndarray
    branch: str

    @property
    def l0(self) -> np.ndarray:
        """L0 = [[1, rho/kappa_minus], [rho/kappa_plus, 1]]; the identity in
        the diagonal limit."""
        return np.array([[1.0, self.ratio_minus], [self.ratio_plus, 1.0]], dtype=complex)


def twist_alpha(twist: TwistParams) -> complex:
    """Twist eigenvalue entering the plain-ansatz eigenvalue branch."""
    kt, k = twist.kappa_tilde, twist.kappa
    # a product, not ** 2: a complex power raises OverflowError where a
    # product overflows to inf, which ``factorize_twist`` reports
    disc = (k - kt) * (k - kt) + 4 * twist.kappa_plus * twist.kappa_minus
    return (k + kt + np.sqrt(complex(disc))) / 2


def factorize_twist(twist: TwistParams, branch: str = "minus") -> TwistFactorization:
    """Factorize a twist as K = L D L.

    branch selects the root of the rho quadratic: "minus" takes
    (trace - sqrt(disc))/2 under the principal square root, "plus" the
    other one.  A diagonal twist (kappa_plus = kappa_minus = 0) has the one
    factorization rho = 0, mu = 1, L = I, returned as branch "diagonal":
    the modified operators reduce to the bare monodromy blocks and the
    machinery to the plain ansatz.  A twist entry too large for the float
    range, which turns the numbers into inf or nan, raises a
    TwistDegeneracyError naming the twist.
    """
    if branch not in ("minus", "plus"):
        raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")
    kp, km = twist.kappa_plus, twist.kappa_minus
    with np.errstate(all="ignore"):
        if kp == 0 and km == 0:
            rho, mu, ratio_plus, ratio_minus, branch = 0j, 1 + 0j, 0j, 0j, "diagonal"
        elif kp * km == 0:
            raise TwistDegeneracyError(
                "kappa_plus * kappa_minus = 0: the L D L factorization degenerates; "
                "only the U(1) limit kappa_plus = kappa_minus = 0 is covered"
            )
        else:
            s = twist.trace
            root = np.sqrt(complex(s * s - 4 * kp * km))
            rho = (s - root) / 2 if branch == "minus" else (s + root) / 2
            denom = s - 2 * rho
            if abs(denom) <= 1e-12 * max(1.0, abs(s)):
                other = "plus" if branch == "minus" else "minus"
                raise TwistDegeneracyError(
                    f"kappa_tilde + kappa - 2 rho vanishes on branch {branch!r} "
                    f"(mu singular); try branch {other!r}"
                )
            mu, ratio_plus, ratio_minus = (s - rho) / denom, rho / kp, rho / km
        d_factor = np.diag([twist.kappa_tilde - rho, twist.kappa - rho])
        numbers = (rho, mu, ratio_plus, ratio_minus, d_factor, twist_alpha(twist))
    if not all(np.all(np.isfinite(x)) for x in numbers):
        raise TwistDegeneracyError(
            f"twist K = {twist.matrix().tolist()} overflows its factorization; "
            "scale the twist down, which leaves the Bethe roots unchanged"
        )
    return TwistFactorization(
        complex(rho), complex(mu), complex(ratio_plus), complex(ratio_minus), d_factor, branch
    )


def build_modified_operators(
    family: MonodromyFamily, fact: TwistFactorization
) -> MonodromyFamily:
    """L T_a(u) L = mu L0 T_a(u) L0 as the dressing mu L0 (x) L0 of the
    input family, on its coefficient array: no coefficient is computed or
    copied, and each value is dressed where it is placed.

    L0 (``TwistFactorization.l0``) is built from the stored ratios, so the
    diagonal limit (both ratios zero, mu = 1) returns the input family
    unchanged, and mu is applied once rather than as sqrt(mu) on each side.
    """
    return family.dressed(fact.mu * np.einsum("ai,jb->abij", fact.l0, fact.l0))


def modified_diagonal_residual(
    modified: MonodromyFamily,
    transfer: _Block,
    twist: TwistParams,
    fact: TwistFactorization,
    u: complex,
) -> float:
    """Scaled gap (``chain._scaled_gap``) between tr_a(D nu(u)) and t(u),
    equal since K = L D L and nu = L T L; the D entries are
    kappa_tilde - rho and kappa - rho, so ``twist`` is implied by ``fact``."""
    return _scaled_gap(modified.contract(fact.d_factor.T)(u), transfer(u))


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
    # nu_ij(u) |0> is column 0 of each block, read from one evaluation of
    # the stored entries without placing the d x d blocks
    entries = modified.entries(u)
    nu11, b, nu21, nu22 = (
        block.column(entries, 0)
        for block in (modified.t11, modified.t12, modified.t21, modified.t22)
    )
    return {
        "nu11_vacuum": _scaled_gap(nu11, l1 * v0 + rp * b),
        "nu22_vacuum": _scaled_gap(nu22, l2 * v0 + rp * b),
        "nu21_vacuum": _scaled_gap(nu21, rp * (l1 + l2) * v0 + rp ** 2 * b),
    }
