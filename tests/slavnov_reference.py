"""Reference copies of the Slavnov overlap formula as it stood when its
Jacobian was filled entry by entry: one scalar eigenvalue gradient per
(on-shell root, free point) pair.  The broadcast Jacobian must reproduce
these to rounding."""

import numpy as np

from twistchain.bethe import _as_set, _kernel_row, kernel_g
from twistchain.linalg import determinant
from twistchain.overlaps import _require_disjoint, _require_onshell
from twistchain.states import w0


def _three_term(ctx, u, roots, a, b, z, leave=()):
    g = _kernel_row(u, _as_set(roots, ctx.c).values, ctx.c, leave)
    l1, l2 = ctx.lam(u)
    return a * l1 * np.prod(1 - g) + b * l2 * np.prod(1 + g) + z * l1 * l2 * np.prod(g)


def eigenvalue_gradient(ctx, u, roots, i):
    rs = _as_set(roots, ctx.c)
    t, f = ctx.twist, ctx.fact
    gi = kernel_g(u, rs[i], ctx.c)
    bracket = _three_term(
        ctx, u, rs, -(t.kappa_tilde - f.rho), t.kappa - f.rho, 2 * f.rho, i
    )
    return gi ** 2 / ctx.c * bracket


def slavnov_jacobian(ctx, free, onshell):
    n = len(onshell)
    return np.array(
        [
            [eigenvalue_gradient(ctx, free[j], onshell, i) for j in range(n)]
            for i in range(n)
        ]
    )


def slavnov_formula(ctx, us, vs, orientation="u-onshell"):
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
    jac = slavnov_jacobian(ctx, free, onshell)
    cauchy = kernel_g(free.values[:, None], onshell.values[None, :], ctx.c)
    t, f = ctx.twist, ctx.fact
    stretch = t.kappa_tilde + t.kappa - f.rho
    prefactor = (ctx.c * f.mu ** 2 / stretch) ** n * w0(ctx, onshell)
    return prefactor * determinant(jac) / determinant(cauchy)
