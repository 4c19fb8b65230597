"""Dense reference operators built from the R-matrix definition, numpy only.

Nothing here imports twistchain: the benchmark checks the program's
outputs against these matrices, so they must not share its code paths.

Conventions follow the package docs: R(w) = (w/c) I + P on aux (x) site,
T_a(u) = R_a1(u - theta_1) ... R_aN(u - theta_N) with the auxiliary space
slowest and site 1 the slowest chain index, and t(u) = tr_a(K_a T_a(u))
with K = [[kappa_tilde, kappa_plus], [kappa_minus, kappa]].
"""

from __future__ import annotations

import numpy as np


def _times_flip(a: np.ndarray, site: int, sites: int, i: int, j: int) -> np.ndarray:
    """a @ e_ji at `site`: e_ji = |j><i| sends a basis state whose site
    holds i to the same state holding j, so the product copies the
    columns with site = j into the slots with site = i."""
    rows = a.shape[0]
    src = a.reshape(rows, 2 ** site, 2, 2 ** (sites - site - 1))
    out = np.zeros_like(src)
    out[:, :, i, :] = src[:, :, j, :]
    return out.reshape(rows, -1)


def monodromy_blocks(sites: int, c: complex, theta, u: complex) -> np.ndarray:
    """The 2x2 auxiliary blocks of T_a(u), shape (2, 2, 2^N, 2^N).

    The aux block (l, j) of R_ak(w) is (w/c) delta_lj I + e_jl at site k,
    because P = sum_ij e_ij (x) e_ji.
    """
    dim = 2 ** sites
    t = np.zeros((2, 2, dim, dim), dtype=complex)
    t[0, 0] = t[1, 1] = np.eye(dim)
    for k in range(sites):
        w = (u - theta[k]) / c
        nxt = w * t
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    nxt[i, j] += _times_flip(t[i, l], k, sites, l, j)
        t = nxt
    return t


def transfer_matrix(sites: int, c: complex, theta, kmat, u: complex) -> np.ndarray:
    """t(u) = sum_ij K_ij T_ji(u)."""
    t = monodromy_blocks(sites, c, theta, u)
    return sum(kmat[i, j] * t[j, i] for i in range(2) for j in range(2))


def match_spectrum(found, reference, tol: float) -> tuple[int, float]:
    """Greedy distinct nearest assignment of found values to reference
    eigenvalues; returns (how many lie within tol, worst relative gap).
    Gaps are relative to the spectral radius, with a unit floor."""
    ref = list(np.asarray(reference, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(ref))))
    matched, worst = 0, 0.0
    for z in found:
        if not ref:
            return matched, float("inf")
        k = int(np.argmin([abs(z - w) for w in ref]))
        gap = abs(z - ref.pop(k)) / scale
        worst = max(worst, gap)
        matched += gap <= tol
    return matched, worst
