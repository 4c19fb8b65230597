"""Reference copy of the block placement as it stood before each charge
was summed entrywise and written once at ``Grading.index``: every stored
entry scaled in place by one full-length vector of its block's weight,
blocks grouped by charge, each group summed out of place, and a block alone
in its charge merged with the next one whose entries follow it.
``chain._Block`` must reproduce its values bit for bit.

Also the direct Hamiltonian route as it stood before its terms were placed
by index: one Kronecker product I (x) term (x) I per term, summed in
order, which ``chain.build_hamiltonian`` must reproduce bit for bit."""

import itertools

import numpy as np

from twistchain.chain import _PAIRS, SIGMA_X, SIGMA_Y, SIGMA_Z, _boundary_substitutions, _evaluate


def charges(grading) -> tuple:
    """(positions, members) for each charge, in storage order.  Blocks
    of one charge have the same shapes, so their stored entries land on
    the same positions of the flattened d x d matrix, listed once;
    members pairs each such block (i, j) with the slice of its stored
    entries."""
    d = grading.dim
    slices = {}
    for (i, j, _), (span, _) in grading.spans.items():
        slices[i, j] = slice(slices.get((i, j), span).start, span.stop)
    out = {}
    for ij in _PAIRS:
        q = grading.charge[ij]
        if q not in out:
            positions = np.concatenate([
                (grading.sectors[m + q][:, None] * d + grading.sectors[m]).ravel()
                for *key, m in grading.spans if tuple(key) == ij
            ])
            out[q] = positions, []
        out[q][1].append((ij, slices[ij]))
    return tuple(out.values())


class Block:
    def __init__(self, family, weights: np.ndarray):
        self._coeffs, self._unit, self._dim = family.coeffs, family.unit, family.dim
        self._exponents = np.arange(family.degree + 1)
        grading = family.grading
        used = {ij for ij in _PAIRS if weights[ij] != 0}
        self._scale = None
        if any(weights[ij] != 1 for ij in used):
            self._scale = np.zeros(grading.size, dtype=complex)
            for (i, j, _), (span, _) in grading.spans.items():
                self._scale[span] = weights[i, j]
        runs = []
        for positions, members in charges(grading):
            slices = [span for ij, span in members if ij in used]
            if not slices:
                continue
            if len(slices) == 1 and runs and not runs[-1][2] and runs[-1][1].stop == slices[0].start:
                last, first, _ = runs.pop()
                positions, slices = np.concatenate((last, positions)), [slice(first.start, slices[0].stop)]
            runs.append((positions, slices[0], slices[1:]))
        self._runs = runs

    def place(self, entries: np.ndarray, out: np.ndarray) -> None:
        if self._scale is not None:
            entries *= self._scale
        for positions, first, rest in self._runs:
            value = entries[first]
            for span in rest:
                value = value + entries[span]
            out[positions] = value

    def __call__(self, u: complex) -> np.ndarray:
        out = np.zeros(self._dim * self._dim, dtype=complex)
        self.place(_evaluate(self._coeffs, (complex(u) / self._unit) ** self._exponents), out)
        return out.reshape(self._dim, self._dim)

    @property
    def coeffs(self) -> np.ndarray:
        out = np.zeros((len(self._coeffs), self._dim, self._dim), dtype=complex)
        for row, dest in zip(self._coeffs, out.reshape(len(out), -1)):
            self.place(row.astype(complex), dest)
        return out


def at(family, u: complex) -> np.ndarray:
    """The four blocks at u as one (2, 2, d, d) array, nu_ab(u) at [a, b]."""
    entries = family.entries(u)
    d = family.dim
    out = np.zeros((4, d * d), dtype=complex)
    for ab, dest in zip(_PAIRS, out):
        Block(family, family.dressing[ab]).place(entries.copy(), dest)
    return out.reshape(2, 2, d, d)


def contract(family, weights) -> np.ndarray:
    """sum_ab weights[a, b] nu_ab placed as one d x d matrix per
    coefficient."""
    return Block(family, np.tensordot(weights, family.dressing, 2)).coeffs


def kronecker_hamiltonian(params, twist) -> np.ndarray:
    """sum_k sigma_k . sigma_{k+1} with the boundary substitution at the
    seam, each term one Kronecker product with identities around the 4x4
    bond; the seam couples site N to the twisted site 1, which at one
    site is the 2x2 product itself."""
    n = params.sites
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
