import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from twistchain import ChainParams, SpectralContext, TwistParams
from twistchain.bethe import VariableSet, eps_dist
from twistchain.chain import (
    ID2,
    Grading,
    MonodromyFamily,
    PERM4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _boundary_substitutions,
    _graded_products,
    _monodromy_stack,
    _scaled_gap,
    _summed_gaps,
    build_hamiltonian,
    build_monodromy,
    build_r_matrix,
    build_transfer,
    exchange_residuals,
    local_operator,
    magnetization_grading,
    magnetization_sectors,
    monodromy_matrix,
    monodromy_product_gap,
    structure_checks,
    total_sz,
    vacuum_state,
    vacuum_weight_derivatives,
    vacuum_weights,
)
from twistchain.cli import parse_config
from twistchain.linalg import kron_chain
from twistchain.states import offshell_action_residuals
from twistchain.twist import build_modified_operators, factorize_twist

import block_reference
from conftest import dense_family, dense_stack, draw_points, random_context, random_theta, random_twist

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_r_matrix_shapes_and_special_points():
    c = 1.0
    assert np.allclose(build_r_matrix(0.0, c), PERM4)
    # Yang-Baxter on three auxiliary spaces
    u, v = 0.7, -0.4
    eye = np.eye(2)
    perm23 = np.kron(eye, PERM4)
    r12 = np.kron(build_r_matrix(u - v, c), eye)
    r23 = np.kron(eye, build_r_matrix(v, c))
    r13 = perm23 @ np.kron(build_r_matrix(u, c), eye) @ perm23
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_magnetization_sectors_partition_by_popcount():
    for sites in range(1, 9):
        sectors = magnetization_sectors(sites)
        assert [len(idx) for idx in sectors] == [math.comb(sites, m) for m in range(sites + 1)]
        # disjoint and covering every basis index
        np.testing.assert_array_equal(np.sort(np.concatenate(sectors)), np.arange(2 ** sites))
        for m, idx in enumerate(sectors):
            assert all(bin(i).count("1") == m for i in idx), (sites, m)


def test_vacuum_weights_and_derivatives():
    params = ChainParams(sites=3, c=0.8, theta=(0.1, -0.2, 0.05))
    u = 0.9 - 0.3j
    l1, l2 = vacuum_weights(params, u)
    want1 = np.prod([(u - t + params.c) / params.c for t in params.theta])
    want2 = np.prod([(u - t) / params.c for t in params.theta])
    assert abs(l1 - want1) < 1e-12
    assert abs(l2 - want2) < 1e-12
    d1, d2 = vacuum_weight_derivatives(params, u)
    h = 1e-6
    f1p, f2p = vacuum_weights(params, u + h)
    f1m, f2m = vacuum_weights(params, u - h)
    assert abs(d1 - (f1p - f1m) / (2 * h)) < 1e-7
    assert abs(d2 - (f2p - f2m) / (2 * h)) < 1e-7
    # an array of points gives the same numbers point by point
    us = np.array([u, 0.1, -0.2 + 1j])
    weights = zip(*vacuum_weights(params, us), *vacuum_weight_derivatives(params, us))
    for v, row in zip(us, weights):
        assert row == vacuum_weights(params, v) + vacuum_weight_derivatives(params, v)
    # each factor is divided by c on its own, so a huge c cannot overflow
    huge = ChainParams(sites=3, c=1e300, theta=params.theta)
    d1, d2 = vacuum_weight_derivatives(huge, u)
    assert abs(d1 - 3e-300) < 1e-12 * 3e-300
    assert d2 == 0


def test_monodromy_polynomial_matches_product():
    rng = np.random.default_rng(2)
    for sites in range(1, 9):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        family = build_monodromy(params)
        for u in (0.3, -1.1 + 0.6j):
            direct = monodromy_matrix(params, u)
            blocks = np.block([
                [family.t11(u), family.t12(u)],
                [family.t21(u), family.t22(u)],
            ])
            gap = np.linalg.norm(blocks - direct)
            assert gap <= 1e-13 * np.linalg.norm(direct), (sites, u)
        assert family.degree == params.sites


@pytest.mark.parametrize("c", [0.7 + 0.4j, 1e-3, 1e5, 1e300])
def test_monodromy_matches_product_at_any_coupling(c):
    # the coefficients are stored in z = u/c, where they stay O(1) for every
    # c; in u they carry c**-k, which underflows at c = 1e300.  Points and
    # inhomogeneities scale with c, so every chain is the same up to units
    rng = np.random.default_rng(24)
    for sites in range(1, 8):
        params = ChainParams(sites, c, tuple(c * np.array(random_theta(rng, sites))))
        family = build_monodromy(params)
        assert family.unit == params.c
        for u in c * draw_points(rng, 2):
            direct = monodromy_matrix(params, u)
            gap = np.linalg.norm(np.block(list(map(list, family.at(u)))) - direct)
            assert gap <= 1e-13 * np.linalg.norm(direct), (sites, u)


def test_monodromy_coefficients_exact_on_integer_chain():
    # with c = 1 and integer inhomogeneities every coefficient is an
    # integer, so the polynomial reproduces the dense product bit for bit
    params = ChainParams(4, 1.0, (0.0, 1.0, -1.0, 2.0))
    family = build_monodromy(params)
    assert np.array_equal(family.coeffs, np.round(family.coeffs))
    assert np.array_equal(family.t11.coeffs[4], np.eye(params.dim))
    assert not family.t12.coeffs[4].any()
    for u in (-2.0, 0.0, 3.0):
        blocks = np.block([
            [family.t11(u), family.t12(u)],
            [family.t21(u), family.t22(u)],
        ])
        assert np.array_equal(blocks, monodromy_matrix(params, u))


def _dense_checks(family, twist, c, u, v):
    # the two-point checks of structure_checks from whole operators: the
    # doubled-space RTT sides with T_a and T_b assembled from the family's
    # blocks on slots (a, b, chain), the exchange relations and the transfer
    # matrix from the blocks at each point
    def gap(lhs, rhs):
        scale = max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
        return np.linalg.norm(lhs - rhs) / scale

    d = family.dim
    units = [np.outer(e, f) for e in np.eye(2) for f in np.eye(2)]
    (t11u, t12u), (t21u, t22u) = at_u = family.at(u)
    (t11v, t12v), (t21v, t22v) = at_v = family.at(v)
    ta = sum(kron_chain([e, ID2, t]) for e, t in zip(units, at_u.reshape(4, d, d)))
    tb = sum(kron_chain([ID2, e, t]) for e, t in zip(units, at_v.reshape(4, d, d)))
    rab = np.kron(build_r_matrix(u - v, c), np.eye(d))
    k = twist.matrix()
    tu = k[0, 0] * t11u + k[1, 0] * t12u + k[0, 1] * t21u + k[1, 1] * t22u
    tv = k[0, 0] * t11v + k[1, 0] * t12v + k[0, 1] * t21v + k[1, 1] * t22v
    g = c / (u - v)
    return {
        "rtt": gap(rab @ ta @ tb, tb @ ta @ rab),
        "transfer_commutator": gap(tu @ tv, tv @ tu),
        "exchange_t11_t12": gap(t11u @ t12v, (1 - g) * t12v @ t11u + g * t12u @ t11v),
        "exchange_t22_t12": gap(t22u @ t12v, (1 + g) * t12v @ t22u - g * t12u @ t22v),
        "exchange_t21_t12": gap(t21u @ t12v, t12v @ t21u + g * (t11v @ t22u - t11u @ t22v)),
    }


def _dense_off_grade(family, u, v):
    # the share of the four blocks at u and v outside the magnetization
    # grading, from their dense values: t_ij[r, c] is outside when
    # M(r) - M(c) != j - i, with M the number of down spins
    down = np.array([bin(k).count("1") for k in range(family.dim)])
    charge = np.array([[0, 1], [-1, 0]])
    outside = down[:, None] - down[None, :] != charge[..., None, None]
    off_sq = total_sq = 0.0
    for blocks in (family.at(u), family.at(v)):
        off = blocks[outside]
        off_sq += np.vdot(off, off).real
        total_sq += np.vdot(blocks, blocks).real
    return np.sqrt(off_sq) / max(1.0, np.sqrt(total_sq))


def _perturbed_t12(params, rng, keep_grading):
    # t12 with 1e-3 noise on its coefficients: on every entry, stored dense
    # on one sector holding the whole basis, whose products are the dense
    # ones, or only on the entries that raise the down-spin count by one, as
    # t12 itself does, stored on the magnetization blocks, whose products
    # are taken block by block
    family = build_monodromy(params)
    if keep_grading:
        coeffs = family.coeffs.astype(complex)
        t12 = [span for (i, j, _), (span, _) in family.grading.spans.items() if (i, j) == (0, 1)]
        for span in t12:
            shape = coeffs[:, span].shape
            coeffs[:, span] += 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return MonodromyFamily(coeffs, family.unit, family.grading)
    coeffs = dense_stack(family)
    shape = coeffs[0, 1].shape
    coeffs[0, 1] += 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return dense_family(coeffs)


def test_structure_checks_match_dense_doubled_space():
    # a family that breaks the algebra gives every check a gap far above
    # roundoff, so a mis-indexed block-product table would show.  Scaling
    # t12 alone would not do: each exchange relation holds t12 once per term.
    # Noise on every entry breaks the magnetization grading too, which
    # magnetization_conservation reads off the positions of the stored
    # entries and must match on the dense values.
    rng = np.random.default_rng(6)
    for sites in range(1, 5):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        tw = random_twist(rng)
        u, v = draw_points(rng, 2)
        broken = _perturbed_t12(params, rng, keep_grading=False)
        got = structure_checks(params, tw, u, v, broken)
        want = _dense_checks(broken, tw, params.c, u, v)
        for name, value in want.items():
            assert value > 1e-6, (sites, name)
            assert abs(got[name] - value) <= 1e-10 * value, (sites, name)
        off_grade = _dense_off_grade(broken, u, v)
        assert off_grade > 1e-6, sites
        assert abs(got["magnetization_conservation"] - off_grade) <= 1e-12 * off_grade, sites
    for sites in range(1, 7):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        u, v = draw_points(rng, 2)
        family = build_monodromy(params)
        assert structure_checks(params, random_twist(rng), u, v, family)["rtt"] <= 1e-13, sites


def test_structure_checks_by_magnetization_block_match_dense():
    # noise only where t12 may raise the down-spin count keeps the grading
    # and breaks the algebra, so every check is taken block by block and
    # must still equal the dense one
    rng = np.random.default_rng(16)
    for sites in range(1, 7):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        tw = random_twist(rng)
        u, v = draw_points(rng, 2)
        broken = _perturbed_t12(params, rng, keep_grading=True)
        got = structure_checks(params, tw, u, v, broken)
        want = _dense_checks(broken, tw, params.c, u, v)
        for name, value in want.items():
            assert value >= 1e-5, (sites, name)
            assert abs(got[name] - value) <= 1e-10 * value, (sites, name)
        assert got["magnetization_conservation"] == 0.0, sites


def test_highest_weight_structure():
    rng = np.random.default_rng(3)
    for sites in (1, 2, 3):
        params = ChainParams(sites, 1.0, random_theta(rng, sites))
        family = build_monodromy(params)
        v0 = vacuum_state(sites)
        for u in draw_points(rng, 8):
            l1, l2 = vacuum_weights(params, u)
            assert np.linalg.norm(family.t21(u) @ v0) < 1e-10
            assert np.linalg.norm(v0 @ family.t12(u)) < 1e-10
            assert np.linalg.norm(family.t11(u) @ v0 - l1 * v0) < 1e-10
            assert np.linalg.norm(family.t22(u) @ v0 - l2 * v0) < 1e-10


def test_magnon_number_grading():
    params = ChainParams(sites=2, c=1.0, theta=(0.1, -0.1))
    family = build_monodromy(params)
    sz = total_sz(params.sites)
    u = 0.4 + 0.2j
    # diagonal blocks preserve the weight; t12 creates a flipped spin
    two = 2 * np.eye(sz.shape[0])
    assert np.linalg.norm(sz @ family.t11(u) - family.t11(u) @ sz) < 1e-12
    assert np.linalg.norm(sz @ family.t22(u) - family.t22(u) @ sz) < 1e-12
    assert np.linalg.norm(sz @ family.t12(u) - family.t12(u) @ (sz - two)) < 1e-12
    assert np.linalg.norm(sz @ family.t21(u) - family.t21(u) @ (sz + two)) < 1e-12


def test_transfer_combines_blocks_with_twist():
    # the written-out four-term trace is the reference for the contraction
    rng = np.random.default_rng(11)
    for sites in (1, 2, 3, 4):
        for diagonal in (False, True):
            params = ChainParams(sites, 1.0, random_theta(rng, sites))
            tw = random_twist(rng, diagonal)
            family = build_monodromy(params)
            poly = build_transfer(params, tw, family)
            (t11, t12), (t21, t22) = dense_stack(family)
            want = (
                tw.kappa_tilde * t11
                + tw.kappa * t22
                + tw.kappa_plus * t21
                + tw.kappa_minus * t12
            )
            gap = np.max(np.abs(poly.coeffs - want))
            assert gap <= 1e-14 * np.max(np.abs(want)), (sites, diagonal)


def _seam_table(twist):
    # the written-out Pauli coefficients of K^-1 sigma K, kept as the
    # reference for the adj(K) sigma K / det K form
    kt, k = twist.kappa_tilde, twist.kappa
    kp, km = twist.kappa_plus, twist.kappa_minus
    rows = [
        (
            (kt ** 2 + k ** 2 - kp ** 2 - km ** 2) / 2,
            1j * (k ** 2 - kt ** 2 - kp ** 2 + km ** 2) / 2,
            k * km - kt * kp,
        ),
        (
            1j * (kt ** 2 - k ** 2 - kp ** 2 + km ** 2) / 2,
            (kt ** 2 + k ** 2 + kp ** 2 + km ** 2) / 2,
            -1j * (kt * kp + k * km),
        ),
        (
            k * kp - kt * km,
            1j * (kt * km + k * kp),
            kt * k + kp * km,
        ),
    ]
    return [
        (cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z) / twist.gamma
        for cx, cy, cz in rows
    ]


def test_seam_substitutions_match_coefficient_table():
    rng = np.random.default_rng(19)
    for diagonal in (False, True) * 10:
        tw = random_twist(rng, diagonal)
        for got, want in zip(_boundary_substitutions(tw), _seam_table(tw)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        _boundary_substitutions(TwistParams(1.0, 1.0, 1.0, 1.0))


def test_blocks_share_one_read_only_array():
    # T keeps only its magnetization blocks t_ij[M + j - i, M], one
    # read-only (N + 1) x size array; the modified family is a dressing on
    # that same array, and the blocks its readers take are views of it
    rng = np.random.default_rng(20)
    ctx = random_context(rng, 3)
    family = build_monodromy(ctx.chain)
    nu = build_modified_operators(family, ctx.fact)
    n = ctx.sites
    size = 2 * math.comb(2 * n, n) + 2 * math.comb(2 * n, n - 1)
    owner = family.coeffs
    assert owner.shape == (n + 1, size) and owner.dtype == complex
    assert owner.flags.c_contiguous and not owner.flags.writeable
    assert nu.coeffs is owner and nu.grading is family.grading
    sectors = magnetization_sectors(n)
    dense = dense_stack(family)
    kept = 0.0
    for (i, j, m), block in family.grading.blocks(owner).items():
        assert block.base is owner and not block.flags.writeable
        want = dense[i, j][:, sectors[m + j - i][:, None], sectors[m]]
        assert np.array_equal(block, want), (i, j, m)
        kept += np.vdot(block, block).real
    # nothing of T lies outside the stored blocks
    assert kept == pytest.approx(np.vdot(dense, dense).real, rel=1e-15)
    with pytest.raises(ValueError):
        MonodromyFamily(owner[:, 1:], family.unit, family.grading)
    with pytest.raises(ValueError):
        MonodromyFamily(owner, family.unit, Grading((np.arange(ctx.chain.dim),), np.zeros((2, 2), int)))


def _rel_per_coefficient(got, want):
    # worst entry gap of each coefficient matrix relative to its largest entry
    scale = np.max(np.abs(want), axis=(-2, -1))
    return np.max(np.max(np.abs(got - want), axis=(-2, -1)) / scale)


def test_contract_matches_written_out_sum():
    # the placed contractions against sum_ij w_ij t_ij written out on the
    # dense blocks, coefficient by coefficient: the twisted trace of the
    # transfer matrix and the dressing mu L0 T L0 of the modified family
    rng = np.random.default_rng(23)
    for sites in range(1, 7):
        ctx = random_context(rng, sites)
        family = build_monodromy(ctx.chain)

        def written_out(weights, blocks=dense_stack(family)):
            return sum(weights[ij] * blocks[ij] for ij in np.ndindex(2, 2))

        kmat = ctx.twist.matrix()
        transfer = build_transfer(ctx.chain, ctx.twist, family)
        assert _rel_per_coefficient(transfer.coeffs, written_out(kmat.T)) <= 1e-14, sites
        fact = ctx.fact
        l0 = np.array([[1.0, fact.ratio_minus], [fact.ratio_plus, 1.0]])
        nu = dense_stack(build_modified_operators(family, fact))
        for a, b in np.ndindex(2, 2):
            want = written_out(fact.mu * np.outer(l0[a], l0[:, b]))
            assert _rel_per_coefficient(nu[a, b], want) <= 1e-14, (sites, a, b)
        # four blocks evaluated at one point contract the same way
        at_u = family.at(draw_points(rng, 1)[0])
        want = written_out(kmat.T, at_u)
        got = np.tensordot(kmat.T, at_u, 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sites


def _placement_cases(rng, sites):
    # (family, weights) on a real and a complex chain: T and nu for a
    # generic and a diagonal twist, with the transfer weights K^T and D^T,
    # weightings whose first block of a charge has weight 0, and no weight
    zero_first = (np.array([[0.0, 0.0], [0.0, 2.5]]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    for c, theta in ((1.0, tuple(rng.uniform(-0.3, 0.3, sites))), (0.7 + 0.4j, random_theta(rng, sites))):
        params = ChainParams(sites, c, theta)
        family = build_monodromy(params)
        for diagonal in (False, True):
            ctx = SpectralContext.create(params, random_twist(rng, diagonal))
            nu = build_modified_operators(family, ctx.fact)
            for member in (family, nu):
                yield member, (ctx.twist.matrix().T, ctx.fact.d_factor.T, *zero_first)


def _assert_places_as_the_reference(family, weights, u):
    for ab, name in zip(np.ndindex(2, 2), ("t11", "t12", "t21", "t22")):
        block, want = getattr(family, name), block_reference.Block(family, family.dressing[ab])
        assert np.array_equal(block(u), want(u)) and np.array_equal(block.coeffs, want.coeffs), name
    assert np.array_equal(family.at(u), block_reference.at(family, u))
    for w in weights:
        assert np.array_equal(family.contract(w)(u), block_reference.Block(
            family, np.tensordot(w, family.dressing, 2))(u))
        assert np.array_equal(family.contract(w).coeffs, block_reference.contract(family, w))


def test_block_placement_matches_the_reference_bit_for_bit():
    # each charge summed entrywise in storage order and written once at
    # Grading.index, each block weighted by the family's one shared array
    # of its weight, forms the same products and adds them in the same
    # order as scaling every entry and summing each charge group out of
    # place, so every placed value is the reference's bit for bit
    rng = np.random.default_rng(37)
    for sites in range(1, 9):
        u = draw_points(rng, 1)[0]
        for family, weights in _placement_cases(rng, sites):
            _assert_places_as_the_reference(family, weights, u)
            if sites <= 4:
                # the same blocks stored dense, on one sector where all
                # four blocks share one charge and so one write
                dense = dense_family(dense_stack(family), family.unit)
                _assert_places_as_the_reference(dense, weights, u)


def test_grading_index_places_every_stored_entry():
    # within each block the positions are distinct cells of the d x d
    # matrix, blocks of one charge share them, and the stored entries of a
    # bare family scattered there are its four blocks
    rng = np.random.default_rng(38)
    for sites in range(1, 6):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        family = build_monodromy(params)
        dense = dense_family(dense_stack(family), family.unit)
        u = draw_points(rng, 1)[0]
        for member in (family, dense):
            grading = member.grading
            index = grading.index
            assert index.shape == (grading.size,) and not index.flags.writeable
            assert np.all((0 <= index) & (index < grading.dim ** 2)), sites
            for ij, span in grading.pairs.items():
                assert len(np.unique(index[span])) == span.stop - span.start, (sites, ij)
                for kl, other in grading.pairs.items():
                    if grading.charge[kl] == grading.charge[ij]:
                        assert np.array_equal(index[span], index[other]), (sites, ij, kl)
            scattered = np.zeros((4, grading.dim ** 2), dtype=complex)
            entries = member.entries(u)
            for row, span in zip(scattered, grading.pairs.values()):
                row[index[span]] = entries[span]
            assert np.array_equal(scattered.reshape(member.at(u).shape), member.at(u)), sites


def test_transfer_family_commutes_up_to_six_sites():
    rng = np.random.default_rng(5)
    for sites in (2, 4, 6):
        params = ChainParams(sites, 1.0, random_theta(rng, sites))
        tw = random_twist(rng)
        transfer = build_transfer(params, tw, build_monodromy(params))
        for _ in range(5):
            u, v = draw_points(rng, 2)
            tu, tv = transfer(u), transfer(v)
            assert np.linalg.norm(tu @ tv - tv @ tu) < 1e-10


def test_structure_checks_all_small():
    rng = np.random.default_rng(9)
    for sites in range(1, 7):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        tw = random_twist(rng)
        u, v = draw_points(rng, 2)
        for name, value in structure_checks(params, tw, u, v, build_monodromy(params)).items():
            assert value < 1e-10, (sites, name)


def _eight_site_grid():
    # the grid chain: configs/n3_generic.json's twist, theta_k = 0.15(k - 3.5)
    params = ChainParams(8, 1.0, tuple(0.15 * (k - 3.5) for k in range(8)))
    return params, TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6)


def test_structure_checks_at_eight_sites():
    params, tw = _eight_site_grid()
    family = build_monodromy(params)
    for name, value in structure_checks(params, tw, 0.4 - 0.9j, -0.7 + 0.3j, family).items():
        assert value < 1e-10, name


def test_structure_checks_memory_at_eight_sites():
    # the stored entries at both points take 1.6 MB at N=8, and the block
    # products of one column sector at most 2.1 MB for both orders (the
    # products of every sector at once took 6.6 MB).  Dense block-product
    # tables would take 34 MB, and an operator on the doubled auxiliary
    # space, 2^(N+2) square, 16 MB more each time one is formed
    params, tw = _eight_site_grid()
    family = build_monodromy(params)
    tracemalloc.start()
    try:
        structure_checks(params, tw, 0.4 - 0.9j, -0.7 + 0.3j, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6, peak


def test_operator_build_memory_at_eight_sites():
    # the magnetization blocks of T hold (N + 1) x 48,620 coefficients at
    # N=8, real on the grid chain (3.5 MB; 7.0 MB complex).  The recursion
    # keeps its complex blocks of N sites beside the stored array at the
    # end; the modified family is a dressing on the same array and
    # allocates no coefficients
    params, tw = _eight_site_grid()
    tracemalloc.start()
    try:
        family = build_monodromy(params)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        nu = build_modified_operators(family, factorize_twist(tw))
        modified_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert family.coeffs.dtype == float
    assert family.coeffs.nbytes == 9 * 48620 * 8
    assert build_peak < 13e6, build_peak
    assert nu.coeffs is family.coeffs
    assert modified_peak < 1e-2 * family.coeffs.nbytes, modified_peak
    # a complex coupling keeps the coefficients complex
    complex_chain = ChainParams(8, 0.7 + 0.4j, params.theta)
    assert build_monodromy(complex_chain).coeffs.nbytes == 9 * 48620 * 16


def test_structure_checks_rejects_coincident_points():
    params = ChainParams(1, 1.0, (0.0,))
    with pytest.raises(ValueError):
        structure_checks(params, TwistParams(2, 1, 1, 1), 0.3, 0.3, build_monodromy(params))


def test_plain_string_actions_match_direct_application():
    # with a diagonal twist the modified operators coincide with the plain
    # ones, so the string-expansion checks cover the untwisted actions too
    rng = np.random.default_rng(21)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites, diagonal=True)
        nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        for m in range(1, sites + 1):
            pts = draw_points(rng, m + 1)
            rs = VariableSet(pts[1:], eps_dist(ctx.c))
            for name, value in offshell_action_residuals(nu, ctx, pts[0], rs).items():
                assert value < 1e-9, (sites, m, name)


def test_hamiltonian_routes_agree_homogeneous():
    rng = np.random.default_rng(17)
    shipped = [
        parse_config(str(CONFIGS / name)).twist for name in ("n3_generic.json", "n2_generic.json")
    ]
    for tw in [random_twist(rng), *shipped]:
        for sites in range(2, 9):
            params = ChainParams(sites, 1.0, (0.0,) * sites)
            direct = build_hamiltonian(params, tw, route="direct")
            viat = build_hamiltonian(params, tw, route="transfer")
            assert np.linalg.norm(direct - viat) < 1e-8
            assert _scaled_gap(direct, viat) <= 1e-14, (sites, tw)


def _dense_recursion(params, degree):
    # the site recursion on dense 2^N blocks, kept as the reference for the
    # block recursion: coefficients 0..degree of t_ij at [i, j], with
    # t_ij -> (z - theta/c) t_ij (x) I + sum_k t_ik (x) E_jk
    coef = np.eye(2, dtype=complex).reshape(2, 2, 1, 1, 1)
    for theta in params.theta:
        shift = theta / params.c
        _, _, m, d, _ = coef.shape
        kept = min(m + 1, degree + 1)
        out = np.zeros((2, 2, kept, 2 * d, 2 * d), dtype=complex)
        grid = out.reshape(2, 2, kept, d, 2, d, 2)
        for j, k in itertools.product((0, 1), repeat=2):
            grid[:, j, :m, :, j, :, k] = coef[:, k]
        for s in (0, 1):
            diag = grid[:, :, :, :, s, :, s]
            diag[:, :, :m] -= shift * coef
            diag[:, :, 1:] += coef[:, :, : kept - 1]
        coef = out
    return coef


def _graded_part(dense, sites):
    # the blocks t_ij[M + j - i, M] of a dense stack, in storage order, and
    # what is left outside them
    grading = magnetization_grading(sites)
    rest = dense.copy()
    parts = []
    for (i, j, m), (_, shape) in grading.spans.items():
        rows, cols = grading.sectors[m + j - i][:, None], grading.sectors[m]
        parts.append(dense[i, j][:, rows, cols].reshape(len(dense[i, j]), -1))
        rest[i, j][:, rows, cols] = 0
    return np.ascontiguousarray(np.concatenate(parts, axis=1)), rest


@pytest.mark.parametrize("c", [1.0, 0.7 + 0.4j, 1e-3, 1e5])
def test_block_recursion_matches_the_dense_recursion_bit_for_bit(c):
    # each stored coefficient sees the copy, scaling and additions of the
    # dense recursion in the same order, and the dense stack holds nothing
    # outside the stored blocks
    rng = np.random.default_rng(31)
    for sites in range(1, 9):
        params = ChainParams(sites, c, random_theta(rng, sites))
        for degree in (sites, 1):
            want, rest = _graded_part(_dense_recursion(params, degree), sites)
            got = _monodromy_stack(params, degree)
            assert got.dtype == complex
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (sites, degree)
            assert not rest.any(), (sites, degree)


def test_real_shifts_take_the_real_recursion_bit_for_bit():
    # a complex coupling with every theta/c real runs the recursion in real
    # arithmetic, and its coefficients are the dense complex recursion's
    # real parts bit for bit, with no imaginary part left
    rng = np.random.default_rng(39)
    c = 1.0 + 1.0j  # theta = r c divides back to exactly r
    for sites in range(1, 9):
        params = ChainParams(sites, c, tuple(c * r for r in rng.uniform(-0.3, 0.3, sites)))
        assert all((t / c).imag == 0 for t in params.theta)
        for degree in (sites, 1):
            want, _ = _graded_part(_dense_recursion(params, degree), sites)
            got = _monodromy_stack(params, degree)
            assert got.dtype == float and not want.imag.any(), (sites, degree)
            assert np.array_equal(got.view(np.uint64), want.real.view(np.uint64)), (sites, degree)


def test_real_chains_store_real_coefficients():
    # a real coupling and real inhomogeneities give exactly real
    # coefficients, stored as such; each entry at a point agrees with the
    # complex storage to within the roundoff of its N + 1 terms
    rng = np.random.default_rng(32)
    for sites in range(1, 9):
        params = ChainParams(sites, 1.0, tuple(rng.uniform(-0.3, 0.3, sites)))
        family = build_monodromy(params)
        want, _ = _graded_part(_dense_recursion(params, sites), sites)
        assert family.coeffs.dtype == float and np.array_equal(family.coeffs, want.real)
        as_complex = MonodromyFamily(want, family.unit, family.grading)
        for u in draw_points(rng, 2):
            terms = np.abs(want).T @ np.abs(u) ** np.arange(sites + 1)
            gap = np.abs(family.entries(u) - as_complex.entries(u))
            assert np.all(gap <= 4 * (sites + 1) * np.finfo(float).eps * terms), sites


def test_a_vanishing_coupling_names_it():
    params = ChainParams(3, 1e-300, (0.1, -0.2, 0.3))
    with pytest.raises(ValueError, match="chain.c"):
        build_monodromy(params)


def _embedded_product(params, u):
    # T_a(u) as the product of the R-matrices, each embedded on the slots
    # (aux, site k) of aux (x) chain as a dense 2^(N+1) matrix
    n = params.sites + 1
    out = np.eye(2 ** n, dtype=complex)
    for k, theta in enumerate(params.theta, 1):
        r = build_r_matrix(u - theta, params.c)
        full = np.kron(r, np.eye(2 ** (n - 2))).reshape((2,) * (2 * n))
        order = [0, k] + [s for s in range(n) if s not in (0, k)]
        full = np.moveaxis(full, list(range(2 * n)), order + [s + n for s in order])
        out = out @ full.reshape(2 ** n, 2 ** n)
    return out


def test_monodromy_matrix_is_the_embedded_product():
    rng = np.random.default_rng(33)
    for sites in range(1, 8):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        for u in draw_points(rng, 2):
            want = _embedded_product(params, u)
            whole = monodromy_matrix(params, u)
            gap = np.linalg.norm(whole - want)
            assert gap <= 1e-15 * np.linalg.norm(want), (sites, u)
            # rows never mix, so a run of rows is the whole product's
            lo, hi = params.dim // 2, 2 * params.dim - 1
            assert np.array_equal(monodromy_matrix(params, u, lo, hi), whole[lo:hi]), (sites, u)


def test_product_form_flags_a_perturbed_block():
    # a block kept in its grading passes magnetization_conservation by
    # construction, so the product form is what sees a wrong one
    rng = np.random.default_rng(34)
    for sites in range(1, 7):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        family = build_monodromy(params)
        u, v = draw_points(rng, 2)
        clean = monodromy_product_gap(params, family, u)
        assert clean <= 1e-15, sites
        coeffs = family.coeffs.copy()
        span, shape = family.grading.spans[0, 1, 0]
        coeffs[:, span] += 1e-3 * rng.standard_normal((len(coeffs), shape[0] * shape[1]))
        broken = MonodromyFamily(coeffs, family.unit, family.grading)
        assert monodromy_product_gap(params, broken, u) > 1e6 * max(clean, 1e-16), sites
        tw = random_twist(rng)
        assert structure_checks(params, tw, u, v, broken)["magnetization_conservation"] == 0.0


def test_graded_products_match_the_dense_route():
    # the block-by-block product tables of the stored magnetization blocks,
    # placed back into dense matrices, against the dense products of the
    # same blocks stored dense
    rng = np.random.default_rng(35)
    for sites in range(1, 7):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        family = build_monodromy(params)
        dense = dense_family(dense_stack(family), params.c)
        u, v = draw_points(rng, 2)
        groups, off_grade, by_sector = _graded_products(family, u, v)
        dense_groups, dense_off_grade, (want,) = _graded_products(dense, u, v)
        assert off_grade == 0.0 and dense_off_grade == 0.0
        # the magnetization charges group the 16 products by total charge
        # -2..2 as 1, 4, 6, 4, 1; the dense grading's zero charges, as one
        assert {q: len(quads) for q, quads in groups.quads.items()} == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}
        assert list(dense_groups.quads) == [0] and len(dense_groups.position) == 16
        sectors = magnetization_sectors(sites)
        # each column sector's blocks placed back into the dense products
        dim = params.dim
        tables = [{quad: np.zeros((dim, dim), dtype=complex) for quad in groups.position} for _ in want]
        for m, pair in enumerate(by_sector):
            for table, stacks in zip(tables, pair):
                for (i, j, k, l), (q, at) in groups.position.items():
                    block = stacks[q][at]
                    if block.size:
                        rows, cols = sectors[m + q], sectors[m]
                        table[i, j, k, l][rows[:, None], cols] = block
                    else:
                        assert not 0 <= m + q <= sites, (sites, m, i, j, k, l)
        for table, ref in zip(tables, want):
            for quad, placed in table.items():
                q, at = dense_groups.position[quad]
                want_product = ref[q][at]
                scale = max(1.0, np.max(np.abs(want_product)))
                assert np.max(np.abs(placed - want_product)) <= 1e-14 * scale, (sites, quad)


def test_block_products_reject_a_dressed_family():
    # nu = mu L0 T L0 mixes the charges that the grading of T keeps apart,
    # so the block products, and every check read off them, refuse it
    rng = np.random.default_rng(36)
    ctx = random_context(rng, 3)
    nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
    u, v = draw_points(rng, 2)
    with pytest.raises(ValueError, match="bare family"):
        _graded_products(nu, u, v)
    with pytest.raises(ValueError, match="bare family"):
        structure_checks(ctx.chain, ctx.twist, u, v, nu)
    with pytest.raises(ValueError, match="bare family"):
        exchange_residuals(nu, ctx.c, u, v)


def test_degree_one_stack_is_the_low_monodromy_coefficients():
    # a coefficient of degree k reads only degrees <= k in the recursion,
    # so the cut stack must equal the full one bit for bit
    rng = np.random.default_rng(23)
    for sites in range(1, 9):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        low = _monodromy_stack(params, 1)
        assert np.array_equal(low, build_monodromy(params).coeffs[:2]), sites


def test_transfer_at_zero_is_as_well_conditioned_as_the_twist():
    # at vanishing inhomogeneities t(0) = K_1 U with U the cyclic shift, so
    # the route's guard reads cond K instead of factorizing t(0)
    rng = np.random.default_rng(29)
    for sites in range(1, 7):
        params = ChainParams(sites, 1.0, (0.0,) * sites)
        tw = random_twist(rng)
        t0 = build_transfer(params, tw, build_monodromy(params))(0.0)
        cond_k = np.linalg.cond(tw.matrix())
        assert abs(np.linalg.cond(t0) - cond_k) <= 1e-12 * cond_k, sites
    params = ChainParams(3, 1.0, (0.0,) * 3)
    nearly_singular = TwistParams(1.0, 1.0 + 1e-14, 1.0, 1.0)
    assert np.linalg.cond(nearly_singular.matrix()) > 1e12
    with pytest.raises(ValueError, match="transfer matrix is singular at u = 0"):
        build_hamiltonian(params, nearly_singular, route="transfer")


def test_direct_hamiltonian_matches_embedded_products():
    # each term as one Kronecker product equals the product of the two
    # embedded single-site operators bit for bit; at one site the seam is
    # the 2x2 product itself
    rng = np.random.default_rng(19)
    for sites in range(1, 7):
        params = ChainParams(sites, 1.0, (0.0,) * sites)
        tw = random_twist(rng)
        paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        want = np.zeros((params.dim, params.dim), dtype=complex)
        for k in range(sites - 1):
            for s in paulis:
                want += local_operator(s, k, sites) @ local_operator(s, k + 1, sites)
        for s, s_twisted in zip(paulis, _boundary_substitutions(tw)):
            want += local_operator(s, sites - 1, sites) @ local_operator(s_twisted, 0, sites)
        assert np.array_equal(build_hamiltonian(params, tw, route="direct"), want), sites


def test_gaps_of_sides_too_large_to_square():
    # sides of 2**600 overflow their squared norms; they are scaled by a
    # power of two first, which is exact, so the gap is that of the same
    # sides at 2**10 (where the unit floor is inactive) bit for bit, with
    # no RuntimeWarning.  Sides in range keep the plain formula bit for bit
    rng = np.random.default_rng(43)
    x, y, z, w = (rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5)))
    y = x + 1e-9 * y
    w = z + 1e-9 * w
    big, mid = 2.0 ** 600, 2.0 ** 10
    assert _scaled_gap(big * x, big * y) == _scaled_gap(mid * x, mid * y)
    for lhs, rhs in ((x, y), (mid * x, mid * y), (1e-3 * x, 1e-3 * y)):
        plain = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
        assert _scaled_gap(lhs, rhs) == float(plain)
    # the sums over pairs of different sizes scale as one
    huge = _summed_gaps([{"g": [(big * x, big * y)]}, {"g": [(2.0 ** 590 * z, 2.0 ** 590 * w)]}])
    same = _summed_gaps([{"g": [(mid * x, mid * y)]}, {"g": [(z, w)]}])
    assert huge == same and 0.0 < huge["g"] < 1e-8
    # an inf or a nan keeps its gap as before, and a caller that raises on
    # overflow still gets the overflow
    inf_side = x.copy()
    inf_side[0, 0] = np.inf
    assert math.isnan(_summed_gaps([{"g": [(inf_side, y)]}])["g"])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _scaled_gap(big * x, big * y)


def test_direct_hamiltonian_matches_the_kronecker_sum():
    # each term added by index placement, in the order of the Kronecker
    # sum, gives every entry the same additions bit for bit
    rng = np.random.default_rng(41)
    for sites in range(1, 9):
        params = ChainParams(sites, 1.0, (0.0,) * sites)
        for tw in (random_twist(rng), random_twist(rng)):
            got = build_hamiltonian(params, tw, route="direct")
            want = block_reference.kronecker_hamiltonian(params, tw)
            assert got.dtype == want.dtype == complex and got.shape == want.shape, sites
            assert np.array_equal(got, want), sites


def test_direct_hamiltonian_memory_at_eight_sites():
    # one d x d output and arrays of length d: the Kronecker sum held
    # three d x d arrays at once (3.5 MB at N=8)
    params, tw = _eight_site_grid()
    d = params.dim
    build_hamiltonian(params, tw, route="direct")
    tracemalloc.start()
    try:
        h = build_hamiltonian(params, tw, route="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.nbytes == d * d * 16
    assert peak < h.nbytes + 32 * d * 16, peak


def test_charge_grouped_products_are_the_single_products_bit_for_bit():
    # each run of one (q_ij, q_kl) is one broadcast matmul over its
    # blocks, which multiplies every pair of blocks as the single product
    # t_ij[M + Q, M + q_kl] @ t_kl[M + q_kl, M] does
    rng = np.random.default_rng(42)
    for sites in range(1, 8):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        family = build_monodromy(params)
        grading, charge = family.grading, family.grading.charge
        u, v = draw_points(rng, 2)
        groups, _, by_sector = _graded_products(family, u, v)
        pieces = [grading.blocks(family.entries(x)) for x in (u, v)]
        for m, pair in enumerate(by_sector):
            for (first, second), stacks in zip((pieces, pieces[::-1]), pair):
                for (i, j, k, l), (q, at) in groups.position.items():
                    mid = m + charge[k, l]
                    if (k, l, m) in second and (i, j, mid) in first:
                        want = first[i, j, mid] @ second[k, l, m]
                        assert np.array_equal(stacks[q][at], want), (sites, m, i, j, k, l)
                    else:
                        assert not stacks[q][at].any(), (sites, m, i, j, k, l)


def test_periodic_two_site_spectrum():
    params = ChainParams(2, 1.0, (0.0, 0.0))
    periodic = TwistParams(1.0, 1.0, 0.0, 0.0)
    h = build_hamiltonian(params, periodic, route="direct")
    values = np.sort(np.linalg.eigvalsh((h + h.conj().T) / 2))
    assert np.allclose(values, [-6.0, 2.0, 2.0, 2.0], atol=1e-10)

