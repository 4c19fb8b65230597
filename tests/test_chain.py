import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from twistchain import ChainParams, SpectralContext, TwistParams
from twistchain.bethe import VariableSet, eps_dist
from twistchain.chain import (
    ID2,
    MonodromyFamily,
    PERM4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _boundary_substitutions,
    _contract,
    _monodromy_stack,
    _scaled_gap,
    build_hamiltonian,
    build_monodromy,
    build_r_matrix,
    build_transfer,
    local_operator,
    monodromy_matrix,
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

from conftest import draw_points, random_context, random_theta, random_twist

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
        assert family.t11.degree == params.sites


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
    assert np.array_equal(family.t11.coefficient(4), np.eye(params.dim))
    assert not family.t12.coefficient(4).any()
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


def _perturbed_t12(params, rng, keep_grading):
    # t12 with 1e-3 noise on its coefficients: on every entry, or only on
    # those that raise the down-spin count by one, as t12 itself does
    coeffs = build_monodromy(params).coeffs.copy()
    shape = coeffs[0, 1].shape
    noise = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    down = np.array([bin(i).count("1") for i in range(params.dim)])
    raising = down[:, None] - down[None, :] == 1
    coeffs[0, 1] += np.where(raising, noise, 0) if keep_grading else noise
    return MonodromyFamily(coeffs)


def test_structure_checks_match_dense_doubled_space():
    # a family that breaks the algebra gives every check a gap far above
    # roundoff, so a mis-indexed block-product table would show.  Scaling
    # t12 alone would not do: each exchange relation holds t12 once per term.
    # Noise on every entry breaks the magnetization grading too, so the
    # products are the dense ones.
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
        assert got["magnetization_conservation"] > 1e-6, sites
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
            (t11, t12), (t21, t22) = family.coeffs
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
    rng = np.random.default_rng(20)
    ctx = random_context(rng, 3)
    family = build_monodromy(ctx.chain)
    shape = (2, 2, ctx.sites + 1, ctx.chain.dim, ctx.chain.dim)
    for fam in (family, build_modified_operators(family, ctx.fact)):
        owner = fam.coeffs
        assert owner.shape == shape
        assert owner.flags.c_contiguous and not owner.flags.writeable
        for (i, j), block in zip(np.ndindex(2, 2), (fam.t11, fam.t12, fam.t21, fam.t22)):
            assert block.coeffs.base is owner
            assert block.coeffs.flags.c_contiguous
            assert not block.coeffs.flags.writeable
            assert block.coeffs.__array_interface__ == owner[i, j].__array_interface__
    with pytest.raises(ValueError):
        MonodromyFamily(family.coeffs[0])


def _rel_per_coefficient(got, want):
    # worst entry gap of each coefficient matrix relative to its largest entry
    scale = np.max(np.abs(want), axis=(-2, -1))
    return np.max(np.max(np.abs(got - want), axis=(-2, -1)) / scale)


def test_contract_matches_written_out_sum():
    # the one-product contraction over the stack against sum_ij w_ij t_ij,
    # coefficient by coefficient: the twisted trace of the transfer matrix
    # and the dressing mu L0 T L0 of the modified family
    rng = np.random.default_rng(23)
    for sites in range(1, 7):
        ctx = random_context(rng, sites)
        family = build_monodromy(ctx.chain)

        def written_out(weights, blocks=family.coeffs):
            return sum(weights[ij] * blocks[ij] for ij in np.ndindex(2, 2))

        kmat = ctx.twist.matrix()
        transfer = build_transfer(ctx.chain, ctx.twist, family)
        assert _rel_per_coefficient(transfer.coeffs, written_out(kmat.T)) <= 1e-14, sites
        fact = ctx.fact
        l0 = np.array([[1.0, fact.ratio_minus], [fact.ratio_plus, 1.0]])
        nu = build_modified_operators(family, fact)
        for a, b in np.ndindex(2, 2):
            want = written_out(fact.mu * np.outer(l0[a], l0[:, b]))
            assert _rel_per_coefficient(nu.coeffs[a, b], want) <= 1e-14, (sites, a, b)
        # four blocks evaluated at one point contract the same way
        at_u = family.at(draw_points(rng, 1)[0])
        want = written_out(kmat.T, at_u)
        got = _contract(at_u, kmat.T)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sites


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
    # the four blocks at one point take 4.2 MB at N=8; the products by
    # magnetization block take 6.6 MB for both orders.  Dense block-product
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
    assert peak < 24e6, peak


def test_operator_build_memory_at_eight_sites():
    # the block-major stack holds 4 (N+1) 4^N complex coefficients, 37.7 MB
    # at N=8.  Building it keeps the stack of N-1 sites and one temporary
    # of that size beside it; the modified family is one product into a
    # stack of the same size, with no temporary block
    params, tw = _eight_site_grid()
    tracemalloc.start()
    try:
        family = build_monodromy(params)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        build_modified_operators(family, factorize_twist(tw))
        modified_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    stack = family.coeffs.nbytes
    assert stack == 4 * 9 * 4 ** 8 * 16
    assert build_peak < 56e6, build_peak
    assert modified_peak <= 1.05 * stack, modified_peak


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


def test_degree_one_stack_is_the_low_monodromy_coefficients():
    # a coefficient of degree k reads only degrees <= k in the recursion,
    # so the cut stack must equal the full one bit for bit
    rng = np.random.default_rng(23)
    for sites in range(1, 9):
        params = ChainParams(sites, 0.7 + 0.4j, random_theta(rng, sites))
        low = _monodromy_stack(params, 1)
        assert np.array_equal(low, build_monodromy(params).coeffs[:, :, :2]), sites


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


def test_periodic_two_site_spectrum():
    params = ChainParams(2, 1.0, (0.0, 0.0))
    periodic = TwistParams(1.0, 1.0, 0.0, 0.0)
    h = build_hamiltonian(params, periodic, route="direct")
    values = np.sort(np.linalg.eigvalsh((h + h.conj().T) / 2))
    assert np.allclose(values, [-6.0, 2.0, 2.0, 2.0], atol=1e-10)

