from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistchain import ChainParams, SpectralContext, TwistParams
from twistchain.bethe import (
    CoincidenceError,
    _tq_base,
    _tq_system,
    VariableSet,
    action_coefficients,
    bethe_jacobian,
    bethe_residuals,
    bethe_system,
    cauchy_determinant_closed,
    diag_eigenvalue,
    diag_residual,
    eigenvalue_gradient,
    eps_dist,
    kernel_g,
    onshell_scales,
    onshell_tolerance,
    raising_eigenpart,
    shift_polynomial,
    term_F,
    term_G,
    tq_polynomial_residual,
    transfer_eigenvalue,
)
from twistchain.cli import parse_config
from twistchain.linalg import eigenvalues
from twistchain.solver import solve_tq_fit
from twistchain.twist import twist_alpha

import newton_reference
from conftest import draw_points, random_context

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _distinct_points(seed, count, scale=1.0):
    rng = np.random.default_rng(seed)
    while True:
        pts = draw_points(rng, count, scale)
        if count < 2 or np.min(np.abs(pts[:, None] - pts[None, :])[
            ~np.eye(count, dtype=bool)
        ]) > 1e-3:
            return pts


@given(st.integers(0, 500))
def test_kernel_relations(seed):
    u, v = _distinct_points(seed, 2)
    c = 1.0
    g = kernel_g(u, v, c)
    assert abs(g + kernel_g(v, u, c)) < 1e-12


@given(st.integers(0, 200), st.integers(1, 5))
def test_functional_identities(seed, size):
    # f(ubar,u) + sum_i g(u,u_i) f(ubar_i,u_i) = 1 and its mirror
    pts = _distinct_points(seed, size + 1)
    u, rest = pts[0], pts[1:]
    c = 1.0
    total = np.prod(1.0 + kernel_g(rest, u, c))
    mirror = np.prod(1.0 + kernel_g(u, rest, c))
    for i in range(size):
        others = np.delete(rest, i)
        total += kernel_g(u, rest[i], c) * np.prod(1.0 + kernel_g(others, rest[i], c))
        mirror += kernel_g(rest[i], u, c) * np.prod(1.0 + kernel_g(rest[i], others, c))
    assert abs(total - 1.0) < 1e-12
    assert abs(mirror - 1.0) < 1e-12


def test_empty_set_conventions():
    # every product over the empty set is 1, so the scalar functions reduce
    # to their vacuum values
    empty = VariableSet(np.array([], dtype=complex))
    assert len(empty) == 0
    assert kernel_g(0.3, empty.values, 1.0).size == 0
    ctx = random_context(np.random.default_rng(5), 2)
    u = 0.3 - 0.2j
    l1, l2 = ctx.lam(u)
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    raising = 2 * ctx.fact.rho * l1 * l2
    assert diag_eigenvalue(ctx, u, empty, x, y) == x * l1 + y * l2
    assert raising_eigenpart(ctx, u, empty) == raising
    assert transfer_eigenvalue(ctx, u, empty) == x * l1 + y * l2 + raising


@given(st.integers(0, 300))
def test_variable_set_sorting_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = _distinct_points(seed, 4)
    perm = rng.permutation(4)
    a = VariableSet(pts).sorted()
    b = VariableSet(pts[perm]).sorted()
    assert np.array_equal(a.values, b.values)


def test_variable_set_rejects_coincident_entries():
    with pytest.raises(CoincidenceError):
        VariableSet(np.array([0.5, 0.5 + 1e-12]), eps=1e-9)
    # far enough apart is fine
    VariableSet(np.array([0.5, 0.5 + 1e-6]), eps=1e-9)


def test_variable_set_drop():
    vs = VariableSet(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(vs.drop(1).values, [1.0, 3.0])


@given(st.integers(0, 200))
def test_eigenvalue_symmetric_under_permutation(seed):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, 3)
    pts = _distinct_points(seed + 1000, 4)
    u, roots = pts[0], pts[1:]
    base = transfer_eigenvalue(ctx, u, roots)
    for _ in range(3):
        perm = rng.permutation(3)
        again = transfer_eigenvalue(ctx, u, roots[perm])
        assert abs(again - base) <= 1e-12 * max(1.0, abs(base))


def test_eigenvalue_splits_into_diagonal_and_raising_parts():
    rng = np.random.default_rng(33)
    ctx = random_context(rng, 2)
    pts = _distinct_points(7, 3)
    u, roots = pts[0], pts[1:]
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    want = diag_eigenvalue(ctx, u, roots, x, y) + raising_eigenpart(ctx, u, roots)
    got = transfer_eigenvalue(ctx, u, roots)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_single_site_residual_polynomial(config_a):
    # one site, c=1, theta=0: the residual in u is an explicit quadratic
    rho = config_a.fact.rho
    for u in (0.7, -1.2, 0.3 + 0.8j):
        want = 2 * rho * u**2 + (2 * rho - 1) * u - (2 - rho)
        got = bethe_residuals(config_a, (u,))[0]
        assert abs(got - want) < 1e-12
    # its roots are the golden-ratio pair
    assert abs(bethe_residuals(config_a, (GOLDEN,))[0]) < 1e-12
    assert abs(bethe_residuals(config_a, (-(3 + np.sqrt(5.0)) / 4,))[0]) < 1e-12
    # and the frozen spot value at u = 1
    assert abs(bethe_residuals(config_a, (1.0,))[0] - (5 * rho - 3)) < 1e-12


def _residual_by_products(ctx, roots, i):
    # E(u_i, ubar_i) written out from the pair products, as the paper has it
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    ui, rest = roots[i], np.delete(roots, i)
    l1, l2 = ctx.lam(ui)
    return (
        -x * l1 * np.prod(1.0 + kernel_g(rest, ui, ctx.c))
        + y * l2 * np.prod(1.0 + kernel_g(ui, rest, ctx.c))
        + 2 * ctx.fact.rho * l1 * l2 * np.prod(kernel_g(ui, rest, ctx.c))
    )


def test_residuals_vector_matches_scalar():
    rng = np.random.default_rng(44)
    for sites in range(1, 7):
        ctx = random_context(rng, sites)
        roots = _distinct_points(9 + sites, sites)
        vec = bethe_residuals(ctx, roots)
        for i in range(sites):
            want = _residual_by_products(ctx, roots, i)
            assert abs(vec[i] - want) <= 1e-13 * max(1.0, abs(want))


def _jacobian_gap(ctx, roots, h=1e-6):
    """Largest gap between the analytic Jacobian and central differences of
    the residuals, relative to the largest Jacobian entry."""
    jac = bethe_jacobian(ctx, roots)
    cols = []
    for e in np.eye(len(roots)):
        up = bethe_residuals(ctx, roots + h * e)
        down = bethe_residuals(ctx, roots - h * e)
        cols.append((up - down) / (2 * h))
    return float(np.max(np.abs(jac - np.column_stack(cols))) / np.max(np.abs(jac)))


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(71)
    for sites in range(2, 7):
        for seed in range(4):
            ctx = random_context(rng, sites)
            roots = _distinct_points(100 * sites + seed, sites)
            assert _jacobian_gap(ctx, roots) < 1e-7


def test_jacobian_where_a_pair_is_one_coupling_apart():
    # u_k - u_i = -c makes f(u_k, u_i) vanish: the products over ubar_i hold
    # an exact zero, the ones over ubar_ik do not
    rng = np.random.default_rng(72)
    for sites in range(2, 7):
        ctx = random_context(rng, sites)
        roots = _distinct_points(200 + sites, sites)
        roots[1] = roots[0] - ctx.c
        assert 1.0 + kernel_g(roots[1], roots[0], ctx.c) == 0
        assert _jacobian_gap(ctx, roots) < 1e-7


def _action_coefficient_cases():
    """(ctx, u, roots) at m = 1..7 roots, two random sets per m and one
    where u_1 - u_0 = -c, on dyadic points so that difference is exact."""
    rng = np.random.default_rng(74)
    for m in range(1, 8):
        for kind in ("random", "random", "one coupling apart"):
            if kind != "random" and m < 2:
                continue
            ctx = random_context(rng, m)
            pts = _distinct_points(300 + 10 * m + len(kind), m + 1)
            if kind != "random":
                pts = np.round(pts * 1024) / 1024
                pts[2] = pts[1] - ctx.c
            yield ctx, pts[0], VariableSet(pts[1:], eps_dist(ctx.c))


def test_action_coefficients_match_the_per_index_functions():
    def close(got, want):
        return np.all(np.abs(np.asarray(got) - want) <= 1e-14 * np.abs(want))

    exact_zeros = 0
    for ctx, u, rs in _action_coefficient_cases():
        m, c = len(rs), ctx.c
        coef = action_coefficients(ctx, u, rs)
        x, y = 0.7 - 0.2j, -1.3 + 0.5j
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (x, y)):
            assert close(coef.diag_eigenvalue(a, b), diag_eigenvalue(ctx, u, rs, a, b))
            want = [diag_residual(ctx, i, rs, a, b) for i in range(m)]
            assert close(coef.diag_residual(a, b), want), (m, a, b)
            exact_zeros += int(np.sum(coef.diag_residual(a, b)[np.equal(want, 0)] == 0))
        nu11 = [kernel_g(u, rs[i], c) * diag_residual(ctx, i, rs, -1.0, 0.0) for i in range(m)]
        nu22 = [kernel_g(rs[i], u, c) * diag_residual(ctx, i, rs, 0.0, 1.0) for i in range(m)]
        assert close(coef.swapped(1.0, 0.0), nu11), m
        assert close(coef.swapped(0.0, 1.0), nu22), m
        assert close(coef.F, [term_F(ctx, u, i, rs) for i in range(m)]), m
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert close(coef.G[i, j], term_G(ctx, u, i, j, rs)), (m, i, j)
    # the sets one coupling apart hold an exact zero f, kept exact
    assert exact_zeros > 0


def test_action_coefficients_reject_a_probe_on_a_root():
    rng = np.random.default_rng(75)
    ctx = random_context(rng, 3)
    rs = VariableSet(_distinct_points(76, 3), eps_dist(ctx.c))
    with pytest.raises(CoincidenceError):
        action_coefficients(ctx, rs[1], rs)
    with pytest.raises(CoincidenceError):
        action_coefficients(ctx, rs[1] + 1e-12, rs)


def test_batch_rows_match_single_sets():
    rng = np.random.default_rng(73)
    ctx = random_context(rng, 4)
    batch = np.array([_distinct_points(300 + b, 4) for b in range(5)])
    batch[2, 3] = batch[2, 0] - ctx.c
    batch[4, 1] = batch[4, 2] + 1e-12  # coincident: flagged, not raised
    res, jac, coincident, scale = bethe_system(ctx, batch, jacobian=True)
    assert res.shape == (5, 4) and jac.shape == (5, 4, 4)
    assert coincident.tolist() == [False, False, False, False, True]
    assert np.array_equal(scale, onshell_scales(ctx, batch))
    for b in range(4):
        assert np.array_equal(res[b], bethe_residuals(ctx, batch[b]))
        assert np.array_equal(jac[b], bethe_jacobian(ctx, batch[b]))
    assert np.array_equal(bethe_system(ctx, batch)[0], res)
    with pytest.raises(CoincidenceError):
        bethe_residuals(ctx, VariableSet(batch[4], 0.0))


@pytest.mark.parametrize("sites", range(1, 7))
def test_stacked_kernel_matches_the_term_by_term_reference(sites):
    # bethe_system takes its three kernel terms as one stack; every entry of
    # E and J must stay the one the term-by-term kernel gave, on batches
    # with a coincident row and with a pair where some f vanishes
    rng = np.random.default_rng(90 + sites)
    ctx = random_context(rng, sites)
    batch = np.array([_distinct_points(400 + 10 * sites + b, sites) for b in range(6)])
    if sites > 1:
        batch[1, 1] = batch[1, 0] - ctx.c
        batch[2, 0] = batch[2, sites - 1] + 1e-12
        batch[3, sites - 1] = batch[3, 0] - ctx.c
    for jacobian in (False, True):
        got = bethe_system(ctx, batch, jacobian)
        want = newton_reference.bethe_system(ctx, batch, jacobian)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
        assert got[2].tolist() == [False, False, sites > 1, False, False, False]
        assert (got[1] is None) if not jacobian else np.array_equal(got[1], want[1])


def test_onshell_scale_and_tolerance():
    rng = np.random.default_rng(55)
    ctx = random_context(rng, 2)
    roots = _distinct_points(11, 2)
    scale = float(onshell_scales(ctx, roots[None, :])[0])
    assert scale >= 1.0
    assert abs(onshell_tolerance(ctx, roots) - 1e-8 * scale) < 1e-20 * scale
    assert eps_dist(1.0) == 1e-9
    assert eps_dist(3.0 + 4.0j) == 5e-9


@given(st.integers(0, 100))
def test_gradient_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    sites = int(rng.integers(1, 4))
    ctx = random_context(rng, sites)
    pts = _distinct_points(seed + 7, sites + 1)
    v, roots = pts[0], pts[1:]
    h = 1e-6
    for i in range(sites):
        step = np.zeros(sites, dtype=complex)
        step[i] = h
        fd = (
            transfer_eigenvalue(ctx, v, roots + step)
            - transfer_eigenvalue(ctx, v, roots - step)
        ) / (2 * h)
        grad = eigenvalue_gradient(ctx, v, roots, i)
        assert abs(grad - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("sites", range(1, 8))
def test_broadcast_gradient_matches_per_entry_calls(sites):
    # one call with free points along one axis and root indices along the
    # other gives the table d Lam(v_j)/d u_i; array and scalar complex
    # arithmetic round differently, so entries agree to rounding, not bits.
    # Where u_1 - u_0 = -c an f is exactly 0 and an entry can cancel, so
    # that set is compared against the size of its table
    rng = np.random.default_rng(640 + sites)
    ctx = random_context(rng, sites)
    rows = np.arange(sites)[:, None]
    for trial in range(4):
        pts = _distinct_points(900 + 10 * sites + trial, 2 * sites)
        roots, free = pts[:sites], 1.3 * pts[sites:]
        vanishing = trial == 3 and sites > 1
        if vanishing:
            # on a grid of 1/64 the difference of one coupling is exact
            roots[0] = np.round(64 * roots[0]) / 64
            roots[1] = roots[0] - ctx.c
            assert 1.0 + kernel_g(roots[1], roots[0], ctx.c) == 0
        table = eigenvalue_gradient(ctx, free[None, :], roots, rows)
        assert table.shape == (sites, sites)
        single = [[eigenvalue_gradient(ctx, free[j], roots, i) for j in range(sites)] for i in range(sites)]
        assert all(type(x) is complex for row in single for x in row)
        single = np.array(single)
        scale = np.max(np.abs(single)) if vanishing else np.abs(single)
        assert np.all(np.abs(table - single) <= 1e-14 * scale), (sites, trial)
    # a free point within the coincidence guard of a root still raises
    free[sites - 1] = roots[0] + 0.5 * eps_dist(ctx.c)
    with pytest.raises(CoincidenceError):
        eigenvalue_gradient(ctx, free[None, :], roots, rows)
    with pytest.raises(CoincidenceError):
        eigenvalue_gradient(ctx, free[sites - 1], roots, sites - 1)


@given(st.integers(0, 200), st.integers(1, 4))
def test_cauchy_determinant_closed_form(seed, size):
    pts = _distinct_points(seed, 2 * size)
    vs, us = pts[:size], pts[size:]
    c = 1.0
    direct = np.linalg.det(
        np.array([[kernel_g(v, u, c) for u in us] for v in vs])
    )
    closed = cauchy_determinant_closed(vs, us, c)
    assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct))


def test_shift_polynomial():
    # p(u) = 1 + 2u + 3u^2 shifted to p(u + s)
    coeffs = np.array([1.0, 2.0, 3.0], dtype=complex)
    s = 0.7 - 0.3j
    shifted = shift_polynomial(coeffs, s)
    for u in (0.0, 1.3, -0.4j):
        want = 1 + 2 * (u + s) + 3 * (u + s) ** 2
        got = np.polyval(shifted[::-1], u)
        assert abs(got - want) < 1e-12


def test_tq_relation_pointwise(config_a):
    # for any full-order root set, the eigenvalue function times Q equals
    # the three-term polynomial side, pointwise away from the roots
    rng = np.random.default_rng(66)
    ctx = random_context(rng, 3)
    roots = _distinct_points(13, 3)
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    rho, c, n = ctx.fact.rho, ctx.c, ctx.sites

    def q(u):
        return np.prod([u - r for r in roots])

    for u in draw_points(rng, 10, scale=1.5):
        l1, l2 = ctx.lam(u)
        lam = transfer_eigenvalue(ctx, u, roots)
        three = x * l1 * q(u - c) + y * l2 * q(u + c) + 2 * rho * c**n * l1 * l2
        assert abs(lam * q(u) - three) <= 1e-10 * max(1.0, abs(three))


def _tq_matrix_matches_pointwise(ctx, rng):
    # the coefficient matrix of the T-Q relation in v = u/s, s = max(1, |c|),
    # applied to a random monic Q(v) and a random Lam(v) of degree N, against
    # the relation of test_tq_relation_pointwise at u = s v, divided by s^N
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    rho, c, n = ctx.fact.rho, ctx.c, ctx.sites
    s = max(1.0, abs(c))
    lam = draw_points(rng, n + 1)
    roots = draw_points(rng, n)  # of Q(v); those of Q(u) are s times these
    a, b = _tq_system(lam, _tq_base(ctx))
    relation = a @ np.poly(roots)[::-1] - b

    def q(u):
        return np.prod(u - s * roots)

    for v in draw_points(rng, 10, scale=1.5):
        u = s * v
        l1, l2 = ctx.lam(u)
        want = (
            np.polyval(lam[::-1], v) * q(u)
            - x * l1 * q(u - c)
            - y * l2 * q(u + c)
            - 2 * rho * c**n * l1 * l2
        ) / s**n
        got = np.polyval(relation[::-1], v)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (n, c)


def test_tq_polynomial_residual_flags_offshell(config_a):
    # on-shell roots make the eigenvalue a polynomial and the functional
    # relation closes; nudging the root breaks it by orders of magnitude
    ctx = config_a
    for root in (GOLDEN, -(3 + np.sqrt(5.0)) / 4):
        lam = np.array(
            [transfer_eigenvalue(ctx, 0.0, (root,)), 0.0], dtype=complex
        )
        lam[1] = transfer_eigenvalue(ctx, 1.0, (root,)) - lam[0]
        good = tq_polynomial_residual(ctx, lam, np.array([-root, 1.0]))
        assert good < 1e-12
        bad = tq_polynomial_residual(ctx, lam, np.array([-(root + 1e-3), 1.0]))
        assert bad > 10 * max(good, 1e-13)
    with pytest.raises(ValueError):
        tq_polynomial_residual(ctx, np.array([1.0, 1.0]), np.array([0.5, 2.0]))
    with pytest.raises(ValueError):
        tq_polynomial_residual(ctx, np.array([1.0, 1.0]), np.array([0.5, 0.5, 1.0]))
    # beyond one site: every unflagged T-Q fit set closes the relation to
    # rounding, relative to the size of Lam Q, and a nudged root does not
    rng = np.random.default_rng(67)
    other = np.random.default_rng(68)
    for sites in range(2, 6):
        ctx = random_context(rng, sites)
        _tq_matrix_matches_pointwise(ctx, rng)
        # at c = 1 the fit's variable v = u/max(1, |c|) is u; these pin it
        for c in (0.7 + 0.4j, 1e5):
            chain = ChainParams(sites, c, ctx.chain.theta)
            _tq_matrix_matches_pointwise(SpectralContext.create(chain, ctx.twist), other)
        center = complex(np.mean(ctx.chain.theta))
        nodes = center + 2 * np.exp(2j * np.pi * np.arange(sites + 1) / (sites + 1))
        vander = np.vander(nodes, sites + 1, increasing=True)
        for sol in solve_tq_fit(ctx):
            if sol.flag is not None:
                continue
            roots = sol.roots.values
            lam = np.linalg.solve(
                vander, [transfer_eigenvalue(ctx, p, roots) for p in nodes]
            )
            q = np.poly(roots)[::-1]
            scale = np.max(np.abs(np.convolve(lam, q)))
            good = tq_polynomial_residual(ctx, lam, q)
            assert good <= 1e-9 * scale, sites
            nudged = np.poly(roots + 1e-3 * (np.arange(sites) == 0))[::-1]
            assert tq_polynomial_residual(ctx, lam, nudged) >= 10 * good, sites


# --- the transfer spectrum by magnetization sector ---------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SPECTRUM_PROBES = (0.3117 + 0.1193j, -0.4271 + 0.2913j)


def _multiset_gap(found, reference) -> float:
    """Largest gap of a greedy nearest one-to-one pairing of two spectra,
    relative to the reference's spectral radius."""
    left = list(np.asarray(reference))
    assert len(found) == len(left)
    worst = 0.0
    for z in found:
        k = int(np.argmin(np.abs(np.array(left) - z)))
        worst = max(worst, abs(z - left.pop(k)))
    return worst / max(1.0, float(np.max(np.abs(reference))))


def _assert_sector_spectrum_is_dense_one(ctx):
    for p in SPECTRUM_PROBES:
        found = ctx.spectrum(p)
        assert np.all(np.diff(found.real) >= 0)
        assert _multiset_gap(found, eigenvalues(ctx.transfer(p))) <= 1e-12


@pytest.mark.parametrize("sites", range(1, 8))
def test_sector_spectrum_matches_the_dense_one(sites):
    _assert_sector_spectrum_is_dense_one(random_context(np.random.default_rng(sites), sites))


@pytest.mark.parametrize("name", ["config_a", "n2_generic", "n3_generic", "u1_diagonal"])
def test_sector_spectrum_matches_the_dense_one_on_bundled_configs(name):
    _assert_sector_spectrum_is_dense_one(parse_config(str(CONFIGS / f"{name}.json")).context())


def _twisted(sites, kmat):
    (kt, kp), (km, k) = kmat
    theta = tuple(0.15 * (j - (sites - 1) / 2) + 0.05j * j for j in range(sites))
    return SpectralContext.create(ChainParams(sites, 1.0, theta), TwistParams(kt, k, kp, km))


@pytest.mark.parametrize("sites", range(1, 8))
def test_sector_spectrum_on_the_periodic_twist(sites):
    # K = I: the SU(2) multiplets are degenerate eigenvalues
    _assert_sector_spectrum_is_dense_one(_twisted(sites, [[1, 0], [0, 1]]))


@pytest.mark.parametrize("sites", range(1, 5))
def test_sector_spectrum_on_a_singular_twist(sites):
    # det [[1, 1], [2, 2]] = 0, so beta = 0 and the blocks are alpha t11,
    # whose repeated eigenvalues cost the dense eigen-solve digits from
    # N = 5 on: against 40-digit eigenvalues it is off by 1.2e-12 at N = 5
    # and 1e-11 at N = 6, where the sector values agree to the last bit
    _assert_sector_spectrum_is_dense_one(_twisted(sites, [[1, 1], [2, 2]]))


@pytest.mark.parametrize("sites", range(1, 7))
def test_sector_spectrum_of_a_defective_twist(sites):
    # K = [[1, 1], [-1, 3]] is one Jordan block with eigenvalue 2, and t(u)
    # inherits Jordan blocks up to the largest multiplet, where a dense
    # eigen-solve keeps only a root of the rounding error (1e-3 at N = 6).
    # Its traces are well conditioned, and the diagonal twist 2 I has the
    # same spectrum with no Jordan block.
    ctx = _twisted(sites, [[1, 1], [-1, 3]])
    frame = _twisted(sites, [[2, 0], [0, 2]])
    for p in SPECTRUM_PROBES:
        found = ctx.spectrum(p)
        assert _multiset_gap(found, eigenvalues(frame.transfer(p))) <= 1e-12
        t = ctx.transfer(p)
        power = np.eye(len(t))
        for k in range(1, 5):
            power = power @ t
            scale = float(np.sum(np.abs(found) ** k))
            assert abs(np.trace(power) - np.sum(found ** k)) <= 1e-12 * scale


@pytest.mark.parametrize("kmat", [[[1.8, 0.8], [0.6, 1.1]], [[1, 1], [-1, 3]], [[1, 1], [2, 2]]])
def test_vacuum_sector_is_the_plain_ansatz_branch(kmat):
    ctx = _twisted(4, kmat)
    alpha = twist_alpha(ctx.twist)
    beta = ctx.twist.trace - alpha
    for p in SPECTRUM_PROBES:
        l1, l2 = ctx.lam(p)
        (vacuum,) = ctx.sectors[0](p).ravel()
        assert abs(vacuum - (alpha * l1 + beta * l2)) <= 1e-13 * max(1.0, abs(vacuum))
    assert [s.dim for s in ctx.sectors] == [1, 4, 6, 4, 1]
