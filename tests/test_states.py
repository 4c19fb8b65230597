import dataclasses
import math
import time
from collections import Counter
from functools import cached_property
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistchain import ChainParams, SpectralContext, TwistParams, solve_newton, states
from twistchain.bethe import CoincidenceError, VariableSet, diag_eigenvalue, eps_dist
from twistchain.chain import (
    MonodromyFamily,
    _Block,
    _scaled_gap,
    build_monodromy,
    monodromy_product_gap,
    structure_checks,
    vacuum_state,
    vacuum_weights,
)
from twistchain.states import (
    build_bethe_vector,
    build_dual_vector,
    eigenstate_residual,
    offshell_action_residuals,
    projection_expansion,
    raising_coefficient,
    raising_identity_residual,
    reassemble_projection,
    w0,
)
from twistchain.twist import build_modified_operators, vacuum_action_residuals

from conftest import draw_points, random_context

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _family(ctx):
    return build_modified_operators(build_monodromy(ctx.chain), ctx.fact)


def test_creation_operators_commute():
    rng = np.random.default_rng(1)
    ctx = random_context(rng, 3)
    nu = _family(ctx)
    u, v = draw_points(rng, 2)
    a, b = nu.t12(u), nu.t12(v)
    assert np.linalg.norm(a @ b - b @ a) < 1e-12
    a, b = nu.t21(u), nu.t21(v)
    assert np.linalg.norm(a @ b - b @ a) < 1e-12


@given(st.integers(0, 100))
def test_vectors_symmetric_in_parameters(seed):
    rng = np.random.default_rng(seed)
    sites = int(rng.integers(2, 4))
    ctx = random_context(rng, sites)
    nu = _family(ctx)
    pts = draw_points(rng, sites)
    perm = rng.permutation(sites)
    ket_a = build_bethe_vector(nu, pts).amplitudes
    ket_b = build_bethe_vector(nu, pts[perm]).amplitudes
    scale = max(1.0, np.linalg.norm(ket_a))
    assert np.linalg.norm(ket_a - ket_b) <= 1e-12 * scale
    dual_a = build_dual_vector(nu, pts).amplitudes
    dual_b = build_dual_vector(nu, pts[perm]).amplitudes
    scale = max(1.0, np.linalg.norm(dual_a))
    assert np.linalg.norm(dual_a - dual_b) <= 1e-12 * scale


def test_offshell_actions_all_orders():
    rng = np.random.default_rng(9)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites)
        nu = _family(ctx)
        for m in range(1, sites + 1):
            for _ in range(3):
                pts = draw_points(rng, m + 1)
                rs = VariableSet(pts[1:], eps_dist(ctx.c))
                res = offshell_action_residuals(nu, ctx, pts[0], rs)
                for name, value in res.items():
                    assert value < 1e-9, (sites, m, name)


def test_offshell_action_residual_catches_a_wrong_coefficient(monkeypatch):
    # the residuals are relative to the vector scale; a coefficient off by
    # 1e-6 relative must still fail the 1e-10 structural tolerance
    rng = np.random.default_rng(11)
    exact = states.action_coefficients

    def skewed(ctx, u, roots):
        coef = exact(ctx, u, roots)
        pair = coef.G.copy()
        pair[0, 1] *= 1.0 + 1e-6
        return dataclasses.replace(coef, G=pair)

    for sites in range(2, 7):
        ctx = random_context(rng, sites)
        nu = _family(ctx)
        pts = draw_points(rng, sites + 1)
        rs = VariableSet(pts[1:], eps_dist(ctx.c))
        clean = offshell_action_residuals(nu, ctx, pts[0], rs)["nu21_action"]
        with monkeypatch.context() as patch:
            patch.setattr(states, "action_coefficients", skewed)
            broken = offshell_action_residuals(nu, ctx, pts[0], rs)["nu21_action"]
        assert clean < 1e-10 < broken, (sites, clean, broken)


class _CountingBlock(_Block):
    """A block that records each point it is called at: one evaluation of
    the stored entries."""

    def __init__(self, family, weights):
        super().__init__(family, weights)
        self.points = family.points

    def __call__(self, u):
        self.points[complex(u)] += 1
        return super().__call__(u)


class _CountingFamily(MonodromyFamily):
    """A monodromy family that records every evaluation of its stored
    entries by point, whichever blocks it serves: ``entries(u)``, which
    ``at(u)`` and every check that places several blocks at u read, and a
    block, or a contraction of them, called at u."""

    @cached_property
    def points(self):
        return Counter()

    def entries(self, u):
        self.points[complex(u)] += 1
        return super().entries(u)

    def contract(self, weights):
        return _CountingBlock(self, np.tensordot(weights, self.dressing, 2))

    t11, t12, t21, t22 = (
        cached_property(lambda self, ab=ab: _CountingBlock(self, self.dressing[ab]))
        for ab in np.ndindex(2, 2)
    )


def test_action_checks_evaluate_each_operator_once_per_point():
    # each check evaluates the stored entries once per distinct point it
    # reads, across all four blocks: the off-shell actions and the raising
    # closure at the probe and every root, the vacuum actions at u, the
    # product form at u and the structure checks at u and v
    rng = np.random.default_rng(15)
    for sites in range(3, 7):
        ctx = random_context(rng, sites)
        bare = build_monodromy(ctx.chain)
        nu = build_modified_operators(bare, ctx.fact)

        def evaluations(family, check) -> set:
            counting = _CountingFamily(family.coeffs, family.unit, family.grading, family.dressing)
            check(counting)
            assert all(count == 1 for count in counting.points.values()), (sites, counting.points)
            return set(counting.points)

        for m in range(1, sites + 1):
            pts = draw_points(rng, m + 1)
            rs = VariableSet(pts[1:], eps_dist(ctx.c))
            seen = evaluations(nu, lambda f: offshell_action_residuals(f, ctx, pts[0], rs))
            assert seen == {complex(x) for x in pts}, (sites, m)
        pts = draw_points(rng, sites + 1)
        rs = VariableSet(pts[1:], eps_dist(ctx.c))
        seen = evaluations(nu, lambda f: raising_identity_residual(f, ctx, pts[0], rs))
        assert seen == {complex(x) for x in pts}, sites
        u, v = (complex(x) for x in draw_points(rng, 2))
        assert evaluations(nu, lambda f: vacuum_action_residuals(f, ctx.fact, ctx.chain, u)) == {u}
        assert evaluations(bare, lambda f: monodromy_product_gap(ctx.chain, f, u)) == {u}
        assert evaluations(bare, lambda f: structure_checks(ctx.chain, ctx.twist, u, v, f)) == {u, v}


def test_vacuum_actions_read_column_zero_bit_for_bit():
    # nu_ij(u)|0> read as column 0 of the blocks from one evaluation equals
    # the placed block applied to the reference state, bit for bit, so
    # the vacuum residuals are those of the placed blocks
    rng = np.random.default_rng(16)
    for sites in range(1, 8):
        ctx = random_context(rng, sites, diagonal=sites == 2)
        nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        v0 = vacuum_state(sites)
        for u in draw_points(rng, 2):
            entries = nu.entries(u)
            for block in (nu.t11, nu.t12, nu.t21, nu.t22):
                assert np.array_equal(block.column(entries, 0), block(u) @ v0), sites
            l1, l2 = vacuum_weights(ctx.chain, u)
            rp = ctx.fact.ratio_plus
            nu11, b, nu21, nu22 = (block(u) @ v0 for block in (nu.t11, nu.t12, nu.t21, nu.t22))
            want = {
                "nu11_vacuum": _scaled_gap(nu11, l1 * v0 + rp * b),
                "nu22_vacuum": _scaled_gap(nu22, l2 * v0 + rp * b),
                "nu21_vacuum": _scaled_gap(nu21, rp * (l1 + l2) * v0 + rp ** 2 * b),
            }
            assert vacuum_action_residuals(nu, ctx.fact, ctx.chain, u) == want, sites


def test_string_builder_matches_the_full_build_bit_for_bit():
    # a string extends its suffix one operator at a time, which applies
    # the same matrices to the same vectors in the same order as the full
    # build, so the amplitudes must be identical, not merely close
    rng = np.random.default_rng(19)
    for sites in range(1, 6):
        ctx = random_context(rng, sites)
        nu = _family(ctx)
        pts = VariableSet(draw_points(rng, sites + 1), eps_dist(ctx.c))
        orders = [rng.permutation(sites + 1)[: rng.integers(0, sites + 2)] for _ in range(12)]
        orders += [np.arange(sites + 1), np.arange(1, sites + 1), np.array([0, *range(2, sites + 1)])]
        keys = [tuple(int(k) for k in order) for order in orders]
        string = states._creation_strings(nu, pts.values, keys)
        for order, key in zip(orders, keys):
            vs = VariableSet(pts.values[order], pts.eps)
            got = string[key]
            assert np.array_equal(got, build_bethe_vector(nu, vs).amplitudes), order


def test_offshell_actions_reject_too_many_parameters():
    rng = np.random.default_rng(13)
    ctx = random_context(rng, 2)
    nu = _family(ctx)
    with pytest.raises(ValueError):
        offshell_action_residuals(nu, ctx, 0.1, draw_points(rng, 3))


def test_raising_closure_identity():
    rng = np.random.default_rng(17)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites)
        nu = _family(ctx)
        for _ in range(3):
            pts = draw_points(rng, sites + 1)
            resid = raising_identity_residual(nu, ctx, pts[0], pts[1:])
            assert resid < 1e-9, sites


def test_raising_closure_flags_one_perturbed_coefficient_on_a_wide_chain(
    monkeypatch,
):
    # the closure's terms cancel by up to 1e8 on this chain, so its gap is
    # taken relative to the sum of the term norms; that looser floor must
    # still fail a closure whose first coefficient is off by 1e-6 by at
    # least ten times the 1e-10 tolerance
    theta = (-45.0, -30.0, -15.0, 0.0, 15.0, 30.0)
    ctx = SpectralContext.create(
        ChainParams(6, 1.0, theta), TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6)
    )
    nu = _family(ctx)
    rng = np.random.default_rng(0)
    exact = states.raising_eigenpart
    for _ in range(10):
        pts = -7.5 + draw_points(rng, 7)
        rs = VariableSet(pts[1:], eps_dist(ctx.c))
        assert raising_identity_residual(nu, ctx, pts[0], rs) < 1e-14

        def perturbed(ctx, u, roots, _probe=complex(pts[0])):
            # the coefficient of the order-N string B(ubar) sits at the probe
            return exact(ctx, u, roots) * (1 + 1e-6 * (u == _probe))

        with monkeypatch.context() as patch:
            patch.setattr(states, "raising_eigenpart", perturbed)
            assert raising_identity_residual(nu, ctx, pts[0], rs) >= 1e-9


def test_raising_coefficients_are_twist_ratios():
    rng = np.random.default_rng(21)
    ctx = random_context(rng, 3)
    nu = _family(ctx)
    ratio = ctx.fact.ratio_plus
    pts = draw_points(rng, 3)
    u, rs = pts[0], pts[1:]
    for which, want in (("nu11", ratio), ("nu22", ratio), ("nu21", ratio**2)):
        got = raising_coefficient(nu, ctx, u, rs, which)
        assert abs(got - want) < 1e-10, which
    with pytest.raises(ValueError):
        raising_coefficient(nu, ctx, u, draw_points(rng, 3), "nu11")


def test_onshell_states_are_eigenstates(config_a):
    nu = _family(config_a)
    for root in (GOLDEN, -(3 + np.sqrt(5.0)) / 4):
        for u in (0.3, -0.9, 1.4 + 0.5j):
            assert eigenstate_residual(nu, config_a, (root,), u) < 1e-10
            assert eigenstate_residual(nu, config_a, (root,), u, dual=True) < 1e-10


def test_onshell_states_are_eigenstates_two_sites():
    rng = np.random.default_rng(25)
    ctx = random_context(rng, 2)
    nu = _family(ctx)
    sols = solve_newton(ctx, starts=150, seed=3)
    assert sols, "no on-shell sets found"
    for sol in sols:
        for u in draw_points(rng, 5):
            assert eigenstate_residual(nu, ctx, sol.roots, u) < 1e-8
            assert eigenstate_residual(nu, ctx, sol.roots, u, dual=True) < 1e-8


def test_projection_reassembles_creation_string():
    rng = np.random.default_rng(29)
    for sites in (1, 2, 3, 4):
        ctx = random_context(rng, sites)
        nu = _family(ctx)
        family = build_monodromy(ctx.chain)
        for m in range(1, sites + 1):
            pts = draw_points(rng, m)
            exp = projection_expansion(ctx, pts)
            want = build_bethe_vector(nu, pts).amplitudes
            got = reassemble_projection(exp, family, ctx.fact)
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-9 * scale, (sites, m)
            wantd = build_dual_vector(nu, pts).amplitudes
            gotd = reassemble_projection(exp, family, ctx.fact, dual=True)
            scaled = max(1.0, np.linalg.norm(wantd))
            assert np.linalg.norm(gotd - wantd) <= 1e-9 * scaled, (sites, m)


def test_w0_routes_agree_off_diagonal():
    rng = np.random.default_rng(33)
    for sites in range(1, 8):
        ctx = random_context(rng, sites)
        exp = projection_expansion(ctx, draw_points(rng, sites))
        assert exp.w0_direct is not None
        scale = max(1.0, abs(exp.w0_expansion))
        assert exp.w0_difference <= 1e-10 * scale


def test_w0_closed_form_at_diagonal_onshell_points():
    # with kappa_plus = kappa_minus = 0 the scalar weight collapses, but
    # only on solutions of the residual equations
    rng = np.random.default_rng(37)
    ctx = random_context(rng, 2, diagonal=True)
    sols = solve_newton(ctx, starts=200, seed=2)
    assert sols, "no full-order diagonal solutions found"
    kt, k = ctx.twist.kappa_tilde, ctx.twist.kappa
    for sol in sols:
        l2 = np.prod([ctx.lam(v)[1] for v in sol.roots])
        want = l2 * (k / kt + 1.0) ** 2
        got = w0(ctx, sol.roots)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _permutation_average(ctx, merged, kept):
    # the definition: each factor faces everything after it in the order
    # plus the kept block, averaged over all orders of the merged block
    total = 0.0
    for order in permutations(merged):
        prod = 1.0
        for j, uj in enumerate(order):
            prod *= diag_eigenvalue(ctx, uj, order[j + 1 :] + kept, 1.0, 1.0)
        total += prod
    return total / math.factorial(len(merged))


def _assert_weights_match_definition(ctx, pts):
    exp = projection_expansion(ctx, pts)
    assert len(exp.terms) == 2 ** len(pts)
    for term in exp.terms:
        want = _permutation_average(ctx, term.merged, term.kept)
        assert abs(term.weight - want) <= 1e-13 * abs(want), term
    want = _permutation_average(ctx, tuple(pts), ())
    assert abs(w0(ctx, pts) - want) <= 1e-13 * abs(want)
    assert exp.w0_expansion == w0(ctx, pts)


def test_weights_match_permutation_average():
    rng = np.random.default_rng(45)
    for m in range(1, 7):
        ctx = random_context(rng, m)
        _assert_weights_match_definition(ctx, tuple(draw_points(rng, m)))


def test_weights_where_a_pair_is_one_coupling_apart():
    # u_1 - u_0 = -c exactly, so f(u_1, u_0) = 0 in every order that pairs
    # them that way round
    rng = np.random.default_rng(47)
    for m in (2, 3, 4):
        ctx = random_context(rng, m)
        pts = (0.25 + 0.5j, -0.75 + 0.5j, *draw_points(rng, m - 2))
        _assert_weights_match_definition(ctx, pts)


def test_weights_reject_coincident_parameters():
    rng = np.random.default_rng(49)
    ctx = random_context(rng, 3)
    pts = VariableSet([0.1, 0.1 + 1e-10, 0.7j], eps=1e-12)
    with pytest.raises(CoincidenceError):
        w0(ctx, pts)


def test_w0_at_eight_sites_is_fast():
    rng = np.random.default_rng(51)
    ctx = random_context(rng, 8)
    pts = draw_points(rng, 8)
    started = time.perf_counter()
    w0(ctx, pts)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"w0 at eight sites took {elapsed:.2f}s"
