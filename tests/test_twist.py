import numpy as np
import pytest

from twistchain import ChainParams, SpectralContext, TwistParams
from twistchain.chain import build_monodromy, build_transfer, exchange_residuals, vacuum_state
from twistchain.twist import (
    TwistDegeneracyError,
    build_modified_operators,
    factorize_twist,
    modified_diagonal_residual,
    twist_alpha,
    vacuum_action_residuals,
)

from conftest import dense_family, dense_stack, draw_points, random_context, random_theta, random_twist


def test_factorization_reconstructs_twist():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tw = random_twist(rng)
        for branch in ("minus", "plus"):
            fact = factorize_twist(tw, branch)
            l_factor = np.sqrt(fact.mu) * fact.l0
            built = l_factor @ fact.d_factor @ l_factor
            assert np.max(np.abs(built - tw.matrix())) < 1e-12


def test_branch_roots_satisfy_vieta():
    rng = np.random.default_rng(4)
    for _ in range(50):
        tw = random_twist(rng)
        rm = factorize_twist(tw, "minus").rho
        rp = factorize_twist(tw, "plus").rho
        assert abs(rm + rp - tw.trace) < 1e-12 * max(1.0, abs(tw.trace))
        prod = tw.kappa_plus * tw.kappa_minus
        assert abs(rm * rp - prod) < 1e-12 * max(1.0, abs(prod))


def test_rho_is_quadratic_root_and_mu_consistent():
    rng = np.random.default_rng(6)
    for _ in range(20):
        tw = random_twist(rng)
        fact = factorize_twist(tw)
        rho = fact.rho
        quad = rho**2 - tw.trace * rho + tw.kappa_plus * tw.kappa_minus
        assert abs(quad) < 1e-12
        assert abs(fact.mu - (tw.trace - rho) / (tw.trace - 2 * rho)) < 1e-12


def test_alpha_is_twist_eigenvalue():
    rng = np.random.default_rng(8)
    for _ in range(20):
        tw = random_twist(rng)
        values = np.linalg.eigvals(tw.matrix())
        a = twist_alpha(tw)
        assert min(abs(values - a)) < 1e-10


def test_degenerate_twists_raise():
    # trace^2 = 4 kappa_plus kappa_minus makes mu singular on both branches
    with pytest.raises(TwistDegeneracyError):
        factorize_twist(TwistParams(1.0, 1.0, 2.0, 0.5))
    # a single vanishing off-diagonal entry is neither generic nor diagonal
    for kp, km in ((1.0, 0.0), (0.0, 1.0)):
        with pytest.raises(TwistDegeneracyError, match="kappa_plus \\* kappa_minus = 0"):
            factorize_twist(TwistParams(2.0, 1.0, kp, km))


def test_config_a_factorization_values(config_a):
    root5 = np.sqrt(5.0)
    fact = config_a.fact
    assert abs(fact.rho - (3.0 - root5) / 2.0) < 1e-14
    assert abs(fact.mu - (0.5 + 1.5 / root5)) < 1e-14
    assert abs(twist_alpha(config_a.twist) - (3.0 + root5) / 2.0) < 1e-14


def test_diagonal_factorization_is_identity_dressing():
    tw = TwistParams(1.9, 1.1, 0.0, 0.0)
    for branch in ("minus", "plus"):
        fact = factorize_twist(tw, branch)
        assert fact.branch == "diagonal"
        assert (fact.rho, fact.mu, fact.ratio_plus, fact.ratio_minus) == (0, 1, 0, 0)
        np.testing.assert_array_equal(fact.l0, np.eye(2))
        np.testing.assert_array_equal(fact.d_factor, np.diag([1.9, 1.1]))
    chain = ChainParams(2, 1.0, (0.1, -0.1))
    family = build_monodromy(chain)
    nu = build_modified_operators(family, fact)
    u = 0.3 + 0.2j
    assert np.linalg.norm(nu.t12(u) - family.t12(u)) < 1e-12
    assert np.linalg.norm(nu.t11(u) - family.t11(u)) < 1e-12


def test_modified_operators_keep_exchange_relations():
    rng = np.random.default_rng(10)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites)
        nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        # the block products take bare families only, so the dressed
        # blocks are stored dense as one
        dense = dense_family(dense_stack(nu), nu.unit)
        for _ in range(3):
            u, v = draw_points(rng, 2)
            for name, value in exchange_residuals(dense, ctx.c, u, v).items():
                assert value < 1e-10, (sites, name)


def test_modified_diagonal_combination_is_transfer():
    rng = np.random.default_rng(12)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites)
        family = build_monodromy(ctx.chain)
        nu = build_modified_operators(family, ctx.fact)
        transfer = build_transfer(ctx.chain, ctx.twist, family)
        for u in draw_points(rng, 3):
            resid = modified_diagonal_residual(nu, transfer, ctx.fact, u)
            assert resid < 1e-10


def test_vacuum_actions_leak_through_creation_only():
    rng = np.random.default_rng(14)
    for sites in (1, 2, 3):
        ctx = random_context(rng, sites)
        nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        for u in draw_points(rng, 3):
            res = vacuum_action_residuals(nu, ctx.fact, ctx.chain, u)
            for name, value in res.items():
                assert value < 1e-10, (sites, name)


def test_both_branches_give_same_transfer(config_a):
    # the factorization is a change of description, not of physics
    chain, tw = config_a.chain, config_a.twist
    minus = SpectralContext.create(chain, tw, branch="minus")
    plus = SpectralContext.create(chain, tw, branch="plus")
    family = build_monodromy(chain)
    transfer = build_transfer(chain, tw, family)
    for ctx in (minus, plus):
        nu = build_modified_operators(family, ctx.fact)
        resid = modified_diagonal_residual(nu, transfer, ctx.fact, 0.4)
        assert resid < 1e-12


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _hand_expanded_nu(family, fact):
    # the written-out blocks of mu L0 T L0, kept as the reference for the
    # contraction in build_modified_operators
    rp, rm, mu = fact.ratio_plus, fact.ratio_minus, fact.mu
    (t11, t12), (t21, t22) = dense_stack(family)
    return (
        mu * (t11 + rp * t12 + rm * t21 + (rp * rm) * t22),
        mu * (t12 + rm * (t11 + t22) + rm ** 2 * t21),
        mu * (t21 + rp * (t11 + t22) + rp ** 2 * t12),
        mu * (t22 + rp * t12 + rm * t21 + (rp * rm) * t11),
    )


def test_dressing_and_trace_match_hand_expanded_blocks():
    rng = np.random.default_rng(16)
    for sites in (1, 2, 3, 4):
        for diagonal in (False, True):
            ctx = random_context(rng, sites, diagonal=diagonal)
            tw = ctx.twist
            family = build_monodromy(ctx.chain)
            # a diagonal twist has one factorization, whichever branch is asked
            for branch in ("minus",) if diagonal else ("minus", "plus"):
                fact = factorize_twist(tw, branch)
                nu = build_modified_operators(family, fact)
                placed = dense_stack(nu)
                for ij, want in zip(np.ndindex(2, 2), _hand_expanded_nu(family, fact)):
                    assert _rel(placed[ij], want) <= 1e-14, (sites, fact.branch)
                # tr_a(D nu) against its two diagonal terms
                u = draw_points(rng, 1)[0]
                two_term = (tw.kappa_tilde - fact.rho) * nu.t11(u) + (
                    tw.kappa - fact.rho
                ) * nu.t22(u)
                got = np.tensordot(fact.d_factor.T, nu.at(u), 2)
                assert _rel(got, two_term) <= 1e-14, (sites, fact.branch)

