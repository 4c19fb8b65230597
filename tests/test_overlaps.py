from collections import Counter

import numpy as np
import pytest

from twistchain import ChainParams, SpectralContext, TwistParams, solve_newton
from twistchain import bethe, overlaps
from twistchain.bethe import (
    CoincidenceError,
    VariableSet,
    bethe_residuals,
    bethe_system,
    eigenvalue_gradient,
    kernel_g,
    onshell_residuals,
    onshell_tolerance,
    transfer_eigenvalue,
)
from twistchain.chain import build_monodromy
from twistchain.overlaps import (
    OffShellError,
    classical_slavnov,
    gaudin_limit_deviation,
    gaudin_matrix,
    gaudin_norm,
    n1_reference,
    norm_report,
    overlap_report,
    relative_gap,
    scalar_direct,
    simple_aba_check,
    slavnov_formula,
    slavnov_norm_limit,
)
from twistchain.solver import solve_tq_fit
from twistchain.states import build_bethe_vector, build_dual_vector, w0
from twistchain.twist import build_modified_operators

import slavnov_reference
from conftest import draw_points, random_context

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
ROOT5 = np.sqrt(5.0)

N2_CTX = SpectralContext.create(
    ChainParams(2, 1.0, (0.1, -0.1)),
    TwistParams(2.0 + 0.3j, 1.0 - 0.2j, 0.8 + 0.1j, 0.5 - 0.05j),
)
# configs/n3_generic.json as shipped
N3_CTX = SpectralContext.create(
    ChainParams(3, 1.0, (0.1, -0.1, 0.2)), TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6)
)


def test_relative_gap_floor():
    assert relative_gap(0.0, 0.0) == 0.0
    assert relative_gap(1.0, 1.0) == 0.0
    assert abs(relative_gap(1.0, 2.0) - 0.5) < 1e-15


def test_single_site_overlap_anchors(config_a):
    mu = config_a.fact.mu
    rep = overlap_report(config_a, (GOLDEN,), (0.0,), orientation="u-onshell")
    assert abs(rep.formula - mu * mu * GOLDEN) < 1e-12
    assert rep.relative_error < 1e-12
    # the closed parametrized form and its on-shell reduction
    ref = n1_reference(config_a, 0.0, GOLDEN)
    assert ref["parametrization_error"] < 1e-12
    assert ref["onshell_reduction_error"] < 1e-12
    assert ref["alternative_error"] < 1e-12
    assert abs(ref["direct"] - mu * mu * GOLDEN) < 1e-12


def test_single_site_norm_anchors(config_a):
    mu = config_a.fact.mu
    rep = norm_report(config_a, (GOLDEN,))
    assert rep.relative_error < 1e-12
    assert abs(rep.formula - mu * mu * ROOT5 * GOLDEN) < 1e-12
    g = gaudin_matrix(config_a, (GOLDEN,))
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - ROOT5) < 1e-12
    assert gaudin_limit_deviation(config_a, (GOLDEN,)) < 1e-7


def test_single_site_orthogonality(config_a):
    low = -(3.0 + ROOT5) / 4.0
    rep = overlap_report(config_a, (GOLDEN,), (low,), orientation="u-onshell")
    norm_a = norm_report(config_a, (GOLDEN,)).formula
    norm_b = norm_report(config_a, (low,)).formula
    assert abs(rep.direct) / abs(np.sqrt(norm_a * norm_b)) < 1e-12


def test_overlap_formula_both_orientations_two_sites():
    rng = np.random.default_rng(3)
    sols = solve_newton(N2_CTX, starts=200, seed=1)
    assert len(sols) == 4
    modified = build_modified_operators(build_monodromy(N2_CTX.chain), N2_CTX.fact)
    for sol in sols:
        for _ in range(5):
            free = draw_points(rng, 2)
            up = overlap_report(N2_CTX, sol.roots, free, "u-onshell", modified)
            assert up.relative_error < 1e-8
            down = overlap_report(N2_CTX, free, sol.roots, "v-onshell", modified)
            assert down.relative_error < 1e-8


def test_norms_and_limit_checks_two_sites():
    sols = solve_newton(N2_CTX, starts=200, seed=1)
    for sol in sols:
        rep = norm_report(N2_CTX, sol.roots)
        assert rep.relative_error < 1e-8
        # coinciding-argument limit of the overlap reproduces the norm
        lim = slavnov_norm_limit(N2_CTX, sol.roots)
        assert relative_gap(lim, rep.formula) < 1e-5


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e10])
def test_norm_limit_checks_on_a_rescaled_chain(scale):
    # u, theta and c scaled together leave the Bethe equations unchanged, so
    # the two-site roots scaled by the same factor are on shell; the limit
    # offsets must scale with c, or they fall inside the coincidence guard
    # eps_dist(c) = 1e-9 |c| and the kernel g refuses them
    ctx = SpectralContext.create(
        ChainParams(2, scale, (0.1 * scale, -0.1 * scale)), N2_CTX.twist
    )
    for sol in solve_newton(N2_CTX, starts=200, seed=1):
        roots = ctx.roots(scale * sol.roots.values)
        rep = norm_report(ctx, roots)
        assert rep.relative_error < 1e-8, rep.relative_error
        assert relative_gap(slavnov_norm_limit(ctx, roots), rep.formula) < 1e-5


@pytest.fixture(scope="module")
def grid6():
    """The six-site grid chain (configs/n3_generic.json's twist,
    theta_k = 0.15(k - 2.5)) and its unflagged T-Q sets."""
    chain = ChainParams(6, 1.0, tuple(0.15 * (k - 2.5) for k in range(6)))
    ctx = SpectralContext.create(chain, TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6))
    return ctx, [s.roots for s in solve_tq_fit(ctx) if s.flag is None]


def _gaudin_by_products(ctx, roots):
    # the norm matrix entry by entry, from explicit h products over ubar_i
    # and ubar_ij
    c = ctx.c
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    sign = (-1) ** ctx.sites
    n = len(roots)

    def h(a, b):
        return np.prod((a - b + c) / c)

    out = np.empty((n, n), dtype=complex)
    for i, ui in enumerate(roots):
        rest = np.delete(roots, i)
        pairs = [np.delete(roots, [i, j]) for j in range(n) if j != i]
        l1, l2 = ctx.lam(ui)
        d1, d2 = ctx.dlam(ui)
        out[i, i] = (
            2 * ctx.fact.rho * c * (l2 * d1 + l1 * d2)
            + sign * x * (c * h(rest, ui) * d1 - l1 * sum(h(p, ui) for p in pairs))
            + y * (c * h(ui, rest) * d2 + l2 * sum(h(ui, p) for p in pairs))
        )
        for j, uj in enumerate(roots):
            if j != i:
                pair = np.delete(roots, [i, j])
                m1, m2 = ctx.lam(uj)
                out[i, j] = sign * x * m1 * h(pair, uj) - y * m2 * h(uj, pair)
    return out


@pytest.mark.parametrize("sites", [2, 3, 5])
def test_scalar_coefficients_where_a_pair_is_one_coupling_apart(sites):
    # u_1 - u_0 = -c makes f(u_1, u_0) and h(u_1, u_0) vanish: coefficients
    # that leave entries out by index must stay finite and exact there
    rng = np.random.default_rng(90 + sites)
    ctx = random_context(rng, sites)
    c = ctx.c
    roots = draw_points(rng, sites)
    roots[1] = roots[0] - c
    assert 1.0 + kernel_g(roots[1], roots[0], c) == 0
    v = 1.7 + 0.9j
    x = ctx.twist.kappa_tilde - ctx.fact.rho
    y = ctx.twist.kappa - ctx.fact.rho
    l1, l2 = ctx.lam(v)
    g = kernel_g(v, roots, c)
    want = (
        x * l1 * np.prod(1.0 + kernel_g(roots, v, c))
        + y * l2 * np.prod(1.0 + g)
        + 2 * ctx.fact.rho * l1 * l2 * np.prod(g)
    )
    lam = transfer_eigenvalue(ctx, v, roots)
    assert np.isfinite(lam) and abs(lam - want) <= 1e-13 * max(1.0, abs(want))
    h = 1e-6
    for i in range(sites):
        step = np.zeros(sites, dtype=complex)
        step[i] = h
        fd = (
            transfer_eigenvalue(ctx, v, roots + step)
            - transfer_eigenvalue(ctx, v, roots - step)
        ) / (2 * h)
        grad = eigenvalue_gradient(ctx, v, roots, i)
        assert np.isfinite(grad) and abs(grad - fd) <= 1e-6 * max(1.0, abs(fd))
    got = gaudin_matrix(ctx, roots)
    ref = _gaudin_by_products(ctx, roots)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_gaudin_limit_holds_on_every_six_site_set(grid6):
    # near the pole a one-sided extrapolation multiplies rounding error by
    # ten, enough to exceed limit_tol on polished roots
    ctx, sets = grid6
    assert len(sets) == 64
    for roots in sets:
        gaudin_norm(ctx, roots)


@pytest.mark.parametrize("sites", range(1, 7))
def test_gaudin_matrix_is_the_transposed_bethe_jacobian_on_shell(sites):
    # on shell, G_ij = c J_ji / g(u_j, ubar_j) with J the Newton Jacobian of
    # bethe_system.  Off shell the two differ, so gaudin_matrix keeps its own
    # formula, which test_scalar_coefficients_where_a_pair_is_one_coupling_apart
    # checks there entry by entry.  On the grid chain's unflagged T-Q sets
    # the worst gap grows from 1e-16 at one site to 2e-11 at six, as the
    # unpolished roots lose digits
    theta = tuple(0.15 * (k - (sites - 1) / 2) for k in range(sites))
    ctx = SpectralContext.create(
        ChainParams(sites, 1.0, theta), TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6)
    )
    sets = [s.roots for s in solve_tq_fit(ctx) if s.flag is None]
    assert len(sets) == 2 ** sites
    for roots in sets:
        u = roots.values
        jac = bethe_system(ctx, u[None, :], jacobian=True)[1][0]
        g = [np.prod(kernel_g(u[j], np.delete(u, j), ctx.c)) for j in range(sites)]
        want = ctx.c * jac.T / np.array(g)
        got = gaudin_matrix(ctx, roots)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(got)), (sites, u)


def test_gaudin_limit_catches_a_wrong_entry(grid6, monkeypatch):
    ctx, sets = grid6
    exact = overlaps.gaudin_matrix

    def skewed(ctx, roots):
        g = exact(ctx, roots)
        g.flat[np.argmax(np.abs(g))] *= 1.0 + 1e-4
        return g

    monkeypatch.setattr(overlaps, "gaudin_matrix", skewed)
    for roots in sets[::8]:
        with pytest.raises(ValueError, match="limit form"):
            gaudin_norm(ctx, roots)


def test_gaudin_norm_rejects_a_nan_limit_deviation(grid6, monkeypatch):
    # the builtin max skips a NaN, so a NaN entry once read as deviation 0
    ctx, sets = grid6
    exact = overlaps.gaudin_matrix

    def poisoned(ctx, roots):
        g = exact(ctx, roots)
        g[1, 2] = np.nan
        return g

    assert np.isnan(gaudin_limit_deviation(ctx, sets[0], poisoned(ctx, sets[0])))
    monkeypatch.setattr(overlaps, "gaudin_matrix", poisoned)
    with pytest.raises(ValueError, match="limit form by nan"):
        gaudin_norm(ctx, sets[0])


def test_a_nan_root_is_off_shell():
    ctx = N3_CTX
    roots = ctx.roots([np.nan, 0.3 + 0.1j, -0.7 + 0.2j])
    free = (1.1 + 0.4j, -0.2 - 0.9j, 0.6 - 1.3j)
    assert np.isnan(gaudin_limit_deviation(ctx, roots))
    with pytest.raises(OffShellError, match="nan"):
        gaudin_norm(ctx, roots)
    with pytest.raises(OffShellError):
        slavnov_formula(ctx, roots, free, "u-onshell")
    with pytest.raises(OffShellError):
        slavnov_formula(ctx, free, roots, "v-onshell")


def test_a_nan_root_is_rejected_before_any_arithmetic():
    # the suite turns RuntimeWarnings into errors, so with no errstate a NaN
    # that reached the Bethe residuals would raise a warning, not the
    # named error
    ctx = N3_CTX
    roots = ctx.roots([np.nan, 0.3 + 0.1j, -0.7 + 0.2j])
    free = (1.1 + 0.4j, -0.2 - 0.9j, 0.6 - 1.3j)
    with pytest.raises(OffShellError, match="nan"):
        gaudin_norm(ctx, roots)
    for us, vs, orientation in ((roots, free, "u-onshell"), (free, roots, "v-onshell")):
        with pytest.raises(OffShellError, match="nan"):
            slavnov_formula(ctx, us, vs, orientation)


def _count_overlap_calls(monkeypatch) -> Counter:
    """Count the vector builds and formula evaluations made through the
    overlaps module's own bindings."""
    calls = Counter()
    for name in ("build_dual_vector", "build_bethe_vector", "slavnov_formula", "gaudin_norm"):
        original = getattr(overlaps, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(overlaps, name, counted)
    return calls


def test_each_report_builds_one_dual_one_ket_and_one_formula(monkeypatch):
    ctx = N3_CTX
    roots = next(s.roots for s in solve_tq_fit(ctx) if s.flag is None)
    free = ctx.roots(draw_points(np.random.default_rng(5), 3)).sorted()
    calls = _count_overlap_calls(monkeypatch)
    for call, formula in (
        (lambda: overlap_report(ctx, roots, free, "u-onshell"), "slavnov_formula"),
        (lambda: overlap_report(ctx, free, roots, "v-onshell"), "slavnov_formula"),
        (lambda: norm_report(ctx, roots), "gaudin_norm"),
    ):
        calls.clear()
        rep = call()
        assert calls == {"build_dual_vector": 1, "build_bethe_vector": 1, formula: 1}
        assert rep.relative_error < 1e-8


def test_an_offshell_set_raises_before_any_vector_is_built(monkeypatch):
    ctx = N3_CTX
    roots = next(s.roots for s in solve_tq_fit(ctx) if s.flag is None)
    moved = ctx.roots(roots.values + 1e-3)
    free = ctx.roots(draw_points(np.random.default_rng(5), 3)).sorted()
    calls = _count_overlap_calls(monkeypatch)
    for call in (
        lambda: overlap_report(ctx, moved, free, "u-onshell"),
        lambda: overlap_report(ctx, free, moved, "v-onshell"),
        lambda: norm_report(ctx, moved),
    ):
        with pytest.raises(OffShellError):
            call()
    assert calls["build_dual_vector"] == calls["build_bethe_vector"] == 0


def test_contraction_reports_build_each_vector_once_in_the_roles_read(monkeypatch):
    ctx = N2_CTX
    rng = np.random.default_rng(11)
    sets = [ctx.roots(draw_points(rng, 2)).sorted() for _ in range(3)]
    rows = [(0, 1, 1.0), (0, 2, 2.0j), (1, 1, -3.0), (0, 1, 4.0)]
    calls = _count_overlap_calls(monkeypatch)
    reports = overlaps.contraction_reports(ctx.modified, sets, rows)
    # duals of sets 0 and 1, kets of sets 1 and 2
    assert calls == {"build_dual_vector": 2, "build_bethe_vector": 2}
    for (dual, ket, formula), rep in zip(rows, reports):
        direct = scalar_direct(
            build_dual_vector(ctx.modified, sets[dual]), build_bethe_vector(ctx.modified, sets[ket])
        )
        assert (rep.direct, rep.formula, rep.relative_error) == (
            direct, formula, relative_gap(direct, formula)
        )


def test_the_onshell_gate_reads_one_kernel_call(monkeypatch):
    # the residuals and the tolerance from one bethe_system call are those of
    # the two separate calls, bit for bit, on the five-site grid chain
    theta = tuple(0.15 * (k - 2) for k in range(5))
    ctx = SpectralContext.create(ChainParams(5, 1.0, theta), N3_CTX.twist)
    sets = [s.roots for s in solve_tq_fit(ctx)]
    assert len(sets) == 32
    for roots in sets:
        res, tau = onshell_residuals(ctx, roots)
        assert np.array_equal(res, bethe_residuals(ctx, roots))
        assert tau == onshell_tolerance(ctx, roots)
    kernel = bethe.bethe_system
    calls = Counter()

    def counted(*args, **kwargs):
        calls["bethe_system"] += 1
        return kernel(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the on-shell scale was evaluated apart")

    monkeypatch.setattr(bethe, "bethe_system", counted)
    monkeypatch.setattr(bethe, "onshell_scales", forbidden)
    for roots in sets:
        calls.clear()
        overlaps._require_onshell(ctx, roots, "norm")
        assert calls["bethe_system"] == 1


def test_the_onshell_gate_rejects_coincident_and_nan_roots(monkeypatch):
    # two roots within eps_dist(c), which a VariableSet with eps 0 holds
    coincident = VariableSet([0.3, 0.3 + 1e-12, 0.5j], 0.0)
    with pytest.raises(CoincidenceError):
        overlaps._require_onshell(N3_CTX, coincident, "norm")
    with pytest.raises(CoincidenceError):
        gaudin_norm(N3_CTX, coincident)

    # a NaN root is answered before the kernel runs
    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel ran on a NaN root")

    monkeypatch.setattr(bethe, "bethe_system", forbidden)
    roots = N3_CTX.roots([np.nan, 0.3 + 0.1j, -0.7 + 0.2j])
    with pytest.raises(OffShellError, match="not all finite"):
        overlaps._require_onshell(N3_CTX, roots, "norm")
    with pytest.raises(OffShellError, match="not all finite"):
        norm_report(N3_CTX, roots)


@pytest.mark.parametrize("sites", range(1, 7))
def test_slavnov_formula_matches_the_per_entry_reference(sites):
    # the Jacobian from one broadcast gradient call against the entry-by-entry
    # Jacobian it replaced, on the grid chain's T-Q sets, in both
    # orientations.  On shell an entry's three terms partly cancel, so
    # entries are compared at the scale of the matrix.  A relative change e
    # of every entry moves det J by at most e kappa to first order, with
    # kappa = sum |J^-1_ji J_ij| the componentwise condition of det J, so the
    # formulas must agree to 1e-13 where kappa <= 100 and to 1e-15 kappa
    # beyond.  kappa reaches 1.6e3 at six sites, where the two differ by
    # 1.7e-13 and the per-entry one is itself 2.1e-13 from a 40-digit
    # evaluation of the same determinant
    theta = tuple(0.15 * (k - (sites - 1) / 2) for k in range(sites))
    ctx = SpectralContext.create(ChainParams(sites, 1.0, theta), N3_CTX.twist)
    sets = [s.roots for s in solve_tq_fit(ctx) if s.flag is None]
    rng = np.random.default_rng(120 + sites)
    for roots in sets[:: max(1, len(sets) // 4)]:
        free = ctx.roots(draw_points(rng, sites, 1.3)).sorted()
        onshell = roots.sorted()
        want = slavnov_reference.slavnov_jacobian(ctx, free, onshell)
        got = eigenvalue_gradient(ctx, free.values[None, :], onshell, np.arange(sites)[:, None])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sites
        kappa = np.sum(np.abs(np.linalg.inv(want).T * want))
        for args in ((roots, free, "u-onshell"), (free, roots, "v-onshell")):
            gap = relative_gap(
                slavnov_formula(ctx, *args), slavnov_reference.slavnov_formula(ctx, *args)
            )
            assert gap <= 1e-13 * max(1.0, kappa / 100), (sites, args[2], gap, kappa)


def test_distinct_solutions_are_orthogonal_two_sites():
    sols = solve_newton(N2_CTX, starts=200, seed=1)
    modified = build_modified_operators(build_monodromy(N2_CTX.chain), N2_CTX.fact)
    norms = [
        scalar_direct(
            build_dual_vector(modified, s.roots),
            build_bethe_vector(modified, s.roots),
        )
        for s in sols
    ]
    for i, a in enumerate(sols):
        for j, b in enumerate(sols):
            if i == j:
                continue
            cross = scalar_direct(
                build_dual_vector(modified, a.roots),
                build_bethe_vector(modified, b.roots),
            )
            assert abs(cross) / abs(np.sqrt(norms[i] * norms[j])) < 1e-8


def test_offshell_arguments_are_rejected():
    with pytest.raises(OffShellError):
        slavnov_formula(N2_CTX, (0.3, 0.9), (1.0j, 2.0), "u-onshell")
    sols = solve_newton(N2_CTX, starts=200, seed=1)
    with pytest.raises(OffShellError):
        gaudin_norm(N2_CTX, (0.3, 0.9))
    # coincidence between the two sets is not an overlap
    with pytest.raises(CoincidenceError):
        slavnov_formula(
            N2_CTX, sols[0].roots, (complex(sols[0].roots[0]), 5.0), "u-onshell"
        )
    with pytest.raises(ValueError):
        slavnov_formula(N2_CTX, sols[0].roots, (1.0,), "u-onshell")


def test_a_singular_cauchy_matrix_is_a_named_error():
    # n3_generic with inhomogeneities 1e6 apart: Newton's unflagged set 32
    # and the first free set the overlap command draws there (seed 1, at
    # scale 1 around the mean inhomogeneity) give a Cauchy matrix whose
    # determinant is 0 in double precision; the formula divided by it and
    # died with a ZeroDivisionError
    theta = (1e6, -1e6, 2e6)
    ctx = SpectralContext.create(ChainParams(3, 1.0, theta), N3_CTX.twist)
    onshell = [s.roots for s in solve_newton(ctx, starts=400, seed=1) if s.flag is None]
    free = draw_points(np.random.default_rng(1), 3) + np.mean(theta)
    for us, vs, orientation in ((onshell[32], free, "u-onshell"), (free, onshell[32], "v-onshell")):
        with pytest.raises(ValueError, match="the Cauchy matrix of the two parameter sets is singular"):
            slavnov_formula(ctx, us, vs, orientation)


def test_classical_reference_at_diagonal_twist():
    ctx = SpectralContext.create(
        ChainParams(2, 1.0, (0.1, -0.1)), TwistParams(1.9, 1.1, 0.0, 0.0)
    )
    rng = np.random.default_rng(7)
    sols = solve_newton(ctx, starts=200, seed=1)
    assert sols, "no diagonal on-shell sets"
    modified = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
    kt, k = ctx.twist.kappa_tilde, ctx.twist.kappa
    for sol in sols:
        l2bar = np.prod([ctx.lam(v)[1] for v in sol.roots])
        closed = l2bar * (k / kt + 1.0) ** 2
        assert relative_gap(w0(ctx, sol.roots), closed) < 1e-10
        for _ in range(3):
            free = draw_points(rng, 2)
            modern = slavnov_formula(ctx, free, sol.roots, "v-onshell")
            classic = classical_slavnov(ctx, free, sol.roots)
            direct = scalar_direct(
                build_dual_vector(modified, free),
                build_bethe_vector(modified, sol.roots),
            )
            assert relative_gap(modern, classic) < 1e-10
            assert relative_gap(modern, direct) < 1e-10


def test_classical_reference_at_huge_coupling():
    # c^m sits inside the Jacobian determinant, as in slavnov_formula; the
    # prefactor (c / kappa_tilde)^m overflowed at this c
    c = 1e300
    ctx = SpectralContext.create(
        ChainParams(2, c, (0.1 * c, -0.1 * c)), TwistParams(1.9, 1.1, 0.0, 0.0)
    )
    sols = [s for s in solve_tq_fit(ctx) if s.flag is None and s.onshell]
    assert sols
    rng = np.random.default_rng(7)
    for sol in sols:
        free = draw_points(rng, 2, c)
        classic = classical_slavnov(ctx, free, sol.roots)
        assert np.isfinite(classic)
        assert relative_gap(classic, slavnov_formula(ctx, free, sol.roots, "v-onshell")) < 1e-12


def test_classical_route_requires_onshell_arguments():
    ctx = SpectralContext.create(
        ChainParams(2, 1.0, (0.1, -0.1)), TwistParams(1.9, 1.1, 0.0, 0.0)
    )
    with pytest.raises(OffShellError):
        classical_slavnov(ctx, (0.4, 1.2), (0.9, -0.7))


def test_branch_independence_of_normalized_overlaps():
    chain = ChainParams(2, 1.0, (0.1, -0.1))
    twist = TwistParams(2.0 + 0.2j, 1.0 - 0.1j, 0.8, 0.6)
    ratios = {}
    vectors = {}
    for branch in ("minus", "plus"):
        ctx = SpectralContext.create(chain, twist, branch=branch)
        sols = solve_newton(ctx, starts=250, seed=4)
        assert len(sols) == 4
        modified = build_modified_operators(build_monodromy(chain), ctx.fact)
        vals = []
        for a in sols:
            for b in sols:
                if a is b:
                    continue
                su = slavnov_formula(ctx, a.roots, b.roots, "u-onshell")
                sv = slavnov_formula(ctx, a.roots, b.roots, "v-onshell")
                na = gaudin_norm(ctx, a.roots, verify_limit=False)
                nb = gaudin_norm(ctx, b.roots, verify_limit=False)
                vals.append(su * sv / (na * nb))
        ratios[branch] = np.array(
            sorted(vals, key=lambda w: (w.real, w.imag))
        )
        keyed = {}
        for s in sols:
            lam = complex(np.round(s.matched_eigenvalue[0], 6))
            keyed[lam] = build_bethe_vector(modified, s.roots).amplitudes
        vectors[branch] = keyed
    assert np.max(np.abs(ratios["minus"] - ratios["plus"])) < 1e-8
    # matched eigenstates from the two branches are parallel vectors
    assert set(vectors["minus"]) == set(vectors["plus"])
    for lam, vm in vectors["minus"].items():
        vp = vectors["plus"][lam]
        cos2 = abs(np.vdot(vm, vp)) ** 2 / (
            np.vdot(vm, vm).real * np.vdot(vp, vp).real
        )
        assert abs(cos2 - 1.0) < 1e-8


def test_plain_ansatz_spot_check(config_a):
    sols = solve_newton(config_a, starts=100, seed=1)
    out = simple_aba_check(config_a, solutions=sols)
    assert abs(out["alpha"] - (3.0 + ROOT5) / 2.0) < 1e-12
    assert out["max_spectrum_gap"] < 1e-10
    # the golden-ratio root set carries the plain-ansatz branch
    assert out["matched_gap"] < 1e-10
    assert abs(complex(sols[out["matched_index"]].roots[0]) - GOLDEN) < 1e-8
