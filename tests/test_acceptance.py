"""Acceptance battery.

Each test covers one release criterion end to end and finishes with a
single PASS/FAIL line (visible under ``pytest -s``; ``pytest -v`` shows the
same verdict through the test outcome).  Solved spectra for the three
reference chains are computed once per session and shared by the
completeness, overlap, norm, orthogonality and gradient criteria.
"""

import itertools
import time

import numpy as np
import pytest

from twistchain import (
    ChainParams,
    SpectralContext,
    TwistParams,
    VariableSet,
    build_bethe_vector,
    build_dual_vector,
    build_hamiltonian,
    build_modified_operators,
    build_monodromy,
    classical_slavnov,
    eigenvalue_gradient,
    gaudin_matrix,
    norm_report,
    overlap_report,
    slavnov_formula,
    solve_newton,
    spectrum_match,
    structure_checks,
    transfer_eigenvalue,
    w0,
)
from twistchain.overlaps import gaudin_limit_deviation, relative_gap, scalar_direct
from twistchain.solver import probe_points
from twistchain.states import offshell_action_residuals, raising_identity_residual
from twistchain.twist import vacuum_action_residuals

from conftest import draw_points, random_context

ROOT5 = np.sqrt(5.0)
GOLDEN = (1.0 + ROOT5) / 2.0

REFERENCE_CHAINS = {
    1: (ChainParams(1, 1.0, (0.0,)), TwistParams(2.0, 1.0, 1.0, 1.0), 200),
    2: (
        ChainParams(2, 1.0, (0.1, -0.1)),
        TwistParams(2 + 0.3j, 1 - 0.2j, 0.8 + 0.1j, 0.5 - 0.05j),
        200,
    ),
    3: (
        ChainParams(3, 1.0, (0.1, -0.1, 0.2)),
        TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6),
        400,
    ),
}


def _verdict(label: str, worst: float, bound: float) -> None:
    ok = worst <= bound
    print(f"{label}: {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, bound {bound:.0e})")
    assert ok, f"{label}: worst residual {worst:.3e} exceeds {bound:.0e}"


@pytest.fixture(scope="session")
def spectra():
    out = {}
    for n, (params, twist, starts) in REFERENCE_CHAINS.items():
        ctx = SpectralContext.create(params, twist)
        sols = [s for s in solve_newton(ctx, starts=starts, seed=1) if s.flag is None]
        out[n] = (ctx, sols)
    return out


def test_criterion_01_structural_relations():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    for sites in range(1, 7):
        for _ in range(5):
            ctx = random_context(rng, sites)
            u, v = draw_points(rng, 2, scale=1.5)
            while abs(u - v) < 0.2:
                v = draw_points(rng, 1, scale=1.5)[0]
            checks = structure_checks(ctx.chain, ctx.twist, u, v, ctx.family)
            worst = max(worst, max(checks.values()))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"structural suite took {elapsed:.1f}s"
    _verdict("criterion 1 structural relations", worst, 1e-10)


def test_criterion_02_hamiltonian_routes():
    twist = TwistParams(2 + 0.3j, 1 - 0.2j, 0.8 + 0.1j, 0.5 - 0.05j)
    worst = 0.0
    for sites in (2, 3):
        params = ChainParams(sites, 1.0, (0.0,) * sites)
        direct = build_hamiltonian(params, twist, route="direct")
        log_deriv = build_hamiltonian(params, twist, route="transfer")
        worst = max(worst, float(np.max(np.abs(direct - log_deriv))))
    periodic = build_hamiltonian(
        ChainParams(2, 1.0, (0.0, 0.0)), TwistParams(1.0, 1.0, 0.0, 0.0)
    )
    levels = np.sort(np.linalg.eigvalsh(periodic))
    gap = float(np.max(np.abs(levels - np.array([-6.0, 2.0, 2.0, 2.0]))))
    assert gap < 1e-10, f"periodic spectrum off by {gap:.3e}"
    _verdict("criterion 2 hamiltonian routes", worst, 1e-8)


def test_criterion_03_offshell_actions():
    rng = np.random.default_rng(23)
    worst = 0.0
    # ten random sizes from 1..3, then one chain each at 4 and 5 sites; the
    # generator is lazy, so the draws interleave as the sizes are used
    drawn = (int(rng.integers(1, 4)) for _ in range(10))
    for sites in itertools.chain(drawn, (4, 5)):
        ctx = random_context(rng, sites)
        nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        u = draw_points(rng, 1)[0]
        vac = vacuum_action_residuals(nu, ctx.fact, ctx.chain, u)
        worst = max(worst, max(vac.values()))
        for order in range(sites + 1):
            res = offshell_action_residuals(nu, ctx, u, draw_points(rng, order))
            worst = max(worst, max(res.values()))
    _verdict("criterion 3 off-shell actions", worst, 1e-9)


def test_criterion_04_raising_closure():
    rng = np.random.default_rng(31)
    worst = 0.0
    for sites in (1, 2, 3):
        for _ in range(10):
            ctx = random_context(rng, sites)
            nu = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
            u = draw_points(rng, 1)[0]
            res = raising_identity_residual(nu, ctx, u, draw_points(rng, sites))
            worst = max(worst, res)
    _verdict("criterion 4 raising closure", worst, 1e-9)


def test_criterion_05_completeness(spectra):
    # a four-site chain on the three-site twist, for this criterion only so
    # that criteria 6-10 keep their three reference chains
    four = SpectralContext.create(
        ChainParams(4, 1.0, tuple(0.15 * (k - 1.5) for k in range(4))),
        REFERENCE_CHAINS[3][1],
    )
    started = time.perf_counter()
    found = [s for s in solve_newton(four, starts=400, seed=1) if s.flag is None]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"four-site Newton took {elapsed:.1f}s"
    worst = 0.0
    for n, (ctx, sols) in [*spectra.items(), (4, (four, found))]:
        assert len(sols) == 2 ** n, f"{len(sols)} of {2 ** n} solutions at {n} sites"
        match = spectrum_match(ctx, sols)
        assert match["counts_match"]
        worst = max(worst, match["max_rel_gap"])
    # single-site anchor: two real roots, one eigenvalue branch each
    ctx, sols = spectra[1]
    roots = sorted(s.roots[0].real for s in sols)
    assert abs(roots[0] - (-1.309017)) < 1e-6
    assert abs(roots[1] - 1.618034) < 1e-6
    branches = set()
    for sol in sols:
        for sign in (1.0, -1.0):
            line = lambda u: 3.0 * u + (3.0 + sign * ROOT5) / 2.0
            gap = max(
                abs(transfer_eigenvalue(ctx, p, sol.roots) - line(p))
                for p in probe_points(ctx)
            )
            if gap < 1e-8:
                branches.add(sign)
    assert branches == {1.0, -1.0}, "both eigenvalue branches must appear"
    _verdict("criterion 5 completeness", worst, 1e-8)


def test_criterion_06_slavnov_overlaps(spectra):
    rng = np.random.default_rng(41)
    worst = 0.0
    for n, (ctx, sols) in spectra.items():
        modified = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        free_sets = [draw_points(rng, n) for _ in range(5)]
        for sol in sols:
            for free in free_sets:
                for orientation in ("u-onshell", "v-onshell"):
                    us = sol.roots if orientation == "u-onshell" else tuple(free)
                    vs = tuple(free) if orientation == "u-onshell" else sol.roots
                    rep = overlap_report(ctx, us, vs, orientation, modified)
                    worst = max(worst, rep.relative_error)
    ctx_a = spectra[1][0]
    anchor = overlap_report(ctx_a, (GOLDEN,), (0.0,), orientation="u-onshell")
    mu = ctx_a.fact.mu
    assert abs(anchor.formula - mu * mu * GOLDEN) < 1e-10
    _verdict("criterion 6 slavnov overlaps", worst, 1e-8)


def test_criterion_07_gaudin_korepin_norms(spectra):
    worst = 0.0
    for n, (ctx, sols) in spectra.items():
        modified = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        for sol in sols:
            rep = norm_report(ctx, sol.roots, modified)
            worst = max(worst, rep.relative_error)
    ctx_a = spectra[1][0]
    mu = ctx_a.fact.mu
    anchor = norm_report(ctx_a, (GOLDEN,))
    assert abs(anchor.formula - mu * mu * ROOT5 * GOLDEN) < 1e-8
    assert abs(anchor.formula - 4.959675) < 1e-6
    assert abs(gaudin_matrix(ctx_a, (GOLDEN,))[0, 0] - ROOT5) < 1e-8
    _verdict("criterion 7 gaudin-korepin norms", worst, 1e-8)


def test_criterion_08_orthogonality(spectra):
    worst = 0.0
    for n, (ctx, sols) in spectra.items():
        modified = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
        kets = [build_bethe_vector(modified, s.roots) for s in sols]
        duals = [build_dual_vector(modified, s.roots) for s in sols]
        norms = [abs(scalar_direct(d, k)) for d, k in zip(duals, kets)]
        for i in range(len(sols)):
            for j in range(len(sols)):
                if i == j:
                    continue
                cross = abs(scalar_direct(duals[i], kets[j]))
                worst = max(worst, cross / np.sqrt(norms[i] * norms[j]))
    # closed single-site form vanishes identically
    ctx_a = spectra[1][0]
    low = -(3.0 + ROOT5) / 4.0
    rep = overlap_report(ctx_a, (GOLDEN,), (low,), orientation="u-onshell")
    assert abs(rep.formula) < 1e-10
    _verdict("criterion 8 orthogonality", worst, 1e-8)


def test_criterion_09_u1_degradation():
    ctx = SpectralContext.create(
        ChainParams(2, 1.0, (0.1, -0.1)), TwistParams(1.9, 1.1, 0.0, 0.0)
    )
    sols = [s for s in solve_newton(ctx, starts=200, seed=1) if s.flag is None]
    assert sols, "no on-shell sets on the diagonal chain"
    modified = build_modified_operators(build_monodromy(ctx.chain), ctx.fact)
    kt, k = ctx.twist.kappa_tilde, ctx.twist.kappa
    rng = np.random.default_rng(43)
    worst = 0.0
    for sol in sols:
        l2bar = np.prod([ctx.lam(v)[1] for v in sol.roots])
        closed = l2bar * (k / kt + 1.0) ** 2
        worst = max(worst, relative_gap(w0(ctx, sol.roots), closed))
        for _ in range(3):
            free = draw_points(rng, 2)
            modern = slavnov_formula(ctx, free, sol.roots, "v-onshell")
            classic = classical_slavnov(ctx, free, sol.roots)
            direct = scalar_direct(
                build_dual_vector(modified, free),
                build_bethe_vector(modified, sol.roots),
            )
            worst = max(worst, relative_gap(modern, classic))
            worst = max(worst, relative_gap(modern, direct))
    _verdict("criterion 9 u(1) degradation", worst, 1e-10)


def test_criterion_10_gradient_checks(spectra):
    rng = np.random.default_rng(53)
    step = 1e-6
    worst = 0.0
    for n, (ctx, sols) in spectra.items():
        base = draw_points(rng, n)
        points = draw_points(rng, n, scale=1.3)
        for i in range(n):
            for j in range(n):
                analytic = eigenvalue_gradient(ctx, points[j], base, i)
                bumped = base.copy()
                bumped[i] += step
                dipped = base.copy()
                dipped[i] -= step
                fd = (
                    transfer_eigenvalue(ctx, points[j], VariableSet(bumped, 0.0))
                    - transfer_eigenvalue(ctx, points[j], VariableSet(dipped, 0.0))
                ) / (2 * step)
                worst = max(worst, abs(analytic - fd) / max(1.0, abs(analytic)))
        # coinciding-point limit of the overlap kernel, extrapolated
        lim = gaudin_limit_deviation(ctx, sols[0].roots)
        assert lim < 1e-5, f"limit check {lim:.3e} at {n} sites"
    _verdict("criterion 10 gradient checks", worst, 1e-6)
