import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from twistchain import ChainParams, SpectralContext, TwistParams, bethe, solver
from twistchain.bethe import (
    CoincidenceError,
    VariableSet,
    _tq_base,
    bethe_jacobian,
    bethe_residuals,
    onshell_tolerance,
    transfer_eigenvalue,
)
from twistchain.chain import build_transfer
from twistchain.cli import execute, parse_config
from twistchain.linalg import eigenpairs
from twistchain.solver import (
    DEDUP_TOL,
    FIT_TOL,
    BetheSolution,
    _newton_batch,
    _pool,
    _tq_linear_fit,
    classify_solutions,
    probe_points,
    root_distance,
    solve_newton,
    solve_tq_fit,
    spectrum_match,
    vector_weight,
)

import newton_reference
from conftest import random_context

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
LOW = -(3.0 + np.sqrt(5.0)) / 4.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

N2_CTX = SpectralContext.create(
    ChainParams(2, 1.0, (0.1, -0.1)),
    TwistParams(2.0 + 0.3j, 1.0 - 0.2j, 0.8 + 0.1j, 0.5 - 0.05j),
)


def test_config_a_has_exactly_two_solutions(config_a):
    sols = solve_newton(config_a, starts=200, seed=1)
    assert len(sols) == 2
    roots = sorted(complex(s.roots[0]).real for s in sols)
    assert abs(roots[0] - LOW) < 1e-10
    assert abs(roots[1] - GOLDEN) < 1e-10
    for sol in sols:
        assert sol.onshell
        assert sol.method == "newton"
        assert sol.flag is None
        assert abs(complex(sol.roots[0]).imag) < 1e-10


def test_solution_invariants(config_a):
    for sol in solve_newton(config_a, starts=50, seed=5):
        assert sol.onshell == (sol.max_residual <= sol.tau)
        key = sol.canonical_key()
        assert key == tuple(sorted(key))


def test_newton_deterministic_and_seed_invariant(config_a):
    a = solve_newton(config_a, starts=200, seed=1)
    b = solve_newton(config_a, starts=200, seed=1)
    assert all(
        np.array_equal(x.roots.values, y.roots.values) for x, y in zip(a, b)
    )
    c = solve_newton(config_a, starts=200, seed=9)
    assert len(c) == len(a)
    assert all(root_distance(x.roots, y.roots) < 1e-9 for x, y in zip(a, c))


def test_two_site_example_finds_four_solutions():
    # at c = 1e20 the roots have size ~|c| and rounding error ~1e4, which
    # only a scale-relative root distance merges into four sets
    for c in (1.0, 1e20):
        ctx = SpectralContext.create(replace(N2_CTX.chain, c=c), N2_CTX.twist)
        sols = solve_newton(ctx, starts=200, seed=1)
        assert len(sols) == 4
        report = spectrum_match(ctx, sols)
        assert report["expected"] == 4
        assert report["counts_match"]
        assert report["max_rel_gap"] < 1e-8
        again = solve_newton(ctx, starts=200, seed=2)
        assert len(again) == 4
        for x, y in zip(sols, again):
            assert root_distance(x.roots, y.roots) < 1e-8


def _spectrum_match_loop(ctx, solutions) -> float:
    """The greedy pairing of ``spectrum_match`` written as a plain loop:
    nearest free eigenvalue by ``min`` over the free indices in order."""
    max_rel = 0.0 if solutions else float("inf")
    for p in probe_points(ctx, 3):
        spectrum = ctx.spectrum(p)
        free = list(range(len(spectrum)))
        for sol in solutions:
            lam = transfer_eigenvalue(ctx, p, sol.roots)
            if not free:
                max_rel = float("inf")
                break
            j = min(free, key=lambda k: abs(spectrum[k] - lam))
            free.remove(j)
            max_rel = max(max_rel, abs(spectrum[j] - lam) / max(1.0, abs(spectrum[j])))
    return max_rel


def test_spectrum_match_is_the_greedy_loop():
    sols = solve_tq_fit(N2_CTX)
    # a repeated set takes the next nearest free eigenvalue; five sets
    # against four eigenvalues run out
    for case in (sols, sols[::-1], [sols[2], sols[2], sols[0]], sols + sols[:1], []):
        assert spectrum_match(N2_CTX, case)["max_rel_gap"] == _spectrum_match_loop(N2_CTX, case)


def test_spectrum_match_keeps_a_lost_sample():
    # a probe collision stores nan as the set's eigenvalue sample; the gap
    # must stay nan, which fails the check, wherever the set comes in order
    sols = solve_tq_fit(N2_CTX)
    lost = np.array(sols[1].matched_eigenvalue)
    lost[0] = np.nan
    sols[1] = replace(sols[1], matched_eigenvalue=lost)
    for case in (sols, sols[::-1]):
        assert np.isnan(spectrum_match(N2_CTX, case)["max_rel_gap"])


def test_diagonal_twist_conjugate_pair_is_one_set():
    # the pair's real parts differ in the last bit, so any lexsort orders
    # the two roots differently from start to start
    ctx = SpectralContext.create(
        ChainParams(2, 1.0, (0.1, -0.1)), TwistParams(1.9, 1.1, 0.0, 0.0)
    )
    sols = solve_newton(ctx, starts=200, seed=1)
    assert len(sols) == 1
    report = spectrum_match(ctx, sols)
    assert report["max_rel_gap"] <= 1e-12
    # the full-order description reaches only part of the diagonal spectrum
    assert report["found"] == 1 and report["expected"] == 4


def test_diagonal_single_site_reduces_to_classical_equation():
    theta = 0.15
    ctx = SpectralContext.create(
        ChainParams(1, 1.0, (theta,)), TwistParams(2.0, 1.0, 0.0, 0.0)
    )
    sols = solve_newton(ctx, starts=100, seed=1)
    assert len(sols) == 1
    # kappa_tilde lam1(u) = kappa lam2(u) has the single root theta - 2
    assert abs(complex(sols[0].roots[0]) - (theta - 2.0)) < 1e-8


def test_batched_newton_drops_only_the_broken_rows():
    # theta = (0, 0, 1), c = 1: at u_0 = 0 lam1 has a simple zero and lam2 a
    # double one, and u_1 = u_0 - c zeroes f(u_1, u_0), so row 0 of the
    # Jacobian vanishes exactly while E_2 stays far from zero
    ctx = SpectralContext.create(
        ChainParams(3, 1.0, (0.0, 0.0, 1.0)),
        TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6),
    )
    singular = np.array([0.0, -1.0, 0.4 + 0.3j])
    assert not np.any(bethe_jacobian(ctx, singular)[0])
    assert abs(bethe_residuals(ctx, singular)[2]) > 1e-2
    coincident = np.array([0.5, 0.5, -0.7j])
    rng = np.random.default_rng(3)
    starts = 3 * (rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3)))
    clean = _newton_batch(ctx, starts, 80, 1e-8)
    assert len(clean) >= 10
    mixed = np.vstack((starts[:5], singular, coincident, starts[5:]))
    assert np.array_equal(_newton_batch(ctx, mixed, 80, 1e-8), clean)
    assert np.array_equal(clean, newton_reference.newton_batch(ctx, starts, 80, 1e-8))
    assert np.array_equal(clean, newton_reference.newton_batch(ctx, mixed, 80, 1e-8))
    assert len(_newton_batch(ctx, np.array([singular, coincident]), 80, 1e-8)) == 0


def _config(name, grid_sites=None):
    # grid_sites gives the grid chain, theta_k = 0.15(k - (N-1)/2), N = grid_sites
    overrides = []
    if grid_sites:
        theta = json.dumps([0.15 * (k - (grid_sites - 1) / 2) for k in range(grid_sites)])
        overrides = [f"chain.sites={grid_sites}", f"chain.inhomogeneities={theta}"]
    return parse_config(str(CONFIGS / f"{name}.json"), overrides)


@pytest.mark.parametrize(
    "name, grid_sites",
    [
        ("n2_generic", None),
        ("n3_generic", None),
        ("n3_generic", 4),
        ("n3_generic", 5),
        ("n3_generic", 6),
    ],
)
def test_chunked_line_search_takes_the_steps_of_the_halving_loop(name, grid_sites):
    # the step scales are tried a chunk per kernel call, or all the scales
    # left in one call once they fit; every row must end where halving one
    # scale per call leaves it, bit for bit (at N = 5 and 6 some rounds
    # take the chunks and some the merged call)
    ctx = _config(name, grid_sites).context()
    starts = newton_reference.newton_starts(ctx, 400, 1)
    got = _newton_batch(ctx, starts, 80, 1e-8)
    assert len(got) > 300
    assert np.array_equal(got, newton_reference.newton_batch(ctx, starts, 80, 1e-8))


def test_starts_are_the_per_start_draws(monkeypatch):
    seen = []

    def capture(ctx, starts, *_):
        seen.append(starts)
        return starts[:0]

    monkeypatch.setattr(solver, "_newton_batch", capture)
    for sites in range(1, 7):
        ctx = random_context(np.random.default_rng(sites), sites)
        for seed in (1, 2, 3):
            assert solve_newton(ctx, starts=25, seed=seed) == []
            assert np.array_equal(seen.pop(), newton_reference.newton_starts(ctx, 25, seed))


def test_newton_calls_the_residual_kernel_once_per_chunk(monkeypatch):
    # the scales 2^-h, h = 0..19, come in three chunks, and the scales left
    # go in one call once they fit in the size of the first call; one
    # initial residual call, then per round one Jacobian call and residual
    # calls that average at most two, and one call per pool.  A line search
    # that calls the kernel once per halving (601 residual calls against 80
    # Jacobian calls on n3_generic) or once per chunk (233) breaks the bound.
    # lam1 and lam2 are read off the kernel call that scored each point, not
    # evaluated again for the polish stop or the pool (534 evaluations)
    halvings = [h for lo, hi in solver._HALVINGS for h in range(lo, hi)]
    assert halvings == list(range(20)) and len(solver._HALVINGS) == 3
    calls = {False: 0, True: 0, "lam": 0}
    kernel, weights = solver.bethe_system, bethe.vacuum_weights

    def counted(ctx, batch, jacobian=False):
        calls[jacobian] += 1
        return kernel(ctx, batch, jacobian)

    def counted_weights(*args):
        calls["lam"] += 1
        return weights(*args)

    monkeypatch.setattr(solver, "bethe_system", counted)
    monkeypatch.setattr(bethe, "vacuum_weights", counted_weights)
    execute("solve", _config("n3_generic"))
    assert calls[True] > 0
    assert calls[False] <= 1 + 2 * calls[True]
    assert calls["lam"] <= 250


def test_vanishing_string_sets_are_filtered():
    kept = solve_newton(N2_CTX, starts=200, seed=1, keep_vanishing=True)
    flagged = [s for s in kept if s.flag == "vanishing-vector"]
    assert flagged, "expected inhomogeneity-anchored zero-vector sets"
    for sol in flagged:
        assert vector_weight(N2_CTX, sol.roots) < 1e-9
        # they satisfy the equations yet carry no state
        assert sol.max_residual <= onshell_tolerance(N2_CTX, sol.roots)
    default = solve_newton(N2_CTX, starts=200, seed=1)
    for sol in default:
        assert all(
            root_distance(sol.roots, f.roots) > 1e-6 for f in flagged
        )


def test_pool_flags_near_duplicates(config_a):
    rows = np.array([[GOLDEN], [GOLDEN + 3e-5]])
    pool = _pool(config_a, rows, "newton", 1e-8)
    assert len(pool) == 2
    assert pool[0].flag is None
    assert pool[1].flag == "near-duplicate"
    # below the dedup tolerance the later row is absorbed instead, and the
    # first row of the group is the one kept
    rows = np.array([[GOLDEN + 1e-9], [GOLDEN], [GOLDEN + 3e-5]])
    pool = _pool(config_a, rows, "newton", 1e-8)
    assert len(pool) == 2
    assert pool[0].roots[0] == GOLDEN + 1e-9
    assert pool[1].flag == "near-duplicate"


def _assert_same_pool(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in fields(BetheSolution):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, VariableSet):
                assert x.eps == y.eps
                x, y = x.values, y.values
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y, equal_nan=True), field.name
            else:
                assert type(x) is type(y) and (x == y or x != x and y != y), field.name


@pytest.mark.parametrize(
    "name, grid_sites",
    [("n2_generic", None), ("n3_generic", None), ("n3_generic", 4), ("n3_generic", 5)],
)
def test_pool_attaches_as_the_set_by_set_pass(name, grid_sites, monkeypatch):
    # the kept sets are attached together; every field of every solution,
    # and the order of the list, must be what attaching one set at a time
    # gave, bit for bit, on the rows Newton and the T-Q fit hand the pool
    ctx = _config(name, grid_sites).context()
    seen = []

    def capture(*args):
        seen.append(args)
        return _pool(*args)

    monkeypatch.setattr(solver, "_pool", capture)
    solve_newton(ctx, starts=400, seed=1)
    solve_tq_fit(ctx)
    assert [args[2] for args in seen] == ["newton", "tq"]
    for args in seen:
        got = _pool(*args)
        assert len(got) >= 2 ** ctx.sites - 1
        _assert_same_pool(got, newton_reference.pool(*args))


def test_pool_flags_crafted_rows_as_the_set_by_set_pass():
    ctx = _config("n3_generic").context()
    p = probe_points(ctx, 3)
    base = np.array([0.3 + 0.1j, -0.7 + 0.2j, 1.1 - 0.4j])
    rows = np.array(
        [
            base,
            base + 3e-5,  # near-duplicate
            base + 1e-9,  # absorbed
            [p[1], 0.3, 0.5j],  # probe-collision
            [p[1], 0.3 + 3e-5, 0.5j],  # near-duplicate, but probe-collision first
            [-0.4, p[0], p[2]],  # probe-collision at two probes, own flag first
            [-1.5, 0.9j, 2.0],  # own flag
        ]
    )
    own = [None, None, None, None, None, "tq-residual", "tq-residual"]
    for flags in (own, None):
        got = _pool(ctx, rows, "tq", 1e-8, flags)
        _assert_same_pool(got, newton_reference.pool(ctx, rows, "tq", 1e-8, flags))
        assert len(got) == 6
    assert sorted(str(sol.flag) for sol in got) == sorted(
        ["None", "near-duplicate", "probe-collision", "probe-collision", "probe-collision", "None"]
    )
    # samples of a set with a nan root are nan without a probe collision
    nan_row = np.array([[np.nan, 0.3 + 0.1j, -0.7 + 0.2j]])
    with np.errstate(invalid="ignore"):
        got = _pool(ctx, nan_row, "newton", 1e-8)
        _assert_same_pool(got, newton_reference.pool(ctx, nan_row, "newton", 1e-8))
    assert got[0].flag is None and np.isnan(got[0].matched_eigenvalue).all()
    # a set with two roots within eps_dist(c) is flagged, after its own
    # flag, with nan residuals and roots without a distance guard; the
    # set-by-set pass raised on it, and gives the other rows their fields
    crafted = np.vstack((rows, [0.1, 0.1 + 1e-12, 0.5j]))
    for flag in (None, "tq-residual"):
        got = _pool(ctx, crafted, "tq", 1e-8, [*own, flag])
        (odd,) = [sol for sol in got if 0.1 in sol.roots.values]
        assert odd.flag == (flag or "coincident-roots") and odd.roots.eps == 0.0
        assert np.isnan(odd.residuals).all() and not odd.onshell
        want = [transfer_eigenvalue(ctx, pt, odd.roots) for pt in p]
        assert np.array_equal(odd.matched_eigenvalue, want)
        _assert_same_pool([sol for sol in got if sol is not odd], newton_reference.pool(ctx, rows, "tq", 1e-8, own))
        with pytest.raises(CoincidenceError):
            newton_reference.pool(ctx, crafted, "tq", 1e-8, [*own, flag])
    # a repeated root, which no VariableSet holds, still raises
    for pool in (_pool, newton_reference.pool):
        with pytest.raises(CoincidenceError, match="closer than 0"):
            pool(ctx, np.array([base, [0.1, 0.1, 0.5j]]), "tq", 1e-8)
    empty = np.empty((0, 3), dtype=complex)
    assert _pool(ctx, empty, "tq", 1e-8, []) == []
    assert newton_reference.pool(ctx, empty, "tq", 1e-8, []) == []


def test_tq_fit_recovers_newton_solutions(config_a):
    newton = solve_newton(config_a, starts=200, seed=1)
    tq = solve_tq_fit(config_a)
    assert len(tq) == 2
    report = classify_solutions(newton, tq)
    assert report.complete
    assert report.max_root_distance < 1e-8
    assert report.max_eigenvalue_gap < 1e-9


def test_eigenvalue_gap_is_relative_and_sees_a_mispaired_sample():
    # each sample gap is relative to the samples' size, so scaling both
    # lists by 1e9 leaves it alone; a sample of another set still fails
    newton = solve_newton(N2_CTX, starts=200, seed=1)
    tq = solve_tq_fit(N2_CTX)
    report = classify_solutions(newton, tq)
    assert report.complete and report.max_eigenvalue_gap < 1e-9

    def scaled(sols):
        return [replace(s, matched_eigenvalue=1e9 * s.matched_eigenvalue) for s in sols]

    big = classify_solutions(scaled(newton), scaled(tq))
    assert big.max_eigenvalue_gap < 1e-9
    (_, j, _), (_, k, _) = report.pairs[:2]
    swapped = list(tq)
    swapped[j] = replace(tq[j], matched_eigenvalue=tq[k].matched_eigenvalue)
    assert classify_solutions(newton, swapped).max_eigenvalue_gap > 1e-3


def test_tq_fit_two_sites():
    # the same complete, unflagged spectrum on a six-site real grid
    grid = tuple(0.15 * (k - 2.5) for k in range(6))
    six = SpectralContext.create(
        ChainParams(6, 1.0, grid), TwistParams(1.8 + 0.2j, 1.1 + 0.1j, 0.8, 0.6)
    )
    for ctx in (N2_CTX, six):
        tq = solve_tq_fit(ctx)
        assert len(tq) == 2**ctx.sites
        for sol in tq:
            assert sol.max_residual < onshell_tolerance(ctx, sol.roots)
            assert sol.flag is None


def test_tq_fit_sensitivity_to_eigenvalue_perturbation():
    ctx = N2_CTX
    transfer = build_transfer(ctx.chain, ctx.twist, ctx.family)
    base = _tq_base(ctx)
    u0 = probe_points(ctx, 1)[0]
    _, vec = eigenpairs(transfer(u0))[0]
    lam_poly = transfer.coeffs @ vec @ vec.conj()
    clean = _tq_linear_fit(lam_poly, base)[1]
    lam_poly[1] += 1e-3
    dirty = _tq_linear_fit(lam_poly, base)[1]
    assert dirty >= 10 * max(clean, 1e-14)


def test_tq_fit_flags_a_residual_that_is_not_finite(monkeypatch):
    # an eigenvalue polynomial of size 1e200 overflows the norms of the
    # fit's rhs and residual, and the relative fit residual is nan; nan
    # fails every comparison, so only a test for a passing fit flags it
    ctx = N2_CTX
    base = _tq_base(ctx)
    pairs = eigenpairs(ctx.transfer(probe_points(ctx, 1)[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        fits = [
            _tq_linear_fit(1e200 * (ctx.transfer.coeffs @ v @ v.conj()), base)[1]
            for _, v in pairs
        ]
    assert fits and all(np.isnan(fit) for fit in fits)
    # solve_tq_fit reads polynomials of that size off eigenvectors of norm 1e100
    monkeypatch.setattr(
        solver, "eigenpairs", lambda m: [(w, 1e100 * v) for w, v in eigenpairs(m)]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        tq = solve_tq_fit(ctx)
    assert tq and all(sol.flag == "tq-residual" for sol in tq)


def test_classify_handles_empty_lists(config_a):
    sols = solve_newton(config_a, starts=50, seed=1)
    report = classify_solutions([], sols)
    assert not report.pairs
    assert report.unmatched_b == tuple(range(len(sols)))
    assert not classify_solutions([], []).pairs
    report = classify_solutions(sols, [])
    assert report.unmatched_a == tuple(range(len(sols)))
    assert not _pool(config_a, np.empty((0, 1)), "newton", 1e-8)
    assert not _pool(config_a, np.empty((0, 1)), "tq", 1e-8, [])


def test_root_distance_is_permutation_invariant():
    a = np.array([1.0 + 1j, -2.0, 0.5j])
    b = a[[2, 0, 1]] + 1e-12
    assert root_distance(a, b) < 1e-9
    assert root_distance(b, a) == root_distance(a, b)
    # a conjugate pair whose real parts differ in the last bit
    pair = np.array([-2.37500000000001 + 1.80433505757662j,
                     -2.37500000000001 - 1.80433505757662j])
    swapped = np.array([-2.375 - 1.80433505757661j, -2.375 + 1.80433505757661j])
    assert root_distance(pair, swapped) < 1e-12
    # rounding noise on roots of size ~1e20 is relative, not absolute
    big = 1e20 * np.array([1.0, -0.5 + 2j, 3j])
    assert root_distance(big, big[::-1] + 1e4 * np.array([1, -1j, 1 + 1j])) < DEDUP_TOL
    # two different multisets never compare equal
    x, y = np.array([0.0, 1e-7, 5.0]), np.array([0.0, 5.0, 5.0 + 1e-7])
    assert root_distance(x, y) >= DEDUP_TOL
    assert root_distance(y, x) >= DEDUP_TOL
    assert root_distance(a, a[:2]) == np.inf
    assert root_distance(a[:2], a) == np.inf
    # one set against a stack gives one distance per row
    stack = np.vstack((b, a + 1.0, a[::-1]))
    np.testing.assert_array_equal(
        root_distance(a, stack), [root_distance(a, row) for row in stack]
    )


def test_probe_points_fixed_and_distinct(config_a):
    pts = probe_points(config_a, 3)
    assert pts == probe_points(config_a, 3)
    assert len(set(pts)) == 3
