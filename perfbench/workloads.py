"""The three benchmark workloads.

Each workload is a closed loop with a single caller: one pass runs to the
end before the next starts.  A workload object is built by its set-up
(config generation, context creation, warm-up), ``run`` is the timed pass
and returns its output with the seconds of each of its steps (one `cli`
execute, or one comparison), and ``evaluate`` turns a pass's output into
verdicts outside the timed region, checking it against the dense
reference in ``reference.py``.

The program only ever receives generated configs and points: every input
comes from the shipped ``configs/n3_generic.json``, a fixed stream of
points, and, for ``determinants-n5`` only, the chain drawn from the seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

import reference

N3_CONFIG = ("configs", "n3_generic.json")
# Reference agreement, relative to the spectral radius.  It separates a wrong
# answer (an eigenvalue or root set off by O(1)) from lost digits, which
# ref_dec tracks: the interpolated monodromy already puts N=8 spectra up to
# 9e-7 away from the dense product when this was written (seeds 1-40).
REF_TOL = 1e-4
# Off-shell sets and eigenvalue check points come from this fixed stream,
# not from --seed.  They decide which comparisons pass and how many digits
# the reference check sees: drawn per seed, they moved pass_frac by 3% and
# ref_dec by 11% between seeds, which would swamp a bound tight enough to
# catch lost digits.
FIXED_DRAWS = 0


@dataclass
class PassResult:
    """Verdicts of one pass.  `fingerprint` must repeat exactly between
    passes of one invocation (the determinism guard)."""

    ops: int
    failures: list = field(default_factory=list)   # names of failed ops
    op_times: list = field(default_factory=list)   # seconds per timed step
    residuals: list = field(default_factory=list)  # one per op with a residual
    found: int = 0
    expected: int = 1
    ref_ok: bool = True
    ref_gap: float = 0.0
    fingerprint: object = None


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _theta(rng, sites: int) -> list:
    """Real inhomogeneities on a grid of spacing 0.15; with `rng`, jittered
    by up to 0.05 and in random site order.  No two come closer than 0.05,
    so the spectrum stays non-degenerate."""
    theta = 0.15 * (np.arange(sites) - (sites - 1) / 2)
    if rng is not None:
        theta = rng.permutation(theta + rng.uniform(-0.05, 0.05, sites))
    return [[float(t), 0.0] for t in theta]


def draw_points(rng, center: complex, count: int) -> np.ndarray:
    return center + rng.standard_normal(count) + 1j * rng.standard_normal(count)


def generated_config(tc, root, rng, sites: int):
    """n3_generic, its solver seed included, on a chain of `sites` sites
    with the inhomogeneities of `_theta`."""
    overrides = [
        f"chain.sites={sites}",
        f"chain.inhomogeneities={json.dumps(_theta(rng, sites))}",
    ]
    return tc.cli.parse_config(str(root.joinpath(*N3_CONFIG)), overrides)


class Reference:
    """Dense reference spectra of one config, computed on first use."""

    def __init__(self, cfg):
        chain, twist = cfg.chain, cfg.twist
        self.args = (chain.sites, chain.c, chain.theta)
        self.kmat = np.array([[twist.kappa_tilde, twist.kappa_plus],
                              [twist.kappa_minus, twist.kappa]], dtype=complex)
        self._spectra = {}

    def spectrum(self, u: complex) -> np.ndarray:
        if u not in self._spectra:
            t = reference.transfer_matrix(*self.args, self.kmat, u)
            self._spectra[u] = np.linalg.eigvals(t)
        return self._spectra[u]

    def monodromy_rel_err(self, tc) -> float:
        """Gap between the package's monodromy family and the dense product
        at a point off the real interpolation nodes."""
        u = complex(np.mean(self.args[2])) + 0.37 + 0.21j
        family = tc.chain.build_monodromy(tc.chain.ChainParams(*self.args))
        ours = np.array(family.at(u)).reshape(2, 2, *family.t11.coeffs.shape[1:])
        ref = reference.monodromy_blocks(*self.args, u)
        return float(np.linalg.norm(ours - ref) / np.linalg.norm(ref))


def _eigenvalue_check(tc, ctx, ref: Reference, points, root_sets):
    """Match each root set's eigenvalue to a distinct dense eigenvalue at
    every point; returns (sets matched at every point, worst gap)."""
    matched, worst = len(root_sets), 0.0
    for p in points:
        lams = [tc.bethe.transfer_eigenvalue(ctx, p, roots) for roots in root_sets]
        hits, gap = reference.match_spectrum(lams, ref.spectrum(p), REF_TOL)
        matched, worst = min(matched, hits), max(worst, gap)
    return matched, worst


def library_errors(tc) -> tuple:
    """What a failing library call raises.  Anything else is a bug in the
    benchmark and is left to stop the run."""
    return (ValueError, ArithmeticError, tc.linalg.ConvergenceError)


def _timed(times: list, fn, *args):
    """Calls fn and appends its duration to `times`."""
    t0 = time.perf_counter()
    out = fn(*args)
    times.append(time.perf_counter() - t0)
    return out


def _execute(tc, command: str, cfg) -> tuple:
    """One `cli` execute and render: (label, report text, error type name)."""
    label = f"{command}[N={cfg.chain.sites}]"
    try:
        return label, tc.cli.render(tc.cli.execute(command, cfg)), None
    except library_errors(tc) as exc:
        return label, None, type(exc).__name__


def _read_report(out: tuple, result: PassResult):
    """Adds the checks of one `_execute` output to result as ops.  Returns
    the report without its wall time, or None when the call raised, which
    counts as one failed op."""
    label, text, error = out
    if error is not None:
        result.ops += 1
        result.failures.append(f"{label}:{error}")
        return None
    report = json.loads(text)
    del report["wall_time_s"]
    for check in report["checks"]:
        result.ops += 1
        result.residuals.append(check["residual"])
        if not check["passed"]:
            result.failures.append(f"{label}:{check['name']}")
    return report


class SolveN3:
    """`solve` on the shipped n3_generic config: 400 Newton starts, the T-Q
    fit, cross-classification and the dense spectrum match.

    The config is used as shipped, Newton seed included: the cost of a
    solve depends strongly on the start seed.  So no input of this
    workload depends on the benchmark seed.
    """

    def __init__(self, tc, root, seed: int):
        self.tc = tc
        self.cfg = tc.cli.parse_config(str(root.joinpath(*N3_CONFIG)))
        self.ctx = self.cfg.context()
        tc.solver.solve_newton(self.ctx, starts=1, seed=self.cfg.seed)
        center = complex(np.mean(self.cfg.chain.theta))
        self.points = draw_points(np.random.default_rng(FIXED_DRAWS), center, 3)
        self.refs = [Reference(self.cfg)]

    def run(self):
        times = []
        return _timed(times, _execute, self.tc, "solve", self.cfg), times

    def evaluate(self, out: tuple) -> PassResult:
        result = PassResult(ops=0)
        report = _read_report(out, result)
        result.fingerprint = json.dumps([out[2], report], sort_keys=True)
        # no coincidence guard: a flagged set is still checked, not raised on
        sets = [
            self.tc.bethe.VariableSet([_complex(z) for z in row["roots"]], 0.0)
            for row in (report["newton_solutions"] if report else [])
        ]
        found, result.ref_gap = _eigenvalue_check(self.tc, self.ctx, self.refs[0], self.points, sets)
        result.ref_ok = found == len(sets)
        result.found, result.expected = found, 2 ** self.cfg.chain.sites
        return result


class DeterminantsN5:
    """Determinant formulas against direct contractions on a seeded N=5
    chain.  Roots come from the T-Q fit only; for every unflagged set the
    norm and both overlap orientations against two off-shell sets are
    compared (5 comparisons per set)."""

    SITES = 5
    OFFSHELL_SETS = 2
    COMPARISONS = 1 + 2 * OFFSHELL_SETS  # per root set

    def __init__(self, tc, root, seed: int):
        self.tc = tc
        rng = np.random.default_rng(seed)
        self.cfg = generated_config(tc, root, rng, self.SITES)
        self.ctx = self.cfg.context()
        center = complex(np.mean(self.cfg.chain.theta))
        fixed = np.random.default_rng(FIXED_DRAWS)
        self.offshell = [tuple(draw_points(fixed, center, self.SITES))
                         for _ in range(self.OFFSHELL_SETS)]
        self.points = draw_points(fixed, center, 3)
        self.refs = [Reference(self.cfg)]
        single = tc.bethe.SpectralContext.create(
            tc.chain.ChainParams(1, self.cfg.chain.c, (0.0,)), self.cfg.twist)
        tc.states.w0(single, tc.solver.solve_tq_fit(single)[0].roots)

    def run(self):
        tc, ctx, tol = self.tc, self.ctx, self.cfg.onshell_tol
        times = []
        t0 = time.perf_counter()
        modified = tc.twist.build_modified_operators(
            tc.chain.build_monodromy(ctx.chain), ctx.fact)
        sets = [s for s in tc.solver.solve_tq_fit(ctx, tol=self.cfg.tol) if s.flag is None]
        times.append(time.perf_counter() - t0)
        outcomes = []
        for i, sol in enumerate(sets):
            jobs = [(f"norm[{i}]", tc.overlaps.norm_report, (ctx, sol.roots, modified))]
            for j, free in enumerate(self.offshell):
                jobs.append((f"overlap[{i},{j},u]", tc.overlaps.overlap_report,
                             (ctx, sol.roots, free, "u-onshell", modified)))
                jobs.append((f"overlap[{i},{j},v]", tc.overlaps.overlap_report,
                             (ctx, free, sol.roots, "v-onshell", modified)))
            for label, fn, args in jobs:
                t0 = time.perf_counter()
                try:
                    rep = fn(*args)
                except library_errors(tc) as exc:
                    outcome = (label, type(exc).__name__, None, None)
                else:
                    outcome = (label, None, rep.relative_error, rep.relative_error <= tol)
                times.append(time.perf_counter() - t0)
                outcomes.append(outcome)
        return (sets, outcomes), times

    def evaluate(self, out) -> PassResult:
        sets, outcomes = out
        roots = [s.roots for s in sets]
        # the comparisons of a root set the fit did not deliver count as
        # attempted and failed, so the op count stays 5 * 2^N
        missing = max(0, 2 ** self.SITES - len(sets)) * self.COMPARISONS
        result = PassResult(
            ops=len(outcomes) + missing,
            failures=["tq:missing_root_set"] * missing,
            fingerprint=repr(([tuple(r.values) for r in roots], outcomes)),
        )
        for label, error, residual, passed in outcomes:
            if error is not None:
                result.failures.append(f"{label}:{error}")
                continue
            result.residuals.append(residual)
            if not passed:
                result.failures.append(f"{label}:relative_error")
        found, result.ref_gap = _eigenvalue_check(self.tc, self.ctx, self.refs[0], self.points, roots)
        result.ref_ok = found == len(roots)
        result.found, result.expected = len(roots), 2 ** self.SITES
        return result


class StructureSweep:
    """`verify` and `spectrum` on generic chains of 1..8 sites.

    The chains sit on the unjittered grid and `verify` draws its points
    from the shipped solver seed, so no input depends on the benchmark
    seed: jitter as small as 0.005 or another site order moved the worst
    N=8 eigenvalue gap by up to a decade, and other verify points moved
    pass_frac by 7%, between seeds.
    """

    MAX_SITES = 8
    SPECTRUM_PROBES = 3  # points at which `cli spectrum` diagonalizes

    def __init__(self, tc, root, seed: int):
        self.tc = tc
        self.chains = [generated_config(tc, root, None, n)
                       for n in range(1, self.MAX_SITES + 1)]
        self.refs = [Reference(cfg) for cfg in self.chains]
        for cmd in ("verify", "spectrum"):
            tc.cli.render(tc.cli.execute(cmd, self.chains[0]))

    def run(self):
        times = []
        return [_timed(times, _execute, self.tc, cmd, cfg)
                for cfg in self.chains for cmd in ("verify", "spectrum")], times

    def evaluate(self, outs) -> PassResult:
        result = PassResult(ops=0, expected=0)
        reports = []
        for out, ref in zip(outs, [r for r in self.refs for _ in range(2)]):
            report = _read_report(out, result)
            reports.append([out[2], report])
            if out[0].startswith("spectrum"):
                result.expected += self.SPECTRUM_PROBES * 2 ** ref.args[0]
            for probe in (report or {}).get("probes", []):
                values = [_complex(z) for z in probe["eigenvalues"]]
                hits, gap = reference.match_spectrum(
                    values, ref.spectrum(_complex(probe["point"])), REF_TOL)
                result.found += hits
                result.ref_ok = result.ref_ok and hits == len(values)
                result.ref_gap = max(result.ref_gap, gap)
        result.fingerprint = json.dumps(reports, sort_keys=True)
        return result


WORKLOADS = {
    "solve-n3": SolveN3,
    "determinants-n5": DeterminantsN5,
    "structure-sweep": StructureSweep,
}
