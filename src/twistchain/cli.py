"""Batch driver around the workbench: JSON config in, JSON report out.

Five subcommands cover the verification program at desk scale: ``verify``
replays the algebraic identity suite, ``spectrum`` diagonalizes the
transfer matrix at probe points one magnetization sector at a time,
``solve`` runs both root finders and cross-classifies, ``overlap`` and
``norm`` compare the determinant formulas against direct state
contractions over the unflagged sets of the T-Q fit, one per eigenvector,
building each set's ket and dual once.  Newton runs in ``solve`` alone,
where its agreement with the T-Q fit is the evidence.  Reports are
deterministic given the config and seed, except for the wall-time field.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bethe import SpectralContext, VariableSet, _as_set, eps_dist
from .chain import (
    ChainParams,
    _scaled_gap,
    build_hamiltonian,
    monodromy_product_gap,
    structure_checks,
)
from .linalg import MAX_EIG_DIM, ConvergenceError
from .overlaps import gaudin_norm, relative_gap, scalar_direct, slavnov_formula
from .solver import classify_solutions, probe_points, solve_newton, solve_tq_fit, spectrum_match
from .states import (
    build_bethe_vector,
    build_dual_vector,
    offshell_action_residuals,
    raising_identity_residual,
)
from .twist import TwistParams, vacuum_action_residuals


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


@dataclass(frozen=True)
class RunConfig:
    chain: ChainParams
    twist: TwistParams
    rho_branch: str = "minus"
    max_iter: int = 80
    tol: float = 1e-8
    starts: int = 200
    seed: int = 1
    structural_tol: float = 1e-10
    onshell_tol: float = 1e-8

    def context(self) -> SpectralContext:
        """The run's context with its monodromy built: every command needs
        it, and a coupling its coefficients cannot hold stops the run here,
        before any other numerics with that coupling."""
        ctx = SpectralContext.create(self.chain, self.twist, branch=self.rho_branch)
        ctx.family
        return ctx

    def echo(self) -> dict:
        """Normalized round-trip of the parsed values, for the report."""
        return {
            "chain": {
                "sites": self.chain.sites,
                "c": complex(self.chain.c),
                "inhomogeneities": [complex(t) for t in self.chain.theta],
            },
            "twist": {
                "kappa_tilde": complex(self.twist.kappa_tilde),
                "kappa": complex(self.twist.kappa),
                "kappa_plus": complex(self.twist.kappa_plus),
                "kappa_minus": complex(self.twist.kappa_minus),
                "rho_branch": self.rho_branch,
            },
            "solver": {
                "max_iter": self.max_iter,
                "tol": self.tol,
                "starts": self.starts,
                "seed": self.seed,
            },
            "tolerances": {
                "structural": self.structural_tol,
                "onshell": self.onshell_tol,
            },
        }


def _is_number(value) -> bool:
    # json reads true/false as bool, a subclass of int; no field takes one
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _as_complex(value, field: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(_is_number(x) for x in value):
            raise ConfigError(f"{field}: expected [re, im], got {value!r}")
        z = complex(value[0], value[1])
    elif _is_number(value):
        z = complex(value)
    else:
        raise ConfigError(f"{field}: expected a number or [re, im], got {value!r}")
    # json reads NaN and Infinity; no parameter of the chain may be either
    if not cmath.isfinite(z):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return z


def _positive(value, field: str) -> float:
    if not _is_number(value) or not 0 < value < float("inf"):
        raise ConfigError(f"{field}: expected a finite positive number, got {value!r}")
    return float(value)


def _section(data: dict, name: str, known: set[str]) -> dict:
    sub = data.get(name, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"{name}: expected an object")
    for key in sub:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown field")
    return sub


# log10 of the largest double
_MAX_DIGITS = float(np.log10(np.finfo(float).max))


def _spread_digits(theta, c: complex) -> float:
    """log10 of prod_k (1 + |theta_k - center| / s), s = max(1, |c|).

    The commands evaluate the operators at points within a few s of the
    center of the inhomogeneities.  There each factor (u - theta_k + c)/c
    of T(u) is at most a few s/|c| times 1 + |theta_k - center|/s, so this
    product is the size the inhomogeneities give the operators, apart from
    the (s/|c|)**N the coupling gives them.  A spread whose arithmetic
    overflows reads inf or nan.
    """
    with np.errstate(all="ignore"):
        theta = np.asarray(theta, dtype=complex)
        spread = np.abs(theta - theta.mean()) / max(1.0, abs(c))
        return float(np.sum(np.log10(1 + spread)))


def build_config(data: dict) -> RunConfig:
    """Validates a plain config dict; error messages name the bad field."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    for key in data:
        if key not in {"chain", "twist", "solver", "tolerances"}:
            raise ConfigError(f"{key}: unknown section")

    chain = _section(data, "chain", {"sites", "c", "inhomogeneities"})
    if "sites" not in chain:
        raise ConfigError("chain.sites: required")
    sites = chain["sites"]
    if not _is_count(sites):
        raise ConfigError(f"chain.sites: expected a positive integer, got {sites!r}")
    # verify places T on aux (x) chain, so 2^(N+1) <= MAX_EIG_DIM; compared
    # by exponent, since 2**sites of a huge count never finishes
    most = MAX_EIG_DIM.bit_length() - 2
    if sites > most:
        raise ConfigError(
            f"chain.sites: at most {most}, since the monodromy on aux (x) chain "
            f"has dimension 2^(N+1) <= {MAX_EIG_DIM}; got {sites}"
        )
    c = _as_complex(chain.get("c", 1.0), "chain.c")
    if c == 0:
        raise ConfigError("chain.c: must be nonzero")
    theta_raw = chain.get("inhomogeneities", [[0.0, 0.0]] * sites)
    if not isinstance(theta_raw, list):
        raise ConfigError("chain.inhomogeneities: expected a list")
    theta = tuple(
        _as_complex(t, f"chain.inhomogeneities[{i}]") for i, t in enumerate(theta_raw)
    )
    if len(theta) != sites:
        raise ConfigError(
            f"chain.inhomogeneities: expected {sites} entries, got {len(theta)}"
        )
    spread = _spread_digits(theta, c)
    if not 2 * spread <= _MAX_DIGITS:
        raise ConfigError(
            f"chain.inhomogeneities: their spread scales the operators near them by "
            f"about 1e{spread:.0f}, so products of two operators overflow"
        )

    twist = _section(
        data, "twist",
        {"kappa_tilde", "kappa", "kappa_plus", "kappa_minus", "rho_branch"},
    )
    kw = {}
    for name in ("kappa_tilde", "kappa", "kappa_plus", "kappa_minus"):
        if name not in twist:
            raise ConfigError(f"twist.{name}: required")
        kw[name] = _as_complex(twist[name], f"twist.{name}")
    branch = twist.get("rho_branch", "minus")
    if branch not in ("minus", "plus"):
        raise ConfigError(f"twist.rho_branch: expected 'minus' or 'plus', got {branch!r}")

    solver = _section(data, "solver", {"max_iter", "tol", "starts", "seed"})
    max_iter = solver.get("max_iter", 80)
    starts = solver.get("starts", 200)
    seed = solver.get("seed", 1)
    for name, value in (("max_iter", max_iter), ("starts", starts), ("seed", seed)):
        if not _is_count(value):
            raise ConfigError(f"solver.{name}: expected a positive integer, got {value!r}")
    tol = _positive(solver.get("tol", 1e-8), "solver.tol")

    tols = _section(data, "tolerances", {"structural", "onshell"})
    structural = _positive(tols.get("structural", 1e-10), "tolerances.structural")
    onshell = _positive(tols.get("onshell", 1e-8), "tolerances.onshell")

    return RunConfig(
        chain=ChainParams(sites=sites, c=c, theta=theta),
        twist=TwistParams(**kw),
        rho_branch=branch,
        max_iter=max_iter,
        tol=tol,
        starts=starts,
        seed=seed,
        structural_tol=structural,
        onshell_tol=onshell,
    )


def _apply_override(data: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override {spec!r}: expected key=value")
    key, raw = spec.split("=", 1)
    parts = key.split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings like rho_branch=plus
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r}: {part} is not an object")
    node[parts[-1]] = value


def parse_config(path: str, overrides=()) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    for spec in overrides:
        _apply_override(data, spec)
    return build_config(data)


# --- report assembly ---------------------------------------------------------

def _sig15(x: float) -> float:
    # stable 15-significant-digit float, so reports diff cleanly
    return float(f"{float(x):.15g}")


def _encode(obj):
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [_sig15(z.real), _sig15(z.imag)]
    if isinstance(obj, (float, np.floating)):
        return _sig15(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _check(name: str, residual: float, tolerance: float, sets=None, holds=True) -> dict:
    """One check record.  It passes when ``holds`` and the residual is
    within the tolerance; a check over ``sets`` on-shell root sets records
    their number, and over none it has checked nothing, so it fails
    whatever its residual."""
    check = {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(holds and residual <= tolerance and sets != 0),
    }
    if sets is not None:
        check["sets_checked"] = sets
    return check


def _worse(a: float, b: float) -> float:
    """The larger residual; a nan from either side is kept, never dropped."""
    return float(np.maximum(a, b))


def _draw_points(rng, center: complex, scale: float, count: int) -> np.ndarray:
    pts = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return center + scale * pts


def _solution_row(sol) -> dict:
    row = {
        "roots": [complex(z) for z in sol.roots],
        "residuals": [float(r) for r in sol.residuals],
        "onshell_tolerance": float(sol.tau),
        "method": sol.method,
    }
    if sol.matched_eigenvalue is not None:
        row["eigenvalue_probes"] = [complex(z) for z in sol.matched_eigenvalue]
    if sol.flag is not None:
        row["flag"] = sol.flag
    return row


def _cmd_verify(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    ctx.modified  # a twist the modified operators cannot take fails here, as itself
    try:
        # every check is finite arithmetic on operator values at points of
        # scale max(1, |c|), where u/c grows as 1/|c|; an overflow or a nan
        # there says the coupling is beyond what double precision can check
        with np.errstate(over="raise", invalid="raise"):
            return {"checks": _verify_checks(cfg, ctx)}
    except FloatingPointError:
        # the field whose part of the operator scale is the larger
        chain = cfg.chain
        coupling = chain.sites * np.log10(max(1.0, abs(chain.c)) / abs(chain.c))
        if _spread_digits(chain.theta, chain.c) > coupling:
            raise ValueError(
                "chain.inhomogeneities: the operators and their products at the "
                "verify points overflow"
            ) from None
        raise ValueError(
            f"chain.c: the operators and their products at the verify points "
            f"overflow at c = {chain.c}"
        ) from None


def _verify_checks(cfg: RunConfig, ctx: SpectralContext) -> list[dict]:
    params, twist, modified = cfg.chain, cfg.twist, ctx.modified
    rng = np.random.default_rng(cfg.seed)
    center = complex(np.mean(np.asarray(params.theta, dtype=complex)))
    scale = max(1.0, abs(params.c))

    pairs = [_draw_points(rng, center, scale, 2) for _ in range(3)]
    worst = {"monodromy_product_form": monodromy_product_gap(params, ctx.family, pairs[0][0])}
    for u, v in pairs:
        for name, value in structure_checks(params, twist, u, v, ctx.family).items():
            worst[name] = _worse(worst.get(name, 0.0), value)
        for name, value in vacuum_action_residuals(modified, ctx.fact, params, u).items():
            worst[name] = _worse(worst.get(name, 0.0), value)
    for m in range(1, params.sites + 1):
        pts = _draw_points(rng, center, scale, m + 1)
        rs = VariableSet(pts[1:], eps_dist(ctx.c))
        for name, value in offshell_action_residuals(modified, ctx, pts[0], rs).items():
            worst[name] = _worse(worst.get(name, 0.0), value)
    pts = _draw_points(rng, center, scale, params.sites + 1)
    worst["raising_closure"] = raising_identity_residual(
        modified, ctx, pts[0], VariableSet(pts[1:], eps_dist(ctx.c))
    )

    checks = [_check(name, value, cfg.structural_tol) for name, value in worst.items()]
    if params.sites >= 2:
        # the two Hamiltonian routes agree in the homogeneous limit only
        flat = ChainParams(params.sites, params.c, (0.0,) * params.sites)
        # the transfer route first: its linear solve is the larger transient
        via_t = build_hamiltonian(flat, twist, route="transfer")
        direct = build_hamiltonian(flat, twist, route="direct")
        resid = _scaled_gap(direct, via_t)
        checks.append(_check("hamiltonian_routes_homogeneous", resid, cfg.onshell_tol))
    return checks


def _power_sum_gap(t: np.ndarray, values: np.ndarray) -> float:
    """max over k = 1, 2 of |tr t^k - sum lam^k| / max(1, sum |lam|^k):
    eigenvalues from the sector blocks against the dense matrix they
    stand for.  The k = 1 sum is blind to how the twist's trace splits
    into its eigenvalues, the k = 2 sum is not; tr t^2 = sum t * t^T
    needs no matrix product.  A nan is kept, so it fails."""
    traces = (np.trace(t), np.sum(t * t.T))
    return float(np.max([
        abs(tr - np.sum(values ** k)) / max(1.0, float(np.sum(np.abs(values) ** k)))
        for k, tr in enumerate(traces, 1)
    ]))


def _cmd_spectrum(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    probes = probe_points(ctx, 3)
    spectra = [ctx.spectrum(p) for p in probes]
    table = [{"point": complex(p), "eigenvalues": list(vals)} for p, vals in zip(probes, spectra)]
    # the dense matrices are built only for the two operator checks; the
    # commutator's gap is taken after its pair is freed, and the third
    # probe's t(u) is placed after that
    t0, t1 = (ctx.transfer(p) for p in probes[:2])
    gaps = [_power_sum_gap(t, vals) for t, vals in zip((t0, t1), spectra)]
    products = t0 @ t1, t1 @ t0
    del t0, t1
    comm = _scaled_gap(*products)
    del products
    gaps.append(_power_sum_gap(ctx.transfer(probes[2]), spectra[2]))
    sums = float(np.max(gaps))
    checks = [
        _check("transfer_commutation", comm, cfg.structural_tol),
        _check("transfer_power_sums", sums, cfg.structural_tol),
    ]
    return {"checks": checks, "probes": table}


def _cmd_solve(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    newton = solve_newton(
        ctx, starts=cfg.starts, seed=cfg.seed, max_iter=cfg.max_iter, tol=cfg.tol
    )
    tq = solve_tq_fit(ctx, tol=cfg.tol)
    match = classify_solutions(newton, tq)
    spectral = spectrum_match(ctx, newton)
    checks = [
        _check(
            "spectrum_completeness", spectral["max_rel_gap"], cfg.onshell_tol,
            holds=spectral["counts_match"],
        ),
        _check(
            "cross_method_eigenvalue_gap", match.max_eigenvalue_gap, cfg.onshell_tol,
            holds=match.complete,
        ),
    ]
    return {
        "checks": checks,
        "expected_count": spectral["expected"],
        "newton_solutions": [_solution_row(s) for s in newton],
        "tq_solutions": [_solution_row(s) for s in tq],
    }


def _onshell_check(cfg: RunConfig, name: str, key: str, compare) -> dict:
    """One formula-vs-contraction check over the unflagged sets of the T-Q
    fit, one set per eigenvector, in the fit's canonical order.
    ``compare(cfg, ctx, onshell)`` evaluates the rows' formulas in row order
    and returns the sets they read, sorted as the fit's are, on-shell first,
    with one (row fields, dual index, ket index, formula) entry per report
    row under ``key``.  Each set's dual and ket are built once, after every
    formula; the check ``name`` takes the worst relative error over all rows."""
    ctx = cfg.context()
    onshell = [s.roots for s in solve_tq_fit(ctx) if s.flag is None]
    sets, entries = compare(cfg, ctx, onshell)
    duals = [build_dual_vector(ctx.modified, s) for s in sets]
    kets = [build_bethe_vector(ctx.modified, s) for s in sets]
    rows = []
    worst = 0.0
    for fields, dual, ket, formula in entries:
        direct = scalar_direct(duals[dual], kets[ket])
        error = relative_gap(direct, formula)
        worst = _worse(worst, error)
        rows.append({
            **fields,
            "direct": direct,
            "formula": formula,
            "relative_error": error,
            "passed": bool(error <= cfg.onshell_tol),
        })
    checks = [_check(name, worst, cfg.onshell_tol, sets=len(onshell))]
    return {"checks": checks, key: rows}


def _overlaps(cfg: RunConfig, ctx: SpectralContext, onshell):
    # five free sets drawn once from the seed; both orientations of a pair
    # read the same two sets, so they share one formula value
    rng = np.random.default_rng(cfg.seed)
    center = complex(np.mean(np.asarray(cfg.chain.theta, dtype=complex)))
    scale = max(1.0, abs(ctx.c))
    free = [tuple(_draw_points(rng, center, scale, ctx.sites)) for _ in range(5)]
    entries = []
    for i, roots in enumerate(onshell):
        for k, vs in enumerate(free, len(onshell)):
            formula = slavnov_formula(ctx, roots, vs)
            for orientation, dual, ket in (("u-onshell", i, k), ("v-onshell", k, i)):
                fields = {"onshell_index": i, "offshell_index": k - len(onshell), "orientation": orientation}
                entries.append((fields, dual, ket, formula))
    return onshell + [_as_set(vs, ctx.c).sorted() for vs in free], entries


def _norms(cfg: RunConfig, ctx: SpectralContext, onshell):
    return onshell, [
        ({"onshell_index": i, "roots": [complex(z) for z in roots]}, i, i, gaudin_norm(ctx, roots))
        for i, roots in enumerate(onshell)
    ]


def _cmd_overlap(cfg: RunConfig) -> dict:
    return _onshell_check(cfg, "slavnov_max_relative_error", "overlaps", _overlaps)


def _cmd_norm(cfg: RunConfig) -> dict:
    return _onshell_check(cfg, "gaudin_korepin_max_relative_error", "norms", _norms)


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "overlap": _cmd_overlap,
    "norm": _cmd_norm,
}


def execute(command: str, cfg: RunConfig) -> dict:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    begin = time.perf_counter()
    body = _COMMANDS[command](cfg)
    report = {"command": command, "config": cfg.echo()}
    report.update(body)
    report["wall_time_s"] = time.perf_counter() - begin
    return report


def report_passed(report: dict) -> bool:
    return all(check["passed"] for check in report.get("checks", []))


def render(report: dict) -> str:
    return json.dumps(_encode(report), indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistchain",
        description="Verification workbench for a twisted spin chain at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="dotted-key override, e.g. chain.sites=2",
        )
        cmd.add_argument("--output", help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.overrides)
        report = execute(args.command, cfg)
    except (ValueError, ConvergenceError) as exc:
        # ConfigError and the library's input errors (degenerate twist,
        # coincident roots, off-shell sets) all derive from ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
