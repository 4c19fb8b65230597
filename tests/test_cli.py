import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twistchain.cli import (
    ConfigError,
    build_config,
    execute,
    main,
    parse_config,
    render,
    report_passed,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
N3_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "n3_generic.json"

MINIMAL = {
    "chain": {"sites": 1},
    "twist": {
        "kappa_tilde": [2.0, 0.0],
        "kappa": 1.0,
        "kappa_plus": 1.0,
        "kappa_minus": 1.0,
    },
}


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.chain.sites == 1
    assert cfg.chain.c == 1.0
    assert cfg.chain.theta == (0j,)
    assert cfg.starts == 200
    assert cfg.tol == 1e-8
    assert cfg.seed == 1
    assert cfg.structural_tol == 1e-10
    assert cfg.onshell_tol == 1e-8
    assert cfg.rho_branch == "minus"


def test_override_creates_length_mismatch(tmp_path):
    pinned = dict(MINIMAL, chain={"sites": 1, "inhomogeneities": [[0.0, 0.0]]})
    path = _write(tmp_path, pinned)
    with pytest.raises(ConfigError, match="chain.inhomogeneities"):
        parse_config(path, ["chain.sites=2"])


def test_override_changes_branch(tmp_path):
    path = _write(tmp_path, MINIMAL)
    minus = parse_config(path)
    plus = parse_config(path, ["twist.rho_branch=plus"])
    assert plus.rho_branch == "plus"
    assert minus.context().fact.rho != plus.context().fact.rho


def test_override_accepts_json_values(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = parse_config(path, ["solver.starts=50", "chain.c=[0.0, 2.0]", "solver.tol=1e-6"])
    assert cfg.starts == 50
    assert cfg.chain.c == 2.0j
    assert cfg.tol == 1e-6


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"chain": {"sites": 1,}}')
    with pytest.raises(ConfigError, match=r"line \d+ column \d+"):
        parse_config(str(path))


def test_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="chain.sites"):
        build_config({"chain": {"sites": 0}, "twist": MINIMAL["twist"]})
    with pytest.raises(ConfigError, match="chain.c"):
        build_config(
            {"chain": {"sites": 1, "c": 0.0}, "twist": MINIMAL["twist"]}
        )
    with pytest.raises(ConfigError, match="twist.kappa_minus"):
        build_config(
            {
                "chain": {"sites": 1},
                "twist": {"kappa_tilde": 2, "kappa": 1, "kappa_plus": 1},
            }
        )
    with pytest.raises(ConfigError, match="twist.rho_branch"):
        build_config(
            {
                "chain": {"sites": 1},
                "twist": dict(MINIMAL["twist"], rho_branch="center"),
            }
        )
    with pytest.raises(ConfigError, match="unknown"):
        build_config(dict(MINIMAL, extras={}))
    with pytest.raises(ConfigError, match="solver.starts"):
        build_config(dict(MINIMAL, solver={"starts": -5}))


def test_complex_entries_accept_pairs_and_scalars():
    cfg = build_config(
        {
            "chain": {"sites": 1, "c": [0.5, -0.5], "inhomogeneities": [0.2]},
            "twist": MINIMAL["twist"],
        }
    )
    assert cfg.chain.c == 0.5 - 0.5j
    assert cfg.chain.theta == (0.2 + 0j,)
    with pytest.raises(ConfigError, match=r"chain.c"):
        build_config({"chain": {"sites": 1, "c": [1, 2, 3]}, "twist": MINIMAL["twist"]})


def test_verify_report_structure():
    cfg = build_config(MINIMAL)
    report = execute("verify", cfg)
    assert report["command"] == "verify"
    assert report["config"]["solver"]["starts"] == 200
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "passed"}
        assert check["passed"]
    assert report_passed(report)
    assert report["wall_time_s"] >= 0


def test_reports_deterministic_modulo_wall_time():
    cfg = build_config(MINIMAL)
    strip = lambda text: re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', text)
    a = render(execute("solve", cfg))
    b = render(execute("solve", cfg))
    assert strip(a) == strip(b)


def test_solve_report_has_anchor_roots():
    report = execute("solve", build_config(MINIMAL))
    roots = sorted(row["roots"][0].real for row in report["newton_solutions"])
    assert abs(roots[0] - (-(3 + np.sqrt(5.0)) / 4)) < 1e-6
    assert abs(roots[1] - GOLDEN) < 1e-6
    assert report["expected_count"] == 2
    assert len(report["tq_solutions"]) == 2
    assert report_passed(report)


def test_norm_report_matches_anchor():
    report = execute("norm", build_config(MINIMAL))
    rows = report["norms"]
    assert len(rows) == 2
    top = max(rows, key=lambda row: row["formula"].real)
    mu = build_config(MINIMAL).context().fact.mu
    want = (mu * mu * np.sqrt(5.0) * GOLDEN).real
    assert abs(top["formula"] - want) < 1e-9
    assert top["relative_error"] < 1e-9


def test_complex_numbers_serialize_as_pairs():
    report = execute("spectrum", build_config(MINIMAL))
    text = render(report)
    data = json.loads(text)
    point = data["probes"][0]["point"]
    assert isinstance(point, list) and len(point) == 2
    for check in data["checks"]:
        r = check["residual"]
        assert r == float(f"{r:.15g}")


def test_main_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["verify", "--config", path]) == 0
    capsys.readouterr()
    # an impossible structural tolerance turns the same run into a failure
    assert main(["verify", "--config", path, "--set", "tolerances.structural=1e-300"]) == 1
    capsys.readouterr()
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["verify", "--config", path, "--set", "chain.sites=0"]) == 2
    capsys.readouterr()
    # a triangular twist is valid input the factorization cannot handle
    assert main(["verify", "--config", path, "--set", "twist.kappa_plus=0"]) == 2
    assert "error: kappa_plus * kappa_minus = 0" in capsys.readouterr().err


N2_CONFIG = N3_CONFIG.with_name("n2_generic.json")


@pytest.mark.parametrize(
    "command, config, overrides, field",
    [
        # an infinite tolerance passes any residual, however large
        ("verify", N2_CONFIG, ["chain.c=1e300", "tolerances.structural=Infinity"],
         "tolerances.structural"),
        # a NaN tolerance gated out every Newton set without a word
        ("solve", N2_CONFIG, ["solver.tol=NaN"], "solver.tol"),
        # a NaN inhomogeneity died with a KeyError traceback
        ("verify", N3_CONFIG, ["chain.inhomogeneities=[[NaN,0],[0,0],[0.2,0]]"],
         "chain.inhomogeneities[0]"),
        ("verify", N2_CONFIG, ["chain.c=Infinity"], "chain.c"),
        ("verify", N2_CONFIG, ["twist.kappa_tilde=NaN"], "twist.kappa_tilde"),
        ("verify", N2_CONFIG, ["twist.kappa=[1,Infinity]"], "twist.kappa"),
        ("verify", N2_CONFIG, ["twist.kappa_plus=-Infinity"], "twist.kappa_plus"),
        ("verify", N2_CONFIG, ["twist.kappa_minus=[NaN,0]"], "twist.kappa_minus"),
        ("verify", N2_CONFIG, ["tolerances.onshell=NaN"], "tolerances.onshell"),
    ],
)
def test_non_finite_numbers_exit_2_naming_the_field(capsys, command, config, overrides, field):
    args = [arg for spec in overrides for arg in ("--set", spec)]
    assert main([command, "--config", str(config), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: expected a finite")


@pytest.mark.parametrize("overrides", [[], ["chain.sites=2"], ["seed=3"]])
def test_top_level_list_exits_2_with_or_without_overrides(tmp_path, capsys, overrides):
    path = _write(tmp_path, [MINIMAL])
    args = [arg for spec in overrides for arg in ("--set", spec)]
    assert main(["verify", "--config", path, *args]) == 2
    assert capsys.readouterr().err == "error: top level: expected an object\n"


def test_verify_passes_at_five_sites(capsys):
    # the action residuals are relative to the vector scale, which grows
    # with the chain; absolute ones failed the 1e-10 tolerance from here on
    config = N3_CONFIG
    theta = json.dumps([[0.15 * (k - 2), 0.0] for k in range(5)])
    args = ["--set", "chain.sites=5", "--set", f"chain.inhomogeneities={theta}"]
    assert main(["verify", "--config", str(config), *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(check["passed"] for check in report["checks"])


def test_spectrum_with_huge_coupling(tmp_path, capsys):
    # R(u) = (u/c) I + P is finite for any c, so the monodromy must be too
    path = _write(tmp_path, MINIMAL)
    args = ["--set", "chain.sites=2", "--set", "chain.c=1e300"]
    assert main(["spectrum", "--config", path, *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(check["passed"] for check in report["checks"])


def test_solve_with_huge_coupling(tmp_path, capsys):
    # Newton runs at this c, since the vacuum weights and their derivatives
    # divide by c one factor at a time; Q(u -+ c) in the T-Q fit has
    # coefficients of order c^2 and cannot be represented, which is reported
    path = _write(tmp_path, MINIMAL)
    args = ["--set", "chain.sites=2", "--set", "chain.c=1e300"]
    assert main(["solve", "--config", path, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coupling c = (1e+300+0j) overflows")


def test_main_writes_output_file(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    out = tmp_path / "report.json"
    assert main(["spectrum", "--config", path, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data["command"] == "spectrum"


def test_vacuum_actions_are_scale_relative_on_a_wide_chain():
    # |nu11(u)|0>| is about 4e7 here: absolute vacuum residuals of 4e-9 to
    # 7.5e-9 failed the 1e-10 tolerance, relative ones are about 2e-16
    theta = json.dumps([-45, -30, -15, 0, 15, 30])
    cfg = parse_config(
        str(N3_CONFIG), ["chain.sites=6", f"chain.inhomogeneities={theta}"]
    )
    checks = {c["name"]: c for c in execute("verify", cfg)["checks"]}
    for name in ("nu11_vacuum", "nu22_vacuum", "nu21_vacuum"):
        assert checks[name]["passed"], checks[name]
        assert checks[name]["residual"] < 1e-14
    # the raising closure cancels terms up to 1e8 times its result here; it
    # passes because its gap is relative to the sum of the term norms
    assert all(c["passed"] for c in checks.values())
    assert checks["raising_closure"]["residual"] < 1e-14


def _rebind(monkeypatch, original, replacement) -> None:
    """Point every reference a twistchain module holds to `original` at
    `replacement`."""
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "twistchain":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_builds(monkeypatch) -> Counter:
    """Count the operator builds, wherever a module holds the builder."""
    import twistchain

    counts = Counter()
    for name in ("build_monodromy", "build_modified_operators", "build_transfer"):
        original = getattr(twistchain, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    return counts


@pytest.mark.parametrize(
    "command, sites, builds",
    [
        # solve reads its spectrum off the sector blocks, never the dense t(u)
        ("solve", 3, (1, 1, 0)),
        ("spectrum", 3, (1, 0, 1)),
        ("norm", 3, (1, 1, 0)),
        ("overlap", 3, (1, 1, 0)),
        # the Hamiltonian route check reads only coefficients 0 and 1 of
        # the homogeneous chain's monodromy, built without a family
        ("verify", 4, (1, 1, 0)),
    ],
)
def test_each_operator_is_built_once_per_command(monkeypatch, command, sites, builds):
    theta = json.dumps([0.15 * (k - (sites - 1) / 2) for k in range(sites)])
    cfg = parse_config(
        str(N3_CONFIG), [f"chain.sites={sites}", f"chain.inhomogeneities={theta}"]
    )
    counts = _count_builds(monkeypatch)
    execute(command, cfg)
    got = tuple(
        counts[name]
        for name in ("build_monodromy", "build_modified_operators", "build_transfer")
    )
    assert got == builds


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_verify_and_spectrum_pass_at_huge_coupling(capsys, command):
    # the monodromy is stored in z = u/c with O(1) coefficients; stored in u
    # they underflowed at this c and verify failed 12 checks
    assert main([command, "--config", str(N2_CONFIG), "--set", "chain.c=1e300"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(check["passed"] for check in report["checks"])


@pytest.mark.parametrize("command", ["norm", "overlap"])
def test_a_check_over_no_root_set_fails(capsys, command):
    # one Newton step reaches no on-shell set; a maximum over nothing is no
    # evidence, so the check fails and says how many sets it saw
    assert main([command, "--config", str(N2_CONFIG), "--set", "solver.max_iter=1"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["sets_checked"] == 0
    assert not check["passed"]


def test_norm_and_overlap_count_the_sets_they_check():
    cfg = build_config(MINIMAL)
    for command in ("norm", "overlap"):
        (check,) = execute(command, cfg)["checks"]
        assert check["sets_checked"] == 2
        assert check["passed"]


@pytest.mark.parametrize(
    "config, entry",
    [(N2_CONFIG, "kappa_tilde"), (N2_CONFIG, "kappa_plus"),
     (N2_CONFIG.with_name("u1_diagonal.json"), "kappa")],
)
def test_an_overflowing_twist_exits_2_naming_it(capsys, config, entry):
    # the squares in the factorization leave the float range; this raised
    # an OverflowError traceback from (trace K) ** 2
    args = ["--set", f"twist.{entry}=1e308"]
    assert main(["verify", "--config", str(config), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: twist K = [[")
    assert "1e+308" in captured.err and "overflows its factorization" in captured.err


@pytest.mark.parametrize(
    "override, field",
    [
        # read as one site
        ("chain.sites=true", "chain.sites"),
        # died with a TypeError traceback in the Newton solver
        ("solver.starts=true", "solver.starts"),
        ("solver.seed=false", "solver.seed"),
        ("chain.c=true", "chain.c"),
        ("chain.inhomogeneities=[[true,0],[0,0]]", "chain.inhomogeneities[0]"),
        ("solver.tol=true", "solver.tol"),
    ],
)
def test_json_booleans_are_not_numbers(capsys, override, field):
    assert main(["solve", "--config", str(N2_CONFIG), "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: expected")


def _grid_config(sites: int, *overrides: str):
    theta = json.dumps([0.15 * (k - (sites - 1) / 2) for k in range(sites)])
    return parse_config(
        str(N3_CONFIG),
        [f"chain.sites={sites}", f"chain.inhomogeneities={theta}", *overrides],
    )


def test_spectrum_reports_power_sums_of_the_dense_matrix():
    for config in (N2_CONFIG, N3_CONFIG, N3_CONFIG.with_name("u1_diagonal.json")):
        checks = {c["name"]: c for c in execute("spectrum", parse_config(str(config)))["checks"]}
        assert set(checks) == {"transfer_commutation", "transfer_power_sums"}
        assert checks["transfer_power_sums"]["passed"]
        assert checks["transfer_power_sums"]["residual"] < 1e-14


def test_power_sums_fail_when_the_twist_frame_is_wrong(monkeypatch, capsys):
    # sectors built with alpha = beta = tr K / 2 keep tr t(u) (tr t11 =
    # tr t22 by spin flip) but not tr t(u)^2
    import twistchain.twist as twist

    _rebind(monkeypatch, twist.twist_alpha, lambda tw: tw.trace / 2)
    assert main(["spectrum", "--config", str(N3_CONFIG)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["transfer_commutation"]["passed"]
    assert not checks["transfer_power_sums"]["passed"]
    assert checks["transfer_power_sums"]["residual"] > 1e-3


@pytest.mark.parametrize("command", ["spectrum", "solve"])
def test_no_eigen_solve_is_larger_than_a_sector(monkeypatch, command):
    # at N = 6 the largest sector holds C(6, 3) = 20 states of the 64
    import twistchain.linalg as linalg

    sizes = []
    for original in (linalg.eigenvalues, linalg.eigenpairs):

        def sized(m, _original=original):
            sizes.append(len(m))
            return _original(m)

        _rebind(monkeypatch, original, sized)
    execute(command, _grid_config(6, "solver.starts=20"))
    assert sizes and max(sizes) == 20


_TINY_C_ERROR = (
    "error: chain.c: the monodromy coefficients (theta/c)**k overflow at c = (1e-300+0j)\n"
)


def test_spectrum_at_vanishing_coupling_exits_2(capsys):
    # theta/c overflows the coefficients at this c: the monodromy build must
    # stop and name the coupling, never give a traceback or a nan spectrum
    assert main(["spectrum", "--config", str(N2_CONFIG), "--set", "chain.c=1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _TINY_C_ERROR


@pytest.mark.parametrize("c", ["1e-100", "1e-150"])
def test_verify_at_tiny_coupling_exits_2_naming_it(capsys, c):
    # the coefficients (theta/c)**k are finite here, but verify draws its
    # points at scale 1, so u/c ~ 1/c and the operator products overflow;
    # that must stop the run naming the coupling, not print nan residuals
    assert main(["verify", "--config", str(N2_CONFIG), "--set", f"chain.c={c}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: chain.c: the operators and their products at the verify points "
        f"overflow at c = ({c}+0j)\n"
    )


@pytest.mark.parametrize("command", ["verify", "solve", "norm", "overlap"])
def test_every_command_at_vanishing_coupling_exits_2_naming_it(capsys, command):
    # the monodromy is built before any other numerics with c, so Newton and
    # the vacuum weights never run on an overflowing coupling
    assert main([command, "--config", str(N2_CONFIG), "--set", "chain.c=1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _TINY_C_ERROR
