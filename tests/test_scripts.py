import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closed_form_anchors_script_passes():
    assert _load("closed_form_anchors").main() == 0


def test_completeness_scan_finds_every_set(capsys):
    config = str(ROOT / "configs" / "n3_generic.json")
    scan = _load("completeness_scan")
    assert scan.main(["--config", config, "--seeds", "1", "--starts", "400"]) == 0
    out = capsys.readouterr().out
    assert "missed=none" in out and "extra=none" in out


def test_report_set_writes_reports_without_wall_time(tmp_path):
    report_set = _load("report_set")
    every = report_set.runs()
    assert len(every) == 59 and len({run.name for run in every}) == 59
    selected = [run for run in every if run.config.stem == "config_a"]
    assert [run.command for run in selected] == list(report_set.COMMANDS)
    codes = report_set.write(tmp_path, selected)
    assert codes == {run.name: 0 for run in selected}
    for run in selected:
        report = json.loads((tmp_path / f"{run.name}.json").read_text())
        assert report["command"] == run.command and "wall_time_s" not in report
    assert (tmp_path / "runs.txt").read_text() == "".join(f"{run.name} exit 0\n" for run in selected)
    # a run that stops on bad input records its error line and exit code
    bad = report_set.Run("bad", "verify", selected[0].config, ("chain.sites=0",))
    assert report_set.write(tmp_path / "bad", [bad]) == {"bad": 2}
    assert not (tmp_path / "bad" / "bad.json").exists()
    lines = (tmp_path / "bad" / "runs.txt").read_text().splitlines()
    assert lines[0] == "bad exit 2" and lines[1].startswith("  error: chain.sites")


def test_traced_functions_resolve_on_the_package():
    # the benchmark's tracer rebinds these by name when installed; a renamed
    # or deleted one would make every traced run fail
    spans = _load("spans", ROOT / "perfbench")
    missing = []
    for (module, attr), span in spans.TRACED.items():
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert missing == []


def test_benchmark_workloads_run_on_the_package(monkeypatch):
    # one pass of each benchmark workload, the structure sweep cut to four
    # sites, and one scaling row set, on the package the other tests
    # imported: a changed signature that the benchmark relies on fails here
    # instead of in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    scaling = importlib.import_module("scaling")
    layers = ("linalg", "chain", "twist", "bethe", "states", "solver", "overlaps", "cli")
    tc = SimpleNamespace(
        **{name: importlib.import_module(f"twistchain.{name}") for name in layers}
    )

    class SmallSweep(workloads.WORKLOADS["structure-sweep"]):
        MAX_SITES = 4

    kinds = [workloads.WORKLOADS["solve-n3"], workloads.WORKLOADS["determinants-n5"], SmallSweep]
    for kind in kinds:
        workload = kind(tc, ROOT, 1)
        out, _ = workload.run()
        result = workload.evaluate(out)
        assert result.failures == [] and result.ref_ok, kind.__name__
    assert scaling.rows_for(tc, ROOT, 3)
