import importlib.util
from pathlib import Path

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
