import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closed_form_anchors_script_passes():
    assert _load("closed_form_anchors").main() == 0


def test_completeness_scan_finds_every_set(capsys):
    config = str(ROOT / "configs" / "n3_generic.json")
    scan = _load("completeness_scan")
    assert scan.main(["--config", config, "--seeds", "1", "--starts", "400"]) == 0
    assert "missed=none" in capsys.readouterr().out
