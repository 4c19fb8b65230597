"""Writes the set of CLI reports whose bytes a change should leave alone.

Runs each command of ``RUNS`` through ``twistchain.cli.main`` and writes
its report to OUTDIR/<name>.json as rendered JSON without ``wall_time_s``.
OUTDIR/runs.txt lists every run with its exit code, followed by what it
wrote to stderr (the ``error: ...`` line of a run that exits 2) and one
``warning: Category: message`` line per warning it raised.  Nothing in the
output depends on timing or on where the code sits, so ``diff -r`` of the
outputs of two trees is a byte-identity check of their reports.

The runs are the five commands on the four bundled configs, ``verify``
and ``spectrum`` on the grid chain (the n3_generic twist with
theta_k = 0.15 (k - (N - 1)/2) and c = 1) at N = 1..8, ``solve`` on the
grid chain at N = 1..4, ``norm`` and ``overlap`` on it at N = 1..7, and
``spectrum`` on n2_generic with its inhomogeneities 1e50 apart, whose
operator products come near the float range.

Usage:
    PYTHONPATH=src python scripts/report_set.py OUTDIR
"""

import argparse
import contextlib
import io
import json
import warnings
from pathlib import Path
from typing import NamedTuple

from twistchain.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("verify", "spectrum", "solve", "overlap", "norm")


class Run(NamedTuple):
    name: str
    command: str
    config: Path
    overrides: tuple


def grid_overrides(sites: int) -> tuple:
    theta = json.dumps([0.15 * (k - (sites - 1) / 2) for k in range(sites)])
    return (f"chain.sites={sites}", f"chain.inhomogeneities={theta}")


def runs() -> list[Run]:
    out = [
        Run(f"{config.stem}-{command}", command, config, ())
        for config in sorted(CONFIGS.glob("*.json"))
        for command in COMMANDS
    ]
    grid = CONFIGS / "n3_generic.json"
    for commands, sizes in (
        (("verify", "spectrum"), range(1, 9)),
        (("solve",), range(1, 5)),
        (("norm", "overlap"), range(1, 8)),
    ):
        out += [
            Run(f"grid-n{sites}-{command}", command, grid, grid_overrides(sites))
            for command in commands
            for sites in sizes
        ]
    spread = ("chain.inhomogeneities=[[1e50,0],[0,0]]",)
    out.append(Run("n2_generic-spectrum-spread-1e50", "spectrum", CONFIGS / "n2_generic.json", spread))
    return out


def run_one(run: Run) -> tuple[int, str, str]:
    """(exit code, report text or "", stderr lines) of one run."""
    argv = [run.command, "--config", str(run.config)]
    for spec in run.overrides:
        argv += ["--set", spec]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except Exception as exc:  # an escaped exception is a traceback, exit 1
                code = 1
                print(f"traceback: {type(exc).__name__}: {exc}", file=stderr)
    lines = stderr.getvalue() + "".join(
        f"warning: {w.category.__name__}: {w.message}\n" for w in caught
    )
    text = ""
    if stdout.getvalue():
        report = json.loads(stdout.getvalue())
        del report["wall_time_s"]
        text = json.dumps(report, indent=2) + "\n"
    return code, text, lines


def write(outdir: Path, selected=None) -> dict[str, int]:
    """Write the reports of ``selected`` runs (all of ``runs()`` by
    default) and runs.txt into ``outdir``; returns name -> exit code."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    codes, index = {}, []
    for run in runs() if selected is None else selected:
        code, text, lines = run_one(run)
        if text:
            (outdir / f"{run.name}.json").write_text(text)
        codes[run.name] = code
        index.append(f"{run.name} exit {code}\n" + "".join(f"  {line}\n" for line in lines.splitlines()))
    (outdir / "runs.txt").write_text("".join(index))
    return codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args(argv)
    codes = write(args.outdir)
    print(f"{len(codes)} runs written to {args.outdir}: "
          f"{sum(c == 0 for c in codes.values())} exit 0, "
          f"{sum(c == 1 for c in codes.values())} exit 1, "
          f"{sum(c == 2 for c in codes.values())} exit 2")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
