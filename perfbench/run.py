"""twistchain benchmark: one workload per invocation, one JSON line at the end.

    python3 perfbench/run.py --workload solve-n3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --scaling

Run it from the repository root.  The package is imported from ``src/``
of that tree, never from an installed copy.  With ``--trace 0`` the last
line carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the per-layer metrics of a traced run (see README.md in this directory).
Exit code 0 means a result was printed; its ``correct`` field says
whether the outputs agreed with the dense reference and repeated exactly
between passes.  Without a package to measure the exit code is 2.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it, so it is fixed
# here: never above the cores this process may run on, since oversubscribing
# a small machine only adds noise.
_CORES = len(os.sched_getaffinity(0))
_WANT = os.environ.get("OPENBLAS_NUM_THREADS", "")
BLAS_THREADS = min(int(_WANT), _CORES) if _WANT.isdigit() and int(_WANT) > 0 else _CORES
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

# numpy loads here, before any set-up is timed
from spans import PASS_SPAN, RAISED_TYPES, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("linalg", "chain", "twist", "bethe", "states", "solver", "overlaps", "cli")
SETUP_REPEATS = 15
RESIDUAL_FLOOR = 1e-17  # below double rounding; keeps exact zeros finite

# spans whose call counts a traced run reports, besides every self time
CALL_METRICS = (
    "bethe.bethe_residuals", "bethe.bethe_jacobian", "bethe.transfer_eigenvalue",
    "bethe.eigenvalue_gradient", "states.w0", "states.build_bethe_vector",
    "states.build_dual_vector", "chain.build_monodromy", "linalg.poly_eval",
    "linalg.eigenpairs",
)


def fresh_import():
    """Import the package from src/ as a first-time caller would."""
    for key in [k for k in sys.modules if k == "twistchain" or k.startswith("twistchain.")]:
        del sys.modules[key]
    tc = types.SimpleNamespace(
        **{name: importlib.import_module("twistchain." + name) for name in LAYERS})
    if not Path(tc.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"twistchain resolved to {tc.cli.__file__}, not {SRC}")
    return tc


def set_up(name: str, seed: int):
    """Repeated set-up; returns the last workload and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tc = fresh_import()
        workload = WORKLOADS[name](tc, ROOT, seed)
        times.append(time.perf_counter() - t0)
    return tc, workload, statistics.median(times)


def passes(workload, seconds: float, minimum: int, tracer=None):
    """Closed loop: start another pass only while it should still fit."""
    times, results, layer_runs = [], [], []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        t0 = time.perf_counter()
        out, op_times = workload.run() if tracer is None else tracer.span(PASS_SPAN, workload.run)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
            layer_runs.append(layer_snapshot(tracer))
        results.append(workload.evaluate(out))
        results[-1].op_times = op_times
        spent = time.perf_counter() - begin
        if len(times) >= minimum and spent + statistics.median(times) > seconds:
            return times, results, layer_runs


def layer_snapshot(tracer: Tracer) -> dict:
    snap = {}
    for name in list(TRACED.values()) + [PASS_SPAN]:
        snap[name + ".self_s"] = tracer.self_s[name]
    for name in CALL_METRICS:
        snap[name + ".calls"] = tracer.calls[name]
    starts = tracer.counts["solver.newton.starts"]
    jac = tracer.newton_calls["bethe.bethe_jacobian"]
    snap["solver.newton.jacobians_per_start"] = jac / starts if starts else 0.0
    snap["solver.newton.residuals_per_jacobian"] = (
        tracer.newton_calls["bethe.bethe_residuals"] / jac if jac else 0.0)
    snap["solver.newton.sets_per_start"] = (
        tracer.counts["solver.newton.sets"] / starts if starts else 0.0)
    snap["solver.tq.flagged"] = tracer.counts["solver.tq.flagged"]
    snap["overlaps.raised"] = tracer.counts["overlaps.raised"]
    for kind in RAISED_TYPES + ("other",):
        snap["overlaps.raised." + kind] = tracer.counts["overlaps.raised." + kind]
    return snap


def fastest_pass(results) -> float:
    """A pass made of each step's fastest time over the passes.

    A shared machine slows down in spells of tens of seconds to minutes, so
    a run's median pass mostly says which spell it fell in; each step's
    fastest repeat is much less affected (BASELINE.md)."""
    steps = [r.op_times for r in results]
    if any(len(s) != len(steps[0]) for s in steps):
        return min(sum(s) for s in steps)  # not the same steps: whole passes
    return sum(min(column) for column in zip(*steps))


def summarize(results, timed):
    """End-to-end metrics and run totals.  `results` holds every pass,
    `timed` the untraced ones, which alone are timed."""
    first = results[0]
    # Counted once per distinct op, not once per repeat: every pass runs the
    # same ops, and the determinism guard requires the same outcomes.  A
    # pass that disagrees with the reference fails all of its ops.
    attempted = max(r.ops for r in results)
    failed = max(len(r.failures) if r.ref_ok else r.ops for r in results)
    digits = [-math.log10(max(float(x), RESIDUAL_FLOOR)) for x in first.residuals]
    # a gap of one spectral radius or more (inf: a value left unmatched)
    # agrees to no digit
    worst_gap = min(max(r.ref_gap for r in results), 1.0)
    metrics = {
        "wall_s": (fastest_pass([r for r in timed if r.ref_ok] or timed), "s"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
        "complete_frac": (first.found / first.expected, "ratio"),
        "accuracy_dec": (statistics.fmean(digits) if digits else 0.0, "dec"),
        "ref_dec": (-math.log10(max(worst_gap, RESIDUAL_FLOOR)), "dec"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the one-off per-layer scaling table instead")
    args = parser.parse_args(argv)
    if not args.scaling and args.workload is None:
        parser.error("--workload is required unless --scaling is given")

    if not (SRC / "twistchain" / "__init__.py").is_file():
        print(f"error: no twistchain package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as exc:
        print(f"error: cannot import twistchain: {exc}", file=sys.stderr)
        return 2

    if args.scaling:
        import scaling

        scaling.table(fresh_import(), ROOT)
        return 0

    tc, workload, setup_s = set_up(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: set-up {setup_s:.4f} s "
          f"(median of {SETUP_REPEATS}), BLAS threads {BLAS_THREADS} of {_CORES} cores")

    if args.trace:
        # untraced and traced passes take turns, at least two of each, so
        # that drift in machine speed hits both sides alike; the wrappers
        # stay installed but switched off during untraced passes
        tracer = Tracer()
        tracer.install()
        times, t_times, results, t_results, layer_runs = [], [], [], [], []
        begin = time.perf_counter()
        while len(t_times) < 2 or (time.perf_counter() - begin + statistics.median(times)
                                   + statistics.median(t_times) <= args.seconds):
            step = passes(workload, 0, 1)
            times += step[0]
            results += step[1]
            step = passes(workload, 0, 1, tracer)
            t_times += step[0]
            t_results += step[1]
            layer_runs += step[2]
        mono = max(ref.monodromy_rel_err(tc) for ref in workload.refs)
        overhead = statistics.median(t_times) / statistics.median(times) - 1
        results += t_results
    else:
        times, results, _ = passes(workload, args.seconds, 2)

    for i, (t, r) in enumerate(zip(times + (t_times if args.trace else []), results)):
        print(f"pass {i}: {t:.4f} s, {r.ops} ops, {len(r.failures)} failed, "
              f"reference {'ok' if r.ref_ok else 'MISMATCH'} (worst gap {r.ref_gap:.2e})")
    metrics, attempted, failed = summarize(results, results[:len(times)])
    deterministic = all(r.fingerprint == results[0].fingerprint for r in results[1:])
    correct = deterministic and all(r.ref_ok for r in results)
    if not deterministic:
        print("DETERMINISM: passes returned different root sets, verdicts or residuals")
    names = Counter(f.split(":", 1)[1] for f in results[0].failures)
    print(f"failed ops per pass: {len(results[0].failures)} of {results[0].ops}"
          + "".join(f"\n  {n}: {k}" for n, k in sorted(names.items())))
    print(f"wall_s: {metrics['wall_s'][0]:.4f} s from the fastest of each step over "
          f"{len(times)} passes; whole passes: median {statistics.median(times):.4f} s, "
          f"fastest {min(times):.4f} s, slowest {max(times):.4f} s")

    if args.trace:
        layers = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        layers["chain.monodromy_rel_err"] = mono
        layers["trace_overhead_frac"] = overhead
        layers["blas_threads"] = BLAS_THREADS
        print(f"Newton starts per traced pass: {tracer.counts['solver.newton.starts']}")
        covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"traced pass {statistics.median(t_times):.4f} s, untraced "
              f"{statistics.median(times):.4f} s, self times sum to {covered:.4f} s")
        for name, value in sorted(layers.items()):
            print(f"  {name} = {value}")
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics["setup_s"] = (setup_s, "s")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value} {unit}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_frac", "_per_start", "_per_jacobian", "_rel_err")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
