"""Scans the multi-start root finder against the known state count.

For each (start budget, seed) pair, runs the Newton solver and reports
which of the expected distinct root sets were missed, and which Newton sets
the reference lacks, so sampling and over-counting regressions are visible
before they reach the test suite.  The eigenvalue fitter provides the
reference list, hence "missed" means a genuinely absent basin rather than a
dedup artifact.  The exit status is 1 when any run missed or added a set.

Usage:
    python scripts/completeness_scan.py --config configs/n3_generic.json \
        --seeds 1 2 3 --starts 200 400
"""

import argparse
import time

from twistchain.cli import parse_config
from twistchain.solver import classify_solutions, solve_newton, solve_tq_fit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--starts", type=int, nargs="+", default=[200, 400])
    ap.add_argument("--set", dest="overrides", action="append", default=[])
    args = ap.parse_args(argv)

    cfg = parse_config(args.config, args.overrides)
    ctx = cfg.context()
    reference = solve_tq_fit(ctx, tol=cfg.tol)
    print(f"sites={ctx.sites} expected={2 ** ctx.sites} "
          f"reference={len(reference)} root sets from the eigenvalue fitter")

    worst = 0
    for starts in args.starts:
        for seed in args.seeds:
            t0 = time.time()
            sols = solve_newton(
                ctx, starts=starts, seed=seed, max_iter=cfg.max_iter, tol=cfg.tol
            )
            match = classify_solutions(sols, reference)
            missed = [
                [f"{complex(z):.4f}" for z in reference[k].roots]
                for k in match.unmatched_b
            ]
            extra = [
                [f"{complex(z):.4f}" for z in sols[k].roots]
                for k in match.unmatched_a
            ]
            worst = max(worst, len(missed) + len(extra))
            print(f"starts={starts:5d} seed={seed}  found={len(sols)}"
                  f"  missed={missed if missed else 'none'}"
                  f"  extra={extra if extra else 'none'}"
                  f"  ({time.time() - t0:.1f}s)")
    return 1 if worst else 0


if __name__ == "__main__":
    raise SystemExit(main())
