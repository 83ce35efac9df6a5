#!/usr/bin/env python3
"""Sweep claimed constants across a grid and record which ones the
falsifier refutes — the empirical transition should sit at the true
constant.  Emits a CSV for plotting.

    python scripts/falsify_sweep.py --oracle separable_cubic --params 3 1 \
        --lo 0.5 --hi 4.0 --steps 15 --seed 42 --csv sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from hessfree.estimate import ProbeLog, SearchBudget, falsify
from hessfree.oracles import builtin


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--oracle", required=True)
    ap.add_argument("--params", nargs="*", type=float, default=[])
    ap.add_argument("--lo", type=float, default=0.25)
    ap.add_argument("--hi", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=16)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--budget", type=int, default=5000)
    ap.add_argument("--csv", help="optional CSV output path")
    args = ap.parse_args()

    try:
        o = builtin(args.oracle, args.params)
        budget = SearchBudget(
            two_point_pairs=args.budget * 2 // 5,
            random_configs=args.budget * 2 // 5,
            ascent_steps=args.budget // 5,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    print(f"{'claimed_L':>10s} {'refuted':>8s} {'probes':>8s} {'margin':>12s}")
    for claimed in np.linspace(args.lo, args.hi, args.steps):
        log = ProbeLog()
        cert = falsify(o, float(claimed), budget, log=log)
        refuted = cert is not None
        probes = log.count
        margin = cert.margin if refuted else ""
        print(f"{claimed:10.4f} {str(refuted):>8s} {probes:>8d} "
              f"{margin if margin == '' else f'{margin:12.4g}'}")
        rows.append({"claimed_L": float(claimed), "refuted": refuted,
                     "probes": probes, "margin": margin})

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=["claimed_L", "refuted", "probes", "margin"])
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
