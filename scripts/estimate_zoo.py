#!/usr/bin/env python3
"""Run the probe-based estimator and the finite-difference cross-check
over the whole builtin zoo and print a comparison table.

    python scripts/estimate_zoo.py --seed 42 --budget 10000 [--json zoo.json]
"""

import argparse
import json
import sys

from hessfree.estimate import SearchBudget, cross_validate
from hessfree.oracles import BUILTIN_NAMES, builtin

DEFAULT_PARAMS = {"cubic1d": [1.0], "separable_cubic": [3.0, 1.0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--budget", type=int, default=10_000,
                    help="total probe budget (split 40/40/20 across pairs/configs/ascent)")
    ap.add_argument("--domain-radius", type=float, default=5.0)
    ap.add_argument("--json", help="optional JSON output path")
    args = ap.parse_args()

    try:
        budget = SearchBudget(
            two_point_pairs=args.budget * 2 // 5,
            random_configs=args.budget * 2 // 5,
            ascent_steps=args.budget // 5,
            seed=args.seed,
            domain_radius=args.domain_radius,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    print(f"{'oracle':28s} {'known_L':>9s} {'L_probe':>12s} {'L_fd':>12s} {'consistent':>10s}")
    for name in BUILTIN_NAMES:
        o = builtin(name, DEFAULT_PARAMS.get(name, []))
        rep = cross_validate(o, budget, fd_pairs=args.budget)
        known = "-" if o.known_L is None else f"{o.known_L:g}"
        print(
            f"{o.label:28s} {known:>9s} {rep.l_probe:12.6g} {rep.l_fd:12.6g} "
            f"{str(rep.consistent):>10s}"
        )
        rows.append(
            {
                "oracle": o.label,
                "known_L": o.known_L,
                "l_probe": rep.l_probe,
                "l_fd": rep.l_fd,
                "consistent": rep.consistent,
            }
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "budget": args.budget, "rows": rows}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
