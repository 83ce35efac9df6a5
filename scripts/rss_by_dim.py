#!/usr/bin/env python3
"""Peak resident memory and wall time of the CLI commands as d grows.

    python scripts/rss_by_dim.py [--dims 8 32 64 128] [--seed 42] [--src SRC] \\
        [-- extra hessfree flags]

`estimate`, `verify` and `slices` each run at every d on
`separable_cubic 3 1 ... 1` (d coefficients, known L = 3; `verify` and
`slices` check L = 3), one run per fresh interpreter with PYTHONPATH set
to SRC (default: this checkout's src).  Each row gives the process's peak
RSS (`ru_maxrss`, interpreter and numpy included) and the command's wall
time.  Flags after `--` go to every run, for example smaller budgets.
The exit status is 1 when a run failed to report or exited 2, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("estimate", "verify", "slices")
L = 3.0

# runs one command and prints its exit code, wall time and peak RSS as JSON
CHILD = """
import json, resource, sys, time
from hessfree.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "wall_s": wall, "maxrss_mb": rss_kb / 1024}))
"""


def argv_for(command: str, dim: int, seed: int, extra: list[str]) -> list[str]:
    argv = [command, "--oracle", "separable_cubic", "--params", repr(L), *["1"] * (dim - 1),
            "--seed", str(seed), "--out", os.devnull]
    if command != "estimate":
        argv += ["--L", repr(L)]
    return argv + extra


def measure(src: Path, command: str, dim: int, seed: int, extra: list[str]) -> dict | None:
    """One run in a fresh interpreter; None when it printed no result."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv_for(command, dim, seed, extra)],
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    extra = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--dims", type=int, nargs="+", default=[8, 32, 64, 128])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args(own)
    if min(args.dims) < 1:
        ap.error("--dims must be >= 1")
    failed = False
    print(f"{'command':<10}{'d':>6}{'exit':>6}{'maxrss_mb':>12}{'wall_s':>10}")
    for command in COMMANDS:
        for dim in args.dims:
            r = measure(args.src, command, dim, args.seed, extra)
            if r is None or r["exit"] == 2:
                failed = True
            if r is None:
                print(f"{command:<10}{dim:>6}{'-':>6}{'-':>12}{'-':>10}")
            else:
                print(f"{command:<10}{dim:>6}{r['exit']:>6}{r['maxrss_mb']:>12.1f}{r['wall_s']:>10.2f}")
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
