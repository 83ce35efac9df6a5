#!/usr/bin/env python3
"""Run the four CLI commands over the zoo on two source trees and print
every report field that differs.

    python scripts/report_diff.py OLD_SRC NEW_SRC [--seeds 5 42] \\
        [--oracles sc2 sc8 ...] [--work DIR] [-- extra hessfree flags]

For every zoo oracle and seed, `estimate`, `falsify` (at L/2), `verify`
and `slices` (each at L and at L/2) run with `--out`, and all but
`slices`, which runs no probe search, with `--csv`.  The convexity-split,
cocoercivity and smoothness witnesses only appear in `verify` below the
constant.  Each run is its own
`python -m hessfree.cli` subprocess with PYTHONPATH set to the tree.
Reports are compared field by field, ignoring `wall_time_s` and the
output paths; CSV files, exit codes and stderr are compared whole, and a
run whose exit code or stderr moved still has its report and CSV
compared.  Each run of a closed-form map also has an expected exit:
`estimate`, and `verify` and `slices` at L, exit 0; `falsify`, and
`verify` and `slices` at L/2, exit 1 on a nonzero map and 0 on a
zero-constant one.  A run off its expected exit is printed for each tree
it happens on, so a failure both trees share shows too.  The exit status
is 1 when anything differs or a run is off its expected exit, and 0
otherwise.  Flags after `--` go to every run, for example smaller
budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run name -> (command, the fraction of L it is given)
RUNS = {
    "estimate": ("estimate", None),
    "falsify": ("falsify", 0.5),
    "verify": ("verify", 1.0),
    "verify_half": ("verify", 0.5),
    "slices": ("slices", 1.0),
    "slices_half": ("slices", 0.5),
}
# name -> (oracle, params, L): L is known_L for the CLOSED_FORM names
ZOO = {
    "cubic1d": ("cubic1d", [1.0], 1.0),
    "sc2": ("separable_cubic", [3.0, 1.0], 3.0),
    "sc8": ("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5], 3.0),
    "poly_map_2d": ("poly_map_2d", [], 2.0),
    "norm_cubed": ("norm_cubed", [], 1.0),
    "logistic_like": ("logistic_like", [], 0.1),
    "rosenbrock": ("rosenbrock", [], 26000.0),
    "affine": ("affine", [], 0.0),
    "quadratic": ("quadratic", [], 0.0),
    "quadratic8": ("quadratic", [float((3 * i + 5 * j) % 7 - 3) for i in range(8) for j in range(8)], 0.0),
}
CLOSED_FORM = {"cubic1d", "sc2", "sc8", "poly_map_2d", "affine", "quadratic", "quadratic8"}
IGNORED = {("wall_time_s",), ("config", "out"), ("config", "csv")}


def _argv(run: str, case: str, seed: int, stem: Path, extra: list[str]) -> list[str]:
    command, fraction = RUNS[run]
    oracle, params, level = ZOO[case]
    argv = [command, "--oracle", oracle, "--seed", str(seed), "--out", f"{stem}.json"]
    if command != "slices":
        argv += ["--csv", f"{stem}.csv"]
    if params:
        argv += ["--params", *map(repr, params)]
    if fraction is not None:
        argv += ["--claimed-L" if command == "falsify" else "--L", repr(level * fraction)]
    return argv + extra


def run_tree(src: Path, out: Path, cases: list[str], seeds: list[int], extra: list[str]) -> None:
    """Every (case, seed, run) on one tree; reports and CSVs go to
    out, exit codes and stderr to out/runs.json."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    runs = {}
    for case in cases:
        for seed in seeds:
            for run in RUNS:
                key = f"{case}-{seed}-{run}"
                argv = _argv(run, case, seed, out / key, extra)
                proc = subprocess.run([sys.executable, "-m", "hessfree.cli", *argv],
                                      env=env, capture_output=True, text=True)
                runs[key] = {"exit": proc.returncode, "stderr": proc.stderr}
    (out / "runs.json").write_text(json.dumps(runs, indent=1, sort_keys=True))


def _field_diffs(a, b, path: tuple = ()) -> list[str]:
    if path in IGNORED:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in sorted(set(a) | set(b))
                for d in _field_diffs(a.get(k, "<absent>"), b.get(k, "<absent>"), (*path, k))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (u, v) in enumerate(zip(a, b)) for d in _field_diffs(u, v, (*path, i))]
    if type(a) is not type(b) or a != b:
        return [f"{'.'.join(map(str, path))}: {a!r} -> {b!r}"]
    return []


def compare(old: Path, new: Path) -> list[str]:
    """Every difference between two run_tree outputs, one line each."""
    diffs = []
    runs_old = json.loads((old / "runs.json").read_text())
    runs_new = json.loads((new / "runs.json").read_text())
    for key in sorted(set(runs_old) | set(runs_new)):
        ro, rn = runs_old.get(key), runs_new.get(key)
        if ro != rn:
            diffs.append(f"{key}: run {ro!r} -> {rn!r}")
        for suffix in (".json", ".csv"):
            fo, fn = old / f"{key}{suffix}", new / f"{key}{suffix}"
            if fo.exists() != fn.exists():
                diffs.append(f"{key}{suffix}: present {fo.exists()} -> {fn.exists()}")
            elif not fo.exists():
                continue
            elif suffix == ".csv":
                if fo.read_bytes() != fn.read_bytes():
                    diffs.append(f"{key}.csv: contents differ")
            else:
                a, b = json.loads(fo.read_text()), json.loads(fn.read_text())
                diffs += [f"{key}: {d}" for d in _field_diffs(a, b)]
    return diffs


def expected_exit(case: str, run: str) -> int | None:
    """The exit code a run must give, or None where L has no closed form."""
    if case not in CLOSED_FORM:
        return None
    return 1 if RUNS[run][1] == 0.5 and ZOO[case][2] > 0.0 else 0


def off_expected(out: Path, label: str) -> list[str]:
    """One line for each run of a run_tree output off its expected exit."""
    lines = []
    for key, r in sorted(json.loads((out / "runs.json").read_text()).items()):
        case, _, run = key.split("-")
        want = expected_exit(case, run)
        if want is not None and r["exit"] != want:
            lines.append(f"{label} {key}: exit {r['exit']}, expected {want}; stderr {r['stderr']!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    extra = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path, help="the reference tree's src directory")
    ap.add_argument("new", type=Path, help="the changed tree's src directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 42])
    ap.add_argument("--oracles", nargs="+", default=list(ZOO), choices=list(ZOO))
    ap.add_argument("--work", type=Path, help="keep reports here (a temporary directory when omitted)")
    args = ap.parse_args(own)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for label, src in (("old", args.old), ("new", args.new)):
            run_tree(src, work / label, args.oracles, args.seeds, extra)
        diffs = compare(work / "old", work / "new")
        off = off_expected(work / "old", "old") + off_expected(work / "new", "new")
    for line in diffs + off:
        print(line)
    runs = len(args.oracles) * len(args.seeds) * len(RUNS)
    print(f"{runs} runs per tree, {len(diffs)} differences" + (f", {len(off)} off their expected exit" if off else ""))
    return 1 if diffs or off else 0


if __name__ == "__main__":
    sys.exit(main())
