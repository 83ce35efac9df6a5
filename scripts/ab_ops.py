#!/usr/bin/env python3
"""Paired A/B of two source trees at op granularity.

    python scripts/ab_ops.py OLD_SRC NEW_SRC [--workload certify] \\
        [--rounds 12] [--seed 1] [-- extra hessfree flags]

One long-lived worker process per tree imports that tree's `hessfree`
and perfbench's harness (`perfbench/harness.py` of this checkout, which
holds the workload mixes), runs the harness's set-up, then runs the ops
it is sent.  Two workers start even when both paths are equal.  Each
round sends both workers the workload's mix, op by op with the same
seeds (`harness.op_seed(seed, round, index)`); both run each op back to
back, the old tree first in even rounds and the new one first in odd
rounds, so a swing in machine speed falls on both.  Each op is timed by
`time.process_time` in its worker, around the harness's `Runner.run`,
which runs the CLI and checks the report; no report is kept.

Printed: the new/old ratio of each round's CPU time, its median and
quartiles and the rounds the new tree took less CPU in; each op's median
CPU time on both trees; and each worker's peak RSS after the same number
of ops.  Flags after `--` go to every op, for example smaller budgets.
The exit status is 1 when an op failed its checks on either tree, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def worker(src: str, workload: str, out: str, seed: str, extra: list[str]) -> None:
    """After set-up, print the mix's op labels as one JSON line, then serve
    'round index' lines from stdin: run op index of the mix at
    harness.op_seed(seed, round, index) and print one JSON line of
    results."""
    sys.path[:0] = [str(PERFBENCH), str(Path(src).resolve())]
    import harness

    harness.setup(workload, Path(out))
    runner = harness.Runner(Path(out), tuple(extra))
    ops = harness.WORKLOADS[workload]
    print(json.dumps([op.label for op in ops]), flush=True)
    for line in sys.stdin:
        rnd, index = map(int, line.split())
        op_seed = harness.op_seed(int(seed), rnd, index)
        t0 = time.process_time()
        outcome = runner.run(ops[index], op_seed)
        cpu = time.process_time() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"seed": op_seed, "cpu_s": cpu, "rss_mb": rss, "problems": outcome.problems}),
              flush=True)


class Worker:
    def __init__(self, src: str, workload: str, out: str, seed: int, extra: list[str]):
        argv = [sys.executable, __file__, "--worker", src, workload, out, str(seed), *extra]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker for {src} did not start")
        self.labels = json.loads(line)

    def run(self, rnd: int, index: int) -> dict:
        self.proc.stdin.write(f"{rnd} {index}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def quartiles(xs: list[float]) -> tuple[float, ...]:
    """(first quartile, median, third quartile) of xs."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    extra = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[: argv.index("--")] if "--" in argv else argv
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old", help="the reference tree's src directory")
    p.add_argument("new", help="the changed tree's src directory")
    p.add_argument("--workload", default="certify", choices=("certify", "refute", "check"))
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(own)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory() as out:
        workers = []
        try:
            for src in (args.old, args.new):
                workers.append(Worker(src, args.workload, out, args.seed, extra))
            labels = workers[0].labels
            cpu = {label: ([], []) for label in labels}
            ratios, failed, rss = [], 0, [0.0, 0.0]
            for rnd in range(args.rounds):
                total = [0.0, 0.0]
                for i, label in enumerate(labels):
                    for side in (0, 1) if rnd % 2 == 0 else (1, 0):
                        res = workers[side].run(rnd, i)
                        total[side] += res["cpu_s"]
                        cpu[label][side].append(res["cpu_s"])
                        rss[side] = res["rss_mb"]
                        if res["problems"]:
                            failed += 1
                            print(f"{('old', 'new')[side]} {label} seed {res['seed']}: {res['problems']}")
                ratios.append(total[1] / total[0])
        finally:
            for w in workers:
                w.close()
    print(f"{len(workers)} workers, {args.workload}, {args.rounds} rounds of {len(labels)} ops, seed {args.seed}")
    q1, med, q3 = quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    print(f"cpu new/old per round: median {med:.3f} [{q1:.3f}, {q3:.3f}], new faster in {wins} of {len(ratios)}")
    for label, (old, new) in cpu.items():
        print(f"  {label}: old {statistics.median(old):.4f} s, new {statistics.median(new):.4f} s")
    print(f"peak rss after {args.rounds * len(labels)} ops: old {rss[0]:.2f} MB, new {rss[1]:.2f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:6], sys.argv[6:])
    else:
        sys.exit(main())
