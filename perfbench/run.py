"""Entry point of the hessfree benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of the current directory.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the environment and the run.  Reports, the run record and the
spans of a traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7  # this process plus six fresh interpreters


def _import_library():
    """Import hessfree from ./src only; never from an installed copy."""
    src = Path("src").resolve()
    if not (src / "hessfree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hessfree sources under {src}; run from the root of a checkout")
    sys.path[:0] = [str(HERE), str(src)]
    import harness

    if not Path(harness.hessfree.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: hessfree was imported from {harness.hessfree.__file__}, not {src}")
    return harness


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="hessfree benchmark")
    p.add_argument("--workload", required=True, choices=("certify", "refute", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")

    harness = _import_library()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    harness.setup(args.workload, out_dir)
    own_setup = time.perf_counter() - _T0
    runner = harness.Runner(out_dir)
    if args.trace:
        span_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        run = harness.measure_traced(args.workload, args.seed, args.seconds, runner, span_path)
    else:
        run = harness.measure(args.workload, args.seed, args.seconds, runner,
                              [own_setup], SETUP_REPEATS - 1)

    record = {
        "env": harness.environment(args.workload, args.seed, args.seconds, bool(args.trace),
                                   runner.budget),
        "rounds": run.rounds,
        "op_samples": len(run.outcomes),
        "loop_s": run.loop_s,
        "setup_s": own_setup,
        **run.extra,
        "ops": [
            {"op": o.op.label, "seed": o.seed, "wall_s": o.wall, "exit": o.code,
             "report_bytes": o.report_bytes, "problems": o.problems}
            for o in run.outcomes
        ],
    }
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.outcomes),
        "failed": run.failed,
        "metrics": run.metrics,
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    for o in run.outcomes:
        for problem in o.problems:
            print(f"perfbench: {o.op.label} seed {o.seed}: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
