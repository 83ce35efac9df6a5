"""Workloads, ground-truth checks and metrics of the hessfree benchmark.

Every op is one call of the public CLI entry ``hessfree.cli.main(argv)``
in this process, with ``--out`` pointing at a report file that is read
back and checked against closed-form ground truth.  The library runs at
its defaults: budgets are not passed, and ``HESSFREE_THREADS`` is left as
the caller's environment has it.

A workload is a fixed list of ops (its mix).  A run repeats the mix in
whole rounds until ``seconds`` have passed, so every run measures the same
mix, and each op draws its own seed from (run seed, round, index).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import hessfree
import hessfree.cli
from hessfree import Configuration, ProbeResult, SimplexWeights, builtin, replay

import spans

# Closed-form Hessian-Lipschitz constants: cubic1d c -> |c|,
# separable_cubic -> max |c_i|, poly_map_2d -> 2.
ORACLES = {
    "cubic1d": ("cubic1d", ("1",), 1.0),
    "sc2": ("separable_cubic", ("3", "1"), 3.0),
    "poly_map_2d": ("poly_map_2d", (), 2.0),
    "sc8": ("separable_cubic", ("3", "1", "0.5", "2", "1", "1", "0.25", "1.5"), 3.0),
}

SOUND_RTOL = 1e-8  # an l_lower above known_L (1 + this) is unsound
REFUTE_FACTORS = (0.25, 0.5, 0.9, 0.97)

# Small budgets for the warm-up op inside set-up and for the self-tests.
TINY = ("--budget-configs", "64", "--budget-pairs", "128", "--budget-ascent", "32",
        "--fd-pairs", "64", "--pairs", "16")


@dataclasses.dataclass(frozen=True)
class Op:
    command: str
    oracle: str
    level: float | None = None  # claimed L (falsify) or L (verify, slices)

    @property
    def known_L(self) -> float:
        return ORACLES[self.oracle][2]

    @property
    def label(self) -> str:
        return f"{self.command}:{self.oracle}" + ("" if self.level is None else f"@{self.level!r}")

    def argv(self, seed: int, out: str, budget: tuple[str, ...] = ()) -> list[str]:
        name, params, _ = ORACLES[self.oracle]
        argv = [self.command, "--oracle", name]
        if params:
            argv += ["--params", *params]
        if self.command == "falsify":
            argv += ["--claimed-L", repr(self.level)]
        elif self.command in ("verify", "slices"):
            argv += ["--L", repr(self.level)]
        return argv + ["--seed", str(seed), "--out", out, *budget]


WORKLOADS = {
    # the full estimate path: two-point search, random configs, ascent and
    # the FD cross-check; d from 1 to 8, scalar and vector oracles
    "certify": tuple(Op("estimate", k) for k in ("cubic1d", "sc2", "poly_map_2d", "sc8")),
    # the same probe layer stopping at the first violation
    "refute": tuple(Op("falsify", k, ORACLES[k][2] * f)
                    for k in ("cubic1d", "sc2", "poly_map_2d") for f in REFUTE_FACTORS),
    # the check suites, which run only here
    "check": tuple(Op(c, k, ORACLES[k][2])
                   for k in ("sc2", "poly_map_2d", "sc8") for c in ("verify", "slices")),
}


# Copies of the mix in one round of an untraced run, each op with its own
# seed.  One refutation's latency varies by about 15% with thread timing,
# so refute runs its mix twice (about 30 s) to steady the run's median;
# the other mixes already take 20-30 s.  A traced run uses one copy,
# since it runs every op twice.
COPIES = {"certify": 1, "refute": 2, "check": 1}


def op_seed(seed: int, rnd: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    op: Op
    seed: int
    wall: float
    code: int | None
    report: dict | None
    report_bytes: int
    nonconverged: int
    problems: list[str]


class Runner:
    """Runs ops through ``cli_main`` and checks each report.

    ``cli_main`` is the library's entry point; the self-tests substitute a
    wrapper that tampers with reports to prove the checks catch it.
    """

    def __init__(self, out_dir: Path, budget: tuple[str, ...] = ()):
        self.out_dir = out_dir
        self.budget = budget
        self.report_path = str(out_dir / f"report-{os.getpid()}.json")
        self.cli_main = hessfree.cli.main

    def run(self, op: Op, seed: int, tracer: spans.Tracer | None = None) -> Outcome:
        argv = op.argv(seed, self.report_path, self.budget)
        with _fresh(self.report_path), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, problems = None, []
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(argv)
                else:
                    with tracer.install(), tracer.op():
                        code = self.cli_main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed run
                problems.append(f"raised {exc!r}")
            wall = perf_counter() - t0
            text = _read(self.report_path) if code in (0, 1) else None
        report = None
        if not problems:
            try:
                report = json.loads(text) if text else None
                problems = check(op, code, report)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"malformed report: {exc!r}"]
        nonconverged = sum(
            issubclass(w.category, RuntimeWarning)
            and str(w.message).startswith("power iteration did not converge")
            for w in caught
        )
        return Outcome(op, seed, wall, code, report, len(text or ""), nonconverged, problems)


@contextlib.contextmanager
def _fresh(path: str):
    """Remove the report file before and after an op, so a failed op can
    never be checked against an older report."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    try:
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def check(op: Op, code: int | None, report: dict | None) -> list[str]:
    """Ground-truth checks of one op; returns what is wrong (empty if ok)."""
    expect = 1 if op.command == "falsify" else 0
    if code != expect:
        return [f"exit code {code}, expected {expect}"]
    if report is None:
        return ["no report written"]
    res = report["results"]
    bound = op.known_L * (1.0 + SOUND_RTOL)
    problems = []
    if op.command == "estimate":
        # l_lower is a certificate and must be sound.  l_fd is not: the
        # finite-difference route can read above known_L by rounding noise
        # divided by the distance of its closest pair, so it is recorded
        # (see _quality), not failed.
        if not res["l_lower"] <= bound:
            problems.append(f"l_lower {res['l_lower']!r} above known_L {op.known_L!r}")
        cert = res["certificate"]
        if cert["l_lower"] != res["l_lower"] or cert["witness"]["ratio"] != res["l_lower"]:
            problems.append("certificate witness ratio differs from l_lower")
        problems += _replay_problems(op, cert["witness"])
    elif op.command == "falsify":
        cert = res["certificate"]
        if not (res["violation_found"] and report["verdicts"]["claim_refuted"] and cert):
            return ["claim not refuted"]
        if res["claimed_L"] != op.level:
            problems.append(f"claimed_L {res['claimed_L']!r} != {op.level!r}")
        if not cert["margin"] > 0.0:
            problems.append(f"margin {cert['margin']!r} not above 0")
        problems += _replay_problems(op, cert["witness"])
    else:
        bad = sorted(k for k, v in report["verdicts"].items() if v is not True)
        if bad:
            problems.append(f"verdicts not true: {', '.join(bad)}")
    return problems


def _replay_problems(op: Op, witness: dict) -> list[str]:
    """Re-evaluate the report's witness config with hessfree.replay and
    require gap, spread and ratio to match bit for bit."""
    name, params, _ = ORACLES[op.oracle]
    cfg = witness["config"]
    config = Configuration(np.array(cfg["points"], dtype=np.float64),
                           SimplexWeights(np.array(cfg["weights"], dtype=np.float64)))
    stub = ProbeResult(witness["gap"], witness["spread"], witness["ratio"], config,
                       witness["oracle_label"], 0.0, 0.0)
    again = replay(stub, builtin(name, params))
    got = (again.gap, again.spread, again.ratio)
    want = (witness["gap"], witness["spread"], witness["ratio"])
    return [] if got == want else [f"witness replays to {got!r}, report has {want!r}"]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workload: str, out_dir: Path) -> None:
    """Build the workload's oracles and run one warm-up op at a tiny
    budget; the warm-up is not checked."""
    ops = WORKLOADS[workload]
    for key in sorted({op.oracle for op in ops}):
        name, params, _ = ORACLES[key]
        builtin(name, params)
    Runner(out_dir, TINY).run(ops[0], 0)


def child_setup(workload: str, out_dir: Path) -> float:
    """Set-up time of a fresh interpreter: imports, oracle construction
    and the warm-up op, as a user's first CLI call pays them."""
    here = Path(__file__).resolve().parent
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(here)!r}, 'src']; import harness, pathlib; "
        f"harness.setup({workload!r}, pathlib.Path({str(out_dir)!r})); "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    outcomes: list[Outcome]
    loop_s: float
    rounds: int
    metrics: dict
    extra: dict

    @property
    def failed(self) -> int:
        return sum(bool(o.problems) for o in self.outcomes)


def _rounds(ops, seed: int, seconds: float, body) -> tuple[float, int]:
    """Call body(op, op_seed, index, round) over whole rounds of the mix
    until ``seconds`` have passed."""
    t0 = perf_counter()
    rnd = 0
    while True:
        for i, op in enumerate(ops):
            body(op, op_seed(seed, rnd, i), i, rnd)
        rnd += 1
        if perf_counter() - t0 >= seconds:
            return perf_counter() - t0, rnd


def measure(workload: str, seed: int, seconds: float, runner: Runner,
            setup_samples: list[float], child_setups: int) -> RunResult:
    """Untraced run: the end-to-end metrics.

    ``child_setups`` fresh-interpreter set-ups run between the ops of the
    first round, spread over it, so that the set-up median samples the
    whole run and not one moment of a shared machine.  Their time is not
    op time.
    """
    ops = WORKLOADS[workload] * COPIES[workload]
    at = {round(k * len(ops) / child_setups) for k in range(child_setups)}
    samples = list(setup_samples)
    outcomes: list[Outcome] = []
    paused = 0.0

    def body(op, s, i, rnd):
        nonlocal paused
        outcomes.append(runner.run(op, s))
        if rnd == 0 and i in at:
            t = perf_counter()
            samples.append(child_setup(workload, runner.out_dir))
            paused += perf_counter() - t

    elapsed, rounds = _rounds(ops, seed, seconds, body)
    loop_s = elapsed - paused
    good = [o for o in outcomes if not o.problems]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (len(good) / loop_s, "1/s"),
        "op_s_p50": (statistics.median(o.wall for o in outcomes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"setup_samples_s": samples, **_quality(outcomes)}
    return RunResult(outcomes, loop_s, rounds,
                     {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra)


def measure_traced(workload: str, seed: int, seconds: float, runner: Runner,
                   span_path: Path | None) -> RunResult:
    """Traced run: each op runs untraced, then traced with the same seed;
    the pair gives the tracing overhead, the traced one the layers."""
    tracer = spans.Tracer()
    outcomes: list[Outcome] = []
    traced: list[Outcome] = []
    untraced_wall = 0.0

    def pair(op, s, i, rnd):
        nonlocal untraced_wall
        plain = runner.run(op, s)
        untraced_wall += plain.wall
        outcomes.append(plain)
        t = runner.run(op, s, tracer)
        outcomes.append(t)
        traced.append(t)

    loop_s, rounds = _rounds(WORKLOADS[workload], seed, seconds, pair)
    ops = [spans.op_trace(tracer.spans[a:b]) for a, b in tracer.op_ranges]
    metrics = spans.per_layer_metrics(
        ops, untraced_wall,
        report_bytes=[o.report_bytes for o in traced],
        probes_used=[((o.report or {}).get("probe_stats") or {}).get("count", 0) for o in traced],
        nonconverged=[o.nonconverged for o in traced],
        absent=tracer.absent_metrics,
    )
    # on the op's own thread the layer self times must account for the
    # whole traced wall time, or the tracer lost or double-counted a span
    residuals = [abs(sum(o.self_s.values()) - o.wall) for o in ops]
    for o, r in zip(traced, residuals):
        if r > 1e-6 * max(o.wall, 1.0):
            o.problems.append(f"layer self times miss the op wall time by {r:.3g} s")
    if span_path is not None:
        tracer.write(str(span_path))
    extra = {"absent_targets": sorted(tracer.absent), "orphan_oracle_calls": tracer.orphan_evals,
             "max_self_time_residual_s": max(residuals, default=0.0)}
    return RunResult(outcomes, loop_s, rounds, metrics, extra)


def _quality(outcomes: list[Outcome]) -> dict:
    """Certificate quality against known_L, recorded beside the metrics."""
    est = [o for o in outcomes if o.op.command == "estimate" and not o.problems]
    if not est:
        return {}
    res = [(o.op, o.report["results"]) for o in est]
    return {
        "l_lower_frac": min(r["l_lower"] / op.known_L for op, r in res),
        "l_fd_frac": min(r["l_fd"] / op.known_L for op, r in res),
        "l_fd_max_frac": max(r["l_fd"] / op.known_L for op, r in res),
        "l_fd_above_known_L": sum(r["l_fd"] > op.known_L * (1.0 + SOUND_RTOL) for op, r in res),
        "cross_validation_inconsistent": sum(not r["consistent"] for _, r in res),
    }


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int, seconds: float, trace: bool,
                budget: tuple[str, ...]) -> dict:
    threads = os.environ.get("HESSFREE_THREADS")
    try:  # the library's own rule for its worker count
        workers = max(1, int(threads)) if threads else (os.cpu_count() or 1)
    except ValueError:
        workers = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "hessfree_threads": threads,
        "effective_workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hessfree": hessfree.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "budget_flags": list(budget) or "library defaults",
        "cli_defaults": getattr(hessfree.cli, "_DEFAULTS", None),
        "op_mix": [op.label for op in WORKLOADS[workload]],
    }


def _git_rev() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (Path(".git") / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    """Digest of the library sources, which identifies the code measured
    where there is no git metadata."""
    h = hashlib.sha256()
    for p in sorted(Path("src").rglob("*.py")):
        h.update(str(p).encode())
        h.update(p.read_bytes())
    return h.hexdigest()
