"""Self-tests of the benchmark: every workload runs at a tiny budget, the
output checks catch tampered reports, and the metrics emitted are exactly
the ones BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _runner(tmp_path: Path) -> harness.Runner:
    return harness.Runner(tmp_path, harness.TINY)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_untraced(workload, tmp_path):
    run = harness.measure(workload, 3, 0.0, _runner(tmp_path), [0.5], 1)
    assert run.rounds == 1
    assert len(run.outcomes) == len(harness.WORKLOADS[workload]) * harness.COPIES[workload]
    assert run.failed == 0, [o.problems for o in run.outcomes]
    assert set(run.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in run.metrics.items():
        assert m["unit"] == units[name]
        assert m["value"] > 0


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_traced(workload, tmp_path):
    run = harness.measure_traced(workload, 3, 0.0, _runner(tmp_path), tmp_path / "spans.jsonl.gz")
    assert run.failed == 0, [o.problems for o in run.outcomes]
    assert set(run.metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["unit"] == units[k] for k, m in run.metrics.items())
    assert run.extra["absent_targets"] == []
    assert run.extra["orphan_oracle_calls"] == 0
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0

    # the layer self times on the op's thread add up to the traced op time
    v = {k: m["value"] for k, m in run.metrics.items()}
    layers = sum(v[f"{layer}.self_s"] for layer in spans.LAYERS) + v["cli.self_s"]
    assert layers == pytest.approx(v["trace.op_s"], rel=1e-9)

    # each workload exercises the layers it was chosen for
    searches = workload != "check" or v["estimate.search_s"] > 0
    assert searches and v["oracles.eval_points"] > 0
    assert (v["oracles.fd_s"] > 0) == (workload == "certify")
    assert (v["slices.sup_ratio_s"] > 0) == (workload == "check")
    assert (v["baillon_haddad.cocoercive_s"] > 0) == (workload == "check")
    if workload == "certify":
        assert v["estimate.useful_ratio"] == 1.0


def _tampering(edit):
    """A cli main that lets the library write its report, then edits it."""
    def cli_main(argv):
        code = harness.hessfree.cli.main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        edit(report)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return code
    return cli_main


def test_tampered_witness_fails(tmp_path):
    def edit(report):
        cert = report["results"]["certificate"]
        cert["witness"]["config"]["points"][0][0] += 1e-3

    runner = _runner(tmp_path)
    runner.cli_main = _tampering(edit)
    run = harness.measure("refute", 3, 0.0, runner, [0.5], 0)
    assert run.failed == len(run.outcomes)
    assert all("replays" in o.problems[0] for o in run.outcomes)


def test_unsound_l_lower_fails(tmp_path):
    def edit(report):
        if report["config"]["oracle"] == "poly_map_2d":
            res = report["results"]
            res["l_lower"] = res["certificate"]["l_lower"] = 2.0 * (1.0 + 1e-6)

    runner = _runner(tmp_path)
    runner.cli_main = _tampering(edit)
    run = harness.measure("certify", 3, 0.0, runner, [0.5], 0)
    bad = [o for o in run.outcomes if o.problems]
    assert run.failed == len(bad) == harness.COPIES["certify"]
    for o in bad:
        assert o.op.oracle == "poly_map_2d"
        assert any("above known_L" in p for p in o.problems)


def test_exit_code_2_fails(tmp_path):
    runner = _runner(tmp_path)
    op = harness.Op("falsify", "sc2", -1.0)  # negative claims are rejected
    out = runner.run(op, 1)
    assert out.code == 2 and out.problems


def test_absent_target_drops_its_metrics():
    tracer = spans.Tracer()
    gone = ("hessfree.slices", "no_such_function", "slices.x", "span", ("slices.norm_s",))
    with tracer.install(spans.TARGETS + (gone,)):
        pass
    assert tracer.absent == {"hessfree.slices.no_such_function"}
    m = spans.per_layer_metrics([], 1.0, [], [], [], tracer.absent_metrics)
    assert "slices.norm_s" not in m and "slices.sup_ratio_s" in m


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {m for t in spans.TARGETS for m in t[4]} <= per_layer
