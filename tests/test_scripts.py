import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from hessfree.estimate import ProbeLog, SearchBudget, falsify
from hessfree.oracles import builtin

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestFalsifySweep:
    def test_probe_counts_include_the_ascent(self, monkeypatch, capsys):
        # --budget 10: 4 pairs, 4 configs and 2 ascent steps; 3.0 is sc2's
        # true constant and 100 far above it, so neither is refuted
        argv = ["falsify_sweep.py", "--oracle", "separable_cubic", "--params", "3", "1",
                "--lo", "3", "--hi", "100", "--steps", "2", "--seed", "7", "--budget", "10"]
        monkeypatch.setattr(sys, "argv", argv)
        assert _load("falsify_sweep").main() == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        budget = SearchBudget(two_point_pairs=4, random_configs=4, ascent_steps=2, seed=7)
        o = builtin("separable_cubic", [3, 1])
        for claimed, refuted, probes in (row[:3] for row in rows):
            log = ProbeLog()
            assert falsify(o, float(claimed), budget, log=log) is None
            assert refuted == "False"
            assert int(probes) == log.count == 4 * 53 + 4 + 2


class TestBadBudget:
    @pytest.mark.parametrize("argv", [
        ["falsify_sweep.py", "--oracle", "cubic1d", "--params", "1", "--budget", "2"],
        ["estimate_zoo.py", "--budget", "2"],
    ])
    def test_exit_2_with_message(self, argv, monkeypatch, capsys):
        # --budget 2 splits into 0 pairs, 0 configs and 0 ascent steps
        monkeypatch.setattr(sys, "argv", argv)
        assert _load(argv[0][:-3]).main() == 2
        assert capsys.readouterr() == ("", "error: need random_configs > 0 or two_point_pairs > 0\n")


class TestReportDiff:
    def test_same_tree_twice_then_a_tampered_report(self, tmp_path, capsys):
        mod = _load("report_diff")
        src = str(Path(__file__).resolve().parent.parent / "src")
        tiny = ["--budget-configs", "20", "--budget-pairs", "8", "--budget-ascent", "10",
                "--pairs", "4", "--fd-pairs", "20"]
        argv = [src, src, "--oracles", "poly_map_2d", "--seeds", "5", "--work", str(tmp_path), "--", *tiny]
        assert mod.main(argv) == 0
        assert capsys.readouterr().out == "6 runs per tree, 0 differences\n"
        assert mod.compare(tmp_path / "old", tmp_path / "new") == []

        new = tmp_path / "new"
        report = new / "poly_map_2d-5-slices.json"
        tampered = report.read_text().replace('"worst_transfer_excess": -', '"worst_transfer_excess": 1')
        assert tampered != report.read_text()
        report.write_text(tampered)
        (new / "poly_map_2d-5-estimate.csv").write_text("probe_index\n")
        # verify at L/2 fails every functional check, so its report holds
        # the witnesses verify at L never shows
        half = new / "poly_map_2d-5-verify_half.json"
        report = json.loads(half.read_text())
        results = report["results"]
        assert results["L"] == 1.0
        for check in ("convexity_split", "cocoercivity"):
            assert results[check]["witnesses"]
        assert results["slice_smoothness"]["witness"] is not None
        results["cocoercivity"]["witnesses"][0]["residual"] = 0.0
        half.write_text(json.dumps(report))
        diffs = mod.compare(tmp_path / "old", new)
        assert len(diffs) == 3
        assert diffs[0] == "poly_map_2d-5-estimate.csv: contents differ"
        assert diffs[1].startswith("poly_map_2d-5-slices: results.worst_transfer_excess: -")
        assert diffs[2].startswith("poly_map_2d-5-verify_half: results.cocoercivity.witnesses.0.residual: -")


def _plant_runs(mod, tmp_path, monkeypatch, plant):
    """main with run_tree replaced by one that writes a report and the
    expected exit for each poly_map_2d seed-5 run; plant(label, runs,
    reports) then edits them for each tree."""

    def fake_run_tree(src, out, cases, seeds, extra):
        out.mkdir(parents=True)
        keys = [f"poly_map_2d-5-{run}" for run in mod.RUNS]
        runs = {k: {"exit": mod.expected_exit("poly_map_2d", k.split("-")[2]), "stderr": ""} for k in keys}
        reports = {k: {"results": {"x": 1.0, "y": [2.0]}, "wall_time_s": 0.1} for k in keys}
        plant(out.name, runs, reports)
        for k, rep in reports.items():
            (out / f"{k}.json").write_text(json.dumps(rep))
        (out / "runs.json").write_text(json.dumps(runs))

    monkeypatch.setattr(mod, "run_tree", fake_run_tree)
    return mod.main(["a", "b", "--oracles", "poly_map_2d", "--seeds", "5", "--work", str(tmp_path)])


class TestReportDiffExits:
    def test_expected_exits(self):
        mod = _load("report_diff")
        assert [mod.expected_exit("sc8", run) for run in mod.RUNS] == [0, 1, 0, 1, 0, 1]
        assert [mod.expected_exit("quadratic8", run) for run in mod.RUNS] == [0, 0, 0, 0, 0, 0]
        assert mod.expected_exit("rosenbrock", "estimate") is None

    def test_shared_failure_flagged(self, tmp_path, monkeypatch, capsys):
        mod = _load("report_diff")

        def plant(label, runs, reports):
            runs["poly_map_2d-5-slices"] = {"exit": 1, "stderr": ""}

        assert _plant_runs(mod, tmp_path, monkeypatch, plant) == 1
        assert capsys.readouterr().out.splitlines() == [
            "old poly_map_2d-5-slices: exit 1, expected 0; stderr ''",
            "new poly_map_2d-5-slices: exit 1, expected 0; stderr ''",
            "6 runs per tree, 0 differences, 2 off their expected exit",
        ]

    def test_exit_change_lists_moved_fields(self, tmp_path, monkeypatch, capsys):
        mod = _load("report_diff")

        def plant(label, runs, reports):
            if label == "new":
                runs["poly_map_2d-5-falsify"] = {"exit": 0, "stderr": ""}
                reports["poly_map_2d-5-falsify"]["results"]["y"] = [3.0]

        assert _plant_runs(mod, tmp_path, monkeypatch, plant) == 1
        assert capsys.readouterr().out.splitlines() == [
            "poly_map_2d-5-falsify: run {'exit': 1, 'stderr': ''} -> {'exit': 0, 'stderr': ''}",
            "poly_map_2d-5-falsify: results.y.0: 2.0 -> 3.0",
            "new poly_map_2d-5-falsify: exit 0, expected 1; stderr ''",
            "6 runs per tree, 2 differences, 1 off their expected exit",
        ]


class TestRssByDim:
    def test_smoke(self, capsys):
        tiny = ["--budget-configs", "20", "--budget-pairs", "8", "--budget-ascent", "10",
                "--pairs", "4", "--fd-pairs", "20"]
        assert _load("rss_by_dim").main(["--dims", "2", "3", "--", *tiny]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["command", "d", "exit", "maxrss_mb", "wall_s"]
        rows = [line.split() for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (c, d, "0") for c in ("estimate", "verify", "slices") for d in ("2", "3")]
        assert all(float(r[3]) > 1.0 and float(r[4]) >= 0.0 for r in rows)


class TestAbOps:
    def test_tree_against_itself(self, monkeypatch, capsys):
        mod = _load("ab_ops")
        started = []
        real = mod.subprocess.Popen

        def popen(argv, **kw):
            started.append(argv)
            return real(argv, **kw)

        monkeypatch.setattr(mod.subprocess, "Popen", popen)
        src = str(Path(__file__).resolve().parent.parent / "src")
        tiny = ["--budget-configs", "16", "--budget-pairs", "16", "--budget-ascent", "8", "--fd-pairs", "16"]
        assert mod.main([src, src, "--rounds", "2", "--seed", "3", "--", *tiny]) == 0
        assert len(started) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2 workers, certify, 2 rounds of 4 ops, seed 3"
        assert out[1].startswith("cpu new/old per round: median ") and out[1].endswith(" of 2")
        assert out[-1].startswith("peak rss after 8 ops: old ")
        # each op's median oracle points, equal on the one tree
        per_op = [line.split("; oracle points ")[1] for line in out if line.startswith("  ") and "; oracle points " in line]
        assert len(per_op) == 4
        for line in per_op:
            old, new = (int(part.split()[-1]) for part in line.split(", "))
            assert old == new > 0

    TINY = ["--budget-configs", "16", "--budget-pairs", "16", "--budget-ascent", "8", "--fd-pairs", "16"]

    def test_reports_equal_against_itself(self, capsys):
        src = str(Path(__file__).resolve().parent.parent / "src")
        assert _load("ab_ops").main([src, src, "--rounds", "2", "--seed", "3", "--", *self.TINY]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "reports equal in 8 of 8 ops" in out
        assert not any(line.startswith("  differ: ") for line in out)

    def test_planted_report_change_is_listed(self, tmp_path, capsys):
        # a copy of the tree whose reports name another RNG algorithm
        src = Path(__file__).resolve().parent.parent / "src"
        shutil.copytree(src / "hessfree", tmp_path / "hessfree", ignore=shutil.ignore_patterns("__pycache__"))
        est = tmp_path / "hessfree" / "estimate.py"
        est.write_text(est.read_text().replace('RNG_ALGORITHM = "', 'RNG_ALGORITHM = "planted-'))
        argv = [str(src), str(tmp_path), "--rounds", "1", "--seed", "3", "--", *self.TINY]
        assert _load("ab_ops").main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert "reports equal in 0 of 4 ops" in out
        differ = [line.split() for line in out if line.startswith("  differ: ")]
        assert [words[1] for words in differ] == ["estimate:cubic1d", "estimate:sc2", "estimate:poly_map_2d", "estimate:sc8"]
        assert all(words[2] == "seed" and words[3].isdigit() for words in differ)
