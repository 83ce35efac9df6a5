import importlib.util
import json
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
                "--pairs", "4", "--fd-pairs", "20", "--n-functionals", "2"]
        argv = [src, src, "--oracles", "poly_map_2d", "--seeds", "5", "--work", str(tmp_path), "--", *tiny]
        assert mod.main(argv) == 0
        assert capsys.readouterr().out == "5 runs per tree, 0 differences\n"
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


class TestRssByDim:
    def test_smoke(self, capsys):
        tiny = ["--budget-configs", "20", "--budget-pairs", "8", "--budget-ascent", "10",
                "--pairs", "4", "--fd-pairs", "20", "--n-functionals", "2"]
        assert _load("rss_by_dim").main(["--dims", "2", "3", "--", *tiny]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["command", "d", "exit", "maxrss_mb", "wall_s"]
        rows = [line.split() for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (c, d, "0") for c in ("estimate", "verify", "slices") for d in ("2", "3")]
        assert all(float(r[3]) > 1.0 and float(r[4]) >= 0.0 for r in rows)
