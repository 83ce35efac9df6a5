import importlib.util
import sys
from pathlib import Path

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


class TestReportDiff:
    def test_same_tree_twice_then_a_tampered_report(self, tmp_path, capsys):
        mod = _load("report_diff")
        src = str(Path(__file__).resolve().parent.parent / "src")
        tiny = ["--budget-configs", "20", "--budget-pairs", "8", "--budget-ascent", "10",
                "--pairs", "4", "--fd-pairs", "20", "--n-functionals", "2"]
        argv = [src, src, "--oracles", "poly_map_2d", "--seeds", "5", "--work", str(tmp_path), "--", *tiny]
        assert mod.main(argv) == 0
        assert capsys.readouterr().out == "4 runs per tree, 0 differences\n"
        assert mod.compare(tmp_path / "old", tmp_path / "new") == []

        new = tmp_path / "new"
        report = new / "poly_map_2d-5-slices.json"
        tampered = report.read_text().replace('"worst_transfer_excess": -', '"worst_transfer_excess": 1')
        assert tampered != report.read_text()
        report.write_text(tampered)
        (new / "poly_map_2d-5-estimate.csv").write_text("probe_index\n")
        diffs = mod.compare(tmp_path / "old", new)
        assert len(diffs) == 2
        assert diffs[0] == "poly_map_2d-5-estimate.csv: contents differ"
        assert diffs[1].startswith("poly_map_2d-5-slices: results.worst_transfer_excess: -")
