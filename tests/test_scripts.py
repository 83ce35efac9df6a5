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
