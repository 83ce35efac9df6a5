import argparse
import json
import tracemalloc

import numpy as np
import pytest

from hessfree import cli
from hessfree.cli import main
from hessfree.oracles import VectorOracle, builtin

FAST = [
    "--budget-configs", "150", "--budget-pairs", "40", "--budget-ascent", "40",
    "--pairs", "80", "--fd-pairs", "200",
]


def run(argv):
    return main(argv)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestEstimateCommand:
    def test_cubic(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["estimate", "--oracle", "cubic1d", "--params", "1.0", "--seed", "42",
             "--out", str(out)] + FAST
        )
        assert code == 0
        rep = load(out)
        assert rep["results"]["l_lower"] == pytest.approx(1.0, abs=1e-9)
        assert rep["results"]["consistent"] is True
        assert rep["rng"]["seed"] == 42
        assert "pcg64" in rep["rng"]["algorithm"]
        assert rep["version"]
        assert rep["probe_stats"]["count"] > 0
        assert len(rep["probe_stats"]["histogram"]["counts"]) == 32

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "probes.csv"
        run(
            ["estimate", "--oracle", "affine", "--seed", "1", "--out", str(out),
             "--csv", str(csv_path)] + FAST
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "probe_index,n,gap,spread,ratio,kind"
        assert len(lines) > 100
        first = lines[1].split(",")
        assert first[0] == "0" and first[5] in ("two_point", "config", "ascent")

    def test_missing_seed_is_error(self, capsys):
        code = run(["estimate", "--oracle", "cubic1d", "--params", "1.0"])
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestFalsifyCommand:
    def test_refutes_half_constant(self, tmp_path):
        out = tmp_path / "f.json"
        code = run(
            ["falsify", "--oracle", "cubic1d", "--params", "1.0",
             "--claimed-L", "0.5", "--seed", "42", "--out", str(out)] + FAST
        )
        assert code == 1
        rep = load(out)
        assert rep["results"]["violation_found"] is True
        cert = rep["results"]["certificate"]
        assert cert["margin"] > 0
        assert cert["witness"]["config"]["points"]

    def test_true_constant_survives(self, tmp_path):
        out = tmp_path / "f.json"
        code = run(
            ["falsify", "--oracle", "cubic1d", "--params", "1.0",
             "--claimed-L", "1.0", "--seed", "42", "--out", str(out)] + FAST
        )
        assert code == 0
        assert load(out)["results"]["violation_found"] is False

    def test_bad_oracle_name(self, capsys):
        code = run(["falsify", "--oracle", "nope", "--claimed-L", "1.0", "--seed", "1"])
        assert code == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_missing_claim(self, capsys):
        code = run(["falsify", "--oracle", "cubic1d", "--params", "1.0", "--seed", "1"])
        assert code == 2


class TestVerifyCommand:
    def test_passes_at_true_constant(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--oracle", "separable_cubic", "--params", "3", "1",
             "--L", "3.0", "--seed", "42", "--out", str(out)] + FAST
        )
        assert code == 0
        rep = load(out)
        assert rep["verdicts"]["all"] is True
        assert set(rep["verdicts"]) == {
            "all", "probe_soundness", "convexity_split", "cocoercivity",
            "expansion_step", "slice_smoothness",
        }

    def test_fails_below_true_constant(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--oracle", "separable_cubic", "--params", "3", "1",
             "--L", "2.0", "--seed", "42", "--out", str(out)] + FAST
        )
        assert code == 1
        rep = load(out)
        assert rep["verdicts"]["all"] is False
        # the lie is caught by more than one route, with witnesses
        assert rep["verdicts"]["probe_soundness"] is False
        assert rep["results"]["probe_soundness"]["violation"] is not None

    def test_affine_at_floored_zero(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--oracle", "affine", "--L", "0.0", "--seed", "42",
             "--out", str(out)] + FAST
        )
        assert code == 0


class TestSlicesCommand:
    def test_poly_map(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            ["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--seed", "42",
             "--out", str(out), "--pairs", "40"]
        )
        assert code == 0
        rep = load(out)
        assert rep["verdicts"]["all"] is True
        assert rep["results"]["worst_reconstruction_rel_err"] <= 1e-5

    def test_understated_constant(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            ["slices", "--oracle", "poly_map_2d", "--L", "1.0", "--seed", "42",
             "--out", str(out), "--pairs", "40"]
        )
        assert code == 1
        assert load(out)["verdicts"]["lipschitz_transfer"] is False

    def test_no_pair_tested(self, tmp_path):
        # on a 1e-12-wide domain every pair is closer than 1e-9: the
        # transfer checks test nothing, so they report null and do not pass
        out = tmp_path / "s.json"
        code = run(
            ["slices", "--oracle", "cubic1d", "--params", "1", "--L", "0.5", "--seed", "1",
             "--domain-radius", "1e-12", "--pairs", "20", "--out", str(out)]
        )
        assert code == 1
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        rep = json.loads(text)
        assert rep["results"]["worst_transfer_excess"] is None
        assert rep["results"]["min_functional_sup_realization"] is None
        assert rep["verdicts"]["lipschitz_transfer"] is False
        assert rep["verdicts"]["functional_sup_realization"] is False

    @pytest.mark.parametrize("d", [4, 8, 16, 32])
    @pytest.mark.parametrize("seed", [5, 42])
    def test_rotated_cubic(self, d, seed, tmp_path, monkeypatch):
        # F = Q grad g(Q^T x) for g = separable_cubic c = (3, 1, ..., 1):
        # F'(x) - F'(y) = Q diag(c (Q^T (x - y))) Q^T is dense, so no
        # basis functional norms it, and L = 3
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
        grad = builtin("separable_cubic", [3.0] + [1.0] * (d - 1)).gradient
        F = VectorOracle(d, d, lambda x: grad(np.asarray(x) @ q) @ q.T, "rotated_cubic", 3.0)
        monkeypatch.setattr(cli, "builtin", lambda name, params: F)
        out = tmp_path / "s.json"
        argv = ["slices", "--oracle", "rotated_cubic", "--seed", str(seed), "--out", str(out)]
        assert run(argv + ["--L", "3"]) == 0
        assert load(out)["results"]["min_functional_sup_realization"] >= 0.99
        assert run(argv + ["--L", "1.5"]) == 1
        verdicts = load(out)["verdicts"]
        assert {k for k, v in verdicts.items() if not v} == {"lipschitz_transfer", "all"}

    def test_working_set_at_d128(self, tmp_path):
        # measured peak 3.3 MB; a (16, 1000, 128) buffer of sampled
        # functionals would take 16 MB alone
        argv = ["slices", "--oracle", "separable_cubic", "--params", "3", *["1"] * 127, "--L", "3",
                "--seed", "1", "--pairs", "4", "--out", str(tmp_path / "s.json")]
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8e6

    def test_csv_flag_rejected(self, tmp_path, capsys):
        # slices runs no probe search, so it has no probe log to write
        out, path = tmp_path / "s.json", tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(["slices", "--oracle", "poly_map_2d", "--seed", "1", "--L", "2", "--csv", str(path),
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not out.exists() and not path.exists()


class TestClosedFormZoo:
    """verify and slices pass every closed-form zoo map at its known
    constant, the five zero-constant maps included: there every
    difference matrix is finite-difference noise, which the checks at
    L = 0 must not read as a violation."""

    ZOO = [
        ("cubic1d", [1.0]), ("separable_cubic", [3.0, 1.0]),
        ("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5]), ("poly_map_2d", []),
        ("affine", []), ("affine", [2.0, 1.0]), ("quadratic", []), ("quadratic", [2.0]),
        ("quadratic", [float((3 * i + 5 * j) % 7 - 3) for i in range(8) for j in range(8)]),
    ]

    @pytest.mark.parametrize("command", ["verify", "slices"])
    @pytest.mark.parametrize("seed", [5, 42])
    @pytest.mark.parametrize("name, params", ZOO, ids=lambda v: v if isinstance(v, str) else len(v))
    def test_passes_at_known_constant(self, name, params, seed, command, tmp_path):
        out = tmp_path / "r.json"
        argv = [command, "--oracle", name, "--seed", str(seed), "--L", repr(builtin(name, params).known_L),
                "--out", str(out)]
        if params:
            argv += ["--params", *map(repr, params)]
        assert run(argv + FAST) == 0, load(out)["verdicts"]


class TestReportEncoding:
    def test_numpy_values(self, tmp_path):
        # numpy scalars and nested arrays are written as the builtins they
        # hold; np.float32 as the double it widens to
        out = tmp_path / "r.json"
        cli._write_report({"f32": np.float32(0.1), "i64": np.int64(-7), "b": np.bool_(True),
                           "f": np.float64(1 / 3),
                           "nested": {"a": np.arange(4.0).reshape(2, 2),
                                      "t": (np.int32(2), np.array([True, False]))}}, str(out))
        assert out.read_text() == json.dumps(
            {"b": True, "f": 0.3333333333333333, "f32": 0.10000000149011612, "i64": -7,
             "nested": {"a": [[0.0, 1.0], [2.0, 3.0]], "t": [2, [True, False]]}},
            indent=2, sort_keys=True) + "\n"


class TestPinnedCheckReports:
    """Exact check-suite results at small budgets, seed 42: a change to
    these numbers is a change to the checks.  The slices transfer excess
    reads each pair's top singular value, and the sup realization the
    slice along its top left singular vector."""

    CASES = {
        "sc2": (["--oracle", "separable_cubic", "--params", "3", "1", "--L", "3.0"],
                (-0.0018325302313737524, 1.6528735159226926e-05,
                 -0.014503454783493908, -0.005519597559498379),
                (4.5177017571951724e-11, 2.782355204183502e-10,
                 -0.0343260120849731, 0.999999999978931)),
        "poly_map_2d": (["--oracle", "poly_map_2d", "--L", "2.0"],
                        (-0.001221686820915835, 1.1026509127987083e-05,
                         -0.006445980588551947, -0.0036797350396646777),
                        (2.6321992330450198e-11, 4.91664836840901e-11,
                         -0.018513095629048237, 0.9999999999803085)),
        # m = d = 8: the 20 slices pairs run as one chunk (chunk_rows(64) is 256)
        "sc8": (["--oracle", "separable_cubic", "--params", "3", "1", "0.5", "2", "1", "1",
                 "0.25", "1.5", "--L", "3.0"],
                (-1.2072397475014114, 0.9804713433383079,
                 -32.0650614525581, -3.409250643591051),
                (3.48298899702566e-11, 9.8575655391603e-11,
                 -4.501954247069239, 0.9999999999753022)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_verify(self, name, tmp_path):
        argv, expected, _ = self.CASES[name]
        out = tmp_path / "v.json"
        assert run(["verify", *argv, "--seed", "42", "--out", str(out)] + FAST) == 0
        r = load(out)["results"]
        assert (
            r["convexity_split"]["worst_violation"],
            r["cocoercivity"]["min_residual"],
            r["expansion_step"]["worst_excess"],
            r["slice_smoothness"]["worst_excess"],
        ) == expected

    @pytest.mark.parametrize("name", CASES)
    def test_slices(self, name, tmp_path):
        argv, _, expected = self.CASES[name]
        out = tmp_path / "s.json"
        assert run(["slices", *argv, "--seed", "42", "--pairs", "20", "--out", str(out)]) == 0
        r = load(out)["results"]
        assert (
            r["worst_reconstruction_rel_err"],
            r["worst_linearity_rel_err"],
            r["worst_transfer_excess"],
            r["min_functional_sup_realization"],
        ) == expected


class TestBadInput:
    """Every out-of-range option exits 2 with a message naming it."""

    @pytest.mark.parametrize("argv, key", [
        (["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--pairs", "0"], "pairs"),
        (["slices", "--oracle", "poly_map_2d", "--L", "nan"], "L"),
        (["slices", "--oracle", "poly_map_2d", "--L", "-1"], "L"),
        (["verify", "--oracle", "cubic1d", "--params", "1", "--L", "inf"], "L"),
        (["falsify", "--oracle", "cubic1d", "--params", "1", "--claimed-L", "nan"], "claimed_L"),
        (["falsify", "--oracle", "cubic1d", "--params", "1", "--claimed-L", "inf"], "claimed_L"),
        (["falsify", "--oracle", "cubic1d", "--params", "1", "--claimed-L", "-1"], "claimed_L"),
        (["verify", "--oracle", "cubic1d", "--params", "1", "--L", "1", "--n-functionals", "0"],
         "n_functionals"),
        (["verify", "--oracle", "poly_map_2d", "--L", "2.0", "--n-functionals", "0"],
         "n_functionals"),
        (["estimate", "--oracle", "cubic1d", "--params", "1", "--fd-pairs", "0"], "fd_pairs"),
        (["estimate", "--oracle", "cubic1d", "--params", "1", "--domain-radius", "0"],
         "domain_radius"),
        (["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--domain-radius", "nan"],
         "domain_radius"),
        (["verify", "--oracle", "cubic1d", "--params", "1", "--L", "1", "--domain-radius", "inf"],
         "domain_radius"),
        (["falsify", "--oracle", "cubic1d", "--params", "1", "--claimed-L", "1",
          "--domain-radius", "-1"], "domain_radius"),
        (["estimate", "--oracle", "cubic1d", "--params", "1", "--budget-ascent", "-3"],
         "budget_ascent"),
        (["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--max-n", "1", "--budget-ascent", "-3"],
         "budget_ascent"),
        (["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--max-n", "1"], "max_n"),
        (["slices", "--oracle", "poly_map_2d", "--L", "2.0", "--budget-pairs", "-1"], "budget_pairs"),
        (["verify", "--oracle", "cubic1d", "--params", "1", "--L", "1", "--budget-configs", "-1"],
         "budget_configs"),
        *((argv + ["--budget-configs", "0", "--budget-pairs", "0"], "budget_configs or budget_pairs")
          for argv in (["estimate", "--oracle", "cubic1d", "--params", "1"],
                       ["falsify", "--oracle", "cubic1d", "--params", "1", "--claimed-L", "1"],
                       ["verify", "--oracle", "cubic1d", "--params", "1", "--L", "1"])),
    ])
    def test_rejected_with_exit_2(self, argv, key, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, L, check", [
        # the cocoercivity residuals and tolerance overflow: the check
        # failed on -inf, passed on an inf tolerance, or ended in a
        # traceback (exit 1, a certified violation)
        ("verify", "1e153", "cocoercivity"),
        ("verify", "1e154", "cocoercivity"),
        ("verify", "1.4e154", "cocoercivity"),
        # L ||x - y|| overflows on some pairs, whose inf bound passed
        ("slices", "1e308", "lipschitz_transfer"),
    ])
    def test_check_overflow_exits_2(self, command, L, check, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [command, "--oracle", "poly_map_2d", "--seed", "1", "--pairs", "50", "--L", L]
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"hessfree: error: {check} check: a residual, bound or tolerance overflows at this scale\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate"],
        ["falsify", "--claimed-L", "1e200"],
        ["verify", "--L", "1e200"],
    ])
    def test_probe_overflow_exits_2(self, argv, tmp_path, capsys):
        # squared norms of values near 1e201 overflow: the certificate read
        # inf, or the probe histogram failed on an inf range after numpy's
        # overflow warnings (errors here, under filterwarnings = error)
        out = tmp_path / "r.json"
        argv = argv + ["--oracle", "cubic1d", "--params", "1e200", "--seed", "1", "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "hessfree: error: probe of oracle 'grad[cubic1d(1e+200)]': "
            "the gap, spread or value scale overflows at this scale\n"
        )
        assert not out.exists()

    def test_no_informative_probe(self, tmp_path, capsys):
        # every probe of a 1e-12-wide domain is spread-degenerate
        out = tmp_path / "r.json"
        argv = ["estimate", "--oracle", "cubic1d", "--params", "1", "--seed", "1",
                "--domain-radius", "1e-12", "--out", str(out)]
        assert run(argv + FAST) == 2
        assert "no informative probe" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory(self, monkeypatch, tmp_path, capsys):
        # exit 1 means a certified violation, so an oracle that runs out of
        # memory must not end there
        def ev(x):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr(cli, "builtin", lambda name, params: VectorOracle(2, 2, ev, "oom"))
        out = tmp_path / "r.json"
        argv = ["falsify", "--oracle", "poly_map_2d", "--claimed-L", "1", "--seed", "1",
                "--out", str(out)]
        assert run(argv + FAST) == 2
        assert capsys.readouterr().err == "hessfree: error: out of memory: Unable to allocate 2.00 GiB\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "slices"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, command, seed, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [command, "--oracle", "poly_map_2d", "--L", "2.0"] if command == "slices" else [
            command, "--oracle", "cubic1d", "--params", "1"]
        assert run(argv + ["--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"hessfree: error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("params", 5, "a list of numbers"),
        ("params", [[1]], "a list of numbers"),
        ("params", [True], "a list of numbers"),
        ("L", [1], "a number"),
        ("L", True, "a number"),
        pytest.param("domain_radius", 10**400, "a number", id="domain_radius-overflow"),
        ("params", [1, 10**400], "a list of numbers"),
        ("pairs", None, "an integer"),
        ("budget_pairs", 20.9, "an integer"),
        ("seed", 1.7, "an integer"),
        ("seed", True, "an integer"),
        ("oracle", 5, "a string"),
        ("csv", 2, "a string"),
        ("out", 1, "a string"),
    ])
    def test_config_value_of_wrong_type(self, key, value, message, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"oracle": "poly_map_2d", "seed": 1, "L": 2.0, "pairs": 4, key: value}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        argv = ["verify", "--config", str(cfg_path)] + ([] if key == "out" else ["--out", str(out)])
        assert run(argv) == 2
        assert capsys.readouterr().err == f"hessfree: error: {key} must be {message}, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("estimate", "L", 2.0),
        ("estimate", "claimed_L", 2.0),
        ("falsify", "L", 2.0),
        ("verify", "claimed_L", 1.0),
        ("slices", "claimed_L", 1.0),
        ("slices", "csv", "p.csv"),
        ("estimate", "n_functionals", 2),
        ("falsify", "n_functionals", 2),
        ("slices", "n_functionals", 2),
    ])
    def test_config_key_the_command_does_not_take(self, command, key, value, tmp_path, capsys):
        # the value would be range-checked, echoed in config and ignored
        value = str(tmp_path / value) if key == "csv" else value
        cfg = {"oracle": "poly_map_2d", "seed": 1, "L": 2.0, "claimed_L": 1.0, key: value}
        cfg = {k: v for k, v in cfg.items() if k == key or command in cli._OPTIONS[k].commands}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"hessfree: error: {key} is not an option of {command}\n"
        assert not out.exists() and not (tmp_path / "p.csv").exists()

    def test_null_key_the_command_does_not_take(self, tmp_path):
        # null still means "not given"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "cubic1d", "params": [1.0], "seed": 1, "L": None,
                                        "claimed_L": None}))
        out = tmp_path / "r.json"
        assert run(["estimate", "--config", str(cfg_path), "--out", str(out)] + FAST) == 0
        assert load(out)["config"]["L"] is None

    @pytest.mark.parametrize("key", ["oracle", "seed", "L"])
    def test_null_required_value(self, key, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "poly_map_2d", "seed": 1, "L": 2.0, key: None}))
        assert run(["slices", "--config", str(cfg_path)]) == 2
        assert f"{key} must be given" in capsys.readouterr().err

    def test_config_file_value_checked(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "poly_map_2d", "seed": 1, "L": 2.0, "pairs": -3}))
        assert run(["slices", "--config", str(cfg_path)]) == 2
        assert "pairs must be" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_roundtrip(self, tmp_path):
        cfg = {
            "oracle": "cubic1d", "params": [1.0], "seed": 9,
            "budget_configs": 100, "budget_pairs": 20, "budget_ascent": 20,
            "fd_pairs": 100,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        code = run(["estimate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        rep = load(out)
        assert rep["config"]["seed"] == 9
        assert rep["config"]["budget_pairs"] == 20

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "cubic1d", "params": [1.0], "seed": 9}))
        out = tmp_path / "r.json"
        run(["estimate", "--config", str(cfg_path), "--seed", "123",
             "--out", str(out)] + FAST)
        assert load(out)["config"]["seed"] == 123

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "cubic1d", "seed": 1, "tollerance": 2}))
        code = run(["estimate", "--config", str(cfg_path)])
        assert code == 2
        assert "tollerance" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run(["estimate", "--config", str(cfg_path)]) == 2


class TestOptionSurface:
    """The flags and defaults generated from cli._OPTIONS, pinned."""

    COMMON = {
        "-h", "--help", "--config", "--oracle", "--params", "--seed", "--budget-configs",
        "--budget-pairs", "--budget-ascent", "--max-n", "--domain-radius", "--pairs", "--fd-pairs",
        "--out",
    }
    EXTRA = {"estimate": {"--csv"}, "falsify": {"--claimed-L", "--csv"},
             "verify": {"--L", "--csv", "--n-functionals"}, "slices": {"--L"}}

    def test_flags_per_command(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.EXTRA)
        for name, p in sub.choices.items():
            assert {f for a in p._actions for f in a.option_strings} == self.COMMON | self.EXTRA[name]

    @pytest.mark.parametrize("command, level", [("estimate", []), ("falsify", ["--claimed-L", "1"]),
                                                ("slices", ["--L", "2"])])
    def test_n_functionals_flag_rejected(self, command, level, tmp_path, capsys):
        # only verify draws functionals; slices takes its norming ones from an SVD
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run([command, "--oracle", "poly_map_2d", "--seed", "1", *level, "--n-functionals", "8",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-functionals 8" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults(self):
        assert cli._DEFAULTS == {
            "params": [], "budget_configs": 4000, "budget_pairs": 4000, "budget_ascent": 2000,
            "max_n": 4, "domain_radius": 5.0, "n_functionals": 8, "pairs": 400, "fd_pairs": 10_000,
        }

    @pytest.mark.parametrize("command, options", [
        ("estimate", {"oracle": "cubic1d", "params": [1.0], "seed": 3, "max_n": 3}),
        ("falsify", {"oracle": "separable_cubic", "params": [3.0, 1.0], "seed": 3,
                     "claimed_L": 2.5, "domain_radius": 2.0}),
        ("verify", {"oracle": "poly_map_2d", "seed": 3, "L": 2.0, "n_functionals": 3}),
        ("slices", {"oracle": "poly_map_2d", "seed": 3, "L": 2.0, "pairs": 20}),
    ])
    def test_flags_equal_config_file(self, command, options, tmp_path):
        # FAST sets pairs 80; slices overrides it with 20 on both sides
        fast = dict(zip((f[2:].replace("-", "_") for f in FAST[::2]), map(int, FAST[1::2])))
        # slices runs no probe search, so it takes no --csv
        csv = {} if command == "slices" else {"csv": str(tmp_path / "p.csv")}
        options = {**fast, **options, **csv}
        argv = [command]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", *map(str, value if isinstance(value, list) else [value])]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(options))
        by_flags, by_file = tmp_path / "a.json", tmp_path / "b.json"
        code = run(argv + ["--out", str(by_flags)])
        assert run([command, "--config", str(cfg_path), "--out", str(by_file)]) == code
        a, b = load(by_flags), load(by_file)
        for rep in (a, b):
            rep.pop("wall_time_s")
            rep["config"].pop("out")
        assert a == b
        assert a["config"] == {"command": command, "claimed_L": None, "L": None, "csv": None, **cli._DEFAULTS,
                               **options}


class TestDeterminism:
    def test_verify_reports_byte_identical_sans_wall_time(self, tmp_path):
        argv = [
            "verify", "--oracle", "cubic1d", "--params", "1.0", "--L", "1.0",
            "--seed", "42",
        ] + FAST
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        a = load(out1)
        b = load(out2)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        a["config"].pop("out")
        b["config"].pop("out")
        sa = json.dumps(a, indent=2, sort_keys=True)
        sb = json.dumps(b, indent=2, sort_keys=True)
        assert sa.encode() == sb.encode()
