import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hessfree import estimate, vecspace
from hessfree.estimate import (
    ASCENT_LEVELS,
    ASCENT_SHRINK,
    INFORMATIVE_SPREAD_COEFF,
    STREAM_CONFIGS,
    STREAM_PAIRS,
    NoInformativeProbeError,
    ProbeLog,
    SearchBudget,
    _T_PROBES_PER_PAIR,
    _ascend,
    _batches,
    _candidate_ratio,
    _draw_configurations,
    coordinate_search,
    cross_validate,
    estimate_L,
    falsify,
    replay,
    sample_configuration,
    stream_rng,
    violates,
)
from hessfree.oracles import DomainSampler, ScalarOracle, VectorOracle, as_vector_oracle, builtin, lip_from_hessians
from hessfree.probe import ProbeBatch, ProbeResult, best_t_probe, jensen_probe, two_point_probe
from hessfree.vecspace import Configuration, SimplexWeights

ZOO = {
    "cubic1d": ("cubic1d", [1.0]),
    "sc2": ("separable_cubic", [3.0, 1.0]),
    "poly_map_2d": ("poly_map_2d", []),
    "sc8": ("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5]),
    "norm_cubed": ("norm_cubed", []),
}


def small_budget(**kw):
    defaults = dict(random_configs=200, ascent_steps=100, two_point_pairs=50, seed=42)
    defaults.update(kw)
    return SearchBudget(**defaults)


class TestSearchBudget:
    def test_rejects_all_zero_probes(self):
        with pytest.raises(ValueError):
            SearchBudget(random_configs=0, two_point_pairs=0, seed=1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SearchBudget(random_configs=-1, seed=1)

    def test_rejects_tiny_max_n(self):
        with pytest.raises(ValueError):
            SearchBudget(max_n=1, seed=1)


class TestEstimateL:
    def test_affine_near_zero(self):
        cert = estimate_L(builtin("affine"), small_budget())
        assert cert.l_lower <= 1e-9

    def test_cubic_unit_any_budget_with_pair(self):
        o = builtin("cubic1d", [1.0])
        for budget in [
            small_budget(),
            SearchBudget(random_configs=0, ascent_steps=0, two_point_pairs=1, seed=7),
            SearchBudget(random_configs=30, ascent_steps=10, two_point_pairs=3, seed=11),
        ]:
            cert = estimate_L(o, budget)
            assert cert.l_lower == pytest.approx(1.0, abs=1e-9)

    def test_separable_cubic_recovers_constant(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        budget = SearchBudget(
            random_configs=4000, ascent_steps=2000, two_point_pairs=4000, seed=42
        )
        cert = estimate_L(o, budget)
        assert 2.85 <= cert.l_lower <= 3.0 * (1 + 1e-9)

    def test_certificate_fields(self):
        o = builtin("cubic1d", [2.0])
        b = small_budget()
        cert = estimate_L(o, b)
        assert cert.l_lower == cert.witness.ratio
        assert cert.budget == b
        assert cert.oracle_label == "grad[cubic1d(2)]"
        assert cert.probes_used > 0
        assert "pcg64" in cert.rng_algorithm

    def test_soundness_never_exceeds_known_l(self):
        for name, params in [
            ("cubic1d", [1.0]),
            ("separable_cubic", [3.0, 1.0]),
            ("poly_map_2d", []),
        ]:
            o = builtin(name, params)
            known = o.known_L
            for seed in (0, 1, 2):
                cert = estimate_L(o, small_budget(seed=seed))
                assert cert.l_lower <= known * (1 + 1e-8), (name, seed)

    def test_replayable_witness(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        cert = estimate_L(o, small_budget())
        r = replay(cert.witness, o)
        assert r.gap == cert.witness.gap
        assert r.spread == cert.witness.spread
        assert r.ratio == cert.witness.ratio

    def test_witness_replays_from_its_report_values(self):
        # this seed's witness has weights whose renormalized sum misses 1
        # by an ulp; rebuilt from plain lists it must still replay exactly
        o = builtin("separable_cubic", [3.0, 1.0])
        w = estimate_L(o, SearchBudget(seed=3325066421)).witness
        c = Configuration(np.array(w.config.points.tolist()),
                          SimplexWeights(np.array(w.config.weights.weights.tolist())))
        r = replay(dataclasses.replace(w, config=c), o)
        assert (r.gap, r.spread, r.ratio) == (w.gap, w.spread, w.ratio)

    def test_no_informative_probe(self):
        # radius 0 puts every point at the origin: all spreads degenerate
        o = builtin("cubic1d", [1.0])
        with pytest.raises(NoInformativeProbeError):
            estimate_L(o, small_budget(domain_radius=0.0))


class TestDeterminism:
    def test_bit_identical_reruns(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        b = small_budget()
        c1 = estimate_L(o, b)
        c2 = estimate_L(o, b)
        assert c1.l_lower == c2.l_lower
        assert c1.probes_used == c2.probes_used
        np.testing.assert_array_equal(c1.witness.config.points, c2.witness.config.points)
        np.testing.assert_array_equal(
            c1.witness.config.weights.weights, c2.witness.config.weights.weights
        )

    @pytest.mark.parametrize("key", ZOO)
    def test_batch_size_invariance(self, key):
        # a (B, d) stack of pairs gives, bit for bit, the B single-pair scans
        F = as_vector_oracle(builtin(*ZOO[key]))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((150, F.dim_in)) * 3.0
        y = rng.standard_normal((150, F.dim_in)) * 3.0
        stacked = best_t_probe(F, x, y, min_spread_coeff=INFORMATIVE_SPREAD_COEFF)
        assert len(stacked) == len(x)
        for xi, yi, r in zip(x, y, stacked):
            one = best_t_probe(F, xi, yi, min_spread_coeff=INFORMATIVE_SPREAD_COEFF)
            assert (r.gap, r.spread, r.ratio) == (one.gap, one.spread, one.ratio)
            np.testing.assert_array_equal(r.config.points, one.config.points)
            np.testing.assert_array_equal(r.config.weights.weights, one.config.weights.weights)


class TestPinnedCertificates:
    """Certificates at the default budget and seed 42, pinned to the bit."""

    @pytest.mark.parametrize("key, l_lower", [
        ("cubic1d", 1.0000000000021751),
        ("sc2", 2.999999999998718),
        ("poly_map_2d", 1.99999999999961),
        ("sc8", 2.999946788813163),
    ])
    def test_default_budget_l_lower(self, key, l_lower):
        assert estimate_L(builtin(*ZOO[key]), SearchBudget(seed=42)).l_lower == l_lower


class TestMonotonicity:
    def test_budget_prefix_without_ascent(self):
        # larger budgets consume a superset of the same probe stream,
        # so the max ratio cannot decrease
        o = builtin("separable_cubic", [3.0, 1.0])
        prev = -1.0
        for pairs, configs in [(10, 50), (20, 100), (40, 200), (80, 400)]:
            cert = estimate_L(
                o,
                SearchBudget(
                    random_configs=configs,
                    ascent_steps=0,
                    two_point_pairs=pairs,
                    seed=42,
                ),
            )
            assert cert.l_lower >= prev
            prev = cert.l_lower

    def test_budget_growth_with_ascent_on_zoo(self):
        for name, params in [("cubic1d", [1.0]), ("separable_cubic", [3.0, 1.0])]:
            o = builtin(name, params)
            small = estimate_L(o, small_budget(seed=5))
            big = estimate_L(
                o, small_budget(seed=5, random_configs=800, two_point_pairs=200)
            )
            assert big.l_lower >= small.l_lower - 1e-12


class TestFalsify:
    def test_half_constant_refuted_quickly(self):
        o = builtin("cubic1d", [1.0])
        log = ProbeLog()
        cert = falsify(o, 0.5, small_budget(), log=log)
        assert cert is not None
        assert cert.probes_used <= 1000
        # interior two-point probes have gap = spread / 2: margin is
        # gap - 0.25 spread = 0.25 spread
        assert cert.margin == pytest.approx(0.25 * cert.witness.spread, rel=1e-6)

    def test_true_constant_never_refuted(self):
        o = builtin("cubic1d", [1.0])
        assert falsify(o, 1.0, small_budget(random_configs=2000)) is None

    def test_quadratic_zero_claim_survives(self):
        assert falsify(builtin("quadratic"), 0.0, small_budget()) is None

    def test_negative_claim_rejected(self):
        with pytest.raises(ValueError):
            falsify(builtin("quadratic"), -1.0, small_budget())

    @pytest.mark.parametrize("claim", [float("nan"), float("inf")])
    def test_non_finite_claim_rejected(self, claim):
        with pytest.raises(ValueError, match="finite"):
            falsify(builtin("quadratic"), claim, small_budget())

    def test_none_when_claim_at_least_estimate(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        b = small_budget()
        cert = estimate_L(o, b)
        assert falsify(o, cert.l_lower, b) is None

    @pytest.mark.parametrize("name, params", [("poly_map_2d", []), ("cubic1d", [1.0])])
    def test_claim_near_float_range_silent(self, name, params):
        # (claimed_L / 2) spread overflows to inf on batch rows, a bound no
        # finite gap exceeds: no violation and, under filterwarnings =
        # error, no overflow warning
        assert falsify(builtin(name, params), 1e308, small_budget(seed=1)) is None

    def test_violation_witness_replayable(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        cert = falsify(o, 1.5, small_budget())
        assert cert is not None
        r = replay(cert.witness, o)
        assert r.gap == cert.witness.gap and r.spread == cert.witness.spread
        assert violates(r, cert.claimed_l)


class TestCrossValidate:
    def test_cubic1d(self):
        rep = cross_validate(builtin("cubic1d", [1.0]), small_budget(), fd_pairs=500)
        assert rep.l_probe == pytest.approx(1.0, abs=1e-9)
        assert rep.l_fd == pytest.approx(1.0, abs=1e-4)
        assert rep.consistent

    def test_quadratic_both_zero(self):
        rep = cross_validate(builtin("quadratic"), small_budget(), fd_pairs=300)
        assert rep.l_probe <= 1e-9
        assert rep.l_fd <= 1e-5
        assert rep.consistent

    def test_norm_cubed_mutual_agreement(self):
        rep = cross_validate(
            builtin("norm_cubed"),
            SearchBudget(
                random_configs=2000, ascent_steps=1000, two_point_pairs=2000, seed=42
            ),
            fd_pairs=5000,
        )
        assert rep.consistent
        assert abs(rep.l_probe - rep.l_fd) <= 0.05 * max(rep.l_probe, rep.l_fd, 1.0)

    def test_vector_oracle_route(self):
        rep = cross_validate(builtin("poly_map_2d"), small_budget(), fd_pairs=2000)
        assert rep.l_probe == pytest.approx(2.0, abs=0.05)
        assert rep.l_fd == pytest.approx(2.0, abs=0.1)
        assert rep.consistent


class TestProbeLog:
    def test_counts_and_rows(self):
        o = builtin("cubic1d", [1.0])
        log = ProbeLog(collect=True)
        estimate_L(o, small_budget(), log=log)
        assert log.count > 0
        kinds = {k for k, _ in log.rows}
        assert "two_point" in kinds and "config" in kinds
        assert {r.n for k, r in log.rows if k == "two_point"} == {2}


def _reference_configs(F, budget):
    """The random-configuration phase one configuration at a time, in
    stream order: each batch drawn whole by the draw rule, then jensen_probe
    on each of its rows."""
    for b, count in _batches(budget.random_configs):
        rng = stream_rng(budget.seed, STREAM_CONFIGS, b)
        ns = rng.integers(2, budget.max_n + 1, size=count)
        pts = rng.standard_normal((count, budget.max_n, F.dim_in)) * (budget.domain_radius / math.sqrt(F.dim_in))
        e = rng.standard_exponential((count, budget.max_n))
        for k, n in enumerate(ns):
            yield jensen_probe(F, Configuration(pts[k, :n], e[k, :n] / e[k, :n].sum()))


def _same_probe(a, b):
    return ((a.gap, a.spread, a.ratio, a.value_scale, a.point_scale)
            == (b.gap, b.spread, b.ratio, b.value_scale, b.point_scale)
            and np.array_equal(a.config.points, b.config.points)
            and np.array_equal(a.config.weights.weights, b.config.weights.weights))


def _bump_oracle(centre):
    """An affine map plus a narrow bump at one point: only a configuration
    with a point at the bump has a Jensen gap above rounding."""
    a = np.array([[2.0, -1.0], [0.5, 1.0]])

    def ev(x):
        x = np.asarray(x)
        r2 = ((x - centre) ** 2).sum(axis=-1)
        return x @ a.T + (np.exp(-r2 / 1e-5) * 100.0)[..., None]

    return VectorOracle(2, 2, ev, "bump")


def _reference_two_point(F, budget):
    """The midpoint-first two-point phase one pair at a time, in stream
    order: every pair's two_point_probe at t = 1/2, then the 8 best of each
    batch by candidate ratio (ties to stream order) replaced by their own
    best_t_probe.  Returns each pair's row and the refined pairs' indices."""
    scale = budget.domain_radius / math.sqrt(F.dim_in)
    rows, refined = [], []
    for b, count in _batches(budget.two_point_pairs):
        xy = stream_rng(budget.seed, STREAM_PAIRS, b).standard_normal((count, 2, F.dim_in)) * scale
        mid = [two_point_probe(F, x, y, 0.5) for x, y in xy]
        top = sorted(range(count), key=lambda k: -_candidate_ratio(mid[k]))[:8]
        for k in top:
            mid[k] = best_t_probe(F, xy[k, 0], xy[k, 1], min_spread_coeff=INFORMATIVE_SPREAD_COEFF)
        refined += [len(rows) + k for k in top]
        rows += mid
    return rows, refined


def _first_best(rows):
    best = None
    for r in rows:
        if best is None or _candidate_ratio(r) > _candidate_ratio(best):
            best = r
    return best


def _oracle(name):
    # the zero map ties every ratio at 0: the first rows must win
    if name == "zero":
        return builtin("affine", [0.0, 0.0])
    return builtin(*ZOO[name]) if name in ZOO else builtin(name)


class TestTwoPointStreamOrder:
    """The batched two-point phase of estimate_L against the rule run one
    pair at a time; 700 pairs end inside the second batch."""

    BUDGET = SearchBudget(two_point_pairs=700, random_configs=0, ascent_steps=0, seed=9)

    @pytest.mark.parametrize("name", [*ZOO, "affine", "quadratic", "zero"])
    def test_estimate_matches_per_pair_replay(self, name):
        o = _oracle(name)
        ref, _ = _reference_two_point(as_vector_oracle(o), self.BUDGET)
        best = _first_best(ref)
        log = ProbeLog(collect=True)
        cert = estimate_L(o, self.BUDGET, log=log)
        assert _same_probe(cert.witness, best)
        assert _same_probe(replay(cert.witness, o), best)
        assert log.rows == [("two_point", (2, r.gap, r.spread, r.ratio)) for r in ref]
        assert cert.l_lower == best.ratio
        assert cert.probes_used == log.count == 700 + 16 * _T_PROBES_PER_PAIR

    def test_one_batch_oracle_cost(self):
        # the midpoint chunk's 2 calls (1 024 + 512 points), the scan of
        # the 8 refined pairs in 24 (F(x) and F(y), one grid call of 8 x 31
        # points, 22 golden steps of 8), one jensen_probe_batch chunk's 2
        # for their winners (16 + 8) and the rebuilt best's 2 (3): 2 003
        # points.  Scanning every pair took 35 calls for 29 699 points.
        F0 = as_vector_oracle(builtin(*ZOO["cubic1d"]))
        points = []

        def count(p):
            points.append(int(np.prod(np.shape(p)[:-1])))
            return F0.eval(p)

        F = VectorOracle(F0.dim_in, F0.dim_out, count, "counting")
        estimate_L(F, SearchBudget(two_point_pairs=512, random_configs=0, ascent_steps=0, seed=3))
        assert (len(points), sum(points)) == (30, 2_003)
        assert sum(points) == 512 * 3 + 8 * (2 + _T_PROBES_PER_PAIR + 3) + 3


def _counting_scan(monkeypatch):
    """Replace estimate.best_t_scan by a wrapper recording the pair count
    of each call."""
    calls = []
    real = estimate.best_t_scan

    def counted(F, x, y, min_spread_coeff=0.0):
        calls.append(len(x))
        return real(F, x, y, min_spread_coeff)

    monkeypatch.setattr(estimate, "best_t_scan", counted)
    return calls


class TestMidpointFirst:
    """Every pair probed at t = 1/2; each batch's 8 best rows refined, the
    refined pairs of every batch in one best_t_scan call."""

    def test_one_scan_per_search(self, monkeypatch):
        calls = _counting_scan(monkeypatch)
        estimate_L(builtin(*ZOO["sc2"]), SearchBudget(random_configs=100, ascent_steps=50, seed=4))
        assert calls == [64]

    @pytest.mark.parametrize("pairs", [1, 7, 8, 9, 512, 513, 700])
    @pytest.mark.parametrize("name", ["cubic1d", "sc8", "zero"])
    def test_rows_and_witness(self, pairs, name, monkeypatch):
        calls = _counting_scan(monkeypatch)
        o = _oracle(name)
        budget = SearchBudget(two_point_pairs=pairs, random_configs=0, ascent_steps=0, seed=11)
        ref, refined = _reference_two_point(as_vector_oracle(o), budget)
        log = ProbeLog(collect=True)
        cert = estimate_L(o, budget, log=log)
        assert log.rows == [("two_point", (2, r.gap, r.spread, r.ratio)) for r in ref]
        assert all(ref[k].config.weights.weights.tolist() == [0.5, 0.5]
                   for k in range(pairs) if k not in refined)
        assert _same_probe(cert.witness, _first_best(ref))
        assert calls == [len(refined)] and len(refined) == sum(min(8, c) for _, c in _batches(pairs))
        assert cert.probes_used == log.count == pairs + len(refined) * _T_PROBES_PER_PAIR

    def test_unrefined_best_is_redrawn(self, monkeypatch):
        # a scan that puts every refined pair at t = 0 leaves them no
        # spread, so each batch's best is its best unrefined midpoint row,
        # rebuilt from the batch drawn again
        monkeypatch.setattr(estimate, "best_t_scan", lambda F, x, y, min_spread_coeff: np.zeros(len(x)))
        F = as_vector_oracle(builtin(*ZOO["sc8"]))
        budget = SearchBudget(two_point_pairs=600, random_configs=0, ascent_steps=0, seed=2)
        scale = budget.domain_radius / math.sqrt(F.dim_in)
        mids = []
        for b, count in _batches(budget.two_point_pairs):
            xy = stream_rng(budget.seed, STREAM_PAIRS, b).standard_normal((count, 2, F.dim_in)) * scale
            mid = [two_point_probe(F, x, y, 0.5) for x, y in xy]
            top = sorted(range(count), key=lambda k: -_candidate_ratio(mid[k]))[:8]
            mids += [r for k, r in enumerate(mid) if k not in top]
        cert = estimate_L(F, budget)
        assert _same_probe(cert.witness, _first_best(mids))
        assert _same_probe(replay(cert.witness, F), cert.witness)

    def test_no_pairs_runs_the_config_phase_alone(self, monkeypatch):
        calls = _counting_scan(monkeypatch)
        budget = SearchBudget(two_point_pairs=0, random_configs=600, ascent_steps=0, seed=9)
        o = builtin(*ZOO["sc2"])
        log = ProbeLog(collect=True)
        cert = estimate_L(o, budget, log=log)
        ref = list(_reference_configs(as_vector_oracle(o), budget))
        assert calls == []
        assert log.rows == [("config", (r.config.n, r.gap, r.spread, r.ratio)) for r in ref]
        assert _same_probe(cert.witness, _first_best(ref))


class TestTwoPointCount:
    def test_probes_per_pair_are_one_scan(self):
        # one pair's best_t_probe: F(x) and F(y), then every t the scan
        # evaluates, then the winner's replay through jensen_probe
        F0 = as_vector_oracle(builtin(*ZOO["sc2"]))
        points = []

        def count(p):
            points.append(int(np.prod(np.shape(p)[:-1])))
            return F0.eval(p)

        F = VectorOracle(F0.dim_in, F0.dim_out, count, "counting")
        best_t_probe(F, np.array([1.0, -2.0]), np.array([0.5, 3.0]), min_spread_coeff=INFORMATIVE_SPREAD_COEFF)
        assert points[0] == 2 and points[-2:] == [2, 1]
        assert sum(points[1:-2]) == _T_PROBES_PER_PAIR == 53


class TestConfigStreamOrder:
    """The batched configuration phase against jensen_probe on each row of
    the batch draw, one configuration at a time."""

    BUDGET = SearchBudget(two_point_pairs=0, random_configs=1100, ascent_steps=0, seed=9)

    @pytest.mark.parametrize("target", [37, 511, 600, 1023, 1099],
                             ids=["in_batch0", "batch0_last", "in_batch1", "batch1_last", "final_last"])
    def test_falsify_first_hit(self, target):
        c = list(_reference_configs(builtin("affine"), self.BUDGET))[target].config
        F = _bump_oracle(c.points[np.argmax(c.weights.weights)])  # the bump under the heaviest point
        expected = next(i for i, r in enumerate(_reference_configs(F, self.BUDGET)) if violates(r, 1.0))
        assert expected == target
        log = ProbeLog(collect=True)
        cert = falsify(F, 1.0, self.BUDGET, log=log)
        want = list(_reference_configs(F, self.BUDGET))[target]
        assert _same_probe(cert.witness, want)
        assert cert.probes_used == log.count == len(log.rows) == target + 1

    @pytest.mark.parametrize("name", ["cubic1d", "sc2", "poly_map_2d", "sc8", "zero"])
    def test_estimate_witness(self, name):
        # the zero map ties every ratio at 0: the first row must win
        o = builtin("affine", [0.0, 0.0]) if name == "zero" else builtin(*ZOO[name])
        ref = list(_reference_configs(as_vector_oracle(o), self.BUDGET))
        best = None
        for r in ref:
            if best is None or _candidate_ratio(r) > _candidate_ratio(best):
                best = r
        log = ProbeLog(collect=True)
        cert = estimate_L(o, self.BUDGET, log=log)
        assert _same_probe(cert.witness, best)
        assert log.rows == [("config", (r.config.n, r.gap, r.spread, r.ratio)) for r in ref]
        assert cert.l_lower == best.ratio and cert.probes_used == self.BUDGET.random_configs


class _CountingRng:
    """A generator that records the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestConfigDrawRule:
    def test_three_generator_calls_per_batch(self, monkeypatch):
        calls = {}
        real = estimate.stream_rng

        def counting(seed, stream, batch=0):
            return _CountingRng(real(seed, stream, batch), calls.setdefault((stream, batch), []))

        monkeypatch.setattr(estimate, "stream_rng", counting)
        budget = SearchBudget(two_point_pairs=0, random_configs=1100, ascent_steps=0, seed=3)
        estimate_L(builtin(*ZOO["sc2"]), budget)
        assert calls == {(STREAM_CONFIGS, b): ["integers", "standard_normal", "standard_exponential"]
                         for b in range(3)}

    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("max_n", [2, 4, 10])
    def test_sample_configuration_is_row_0_of_a_batch(self, dim, max_n):
        for seed in range(40):
            c = sample_configuration(np.random.default_rng(seed), dim, max_n, 5.0)
            ns, pts, e = _draw_configurations(np.random.default_rng(seed), 1, dim, max_n, 5.0)
            n = ns[0]
            assert c.n == n
            np.testing.assert_array_equal(c.points, pts[0, :n])
            np.testing.assert_array_equal(c.weights.weights, SimplexWeights(e[0, :n] / e[0, :n].sum()).weights)


class TestOverflow:
    """Values whose squared norms overflow raise instead of certifying inf."""

    def test_estimate_and_falsify_raise(self):
        o = builtin("cubic1d", [1e200])
        with pytest.raises(ValueError, match="overflows"):
            estimate_L(o, SearchBudget(seed=1))
        with pytest.raises(ValueError, match="overflows"):
            falsify(o, 1e200, SearchBudget(seed=1))
        # a probe outside a search raises too, after numpy's own warning
        with pytest.raises(ValueError, match="overflows"), np.errstate(over="ignore"):
            jensen_probe(as_vector_oracle(o), Configuration(np.array([[-5.0], [5.0]]), SimplexWeights([0.5, 0.5])))

    def test_replay_raises_without_warning(self):
        # filterwarnings = error turns numpy's overflow warning into the
        # exception, so this fails if the warning comes out first
        o = builtin("cubic1d", [1e200])
        c = Configuration(np.array([[-5.0], [5.0]]), SimplexWeights([0.5, 0.5]))
        with pytest.raises(ValueError, match="overflows"):
            replay(ProbeResult(0.0, 0.0, None, c, o.label, 0.0, 0.0), o)

    def test_large_but_finite_still_certifies(self):
        o = builtin("cubic1d", [1e150])
        cert = estimate_L(o, SearchBudget(seed=1))
        assert 0.99 * o.known_L <= cert.l_lower <= o.known_L * (1.0 + 1e-8)


class TestWorkingSet:
    """Memory an op holds does not grow with budget x d^2."""

    def test_fd_cross_check_bounded_at_d128(self):
        # one 200-pair FD stack at d = 128 is 52 MB per array
        o = builtin("separable_cubic", [3.0] + [1.0] * 127)
        budget = SearchBudget(two_point_pairs=4, random_configs=4, ascent_steps=4, seed=1)
        tracemalloc.start()
        try:
            rep = cross_validate(o, budget, fd_pairs=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.l_fd > 0.0
        assert peak < 16e6

    def test_chunks_within_one_budget_at_d128(self, monkeypatch):
        # every FD oracle call, every coordinate-search stack and every
        # jensen_probe_batch chunk's (rows, n, n, d) difference stack holds
        # at most vecspace._CHUNK_ELEMENTS entries, and each fills it
        limit = vecspace._CHUNK_ELEMENTS
        o = builtin("separable_cubic", [3.0] + [1.0] * 127)
        shapes = []

        def grad(x):
            shapes.append(np.shape(x))
            return o.gradient(x)

        lip_from_hessians(ScalarOracle(128, o.value, grad, "counting"), DomainSampler(128), 3,
                          np.random.default_rng(0))
        assert max(int(np.prod(s)) for s in shapes) == limit  # one (1, 128, 128) block

        stacks = []
        search = estimate.coordinate_search

        def recording(start, steps, radius, judge):
            return search(start, steps, radius, lambda stack: stacks.append(stack.size) or judge(stack))

        monkeypatch.setattr(estimate, "coordinate_search", recording)
        shapes.clear()
        F = VectorOracle(128, 128, grad, "counting")
        rng = np.random.default_rng(1)
        start = jensen_probe(F, Configuration(rng.standard_normal((4, 128)), SimplexWeights(np.full(4, 0.25))))
        _ascend(F, start, 100, 5.0, ProbeLog())
        assert max(stacks) == limit  # 32 trials of a (4, 128) array
        chunks = [s for s in shapes if len(s) == 3 and s[1] == 4]
        assert max(b * n * n * d for b, n, d in chunks) == limit  # 8 rows of (4, 4, 128)

    def test_probe_log_packed(self):
        F = as_vector_oracle(builtin("separable_cubic", [3.0, 1.0]))
        rng = np.random.default_rng(2)
        single = jensen_probe(F, sample_configuration(rng, 2, 4, 5.0))
        cols = rng.uniform(0.0, 1.0, (len(ProbeBatch._fields), 500))
        cols[ProbeBatch._fields.index("ratio"), ::7] = np.nan
        batch = ProbeBatch(*cols)
        ns = rng.integers(2, 5, 500).tolist()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = ProbeLog(collect=True)
            for _ in range(16):
                log.add_batch("config", ns, batch, 0, 500)
            for _ in range(2000):
                log.add("ascent", single)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert log.count == 10_000
        assert kept < 0.5e6
        rows = log.rows
        assert len(rows) == 10_000
        ratio = [None if np.isnan(v) else v for v in batch.ratio.tolist()]
        assert rows[:500] == [("config", r) for r in zip(ns, batch.gap.tolist(), batch.spread.tolist(), ratio)]
        assert rows[-1] == ("ascent", (single.config.n, single.gap, single.spread, single.ratio))
        assert all(type(v) is float for v in rows[0][1][1:3])


def _nested_search(start, steps, radius, accept):
    """The schedule as a nested sweep loop, the reference coordinate_search
    must match."""
    pts = np.array(start, dtype=np.float64)
    base = 0.5 * (1.0 + radius)
    level = 0
    used = 0
    n, d = pts.shape
    while used < steps and level < ASCENT_LEVELS:
        step = base * ASCENT_SHRINK**level
        accepted = False
        for i in range(n):
            for k in range(d):
                for s in (1.0, -1.0):
                    if used >= steps:
                        return pts
                    trial = pts.copy()
                    trial[i, k] += s * step
                    used += 1
                    verdict = accept(trial)
                    if verdict is None:
                        return pts
                    if verdict:
                        pts, accepted = trial, True
        if not accepted:
            level += 1
    return pts


def _nested_ascend(F, start, steps, radius, log, stop=None):
    """The ratio hill climb as a nested sweep loop, the reference _ascend
    must match."""
    best = start
    if steps <= 0:
        return best
    best_c = _candidate_ratio(best)
    pts = np.array(best.config.points)
    w = best.config.weights
    base = 0.5 * (1.0 + radius)
    level = 0
    used = 0
    n, d = pts.shape
    while used < steps and level < ASCENT_LEVELS:
        step = base * ASCENT_SHRINK**level
        accepted = False
        for i in range(n):
            for k in range(d):
                for s in (1.0, -1.0):
                    if used >= steps:
                        return best
                    trial = pts.copy()
                    trial[i, k] += s * step
                    r = jensen_probe(F, Configuration(trial, w))
                    used += 1
                    log.add("ascent", r)
                    if stop is not None and stop(r):
                        return r
                    c = _candidate_ratio(r)
                    if c > best_c:
                        best, best_c, pts = r, c, trial
                        accepted = True
        if not accepted:
            level += 1
    return best


class TestCoordinateSearch:
    """coordinate_search makes the trials of the nested loop it replaced:
    a judge shown its stacks accounts for the rows up to the first
    decisive one, and the search goes on from the next trial."""

    @staticmethod
    def _trials(shape, steps, p_accept, stop_at, seed, stacks=None):
        """The trials a search makes when trial t is accepted with the
        t-th of a seeded run of verdicts, or ends it when t == stop_at:
        through _nested_search one trial at a time without stacks, else
        through coordinate_search, recording each judged stack's size and
        accounted rows in stacks."""
        verdicts = np.random.default_rng(seed).random(10_000) < p_accept
        trials = []

        def verdict(trial):
            trials.append(trial.copy())
            return None if len(trials) == stop_at else bool(verdicts[len(trials) - 1])

        def judge(stack):
            for j, trial in enumerate(stack):
                v = verdict(trial)
                if v is None or v:
                    break
            stacks.append((len(stack), j + 1))
            return j, v

        start = np.random.default_rng(seed + 1).standard_normal(shape)
        if stacks is None:
            return trials, _nested_search(start, steps, 2.0, verdict)
        return trials, coordinate_search(start, steps, 2.0, judge)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 8)])
    @pytest.mark.parametrize("p_accept, stop_at", [(0.0, None), (0.2, None), (0.6, None), (0.3, 5)])
    def test_same_trials_as_nested_loop(self, shape, p_accept, stop_at):
        for steps in (0, 7, 45, 2000):
            for seed in range(3):
                ref, ref_end = self._trials(shape, steps, p_accept, stop_at, seed)
                stacks = []
                got, got_end = self._trials(shape, steps, p_accept, stop_at, seed, stacks)
                assert len(got) == len(ref) <= steps
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
                assert np.array_equal(got_end, ref_end)
                assert sum(used for _, used in stacks) == len(got)
                if stop_at is not None and steps >= stop_at:
                    assert len(ref) == stop_at
                if shape != (1, 1) and stop_at is not None and steps >= 45:
                    # the stop fired on the 5th trial, before the last row
                    # of the stack holding it
                    assert stacks[-1][1] < stacks[-1][0]

    def test_limit_ends_mid_sweep_and_levels_run_out(self):
        # 7 trials stop inside the first 2 n d = 12-trial sweep of a 2x3
        # array, as a 7-row stack; rejecting everything ends after
        # ASCENT_LEVELS sweeps of one stack each
        mid_stacks, full_stacks = [], []
        mid, _ = self._trials((2, 3), 7, 0.0, None, 0, mid_stacks)
        full, _ = self._trials((2, 3), 10_000, 0.0, None, 0, full_stacks)
        assert len(mid) == 7 and mid_stacks == [(7, 7)]
        assert len(full) == ASCENT_LEVELS * 12
        assert full_stacks == [(12, 12)] * ASCENT_LEVELS

    def test_steps_end_inside_a_stack(self):
        # a sweep after an accepted trial is judged from the next trial on,
        # so steps = 9 cuts the 2x3 sweep's second stack to the 9 - j left
        stacks = []
        got, _ = self._trials((2, 3), 9, 1.0, None, 0, stacks)
        ref, _ = self._trials((2, 3), 9, 1.0, None, 0)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)) and len(got) == len(ref) == 9
        assert stacks[:2] == [(9, 1), (8, 1)]

    @pytest.mark.parametrize("elements", [1, 6, 13])
    def test_capped_stacks_same_trials(self, monkeypatch, elements):
        # a stack holds at most vecspace._CHUNK_ELEMENTS entries, and at
        # least one trial: the cap changes the stacks but not the trials
        monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", elements)
        for p_accept, stop_at in ((0.0, None), (0.3, None), (0.3, 17)):
            ref, ref_end = self._trials((2, 3), 200, p_accept, stop_at, 4)
            stacks = []
            got, got_end = self._trials((2, 3), 200, p_accept, stop_at, 4, stacks)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)) and len(got) == len(ref)
            assert np.array_equal(got_end, ref_end)
            assert max(size for size, _ in stacks) == max(1, elements // 6)

    @pytest.mark.parametrize("case", sorted(ZOO))
    @pytest.mark.parametrize("stop_after", [None, 37])
    def test_ascend_matches_nested_ascend(self, case, stop_after):
        F = as_vector_oracle(builtin(*ZOO[case]))
        rng = stream_rng(3, STREAM_CONFIGS, 0)
        start = jensen_probe(F, sample_configuration(rng, F.dim_in, 4, 5.0))
        stop = None
        if stop_after is not None:
            # a stop on the values of the nested ascent's 37th trial, which
            # _ascend judges as the 37th row of the trial stacks it probes
            seen = []
            _nested_ascend(F, start, 200, 5.0, ProbeLog(), stop=lambda r: seen.append(r) and False)
            g, sp = seen[stop_after - 1].gap, seen[stop_after - 1].spread

            def stop(r):
                return (np.asarray(r.gap) == g) & (np.asarray(r.spread) == sp)

        results, logs = [], []
        for ascend in (_nested_ascend, _ascend):
            log = ProbeLog(collect=True)
            results.append(ascend(F, start, 200, 5.0, log, stop=stop))
            logs.append(log)
        ref, got = results
        assert (got.gap, got.spread, got.ratio, got.value_scale, got.point_scale) == (
            ref.gap, ref.spread, ref.ratio, ref.value_scale, ref.point_scale)
        assert np.array_equal(got.config.points, ref.config.points)
        assert np.array_equal(got.config.weights.weights, ref.config.weights.weights)
        assert logs[1].rows == logs[0].rows
        assert logs[1].count == logs[0].count
        if stop_after is None:
            assert 0 < logs[0].count <= 200
        else:  # the stop fired mid-ascent and its probe came back
            assert logs[0].count == stop_after
            assert logs[0].rows[-1][1] == (ref.config.n, ref.gap, ref.spread, ref.ratio)
