import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessfree import baillon_haddad
from hessfree.baillon_haddad import (
    COCOERCIVITY_TOL_COEFF,
    CocoercivityReport,
    _max_norm,
    _pair_differences,
    _residuals,
    check_cocoercive,
    cocoercivity_residual,
    convexity_split_check,
    lipschitz_from_cocoercivity,
)
from hessfree.estimate import ASCENT_LEVELS, ASCENT_SHRINK, coordinate_search
from hessfree.oracles import DomainSampler, as_vector_oracle, builtin
from hessfree.probe import midpoint_convexity_violation
from hessfree.slices import slice_gradient_map, slice_map, unit_functional_set

coord = st.floats(min_value=-8.0, max_value=8.0)


class TestCocoercivityResidual:
    def test_equal_points(self):
        G = lambda p: 2.0 * np.asarray(p)
        x = np.array([1.0, -2.0])
        assert cocoercivity_residual(G, 3.0, x, x) == 0.0

    def test_scaled_identity_equality_case(self):
        # G = beta x gives <beta d, d> - (1/beta) ||beta d||^2 = 0
        beta = 2.5
        G = lambda p: beta * np.asarray(p)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-5, 5, (2, 3))
            r = cocoercivity_residual(G, beta, x, y)
            scale = beta**2 * float((x - y) @ (x - y))
            assert abs(r) <= 1e-12 * (1 + scale)

    def test_negative_identity_hand_value(self):
        G = lambda p: -np.asarray(p)
        r = cocoercivity_residual(G, 1.0, np.array([1.0]), np.array([0.0]))
        assert r == pytest.approx(-2.0, rel=1e-14)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            cocoercivity_residual(lambda p: p, 0.0, np.array([1.0]), np.array([0.0]))

    @given(
        st.lists(coord, min_size=2, max_size=2),
        st.lists(coord, min_size=2, max_size=2),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_pair(self, xs, ys, beta):
        G = lambda p: np.asarray(p) * np.array([1.5, -0.5]) + 1.0
        x, y = np.array(xs), np.array(ys)
        assert cocoercivity_residual(G, beta, x, y) == cocoercivity_residual(G, beta, y, x)


def _one_trial_check_cocoercive(G, beta, sampler, rng, pairs, ascent_steps=200):
    """check_cocoercive with a descent judging one trial pair per G call,
    the reference the stacked descent must match."""
    xs = sampler.gaussian(rng, pairs)
    ys = sampler.gaussian(rng, pairs)
    dg, dxy, vals, _ = _pair_differences(G, xs, ys)
    res = _residuals(dg, dxy, beta)
    k = int(np.argmin(res))
    worst = float(res[k])
    gscale = _max_norm(vals)
    pscale = max(_max_norm(xs), _max_norm(ys))
    tested = pairs
    current = np.stack([xs[k], ys[k]])
    used = level = 0
    while used < ascent_steps and level < ASCENT_LEVELS:
        step = 0.5 * (1.0 + sampler.radius) * ASCENT_SHRINK**level
        accepted = False
        for i, c, s in itertools.islice(itertools.product(range(2), range(current.shape[1]), (1.0, -1.0)),
                                        ascent_steps - used):
            trial = current.copy()
            trial[i, c] += s * step
            used += 1
            dg, dxy, vals, _ = _pair_differences(G, trial[0], trial[1])
            r = float(_residuals(dg, dxy, beta)[0])
            tested += 1
            gscale = max(gscale, _max_norm(vals))
            pscale = max(pscale, _max_norm(trial))
            if not r >= worst:
                worst, current, accepted = r, trial, True
        level += not accepted
    tol = COCOERCIVITY_TOL_COEFF * (1.0 + gscale + pscale) ** 2
    return CocoercivityReport(beta, worst, (current[0], current[1]), tested, tol,
                              bool(worst >= -tol), gscale)


ZOO_SLICES = [
    ("separable_cubic", [3.0, 1.0], 3.0),
    ("separable_cubic", [3.0, 1.0, 0.5, 2.0], 3.0),
    ("poly_map_2d", [], 2.0),
    ("norm_cubed", [], 1.0),
    ("rosenbrock", [], 26000.0),
]


class TestCheckCocoercive:
    def sampler(self, dim=2):
        return DomainSampler(dim, 5.0)

    def test_smooth_convex_quadratic_passes(self):
        # Hessian eigenvalues in [0, beta] make the gradient 1/beta-cocoercive
        beta = 3.0
        q = np.diag([3.0, 1.5])
        G = lambda p: np.asarray(p) @ q
        rep = check_cocoercive(G, beta, self.sampler(), np.random.default_rng(42), 500)
        assert rep.passed
        assert rep.min_residual >= -rep.tol

    def test_negated_identity_fails_with_witness(self):
        G = lambda p: -np.asarray(p)
        rep = check_cocoercive(G, 1.0, self.sampler(), np.random.default_rng(42), 200)
        assert not rep.passed
        x, y = rep.witness_pair
        assert cocoercivity_residual(G, 1.0, x, y) == rep.min_residual
        assert rep.min_residual < 0

    def test_equality_case_passes_at_zero(self):
        beta = 2.0
        G = lambda p: beta * np.asarray(p)
        rep = check_cocoercive(G, beta, self.sampler(), np.random.default_rng(1), 300)
        assert rep.passed
        assert abs(rep.min_residual) <= rep.tol

    def test_one_operator_call_per_ascent_trial(self, monkeypatch):
        # the sampled x rows stacked over the y rows, then one call per
        # stack of trial pairs the descent evaluates, its x rows over its
        # y rows
        calls, stacks, plans = [], [], []

        def G(p):
            calls.append(np.shape(p))
            return np.asarray(p) * np.array([1.05, 0.2])

        def search(start, steps, radius, evaluate, decide):
            return coordinate_search(start, steps, radius, lambda s: stacks.append(len(s)) or evaluate(s),
                                     lambda s, rows: plans.append(len(s)) or decide(s, rows))

        monkeypatch.setattr(baillon_haddad, "coordinate_search", search)
        rep = check_cocoercive(G, 1.0, self.sampler(), np.random.default_rng(3), 400, ascent_steps=200)
        assert rep.pairs_tested - 400 > len(stacks) > 0
        assert calls == [(800, 2)] + [(2 * k, 2) for k in stacks]
        assert max(plans) == 8  # no segment here runs past one sweep of a (2, 2) pair
        assert len(stacks) < len(plans)  # some calls evaluate a walk of several segments

    @pytest.mark.parametrize("name, params, known_l", ZOO_SLICES)
    def test_witness_replays(self, name, params, known_l):
        # G = (L/2) x + grad of a unit slice, as verify builds it below the
        # constant: every failing report's residual is the one its witness
        # pair replays to, sampled witnesses (ascent_steps=0) included
        F = as_vector_oracle(builtin(name, params))
        half = known_l / 2
        failing = 0
        for f in unit_functional_set(F.dim_out, 4, np.random.default_rng(0)):
            grad = slice_gradient_map(F, f)
            G = lambda p, _g=grad: half * np.asarray(p, dtype=np.float64) + _g(p)
            for steps in (0, 200):
                rep = check_cocoercive(G, 2 * half, DomainSampler(F.dim_in, 5.0),
                                       np.random.default_rng(1), 400, ascent_steps=steps)
                if not rep.passed:
                    failing += 1
                    assert cocoercivity_residual(G, 2 * half, *rep.witness_pair) == rep.min_residual
        assert failing >= 4

    @pytest.mark.parametrize("name, params, known_l", ZOO_SLICES)
    def test_stacked_descent_matches_one_trial_descent(self, name, params, known_l):
        # G = l x + grad of a unit slice, as verify builds it at L = l, at
        # the constant and below it: every report field is the one-trial
        # descent's, bit for bit
        F = as_vector_oracle(builtin(name, params))
        failing = 0
        for l in (known_l, known_l / 2):
            for f in unit_functional_set(F.dim_out, 4, np.random.default_rng(0)):
                grad = slice_gradient_map(F, f)
                G = lambda p, _g=grad, _l=l: _l * np.asarray(p, dtype=np.float64) + _g(p)
                for steps in (0, 200):
                    got, ref = (check(G, 2 * l, DomainSampler(F.dim_in, 5.0), np.random.default_rng(1),
                                      400, ascent_steps=steps)
                                for check in (check_cocoercive, _one_trial_check_cocoercive))
                    for field in dataclasses.fields(CocoercivityReport):
                        a, b = getattr(got, field.name), getattr(ref, field.name)
                        if field.name == "witness_pair":
                            assert all(np.array_equal(u, v) for u, v in zip(a, b))
                        else:
                            assert type(a) is type(b) and a == b, field.name
                    failing += not got.passed
        assert failing >= 4

    def test_trials_after_the_accepted_one_not_counted(self):
        # G = -x at beta = 1 has residual -2 ||x - y||^2, so the first trial
        # x + 3 e1 is accepted.  The stack's second row x - 3 e1, the
        # largest point and ||G|| it holds, is a trial the one-trial descent
        # never makes: its second trial starts from x + 3 e1
        draws = iter([np.array([[-1.0, 0.0]]), np.array([[-1.5, 0.0]])])
        sampler = SimpleNamespace(radius=5.0, gaussian=lambda rng, n: next(draws))
        G = lambda p: -np.asarray(p)
        rep = check_cocoercive(G, 1.0, sampler, None, 1, ascent_steps=2)
        assert (rep.pairs_tested, rep.operator_scale, rep.min_residual) == (3, 2.0, -24.5)
        assert rep.tol == COCOERCIVITY_TOL_COEFF * (1.0 + 2.0 + 2.0) ** 2
        assert np.array_equal(np.stack(rep.witness_pair), [[2.0, 0.0], [-1.5, 0.0]])

    def test_ascent_sharpens_violation(self):
        # a barely-nonconvex perturbation: sampling alone may miss the
        # worst pair; the descent phase must still report a violation
        G = lambda p: np.asarray(p) * np.array([1.05, 0.2])
        rep = check_cocoercive(G, 1.0, self.sampler(), np.random.default_rng(3), 400)
        assert not rep.passed


class TestLipschitzFromCocoercivity:
    def test_equal_points(self):
        G = lambda p: np.asarray(p)
        assert lipschitz_from_cocoercivity(G, 1.0, np.array([2.0]), np.array([2.0])) == (
            0.0,
            0.0,
        )

    def test_hand_value(self):
        G = lambda p: np.asarray(p)  # grad of x^2/2
        lhs, rhs = lipschitz_from_cocoercivity(G, 1.0, np.array([1.0]), np.array([0.0]))
        assert lhs == 1.0 and rhs == 1.0

    def test_quadratic_within_bound(self):
        rng = np.random.default_rng(42)
        L = 2.0
        q = np.diag([2.0, -1.0])  # |phi''| <= L
        G = lambda p: np.asarray(p) @ q
        for _ in range(500):
            x, y = rng.uniform(-5, 5, (2, 2))
            lhs, rhs = lipschitz_from_cocoercivity(G, L, x, y)
            assert lhs <= rhs * (1 + 1e-8) + 1e-12

    def test_expansion_implication_on_zoo_slices(self):
        """Whenever G = L id + grad_phi has nonnegative 1/(2L) residual,
        the expanded form lhs <= rhs must hold (10^4 pairs, analytic
        slice gradients)."""
        cases = [
            (1.0, lambda p: np.asarray(p)),  # slice of grad cubic1d(1)
            (3.0, lambda p: np.asarray(p) * np.array([3.0, -1.0])),
            (2.0, lambda p: np.asarray(p) @ np.array([[2.0, 0.0], [0.0, 0.5]])),
        ]
        rng = np.random.default_rng(42)
        for L, G_phi in cases:
            dim = np.atleast_1d(G_phi(np.zeros(2))).size
            G = lambda p: L * np.asarray(p) + G_phi(p)
            checked = 0
            for _ in range(10_000 // len(cases)):
                x, y = rng.uniform(-5, 5, (2, dim))
                if cocoercivity_residual(G, 2 * L, x, y) >= 0:
                    lhs, rhs = lipschitz_from_cocoercivity(G_phi, L, x, y)
                    assert lhs <= rhs * (1 + 1e-8) + 1e-12
                    checked += 1
            assert checked > 0

    def test_l_must_be_positive(self):
        with pytest.raises(ValueError):
            lipschitz_from_cocoercivity(lambda p: p, 0.0, np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("L, x", [(1.4e154, 1.0), (1e153, 1e3)], ids=["L_squared", "rhs"])
    def test_overflowing_bound_rejected(self, L, x):
        # L**2 overflowed in an OverflowError, and L**2 ||x - y||^2 to an
        # inf rhs that no lhs exceeds
        with pytest.raises(ValueError, match="expansion_step check"):
            lipschitz_from_cocoercivity(lambda p: p, L, np.array([x]), np.array([0.0]))


class TestBatchedPairs:
    """(B, d) stacks of pairs give the single-pair values bit for bit."""

    @pytest.mark.parametrize("name,params", [
        ("cubic1d", [1.0]), ("separable_cubic", [3.0, 1.0]), ("poly_map_2d", []),
        ("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5]), ("rosenbrock", []),
    ])
    def test_batch_matches_single(self, name, params):
        o = builtin(name, params)
        F = o.gradient_oracle() if hasattr(o, "gradient_oracle") else o
        rng = np.random.default_rng(7)
        L = 1.7
        for f in unit_functional_set(F.dim_out, 2 * F.dim_out + 2, rng):
            grad_phi = slice_gradient_map(F, f)
            G = lambda p, _g=grad_phi: L * np.asarray(p) + _g(p)
            xs = rng.standard_normal((300, F.dim_in)) * 3.0
            ys = rng.standard_normal((300, F.dim_in)) * 3.0
            res = cocoercivity_residual(G, 2 * L, xs, ys)
            lhs, rhs = lipschitz_from_cocoercivity(grad_phi, L, xs, ys)
            assert res.shape == lhs.shape == rhs.shape == (300,)
            for i, (x, y) in enumerate(zip(xs, ys)):
                assert res[i] == cocoercivity_residual(G, 2 * L, x, y)
                assert (lhs[i], rhs[i]) == lipschitz_from_cocoercivity(grad_phi, L, x, y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cocoercivity_residual(lambda p: p, 1.0, np.zeros((3, 2)), np.zeros((2, 2)))


class TestConvexitySplitCheck:
    def sampler(self, dim=1):
        return DomainSampler(dim, 5.0)

    def test_smooth_slice_passes(self):
        phi = lambda p: 0.5 * np.asarray(p)[..., 0] ** 2
        rep = convexity_split_check(phi, 1.0, self.sampler(), np.random.default_rng(42), 500)
        assert rep.passed
        assert rep.worst_plus <= rep.tol and rep.worst_minus <= rep.tol

    def test_overflowing_tolerance_rejected(self):
        # (L/2) ||x||^2 overflows: an inf tolerance once passed every pair
        phi = lambda p: np.asarray(p)[..., 0] ** 2
        with pytest.raises(ValueError, match="convexity_split check"):
            convexity_split_check(phi, 1e308, self.sampler(), np.random.default_rng(42), 50)

    def test_oversteep_slice_fails_minus_split(self):
        # phi = x^2 has curvature 2 > L = 1: (L/2) x^2 - phi is concave
        phi = lambda p: np.asarray(p)[..., 0] ** 2
        rep = convexity_split_check(phi, 1.0, self.sampler(), np.random.default_rng(42), 500)
        assert not rep.passed
        assert any(w.which == "minus" for w in rep.witnesses)
        # spec'd hand value at the pair (0, 2): violation exactly 0.5
        g_minus = lambda p: 0.5 * np.einsum("...i,...i->...", p, p) - phi(p)
        v = midpoint_convexity_violation(g_minus, np.array([0.0]), np.array([2.0]))
        assert v == pytest.approx(0.5, rel=1e-14)

    def test_linear_slice_passes_any_l(self):
        phi = lambda p: 3.0 * np.asarray(p)[..., 0] - 2.0
        for L in (0.1, 1.0, 10.0):
            rep = convexity_split_check(
                phi, L, self.sampler(), np.random.default_rng(7), 300
            )
            assert rep.passed

    def test_witness_replayable_through_probe_module(self):
        phi = lambda p: np.asarray(p)[..., 0] ** 2
        rep = convexity_split_check(phi, 1.0, self.sampler(), np.random.default_rng(3), 200)
        w = rep.witnesses[0]
        g = lambda p: 0.5 * rep.l * np.einsum("...i,...i->...", p, p) - phi(p)
        assert midpoint_convexity_violation(g, w.x, w.y) == pytest.approx(
            w.violation, rel=1e-12
        )


class TestEquivalenceConsistency:
    """At L = known_L both checks pass on every gradient slice; at
    L = 0.9 known_L at least one fails for the cubic family."""

    CASES = [("cubic1d", [1.0]), ("separable_cubic", [3.0, 1.0])]

    @pytest.mark.parametrize("name,params", CASES)
    def test_passes_at_known_l(self, name, params):
        o = builtin(name, params)
        F = o.gradient_oracle()
        L = o.known_L
        rng = np.random.default_rng(42)
        sampler = DomainSampler(o.dim, 5.0)
        for f in unit_functional_set(F.dim_out, 4, rng):
            phi = slice_map(F, f)
            grad_phi = slice_gradient_map(F, f)
            split = convexity_split_check(phi, L, sampler, rng, 300)
            assert split.passed, (name, f)
            G = lambda p: L * np.asarray(p) + grad_phi(p)
            coco = check_cocoercive(G, 2 * L, sampler, rng, 300)
            assert coco.passed, (name, f)

    @pytest.mark.parametrize("name,params", CASES)
    def test_detected_below_known_l(self, name, params):
        o = builtin(name, params)
        F = o.gradient_oracle()
        L = 0.9 * o.known_L
        rng = np.random.default_rng(42)
        sampler = DomainSampler(o.dim, 5.0)
        split_failed = coco_failed = False
        for f in unit_functional_set(F.dim_out, 4, rng):
            phi = slice_map(F, f)
            grad_phi = slice_gradient_map(F, f)
            if not convexity_split_check(phi, L, sampler, rng, 300).passed:
                split_failed = True
            G = lambda p: L * np.asarray(p) + grad_phi(p)
            if not check_cocoercive(G, 2 * L, sampler, rng, 300).passed:
                coco_failed = True
        assert split_failed and coco_failed, name
