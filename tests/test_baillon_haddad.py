import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessfree.baillon_haddad import (
    check_cocoercive,
    cocoercivity_residual,
    convexity_split_check,
    lipschitz_from_cocoercivity,
)
from hessfree.oracles import DomainSampler, builtin
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
