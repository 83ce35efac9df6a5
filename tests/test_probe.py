import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessfree import probe
from hessfree.oracles import BUILTIN_NAMES, VectorOracle, as_vector_oracle, builtin
from hessfree.probe import (
    ProbeResult,
    best_t_probe,
    jensen_probe,
    jensen_probe_batch,
    midpoint_convexity_violation,
    scale_floor,
    two_point_probe,
)
from hessfree.vecspace import Configuration, SimplexWeights


def grad_cubic(c=1.0):
    return builtin("cubic1d", [c]).gradient_oracle()


class TestJensenProbe:
    def test_singleton_degenerate(self):
        F = grad_cubic()
        c = Configuration(np.array([[1.7]]), SimplexWeights(np.array([1.0])))
        r = jensen_probe(F, c)
        assert r.gap == 0.0 and r.spread == 0.0 and r.ratio is None

    def test_affine_gap_vanishes(self):
        F = builtin("affine")
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pts = rng.uniform(-5, 5, (n, 2))
            w = rng.dirichlet(np.ones(n))
            r = jensen_probe(F, Configuration(pts, SimplexWeights(w)))
            assert r.gap <= 1e-12 * (1.0 + r.value_scale)

    def test_cubic_equality_case(self):
        # F(x) = x^2/2; F(1) = 0.5, average of F(0), F(2) is 1
        F = grad_cubic()
        c = Configuration(np.array([[0.0], [2.0]]), SimplexWeights(np.array([0.5, 0.5])))
        r = jensen_probe(F, c)
        assert r.gap == pytest.approx(0.5, rel=1e-14)
        assert r.spread == pytest.approx(1.0, rel=1e-14)
        assert r.ratio == pytest.approx(1.0, rel=1e-12)

    def test_dim_mismatch(self):
        F = builtin("poly_map_2d")
        c = Configuration(np.array([[0.0], [2.0]]), SimplexWeights(np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="dim"):
            jensen_probe(F, c)

    def test_nonfinite_oracle_output(self):
        from hessfree.oracles import VectorOracle

        bad = VectorOracle(1, 1, lambda x: np.full_like(np.asarray(x), np.inf), "bad")
        c = Configuration(np.array([[0.0], [1.0]]), SimplexWeights(np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="non-finite"):
            jensen_probe(bad, c)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        F = builtin("separable_cubic", [3.0, 1.0]).gradient_oracle()
        n = rng.integers(2, 7)
        pts = rng.uniform(-5, 5, (int(n), 2))
        w = rng.dirichlet(np.ones(int(n)))
        order = rng.permutation(int(n))
        r1 = jensen_probe(F, Configuration(pts, SimplexWeights(w)))
        r2 = jensen_probe(F, Configuration(pts[order], SimplexWeights(w[order])))
        assert r2.gap == pytest.approx(r1.gap, rel=1e-12, abs=1e-13)
        assert r2.spread == pytest.approx(r1.spread, rel=1e-12, abs=1e-13)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_weight_splitting_invariance(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        F = builtin("poly_map_2d")
        n = int(rng.integers(2, 6))
        pts = rng.uniform(-5, 5, (n, 2))
        w = rng.dirichlet(np.ones(n))
        r1 = jensen_probe(F, Configuration(pts, SimplexWeights(w)))
        pts2 = np.vstack([pts, pts[:1]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] /= 2
        r2 = jensen_probe(F, Configuration(pts2, SimplexWeights(w2)))
        assert r2.gap == pytest.approx(r1.gap, rel=1e-12, abs=1e-12)
        assert r2.spread == pytest.approx(r1.spread, rel=1e-12, abs=1e-12)


# one instance of every builtin kind, with d from 1 to 8
BATCH_ZOO = {
    "affine": [],
    "quadratic": [],
    "cubic1d": [1.5],
    "separable_cubic": [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5],
    "norm_cubed": [],
    "logistic_like": [2],
    "rosenbrock": [3],
    "poly_map_2d": [],
}


def _row(batch, k):
    ratio = None if np.isnan(batch.ratio[k]) else float(batch.ratio[k])
    return (float(batch.gap[k]), float(batch.spread[k]), ratio,
            float(batch.value_scale[k]), float(batch.point_scale[k]))


class TestJensenProbeBatch:
    def test_zoo_covers_every_builtin(self):
        assert sorted(BATCH_ZOO) == sorted(BUILTIN_NAMES)

    @given(kind=st.sampled_from(sorted(BATCH_ZOO)), n=st.integers(2, 6),
           b=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           coincident=st.sets(st.integers(0, 63), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_jensen_probe(self, kind, n, b, seed, coincident):
        F = as_vector_oracle(builtin(kind, BATCH_ZOO[kind]))
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((b, n, F.dim_in)) * 3.0
        for k in coincident:
            if k < b:
                pts[k] = pts[k, 0]  # spread 0: ratio None
        weights = np.stack([SimplexWeights(e / e.sum()).weights
                            for e in rng.standard_exponential((b, n))])
        batch = jensen_probe_batch(F, pts, weights)
        for k in range(b):
            r = jensen_probe(F, Configuration(pts[k], SimplexWeights(weights[k])))
            assert _row(batch, k) == (r.gap, r.spread, r.ratio, r.value_scale, r.point_scale)
            if k in coincident:
                assert r.ratio is None

    def test_chunks_bound_the_difference_stack(self, monkeypatch):
        # rows run in chunks of _DIFF_ELEMENTS // (n n d) configurations,
        # each one F.eval on its points and one on its centres; a config
        # batch of 512 at n = 4, d = 8 is one chunk
        assert 512 * 4 * 4 * 8 <= probe._DIFF_ELEMENTS
        F0 = as_vector_oracle(builtin("separable_cubic", [3.0, 1.0, 0.5]))
        shapes = []

        def count(p):
            shapes.append(np.shape(p))
            return F0.eval(p)

        F = VectorOracle(3, 3, count, "counting")
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((10, 4, 3)) * 3.0
        pts[7] = pts[7, 0]  # spread 0: ratio NaN
        w = np.stack([SimplexWeights(e / e.sum()).weights for e in rng.standard_exponential((10, 4))])
        whole = jensen_probe_batch(F, pts, w)
        assert shapes == [(10, 4, 3), (10, 1, 3)]
        monkeypatch.setattr(probe, "_DIFF_ELEMENTS", 4 * 4 * 4 * 3 + 5)
        shapes.clear()
        chunked = jensen_probe_batch(F, pts, w)
        assert [s[0] for s in shapes] == [4, 4, 4, 4, 2, 2]
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(whole, chunked))
        assert np.isnan(chunked.ratio[7])

    def test_floors_as_python_float_pow(self):
        # point scales where numpy's square of 1 + p differs from the
        # float pow by an ulp
        ps = np.array([1.6309723724655112, 11.022370214478926, 13.77217501052522])
        assert ((1.0 + ps) ** 2 != np.array([(1.0 + p) ** 2 for p in ps.tolist()])).all()
        assert scale_floor(1e-14, ps).tolist() == [scale_floor(1e-14, p) for p in ps.tolist()]

    def test_non_finite_mid_batch_raises_as_jensen_probe(self):
        F = VectorOracle(1, 1, lambda x: np.where(np.asarray(x) > 9.0, np.inf, np.asarray(x) ** 2), "blowup")
        pts = np.random.default_rng(0).uniform(-1, 1, (5, 3, 1))
        pts[2, 1, 0] = 10.0
        w = np.full((5, 3), 1.0 / 3.0)
        with pytest.raises(ValueError) as single:
            jensen_probe(F, Configuration(pts[2], SimplexWeights(w[2])))
        with pytest.raises(ValueError) as batched:
            jensen_probe_batch(F, pts, w)
        assert str(batched.value) == str(single.value) == "non-finite output from oracle 'blowup'"

    def test_shapes_checked(self):
        F = builtin("poly_map_2d")
        with pytest.raises(ValueError, match="dim 1 != oracle dim_in 2"):
            jensen_probe_batch(F, np.zeros((3, 2, 1)), np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="weights"):
            jensen_probe_batch(F, np.zeros((3, 2, 2)), np.full((3, 3), 1.0 / 3.0))


class TestSoundnessAgainstKnownL:
    """gap <= (known_L / 2) spread for every probe of every calibrated
    builtin: the sound direction of the equivalence, sampled."""

    ZOO = [
        ("affine", []),
        ("quadratic", []),
        ("cubic1d", [1.0]),
        ("separable_cubic", [3.0, 1.0]),
        ("poly_map_2d", []),
    ]

    @pytest.mark.parametrize("name,params", ZOO)
    def test_random_configurations(self, name, params):
        from hessfree.oracles import as_vector_oracle

        F = as_vector_oracle(builtin(name, params))
        L = F.known_L
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            pts = rng.standard_normal((n, F.dim_in)) * (5 / np.sqrt(F.dim_in))
            w = rng.dirichlet(np.ones(n))
            r = jensen_probe(F, Configuration(pts, SimplexWeights(w)))
            bound = 0.5 * L * r.spread * (1 + 1e-8) + 1e-12 * (1 + r.value_scale)
            assert r.gap <= bound, (name, r.gap, bound)


class TestTwoPointProbe:
    def test_endpoint_degeneracy(self):
        F = grad_cubic()
        for t in (0.0, 1.0):
            r = two_point_probe(F, np.array([0.0]), np.array([2.0]), t)
            assert r.gap == pytest.approx(0.0, abs=1e-15)
            assert r.spread == 0.0

    def test_equal_points(self):
        F = grad_cubic()
        r = two_point_probe(F, np.array([1.0]), np.array([1.0]), 0.3)
        assert r.gap == 0.0 and r.spread == 0.0 and r.ratio is None

    def test_equality_family_value(self):
        F = grad_cubic()
        r = two_point_probe(F, np.array([0.0]), np.array([2.0]), 0.5)
        assert r.gap == pytest.approx(0.5, rel=1e-14)
        assert r.spread == pytest.approx(1.0, rel=1e-14)
        assert r.ratio == pytest.approx(1.0, rel=1e-13)

    def test_t_out_of_range(self):
        F = grad_cubic()
        with pytest.raises(ValueError, match="t must"):
            two_point_probe(F, np.array([0.0]), np.array([1.0]), 1.5)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1 / 32, max_value=31 / 32),
    )
    @settings(max_examples=300, deadline=None)
    def test_cubic_ratio_equals_coefficient(self, c, x, y, t):
        # every interior two-point probe of grad(c x^3/6) has ratio |c|
        if abs(c) < 1e-3 or abs(x - y) < 0.1:
            return
        F = grad_cubic(c)
        r = two_point_probe(F, np.array([x]), np.array([y]), t)
        assert r.ratio == pytest.approx(abs(c), rel=1e-10)


class TestBestTProbe:
    def test_cubic_flat_in_t(self):
        F = grad_cubic()
        r = best_t_probe(F, np.array([0.0]), np.array([2.0]))
        assert r.ratio == pytest.approx(1.0, rel=1e-12)

    def test_affine_gap_zero(self):
        F = builtin("affine")
        r = best_t_probe(F, np.array([1.0, -2.0]), np.array([3.0, 0.5]))
        assert r.gap <= 1e-12 * (1 + r.value_scale)

    def test_dense_grid_oracle_rosenbrock(self):
        # fixed seed pair; reference maximum from a dense 1e5-point t-grid
        F = builtin("rosenbrock").gradient_oracle()
        rng = np.random.default_rng(1234)
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        r = best_t_probe(F, x, y)
        ts = np.linspace(1e-5, 1 - 1e-5, 100_000)
        dense = max(
            two_point_probe(F, x, y, float(t)).ratio for t in ts[:: 1000]
        )  # coarse sanity
        dense_fine = _dense_grid_max(F, x, y, ts)
        assert r.ratio >= dense  # refinement beats coarse grid
        assert r.ratio == pytest.approx(dense_fine, rel=1e-4)

    def test_mismatched_dims(self):
        F = grad_cubic()
        with pytest.raises(ValueError, match="equal dimension"):
            best_t_probe(F, np.array([0.0]), np.array([0.0, 1.0]))


def _dense_grid_max(F, x, y, ts):
    fx = F.eval(x)
    fy = F.eval(y)
    xbars = (1 - ts)[:, None] * x[None, :] + ts[:, None] * y[None, :]
    centers = F.eval(xbars)
    resid = centers - ((1 - ts)[:, None] * fx[None, :] + ts[:, None] * fy[None, :])
    gaps = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    spreads = ts * (1 - ts) * float((x - y) @ (x - y))
    return float((2 * gaps / spreads).max())


class TestMidpointConvexity:
    def test_convex_quadratic_nonpositive(self):
        rng = np.random.default_rng(5)
        g = lambda p: np.einsum("...i,...i->...", p, p)
        for _ in range(100):
            x, y = rng.uniform(-5, 5, (2, 3))
            assert midpoint_convexity_violation(g, x, y) <= 1e-12

    def test_concave_violation_hand_value(self):
        g = lambda p: -0.5 * np.asarray(p)[..., 0] ** 2
        v = midpoint_convexity_violation(g, np.array([0.0]), np.array([2.0]))
        assert v == pytest.approx(0.5, rel=1e-14)

    def test_linear_equality(self):
        g = lambda p: 3.0 * np.asarray(p)[..., 0] - 1.0
        v = midpoint_convexity_violation(g, np.array([-1.0]), np.array([5.0]))
        assert v == pytest.approx(0.0, abs=1e-14)


class TestConvexitySplitOfCalibratedSlices:
    """(L/2)||.||^2 +- phi stays midpoint-convex for slices of gradient
    maps with Hessian-Lipschitz constant L."""

    @pytest.mark.parametrize(
        "name,params", [("cubic1d", [1.0]), ("separable_cubic", [3.0, 1.0])]
    )
    def test_both_splits(self, name, params):
        from hessfree.slices import slice_map, unit_functional_set

        o = builtin(name, params)
        F = o.gradient_oracle()
        L = o.known_L
        rng = np.random.default_rng(42)
        functionals = unit_functional_set(F.dim_out, 6, rng)
        for f in functionals:
            phi = slice_map(F, f)
            for sign in (+1.0, -1.0):
                g = lambda p, s=sign: (
                    0.5 * L * np.einsum("...i,...i->...", p, p) + s * np.asarray(phi(p))
                )
                scale = 0.0
                for _ in range(200):
                    x, y = rng.uniform(-5, 5, (2, o.dim))
                    v = midpoint_convexity_violation(g, x, y)
                    scale = max(scale, abs(float(g(x))), abs(float(g(y))))
                    assert v <= 1e-10 * (1 + scale)
