import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessfree.vecspace import (
    Configuration,
    SimplexWeights,
    as_point,
    convex_combination,
    norm2,
    pair_spread,
    row_norms,
    simplex_rows,
    squares,
)


def brute_pair_spread(points, weights):
    """Independent O(n^2) reference: plain Python double loop."""
    points = np.asarray(points, dtype=float)
    s = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i] - points[j]
            s += weights[i] * weights[j] * float(d @ d)
    return s


finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def configurations(draw, max_n=6, max_d=4):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    pts = draw(
        st.lists(st.lists(finite_coord, min_size=d, max_size=d), min_size=n, max_size=n)
    )
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    total = sum(raw)
    if total <= 0:
        w = [1.0 / n] * n
    else:
        w = [v / total for v in raw]
    return Configuration(np.array(pts), SimplexWeights(np.array(w)))


class TestBasics:
    def test_norm_345(self):
        assert norm2(np.array([3.0, 4.0])) == 5.0

    def test_norm_zero(self):
        assert norm2(np.zeros(3)) == 0.0

    def test_norm_1d_abs(self):
        assert norm2(np.array([-2.0])) == 2.0

    def test_as_point_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_point([1.0, np.nan])


class TestSimplexWeights:
    def test_renormalizes_small_deviation(self):
        w = SimplexWeights(np.array([0.5, 0.5 + 5e-10]))
        assert abs(w.weights.sum() - 1.0) <= 1e-12

    def test_stored_weights_construct_to_themselves(self):
        # weights read back from a report must give the same probe again
        rng = np.random.default_rng(0)
        for _ in range(2000):
            e = rng.standard_exponential(int(rng.integers(2, 12)))
            t = e[0] / e.sum()
            for raw in (e / e.sum(), np.array([1.0 - t, t]), e / e.sum() * (1 + 1e-10)):
                w = SimplexWeights(raw).weights
                np.testing.assert_array_equal(SimplexWeights(w.tolist()).weights, w)

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexWeights(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SimplexWeights(np.array([1.5, -0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([]))

    def test_immutable(self):
        w = SimplexWeights(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            w.weights[0] = 1.0


def _reference_simplex(w):
    """The one-row normalization loop SimplexWeights ran before the
    batched simplex_rows, kept as the reference."""
    s = float(w.sum())
    while s != 1.0:
        scaled = w / s
        s_scaled = float(scaled.sum())
        if s_scaled != 1.0 and abs(s - 1.0) <= 2.0 * w.size * np.finfo(np.float64).eps:
            break
        w, s = scaled, s_scaled
    return w


class TestSimplexRows:
    def test_batch_equals_one_row_at_a_time(self):
        # 10^5 draws as the configuration phase makes them (e / e.sum(),
        # whose sum often misses 1 by an ulp), a third of them moved off 1
        # by up to 9e-10 so that the rescaling runs too
        rng = np.random.default_rng(11)
        rows = total = 0
        for n in range(2, 12):
            e = rng.standard_exponential((10_000, n))
            raw = np.array([r / r.sum() for r in e])
            raw[::3] *= 1.0 + rng.uniform(-9e-10, 9e-10, (len(raw[::3]), 1))
            got = simplex_rows(raw)
            for r, g in zip(raw, got):
                ref = _reference_simplex(r)
                np.testing.assert_array_equal(g, ref)
                np.testing.assert_array_equal(SimplexWeights(r).weights, ref)
                rows += not np.array_equal(ref, r)
            total += len(raw)
        assert total == 100_000
        assert rows > 30_000  # the rescaling path ran on many rows

    def test_rejections_name_the_row(self):
        with pytest.raises(ValueError, match="sum to 1.1"):
            simplex_rows(np.array([[0.5, 0.5], [0.5, 0.6]]))
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_rows(np.array([[0.5, 0.5], [1.5, -0.5]]))
        with pytest.raises(ValueError, match="finite"):
            simplex_rows(np.array([[np.nan, 1.0]]))


class TestConfiguration:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            Configuration(np.zeros((3, 2)), SimplexWeights(np.array([0.5, 0.5])))

    def test_rejects_nonfinite_point(self):
        with pytest.raises(ValueError, match="finite"):
            Configuration(np.array([[np.inf]]), SimplexWeights(np.array([1.0])))

    def test_1d_points_promoted(self):
        c = Configuration(np.array([0.0, 2.0]), SimplexWeights(np.array([0.5, 0.5])))
        assert c.dim == 1 and c.n == 2


class TestConvexCombination:
    def test_midpoint(self):
        c = Configuration(np.array([[0.0], [2.0]]), SimplexWeights(np.array([0.5, 0.5])))
        assert convex_combination(c) == pytest.approx([1.0])

    def test_singleton_identity(self):
        c = Configuration(np.array([[3.0, -1.0]]), SimplexWeights(np.array([1.0])))
        np.testing.assert_array_equal(convex_combination(c), [3.0, -1.0])

    def test_centroid(self):
        c = Configuration(
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            SimplexWeights(np.full(3, 1.0 / 3.0)),
        )
        np.testing.assert_allclose(convex_combination(c), [1 / 3, 1 / 3], rtol=1e-15)


class TestPairSpread:
    def test_singleton_is_zero(self):
        c = Configuration(np.array([[7.0]]), SimplexWeights(np.array([1.0])))
        assert pair_spread(c) == 0.0

    def test_two_points(self):
        c = Configuration(np.array([[0.0], [2.0]]), SimplexWeights(np.array([0.5, 0.5])))
        assert pair_spread(c) == pytest.approx(1.0, rel=1e-15)

    def test_split_weight_same_point(self):
        c = Configuration(
            np.array([[0.0], [2.0], [2.0]]),
            SimplexWeights(np.array([0.5, 0.25, 0.25])),
        )
        expected = brute_pair_spread([[0.0], [2.0], [2.0]], [0.5, 0.25, 0.25])
        assert expected == pytest.approx(1.0)
        assert pair_spread(c) == pytest.approx(expected, rel=1e-12)

    @given(configurations())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, c):
        expected = brute_pair_spread(c.points, c.weights.weights)
        assert pair_spread(c) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @given(configurations(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, c, rnd):
        order = list(range(c.n))
        rnd.shuffle(order)
        perm = Configuration(c.points[order], SimplexWeights(c.weights.weights[order]))
        assert pair_spread(perm) == pytest.approx(pair_spread(c), rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(
            convex_combination(perm), convex_combination(c), rtol=1e-12, atol=1e-14
        )

    @given(configurations(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=150, deadline=None)
    def test_weight_splitting_invariance(self, c, frac):
        # split the first point's weight across two copies of it
        w = c.weights.weights
        pts2 = np.vstack([c.points, c.points[:1]])
        w2 = np.concatenate([w, [w[0] * (1 - frac)]])
        w2[0] = w[0] * frac
        c2 = Configuration(pts2, SimplexWeights(w2))
        assert pair_spread(c2) == pytest.approx(pair_spread(c), rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(
            convex_combination(c2), convex_combination(c), rtol=1e-12, atol=1e-13
        )

    @given(configurations())
    @settings(max_examples=100, deadline=None)
    def test_zero_weight_point_ignored(self, c):
        pts2 = np.vstack([c.points, [np.full(c.dim, 9.0)]])
        w2 = np.concatenate([c.weights.weights, [0.0]])
        c2 = Configuration(pts2, SimplexWeights(w2))
        assert pair_spread(c2) == pytest.approx(pair_spread(c), rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(
            convex_combination(c2), convex_combination(c), rtol=1e-12, atol=1e-14
        )

    @given(configurations(), st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=150, deadline=None)
    def test_quadratic_scaling(self, c, alpha):
        c2 = Configuration(alpha * c.points, c.weights)
        assert pair_spread(c2) == pytest.approx(
            alpha**2 * pair_spread(c), rel=1e-10, abs=1e-12
        )


class TestTwoPointIdentity:
    """t (1-t) ||x - y||^2 = (1-t) ||x||^2 + t ||y||^2 - ||x + t (y-x)||^2."""

    def test_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            d = int(rng.integers(1, 5))
            x = rng.uniform(-10, 10, d)
            y = rng.uniform(-10, 10, d)
            t = float(rng.uniform(0, 1))
            lhs = t * (1 - t) * norm2(x - y) ** 2
            rhs = (1 - t) * norm2(x) ** 2 + t * norm2(y) ** 2 - norm2(x + t * (y - x)) ** 2
            scale = 1.0 + (1 - t) * norm2(x) ** 2 + t * norm2(y) ** 2
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestSharedRounding:
    """squares and row_norms round as the one-value code does."""

    # Python's pow gives ...866 here, numpy's square and a ** 2 ...865
    V = 2.746839992276373

    @pytest.mark.parametrize("v", [V, np.float64(V), np.array([V])], ids=["float", "float64", "array"])
    def test_squares_is_python_pow(self, v):
        assert float(np.square(np.float64(self.V))) == 7.545129943168865
        got = squares(v)
        assert isinstance(got, np.ndarray) == isinstance(v, np.ndarray)
        assert np.ravel(got).tolist() == [7.545129943168866]

    def test_squares_each_entry(self):
        # 11 of these 10 000 entries round differently under numpy's square
        v = np.random.default_rng(0).uniform(-3.0, 3.0, (40, 250))
        got = squares(v)
        assert got.shape == v.shape
        assert got.ravel().tolist() == [p**2 for p in v.ravel().tolist()]

    def test_squares_overflow_is_inf(self):
        assert squares(1e200) == math.inf
        assert squares(np.array([1e200, -1e200, 3.0])).tolist() == [math.inf, math.inf, 9.0]

    @pytest.mark.parametrize("k", [1, 3, 8, 33])
    def test_row_norms_equal_norm2(self, k):
        a = np.random.default_rng(k).standard_normal((200, k)) * 10.0 ** np.arange(-3, 5).repeat(25)[:, None]
        got = row_norms(a)
        assert got.tolist() == [norm2(row) for row in a]
