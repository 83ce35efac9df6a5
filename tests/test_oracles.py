import numpy as np
import pytest

from hessfree.estimate import STREAM_FD, stream_rng
from hessfree.oracles import (
    BUILTIN_NAMES,
    DomainSampler,
    FD_GRAD_STEP,
    FD_VALUE_STEP,
    ScalarOracle,
    builtin,
    central_differences,
    fd_gradient,
    fd_hessian,
    fd_hessian_vec,
    fd_jacobian,
    lip_from_hessians,
    lip_from_jacobians,
    operator_norm,
)


def spectral_norm_2x2_closed_form(a):
    """Independent route: largest singular value of a 2x2 matrix from the
    eigenvalues of A^T A via the quadratic formula."""
    a = np.asarray(a, dtype=float)
    b = a.T @ a
    tr = b[0, 0] + b[1, 1]
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    return float(np.sqrt((tr + np.sqrt(disc)) / 2.0))


def scalar_builtins():
    return [
        builtin("quadratic"),
        builtin("cubic1d", [1.0]),
        builtin("separable_cubic", [3.0, 1.0]),
        builtin("norm_cubed"),
        builtin("logistic_like", [2]),
        builtin("rosenbrock"),
    ]


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            builtin("frobnicate")

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            builtin("cubic1d", [1.0, 2.0])
        with pytest.raises(ValueError):
            builtin("poly_map_2d", [3.0])
        with pytest.raises(ValueError):
            builtin("separable_cubic", [])

    def test_all_names_constructible(self):
        for name in BUILTIN_NAMES:
            params = {"cubic1d": [1.0], "separable_cubic": [3.0, 1.0]}.get(name, [])
            o = builtin(name, params)
            assert o.label

    def test_affine_known_l_zero(self):
        assert builtin("affine").known_L == 0.0

    def test_quadratic_known_l_zero(self):
        assert builtin("quadratic").known_L == 0.0

    def test_separable_cubic_known_l(self):
        assert builtin("separable_cubic", [3.0, 1.0]).known_L == 3.0

    def test_poly_map_known_l(self):
        assert builtin("poly_map_2d").known_L == 2.0

    def test_cubic1d_gradient_value(self):
        o = builtin("cubic1d", [1.0])
        # grad f = x^2 / 2, so grad at 2 is 2
        assert o.gradient(np.array([2.0])) == pytest.approx([2.0])

    def test_batched_evaluation(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        pts = np.array([[1.0, 2.0], [0.0, -1.0]])
        vals = o.value(pts)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(3 / 6 + 8 / 6)
        grads = o.gradient(pts)
        np.testing.assert_allclose(grads[1], [0.0, 0.5])

    def test_poly_map_values(self):
        F = builtin("poly_map_2d")
        np.testing.assert_allclose(F.eval(np.array([2.0, 3.0])), [4.0, 6.0])


class TestFdGradient:
    def test_identity_quadratic(self):
        o = builtin("quadratic", [1.0, 0.0, 0.0, 1.0])  # f = ||x||^2 / 2
        g = fd_gradient(o, np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-7)

    def test_constant_function(self):
        o = ScalarOracle(2, lambda x: np.zeros(np.asarray(x).shape[:-1]),
                         lambda x: np.zeros_like(x), "const")
        np.testing.assert_allclose(fd_gradient(o, np.array([3.0, -1.0])), 0.0, atol=1e-12)

    def test_cubic1d(self):
        o = builtin("cubic1d", [1.0])
        assert fd_gradient(o, np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-6)

    def test_matches_analytic_gradient_on_zoo(self):
        rng = np.random.default_rng(42)
        for o in scalar_builtins():
            for _ in range(25):
                x = rng.uniform(-5, 5, o.dim)
                g_fd = fd_gradient(o, x)
                g = o.gradient(x)
                scale = max(1.0, float(np.sqrt(g @ g)))
                assert np.linalg.norm(g_fd - g) <= 1e-5 * scale, o.label


class TestFdHessianVec:
    def test_quadratic_exact(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        o = builtin("quadratic", list(q.flat))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-5, 5, 2)
            v = rng.uniform(-2, 2, 2)
            if np.linalg.norm(v) < 1e-3:
                continue
            hv = fd_hessian_vec(o, x, v)
            np.testing.assert_allclose(hv, q @ v, rtol=1e-6, atol=1e-9)

    def test_cubic_second_derivative(self):
        o = builtin("cubic1d", [1.0])
        hv = fd_hessian_vec(o, np.array([3.0]), np.array([1.0]))
        assert hv[0] == pytest.approx(3.0, rel=1e-7)

    def test_linearity_in_direction(self):
        o = builtin("rosenbrock")
        x = np.array([0.7, -0.3])
        v = np.array([1.0, 2.0])
        hv1 = fd_hessian_vec(o, x, v)
        hv2 = fd_hessian_vec(o, x, 2.5 * v)
        np.testing.assert_allclose(hv2, 2.5 * hv1, rtol=1e-6)

    def test_zero_direction_rejected(self):
        o = builtin("cubic1d", [1.0])
        with pytest.raises(ValueError, match="nonzero"):
            fd_hessian_vec(o, np.array([1.0]), np.array([0.0]))

    def test_bilinear_symmetry(self):
        rng = np.random.default_rng(7)
        for o in scalar_builtins():
            for _ in range(10):
                x = rng.uniform(-5, 5, o.dim)
                u = rng.standard_normal(o.dim)
                w = rng.standard_normal(o.dim)
                left = fd_hessian_vec(o, x, u) @ w
                right = fd_hessian_vec(o, x, w) @ u
                scale = max(abs(left), abs(right), 1.0)
                assert abs(left - right) <= 1e-4 * scale, o.label


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(lambda v: v, 3) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        d = np.array([3.0, 1.0])
        assert operator_norm(lambda v: d * v, 2) == pytest.approx(3.0, rel=1e-10)

    def test_nilpotent_shift(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert operator_norm(lambda v: a @ v, 2) == pytest.approx(1.0, rel=1e-10)

    def test_zero_map(self):
        assert operator_norm(lambda v: 0.0 * v, 2) == 0.0

    def test_closed_form_family(self):
        # rotations of diag(s1, s2) with a singular-value gap, checked
        # against the quadratic-formula closed form
        rng = np.random.default_rng(42)
        for _ in range(50):
            s1 = float(rng.uniform(0.5, 4.0))
            s2 = s1 * float(rng.uniform(0.0, 0.9))
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)
            r1 = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
            r2 = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
            a = r1 @ np.diag([s1, s2]) @ r2
            expected = spectral_norm_2x2_closed_form(a)
            assert expected == pytest.approx(s1, rel=1e-12)
            got = operator_norm(lambda v, _a=a: _a @ v, 2)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_rank_one_tie(self):
        # exactly repeated singular value: rotation matrix, norm 1
        th = 0.73
        a = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert operator_norm(lambda v: a @ v, 2) == pytest.approx(1.0, rel=1e-10)

    def test_near_tie_flagged_approximate(self):
        # a singular-value gap small enough that 500 iterations cannot
        # certify 1e-10 relative change, but large enough to keep moving
        a = np.diag([1.0, 1.0 - 1e-4])
        with pytest.warns(RuntimeWarning, match="did not converge"):
            got = operator_norm(lambda v: a @ v, 2)
        assert got == pytest.approx(1.0, abs=1e-4)


class TestFdJacobian:
    def test_affine_exact(self):
        F = builtin("affine")
        a = np.array([[2.0, -1.0], [0.5, 1.0]])
        j = fd_jacobian(F, np.array([0.3, -2.0]))
        np.testing.assert_allclose(j, a, atol=1e-9)

    def test_poly_map(self):
        F = builtin("poly_map_2d")
        j = fd_jacobian(F, np.array([1.0, 1.0]))
        np.testing.assert_allclose(j, [[2.0, 0.0], [1.0, 1.0]], atol=1e-8)

    def test_single_point_routes_equal_batched_kernel_rows(self):
        rng = np.random.default_rng(3)
        for o in scalar_builtins():
            x = rng.uniform(-5, 5, (6, o.dim))
            h = FD_GRAD_STEP * (1.0 + np.array([np.sqrt(v @ v) for v in x]))
            rows = central_differences(o.gradient, x, np.repeat(h[:, None], o.dim, axis=1))
            for xi, row in zip(x, rows):
                np.testing.assert_array_equal(fd_hessian(o, xi), row)
        F = builtin("poly_map_2d")
        x = rng.uniform(-5, 5, (6, 2))
        rows = central_differences(F.eval, x, FD_VALUE_STEP * np.maximum(1.0, np.abs(x)))
        for xi, row in zip(x, rows):
            np.testing.assert_array_equal(fd_jacobian(F, xi), row)

    def test_consistent_with_hessian_for_gradient_map(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        x = np.array([0.5, -1.5])
        np.testing.assert_allclose(
            fd_jacobian(o.gradient_oracle(), x), fd_hessian(o, x), atol=1e-6
        )


class TestLipFromHessians:
    def test_quadratic_near_zero(self):
        o = builtin("quadratic")
        rng = np.random.default_rng(42)
        est = lip_from_hessians(o, DomainSampler(2), 200, rng)
        assert est <= 1e-5

    def test_cubic1d_unit(self):
        o = builtin("cubic1d", [1.0])
        rng = np.random.default_rng(42)
        est = lip_from_hessians(o, DomainSampler(1), 1000, rng)
        assert 0.99 <= est <= 1.01

    def test_separable_cubic(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        rng = np.random.default_rng(42)
        est = lip_from_hessians(o, DomainSampler(2), 10_000, rng)
        assert 2.85 <= est <= 3.01

    def test_never_exceeds_known_l(self):
        rng = np.random.default_rng(1)
        for o in [builtin("quadratic"), builtin("cubic1d", [2.0]),
                  builtin("separable_cubic", [3.0, 1.0])]:
            est = lip_from_hessians(o, DomainSampler(o.dim), 2000, rng)
            if o.known_L == 0.0:
                assert est <= 1e-5
            else:
                assert est <= o.known_L * (1 + 1e-4)
                assert est >= 0.9 * o.known_L

    def test_degenerate_domain_rejected(self):
        o = builtin("cubic1d", [1.0])
        with pytest.raises(ValueError, match="degenerate"):
            lip_from_hessians(o, DomainSampler(1, radius=0.0), 10, np.random.default_rng(0))


class TestPinnedFdRoute:
    """The cross-check's FD route at 10^4 pairs from stream_rng(42, STREAM_FD, 0)."""

    @pytest.mark.parametrize("name, params, l_fd", [
        ("cubic1d", [1.0], 1.0000044984191288),
        ("separable_cubic", [3.0, 1.0], 3.0000000097033257),
        ("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5], 2.785866381098804),
    ])
    def test_scalar_oracles_exact(self, name, params, l_fd):
        o = builtin(name, params)
        rng = stream_rng(42, STREAM_FD, 0)
        assert lip_from_hessians(o, DomainSampler(o.dim, 5.0), 10_000, rng) == l_fd

    def test_poly_map(self):
        rng = stream_rng(42, STREAM_FD, 0)
        est = lip_from_jacobians(builtin("poly_map_2d"), DomainSampler(2, 5.0), 10_000, rng)
        assert est == pytest.approx(2.000000000022522, rel=1e-12)


class TestLipFromJacobians:
    def test_affine_near_zero(self):
        rng = np.random.default_rng(42)
        est = lip_from_jacobians(builtin("affine"), DomainSampler(2), 200, rng)
        assert est <= 1e-6

    def test_poly_map(self):
        rng = np.random.default_rng(42)
        est = lip_from_jacobians(builtin("poly_map_2d"), DomainSampler(2), 5000, rng)
        assert 1.9 <= est <= 2.0 * (1 + 1e-4)
