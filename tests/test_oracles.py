import numpy as np
import pytest

from hessfree import vecspace
from hessfree.cli import _build_parser, _merge_config, _verify_functional_checks
from hessfree.estimate import STREAM_FD, SearchBudget, cross_validate, stream_rng
from hessfree.oracles import (
    BUILTIN_NAMES,
    DomainSampler,
    FD_GRAD_STEP,
    FD_VALUE_STEP,
    ScalarOracle,
    VectorOracle,
    _gradient_steps,
    _lip_from_derivatives,
    as_vector_oracle,
    builtin,
    central_differences,
    fd_hessian_vec,
    fd_jacobian,
    lip_from_hessians,
    lip_from_jacobians,
    value_gradients,
)
from hessfree.slices import derivative_norm_via_functionals, difference_matrix
from hessfree.vecspace import chunk_rows, row_norms


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
    """value_gradients, the central-difference gradient of a scalar map."""

    def test_identity_quadratic(self):
        o = builtin("quadratic", [1.0, 0.0, 0.0, 1.0])  # f = ||x||^2 / 2
        g = value_gradients(o.value, np.array([[1.0, 2.0]]))[0]
        np.testing.assert_allclose(g, [1.0, 2.0], atol=1e-7)

    def test_constant_function(self):
        def zero(x):
            return np.zeros(np.asarray(x).shape[:-1])

        np.testing.assert_allclose(value_gradients(zero, np.array([[3.0, -1.0]])), 0.0, atol=1e-12)

    def test_cubic1d(self):
        o = builtin("cubic1d", [1.0])
        assert value_gradients(o.value, np.array([[2.0]]))[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_matches_analytic_gradient_on_zoo(self):
        rng = np.random.default_rng(42)
        for o in scalar_builtins():
            xs = rng.uniform(-5, 5, (25, o.dim))
            g_fd = value_gradients(o.value, xs)
            for x, gf in zip(xs, g_fd):
                g = o.gradient(x)
                scale = max(1.0, float(np.sqrt(g @ g)))
                assert np.linalg.norm(gf - g) <= 1e-5 * scale, o.label


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


def map_with_difference(a):
    """A quadratic map whose derivative difference F'(e_1) - F'(0) is the
    (m, d) matrix a: F_i(x) = x_1 (a_i . x) - a_i1 x_1^2 / 2."""
    a = np.asarray(a, dtype=float)

    def ev(x):
        x = np.asarray(x)
        return x[..., :1] * (x @ a.T) - 0.5 * a[:, 0] * x[..., :1] ** 2

    return VectorOracle(a.shape[1], a.shape[0], ev, "difference_map")


class TestOperatorNorm:
    """The operator norm ||F'(x) - F'(y)|| on the slices route: the exact
    spectral norm of the finite-difference matrix, here of a known one."""

    @staticmethod
    def norm(a):
        F = map_with_difference(a)
        x = np.eye(F.dim_in)[0]
        return derivative_norm_via_functionals(
            F, x, np.zeros(F.dim_in), rng=np.random.default_rng(0)
        )

    def test_identity(self):
        assert self.norm(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert self.norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_nilpotent_shift(self):
        assert self.norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, rel=1e-9)

    def test_zero_map(self):
        assert self.norm(np.zeros((2, 2))) == 0.0

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
            assert self.norm(a) == pytest.approx(expected, rel=1e-9)

    def test_rank_one_tie(self):
        # exactly repeated singular value: rotation matrix, norm 1
        th = 0.73
        a = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert self.norm(a) == pytest.approx(1.0, rel=1e-9)


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
                xi = xi[None, :]
                np.testing.assert_array_equal(central_differences(o.gradient, xi, _gradient_steps(xi))[0], row)
        F = builtin("poly_map_2d")
        x = rng.uniform(-5, 5, (6, 2))
        rows = central_differences(F.eval, x, FD_VALUE_STEP * np.maximum(1.0, np.abs(x)))
        for xi, row in zip(x, rows):
            np.testing.assert_array_equal(fd_jacobian(F, xi), row)

    def test_consistent_with_hessian_for_gradient_map(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        x = np.array([[0.5, -1.5]])
        np.testing.assert_allclose(
            fd_jacobian(o.gradient_oracle(), x), central_differences(o.gradient, x, _gradient_steps(x)), atol=1e-6
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


# every builtin kind, at dims where the FD blocks split rows, plus an 8x8
# quadratic
FD_BUDGET_ZOO = {
    "affine": [],
    "quadratic": [],
    "cubic1d": [1.0],
    "separable_cubic": [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5],
    "norm_cubed": [5],
    "logistic_like": [3],
    "rosenbrock": [4],
    "poly_map_2d": [],
    "quadratic8": [float((3 * i + 5 * j) % 7 - 3) for i in range(8) for j in range(8)],
}


def _fd_budget_oracle(name):
    return builtin("quadratic" if name == "quadratic8" else name, FD_BUDGET_ZOO[name])


def _fd_results(name):
    """Every FD consumer's output on one oracle, from fixed draws."""
    o = _fd_budget_oracle(name)
    F = as_vector_oracle(o)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(-3, 3, (2, 13, F.dim_in))
    sampler = DomainSampler(F.dim_in, 5.0)
    out = {
        "lip_jac": lip_from_jacobians(F, sampler, 9, stream_rng(5, STREAM_FD)),
        "fd_jacobian": fd_jacobian(F, xs),
        "difference_matrix": difference_matrix(F, xs, ys),
    }
    if isinstance(o, ScalarOracle):
        out["lip_hess"] = lip_from_hessians(o, sampler, 9, stream_rng(5, STREAM_FD))
    args = _build_parser().parse_args(
        ["verify", "--oracle", "x", "--seed", "3", "--L", "1", "--pairs", "5", "--n-functionals", "2"])
    out["verify"] = _verify_functional_checks(F, _merge_config(args), 1.0)
    return out


class TestFdPointBudget:
    """central_differences evaluates at most vecspace._CHUNK_ELEMENTS
    point entries per call; no result depends on that budget, which also
    sizes the pair chunks, probe chunks and trial stacks _fd_results runs."""

    @pytest.mark.parametrize("elements", [1, 7, 10**9], ids=["one", "odd", "whole_stack"])
    def test_results_independent_of_budget(self, elements, monkeypatch):
        for name in FD_BUDGET_ZOO:
            want = _fd_results(name)
            monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", elements)
            got = _fd_results(name)
            monkeypatch.undo()
            assert got.keys() == want.keys()
            for key in want:
                if isinstance(want[key], np.ndarray):
                    np.testing.assert_array_equal(got[key], want[key], err_msg=f"{name} {key}")
                else:
                    assert got[key] == want[key], f"{name} {key}"

    def test_calls_bounded_and_cover_every_row(self, monkeypatch):
        monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", 13)
        F = builtin("poly_map_2d")
        shapes = []

        def fn(p):
            shapes.append(p.shape)
            return F.eval(p)

        x = np.random.default_rng(0).uniform(-2, 2, (13, 2))
        rows = central_differences(fn, x, FD_VALUE_STEP * np.maximum(1.0, np.abs(x)))
        # 3 rows of 2 x 2 entries per block: 5 blocks, each called at +h and -h
        assert shapes == [(3, 2, 2)] * 8 + [(1, 2, 2)] * 2
        np.testing.assert_array_equal(rows, fd_jacobian(F, x))
        assert central_differences(fn, x[:0], np.ones((0, 2))).shape == (0, 2, 2)


def _unpruned_lip(derivative, sampler, budget, rng):
    """_lip_from_derivatives with an exact norm for every pair."""
    best = 0.0
    chunk = chunk_rows(4 * sampler.dim**2)
    for start in range(0, budget, chunk):
        n = min(chunk, budget - start)
        pairs = sampler.uniform(rng, 2 * n).reshape(n, 2, sampler.dim)
        dist = row_norms(pairs[:, 0] - pairs[:, 1])
        keep = dist >= 1e-9
        if not keep.any():
            continue
        pairs, dist = pairs[keep], dist[keep]
        jac = derivative(pairs.reshape(-1, sampler.dim)).reshape(len(pairs), 2, -1, sampler.dim)
        norms = np.linalg.norm(jac[:, 0] - jac[:, 1], 2, axis=(1, 2))
        best = max(best, float((norms / dist).max()))
    return best


def _diagonal(x):
    out = np.zeros((len(x), 3, 3))
    out[:, range(3), range(3)] = np.array([3.0, -1.0, 0.5]) * x**2
    return out


_W = np.random.default_rng(21).standard_normal((5, 10))
# derivative maps (B, d) -> (B, m, d) of every kind the pruning meets, by d
DERIVATIVE_KINDS = {
    "one_by_one": (1, lambda x: (x**2)[:, :, None]),
    "diagonal": (3, _diagonal),
    "rank_one": (4, lambda x: np.array([1.0, -2.0, 0.5, 3.0])[None, :, None] * (x**2)[:, None, :]),
    "dense": (3, lambda x: np.sin(x @ _W[:3, :9]).reshape(len(x), 3, 3)),
    "wide": (5, lambda x: np.tanh(x @ _W).reshape(len(x), 2, 5)),
    "tall": (2, lambda x: np.cos(x @ _W[:2]).reshape(len(x), 5, 2)),
    "all_zero": (2, lambda x: np.zeros((len(x), 2, 2))),
    # squared entries underflow, so the Frobenius bound cannot be trusted
    "tiny": (3, lambda x: 1e-170 * _diagonal(x)),
    # every pair's ratio is 2.0 exactly, so the max is tied in every chunk
    "ties": (1, lambda x: 2.0 * x[:, :, None]),
    # squared entries overflow, so those Frobenius ratios read inf
    "huge": (3, lambda x: 1e160 * _diagonal(x)),
}


class TestPrunedFdNorms:
    """_lip_from_derivatives takes exact spectral norms only of the pairs
    whose Frobenius ratio can still beat the earlier chunks' best."""

    @pytest.mark.parametrize("elements", [64, 1 << 14], ids=["small_chunks", "default_chunks"])
    @pytest.mark.parametrize("kind", sorted(DERIVATIVE_KINDS))
    def test_equals_every_pair_exact(self, kind, elements, monkeypatch):
        monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", elements)
        dim, derivative = DERIVATIVE_KINDS[kind]
        sampler = DomainSampler(dim, 3.0)
        for seed in range(3):
            got = _lip_from_derivatives(derivative, sampler, 1500, stream_rng(seed, STREAM_FD))
            want = _unpruned_lip(derivative, sampler, 1500, stream_rng(seed, STREAM_FD))
            assert got == want, (kind, seed)

    def test_few_exact_norms_on_sc8(self, monkeypatch):
        real = np.linalg.norm
        exact = []

        def counting(x, *args, **kw):
            if args[:1] == (2,) and np.ndim(x) == 3:
                exact.append(len(x))
            return real(x, *args, **kw)

        o = builtin("separable_cubic", [3.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.25, 1.5])
        want = _unpruned_lip(
            lambda x: central_differences(o.gradient, x, _gradient_steps(x)),
            DomainSampler(8, 5.0), 10_000, stream_rng(42, STREAM_FD))
        monkeypatch.setattr(np.linalg, "norm", counting)
        rep = cross_validate(o, SearchBudget(seed=42))
        assert rep.fd_pairs == 10_000
        assert rep.l_fd == want
        # one call per chunk at most, on under 1% of the pairs
        assert len(exact) <= -(-10_000 // chunk_rows(4 * 8**2))
        assert 0 < sum(exact) < 100

    def test_few_exact_norms_at_d1(self, monkeypatch):
        # a 1x1 matrix's Frobenius norm is its spectral norm, so each chunk
        # takes exact norms only of the pairs within the slack of its
        # largest ratio: none of the first chunk's 4 096 others
        real = np.linalg.norm
        exact = []

        def counting(x, *args, **kw):
            if args[:1] == (2,) and np.ndim(x) == 3:
                exact.append(len(x))
            return real(x, *args, **kw)

        o = builtin("cubic1d", [3.0])
        want = _unpruned_lip(
            lambda x: central_differences(o.gradient, x, _gradient_steps(x)),
            DomainSampler(1, 5.0), 10_000, stream_rng(42, STREAM_FD))
        monkeypatch.setattr(np.linalg, "norm", counting)
        rep = cross_validate(o, SearchBudget(seed=42))
        assert rep.l_fd == want
        assert len(exact) <= -(-10_000 // chunk_rows(4))
        assert 0 < sum(exact) <= 5
