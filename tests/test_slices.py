import json
import warnings

import numpy as np
import pytest

from hessfree.cli import main
from hessfree.estimate import STREAM_CHECKS, stream_rng
from hessfree import vecspace
from hessfree.oracles import FD_VALUE_STEP, DomainSampler, as_vector_oracle, builtin, fd_jacobian
from hessfree.slices import (
    derivative_norm_via_functionals,
    difference_matrix,
    functional_sup_ratio,
    reconstruct_derivative_action,
    slice_gradient_map,
    slice_map,
    slice_smoothness_check,
    unit_functional_set,
)
from hessfree.vecspace import norm2


def analytic_poly_jacobian(x):
    # F(x1, x2) = (x1^2, x1 x2)
    return np.array([[2 * x[0], 0.0], [x[1], x[0]]])


class _ScriptedDraws:
    """Stands in for a Generator: standard_normal((k, m)) returns the next
    k scripted rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def standard_normal(self, shape):
        out, self.rows = self.rows[: shape[0]], self.rows[shape[0] :]
        return out


class TestFunctional:
    def test_unit_enforced(self):
        # each Gaussian row is the draw divided by its norm2, bit for bit
        fs = unit_functional_set(3, 400, np.random.default_rng(5))
        draws = np.random.default_rng(5).standard_normal((394, 3))
        for f, g in zip(fs[6:], draws):
            np.testing.assert_array_equal(f, g / norm2(g))
            assert norm2(f) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        # a draw of norm <= 1e-12 is skipped and the next one taken
        draws = _ScriptedDraws([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0], [0.0, -2.0]])
        fs = unit_functional_set(2, 6, draws)
        np.testing.assert_array_equal(fs[4:], [[0.6, 0.8], [0.0, -1.0]])

    def test_application(self):
        # a functional is its coefficient vector: the slice is F(x) @ y*
        F = builtin("poly_map_2d")
        x = np.array([4.0, 6.0])
        for f in unit_functional_set(2, 10, np.random.default_rng(0)):
            assert slice_map(F, f)(x) == F.eval(x) @ f

    def test_sampling_includes_basis(self):
        coeffs = unit_functional_set(2, 10, np.random.default_rng(0))
        assert coeffs.shape == (10, 2)
        for e in np.eye(2):
            assert any(np.array_equal(c, e) for c in coeffs)
            assert any(np.array_equal(c, -e) for c in coeffs)
        norms = np.sqrt(np.einsum("ij,ij->i", coeffs, coeffs))
        assert np.all(norms <= 1 + 1e-12)


class TestSliceMap:
    def test_first_component(self):
        F = builtin("poly_map_2d")
        phi = slice_map(F, np.array([1.0, 0.0]))
        assert phi(np.array([2.0, 3.0])) == pytest.approx(4.0)

    def test_zero_functional(self):
        F = builtin("poly_map_2d")
        phi = slice_map(F, np.array([0.0, 0.0]))
        assert phi(np.array([2.0, 3.0])) == 0.0

    def test_mixed_functional(self):
        F = builtin("poly_map_2d")
        phi = slice_map(F, np.array([0.5, 0.5]))
        assert phi(np.array([2.0, 3.0])) == pytest.approx(5.0)

    def test_dim_mismatch(self):
        F = builtin("poly_map_2d")
        with pytest.raises(ValueError, match="dim"):
            slice_map(F, np.array([1.0, 0.0, 0.0]))

    def test_batched(self):
        F = builtin("poly_map_2d")
        phi = slice_map(F, np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            phi(np.array([[2.0, 3.0], [1.0, 1.0]])), [4.0, 1.0]
        )


class TestSliceGradientMap:
    def test_against_analytic(self):
        F = builtin("poly_map_2d")
        ystar = np.array([1.0, 2.0]) / np.sqrt(5.0)
        grad = slice_gradient_map(F, ystar)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-5, 5, 2)
            expected = analytic_poly_jacobian(x).T @ ystar
            np.testing.assert_allclose(grad(x), expected, rtol=1e-7, atol=1e-8)

    def test_batch_matches_single(self):
        F = builtin("separable_cubic", [3.0, 1.0]).gradient_oracle()
        grad = slice_gradient_map(F, np.array([1.0, 1.0]) / np.sqrt(2.0))
        pts = np.random.default_rng(1).uniform(-5, 5, (6, 2))
        batched = grad(pts)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(batched[i], grad(p))


class TestSliceSmoothnessCheck:
    def test_calibrated_gradient_map_passes(self):
        o = builtin("separable_cubic", [3.0, 1.0])
        rep = slice_smoothness_check(
            o.gradient_oracle(), 3.0, 8, DomainSampler(2), np.random.default_rng(42)
        )
        assert rep.passed

    def test_affine_with_floored_l(self):
        rep = slice_smoothness_check(
            builtin("affine"), 0.0, 8, DomainSampler(2), np.random.default_rng(42)
        )
        assert rep.passed

    def test_overflowing_bound_rejected(self):
        # L ||x - y|| overflows: an inf bound once passed every pair
        with pytest.raises(ValueError, match="slice_smoothness check"):
            slice_smoothness_check(builtin("poly_map_2d"), 1e308, 8, DomainSampler(2), np.random.default_rng(42))

    def test_understated_constant_fails_with_witness(self):
        # true constant of poly_map_2d is 2; the e1 slice x1^2 already has
        # a 2-Lipschitz gradient, violating the claimed 1
        rep = slice_smoothness_check(
            builtin("poly_map_2d"), 1.0, 8, DomainSampler(2), np.random.default_rng(42)
        )
        assert not rep.passed
        w = rep.witness
        assert w is not None
        assert w.grad_dist > w.bound


class TestReconstructDerivativeAction:
    def test_affine_exact(self):
        F = builtin("affine")
        a = np.array([[2.0, -1.0], [0.5, 1.0]])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-5, 5, 2)
            h = rng.standard_normal(2)
            got = reconstruct_derivative_action(F, x, h)
            ref = a @ h
            assert np.linalg.norm(got - ref) <= 1e-7 * max(1.0, np.linalg.norm(ref))

    def test_poly_map_hand_value(self):
        F = builtin("poly_map_2d")
        got = reconstruct_derivative_action(F, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, [2.0, 1.0], rtol=1e-9)

    def test_zero_direction(self):
        F = builtin("poly_map_2d")
        np.testing.assert_array_equal(
            reconstruct_derivative_action(F, np.array([1.0, 1.0]), np.zeros(2)), [0.0, 0.0]
        )

    def test_linearity(self):
        F = builtin("rosenbrock").gradient_oracle()
        rng = np.random.default_rng(42)
        for _ in range(30):
            x = rng.uniform(-3, 3, 2)
            h1 = rng.standard_normal(2)
            h2 = rng.standard_normal(2)
            alpha = float(rng.uniform(0.3, 3.0))
            sum_parts = reconstruct_derivative_action(F, x, h1) + reconstruct_derivative_action(F, x, h2)
            joint = reconstruct_derivative_action(F, x, h1 + h2)
            scale = max(1.0, np.linalg.norm(joint))
            assert np.linalg.norm(joint - sum_parts) <= 1e-6 * scale
            scaled = reconstruct_derivative_action(F, x, alpha * h1)
            ref = alpha * reconstruct_derivative_action(F, x, h1)
            assert np.linalg.norm(scaled - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize(
        "name,params",
        [("affine", []), ("poly_map_2d", []), ("separable_cubic", [3.0, 1.0]),
         ("rosenbrock", []), ("norm_cubed", [])],
    )
    def test_agrees_with_fd_jacobian_vector_product(self, name, params):
        o = builtin(name, params)
        F = o if not hasattr(o, "gradient_oracle") else o.gradient_oracle()
        rng = np.random.default_rng(42)
        for _ in range(30):
            x = rng.uniform(-5, 5, F.dim_in)
            h = rng.standard_normal(F.dim_in)
            rec = reconstruct_derivative_action(F, x, h)
            ref = fd_jacobian(F, x) @ h
            assert np.linalg.norm(rec - ref) <= 1e-5 * max(1.0, np.linalg.norm(ref)), name


class TestDerivativeNormViaFunctionals:
    def test_affine_near_zero(self):
        F = builtin("affine")
        nrm = derivative_norm_via_functionals(
            F, np.array([1.0, 0.0]), np.array([-2.0, 3.0]), rng=np.random.default_rng(0)
        )
        assert nrm <= 1e-6

    def test_poly_map_hand_value(self):
        # difference matrix between (1,0) and (0,0) is diag(2, 1): norm 2
        F = builtin("poly_map_2d")
        nrm = derivative_norm_via_functionals(
            F, np.array([1.0, 0.0]), np.array([0.0, 0.0]), rng=np.random.default_rng(0)
        )
        assert nrm == pytest.approx(2.0, abs=1e-4)

    def test_equal_points(self):
        F = builtin("poly_map_2d")
        assert derivative_norm_via_functionals(F, np.ones(2), np.ones(2)) == 0.0

    def test_near_tie_exact(self):
        # singular values 1 and 1 - 1e-4: too close for a power iteration
        # to settle in 500 steps, exact for the spectral norm
        F = builtin("separable_cubic", [1.0, 1.0 - 1e-4]).gradient_oracle()
        x, y = np.ones(2), np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = derivative_norm_via_functionals(F, x, y, rng=np.random.default_rng(0))
        assert got == np.linalg.norm(difference_matrix(F, x, y), 2)
        assert got == 1.0000000000014866

    def test_lipschitz_transfer_on_zoo(self):
        rng = np.random.default_rng(42)
        for name, params in [("poly_map_2d", []), ("separable_cubic", [3.0, 1.0]),
                             ("cubic1d", [1.0])]:
            o = builtin(name, params)
            F = o if not hasattr(o, "gradient_oracle") else o.gradient_oracle()
            known = F.known_L
            sampler = DomainSampler(F.dim_in)
            for _ in range(100):
                x = sampler.gaussian(rng)
                y = sampler.gaussian(rng)
                dist = np.linalg.norm(x - y)
                if dist < 1e-6:
                    continue
                nrm = derivative_norm_via_functionals(F, x, y, rng=rng)
                assert nrm <= known * dist * (1 + 1e-3), name

    def test_functional_sup_realization_small_codomain(self):
        rng = np.random.default_rng(42)
        # m = 2 and m = 3 cases
        cases = [builtin("poly_map_2d"),
                 builtin("separable_cubic", [3.0, 1.0, 2.0]).gradient_oracle()]
        for F in cases:
            for _ in range(10):
                x = rng.uniform(-5, 5, F.dim_in)
                y = rng.uniform(-5, 5, F.dim_in)
                diff = difference_matrix(F, x, y)
                functionals = unit_functional_set(F.dim_out, 1000, rng)
                ratio = functional_sup_ratio(diff, functionals, np.linalg.norm(diff, 2))
                assert ratio >= 0.99

    def test_boundedness_of_slice_derivative(self):
        # ||grad phi_{y*}(x)|| <= ||J(x)|| ||y*|| + FD slack on samples
        F = builtin("poly_map_2d")
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = rng.uniform(-5, 5, 2)
            jac = fd_jacobian(F, x)
            jnorm = np.linalg.norm(jac, 2)
            ystar = rng.standard_normal(2)
            ystar /= norm2(ystar)
            g = slice_gradient_map(F, ystar)(x)
            assert np.linalg.norm(g) <= jnorm * norm2(ystar) + 1e-6


# ---------------------------------------------------------------------------
# Stacked kernels and the chunked slices command against the one-pair code
# they replaced, kept here as the reference
# ---------------------------------------------------------------------------

ALL_KINDS = [
    ("affine", []), ("quadratic", []), ("cubic1d", [1.5]), ("separable_cubic", [3.0, 1.0, 2.0]),
    ("norm_cubed", []), ("logistic_like", [3]), ("rosenbrock", [3]), ("poly_map_2d", []),
    ("quadratic", [float((3 * i + 5 * j) % 7 - 3) for i in range(8) for j in range(8)]),
]


def _ref_reconstruct(F, x, h):
    nh = norm2(h)
    if nh == 0.0:
        return np.zeros(F.dim_out)
    s = FD_VALUE_STEP * (1.0 + norm2(x)) / nh
    fp = np.asarray(F.eval(x + s * h), dtype=np.float64)
    fm = np.asarray(F.eval(x - s * h), dtype=np.float64)
    return (fp - fm) / (2.0 * s)


def _ref_difference_matrix(F, x, y):
    return np.column_stack(
        [_ref_reconstruct(F, x, e) - _ref_reconstruct(F, y, e) for e in np.eye(F.dim_in)]
    )


def _ref_slices(F, L, seed, pairs, radius=5.0, seen=None):
    """The pair-by-pair slices loop, running each pair alone through the
    same kernels.  seen, when given, collects each transfer pair's x, y
    and norming functional u_1."""
    rng = stream_rng(seed, STREAM_CHECKS, 2)
    sampler = DomainSampler(F.dim_in, radius)
    worst_rel = worst_lin = 0.0
    for _ in range(pairs):
        x = sampler.gaussian(rng)
        h = rng.standard_normal(F.dim_in)
        rec = _ref_reconstruct(F, x, h)
        ref = fd_jacobian(F, x) @ h
        worst_rel = max(worst_rel, norm2(rec - ref) / max(norm2(ref), 1.0))
        h2 = rng.standard_normal(F.dim_in)
        alpha = float(rng.uniform(0.5, 2.0))
        add = _ref_reconstruct(F, x, h + h2) - (rec + _ref_reconstruct(F, x, h2))
        hom = _ref_reconstruct(F, x, alpha * h) - alpha * rec
        scale = max(norm2(rec), 1.0)
        worst_lin = max(worst_lin, norm2(add) / scale, norm2(hom) / scale)
    worst_transfer, worst_realization = -np.inf, np.inf
    for _ in range(pairs):
        x = sampler.gaussian(rng)
        y = sampler.gaussian(rng)
        dist = norm2(x - y)
        if dist < 1e-9:
            continue
        u, s, _ = np.linalg.svd(_ref_difference_matrix(F, x, y))
        worst_transfer = max(worst_transfer, s[0] - (max(L, 1e-9) * dist * (1.0 + 1e-3) + 1e-8))
        if seen is not None:
            seen.append((x, y, u[:, 0]))
        grad_diff = u[:, 0] @ (fd_jacobian(F, x) - fd_jacobian(F, y))
        ratio = 1.0 if s[0] <= 1e-8 else norm2(grad_diff) / s[0]
        worst_realization = min(worst_realization, ratio)
    return worst_rel, worst_lin, float(worst_transfer), float(worst_realization)


class TestStackedFdKernels:
    """Every row of a stacked call equals the one-point call, and the
    one-point reference, bit for bit."""

    @pytest.mark.parametrize("name,params", ALL_KINDS)
    def test_rows_equal_single_calls(self, name, params):
        F = as_vector_oracle(builtin(name, params))
        rng = np.random.default_rng(3)
        xs = rng.uniform(-4, 4, (13, F.dim_in))
        ys = rng.uniform(-4, 4, (13, F.dim_in))
        hs = rng.standard_normal((13, F.dim_in))
        hs[[0, 5, 12]] = 0.0  # zero directions give zeros without an F call
        rec = reconstruct_derivative_action(F, xs, hs)
        jac = fd_jacobian(F, xs)
        diff = difference_matrix(F, xs, ys)
        assert rec.shape == (13, F.dim_out)
        assert jac.shape == diff.shape == (13, F.dim_out, F.dim_in)
        for i in range(13):
            ref = _ref_reconstruct(F, xs[i], hs[i])
            np.testing.assert_array_equal(rec[i], ref)
            np.testing.assert_array_equal(reconstruct_derivative_action(F, xs[i], hs[i]), ref)
            np.testing.assert_array_equal(jac[i], fd_jacobian(F, xs[i]))
            ref = _ref_difference_matrix(F, xs[i], ys[i])
            np.testing.assert_array_equal(diff[i], ref)
            np.testing.assert_array_equal(difference_matrix(F, xs[i], ys[i]), ref)
        np.testing.assert_array_equal(rec[[0, 5, 12]], 0.0)

    def test_shape_checks(self):
        F = builtin("poly_map_2d")
        with pytest.raises(ValueError, match="dimension mismatch"):
            reconstruct_derivative_action(F, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            fd_jacobian(F, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            difference_matrix(F, np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


class TestSlicesStreamOrder:
    """The chunked slices command reports what the pair-by-pair loop
    does, at a pair count that is no multiple of the chunk size: one
    chunk at the default budget, several at 64 entries per chunk."""

    CASES = {
        "sc2": (["separable_cubic", "--params", "3", "1"], 3.0),
        "poly_map_2d": (["poly_map_2d"], 2.0),
        "sc8": (["separable_cubic", "--params", "3", "1", "0.5", "2", "1", "1", "0.25", "1.5"], 3.0),
        # a constant map: every difference matrix is exactly zero
        "constant": (["affine", "--params", "0", "1"], 1.0),
    }

    def _run(self, name, tmp_path, seed=7, pairs=37):
        argv, L = self.CASES[name]
        out = tmp_path / "s.json"
        main(["slices", "--oracle", *argv, "--L", repr(L), "--seed", str(seed),
              "--pairs", str(pairs), "--out", str(out)])
        r = json.loads(out.read_text())["results"]
        return (r["worst_reconstruction_rel_err"], r["worst_linearity_rel_err"],
                r["worst_transfer_excess"], r["min_functional_sup_realization"])

    @pytest.mark.parametrize("name", CASES)
    def test_matches_pair_by_pair_loop(self, name, tmp_path, monkeypatch):
        argv, L = self.CASES[name]
        params = [float(p) for p in argv[2:]]
        F = as_vector_oracle(builtin(argv[0], params))
        want = _ref_slices(F, L, 7, 37)
        assert self._run(name, tmp_path) == want
        monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", 64)
        assert self._run(name, tmp_path) == want

    def test_every_pair_in_stream_order(self, tmp_path, monkeypatch):
        # the reported extremes can miss a dropped or reordered pair, so
        # record what the chunks pass to the kernels: 16 pairs of m d = 64
        # entries per chunk
        import hessfree.cli as cli

        monkeypatch.setattr(vecspace, "_CHUNK_ELEMENTS", 16 * 64)
        got = []

        def diffs(F, xs, ys, _orig=cli.difference_matrix):
            got.append([xs, ys])
            return _orig(F, xs, ys)

        def sups(grad_diffs, functionals, norms, _orig=cli.functional_sup_ratio):
            got[-1] += [functionals[:, 0], (functionals @ grad_diffs)[:, 0]]
            return _orig(grad_diffs, functionals, norms)

        monkeypatch.setattr(cli, "difference_matrix", diffs)
        monkeypatch.setattr(cli, "functional_sup_ratio", sups)
        self._run("sc8", tmp_path)
        F = as_vector_oracle(builtin("separable_cubic", [3, 1, 0.5, 2, 1, 1, 0.25, 1.5]))
        seen = []
        _ref_slices(F, 3.0, 7, 37, seen=seen)
        assert [len(chunk[0]) for chunk in got] == [16, 16, 5]
        for k, want in enumerate(zip(*seen)):
            np.testing.assert_array_equal(np.concatenate([chunk[k] for chunk in got]), want)
        # u_1^T (J(x) - J(y)) is the FD gradient difference of the slice
        # <u_1, F>, up to rounding
        routes = np.concatenate([chunk[3] for chunk in got])
        for (x, y, u1), route in zip(seen, routes):
            grad = slice_gradient_map(F, u1)
            want = grad(x) - grad(y)
            assert norm2(route - want) <= 1e-9 * norm2(want)

    def test_zero_matrix_pin(self, tmp_path):
        # sigma_1 = 0 at every pair, so the realization reads 1 whatever
        # u_1 the SVD returns, and the transfer excess is minus the bound
        # at the closest pair
        got = self._run("constant", tmp_path, seed=42, pairs=40)
        assert got == (0.0, 0.0, -0.2631614054630779, 1.0)
