"""Function oracles and finite-difference derivative machinery.

The zoo below provides scalar functions f: R^d -> R with analytic
gradients and vector-valued maps F: R^d -> R^m.  Where the smallest L
with ||f''(x) - f''(y)|| <= L ||x - y|| (operator norm) is known in
closed form it is recorded as ``known_L``; those oracles anchor the
test suite and the acceptance criteria.

All oracle callables are vectorized over leading axes: ``value`` maps
(..., d) -> (...,) and ``gradient`` / ``eval`` map (..., d) -> (..., d)
or (..., m).  Finite differences here are the *independent* second-order
route: nothing in the probe machinery uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .vecspace import Matrix, Vector, as_point, as_stack, chunk_rows, norm2, row_norms

_EPS = float(np.finfo(np.float64).eps)
FD_VALUE_STEP = _EPS ** (1.0 / 3.0)  # central differences on values
FD_GRAD_STEP = _EPS ** 0.5  # central differences on gradients


@dataclass(frozen=True)
class ScalarOracle:
    """f: R^d -> R with an analytic gradient.

    known_L, when set, is the Hessian-Lipschitz constant of f (the
    Lipschitz constant of x -> f''(x) in operator norm).
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str
    known_L: float | None = None

    def gradient_oracle(self) -> "VectorOracle":
        """The gradient as a vector-valued map; its derivative is the
        Hessian of f, so known_L carries over unchanged."""
        return VectorOracle(
            dim_in=self.dim,
            dim_out=self.dim,
            eval=self.gradient,
            label=f"grad[{self.label}]",
            known_L=self.known_L,
        )


@dataclass(frozen=True)
class VectorOracle:
    """F: R^dim_in -> R^dim_out.

    known_L, when set, is the Lipschitz constant of the derivative
    x -> F'(x) in the spectral norm induced by Euclidean norms.
    """

    dim_in: int
    dim_out: int
    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    known_L: float | None = None


@dataclass(frozen=True)
class DomainSampler:
    """Sampling domain for probe and finite-difference campaigns.

    ``uniform`` draws from the box [-radius, radius]^dim (the default
    domain for derivative-based Lipschitz estimates); ``gaussian`` draws
    a Gaussian cloud scaled so that E||x||^2 = radius^2 for the check
    suites; estimate's probe search draws the same cloud inline.
    """

    dim: int
    radius: float = 5.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.radius >= 0.0 and np.isfinite(self.radius)):
            raise ValueError("radius must be finite and >= 0")

    def uniform(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.dim if n is None else (n, self.dim)
        return rng.uniform(-self.radius, self.radius, size=size)

    def gaussian(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.dim if n is None else (n, self.dim)
        return rng.standard_normal(size) * (self.radius / np.sqrt(self.dim))


# ---------------------------------------------------------------------------
# Builtin zoo
# ---------------------------------------------------------------------------


def affine(a: Matrix, b: Vector) -> VectorOracle:
    """F(x) = A x + b.  Constant derivative, so known_L = 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size:
        raise ValueError("affine needs A (m, d) and b (m,)")

    def ev(x, _a=a, _b=b):
        return np.asarray(x) @ _a.T + _b

    return VectorOracle(a.shape[1], a.shape[0], ev, "affine", known_L=0.0)


def quadratic(q: Matrix) -> ScalarOracle:
    """f(x) = x.Q x / 2 with Q symmetrized.  Constant Hessian, known_L = 0."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("quadratic needs a square matrix")
    q = 0.5 * (q + q.T)

    def val(x, _q=q):
        x = np.asarray(x)
        return 0.5 * np.einsum("...i,ij,...j->...", x, _q, x)

    def grad(x, _q=q):
        return np.asarray(x) @ _q

    return ScalarOracle(q.shape[0], val, grad, "quadratic", known_L=0.0)


def cubic1d(c: float) -> ScalarOracle:
    """f(x) = c x^3 / 6 on R, the one-coefficient separable_cubic.
    f''(x) = c x, so known_L = |c|; every interior two-point probe of the
    gradient attains the ratio |c|."""
    return replace(separable_cubic([c]), label=f"cubic1d({float(c):g})")


def separable_cubic(coeffs: Sequence[float]) -> ScalarOracle:
    """f(x) = sum_i c_i x_i^3 / 6.  The Hessian is diag(c_i x_i), so
    ||H(x) - H(y)|| = max_i |c_i| |x_i - y_i| and known_L = max_i |c_i|."""
    c = np.asarray(list(coeffs), dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("separable_cubic needs at least one coefficient")

    def val(x, _c=c):
        return np.asarray(x) ** 3 @ _c / 6.0

    def grad(x, _c=c):
        return _c * np.asarray(x) ** 2 / 2.0

    label = "separable_cubic(" + ",".join(f"{v:g}" for v in c) + ")"
    return ScalarOracle(c.size, val, grad, label, known_L=float(np.abs(c).max()))


def norm_cubed(dim: int = 3) -> ScalarOracle:
    """f(x) = ||x||^3 / 6 with gradient ||x|| x / 2.  No closed-form
    constant is recorded; it is estimated."""
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def val(x):
        x = np.asarray(x)
        return np.sqrt(np.einsum("...i,...i->...", x, x)) ** 3 / 6.0

    def grad(x):
        x = np.asarray(x)
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        return 0.5 * r[..., None] * x

    return ScalarOracle(dim, val, grad, f"norm_cubed(d={dim})")


def logistic_like(dim: int = 1) -> ScalarOracle:
    """f(x) = sum_i log(1 + exp(x_i)); gradient is the logistic sigmoid."""
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def val(x):
        return np.logaddexp(0.0, np.asarray(x)).sum(axis=-1)

    def grad(x):
        x = np.asarray(x)
        out = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    return ScalarOracle(dim, val, grad, f"logistic_like(d={dim})")


def rosenbrock(dim: int = 2) -> ScalarOracle:
    """Classic banana function; its Hessian-Lipschitz constant is
    domain-dependent, so nothing is recorded."""
    dim = int(dim)
    if dim < 2:
        raise ValueError("rosenbrock needs dim >= 2")

    def val(x):
        x = np.asarray(x)
        a = x[..., 1:] - x[..., :-1] ** 2
        b = 1.0 - x[..., :-1]
        return 100.0 * (a**2).sum(axis=-1) + (b**2).sum(axis=-1)

    def grad(x):
        x = np.asarray(x)
        g = np.zeros_like(x, dtype=np.float64)
        a = x[..., 1:] - x[..., :-1] ** 2
        g[..., :-1] = -400.0 * x[..., :-1] * a - 2.0 * (1.0 - x[..., :-1])
        g[..., 1:] += 200.0 * a
        return g

    return ScalarOracle(dim, val, grad, f"rosenbrock(d={dim})")


def poly_map_2d() -> VectorOracle:
    """F(x1, x2) = (x1^2, x1 x2).

    J(x) - J(y) = [[2(x1-y1), 0], [x2-y2, x1-y1]].  Writing d = x - y,
    the spectral norm of [[2 d1, 0], [d2, d1]] divided by ||d|| is
    maximized along d = e1, where the matrix is diag(2 d1, d1) with norm
    2 |d1|.  Hence known_L = 2.
    """

    def ev(x):
        x = np.asarray(x)
        return np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)

    return VectorOracle(2, 2, ev, "poly_map_2d", known_L=2.0)


_DEFAULT_AFFINE = (np.array([[2.0, -1.0], [0.5, 1.0]]), np.array([1.0, -1.0]))
_DEFAULT_QUADRATIC = np.array([[2.0, 0.5], [0.5, 1.0]])

BUILTIN_NAMES = (
    "affine",
    "quadratic",
    "cubic1d",
    "separable_cubic",
    "norm_cubed",
    "logistic_like",
    "rosenbrock",
    "poly_map_2d",
)


def builtin(name: str, params: Sequence[float] = ()) -> ScalarOracle | VectorOracle:
    """Look up a zoo oracle by name.

    Parameter conventions: cubic1d takes its single coefficient;
    separable_cubic its coefficient list; norm_cubed / logistic_like /
    rosenbrock an optional dimension; quadratic either nothing (canonical
    2x2), one coefficient (1-D f = q x^2 / 2) or d^2 row-major entries;
    affine either nothing (canonical 2x2 instance) or (a, b) for the 1-D
    map a x + b; poly_map_2d takes none.
    """
    params = [float(p) for p in params]
    if name == "affine":
        if not params:
            return affine(*_DEFAULT_AFFINE)
        if len(params) == 2:
            return affine(np.array([[params[0]]]), np.array([params[1]]))
        raise ValueError("affine takes no params or (a, b)")
    if name == "quadratic":
        if not params:
            return quadratic(_DEFAULT_QUADRATIC)
        if len(params) == 1:
            return quadratic(np.array([[params[0]]]))
        d = int(round(len(params) ** 0.5))
        if d * d != len(params):
            raise ValueError("quadratic takes 0, 1 or d^2 params")
        return quadratic(np.asarray(params).reshape(d, d))
    if name == "cubic1d":
        if len(params) != 1:
            raise ValueError("cubic1d takes exactly one coefficient")
        return cubic1d(params[0])
    if name == "separable_cubic":
        if not params:
            raise ValueError("separable_cubic takes at least one coefficient")
        return separable_cubic(params)
    dimensioned = {"norm_cubed": norm_cubed, "logistic_like": logistic_like, "rosenbrock": rosenbrock}
    if name in dimensioned:
        if len(params) > 1:
            raise ValueError(f"{name} takes an optional dimension")
        return dimensioned[name](*map(int, params))
    if name == "poly_map_2d":
        if params:
            raise ValueError("poly_map_2d takes no params")
        return poly_map_2d()
    raise ValueError(f"unknown oracle {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def as_vector_oracle(o: ScalarOracle | VectorOracle) -> VectorOracle:
    """The map the probe machinery sees: F itself, or grad(f)."""
    if isinstance(o, ScalarOracle):
        return o.gradient_oracle()
    return o


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def fd_hessian_vec(o: ScalarOracle, x: Vector, v: Vector) -> Vector:
    """Hessian-vector product by one central difference of the gradient
    along v, step h = sqrt(eps) (1 + ||x||) / ||v||."""
    x = as_point(x)
    v = as_point(v)
    if x.size != o.dim or v.size != o.dim:
        raise ValueError("dimension mismatch")
    nv = norm2(v)
    if nv == 0.0:
        raise ValueError("direction v must be nonzero")
    x = x[None, :]
    return central_differences(o.gradient, x, _gradient_steps(x)[:, :1] / nv, v[None, :])[0, :, 0]


def central_differences(
    fn: Callable[[np.ndarray], np.ndarray],
    x: Matrix,
    steps: Matrix,
    directions: np.ndarray | None = None,
) -> np.ndarray:
    """Derivatives of a batch-capable map at the rows of x (B, d) by
    central differences (fn(x + h_k u_k) - fn(x - h_k u_k)) / (2 h_k)
    along K directions u_k, (K, d) or (B, K, d), with steps h = steps
    (B, K); a (B, m, K) stack.  The directions default to the basis
    vectors e_k, giving the (B, m, d) Jacobians.

    fn sees the points as (b, K, d) stacks of chunk_rows(K d) rows, so a
    call's working set does not grow with B, nor with d beyond one row's
    K d entries.  Every entry is computed elementwise from its own row
    and each FD point stays an entry of a (b, K, d) stack, so the result
    does not depend on the block size: a matmul oracle sees the same
    (K, d) matrices whatever b is."""
    u = np.eye(x.shape[1]) if directions is None else directions
    rows = chunk_rows(steps.shape[1] * x.shape[1])
    out = None
    # an empty x still makes one (empty) call, which gives the output shape
    for lo in range(0, max(len(x), 1), rows):
        h = steps[lo : lo + rows, :, None]
        shift = h * (u if u.ndim == 2 else u[lo : lo + rows])
        fp = np.asarray(fn(x[lo : lo + rows, None, :] + shift), dtype=np.float64)
        fm = np.asarray(fn(x[lo : lo + rows, None, :] - shift), dtype=np.float64)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError("non-finite oracle value in finite difference")
        if out is None:
            out = np.empty((len(x), *fp.shape[1:]))
        out[lo : lo + rows] = (fp - fm) / (2.0 * h)
    # the transposed view, as one whole-stack call returns it: a matmul
    # on the result takes the same path, so it rounds the same way
    return out.transpose(0, 2, 1)


def _gradient_steps(x: Matrix) -> Matrix:
    """sqrt(eps) (1 + ||x||) on every coordinate of each row."""
    h = FD_GRAD_STEP * (1.0 + row_norms(x))
    return np.repeat(h[:, None], x.shape[1], axis=1)


def _value_steps(x: Matrix) -> Matrix:
    """cbrt(eps) max(1, |x_i|) per coordinate."""
    return FD_VALUE_STEP * np.maximum(1.0, np.abs(x))


def value_gradients(fn: Callable[[np.ndarray], np.ndarray], x: Matrix) -> Matrix:
    """Gradients of a batch-capable scalar map at the rows of x (B, d) by
    central differences with steps cbrt(eps) max(1, |x_i|); (B, d)."""
    return central_differences(lambda p: np.asarray(fn(p))[..., None], x, _value_steps(x))[:, 0]


def fd_jacobian(F: VectorOracle, x: Vector | Matrix) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued map, column by
    column with per-coordinate steps: (m, d) at one point (d,), or
    (B, m, d) at the rows of a stack (B, d), each equal to the one-point
    call bit for bit (F sees every point's (d, d) block of FD points)."""
    x, single = as_stack(x)
    if x.shape[1] != F.dim_in:
        raise ValueError("dimension mismatch")
    jac = central_differences(F.eval, x, _value_steps(x))
    return jac[0] if single else jac


# ---------------------------------------------------------------------------
# Derivative-based Lipschitz estimates (the independent second-order route)
# ---------------------------------------------------------------------------

_MIN_PAIR_DIST = 1e-9
# relative slack on the Frobenius bound: both norms round by about d eps
_FRO_SLACK = 1.0 + 1e-6
# below this squared Frobenius norm the entries' squares may have underflowed
_FRO_TINY = 1e-290


def _lip_from_derivatives(
    derivative: Callable[[Matrix], np.ndarray],
    sampler: DomainSampler,
    budget: int,
    rng: np.random.Generator,
) -> float:
    """max over budget sampled pairs of ||D(x) - D(y)|| / ||x - y|| in
    the exact spectral norm, where derivative maps points (B, d) to
    derivative matrices (B, m, d).  Pairs closer than _MIN_PAIR_DIST are
    skipped.

    Pairs are drawn x then y from rng, chunk_rows(4 d^2) at a time: a
    pair's two central-difference Jacobians take 2 d points of d entries
    at each sign, 4 d^2 entries in all (64 pairs at d = 8).  uniform
    draws one double per coordinate, so every chunk size draws the same
    pairs, and the max over chunks does not depend on how they are cut.

    The spectral norm is at most the Frobenius norm, which one einsum
    gives for a whole chunk, and at least the Frobenius norm over
    sqrt(min(m, d)).  So the chunk's max is at least its floor: the best
    of the earlier chunks, or the chunk's largest Frobenius ratio over
    sqrt(min(m, d)) _FRO_SLACK if that is larger (finite squared norms at
    or above _FRO_TINY only).  Only a pair whose Frobenius ratio times
    _FRO_SLACK (1 + 1e-6, far above the d eps both norms round by)
    exceeds the floor can raise the max, so only those, and any whose
    squared Frobenius norm is too small to trust, take an exact norm: one
    np.linalg.norm call per chunk, none when no pair survives.  At d = 1
    the Frobenius norm is the spectral norm, and only the pairs within
    the slack of the chunk's largest ratio survive.  LAPACK computes each
    matrix on its own, so the max is the one every pair's exact norm
    gives, bit for bit."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sampler.radius <= 0.0:
        raise ValueError("degenerate sampler domain")
    chunk = chunk_rows(4 * sampler.dim**2)
    best = 0.0
    for start in range(0, budget, chunk):
        n = min(chunk, budget - start)
        pairs = sampler.uniform(rng, 2 * n).reshape(n, 2, sampler.dim)
        diff = pairs[:, 0] - pairs[:, 1]
        dist = row_norms(diff)
        keep = dist >= _MIN_PAIR_DIST
        if not keep.any():
            continue
        pairs, dist = pairs[keep], dist[keep]
        jac = derivative(pairs.reshape(-1, sampler.dim)).reshape(len(pairs), 2, -1, sampler.dim)
        dj = jac[:, 0] - jac[:, 1]
        fro2 = np.einsum("bij,bij->b", dj, dj)
        ratio = np.sqrt(fro2) / dist
        # ||D||_2 >= ||D||_F / sqrt(min(m, d)), so the chunk's largest exact
        # ratio is at least its largest trusted Frobenius ratio over that
        top = np.where((fro2 >= _FRO_TINY) & (fro2 < np.inf), ratio, 0.0).max()
        floor = max(best, float(top) / (min(dj.shape[1:]) ** 0.5 * _FRO_SLACK))
        # not "ratio > floor", so a NaN ratio is kept as the exact norm would keep it
        live = np.flatnonzero(~(ratio * _FRO_SLACK <= floor) | (fro2 < _FRO_TINY))
        if len(live):
            norms = np.linalg.norm(dj[live], 2, axis=(1, 2))
            best = max(best, float((norms / dist[live]).max()))
    return best


def lip_from_hessians(
    o: ScalarOracle,
    sampler: DomainSampler,
    budget: int,
    rng: np.random.Generator,
) -> float:
    """max over sampled pairs of ||H(x) - H(y)|| / ||x - y|| with
    finite-difference Hessians; an empirical lower estimate of the
    Hessian-Lipschitz constant on the sampler's box."""
    return _lip_from_derivatives(
        lambda x: central_differences(o.gradient, x, _gradient_steps(x)), sampler, budget, rng
    )


def lip_from_jacobians(
    F: VectorOracle,
    sampler: DomainSampler,
    budget: int,
    rng: np.random.Generator,
) -> float:
    """Same estimate for vector-valued maps, via FD Jacobians."""
    return _lip_from_derivatives(
        lambda x: central_differences(F.eval, x, _value_steps(x)), sampler, budget, rng
    )
