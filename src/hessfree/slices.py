"""Scalar slices of vector-valued maps and derivative reconstruction.

A slice of F: R^d -> R^m by a functional y* (a coefficient vector in R^m
under the Euclidean pairing) is the scalar map phi(x) = <y*, F(x)>.  In
finite dimensions the derivative action F'(x) h can be reassembled from
the m basis slices, and the operator norm ||F'(x) - F'(y)|| equals the
sup of <y*, (F'(x) - F'(y)) h> over unit y* and unit h — realized here
empirically over sampled unit functionals and taken exactly as the
largest singular value of the explicitly assembled difference matrix.

The finite-difference kernels (reconstruct_derivative_action,
difference_matrix) take one point or a (B, d) stack, and a stack's rows
equal the one-point calls bit for bit.  The two pair checks (sampled_norm,
functional_sup_ratio) work on difference matrices and exact norms already
built, so a caller checking a stack of pairs builds each pair's matrix and
spectral norm once and shares them between the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import FD_VALUE_STEP, DomainSampler, VectorOracle, central_differences, value_gradients
from .vecspace import Matrix, Vector, as_point, as_stack, require_finite, row_dots

# slice-smoothness comparison: FD noise allowance on top of L ||x-y||
SMOOTHNESS_RTOL = 1e-4
SMOOTHNESS_ATOL = 1e-8
L_FLOOR = 1e-9


def unit_functional_set(dim_out: int, count: int, rng: np.random.Generator) -> Matrix:
    """count unit functionals as the rows of a (count, dim_out) array:
    +-e_j deterministically, then Gaussian draws normalized to the sphere
    (draws of norm <= 1e-12 are skipped)."""
    eye = np.eye(dim_out)
    rows = [np.stack([eye, -eye], axis=1).reshape(2 * dim_out, dim_out)]
    missing = count - 2 * dim_out
    while missing > 0:
        g = rng.standard_normal((missing, dim_out))
        n = np.sqrt(row_dots(g, g))  # norm2 of each row, bit for bit
        keep = n > 1e-12
        rows.append(g / n[:, None] if keep.all() else g[keep] / n[keep, None])
        missing -= int(keep.sum())
    return np.concatenate(rows)[:count]


def slice_map(F: VectorOracle, ystar: Vector):
    """x -> <y*, F(x)> as a batch-capable scalar map."""
    c = as_point(ystar)
    if c.size != F.dim_out:
        raise ValueError(f"functional dim {c.size} != oracle dim_out {F.dim_out}")

    def phi(x):
        return np.asarray(F.eval(np.asarray(x, dtype=np.float64))) @ c

    return phi


def slice_gradient_map(F: VectorOracle, ystar: Vector):
    """Finite-difference gradient of the slice, batch-capable:
    (B, d) -> (B, d) or (d,) -> (d,)."""
    phi = slice_map(F, ystar)

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        g = value_gradients(phi, np.atleast_2d(x))
        return g[0] if x.ndim == 1 else g

    return grad


@dataclass(frozen=True)
class SmoothnessWitness:
    functional: Vector
    x: Vector
    y: Vector
    grad_dist: float
    bound: float


@dataclass(frozen=True)
class SliceSmoothnessReport:
    l: float
    passed: bool
    worst_excess: float
    witness: SmoothnessWitness | None
    functionals_tested: int
    pairs_tested: int


def slice_smoothness_check(
    F: VectorOracle,
    L: float,
    n_functionals: int,
    sampler: DomainSampler,
    rng: np.random.Generator,
    pairs: int = 200,
) -> SliceSmoothnessReport:
    """Check ||grad phi(x) - grad phi(y)|| <= L ||x - y|| (1 + 1e-4) + atol
    for FD gradients of sampled unit slices.  L is floored at 1e-9 so
    that derivative-constant maps (L = 0) remain checkable."""
    if pairs < 1 or n_functionals < 1:
        raise ValueError("budget must be >= 1")
    l_eff = max(L, L_FLOOR)
    functionals = unit_functional_set(F.dim_out, n_functionals, rng)
    xs = sampler.gaussian(rng, pairs)
    ys = sampler.gaussian(rng, pairs)
    dists = np.sqrt(np.einsum("ij,ij->i", xs - ys, xs - ys))
    with np.errstate(over="ignore"):
        bounds = l_eff * dists * (1.0 + SMOOTHNESS_RTOL) + SMOOTHNESS_ATOL
    worst = -np.inf
    witness = None
    for f in functionals:
        grad = slice_gradient_map(F, f)
        gx = grad(xs)
        gy = grad(ys)
        gd = np.sqrt(np.einsum("ij,ij->i", gx - gy, gx - gy))
        require_finite("slice_smoothness", gd, bounds)
        excess = gd - bounds
        k = int(np.argmax(excess))
        if excess[k] > worst:
            worst = float(excess[k])
            witness = SmoothnessWitness(
                functional=f,
                x=xs[k].copy(),
                y=ys[k].copy(),
                grad_dist=float(gd[k]),
                bound=float(bounds[k]),
            )
    passed = worst <= 0.0
    return SliceSmoothnessReport(
        l=L,
        passed=bool(passed),
        worst_excess=worst,
        witness=None if passed else witness,
        functionals_tested=len(functionals),
        pairs_tested=pairs,
    )


def reconstruct_derivative_action(F: VectorOracle, x: Vector | Matrix, h: Vector | Matrix) -> np.ndarray:
    """Assemble F'(x) h componentwise: component j is the directional FD
    derivative of the basis slice <e_j, F(.)> at x along h, with step
    cbrt(eps) (1 + ||x||) / ||h||.  A zero h gives zeros without
    evaluating F.

    x and h are one point and direction (d,), giving (m,), or stacks
    (B, d), giving (B, m) from one central_differences call.  Each FD
    point is a one-point (1, d) entry of the stack, so a matmul oracle
    computes the vector-matrix product of the one-point call and every
    row equals that call bit for bit."""
    x, single = as_stack(x)
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if x.shape[1] != F.dim_in or h.shape != x.shape:
        raise ValueError("dimension mismatch")
    out = np.zeros((len(x), F.dim_out))
    nh = np.sqrt(row_dots(h, h))
    live = nh != 0.0
    if live.any():
        x, h = x[live], h[live]
        s = FD_VALUE_STEP * (1.0 + np.sqrt(row_dots(x, x))) / nh[live]
        out[live] = central_differences(F.eval, x, s[:, None], h[:, None, :])[:, :, 0]
    return out[0] if single else out


def difference_matrix(F: VectorOracle, x: Vector | Matrix, y: Vector | Matrix) -> np.ndarray:
    """The explicit matrix of F'(x) - F'(y): column k is
    reconstruct_derivative_action(x, e_k) - (same at y), so the step is
    cbrt(eps) (1 + ||x||).  One pair (d,) gives (m, d); stacks (B, d)
    give (B, m, d), every column of every pair from one
    reconstruct_derivative_action call."""
    x, single = as_stack(x)
    y, _ = as_stack(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal shape")
    pts = np.concatenate([x, y])
    d = pts.shape[1]
    cols = reconstruct_derivative_action(
        F, np.repeat(pts, d, axis=0), np.tile(np.eye(d), (len(pts), 1))
    )
    jac = cols.reshape(len(pts), d, -1).transpose(0, 2, 1)
    diff = np.ascontiguousarray(jac[: len(x)] - jac[len(x) :])
    return diff[0] if single else diff


def unit_directions(rng: np.random.Generator, count: int, dim: int) -> Matrix:
    """max(count, 1) Gaussian directions normalized to the sphere, as
    the rows of an array."""
    hs = rng.standard_normal((max(count, 1), dim))
    hs /= np.maximum(np.sqrt(np.einsum("ij,ij->i", hs, hs)), 1e-300)[:, None]
    return hs


def sampled_norm(diff: np.ndarray, functionals: np.ndarray, directions: np.ndarray, norm):
    """||D|| as the empirical sup of <y*, D h> over sampled unit
    functionals (K, m) and unit directions (H, d), refined to the exact
    spectral norm given: the larger of the two.  One matrix (m, d) gives a
    float; stacks (B, m, d), (B, K, m), (B, H, d) and (B,) norms give (B,)."""
    empirical = (functionals @ diff @ np.swapaxes(directions, -1, -2)).max(axis=(-2, -1))
    return np.where(norm > empirical, norm, empirical)[()]


def derivative_norm_via_functionals(
    F: VectorOracle,
    x: Vector,
    y: Vector,
    n_functionals: int = 64,
    n_directions: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """||F'(x) - F'(y)|| for one pair: sampled_norm of the difference
    matrix over n_functionals unit functionals and then n_directions unit
    directions drawn from rng."""
    x = as_point(x)
    y = as_point(y)
    if np.array_equal(x, y):
        return 0.0
    rng = rng if rng is not None else np.random.default_rng(0)
    d = difference_matrix(F, x, y)
    ycoeffs = unit_functional_set(F.dim_out, n_functionals, rng)
    hs = unit_directions(rng, n_directions, F.dim_in)
    return float(sampled_norm(d, ycoeffs, hs, np.linalg.norm(d, 2)))


def functional_sup_ratio(diff: np.ndarray, functionals: np.ndarray, norm):
    """How much of the operator norm the sampled unit functionals
    realize: max over the functionals y* of ||D^T y*||, divided by the
    exact spectral norm given (1.0 where that is <= 1e-300, a numerically
    zero difference).  With the direction h optimized exactly per
    functional, this isolates how well the sampled dual ball attains the
    sup defining the norm.  One matrix (m, d) with functionals (K, m) gives
    a float; stacks (B, m, d), (B, K, m) and (B,) norms give (B,)."""
    yd = functionals @ diff
    sups = np.sqrt(np.einsum("...ij,...ij->...i", yd, yd)).max(axis=-1)
    zero = norm <= 1e-300
    return np.where(zero, 1.0, sups / np.where(zero, 1.0, norm))[()]
