"""Scalar slices of vector-valued maps and derivative reconstruction.

A slice of F: R^d -> R^m by a functional y* (a coefficient vector in R^m
under the Euclidean pairing) is the scalar map phi(x) = <y*, F(x)>.  In
finite dimensions the derivative action F'(x) h can be reassembled from
the m basis slices, and the operator norm ||F'(x) - F'(y)|| equals the
sup of <y*, (F'(x) - F'(y)) h> over unit y* and unit h — realized here
empirically over sampled unit functionals and taken exactly as the
largest singular value of the explicitly assembled difference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import FD_VALUE_STEP, DomainSampler, VectorOracle, value_gradients
from .vecspace import Matrix, Vector, as_point, norm2, row_dots

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
        rows.append(g[keep] / n[keep, None])
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
    worst = -np.inf
    witness = None
    for f in functionals:
        grad = slice_gradient_map(F, f)
        gx = grad(xs)
        gy = grad(ys)
        gd = np.sqrt(np.einsum("ij,ij->i", gx - gy, gx - gy))
        bounds = l_eff * dists * (1.0 + SMOOTHNESS_RTOL) + SMOOTHNESS_ATOL
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


def reconstruct_derivative_action(F: VectorOracle, x: Vector, h: Vector) -> Vector:
    """Assemble F'(x) h componentwise: component j is the directional FD
    derivative of the basis slice <e_j, F(.)> at x along h."""
    x = as_point(x)
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    if x.size != F.dim_in or h.size != F.dim_in:
        raise ValueError("dimension mismatch")
    nh = norm2(h)
    if nh == 0.0:
        return np.zeros(F.dim_out)
    s = FD_VALUE_STEP * (1.0 + norm2(x)) / nh
    fp = np.asarray(F.eval(x + s * h), dtype=np.float64)
    fm = np.asarray(F.eval(x - s * h), dtype=np.float64)
    if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
        raise ValueError("non-finite oracle value in finite difference")
    return (fp - fm) / (2.0 * s)


def difference_matrix(F: VectorOracle, x: Vector, y: Vector) -> np.ndarray:
    """Columns reconstruct_derivative_action(x, e_k) - (same at y):
    the explicit matrix of F'(x) - F'(y)."""
    cols = [
        reconstruct_derivative_action(F, x, e) - reconstruct_derivative_action(F, y, e)
        for e in np.eye(F.dim_in)
    ]
    return np.column_stack(cols)


def derivative_norm_via_functionals(
    F: VectorOracle,
    x: Vector,
    y: Vector,
    n_functionals: int = 64,
    n_directions: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """||F'(x) - F'(y)|| as the empirical sup of <y*, (F'(x) - F'(y)) h>
    over sampled unit y* and unit h, refined to the exact spectral norm
    of the assembled difference matrix."""
    x = as_point(x)
    y = as_point(y)
    if np.array_equal(x, y):
        return 0.0
    rng = rng if rng is not None else np.random.default_rng(0)
    d = difference_matrix(F, x, y)
    ycoeffs = unit_functional_set(F.dim_out, n_functionals, rng)  # (K, m)
    hs = rng.standard_normal((max(n_directions, 1), F.dim_in))
    hs /= np.maximum(np.sqrt(np.einsum("ij,ij->i", hs, hs)), 1e-300)[:, None]
    empirical = float((ycoeffs @ d @ hs.T).max())
    return max(empirical, float(np.linalg.norm(d, 2)))


def functional_sup_ratio(
    F: VectorOracle,
    x: Vector,
    y: Vector,
    n_functionals: int,
    rng: np.random.Generator,
) -> float:
    """How much of the operator norm the sampled unit functionals
    realize: max over sampled y* of ||(F'(x) - F'(y))^T y*|| divided by
    the exact spectral norm (1.0 when the difference is numerically
    zero).  With the direction h optimized exactly per functional, this
    isolates how well the sampled dual ball attains the sup defining the
    norm."""
    d = difference_matrix(F, x, y)
    refined = float(np.linalg.norm(d, 2))
    if refined <= 1e-300:
        return 1.0
    ycoeffs = unit_functional_set(F.dim_out, n_functionals, rng)
    sups = np.sqrt(np.einsum("ij,ij->i", ycoeffs @ d, ycoeffs @ d))
    return float(sups.max() / refined)
