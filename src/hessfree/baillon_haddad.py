"""Cocoercivity and convexity-split checks.

An operator G is 1/beta-cocoercive when

    <G(x) - G(y), x - y>  >=  (1/beta) ||G(x) - G(y)||^2

for all x, y.  For a convex function g this is equivalent (Baillon-Haddad)
to (beta/2)||.||^2 - g being convex, and for G(x) = L x + grad_phi(x) the
1/(2L)-cocoercivity inequality expands and rearranges into

    ||grad_phi(x) - grad_phi(y)||^2  <=  L^2 ||x - y||^2,

i.e. L-Lipschitz continuity of grad_phi.  The checks below sample these
statements on pairs drawn at the sampler's radius; sampling can falsify
convexity or cocoercivity (with a replayable witness pair) but never
certify them.  check_cocoercive's descent then walks without bound: its
`verify --L 0.5` witnesses on cubic1d reach ||x|| = 171 against an RMS
radius of 5 (one declared domain for every search is ROADMAP.md item 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import coordinate_search
from .oracles import DomainSampler
from .vecspace import Matrix, Vector, require_finite, row_dots, row_norms, squares

COCOERCIVITY_TOL_COEFF = 1e-10
CONVEXITY_TOL_COEFF = 1e-10


@dataclass(frozen=True)
class CocoercivityReport:
    beta: float
    min_residual: float
    witness_pair: tuple[Vector, Vector]
    pairs_tested: int
    tol: float
    passed: bool
    operator_scale: float


@dataclass(frozen=True)
class ConvexityWitness:
    x: Vector
    y: Vector
    violation: float
    which: str  # "plus" or "minus"


@dataclass(frozen=True)
class ConvexitySplitReport:
    l: float
    passed: bool
    worst_plus: float
    worst_minus: float
    witnesses: tuple[ConvexityWitness, ...]
    pairs_tested: int
    tol: float


def _pair_differences(G, x, y) -> tuple[Matrix, Matrix, Matrix, bool]:
    """(G(x) - G(y), x - y) as (B, m) and (B, d) stacks, for one pair of
    (d,) points or for (B, d) stacks of pairs, then the G values (2B, m)
    and whether one pair was given.  G is called once, on the x rows
    followed by the y rows."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    vals = np.asarray(G(np.concatenate([xs, ys])), dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite operator output")
    return vals[: len(xs)] - vals[len(xs) :], xs - ys, vals, x.ndim == 1


def _residuals(dg: Matrix, dxy: Matrix, beta: float) -> Vector:
    with np.errstate(over="ignore"):
        r = row_dots(dg, dxy) - row_dots(dg, dg) / beta
    require_finite("cocoercivity", r)
    return r


def _max_norm(a: Matrix) -> float:
    """The largest row norm of a (B, k) stack, each as norm2 gives it;
    inf where a square overflows."""
    with np.errstate(over="ignore"):
        return float(row_norms(a).max())


def cocoercivity_residual(G, beta: float, x: Vector, y: Vector):
    """r = <G(x) - G(y), x - y> - (1/beta) ||G(x) - G(y)||^2.

    r >= 0 at (x, y) is the pointwise 1/beta-cocoercivity inequality.
    G must accept batched points.  For (B, d) stacks of pairs the result
    is the (B,) array of the single-pair residuals, equal to them bit for
    bit when G computes each row independently of the others.
    """
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    dg, dxy, _, single = _pair_differences(G, x, y)
    r = _residuals(dg, dxy, beta)
    return float(r[0]) if single else r


def check_cocoercive(
    G,
    beta: float,
    sampler: DomainSampler,
    rng: np.random.Generator,
    pairs: int,
    ascent_steps: int = 200,
) -> CocoercivityReport:
    """Minimum residual over sampled pairs, then coordinate descent from
    the worst pair toward violations, a trial accepted when its residual
    is strictly lower.  The descent evaluates each walk of trial pairs
    coordinate_search builds with one G call; pairs_tested and both scales
    count only the trials up to each segment's first accepted one, as a
    descent making one trial at a time would.

    Passes iff the minimum stays above -1e-10 (1 + scale)^2, where the
    scale combines the largest ||G|| and point norms seen: for operators
    assembled from finite differences (the slice pipeline) the residual
    noise floor is set by the point magnitudes even where G itself is
    numerically zero.  Genuine violations at the detection level grow
    with scale^2 as well, so this cannot mask them.  Both phases reduce
    through _residuals, so min_residual is cocoercivity_residual at
    witness_pair bit for bit when G computes each row on its own.
    """
    if pairs < 1:
        raise ValueError("budget must be >= 1")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    xs = sampler.gaussian(rng, pairs)
    ys = sampler.gaussian(rng, pairs)
    dg, dxy, vals, _ = _pair_differences(G, xs, ys)
    res = _residuals(dg, dxy, beta)
    k = int(np.argmin(res))
    worst = float(res[k])
    gscale = _max_norm(vals)
    pscale = max(_max_norm(xs), _max_norm(ys))
    tested = pairs

    # descend on the residual from the worst pair, one coordinate of one
    # endpoint at a time; one G call gives a walk of trials' residuals and
    # norms, and only the trials up to a segment's first accepted one count
    def evaluate(stack: np.ndarray) -> Matrix:
        b = len(stack)
        dg, dxy, vals, _ = _pair_differences(G, stack[:, 0], stack[:, 1])
        r = _residuals(dg, dxy, beta)
        with np.errstate(over="ignore"):
            points = row_norms(stack.reshape(2 * b, -1)).reshape(b, 2).max(axis=1)
            return np.column_stack([r, row_norms(vals[:b]), row_norms(vals[b:]), points])

    def decide(stack: np.ndarray, rows: Matrix) -> tuple[int, bool]:
        nonlocal worst, gscale, pscale, tested
        r, gx, gy, points = rows.T
        better = ~(r >= worst)
        j = int(np.argmax(better)) if better.any() else len(r) - 1
        tested += j + 1
        gscale = max(gscale, float(gx[: j + 1].max()), float(gy[: j + 1].max()))
        pscale = max(pscale, float(points[: j + 1].max()))
        if better[j]:
            worst = float(r[j])
        return j, bool(better[j])

    wx, wy = coordinate_search(np.stack([xs[k], ys[k]]), ascent_steps, sampler.radius, evaluate, decide)

    tol = COCOERCIVITY_TOL_COEFF * squares(1.0 + gscale + pscale)
    require_finite("cocoercivity", tol)
    return CocoercivityReport(
        beta=beta,
        min_residual=worst,
        witness_pair=(wx, wy),
        pairs_tested=tested,
        tol=tol,
        passed=bool(worst >= -tol),
        operator_scale=gscale,
    )


def lipschitz_from_cocoercivity(G_phi, L: float, x: Vector, y: Vector):
    """The two sides of the expansion step: with G(x) = L x + G_phi(x),
    1/(2L)-cocoercivity of G at (x, y) is algebraically equivalent to
    lhs <= rhs for

        lhs = ||G_phi(x) - G_phi(y)||^2,   rhs = L^2 ||x - y||^2.

    For (B, d) stacks of pairs both sides are (B,) arrays of the
    single-pair values, as for cocoercivity_residual.
    """
    if L <= 0.0:
        raise ValueError("L must be > 0")
    dphi, dxy, _, single = _pair_differences(G_phi, x, y)
    lhs = row_dots(dphi, dphi)
    with np.errstate(over="ignore"):
        rhs = squares(L) * squares(row_norms(dxy))
    require_finite("expansion_step", lhs, rhs)
    return (float(lhs[0]), float(rhs[0])) if single else (lhs, rhs)


def convexity_split_check(
    phi,
    L: float,
    sampler: DomainSampler,
    rng: np.random.Generator,
    pairs: int,
) -> ConvexitySplitReport:
    """Midpoint-convexity sampling of both (L/2)||.||^2 + phi and
    (L/2)||.||^2 - phi.

    phi must accept batched points.  Passes iff no midpoint violation of
    either function exceeds 1e-10 (1 + scale); since both functions are
    continuous, midpoint convexity on all pairs is equivalent to
    convexity, so a positive violation is a genuine counterexample.
    """
    if pairs < 1:
        raise ValueError("budget must be >= 1")
    if L <= 0.0:
        raise ValueError("L must be > 0")
    xs = sampler.gaussian(rng, pairs)
    ys = sampler.gaussian(rng, pairs)
    stacked = np.concatenate([0.5 * (xs + ys), xs, ys], axis=0)
    with np.errstate(over="ignore"):
        g_base = 0.5 * L * np.einsum("ij,ij->i", stacked, stacked)
    phi_vals = np.asarray(phi(stacked), dtype=np.float64)
    if not np.isfinite(phi_vals).all():
        raise ValueError("non-finite value in convexity probe")
    splits = {"plus": g_base + phi_vals, "minus": g_base - phi_vals}
    tol = CONVEXITY_TOL_COEFF * (1.0 + float(max(np.abs(g).max() for g in splits.values())))
    require_finite("convexity_split", tol)
    worst, witnesses = {}, []
    for which, g in splits.items():
        # v = g(mid) - (g(x) + g(y)) / 2 per pair
        v = g[:pairs] - 0.5 * (g[pairs : 2 * pairs] + g[2 * pairs :])
        k = int(np.argmax(v))
        worst[which] = float(v[k])
        if worst[which] > tol:
            witnesses.append(ConvexityWitness(xs[k].copy(), ys[k].copy(), worst[which], which))
    return ConvexitySplitReport(
        l=L,
        passed=not witnesses,
        worst_plus=worst["plus"],
        worst_minus=worst["minus"],
        witnesses=tuple(witnesses),
        pairs_tested=pairs,
        tol=tol,
    )
