"""Cocoercivity and convexity-split checks.

An operator G is 1/beta-cocoercive when

    <G(x) - G(y), x - y>  >=  (1/beta) ||G(x) - G(y)||^2

for all x, y.  For a convex function g this is equivalent (Baillon-Haddad)
to (beta/2)||.||^2 - g being convex, and for G(x) = L x + grad_phi(x) the
1/(2L)-cocoercivity inequality expands and rearranges into

    ||grad_phi(x) - grad_phi(y)||^2  <=  L^2 ||x - y||^2,

i.e. L-Lipschitz continuity of grad_phi.  The checks below sample these
statements at desk scale; sampling can falsify convexity or cocoercivity
(with a replayable witness pair) but never certify them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import ASCENT_LEVELS, ASCENT_SHRINK
from .oracles import DomainSampler
from .vecspace import Matrix, Vector, norm2, row_dots

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


def _pair_differences(G, x, y) -> tuple[Matrix, Matrix, bool]:
    """(G(x) - G(y), x - y) as (B, m) and (B, d) stacks, for one pair of
    (d,) points or for (B, d) stacks of pairs, and whether one pair was
    given.  G is called once, on the x rows followed by the y rows."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    vals = np.asarray(G(np.concatenate([xs, ys])), dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite operator output")
    return vals[: len(xs)] - vals[len(xs) :], xs - ys, x.ndim == 1


def cocoercivity_residual(G, beta: float, x: Vector, y: Vector):
    """r = <G(x) - G(y), x - y> - (1/beta) ||G(x) - G(y)||^2.

    r >= 0 at (x, y) is the pointwise 1/beta-cocoercivity inequality.
    G must accept batched points.  For (B, d) stacks of pairs the result
    is the (B,) array of the single-pair residuals, equal to them bit for
    bit when G computes each row independently of the others.
    """
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    dg, dxy, single = _pair_differences(G, x, y)
    r = row_dots(dg, dxy) - row_dots(dg, dg) / beta
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
    the worst pair toward violations.

    Passes iff the minimum stays above -1e-10 (1 + scale)^2, where the
    scale combines the largest ||G|| and point norms seen: for operators
    assembled from finite differences (the slice pipeline) the residual
    noise floor is set by the point magnitudes even where G itself is
    numerically zero.  Genuine violations at the detection level grow
    with scale^2 as well, so this cannot mask them.
    """
    if pairs < 1:
        raise ValueError("budget must be >= 1")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    xs = sampler.gaussian(rng, pairs)
    ys = sampler.gaussian(rng, pairs)
    gx = np.asarray(G(xs), dtype=np.float64)
    gy = np.asarray(G(ys), dtype=np.float64)
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise ValueError("non-finite operator output")
    dg = gx - gy
    res = np.einsum("ij,ij->i", dg, xs - ys) - np.einsum("ij,ij->i", dg, dg) / beta
    k = int(np.argmin(res))
    worst = float(res[k])
    wx, wy = xs[k].copy(), ys[k].copy()
    gscale = float(
        max(np.sqrt(np.einsum("ij,ij->i", gx, gx).max()),
            np.sqrt(np.einsum("ij,ij->i", gy, gy).max()))
    )
    pscale = float(
        max(np.sqrt(np.einsum("ij,ij->i", xs, xs).max()),
            np.sqrt(np.einsum("ij,ij->i", ys, ys).max()))
    )
    tested = pairs

    # hill-climb downward on the residual, one coordinate of one endpoint
    # at a time, mirroring the ratio-ascent scheme
    base = 0.5 * (1.0 + sampler.radius)
    level = 0
    used = 0
    while used < ascent_steps and level < ASCENT_LEVELS:
        step = base * ASCENT_SHRINK**level
        accepted = False
        for which in (0, 1):
            for k in range(sampler.dim):
                for s in (1.0, -1.0):
                    if used >= ascent_steps:
                        break
                    tx, ty = wx.copy(), wy.copy()
                    (tx if which == 0 else ty)[k] += s * step
                    r = cocoercivity_residual(G, beta, tx, ty)
                    used += 1
                    tested += 1
                    gscale = max(gscale, _pair_scale(G, tx, ty))
                    pscale = max(pscale, norm2(tx), norm2(ty))
                    if r < worst:
                        worst, wx, wy = r, tx, ty
                        accepted = True
        if not accepted:
            level += 1

    tol = COCOERCIVITY_TOL_COEFF * (1.0 + gscale + pscale) ** 2
    return CocoercivityReport(
        beta=beta,
        min_residual=worst,
        witness_pair=(wx, wy),
        pairs_tested=tested,
        tol=tol,
        passed=bool(worst >= -tol),
        operator_scale=gscale,
    )


def _pair_scale(G, x: Vector, y: Vector) -> float:
    vals = np.asarray(G(np.stack([x, y])), dtype=np.float64)
    return float(np.sqrt(np.einsum("ij,ij->i", vals, vals).max()))


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
    dphi, dxy, single = _pair_differences(G_phi, x, y)
    lhs = row_dots(dphi, dphi)
    # ||x - y||^2 through Python's float pow, as a single pair always had
    # it: libm's pow(v, 2) is not correctly rounded, so numpy's square
    # would move about 0.1% of the values by an ulp
    dist_sq = np.array([v**2 for v in np.sqrt(row_dots(dxy, dxy)).tolist()])
    rhs = L**2 * dist_sq
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
    mids = 0.5 * (xs + ys)
    stacked = np.concatenate([mids, xs, ys], axis=0)
    g_base = 0.5 * L * np.einsum("ij,ij->i", stacked, stacked)
    phi_vals = np.asarray(phi(stacked), dtype=np.float64)
    if not np.isfinite(phi_vals).all():
        raise ValueError("non-finite value in convexity probe")
    g_plus = g_base + phi_vals
    g_minus = g_base - phi_vals
    # v = g(mid) - (g(x) + g(y)) / 2 per pair, for both split functions
    vp = g_plus[:pairs] - 0.5 * (g_plus[pairs : 2 * pairs] + g_plus[2 * pairs :])
    vm = g_minus[:pairs] - 0.5 * (g_minus[pairs : 2 * pairs] + g_minus[2 * pairs :])
    kp = int(np.argmax(vp))
    km = int(np.argmax(vm))
    worst_plus = float(vp[kp])
    worst_minus = float(vm[km])
    wit_plus = (xs[kp].copy(), ys[kp].copy())
    wit_minus = (xs[km].copy(), ys[km].copy())
    scale = float(max(np.abs(g_plus).max(), np.abs(g_minus).max()))
    tol = CONVEXITY_TOL_COEFF * (1.0 + scale)
    witnesses = []
    if worst_plus > tol:
        witnesses.append(ConvexityWitness(wit_plus[0], wit_plus[1], worst_plus, "plus"))
    if worst_minus > tol:
        witnesses.append(ConvexityWitness(wit_minus[0], wit_minus[1], worst_minus, "minus"))
    return ConvexitySplitReport(
        l=L,
        passed=not witnesses,
        worst_plus=worst_plus,
        worst_minus=worst_minus,
        witnesses=tuple(witnesses),
        pairs_tested=pairs,
        tol=tol,
    )
