"""Search engines that turn probes into certificates.

estimate_L maximizes the probe ratio to produce a replayable lower-bound
certificate for the Lipschitz constant of F'; falsify looks for a single
probe that violates the claimed constant; cross_validate compares the
probe-based estimate against the independent finite-difference route.

Probes are drawn in batches of 512, each batch owning its own generator
spawned from (seed, stream, batch index).  The probe sequence therefore
depends only on the budget and seed, the batched probe kernels return
what probing one pair or one configuration at a time would, and the
max-ratio reduction breaks ties by stream position, so certificates are
bit-identical across reruns and batch sizes.

A batch of random configurations is drawn whole, in three generator
calls: the point counts ns = integers(2, max_n + 1, size=B), then a
(B, max_n, d) block of standard normals times radius / sqrt(d), then
(B, max_n) standard exponentials.  Configuration k takes the first ns[k]
points and exponentials of row k, its weights the exponentials over
their sum.  Drawing each configuration by itself would take 3 B scalar
calls, and it cannot be batched bit for bit: the normal and exponential
samplers use a variable number of words per value, and integers keeps a
buffered half word from one call to the next.  The batch is then probed
as arrays by jensen_probe_batch, one call per point count n, and so is
each walk of ascent trials that coordinate_search builds from the sweep
positions it guesses accepted.  The ascent logs each trial up to the
first guess that missed, so its trials, log and witness are those of one
trial at a time.
Without a stop (estimate_L) the two-point phase is midpoint first:
every pair of a batch is probed at t = 1/2 as one array, and only each
batch's _REFINE best rows are scanned over t, the refined pairs of all
batches in one best_t_scan call after the last batch.  For a quadratic
map the ratio is the same at every t, so the scan only matters off that
case.  falsify still scans every pair over t in lockstep and replays
each winner through two_point_probe (ROADMAP item 1).  Only the rows the
search acts on become ProbeResults, each re-evaluated through
jensen_probe: the first violating row when falsifying, then the batch's
best candidate, or the ascent's stop hit or final best.  Every witness
is therefore a jensen_probe result and replays bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .oracles import DomainSampler, ScalarOracle, VectorOracle, as_vector_oracle, lip_from_hessians, lip_from_jacobians
from .probe import (
    _GOLDEN_ITERS, _T_GRID, ProbeBatch, ProbeResult, best_t_probe, best_t_scan, jensen_probe, jensen_probe_batch,
    scale_floor,
)
from .vecspace import Configuration, Matrix, SimplexWeights, chunk_rows, simplex_rows

RNG_ALGORITHM = "numpy-pcg64/seedseq(seed,stream,batch)"

_BATCH = 512
STREAM_PAIRS = 0
STREAM_CONFIGS = 1
STREAM_FD = 2
STREAM_CHECKS = 3

# relative and absolute slack when testing a probe against a claimed L
VIOLATION_RTOL = 1e-8
VIOLATION_ATOL_COEFF = 1e-12

# Candidate probes must carry a spread comfortably above rounding noise
# in the gap (which is of order eps * value scale); otherwise the
# 2 gap / spread ratio of a *sound* oracle can read high by far more
# than the certificate tolerances.  This threshold is deliberately much
# larger than the probe-level spread floor.
INFORMATIVE_SPREAD_COEFF = 1e-4

ASCENT_SHRINK = 0.7
ASCENT_LEVELS = 8


class ProbeRow(NamedTuple):
    """What a report keeps of one probe."""

    n: int
    gap: float
    spread: float
    ratio: float | None


PROBE_KINDS = ("two_point", "config", "ascent")
_KIND_CODES = {kind: code for code, kind in enumerate(PROBE_KINDS)}


class ProbeLog:
    """Counts probes; with collect=True also keeps a row per logged probe
    for reports: its kind, n, gap, spread and ratio.

    The rows are packed columns (array.array): kind is a code into
    PROBE_KINDS, n an int32, and gap, spread and ratio doubles, ratio NaN
    where the probe's is None.  That is 29 B a row instead of about 200 B
    as tuples, so a 10 000-probe op keeps about 0.3 MB.  The columns hold
    the probes' doubles as they are, so reports read from them equal
    reports read from per-row tuples."""

    __slots__ = ("count", "collect", "kind", "n", "gap", "spread", "ratio")

    def __init__(self, collect: bool = False):
        self.count = 0
        self.collect = collect
        self.kind = array("B")
        self.n = array("i")
        self.gap = array("d")
        self.spread = array("d")
        self.ratio = array("d")

    def add(self, kind: str, result: ProbeResult) -> None:
        self.count += 1
        if self.collect:
            self.kind.append(_KIND_CODES[kind])
            self.n.append(result.config.n)
            self.gap.append(result.gap)
            self.spread.append(result.spread)
            self.ratio.append(math.nan if result.ratio is None else result.ratio)

    def add_batch(self, kind: str, ns: list[int], batch: ProbeBatch, lo: int, hi: int) -> None:
        """Rows lo..hi-1 of a batch whose k-th configuration has ns[k] points."""
        self.count += hi - lo
        if self.collect:
            self.kind.frombytes(bytes([_KIND_CODES[kind]]) * (hi - lo))
            self.n.extend(ns[lo:hi])
            self.gap.frombytes(batch.gap[lo:hi].tobytes())
            self.spread.frombytes(batch.spread[lo:hi].tobytes())
            self.ratio.frombytes(batch.ratio[lo:hi].tobytes())

    @property
    def rows(self) -> list[tuple[str, ProbeRow]]:
        """The kept rows as (kind, ProbeRow) tuples, built on each call."""
        cols = zip(self.kind, self.n, self.gap, self.spread, self.ratio)
        return [
            (PROBE_KINDS[k], ProbeRow(n, gap, spread, None if math.isnan(r) else r))
            for k, n, gap, spread, r in cols
        ]


class NoInformativeProbeError(RuntimeError):
    """Every probe in the budget had spread below the informative floor."""


@dataclass(frozen=True)
class SearchBudget:
    """Probe counts, ascent steps and sampling geometry for one search."""

    random_configs: int = 4000
    ascent_steps: int = 2000
    two_point_pairs: int = 4000
    seed: int = 0
    max_n: int = 4
    domain_radius: float = 5.0

    def __post_init__(self):
        for name in ("random_configs", "ascent_steps", "two_point_pairs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.random_configs == 0 and self.two_point_pairs == 0:
            raise ValueError("need random_configs > 0 or two_point_pairs > 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.max_n < 2:
            raise ValueError("max_n must be >= 2")
        if not (self.domain_radius >= 0.0 and math.isfinite(self.domain_radius)):
            raise ValueError("domain_radius must be finite and >= 0")


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Replayable witness that the best Lipschitz constant is >= l_lower."""

    l_lower: float
    witness: ProbeResult
    probes_used: int
    oracle_label: str
    budget: SearchBudget
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class ViolationCertificate:
    """Replayable probe whose gap exceeds (claimed_L / 2) * spread beyond
    tolerance, refuting the claimed constant."""

    claimed_l: float
    witness: ProbeResult
    margin: float
    probes_used: int
    oracle_label: str
    budget: SearchBudget
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class CrossValidationReport:
    """Probe-based vs finite-difference Lipschitz estimates."""

    oracle_label: str
    l_probe: float
    l_fd: float
    consistent: bool
    cv_tol: float
    certificate: LowerBoundCertificate
    fd_pairs: int
    domain_radius: float


def stream_rng(seed: int, stream: int, batch: int = 0) -> np.random.Generator:
    """Generator for one (stream, batch) cell of the seed's lattice."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, batch)))


def informative_floor(r: ProbeResult | ProbeBatch):
    return scale_floor(INFORMATIVE_SPREAD_COEFF, r.point_scale)


def _candidate_ratio(r: ProbeResult) -> float:
    """Ratio used for candidate selection: -inf when absent or when the
    spread is too small for the ratio to be numerically trustworthy."""
    if r.ratio is None or r.spread < informative_floor(r):
        return -math.inf
    return r.ratio


def _candidate_ratios(b: ProbeBatch) -> np.ndarray:
    """_candidate_ratio of every row of a batch."""
    ok = ~np.isnan(b.ratio) & (b.spread >= informative_floor(b))
    return np.where(ok, b.ratio, -math.inf)


def violation_tolerance(r: ProbeResult | ProbeBatch, claimed_l: float):
    return (
        VIOLATION_RTOL * 0.5 * claimed_l * r.spread
        + VIOLATION_ATOL_COEFF * (1.0 + r.value_scale)
    )


def violates(r: ProbeResult | ProbeBatch, claimed_l: float):
    """gap > (claimed_L / 2) spread + tolerance; a bool array for a batch."""
    return r.gap - 0.5 * claimed_l * r.spread > violation_tolerance(r, claimed_l)


def _draw_configurations(
    rng: np.random.Generator, count: int, dim: int, max_n: int, radius: float
) -> tuple[np.ndarray, np.ndarray, Matrix]:
    """A batch of count configurations by the draw rule, in three
    generator calls: the point counts ns (count,), a (count, max_n, dim)
    Gaussian block at RMS radius, then (count, max_n) unit-rate
    exponentials.  Configuration k is the first ns[k] points and
    exponentials of row k, the exponentials divided by their sum.  The
    rows past ns[k] are drawn and dropped, about (max_n - 2) / (2 max_n)
    of the block (a quarter at max_n = 4, near half for a large max_n),
    and the block lies outside chunk_rows' budget: count * max_n * dim
    floats, 16 MB at the default 512 rows, max_n = 4 and d = 1024."""
    ns = rng.integers(2, max_n + 1, size=count)
    pts = rng.standard_normal((count, max_n, dim))
    pts *= radius / math.sqrt(dim)  # in place: the block is the batch's largest array
    return ns, pts, rng.standard_exponential((count, max_n))


def sample_configuration(
    rng: np.random.Generator, dim: int, max_n: int, radius: float
) -> Configuration:
    """n uniform in {2..max_n}, Gaussian points at RMS radius, weights
    Dirichlet(1,..,1) via normalized unit-rate exponentials.

    It draws what _draw_configurations draws for a one-row batch (n, a
    (max_n, dim) block of points, max_n exponentials) and keeps the first
    n of each, so it equals row 0 of that batch bit for bit.  It makes the
    three draws as scalar calls, which cost a single configuration about
    half of what the batch path's array set-up does."""
    n = int(rng.integers(2, max_n + 1))
    pts = rng.standard_normal((max_n, dim))[:n] * (radius / math.sqrt(dim))
    e = rng.standard_exponential(max_n)[:n]
    return Configuration(pts, e / e.sum())


def _batches(total: int) -> Iterator[tuple[int, int]]:
    """(batch index, probe count) of the ceil(total / _BATCH) batches."""
    for b, start in enumerate(range(0, total, _BATCH)):
        yield b, min(_BATCH, total - start)


# t values best_t_scan evaluates per pair, 31 grid + 2 + 20 golden: what a
# refined pair adds to its midpoint probe, and a pair of falsify counts
_T_PROBES_PER_PAIR = (_T_GRID - 1) + 2 + _GOLDEN_ITERS
# rows of each two-point batch that estimate_L scans over t
_REFINE = 8


def _two_point_results(
    F: VectorOracle, budget: SearchBudget, log: ProbeLog, stop: Callable[[ProbeResult], bool] | None
) -> Iterator[ProbeResult]:
    """Without a stop the phase is midpoint first.  Each batch's pairs are
    probed at t = 1/2 in one jensen_probe_batch call, and its _REFINE best
    rows by candidate ratio (ties to stream order) are refined: after the
    last batch, one best_t_scan call finds every refined pair's t and one
    jensen_probe_batch call probes them there, replacing their midpoint
    rows.  Then each batch in turn logs one row a pair and yields its first
    row of best candidate ratio, rebuilt through jensen_probe.  A pair
    counts its midpoint probe and a refined pair adds its scan's
    _T_PROBES_PER_PAIR: 4 000 + 64 * 53 at the default 4 000 pairs.  Only
    the refined pairs' points and the batches' rows (5 doubles a pair) are
    kept, so at most one batch's (count, 2, d) block is alive; a batch whose
    best row was not refined is drawn again to rebuild it.

    With a stop, each batch's pairs are scanned over t in lockstep by
    best_t_probe, and every pair's winner is logged, counted as
    _T_PROBES_PER_PAIR probes and yielded (batching it waits on ROADMAP
    item 1)."""
    scale = budget.domain_radius / math.sqrt(F.dim_in)
    rows, kept = [], []
    for b, count in _batches(budget.two_point_pairs):
        rng = stream_rng(budget.seed, STREAM_PAIRS, b)
        # x then y for each pair, in the generator's draw order
        xy = rng.standard_normal((count, 2, F.dim_in)) * scale
        # only the per-pair maximum is kept as a row; count all evals
        if stop is not None:
            for r in best_t_probe(F, xy[:, 0], xy[:, 1], min_spread_coeff=INFORMATIVE_SPREAD_COEFF):
                log.count += _T_PROBES_PER_PAIR - 1
                log.add("two_point", r)
                yield r
            continue
        mid = jensen_probe_batch(F, xy, np.full((count, 2), 0.5))
        # sorted, not np.argsort, whose first call adds about 0.3 MB of sort code to the RSS
        c = _candidate_ratios(mid).tolist()
        top = sorted(range(count), key=c.__getitem__, reverse=True)[:_REFINE]
        rows.append((b, count, mid, top))
        kept.append(xy[top])
        del xy  # else it lives on while the next batch's block is drawn
    if not rows:
        return
    pts = np.concatenate(kept)
    ts = best_t_scan(F, pts[:, 0], pts[:, 1], min_spread_coeff=INFORMATIVE_SPREAD_COEFF)
    # the weights two_point_probe gives each pair's winning t
    w = np.stack([1.0 - ts, ts], axis=1)
    scanned = jensen_probe_batch(F, pts, simplex_rows(w))
    start = 0
    for b, count, mid, top in rows:
        for col, new in zip(mid, scanned):
            col[top] = new[start : start + len(top)]
        log.count += _T_PROBES_PER_PAIR * len(top)
        log.add_batch("two_point", [2] * count, mid, 0, count)
        k = int(np.argmax(_candidate_ratios(mid)))
        if k in top:
            j = start + top.index(k)
            yield jensen_probe(F, Configuration(pts[j], SimplexWeights(w[j])))
        else:  # the batch drawn again, as the loop above draws it
            xy = stream_rng(budget.seed, STREAM_PAIRS, b).standard_normal((count, 2, F.dim_in)) * scale
            yield jensen_probe(F, Configuration(xy[k], SimplexWeights([0.5, 0.5])))
        start += len(top)


def _probe_draws(F: VectorOracle, ns: np.ndarray, pts: np.ndarray, e: Matrix) -> ProbeBatch:
    """jensen_probe_batch on a _draw_configurations batch, one call per
    point count n with the weights normalized as SimplexWeights would,
    with the rows put back in draw order."""
    out = np.empty((len(ProbeBatch._fields), len(ns)))
    # sorted(set()), not np.unique, which imports numpy.ma (about 1 MB)
    for n in sorted(set(ns.tolist())):
        rows = np.flatnonzero(ns == n)
        en = e[rows, :n]  # each row summed as the 1-D e[k, :n].sum() sums it
        out[:, rows] = jensen_probe_batch(F, pts[rows, :n], simplex_rows(en / en.sum(axis=1, keepdims=True)))
    return ProbeBatch(*out)


def _config_results(
    F: VectorOracle,
    budget: SearchBudget,
    log: ProbeLog,
    stop: Callable[[ProbeResult | ProbeBatch], object] | None = None,
) -> Iterator[ProbeResult]:
    """Each batch is drawn whole by _draw_configurations and probed whole
    before anything is yielded, like a two-point batch, so a stop takes
    effect at batch granularity in both phases.  What is yielded is what
    the search can act on: each row that stop flags, in stream order, then
    the first row of the batch's best candidate ratio.  A search that stops
    on a row has logged the rows up to it, as when every row was yielded."""
    for b, count in _batches(budget.random_configs):
        rng = stream_rng(budget.seed, STREAM_CONFIGS, b)
        ns, pts, e = _draw_configurations(rng, count, F.dim_in, budget.max_n, budget.domain_radius)
        rows = _probe_draws(F, ns, pts, e)
        ns = ns.tolist()

        def rebuilt(k: int) -> ProbeResult:
            ek = e[k, : ns[k]]
            return jensen_probe(F, Configuration(pts[k, : ns[k]], ek / ek.sum()))

        hits = np.flatnonzero(stop(rows)).tolist() if stop is not None else []
        logged = 0
        for k in hits:
            log.add_batch("config", ns, rows, logged, k + 1)
            logged = k + 1
            yield rebuilt(k)
        log.add_batch("config", ns, rows, logged, count)
        yield rebuilt(int(np.argmax(_candidate_ratios(rows))))
        del pts  # else it lives on while the next batch's block is drawn


def coordinate_search(
    start: Matrix,
    steps: int,
    radius: float,
    evaluate: Callable[[np.ndarray], Sequence],
    decide: Callable[[np.ndarray, Sequence], tuple[int, bool | None]],
) -> Matrix:
    """The search _ascend and check_cocoercive run from start (n, d): each
    trial is the current array with one coordinate of one row moved by
    +-step, in row, coordinate, sign order.  The step is
    0.5 (1 + radius) ASCENT_SHRINK**level, the level rising after each
    sweep without an accepted trial, through ASCENT_LEVELS levels.  At
    most steps trials are made; the current array is returned.

    Along a ridge compass search accepts the same sweep positions in each
    sweep, so a position is guessed accepted when its trial was accepted
    in each of the last two sweeps.  One evaluate(stack) call covers a
    walk, the next min(window 2**depth, cap, steps left) trials, each from
    the trials before it guessed accepted, at the level the guesses give
    its sweep, none past the last level: window is min(2 n d,
    chunk_rows(n d)), cap one jensen_probe_batch chunk (chunk_rows(n n d)
    rows) or the window if longer, and depth counts the walks in a row
    decided as guessed.  rows[a:b] are the rows of stack[a:b].

    decide(segment, rows) sees the walk's segments in order, each ending
    at a guessed-accepted trial and the last taking the rest, and returns
    (j, verdict) for its first decisive row j: verdict True (the trial
    becomes current) or None (the search ends), or (k - 1, False) when
    none of its k rows is decisive.  The walk stops at the first segment
    decided otherwise than guessed and the search goes on after its row j,
    so the trials made are those of a decide shown one trial at a time.
    When a walk's evaluate call raises, the window with no guesses is
    evaluated from the same state and its error raised, so a trial that is
    never made raises only inside that window."""
    current = np.array(start, dtype=np.float64)
    n, d = current.shape
    sweep = 2 * n * d
    signs = np.tile([1.0, -1.0], n * d)
    window = min(sweep, chunk_rows(current.size))
    cap = max(window, chunk_rows(n * current.size))
    base = 0.5 * (1.0 + radius)
    # each level's step by the Python expression: numpy's ** on an array
    # of levels rounds some of them differently
    step_of = np.array([base * ASCENT_SHRINK**level for level in range(ASCENT_LEVELS)])
    hits = np.zeros(sweep, dtype=int)  # sweeps in a row, up to 2, that accepted each position
    used = level = pos = depth = 0
    accepted = False
    while used < steps and level < ASCENT_LEVELS:
        for guessed, size in ((hits == 2, min(window << depth, cap)), (np.zeros(sweep, bool), window)):
            lap, m = np.divmod(np.arange(pos, pos + min(size, steps - used)), sweep)
            lvl = level + (lap > 0) * (not (accepted or guessed[pos:].any()))
            lvl += np.maximum(lap - 1, 0) * (not guessed.any())
            size = np.count_nonzero(lvl < ASCENT_LEVELS)
            m, lvl, guess = m[:size], lvl[:size], guessed[m[:size]]
            # each trial's base is the current array plus the moves of the
            # guessed trials before it (-0.0 adds nothing to any float,
            # -0.0 included), so it equals the base one trial at a time
            col, delta, moved = m // 2, signs[m] * step_of[lvl], np.flatnonzero(guess)
            moves = np.full((len(moved) + 1, n * d), -0.0)
            moves[0] = current.ravel()
            moves[np.arange(1, len(moved) + 1), col[moved]] = delta[moved]
            bases = np.add.accumulate(moves)
            stack = bases[np.cumsum(guess) - guess].reshape(size, n, d)
            stack.reshape(size, -1)[np.arange(size), col] += delta
            try:
                rows = evaluate(stack)
                break
            except Exception:
                if size <= window and not guess.any():  # the plain window itself
                    raise
        a = 0
        for e in [*(np.flatnonzero(guess[:-1]) + 1).tolist(), size]:
            j, verdict = decide(stack[a:e], rows[a:e])
            r = a + j
            if verdict is None or r + 1 < e or verdict != guess[e - 1]:
                break
            a = e
        depth = depth + 1 if r + 1 == size and verdict == guess[r] else 0
        current = (stack[r] if verdict else bases[np.count_nonzero(guess[:r])].reshape(n, d)).copy()
        if verdict is None:
            return current
        hits[m[:r]] = 2 * guess[:r]  # the same value at each repeat of a position
        hits[m[r]] = min(hits[m[r]] + 1, 2) if verdict else 0
        first = r - int(m[r])  # the walk row where row r's sweep starts
        accepted = verdict or guess[max(first, 0) : r].any() or (first <= 0 and accepted)
        level, pos, used = int(lvl[r]), int(m[r]) + 1, used + r + 1
        if pos == sweep:
            level += not accepted
            pos, accepted = 0, False
    return current


def _ascend(
    F: VectorOracle,
    start: ProbeResult,
    steps: int,
    radius: float,
    log: ProbeLog,
    stop: Callable[[ProbeResult | ProbeBatch], object] | None = None,
) -> ProbeResult:
    """coordinate_search on the ratio: the points move, the weights stay
    fixed, and a trial is accepted only if its candidate ratio strictly
    increases.  A trial satisfying stop ends the search and is returned;
    otherwise the best probe is.

    Each walk of trials is probed by one jensen_probe_batch call, and its
    rows carry each trial's candidate ratio, stop flag and probe numbers;
    each segment is logged up to its decisive row.  Only the returned
    probe, a stop hit or the final best, is re-evaluated through
    jensen_probe."""
    start_c = best_c = _candidate_ratio(start)
    w = start.config.weights
    hit = None
    # the weights and point counts of a stack's at most chunk_rows(n d)
    # rows, built once
    weights = np.broadcast_to(w.weights, (chunk_rows(start.config.points.size), start.config.n))
    ns = [start.config.n] * len(weights)

    def evaluate(stack: np.ndarray) -> np.ndarray:
        batch = jensen_probe_batch(F, stack, weights[: len(stack)])
        stops = np.zeros(len(stack)) if stop is None else stop(batch)
        return np.column_stack([_candidate_ratios(batch), stops, *batch])

    def decide(stack: np.ndarray, rows: np.ndarray) -> tuple[int, bool | None]:
        nonlocal best_c, hit
        for j, (c, stops) in enumerate(rows[:, :2].tolist()):
            if stops or c > best_c:
                break
        log.add_batch("ascent", ns, ProbeBatch(*rows[:, 2:].T), 0, j + 1)
        if stops:
            hit = jensen_probe(F, Configuration(stack[j], w))
            return j, None
        if c > best_c:
            best_c = c
            return j, True
        return j, False

    end = coordinate_search(start.config.points, steps, radius, evaluate, decide)
    if hit is not None:
        return hit
    # the start itself when no trial beat it
    return start if best_c == start_c else jensen_probe(F, Configuration(end, w))


def _search(
    F: VectorOracle,
    budget: SearchBudget,
    log: ProbeLog,
    stop: Callable[[ProbeResult], bool] | None,
) -> tuple[ProbeResult | None, ProbeResult | None]:
    """Shared two-point + random-config + ascent pipeline.

    Returns (best informative probe, first probe satisfying stop).

    Overflow is ignored for the whole search, not for each probe: a stop
    bound of a batch row overflowing to inf is sound, since no finite gap
    exceeds it, and a probe whose own numbers overflow raises ValueError.
    That covers F's evaluations too: an oracle whose own arithmetic
    overflows gives no warning inside a search, and it raises only when
    a value, or a squared norm of one, is not finite.
    """
    best: ProbeResult | None = None
    best_c = -math.inf  # _candidate_ratio(best), kept rather than recomputed per row
    with np.errstate(over="ignore"):
        for phase in (_two_point_results(F, budget, log, stop), _config_results(F, budget, log, stop)):
            for r in phase:
                if stop is not None and stop(r):
                    return best, r
                c = _candidate_ratio(r)
                if best is None or c > best_c:
                    best, best_c = r, c
        if best is not None and best_c > -math.inf:
            r = _ascend(F, best, budget.ascent_steps, budget.domain_radius, log, stop=stop)
            if stop is not None and stop(r):
                return best, r
            best = r  # the start itself when no trial beat it
    return best, None


def estimate_L(
    F: VectorOracle | ScalarOracle,
    budget: SearchBudget,
    log: ProbeLog | None = None,
) -> LowerBoundCertificate:
    """Lower-bound the Lipschitz constant of F' by the best probe ratio.

    Scalar oracles are probed through their gradient map.  Raises
    NoInformativeProbeError when every probe is spread-degenerate.
    """
    F = as_vector_oracle(F)
    log = log if log is not None else ProbeLog()
    best, _ = _search(F, budget, log, stop=None)
    if best is None or _candidate_ratio(best) == -math.inf:
        raise NoInformativeProbeError(
            f"no informative probe for {F.label!r}: every sampled spread "
            "was below the informative floor"
        )
    return LowerBoundCertificate(
        l_lower=best.ratio,
        witness=best,
        probes_used=log.count,
        oracle_label=F.label,
        budget=budget,
    )


def falsify(
    F: VectorOracle | ScalarOracle,
    claimed_l: float,
    budget: SearchBudget,
    log: ProbeLog | None = None,
) -> ViolationCertificate | None:
    """Search for a probe violating gap <= (claimed_L / 2) spread.

    Returns the first violation found, or None when the budget is
    exhausted.  None is *not* a proof that claimed_l is valid; it only
    means this search found no counterexample.
    """
    if not (math.isfinite(claimed_l) and claimed_l >= 0.0):
        raise ValueError(f"claimed_l must be finite and >= 0, got {claimed_l!r}")
    F = as_vector_oracle(F)
    log = log if log is not None else ProbeLog()
    _, hit = _search(F, budget, log, stop=lambda r: violates(r, claimed_l))
    if hit is None:
        return None
    return ViolationCertificate(
        claimed_l=claimed_l,
        witness=hit,
        margin=hit.gap - 0.5 * claimed_l * hit.spread,
        probes_used=log.count,
        oracle_label=F.label,
        budget=budget,
    )


def replay(witness: ProbeResult, F: VectorOracle | ScalarOracle) -> ProbeResult:
    """Re-evaluate a certificate's witness configuration.

    Overflow is ignored as in a search, so a witness whose numbers
    overflow raises jensen_probe's ValueError and no numpy warning."""
    with np.errstate(over="ignore"):
        return jensen_probe(as_vector_oracle(F), witness.config)


CV_TOL = 5e-2
_CV_ABS = 1e-8  # keeps the flag meaningful when both estimates are noise-level zeros


def cross_validate(
    o: ScalarOracle | VectorOracle,
    budget: SearchBudget,
    fd_pairs: int = 10_000,
    log: ProbeLog | None = None,
) -> CrossValidationReport:
    """Probe-based estimate vs the finite-difference derivative estimate
    on the same domain; consistent iff L_probe <= L_fd (1 + CV_TOL) up to
    an absolute floor."""
    cert = estimate_L(o, budget, log=log)
    sampler = DomainSampler(
        o.dim if isinstance(o, ScalarOracle) else o.dim_in, budget.domain_radius
    )
    rng = stream_rng(budget.seed, STREAM_FD, 0)
    if isinstance(o, ScalarOracle):
        l_fd = lip_from_hessians(o, sampler, fd_pairs, rng)
    else:
        l_fd = lip_from_jacobians(o, sampler, fd_pairs, rng)
    consistent = cert.l_lower <= l_fd * (1.0 + CV_TOL) + _CV_ABS
    return CrossValidationReport(
        oracle_label=cert.oracle_label,
        l_probe=cert.l_lower,
        l_fd=l_fd,
        consistent=bool(consistent),
        cv_tol=CV_TOL,
        certificate=cert,
        fd_pairs=fd_pairs,
        domain_radius=budget.domain_radius,
    )
