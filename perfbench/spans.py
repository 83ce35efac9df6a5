"""Span tracer for the benchmark's traced run.

Library functions are wrapped from outside, at the module attribute their
caller looks them up by (``hessfree.cli.functional_sup_ratio``, not
``hessfree.slices.functional_sup_ratio``), so nothing inside ``src/``
changes.  Each wrapped call records one span: name, start, end, parent
span and thread.  Probes run in pool threads, so a span opened on a
thread with no open span of its own takes the op's innermost main-thread
span as its parent.

Oracle calls are too frequent (about 10^5 per op) to record one by one.
Each is counted and timed into the innermost open span of its thread, and
that time is charged to the ``oracles`` layer.

Span names are ``<layer>.<what>`` and the layer is the ``src/hessfree``
module that defines the function.  A span's self time is its duration
minus the same-thread child spans and oracle calls inside it, so on the
op's own thread the self times of all spans add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import itertools
import json
import math
import threading
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind, metrics that read it).  Kinds:
#   span     plain function call
#   gen      generator function; the span runs from first next() to close
#   probe    probe call; records its stream position and result identity
#   ascent   like span, and restarts the stream position at phase 2
#   search   like span, and records the identity of the stopping probe
#   rng      not a span: marks the (stream, batch) the calling thread is in
#   fsets    like span, and records how many functionals were built
#   oracle   oracle factory; the oracle it returns is counted and timed
# When a later library renames an attribute, its metrics are left out.
_PROBE_METRICS = ("probe.self_frac", "estimate.probes_evaluated",
                  "estimate.useful_ratio", "estimate.threads")
_CONFIG_METRICS = ("vecspace.configs_built", "vecspace.config_s")
TARGETS = (
    ("hessfree.cli", "builtin", "oracles.builtin", "oracle",
     ("oracles.eval_calls", "oracles.eval_points", "oracles.points_per_call",
      "oracles.eval_s", "oracles.fd_points", "probe.self_frac", "estimate.useful_ratio")),
    ("hessfree.cli", "cross_validate", "estimate.cross_validate", "span", ()),
    ("hessfree.cli", "falsify", "estimate.falsify", "span", ()),
    ("hessfree.estimate", "estimate_L", "estimate.estimate_L", "span", ()),
    ("hessfree.estimate", "_search", "estimate.search", "search",
     ("estimate.search_s", "estimate.useful_ratio")),
    ("hessfree.estimate", "_two_point_results", "estimate.two_point", "gen",
     ("estimate.two_point_s",)),
    ("hessfree.estimate", "_config_results", "estimate.configs", "gen", ("estimate.configs_s",)),
    ("hessfree.estimate", "_ascend", "estimate.ascent", "ascent", ("estimate.ascent_s",)),
    ("hessfree.estimate", "stream_rng", "estimate.stream_rng", "rng", ("estimate.useful_ratio",)),
    ("hessfree.estimate", "best_t_probe", "probe.best_t", "probe",
     ("probe.best_t_calls", "probe.best_t_s", *_PROBE_METRICS)),
    ("hessfree.estimate", "jensen_probe", "probe.jensen", "probe",
     ("probe.jensen_calls", "probe.jensen_s", *_PROBE_METRICS)),
    ("hessfree.estimate", "Configuration", "vecspace.config", "span", _CONFIG_METRICS),
    ("hessfree.estimate", "SimplexWeights", "vecspace.weights", "span", ("vecspace.config_s",)),
    ("hessfree.probe", "Configuration", "vecspace.config", "span", _CONFIG_METRICS),
    ("hessfree.probe", "SimplexWeights", "vecspace.weights", "span", ("vecspace.config_s",)),
    ("hessfree.estimate", "lip_from_hessians", "oracles.fd", "span",
     ("oracles.fd_s", "oracles.fd_points")),
    ("hessfree.estimate", "lip_from_jacobians", "oracles.fd", "span",
     ("oracles.fd_s", "oracles.fd_points")),
    ("hessfree.cli", "fd_jacobian", "oracles.fd_jacobian", "span", ()),
    ("hessfree.cli", "check_cocoercive", "baillon_haddad.cocoercive", "span",
     ("baillon_haddad.cocoercive_s",)),
    ("hessfree.cli", "convexity_split_check", "baillon_haddad.split", "span",
     ("baillon_haddad.split_s",)),
    ("hessfree.cli", "cocoercivity_residual", "baillon_haddad.expansion_residual", "span",
     ("baillon_haddad.expansion_s", "baillon_haddad.residual_calls")),
    ("hessfree.cli", "lipschitz_from_cocoercivity", "baillon_haddad.expansion_lip", "span",
     ("baillon_haddad.expansion_s",)),
    ("hessfree.baillon_haddad", "cocoercivity_residual", "baillon_haddad.residual", "span",
     ("baillon_haddad.residual_calls",)),
    ("hessfree.cli", "slice_smoothness_check", "slices.smoothness", "span",
     ("slices.smoothness_s",)),
    ("hessfree.cli", "derivative_norm_via_functionals", "slices.norm", "span",
     ("slices.norm_s",)),
    ("hessfree.cli", "functional_sup_ratio", "slices.sup_ratio", "span", ("slices.sup_ratio_s",)),
    ("hessfree.cli", "reconstruct_derivative_action", "slices.reconstruct", "span",
     ("slices.reconstruct_calls",)),
    ("hessfree.slices", "reconstruct_derivative_action", "slices.reconstruct", "span",
     ("slices.reconstruct_calls",)),
    ("hessfree.cli", "unit_functional_set", "slices.functional_set", "fsets",
     ("slices.functionals_built",)),
    ("hessfree.slices", "unit_functional_set", "slices.functional_set", "fsets",
     ("slices.functionals_built",)),
)

ROOT = "cli.main"
LAYERS = ("estimate", "probe", "vecspace", "oracles", "baillon_haddad", "slices")
PROBES = ("probe.best_t", "probe.jensen")
_ASCENT_PHASE = 2  # two-point and config probes sit in streams 0 and 1


class Span:
    __slots__ = ("id", "parent", "tid", "name", "t0", "t1",
                 "eval_calls", "eval_points", "eval_s", "key", "ref")

    def __init__(self, sid, parent, tid, name):
        self.id = sid
        self.parent = parent
        self.tid = tid
        self.name = name
        self.eval_calls = 0
        self.eval_points = 0
        self.eval_s = 0.0
        self.key = None  # probe: (phase, batch, index); functional set: its size
        self.ref = None  # probe: id of its result; search: id of the stopping probe
        self.t1 = math.nan
        self.t0 = perf_counter()


class Tracer:
    """Collects spans in memory; ``install`` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()  # wrapped names that no longer exist
        self.absent_metrics: set[str] = set()
        self.orphan_evals = 0  # oracle calls made with no open span on their thread
        self.op_ranges: list[tuple[int, int]] = []  # span index range of each op
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[Span] | None = None

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        st = self._stack()
        parent = None
        if st:
            parent = st[-1].id
        elif self._op_stack:
            with contextlib.suppress(IndexError):
                parent = self._op_stack[-1].id
        s = Span(next(self._ids), parent, threading.get_ident(), name)
        # listed before it can become another thread's parent, so that the
        # list holds every span after its parent
        self.spans.append(s)
        st.append(s)
        return s

    def close(self, s: Span) -> None:
        s.t1 = perf_counter()
        st = self._stack()
        if st and st[-1] is s:
            st.pop()
        else:
            st.remove(s)

    def add_eval(self, points: int, seconds: float) -> None:
        st = self._stack()
        if not st:
            self.orphan_evals += 1
            return
        s = st[-1]
        s.eval_calls += 1
        s.eval_points += points
        s.eval_s += seconds

    def _next_key(self) -> tuple[int, int, int]:
        loc = self._local
        stream, batch = getattr(loc, "batch", (-1, 0))
        seq = getattr(loc, "seq", 0)
        loc.seq = seq + 1
        return (stream, batch, seq)

    @contextlib.contextmanager
    def op(self):
        """Root span of one CLI call, on the calling thread."""
        first = len(self.spans)
        self._local.batch, self._local.seq = (-1, 0), 0
        root = self.open(ROOT)
        self._op_stack = self._stack()
        try:
            yield root
        finally:
            self.close(root)
            self._op_stack = None
            self.op_ranges.append((first, len(self.spans)))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        tr = self
        if kind == "gen":
            def gen_wrapper(*args, **kwargs):
                s = tr.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tr.close(s)
            return gen_wrapper
        if kind == "rng":
            def rng_wrapper(seed, stream, batch=0):
                tr._local.batch, tr._local.seq = (stream, batch), 0
                return fn(seed, stream, batch)
            return rng_wrapper
        if kind == "oracle":
            def oracle_wrapper(*args, **kwargs):
                return tr.count_oracle(fn(*args, **kwargs))
            return oracle_wrapper

        def wrapper(*args, **kwargs):
            s = tr.open(name)
            if kind == "probe":
                s.key = tr._next_key()
            elif kind == "ascent":
                tr._local.batch, tr._local.seq = (_ASCENT_PHASE, 0), 0
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(s)
            if kind == "probe":
                s.ref = id(out)
            elif kind == "search" and out[1] is not None:
                s.ref = id(out[1])
            elif kind == "fsets":
                s.key = len(out)
            return out
        return wrapper

    def count_oracle(self, o):
        """The same oracle with its value, gradient and eval callables
        counted and timed."""
        fields = {f.name for f in dataclasses.fields(o)}
        timed = {k: self._timed(getattr(o, k))
                 for k in ("value", "gradient", "eval") if k in fields}
        return dataclasses.replace(o, **timed)

    def _timed(self, fn):
        tr = self

        def call(x):
            t0 = perf_counter()
            out = fn(x)
            dt = perf_counter() - t0
            shape = getattr(x, "shape", None)
            if shape is None:
                shape = np.shape(x)
            n = 1
            for k in shape[:-1]:
                n *= k
            tr.add_eval(n, dt)
            return out
        return call

    @contextlib.contextmanager
    def install(self, targets=TARGETS):
        """Swap the wrappers in for the duration of the block.  A target
        that no longer exists is skipped, and it and the metrics that read
        it are recorded in ``absent`` and ``absent_metrics``."""
        saved = []
        try:
            for mod_name, attr, name, kind, metrics in targets:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.absent.add(f"{mod_name}.{attr}")
                    self.absent_metrics.update(metrics)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, kind))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines:
        [id, parent, thread, name, start_s, end_s, eval_calls, eval_points, eval_s]."""
        tids: dict[int, int] = {}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for s in self.spans:
                tid = tids.setdefault(s.tid, len(tids))
                fh.write(json.dumps([s.id, s.parent, tid, s.name, s.t0, s.t1,
                                     s.eval_calls, s.eval_points, s.eval_s]))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class OpTrace:
    """Per-op totals from one op's spans.  Times in seconds."""

    wall: float = 0.0
    self_s: dict = dataclasses.field(default_factory=dict)  # op thread, by layer
    incl_s: dict = dataclasses.field(default_factory=dict)  # all threads, by span name
    calls: dict = dataclasses.field(default_factory=dict)  # by span name
    probe_eval_s: float = 0.0
    eval_calls: int = 0
    eval_points: int = 0
    eval_s: float = 0.0
    fd_points: int = 0
    functionals: int = 0
    threads: int = 0  # most threads running the probes of one phase
    search_points: int = 0
    useful_points: int = 0


def op_trace(spans: list[Span]) -> OpTrace:
    """Aggregate one op.  ``spans[0]`` is its root."""
    root = spans[0]
    t = OpTrace(wall=root.t1 - root.t0)
    by_id = {s.id: s for s in spans}
    incl_points = {s.id: s.eval_points for s in spans}
    incl_evs = {s.id: s.eval_s for s in spans}
    child_same = dict.fromkeys(by_id, 0.0)
    # children are opened after their parent, so a reverse sweep sees every
    # child before its parent
    for s in reversed(spans):
        p = by_id.get(s.parent)
        if p is None:
            continue
        incl_points[p.id] += incl_points[s.id]
        incl_evs[p.id] += incl_evs[s.id]
        if p.tid == s.tid:
            child_same[p.id] += s.t1 - s.t0
    phase_tids: dict[int, set] = {}
    for s in spans:
        dur = s.t1 - s.t0
        t.incl_s[s.name] = t.incl_s.get(s.name, 0.0) + dur
        t.calls[s.name] = t.calls.get(s.name, 0) + 1
        t.eval_calls += s.eval_calls
        t.eval_points += s.eval_points
        t.eval_s += s.eval_s
        if s.tid == root.tid:
            layer = s.name.split(".", 1)[0]
            t.self_s[layer] = t.self_s.get(layer, 0.0) + dur - child_same[s.id] - s.eval_s
            t.self_s["oracles"] = t.self_s.get("oracles", 0.0) + s.eval_s
        if s.name in PROBES:
            phase_tids.setdefault(s.parent, set()).add(s.tid)
            t.probe_eval_s += incl_evs[s.id]
        elif s.name == "oracles.fd":
            t.fd_points += incl_points[s.id]
        elif s.name == "slices.functional_set":
            t.functionals += s.key
    # each phase makes its own pool, so count threads per phase
    t.threads = max(map(len, phase_tids.values()), default=0)

    # wasted work: probe points evaluated after the stopping probe, in
    # stream order, are useless to the result
    for search in (s for s in spans if s.name == "estimate.search"):
        probes = [s for s in spans if s.name in PROBES and _descends(s, search.id, by_id)]
        hit = next((p for p in probes if p.ref == search.ref), None)
        for p in probes:
            pts = incl_points[p.id]
            t.search_points += pts
            if hit is None or p.key <= hit.key:
                t.useful_points += pts
    return t


def _descends(s: Span, ancestor: int, by_id: dict) -> bool:
    while s.parent is not None:
        if s.parent == ancestor:
            return True
        s = by_id[s.parent]
    return False


def per_layer_metrics(ops: list[OpTrace], untraced_wall: float,
                      report_bytes: list[int], probes_used: list[int],
                      nonconverged: list[int], absent: set[str]) -> dict:
    """Per-layer metrics of a traced run, per op of the workload's mix.

    Times are seconds per op: ``*.self_s`` on the op's own thread, other
    times inclusive and summed over threads.  Metrics named in ``absent``
    are left out.
    """
    n = max(len(ops), 1)

    def total(f):
        return sum(f(o) for o in ops)

    def incl(*names):
        return total(lambda o: sum(o.incl_s.get(k, 0.0) for k in names)) / n

    def calls(*names):
        return total(lambda o: sum(o.calls.get(k, 0) for k in names)) / n

    probe_s = incl(*PROBES) * n
    eval_calls = total(lambda o: o.eval_calls)
    search_points = total(lambda o: o.search_points)
    traced_wall = total(lambda o: o.wall)
    m = {
        "estimate.two_point_s": (incl("estimate.two_point"), "s"),
        "estimate.configs_s": (incl("estimate.configs"), "s"),
        "estimate.ascent_s": (incl("estimate.ascent"), "s"),
        "estimate.search_s": (incl("estimate.search"), "s"),
        "estimate.probes_used": (sum(probes_used) / n, "count"),
        "estimate.probes_evaluated": (calls(*PROBES), "count"),
        "estimate.useful_ratio": (
            total(lambda o: o.useful_points) / search_points if search_points else 1.0, "ratio"),
        "estimate.threads": (max((o.threads for o in ops), default=0), "count"),
        "probe.best_t_calls": (calls("probe.best_t"), "count"),
        "probe.best_t_s": (incl("probe.best_t"), "s"),
        "probe.jensen_calls": (calls("probe.jensen"), "count"),
        "probe.jensen_s": (incl("probe.jensen"), "s"),
        "probe.self_frac": (
            1.0 - total(lambda o: o.probe_eval_s) / probe_s if probe_s else 0.0, "ratio"),
        "vecspace.configs_built": (calls("vecspace.config"), "count"),
        "vecspace.config_s": (incl("vecspace.config", "vecspace.weights"), "s"),
        "oracles.eval_calls": (eval_calls / n, "count"),
        "oracles.eval_points": (total(lambda o: o.eval_points) / n, "count"),
        "oracles.points_per_call": (
            total(lambda o: o.eval_points) / eval_calls if eval_calls else 0.0, "count"),
        "oracles.eval_s": (total(lambda o: o.eval_s) / n, "s"),
        "oracles.fd_s": (incl("oracles.fd"), "s"),
        "oracles.fd_points": (total(lambda o: o.fd_points) / n, "count"),
        "oracles.nonconverged_norms": (sum(nonconverged) / n, "count"),
        "baillon_haddad.cocoercive_s": (incl("baillon_haddad.cocoercive"), "s"),
        "baillon_haddad.residual_calls": (
            calls("baillon_haddad.residual", "baillon_haddad.expansion_residual"), "count"),
        "baillon_haddad.split_s": (incl("baillon_haddad.split"), "s"),
        "baillon_haddad.expansion_s": (
            incl("baillon_haddad.expansion_residual", "baillon_haddad.expansion_lip"), "s"),
        "slices.smoothness_s": (incl("slices.smoothness"), "s"),
        "slices.norm_s": (incl("slices.norm"), "s"),
        "slices.sup_ratio_s": (incl("slices.sup_ratio"), "s"),
        "slices.functionals_built": (total(lambda o: o.functionals) / n, "count"),
        "slices.reconstruct_calls": (calls("slices.reconstruct"), "count"),
        "cli.self_s": (total(lambda o: o.self_s.get("cli", 0.0)) / n, "s"),
        "cli.report_bytes": (sum(report_bytes) / n, "bytes"),
        "trace.op_s": (traced_wall / n, "s"),
        "trace.overhead_frac": (
            traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total(lambda o: o.self_s.get(layer, 0.0)) / n, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items() if k not in absent}
