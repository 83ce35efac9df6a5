"""Command-line entry point.

Subcommands: estimate, falsify, verify, slices.  Options may come from a
JSON config file (--config), with command-line flags taking precedence;
unknown keys, and keys of options the command does not take, are
rejected.  ``_OPTIONS`` declares each option once: its config key, flag,
default, type, range check and help text.  The parser, ``_DEFAULTS``,
``RunConfig`` and every "<key> must be ..." check are derived from it.

A config value must have its option's JSON type: an integer option takes
a JSON integer, a number option any JSON number (an integer becomes a
float), a string option a string and ``params`` a list of numbers.  true
and false are not numbers.  null means "not given", and only an option
without a default may be left so.  A seed is mandatory — there is no
implicit entropy anywhere.  Exit codes: 0 all checks passed / nothing
falsified, 1 a violation or failed check was certified, 2 configuration,
numeric or out-of-memory error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, make_dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .baillon_haddad import check_cocoercive, cocoercivity_residual, convexity_split_check, lipschitz_from_cocoercivity
from .estimate import (
    PROBE_KINDS,
    RNG_ALGORITHM,
    STREAM_CHECKS,
    NoInformativeProbeError,
    ProbeLog,
    SearchBudget,
    cross_validate,
    falsify,
    stream_rng,
)
from .oracles import DomainSampler, as_vector_oracle, builtin, fd_jacobian
# derivative_norm_via_functionals is not called here (cmd_slices takes each
# pair's norm from one SVD of its difference matrix); the name stays for
# perfbench's span tracer
from .slices import (  # noqa: F401
    L_FLOOR,
    lipschitz_bound,
    derivative_norm_via_functionals,
    difference_matrix,
    functional_sup_ratio,
    reconstruct_derivative_action,
    slice_gradient_map,
    slice_map,
    slice_smoothness_check,
    unit_functional_set,
)
from .vecspace import chunk_rows, row_norms


class _Option(NamedTuple):
    kind: type  # int, float, str, or list for a list of floats
    default: object  # None: not given unless set
    check: tuple[Callable, str] | None  # (test, what a value passing it is)
    help: str
    budget: str | None = None  # the SearchBudget field it sets
    commands: tuple[str, ...] = ("estimate", "falsify", "verify", "slices")  # take --<key> and its config key
    required: bool = False  # each command taking its flag needs a value


def _at_least(lo: int) -> tuple[Callable, str]:
    return (lambda v: v >= lo), f">= {lo}"


_FINITE_NONNEG = (lambda v: math.isfinite(v) and v >= 0.0), "finite and >= 0"

_OPTIONS = {
    "oracle": _Option(str, None, None, "builtin oracle name", required=True),
    "params": _Option(list, [], None, "oracle parameters"),
    "seed": _Option(int, None, ((lambda v: 0 <= v < 2**64), "in [0, 2**64)"), "RNG seed (mandatory)",
                    budget="seed", required=True),
    "budget_configs": _Option(int, SearchBudget.random_configs, _at_least(0),
                              "random configurations probed", budget="random_configs"),
    "budget_pairs": _Option(int, SearchBudget.two_point_pairs, _at_least(0),
                            "two-point pairs probed", budget="two_point_pairs"),
    "budget_ascent": _Option(int, SearchBudget.ascent_steps, _at_least(0),
                             "coordinate-ascent steps", budget="ascent_steps"),
    "max_n": _Option(int, SearchBudget.max_n, _at_least(2),
                     "most points in a random configuration", budget="max_n"),
    "domain_radius": _Option(float, SearchBudget.domain_radius,
                             ((lambda v: math.isfinite(v) and v > 0.0), "finite and > 0"),
                             "radius of the sampled domain", budget="domain_radius"),
    "n_functionals": _Option(int, 8, _at_least(1), "unit functionals per check", commands=("verify",)),
    "pairs": _Option(int, 400, _at_least(1), "pair budget for the check suites"),
    "fd_pairs": _Option(int, 10_000, _at_least(1), "pairs in the finite-difference cross-check"),
    "out": _Option(str, None, None, "report JSON path (stdout when omitted)"),
    "csv": _Option(str, None, None, "per-probe CSV path", commands=("estimate", "falsify", "verify")),
    "claimed_L": _Option(float, None, _FINITE_NONNEG, "the constant to refute",
                         commands=("falsify",), required=True),
    "L": _Option(float, None, _FINITE_NONNEG, "the constant to check",
                 commands=("verify", "slices"), required=True),
}

_DEFAULTS = {key: opt.default for key, opt in _OPTIONS.items() if opt.default is not None}


class ConfigError(ValueError):
    pass


def _search_budget(cfg) -> SearchBudget:
    if cfg.budget_configs == 0 and cfg.budget_pairs == 0:
        raise ConfigError("budget_configs or budget_pairs must be > 0")
    return SearchBudget(**{opt.budget: getattr(cfg, key) for key, opt in _OPTIONS.items() if opt.budget})


RunConfig = make_dataclass(
    "RunConfig",
    [("command", str), *((key, opt.kind) for key, opt in _OPTIONS.items())],
    namespace={"budget": _search_budget},
    frozen=True,
)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list of numbers"}


def _is_number(value, kind: type = float) -> bool:
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


def _typed(key: str, value, kind: type):
    """value as its option's kind, or a ConfigError naming the key."""
    if kind is str:
        ok = isinstance(value, str)
    elif kind is list:
        ok = isinstance(value, list) and all(map(_is_number, value))
    else:
        ok = _is_number(value, kind)
    if ok:
        try:
            return tuple(map(float, value)) if kind is list else kind(value)
        except OverflowError:  # a JSON integer beyond the float range
            pass
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _load_config_file(path: str, command: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a single JSON object")
    unknown = set(data) - set(_OPTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in (k for k, v in data.items() if v is not None and command not in _OPTIONS[k].commands):
        raise ConfigError(f"{key} is not an option of {command}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = dict(_DEFAULTS)
    if args.config:
        merged.update(_load_config_file(args.config, args.command))
    for key in _OPTIONS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val

    values = {}
    for key, opt in _OPTIONS.items():
        value = merged.get(key)
        if value is None and opt.required and args.command in opt.commands:
            raise ConfigError(f"{key} must be given (--{key.replace('_', '-')} or config key)")
        if value is not None or opt.default is not None:
            value = _typed(key, value, opt.kind)
            if opt.check is not None and not opt.check[0](value):
                raise ConfigError(f"{key} must be {opt.check[1]}, got {value!r}")
        values[key] = value
    return RunConfig(command=args.command, **values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _cert_dict(cert) -> dict:
    w = cert.witness
    witness = {"gap": w.gap, "spread": w.spread, "ratio": w.ratio, "oracle_label": w.oracle_label,
               "config": {"points": w.config.points, "weights": w.config.weights.weights}}
    return {**asdict(cert), "witness": witness}


def _probe_stats(log: ProbeLog) -> dict | None:
    if log.count == 0:
        return None
    ratios = np.array(log.ratio)
    ratios = ratios[~np.isnan(ratios)]  # NaN marks a probe without a ratio
    stats: dict = {"count": log.count, "recorded": len(log.ratio)}
    if not ratios.size:
        stats["max_ratio"] = None
        stats["histogram"] = None
        return stats
    mx = float(ratios.max())
    upper = mx if mx > 0.0 else 1.0
    counts, edges = np.histogram(ratios, bins=32, range=(0.0, upper))
    stats["max_ratio"] = mx
    stats["histogram"] = {"bin_edges": edges.tolist(), "counts": counts.tolist()}
    return stats


def _json_default(obj):
    """numpy arrays and scalars as builtins (np.float64, a float, never gets here)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=_json_default) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(log: ProbeLog, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_index", "n", "gap", "spread", "ratio", "kind"])
        rows = zip(log.kind, log.n, log.gap, log.spread, log.ratio)
        for i, (kind, n, gap, spread, ratio) in enumerate(rows):
            writer.writerow(
                [i, n, repr(gap), repr(spread),
                 "" if math.isnan(ratio) else repr(ratio), PROBE_KINDS[kind]]
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_estimate(cfg: RunConfig, oracle, log: ProbeLog) -> tuple[dict, dict, int]:
    cv = cross_validate(oracle, cfg.budget(), fd_pairs=cfg.fd_pairs, log=log)
    results = {
        "l_lower": cv.l_probe,
        "l_fd": cv.l_fd,
        "consistent": cv.consistent,
        "cv_tol": cv.cv_tol,
        "certificate": _cert_dict(cv.certificate),
        "fd_pairs": cv.fd_pairs,
    }
    return results, {"cross_validation_consistent": cv.consistent}, 0


def cmd_falsify(cfg: RunConfig, oracle, log: ProbeLog) -> tuple[dict, dict, int]:
    cert = falsify(oracle, cfg.claimed_L, cfg.budget(), log=log)
    found = cert is not None
    results = {
        "claimed_L": cfg.claimed_L,
        "violation_found": found,
        "certificate": _cert_dict(cert) if found else None,
        "note": (
            "violation certificate is replayable"
            if found
            else "no violation found within budget; this does NOT prove the claimed constant"
        ),
    }
    return results, {"claim_refuted": found}, 1 if found else 0


def _verify_functional_checks(F, cfg: RunConfig, l_eff: float) -> dict:
    """Convexity split, cocoercivity and the expansion-step implication,
    over sampled unit slices of F."""
    sampler = DomainSampler(F.dim_in, cfg.domain_radius)
    rng = stream_rng(cfg.seed, STREAM_CHECKS, 0)
    functionals = unit_functional_set(F.dim_out, cfg.n_functionals, rng)
    split_reports = []
    coco_reports = []
    expansion_worst = -np.inf
    for f in functionals:
        phi = slice_map(F, f)
        grad_phi = slice_gradient_map(F, f)
        split_reports.append(convexity_split_check(phi, l_eff, sampler, rng, cfg.pairs))

        def G(p, _g=grad_phi):
            p = np.asarray(p, dtype=np.float64)
            return l_eff * p + _g(p)

        coco_reports.append(
            check_cocoercive(G, 2.0 * l_eff, sampler, rng, cfg.pairs)
        )
        # expansion step: wherever the cocoercivity residual of G is >= 0,
        # lhs <= rhs must follow
        xs = sampler.gaussian(rng, cfg.pairs)
        ys = sampler.gaussian(rng, cfg.pairs)
        tested = cocoercivity_residual(G, 2.0 * l_eff, xs, ys) >= 0.0
        lhs, rhs = lipschitz_from_cocoercivity(grad_phi, l_eff, xs, ys)
        excess = lhs - (rhs * (1.0 + 1e-8) + 1e-12)
        expansion_worst = max(expansion_worst, float(excess[tested].max(initial=-np.inf)))
    return {
        "functionals": functionals.tolist(),
        "convexity_split": {
            "passed": all(r.passed for r in split_reports),
            "worst_violation": max(
                max(r.worst_plus, r.worst_minus) for r in split_reports
            ),
            "witnesses": [
                {
                    "functional": functionals[i].tolist(),
                    "which": w.which,
                    "x": w.x.tolist(),
                    "y": w.y.tolist(),
                    "violation": w.violation,
                }
                for i, r in enumerate(split_reports)
                for w in r.witnesses
            ],
        },
        "cocoercivity": {
            "passed": all(r.passed for r in coco_reports),
            "min_residual": min(r.min_residual for r in coco_reports),
            "witnesses": [
                {
                    "functional": functionals[i].tolist(),
                    "x": r.witness_pair[0].tolist(),
                    "y": r.witness_pair[1].tolist(),
                    "residual": r.min_residual,
                }
                for i, r in enumerate(coco_reports)
                if not r.passed
            ],
        },
        "expansion_step": {
            "passed": not expansion_worst > 0.0,
            "worst_excess": None if expansion_worst == -np.inf else expansion_worst,
        },
    }


def cmd_verify(cfg: RunConfig, oracle, log: ProbeLog) -> tuple[dict, dict, int]:
    F = as_vector_oracle(oracle)
    l_eff = max(cfg.L, L_FLOOR)

    violation = falsify(oracle, cfg.L, cfg.budget(), log=log)
    func_checks = _verify_functional_checks(F, cfg, l_eff)
    sampler = DomainSampler(F.dim_in, cfg.domain_radius)
    smooth = slice_smoothness_check(
        F, cfg.L, cfg.n_functionals, sampler,
        stream_rng(cfg.seed, STREAM_CHECKS, 1), pairs=cfg.pairs,
    )

    results = {
        "L": cfg.L,
        "probe_soundness": {
            "passed": violation is None,
            "violation": None if violation is None else _cert_dict(violation),
        },
        **func_checks,
        "slice_smoothness": {
            "passed": smooth.passed,
            "worst_excess": smooth.worst_excess,
            "witness": None if smooth.witness is None else asdict(smooth.witness),
        },
    }
    checks = ("probe_soundness", "convexity_split", "cocoercivity", "expansion_step", "slice_smoothness")
    verdicts = {name: results[name]["passed"] for name in checks}
    verdicts["all"] = all(verdicts.values())
    return results, verdicts, 0 if verdicts["all"] else 1


def cmd_slices(cfg: RunConfig, oracle, log: ProbeLog) -> tuple[dict, dict, int]:
    F = as_vector_oracle(oracle)
    rng = stream_rng(cfg.seed, STREAM_CHECKS, 2)
    sampler = DomainSampler(F.dim_in, cfg.domain_radius)

    # Both loops run chunk_rows(m d) pairs at a time, one (m, d) matrix
    # per pair, and draw from rng in the order a pair-by-pair loop would
    # (x, h, h2, alpha; then x, y), so the report depends only on (seed,
    # budget) and not on the chunk size.
    chunk = chunk_rows(F.dim_out * F.dim_in)

    # reconstruction vs the coordinate-step FD Jacobian, and linearity:
    # additivity and homogeneity of h -> F'(x) h
    worst_rel = 0.0
    worst_lin = 0.0
    for start in range(0, cfg.pairs, chunk):
        draws = []
        for _ in range(min(chunk, cfg.pairs - start)):
            x = sampler.gaussian(rng)
            h = rng.standard_normal(F.dim_in)
            h2 = rng.standard_normal(F.dim_in)
            draws.append((x, h, h2, rng.uniform(0.5, 2.0)))
        xs, hs, h2s, alphas = (np.array(a) for a in zip(*draws))
        ref = (fd_jacobian(F, xs) @ hs[:, :, None])[:, :, 0]
        rec, joint, rec2, scaled = reconstruct_derivative_action(
            F, np.tile(xs, (4, 1)), np.concatenate([hs, hs + h2s, h2s, alphas[:, None] * hs])
        ).reshape(4, len(xs), F.dim_out)
        rel = row_norms(rec - ref) / np.maximum(row_norms(ref), 1.0)
        worst_rel = max(worst_rel, float(rel.max()))
        scale = np.maximum(row_norms(rec), 1.0)
        add = row_norms(joint - (rec + rec2)) / scale
        hom = row_norms(scaled - alphas[:, None] * rec) / scale
        worst_lin = max(worst_lin, float(add.max()), float(hom.max()))

    # Lipschitz transfer and the paper's slice step, for pairs at least
    # 1e-9 apart.  One SVD of each difference matrix gives its exact norm
    # sigma_1 and the functional u_1 that norms it (its top left singular
    # vector).  The slice <u_1, F> must realize sigma_1 along the
    # independent coordinate-step FD route, u_1^T (J(x) - J(y)).
    worst_transfer = -np.inf
    worst_realization = np.inf
    for start in range(0, cfg.pairs, chunk):
        pts = sampler.gaussian(rng, 2 * min(chunk, cfg.pairs - start))
        dists = row_norms(pts[0::2] - pts[1::2])
        keep = dists >= 1e-9
        if not keep.any():
            continue
        xs, ys, dists = pts[0::2][keep], pts[1::2][keep], dists[keep]
        u, s, _ = np.linalg.svd(difference_matrix(F, xs, ys), full_matrices=False)
        bound = lipschitz_bound("lipschitz_transfer", cfg.L, dists, 1e-3)
        worst_transfer = max(worst_transfer, float((s[:, 0] - bound).max()))
        grad_diffs = fd_jacobian(F, xs) - fd_jacobian(F, ys)
        ratios = functional_sup_ratio(grad_diffs, u[:, None, :, 0], s[:, 0])
        worst_realization = min(worst_realization, float(ratios.min()))

    # both stay at their starting infinities when every pair was closer
    # than 1e-9, and a check that tested no pair has not passed
    verdicts = {
        "reconstruction_matches_fd_jacobian": worst_rel <= 1e-5,
        "reconstruction_linear": worst_lin <= 1e-6,
        "lipschitz_transfer": -np.inf < worst_transfer <= 0.0,
        "functional_sup_realization": 0.99 <= worst_realization < np.inf,
    }
    verdicts["all"] = all(verdicts.values())

    results = {
        "L": cfg.L,
        "worst_reconstruction_rel_err": worst_rel,
        "worst_linearity_rel_err": worst_lin,
        "worst_transfer_excess": None if worst_transfer == -np.inf else worst_transfer,
        "min_functional_sup_realization": None if worst_realization == np.inf else worst_realization,
    }
    return results, verdicts, 0 if verdicts["all"] else 1


_COMMANDS = {
    "estimate": (cmd_estimate, "lower-bound the constant and cross-validate against finite differences"),
    "falsify": (cmd_falsify, "search for a probe refuting a claimed constant"),
    "verify": (cmd_verify, "run the full check suite at a given constant"),
    "slices": (cmd_slices, "slice reconstruction and Lipschitz-transfer checks"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessfree",
        description="Estimate, falsify and verify Hessian-Lipschitz constants "
        "using first-order Jensen-gap probes.",
    )
    parser.add_argument("--version", action="version", version=f"hessfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key, opt in _OPTIONS.items():
            if name in opt.commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=opt.help,
                               type=float if opt.kind is list else opt.kind,
                               nargs="*" if opt.kind is list else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        t0 = time.perf_counter()
        oracle = builtin(cfg.oracle, cfg.params)
        log = ProbeLog(collect=True)
        results, verdicts, code = _COMMANDS[cfg.command][0](cfg, oracle, log)
        if cfg.csv:
            _write_csv(log, cfg.csv)
        report = {
            "command": cfg.command,
            "config": asdict(cfg),
            "version": __version__,
            "rng": {"algorithm": RNG_ALGORITHM, "seed": cfg.seed},
            "results": results,
            "verdicts": verdicts,
            "probe_stats": _probe_stats(log),
        }
        report["wall_time_s"] = time.perf_counter() - t0
        _write_report(report, cfg.out)
        return code
    except (ConfigError, ValueError, OSError, NoInformativeProbeError) as exc:
        print(f"hessfree: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # exit 2, not the traceback's 1, which would read as a certified violation
        detail = f": {exc}" if str(exc) else ""
        print(f"hessfree: error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
