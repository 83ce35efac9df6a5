"""Command-line entry point.

Subcommands: estimate, falsify, verify, slices.  Options may come from a
JSON config file (--config), with command-line flags taking precedence;
unknown config keys are rejected.  A seed is mandatory — there is no
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
from dataclasses import asdict, dataclass

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
    estimate_L,
    falsify,
    stream_rng,
)
from .oracles import DomainSampler, ScalarOracle, as_vector_oracle, builtin, fd_jacobian
from .probe import ProbeResult
# derivative_norm_via_functionals is not called here (cmd_slices takes the
# pair norms from sampled_norm); the name stays for perfbench's span tracer
from .slices import (  # noqa: F401
    derivative_norm_via_functionals,
    difference_matrix,
    functional_sup_ratio,
    reconstruct_derivative_action,
    sampled_norm,
    slice_gradient_map,
    slice_map,
    slice_smoothness_check,
    unit_directions,
    unit_functional_set,
)
from .vecspace import norm2, row_dots

_CONFIG_KEYS = {
    "oracle": str,
    "params": list,
    "seed": int,
    "claimed_L": float,
    "L": float,
    "budget_configs": int,
    "budget_pairs": int,
    "budget_ascent": int,
    "max_n": int,
    "domain_radius": float,
    "n_functionals": int,
    "pairs": int,
    "fd_pairs": int,
    "out": str,
    "csv": str,
}

_DEFAULTS = {
    "params": [],
    "budget_configs": 4000,
    "budget_pairs": 4000,
    "budget_ascent": 2000,
    "max_n": 4,
    "domain_radius": 5.0,
    "n_functionals": 8,
    "pairs": 400,
    "fd_pairs": 10_000,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    oracle: str
    params: tuple[float, ...]
    seed: int
    claimed_L: float | None
    L: float | None
    budget_configs: int
    budget_pairs: int
    budget_ascent: int
    max_n: int
    domain_radius: float
    n_functionals: int
    pairs: int
    fd_pairs: int
    out: str | None
    csv: str | None

    def budget(self) -> SearchBudget:
        return SearchBudget(
            random_configs=self.budget_configs,
            ascent_steps=self.budget_ascent,
            two_point_pairs=self.budget_pairs,
            seed=self.seed,
            max_n=self.max_n,
            domain_radius=self.domain_radius,
        )


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a single JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = dict(_DEFAULTS)
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val

    if "oracle" not in merged:
        raise ConfigError("an oracle must be given (--oracle or config key)")
    if "seed" not in merged:
        raise ConfigError("a seed is mandatory (--seed or config key)")
    if args.command == "falsify" and merged.get("claimed_L") is None:
        raise ConfigError("falsify needs --claimed-L")
    if args.command in ("verify", "slices") and merged.get("L") is None:
        raise ConfigError(f"{args.command} needs --L")

    cfg = RunConfig(
        command=args.command,
        oracle=str(merged["oracle"]),
        params=tuple(float(p) for p in merged.get("params", [])),
        seed=int(merged["seed"]),
        claimed_L=None if merged.get("claimed_L") is None else float(merged["claimed_L"]),
        L=None if merged.get("L") is None else float(merged["L"]),
        budget_configs=int(merged["budget_configs"]),
        budget_pairs=int(merged["budget_pairs"]),
        budget_ascent=int(merged["budget_ascent"]),
        max_n=int(merged["max_n"]),
        domain_radius=float(merged["domain_radius"]),
        n_functionals=int(merged["n_functionals"]),
        pairs=int(merged["pairs"]),
        fd_pairs=int(merged["fd_pairs"]),
        out=merged.get("out"),
        csv=merged.get("csv"),
    )
    for key in ("claimed_L", "L"):
        value = getattr(cfg, key)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
    for key in ("pairs", "n_functionals", "fd_pairs"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)!r}")
    if not (math.isfinite(cfg.domain_radius) and cfg.domain_radius > 0.0):
        raise ConfigError(f"domain_radius must be finite and > 0, got {cfg.domain_radius!r}")
    return cfg


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _plain(obj):
    """Recursively convert to JSON-serializable builtins."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _probe_dict(r: ProbeResult) -> dict:
    return _plain(
        {
            "gap": r.gap,
            "spread": r.spread,
            "ratio": r.ratio,
            "oracle_label": r.oracle_label,
            "config": {
                "points": r.config.points,
                "weights": r.config.weights.weights,
            },
        }
    )


def _cert_dict(cert) -> dict:
    d = asdict(cert)
    d["witness"] = _probe_dict(cert.witness)
    d["budget"] = _plain(asdict(cert.budget))
    return _plain(d)


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
    return _plain(stats)


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
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


def _base_report(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "config": _plain(asdict(cfg)),
        "version": __version__,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": cfg.seed},
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_estimate(cfg: RunConfig) -> tuple[dict, int]:
    oracle = builtin(cfg.oracle, cfg.params)
    log = ProbeLog(collect=True)
    cv = cross_validate(oracle, cfg.budget(), fd_pairs=cfg.fd_pairs, log=log)
    report = _base_report(cfg)
    report["results"] = {
        "l_lower": cv.l_probe,
        "l_fd": cv.l_fd,
        "consistent": cv.consistent,
        "cv_tol": cv.cv_tol,
        "certificate": _cert_dict(cv.certificate),
        "fd_pairs": cv.fd_pairs,
    }
    report["verdicts"] = {"cross_validation_consistent": cv.consistent}
    report["probe_stats"] = _probe_stats(log)
    if cfg.csv:
        _write_csv(log, cfg.csv)
    return report, 0


def cmd_falsify(cfg: RunConfig) -> tuple[dict, int]:
    oracle = builtin(cfg.oracle, cfg.params)
    log = ProbeLog(collect=True)
    cert = falsify(oracle, cfg.claimed_L, cfg.budget(), log=log)
    report = _base_report(cfg)
    found = cert is not None
    report["results"] = {
        "claimed_L": cfg.claimed_L,
        "violation_found": found,
        "certificate": _cert_dict(cert) if found else None,
        "note": (
            "violation certificate is replayable"
            if found
            else "no violation found within budget; this does NOT prove the claimed constant"
        ),
    }
    report["verdicts"] = {"claim_refuted": found}
    report["probe_stats"] = _probe_stats(log)
    if cfg.csv:
        _write_csv(log, cfg.csv)
    return report, 1 if found else 0


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


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    oracle = builtin(cfg.oracle, cfg.params)
    F = as_vector_oracle(oracle)
    l_eff = max(cfg.L, 1e-9)
    log = ProbeLog(collect=True)

    violation = falsify(oracle, cfg.L, cfg.budget(), log=log)
    func_checks = _verify_functional_checks(F, cfg, l_eff)
    sampler = DomainSampler(F.dim_in, cfg.domain_radius)
    smooth = slice_smoothness_check(
        F, cfg.L, cfg.n_functionals, sampler,
        stream_rng(cfg.seed, STREAM_CHECKS, 1), pairs=cfg.pairs,
    )

    verdicts = {
        "probe_soundness": violation is None,
        "convexity_split": func_checks["convexity_split"]["passed"],
        "cocoercivity": func_checks["cocoercivity"]["passed"],
        "expansion_step": func_checks["expansion_step"]["passed"],
        "slice_smoothness": smooth.passed,
    }
    verdicts["all"] = all(verdicts.values())

    report = _base_report(cfg)
    report["results"] = {
        "L": cfg.L,
        "probe_soundness": {
            "passed": violation is None,
            "violation": None if violation is None else _cert_dict(violation),
        },
        **func_checks,
        "slice_smoothness": _plain(
            {
                "passed": smooth.passed,
                "worst_excess": smooth.worst_excess,
                "witness": None
                if smooth.witness is None
                else {
                    "functional": smooth.witness.functional,
                    "x": smooth.witness.x,
                    "y": smooth.witness.y,
                    "grad_dist": smooth.witness.grad_dist,
                    "bound": smooth.witness.bound,
                },
            }
        ),
    }
    report["verdicts"] = _plain(verdicts)
    report["probe_stats"] = _probe_stats(log)
    if cfg.csv:
        _write_csv(log, cfg.csv)
    return report, 0 if verdicts["all"] else 1


# pairs per cmd_slices chunk: a chunk holds each pair's 1000 drawn sup
# functionals and their products with its difference matrix (64 KB each
# at m = d = 8), so this bounds the working set (about 2.5 MB on sc8)
_PAIR_CHUNK = 16


def _row_norms(v: np.ndarray) -> np.ndarray:
    """norm2 of each row, bit for bit."""
    return np.sqrt(row_dots(v, v))


def cmd_slices(cfg: RunConfig) -> tuple[dict, int]:
    oracle = builtin(cfg.oracle, cfg.params)
    F = as_vector_oracle(oracle)
    rng = stream_rng(cfg.seed, STREAM_CHECKS, 2)
    sampler = DomainSampler(F.dim_in, cfg.domain_radius)
    n_norm = cfg.n_functionals * 8

    # Both loops run _PAIR_CHUNK pairs at a time.  Each pair draws from rng
    # in the order a pair-by-pair loop would (x, h, h2, alpha; then x, y
    # and, for a pair at least 1e-9 apart, its norm functionals, its
    # directions and its 1000 sup functionals), so the report depends
    # only on (seed, budget) and not on the chunk size.

    # reconstruction vs the coordinate-step FD Jacobian, and linearity:
    # additivity and homogeneity of h -> F'(x) h
    worst_rel = 0.0
    worst_lin = 0.0
    for start in range(0, cfg.pairs, _PAIR_CHUNK):
        draws = []
        for _ in range(min(_PAIR_CHUNK, cfg.pairs - start)):
            x = sampler.gaussian(rng)
            h = rng.standard_normal(F.dim_in)
            h2 = rng.standard_normal(F.dim_in)
            draws.append((x, h, h2, rng.uniform(0.5, 2.0)))
        xs, hs, h2s, alphas = (np.array(a) for a in zip(*draws))
        ref = (fd_jacobian(F, xs) @ hs[:, :, None])[:, :, 0]
        rec, joint, rec2, scaled = reconstruct_derivative_action(
            F, np.tile(xs, (4, 1)), np.concatenate([hs, hs + h2s, h2s, alphas[:, None] * hs])
        ).reshape(4, len(xs), F.dim_out)
        rel = _row_norms(rec - ref) / np.maximum(_row_norms(ref), 1.0)
        worst_rel = max(worst_rel, float(rel.max()))
        scale = np.maximum(_row_norms(rec), 1.0)
        add = _row_norms(joint - (rec + rec2)) / scale
        hom = _row_norms(scaled - alphas[:, None] * rec) / scale
        worst_lin = max(worst_lin, float(add.max()), float(hom.max()))

    # Lipschitz transfer plus how well sampled unit functionals attain
    # the operator norm (checked with 1000 functionals per pair); both
    # share each pair's difference matrix and its exact spectral norm
    worst_transfer = -np.inf
    worst_realization = np.inf
    sup_fs = np.empty((_PAIR_CHUNK, 1000, F.dim_out))
    for start in range(0, cfg.pairs, _PAIR_CHUNK):
        draws = []
        for _ in range(min(_PAIR_CHUNK, cfg.pairs - start)):
            x = sampler.gaussian(rng)
            y = sampler.gaussian(rng)
            dist = norm2(x - y)
            if dist < 1e-9:
                continue
            draws.append((x, y, dist,
                          unit_functional_set(F.dim_out, n_norm, rng),
                          unit_directions(rng, n_norm, F.dim_in)))
            sup_fs[len(draws) - 1] = unit_functional_set(F.dim_out, 1000, rng)
        if not draws:
            continue
        xs, ys, dists, norm_fs, dirs = (np.array(a) for a in zip(*draws))
        diffs = difference_matrix(F, xs, ys)
        norms = np.linalg.norm(diffs, 2, axis=(1, 2))
        nrm = sampled_norm(diffs, norm_fs, dirs, norms)
        worst_transfer = max(worst_transfer, float((nrm - cfg.L * dists * (1.0 + 1e-3)).max()))
        worst_realization = min(
            worst_realization, float(functional_sup_ratio(diffs, sup_fs[: len(draws)], norms).min())
        )

    # both stay at their starting infinities when every pair was closer
    # than 1e-9, and a check that tested no pair has not passed
    verdicts = {
        "reconstruction_matches_fd_jacobian": worst_rel <= 1e-5,
        "reconstruction_linear": worst_lin <= 1e-6,
        "lipschitz_transfer": -np.inf < worst_transfer <= 0.0,
        "functional_sup_realization": 0.99 <= worst_realization < np.inf,
    }
    verdicts["all"] = all(verdicts.values())

    report = _base_report(cfg)
    report["results"] = _plain(
        {
            "L": cfg.L,
            "worst_reconstruction_rel_err": worst_rel,
            "worst_linearity_rel_err": worst_lin,
            "worst_transfer_excess": None if worst_transfer == -np.inf else worst_transfer,
            "min_functional_sup_realization": None
            if worst_realization == np.inf
            else worst_realization,
        }
    )
    report["verdicts"] = _plain(verdicts)
    report["probe_stats"] = None
    return report, 0 if verdicts["all"] else 1


_COMMANDS = {
    "estimate": cmd_estimate,
    "falsify": cmd_falsify,
    "verify": cmd_verify,
    "slices": cmd_slices,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessfree",
        description="Estimate, falsify and verify Hessian-Lipschitz constants "
        "using first-order Jensen-gap probes.",
    )
    parser.add_argument("--version", action="version", version=f"hessfree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "lower-bound the constant and cross-validate against finite differences"),
        ("falsify", "search for a probe refuting a claimed constant"),
        ("verify", "run the full check suite at a given constant"),
        ("slices", "slice reconstruction and Lipschitz-transfer checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--oracle", help="builtin oracle name")
        p.add_argument("--params", nargs="*", type=float, help="oracle parameters")
        p.add_argument("--seed", type=int, help="RNG seed (mandatory)")
        p.add_argument("--budget-configs", dest="budget_configs", type=int)
        p.add_argument("--budget-pairs", dest="budget_pairs", type=int)
        p.add_argument("--budget-ascent", dest="budget_ascent", type=int)
        p.add_argument("--max-n", dest="max_n", type=int)
        p.add_argument("--domain-radius", dest="domain_radius", type=float)
        p.add_argument("--n-functionals", dest="n_functionals", type=int)
        p.add_argument("--pairs", type=int, help="pair budget for the check suites")
        p.add_argument("--fd-pairs", dest="fd_pairs", type=int)
        p.add_argument("--out", help="report JSON path (stdout when omitted)")
        p.add_argument("--csv", help="per-probe CSV path")
        if name == "falsify":
            p.add_argument("--claimed-L", dest="claimed_L", type=float)
        if name in ("verify", "slices"):
            p.add_argument("--L", dest="L", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        t0 = time.perf_counter()
        report, code = _COMMANDS[cfg.command](cfg)
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
