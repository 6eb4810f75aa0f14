"""Command-line front end; all numeric work is delegated to the library."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments, oracle, sampling, stats, theory
from .experiments import _fmt
from .model import (
    ConstantWeights,
    ModelSpec,
    RankOneWeights,
    _require_valid,
    _weights_from_dict,
    model_from_json,
    validate,
)

_STAT_BY_FLAG = {
    "clustering": experiments.STAT_CLUSTERING,
    "triangles": experiments.STAT_TRIANGLES,
}


def _weights_dict(spec: str) -> dict:
    """The JSON `weights` object an inline `--weights` string stands for."""
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        return {"kind": kind, "c": float(rest)}
    if kind == "rank1":
        if rest.startswith("grid:"):
            return {"kind": kind, "grid": [float(x) for x in rest[len("grid:"):].split(",")]}
        return {"kind": kind, "w": np.loadtxt(rest, dtype=np.float64).ravel()}
    if kind == "dense":
        return {"kind": kind, "csv": rest}
    raise ValueError(f"unknown weight spec {spec!r}; use constant:<c>, rank1:..., dense:<file>")


def _default_beta(weights, n: int) -> float:
    if isinstance(weights, ConstantWeights):
        return weights.c
    if isinstance(weights, RankOneWeights):
        return float(weights.w.min())
    if weights.matrix_values.shape != (n, n):
        # any valid floor: the model's shape violation is the one error
        return 1.0
    return weights.pair_range(n)[0]


def _model_from_args(args) -> ModelSpec:
    if args.model is not None:
        if args.n is not None or args.weights is not None:
            raise ValueError("give either --model or inline model flags, not both")
        model = model_from_json(args.model)
    else:
        if args.n is None or args.alpha is None or args.weights is None:
            raise ValueError("inline model needs --n, --alpha and --weights")
        weights = _weights_from_dict(_weights_dict(args.weights), args.n, None, "")
        beta = args.beta if args.beta is not None else _default_beta(weights, args.n)
        model = ModelSpec(n=args.n, alpha=args.alpha, beta=beta, weights=weights)
    _require_valid(model)
    for flag in validate(model).flags:
        print(f"warning: {flag}", file=sys.stderr)
    return model


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", type=Path, help="JSON model config file")
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--alpha", type=float, help="density exponent in (0,1)")
    p.add_argument("--beta", type=float, help="weight floor (default: min weight)")
    p.add_argument(
        "--weights",
        help="constant:<c> | rank1:grid:<lo>,<hi> | rank1:<file> | dense:<csv>",
    )


def _out_path(args, result) -> Path:
    out = args.out
    if out.is_dir():
        return out / experiments.default_filename(result, args.format)
    return out


def _cmd_sample(args) -> int:
    model = _model_from_args(args)
    g = sampling.sample_graph(model, sampling.SeedSpec(args.seed, args.replicate))
    sampling.write_edgelist(g, args.out)
    return 0


def _cmd_stats(args) -> int:
    g = sampling.read_edgelist(args.edgelist)
    print(f"avg_clustering {_fmt(stats.avg_clustering(g))}")
    print(f"weighted_triangles {_fmt(stats.weighted_triangle_sum(g))}")
    return 0


def _cmd_theory(args) -> int:
    model = _model_from_args(args)
    moments = theory.theoretical_moments(model)
    if args.out is not None:
        Path(args.out).write_text(
            theory.moments_to_json(model, moments, include_constants=args.dump_constants)
        )
    for name, value in asdict(moments).items():
        print(f"{name} {_fmt(value)}")
    return 0


def _cmd_mc(args) -> int:
    model = _model_from_args(args)
    result = experiments.run_mc(
        model,
        _STAT_BY_FLAG[args.stat],
        args.replicates,
        args.seed,
        centering=args.centering,
    )
    experiments.emit_results(result, _out_path(args, result), args.format)
    print(
        f"ks_distance {_fmt(result.ks_distance)}\n"
        f"empirical_var_ratio {_fmt(result.empirical_var_ratio)}\n"
        f"n_zero_statistic {result.n_zero_statistic}"
    )
    return 0


def _cmd_phase(args) -> int:
    alphas = [float(a) for a in args.alphas.split(",")]
    result = experiments.phase_sweep(args.n, alphas, weight_c=args.c)
    experiments.emit_results(result, _out_path(args, result), args.format)
    for rec in result.records:
        print(f"alpha {_fmt(rec.alpha)} ratio {_fmt(rec.ratio)}")
    return 0


def _cmd_decompose(args) -> int:
    model = _model_from_args(args)
    result = experiments.decomposition_check(
        model, _STAT_BY_FLAG[args.stat], args.replicates, args.seed
    )
    experiments.emit_results(result, _out_path(args, result), args.format)
    if result.degenerate_linear:
        print("degenerate linear term")
    else:
        print(
            f"correlation {_fmt(result.correlation)}\n"
            f"residual_var_fraction {_fmt(result.residual_var_fraction)}"
        )
    return 0


def _cmd_oracle(args) -> int:
    model = _model_from_args(args)
    report = oracle.enumerate_moments(model)
    text = report.to_json()
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetclust",
        description="Clustering statistics on heterogeneous random graphs: "
        "sampling, exact variance theory, Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample one graph and write its edge list")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--replicate", type=int, default=0, help="replicate index")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="print both statistics of an edge-list file")
    p.add_argument("edgelist", type=Path)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("theory", help="print exact theoretical moments for a model")
    _add_model_args(p)
    p.add_argument("--out", type=Path, help="also write JSON here")
    p.add_argument("--dump-constants", action="store_true", help="include constant vectors/matrices in JSON")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("mc", help="Monte Carlo run of one statistic")
    _add_model_args(p)
    p.add_argument("--stat", choices=sorted(_STAT_BY_FLAG), required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--centering", choices=["empirical", "lemma3"], default="empirical")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("phase", help="variance-component sweep over alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated grid, e.g. 0.2,0.3,0.4")
    p.add_argument("--c", type=float, default=1.0, help="constant weight")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("decompose", help="leading-term decomposition diagnostic")
    _add_model_args(p)
    p.add_argument("--stat", choices=sorted(_STAT_BY_FLAG), required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="exact tiny-n moments by full enumeration")
    _add_model_args(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
