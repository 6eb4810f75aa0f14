"""The four workloads: their inputs, one timed round each, output checks
and the per-call layer probes of the traced run.

Every workload calls only the public functions behind the ``mc``,
``theory`` and ``decompose`` subcommands.  A round is one complete
user-level job and is identical in every round of a run, so each run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hetclust import (
    ConstantWeights,
    ModelSpec,
    RankOneWeights,
    a_coeff,
    avg_clustering,
    clustering_constants,
    decomposition_check,
    emit_results,
    mean_cc_approx,
    run_mc,
    sample_graph,
    sigma_components,
    theoretical_moments,
    v_components,
    validate,
    weighted_triangle_sum,
)
from hetclust.pairs import pair_arrays
from hetclust.sampling import SeedSpec
from hetclust.theory import moments_to_json

import checks

STATS = ("clustering", "weighted_triangles")


def constant_model(n: int, alpha: float) -> ModelSpec:
    return ModelSpec(n=n, alpha=alpha, beta=1.0, weights=ConstantWeights(1.0))


def rank1_model(n: int, alpha: float, seed: int) -> ModelSpec:
    """Uniform grid of weights over [0.5, 1], node order permuted by the seed."""
    w = np.random.default_rng(seed).permutation(np.linspace(0.5, 1.0, n))
    return ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(w))


def build_model(spec: ModelSpec) -> ModelSpec:
    """What a run does before its first operation: construct, fill mu, validate."""
    model = ModelSpec(n=spec.n, alpha=spec.alpha, beta=spec.beta, weights=spec.weights)
    model.mu_matrix
    report = validate(model)
    if not report.ok or report.flags:
        raise ValueError(f"benchmark model rejected: {report.violations + report.flags}")
    return model


@dataclass
class Context:
    seed: int
    workers: int
    outdir: Path
    models: list[ModelSpec] = field(default_factory=list)


@dataclass
class RoundOutput:
    """What one round produced: operations attempted and failed, results, bytes."""

    attempted: int = 0
    failed: int = 0
    results: dict = field(default_factory=dict)
    emitted: list[bytes] = field(default_factory=list)


def _attempt(out: RoundOutput, ops: int, key, call: Callable, emit_path: Path | None = None):
    """Run one library call worth `ops` operations; a raise fails all of them."""
    out.attempted += ops
    try:
        result = call()
        if emit_path is not None:
            emit_results(result, emit_path, "json")
            out.emitted.append(emit_path.read_bytes())
    except Exception:
        traceback.print_exc()
        out.failed += ops
        return None
    out.results[key] = result
    return result


# ---------------------------------------------------------------------------
# workload definitions


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], list[ModelSpec]]
    round: Callable[[Context], RoundOutput]
    check: Callable[[Context, RoundOutput, "checks.CheckLog"], None]
    # replicates per run_mc / decomposition_check call in the layer probes
    probe_replicates: int
    # the theory functions the workload's own calls reach; the probes time
    # these only, and the others read 0 on this workload
    theory_calls: tuple[str, ...]
    # model of the decomposition probe where decomposition_check refuses the
    # workload's own (None: the workload's first model)
    decomposition_spec: Callable[[int], ModelSpec] | None = None


MC_REPLICATES = {"mc_sparse": 8, "mc_dense": 8}
THEORY_FUNCTIONS = {
    "clustering_constants": clustering_constants,
    "sigma_components": sigma_components,
    "v_components": v_components,
    "mean_cc_approx": mean_cc_approx,
    "theoretical_moments": theoretical_moments,
}
# run_mc on constant weights computes its scale on the fast path of these two
MC_THEORY_CALLS = ("sigma_components", "v_components")
DECOMP_REPLICATES = 300
THEORY_ALPHAS = (0.3, 0.5, 0.7)


def _mc_round(name: str) -> Callable[[Context], RoundOutput]:
    def run(ctx: Context) -> RoundOutput:
        out = RoundOutput()
        model, r = ctx.models[0], MC_REPLICATES[name]
        for stat in STATS:
            _attempt(
                out, r, stat,
                lambda: run_mc(model, stat, r, ctx.seed, workers=ctx.workers),
                ctx.outdir / f"{name}_{stat}.json",
            )
        return out

    return run


def _theory_round(ctx: Context) -> RoundOutput:
    out = RoundOutput()
    for model in ctx.models:
        moments = _attempt(out, 1, model.alpha, lambda: theoretical_moments(model))
        if moments is not None:
            out.emitted.append(moments_to_json(model, moments).encode())
    return out


def _decompose_round(ctx: Context) -> RoundOutput:
    out = RoundOutput()
    model = ctx.models[0]
    for stat in STATS:
        _attempt(
            out, DECOMP_REPLICATES, stat,
            lambda: decomposition_check(model, stat, DECOMP_REPLICATES, ctx.seed, workers=ctx.workers),
            ctx.outdir / f"decompose_cubic_{stat}.json",
        )
    return out


def _checked_replicates(seed: int, r_count: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return sorted(rng.choice(r_count, size=min(k, r_count), replace=False).tolist())


def _check_sampling_and_stats(ctx, log, label, values_by_stat, r_count, k, evaluator):
    model = ctx.models[0]
    mu_pairs = model.p * model.weights.c * np.ones(model.n * (model.n - 1) // 2)
    reps = _checked_replicates(ctx.seed, r_count, k)
    refs = [checks.reference_edges(model.n, mu_pairs, ctx.seed, r) for r in reps]
    checks.check_statistics(log, label, model.n, reps, refs, values_by_stat, evaluator)
    graphs = [sample_graph(model, SeedSpec(ctx.seed, r)) for r in reps]
    checks.check_sampler(log, label, graphs, refs, mu_pairs)


def _mc_check(name: str, k: int, evaluator) -> Callable:
    def check(ctx: Context, out: RoundOutput, log) -> None:
        model = ctx.models[0]
        values = {stat: res.values for stat, res in out.results.items()}
        _check_sampling_and_stats(ctx, log, name, values, MC_REPLICATES[name], k, evaluator)
        ref = checks.constant_weight_sums(model.n, model.p * model.weights.c)
        if "clustering" in out.results:
            log.within(f"{name}.clustering_scale_sq", out.results["clustering"].scale_sq,
                       ref["sigma1_sq"] + ref["sigma2_sq"], checks.VARIANCE_REL_TOL)
        if "weighted_triangles" in out.results:
            log.within(f"{name}.triangles_scale_sq", out.results["weighted_triangles"].scale_sq,
                       ref["v1_sq"] + ref["v2_sq"], checks.VARIANCE_REL_TOL)

    return check


def _theory_check(ctx: Context, out: RoundOutput, log) -> None:
    rng = np.random.default_rng([ctx.seed, 11])
    for model in ctx.models:
        label = f"theory_rank1.alpha_{model.alpha:g}"
        m = np.asarray(model.mu_matrix)
        a = checks.a_all_nodes(m)
        nodes = rng.choice(model.n, size=4, replace=False).tolist()
        worst_prog = max(checks.rel_diff(a_coeff(model, i), checks.scipy_a(m, i)) for i in nodes)
        worst_ref = max(checks.rel_diff(a[i], checks.scipy_a(m, i)) for i in nodes)
        log.record(f"{label}.degree_law_vs_scipy", worst_prog <= checks.DEGREE_LAW_REL_TOL,
                   f"nodes {nodes}, worst rel diff {worst_prog:.3g}")
        log.record(f"{label}.reference_degree_law_vs_scipy", worst_ref <= checks.DEGREE_LAW_REL_TOL,
                   f"worst rel diff {worst_ref:.3g}")
        moments = out.results.get(model.alpha)
        if moments is None:
            continue
        ref = checks.defining_sums(m, a)
        for key, value in ref.items():
            log.within(f"{label}.{key}", getattr(moments, key), value, checks.VARIANCE_REL_TOL)


def _decompose_check(ctx: Context, out: RoundOutput, log) -> None:
    values = {stat: rep.values for stat, rep in out.results.items()}
    _check_sampling_and_stats(ctx, log, "decompose_cubic", values, DECOMP_REPLICATES, 16,
                              checks.networkx_statistics)
    for stat, rep in out.results.items():
        checks.check_mean_zero(log, f"decompose_cubic.{stat}_leading_mean_zero", rep.leading)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_sparse",
            specs=lambda seed: [constant_model(4000, 0.7)],
            round=_mc_round("mc_sparse"),
            check=_mc_check("mc_sparse", 3, checks.networkx_statistics),
            probe_replicates=4,
            theory_calls=MC_THEORY_CALLS,
            decomposition_spec=lambda seed: constant_model(300, 0.7),
        ),
        Workload(
            name="mc_dense",
            specs=lambda seed: [constant_model(1000, 0.2)],
            round=_mc_round("mc_dense"),
            check=_mc_check("mc_dense", 3, checks.dense_statistics),
            probe_replicates=4,
            theory_calls=MC_THEORY_CALLS,
        ),
        Workload(
            name="theory_rank1",
            specs=lambda seed: [rank1_model(500, a, seed) for a in THEORY_ALPHAS],
            round=_theory_round,
            check=_theory_check,
            probe_replicates=4,
            theory_calls=tuple(THEORY_FUNCTIONS),
            decomposition_spec=lambda seed: rank1_model(500, 0.3, seed),
        ),
        Workload(
            name="decompose_cubic",
            specs=lambda seed: [constant_model(300, 0.7)],
            round=_decompose_round,
            check=_decompose_check,
            probe_replicates=64,
            # the clustering decomposition's constants; cubic triangles need none
            theory_calls=("clustering_constants",),
        ),
    )
}


# ---------------------------------------------------------------------------
# traced run: per-call timings of the public functions on the workload's inputs


class Spans:
    """In-memory spans: (name, start, end) per timed call, plus counts.

    Names that start with "_" time work of the probe itself; they are not
    reported as layers but count as timed work in the overhead.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, list[float]] = {}

    def time(self, name: str, call: Callable):
        t0 = time.perf_counter()
        result = call()
        self.spans.append((name, t0, time.perf_counter()))
        return result

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def total(self, name: str | None = None) -> float:
        return sum(end - start for n, start, end in self.spans if name in (None, n))


def decomposition_model(workload: Workload, ctx: Context) -> ModelSpec:
    """The model of the decomposition probe, built once per traced run."""
    if workload.decomposition_spec is None:
        return ctx.models[0]
    return build_model(workload.decomposition_spec(ctx.seed))


def probe_round(workload: Workload, ctx: Context, decomp_model: ModelSpec) -> dict[str, float]:
    """One call of every layer's public function on the workload's models.

    Probes run in this process (one worker), so each time is the call's own
    cost.  Times of multi-model workloads are summed over their models.
    `trace.round_s` is the probe round's wall time and `trace.overhead_s`
    the part of it spent outside the timed calls.
    """
    start = time.perf_counter()
    sp = Spans()
    emitted = []
    for model in ctx.models:
        fresh = ModelSpec(n=model.n, alpha=model.alpha, beta=model.beta, weights=model.weights)
        sp.time("model.mu_matrix_s", lambda: fresh.mu_matrix)
        sp.time("pairs.pair_arrays_s", lambda: pair_arrays(model.n))
        sp.time("model.mu_pairs_s", model.mu_pairs)
        g = sp.time("sampling.sample_graph_s", lambda: sample_graph(model, SeedSpec(ctx.seed, 0)))
        sp.count("sampling.edges", g.n_edges)
        sp.time("stats.avg_clustering_s", lambda: avg_clustering(g))
        sp.time("stats.weighted_triangle_sum_s", lambda: weighted_triangle_sum(g))
        # constant weights evaluate the degree law of one node only
        nodes = range(1) if model.is_homogeneous else range(model.n)
        sp.time("theory.degree_law_s", lambda: [a_coeff(model, i) for i in nodes])
        for fname in workload.theory_calls:
            sp.time(f"theory.{fname}_s", lambda: THEORY_FUNCTIONS[fname](model))
        for stat in STATS:
            res = sp.time("experiments.run_mc_s",
                          lambda: run_mc(model, stat, workload.probe_replicates, ctx.seed, workers=1))
            emitted.append(res)
    report, leading = _decomposition_probe(workload.probe_replicates, ctx.seed, decomp_model, sp)
    emitted.append(report)
    for i, result in enumerate(emitted):
        path = ctx.outdir / f"trace_{workload.name}_{i}.json"
        sp.time("experiments.emit_results_s", lambda: emit_results(result, path, "json"))
        sp.count("experiments.result_bytes", path.stat().st_size)
    out = {f"theory.{fname}_s": 0.0 for fname in THEORY_FUNCTIONS}
    out.update({name: sp.total(name) for name, _, _ in sp.spans if not name.startswith("_")})
    out["sampling.edges"] = float(np.mean(sp.counts["sampling.edges"]))
    out["experiments.result_bytes"] = float(sum(sp.counts["experiments.result_bytes"]))
    out["experiments.decomp_leading_s"] = leading
    out["trace.round_s"] = time.perf_counter() - start
    out["trace.overhead_s"] = out["trace.round_s"] - sp.total()
    return out


def _decomposition_probe(r: int, seed: int, model: ModelSpec, sp: Spans):
    """decomposition_check for the clustering statistic, and its leading-term share.

    The leading-term time per replicate is the decomposition time, less the
    constants it computes once, divided by the replicate count, less the
    sampling and statistic time of the same replicates, timed separately.
    """
    sp.time("_constants", lambda: clustering_constants(model))
    for k in range(r):
        sp.time("_replicate", lambda: avg_clustering(sample_graph(model, SeedSpec(seed, k))))
    t_apart = sp.total("_constants") + sp.total("_replicate")
    report = sp.time("experiments.decomposition_check_s",
                     lambda: decomposition_check(model, "clustering", r, seed, workers=1))
    t_decomp = sp.total("experiments.decomposition_check_s")
    return report, (t_decomp - t_apart) / r
