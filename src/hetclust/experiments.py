"""Monte Carlo verification runs and their serialization.

Each experiment is a deterministic function of (model, replicate count,
master seed, flags): replicate r uses the counter-based seed
(master_seed, r), so runs can be distributed over any number of workers
and still produce byte-identical output files.  Worker count comes from
the HETCLUST_WORKERS environment variable (default: available CPUs).

Standardized scores are always scaled by the exact-sum theoretical
standard deviation, never by the asymptotic closed forms, so normality
checks are free of closed-form approximation error.  Centering defaults to the
empirical replicate mean because the exact expectations have no closed
form; the two-term mean expansion is an opt-in center whose bias is
reported in units of the theoretical standard deviation.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr

from .model import ConstantWeights, ModelSpec, _require_valid
from .sampling import Graph, SeedSpec, sample_graph
from .stats import (
    NodeTriangleProfile,
    _mean_local_clustering,
    triangle_profile,
    weighted_triangle_sum,
)
from .theory import (
    _clustering_constants,
    _pair_mu,
    _product_form,
    _triangle_constants,
    sigma_closed_forms,
    mean_cc_approx,
    sigma_components,
    v_components,
)

__all__ = [
    "STAT_CLUSTERING",
    "STAT_TRIANGLES",
    "McRunResult",
    "PhaseSweepResult",
    "DecompositionReport",
    "ks_distance",
    "run_mc",
    "phase_sweep",
    "decomposition_check",
    "emit_results",
    "default_filename",
]

STAT_CLUSTERING = "clustering"
STAT_TRIANGLES = "weighted_triangles"

WORKERS_ENV = "HETCLUST_WORKERS"

# Rank-one and dense weights evaluate the cubic leading terms on the dense n x n
# B = A - mu_matrix of every replicate through an O(n^3) product; the cap keeps
# such a run at desk timescales.  Linear terms are gathered at the edges, and
# constant weights take exact terms from the graph's counts; neither has a cap.
DECOMP_MAX_N_CUBIC = 300

# the `set` counterparts of the thread-count symbols of the OpenBLAS builds
# that numpy and scipy load, by the names those builds export
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
)


def ks_distance(sample: Sequence[float]) -> float:
    """Sup distance between the sample's empirical CDF and the standard
    normal CDF, by the one-sample formula over sorted values."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    m = len(x)
    if m == 0:
        raise ValueError("ks_distance requires a nonempty sample")
    cdf = ndtr(x)
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    return float(max(upper, lower))


def _worker_count(explicit: int | None = None) -> int:
    """`explicit`, else HETCLUST_WORKERS, else the CPU count."""
    name, value = "workers", explicit
    if explicit is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV)
        if not value:
            return os.cpu_count() or 1
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def _set_blas_threads(threads: int) -> None:
    """Set every OpenBLAS loaded in this process to `threads` threads; a no-op
    where none is loaded or the process's memory map cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(p for p in paths if os.path.isabs(p)):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(threads)
                break


def _map_replicates(task, payload, r_count: int, workers: int | None):
    """Evaluate `task(payload, indices)` over all replicates, in order.

    Each worker process runs its BLAS on its share of the CPUs, so workers
    times BLAS threads does not exceed them; in one process the caller's
    BLAS setting holds.
    """
    w = _worker_count(workers)
    indices = np.arange(r_count)
    if w <= 1 or r_count < 2 * w:
        return task(payload, indices)
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = max(1, (cpus or 1) // w)
    chunks = np.array_split(indices, w)
    with ProcessPoolExecutor(
        max_workers=w, initializer=_set_blas_threads, initargs=(threads,)
    ) as pool:
        parts = list(pool.map(task, [payload] * len(chunks), chunks))
    return np.concatenate(parts, axis=0)


class _Replicate:
    """One sampled graph and what its statistic and leading terms read of it,
    each computed at most once."""

    def __init__(self, model: ModelSpec, graph: Graph):
        self.model, self.graph = model, graph

    @cached_property
    def profile(self) -> NodeTriangleProfile:
        return triangle_profile(self.graph)

    @cached_property
    def b(self) -> np.ndarray:
        """The centered adjacency A - mu_matrix, dense, for the cubic terms."""
        return self.graph.adjacency_dense() - self.model.mu_matrix

    def trace_b3(self, mu: Fraction) -> Fraction:
        """tr(B^3) of B = A - mu (J - I), exactly, from the triangle count
        6T = sum t_i, the sum of squared degrees and 2m."""
        n, d = self.graph.n, self.graph.degrees
        six_t, sum_d2, two_m = int(self.profile.t.sum()), int(d @ d), int(d.sum())
        return (
            six_t
            - 3 * mu * (sum_d2 - two_m)
            + 3 * mu**2 * (n - 2) * two_m
            - mu**3 * n * (n - 1) * (n - 2)
        )


# Leading terms as functions of a replicate, with their coefficients bound
# first by `partial`, so that workers can unpickle them.  Rank-one and dense
# weights read the replicate's dense b (cubic) or edges (linear); constant
# weights make M = mu (J - I), so each term is a rational in the graph's
# counts, returned as an exact Fraction that the replicate task rounds once.


def _cubic_clustering(a, rep) -> float:
    """(2/n) sum_{i<j<k} (a_i + a_j + a_k) b_ij b_ik b_jk"""
    b = rep.b
    return float(a @ ((b @ b) * b).sum(axis=1)) / len(a)


def _cubic_triangles(inv_mu_sqrt, rep) -> float:
    """sum_{i<j<k} b_ij b_jk b_ki / (mu_i mu_j mu_k), inv_mu_sqrt_ij = 1/sqrt(mu_i mu_j)"""
    bt = rep.b * inv_mu_sqrt
    return float(((bt @ bt) * bt).sum()) / 6.0


def _linear(scale, coef, offset, rep) -> float:
    """scale sum_{i != j} coef_ij b_ij = scale (2 sum_{edges i<j} coef_ij - offset),
    offset = sum_{i != j} coef_ij mu_ij; coef is n x n or a `theory._Separable`"""
    rows, cols = rep.graph.edge_pairs()
    return scale * (2.0 * float(coef[rows, cols].sum()) - offset)


def _linear_term(scale, coef, model: ModelSpec):
    return partial(_linear, scale, coef, float((coef * _pair_mu(model)).sum()))


def _cubic_clustering_constant(a: Fraction, mu: Fraction, rep) -> Fraction:
    """(2/n) sum_{i<j<k} 3a b_ij b_ik b_jk = (a/n) tr(B^3)"""
    return a * rep.trace_b3(mu) / rep.graph.n


def _cubic_triangles_constant(mu: Fraction, rep) -> Fraction:
    """sum_{i<j<k} b_ij b_jk b_ki / mu_bar^3 = tr(B^3) / (6 mu_bar^3), mu_bar = (n-1) mu"""
    return rep.trace_b3(mu) / (6 * ((rep.graph.n - 1) * mu) ** 3)


def _linear_clustering_constant(e: Fraction, mu: Fraction, rep) -> Fraction:
    """(1/n) sum_{i<j} e b_ij = e (2m - mu n (n-1)) / (2n)"""
    n = rep.graph.n
    return e * (int(rep.graph.degrees.sum()) - mu * n * (n - 1)) / (2 * n)


def _constant_scalars(model: ModelSpec) -> tuple[Fraction, Fraction, Fraction]:
    """(mu, a, e) of constant weights as exact Fractions: the pair probability
    p*c, and node 0's a and pair (0, 1)'s e of the product-form constants,
    which every node and pair share."""
    consts = _clustering_constants(model)
    e = consts.e[np.array([0]), np.array([1])]
    return Fraction(_product_form(model)[0]), Fraction(float(consts.a[0])), Fraction(float(e[0]))


def _clustering_terms(model: ModelSpec, cubic: bool, linear: bool) -> tuple:
    if model.is_homogeneous:
        mu, a, e = _constant_scalars(model)
        return (
            partial(_cubic_clustering_constant, a, mu) if cubic else None,
            partial(_linear_clustering_constant, e, mu) if linear and e else None,
        )
    consts = _clustering_constants(model)
    return (
        partial(_cubic_clustering, consts.a) if cubic else None,
        _linear_term(0.5 / model.n, consts.e, model) if linear else None,
    )


def _triangle_terms(model: ModelSpec, cubic: bool, linear: bool) -> tuple:
    if model.is_homogeneous:  # delta is identically zero: no linear term
        mu = Fraction(_product_form(model)[0])
        return partial(_cubic_triangles_constant, mu) if cubic else None, None
    mu = model.mu
    return (
        partial(_cubic_triangles, 1.0 / np.sqrt(np.outer(mu, mu))) if cubic else None,
        _linear_term(0.5, _triangle_constants(model).delta, model) if linear else None,
    )


class _Statistic(NamedTuple):
    value: Callable  # replicate -> statistic
    components: Callable  # model -> exact (cubic, linear) variance components
    # (model, cubic wanted, linear wanted) -> (cubic, linear) leading terms,
    # each None where not wanted or identically zero
    terms: Callable


_STATISTICS = {
    STAT_CLUSTERING: _Statistic(
        lambda rep: _mean_local_clustering(rep.profile), sigma_components, _clustering_terms
    ),
    STAT_TRIANGLES: _Statistic(
        lambda rep: weighted_triangle_sum(rep.graph), v_components, _triangle_terms
    ),
}


def _statistic(stat_kind: str) -> _Statistic:
    try:
        return _STATISTICS[stat_kind]
    except KeyError:
        raise ValueError(f"unknown statistic kind: {stat_kind!r}") from None


def _replicate_task(payload, indices) -> np.ndarray:
    """Each replicate's statistic; given leading terms, rows of the statistic
    and the sum of the terms that are not None."""
    model, master_seed, stat_kind, terms = payload
    value = _statistic(stat_kind).value
    rows = []
    for r in indices:
        rep = _Replicate(model, sample_graph(model, SeedSpec(master_seed, int(r))))
        if terms is None:
            rows.append(value(rep))
            continue
        # exact terms add up as Fractions and round once; float terms as floats
        lead = sum(term(rep) for term in filter(None, terms))
        rows.append((value(rep), float(lead)))
    return np.array(rows)


def _model_summary(model: ModelSpec) -> dict:
    return {
        "n": model.n,
        "alpha": model.alpha,
        "beta": model.beta,
        "weights_kind": model.weights.kind,
        "mu_sha1": model.mu_sha1,
    }


class _Result:
    """Value equality over the fields: arrays compare element by element."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _jsonable(self) == _jsonable(other)


@dataclass(eq=False)
class McRunResult(_Result):
    """One Monte Carlo run: raw values, standardized scores, diagnostics."""

    model: dict
    r_count: int
    stat_kind: str
    values: np.ndarray
    z: np.ndarray
    centering: str
    center: float
    center_bias_sds: float
    scale_sq: float
    ks_distance: float
    empirical_var_ratio: float
    n_zero_statistic: int
    master_seed: int


def run_mc(
    model: ModelSpec,
    stat_kind: str,
    r_count: int,
    master_seed: int,
    centering: str = "empirical",
    workers: int | None = None,
) -> McRunResult:
    """Sample r_count replicates, compute the statistic, standardize.

    The scale is the exact theoretical variance (cubic plus linear
    component) of the chosen statistic.  Replicates whose statistic is
    exactly zero are kept and counted, not dropped.
    """
    _require_valid(model)
    if r_count < 2:
        raise ValueError("need at least two replicates")
    cubic, linear = _statistic(stat_kind).components(model)
    scale_sq = cubic + linear

    payload = (model, master_seed, stat_kind, None)
    values = _map_replicates(_replicate_task, payload, r_count, workers)
    emp_mean = float(values.mean())
    scale = math.sqrt(scale_sq)
    if centering == "empirical":
        center = emp_mean
        bias = 0.0
    elif centering == "lemma3":
        if stat_kind != STAT_CLUSTERING:
            raise ValueError(
                "expansion-based centering is defined for the clustering statistic only"
            )
        center = mean_cc_approx(model)
        bias = (center - emp_mean) / scale
    else:
        raise ValueError(f"unknown centering: {centering!r}")
    z = (values - center) / scale
    return McRunResult(
        model=_model_summary(model),
        r_count=r_count,
        stat_kind=stat_kind,
        values=values,
        z=z,
        centering=centering,
        center=center,
        center_bias_sds=bias,
        scale_sq=scale_sq,
        ks_distance=ks_distance(z),
        empirical_var_ratio=float(values.var(ddof=1)) / scale_sq,
        n_zero_statistic=int(np.count_nonzero(values == 0.0)),
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# phase sweep


@dataclass(frozen=True)
class PhaseRecord:
    alpha: float
    sigma1_sq: float
    sigma2_sq: float
    ratio: float
    closed_sigma1_sq: float
    closed_sigma2_sq: float
    closed_sigma_sq: float


@dataclass(frozen=True, eq=False)
class PhaseSweepResult(_Result):
    n: int
    weight_c: float
    records: tuple[PhaseRecord, ...]

    @property
    def alphas(self) -> list[float]:
        return [r.alpha for r in self.records]


def phase_sweep(n: int, alphas: Iterable[float], weight_c: float = 1.0) -> PhaseSweepResult:
    """Exact variance components across a grid of density exponents.

    The cubic/linear ratio grows like n^(2 alpha - 1), so it crosses its
    boundary value as alpha passes 1/2: the scale of the clustering
    coefficient's variance switches regime discontinuously.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("phase sweep needs at least one alpha")
    records = []
    for alpha in alphas:
        model = ModelSpec(n=n, alpha=float(alpha), beta=weight_c, weights=ConstantWeights(weight_c))
        _require_valid(model)
        s1, s2 = sigma_components(model)
        closed = sigma_closed_forms(n, float(alpha))
        records.append(
            PhaseRecord(
                alpha=float(alpha),
                sigma1_sq=s1,
                sigma2_sq=s2,
                ratio=s1 / s2,
                closed_sigma1_sq=closed.sigma1_sq,
                closed_sigma2_sq=closed.sigma2_sq,
                closed_sigma_sq=closed.sigma_sq,
            )
        )
    return PhaseSweepResult(n=n, weight_c=weight_c, records=tuple(records))


# ---------------------------------------------------------------------------
# leading-term decomposition


REGIME_SUB = "sub_half"
REGIME_HALF = "half"
REGIME_SUPER = "super_half"


@dataclass(eq=False)
class DecompositionReport(_Result):
    """Correlation between the centered statistic and its leading term."""

    model: dict
    stat_kind: str
    regime: str
    r_count: int
    master_seed: int
    degenerate_linear: bool
    correlation: float | None
    residual_var_fraction: float | None
    values: np.ndarray
    leading: np.ndarray


def decomposition_check(
    model: ModelSpec,
    stat_kind: str,
    r_count: int,
    master_seed: int,
    workers: int | None = None,
) -> DecompositionReport:
    """Per-replicate leading term of the regime implied by alpha.

    Above alpha = 1/2 the leading term is cubic in centered indicators,
    below it linear, at the boundary their sum.  If the linear term is
    identically zero (constant weights make gamma_ij == eta_i, so the
    triangle statistic's linear coefficients vanish), the run is flagged
    degenerate instead of reporting a correlation.  If the statistic or
    the leading term takes one value in every replicate, the correlation
    is undefined and the run raises ValueError.

    Under constant weights each term is the correctly rounded value of its
    defining sum, computed exactly from the graph's triangle count, sum of
    squared degrees and edge count, at any n.  Other weights gather the
    linear term at the edges, at any n, and evaluate the cubic term on the
    dense B = A - mu_matrix, within `DECOMP_MAX_N_CUBIC` nodes.
    """
    _require_valid(model)
    if r_count < 2:
        raise ValueError("need at least two replicates")
    make_terms = _statistic(stat_kind).terms
    alpha = model.alpha
    regime = REGIME_HALF if alpha == 0.5 else (REGIME_SUB if alpha < 0.5 else REGIME_SUPER)
    cap = DECOMP_MAX_N_CUBIC
    if regime != REGIME_SUB and model.n > cap and not model.is_homogeneous:
        raise ValueError(f"decomposition at regime {regime} caps n at {cap}, got {model.n}")

    terms = make_terms(model, regime != REGIME_SUB, regime != REGIME_SUPER)
    degenerate = regime == REGIME_SUB and terms[1] is None
    values, leading = np.empty(0), np.empty(0)
    corr = residual_fraction = None
    if not degenerate:
        payload = (model, master_seed, stat_kind, terms)
        table = _map_replicates(_replicate_task, payload, r_count, workers)
        values, leading = table[:, 0], table[:, 1]
        if values.min() == values.max() or leading.min() == leading.max():
            raise ValueError(
                f"the statistic or its leading term takes one value in all {r_count} replicates"
            )
        corr = float(np.corrcoef(values, leading)[0, 1])
        resid = values - values.mean() - (leading - leading.mean())
        residual_fraction = float(resid.var(ddof=1) / values.var(ddof=1))
    return DecompositionReport(
        model=_model_summary(model),
        stat_kind=stat_kind,
        regime=regime,
        r_count=r_count,
        master_seed=master_seed,
        degenerate_linear=degenerate,
        correlation=corr,
        residual_var_fraction=residual_fraction,
        values=values,
        leading=leading,
    )


# ---------------------------------------------------------------------------
# serialization
#
# Every result is a dataclass.  JSON is its fields plus a `kind` tag; CSV is
# a table of the columns listed below.


_KINDS = {
    McRunResult: "mc_run",
    PhaseSweepResult: "phase_sweep",
    DecompositionReport: "decomposition",
}

# CSV header -> field.  A phase sweep has one row per record and reads the
# fields from each record; the other results have one row per replicate,
# numbered in a leading `replicate` column.
_CSV_COLUMNS = {
    McRunResult: {"value": "values", "z": "z"},
    PhaseSweepResult: {
        name: name for name in ("alpha", "sigma1_sq", "sigma2_sq", "ratio", "closed_sigma_sq")
    },
    DecompositionReport: {"value": "values", "leading": "leading"},
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _kind(result) -> str:
    try:
        return _KINDS[type(result)]
    except KeyError:
        raise TypeError(f"cannot serialize {type(result).__name__}") from None


def _jsonable(value):
    """Field values as JSON types: arrays to lists, dataclasses to dicts."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def default_filename(result, fmt: str) -> str:
    """Conventional name `<stat>_<n>_<alpha>_<seed>.<ext>`."""
    ext = "csv" if fmt == "csv" else "json"
    if _kind(result) == "phase_sweep":
        lo, hi = result.alphas[0], result.alphas[-1]
        return f"phase_{result.n}_{lo:g}-{hi:g}_0.{ext}"
    m = result.model
    return f"{result.stat_kind}_{m['n']}_{m['alpha']:g}_{result.master_seed}.{ext}"


def _result_to_text(result, fmt: str) -> str:
    kind = _kind(result)
    if fmt == "json":
        doc = {"kind": kind, **_jsonable(result)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        columns = _CSV_COLUMNS[type(result)]
        if kind == "phase_sweep":
            header = list(columns)
            rows = [[getattr(rec, f) for f in columns.values()] for rec in result.records]
        else:
            header = ["replicate", *columns]
            arrays = [getattr(result, f) for f in columns.values()]
            rows = [[r, *row] for r, row in enumerate(zip(*arrays))]
        lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt!r}")


def emit_results(result, path: str | Path, fmt: str) -> None:
    """Write a result to CSV or JSON; byte-stable for identical inputs."""
    text = _result_to_text(result, fmt)
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
