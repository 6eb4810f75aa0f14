import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from hetclust import experiments
from hetclust import model as model_module
from hetclust import theory as theory_module
from hetclust.experiments import (
    STAT_CLUSTERING,
    STAT_TRIANGLES,
    McRunResult,
    _model_summary,
    decomposition_check,
    default_filename,
    emit_results,
    ks_distance,
    phase_sweep,
    run_mc,
)
from hetclust.model import DenseWeights, ModelSpec, RankOneWeights, validate
from hetclust.sampling import Graph, SeedSpec, sample_graph

from conftest import er_model, random_dense_model
import reference


# ---------------------------------------------------------------------------
# KS distance


def test_ks_single_point_at_median():
    assert ks_distance([0.0]) == pytest.approx(0.5, rel=1e-12)


def test_ks_plug_in_quantile_grid():
    m = 100
    grid = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
    assert ks_distance(grid) == pytest.approx(0.005, abs=1e-10)


def test_ks_total_separation():
    m = 100
    grid = norm.ppf((np.arange(1, m + 1) - 0.5) / m) + 10.0
    assert ks_distance(grid) > 0.999


def test_ks_order_invariance(rng):
    x = rng.normal(size=200)
    assert ks_distance(x) == ks_distance(np.sort(x)[::-1])
    assert 0.0 <= ks_distance(x) <= 1.0


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_distance([])


# ---------------------------------------------------------------------------
# Monte Carlo runs


def test_run_mc_two_replicates_symmetric_z():
    m = er_model(30, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 2, master_seed=5, workers=1)
    assert res.z[0] == pytest.approx(-res.z[1], rel=1e-12)
    assert abs(res.z.mean()) < 1e-12


def test_run_mc_empirical_centering_invariants():
    m = er_model(50, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 60, master_seed=9, workers=1)
    assert abs(res.z.mean()) < 1e-12
    assert res.z.var(ddof=1) == pytest.approx(res.empirical_var_ratio, rel=1e-12)
    assert 0.0 <= res.ks_distance <= 1.0
    assert res.r_count == len(res.values) == len(res.z) == 60


def test_run_mc_counts_zero_statistics():
    m = er_model(6, alpha=0.8)
    res = run_mc(m, STAT_TRIANGLES, 40, master_seed=3, workers=1)
    assert res.n_zero_statistic == int(np.sum(res.values == 0.0))
    assert res.n_zero_statistic > 0  # triangles are rare at this density


def test_run_mc_lemma3_centering_reports_bias():
    m = er_model(60, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 30, master_seed=4, centering="lemma3", workers=1)
    emp = run_mc(m, STAT_CLUSTERING, 30, master_seed=4, workers=1)
    assert res.center_bias_sds == pytest.approx(
        (res.center - emp.values.mean()) / math.sqrt(res.scale_sq), rel=1e-12
    )
    with pytest.raises(ValueError):
        run_mc(m, STAT_TRIANGLES, 10, master_seed=4, centering="lemma3", workers=1)


def test_run_mc_rejects_bad_args():
    m = er_model(20, alpha=0.4)
    with pytest.raises(ValueError):
        run_mc(m, "degree", 10, master_seed=0)
    with pytest.raises(ValueError):
        run_mc(m, STAT_CLUSTERING, 1, master_seed=0)


@pytest.mark.parametrize("check", [run_mc, decomposition_check])
def test_unknown_statistic_rejected_before_sampling(monkeypatch, check):
    def no_sampling(*args):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(experiments, "sample_graph", no_sampling)
    with pytest.raises(ValueError) as err:
        check(er_model(20, alpha=0.4), "degree", 10, master_seed=0, workers=1)
    assert str(err.value) == "unknown statistic kind: 'degree'"


def test_run_mc_rejects_invalid_model():
    m = ModelSpec(n=20, alpha=0.4, beta=0.5, weights=RankOneWeights(np.linspace(0.3, 1.0, 20)))
    with pytest.raises(ValueError) as err:
        run_mc(m, STAT_CLUSTERING, 10, master_seed=0, workers=1)
    assert str(err.value) == "invalid model: rank-one weight entries must lie in [beta, 1]"


def test_run_mc_worker_count_does_not_change_results():
    m = er_model(25, alpha=0.4)
    res1 = run_mc(m, STAT_CLUSTERING, 12, master_seed=77, workers=1)
    res2 = run_mc(m, STAT_CLUSTERING, 12, master_seed=77, workers=2)
    assert np.array_equal(res1.values, res2.values)


def test_run_mc_rank_one_worker_pool_matches_single_process():
    n = 60
    m = ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, n)))
    m.mu_pairs()  # the cached arrays stay behind when the pool pickles the model
    r = 8  # at least two replicates per worker, so the pool is used
    res1 = run_mc(m, STAT_CLUSTERING, r, master_seed=5, workers=1)
    res2 = run_mc(m, STAT_CLUSTERING, r, master_seed=5, workers=2)
    assert res1 == res2


def _openblas_threads(payload=None, indices=(0,)) -> np.ndarray:
    """The thread count of every OpenBLAS loaded in this process, one row per
    index: a replicate task that reports the BLAS setting of its process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    counts = []
    for path in filter(os.path.isabs, paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return np.array([counts] * len(indices))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps") or _openblas_threads().size == 0,
    reason="no OpenBLAS found in the process memory map",
)
def test_workers_share_the_cpus_between_their_blas_threads():
    own = _openblas_threads()
    pooled = experiments._map_replicates(_openblas_threads, None, 4, workers=2)
    assert np.all(pooled == max(1, len(os.sched_getaffinity(0)) // 2))
    # one process keeps the caller's setting, and the pool leaves it alone
    single = experiments._map_replicates(_openblas_threads, None, 4, workers=1)
    assert np.array_equal(single, np.repeat(own, 4, axis=0))
    assert np.array_equal(_openblas_threads(), own)


@pytest.mark.parametrize("kind", ["constant", "rank1", "dense"])
def test_model_digest_hashes_mu_matrix_bytes(kind):
    n = 40
    if kind == "constant":
        m = er_model(n, alpha=0.4, c=0.8)
    elif kind == "rank1":
        w = np.random.default_rng(3).uniform(0.5, 1, n)
        m = ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(w))
    else:
        m = random_dense_model(n, np.random.default_rng(3))
    summary = _model_summary(m)
    assert summary["weights_kind"] == m.weights.kind
    assert summary["mu_sha1"] == hashlib.sha1(m.mu_matrix.tobytes()).hexdigest()


def test_model_digest_computed_once_per_model(monkeypatch):
    made = []

    def counting_sha1(*data):
        made.append(hashlib.sha1(*data))
        return made[-1]

    monkeypatch.setattr(model_module, "sha1", counting_sha1)
    m = er_model(30, alpha=0.4)
    for stat in (STAT_CLUSTERING, STAT_TRIANGLES):
        run_mc(m, stat, 4, master_seed=2, workers=1)
    decomposition_check(m, STAT_CLUSTERING, 4, master_seed=2, workers=1)
    # one hash object per model, fed row by row, over the bytes of mu_matrix
    assert len(made) == 1
    assert made[0].hexdigest() == hashlib.sha1(m.mu_matrix.tobytes()).hexdigest()


@pytest.mark.parametrize("workers", [0, -1])
def test_run_mc_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match=f"workers must be a positive integer, got {workers}"):
        run_mc(er_model(20, alpha=0.4), STAT_CLUSTERING, 6, master_seed=1, workers=workers)


def test_run_mc_honors_env_worker_count(monkeypatch):
    monkeypatch.setenv("HETCLUST_WORKERS", "1")
    m = er_model(20, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 6, master_seed=1)
    assert len(res.values) == 6


# ---------------------------------------------------------------------------
# emission


def mc_result_from_json(text: str) -> McRunResult:
    """The run a JSON result file holds, its lists read back as arrays."""
    doc = json.loads(text)
    assert doc["kind"] == "mc_run"
    raw = {f.name: doc[f.name] for f in dataclasses.fields(McRunResult)}
    return McRunResult(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in raw.items()})


def test_mc_json_round_trip(tmp_path):
    m = er_model(25, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 8, master_seed=21, workers=1)
    path = tmp_path / "run.json"
    emit_results(res, path, "json")
    back = mc_result_from_json(path.read_text())
    assert back == res


def test_emission_is_deterministic(tmp_path):
    m = er_model(25, alpha=0.4)
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_results(run_mc(m, STAT_TRIANGLES, 10, master_seed=6, workers=1), a, fmt)
        emit_results(run_mc(m, STAT_TRIANGLES, 10, master_seed=6, workers=1), b, fmt)
        assert a.read_bytes() == b.read_bytes()


def test_mc_csv_layout(tmp_path):
    m = er_model(25, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 5, master_seed=2, workers=1)
    path = tmp_path / "run.csv"
    emit_results(res, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "replicate,value,z"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == res.values[0]  # 17 significant digits round-trip


def test_phase_csv_header(tmp_path):
    sweep = phase_sweep(100, [0.3, 0.5, 0.7])
    path = tmp_path / "sweep.csv"
    emit_results(sweep, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,sigma1_sq,sigma2_sq,ratio,closed_sigma_sq"
    assert len(lines) == 4


def test_default_filename_convention():
    m = er_model(25, alpha=0.4)
    res = run_mc(m, STAT_CLUSTERING, 4, master_seed=11, workers=1)
    assert default_filename(res, "csv") == f"clustering_25_{m.alpha:g}_11.csv"
    sweep = phase_sweep(50, [0.2, 0.8])
    assert default_filename(sweep, "json") == "phase_50_0.2-0.8_0.json"


# kind -> (CSV header line documented in the README, result factory)
_SCHEMAS = {
    "mc_run": (
        "replicate,value,z",
        lambda: run_mc(er_model(25, alpha=0.4), STAT_TRIANGLES, 4, master_seed=3, workers=1),
    ),
    "phase_sweep": (
        "alpha,sigma1_sq,sigma2_sq,ratio,closed_sigma_sq",
        lambda: phase_sweep(50, [0.3, 0.7]),
    ),
    "decomposition": (
        "replicate,value,leading",
        lambda: decomposition_check(
            er_model(30, alpha=0.7), STAT_CLUSTERING, 4, master_seed=3, workers=1
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_output_schema(tmp_path, kind):
    header, make = _SCHEMAS[kind]
    res = make()
    emit_results(res, tmp_path / "r.json", "json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["kind"] == kind
    assert set(doc) == {"kind"} | {f.name for f in dataclasses.fields(res)}
    emit_results(res, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == header
    assert make() == res  # value equality, arrays included


def test_emit_unknown_format_rejected(tmp_path):
    sweep = phase_sweep(50, [0.4])
    with pytest.raises(ValueError):
        emit_results(sweep, tmp_path / "x.bin", "parquet")


# ---------------------------------------------------------------------------
# phase sweep


def test_phase_ratio_strictly_increasing():
    alphas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    sweep = phase_sweep(1000, alphas)
    ratios = [r.ratio for r in sweep.records]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r.ratio > 0 for r in sweep.records)


@pytest.mark.parametrize("alphas", [[], iter(())], ids=["list", "iterator"])
def test_phase_sweep_rejects_empty_grid(alphas):
    # an empty sweep would fail later in default_filename with an IndexError
    with pytest.raises(ValueError, match="^phase sweep needs at least one alpha$"):
        phase_sweep(50, alphas)


def test_phase_sweep_rejects_invalid_weight():
    with pytest.raises(ValueError) as err:
        phase_sweep(100, [0.1, 0.3], weight_c=2.0)
    assert str(err.value) == (
        "invalid model: beta=2.0 outside (0, 1]; constant weight c=2.0 outside (0, 1]"
    )


def test_phase_records_carry_closed_forms():
    sweep = phase_sweep(400, [0.3, 0.7])
    rec = sweep.records[0]
    assert rec.closed_sigma2_sq == pytest.approx(2 / 400**2.3, rel=1e-12)
    assert rec.closed_sigma_sq == rec.closed_sigma2_sq
    rec = sweep.records[1]
    assert rec.closed_sigma_sq == rec.closed_sigma1_sq


# ---------------------------------------------------------------------------
# decomposition


def test_decomposition_degenerate_for_homogeneous_triangles():
    m = er_model(40, alpha=0.3)
    rep = decomposition_check(m, STAT_TRIANGLES, 50, master_seed=8, workers=1)
    assert rep.degenerate_linear
    assert rep.correlation is None
    assert rep.regime == "sub_half"


@pytest.mark.parametrize("alpha, degenerate", [(0.3, True), (0.5, False)])
def test_constant_weight_triangle_decomposition_builds_no_triangle_constants(
    alpha, degenerate, monkeypatch
):
    # constant weights: delta is known to vanish without its n x n products,
    # so triangle_constants runs under no name it is bound to;
    # at alpha = 1/2 the cubic term alone is the leading term
    def no_constants(model):
        raise AssertionError("triangle_constants built")

    monkeypatch.setattr(theory_module, "triangle_constants", no_constants)
    monkeypatch.setattr(experiments, "triangle_constants", no_constants, raising=False)
    rep = decomposition_check(er_model(40, alpha=alpha), STAT_TRIANGLES, 50, master_seed=8, workers=1)
    assert rep.degenerate_linear is degenerate


def test_decomposition_rank_one_not_degenerate():
    n = 60
    m = ModelSpec(n=n, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    rep = decomposition_check(m, STAT_TRIANGLES, 60, master_seed=8, workers=1)
    assert not rep.degenerate_linear
    assert -1.0 <= rep.correlation <= 1.0
    assert rep.residual_var_fraction >= 0.0


def test_decomposition_super_half_clustering_smoke():
    m = er_model(80, alpha=0.7)
    rep = decomposition_check(m, STAT_CLUSTERING, 150, master_seed=13, workers=1)
    assert rep.regime == "super_half"
    assert rep.correlation > 0.3


def test_decomposition_half_regime_combines_terms():
    m = er_model(60, alpha=0.5)
    rep = decomposition_check(m, STAT_CLUSTERING, 40, master_seed=14, workers=1)
    assert rep.regime == "half"
    assert rep.correlation is not None


@pytest.mark.parametrize("stat", [STAT_CLUSTERING, STAT_TRIANGLES])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_decomposition_worker_pool_matches_single_process(stat, alpha):
    n = 60
    m = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, n)))
    r = 4  # two replicates per worker, so the pool is used
    rep1 = decomposition_check(m, stat, r, master_seed=31, workers=1)
    rep2 = decomposition_check(m, stat, r, master_seed=31, workers=2)
    assert not rep1.degenerate_linear
    assert rep2 == rep1


def test_decomposition_size_caps():
    # the cap guards the dense cubic leading terms of rank-one and dense weights
    for n, alpha, regime, cap in [(301, 0.7, "super_half", 300), (301, 0.5, "half", 300)]:
        w = RankOneWeights(np.linspace(0.5, 1.0, n))
        m = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=w)
        for stat in (STAT_CLUSTERING, STAT_TRIANGLES):
            with pytest.raises(ValueError) as err:
                decomposition_check(m, stat, 10, master_seed=0)
            assert str(err.value) == f"decomposition at regime {regime} caps n at {cap}, got {n}"


@pytest.mark.parametrize("stat", [STAT_CLUSTERING, STAT_TRIANGLES])
def test_rank_one_sub_half_decomposition_has_no_cap(stat, monkeypatch):
    # the linear term gathers its coefficients at the edges: no dense A - M
    def no_dense(self):
        raise AssertionError("dense adjacency formed")

    monkeypatch.setattr(Graph, "adjacency_dense", no_dense)
    n = 2001
    m = ModelSpec(n=n, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    rep = decomposition_check(m, stat, 3, master_seed=0, workers=1)
    assert rep.regime == "sub_half" and not rep.degenerate_linear
    assert np.all(np.isfinite(rep.leading)) and np.ptp(rep.leading) > 0.0


@pytest.mark.parametrize("stat", [STAT_CLUSTERING, STAT_TRIANGLES])
def test_constant_weight_decomposition_forms_no_dense_adjacency(stat, monkeypatch):
    # constant weights read the graph's counts, so n lies above the dense caps
    def no_dense(self):
        raise AssertionError("dense adjacency formed")

    monkeypatch.setattr(Graph, "adjacency_dense", no_dense)
    rep = decomposition_check(er_model(1000, alpha=0.7), stat, 4, master_seed=3, workers=1)
    assert rep.regime == "super_half"
    assert np.all(np.isfinite(rep.leading)) and np.ptp(rep.leading) > 0.0


def test_constant_weight_runs_never_build_mu_matrix(monkeypatch):
    # the runs read rows, row sums and the zero-stride pair vector: O(n) model state
    def no_matrix(self):
        raise AssertionError("mu_matrix built")

    monkeypatch.setattr(ModelSpec, "mu_matrix", property(no_matrix))
    n = 2000
    assert validate(er_model(n, alpha=0.7)).ok
    for stat in (STAT_CLUSTERING, STAT_TRIANGLES):
        run_mc(er_model(n, alpha=0.7), stat, 2, master_seed=1, workers=1)
        for alpha in (0.3, 0.5, 0.7):  # each regime
            decomposition_check(er_model(n, alpha=alpha), stat, 2, master_seed=1, workers=1)
    assert len(phase_sweep(n, [0.3, 0.5, 0.7]).records) == 3


def _dense_twin(model: ModelSpec) -> ModelSpec:
    """The model with its constant weights given as an explicit dense matrix:
    the same pair probabilities and graphs, evaluated on the dense path."""
    w = np.full((model.n, model.n), float(model.weights.c))
    np.fill_diagonal(w, 0.0)
    return dataclasses.replace(model, weights=DenseWeights(w))


@pytest.mark.parametrize("n", [12, 60, 300])
@pytest.mark.parametrize(
    "alpha, stat",
    [(0.7, STAT_CLUSTERING), (0.3, STAT_CLUSTERING), (0.5, STAT_CLUSTERING),
     (0.7, STAT_TRIANGLES)],
)
def test_constant_weight_terms_match_dense_evaluation(n, alpha, stat):
    # clustering cubic, linear and their sum at alpha = 1/2; triangle cubic
    m = er_model(n, alpha=alpha)
    exact = decomposition_check(m, stat, 4, master_seed=515, workers=1)
    dense = decomposition_check(_dense_twin(m), stat, 4, master_seed=515, workers=1)
    assert np.array_equal(exact.values, dense.values)
    np.testing.assert_allclose(exact.leading, dense.leading, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(
    "alpha, stat",
    [(0.7, STAT_CLUSTERING), (0.3, STAT_CLUSTERING), (0.5, STAT_CLUSTERING),
     (0.7, STAT_TRIANGLES)],
)
def test_constant_weight_terms_are_correctly_rounded(alpha, stat):
    # each leading term is the float nearest its defining sum over the
    # rational b_ij = A_ij - mu, with mu, a and e the floats the model gives
    n, r = 12, 3
    m = er_model(n, alpha=alpha)
    mu, a, e = experiments._constant_scalars(m)
    rep = decomposition_check(m, stat, r, master_seed=515, workers=1)
    for k in range(r):
        adj = sample_graph(m, SeedSpec(515, k)).adjacency_dense()
        b = [[Fraction(int(adj[i, j])) - (mu if i != j else 0) for j in range(n)] for i in range(n)]
        triangles = sum(b[i][j] * b[j][l] * b[l][i] for i, j, l in itertools.combinations(range(n), 3))
        pairs = sum(b[i][j] for i, j in itertools.combinations(range(n), 2))
        if stat == STAT_TRIANGLES:
            expect = triangles / ((n - 1) * mu) ** 3
        else:
            cubic, linear = 6 * a * triangles / n, e * pairs / n
            expect = {0.7: cubic, 0.3: linear, 0.5: cubic + linear}[alpha]
        assert rep.leading[k] == float(expect)


def test_decomposition_rejects_invalid_model():
    m = ModelSpec(n=20, alpha=1.2, beta=0.5, weights=RankOneWeights(np.ones(19)))
    with pytest.raises(ValueError) as err:
        decomposition_check(m, STAT_CLUSTERING, 10, master_seed=0, workers=1)
    assert str(err.value) == (
        "invalid model: alpha=1.2 outside (0, 1); "
        "rank-one weight vector has shape (19,), expected (20,)"
    )


def test_decomposition_emission(tmp_path):
    m = er_model(40, alpha=0.7)
    rep = decomposition_check(m, STAT_CLUSTERING, 20, master_seed=5, workers=1)
    path = tmp_path / "dec.csv"
    emit_results(rep, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "replicate,value,leading"
    assert len(lines) == 21
    jpath = tmp_path / "dec.json"
    emit_results(rep, jpath, "json")
    doc = json.loads(jpath.read_text())
    assert doc["regime"] == "super_half"
    assert len(doc["values"]) == 20


def _leading_terms_literal(model, seed_master, r, stat_kind):
    """Literal-loop evaluation of the regime leading terms for one replicate."""
    import itertools

    from hetclust.sampling import SeedSpec, sample_graph
    from hetclust.theory import clustering_constants, triangle_constants

    g = sample_graph(model, SeedSpec(seed_master, r))
    n = model.n
    mu = np.asarray(model.mu_matrix)
    mu_i = np.asarray(model.mu)
    b = g.adjacency_dense() - mu
    if stat_kind == STAT_CLUSTERING:
        consts = clustering_constants(model)
        cubic = sum(
            (consts.a[i] + consts.a[j] + consts.a[k]) * b[i, j] * b[i, k] * b[j, k]
            for i, j, k in itertools.combinations(range(n), 3)
        ) * (2.0 / n)
        linear = sum(
            consts.e[i, j] * b[i, j] for i, j in itertools.combinations(range(n), 2)
        ) / n
    else:
        cubic = sum(
            b[i, j] * b[j, k] * b[k, i] / (mu_i[i] * mu_i[j] * mu_i[k])
            for i, j, k in itertools.combinations(range(n), 3)
        )
        tc = triangle_constants(model)
        linear = sum(
            (tc.gamma[i, j] - (tc.eta[i] + tc.eta[j]) / 2) * b[i, j]
            for i, j in itertools.combinations(range(n), 2)
        )
    return cubic, linear


@pytest.mark.parametrize(
    "alpha,stat,pick",
    [
        (0.7, STAT_CLUSTERING, "cubic"),
        (0.3, STAT_CLUSTERING, "linear"),
        (0.5, STAT_CLUSTERING, "both"),
        (0.7, STAT_TRIANGLES, "cubic"),
    ],
)
def test_decomposition_leading_terms_match_literal_loops(alpha, stat, pick):
    m = er_model(12, alpha=alpha)
    rep = decomposition_check(m, stat, 3, master_seed=909, workers=1)
    for r in range(3):
        cubic, linear = _leading_terms_literal(m, 909, r, stat)
        expect = {"cubic": cubic, "linear": linear, "both": cubic + linear}[pick]
        assert rep.leading[r] == pytest.approx(expect, rel=1e-10, abs=1e-14)


def test_decomposition_linear_term_rank_one_matches_literal(rng):
    # the edge gather of the coefficients, separable (rank-one) or n x n
    # (dense), against the literal sum, for both statistics
    n = 12
    w = RankOneWeights(np.linspace(0.5, 1.0, n))
    for alpha, stat in itertools.product((0.3, 0.5), (STAT_CLUSTERING, STAT_TRIANGLES)):
        # the linear term alone, then with the cubic term
        rank1 = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=w)
        for m in (rank1, random_dense_model(n, rng, alpha=alpha)):
            rep = decomposition_check(m, stat, 3, master_seed=4242, workers=1)
            for r in range(3):
                cubic, linear = _leading_terms_literal(m, 4242, r, stat)
                expect = linear if alpha < 0.5 else cubic + linear
                assert rep.leading[r] == pytest.approx(expect, rel=1e-10, abs=1e-14)


def test_rank_one_triangle_linear_term_matches_extended_precision():
    # the linear term is 0.5 sum of delta_ij b_ij; with delta formed as
    # gamma - (eta_i + eta_j)/2 it was off by up to 2e-9 relative here
    n = 200
    m = ModelSpec(n=n, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    rep = decomposition_check(m, STAT_TRIANGLES, 20, master_seed=2, workers=1)
    delta = reference.delta_longdouble(m.mu_matrix)
    mu = np.asarray(m.mu_matrix, dtype=np.longdouble)
    for r in range(20):
        b = sample_graph(m, SeedSpec(2, r)).adjacency_dense().astype(np.longdouble) - mu
        assert rep.leading[r] == pytest.approx(float((delta * b).sum() / 2), rel=1e-10, abs=0)
