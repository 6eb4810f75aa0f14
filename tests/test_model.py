import dataclasses
import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclust.model import (
    ConstantWeights,
    DenseWeights,
    ModelSpec,
    RankOneWeights,
    load_dense_csv,
    model_from_json,
    validate,
)
from hetclust.pairs import pair_arrays

from conftest import er_model, random_dense_model


def test_edge_prob_constant_weights():
    m = ModelSpec(n=100, alpha=0.5, beta=0.5, weights=ConstantWeights(0.5))
    assert m.mu_matrix[0, 1] == pytest.approx(0.05, abs=1e-15)


def test_edge_prob_zero_diagonal(rng):
    for m in (er_model(10, alpha=0.4), random_dense_model(6, rng)):
        for i in range(m.n):
            assert m.mu_matrix[i, i] == 0.0


def test_edge_prob_rank_one():
    m = ModelSpec(n=4, alpha=0.5, beta=0.5, weights=RankOneWeights([1, 1, 0.5, 0.5]))
    assert m.mu_matrix[2, 3] == pytest.approx(0.125, rel=1e-15)


def test_expected_degree_homogeneous():
    n, alpha = 30, 0.4
    m = er_model(n, alpha=alpha)
    assert m.mu[3] == pytest.approx((n - 1) * n ** (-alpha), rel=1e-13)


def test_expected_degree_half_probability():
    m = er_model(4, p=0.5)
    for i in range(4):
        assert m.mu[i] == pytest.approx(1.5, rel=1e-13)


def test_expected_degree_rank_one():
    m = ModelSpec(n=4, alpha=0.5, beta=0.5, weights=RankOneWeights([1, 1, 0.5, 0.5]))
    assert m.mu[0] == pytest.approx(1.0, rel=1e-13)


def test_expected_degree_sums_edge_probs(rng):
    m = random_dense_model(7, rng)
    for i in range(m.n):
        total = sum(m.p * m.weights.matrix_values[i, j] for j in range(m.n))
        assert abs(m.mu[i] - total) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_edge_prob_symmetric(i, j):
    m = random_dense_model(8, np.random.default_rng(1))
    assert m.mu_matrix[i, j] == m.mu_matrix[j, i]


def test_rank_one_constant_equivalence():
    n, c = 9, 0.7
    rank1 = ModelSpec(n=n, alpha=0.3, beta=c, weights=RankOneWeights(np.full(n, c)))
    const = ModelSpec(n=n, alpha=0.3, beta=c * c, weights=ConstantWeights(c * c))
    assert np.array_equal(rank1.mu_matrix, const.mu_matrix)


def test_validate_accepts_er():
    report = validate(er_model(50, alpha=0.4))
    assert report.ok
    assert report.flags == []


def test_validate_rejects_asymmetric_dense():
    w = np.full((4, 4), 0.5)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = 0.6  # w[1, 0] stays 0.5
    report = validate(ModelSpec(n=4, alpha=0.5, beta=0.4, weights=DenseWeights(w)))
    assert any("asymmetric" in v for v in report.violations)


def test_validate_flags_subcritical_degree():
    m = ModelSpec(n=4, alpha=0.9, beta=0.1, weights=ConstantWeights(0.1))
    report = validate(m)
    assert report.ok
    assert len(report.flags) == 1
    assert "expected degree <= 1" in report.flags[0]
    assert report.min_expected_degree == pytest.approx(3 * 4 ** (-0.9) * 0.1, rel=1e-12)


def test_validate_ranges():
    report = validate(ModelSpec(n=10, alpha=1.5, beta=0.5, weights=ConstantWeights(0.5)))
    assert not report.ok
    report = validate(ModelSpec(n=10, alpha=0.5, beta=0.5, weights=ConstantWeights(1.5)))
    assert report.violations == ["constant weight c=1.5 outside (0, 1]"]
    report = validate(ModelSpec(n=10, alpha=0.5, beta=0.5, weights=ConstantWeights(0.3)))
    assert report.violations == ["constant weight c=0.3 below beta=0.5"]  # as rank-one [0.3]*10
    report = validate(ModelSpec(n=10, alpha=0.5, beta=0.5, weights=RankOneWeights(np.full(10, 0.2))))
    assert not report.ok  # below beta
    w = np.full(10, 0.7)
    w[3] = np.nan
    report = validate(ModelSpec(n=10, alpha=0.5, beta=0.5, weights=RankOneWeights(w)))
    assert report.violations == ["rank-one weight entries must lie in [beta, 1]"]


def test_validate_reports_mu_range(rng):
    m = random_dense_model(6, rng)
    report = validate(m)
    off = m.mu_matrix[~np.eye(6, dtype=bool)]
    assert report.min_mu == pytest.approx(off.min())
    assert report.max_mu == pytest.approx(off.max())


def test_model_json_round_trip(tmp_path, rng):
    dense = random_dense_model(5, rng)
    w = np.linspace(0.5, 1, 5)
    for m, weights in (
        (er_model(12, alpha=0.45, c=0.8), {"kind": "constant", "c": 0.8}),
        (ModelSpec(n=5, alpha=0.3, beta=0.5, weights=RankOneWeights(w)), {"kind": "rank1", "w": w.tolist()}),
        (dense, {"kind": "dense", "W": dense.weights.matrix_values.tolist()}),
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": m.n, "alpha": m.alpha, "beta": m.beta, "weights": weights}))
        back = model_from_json(path)
        assert back.n == m.n and back.alpha == m.alpha and back.beta == m.beta
        assert np.allclose(back.mu_matrix, m.mu_matrix, rtol=0, atol=0)


def test_validate_copies_no_pair_matrix():
    m = er_model(2000, alpha=0.6)
    m.mu_matrix, m.mu  # cached, as after any earlier use of the model
    tracemalloc.start()
    try:
        report = validate(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.min_mu == report.max_mu == m.p
    # an off-diagonal copy alone would take 2000 * 1999 * 8 bytes (30.5 MiB)
    assert peak < 2 * 2**20


def test_validate_builds_no_pair_vector(rng):
    w = rng.uniform(0.3, 1, 2000)
    rank1 = ModelSpec(n=2000, alpha=0.6, beta=0.3, weights=RankOneWeights(w))
    tied = RankOneWeights(np.repeat([0.5, 0.75, 1.0], [2, 46, 2]))  # ties at both ends
    ties = ModelSpec(n=50, alpha=0.4, beta=0.5, weights=tied)
    for m in (rank1, ties, random_dense_model(300, rng), er_model(2000, alpha=0.6, c=0.7)):
        report = validate(m)
        assert report.ok
        assert "_mu_pairs" not in m.__dict__
        pairs = m.mu_pairs()
        assert (report.min_mu, report.max_mu) == (float(pairs.min()), float(pairs.max()))


def test_model_json_grid_and_csv(tmp_path):
    w = np.full((4, 4), 0.75)
    np.fill_diagonal(w, 0.0)
    csv = tmp_path / "w.csv"
    np.savetxt(csv, w, delimiter=",")
    cfg = {"n": 4, "alpha": 0.4, "beta": 0.7, "weights": {"kind": "dense", "csv": str(csv)}}
    m = model_from_json(cfg)
    assert np.array_equal(m.weights.matrix_values, w)

    cfg = {"n": 6, "alpha": 0.4, "beta": 0.5, "weights": {"kind": "rank1", "grid": [0.5, 1.0]}}
    m = model_from_json(cfg)
    assert np.allclose(m.weights.w, np.linspace(0.5, 1.0, 6))


@pytest.mark.parametrize("key", ["n", "alpha", "beta", "weights", "c"])
def test_model_json_missing_key_is_value_error(tmp_path, key):
    cfg = {"n": 6, "alpha": 0.4, "beta": 0.5, "weights": {"kind": "constant", "c": 1.0}}
    del (cfg["weights"] if key == "c" else cfg)[key]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"m.json: model config lacks key '{key}'"):
        model_from_json(path)


@pytest.mark.parametrize(
    "weights, key",
    [(5, "weights"), ([1], "weights"), ({"kind": "rank1", "grid": 5}, "grid"),
     ({"kind": "rank1", "grid": [0.5, 0.7, 1.0]}, "grid"),
     # valid weights under a non-integral, a non-numeric and a boolean n
     *(pytest.param({"kind": "constant", "c": 1.0}, ("n", bad), id=f"n={bad!r}")
       for bad in (100.7, "six", True)),
     # a non-numeric, null or boolean alpha, beta, c or w
     *(pytest.param({"kind": "constant", "c": 1.0}, (key, bad), id=f"{key}={bad!r}")
       for key in ("alpha", "beta") for bad in ("abc", None, True)),
     *(pytest.param({"kind": "constant", "c": bad}, "c", id=f"c={bad!r}")
       for bad in ("abc", None, False)),
     *(pytest.param({"kind": "rank1", "w": bad}, "w", id=f"w={bad!r}")
       for bad in (["abc", 0.5], None, [0.5, None], [[0.5], [0.5, 0.6]], "0.5")),
     # a bool is an int to Python, but no weight: neither true nor false
     pytest.param({"kind": "rank1", "grid": [True, 1]}, "grid", id="grid=[True, 1]"),
     pytest.param({"kind": "rank1", "w": [0.5, True, 1]}, "w", id="w=[0.5, True, 1]"),
     *(pytest.param({"kind": "dense", "W": bad}, "W", id=f"W={bad!r}")
       for bad in ([["a"]], [[0.0, 0.5], [0.5]], [[0.0, False], [False, 0.0]], [0.5, 0.5]))],
)
def test_model_json_malformed_weights_is_value_error(tmp_path, weights, key):
    cfg = {"n": 6, "alpha": 0.4, "beta": 0.5, "weights": weights}
    if isinstance(key, tuple):  # a malformed top-level entry: (its key, its value)
        key, value = key
        cfg[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"m.json: model config key '{key}' must be"):
        model_from_json(path)


def test_load_dense_csv_shape(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0,0.5\n0.5,0\n")
    assert load_dense_csv(path).shape == (2, 2)


def test_mu_pairs_is_read_only_gather(rng):
    for m in (
        er_model(9, alpha=0.4),
        er_model(9, alpha=0.55, c=0.37),
        ModelSpec(n=8, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, 8))),
        # rank-one vectors are built row by row, without mu_matrix
        ModelSpec(n=300, alpha=0.6, beta=0.3, weights=RankOneWeights(rng.uniform(0.3, 1, 300))),
        random_dense_model(7, rng),
    ):
        iu, ju = pair_arrays(m.n)
        v = m.mu_pairs()
        assert np.array_equal(v, m.mu_matrix[iu, ju])
        assert v is m.mu_pairs()
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.5


def test_pickle_drops_cached_arrays(rng):
    rank1 = ModelSpec(n=30, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, 30)))
    for m in (er_model(30, alpha=0.4), rank1, random_dense_model(6, rng)):
        m.mu_matrix, m.mu, m.mu_pairs(), m.mu_sha1  # fill every cache before pickling
        back = pickle.loads(pickle.dumps(m))
        assert set(back.__dict__) == {"n", "alpha", "beta", "weights"}
        assert np.array_equal(back.mu_matrix, m.mu_matrix)
        assert np.array_equal(back.mu_pairs(), m.mu_pairs())
        assert back.mu_sha1 == m.mu_sha1


def _whole_matrix_formulas(m: ModelSpec) -> tuple:
    """mu_matrix, mu, the pair vector and mu_sha1 by way of the whole n x n
    weight matrix: p times the matrix, its row sums, its upper triangle
    gathered in row-major order, and the hash of its buffer."""
    w = m.weights
    if isinstance(w, DenseWeights):
        full = w.matrix_values
    else:
        full = np.outer(w.w, w.w) if isinstance(w, RankOneWeights) else np.full((m.n, m.n), float(w.c))
        np.fill_diagonal(full, 0.0)
    mu_matrix = m.p * full
    pairs = mu_matrix[np.triu(np.ones((m.n, m.n), dtype=bool), 1)]
    return mu_matrix, mu_matrix.sum(axis=1), pairs, hashlib.sha1(mu_matrix).hexdigest()


@pytest.mark.parametrize("n", [3, 50, 301])
def test_row_built_values_equal_whole_matrix_formulas(n, rng):
    for m in (
        er_model(n, alpha=0.45, c=0.8),
        ModelSpec(n=n, alpha=0.6, beta=0.3, weights=RankOneWeights(rng.uniform(0.3, 1, n))),
        random_dense_model(n, rng),
    ):
        mu_matrix, mu, pairs, digest = _whole_matrix_formulas(m)
        # bit for bit, each value on a copy of the model that has cached nothing
        assert dataclasses.replace(m).mu_matrix.tobytes() == mu_matrix.tobytes()
        assert dataclasses.replace(m).mu.tobytes() == mu.tobytes()
        assert np.ascontiguousarray(dataclasses.replace(m).mu_pairs()).tobytes() == pairs.tobytes()
        assert dataclasses.replace(m).mu_sha1 == digest
