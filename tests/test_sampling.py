import math
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hetclust.model import ConstantWeights, DenseWeights, ModelSpec, RankOneWeights
from hetclust import sampling
from hetclust.pairs import n_pairs, pair_arrays, pairs_from_ranks
from hetclust.sampling import (
    Graph,
    SeedSpec,
    read_edgelist,
    sample_graph,
    write_edgelist,
)

from conftest import er_model, random_dense_model
from reference import edge_indicator_stream


def edge_set(g: Graph) -> set[tuple[int, int]]:
    rows, cols = g.edge_pairs()
    return set(zip(rows.tolist(), cols.tolist()))


def test_same_seed_identical_graphs():
    m = er_model(40, alpha=0.4)
    s = SeedSpec(123456789, 7)
    g1, g2 = sample_graph(m, s), sample_graph(m, s)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


def test_distinct_replicates_differ():
    m = er_model(40, alpha=0.4)
    g1 = sample_graph(m, SeedSpec(1, 0))
    g2 = sample_graph(m, SeedSpec(1, 1))
    assert edge_set(g1) != edge_set(g2)


def test_near_one_probability_gives_complete_graph():
    # mu_ij = 1 - 1e-9: all pairs present over 100 seeds
    n = 6
    alpha = -math.log1p(-1e-9) / math.log(n)
    m = ModelSpec(n=n, alpha=alpha, beta=1.0, weights=ConstantWeights(1.0))
    for r in range(100):
        g = sample_graph(m, SeedSpec(2024, r))
        assert g.n_edges == n_pairs(n)


def test_deviates_match_graph():
    m = er_model(25, alpha=0.5)
    seed = SeedSpec(99, 3)
    dev = edge_indicator_stream(m, seed)
    g = sample_graph(m, seed)
    iu, ju = pair_arrays(m.n)
    mu = m.mu_pairs()
    edges = edge_set(g)
    for k in range(n_pairs(m.n)):
        present = (int(iu[k]), int(ju[k])) in edges
        assert present == (dev[k] < mu[k])


def test_edge_count_mean_matches_binomial():
    n, alpha, reps = 200, 0.5, 500
    m = er_model(n, alpha=alpha)
    counts = np.array(
        [sample_graph(m, SeedSpec(777, r)).n_edges for r in range(reps)], dtype=float
    )
    p = n ** (-alpha)
    npairs = n_pairs(n)
    expected = npairs * p
    se = math.sqrt(npairs * p * (1 - p) / reps)
    assert abs(counts.mean() - expected) < 3 * se


def test_pooled_deviates_uniform():
    n = 50
    m = er_model(n, alpha=0.5)
    per = n_pairs(n)
    reps = math.ceil(100_000 / per)
    pooled = np.concatenate(
        [edge_indicator_stream(m, SeedSpec(5150, r)) for r in range(reps)]
    )[:100_000]
    x = np.sort(pooled)
    k = np.arange(1, len(x) + 1)
    ks = max(np.max(k / len(x) - x), np.max(x - (k - 1) / len(x)))
    assert ks < 0.01


def test_replicate_independence_edge_counts():
    n, reps = 50, 10_000
    m = er_model(n, alpha=0.5)
    counts = np.array(
        [sample_graph(m, SeedSpec(31337, r)).n_edges for r in range(reps)], dtype=float
    )
    r = np.corrcoef(counts[:-1], counts[1:])[0, 1]
    assert abs(r) < 0.05


def test_marginal_edge_frequency():
    # fixed pair (1, 4) at n=6 over 1e5 replicates
    n, reps = 6, 100_000
    w = np.full((n, n), 0.62)
    np.fill_diagonal(w, 0.0)
    m = ModelSpec(n=n, alpha=0.25, beta=0.6, weights=DenseWeights(w))
    mu = m.mu_matrix[1, 4]
    k = 0
    hits = 0
    from hetclust.pairs import pair_index

    idx = pair_index(1, 4, n)
    for r in range(reps):
        dev = edge_indicator_stream(m, SeedSpec(8080, r))
        hits += dev[idx] < mu
    freq = hits / reps
    assert abs(freq - mu) < 4 * math.sqrt(mu * (1 - mu) / reps)


def test_graph_accessors():
    g = Graph.from_edges(5, np.array([0, 0, 1]), np.array([1, 2, 2]))
    assert g.n_edges == 3
    assert g.degrees.tolist() == [2, 2, 2, 0, 0]
    assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [1, 2]


def scipy_csr(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of the symmetric adjacency as scipy builds them:
    both directions of every edge, repeats merged, rows sorted."""
    r, c = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    a = sp.coo_matrix((np.ones(len(r), dtype=np.int8), (r, c)), shape=(n, n)).tocsr()
    a.sort_indices()
    return a.indptr, a.indices


def assert_same_csr(g: Graph, indptr: np.ndarray, indices: np.ndarray) -> None:
    assert g.indptr.dtype == indptr.dtype == np.int32
    assert g.indices.dtype == indices.dtype == np.int32
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


def test_from_edges_matches_scipy_on_sampled_graphs():
    for n, alpha in ((300, 0.7), (1000, 0.3), (4000, 0.7)):
        m = er_model(n, alpha=alpha)
        rows, cols = pairs_from_ranks(np.flatnonzero(edge_indicator_stream(m, SeedSpec(6, 0)) < m.mu_pairs()), n)
        assert_same_csr(Graph.from_edges(n, rows, cols), *scipy_csr(n, rows, cols))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_edges_matches_scipy_in_any_order_with_repeats(data):
    n = data.draw(st.integers(2, 30), label="n")
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=3 * n), label="edges")
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    cols = np.array([e[1] for e in edges], dtype=np.int64)
    assert_same_csr(Graph.from_edges(n, rows, cols), *scipy_csr(n, rows, cols))


def test_from_edges_rejects_loops_and_foreign_nodes():
    with pytest.raises(ValueError, match="two distinct nodes"):
        Graph.from_edges(4, np.array([0, 2]), np.array([1, 2]))
    for rows, cols in (([0, 1], [1, 4]), ([-1], [2]), ([3, 0], [5, 1])):
        with pytest.raises(ValueError, match=r"must lie in \[0, 4\)"):
            Graph.from_edges(4, np.array(rows), np.array(cols))


def test_edgelist_round_trip(tmp_path):
    m = er_model(30, alpha=0.45)
    g = sample_graph(m, SeedSpec(4, 2))
    path = tmp_path / "graph.txt"
    write_edgelist(g, path)
    first = path.read_text().splitlines()[0]
    assert first == "n 30"
    back = read_edgelist(path)
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    # byte-identical on rewrite
    path2 = tmp_path / "graph2.txt"
    write_edgelist(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_empty_graph_is_valid():
    g = Graph.from_edges(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.n_edges == 0
    assert g.degrees.tolist() == [0] * 5


def test_read_edgelist_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nodes 4\n0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_edgelist(bad)
    bad.write_text("n 4\n3 1\n")
    with pytest.raises(ValueError, match="invalid edge"):
        read_edgelist(bad)
    bad.write_text("n 4\n0 1\n1 2\n0 1\n")
    with pytest.raises(ValueError, match=r"bad\.txt: duplicate edge \(0, 1\)"):
        read_edgelist(bad)


@pytest.mark.parametrize(
    "text, line",
    [("n 4\n0 1\n1 2 3\n", 3), ("n 4\n\nx 1\n", 3), ("n 4\n0 1\n2\n", 3),
     ("n four\n0 1\n", 1), ("n\n", 1), ("", 1), ("n -2\n0 1\n", 1)],
)
def test_read_edgelist_parse_error_names_file_and_line(tmp_path, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError) as err:
        read_edgelist(bad)
    message = str(err.value)
    assert message.startswith(f"{bad}:{line}: ")
    assert len(message.splitlines()) == 1


@pytest.mark.parametrize("master_seed", [-1, 2**63, 340282366920938463463374607431768211457])
def test_seed_outside_philox_key_range_rejected(master_seed):
    with pytest.raises(ValueError, match="master_seed"):
        SeedSpec(master_seed)


def test_seed_range_bounds_accepted():
    m = er_model(10, alpha=0.5)
    for master_seed in (0, 2**63 - 1):
        assert len(edge_indicator_stream(m, SeedSpec(master_seed))) == n_pairs(10)


def reference_edges(model: ModelSpec, seed: SeedSpec) -> set[tuple[int, int]]:
    """The sampler's contract: pair k is an edge iff u_k < mu_ij at its endpoints."""
    iu, ju = pair_arrays(model.n)
    mask = edge_indicator_stream(model, seed) < model.mu_matrix[iu, ju]
    return set(zip(iu[mask].tolist(), ju[mask].tolist()))


KINDS = ["constant", "rank1", "dense"]


def kind_model(kind: str, n: int) -> ModelSpec:
    if kind == "constant":
        return er_model(n, alpha=0.5)
    if kind == "rank1":
        return ModelSpec(n=n, alpha=0.5, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, n)))
    return random_dense_model(n, np.random.default_rng(n), alpha=0.5)


@pytest.mark.parametrize("n", [3, 7, 300])
@pytest.mark.parametrize("kind", KINDS)
def test_sample_graph_equals_reference(n, kind):
    m = kind_model(kind, n)
    empty = first_and_last = 0
    for r in range(40 if n < 300 else 5):
        seed = SeedSpec(4242, r)
        edges = edge_set(sample_graph(m, seed))
        assert edges == reference_edges(m, seed)
        empty += not edges
        first_and_last += (0, 1) in edges and (n - 2, n - 1) in edges
    if n == 3:
        # the boundary draws: no edge at all, and hits at ranks 0 and n(n-1)/2 - 1
        assert empty > 0
        assert first_and_last > 0


@pytest.mark.parametrize("block", [1, 7, 21])
@pytest.mark.parametrize("kind", KINDS)
def test_sample_graph_any_block_size_equals_reference(monkeypatch, kind, block):
    # n=7 has 21 pairs: blocks of one rank, a ragged last block, one exact block
    monkeypatch.setattr(sampling, "_BLOCK", block)
    m = kind_model(kind, 7)
    for r in range(40):
        seed = SeedSpec(4242, r)
        assert edge_set(sample_graph(m, seed)) == reference_edges(m, seed)


@pytest.mark.parametrize("n", [725, 1000])
@pytest.mark.parametrize("kind", KINDS)
def test_sample_graph_across_default_block_boundary(n, kind):
    assert sampling._BLOCK < n_pairs(n) < 2 * sampling._BLOCK
    m = kind_model(kind, n)
    for r in range(2):
        seed = SeedSpec(4242, r)
        assert edge_set(sample_graph(m, seed)) == reference_edges(m, seed)


def one_call_graph(model: ModelSpec, seed: SeedSpec) -> Graph:
    """The whole deviate stream thresholded at once against the pair vector."""
    hits = np.flatnonzero(edge_indicator_stream(model, seed) < model.mu_pairs())
    return Graph.from_edges(model.n, *pairs_from_ranks(hits, model.n))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_one_and_two_node_graphs_equal_one_call_draw(n, kind):
    m = kind_model(kind, n)
    for r in range(20):
        g, ref = sample_graph(m, SeedSpec(5, r)), one_call_graph(m, SeedSpec(5, r))
        assert g.n == ref.n == n
        for got, want in ((g.indptr, ref.indptr), (g.indices, ref.indices)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def traced_peak(call) -> int:
    """Peak bytes that numpy and Python allocate while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_graph_memory_is_one_block_not_all_pairs():
    # n=4000 has 8.0e6 pairs: 61 MiB of deviates drawn at once
    sample_graph(er_model(10, alpha=0.5), SeedSpec(1))  # warm the code path
    fresh = er_model(4000, alpha=0.7)
    assert traced_peak(lambda: sample_graph(fresh, SeedSpec(1))) < 8 * 2**20
    # constant weights: a pair vector that holds one float, and no n x n matrix
    assert fresh.mu_pairs().strides == (0,)
    assert "mu_matrix" not in fresh.__dict__
    rank1 = ModelSpec(
        n=4000, alpha=0.7, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, 4000))
    )
    rank1.mu_pairs()
    assert traced_peak(lambda: sample_graph(rank1, SeedSpec(1))) < 8 * 2**20


def test_sampling_survives_model_pickle():
    rank1 = ModelSpec(
        n=4000, alpha=0.7, beta=0.5,
        weights=RankOneWeights(np.random.default_rng(4).uniform(0.5, 1, 4000)),
    )
    # the payload carries the weights, never the cached arrays
    for m, max_bytes in ((er_model(4000, alpha=0.7), 10_000), (rank1, 10_000 + 8 * 4000)):
        g = sample_graph(m, SeedSpec(11, 0))
        payload = pickle.dumps(m)
        assert len(payload) < max_bytes
        back = pickle.loads(payload)
        g2 = sample_graph(back, SeedSpec(11, 0))
        # constant and rank-one weights sample without the n x n matrix
        assert "mu_matrix" not in back.__dict__
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        # reference: threshold against the pair vector gathered from mu_matrix
        gathered = m.mu_matrix[np.triu(np.ones((m.n, m.n), dtype=bool), 1)]
        hits = np.flatnonzero(edge_indicator_stream(m, SeedSpec(11, 0)) < gathered)
        ref = Graph.from_edges(m.n, *pairs_from_ranks(hits, m.n))
        assert np.array_equal(g2.indptr, ref.indptr)
        assert np.array_equal(g2.indices, ref.indices)
