import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetclust
from hetclust import stats
from hetclust.oracle import graph_from_code
from hetclust.pairs import n_pairs, pairs_from_ranks
from hetclust.sampling import Graph, SeedSpec, sample_graph
from hetclust.stats import (
    _BLOCK_FLOATS,
    _DENSE_MAX_N,
    _DENSE_MIN_FILL,
    _MAX_DEGREE,
    _WEIGHTED_DENSE_MIN_FILL,
    _takes_dense,
    avg_clustering,
    triangle_profile,
    weighted_triangle_sum,
)

import reference
from conftest import er_model


def complete_graph(n: int) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    return Graph.from_edges(n, iu, ju)


def path_graph() -> Graph:
    return Graph.from_edges(3, np.array([0, 1]), np.array([1, 2]))


def test_triangle_profile_k3():
    prof = triangle_profile(complete_graph(3))
    assert prof.t.tolist() == [2, 2, 2]
    assert prof.d.tolist() == [2, 2, 2]


def test_triangle_profile_path():
    prof = triangle_profile(path_graph())
    assert prof.t.tolist() == [0, 0, 0]


def test_triangle_profile_k4():
    prof = triangle_profile(complete_graph(4))
    assert prof.t.tolist() == [6, 6, 6, 6]


def test_avg_clustering_extremes():
    assert avg_clustering(complete_graph(3)) == 1.0
    assert avg_clustering(path_graph()) == 0.0


def test_weighted_triangle_sum_k4():
    assert weighted_triangle_sum(complete_graph(4)) == pytest.approx(4 / 27, rel=1e-15)


def test_weighted_triangle_sum_triangle_free():
    g = Graph.from_edges(6, np.array([0, 1, 2]), np.array([3, 4, 5]))
    assert weighted_triangle_sum(g) == 0.0


def test_avg_clustering_zero_convention_for_low_degree():
    # triangle {0, 1, 2} plus pendant node 3 on node 0: local values
    # 1/3, 1, 1 and 0 for the degree-1 node, which still counts in the mean
    g = Graph.from_edges(4, np.array([0, 0, 1, 0]), np.array([1, 2, 2, 3]))
    assert avg_clustering(g) == pytest.approx(7 / 12, rel=1e-15)


def test_all_graphs_n4_match_direct_definition():
    for code in range(1 << n_pairs(4)):
        g = graph_from_code(4, code)
        adj = g.adjacency_dense()
        assert avg_clustering(g) == pytest.approx(
            reference.avg_clustering_direct(adj), rel=1e-14, abs=1e-300
        )
        assert weighted_triangle_sum(g) == pytest.approx(
            reference.weighted_triangle_sum_direct(adj), rel=1e-14, abs=1e-300
        )


def test_random_graphs_n5_match_direct_definition(rng):
    for code in rng.integers(0, 1 << n_pairs(5), size=64):
        g = graph_from_code(5, int(code))
        adj = g.adjacency_dense()
        prof = triangle_profile(g)
        assert np.array_equal(prof.t, reference.ordered_triangle_counts(adj))
        assert weighted_triangle_sum(g) == pytest.approx(
            reference.weighted_triangle_sum_direct(adj), rel=1e-14, abs=1e-300
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**15 - 1), st.randoms(use_true_random=False))
def test_relabeling_invariance(code, pyrandom):
    n = 6
    g = graph_from_code(n, code)
    perm = list(range(n))
    pyrandom.shuffle(perm)
    rows, cols = g.edge_pairs()
    p = np.asarray(perm)
    pr, pc = p[rows], p[cols]
    relabeled = Graph.from_edges(n, np.minimum(pr, pc), np.maximum(pr, pc))
    assert avg_clustering(relabeled) == pytest.approx(avg_clustering(g), rel=1e-13, abs=0)
    assert weighted_triangle_sum(relabeled) == pytest.approx(
        weighted_triangle_sum(g), rel=1e-13, abs=0
    )


def test_statistic_ranges_and_triangle_identity():
    m = er_model(30, alpha=0.3)
    for r in range(8):
        g = sample_graph(m, SeedSpec(11, r))
        assert 0.0 <= avg_clustering(g) <= 1.0
        assert weighted_triangle_sum(g) >= 0.0
        prof = triangle_profile(g)
        assert np.all(prof.t <= prof.d * (prof.d - 1))
        assert np.all(prof.t % 2 == 0)
        # total equals 6x the unordered triangle count
        adj = g.adjacency_dense()
        tri = sum(
            adj[i, j] * adj[j, k] * adj[k, i]
            for i, j, k in itertools.combinations(range(g.n), 3)
        )
        assert prof.t.sum() == 6 * tri


def test_complete_graph_formulas():
    for n in (4, 5, 6, 7):
        g = complete_graph(n)
        assert avg_clustering(g) == 1.0
        expect = math.comb(n, 3) / (n - 1) ** 3
        assert weighted_triangle_sum(g) == pytest.approx(expect, rel=1e-14)


def test_statistics_on_empty_graph():
    g = Graph.from_edges(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert avg_clustering(g) == 0.0
    assert weighted_triangle_sum(g) == 0.0


# ---------------------------------------------------------------------------
# triangle counts from the two per-edge sum kernels


def kernel_counts(g: Graph) -> np.ndarray:
    """t from the sparse, then the dense kernel, each in chunks or blocks of
    its own size and of a few rows, asserted equal; also what the profile
    reports."""
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        for fill in (math.inf, 0.0):
            mp.setattr(stats, "_DENSE_MIN_FILL", fill)
            assert _takes_dense(g, stats._DENSE_MIN_FILL) is (fill == 0.0)
            for block_floats in (_BLOCK_FLOATS, 2 * g.n):
                mp.setattr(stats, "_BLOCK_FLOATS", block_floats)
                counts.append(triangle_profile(g).t)
    t = counts[0]
    assert t.dtype == np.int64
    for other in counts[1:]:
        assert np.array_equal(other, t)
    assert np.array_equal(triangle_profile(g).t, t)
    return t


def networkx_counts(g: Graph) -> np.ndarray:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(zip(*(x.tolist() for x in g.edge_pairs())))
    tri = nx.triangles(ref)
    return 2 * np.array([tri[i] for i in range(g.n)], dtype=np.int64)


def graph_with_edges(n: int, m: int, seed: int) -> Graph:
    """Uniformly random graph with exactly m edges."""
    ranks = np.sort(np.random.default_rng(seed).choice(n_pairs(n), size=m, replace=False))
    return Graph.from_edges(n, *pairs_from_ranks(ranks, n))


def test_kernels_agree_on_every_graph_n4_n5():
    for n in (4, 5):
        for code in range(1 << n_pairs(n)):
            g = graph_from_code(n, code)
            t = kernel_counts(g)
            assert np.array_equal(t, reference.ordered_triangle_counts(g.adjacency_dense()))


@pytest.mark.parametrize("alpha, dense", [(0.7, False), (0.3, True)])
def test_kernels_agree_with_networkx_n2000(alpha, dense):
    g = sample_graph(er_model(2000, alpha=alpha), SeedSpec(29, 0))
    assert _takes_dense(g, _DENSE_MIN_FILL) is dense
    assert np.array_equal(kernel_counts(g), networkx_counts(g))


def test_kernel_switch_point():
    n = 300
    # the fewest edges whose fill 2m / (n(n-1)) reaches the cutoff
    m_switch = math.ceil(_DENSE_MIN_FILL * n_pairs(n))
    below, above = graph_with_edges(n, m_switch - 1, 1), graph_with_edges(n, m_switch, 2)
    assert not _takes_dense(below, _DENSE_MIN_FILL)
    assert _takes_dense(above, _DENSE_MIN_FILL)
    for g in (below, above):
        assert np.array_equal(kernel_counts(g), networkx_counts(g))


def test_dense_kernel_size_cap():
    # fill above the cutoff on both sides of the cap: only n decides
    m = math.ceil(_DENSE_MIN_FILL * n_pairs(_DENSE_MAX_N + 1))
    assert _takes_dense(graph_with_edges(_DENSE_MAX_N, m, 3), _DENSE_MIN_FILL)
    assert not _takes_dense(graph_with_edges(_DENSE_MAX_N + 1, m, 3), _DENSE_MIN_FILL)


def test_avg_clustering_identical_under_either_kernel(monkeypatch):
    g = sample_graph(er_model(1000, alpha=0.2), SeedSpec(5, 0))
    assert _takes_dense(g, stats._DENSE_MIN_FILL)
    dense_value = avg_clustering(g)
    monkeypatch.setattr(stats, "_DENSE_MIN_FILL", math.inf)
    assert not _takes_dense(g, stats._DENSE_MIN_FILL)
    assert avg_clustering(g) == dense_value


def test_dense_counts_hold_one_copy_of_the_adjacency():
    # the dense kernel forms only the upper triangle of A @ A, in blocks of
    # _BLOCK_FLOATS entries: no second n x n float32 array
    n = 2000
    g = sample_graph(er_model(n, alpha=0.3), SeedSpec(29, 0))
    assert _takes_dense(g, _DENSE_MIN_FILL)
    g.degrees  # cached before tracing
    tracemalloc.start()
    try:
        avg_clustering(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 copy of A, plus the edge lists and one block
    assert peak < 1.5 * n * n * 4


@pytest.mark.parametrize("fill", [0.0, math.inf])
def test_statistics_on_graphs_with_few_nodes_or_no_edges(fill, monkeypatch):
    monkeypatch.setattr(stats, "_DENSE_MIN_FILL", fill)
    monkeypatch.setattr(stats, "_WEIGHTED_DENSE_MIN_FILL", fill)
    none = np.array([], dtype=np.int64)
    edge = (np.array([0]), np.array([1]))
    graphs = [
        Graph.from_edges(1, none, none),
        Graph.from_edges(2, none, none),
        Graph.from_edges(2, *edge),
        Graph.from_edges(5, none, none),
        Graph.from_edges(5, *edge),
    ]
    for g in graphs:
        assert _takes_dense(g, fill) is (fill == 0.0)
        prof = triangle_profile(g)
        assert prof.t.dtype == np.int64
        assert prof.t.tolist() == [0] * g.n
        assert avg_clustering(g) == 0.0
        assert weighted_triangle_sum(g) == 0.0
    # no nodes: the mean over nodes is undefined
    g = Graph.from_edges(0, none, none)
    assert _takes_dense(g, fill) is (fill == 0.0)
    assert triangle_profile(g).t.dtype == np.int64
    assert triangle_profile(g).t.tolist() == []
    with pytest.raises(ValueError) as err:
        avg_clustering(g)
    assert str(err.value) == "average clustering is undefined on a graph with no nodes"
    assert weighted_triangle_sum(g) == 0.0


# ---------------------------------------------------------------------------
# the two weighted-sum kernels: exact per-edge sums, so the same float


def weighted_by_kernel(g: Graph, monkeypatch) -> list[float]:
    """The weighted triangle sum from the dense, then the sparse kernel, each
    in its own blocks and in blocks of a few rows."""
    values = []
    for fill in (0.0, math.inf):
        monkeypatch.setattr(stats, "_WEIGHTED_DENSE_MIN_FILL", fill)
        assert _takes_dense(g, stats._WEIGHTED_DENSE_MIN_FILL) is (fill == 0.0)
        for block_floats in (_BLOCK_FLOATS, 6 * g.n):
            monkeypatch.setattr(stats, "_BLOCK_FLOATS", block_floats)
            values.append(weighted_triangle_sum(g))
    return values


def assert_kernels_exact(g: Graph, monkeypatch) -> None:
    exact = reference.weighted_triangle_sum_exact(g.adjacency_dense())
    assert weighted_by_kernel(g, monkeypatch) == [exact] * 4


def test_weighted_kernels_exact_on_every_graph_n4_n5(monkeypatch):
    for n in (4, 5):
        for code in range(1 << n_pairs(n)):
            assert_kernels_exact(graph_from_code(n, code), monkeypatch)


@pytest.mark.parametrize(
    "n, fill",
    [(60, 0.3), (60, 0.9), (150, 0.04), (150, 0.2), (300, 0.02), (300, 0.1), (300, 0.5)],
)
def test_weighted_kernels_exact_on_random_graphs(n, fill, monkeypatch):
    assert_kernels_exact(graph_with_edges(n, round(fill * n_pairs(n)), n), monkeypatch)


def test_weighted_kernels_exact_with_hubs_and_degree_two_nodes(monkeypatch):
    # nodes 0 and 1 join every node (degree n - 1), nodes 2..149 join only
    # them (degree 2) and nodes 150..299 also join half of each other, so
    # 1/d spans exponents from -1 to -9
    n, rng = 300, np.random.default_rng(7)
    adj = np.zeros((n, n), dtype=bool)
    adj[:2] = True
    rest = np.arange(150, n)
    adj[np.ix_(rest, rest)] = rng.random((len(rest), len(rest))) < 0.5
    adj = np.triu(adj | adj.T, 1)
    g = Graph.from_edges(n, *np.nonzero(adj))
    d = g.degrees
    assert d[:2].tolist() == [n - 1, n - 1] and np.all(d[2:150] == 2)
    assert_kernels_exact(g, monkeypatch)


def test_weighted_kernel_switch_point(monkeypatch):
    n = 300
    m_switch = math.ceil(_WEIGHTED_DENSE_MIN_FILL * n_pairs(n))
    below, above = graph_with_edges(n, m_switch - 1, 4), graph_with_edges(n, m_switch, 5)
    assert not _takes_dense(below, _WEIGHTED_DENSE_MIN_FILL)
    assert _takes_dense(above, _WEIGHTED_DENSE_MIN_FILL)
    for g in (below, above):
        exact = reference.weighted_triangle_sum_exact(g.adjacency_dense())
        assert weighted_triangle_sum(g) == exact


def test_weighted_sum_rejects_degree_at_bound():
    star = Graph.from_edges(
        _MAX_DEGREE + 1, np.zeros(_MAX_DEGREE, dtype=np.int64), np.arange(1, _MAX_DEGREE + 1)
    )
    with pytest.raises(ValueError, match=f"every degree below {_MAX_DEGREE}; the largest is {_MAX_DEGREE}"):
        weighted_triangle_sum(star)


def test_weighted_sum_same_bytes_under_one_and_two_blas_threads():
    # the per-edge sums too: a plain dgemm changes some of them with the
    # thread count while the rounded total may not show it
    script = (
        "import hashlib\n"
        "from hetclust import stats\n"
        "from hetclust.model import ConstantWeights, ModelSpec\n"
        "from hetclust.sampling import SeedSpec, sample_graph\n"
        "m = ModelSpec(n=1000, alpha=0.2, beta=1.0, weights=ConstantWeights(1.0))\n"
        "g = sample_graph(m, SeedSpec(5, 0))\n"
        "assert stats._takes_dense(g, stats._WEIGHTED_DENSE_MIN_FILL)\n"
        "split = stats._split_inverse_degrees(g.degrees.astype(float))\n"
        "q = stats._edge_sums_dense(g, *split)[2]\n"
        "print(hashlib.sha256(q.tobytes()).hexdigest())\n"
        "print(repr(stats.weighted_triangle_sum(g)))\n"
    )
    src = str(Path(hetclust.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# the triangle listing behind the sparse kernel


def listed(g: Graph, monkeypatch, dense_max_n: int = _DENSE_MAX_N) -> tuple[np.ndarray, float]:
    """t and the weighted sum from the listing, on a copy of g that keeps no
    listing yet; a dense_max_n below g.n takes the plain wedge lookup."""
    monkeypatch.setattr(stats, "_DENSE_MIN_FILL", math.inf)
    monkeypatch.setattr(stats, "_WEIGHTED_DENSE_MIN_FILL", math.inf)
    monkeypatch.setattr(stats, "_DENSE_MAX_N", dense_max_n)
    fresh = Graph(g.n, g.indptr, g.indices)
    return triangle_profile(fresh).t, weighted_triangle_sum(fresh)


def weighted_sum_networkx(g: Graph) -> float:
    """The weighted triangle sum with correctly rounded per-edge sums, as in
    `reference.weighted_triangle_sum_exact`, over networkx's common
    neighbours: no dense adjacency, for graphs beyond the dense cap."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(zip(*(x.tolist() for x in g.edge_pairs())))
    d = g.degrees.tolist()
    contrib = []
    for i, j in ref.edges():
        q = sum((Fraction(1.0 / d[k]) for k in nx.common_neighbors(ref, i, j)), Fraction(0))
        contrib.append(float(q) / (d[i] * d[j]))
    return math.fsum(contrib) / 3.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_listing_matches_networkx_dense_kernel_and_exact_sum(data):
    n = data.draw(st.integers(1, 40), label="n")
    ranks = data.draw(st.sets(st.integers(0, max(n_pairs(n) - 1, 0)), max_size=n_pairs(n)), label="ranks")
    g = Graph.from_edges(n, *pairs_from_ranks(np.array(sorted(ranks), dtype=np.int64), n))
    expect_t = networkx_counts(g)
    expect_w = reference.weighted_triangle_sum_exact(g.adjacency_dense())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_DENSE_MIN_FILL", 0.0)
        assert np.array_equal(triangle_profile(g).t, expect_t)
    # chunks of the default size and of a few rows' worth of wedges; the
    # bit-packed and the plain wedge lookup
    for block_floats in (_BLOCK_FLOATS, 3 * max(n, 1)):
        for dense_max_n in (_DENSE_MAX_N, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stats, "_BLOCK_FLOATS", block_floats)
                t, w = listed(g, mp, dense_max_n)
            assert t.dtype == np.int64
            assert np.array_equal(t, expect_t)
            assert w == expect_w


def test_listing_on_complete_graph_and_star(monkeypatch):
    k40 = complete_graph(40)
    t, w = listed(k40, monkeypatch)
    assert t.tolist() == [39 * 38] * 40
    assert np.array_equal(t, networkx_counts(k40))
    assert w == reference.weighted_triangle_sum_exact(k40.adjacency_dense())
    # a hub whose wedges all stay open
    star = Graph.from_edges(60, np.zeros(59, dtype=np.int64), np.arange(1, 60))
    t, w = listed(star, monkeypatch)
    assert t.tolist() == [0] * 60 and w == 0.0


def test_listing_beyond_the_dense_cap_matches_networkx():
    g = sample_graph(er_model(5000, alpha=0.6), SeedSpec(31, 0))
    assert g.n > _DENSE_MAX_N and not _takes_dense(g, 0.0)
    t = triangle_profile(g).t
    assert t.sum() > 0
    assert np.array_equal(t, networkx_counts(g))
    assert weighted_triangle_sum(g) == weighted_sum_networkx(g)


def test_one_listing_gives_both_statistics(monkeypatch):
    calls = []
    list_triangles = stats._list_triangles
    monkeypatch.setattr(stats, "_list_triangles", lambda g: calls.append(g) or list_triangles(g))
    g = sample_graph(er_model(300, alpha=0.7), SeedSpec(3, 0))
    assert not _takes_dense(g, _DENSE_MIN_FILL)
    avg_clustering(g), weighted_triangle_sum(g), triangle_profile(g)
    assert calls == [g]
    # a listing made in chunks of another size is made anew
    monkeypatch.setattr(stats, "_BLOCK_FLOATS", 2 * g.n)
    triangle_profile(g)
    assert len(calls) == 2


def test_listing_memory_stays_within_its_chunks():
    # n = 4000 at 5% fill has about 2.7e7 wedges: one int64 array over all
    # of them would take 213 MB.  The listing holds about a dozen arrays over
    # the 4e5 upper edges (3.2 MB each), the 2 MB bit-packed adjacency and a
    # few arrays over one chunk of _BLOCK_FLOATS wedges (2.1 MB each).
    n = 4000
    g = graph_with_edges(n, round(0.05 * n_pairs(n)), 41)
    assert not _takes_dense(g, _WEIGHTED_DENSE_MIN_FILL)
    g.degrees  # cached before tracing
    tracemalloc.start()
    try:
        weighted_triangle_sum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
