import math
from fractions import Fraction

import numpy as np
import pytest

from hetclust.model import ConstantWeights, ModelSpec
from hetclust.oracle import enumerate_moments, enumeration_tables, graph_from_code
from hetclust.pairs import n_pairs
from hetclust.sampling import SeedSpec
from hetclust.stats import avg_clustering, weighted_triangle_sum
from hetclust.theory import a_coeff, expected_ti_all

import reference
from conftest import er_model, random_dense_model


def test_triangle_probability_n3():
    m = er_model(3, p=0.5)
    rep = enumerate_moments(m)
    assert rep.exact_mean_cc == pytest.approx(0.125, rel=1e-14)
    assert rep.exact_mean_t == pytest.approx(0.015625, rel=1e-14)
    assert rep.graph_count == 8


def test_probabilities_normalized(rng):
    from hetclust.oracle import _graph_probabilities

    m = random_dense_model(5, rng)
    bits, *_ = enumeration_tables(5)
    pr = _graph_probabilities(bits, m.mu_pairs())
    assert abs(pr.sum() - 1.0) < 1e-12


def test_log_space_branch_matches_direct():
    from hetclust.oracle import _graph_probabilities

    bits, *_ = enumeration_tables(4)
    mu_small = np.full(n_pairs(4), 5e-4)
    pr = _graph_probabilities(bits, mu_small)
    assert abs(pr.sum() - 1.0) < 1e-12
    assert pr[0] == pytest.approx((1 - 5e-4) ** 6, rel=1e-12)


def test_probabilities_match_exact_rational_product_at_small_mu(rng):
    from hetclust.oracle import _graph_probabilities

    # the product of the floats each graph multiplies, in exact arithmetic
    bits, *_ = enumeration_tables(5)
    mu_vec = 1e-6 * rng.uniform(0.5, 1.0, size=n_pairs(5))
    pr = _graph_probabilities(bits, mu_vec)
    present = [Fraction(x) for x in mu_vec]
    absent = [Fraction(x) for x in 1.0 - mu_vec]
    for row, p in zip(bits, pr):
        exact = math.prod(yes if bit else no for bit, yes, no in zip(row, present, absent))
        assert abs(Fraction(p) - exact) <= Fraction(2e-15) * exact


def test_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_moments(er_model(8, alpha=0.5))


def test_tables_match_statistics_module():
    # per-graph values inside the enumeration equal the statistics module's
    _, _, t, cbar, tsum = enumeration_tables(5)
    for code in (0, 1, 37, 512, 1023):
        g = graph_from_code(5, code)
        assert avg_clustering(g) == cbar[code]
        assert weighted_triangle_sum(g) == pytest.approx(tsum[code], rel=1e-14, abs=0)


def test_moments_match_theory_exactly(rng):
    for n in (5, 6):
        m = random_dense_model(n, rng)
        rep = enumerate_moments(m)
        assert np.max(np.abs(rep.exact_et - expected_ti_all(m))) < 1e-12
        a = np.array([a_coeff(m, i) for i in range(n)])
        assert np.max(np.abs(rep.exact_a - a)) < 1e-12
        assert rep.exact_var_cc >= 0 and rep.exact_var_t >= 0


def test_enumerate_a_coeff_binomial():
    # d ~ Binomial(4, 0.5) at every node: (1/16)(6/2 + 4/6 + 1/12)
    a = enumerate_moments(er_model(5, p=0.5)).exact_a
    assert a == pytest.approx(np.full(5, 0.234375), rel=1e-13)


def test_enumerate_a_coeff_saturated_probabilities():
    # mu_ij -> 1 concentrates the degree at n-1
    n = 6
    alpha = 1e-15
    m = ModelSpec(n=n, alpha=alpha, beta=1.0, weights=ConstantWeights(1.0))
    expect = 1.0 / ((n - 1) * (n - 2))
    assert enumerate_moments(m).exact_a[2] == pytest.approx(expect, rel=1e-12)


def test_monte_carlo_consistency_tiny_n():
    # sample means over 1e5 replicates at n=5 within 4 standard errors
    m = er_model(5, p=0.4)
    rep = enumerate_moments(m)
    mu_vec = m.mu_pairs()
    weights = 1 << np.arange(n_pairs(5), dtype=np.uint32)
    reps = 100_000
    codes = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        dev = reference.edge_indicator_stream(m, SeedSpec(2468, r))
        codes[r] = int(((dev < mu_vec) * weights).sum())
    _, _, _, cbar, tsum = enumeration_tables(5)
    for table, mean, var in (
        (cbar, rep.exact_mean_cc, rep.exact_var_cc),
        (tsum, rep.exact_mean_t, rep.exact_var_t),
    ):
        sample = table[codes]
        se = math.sqrt(var / reps)
        assert abs(sample.mean() - mean) < 4 * se


def test_report_json_round_trip(rng):
    import json

    rep = enumerate_moments(random_dense_model(5, rng))
    doc = json.loads(rep.to_json())
    assert doc["graph_count"] == 1024
    assert doc["exact_mean_cc"] == rep.exact_mean_cc
    assert doc["exact_et"] == rep.exact_et.tolist()


def test_oracle_against_literal_loops(rng):
    # exact means recomputed with literal per-graph loops at n=4
    m = random_dense_model(4, rng)
    mu_vec = m.mu_pairs()
    bits, _, _, cbar, tsum = enumeration_tables(4)
    total_c = 0.0
    total_t = 0.0
    for code in range(64):
        g = graph_from_code(4, code)
        adj = g.adjacency_dense()
        b = bits[code].astype(float)
        pr = float(np.prod(b * mu_vec + (1 - b) * (1 - mu_vec)))
        total_c += pr * reference.avg_clustering_direct(adj)
        total_t += pr * reference.weighted_triangle_sum_direct(adj)
    rep = enumerate_moments(m)
    assert rep.exact_mean_cc == pytest.approx(total_c, rel=1e-13)
    assert rep.exact_mean_t == pytest.approx(total_t, rel=1e-13)
