import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, poisson_binom

from hetclust.model import ConstantWeights, DenseWeights, ModelSpec, RankOneWeights
from hetclust.sampling import SeedSpec, sample_graph
from hetclust.stats import avg_clustering
from hetclust import theory
from hetclust.theory import (
    _TAIL_BUDGET,
    _degree_pmfs,
    _rank_one_a,
    _support_width,
    _tail_bound,
    a_coeff,
    a_coeff_from_pmf,
    clustering_constants,
    sigma_closed_forms,
    v_closed_form_rank_one,
    expected_ti_all,
    mean_cc_approx,
    mean_t_leading,
    moments_to_json,
    sigma_components,
    theoretical_moments,
    triangle_constants,
    v_components,
)
from hetclust.oracle import enumerate_moments

import reference
from conftest import er_model, random_dense_model


# ---------------------------------------------------------------------------
# degree law


def full_degree_pmf(m, i):
    """PMF of d_i on the full support {0, ..., n-1}, nothing truncated."""
    return _degree_pmfs(m.mu_matrix[i : i + 1], m.n - 1)[0]


def test_degree_distribution_matches_binomial():
    n, alpha = 300, 0.45
    m = er_model(n, alpha=alpha)
    pmf = full_degree_pmf(m, 17)
    k = np.arange(n)
    expect = binom.pmf(k, n - 1, n ** (-alpha))
    assert np.max(np.abs(pmf - expect)) < 1e-12


def test_degree_distribution_heterogeneous_example():
    # mu_0j = (0.2, 0.5, 0.9): P(d_0 = 0) = 0.8 * 0.5 * 0.1
    n = 4
    p = 4 ** (-0.05)
    w = np.zeros((n, n))
    w[0, 1:] = np.array([0.2, 0.5, 0.9]) / p
    w[1:, 0] = w[0, 1:]
    w[1, 2] = w[1, 3] = w[2, 3] = 0.5
    w[2, 1] = w[3, 1] = w[3, 2] = 0.5
    m = ModelSpec(n=n, alpha=0.05, beta=0.1, weights=DenseWeights(w))
    pmf = full_degree_pmf(m, 0)
    assert pmf[0] == pytest.approx(0.04, rel=1e-12)


def test_degree_distribution_normalized(rng):
    m = random_dense_model(9, rng)
    for i in (0, 4, 8):
        pmf = full_degree_pmf(m, i)
        assert np.all(pmf >= 0)
        assert abs(pmf.sum() - 1.0) < 1e-12
        mean = float(np.arange(len(pmf)) @ pmf)
        assert mean == pytest.approx(float(m.mu[i]), rel=1e-9)


# ---------------------------------------------------------------------------
# a coefficient


def test_a_coeff_binomial_example():
    # d ~ Binomial(4, 0.5): (1/16)(6/2 + 4/6 + 1/12)
    m = er_model(5, p=0.5)
    assert a_coeff(m, 0) == pytest.approx(0.234375, rel=1e-13)


@pytest.mark.parametrize("i", [5, -1, 1.5, np.float64(2.0), True, "1"], ids=repr)
def test_a_coeff_index_error(i):
    rank1 = ModelSpec(n=5, alpha=0.5, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1, 5)))
    for m in (er_model(5, alpha=0.5), rank1):
        with pytest.raises(IndexError, match="^node index out of range for n=5$"):
            a_coeff(m, i)
        assert a_coeff(m, np.int64(2)) == a_coeff(m, 2)  # numpy integers are indices


def test_a_coeff_saturated_probabilities():
    # mu_ij -> 1 concentrates the degree at n-1; the series of the quadrature
    # would need about 1e16 terms, so the law is the convolution
    n = 6
    for weights in (ConstantWeights(1.0), RankOneWeights(np.ones(n))):
        m = ModelSpec(n=n, alpha=1e-15, beta=1.0, weights=weights)
        assert not theory._takes_quadrature(m)
        assert a_coeff(m, 2) == pytest.approx(1.0 / ((n - 1) * (n - 2)), rel=1e-12)
        assert theory._a_all(m)[2] == a_coeff(m, 2)


def test_a_coeff_matches_poisson_binom_n8(rng):
    m = random_dense_model(8, rng)
    for i in (0, 3, 7):
        probs = np.delete(m.mu_matrix[i], i)
        ref = a_coeff_from_pmf(poisson_binom(probs).pmf(np.arange(m.n)))
        assert abs(a_coeff(m, i) - ref) < 1e-12


def test_a_coeff_degenerate_pmf():
    pmf = np.zeros(6)
    pmf[2] = 1.0
    assert a_coeff_from_pmf(pmf) == 0.5


def test_a_coeff_taylor_band():
    m = er_model(400, alpha=0.5)
    a = a_coeff(m, 0)
    mu = float(m.mu[0])
    assert 0.9 <= a * mu * (mu - 1) <= 1.2


# ---------------------------------------------------------------------------
# truncated support of the degree law

# both keep a support width K well below n - 1
TRUNCATING_MODELS = [
    ModelSpec(n=400, alpha=0.7, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, 400))),
    random_dense_model(300, np.random.default_rng(5), alpha=0.5),
]


@pytest.mark.parametrize("m", TRUNCATING_MODELS, ids=["rank1_n400", "dense_n300"])
def test_truncated_degree_law_matches_full_support(m):
    assert _support_width(float(m.mu.max()), m.n) < m.n // 2
    a = clustering_constants(m).a
    full = np.array([a_coeff_from_pmf(full_degree_pmf(m, i)) for i in range(m.n)])
    if isinstance(m.weights, RankOneWeights):
        # the quadrature, not the truncated convolution
        assert np.max(np.abs(a - full) / full) <= 1e-12
    else:
        assert np.array_equal(a, full)
    for i in np.random.default_rng(3).choice(m.n, size=5, replace=False):
        probs = np.delete(m.mu_matrix[i], i)
        ref = a_coeff_from_pmf(poisson_binom(probs).pmf(np.arange(m.n)))
        assert a[i] == pytest.approx(ref, rel=1e-12, abs=0.0)


def _convolution_a_all(m):
    """a of every node from the `_degree_pmfs` convolution over `mu_matrix`."""
    k = _support_width(float(m.mu.max()), m.n)
    return np.array([a_coeff_from_pmf(pmf) for pmf in _degree_pmfs(m.mu_matrix, k)])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 40, 300, 1000])
def test_rank_one_degree_law_matches_convolution(n):
    rng = np.random.default_rng(n)
    for alpha in (0.3, 0.5, 0.7):
        for w in (np.linspace(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)):
            m = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(w))
            want = _convolution_a_all(m)
            assert np.max(np.abs(theory._a_all(m) - want) / want) <= 1e-12


@pytest.mark.parametrize("n, alphas", [(3, (0.3, 0.5, 0.7)), (4, (0.3, 0.5, 0.7)),
                                       (5, (0.3, 0.5, 0.7)), (6, (0.3, 0.5, 0.7)), (7, (0.5,))])
def test_rank_one_degree_law_matches_oracle(n, alphas):
    rng = np.random.default_rng(n)
    for alpha in alphas:
        w = rng.uniform(0.5, 1.0, n)
        m = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(w))
        exact = enumerate_moments(m).exact_a
        assert np.max(np.abs(theory._a_all(m) - exact) / exact) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_one_degree_law_near_saturation(n):
    # p = n^-0.05 > 0.92 and two weights at 1: mu_max = p, so the series of
    # log G needs hundreds of terms
    w = np.concatenate([np.linspace(0.6, 0.9, n - 2), [1.0, 1.0]])
    m = ModelSpec(n=n, alpha=0.05, beta=0.5, weights=RankOneWeights(w))
    assert theory._series_length(m.p, n) > 300
    a = theory._a_all(m)
    for want in (_convolution_a_all(m), enumerate_moments(m).exact_a):
        assert np.max(np.abs(a - want) / want) <= 1e-12


def test_a_coeff_equals_all_nodes_degree_law(rng):
    rank1 = ModelSpec(n=300, alpha=0.5, beta=0.5, weights=RankOneWeights(rng.uniform(0.5, 1.0, 300)))
    for m in (er_model(40, alpha=0.4), random_dense_model(40, rng), rank1):
        a = theory._a_all(m)
        assert [a_coeff(m, i) for i in range(m.n)] == a.tolist()


@pytest.mark.parametrize("n, alpha", [(1000, 0.3), (500, 0.7)])
def test_rank_one_degree_law_matches_40_digit_convolution(n, alpha):
    m = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    a, conv = theory._a_all(m), _convolution_a_all(m)
    # the node where quadrature and float convolution differ most, and the largest weight
    for i in (int(np.argmax(np.abs(a - conv) / conv)), n - 1):
        assert a[i] == pytest.approx(reference.a_coeff_mp(m.mu_row(i)), rel=1e-13, abs=0.0)


def test_rank_one_theory_never_builds_mu_matrix(monkeypatch):
    # power sums of w (w = 1 under constant weights), rows and the quadrature:
    # no n x n pair-probability matrix
    def no_matrix(self):
        raise AssertionError("mu_matrix built")

    monkeypatch.setattr(ModelSpec, "mu_matrix", property(no_matrix))
    kinds = (lambda n: RankOneWeights(np.linspace(0.5, 1.0, n)), lambda n: ConstantWeights(1.0))
    for weights, alpha in itertools.product(kinds, (0.3, 0.5, 0.7)):
        m = ModelSpec(n=2000, alpha=alpha, beta=0.5, weights=weights(2000))
        theoretical_moments(m)
        sigma_components(m)
        v_components(m)
        mean_cc_approx(m)
        mean_t_leading(m)
        expected_ti_all(m)
        triangle_constants(m)
        clustering_constants(m)
        # the JSON of every n x n constant: about 480 MB and 30 s at n = 2000
        small = ModelSpec(n=300, alpha=alpha, beta=0.5, weights=weights(300))
        moments_to_json(small, theoretical_moments(small), include_constants=True)


@pytest.mark.parametrize("mu", [1.01, 2.0, 5.0, 12.0, 58.0, 250.0, 1e4])
def test_tail_bound_within_budget(mu):
    k = _support_width(mu, 10**6)
    assert mu < k < 10**6 - 1
    assert _tail_bound(mu, k) <= _TAIL_BUDGET
    # the support never exceeds the n - 1 possible neighbours
    assert _support_width(mu, k) == k - 1


def test_dropped_tail_mass_below_bound():
    m = TRUNCATING_MODELS[0]
    k = _support_width(float(m.mu.max()), m.n)
    for i in range(0, m.n, 20):
        dropped = math.fsum(full_degree_pmf(m, i)[k + 1 :].tolist())
        assert 0.0 < dropped <= _tail_bound(float(m.mu[i]), k)


# ---------------------------------------------------------------------------
# expected triangle counts


def test_expected_ti_er():
    m = er_model(4, p=0.5)
    assert expected_ti_all(m)[0] == pytest.approx(0.75, rel=1e-13)


def test_expected_ti_matches_direct(rng):
    m = random_dense_model(8, rng)
    mu = np.asarray(m.mu_matrix)
    et = expected_ti_all(m)
    for i in range(8):
        assert et[i] == pytest.approx(reference.expected_ti_direct(mu, i), rel=1e-13)


def test_expected_ti_zero_row_drops_node(monkeypatch):
    # a node with no connection probability contributes nothing; its zero
    # weights lie below beta, so the library entry points refuse the model
    # and the evaluators behind them are checked with that check switched off
    n = 5
    w = np.full((n, n), 0.6)
    np.fill_diagonal(w, 0.0)
    w[4, :] = 0.0
    w[:, 4] = 0.0
    m = ModelSpec(n=n, alpha=0.3, beta=0.6, weights=DenseWeights(w))
    full = np.full((n, n), 0.6)
    np.fill_diagonal(full, 0.0)
    m_full = ModelSpec(n=n, alpha=0.3, beta=0.6, weights=DenseWeights(full))
    for f in (expected_ti_all, lambda model: a_coeff(model, 4)):
        with pytest.raises(ValueError, match="^invalid model: dense off-diagonal weights"):
            f(m)
    monkeypatch.setattr(theory, "_require_valid", lambda model: None)
    et = expected_ti_all(m)
    assert et[4] == 0.0
    assert a_coeff(m, 4) == 0.0
    # node 0's triangles through node 4 all vanish
    mu_full = np.asarray(m_full.mu_matrix).copy()
    mu_full[4, :] = 0.0
    mu_full[:, 4] = 0.0
    assert et[0] == pytest.approx(reference.expected_ti_direct(mu_full, 0), rel=1e-13)


# ---------------------------------------------------------------------------
# clustering constants


def test_b_coefficient_er_example():
    m = er_model(4, p=0.5)
    consts = clustering_constants(m)
    assert np.allclose(consts.b, 8 / 3, rtol=1e-12)


def test_constants_homogeneous_collapse():
    m = er_model(20, alpha=0.3)
    consts = clustering_constants(m)
    assert np.ptp(consts.a) == 0.0
    assert np.ptp(consts.b) < 1e-13 * consts.b[0]
    off = ~np.eye(20, dtype=bool)
    for mat in (consts.c, consts.dsum, consts.e):
        vals = mat[off]
        assert np.ptp(vals) < 1e-13 * abs(vals[0])


def test_e_identity_recomputed_from_parts(rng):
    m = random_dense_model(8, rng)
    consts = clustering_constants(m)
    n = m.n
    mu = np.asarray(m.mu_matrix)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c_ij = reference.c_direct(mu, consts.a, i, j)
            d_ij = reference.d_direct(mu, i, j)
            e_ij = 2 * c_ij + 2 * (consts.a[i] * d_ij + consts.a[j] * d_ij) - consts.b[i] - consts.b[j]
            assert consts.c[i, j] == pytest.approx(c_ij, rel=1e-12)
            assert consts.dsum[i, j] == pytest.approx(d_ij, rel=1e-12)
            assert consts.e[i, j] == pytest.approx(e_ij, rel=1e-12, abs=1e-15)


def test_constants_require_supercritical_degrees():
    m = ModelSpec(n=4, alpha=0.9, beta=0.1, weights=ConstantWeights(0.1))
    with pytest.raises(ValueError, match="expected degree"):
        clustering_constants(m)


# ---------------------------------------------------------------------------
# variance components: generic path vs direct sums and fast path


def _direct_sum_models(n, rng):
    """A random dense, a rank-one and a constant-weight model on n nodes: the
    literal sums of `reference` check the one formula each kind runs."""
    return (
        random_dense_model(n, rng),
        ModelSpec(n=n, alpha=0.3, beta=0.5, weights=RankOneWeights(rng.uniform(0.5, 1.0, n))),
        er_model(n, alpha=0.3, c=0.6),
    )


def test_sigma_components_match_direct_sums(rng):
    for m in _direct_sum_models(10, rng):
        consts = clustering_constants(m)
        mu = np.asarray(m.mu_matrix)
        s1, s2 = sigma_components(m)
        assert s1 == pytest.approx(reference.sigma1_direct(mu, consts.a), rel=1e-12)
        assert s2 == pytest.approx(reference.sigma2_direct(mu, consts.e), rel=1e-12)


def test_v_components_match_direct_sums(rng):
    for m in _direct_sum_models(10, rng):
        mu = np.asarray(m.mu_matrix)
        v1, v2 = v_components(m)
        assert v1 == pytest.approx(reference.v1_direct(mu), rel=1e-12)
        assert v2 == pytest.approx(reference.v2_direct(mu), rel=1e-12)


def test_fast_path_agrees_with_generic():
    for m in (er_model(200, alpha=0.45), er_model(200, alpha=0.3, c=0.6)):
        w = np.stack([m.weights.row(i, m.n) for i in range(m.n)])
        dense = ModelSpec(n=m.n, alpha=m.alpha, beta=m.beta, weights=DenseWeights(w))
        for fast, generic in (
            (sigma_components(m), sigma_components(dense)),
            (v_components(m), v_components(dense)),
        ):
            assert fast[0] == pytest.approx(generic[0], rel=1e-12, abs=0)
            assert fast[1] == pytest.approx(generic[1], rel=1e-12, abs=1e-30)
        # the product form with w = 1 against the dense twin's matrix products
        for f in (mean_cc_approx, mean_t_leading):
            assert f(m) == pytest.approx(f(dense), rel=1e-12)
        cc, cc_dense = clustering_constants(m), clustering_constants(dense)
        tc, tc_dense = triangle_constants(m), triangle_constants(dense)
        arrays = [(expected_ti_all(m), expected_ti_all(dense)),
                  (tc.eta, tc_dense.eta), (tc.gamma, tc_dense.gamma)]
        arrays += [(getattr(cc, f.name), getattr(cc_dense, f.name)) for f in dataclasses.fields(cc)]
        for got, want in arrays:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("c", [0.6, 1.0])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.7])
def test_constant_weight_a_matches_binomial(alpha, c):
    # the quadrature of the product form with w = 1; the float convolution
    # of node 0's n - 1 equal Bernoulli factors was 2.2e-13 off at n = 4000
    m = er_model(4000, alpha=alpha, c=c)
    want = reference.binomial_a(m.n, m.p * c)
    assert a_coeff(m, 0) == pytest.approx(want, rel=5e-14, abs=0)
    assert np.array_equal(theory._a_all(m), np.full(m.n, a_coeff(m, 0)))


@pytest.mark.parametrize("c", [0.6, 1.0])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [10, 20, 40, 300, 1000, 4000])
def test_constant_weight_components_match_closed_forms(n, alpha, c):
    # the product-form sums with w = 1 against the scalar closed forms in p*c,
    # both at the program's a, which is checked against scipy's binomial on
    # its own: e amplifies a's error six-fold in sigma2_sq
    m = er_model(n, alpha=alpha, c=c)
    if float(m.mu.min()) <= 1.0:
        pytest.skip("subcritical: the constants divide by mu_i - 1")
    a = a_coeff(m, 0)
    assert a == pytest.approx(reference.binomial_a(n, m.p * c), rel=1e-12, abs=0)
    s1, s2, v1, v2 = reference.constant_weight_components(n, m.p * c, a)
    moments = theoretical_moments(m)
    for got in (sigma_components(m), (moments.sigma1_sq, moments.sigma2_sq)):
        assert got == pytest.approx((s1, s2), rel=1e-12, abs=0)
    for got in (v_components(m), (moments.v1_sq, moments.v2_sq)):
        assert got[0] == pytest.approx(v1, rel=1e-12, abs=0)
        assert got[1] == v2 == 0.0


# ---------------------------------------------------------------------------
# rank-one power sums vs the dense path


RANK_ONE_SIZES = (3, 4, 5, 6, 7, 40, 300)


def _rank_one_models(n):
    """(rank-one model, its DenseWeights twin) for grid and random weights at
    each alpha; the random weights on [0.85, 1] are supercritical even at n=3."""
    rng = np.random.default_rng(n)
    for alpha in (0.3, 0.5, 0.7):
        for w in (np.linspace(0.5, 1.0, n), rng.uniform(0.5, 1.0, n), rng.uniform(0.85, 1.0, n)):
            outer = np.outer(w, w)
            np.fill_diagonal(outer, 0.0)
            beta = float(w.min()) ** 2  # the floor of the dense twin's w_i w_j
            yield (
                ModelSpec(n=n, alpha=alpha, beta=beta, weights=RankOneWeights(w)),
                ModelSpec(n=n, alpha=alpha, beta=beta, weights=DenseWeights(outer)),
            )


@pytest.mark.parametrize("n", RANK_ONE_SIZES)
def test_rank_one_power_sums_equal_dense_path(n):
    supercritical = 0
    for rank1, dense in _rank_one_models(n):
        # the dense twin has the rank-one model's pair probabilities bit for bit
        assert np.array_equal(dense.mu_matrix, rank1.mu_matrix)
        pairs = [(v_components(rank1)[0], v_components(dense)[0]),
                 (mean_t_leading(rank1), mean_t_leading(dense))]
        if rank1.mu.min() > 1.0:
            supercritical += 1
            pairs += zip(sigma_components(rank1), sigma_components(dense))
            pairs.append((mean_cc_approx(rank1), mean_cc_approx(dense)))
            got, want = theoretical_moments(rank1), theoretical_moments(dense)
            pairs += [
                (getattr(got, f.name), getattr(want, f.name))
                for f in dataclasses.fields(got)
                if f.name != "v2_sq"
            ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12)
        # every constant array but delta, which the dense path forms with cancellation
        tc, tc_dense = triangle_constants(rank1), triangle_constants(dense)
        arrays = [(expected_ti_all(rank1), expected_ti_all(dense)),
                  (tc.eta, tc_dense.eta), (tc.gamma, tc_dense.gamma)]
        if rank1.mu.min() > 1.0:
            cc, cc_dense = clustering_constants(rank1), clustering_constants(dense)
            arrays += [(getattr(cc, f.name), getattr(cc_dense, f.name))
                       for f in dataclasses.fields(cc)]
        for got, want in arrays:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert supercritical


@pytest.mark.parametrize("n", RANK_ONE_SIZES)
def test_rank_one_v2_matches_extended_precision(n):
    # delta = gamma - (eta_i + eta_j)/2 cancels; the dense path is off by up
    # to about 4e-12 here as well
    for rank1, _ in _rank_one_models(n):
        want = reference.v2_longdouble(rank1.mu_matrix)
        assert v_components(rank1)[1] == pytest.approx(want, rel=5e-11)


def test_rank_one_delta_matches_extended_precision():
    # the dense path's delta = gamma - (eta_i + eta_j)/2 is off by about 8e-11
    # of max |delta| here
    w = np.linspace(0.5, 1.0, 200)
    m = ModelSpec(n=200, alpha=0.3, beta=0.5, weights=RankOneWeights(w))
    want = reference.delta_longdouble(m.mu_matrix)
    assert np.max(np.abs(triangle_constants(m).delta - want)) <= 1e-11 * np.max(np.abs(want))


def test_rank_one_expected_triangles_match_oracle(rng):
    for n in (5, 6):
        w = rng.uniform(0.4, 1.0, n)
        m = ModelSpec(n=n, alpha=0.3, beta=0.4, weights=RankOneWeights(w))
        exact = enumerate_moments(m).exact_et
        assert np.max(np.abs(expected_ti_all(m) - exact)) < 1e-12


def test_v2_longdouble_matches_literal_sums(rng):
    w = rng.uniform(0.5, 1.0, 8)
    rank1 = ModelSpec(n=8, alpha=0.3, beta=0.5, weights=RankOneWeights(w))
    for m in (random_dense_model(9, rng), rank1):
        mu = np.asarray(m.mu_matrix)
        assert reference.v2_longdouble(mu) == pytest.approx(reference.v2_direct(mu), rel=1e-12)


def _column_loop_a_all(model):
    """All-nodes degree law stepping through the strided columns of mu_matrix."""
    m = model.mu_matrix
    k = _support_width(float(model.mu.max()), model.n)
    pmf = np.zeros((k + 1, model.n))
    pmf[0] = 1.0
    shifted = np.empty((k, model.n))
    for q in m.T:
        np.multiply(pmf[:-1], q, out=shifted)
        pmf *= 1.0 - q
        pmf[1:] += shifted
    return np.array([a_coeff_from_pmf(col) for col in pmf.T])


@pytest.mark.parametrize("n, alpha", [(40, 0.3), (300, 0.3), (300, 0.7)])
def test_all_nodes_degree_law_equals_column_loop(n, alpha, rng):
    rank1 = ModelSpec(n=n, alpha=alpha, beta=0.5, weights=RankOneWeights(rng.uniform(0.5, 1.0, n)))
    # rank-one weights take the quadrature, within rounding of the convolution
    got, want = theory._a_all(rank1), _column_loop_a_all(rank1)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    dense = random_dense_model(n, rng, alpha=alpha)
    assert np.array_equal(theory._a_all(dense), _column_loop_a_all(dense))


def test_rank_one_moments_same_bytes_under_one_and_two_blas_threads():
    # the moments and every constant array that --dump-constants writes, for
    # rank-one weights and for the README's constant-weight `theory` model,
    # and mean_cc_approx at n = 20000
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from hetclust.model import ConstantWeights, ModelSpec, RankOneWeights\n"
        "from hetclust.theory import mean_cc_approx, moments_to_json, theoretical_moments\n"
        "w = np.linspace(0.5, 1.0, 300)\n"
        "rank1 = ModelSpec(n=300, alpha=0.4, beta=0.5, weights=RankOneWeights(w))\n"
        "constant = ModelSpec(n=500, alpha=0.6, beta=1.0, weights=ConstantWeights(1.0))\n"
        "for m in (rank1, constant):\n"
        "    moments = theoretical_moments(m)\n"
        "    print(repr(moments))\n"
        "    text = moments_to_json(m, moments, include_constants=True)\n"
        "    print(hashlib.sha256(text.encode()).hexdigest())\n"
        "# long enough for a BLAS dot product to split across threads\n"
        "large = ModelSpec(n=20000, alpha=0.5, beta=1.0, weights=ConstantWeights(1.0))\n"
        "print(repr(mean_cc_approx(large)))\n"
    )
    src = str(Path(theory.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def _random_separable(n, k, rng):
    return theory._Separable(n, tuple((rng.normal(size=n), rng.normal(size=n)) for _ in range(k)))


@pytest.mark.parametrize("n", [3, 7, 40])
def test_separable_matches_its_materialisation(n, rng):
    x, y, z = (_random_separable(n, k, rng) for k in (1, 3, 4))
    X, Y, Z = (np.asarray(v) for v in (x, y, z))
    assert not np.any(np.diag(X)) and not np.any(np.diag(Y)) and not np.any(np.diag(Z))
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    for got, want in [(x, X), (x + y, X + Y), (y - z, Y - Z), (2.5 * y, 2.5 * Y),
                      (np.float64(-0.5) * z, -0.5 * Z), (y * z, Y * Z), (x * y * z, X * Y * Z)]:
        scale = np.max(np.abs(want))
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * scale
        assert abs(got.sum() - want.sum()) <= 1e-13 * scale * n * n
        assert np.max(np.abs(got[rows, cols] - want[rows, cols])) <= 1e-13 * scale
    # a product forms its pairs as they are read, from the pairs of its factors
    assert len(list((y * z).pairs())) == 12 and len(list((x * y * z).pairs())) == 12
    # the two primitives against the matrix products of the materialised arrays
    for a, b, A, B in [(x, y, X, Y), (y, z, Y, Z), (z, x, Z, X)]:
        got, want = theory._paths(a, b), theory._paths(A, B)
        assert isinstance(got, theory._Separable)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * np.max(np.abs(want))
    for a, b, c, A, B, C in [(x, y, z, X, Y, Z), (z, x, y, Z, X, Y), (y, y, x, Y, Y, X)]:
        want = theory._triple_rows(A, B, C)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(theory._triple_rows(a, b, c) - want)) <= 1e-13 * scale
        assert abs(theory._triple_sum(a, b, c) - theory._triple_sum(A, B, C)) <= 1e-13 * scale * n


def test_rank_one_moments_take_linear_memory():
    # the pair sums over separable factors: no n x n array (one is 69 MiB here)
    import tracemalloc

    n = 3000
    m = ModelSpec(n=n, alpha=0.3, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    tracemalloc.start()
    try:
        theoretical_moments(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sigma2_near_closed_form_sub_half():
    m = er_model(500, alpha=0.3)
    _, s2 = sigma_components(m)
    assert s2 / (2 / 500**2.3) == pytest.approx(1.0, abs=0.15)


@pytest.mark.xfail(
    strict=True,
    reason="finite-size gap: a_i exceeds 1/(mu(mu-1)) by ~44% at mean degree 12, "
    "inflating sigma1_sq to 2.29x its asymptotic form at n=500, alpha=0.6",
)
def test_sigma1_near_closed_form_super_half():
    m = er_model(500, alpha=0.6)
    s1, _ = sigma_components(m)
    assert s1 / (6 / 500**2.4) == pytest.approx(1.0, abs=0.15)


def test_variance_components_nonnegative(rng):
    m = random_dense_model(12, rng)
    s1, s2 = sigma_components(m)
    v1, v2 = v_components(m)
    assert s1 >= 0 and s2 >= 0 and v1 >= 0 and v2 >= 0


# ---------------------------------------------------------------------------
# triangle-sum constants


def test_gamma_er_closed_form():
    m = er_model(4, p=0.5)
    tc = triangle_constants(m)
    expect = 2 / (27 * 0.5)
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(tc.gamma[off], expect, rtol=1e-12)
    assert np.allclose(tc.eta, expect, rtol=1e-12)


def test_eta_equals_gamma_homogeneous():
    for n, alpha in ((10, 0.3), (50, 0.6)):
        m = er_model(n, alpha=alpha)
        tc = triangle_constants(m)
        off = ~np.eye(n, dtype=bool)
        assert np.allclose(tc.gamma[off], tc.eta[0], rtol=1e-12)
        closed = (n - 2) / ((n - 1) ** 3 * n ** (-alpha))
        assert tc.eta[0] == pytest.approx(closed, rel=1e-12)


def test_constants_match_direct_sums(rng):
    for m in _direct_sum_models(9, rng):
        mu = np.asarray(m.mu_matrix)
        tc = triangle_constants(m)
        for i in range(9):
            assert tc.eta[i] == pytest.approx(reference.eta_direct(mu, i), rel=1e-12)
        for j in range(1, 9):
            assert tc.gamma[0, j] == pytest.approx(reference.gamma_direct(mu, 0, j), rel=1e-12)


def test_eta_rank_one_near_closed_form():
    n = 800
    w = np.linspace(0.5, 1.0, n)
    m = ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(w))
    tc = triangle_constants(m)
    closed = 1.0 / (w.sum() ** 2 * m.p)
    assert np.max(np.abs(tc.eta / closed - 1.0)) < 0.01


def test_v2_zero_under_homogeneity():
    m = er_model(300, alpha=0.5)
    _, v2 = v_components(m)
    assert v2 == 0.0
    # the linear coefficient is zero exactly, not up to rounding
    assert not np.any(triangle_constants(m).delta)


def test_v1_near_closed_form_er():
    m = er_model(500, alpha=0.5)
    v1, _ = v_components(m)
    assert v1 / (1 / (6 * 500**1.5)) == pytest.approx(1.0, abs=0.15)


def test_v2_small_for_rank_one():
    n = 800
    m = ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    v1, v2 = v_components(m)
    assert v2 / v1 < 0.05


# ---------------------------------------------------------------------------
# mean expansions


@pytest.mark.xfail(
    strict=True,
    reason="the neglected remainder is ~3e-3 at n=200, two orders above the "
    "Monte Carlo standard error; measured |approx - empirical| = 2.9e-3",
)
def test_mean_cc_approx_matches_monte_carlo():
    m = er_model(200, alpha=0.4)
    approx = mean_cc_approx(m)
    reps = 5000
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = avg_clustering(sample_graph(m, SeedSpec(555, r)))
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(approx - vals.mean()) < 3 * se


def test_mean_cc_first_term_near_density():
    m = er_model(500, alpha=0.4)
    term1 = expected_ti_all(m)[0] * a_coeff(m, 0)
    assert term1 / m.p == pytest.approx(1.0, abs=0.2)


@pytest.mark.xfail(
    strict=True,
    reason="at n=5 the degree-linear correction term (~1.0) is not a small "
    "correction; measured |approx - exact| ~ 1.0",
)
def test_mean_cc_approx_tiny_dense(rng):
    n = 5
    w = rng.uniform(0.4, 0.6, (n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    p = n ** (-0.3)
    m = ModelSpec(n=n, alpha=0.3, beta=0.4, weights=DenseWeights(w / p))
    exact = enumerate_moments(m).exact_mean_cc
    assert abs(mean_cc_approx(m) - exact) < 5e-3


def test_mean_t_leading_er_p_independent():
    n = 40
    vals = [mean_t_leading(er_model(n, alpha=a)) for a in (0.3, 0.6)]
    expect = math.comb(n, 3) / (n - 1) ** 3
    assert vals[0] == pytest.approx(expect, rel=1e-12)
    assert vals[1] == pytest.approx(expect, rel=1e-12)


def test_mean_t_leading_half_probability():
    m = er_model(5, p=0.5)
    assert mean_t_leading(m) == pytest.approx(0.15625, rel=1e-13)


def test_mean_t_leading_matches_direct(rng):
    for m in _direct_sum_models(9, rng):
        assert mean_t_leading(m) == pytest.approx(
            reference.mean_t_leading_direct(np.asarray(m.mu_matrix)), rel=1e-12
        )


@pytest.mark.parametrize("kind", ["dense", "rank1", "constant"])
def test_mean_cc_approx_matches_direct(kind, rng):
    m = dict(zip(["dense", "rank1", "constant"], _direct_sum_models(9, rng)))[kind]
    want = reference.mean_cc_approx_direct(np.asarray(m.mu_matrix), clustering_constants(m).a)
    assert mean_cc_approx(m) == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_boundary_value():
    forms = sigma_closed_forms(10_000, 0.5)
    assert forms.sigma_sq == pytest.approx(8e-10, rel=1e-12)


def test_closed_form_components_sum_at_boundary():
    n = 640
    forms = sigma_closed_forms(n, 0.5)
    assert forms.sigma1_sq + forms.sigma2_sq == pytest.approx(forms.sigma_sq, rel=1e-12)


def test_closed_form_regime_selection():
    forms = sigma_closed_forms(1000, 0.7)
    assert forms.sigma_sq == pytest.approx(6 / 1000**2.3, rel=1e-12)
    forms = sigma_closed_forms(1000, 0.3)
    assert forms.sigma_sq == pytest.approx(2 / 1000**2.3, rel=1e-12)


@pytest.mark.parametrize("n, alpha, message", [
    (-5, 0.3, "node count n=-5 must be an integer >= 3"),
    (1, 0.3, "node count n=1 must be an integer >= 3"),
    (2, 0.5, "node count n=2 must be an integer >= 3"),
    (1000.0, 0.3, "node count n=1000.0 must be an integer >= 3"),
    (1000, 1.2, "alpha=1.2 outside (0, 1)"),
])
def test_closed_form_rejects_invalid_size(n, alpha, message):
    with pytest.raises(ValueError) as err:
        sigma_closed_forms(n, alpha)
    assert str(err.value) == "invalid model: " + message


def test_rank_one_closed_form_constant_case():
    n, alpha = 500, 0.5
    m = ModelSpec(n=n, alpha=alpha, beta=1.0, weights=RankOneWeights(np.ones(n)))
    assert v_closed_form_rank_one(m) == pytest.approx(1 / (6 * n ** (3 * (1 - alpha))), rel=1e-12)


def test_rank_one_closed_form_weight_scaling():
    n = 100
    w = np.linspace(0.5, 0.9, n)
    base = v_closed_form_rank_one(ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(w)))
    scaled = v_closed_form_rank_one(
        ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(1.1 * w))
    )
    assert scaled == pytest.approx(base / 1.1**6, rel=1e-12)


def test_rank_one_closed_form_rejects_other_weights():
    with pytest.raises(TypeError):
        v_closed_form_rank_one(er_model(100, alpha=0.4))


def test_rank_one_closed_form_vs_exact_sums():
    n = 800
    m = ModelSpec(n=n, alpha=0.4, beta=0.5, weights=RankOneWeights(np.linspace(0.5, 1.0, n)))
    v1, v2 = v_components(m)
    assert (v1 + v2) / v_closed_form_rank_one(m) == pytest.approx(1.0, abs=0.15)


# ---------------------------------------------------------------------------
# asymptotic tightening and aggregates


def _dev(n, alpha, which):
    m = er_model(n, alpha=alpha)
    s1, s2 = sigma_components(m)
    if which == "s1":
        return abs(s1 / (6 / n ** (3 - alpha)) - 1)
    if which == "s2":
        return abs(s2 / (2 / n ** (2 + alpha)) - 1)
    v1, _ = v_components(m)
    return abs(v1 / (1 / (6 * n ** (3 * (1 - alpha)))) - 1)


@pytest.mark.parametrize("which,alpha", [("s1", 0.6), ("s2", 0.3), ("v1", 0.5)])
def test_closed_form_deviation_shrinks_with_n(which, alpha):
    devs = [_dev(n, alpha, which) for n in (200, 500, 1000)]
    assert devs[0] >= devs[1] >= devs[2]


@pytest.mark.parametrize("which,alpha", [("s2", 0.3), ("v1", 0.5)])
def test_closed_form_final_band(which, alpha):
    assert _dev(1000, alpha, which) < 0.15


@pytest.mark.xfail(
    strict=True,
    reason="sigma1_sq converges like (1 + 4/mu)^2; at n=1000, alpha=0.6 the "
    "deviation is still ~0.77",
)
def test_sigma1_final_band():
    assert _dev(1000, 0.6, "s1") < 0.15


def test_theoretical_moments_aggregate(rng):
    dense = random_dense_model(8, rng)
    rank1 = ModelSpec(n=40, alpha=0.3, beta=0.5, weights=RankOneWeights(rng.uniform(0.5, 1, 40)))
    for m in (dense, rank1, er_model(40, alpha=0.4)):
        mom = theoretical_moments(m)
        s1, s2 = sigma_components(m)
        v1, v2 = v_components(m)
        assert mom.sigma_sq == s1 + s2
        assert mom.v_sq == v1 + v2
        assert mom.sigma1_sq == s1 and mom.sigma2_sq == s2 and mom.v2_sq == v2
        assert mom.mean_cc_approx == mean_cc_approx(m)


def test_theoretical_moments_evaluates_degree_law_once(rng, monkeypatch):
    rows = []

    def counting(block, k):
        rows.append(block.shape[0])
        return _degree_pmfs(block, k)

    quadratures = []

    def counting_quadrature(model, nodes):
        quadratures.append(len(nodes))
        return _rank_one_a(model, nodes)

    monkeypatch.setattr(theory, "_degree_pmfs", counting)
    monkeypatch.setattr(theory, "_rank_one_a", counting_quadrature)
    rank1 = ModelSpec(n=50, alpha=0.3, beta=0.5, weights=RankOneWeights(rng.uniform(0.5, 1, 50)))
    theoretical_moments(rank1)
    assert rows == [] and quadratures == [rank1.n]  # one all-nodes quadrature
    dense = random_dense_model(10, rng)
    theoretical_moments(dense)
    assert rows == [dense.n] and quadratures == [rank1.n]  # one all-rows convolution
    theoretical_moments(er_model(50, alpha=0.3))
    assert rows == [dense.n] and quadratures == [rank1.n, 1]  # constant weights: node 0 only


@pytest.mark.parametrize("evaluate", [
    theoretical_moments, sigma_components, v_components, mean_cc_approx, mean_t_leading,
    clustering_constants, triangle_constants, expected_ti_all, v_closed_form_rank_one,
    enumerate_moments, pytest.param(lambda m: a_coeff(m, 0), id="a_coeff"),
], ids=lambda f: f.__name__)
def test_theoretical_moments_rejects_invalid_model(evaluate):
    m = ModelSpec(n=30, alpha=0.4, beta=0.0, weights=ConstantWeights(1.5))
    with pytest.raises(ValueError) as err:
        evaluate(m)
    assert str(err.value) == (
        "invalid model: beta=0.0 outside (0, 1]; constant weight c=1.5 outside (0, 1]"
    )
    # weights above 1, where v2_sq came out negative and sigma failed deep inside
    w = np.linspace(0.5, 3.0, 30)
    m = ModelSpec(n=30, alpha=0.4, beta=0.5, weights=RankOneWeights(w))
    with pytest.raises(ValueError) as err:
        evaluate(m)
    assert str(err.value) == "invalid model: rank-one weight entries must lie in [beta, 1]"


def test_moments_json_with_constants(rng):
    import json

    m = random_dense_model(6, rng)
    text = moments_to_json(m, theoretical_moments(m), include_constants=True)
    doc = json.loads(text)
    assert doc["n"] == 6
    assert set(doc["constants"]) == {"a", "b", "c", "d", "e", "expected_ti", "eta", "gamma"}
    assert len(doc["constants"]["a"]) == 6
    text2 = moments_to_json(m, theoretical_moments(m), include_constants=False)
    assert "constants" not in json.loads(text2)
