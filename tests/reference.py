"""Literal-definition reference implementations for cross-checking.

Everything here follows the defining sums verbatim with explicit Python
loops, independent of the library's vectorized paths.  Intended for tiny
inputs only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def ordered_triangle_counts(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    t = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i != j and j != k and k != i:
                    t[i] += adj[i, j] * adj[j, k] * adj[k, i]
    return t


def avg_clustering_direct(adj: np.ndarray) -> float:
    n = adj.shape[0]
    total = 0.0
    for i in range(n):
        num = 0
        den = 0
        for j in range(n):
            for k in range(n):
                if j != k:
                    num += adj[i, j] * adj[j, k] * adj[k, i]
                    den += adj[i, j] * adj[i, k]
        if den > 0:
            total += num / den
    return total / n


def weighted_triangle_sum_direct(adj: np.ndarray) -> float:
    n = adj.shape[0]
    d = adj.sum(axis=1)
    total = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        if adj[i, j] and adj[j, k] and adj[k, i]:
            total += 1.0 / (d[i] * d[j] * d[k])
    return total


def weighted_triangle_sum_exact(adj: np.ndarray) -> float:
    """The weighted triangle sum with correctly rounded per-edge sums.

    For each edge i < j, q_ij sums the floats 1/d_k over the common
    neighbours k as exact fractions and rounds once; then, as the library
    does, q_ij / (d_i d_j) is added over the edges with math.fsum and the
    total divided by 3.  Every fraction is brought to one power-of-two
    denominator so the per-edge sums are integer additions.
    """
    d = adj.sum(axis=1)
    inv = [Fraction(1.0 / dk) if dk else Fraction(0) for dk in d]
    den = max(f.denominator for f in inv)
    num = np.array([f.numerator * (den // f.denominator) for f in inv], dtype=object)
    contrib = []
    for i, j in zip(*np.nonzero(np.triu(adj, 1))):
        q = Fraction(int(num[(adj[i] * adj[j]) != 0].sum()), den)
        contrib.append(float(q) / (d[i] * d[j]))
    return math.fsum(contrib) / 3.0


def expected_ti_direct(mu: np.ndarray, i: int) -> float:
    n = mu.shape[0]
    total = 0.0
    for j in range(n):
        for k in range(n):
            if j != k and j != i and k != i:
                total += mu[i, j] * mu[j, k] * mu[k, i]
    return total


def c_direct(mu: np.ndarray, a: np.ndarray, i: int, j: int) -> float:
    return sum(a[k] * mu[k, i] * mu[k, j] for k in range(mu.shape[0]) if k not in (i, j))


def d_direct(mu: np.ndarray, i: int, j: int) -> float:
    return sum(mu[k, i] * mu[k, j] for k in range(mu.shape[0]) if k not in (i, j))


def sigma1_direct(mu: np.ndarray, a: np.ndarray) -> float:
    n = mu.shape[0]
    f = mu * (1 - mu)
    total = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        total += (a[i] + a[j] + a[k]) ** 2 * f[i, j] * f[j, k] * f[k, i]
    return 4.0 / n**2 * total


def sigma2_direct(mu: np.ndarray, e: np.ndarray) -> float:
    n = mu.shape[0]
    f = mu * (1 - mu)
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        total += e[i, j] ** 2 * f[i, j]
    return total / n**2


def eta_direct(mu: np.ndarray, i: int) -> float:
    n = mu.shape[0]
    mi = mu.sum(axis=1)
    total = 0.0
    for j in range(n):
        for k in range(n):
            if j != k:
                total += mu[i, j] * mu[j, k] * mu[k, i] / (mi[i] ** 2 * mi[j] * mi[k])
    return total


def gamma_direct(mu: np.ndarray, i: int, j: int) -> float:
    n = mu.shape[0]
    mi = mu.sum(axis=1)
    return sum(
        mu[j, k] * mu[k, i] / (mi[i] * mi[j] * mi[k])
        for k in range(n)
        if k not in (i, j)
    )


def v1_direct(mu: np.ndarray) -> float:
    n = mu.shape[0]
    mi = mu.sum(axis=1)
    f = mu * (1 - mu)
    total = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        total += f[i, j] * f[j, k] * f[k, i] / (mi[i] ** 2 * mi[j] ** 2 * mi[k] ** 2)
    return total


def v2_direct(mu: np.ndarray) -> float:
    n = mu.shape[0]
    f = mu * (1 - mu)
    eta = [eta_direct(mu, i) for i in range(n)]
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        total += (gamma_direct(mu, i, j) - (eta[i] + eta[j]) / 2) ** 2 * f[i, j]
    return total


def delta_longdouble(mu: np.ndarray) -> np.ndarray:
    """delta_ij = gamma_ij - (eta_i + eta_j)/2 in extended precision
    (np.longdouble, zero diagonal), for mid n.

    The sums run in vectorized long-double arithmetic instead of Python
    loops: gamma_ij = sum_k mu_ik mu_kj / mu_k over mu_i mu_j (the zero
    diagonal drops k = i and k = j), eta_i = sum_j mu_ij gamma_ij / mu_i,
    which is the defining sum over j != k regrouped, and mu_i the
    long-double row sums.  The extra bits absorb the cancellation in
    gamma - (eta_i + eta_j)/2 at the sizes the tests use.
    """
    m = np.asarray(mu, dtype=np.longdouble)
    mi = m.sum(axis=1)
    gamma = (m @ (m / mi[:, None])) / np.multiply.outer(mi, mi)
    np.fill_diagonal(gamma, 0)
    eta = (m * gamma).sum(axis=1) / mi
    delta = gamma - (eta[:, None] + eta[None, :]) / 2
    np.fill_diagonal(delta, 0)
    return delta


def v2_longdouble(mu: np.ndarray) -> float:
    """`v2_direct` in extended precision, over `delta_longdouble`."""
    m = np.asarray(mu, dtype=np.longdouble)
    return float(np.triu(delta_longdouble(mu) ** 2 * m * (1 - m), 1).sum())


def a_coeff_mp(mu_row: np.ndarray, dps: int = 40) -> float:
    """E[1/(d(d-1))] over d >= 2 for the degree d = sum of independent
    Bernoulli(mu_row[j]), from the convolution of the PMF in `dps`-digit
    mpmath arithmetic, for mid n.

    The PMF is kept on {0, ..., m} with m = min(len(mu_row),
    ceil(mu + 20 sqrt(mu) + 50)), mu = sum of mu_row; mass only moves
    upward, so the kept entries are those of the full convolution, and the
    dropped mass P(d > m) <= e^(-mu) (e mu / m)^m lies far below 10^-dps
    for the rows the tests use.
    """
    import mpmath

    with mpmath.workdps(dps):
        probs = [mpmath.mpf(float(q)) for q in mu_row if q != 0.0]
        mu = float(sum(probs))
        width = min(len(probs), math.ceil(mu + 20.0 * math.sqrt(mu) + 50.0))
        pmf = [mpmath.mpf(1)] + [mpmath.mpf(0)] * width
        for step, q in enumerate(probs):
            stay = 1 - q
            for d in range(min(step + 1, width), 0, -1):
                pmf[d] = pmf[d] * stay + pmf[d - 1] * q
            pmf[0] *= stay
        total = mpmath.fsum(pmf[d] / (d * (d - 1)) for d in range(2, width + 1))
        return float(total)


def binomial_a(n: int, pi: float) -> float:
    """a = E[1/(d(d-1))] over d >= 2, d ~ Binomial(n-1, pi): scipy's PMF,
    summed by math.fsum."""
    from scipy.stats import binom

    k = np.arange(2, n)
    return math.fsum((binom.pmf(k, n - 1, pi) / (k * (k - 1.0))).tolist())


def constant_weight_components(n: int, pi: float, a: float) -> tuple[float, float, float, float]:
    """(sigma1_sq, sigma2_sq, v1_sq, v2_sq) when every pair has the
    probability pi and every node the constant a of `binomial_a`: one
    representative triple and pair term times the numbers of triples and
    pairs, for any n.

    With f = pi (1 - pi) and mu = (n-1) pi,

        sigma1_sq = (4/n^2) C(n,3) (3a)^2 f^3,   sigma2_sq = (1/n^2) C(n,2) e^2 f,
        v1_sq = C(n,3) f^3 / mu^6,               v2_sq = 0,

    e = 2c + 4a d - 2b, c = (n-2) a pi^2, d = (n-2) pi^2 and
    b = E[t] (2mu - 1) / (mu^2 (mu - 1)^2) with E[t] = (n-1)(n-2) pi^3.
    """
    f, mu = pi * (1.0 - pi), (n - 1) * pi
    et = (n - 1) * (n - 2) * pi**3
    b = et * (2.0 * mu - 1.0) / (mu**2 * (mu - 1.0) ** 2)
    c, d = (n - 2) * a * pi**2, (n - 2) * pi**2
    e = 2.0 * c + 4.0 * a * d - 2.0 * b
    sigma1 = (4.0 / n**2) * math.comb(n, 3) * (3.0 * a) ** 2 * f**3
    sigma2 = (1.0 / n**2) * math.comb(n, 2) * e**2 * f
    return sigma1, sigma2, math.comb(n, 3) * f**3 / mu**6, 0.0


def mean_cc_approx_direct(mu: np.ndarray, a: np.ndarray) -> float:
    """The two-term expansion of E[average clustering coefficient],

        (1/n) sum_i a_i sum_{j != k} mu_ij mu_jk mu_ki
      - (2/n) sum_{i, j, k distinct} g_i f_ij mu_ik mu_jk,

    g_i = (2 mu_i - 1) / (mu_i^2 (mu_i - 1)^2), f = mu (1 - mu), mu_i the row sums."""
    n = mu.shape[0]
    mi = mu.sum(axis=1)
    f = mu * (1 - mu)
    total = 0.0
    for i, j, k in itertools.permutations(range(n), 3):
        g = (2 * mi[i] - 1) / (mi[i] ** 2 * (mi[i] - 1) ** 2)
        total += a[i] * mu[i, j] * mu[j, k] * mu[k, i] - 2 * g * f[i, j] * mu[i, k] * mu[j, k]
    return total / n


def mean_t_leading_direct(mu: np.ndarray) -> float:
    n = mu.shape[0]
    mi = mu.sum(axis=1)
    total = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        total += mu[i, j] * mu[j, k] * mu[k, i] / (mi[i] * mi[j] * mi[k])
    return total


def edge_indicator_stream(model, seed) -> np.ndarray:
    """Per-pair uniforms underlying `sample_graph` for the same seed, in one array.

    Entry k belongs to the k-th pair in canonical order.  The pair {i, j}
    of the sampled graph is present iff its deviate is strictly below
    mu_ij.  `sample_graph` reads the same Philox stream in blocks instead.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed.master_seed, seed.replicate_index]))
    return gen.random(model.n * (model.n - 1) // 2)
