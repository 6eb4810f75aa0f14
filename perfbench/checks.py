"""Output checks made apart from the program.

Every function here recomputes a program output from its definition, or
tests a property the method must have, without calling the hetclust
code path under test.  The graphs are rebuilt from the sampler's stated
contract (pair {i, j} is present iff the Philox(master_seed, replicate)
uniform at the pair's row-major upper-triangular rank is below mu_ij), the
statistics come from networkx or from dense-matrix sums, the degree law
from scipy's Poisson-binomial distribution or a convolution over all nodes
at once, and the variance components from the defining sums in the
docstring of ``hetclust.theory``.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy.stats import binom, poisson_binom

STAT_REL_TOL = 1e-12
DEGREE_LAW_REL_TOL = 1e-12
VARIANCE_REL_TOL = 1e-10
# mean-zero and mean-edge-count checks accept this many standard errors
SE_BUDGET = 4.0


def rel_diff(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    return abs(x - ref) / max(abs(ref), 1e-300)


class CheckLog:
    """Collects named pass/fail outcomes with the figure each was judged on."""

    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def record(self, name: str, passed: bool, detail: str) -> None:
        self.ok &= bool(passed)
        self.lines.append(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")

    def within(self, name: str, value: float, ref: float, tol: float) -> None:
        d = rel_diff(value, ref)
        self.record(name, d <= tol, f"rel diff {d:.3g} <= {tol:g}")


# ---------------------------------------------------------------------------
# graphs and statistics


def reference_edges(n: int, mu_pairs: np.ndarray, master_seed: int, replicate: int):
    """Edge endpoints (i < j) of replicate `replicate`, from the sampler's contract."""
    gen = np.random.Generator(np.random.Philox(key=[master_seed, replicate]))
    u = gen.random(n * (n - 1) // 2)
    iu, ju = np.triu_indices(n, k=1)
    mask = u < mu_pairs
    return iu[mask], ju[mask]


def networkx_statistics(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[float, float]:
    """(average clustering, weighted triangle sum) by networkx and triangle enumeration."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    cc = nx.average_clustering(g)
    deg = dict(g.degree())
    adj = {v: set(g[v]) for v in g}
    terms = []
    for i in range(n):
        for j in adj[i]:
            if j <= i:
                continue
            for k in adj[i] & adj[j]:
                if k > j:
                    terms.append(1.0 / (deg[i] * deg[j] * deg[k]))
    return cc, math.fsum(terms)


def dense_statistics(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[float, float]:
    """Both statistics from their defining sums over a dense adjacency matrix.

    t_i = (A^3)_ii counts ordered closing pairs; the weighted triangle sum
    is trace(C^3) / 6 with C = D^-1/2 A D^-1/2.
    """
    a = np.zeros((n, n))
    a[rows, cols] = 1.0
    a[cols, rows] = 1.0
    d = a.sum(axis=1)
    t = ((a @ a) * a).sum(axis=1)
    pairs = d * (d - 1.0)
    local = np.where(pairs > 0, t / np.where(pairs > 0, pairs, 1.0), 0.0)
    cc = math.fsum(local.tolist()) / n
    s = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    c = a * s[:, None] * s[None, :]
    wts = math.fsum(((c @ c) * c).sum(axis=1).tolist()) / 6.0
    return cc, wts


def check_statistics(log, label, n, replicates, ref_edges, values_by_stat, evaluator):
    """Replicate statistics against the independent evaluator, to 1e-12 relative."""
    worst = {"clustering": 0.0, "weighted_triangles": 0.0}
    for r, (rows, cols) in zip(replicates, ref_edges):
        cc, wts = evaluator(n, rows, cols)
        for stat, ref in (("clustering", cc), ("weighted_triangles", wts)):
            if stat in values_by_stat:
                worst[stat] = max(worst[stat], rel_diff(float(values_by_stat[stat][r]), ref))
    for stat, values in values_by_stat.items():
        log.record(
            f"{label}.{stat}_vs_reference",
            worst[stat] <= STAT_REL_TOL,
            f"{len(replicates)} replicates, worst rel diff {worst[stat]:.3g} <= {STAT_REL_TOL:g}",
        )


def check_sampler(log, label, graphs, ref_edges, mu_pairs):
    """Program graphs equal the contract's edge sets; mean edge count near sum mu."""
    same = all(
        np.array_equal(g.edge_pairs()[0], rr) and np.array_equal(g.edge_pairs()[1], cc)
        for g, (rr, cc) in zip(graphs, ref_edges)
    )
    log.record(f"{label}.sampler_edges_match_contract", same, f"{len(graphs)} graphs")
    counts = np.array([g.n_edges for g in graphs], dtype=np.float64)
    expected = math.fsum(mu_pairs.tolist())
    se = math.sqrt(math.fsum((mu_pairs * (1.0 - mu_pairs)).tolist()) / len(graphs))
    dev = (counts.mean() - expected) / se
    log.record(
        f"{label}.sampler_mean_edges",
        abs(dev) <= SE_BUDGET,
        f"mean {counts.mean():.1f} vs sum mu {expected:.1f}, {dev:+.2f} SE",
    )


# ---------------------------------------------------------------------------
# degree law and variance components


def a_from_pmf(pmf: np.ndarray) -> float:
    k = np.arange(2, len(pmf))
    return math.fsum((pmf[2:] / (k * (k - 1.0))).tolist())


def scipy_a(mu_matrix: np.ndarray, i: int) -> float:
    probs = np.delete(mu_matrix[i], i)
    return a_from_pmf(poisson_binom(probs).pmf(np.arange(len(probs) + 1)))


def a_all_nodes(mu_matrix: np.ndarray) -> np.ndarray:
    """E[1/(d_i(d_i-1)); d_i >= 2] for every node, one convolution over all rows."""
    n = mu_matrix.shape[0]
    pmf = np.zeros((n, n + 1))
    pmf[:, 0] = 1.0
    for k in range(n):
        q = mu_matrix[:, k][:, None]
        shifted = pmf[:, :-1] * q
        pmf *= 1.0 - q
        pmf[:, 1:] += shifted
    k = np.arange(2, n + 1)
    return (pmf[:, 2:] / (k * (k - 1.0))).sum(axis=1)


def defining_sums(mu_matrix: np.ndarray, a: np.ndarray) -> dict:
    """sigma1_sq, sigma2_sq, v1_sq, v2_sq from their defining sums.

    The triple sums over i < j < k are one sixth of the sums over ordered
    triples; the zero diagonal of mu removes coincident indices.  Node i is
    summed out one at a time: for fixed i the sum over (j, k) of
    f_ij f_jk f_ki X_jk is the quadratic form f_i' (f o X) f_i, with
    (a_i + a_j + a_k)^2 expanded in powers of a_i.
    """
    m = np.asarray(mu_matrix, dtype=np.float64)
    n = m.shape[0]
    mu = m.sum(axis=1)
    f = m * (1.0 - m)
    np.fill_diagonal(f, 0.0)
    inv_mu2 = 1.0 / mu**2
    pair_a = a[:, None] + a[None, :]
    f_pa = f * pair_a
    f_pa2 = f * pair_a**2
    f_g = f * np.outer(inv_mu2, inv_mu2)
    s1_parts, v1_parts = [], []
    c = np.empty((n, n))
    dsum = np.empty((n, n))
    et = np.empty(n)
    eta = np.empty(n)
    gamma = np.empty((n, n))
    for i in range(n):
        fi, mi = f[i], m[i]
        s1_parts.append(a[i] ** 2 * (fi @ f @ fi) + 2.0 * a[i] * (fi @ f_pa @ fi) + fi @ f_pa2 @ fi)
        v1_parts.append((fi @ f_g @ fi) * inv_mu2[i])
        dsum[i] = m @ mi  # sum_k mu_ik mu_kj
        c[i] = m @ (a * mi)  # sum_k a_k mu_ik mu_kj
        et[i] = mi @ dsum[i]
        scaled = m @ (mi / mu)  # sum_k mu_ik mu_kj / mu_k
        gamma[i] = scaled / (mu[i] * mu)
        eta[i] = (mi / mu) @ scaled / mu[i] ** 2
    b = et * (2.0 * mu - 1.0) / (mu**2 * (mu - 1.0) ** 2)
    e = 2.0 * c + 2.0 * (a[:, None] * dsum + a[None, :] * dsum.T) - b[:, None] - b[None, :]
    delta = gamma - 0.5 * (eta[:, None] + eta[None, :])
    off = ~np.eye(n, dtype=bool)
    return {
        "sigma1_sq": 4.0 / n**2 * math.fsum(s1_parts) / 6.0,
        "sigma2_sq": 0.5 / n**2 * math.fsum((e**2 * f)[off].tolist()),
        "v1_sq": math.fsum(v1_parts) / 6.0,
        "v2_sq": 0.5 * math.fsum((delta**2 * f)[off].tolist()),
    }


def constant_weight_sums(n: int, q: float) -> dict:
    """Defining sums for constant pair probability q: every triple and every
    pair carries the same term, with a_i from scipy's binomial law.  v2_sq
    is 0 because gamma_ij = (n-2) q^2 / mu^3 = eta_i for every pair."""
    k = np.arange(n)
    a = a_from_pmf(binom(n - 1, q).pmf(k))
    mu = (n - 1) * q
    f = q * (1.0 - q)
    et = (n - 1) * (n - 2) * q**3
    b = et * (2.0 * mu - 1.0) / (mu**2 * (mu - 1.0) ** 2)
    c = (n - 2) * a * q**2
    dsum = (n - 2) * q**2
    e = 2.0 * c + 4.0 * a * dsum - 2.0 * b
    triples, pairs = math.comb(n, 3), math.comb(n, 2)
    return {
        "sigma1_sq": 4.0 / n**2 * triples * (3.0 * a) ** 2 * f**3,
        "sigma2_sq": 1.0 / n**2 * pairs * e**2 * f,
        "v1_sq": triples * f**3 / mu**6,
        "v2_sq": 0.0,
    }


def check_mean_zero(log, name, sample: np.ndarray) -> None:
    """Leading terms are sums of centered indicators, so their mean is zero."""
    se = float(sample.std(ddof=1)) / math.sqrt(len(sample))
    dev = float(sample.mean()) / se
    log.record(name, abs(dev) <= SE_BUDGET, f"mean {sample.mean():.3g}, {dev:+.2f} SE over {len(sample)}")
