"""Exact finite-n moments and variance components of the two statistics.

For a model with pair probabilities mu_ij and expected degrees
mu_i = sum_j mu_ij, write f_ij = mu_ij (1 - mu_ij) for the pair variance.
The average clustering coefficient fluctuates, to leading order, like the
sum of a cubic edge term and a linear edge term

    (2/n) sum_{i<j<k} (a_i + a_j + a_k) Ab_ij Ab_ik Ab_jk
  + (1/n) sum_{i<j}   e_ij Ab_ij,          Ab_ij = A_ij - mu_ij,

whose exact variances are

    sigma1_sq = (4/n^2) sum_{i<j<k} (a_i+a_j+a_k)^2 f_ij f_jk f_ki,
    sigma2_sq = (1/n^2) sum_{i<j}   e_ij^2 f_ij,

with per-node and per-pair constants

    a_i  = E[ 1 / (d_i (d_i - 1)) ]   (truncated to d_i >= 2),
    E[t_i] = sum_{j != k} mu_ij mu_jk mu_ki,
    b_i  = E[t_i] (2 mu_i - 1) / (mu_i^2 (mu_i - 1)^2),
    c_ij = sum_k a_k mu_ki mu_kj,      d_ij = sum_k mu_ki mu_kj,
    e_ij = 2 c_ij + 2 (a_i d_ij + a_j d_ji) - b_i - b_j.

The weighted triangle sum has the analogous decomposition with

    v1_sq = sum_{i<j<k} f_ij f_jk f_ki / (mu_i mu_j mu_k)^2,
    v2_sq = sum_{i<j} (gamma_ij - (eta_i + eta_j)/2)^2 f_ij,
    eta_i    = sum_{j != k} mu_ij mu_jk mu_ki / (mu_i^2 mu_j mu_k),
    gamma_ij = sum_{k not in {i,j}} mu_jk mu_ki / (mu_i mu_j mu_k).

a_i is an expectation over the exact distribution of d_i, a sum of
independent non-identical Bernoulli variables.  Both evaluations rest on
one support width K = min(n-1, ceil(mu_max + 12 sqrt(mu_max) + 30)) and
the multiplicative Chernoff bound on the degree mass above it,

    P(d_i > K) <= e^(-mu_i) (e mu_i / K)^K <= e^(-mu_max) (e mu_max / K)^K,

which increases in mu below K.  The code evaluates it and keeps K only
where it is <= 1e-30 (it stays below 6e-32 for every mu_max); elsewhere
K = n-1 and nothing is dropped.  Dense weights take one convolution over
the columns of mu on {0, ..., K}; mass only moves upward, so the kept
entries equal those of the full-support convolution bit for bit, and the
truncation changes a_i by at most 1e-30 / (K (K+1)).  Product forms
(below) take a Gauss-Legendre quadrature of the generating function of
d_i over the power sums of w (`_rank_one_a` states its rule and bounds
its error by P(d_i > K) and 1e-17), constant weights for node 0 alone.
It agrees with the convolution to about 3e-14 relative at n <= 1000, and
is the closer of the two to 40- and 50-digit references.  Pair
probabilities so near 1 that its series needs over `_MAX_SERIES` terms
take the convolution.  E[1/(d(d-1))] is ill-defined on {d <= 1};
truncating to {d >= 2} matches the zero-denominator convention of the
statistic itself and the exponentially small low-degree tail.

Only this module tells the weight kinds apart: in its pair arrays, its
degree law and delta.  Every other constant is written once over pair
arrays with zero diagonals, mu (`_pair_mu`), f (`_pair_variance`) and the
maps of an n-vector x to x_i and x_j (`_row_col`), by +, -, * and

    paths(x, y)_ij = sum_{k not in {i,j}} x_ik y_kj,
    T(x, y, z)     = sum over distinct (i, j, k) of x_ij y_jk z_ki,

T per node i (`_triple_rows`) or in total (`_triple_sum`): E[t_i] =
T_i(mu, mu, mu), d = paths(mu, mu), v1_sq = T(g, g, g) / 6 with
g_ij = f_ij / mu_i^2, and so on.  Dense weights hold n x n arrays and take
paths as x @ y with a zero diagonal and T from (x @ y) * z^T, O(n^3), the
reference.  Constant and rank-one weights are product forms,
mu_ij = p w_i w_j (`_product_form`; constant weights take p*c and w = 1,
which keeps the bits of every pair probability), whose pair arrays are
short sums of terms L(i) R(j), `_Separable` in O(n K) memory.  For each
pair of terms, with u = R1 L2 and U = sum of u, paths adds
L1(i) R2(j) (U - u_i - u_j), and for each triple of terms T adds
D3(L1 R3, R1 L2, R2 L3), per node x_i [(Y - y_i)(Z - z_i) - (sum yz - y_i z_i)],

    D3(x, y, z) = XYZ - (sum xy) Z - (sum xz) Y - (sum yz) X + 2 sum xyz,

X, Y, Z the sums of x, y, z: no n x n array and no BLAS call.  The two
agree to about 1e-14 relative, except in delta = gamma - (eta_i +
eta_j)/2, a small difference of nearly equal terms.  Dense weights form
it so and lose about 2 log10(n) digits (v2_sq is off by up to 4e-12
relative at n = 300).  Product forms regroup it, with q = p w / mu,
r = w^2 / mu, T = sum of r, R2 = sum of r^2, s = q (T - r) and g = q r,

    delta_ij = -(p/2) (s_i - s_j)^2 + (p R2/2) (q_i - q_j)^2
               - (p/2) (g_i + g_j)^2 + q_i q_j [zeta - kappa (r_i + r_j)],

kappa = 1 - pT and zeta = p R2 + kappa T, the last two by `math.fsum`
since pT = 1 + O(1/n), and s and q centred in the squared differences;
the tests bound its v2_sq against extended precision by 5e-11.  Under
constant weights gamma_ij = eta_i, and delta is a `_Separable` with no
terms, whose empty sum makes v2_sq 0.0 exactly.

Asymptotically, for c = 1,

    sigma1_sq -> 6 / n^(3-alpha),   sigma2_sq -> 2 / n^(2+alpha),

which cross at alpha = 1/2: the variance scale of the clustering
coefficient changes regime there, while v1_sq + v2_sq moves continuously
in alpha.  Convergence to these closed forms is slow: a_i exceeds
1/(mu_i(mu_i-1)) by Theta(1/mu_i), which inflates sigma1_sq by roughly
(1 + 4/mu_i)^2 at finite n.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import ConstantWeights, ModelSpec, RankOneWeights, _require_valid

__all__ = [
    "a_coeff",
    "a_coeff_from_pmf",
    "expected_ti_all",
    "ClusteringConstants",
    "clustering_constants",
    "sigma_components",
    "TriangleConstants",
    "triangle_constants",
    "v_components",
    "mean_cc_approx",
    "mean_t_leading",
    "ClosedFormSigma",
    "sigma_closed_forms",
    "v_closed_form_rank_one",
    "TheoreticalMoments",
    "theoretical_moments",
    "moments_to_json",
]


# ---------------------------------------------------------------------------
# degree law and per-node constants


# largest dropped degree tail P(d_i > K) the truncated support may carry
_TAIL_BUDGET = 1e-30


def _tail_bound(mu: float, k: int) -> float:
    """Chernoff bound e^(-mu) (e mu / k)^k on P(d >= k), for 0 <= mu < k."""
    if mu == 0.0:
        return 0.0
    return math.exp(-mu + k * (1.0 + math.log(mu / k)))


def _support_width(mu_max: float, n: int) -> int:
    """Support width K of the degree laws of nodes with mu_i <= mu_max."""
    k = math.ceil(mu_max + 12.0 * math.sqrt(mu_max) + 30.0)
    if k >= n - 1 or _tail_bound(mu_max, k) > _TAIL_BUDGET:
        return n - 1
    return k


def _degree_pmfs(rows: np.ndarray, k: int) -> np.ndarray:
    """PMFs on {0, ..., k} of the degrees of a block of rows of pair
    probabilities: all of `mu_matrix`, or one `mu_row` as a 1 x n block.

    One step per column j, in increasing j, convolves every row with
    Bernoulli(mu_rj) at once.  The zero diagonal makes a row's self-term a
    no-op (multiply by 1.0, add 0.0).
    """
    pmf = np.zeros((k + 1, rows.shape[0]))  # one column per row
    pmf[0] = 1.0
    shifted = np.empty((k, rows.shape[0]))
    for q in rows.T:
        np.multiply(pmf[:-1], q, out=shifted)
        pmf *= 1.0 - q
        pmf[1:] += shifted
    return pmf.T


def a_coeff_from_pmf(pmf: np.ndarray) -> float:
    """E[1/(d(d-1))] truncated to d >= 2, for a degree PMF."""
    k = np.arange(2, len(pmf))
    terms = pmf[2:] / (k * (k - 1.0))
    return math.fsum(terms.tolist())


def a_coeff(model: ModelSpec, i: int) -> float:
    """Mean inverse ordered-pair count of d_i, truncated to d_i >= 2.

    Product-form weights take the quadrature of `_rank_one_a`, with the
    same bits as `_a_all`; dense weights, and pair probabilities too near
    1 for it, convolve row i of the pair probabilities alone.  Neither
    builds an n x n matrix.
    """
    _require_valid(model)
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < model.n:
        raise IndexError(f"node index out of range for n={model.n}")
    if _takes_quadrature(model):
        return float(_rank_one_a(model, np.array([i]))[0])
    k = _support_width(float(model.mu[i]), model.n)
    return a_coeff_from_pmf(_degree_pmfs(model.mu_row(i)[None, :], k)[0])


# largest error the truncated power series of log G_i(x) may carry
_SERIES_BUDGET = 1e-17
# most terms of that series the quadrature sums; pair probabilities that
# need more lie so near 1 that the convolution is the cheaper law
_MAX_SERIES = 10_000
# most entries of one (nodes x quadrature points) block of `_rank_one_a`
_BLOCK_ENTRIES = 2**16
# e^L - 1 - L is summed up to L^_EXP_TERMS / _EXP_TERMS!, a relative
# truncation below 1e-18 for 0 <= L < 2
_EXP_TERMS = 25


def _series_length(mu_max: float, n: int) -> int:
    """Terms L of the power series of log G_i: the dropped tail is at most
    (n-1) mu_max^(L+1) / ((L+1) (1 - mu_max)) <= _SERIES_BUDGET.  Past
    _MAX_SERIES terms the count stops at _MAX_SERIES + 1."""
    if not 0.0 < mu_max < 1.0:
        raise ValueError(f"pair probabilities must lie in (0, 1); largest is {mu_max}")
    length = 1
    while length <= _MAX_SERIES and (
        (n - 1) * mu_max ** (length + 1) > _SERIES_BUDGET * (length + 1) * (1.0 - mu_max)
    ):
        length += 1
    return length


def _takes_quadrature(model: ModelSpec) -> bool:
    """Whether a_i comes from `_rank_one_a`: for product forms whose series
    of log G_i has at most _MAX_SERIES terms."""
    if _product_form(model)[1] is None:
        return False
    return _series_length(model.p * model.weights.pair_range(model.n)[1], model.n) <= _MAX_SERIES


@functools.lru_cache(maxsize=8)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [0, 1].

    The roots z of P_q come from Newton steps on the three-term Legendre
    recurrence, from z = cos(pi (k + 3/4) / (q + 1/2)), with one step more
    after the largest falls below 1e-14; their weights are
    2 / ((1 - z^2) P_q'(z)^2) on [-1, 1].  No LAPACK call is made.
    """
    z = np.cos(np.pi * (np.arange(q) + 0.75) / (q + 0.5))
    converged = False
    while True:
        p_prev, p_cur = np.ones(q), z.copy()
        for j in range(2, q + 1):
            p_prev, p_cur = p_cur, ((2 * j - 1) * z * p_cur - (j - 1) * p_prev) / j
        slope = q * (z * p_cur - p_prev) / (z * z - 1.0)
        if converged:
            break
        step = p_cur / slope
        z = z - step
        converged = float(np.abs(step).max()) < 1e-14
    x, weight = 0.5 * (1.0 - z), 1.0 / ((1.0 - z * z) * slope * slope)
    for v in (x, weight):
        v.flags.writeable = False
    return x, weight


def _rank_one_a(model: ModelSpec, nodes: np.ndarray) -> np.ndarray:
    """a_i of the given nodes of a product-form model, mu_ij = p w_i w_j
    (`_product_form`), from the generating function of d_i,

        a_i = int_0^1 (1 - x) (G_i(x) - P_i(0) - P_i(1) x) / x^2 dx,
        log G_i(x) = -sum_r U_r (1 - x)^r,  U_r = (p w_i)^r (S_r - w_i^r) / r,

    with S_r = sum of w^r and P_i(1) = P_i(0) T_1, T_1 = sum_r r U_r.  The
    series keeps L terms (`_series_length`).  The integrand is (1 - x)
    times a polynomial whose coefficients are the P_i(d), d >= 2; with
    Q = K/2 + 2 Gauss-Legendre points (K of `_support_width`) the rule is
    exact on the kept degrees d <= K, and its positive weights, which sum
    to one, change the dropped ones by at most P(d_i > K) <= 1e-30.

    Where L_i(x) = log G_i(x) - log P_i(0) < 2 the numerator is taken as
    P_i(0) [(e^L - 1 - L) - F], with e^L - 1 - L by its series and
    F = T_1 x - L = sum_r U_r f_r >= 0, f_1 = 0, f_(r+1) = (1 - x) f_r + r x^2,
    so no leading terms cancel; elsewhere as exp(log G) - P_i(0) (1 + T_1 x).
    Every step is elementwise per node, and each node's sum over the
    quadrature points is one exactly rounded `math.fsum`, so a node's a_i
    has the same bits in any block of nodes.  No BLAS call is made.
    """
    n, (p, w) = model.n, _product_form(model)
    x, weight = _gauss_legendre(_support_width(float(model.mu.max()), n) // 2 + 2)
    y = 1.0 - x
    scale = weight * y / (x * x)
    length = _series_length(model.p * model.weights.pair_range(n)[1], n)
    u = np.empty((length, len(nodes)))
    pw, wr = p * w[nodes], w.copy()
    pwr = pw.copy()
    for r in range(1, length + 1):
        u[r - 1] = pwr * (float(wr.sum()) - wr[nodes]) / r
        pwr *= pw
        wr *= w
    out = np.empty(len(nodes))
    step = max(1, _BLOCK_ENTRIES // len(x))
    for start in range(0, len(nodes), step):
        out[start : start + step] = _quadrature_block(u[:, start : start + step], x, y, scale)
    return out


def _quadrature_block(u: np.ndarray, x: np.ndarray, y: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`_rank_one_a` on one block: u holds U_r of its nodes in row r - 1."""
    length, b = u.shape
    # Horner in y = 1 - x for -log G, and at y = 1 for -log P(0); T_1 = sum r U_r
    acc = np.broadcast_to(u[-1][:, None], (b, len(x))).copy()
    acc0 = u[-1].copy()
    t1 = length * u[-1]
    for r in range(length - 1, 0, -1):
        acc *= y
        acc += u[r - 1][:, None]
        acc0 += u[r - 1]
        t1 += r * u[r - 1]
    acc *= y
    p0 = np.exp(-acc0)
    near = acc0[:, None] - acc < 2.0
    num = np.exp(-acc)
    num -= p0[:, None] * (1.0 + t1[:, None] * x)
    rows, cols = np.nonzero(near)
    xs = x[cols]
    f = np.zeros(len(rows))
    big_f = np.zeros(len(rows))
    for r in range(1, length + 1):
        big_f += u[r - 1][rows] * f
        f *= 1.0 - xs
        f += r * xs * xs
    lam = t1[rows] * xs - big_f
    c = 1.0 / math.factorial(_EXP_TERMS)
    for m in range(_EXP_TERMS - 1, 1, -1):
        c = c * lam + 1.0 / math.factorial(m)
    num[rows, cols] = p0[rows] * (c * lam * lam - big_f)
    num *= scale
    return np.array([math.fsum(row) for row in num.tolist()])


def _a_all(model: ModelSpec) -> np.ndarray:
    if model.is_homogeneous:  # every node has node 0's law
        return np.full(model.n, a_coeff(model, 0))
    if _takes_quadrature(model):
        return _rank_one_a(model, np.arange(model.n))
    k = _support_width(float(model.mu.max()), model.n)
    # mu_matrix is symmetric, so its transpose has the same rows, and the
    # columns the convolution steps through are its contiguous rows
    pmfs = _degree_pmfs(model.mu_matrix.T, k)
    # one exactly rounded sum per node, as a_coeff gives; no convolution here
    return np.array([a_coeff_from_pmf(pmf) for pmf in pmfs])


def expected_ti_all(model: ModelSpec) -> np.ndarray:
    """E[t_i] = sum over ordered pairs (j, k) of mu_ij mu_jk mu_ki, every i."""
    _require_valid(model)
    m = _pair_mu(model)
    return _triple_rows(m, m, m)


def _require_supercritical(model: ModelSpec) -> None:
    """Raise the one-line error of an invalid model, then of a mu_i <= 1."""
    _require_valid(model)
    low = float(model.mu.min())
    if low <= 1.0:
        raise ValueError(
            f"expected degrees must exceed 1 (min mu_i = {low:.6g}); "
            "the variance constants divide by (mu_i - 1)"
        )


def _b_from(et: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return et * (2.0 * mu - 1.0) / (mu**2 * (mu - 1.0) ** 2)


@dataclass(frozen=True)
class ClusteringConstants:
    """Per-node (a, b, et) and per-pair (c, d, e) variance constants."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    dsum: np.ndarray
    e: np.ndarray
    et: np.ndarray


def _clustering_constants(model: ModelSpec) -> ClusteringConstants:
    """`clustering_constants`, with c, d and e in the representation of `_pair_mu`."""
    _require_supercritical(model)
    a, m = _a_all(model), _pair_mu(model)
    row, col = _row_col(model)
    c, dsum = _paths(m, row(a) * m), _paths(m, m)
    et = _triple_rows(m, m, m)
    b = _b_from(et, model.mu)
    e = 2.0 * (c + (row(a) + col(a)) * dsum) - row(b) - col(b)
    return ClusteringConstants(a=a, b=b, c=c, dsum=dsum, e=e, et=et)


def clustering_constants(model: ModelSpec) -> ClusteringConstants:
    """All clustering variance constants, as full vectors and n x n matrices."""
    cc = _clustering_constants(model)
    return ClusteringConstants(**{k: np.asarray(v) for k, v in vars(cc).items()})


def sigma_components(model: ModelSpec) -> tuple[float, float]:
    """Exact (sigma1_sq, sigma2_sq) for the average clustering coefficient,
    the sums over the a and e of `clustering_constants`."""
    cc = _clustering_constants(model)
    return _sigma_sums(model, cc.a, cc.e)


def _sigma_sums(model: ModelSpec, a: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """The triple and pair sums of `sigma_components` over its constants a
    and e: over ordered triples, (a_i + a_j + a_k)^2 counts as 3 a_i^2 +
    6 a_i a_j by symmetry, and a sixth of that is the sum over i < j < k."""
    n, f = model.n, _pair_variance(model)
    row, _ = _row_col(model)
    af = row(a) * f
    triple = 0.5 * (_triple_sum(row(a * a) * f, f, f) + 2.0 * _triple_sum(af, af, f))
    return (4.0 / n**2) * triple, (0.5 / n**2) * float((e * e * f).sum())


# ---------------------------------------------------------------------------
# weighted triangle sum


@dataclass(frozen=True)
class TriangleConstants:
    """Linear-term constants of the weighted triangle sum; delta is its coefficient."""

    eta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def _triangle_constants(model: ModelSpec) -> TriangleConstants:
    """`triangle_constants`, with gamma and delta in the representation of `_pair_mu`."""
    _require_valid(model)
    n, mu, m = model.n, model.mu, _pair_mu(model)
    row, col = _row_col(model)
    h = m * col(1.0 / mu)  # h_ij = mu_ij / mu_j
    eta = _triple_rows(h, h, m) / mu**2
    gamma = _paths(h, m) * row(1.0 / mu) * col(1.0 / mu)
    p, w = _product_form(model)
    if w is None:
        return TriangleConstants(eta=eta, gamma=gamma, delta=gamma - 0.5 * (row(eta) + col(eta)))
    if model.is_homogeneous:  # gamma_ij = eta_i = eta_j in exact arithmetic
        return TriangleConstants(eta=eta, gamma=gamma, delta=_Separable(n, ()))
    # delta regrouped as in the module docstring
    q, r = p * w / mu, w * w / mu
    t, r2 = float(r.sum()), float((r * r).sum())
    kappa = math.fsum([1.0, *(-p * r).tolist()])
    zeta = math.fsum((r * (kappa + p * r)).tolist())
    s, q0 = (x - x.mean() for x in (q * (t - r), q))  # centred for the squared differences
    ds, dq, sg = row(s) - col(s), row(q0) - col(q0), row(q * r) + col(q * r)
    delta = (-0.5 * p) * (ds * ds) + (0.5 * p * r2) * (dq * dq) - (0.5 * p) * (sg * sg)
    delta += _Separable(n, ((q * (zeta - kappa * r), q), (q, -kappa * q * r)))
    return TriangleConstants(eta=eta, gamma=gamma, delta=delta)


def triangle_constants(model: ModelSpec) -> TriangleConstants:
    """eta, gamma and delta_ij = gamma_ij - (eta_i + eta_j)/2, zero diagonals
    (delta regrouped for product-form weights, and 0 exactly under constant
    weights; dense weights form it as written)."""
    tc = _triangle_constants(model)
    return TriangleConstants(**{k: np.asarray(v) for k, v in vars(tc).items()})


def v_components(model: ModelSpec) -> tuple[float, float]:
    """Exact (v1_sq, v2_sq) for the weighted triangle sum: v2_sq over the
    delta of `triangle_constants` (0.0 exactly under constant weights, whose
    delta has no terms), v1_sq = T(g, g, g) / 6 with g_ij = f_ij / mu_i^2."""
    delta, f = _triangle_constants(model).delta, _pair_variance(model)
    row, _ = _row_col(model)
    g = row(1.0 / (model.mu * model.mu)) * f
    return _triple_sum(g, g, g) / 6.0, 0.5 * float((delta * delta * f).sum())


# ---------------------------------------------------------------------------
# mean expansions and closed forms


def mean_cc_approx(model: ModelSpec) -> float:
    """Two-term expansion of the expected average clustering coefficient:

        (1/n) sum_i E[t_i] a_i
      - (2/n) sum_{i!=j!=k} [(2mu_i-1)/(mu_i^2(mu_i-1)^2)] f_ij mu_ik mu_jk.

    The neglected remainder shrinks only as the expected degrees grow;
    at small n the second term is not a small correction.
    """
    _require_supercritical(model)
    return _mean_cc(model, _a_all(model), expected_ti_all(model))


def _mean_cc(model: ModelSpec, a: np.ndarray, et: np.ndarray) -> float:
    n, mu, m = model.n, model.mu, _pair_mu(model)
    row, _ = _row_col(model)
    g = (2.0 * mu - 1.0) / (mu**2 * (mu - 1.0) ** 2)
    paths = _triple_sum(row(g) * _pair_variance(model), m, m)
    return math.fsum((et * a).tolist()) / n - (2.0 / n) * paths


def mean_t_leading(model: ModelSpec) -> float:
    """Leading term of E[weighted triangle sum]:
    sum_{i<j<k} mu_ij mu_jk mu_ki / (mu_i mu_j mu_k), T(h, h, h) / 6 with
    h_ij = mu_ij / mu_i.  Diagnostic only; the full expectation has no
    closed form at finite n.
    """
    _require_valid(model)
    row, _ = _row_col(model)
    h = row(1.0 / model.mu) * _pair_mu(model)
    return _triple_sum(h, h, h) / 6.0


@dataclass(frozen=True)
class ClosedFormSigma:
    """Asymptotic variance scales for constant weights with c = 1."""

    sigma1_sq: float
    sigma2_sq: float
    sigma_sq: float


def sigma_closed_forms(n: int, alpha: float) -> ClosedFormSigma:
    """Closed forms 6/n^(3-alpha), 2/n^(2+alpha) and the regime-selected
    total: the cubic scale above alpha = 1/2, the linear scale below it,
    and their sum 8/(n^2 sqrt(n)) at the boundary.
    """
    _require_valid(ModelSpec(n=n, alpha=alpha, beta=1.0, weights=ConstantWeights(1.0)))
    s1 = 6.0 / n ** (3.0 - alpha)
    s2 = 2.0 / n ** (2.0 + alpha)
    if alpha > 0.5:
        total = s1
    elif alpha < 0.5:
        total = s2
    else:
        total = 8.0 / (n**2 * math.sqrt(n))
    return ClosedFormSigma(sigma1_sq=s1, sigma2_sq=s2, sigma_sq=total)


def v_closed_form_rank_one(model: ModelSpec) -> float:
    """Asymptotic v_sq for rank-one weights: n^3 / (6 w^6 p^3), w = sum_i w_i.

    Continuous in alpha, hence no scale jump for the weighted triangle sum.
    """
    _require_valid(model)
    if not isinstance(model.weights, RankOneWeights):
        raise TypeError("closed form applies to rank-one weight models only")
    w = float(model.weights.w.sum())
    return model.n**3 / (6.0 * w**6 * model.p**3)


# ---------------------------------------------------------------------------
# pair arrays: n x n for dense weights, `_Separable` for product forms


def _product_form(model: ModelSpec) -> tuple[float, np.ndarray | None]:
    """(p, w) with mu_ij = p (w_i w_j): rank-one (p, w), constant (p c, 1), dense (p, None)."""
    weights = model.weights
    if isinstance(weights, RankOneWeights):
        return model.p, weights.w
    if isinstance(weights, ConstantWeights):
        return model.p * float(weights.c), np.ones(model.n)
    return model.p, None


def _pair_mu(model: ModelSpec):
    """mu_ij: `mu_matrix` for dense weights, the `_Separable` (p w_i) w_j for product forms."""
    p, w = _product_form(model)
    return model.mu_matrix if w is None else _Separable(model.n, ((p * w, w),))


def _pair_variance(model: ModelSpec):
    """f_ij = mu_ij (1 - mu_ij) in the representation of `_pair_mu`."""
    m = _pair_mu(model)
    if isinstance(m, _Separable):  # its two pairs formed once, as sums read them often
        return _Separable(m.n, tuple((m - m * m).pairs()))
    return m * (1.0 - m)


def _row_col(model: ModelSpec):
    """The maps of an n-vector x to the pair arrays x_i and x_j, zero
    diagonals, in the representation of `_pair_mu`."""
    n = model.n
    if _product_form(model)[1] is None:
        off = 1.0 - np.eye(n)
        return (lambda x: x[:, None] * off), (lambda x: x[None, :] * off)
    ones = np.ones(n)
    return (lambda x: _Separable(n, ((x, ones),))), (lambda x: _Separable(n, ((ones, x),)))


def _paths(x, y):
    """The pair array sum over k not in {i, j} of x_ik y_kj, zero diagonal."""
    if not isinstance(x, _Separable):
        out = x @ y  # the zero diagonals drop k = i and k = j
        np.fill_diagonal(out, 0.0)
        return out
    out = []
    for left, r1 in x.pairs():
        for l2, right in y.pairs():
            u = r1 * l2
            out += [(left * (float(u.sum()) - u), right), (left, -u * right)]
    return _Separable(x.n, tuple(out))


def _triples(x, y, z) -> list:
    """(L1 R3, R1 L2, R2 L3) over the triples of terms of three `_Separable`."""
    ys, zs = tuple(y.pairs()), tuple(z.pairs())
    return [(l1 * r3, r1 * l2, r2 * l3) for l1, r1 in x.pairs() for l2, r2 in ys for l3, r3 in zs]


def _triple_rows(x, y, z) -> np.ndarray:
    """Per node i, the sum over ordered pairs of distinct j, k other than i
    of x_ij y_jk z_ki."""
    if isinstance(x, _Separable):
        return sum(_d3_rows(*t) for t in _triples(x, y, z))
    return ((x @ y) * z.T).sum(axis=1)


def _triple_sum(x, y, z) -> float:
    """The sum over ordered triples of distinct nodes of x_ij y_jk z_ki."""
    if isinstance(x, _Separable):
        return math.fsum(_d3(*t) for t in _triples(x, y, z))
    return float(((x @ y) * z.T).sum())


class _Separable:
    """The pair array x_ij = sum_k L_k(i) R_k(j), i != j, with zero diagonal,
    held as its factor pairs of n-vectors, or as a function yielding them:
    a sum or product forms its pairs one at a time as they are read.  `+`,
    `-`, `*` (also by a scalar), `sum()` over i != j (sum L sum R - sum LR
    per pair, by `math.fsum`), the gather `x[rows, cols]` off the diagonal
    and `np.asarray(x)` act as on the n x n array."""

    __array_ufunc__ = None  # numpy scalars defer to the operators below

    def __init__(self, n: int, pairs):
        self.n = n
        self.pairs = pairs if callable(pairs) else (lambda: iter(pairs))

    def __reduce__(self):
        return _Separable, (self.n, tuple(self.pairs()))

    def __add__(self, other):
        return _Separable(self.n, lambda: itertools.chain(self.pairs(), other.pairs()))

    def __sub__(self, other):
        return self + -1.0 * other

    def __mul__(self, other):
        if isinstance(other, _Separable):
            return _Separable(self.n, lambda: (
                (x * u, y * v) for x, y in self.pairs() for u, v in other.pairs()))
        return _Separable(self.n, lambda: ((other * x, y) for x, y in self.pairs()))

    __rmul__ = __mul__

    def sum(self) -> float:
        return math.fsum(itertools.chain.from_iterable(
            (float(x.sum()) * float(y.sum()), -float((x * y).sum())) for x, y in self.pairs()))

    def __getitem__(self, index):
        rows, cols = index
        return sum(x[rows] * y[cols] for x, y in self.pairs())

    def __array__(self, dtype=None, copy=None):
        out = sum((np.multiply.outer(x, y) for x, y in self.pairs()), np.zeros((self.n, self.n)))
        np.fill_diagonal(out, 0.0)
        return out


def _d3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """Sum of x_i y_j z_k over the ordered triples of distinct nodes."""
    sx, sy, sz = float(x.sum()), float(y.sum()), float(z.sum())
    return (
        sx * sy * sz
        - float((x * y).sum()) * sz
        - float((x * z).sum()) * sy
        - float((y * z).sum()) * sx
        + 2.0 * float((x * y * z).sum())
    )


def _d3_rows(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per node i, x_i times the sum of y_j z_k over ordered pairs of
    distinct j, k other than i."""
    sy, sz, yz = float(y.sum()), float(z.sum()), y * z
    return x * ((sy - y) * (sz - z) - (float(yz.sum()) - yz))


# ---------------------------------------------------------------------------
# aggregate


@dataclass(frozen=True)
class TheoreticalMoments:
    """Every exact variance component plus the mean expansions."""

    sigma1_sq: float
    sigma2_sq: float
    sigma_sq: float
    v1_sq: float
    v2_sq: float
    v_sq: float
    mean_cc_approx: float
    mean_t_leading: float


def theoretical_moments(model: ModelSpec) -> TheoreticalMoments:
    _require_supercritical(model)
    v1, v2 = v_components(model)
    # one degree law (the dominant cost) serves sigma and the mean
    cc = _clustering_constants(model)
    (s1, s2), mean_cc = _sigma_sums(model, cc.a, cc.e), _mean_cc(model, cc.a, cc.et)
    return TheoreticalMoments(
        sigma1_sq=s1,
        sigma2_sq=s2,
        sigma_sq=s1 + s2,
        v1_sq=v1,
        v2_sq=v2,
        v_sq=v1 + v2,
        mean_cc_approx=mean_cc,
        mean_t_leading=mean_t_leading(model),
    )


def moments_to_json(
    model: ModelSpec,
    moments: TheoreticalMoments,
    include_constants: bool = False,
) -> str:
    """Serialize moments (and, optionally, every constant vector/matrix)."""
    payload: dict = {
        "n": model.n,
        "alpha": model.alpha,
        "beta": model.beta,
        "moments": asdict(moments),
    }
    if include_constants:
        cc = clustering_constants(model)
        tc = triangle_constants(model)
        payload["constants"] = {
            "a": cc.a.tolist(),
            "b": cc.b.tolist(),
            "c": cc.c.tolist(),
            "d": cc.dsum.tolist(),
            "e": cc.e.tolist(),
            "expected_ti": cc.et.tolist(),
            "eta": tc.eta.tolist(),
            "gamma": tc.gamma.tolist(),
        }
    return json.dumps(payload, indent=2, sort_keys=True)
