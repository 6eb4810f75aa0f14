"""Exhaustive ground truth on tiny graphs.

A labeled graph on n nodes is a bit pattern over the n(n-1)/2 canonical
pairs; enumerating every pattern and weighting each graph by its product
probability  prod mu_ij^A_ij (1 - mu_ij)^(1 - A_ij)  gives exact means
and variances of any statistic.  Feasible up to n = 7 (2^21 graphs);
used as the independent reference for the analytic moment formulas and
for the graph statistics themselves.

Graph codes are little-endian in canonical pair order: bit k of the code
is the k-th pair, so the same code convention is shared with the sampler.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .model import ModelSpec, _require_valid
from .pairs import n_pairs, pair_arrays, pair_index
from .sampling import Graph

__all__ = [
    "OracleReport",
    "enumerate_moments",
    "enumeration_tables",
    "graph_from_code",
]

MAX_ENUM_N = 7


@dataclass(frozen=True)
class OracleReport:
    """Exact moments of both statistics from full enumeration."""

    n: int
    exact_mean_cc: float
    exact_var_cc: float
    exact_mean_t: float
    exact_var_t: float
    exact_et: np.ndarray
    exact_a: np.ndarray
    graph_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=np.ndarray.tolist)


@lru_cache(maxsize=4)
def enumeration_tables(n: int):
    """Per-graph tables over all 2^(n(n-1)/2) graphs on n nodes.

    Returns (bits, degrees, t, cbar, tsum): the pair-bit matrix, node
    degrees, ordered triangle counts, average clustering and weighted
    triangle sum of every graph, indexed by graph code.
    """
    if n > MAX_ENUM_N:
        raise ValueError(f"exhaustive enumeration supports n <= {MAX_ENUM_N}, got {n}")
    m = n_pairs(n)
    count = 1 << m
    codes = np.arange(count, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(m, dtype=np.uint32)[None, :]) & 1).astype(
        np.int8
    )
    incidence = np.zeros((m, n), dtype=np.int8)
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        incidence[k, i] = 1
        incidence[k, j] = 1
    deg = (bits @ incidence).astype(np.int16)  # degrees <= 6 at n <= 7

    triples = list(itertools.combinations(range(n), 3))
    t = np.zeros((count, n), dtype=np.int16)
    tsum = np.zeros(count)
    for i, j, k in triples:
        present = (
            bits[:, pair_index(i, j, n)]
            * bits[:, pair_index(j, k, n)]
            * bits[:, pair_index(i, k, n)]
        ).astype(np.int16)
        for v in (i, j, k):
            t[:, v] += 2 * present
        prod = (deg[:, i] * deg[:, j] * deg[:, k]).astype(np.float64)
        tsum += present / np.where(prod > 0, prod, 1.0)

    cbar = np.zeros(count)
    for v in range(n):  # column-wise to bound transient memory
        denom = (deg[:, v] * (deg[:, v] - 1)).astype(np.float64)
        cbar += np.where(denom > 0, t[:, v] / np.where(denom > 0, denom, 1.0), 0.0)
    cbar /= n
    return bits, deg, t, cbar, tsum


def graph_from_code(n: int, code: int) -> Graph:
    """Materialize the graph with the given pair-bit code.

    The graphs are tiny, so the adjacency lists are read off a dense
    matrix in row-major order, which leaves every list sorted.
    """
    iu, ju = pair_arrays(n)
    present = ((code >> np.arange(len(iu))) & 1).astype(bool)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu[present], ju[present]] = True
    adj |= adj.T
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(adj.sum(axis=1), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=np.nonzero(adj)[1].astype(np.int32))


def _graph_probabilities(bits: np.ndarray, mu_vec: np.ndarray) -> np.ndarray:
    factors = bits * mu_vec[None, :] + (1 - bits) * (1.0 - mu_vec)[None, :]
    return factors.prod(axis=1)


def enumerate_moments(model: ModelSpec) -> OracleReport:
    """Exact moments of both statistics under the model's product measure."""
    _require_valid(model)
    n = model.n
    bits, deg, t, cbar, tsum = enumeration_tables(n)
    mu_vec = model.mu_pairs()
    pr = _graph_probabilities(bits, mu_vec)
    mean_cc = float(pr @ cbar)
    mean_t = float(pr @ tsum)
    var_cc = float(pr @ (cbar - mean_cc) ** 2)
    var_t = float(pr @ (tsum - mean_t) ** 2)
    et = pr @ t
    denom = deg * (deg - 1)
    inv_pairs = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1), 0.0)
    a = pr @ inv_pairs
    return OracleReport(
        n=n,
        exact_mean_cc=mean_cc,
        exact_var_cc=var_cc,
        exact_mean_t=mean_t,
        exact_var_t=var_t,
        exact_et=et,
        exact_a=a,
        graph_count=len(pr),
    )
