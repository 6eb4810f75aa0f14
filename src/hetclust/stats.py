"""Graph summary statistics built on per-node triangle counts.

Conventions, fixed once here and used verbatim by the exact-moment
formulas elsewhere:

* t_i counts ordered neighbour pairs (j, k), j != k, that close a
  triangle through i, so t_i is twice the number of unordered triangles
  containing i.
* The local clustering of node i is t_i / (d_i (d_i - 1)); nodes of
  degree < 2 contribute exactly 0 ("zero-denominator" convention).
* The weighted triangle sum divides each triangle {i, j, k} by the
  product of the three true degrees d_i d_j d_k; a present triangle
  forces all three degrees >= 2, so the product never vanishes on a
  contributing term.

Per-node counts t come from one of two exact kernels, chosen by the
graph's fill 2m / (n(n-1)) and its size:

* sparse: the product (A @ A) * A on the int32 CSR adjacency, which
  intersects sorted neighbour lists edge by edge; its cost grows like the
  sum of squared degrees, so it wins on sparse graphs;
* dense: the same product on a float32 0/1 matrix through one BLAS sgemm,
  taken when the fill is at least `_DENSE_MIN_FILL` and n is at most
  `_DENSE_MAX_N`.  Every entry of A @ A is an integer <= n - 1 < 2**24,
  so float32 holds every partial sum exactly and the result does not
  depend on the BLAS summation order or thread count; the row sums are
  integers below 2**53, exact in float64.  Both kernels therefore return
  the same integers, and the clustering coefficient built on them is the
  same float whichever kernel ran.

The weighted triangle sum stays on the sparse product: its per-edge sums
q_ij = sum_k 1/d_k are floats added in increasing k, and no dense product
reproduces that order, so a dense kernel would change its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sampling import Graph

__all__ = [
    "NodeTriangleProfile",
    "triangle_profile",
    "avg_clustering",
    "weighted_triangle_sum",
]


@dataclass(frozen=True)
class NodeTriangleProfile:
    """Per-node ordered triangle counts t and degrees d."""

    t: np.ndarray
    d: np.ndarray


# Largest n for the dense kernel: it keeps A @ A below 2**24 and bounds the
# two n x n float32 copies (64 MB each at n = 4096).
_DENSE_MAX_N = 4096
# Smallest fill for the dense kernel.  With one BLAS thread the two kernels
# break even near 3% fill at n = 300 to 2000 and near 5% at n = 4000.
_DENSE_MIN_FILL = 0.05


def _takes_dense_kernel(graph: Graph) -> bool:
    n = graph.n
    return n <= _DENSE_MAX_N and len(graph.indices) >= _DENSE_MIN_FILL * n * (n - 1)


def _triangle_counts_sparse(graph: Graph) -> np.ndarray:
    a = graph.adjacency_csr(dtype=np.int32)
    return np.asarray((a @ a).multiply(a).sum(axis=1)).ravel().astype(np.int64)


def _triangle_counts_dense(graph: Graph) -> np.ndarray:
    a = graph.adjacency_csr(dtype=np.float32).toarray()
    paths = a @ a
    paths *= a
    return paths.sum(axis=1, dtype=np.float64).astype(np.int64)


def _triangle_counts(graph: Graph) -> np.ndarray:
    """t_i for every node, from the kernel that fits the graph's fill."""
    if _takes_dense_kernel(graph):
        return _triangle_counts_dense(graph)
    return _triangle_counts_sparse(graph)


def triangle_profile(graph: Graph) -> NodeTriangleProfile:
    """Ordered triangle count per node: t_i = #{(j, k): i~j, j~k, k~i}."""
    return NodeTriangleProfile(t=_triangle_counts(graph), d=graph.degrees)


def avg_clustering(graph: Graph) -> float:
    """Mean local clustering over all nodes, in [0, 1]."""
    profile = triangle_profile(graph)
    d = profile.d
    denom = d * (d - 1)
    safe = np.where(denom > 0, denom, 1)
    return float(np.where(denom > 0, profile.t / safe, 0.0).mean())


def weighted_triangle_sum(graph: Graph) -> float:
    """Sum over triangles {i<j<k} of 1 / (d_i d_j d_k).

    Each triangle is reached through its three edges; the per-edge sums
    of 1/d_k over common neighbours k come from one sparse product, and
    the final reduction is compensated so tiny graphs reproduce the
    brute-force value to full precision.
    """
    a = graph.adjacency_csr(dtype=np.float64)
    d = graph.degrees.astype(np.float64)
    # column k of a scaled by 1/d_k; every listed k has d_k >= 1
    a_scaled = sp.csr_matrix((1.0 / d[graph.indices], graph.indices, graph.indptr), shape=a.shape)
    # q_ij = sum_k 1/d_k over common neighbours k of the edge (i, j)
    q = (a_scaled @ a).multiply(a).tocsr()
    rows = np.repeat(np.arange(graph.n), np.diff(q.indptr))
    cols, vals = q.indices, q.data
    upper = rows < cols
    contrib = vals[upper] / (d[rows[upper]] * d[cols[upper]])
    # every triangle is counted once per edge
    return math.fsum(contrib.tolist()) / 3.0
