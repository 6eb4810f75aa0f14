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

Triangles are found by intersecting sorted neighbour lists edge by edge
(sparse row products), which is the right tool in the sparse regime where
these graphs live.
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


def triangle_profile(graph: Graph) -> NodeTriangleProfile:
    """Ordered triangle count per node: t_i = #{(j, k): i~j, j~k, k~i}."""
    a = graph.adjacency_csr(dtype=np.int32)
    common = (a @ a).multiply(a)
    t = np.asarray(common.sum(axis=1)).ravel().astype(np.int64)
    return NodeTriangleProfile(t=t, d=graph.degrees)


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
