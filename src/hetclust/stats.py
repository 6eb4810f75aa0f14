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

The weighted triangle sum reaches each triangle through its three edges:
it adds q_ij / (d_i d_j) over the edges i < j with math.fsum and divides
by 3, where q_ij = sum of 1/d_k over the common neighbours k of i and j.
Each q_ij is defined as the correctly rounded value of that sum of the
floats inv_k = fl(1/d_k), so it depends on no summation order.  It is
computed exactly by splitting every inv_k into two parts,

    hi_k = floor(inv_k * 2**36) * 2**-36,    lo_k = inv_k - hi_k,

both exact floats (after Ozaki, Ogita, Oishi & Rump 2012).  While every
degree is below 2**18, a common neighbour k has inv_k in (2**-18, 1/2],
so hi_k is a multiple of 2**-36 no larger than 1/2 and lo_k a multiple of
2**-70 below 2**-36, and an edge has fewer than 2**18 common neighbours.
Every partial sum of hi parts is then a multiple of 2**-36 below 2**17,
and every partial sum of lo parts a multiple of 2**-70 below 2**-18: both
fit in 53 bits, so they are exact in any order, and
q_ij = fl(sum hi + sum lo) is rounded once.  A larger degree raises a
ValueError.  The per-edge sums come from one of two kernels, switched
like the triangle counts but at their own fill, `_WEIGHTED_DENSE_MIN_FILL`:

* sparse: the complex128 product of A, its columns scaled by hi + i lo,
  with A on the CSR adjacency, masked to the edges; the real and
  imaginary parts each sum exactly.  It runs on chunks of rows so that
  the complex product stays small;
* dense: float64 BLAS products of row blocks of A, scaled column-wise by
  hi and by lo, with the columns of A from the block's first row on, so
  only the upper triangle is formed; the edges are read off the blocks.
  Every product of a 0/1 entry and a part is exact, so fused or blocked
  BLAS arithmetic changes nothing.

Both kernels, and any BLAS thread count, give the same q_ij and so the
same statistic, bit for bit.
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


# Largest n for either dense kernel: it keeps A @ A below 2**24 and bounds
# the n x n copies (64 MB in float32, 128 MB in float64 at n = 4096).
_DENSE_MAX_N = 4096
# Smallest fill for the dense kernel.  With one BLAS thread the two kernels
# break even near 3% fill at n = 300 to 2000 and near 5% at n = 4000.
_DENSE_MIN_FILL = 0.05
# Smallest fill for the weighted sum's dense kernel, whose float64 products
# cost about four sgemms.  With one BLAS thread it breaks even with the
# complex SpGEMM near 7% fill at n = 400 to 2000 and 8-9% at n = 3000 to
# 4000.
_WEIGHTED_DENSE_MIN_FILL = 0.08
# Floats in one row block's product in that kernel (2 MB): one block up to
# n = 362, eight at n = 1000.  Each block is one BLAS call, as few as the
# memory allows: when Monte Carlo workers and BLAS threads oversubscribe
# the CPUs, every call waits for descheduled threads.
_BLOCK_FLOATS = 2**18
# Degrees must stay below this for the per-edge sums to be exact, and the
# split grid: hi_k is 1/d_k truncated to a multiple of 1/_SPLIT.
_MAX_DEGREE = 2**18
_SPLIT = 2.0**36


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


def _takes_dense_weighted_kernel(graph: Graph) -> bool:
    n = graph.n
    return n <= _DENSE_MAX_N and len(graph.indices) >= _WEIGHTED_DENSE_MIN_FILL * n * (n - 1)


def _split_inverse_degrees(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi and lo with hi + lo = fl(1/d) exactly, hi on the grid 1/_SPLIT."""
    # an isolated node is nobody's neighbour; any finite inverse will do
    inv = 1.0 / np.maximum(d, 1.0)
    hi = np.floor(inv * _SPLIT) / _SPLIT
    return hi, inv - hi


def _edge_sums_sparse(graph: Graph, hi: np.ndarray, lo: np.ndarray):
    """Upper edges (i, j) and their q_ij, from complex SpGEMMs on row chunks."""
    # complex from the start, so no product casts a copy of it
    a = graph.adjacency_csr(dtype=np.complex128)
    k = graph.indices
    # column k of A scaled by hi_k + i lo_k
    split = sp.csr_matrix(((hi + 1j * lo)[k], k, graph.indptr), shape=a.shape)
    # row i of split @ a has at most sum(d_k, k ~ i) entries, sum(d**2) in
    # all: chunks of rows with about _BLOCK_FLOATS of them bound its memory
    d = graph.degrees
    if d @ d <= _BLOCK_FLOATS:
        chunks = [(0, split, a)]
    else:
        reach = np.concatenate(([0], np.cumsum(d[k])))[graph.indptr[1:]]
        cuts = np.unique(np.searchsorted(reach, np.arange(_BLOCK_FLOATS, reach[-1], _BLOCK_FLOATS)))
        bounds = [0, *cuts.tolist(), graph.n]
        chunks = ((r0, split[r0:r1], a[r0:r1]) for r0, r1 in zip(bounds[:-1], bounds[1:]))
    pieces = []
    for r0, split_rows, a_rows in chunks:
        q = (split_rows @ a).multiply(a_rows).tocsr()
        rows = np.repeat(np.arange(r0, r0 + q.shape[0]), np.diff(q.indptr))
        upper = rows < q.indices
        sums = q.data[upper]
        pieces.append((rows[upper], q.indices[upper], sums.real + sums.imag))
    return [np.concatenate(x) for x in zip(*pieces)]


def _edge_sums_dense(graph: Graph, hi: np.ndarray, lo: np.ndarray):
    """Upper edges (i, j) and their q_ij, from float64 BLAS products on row blocks."""
    n = graph.n
    rows, cols = graph.edge_pairs()
    a = graph.adjacency_dense()
    q = np.empty(len(rows))
    step = max(1, _BLOCK_FLOATS // (2 * max(n, 1)))
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        # the block's edges, in canonical order; columns counted from r0
        e0, e1 = np.searchsorted(rows, (r0, r1))
        i, j = rows[e0:e1] - r0, cols[e0:e1] - r0
        block = a[r0:r1]
        # hi-scaled rows over lo-scaled rows: one product gives both sums
        sums = np.concatenate((block * hi, block * lo)) @ a[:, r0:]
        q[e0:e1] = sums[i, j] + sums[i + (r1 - r0), j]
    return rows, cols, q


def weighted_triangle_sum(graph: Graph) -> float:
    """Sum over triangles {i<j<k} of 1 / (d_i d_j d_k).

    Each triangle is reached through its three edges: the sum adds
    q_ij / (d_i d_j) over the edges with math.fsum and divides by 3.  The
    per-edge sums q_ij of 1/d_k over common neighbours k are correctly
    rounded (see the module docstring), so the result is the same float
    whichever kernel ran and however BLAS ordered its sums.  Raises
    ValueError if a degree reaches 2**18, beyond which the split that
    makes q_ij exact no longer holds.
    """
    d = graph.degrees.astype(np.float64)
    if graph.n and d.max() >= _MAX_DEGREE:
        raise ValueError(
            f"weighted triangle sum needs every degree below {_MAX_DEGREE}; "
            f"the largest is {int(d.max())}"
        )
    edge_sums = _edge_sums_dense if _takes_dense_weighted_kernel(graph) else _edge_sums_sparse
    rows, cols, q = edge_sums(graph, *_split_inverse_degrees(d))
    # every triangle is counted once per edge
    return math.fsum((q / (d[rows] * d[cols])).tolist()) / 3.0
