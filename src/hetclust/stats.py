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

Both statistics read the triangles through the per-edge sums

    q_ij = sum of s_k over the common neighbours k of i and j,  i < j,

with s_k = 1 for the counts and s_k = 1/d_k for the weighted sum.  Each
node's count is t_i = sum of q_ij over its edges (twice its triangles,
which the listing below counts directly), and the weighted sum adds
q_ij / (d_i d_j) over the edges with math.fsum and divides by 3, since
every triangle is reached through its three edges.

Every q_ij is exact, so it depends on no summation order.  The counts are
integers below n, exact, since the dense kernel runs only for
n <= `_DENSE_MAX_N` < 2**24, in every float32 partial sum; each t_i is an
integer below 2**53, exact in float64.  For the weighted sum, q_ij
is defined as the correctly rounded value of the sum of the floats
inv_k = fl(1/d_k).  It is computed exactly by splitting every inv_k into
two parts,

    hi_k = floor(inv_k * 2**36) * 2**-36,    lo_k = inv_k - hi_k,

both exact floats (after Ozaki, Ogita, Oishi & Rump 2012).  While every
degree is below 2**18, a common neighbour k has inv_k in (2**-18, 1/2],
so hi_k is a multiple of 2**-36 no larger than 1/2 and lo_k a multiple of
2**-70 below 2**-36, and an edge has fewer than 2**18 common neighbours.
Every partial sum of hi parts is then a multiple of 2**-36 below 2**17,
and every partial sum of lo parts a multiple of 2**-70 below 2**-18: both
fit in 53 bits, so they are exact in any order, and
q_ij = fl(sum hi + sum lo) is rounded once.  A larger degree raises a
ValueError.

The sums come from one of two kernels, chosen by the graph's size and
fill 2m / (n(n-1)), at a fill threshold of its own for each statistic:

* sparse: a listing of every triangle a < b < c once, at its smallest
  node (Latapy 2008).  Each upper edge (a, b) pairs with every later
  upper edge (a, c) of row a, and the wedge (a; b, c) is a triangle when
  (b, c) is an edge.  At n <= `_DENSE_MAX_N` a bit-packed upper adjacency
  (at most 2 MiB) tests the wedges, and only the triangles are looked up
  among the sorted upper-edge keys i*n + j; above it every wedge is.
  Wedges are made in chunks of about `_BLOCK_FLOATS`.  A triangle adds 1
  to each of its three nodes, and the hi and lo parts of each node to the
  edge opposite it.  Its cost grows like the number of wedges, so it wins
  on sparse graphs.  One listing gives both statistics: it is made once
  per graph and kept on it, as the degrees are;
* dense, at n <= `_DENSE_MAX_N`: BLAS products of row blocks of A, scaled
  column-wise by each part of s, with the columns of A from the block's
  first row on, so only the upper triangle is formed.  The counts take
  float32 and one part (ones); the weighted sum float64 and two (hi, lo),
  added per edge.  Every product of a 0/1 entry and a part is exact, so
  fused or blocked BLAS arithmetic changes nothing.

The listing adds the parts edge by edge with `numpy.add.at`, chunk after
chunk, and the dense kernel in whatever order BLAS takes: the grid argument
above makes every such partial sum exact.  Both kernels, any chunk size and
any BLAS thread count therefore give the same q_ij and so the same
statistics, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Largest n for the dense kernel: it keeps every count below 2**24 and
# bounds the n x n copy of A (64 MB in float32, 128 MB in float64 at
# n = 4096).
_DENSE_MAX_N = 4096
# Smallest fill for the counts' dense kernel.  With one BLAS thread it broke
# even with an int32 SpGEMM near 3% fill at n = 300 to 2000 and near 5% at
# n = 4000; the listing is faster than that SpGEMM, so this is no longer
# the break-even point.
_DENSE_MIN_FILL = 0.05
# Smallest fill for the weighted sum's dense kernel, whose float64 products
# cost about four sgemms.  With one BLAS thread it broke even with a complex
# SpGEMM near 7% fill at n = 400 to 2000 and 8-9% at n = 3000 to 4000; the
# same holds as above.
_WEIGHTED_DENSE_MIN_FILL = 0.08
# Entries in one row block's product in the dense kernel (1 MB in float32,
# 2 MB in float64), and about the wedges in one chunk of the listing.  The
# weighted sum takes one block up to n = 362, eight at n = 1000.  Each
# block is one BLAS call, as few as the memory allows: when Monte Carlo
# workers and BLAS threads oversubscribe the CPUs, every call waits for
# descheduled threads.
_BLOCK_FLOATS = 2**18
# Degrees must stay below this for the per-edge sums to be exact, and the
# split grid: hi_k is 1/d_k truncated to a multiple of 1/_SPLIT.
_MAX_DEGREE = 2**18
_SPLIT = 2.0**36


def _takes_dense(graph: Graph, min_fill: float) -> bool:
    n = graph.n
    return n <= _DENSE_MAX_N and len(graph.indices) >= min_fill * n * (n - 1)


# bit k of a byte, for the bit-packed upper adjacency
_BIT = (1 << np.arange(8)).astype(np.uint8)


@dataclass(frozen=True)
class _Listing:
    """What a graph's triangles give both statistics: the ordered count t per
    node, and the upper edges (rows, cols) with a triangle and their per-edge
    sums q of 1/d_k.  `block` is the wedge chunk size it was made with."""

    block: int
    t: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    q: np.ndarray


def _listing(graph: Graph) -> _Listing:
    """The graph's triangle listing, made on first use and kept on the graph
    as its degrees are; one made in chunks of another size is made anew."""
    listing = graph.__dict__.get("_listing")
    if listing is None or listing.block != _BLOCK_FLOATS:
        # Graph is frozen: store the way functools.cached_property does
        listing = graph.__dict__["_listing"] = _list_triangles(graph)
    return listing


def _list_triangles(graph: Graph) -> _Listing:
    """Every triangle a < b < c once, as the wedge (a; b, c) of its upper
    edges ab and ac that the edge bc closes."""
    n, block = graph.n, _BLOCK_FLOATS
    rows, cols = (x.astype(np.int64, copy=False) for x in graph.edge_pairs())
    m = len(rows)
    t = np.zeros(n, dtype=np.int64)
    q_hi, q_lo = np.zeros(m), np.zeros(m)
    hi, lo = _split_inverse_degrees(graph.degrees.astype(np.float64))
    # the upper edges after each edge in its row, and the edges' keys, which
    # increase strictly in canonical order
    later = np.cumsum(np.bincount(rows, minlength=n))[rows] - np.arange(m) - 1
    keys = rows * n + cols
    bits = None
    if n <= _DENSE_MAX_N:
        # bit key of the upper adjacency, one row of n bits after another
        bits = np.zeros((n * n + 7) // 8, dtype=np.uint8)
        np.bitwise_or.at(bits, keys >> 3, _BIT[keys & 7])
    # chunks of whole edges, with about `block` wedges each
    reach = np.cumsum(later)
    cuts = np.searchsorted(reach, np.arange(block, reach[-1] if m else 0, block), side="right")
    bounds = np.unique([0, *cuts.tolist(), m]).tolist()
    del reach
    for e0, e1 in zip(bounds[:-1], bounds[1:]):
        k = later[e0:e1]
        ends = np.cumsum(k)
        if not ends[-1]:
            continue
        # the chunk's wedges, edge by edge: wedge w pairs its edge ab with
        # the later edge ac of row a that has the id second_w
        second = np.arange(ends[-1]) + np.repeat(np.arange(e0 + 1, e1 + 1) - (ends - k), k)
        key = np.repeat(cols[e0:e1] * n, k) + cols[second]
        if bits is not None:
            closed = np.flatnonzero(bits[key >> 3] & _BIT[key & 7])
            third = np.searchsorted(keys, key[closed])
        else:
            third = np.minimum(np.searchsorted(keys, key), m - 1)
            closed = np.flatnonzero(keys[third] == key)
            third = third[closed]
        first = e0 + np.searchsorted(ends, closed, side="right")
        second = second[closed]
        # each triangle's edges ab, ac and bc, and the node opposite each
        edge = np.concatenate([first, second, third])
        node = np.concatenate([cols[second], cols[first], rows[first]])
        t += np.bincount(node, minlength=n)
        np.add.at(q_hi, edge, hi[node])
        np.add.at(q_lo, edge, lo[node])
    some = np.flatnonzero(q_hi)  # hi_k > 0: the edges with a triangle
    out = (2 * t, rows[some], cols[some], q_hi[some] + q_lo[some])
    for x in out:
        x.flags.writeable = False
    return _Listing(block, *out)


def _edge_sums_dense(graph: Graph, *parts: np.ndarray):
    """Upper edges (i, j) and their q_ij, the sum over the parts of each part's
    sum over the common neighbours, from BLAS products on row blocks."""
    n, n_parts = graph.n, len(parts)
    rows, cols = graph.edge_pairs()
    a = graph.adjacency_csr(dtype=parts[0].dtype).toarray()
    columns = np.stack(parts)[:, None, :]
    q = np.empty(len(rows), dtype=a.dtype)
    step = max(1, _BLOCK_FLOATS // (n_parts * max(n, 1)))
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        # the block's edges, in canonical order; columns counted from r0
        e0, e1 = np.searchsorted(rows, (r0, r1))
        i, j = rows[e0:e1] - r0, cols[e0:e1] - r0
        # the block's rows scaled by each part, stacked: one product gives
        # every part's sums
        sums = (a[r0:r1] * columns).reshape(-1, n) @ a[:, r0:]
        q[e0:e1] = sums.reshape(n_parts, r1 - r0, -1)[:, i, j].sum(axis=0)
    return rows, cols, q


def triangle_profile(graph: Graph) -> NodeTriangleProfile:
    """Ordered triangle count per node: t_i = #{(j, k): i~j, j~k, k~i}."""
    n = graph.n
    if not _takes_dense(graph, _DENSE_MIN_FILL):
        return NodeTriangleProfile(t=_listing(graph).t, d=graph.degrees)
    rows, cols, q = _edge_sums_dense(graph, np.ones(n, dtype=np.float32))
    # t_i sums q over the edges at i, each edge listed once as i < j
    t = np.bincount(rows, q, n) + np.bincount(cols, q, n)
    return NodeTriangleProfile(t=t.astype(np.int64), d=graph.degrees)


def avg_clustering(graph: Graph) -> float:
    """Mean local clustering over all nodes, in [0, 1].  Raises ValueError
    on a graph with no nodes, where the mean is undefined."""
    if graph.n == 0:
        raise ValueError("average clustering is undefined on a graph with no nodes")
    return _mean_local_clustering(triangle_profile(graph))


def _mean_local_clustering(profile: NodeTriangleProfile) -> float:
    d = profile.d
    denom = d * (d - 1)
    safe = np.where(denom > 0, denom, 1)
    return float(np.where(denom > 0, profile.t / safe, 0.0).mean())


def _split_inverse_degrees(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi and lo with hi + lo = fl(1/d) exactly, hi on the grid 1/_SPLIT."""
    # an isolated node is nobody's neighbour; any finite inverse will do
    inv = 1.0 / np.maximum(d, 1.0)
    hi = np.floor(inv * _SPLIT) / _SPLIT
    return hi, inv - hi


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
    if _takes_dense(graph, _WEIGHTED_DENSE_MIN_FILL):
        rows, cols, q = _edge_sums_dense(graph, *_split_inverse_degrees(d))
    else:
        listing = _listing(graph)
        rows, cols, q = listing.rows, listing.cols, listing.q
    # every triangle is counted once per edge
    return math.fsum((q / (d[rows] * d[cols])).tolist()) / 3.0
