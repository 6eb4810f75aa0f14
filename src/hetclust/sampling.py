"""Reproducible sampling of independent-edge graphs.

Randomness is counter-based: the uniform deviate for a pair is a pure
function of (master_seed, replicate_index, pair_index), obtained from a
Philox stream keyed by (master_seed, replicate_index) and read at the
pair's canonical rank.  Replicates can therefore be generated on any
worker, in any order, with bit-identical results, and distinct replicate
indices give independent edge randomness.

A replicate reads its stream in blocks of `_BLOCK` pair ranks (2 MiB of
deviates), keeps the ranks of each block's edges, and decodes only those
ranks into endpoints; it never holds all n(n-1)/2 uniforms or any
all-pairs index array.  Each block is compared against its slice of the
model's cached pair vector (`ModelSpec.mu_pairs`, one per model); for
constant weights that vector is a zero-stride view of the one
probability p*c, so the comparison reads a single float.  A stream read
in blocks yields the same deviates as one read at once, so graphs do not
depend on the block size.
Worker processes receive the model without its cached arrays and rebuild
what they use once per chunk of replicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .model import ModelSpec
from .pairs import n_pairs, pairs_from_ranks

__all__ = [
    "SeedSpec",
    "Graph",
    "sample_graph",
    "write_edgelist",
    "read_edgelist",
]


@dataclass(frozen=True)
class SeedSpec:
    """Addressable source of randomness for one replicate."""

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**63:
            raise ValueError(f"master_seed must lie in [0, 2**63), got {self.master_seed}")
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be >= 0")


# pair ranks per block of the sampler's deviate stream (2 MiB of float64)
_BLOCK = 1 << 18


def _philox(seed: SeedSpec) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=[seed.master_seed, seed.replicate_index])
    )


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with sorted adjacency lists.

    Stored in compressed sparse row form (`indptr`, `indices`).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diff(self.indptr).astype(np.int64)
        d.flags.writeable = False
        return d

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints (i, j) with i < j, in canonical order."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        cols = self.indices
        upper = rows < cols
        return rows[upper], cols[upper]

    def adjacency_csr(self, dtype=np.int32) -> sp.csr_matrix:
        data = np.ones(len(self.indices), dtype=dtype)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def adjacency_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        a[rows, self.indices] = 1.0
        return a

    @staticmethod
    def from_edges(n: int, rows: np.ndarray, cols: np.ndarray) -> "Graph":
        """Build from undirected edges (i, j), i != j, in any order, repeats
        merged.

        Edges in canonical order (i < j, sorted by i then j, none repeated),
        as the sampler gives them, need no sort of their own: row v is then
        its lower neighbours, in the order of their edges (i, v), followed by
        its upper ones, so one stable sort of the edge ends by source node
        gives sorted rows.  Other edge lists are brought into canonical order
        first.  Raises ValueError on a loop or a node outside [0, n).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        keys = rows * n + cols
        canonical = np.all(rows < cols) and np.all(keys[1:] > keys[:-1])
        # each edge's smaller and larger end; in canonical order rows[0] is
        # the smallest node
        lo, hi = (rows[:1], cols) if canonical else (np.minimum(rows, cols), np.maximum(rows, cols))
        if len(rows) and (lo.min() < 0 or hi.max() >= n):
            raise ValueError(f"graph edge endpoints must lie in [0, {n})")
        if not canonical:
            if np.any(lo == hi):
                raise ValueError("a graph edge must join two distinct nodes")
            rows, cols = np.divmod(np.unique(lo * n + hi), n)
        source = np.concatenate([cols, rows])
        # numpy's stable sort of 16-bit keys is a counting (radix) sort
        order = np.argsort(source.astype(np.uint16) if n <= 1 << 16 else source, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
        indices = np.concatenate([rows, cols]).astype(np.int32)[order]
        return Graph(n=n, indptr=indptr, indices=indices)


def sample_graph(model: ModelSpec, seed: SeedSpec) -> Graph:
    """Draw one graph: pair {i, j} included independently w.p. mu_ij.

    The seed's Philox stream holds one uniform deviate per pair, in
    canonical pair order; the pair is present iff its deviate lies
    strictly below its probability.  The deviates are read `_BLOCK` pair
    ranks at a time into one buffer; each block keeps the ranks whose
    deviate lies below the block's slice of `model.mu_pairs()`.
    """
    total = n_pairs(model.n)
    gen = _philox(seed)
    mu = model.mu_pairs()
    buf = np.empty(min(_BLOCK, total))
    hits = [np.empty(0, dtype=np.intp)]  # what n < 2 returns: no pairs, no blocks
    for start in range(0, total, _BLOCK):
        u = buf[: min(_BLOCK, total - start)]
        gen.random(out=u)
        hits.append(np.flatnonzero(u < mu[start : start + len(u)]) + start)
    ranks = np.concatenate(hits)
    return Graph.from_edges(model.n, *pairs_from_ranks(ranks, model.n))


def write_edgelist(graph: Graph, path: str | Path) -> None:
    """Plain-text persistence: header line "n <count>", one "i j" per edge."""
    rows, cols = graph.edge_pairs()
    with open(path, "w") as fh:
        fh.write(f"n {graph.n}\n")
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j}\n")


def read_edgelist(path: str | Path) -> Graph:
    """Inverse of `write_edgelist`; an unparsable line fails as `<path>:<line>: ...`."""
    with open(path) as fh:
        header = fh.readline()
        try:
            key, count = header.split()
            n = int(count)
        except ValueError:
            key = None
        if key != "n" or n < 0:
            raise ValueError(
                f"{path}:1: malformed edge-list header {header.strip()!r}, expected 'n <count>'"
            )
        rows, cols, seen = [], [], set()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected two integer node indices, got {line.strip()!r}"
                ) from None
            if not (0 <= i < j < n):
                raise ValueError(f"{path}: invalid edge ({i}, {j}) for n={n}")
            if (i, j) in seen:
                raise ValueError(f"{path}: duplicate edge ({i}, {j})")
            seen.add((i, j))
            rows.append(i)
            cols.append(j)
    return Graph.from_edges(n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
