"""Reproducible sampling of independent-edge graphs.

Randomness is counter-based: the uniform deviate for a pair is a pure
function of (master_seed, replicate_index, pair_index), obtained from a
Philox stream keyed by (master_seed, replicate_index) and read at the
pair's canonical rank.  Replicates can therefore be generated on any
worker, in any order, with bit-identical results, and distinct replicate
indices give independent edge randomness.

A replicate holds the n(n-1)/2 uniforms and the model's cached pair
vector (`ModelSpec.mu_pairs`, one per model) in memory, and decodes only
the ranks of its edges into endpoints; it builds no all-pairs index
arrays.  Worker processes receive the model without its cached arrays
and rebuild them once per chunk of replicates.
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
    "edge_indicator_stream",
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


def edge_indicator_stream(model: ModelSpec, seed: SeedSpec) -> np.ndarray:
    """Per-pair uniforms underlying `sample_graph` for the same seed.

    Entry k belongs to the k-th pair in canonical order.  The pair {i, j}
    of the sampled graph is present iff its deviate is strictly below
    mu_ij, so centered indicators can be recomputed without storing the
    graph.
    """
    gen = np.random.Generator(
        np.random.Philox(key=[seed.master_seed, seed.replicate_index])
    )
    return gen.random(n_pairs(model.n))


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
        """Build from undirected edges given once as (i, j) with i < j."""
        r = np.concatenate([rows, cols]).astype(np.int32, copy=False)
        c = np.concatenate([cols, rows]).astype(np.int32, copy=False)
        a = sp.coo_matrix(
            (np.ones(len(r), dtype=np.int8), (r, c)), shape=(n, n)
        ).tocsr()
        a.sort_indices()
        return Graph(n=n, indptr=a.indptr.copy(), indices=a.indices.copy())


def sample_graph(model: ModelSpec, seed: SeedSpec) -> Graph:
    """Draw one graph: pair {i, j} included independently w.p. mu_ij."""
    hits = np.flatnonzero(edge_indicator_stream(model, seed) < model.mu_pairs())
    return Graph.from_edges(model.n, *pairs_from_ranks(hits, model.n))


def write_edgelist(graph: Graph, path: str | Path) -> None:
    """Plain-text persistence: header line "n <count>", one "i j" per edge."""
    rows, cols = graph.edge_pairs()
    with open(path, "w") as fh:
        fh.write(f"n {graph.n}\n")
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j}\n")


def read_edgelist(path: str | Path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"{path}: malformed edge-list header")
        n = int(header[1])
        rows, cols, seen = [], [], set()
        for line in fh:
            if not line.strip():
                continue
            i, j = map(int, line.split())
            if not (0 <= i < j < n):
                raise ValueError(f"{path}: invalid edge ({i}, {j}) for n={n}")
            if (i, j) in seen:
                raise ValueError(f"{path}: duplicate edge ({i}, {j})")
            seen.add((i, j))
            rows.append(i)
            cols.append(j)
    return Graph.from_edges(n, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
