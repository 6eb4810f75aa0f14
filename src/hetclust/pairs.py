"""Canonical ordering of unordered node pairs.

Every component that indexes node pairs (the sampler, the exhaustive
enumerator, file formats) uses the same convention: pairs (i, j) with
i < j in row-major upper-triangular order, i.e.
(0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
"""

from __future__ import annotations

import numpy as np


def n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Rank of the unordered pair {i, j} in canonical order."""
    if i == j:
        raise ValueError("pair requires two distinct nodes")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"node out of range for n={n}")
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pairs_from_ranks(ranks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j) of the pairs with the given canonical ranks.

    The vectorized inverse of `pair_index`: row i starts at rank
    i*(2n-i-1)/2, so i is the last row start not above the rank.
    """
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    ranks = np.asarray(ranks, dtype=np.int64)
    i = np.searchsorted(starts, ranks, side="right") - 1
    return i, ranks - starts[i] + i + 1


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (rows, cols) for all pairs in canonical order."""
    return np.triu_indices(n, k=1)
