import numpy as np
import pytest

from hetclust.pairs import n_pairs, pair_arrays, pair_index, pairs_from_ranks


def test_pair_index_matches_row_major_upper_triangular():
    for n in (3, 4, 7, 12):
        iu, ju = pair_arrays(n)
        assert len(iu) == n_pairs(n)
        for k, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
            assert pair_index(i, j, n) == k
            assert pair_index(j, i, n) == k


def test_pair_index_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)
    with pytest.raises(IndexError):
        pair_index(0, 5, 5)


def test_pair_arrays_cover_all_pairs():
    n = 9
    iu, ju = pair_arrays(n)
    seen = set(zip(iu.tolist(), ju.tolist()))
    assert len(seen) == n_pairs(n)
    assert all(i < j for i, j in seen)


def test_pairs_from_ranks_inverts_pair_index():
    for n in range(2, 51):
        rows, cols = pairs_from_ranks(np.arange(n_pairs(n)), n)
        ranks = [pair_index(i, j, n) for i, j in zip(rows.tolist(), cols.tolist())]
        assert ranks == list(range(n_pairs(n)))


def test_pairs_from_ranks_empty():
    rows, cols = pairs_from_ranks(np.array([], dtype=np.int64), 6)
    assert len(rows) == len(cols) == 0
