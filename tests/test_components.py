"""``core.components`` against a plain union-find; numpy only."""

import time

import numpy as np
import pytest

from videosynopsis.core import components


def union_find_roots(n, edges):
    """Each node's least component member, by union-find over ``edges``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def roots(n, edges):
    a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    got = components(n, a, b)
    assert got.shape == (n,)
    return got.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 2 * n))
        edges = rng.integers(0, n, size=(m, 2)).tolist()
        assert roots(n, edges) == union_find_roots(n, edges)


def test_no_nodes():
    assert roots(0, []) == []


def test_no_edges():
    assert roots(5, []) == [0, 1, 2, 3, 4]


def test_self_loops_and_repeated_edges():
    edges = [(3, 3), (4, 1), (1, 4), (4, 1), (0, 0), (5, 6), (6, 5), (6, 6)]
    assert roots(8, edges) == [0, 1, 2, 3, 1, 5, 5, 7]


def test_long_chain_in_reversed_order_converges():
    # one component of 10^5 nodes, its edges given from the far end
    n = 100_000
    a = np.arange(n - 2, -1, -1)
    start = time.perf_counter()
    got = components(n, a, a + 1)
    elapsed = time.perf_counter() - start
    assert not got.any()
    assert elapsed < 1.0, elapsed
