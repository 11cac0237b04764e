"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own shortest-path /
component machinery: union-find over explicit edge lists (chain pairs
come from scipy's KD-tree or the net's own distances; the vectorised
union-find is checked against a pure-Python loop), exhaustive path
enumeration for maximin values, and plain BFS over a dense distance
matrix for reachability.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from extenlab.metric import EuclideanMetric


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> dict:
        out: dict = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def components_by_unionfind(n: int, edges) -> np.ndarray:
    """Component labels (smallest member index) by vectorised union-find.

    Each round hooks the larger root of every edge whose endpoints have
    different roots under the smaller one, then jumps pointers until every
    node points at its root.  Parents only ever decrease and stay in the
    component, so each component's smallest member ends up its one root.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    parent = np.arange(n)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent
        np.minimum.at(parent, np.maximum(ra[split], rb[split]),
                      np.minimum(ra[split], rb[split]))


def components_by_unionfind_loop(n: int, edges) -> np.ndarray:
    """Pure-Python union-find; the reference for the vectorised oracle."""
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(int(a), int(b))
    roots = np.array([uf.find(i) for i in range(n)])
    first = {}
    for i, r in enumerate(roots):
        first.setdefault(r, i)
    return np.array([first[r] for r in roots])


def pairs_within(net, scale: float) -> np.ndarray:
    """Every pair i < j of net points with d(i, j) <= scale, by the net's
    own metric: a KD-tree on a Euclidean net, row blocks of Net.dist_idx
    on any other (the cone's apex shortcut is not a Euclidean distance).
    """
    n = len(net)
    if isinstance(net.metric, EuclideanMetric):
        tree = cKDTree(net.points, balanced_tree=False, compact_nodes=False)
        return tree.query_pairs(scale, output_type="ndarray")
    found = [np.empty((0, 2), dtype=np.int64)]
    step = max(1, 2 ** 22 // n)
    for start in range(0, n, step):
        block = net.dist_idx(slice(start, start + step), slice(start, n))
        ii, jj = np.nonzero(block <= scale)
        found.append(np.column_stack([ii, jj])[ii < jj] + start)
    return np.vstack(found)


def assert_labels_chain_connected(space):
    """Each path-component label of an annotated space is one chain class.

    The pairs within the scale whose points share a label are joined by
    union-find; the space passes when that leaves exactly one group per
    label.  Any scale up to 2 eps proves the claim, so the check starts
    just above eps, which keeps the disk's pair list short, and widens
    through 1.5 eps to 2 eps only for nets spaced more coarsely.
    """
    eps = space.resolution
    labels = space.labels
    for scale in (1.01 * eps, 1.5 * eps, 2.0 * eps):
        pairs = pairs_within(space.net, scale)
        pairs = pairs[labels[pairs[:, 0]] == labels[pairs[:, 1]]]
        groups = components_by_unionfind(len(labels), pairs)
        if len(np.unique(groups)) == len(np.unique(labels)):
            return
    raise AssertionError(f"{space.key}: a label is not 2eps-chain-connected")


def spot_check_triangle(net, samples: int = 200, seed: int = 0) -> float:
    """Worst triangle-inequality defect over sampled triples (<= 0 is good)."""
    rng = np.random.default_rng(seed)
    n = len(net)
    i, j, k = rng.integers(0, n, size=(samples, 3)).T
    detour = net.dist_pairs(i, j) + net.dist_pairs(j, k)
    return float((net.dist_pairs(i, k) - detour).max())


def exhaustive_widest_path(n: int, edges, src: int, dst: int,
                           heights) -> float:
    """Maximin over all simple paths, by depth-first enumeration.

    Neighbors are explored highest first so the incumbent rises quickly;
    callers should keep the graphs sparse (this is exponential).
    """
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    for u in range(n):
        adj[u].sort(key=lambda w: -heights[w])
    best = float("-inf")
    seen = [False] * n

    def walk(u, low):
        nonlocal best
        if u == dst:
            best = max(best, low)
            return
        seen[u] = True
        for w in adj[u]:
            if not seen[w] and min(low, heights[w]) > best:
                walk(w, min(low, heights[w]))
        seen[u] = False

    walk(src, heights[src])
    return best


def bfs_reachable_dense(points: np.ndarray, scale: float, allowed,
                        src: int, dst: int) -> bool:
    """Chain existence via BFS over an O(n^2) distance matrix."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    n = len(points)
    if not (allowed[src] and allowed[dst]):
        return False
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(n):
                if w not in seen and allowed[w] and dist[u, w] <= scale:
                    if w == dst:
                        return True
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return src == dst


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
