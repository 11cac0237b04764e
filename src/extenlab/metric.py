"""Finite metric machinery: nets, epsilon-graphs, sup metric, moduli.

A Net is a finite point set standing in for a compact metric space at a
stated resolution.  Everything here is pure and immutable; arrays are
frozen after construction so instances are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DomainMismatch, InvalidArgument

# Bytes of one float64 block of pair values: a kernel's handful of block
# temporaries stay near a core's L2 cache, whatever the net size.
_BLOCK_BYTES = 1 << 20


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


def euclidean_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance, exact on axis-aligned 2-d pairs.

    np.hypot keeps distances like |(1/k,1) - (0,1)| equal to 1/k to the
    last bit, which the catalog's closed-form sup values rely on.
    """
    d = p - q
    if d.ndim == 1:
        d = d[None, :]
    if d.shape[1] == 1:
        return np.abs(d[:, 0])
    if d.shape[1] == 2:
        return np.hypot(d[:, 0], d[:, 1])
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _euclidean_cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if p.shape[1] == 1:
        return np.abs(p[:, 0][:, None] - q[:, 0][None, :])
    if p.shape[1] == 2:
        return np.hypot(p[:, 0][:, None] - q[:, 0][None, :],
                        p[:, 1][:, None] - q[:, 1][None, :])
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def pair_blocks(n_rows: int, n_cols: int, upper: bool = False):
    """Tile the n_rows x n_cols pair grid into (rows, cols) slice blocks.

    A block is as many whole grid rows as fit in _BLOCK_BYTES of float64,
    and at least one.  Blocks come in row order, so results gathered in
    block order stay in lexicographic (i, j) order.  upper=True (square
    grids) starts each block's columns at its first row: every unordered
    pair is visited with j >= i (pairs with j < i only in a block's
    diagonal corner).  Use it only where d(i, j) == d(j, i) bit for bit,
    as the backends' `symmetric` attribute states.
    """
    cells = _BLOCK_BYTES // 8
    r0 = 0
    while r0 < n_rows:
        c0 = r0 if upper else 0
        r1 = min(n_rows, r0 + max(1, cells // (n_cols - c0)))
        yield slice(r0, r1), slice(c0, n_cols)
        r0 = r1


class _CoordinateMetric:
    """Backend given by cross(p, q); symmetric bit for bit, since a - b is
    exactly -(b - a) and hypot, abs, max, min and + are commutative."""

    symmetric = True

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.cross(points[rows], points[cols])

    def nearest(self, points: np.ndarray, coords: np.ndarray):
        idx = np.empty(len(coords), dtype=int)
        dist = np.empty(len(coords))
        for rows, cols in pair_blocks(len(coords), len(points)):
            d = self.cross(coords[rows], points[cols])
            idx[rows] = d.argmin(axis=1)
            dist[rows] = d.min(axis=1)
        return idx, dist


class EuclideanMetric(_CoordinateMetric):
    """Ambient Euclidean metric on the stored coordinates."""

    kind = "ambient-euclidean"

    def cross(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _euclidean_cross(p, q)

    def nearest(self, points: np.ndarray, coords: np.ndarray):
        d, idx = cKDTree(points).query(coords)
        return np.atleast_1d(idx), np.atleast_1d(d)


class MatrixMetric:
    """Explicit distance matrix over net indices.

    Coordinate queries resolve by exact index lookup, so maps into
    matrix-metric spaces must take values on net points.  Symmetric only
    if the matrix equals its transpose; file-supplied matrices may not.
    """

    kind = "explicit-matrix"

    def __init__(self, matrix: np.ndarray):
        self.matrix = _frozen(matrix)
        self.symmetric = bool(np.array_equal(self.matrix, self.matrix.T))

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.matrix[rows, cols] if isinstance(rows, slice) \
            else self.matrix[np.ix_(rows, cols)]

    def nearest(self, points: np.ndarray, coords: np.ndarray):
        first: dict = {}
        for i, p in enumerate(map(tuple, points.tolist())):
            first.setdefault(p, i)
        idx = [first.get(c) for c in map(tuple, coords.tolist())]
        if None in idx:
            raise InvalidArgument("an explicit-matrix net resolves only the "
                                  "coordinates of its own points")
        return np.asarray(idx, dtype=int), np.zeros(len(idx))


class MaxProductMetric(_CoordinateMetric):
    """max(d_first, d_rest): first coordinate block vs. the remainder.

    Used for cylinders N x Y and [0,1] x Y; the factor metrics are both
    Euclidean on their coordinate blocks.
    """

    kind = "max-product"

    def __init__(self, split: int):
        self.split = split

    def cross(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        s = self.split
        a = _euclidean_cross(p[:, :s], q[:, :s])
        b = _euclidean_cross(p[:, s:], q[:, s:])
        return np.maximum(a, b)


class ConeMetric(_CoordinateMetric):
    """Quotient metric of (base x [0,1]) / (base x {1} -> apex).

    Last coordinate is the level; distance is the max metric, except
    that travelling through the apex may be shorter:
    min(max(d_base, |s-t|), (1-s)+(1-t)).
    """

    kind = "cone"

    def cross(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        base = _euclidean_cross(p[:, :-1], q[:, :-1])
        s = p[:, -1][:, None]
        t = q[:, -1][None, :]
        direct = np.maximum(base, np.abs(s - t))
        via_apex = (1.0 - s) + (1.0 - t)
        return np.minimum(direct, via_apex)


@dataclass(frozen=True)
class Net:
    """Finite eps-net of a compact metric space.

    points     -- (n, d) ambient coordinates
    resolution -- eps > 0; every intended point is within eps of the net
    metric     -- one of the metric backends above
    """

    points: np.ndarray
    resolution: float
    metric: object = field(default_factory=EuclideanMetric)

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points))
        if self.points.ndim != 2 or len(self.points) == 0:
            raise InvalidArgument("net needs a nonempty (n, d) point array")
        if not self.resolution > 0:
            raise InvalidArgument("net resolution must be positive")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def metric_kind(self) -> str:
        return self.metric.kind

    def dist_idx(self, i, j) -> np.ndarray:
        """Cross-distances between two index sets, or two slices (no copy)."""
        if not isinstance(i, slice):
            i = np.atleast_1d(np.asarray(i, dtype=int))
            j = np.atleast_1d(np.asarray(j, dtype=int))
        return self.metric.block(self.points, i, j)

    def pair_dist(self, i: int, j: int) -> float:
        return float(self.dist_idx([i], [j])[0, 0])

    def nearest(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the nearest net points."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return self.metric.nearest(self.points, coords)

    def subnet(self, indices: Sequence[int]) -> "Net":
        idx = np.asarray(indices, dtype=int)
        if isinstance(self.metric, MatrixMetric):
            metric = MatrixMetric(self.metric.matrix[np.ix_(idx, idx)])
        else:
            metric = self.metric
        return Net(self.points[idx], self.resolution, metric)


@dataclass(frozen=True)
class EpsilonGraph:
    """Distance-<=-scale graph on a net (no self loops, symmetric)."""

    net: Net
    scale: float
    edges: np.ndarray  # (m, 2) int, i < j, lexicographically sorted

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    def adjacency(self) -> csr_matrix:
        n = len(self.net)
        if len(self.edges) == 0:
            return csr_matrix((n, n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * len(self.edges), dtype=np.int8)
        return csr_matrix((data, (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def build_epsilon_graph(net: Net, scale: float) -> EpsilonGraph:
    """All unordered pairs at distance <= scale (reads d(i, j), i < j)."""
    if not scale > 0:
        raise InvalidArgument("scale must be positive")
    if isinstance(net.metric, EuclideanMetric):
        pairs = cKDTree(net.points).query_pairs(scale, output_type="ndarray")
        edges = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return EpsilonGraph(net, scale, edges)
    found = []
    for rows, cols in pair_blocks(len(net), len(net), upper=True):
        ii, jj = np.nonzero(net.dist_idx(rows, cols) <= scale)
        ii += rows.start
        jj += cols.start
        keep = ii < jj
        found.append(np.column_stack([ii[keep], jj[keep]]))
    return EpsilonGraph(net, scale, np.vstack(found))


def spot_check_triangle(net: Net, samples: int = 200, seed: int = 0) -> float:
    """Worst triangle-inequality defect over sampled triples (<= 0 is good)."""
    rng = np.random.default_rng(seed)
    n = len(net)
    triples = rng.integers(0, n, size=(samples, 3))
    worst = -math.inf
    for i, j, k in triples:
        direct = net.pair_dist(int(i), int(k))
        detour = net.pair_dist(int(i), int(j)) + net.pair_dist(int(j), int(k))
        worst = max(worst, direct - detour)
    return worst


def graph_components(graph: EpsilonGraph) -> np.ndarray:
    """Connected-component labeling; each id is its smallest member index."""
    n = len(graph.net)
    _, raw = connected_components(graph.adjacency(), directed=False)
    first = np.full(raw.max() + 1, n, dtype=int)
    np.minimum.at(first, raw, np.arange(n))
    return first[raw]


def reachable(adj: csr_matrix, allowed: np.ndarray, src: int, dst: int) -> bool:
    """BFS from src to dst through allowed nodes only."""
    if not (allowed[src] and allowed[dst]):
        return False
    if src == dst:
        return True
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    frontier = np.array([src])
    indptr, indices = adj.indptr, adj.indices
    while len(frontier):
        nbrs = np.unique(np.concatenate(
            [indices[indptr[u]:indptr[u + 1]] for u in frontier]))
        nbrs = nbrs[allowed[nbrs] & ~seen[nbrs]]
        if len(nbrs) == 0:
            return False
        if seen[dst] or dst in nbrs:
            return True
        seen[nbrs] = True
        frontier = nbrs
    return False


def widest_path_value(graph: EpsilonGraph, src: int, dst: int,
                      height) -> float:
    """Maximin bottleneck: max over src->dst paths of the path's min height.

    Implemented as a binary search over the sorted set of node heights
    with a reachability query per threshold; returns -inf if unreachable.
    """
    n = len(graph.net)
    if not (0 <= src < n and 0 <= dst < n):
        raise InvalidArgument("src/dst outside the net")
    h = height(graph.net.points) if callable(height) else np.asarray(height, dtype=float)
    if h.shape != (n,):
        raise InvalidArgument("height must give one value per net point")
    if src == dst:
        return float(h[src])
    adj = graph.adjacency()
    cap = min(h[src], h[dst])
    levels = np.unique(h[h <= cap])
    if len(levels) == 0 or not reachable(adj, h >= levels[0], src, dst):
        return float("-inf")
    lo, hi = 0, len(levels) - 1  # reachable at levels[lo], search upward
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reachable(adj, h >= levels[mid], src, dst):
            lo = mid
        else:
            hi = mid - 1
    return float(levels[lo])


@dataclass(frozen=True)
class Modulus:
    """Declared modulus of continuity.

    kind "lipschitz": omega(t) = L * t.
    kind "step": omega(t) = bound of the smallest tabulated radius >= t;
    the table is nondecreasing and starts at (0, 0).  Beyond the last
    radius the last bound applies.
    """

    kind: str
    lipschitz: float = 0.0
    radii: np.ndarray | None = None
    bounds: np.ndarray | None = None

    @staticmethod
    def lip(constant: float) -> "Modulus":
        if constant < 0:
            raise InvalidArgument("Lipschitz constant must be >= 0")
        return Modulus("lipschitz", lipschitz=float(constant))

    @staticmethod
    def step(table: Sequence[tuple[float, float]]) -> "Modulus":
        radii = np.asarray([r for r, _ in table], dtype=float)
        bounds = np.asarray([b for _, b in table], dtype=float)
        if len(radii) == 0 or radii[0] != 0.0 or bounds[0] != 0.0:
            raise InvalidArgument("step table must start at (0, 0)")
        if np.any(np.diff(radii) <= 0) or np.any(np.diff(bounds) < 0):
            raise InvalidArgument("step table must be increasing/nondecreasing")
        return Modulus("step", radii=_frozen(radii), bounds=_frozen(bounds))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "lipschitz":
            return self.lipschitz * t
        pos = np.searchsorted(self.radii, t, side="left")
        return self.bounds[np.minimum(pos, len(self.bounds) - 1)]

    def table(self) -> list[tuple[float, float]]:
        if self.kind != "step":
            raise InvalidArgument("only step moduli have tables")
        return list(zip(self.radii.tolist(), self.bounds.tolist()))


def measured_modulus_multi(net: Net, values_list, n_buckets: int = 24) -> Modulus:
    """Tightest dyadic-bucket step modulus all the sampled maps obey.

    Used to declare moduli for constructed extensions (and homotopy
    slices) whose analytic modulus has no convenient closed form;
    check_modulus then re-verifies the declaration independently.

    Two passes over pair_blocks (diameter, then bucket peaks) keep a few
    _BLOCK_BYTES blocks alive and visit each unordered pair once on a
    symmetric metric; per block one max over all maps feeds one per-bucket
    max.  Maxima ignore visiting order and distances keep np.hypot, so the
    table is bit for bit that of a full n x n pass.
    """
    n = len(net)
    blocks = list(pair_blocks(n, n, upper=net.metric.symmetric))
    dmax = 0.0
    for rows, cols in blocks:
        dmax = max(dmax, float(net.dist_idx(rows, cols).max()))
    if dmax == 0.0:
        return Modulus.step([(0.0, 0.0)])
    radii = dmax * 2.0 ** np.arange(-(n_buckets - 1), 1.0)
    peaks = np.zeros(len(radii))
    for rows, cols in blocks:
        pos = np.clip(np.searchsorted(radii, net.dist_idx(rows, cols),
                                      side="left"), 0, len(radii) - 1)
        dv = functools.reduce(np.maximum, (_euclidean_cross(v[rows], v[cols])
                                           for v in values_list))
        np.maximum.at(peaks, pos.ravel(), dv.ravel())
    bounds = np.maximum.accumulate(peaks)
    return Modulus.step([(0.0, 0.0)] + list(zip(radii.tolist(), bounds.tolist())))


def measured_modulus(net: Net, values: np.ndarray, n_buckets: int = 24) -> Modulus:
    return measured_modulus_multi(net, [values], n_buckets)


def _same_net(a: Net, b: Net) -> bool:
    return a is b or (a.points.shape == b.points.shape
                      and np.array_equal(a.points, b.points))


def sup_distance(f, g) -> float:
    """Sup metric restricted to the shared domain net.

    Within (omega_f + omega_g)(eps) of the true sup metric whenever both
    maps honour their declared moduli.
    """
    if not _same_net(f.domain, g.domain):
        raise DomainMismatch("sup_distance needs a shared domain net")
    if f.codomain_name != g.codomain_name:
        raise DomainMismatch("sup_distance needs a shared codomain")
    return float(euclidean_rows(f.values, g.values).max())


def sup_distance_interval(f, g) -> tuple[float, float]:
    """Certified bracket [net value, net value + (omega_f+omega_g)(eps)]."""
    value = sup_distance(f, g)
    eps = f.domain.resolution
    slack = float(f.modulus(eps) + g.modulus(eps))
    return value, value + slack


def check_modulus(f, slack: float) -> bool:
    """Does f satisfy its declared modulus up to additive slack on all pairs?

    One pass over pair_blocks, stopping at the first violating block; each
    unordered pair is tested once on a symmetric metric, with the per-pair
    test of a full n x n pass, so the answer is the same.
    """
    if slack < 0:
        raise InvalidArgument("slack must be >= 0")
    net = f.domain
    values = f.values
    if np.all(values == values[0]):
        return True  # constant maps satisfy every modulus
    n = len(net)
    for rows, cols in pair_blocks(n, n, upper=net.metric.symmetric):
        dv = _euclidean_cross(values[rows], values[cols])
        if np.any(dv > f.modulus(net.dist_idx(rows, cols)) + slack + 1e-12):
            return False
    return True
