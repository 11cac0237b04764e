"""Finite metric machinery: nets, epsilon-graphs, sup metric, moduli.

A Net is a finite point set standing in for a compact metric space at a
stated resolution.  Everything here is pure and immutable; arrays are
frozen after construction so instances are safe to share across threads,
and the data a Net derives from them on first use never changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree

from .errors import DomainMismatch, InvalidArgument

# Bytes of one float64 block of pair values: a kernel's handful of block
# temporaries stay near a core's L2 cache, whatever the net size.
_BLOCK_BYTES = 1 << 20

# Largest pair-code table a Net stores, in bytes (one uint8 per visited
# pair, so n(n+1)/2 and a little on a symmetric metric: n up to about
# 11,500).  Larger nets recompute their codes block by block per call.
_TABLE_BYTES = 64 << 20

# A net's codes place each distance d among [0] and the dyadic radii
# dmax * 2^-253 ... dmax, so one table serves every bucket count up to
# _RADII; searchsorted over these 255 edges gives codes 0..255.
_RADII = 254

# The modulus kernels screen pairs by squared norms (see _square_limit and
# measured_modulus_multi).  With u = 2^-53, fl(sum of k squares) is within
# a relative k*u of the exact sum of the squared (computed) differences,
# np.hypot within 1 ulp of the exact norm and sqrt(einsum) within
# (k/2 + 1)*u; a screen shrinks every bound by _SCREEN_MARGIN, far more
# than any of these for fewer than 2^20 coordinates, so it skips only
# pairs the exact expression decides the same way.
_SCREEN_MARGIN = 2.0 ** -30
# Squares are trusted from _SCREEN_FLOOR up to the largest finite float:
# there an underflowed term (absolute error 2^-1075 at most) is far below
# the margin.  A bound outside that range proves nothing.
_SCREEN_FLOOR = 2.0 ** -900
# A bound given to measured_modulus_multi shrinks its room by this, far
# more than its rounding can reach (the proof is at maps._arc_bound).
_ARC_MARGIN = 2.0 ** -30


def _frozen(a) -> np.ndarray:
    """a as a read-only, C-contiguous float64 array.

    Ownership passes: an array that owns its data is frozen in place, and
    the caller must not write to it again.  A view is kept only if its
    root array owns its data and is read-only; any other view is copied,
    so no write through another name reaches what the result holds.
    """
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    root = out
    while isinstance(root.base, np.ndarray):
        root = root.base
    if out.base is not None and (root.base is not None
                                 or root.flags.writeable):
        out = out.copy()
    out.setflags(write=False)
    return out


def _euclidean(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance of p and q broadcast against each other, with
    coordinates on the last axis; exact on axis-aligned 2-d pairs.

    np.hypot keeps distances like |(1/k,1) - (0,1)| equal to 1/k to the
    last bit, which the catalog's closed-form sup values rely on.  Each
    output element takes the same operations whatever the broadcast, so
    paired rows are bit for bit the diagonal of the cross matrix.
    """
    if p.shape[-1] == 1:
        return np.abs(p[..., 0] - q[..., 0])
    if p.shape[-1] == 2:
        return np.hypot(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])
    diff = p - q
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


def euclidean_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance (a single point broadcasts)."""
    return _euclidean(np.atleast_2d(p), np.atleast_2d(q))


def _euclidean_cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _euclidean(p[:, None, :], q[None, :, :])


def _columns(a: np.ndarray) -> list[np.ndarray]:
    """Each coordinate of an (n, d) array as its own contiguous column."""
    return [np.ascontiguousarray(a[:, k]) for k in range(a.shape[1])]


class _Scratch:
    """Float64 storage reused by the blocks of one kernel call, grown to
    the largest block: a fresh 1 MiB array per block costs more page
    faults than the arithmetic it holds."""

    def __init__(self):
        self.buf = np.empty(0)

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        if self.buf.size < shape[0] * shape[1]:
            self.buf = np.empty(shape[0] * shape[1])
        return self.buf[:shape[0] * shape[1]].reshape(shape)


def _square_sums(columns, rows, cols, out, tmp) -> np.ndarray:
    """fl(sum over coordinates k of (c_k[i] - c_k[j])^2) over a block, in
    out's storage; each difference is the one _euclidean forms."""
    acc, d = out.block(rows, cols), tmp.block(rows, cols)
    with np.errstate(over="ignore"):        # an overflow proves nothing
        for k, c in enumerate(columns):
            term = d if k else acc
            np.subtract.outer(c[rows], c[cols], out=term)
            np.multiply(term, term, out=term)
            if k:
                np.add(acc, term, out=acc)
    return acc


def _exact_block(a, columns, rows, cols, out, tmp) -> np.ndarray:
    """_euclidean_cross(a[rows], a[cols]) bit for bit: from the columns
    (same differences, same abs or hypot) when a has one or two
    coordinates, in out's storage; else the expression itself."""
    if len(columns) > 2:
        return _euclidean_cross(a[rows], a[cols])
    acc = out.block(rows, cols)
    np.subtract.outer(columns[0][rows], columns[0][cols], out=acc)
    if len(columns) == 1:
        return np.abs(acc, out=acc)
    d = tmp.block(rows, cols)
    np.subtract.outer(columns[1][rows], columns[1][cols], out=d)
    return np.hypot(acc, d, out=acc)


def _exact_pairs(a, columns, i, j) -> np.ndarray:
    """_euclidean(a[i], a[j]) bit for bit, gathering from the columns."""
    if len(columns) > 2:
        return _euclidean(a[i], a[j])
    d = columns[0][i] - columns[0][j]
    if len(columns) == 1:
        return np.abs(d, out=d)
    return np.hypot(d, columns[1][i] - columns[1][j], out=d)


def _square_limit(allowed: np.ndarray) -> np.ndarray:
    """A bound lim per entry such that a pair whose squares sum to
    s <= lim has exact distance (as _euclidean computes it) below
    allowed: lim = allowed^2 (1 - _SCREEN_MARGIN), or -1, which no s
    meets, where that is not a finite number >= _SCREEN_FLOOR.

    Proof: the exact sum D of the squared differences is at most
    s (1 + k u) plus the underflow 2^-1075 k, so D < allowed^2 (1 - 2^-31)
    for lim >= _SCREEN_FLOOR; the computed distance is within (k/2 + 1) u
    of sqrt(D), hence below allowed.  A NaN s fails s <= lim, so it is
    never proven.  allowed must be positive, as omega + slack + 1e-12 is.
    """
    with np.errstate(over="ignore"):
        lim = allowed * allowed
    lim *= 1.0 - _SCREEN_MARGIN
    lim[~((lim >= _SCREEN_FLOOR) & (lim < np.inf))] = -1.0
    return lim


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
    """Backend given by dist(p, q) on broadcast coordinate arrays;
    symmetric bit for bit, since a - b is exactly -(b - a) and hypot,
    abs, max, min and + are commutative.

    The protocol all backends share: `symmetric`, `block` (a rows x cols
    grid of distances), `pairs` (aligned index arrays), `index` (the
    query structure `nearest` reads, built once per net) and `nearest`.
    """

    symmetric = True

    def cross(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.dist(p[:, None, :], q[None, :, :])

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.cross(points[rows], points[cols])

    def pairs(self, points: np.ndarray, i, j) -> np.ndarray:
        return self.dist(points[i], points[j])

    def index(self, points: np.ndarray):
        return points           # no query structure: nearest scans blocks

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

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _euclidean(p, q)

    def index(self, points: np.ndarray):
        return cKDTree(points)

    def nearest(self, index, coords: np.ndarray):
        d, idx = index.query(coords)
        return np.atleast_1d(idx), np.atleast_1d(d)


class MatrixMetric:
    """Explicit distance matrix over net indices.

    Coordinate queries resolve by exact index lookup, so maps into
    matrix-metric spaces must take values on net points.  Symmetric only
    if the matrix equals its transpose; file-supplied matrices may not.
    The matrix is frozen; ownership passes (see _frozen).
    """

    kind = "explicit-matrix"

    def __init__(self, matrix: np.ndarray):
        self.matrix = _frozen(matrix)
        self.symmetric = bool(np.array_equal(self.matrix, self.matrix.T))

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.matrix[rows, cols] if isinstance(rows, slice) \
            else self.matrix[np.ix_(rows, cols)]

    def pairs(self, points: np.ndarray, i, j) -> np.ndarray:
        return self.matrix[i, j]

    def index(self, points: np.ndarray) -> dict:
        first: dict = {}
        for i, p in enumerate(map(tuple, points.tolist())):
            first.setdefault(p, i)
        return first

    def nearest(self, index: dict, coords: np.ndarray):
        idx = [index.get(c) for c in map(tuple, coords.tolist())]
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

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        s = self.split
        a = _euclidean(p[..., :s], q[..., :s])
        b = _euclidean(p[..., s:], q[..., s:])
        return np.maximum(a, b)


class ConeMetric(_CoordinateMetric):
    """Quotient metric of (base x [0,1]) / (base x {1} -> apex).

    Last coordinate is the level; distance is the max metric, except
    that travelling through the apex may be shorter:
    min(max(d_base, |s-t|), (1-s)+(1-t)).
    """

    kind = "cone"

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        base = _euclidean(p[..., :-1], q[..., :-1])
        s = p[..., -1]
        t = q[..., -1]
        direct = np.maximum(base, np.abs(s - t))
        via_apex = (1.0 - s) + (1.0 - t)
        return np.minimum(direct, via_apex)


@dataclass(frozen=True)
class Net:
    """Finite eps-net of a compact metric space.

    points     -- (n, d) ambient coordinates; frozen, ownership passes
                  (see _frozen: a view of a writeable array is copied)
    resolution -- eps > 0; every intended point is within eps of the net
    metric     -- one of the metric backends above

    Derived data, computed on first use from the points and the metric
    alone (never from a map or a modulus), kept on the instance and
    freed with it:
      _pair_table  dmax, the largest distance over the visited pairs of
                   pair_blocks(upper=metric.symmetric), and each visited
                   pair's code, the position of its distance among
                   [0] + dmax * 2^-253 ... dmax: one uint8 per pair in
                   pair_blocks layout (about n^2/2 bytes), stored only up
                   to _TABLE_BYTES, else None and computed per call;
      _index       the backend's nearest-point query structure;
      _graphs      scale -> adjacency of build_epsilon_graph(net, scale).
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

    def dist_pairs(self, i, j) -> np.ndarray:
        """d(i[k], j[k]) for aligned index arrays: bit for bit the diagonal
        of dist_idx(i, j), in memory linear in len(i)."""
        i = np.atleast_1d(np.asarray(i, dtype=int))
        j = np.atleast_1d(np.asarray(j, dtype=int))
        return self.metric.pairs(self.points, i, j)

    def pair_dist(self, i: int, j: int) -> float:
        return float(self.dist_pairs(i, j)[0])

    def nearest(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the nearest net points."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return self.metric.nearest(self._index, coords)

    def adjacency(self, scale: float) -> csr_matrix:
        """Adjacency of build_epsilon_graph(self, scale), built on first
        use and kept with the net."""
        if scale not in self._graphs:
            self._graphs[scale] = build_epsilon_graph(self, scale).adjacency()
        return self._graphs[scale]

    def subnet(self, indices: Sequence[int]) -> "Net":
        idx = np.asarray(indices, dtype=int)
        if isinstance(self.metric, MatrixMetric):
            metric = MatrixMetric(self.metric.matrix[np.ix_(idx, idx)])
        else:
            metric = self.metric
        return Net(self.points[idx], self.resolution, metric)

    # -- derived data (functools.cached_property writes the instance
    #    __dict__ directly, which the frozen dataclass allows)

    @functools.cached_property
    def _index(self):
        return self.metric.index(self.points)

    @functools.cached_property
    def _graphs(self) -> dict:
        return {}

    def _blocks(self):
        return pair_blocks(len(self), len(self), upper=self.metric.symmetric)

    @functools.cached_property
    def _pair_table(self):
        """(dmax, stored (rows, cols, codes) blocks or None)."""
        blocks = list(self._blocks())
        cells = sum((r.stop - r.start) * (c.stop - c.start) for r, c in blocks)
        dmax = 0.0
        if cells > _TABLE_BYTES:
            for rows, cols in blocks:
                dmax = max(dmax, float(self.dist_idx(rows, cols).max()))
            return dmax, None
        # One pass codes each block against the running maximum, which is
        # dmax from the block holding the diameter on; only blocks coded
        # before it are evaluated again.
        coded = []
        for rows, cols in blocks:
            d = self.dist_idx(rows, cols)
            dmax = max(dmax, float(d.max()))
            coded.append((rows, cols, dmax, _codes(d, dmax)))
        stored = [(rows, cols, codes if scale == dmax else
                   _codes(self.dist_idx(rows, cols), dmax))
                  for rows, cols, scale, codes in coded]
        for _, _, codes in stored:
            codes.setflags(write=False)
        return dmax, stored

    @property
    def _dmax(self) -> float:
        """Largest distance over the visited pairs, folded block by block
        with max() in pair_blocks order."""
        return self._pair_table[0]

    def _pair_codes(self):
        """(rows, cols, codes) over the visited pairs; the stored table if
        the net has one, else codes computed block by block."""
        dmax, stored = self._pair_table
        if stored is not None:
            return iter(stored)
        return ((rows, cols, _codes(self.dist_idx(rows, cols), dmax))
                for rows, cols in self._blocks())


def _codes(d: np.ndarray, dmax: float) -> np.ndarray:
    """Position of each distance among [0] + dmax * 2^-253 ... dmax."""
    edges = np.r_[0.0, dmax * 2.0 ** np.arange(1 - _RADII, 1.0)]
    return np.searchsorted(edges, d, side="left").astype(np.uint8)


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
        pairs = net._index.query_pairs(scale, output_type="ndarray")
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
    """Is dst reachable from src through allowed nodes only?  One C-level
    breadth-first search over the edges into allowed nodes."""
    if not (allowed[src] and allowed[dst]):
        return False
    keep = allowed[adj.indices]
    indptr = np.r_[0, np.cumsum(keep)][adj.indptr]
    inward = csr_matrix((np.ones(int(indptr[-1]), dtype=np.int8),
                         adj.indices[keep], indptr), shape=adj.shape)
    order = breadth_first_order(inward, src, directed=True,
                                return_predecessors=False)
    return bool(np.any(order == dst))


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
        if not (math.isfinite(constant) and constant >= 0):
            raise InvalidArgument("Lipschitz constant must be finite and >= 0")
        return Modulus("lipschitz", lipschitz=float(constant))

    @staticmethod
    def step(table: Sequence[tuple[float, float]]) -> "Modulus":
        radii = np.asarray([r for r, _ in table], dtype=float)
        bounds = np.asarray([b for _, b in table], dtype=float)
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(bounds))):
            raise InvalidArgument("step table entries must be finite")
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


def _bucket_of_code(n_buckets: int) -> np.ndarray:
    """Bucket among the top n_buckets dyadic radii of a net, per code:
    searchsorted(radii, d, "left") clipped to [0, n_buckets - 1]."""
    return np.clip(np.arange(_RADII + 2) - 1 - (_RADII - n_buckets),
                   0, n_buckets - 1)


def measured_modulus_multi(net: Net, values_list, n_buckets: int = 24,
                           bound=None) -> Modulus:
    """Tightest dyadic-bucket step modulus all the sampled maps obey.

    Used to declare moduli for constructed extensions (and homotopy
    slices) whose analytic modulus has no convenient closed form;
    check_modulus then re-verifies the declaration independently.

    The radii are dmax * 2^-(n_buckets-1) ... dmax, n_buckets <= 254.
    Distances come from the net's derived pair data (see Net): its
    diameter and each visited pair's code, from which a pair's bucket is
    a table lookup.  A net with a stored code table computes no pair
    distance here; a larger one computes its codes block by block in the
    same loop.  Maxima are taken per code, then folded into buckets, and
    ignore visiting order; every maximum is of np.hypot value distances,
    so the table is bit for bit that of a full n x n pass.

    One map: every pair's value distance.  Several maps (homotopy
    slices): a pair's s is the largest over the maps of its sum of
    squared value differences, and each bucket keeps S, the running
    maximum of s over the blocks seen so far, this one included.  Only
    pairs with s >= S (1 - _SCREEN_MARGIN) get their exact distances;
    where S is not a finite number >= _SCREEN_FLOOR, all pairs of the
    bucket do.  The pair that raised S to its value was evaluated in its
    block, and by the error bounds stated at _SCREEN_MARGIN a skipped
    pair's exact distances all lie below that pair's largest one, so no
    skipped pair can raise a bucket maximum.

    bound (several maps) replaces the squares: bound(rows, cols, codes,
    limit) is True where a pair is proven below limit[code], the largest
    distance an evaluated pair of the code's bucket attained in row 0 or
    an earlier block, so again no skipped pair raises a maximum.
    """
    radii, bounds = _measured_bounds(net, values_list, n_buckets, bound)
    return Modulus.step([(0.0, 0.0)] + list(zip(radii.tolist(), bounds.tolist())))


def _measured_bounds(net: Net, values_list, n_buckets: int, bound=None):
    """The radii and bounds of measured_modulus_multi's table, empty on a
    net of diameter 0; a bound is NaN or infinite where a value is, which
    Modulus.step then rejects."""
    if not 1 <= n_buckets <= _RADII:
        raise InvalidArgument(f"n_buckets must be in 1..{_RADII}")
    dmax = net._dmax
    if dmax == 0.0:
        return np.empty(0), np.empty(0)
    radii = dmax * 2.0 ** np.arange(-(n_buckets - 1), 1.0)
    bucket = _bucket_of_code(n_buckets)
    columns = [_columns(v) for v in values_list]
    out, tmp, acc = _Scratch(), _Scratch(), _Scratch()
    peaks = np.zeros(_RADII + 2)                # per code
    if len(values_list) == 1:
        for rows, cols, codes in net._pair_codes():
            dv = _exact_block(values_list[0], columns[0], rows, cols, out, tmp)
            np.maximum.at(peaks, codes.ravel(), dv.ravel())
    else:
        def evaluate(ii, jj):                   # pairs of the current block
            i, j = ii + rows.start, jj + cols.start
            dv = functools.reduce(np.maximum, (
                _exact_pairs(v, c, i, j) for v, c in zip(values_list, columns)))
            np.maximum.at(peaks, codes[ii, jj], dv)

        top = np.zeros(n_buckets)               # S, or attained maxima
        for rows, cols, codes in net._pair_codes():
            if bound is not None:
                if rows.start == 0:             # row 0 seeds the maxima
                    evaluate(*np.nonzero(np.ones((1, codes.shape[1]))))
                np.maximum.at(top, bucket, peaks)
                skip = bound(rows, cols, codes, top[bucket])
            else:
                s = _square_sums(columns[0], rows, cols, acc, tmp)
                for c in columns[1:]:
                    np.maximum(s, _square_sums(c, rows, cols, out, tmp), out=s)
                top_of_code = np.zeros(_RADII + 2)
                np.maximum.at(top_of_code, codes.ravel(), s.ravel())
                np.maximum.at(top, bucket, top_of_code)
                floor = top * (1.0 - _SCREEN_MARGIN)
                floor[~((top >= _SCREEN_FLOOR) & (top < np.inf))] = -1.0
                skip = s < floor[bucket][codes]
            evaluate(*np.nonzero(~skip))
    per_bucket = np.zeros(n_buckets)
    np.maximum.at(per_bucket, bucket, peaks)
    return radii, np.maximum.accumulate(per_bucket)


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


def _own_bucket_count(net: Net, modulus: Modulus) -> int:
    """K if modulus is a step table over [0] and the net's own top K
    dyadic radii, bit for bit; else 0.  Only a table that is dyadic in
    itself asks the net for its diameter."""
    if modulus.kind != "step":
        return 0
    radii, k = modulus.radii, len(modulus.radii) - 1
    if not (1 <= k <= _RADII and len(modulus.bounds) == k + 1
            and radii[0] == 0.0 and radii[-1] > 0.0
            and np.array_equal(radii[1:],
                               radii[-1] * 2.0 ** np.arange(1 - k, 1.0))):
        return 0
    return k if radii[-1] == net._dmax else 0


def _allowed_blocks(f, slack: float):
    """(rows, cols, lim, exact) over the pair blocks of f's domain, where
    allowed = omega(d) + slack + 1e-12 per pair: lim is _square_limit of
    allowed or of a lower bound on it, and exact(ii, jj) is allowed
    itself for the block's pairs (ii, jj).

    On a step table over the net's own radii omega(d) is a lookup by pair
    code into bounds + slack + 1e-12, entry for entry the same float
    operations as evaluating the modulus.  On a 2-d Euclidean net, a
    pair's distance is bounded below by sqrt(s) (1 - _SCREEN_MARGIN) from
    its squared coordinate differences s (0 where s is not a finite
    number >= _SCREEN_FLOOR), which omega, + slack and + 1e-12 keep below
    allowed since each is monotone and rounds monotonically; exact
    evaluates the modulus on np.hypot distances.  Any other net evaluates
    allowed on the pair distances of each block.
    """
    net, modulus = f.domain, f.modulus
    k = _own_bucket_count(net, modulus)
    if k:
        step = np.r_[0, 1 + _bucket_of_code(k)[1:]]
        allowed = (modulus.bounds + slack + 1e-12)[step]
        lim = _square_limit(allowed)
        for rows, cols, codes in net._pair_codes():
            yield rows, cols, lim[codes], \
                lambda ii, jj, codes=codes: allowed[codes[ii, jj]]
    elif isinstance(net.metric, EuclideanMetric) and net.dimension == 2:
        columns = _columns(net.points)
        out, tmp = _Scratch(), _Scratch()
        for rows, cols in net._blocks():
            s = _square_sums(columns, rows, cols, out, tmp)
            trusted = (s >= _SCREEN_FLOOR) & (s < np.inf)
            low = np.sqrt(s, out=s)
            low *= 1.0 - _SCREEN_MARGIN
            low[~trusted] = 0.0
            yield rows, cols, _square_limit(modulus(low) + slack + 1e-12), \
                lambda ii, jj, r=rows.start, c=cols.start: \
                modulus(net.dist_pairs(ii + r, jj + c)) + slack + 1e-12
    else:
        for rows, cols in net._blocks():
            allowed = modulus(net.dist_idx(rows, cols)) + slack + 1e-12
            yield rows, cols, _square_limit(allowed), \
                lambda ii, jj, allowed=allowed: allowed[ii, jj]


def check_modulus(f, slack: float) -> bool:
    """Does f satisfy its declared modulus up to additive slack on all pairs?

    One pass over the visited pairs, stopping at the first violating
    block; each unordered pair is tested once on a symmetric metric, with
    the per-pair test of a full n x n pass, so the answer is the same.
    Every pair's value distance is compared with omega; only the pair
    distances may come from the domain's derived data (see Net), which
    never depends on a map or a modulus.  A step table over the domain
    net's own dyadic radii (as measured_modulus_multi declares) is read
    through the net's pair codes; Lipschitz moduli and other tables are
    evaluated on freshly computed distances.

    The test is screened (see _allowed_blocks): a pair whose squared
    value differences sum to s <= lim is proven to pass; every other pair,
    NaN and infinite values included, gets the exact test
    np.hypot(...) > omega(d) + slack + 1e-12 of the unscreened pass.

    Identity maps take O(n): on a Euclidean net, values array_equal to the
    points give each value distance by the same _euclidean on the same
    coordinates (-0.0 and 0.0 alike), so it is d bit for bit, and for
    L >= 1 monotone rounding gives fl(L d) + slack + 1e-12 >= d.
    """
    if slack < 0:
        raise InvalidArgument("slack must be >= 0")
    values, net, modulus = f.values, f.domain, f.modulus
    if np.all(values == values[0]):
        return True  # constant maps satisfy every modulus
    if (isinstance(net.metric, EuclideanMetric)
            and modulus.kind == "lipschitz" and modulus.lipschitz >= 1.0
            and np.array_equal(values, net.points)):
        return True  # the identity proof above
    columns = _columns(values)
    out, tmp = _Scratch(), _Scratch()
    for rows, cols, lim, exact in _allowed_blocks(f, slack):
        s = _square_sums(columns, rows, cols, out, tmp)
        ii, jj = np.nonzero(~(s <= lim))
        i, j = ii + rows.start, jj + cols.start
        if np.any(_euclidean(values[i], values[j]) > exact(ii, jj)):
            return False
    return True
