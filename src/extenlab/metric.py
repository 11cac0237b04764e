"""Finite metric machinery: nets, epsilon-graphs, sup metric, moduli.

A Net is a finite point set standing in for a compact metric space at a
stated resolution.  Everything here is pure and immutable; arrays are
frozen after construction so instances are safe to share across threads,
and the data a Net derives from them on first use never changes.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainMismatch, InvalidArgument

# Bytes of one float64 block of pair values: a kernel's handful of block
# temporaries stay near a core's L2 cache, whatever the net size.
_BLOCK_BYTES = 1 << 20

# Largest pair-code table a Net stores, in bytes (one uint8 per visited
# pair, so n(n+1)/2 and a little: n up to about 11,500).  Larger nets
# recompute their codes block by block per call.
_TABLE_BYTES = 64 << 20

# A net's codes place each distance d among [0] and the dyadic radii
# dmax * 2^-253 ... dmax, so one table serves every bucket count up to
# _RADII; searchsorted over these 255 edges gives codes 0..255.
_RADII = 254

# The buckets of a measured modulus: its radii are dmax * 2^-(_BUCKETS-1)
# ... dmax, for a count in 1.._RADII.
_BUCKETS = 24

# Net points per tile.  The modulus kernels cut each block of pairs into
# units, a row tile by a column tile clipped to the block, and skip a
# unit whole when the boxes of its tiles' values prove every pair of it.
_TILE = 32

# The additive tolerance of check_modulus: a pair passes when its value
# distance is at most omega(d) + slack + _CHECK_TOLERANCE.
_CHECK_TOLERANCE = 1e-12

# The tolerances of the other modules' comparisons, one per rule:
_ON_NET_SLACK = 1e-9    # this far past a net's resolution is on the net
_EXACT_SLACK = 1e-12    # agreement of what is equal in exact arithmetic
_ORDER_SLACK = 1e-15    # an order of two floats is decided beyond this
_INTEGER_SLACK = 1e-6   # this near an integer (relative, if scaled) is it
_ANGLE_SLACK = 1e-9     # two angles (radians) this near are equal

# The modulus kernels skip a pair only where a bound (the tile boxes of
# _box_squares or a pair's own sum of squares in _undecided_pairs) proves it
# below a limit; each bound shrinks its room by _SCREEN_MARGIN.  With
# u = 2^-53, fl(sum of k squares) is within a relative k*u of the exact
# sum of the squared (computed) differences, np.hypot within 1 ulp of the
# exact norm and sqrt(einsum) within (k/2 + 1)*u; the margin is far more
# than any of these for fewer than 2^20 coordinates.
_SCREEN_MARGIN = 2.0 ** -30
# Squares are trusted from _SCREEN_FLOOR up to the largest finite float:
# there an underflowed term (absolute error 2^-1075 at most) is far below
# the margin.  A bound outside that range proves nothing.
_SCREEN_FLOOR = 2.0 ** -900

# A _Grid has at most _GRID_CELLS + 1 cubes per axis (an integer cube
# coordinate of 21 bits, so three pack into one int64 key), and its cube
# side exceeds the radius it serves by _GRID_MARGIN, which covers the
# rounding of the cube coordinates (below 2^-30 of a cube; see _Grid).
_GRID_CELLS = 1 << 20
_GRID_MARGIN = 2.0 ** -20


def _frozen(a, dtype=float) -> np.ndarray:
    """a as a read-only, C-contiguous array of dtype (float64 by default),
    in numpy's own instance of that dtype (an array read back by pickle
    carries an equal one, which sends np.maximum.at down a path ten times
    slower).

    Ownership passes: an array that owns its data is frozen in place, and
    the caller must not write to it again.  A view is kept only if its
    root array owns its data and is read-only; any other view is copied,
    so no write through another name reaches what the result holds.  An
    array that already meets all this comes back as it is, unconverted.
    """
    want = np.dtype(dtype)
    if type(a) is np.ndarray and a.dtype is want and _unwritable(a):
        return a
    out = np.ascontiguousarray(np.asarray(a, dtype=want))
    if out.base is not None and not _unwritable(out):
        out = out.copy()
    out.setflags(write=False)
    return out


def _through_constructor(self):
    """__reduce__ of a frozen dataclass whose __post_init__ freezes its
    arrays: unpickling calls the constructor on the fields, so the arrays
    come back read-only in numpy's own dtype, and derived data is built
    anew."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _unwritable(a: np.ndarray) -> bool:
    """Is a a read-only C-contiguous array that owns its data, or a view
    whose root array owns its data and is read-only?"""
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base
    return (a.flags.c_contiguous and not a.flags.writeable
            and root.base is None and not root.flags.writeable)


def _unique(a, rows: bool = False) -> np.ndarray:
    """np.unique(a), or np.unique(a, axis=0) of a 2-d array with
    rows=True, without numpy.ma: asked for no counts, numpy 2.x's unique
    asks numpy.ma whether its input is masked, and so imports it
    (10-19 ms) on its first call in a process.  Asked for counts, it
    takes its sorting route, which gives the same values bit for bit."""
    return np.unique(a, axis=0 if rows else None, return_counts=True)[0]


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


def _square_limit(allowed: np.ndarray) -> np.ndarray:
    """A bound lim per entry such that a pair whose squares sum to
    s <= lim has exact distance (as _euclidean computes it) below
    allowed: lim = allowed^2 (1 - _SCREEN_MARGIN), or -1, which no s
    meets, where that is not a finite number >= _SCREEN_FLOOR.

    Proof: the exact sum D of the squared differences is at most
    s (1 + k u) plus the underflow 2^-1075 k, so D < allowed^2 (1 - 2^-31)
    for lim >= _SCREEN_FLOOR; the computed distance is within (k/2 + 1) u
    of sqrt(D), hence below allowed.  A NaN s fails s <= lim, so it is
    never proven.  allowed must not be negative.
    """
    with np.errstate(over="ignore"):
        lim = allowed * allowed
    lim *= 1.0 - _SCREEN_MARGIN
    lim[~((lim >= _SCREEN_FLOOR) & (lim < np.inf))] = -1.0
    return lim


@np.errstate(over="ignore")             # squares past the largest float
def _largest_distance(p: np.ndarray, q: np.ndarray) -> float:
    """float(_euclidean(p, q).max()) bit for bit, p and q broadcast
    against each other, coordinates on the last axis.

    With two coordinates, only the pairs whose sum of squares s is within
    _SCREEN_MARGIN of the largest, smax, get np.hypot: any other pair's
    distance lies below that of the pair attaining smax (the argument of
    _square_limit, run with the exact sums of both pairs).  Every pair is
    evaluated where smax is not a number in [_SCREEN_FLOOR, inf).  The
    temporaries are three arrays of the pair count, as _euclidean's are,
    however many pairs tie near smax.
    """
    if p.shape[-1] != 2:
        return float(_euclidean(p, q).max())
    s = np.subtract(p[..., 0], q[..., 0])
    np.multiply(s, s, out=s)
    d = np.subtract(p[..., 1], q[..., 1])
    s += np.multiply(d, d, out=d)
    smax = s.max()
    if not _SCREEN_FLOOR <= smax < math.inf:
        del s, d
        return float(_euclidean(p, q).max())
    near = s >= smax * (1.0 - _SCREEN_MARGIN)
    dx = np.subtract(p[..., 0], q[..., 0], out=s)
    dy = np.subtract(p[..., 1], q[..., 1], out=d)
    return float(np.hypot(dx, dy, out=np.zeros_like(s), where=near).max())


def pair_blocks(n_rows: int, n_cols: int, upper: bool = False):
    """Tile the n_rows x n_cols pair grid into (rows, cols) slice blocks.

    A block is as many whole grid rows as fit in _BLOCK_BYTES of float64,
    and at least one.  Blocks come in row order, so results gathered in
    block order stay in lexicographic (i, j) order.  upper=True (square
    grids) starts each block's columns at its first row: every unordered
    pair is visited with j >= i (pairs with j < i only in a block's
    diagonal corner).  Every backend has d(i, j) == d(j, i) bit for bit,
    so a square pass over a net reads each distance it needs this way.
    """
    cells = _BLOCK_BYTES // 8
    r0 = 0
    while r0 < n_rows:
        c0 = r0 if upper else 0
        r1 = min(n_rows, r0 + max(1, cells // (n_cols - c0)))
        yield slice(r0, r1), slice(c0, n_cols)
        r0 = r1


def _tile_edges(s: slice) -> np.ndarray:
    """Offsets into s, from 0 to its length, where the tiles
    [k _TILE, (k + 1) _TILE) of the net order cut it; the piece between
    edges p and p + 1 lies in tile s.start // _TILE + p."""
    inner = np.arange(s.start // _TILE + 1, -(-s.stop // _TILE)) * _TILE
    return np.concatenate(([0], inner - s.start, [s.stop - s.start]))


class _CodedBlock(NamedTuple):
    """A block of a net's visited pairs with each pair's code, cut into
    units: row tile x column tile of _TILE net points, clipped to the
    block (see _tile_edges).  low and high hold each unit's lowest and
    highest code, one uint8 each."""

    rows: slice
    cols: slice
    codes: np.ndarray
    low: np.ndarray
    high: np.ndarray


def _coded(rows: slice, cols: slice, codes: np.ndarray) -> _CodedBlock:
    """The block's codes with their unit summary, all frozen."""
    at = _tile_edges(rows)[:-1], _tile_edges(cols)[:-1]
    low = np.minimum.reduceat(np.minimum.reduceat(codes, at[0]), at[1], 1)
    high = np.maximum.reduceat(np.maximum.reduceat(codes, at[0]), at[1], 1)
    for a in (codes, low, high):
        a.setflags(write=False)
    return _CodedBlock(rows, cols, codes, low, high)


def _scan(points: np.ndarray, coords: np.ndarray, dist):
    """Per coordinate row, the first index of the least dist(row, point)
    and that least value, a block of whole rows at a time."""
    idx = np.empty(len(coords), dtype=int)
    best = np.empty(len(coords))
    for rows, cols in pair_blocks(len(coords), len(points)):
        d = dist(coords[rows][:, None, :], points[cols][None, :, :])
        idx[rows] = d.argmin(axis=1)
        best[rows] = d.min(axis=1)
    return idx, best


def _square_sums(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum of the squared coordinate differences of p and q, which hold
    coordinates on their first axis and broadcast against each other on
    the rest, added in the order of scipy's cKDTree (up to three
    coordinates one after another; from four on, four running sums over
    the coordinates of each residue mod 4, added in turn, then the rest
    one after another), so its sqrt is cKDTree's distance bit for bit."""
    def square(k):
        d = p[k] - q[k]
        return np.multiply(d, d, out=d)
    dim = len(p)
    head = dim - dim % 4 if dim >= 4 else 1
    acc = [square(k) for k in range(min(4, head))]
    for k in range(4, head):
        acc[k % 4] += square(k)
    s = acc[0]
    for a in acc[1:]:
        s += a
    for k in range(head, dim):
        s += square(k)
    return s


def _spans(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenated np.arange(lo[r], hi[r]) over the ranges r."""
    count = hi - lo
    before = np.cumsum(count) - count
    total = int(before[-1] + count[-1]) if len(count) else 0
    return np.arange(total) + np.repeat(lo - before, count)


def _batches(sizes: np.ndarray):
    """Consecutive slices of the items whose sizes add up to at most
    _BLOCK_BYTES of float64 each; an item larger than that goes alone."""
    total = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        base = total[start - 1] if start else 0
        end = int(np.searchsorted(total, base + _BLOCK_BYTES // 8, "right"))
        end = max(end, start + 1)
        yield slice(start, end)
        start = end


class _Grid:
    """A Euclidean net's points sorted by the integer cube that holds
    their first k = min(3, d) coordinates: the fixed-radius cell grid of
    Bentley, Stanat & Williams (1977), serving nearest points and pairs
    within a radius.

    On each of the k axes, x lies in cube c = floor(t) of t = (x/2 -
    lo/2) / (side/2), lo the least point coordinate; the halves keep the
    difference finite for any two floats.  side is radius (1 +
    _GRID_MARGIN), raised to span / _GRID_CELLS (span the largest extent
    of the points) and to 2^-400, so that side^2 is a normal number.
    At level F the cubes are F^k fine cubes, with coordinates c // F; a
    key packs them, each shifted by one and in mixed radix, so that the
    cubes one step outside the points also have keys of their own, and
    points with keys K - 1 .. K + 1 lie in one stretch of the sorted
    order.  A query's c is clipped into the points' range, which moves it
    no farther from any point's.

    Neighbourhood: rounding moves t by less than 2^-30 for every x within
    2^21 cubes of the points, so two points within F side (1 -
    _GRID_MARGIN) of each other have t closer than F on every axis, hence
    c at most F apart and level-F coordinates at most 1 apart; dropping
    the coordinates past k never increases a distance.  So every point
    that far from a query lies in the query's 3^k cubes, and every point
    outside them has a computed squared distance above (F side)^2 (1 -
    _GRID_MARGIN).

    The points must be finite (InvalidArgument otherwise).
    """

    def __init__(self, points: np.ndarray, radius: float):
        if not np.isfinite(points).all():
            raise InvalidArgument("a Euclidean net's points must be finite")
        self.points = points
        self.k = min(3, points.shape[1])
        head = np.ascontiguousarray(points[:, :self.k].T)
        self.half_lo = head.min(axis=1) * 0.5
        half_span = float((head.max(axis=1) * 0.5 - self.half_lo).max())
        self.side = max(radius * (1 + _GRID_MARGIN),
                        2 * half_span / _GRID_CELLS, 2.0 ** -400)
        self.cells = np.floor(self._position(head)).astype(np.int64)
        self.m = self.cells.max(axis=1) + 1
        self._levels: dict = {}

    def _position(self, head: np.ndarray) -> np.ndarray:
        """t of (k, q) coordinates (axes first, as every per-point array
        here: numpy reduces across a short last axis slowly)."""
        return (head * 0.5 - self.half_lo[:, None]) / (self.side * 0.5)

    def _radix(self, F: int) -> list[int]:
        """Key strides at level F, the last axis's 1."""
        strides = [1]
        for size in ((self.m[:0:-1] - 1) // F + 3).tolist():
            strides.insert(0, strides[0] * size)
        return strides

    def _keys(self, cells: np.ndarray, F: int) -> np.ndarray:
        keys = np.zeros(cells.shape[1], dtype=np.int64)
        for axis, stride in enumerate(self._radix(F)):
            keys += (cells[axis] // F + 1) * stride
        return keys

    def _level(self, F: int):
        """(sorted keys, their point indices, their coordinates as a
        (d, n) array) at level F, made on first use."""
        if F not in self._levels:
            keys = self._keys(self.cells, F)
            order = np.argsort(keys, kind="stable")
            self._levels[F] = (keys[order], order,
                               np.ascontiguousarray(self.points[order].T))
        return self._levels[F]

    def _rows(self, F: int, upper: bool = False) -> np.ndarray:
        """Key offsets of the rows of 3 cubes along the last axis that
        make up a 3^k neighbourhood at level F (upper: only the rows after
        a cube's own in key order)."""
        rows = np.zeros(1, dtype=np.int64)
        for stride in self._radix(F)[:-1]:
            rows = (rows[:, None] + np.array([-stride, 0, stride])).ravel()
        return rows[rows > 0] if upper else rows

    @np.errstate(over="ignore")             # squares past the largest float
    def nearest(self, coords: np.ndarray):
        """Index and distance of each row's nearest point, as cKDTree
        gives them bit for bit: the least sum of squared differences
        (_square_sums), its sqrt, ties to the smallest index, and index n
        at distance inf where no sum is finite (any non-finite query).

        Each level, from F = 1 up by factors of 4 while the points span
        more than one level-F cube on some axis, settles the queries whose
        least sum over their 3^k cubes is at most (F side)^2 (1 -
        _GRID_MARGIN), below that of any point outside them; a blocked
        scan of every point settles the rest.  Each level reads the
        queries in key order, so that its searches and reads run through
        the sorted points in order.
        """
        n, d = self.points.shape
        if coords.ndim != 2 or coords.shape[1] != d:
            raise InvalidArgument(f"nearest needs (q, {d}) coordinates")
        idx = np.full(len(coords), n)
        best = np.full(len(coords), np.inf)
        axes = np.ascontiguousarray(coords.T)
        todo = np.flatnonzero(np.isfinite(axes).all(axis=0))
        t = self._position(axes[:self.k, todo])
        np.clip(t, 0, self.m[:, None] - 1, out=t)   # no farther from points
        cells, F = np.floor(t).astype(np.int64), 1
        while len(todo) and F < self.m.max():
            keys = self._level(F)[0]
            mine = self._keys(cells, F)
            sort = np.argsort(mine, kind="stable")
            todo, cells, mine = todo[sort], cells[:, sort], mine[sort]
            mid = mine + self._rows(F)[:, None]
            settled = self._settle(
                axes, todo, np.searchsorted(keys, mid - 1),
                np.searchsorted(keys, mid + 2),
                (F * self.side) * (F * self.side) * (1 - _GRID_MARGIN), F,
                idx, best)
            todo, cells, F = todo[~settled], cells[:, ~settled], 4 * F
        if len(todo):
            idx[todo], best[todo] = _scan(
                self.points, coords[todo],
                lambda p, q: _square_sums(np.moveaxis(p, -1, 0),
                                          np.moveaxis(q, -1, 0)))
        idx[~(best < np.inf)] = n
        return idx, np.sqrt(best, out=best)

    def _settle(self, axes, todo, lo, hi, limit, F: int, idx, best):
        """Settle each query todo[i] (a column of the (d, q) axes) whose
        least sum of squares over the level-F sorted points lo[r, i] ..
        hi[r, i] - 1 (every r) is at most limit and finite: idx gets the
        smallest index of that sum and best the sum.  The mask of those
        settled."""
        _, order, cols = self._level(F)
        count = (hi - lo).sum(axis=0)
        settled = np.zeros(len(todo), dtype=bool)
        for part in _batches(count):
            q, size = todo[part], count[part]
            at = _spans(lo[:, part].T.ravel(), hi[:, part].T.ravel())
            sq = _square_sums(cols[:, at], np.repeat(axes[:, q], size, 1))
            some = np.flatnonzero(size)
            low = np.minimum.reduceat(sq, (np.cumsum(size) - size)[some])
            ties = np.flatnonzero(sq == np.repeat(low, size[some]))
            owner = np.repeat(np.arange(len(q)), size)[ties]
            first = np.flatnonzero(np.diff(owner, prepend=-1))
            pick = np.minimum.reduceat(order[at[ties]], first)
            done = np.flatnonzero((low <= limit) & (low < np.inf))
            idx[q[some[done]]] = pick[done]
            best[q[some[done]]] = low[done]
            settled[part][some[done]] = True
        return settled

    @np.errstate(over="ignore")
    def pairs(self, scale: float) -> np.ndarray:
        """Every pair i < j with _square_sums(p_i, p_j) <= scale * scale,
        in lexicographic order: cKDTree.query_pairs bit for bit.  Each
        point is matched against the later points of its own row of cubes
        and against the rows after it in its 3^k neighbourhood (level 1),
        so every unordered pair is read once; side >= scale (1 +
        _GRID_MARGIN) puts every such pair in one neighbourhood."""
        keys, order, cols = self._level(1)
        n = len(keys)
        mid = keys + self._rows(1, upper=True)[:, None]
        lo = np.vstack([np.arange(1, n + 1), np.searchsorted(keys, mid - 1)])
        hi = np.vstack([np.searchsorted(keys, keys + 2),
                        np.searchsorted(keys, mid + 2)])
        count = (hi - lo).sum(axis=0)
        found = []
        for part in _batches(count):
            at = _spans(lo[:, part].T.ravel(), hi[:, part].T.ravel())
            mine = np.repeat(np.arange(part.start, part.stop), count[part])
            keep = _square_sums(cols[:, mine], cols[:, at]) <= scale * scale
            i, j = order[mine[keep]], order[at[keep]]
            found.append(np.minimum(i, j) * n + np.maximum(i, j))
        code = np.sort(np.concatenate(found)) if found else np.empty(0, int)
        return np.column_stack(np.divmod(code, n))


class _CoordinateMetric:
    """Backend given by dist(p, q) on broadcast coordinate arrays;
    symmetric bit for bit, since a - b is exactly -(b - a) and hypot,
    abs, max, min and + are commutative.

    The protocol all backends share: `block` (a rows x cols grid of
    distances), `pairs` (aligned index arrays), `index` (the query
    structure `nearest` reads, built once per net from its points and
    resolution) and `nearest`.
    """

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.dist(points[rows][:, None, :], points[cols][None, :, :])

    def pairs(self, points: np.ndarray, i, j) -> np.ndarray:
        return self.dist(points[i], points[j])

    def index(self, points: np.ndarray, resolution: float):
        return points           # no query structure: nearest scans blocks

    def nearest(self, points: np.ndarray, coords: np.ndarray):
        return _scan(points, coords, self.dist)


class EuclideanMetric(_CoordinateMetric):
    """Ambient Euclidean metric on the stored coordinates."""

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _euclidean(p, q)

    def index(self, points: np.ndarray, resolution: float) -> _Grid:
        return _Grid(points, resolution)

    def nearest(self, index: _Grid, coords: np.ndarray):
        return index.nearest(coords)


class MatrixMetric:
    """Explicit distance matrix over net indices.

    Coordinate queries resolve by exact index lookup, so maps into
    matrix-metric spaces must take values on net points.  The matrix
    must equal its transpose (NaN entries matching NaN) and have a zero
    diagonal, as a metric's does; InvalidArgument otherwise.  The matrix
    is frozen; ownership passes (see _frozen).
    """

    def __init__(self, matrix: np.ndarray):
        m = self.matrix = _frozen(matrix)
        if (m.ndim != 2 or not np.array_equal(m, m.T, equal_nan=True)
                or np.any(np.diagonal(m) != 0)):
            raise InvalidArgument("a distance matrix must be square, equal "
                                  "to its transpose and zero on its diagonal")

    def block(self, points: np.ndarray, rows, cols) -> np.ndarray:
        return self.matrix[rows, cols] if isinstance(rows, slice) \
            else self.matrix[np.ix_(rows, cols)]

    def pairs(self, points: np.ndarray, i, j) -> np.ndarray:
        return self.matrix[i, j]

    def index(self, points: np.ndarray, resolution: float) -> dict:
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
    resolution -- eps, positive and finite; every intended point is
                  within eps of the net
    metric     -- one of the metric backends above

    Derived data, computed on first use from the points and the metric
    alone (never from a map or a modulus), kept on the instance and
    freed with it:
      _pair_table  dmax, the largest distance over the visited pairs of
                   pair_blocks(upper=True), each unordered pair once, and
                   each visited pair's code, the position of its distance
                   among [0] + dmax * 2^-253 ... dmax: one uint8 per pair in
                   pair_blocks layout (about n^2/2 bytes), with the
                   lowest and highest code of each _TILE x _TILE unit
                   (see _CodedBlock), stored only up to _TABLE_BYTES,
                   else None and computed per call;
      _index       the backend's nearest-point query structure: a _Grid
                   of cubes of side resolution on a Euclidean net (a
                   query within the resolution of the net settles in its
                   first 3^k cubes), a dict of first indices on an
                   explicit-matrix net;
      _graphs      scale -> adjacency of build_epsilon_graph(net, scale).
    """

    points: np.ndarray
    resolution: float
    metric: object = field(default_factory=EuclideanMetric)

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points))
        if self.points.ndim != 2 or len(self.points) == 0:
            raise InvalidArgument("net needs a nonempty (n, d) point array")
        if not 0 < self.resolution < math.inf:
            raise InvalidArgument("net resolution must be positive and finite")

    __reduce__ = _through_constructor

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

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

    def dist_to_set(self, indices) -> np.ndarray:
        """Per net point, its least distance to the points at indices:
        dist_idx(all points, indices).min(axis=1) bit for bit, a block of
        whole rows at a time (see pair_blocks)."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        out = np.empty(len(self))
        for rows, _ in pair_blocks(len(self), max(1, len(indices))):
            out[rows] = self.dist_idx(rows, indices).min(axis=1)
        return out

    def nearest(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the nearest net points (on a
        Euclidean net, index len(self) at distance inf for a query with
        a non-finite coordinate; see _Grid.nearest)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return self.metric.nearest(self._index, coords)

    def adjacency(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
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
        return self.metric.index(self.points, self.resolution)

    @functools.cached_property
    def _graphs(self) -> dict:
        return {}

    def _blocks(self):
        return pair_blocks(len(self), len(self), upper=True)

    @functools.cached_property
    def _pair_table(self):
        """(dmax, stored _CodedBlocks or None)."""
        blocks = list(self._blocks())
        cells = sum((r.stop - r.start) * (c.stop - c.start) for r, c in blocks)
        # One pass codes each block against the running maximum (NaN
        # ignored), which is dmax from the block holding the diameter on;
        # only blocks coded before it are evaluated again.
        dmax, coded = 0.0, []
        for rows, cols in blocks:
            d = self.dist_idx(rows, cols)
            dmax = max(dmax, float(np.fmax.reduce(d, axis=None)))
            if cells <= _TABLE_BYTES:
                coded.append((rows, cols, dmax, _codes(d, dmax)))
        if cells > _TABLE_BYTES:
            return dmax, None
        return dmax, [_coded(rows, cols, codes if scale == dmax else
                             _codes(self.dist_idx(rows, cols), dmax))
                      for rows, cols, scale, codes in coded]

    @property
    def _dmax(self) -> float:
        """Largest distance over the visited pairs, NaN ignored, folded
        block by block with max() in pair_blocks order."""
        return self._pair_table[0]

    def _pair_codes(self):
        """_CodedBlocks over the visited pairs; the stored table if the
        net has one, else codes and units computed block by block."""
        dmax, stored = self._pair_table
        if stored is not None:
            return iter(stored)
        return (_coded(rows, cols, _codes(self.dist_idx(rows, cols), dmax))
                for rows, cols in self._blocks())


def _edges(dmax: float) -> np.ndarray:
    """[0] + dmax * 2^-253 ... dmax: code c holds the distances in
    (edges[c-1], edges[c]], code 0 those <= 0 and code 255 the rest."""
    return np.r_[0.0, dmax * 2.0 ** np.arange(1 - _RADII, 1.0)]


def _codes(d: np.ndarray, dmax: float) -> np.ndarray:
    """Position of each distance among _edges(dmax), as searchsorted
    (side="left") gives it.

    For a normal dmax, edge c >= 1 is dmax * 2^(c - 254) exactly; with
    d = m 2^e and dmax = M 2^E (np.frexp, mantissas in [1/2, 1)), d is at
    most dmax * 2^k first for k = e - E + (m > M), so d > 0 has code
    clip(254 + e - E + (m > M), 1, 255).  d <= 0 has code 0, NaN and +inf
    code 255.  A dmax below 2^-760 (edge 1 would lose bits) or not finite
    takes searchsorted itself.
    """
    if not 2.0 ** -760 <= dmax < math.inf:
        return np.searchsorted(_edges(dmax), d, side="left").astype(np.uint8)
    top, top_exp = math.frexp(dmax)
    m, e = np.frexp(d)
    e += m > top
    e += _RADII - top_exp
    codes = np.clip(e, 1, 255, out=e).astype(np.uint8)
    np.putmask(codes, d <= 0, 0)
    np.putmask(codes, ~(d < math.inf), 255)
    return codes


@dataclass(frozen=True)
class EpsilonGraph:
    """Distance-<=-scale graph on a net (no self loops, symmetric)."""

    net: Net
    scale: float
    edges: np.ndarray  # (m, 2) int, i < j, lexicographically sorted

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           _frozen(self.edges, int).reshape(-1, 2))

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges' two ends, as two contiguous read-only arrays."""
        return _frozen(self.edges[:, 0], int), _frozen(self.edges[:, 1], int)


def build_epsilon_graph(net: Net, scale: float) -> EpsilonGraph:
    """All unordered pairs at distance <= scale (reads d(i, j), i < j);
    on a Euclidean net, those of a _Grid of cubes of side scale."""
    if not scale > 0:
        raise InvalidArgument("scale must be positive")
    if isinstance(net.metric, EuclideanMetric):
        return EpsilonGraph(net, scale, _Grid(net.points, scale).pairs(scale))
    found = []
    for rows, cols in net._blocks():
        ii, jj = np.nonzero(net.dist_idx(rows, cols) <= scale)
        ii += rows.start
        jj += cols.start
        keep = ii < jj
        found.append(np.column_stack([ii[keep], jj[keep]]))
    return EpsilonGraph(net, scale, np.vstack(found))


def _components(n: int, a: np.ndarray, b: np.ndarray, join=None) -> np.ndarray:
    """Each node's root over the edges (a[e], b[e]): hook and compress
    (Shiloach & Vishkin 1982).

    Each round hooks the larger root of each edge under the smaller one
    (where a root has several such edges, any one of them), points every
    node at its root by pointer jumping and drops the edges whose ends now
    share a root.  Parents only ever decrease and stay in the component,
    so each component's smallest member ends as its one root.  join=(s, t)
    stops at the first round that gives s and t one root.
    """
    parent = np.arange(n)
    ra, rb = a, b                       # every node starts as a root
    while True:
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        if join is not None and parent[join[0]] == parent[join[1]]:
            return parent
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return parent
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]


def _induced_components(adj, allowed: np.ndarray, join=None) -> np.ndarray:
    """_components over the edges of adj (EpsilonGraph.adjacency) whose
    two ends are allowed: the subgraph induced by the allowed nodes, in
    which every other node is its own root."""
    a, b = adj
    keep = allowed[a] & allowed[b]
    return _components(len(allowed), a[keep], b[keep], join)


def reachable(adj, allowed: np.ndarray, src: int, dst: int) -> bool:
    """Is dst reachable from src through allowed nodes only?  adj holds
    the edges' two ends (EpsilonGraph.adjacency); union-find decides it on
    the subgraph induced by the allowed nodes."""
    if not (allowed[src] and allowed[dst]):
        return False
    parent = _induced_components(adj, allowed, join=(src, dst))
    return bool(parent[src] == parent[dst])


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
    levels = _unique(h[h <= cap])
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


class Modulus:
    """Declared modulus of continuity.

    kind "lipschitz": omega(t) = L * t.
    kind "step": omega(t) = bound of the smallest tabulated radius >= t;
    the table is nondecreasing and starts at (0, 0).  Beyond the last
    radius the last bound applies.

    Immutable.  A step modulus from measured_modulus_multi holds the
    measure of its table instead of the table until the first read: a
    call, table(), radii, bounds, == (or hash), repr or pickling.  That
    read measures the table once, under the instance's lock, keeps it and
    drops the measure and the inputs it holds.
    """

    __slots__ = ("kind", "lipschitz", "_steps", "_measure", "_lock")

    def __init__(self, kind: str, lipschitz: float = 0.0,
                 radii: np.ndarray | None = None,
                 bounds: np.ndarray | None = None):
        steps = None if radii is None else (_frozen(radii), _frozen(bounds))
        for name, value in (("kind", kind), ("lipschitz", lipschitz),
                            ("_steps", steps), ("_measure", None),
                            ("_lock", None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _measured(measure) -> "Modulus":
        """A step modulus whose table is measure(), a step Modulus, made
        on the first read."""
        m = Modulus("step")
        object.__setattr__(m, "_measure", measure)
        object.__setattr__(m, "_lock", threading.Lock())
        return m

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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
        return Modulus("step", radii=radii, bounds=bounds)

    def _read(self) -> tuple | None:
        """(radii, bounds), measured here on the first read; None for a
        Lipschitz modulus."""
        if self._measure is not None:
            with self._lock:
                if self._measure is not None:
                    object.__setattr__(self, "_steps", self._measure()._steps)
                    object.__setattr__(self, "_measure", None)
        return self._steps

    @property
    def radii(self) -> np.ndarray | None:
        steps = self._read()
        return None if steps is None else steps[0]

    @property
    def bounds(self) -> np.ndarray | None:
        steps = self._read()
        return None if steps is None else steps[1]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "lipschitz":
            return self.lipschitz * t
        radii, bounds = self._read()
        pos = np.searchsorted(radii, t, side="left")
        return bounds[np.minimum(pos, len(bounds) - 1)]

    def table(self) -> list[tuple[float, float]]:
        if self.kind != "step":
            raise InvalidArgument("only step moduli have tables")
        radii, bounds = self._read()
        return list(zip(radii.tolist(), bounds.tolist()))

    def _key(self) -> tuple:
        steps = self._read()
        return (self.kind, self.lipschitz,
                None if steps is None else tuple(map(bytes, steps)))

    def __eq__(self, other):
        if other.__class__ is not Modulus:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Modulus(kind={self.kind!r}, lipschitz={self.lipschitz!r}, "
                f"radii={self.radii!r}, bounds={self.bounds!r})")

    def __reduce__(self):
        return Modulus, (self.kind, self.lipschitz, self.radii, self.bounds)


def _tile_boxes(maps: np.ndarray):
    """(lo, hi): per tile of _TILE net points and coordinate, the lowest
    and the highest value over the tile's points and over all the maps of
    the (maps, n, d) stack, NaN where one is."""
    starts = np.arange(0, maps.shape[1], _TILE)
    return (np.minimum.reduceat(maps, starts, axis=1).min(axis=0),
            np.maximum.reduceat(maps, starts, axis=1).max(axis=0))


def _box_squares(boxes, row_tiles, col_tiles) -> np.ndarray:
    """Per row tile x column tile, the sum over coordinates of w^2, w the
    largest difference of the two tiles' boxes (see _tile_boxes):
    max(hi_row - lo_col, hi_col - lo_row).

    For any pair of the two tiles and any map, the exact value
    differences are at most those of the box corners, and rounding is
    monotone, so each computed difference |fl(p_k - q_k)| is at most
    fl(w_k); the exact sum of their squares is therefore at most that of
    the w_k, and the _square_limit argument carries over to the sum
    computed here.  A NaN or infinite value makes the sum NaN or
    infinite, which no limit meets.

    Two boxes that are one and the same point (every w is 0, which
    fl(hi - lo) gives only for equal operands) put each of the unit's
    pairs at value distance 0 exactly in every map; the sum is then -1,
    which every limit meets, as 0 raises no measured maximum (they start
    at 0) and fails no allowance (each is positive or NaN)."""
    lo, hi = boxes
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.maximum(hi[row_tiles, None] - lo[None, col_tiles],
                       hi[None, col_tiles] - lo[row_tiles, None])
        s = np.einsum("...k,...k->...", w, w)
    zero = s == 0.0                     # w >= 0: an underflow, or every w 0
    zero[zero] = ~w[zero].any(axis=-1)
    s[zero] = -1.0
    return s


def _seed_runs(block: _CodedBlock, limit):
    """The first row of each row tile of block over all its columns, as
    runs (see _unit_runs): the net's first row alone, then the others,
    which a caller may screen against it."""
    rows, cols, codes = block[:3]
    firsts = _tile_edges(rows)[:-1]
    for at in np.split(firsts, [1] if rows.start == 0 else []):
        if len(at):
            lim = limit()
            yield at + rows.start, cols, codes[at], lim, _square_limit(lim)


def _unit_runs(net: Net, maps: np.ndarray, limit, seed: bool = False):
    """The visited pairs of net that no tile bound proves, as runs
    (rows, cols, codes, lim, square): an array of row indices, a column
    slice, the run's codes, the per-code limit() read for the run and
    its _square_limit, block by block.

    Each block of net._pair_codes() is cut into units (see _CodedBlock).
    A unit is skipped when its _box_squares bound s over the maps is
    at most square[c] at both its lowest and its highest code c: its
    pairs' value distances then lie below lim at the lowest code, hence
    at every code of the unit, provided the limit does not decrease from
    one code to the next where it is a number.  A limit outside
    [_SCREEN_FLOOR, inf) squared, NaN included, proves nothing.  Each row
    tile with a surviving unit is one run, over the columns from its
    first surviving unit to its last.  limit() is read once per block,
    when its units are screened.

    seed=True first yields the first row of each row tile (see
    _seed_runs), reading limit() afresh per run, and leaves these rows
    out of the units, so that limits taken from pairs already evaluated
    meet the units early.  On a net with a stored code table the seeds
    of every block come before any unit is screened; past the table cap
    each block's seeds come first in that block, so that its distances
    are computed once per call.
    """
    stored = net._pair_table[1]
    if seed and stored is not None:
        for block in stored:
            yield from _seed_runs(block, limit)
    boxes = _tile_boxes(maps)
    for block in net._pair_codes():
        rows, cols, codes, low, high = block
        if seed and stored is None:
            yield from _seed_runs(block, limit)
        r_at, c_at = _tile_edges(rows), _tile_edges(cols)
        s = _box_squares(boxes, rows.start // _TILE + np.arange(len(low)),
                         cols.start // _TILE + np.arange(len(c_at) - 1))
        lim = limit()
        square = _square_limit(lim)
        tiles, units = np.nonzero(~((s <= square[low]) & (s <= square[high])))
        first = np.ones(len(units) + 1, dtype=bool)     # of a run
        first[1:-1] = np.diff(tiles) != 0
        for a, u0, u1 in zip(tiles[first[:-1]].tolist(),
                             units[first[:-1]].tolist(),
                             units[first[1:]].tolist()):
            r0, r1 = r_at[a] + seed, r_at[a + 1]    # past the seed row
            if r0 < r1:
                c0, c1 = c_at[u0], c_at[u1 + 1]
                yield (np.arange(r0 + rows.start, r1 + rows.start),
                       slice(cols.start + c0, cols.start + c1),
                       codes[r0:r1, c0:c1], lim, square)


def _undecided_pairs(net: Net, maps: np.ndarray, limit, seed: bool = False):
    """The visited pairs of net whose largest value distance over the
    (maps, n, d) stack is not proven at most lim[code], neither by the
    tile rule (see _unit_runs, whose arguments these are) nor by the pair
    screen, run by run as (i, j, codes, dv): row and column indices, the
    pairs' codes and dv = _euclidean(maps[:, i], maps[:, j]), the exact
    value distances in each map (gathered with take, which numpy does
    several times faster than that indexing).

    The screen works from the differences the exact distance would take.
    One coordinate: |difference| is the distance itself, compared with
    lim directly.  More: the sum of the squared differences is compared
    with square = _square_limit(lim), which proves the distance below lim
    (see there).  The maps' values are folded with np.maximum, so a NaN
    in any map proves nothing for the pair.
    """
    columns = [np.ascontiguousarray(maps[..., k])
               for k in range(maps.shape[-1])]
    for rows, cols, codes, lim, square in _unit_runs(net, maps, limit, seed):
        r = rows[:, None]
        top = None
        for m in range(len(maps)):
            s = columns[0][m, r] - columns[0][m, cols]
            if len(columns) == 1:
                np.abs(s, out=s)
            else:
                s *= s
                for c in columns[1:]:
                    d = c[m, r] - c[m, cols]
                    s += np.multiply(d, d, out=d)
            top = s if top is None else np.maximum(top, s, out=top)
        below = top <= (lim if len(columns) == 1 else square).take(codes)
        ii, jj = np.divmod(np.flatnonzero(~below), cols.stop - cols.start)
        if len(ii):
            i, j = rows[ii], jj + cols.start
            yield i, j, codes[ii, jj], _euclidean(maps.take(i, axis=1),
                                                  maps.take(j, axis=1))


def measured_modulus_multi(net: Net, values_list) -> Modulus:
    """Tightest dyadic-bucket step modulus all the sampled maps obey.

    Used to declare moduli for constructed extensions (and homotopy
    slices) whose analytic modulus has no convenient closed form;
    check_modulus then re-verifies the declaration independently.
    values_list holds maps of one (n, d) shape, n the net's size, as a
    list or a (maps, n, d) stack; InvalidArgument otherwise.

    The radii are dmax * 2^-(_BUCKETS-1) ... dmax.  Distances come from
    the net's derived pair data (see Net): its diameter and each visited
    pair's code, from which a pair's bucket is a table lookup.  A net
    with a stored code table computes no pair distance here; a larger one
    computes its codes block by block in the same loop.  Maxima are taken
    per code, then folded into buckets, and ignore visiting order; every
    maximum is of np.hypot value distances, so the table is bit for bit
    that of a full n x n pass.

    The table is the prefix maximum over the buckets of the per-bucket
    maxima, so a pair no larger than the prefix maximum its bucket has
    already attained cannot change it.  That prefix maximum, per code,
    is the limit of _undecided_pairs, whose tile rule skips the units
    proven below it and whose pair screen the pairs proven below it from
    the sums of squares of their differences; the first row of each row
    tile is evaluated first to seed it.  Only the pairs left get their
    exact distances, the maps folded with np.maximum in stack order, so
    a NaN pair keeps the first NaN it meets.

    The check of the shapes is made here; the table is measured on its
    first read (see Modulus), from a snapshot of the maps taken here
    (_snapshot), so a later write to the caller's arrays does not reach
    it.  Where _accepted cannot prove that Modulus.step will accept the
    table, it is measured here, so an invalid table (a NaN or infinite
    value, say) raises InvalidArgument from this call.
    """
    maps = _snapshot(net, values_list)
    modulus = Modulus._measured(functools.partial(_measured_table, net, maps))
    if not _accepted(net, maps):
        modulus.table()
    return modulus


def _snapshot(net: Net, values_list) -> np.ndarray:
    """measured_modulus_multi's check, then its maps as one frozen
    (maps, n, d) float64 stack (see _frozen: a list is stacked into a new
    array, an array that owns its data is frozen in place, a stack this
    made comes back unconverted)."""
    shapes = {np.shape(v) for v in values_list}
    if len(shapes) != 1 or shapes.pop()[:-1] != (len(net),):
        raise InvalidArgument("the maps need one (n, d) shape, n = len(net)")
    return _frozen(values_list)


def _measured_table(net: Net, maps: np.ndarray) -> Modulus:
    radii, bounds = _measured_bounds(net, maps)
    return Modulus.step([(0.0, 0.0)] + list(zip(radii.tolist(), bounds.tolist())))


@np.errstate(over="ignore", invalid="ignore")
def _accepted(net: Net, maps: np.ndarray) -> bool:
    """Will Modulus.step accept the table measured_modulus_multi measures
    of the (maps, n, d) stack on net?  True only where it is proven here,
    in O(n d) and without the net's pair table:

    - each bound is a value distance or 0, and every value distance is
      finite where the squared spans (max - min) of the value coordinates
      over all maps add up to below 2^1000: each computed difference is
      at most its coordinate's span (rounding is monotone), so no sum of
      squares comes near overflow;
    - the radii dmax 2^-k, k < _BUCKETS, are finite and increasing where
      the net has a coordinate backend whose points are spanned the same
      way: every net distance is then below inf (a cone's route through
      the apex may give -inf, which raises no maximum), so dmax is
      finite.  Points all equal make every distance at most 0, so dmax is
      0 and the table (0, 0) alone.  Else dmax is at least the distance
      of each pair of points that hold the least and the largest value of
      a coordinate (dist_pairs, bit for bit the distances it folds), and
      from 2^(_BUCKETS - 1000) up every radius is a normal number, so
      exact.
    """
    if maps.size == 0 or not isinstance(net.metric, _CoordinateMetric):
        return False
    values, points = _extents(maps), _extents(net.points)
    if not (values @ values < 2.0 ** 1000 and points @ points < 2.0 ** 1000):
        return False
    if not points.any():
        return True
    ends = net.dist_pairs(net.points.argmin(axis=0), net.points.argmax(axis=0))
    return float(ends.max()) >= 2.0 ** (_BUCKETS - 1000)


def _extents(a: np.ndarray) -> np.ndarray:
    """max - min of each coordinate of a, on its last axis, over all the
    rest: NaN or inf where a value is not finite or a span overflows, and
    0 only where every value of the coordinate is equal.  One coordinate
    at a time: numpy reduces across a short last axis slowly."""
    return np.array([a[..., k].max() - a[..., k].min()
                     for k in range(a.shape[-1])])


def _measured_bounds(net: Net, maps: np.ndarray):
    """The radii and bounds of measured_modulus_multi's table of the
    (maps, n, d) stack, empty on a net of diameter 0; a bound is NaN or
    infinite where a value is, which Modulus.step then rejects."""
    dmax = net._dmax
    if dmax == 0.0:
        return np.empty(0), np.empty(0)
    radii = dmax * 2.0 ** np.arange(-(_BUCKETS - 1), 1.0)
    # per code, its bucket: searchsorted(radii, d, "left") clipped to
    # [0, _BUCKETS - 1], and the last code of that bucket
    bucket = np.clip(np.arange(_RADII + 2) - 1 - (_RADII - _BUCKETS),
                     0, _BUCKETS - 1)
    last = np.searchsorted(bucket, bucket, side="right") - 1
    peaks = np.zeros(_RADII + 2)                # per code

    def limit():                                # attained prefix maxima
        return np.maximum.accumulate(peaks)[last]

    for _, _, codes, dv in _undecided_pairs(net, maps, limit, seed=True):
        np.maximum.at(peaks, codes, functools.reduce(np.maximum, dv))
    per_bucket = np.zeros(_BUCKETS)
    np.maximum.at(per_bucket, bucket, peaks)
    return radii, np.maximum.accumulate(per_bucket)


def measured_modulus(net: Net, values: np.ndarray) -> Modulus:
    return measured_modulus_multi(net, [values])


def _same_net(a: Net, b: Net) -> bool:
    return a is b or np.array_equal(a.points, b.points)


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


def _allowances(net: Net, modulus: Modulus, slack: float):
    """(lo, tight) per pair code.  lo[c] = omega(nextafter(edges[c-1])) +
    slack + _CHECK_TOLERANCE (see _edges) is at most omega(d) + slack +
    _CHECK_TOLERANCE for every pair of code c, since omega and the
    additions round monotonically; for the same reason lo does not
    decrease from code 1 to code 254.  Where tight[c], lo[c] equals the
    same expression at edges[c] and so is every such pair's allowance.
    Codes 0 and 255 get lo = NaN: never screened, never tight."""
    edges = _edges(net._dmax)
    lo = np.full(_RADII + 2, np.nan)
    lo[1:-1] = (modulus(np.nextafter(edges[:-1], np.inf)) + slack
                + _CHECK_TOLERANCE)
    tight = lo == (modulus(np.r_[0.0, edges[1:], 0.0]) + slack
                   + _CHECK_TOLERANCE)
    return lo, tight


def check_modulus(f, slack: float) -> bool:
    """Does f satisfy its declared modulus up to additive slack on all pairs?

    One pass over the visited pairs, stopping at the first violating
    run; each unordered pair is tested once, with the per-pair test of
    a full n x n pass, and every metric is symmetric, so the answer is
    the same.
    Every pair's value distance is compared with omega; only the pair
    distances may come from the domain's derived data (see Net), which
    never depends on a map or a modulus.

    _undecided_pairs skips the units whose tile bound lies below the
    lower bound lo[code] of each pair's allowance (see _allowances) at
    their lowest code, which holds only for units whose codes all lie in
    1..254, where lo does not decrease, and the pairs whose sums of
    squares prove them at most lo[code]; every other pair gets its exact
    value distance.  One at most lo[code] passes, and every other pair,
    NaN and infinite values included, gets the exact test np.hypot(...)
    > omega(d) + slack + _CHECK_TOLERANCE of the unscreened pass, its
    allowance read from lo where its code is tight and else evaluated on
    its net distance.  A step table over the domain net's own dyadic
    radii (as measured_modulus_multi declares) is tight on every code
    from 1 to 254, so it computes net distances only for pairs at
    distance 0.

    Identity maps take O(n): on a Euclidean net, values array_equal to the
    points give each value distance by the same _euclidean on the same
    coordinates (-0.0 and 0.0 alike), so it is d bit for bit, and for
    L >= 1 monotone rounding gives fl(L d) + slack + _CHECK_TOLERANCE >= d.
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
    lo, tight = _allowances(net, modulus, slack)
    for i, j, c, dv in _undecided_pairs(net, values[None], lambda: lo):
        dv, allowed = dv[0], lo[c]
        loose = ~(dv <= allowed) & ~tight[c]
        allowed[loose] = (modulus(net.dist_pairs(i[loose], j[loose]))
                          + slack + _CHECK_TOLERANCE)
        if np.any(dv > allowed):
            return False
    return True
