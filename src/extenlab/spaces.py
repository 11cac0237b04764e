"""Catalog of annotated compact metric spaces and the pair constructors.

Every catalog space is built at a dyadic resolution eps and carries exact
structural annotations next to its net: a total path-component labeling,
its clopen atoms, retraction data for the ANRs, and named basepoints.
No edge list backs the labeling; the test suite checks that the points
of each label are 2 eps-chain-connected through points of that label.

Truncation policy (documented per space, deterministic):

* ndagger      keeps every point 1/m with m <= 1/eps plus the limit 0.
* comb         keeps teeth 1/m exactly for m <= index_cutoff(eps) (about
               1/(8 eps), between 2 and 32), then fill teeth roughly every
               0.75 eps down to ~eps, then the limit tooth at x = 0.  An
               honest eps-net of the full comb.
* sine         keeps full oscillations k <= osc_cutoff(eps) (the widest
               k(k+1) <= 1/eps), then only the baseline zeros (1/m, 0)
               down to m <= 1/eps, plus the limit segment {0} x [-1, 1].
* hawaii       keeps circles of radius 1/k >= eps; every smaller circle
               lies inside the smallest kept one, so the net stays an
               honest eps-net of the whole earring.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dyadic
from .errors import InvalidArgument, UnknownName
from .metric import (_EXACT_SLACK, _INTEGER_SLACK, _ON_NET_SLACK,
                     _ORDER_SLACK, ConeMetric, EuclideanMetric,
                     MaxProductMetric, Modulus, Net, _frozen, _square_limit,
                     _unique, euclidean_rows, pair_blocks)

# Catalog membership: within _MEMBER_SLACK of a curve, disk or comb; the
# sine's height within _SINE_SLACK, as sin(pi / x) magnifies x's rounding.
_MEMBER_SLACK = 1e-9
_SINE_SLACK = 1e-6


def index_cutoff(eps: float) -> int:
    """Distinguished-index truncation bound shared by the 1/n catalogs."""
    dyadic.exponent_of(eps)
    return max(2, min(32, round(1.0 / (8.0 * eps))))


def osc_cutoff(eps: float) -> int:
    """Last fully represented sine oscillation: widest k with k(k+1) <= 1/eps."""
    k = int(math.isqrt(round(1.0 / eps)))
    while (k + 1) * (k + 2) <= round(1.0 / eps):
        k += 1
    while k > 1 and k * (k + 1) > round(1.0 / eps):
        k -= 1
    return k


# ---------------------------------------------------------------------------
# clopen structure


class ClopenAtoms:
    """Clopen structure of a net: one atom id per point, -1 for no atom.

    A net subset extends to a clopen set of the modelled space exactly
    when it is a union of atoms, and a trace on Z exactly when it is a
    union of pieces atom & Z.  Each point of the compactified naturals
    is an atom (a set holding the limit extends to a cofinite clopen
    set); so is the point at infinity of a one-point compactification.
    """

    def __init__(self, ids):
        self.ids = np.asarray(ids)
        self.count = int(self.ids.max(initial=-1)) + 1

    @classmethod
    def connected(cls, size: int) -> ClopenAtoms:
        """One atom; the broadcast ids store nothing per point."""
        return cls(np.broadcast_to(0, (size,)))

    def atoms(self) -> list[frozenset]:
        order = np.argsort(self.ids, kind="stable")
        cuts = np.searchsorted(self.ids[order], np.arange(self.count + 1))
        return [frozenset(order[a:b].tolist())
                for a, b in zip(cuts[:-1], cuts[1:])]

    def extends(self, subset: frozenset) -> bool:
        part = _unique(np.fromiter(subset, dtype=np.int64))
        if len(part) and (part[0] < 0 or part[-1] >= len(self.ids)):
            return False
        return self._covers(part, slice(None))

    def trace_extends(self, z_indices, trace: frozenset) -> bool:
        z = _unique(np.asarray(z_indices, dtype=np.int64))
        part = _unique(np.fromiter(trace, dtype=np.int64))
        return bool(np.isin(part, z).all()) and self._covers(part, z)

    def _covers(self, part, pool) -> bool:
        """Whether part lies in atoms and holds their pool points."""
        pool_ids = self.ids[pool]
        hit, counts = np.unique(self.ids[part], return_counts=True)
        if len(hit) and hit[0] < 0:
            return False
        sizes = np.bincount(pool_ids[pool_ids >= 0], minlength=self.count)
        return bool(np.array_equal(counts, sizes[hit]))


# ---------------------------------------------------------------------------
# retractions


class Retraction:
    """Named retraction r: U -> X from an ambient neighborhood U."""

    def __init__(self, name, contains, apply):
        self.name = name
        self._contains = contains
        self._apply = apply

    def contains(self, pts) -> np.ndarray:
        return self._contains(np.atleast_2d(np.asarray(pts, dtype=float)))

    def apply(self, pts) -> np.ndarray:
        return self._apply(np.atleast_2d(np.asarray(pts, dtype=float)))


def _interval_retraction():
    return Retraction("clamp", lambda p: (p[:, 0] >= -0.5) & (p[:, 0] <= 1.5),
                      lambda p: np.clip(p, 0.0, 1.0))


def _circle_retraction():
    def contains(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return (r > 0.5) & (r < 1.5)

    def apply(p):
        r = np.maximum(np.hypot(p[:, 0], p[:, 1]), 1e-300)
        return p / r[:, None]

    return Retraction("radial", contains, apply)


def _disk_retraction(center, radius):
    c = np.asarray(center, dtype=float)

    def contains(p):
        return euclidean_rows(p, c) <= 1.5 * radius

    def apply(p):
        d = euclidean_rows(p, c)
        scale = np.minimum(1.0, radius / np.maximum(d, 1e-300))
        return c + (p - c) * scale[:, None]

    return Retraction("radial-clamp", contains, apply)


# ---------------------------------------------------------------------------
# annotated spaces


@dataclass(frozen=True)
class AnnotatedSpace:
    """A compact metric space at one resolution, with exact annotations.

    meta: builder data that pair, family and example code reads back
    (e.g. the sine's zero_index, the earring's circles).
    recipe: how a constructor built it, as serialization.space_to_ref
    writes it but with base spaces for their references; else None.
    """

    name: str
    net: Net
    labels: np.ndarray
    label_names: tuple
    clopen: ClopenAtoms
    retractions: dict
    basepoints: dict
    meta: dict = field(default_factory=dict)
    contains_fn: object = None
    recipe: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen(self.labels, int))

    @property
    def resolution(self) -> float:
        return self.net.resolution

    @functools.cached_property
    def key(self) -> str:
        """The space's one identity, which maps compare to tell whether
        they share a codomain: its name, a digest and its resolution.  A
        space with a recipe is known by the recipe, each base space in it
        by its key; one without by its points (+ 0.0 folds -0.0 into
        0.0), so an explicit reload keeps the key of what it reloads."""
        if self.recipe is not None:
            data = json.dumps(self.recipe, sort_keys=True,
                              default=lambda base: base.key).encode()
        else:
            pts = self.net.points
            data = repr(pts.shape).encode() + (pts + 0.0).tobytes()
        digest = hashlib.sha256(data).hexdigest()[:16]
        return f"{self.name}#{digest}@{dyadic.format_epsilon(self.resolution)}"

    def contains(self, pts) -> np.ndarray:
        """Membership in the true space (analytic where available);
        InvalidArgument unless the points have the net's dimension."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.net.dimension:
            raise InvalidArgument(f"{self.name} holds points of dimension "
                                  f"{self.net.dimension}, not {pts.shape[1]}")
        if self.contains_fn is not None:
            return self.contains_fn(pts)
        _, d = self.net.nearest(pts)
        return d <= self.net.resolution + _ON_NET_SLACK

    def component_count(self) -> int:
        return len(_unique(self.labels))

    def basepoint(self, name: str) -> int:
        if name not in self.basepoints:
            raise UnknownName(f"{self.name} has no basepoint {name!r}")
        return self.basepoints[name]


@dataclass(frozen=True)
class SpacePair:
    """Space Y with a distinguished closed subspace Z at the same resolution.

    recipe: the catalog recipe make_pair built it by, as
    serialization.pair_to_ref writes it; else None.
    """

    name: str
    space: AnnotatedSpace
    z_indices: np.ndarray
    z_net: Net
    meta: dict = field(default_factory=dict)
    recipe: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "z_indices", _frozen(self.z_indices, int))

    @classmethod
    def build(cls, name, space, z_indices, meta=None):
        z = _net_indices(z_indices, space, "Z")
        return cls(name, space, z, space.net.subnet(z), meta or {})

    @property
    def resolution(self) -> float:
        return self.space.resolution

    def z_position(self, y_index: int) -> int:
        hits = np.nonzero(self.z_indices == y_index)[0]
        if len(hits) == 0:
            raise InvalidArgument(f"Y index {y_index} is not in Z")
        return int(hits[0])


def _net_indices(indices, space: AnnotatedSpace, what: str) -> np.ndarray:
    """indices as a 1-d int64 array; InvalidArgument unless each is an
    integer in 0..n-1 for the n points of space's net."""
    idx = np.asarray(indices)
    n = len(space.net)
    if idx.dtype.kind != "i" or idx.ndim != 1 \
            or not np.all((idx >= 0) & (idx < n)):
        raise InvalidArgument(f"{what} indices must be a list in 0..{n - 1}")
    return idx.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# catalog builders


def _build_point(eps):
    net = Net(np.array([[0.0]]), eps)
    return AnnotatedSpace(
        "point", net, np.zeros(1, dtype=int), ("point",),
        ClopenAtoms.connected(1), {}, {"origin": 0},
        contains_fn=lambda p: euclidean_rows(p, np.zeros_like(p)) <= _EXACT_SLACK)


def _build_interval(eps, extra=()):
    pts = dyadic.grid(eps)
    if len(extra):
        pts = _unique(np.concatenate([pts, np.asarray(extra, dtype=float)]))
    net = Net(pts[:, None], eps)
    n = len(pts)
    return AnnotatedSpace(
        "interval", net, np.zeros(n, dtype=int), ("interval",),
        ClopenAtoms.connected(n), {"clamp": _interval_retraction()},
        {"left": 0, "right": n - 1},
        contains_fn=lambda p: ((p[:, 0] >= -_EXACT_SLACK)
                               & (p[:, 0] <= 1 + _EXACT_SLACK)))


def _ndagger_values(eps) -> np.ndarray:
    top = round(1.0 / eps)
    vals = [0.0] + [1.0 / m for m in range(top, 0, -1)]
    return np.asarray(vals)


def _build_ndagger(eps):
    vals = _ndagger_values(eps)
    n = len(vals)
    net = Net(vals[:, None], eps)
    labels = np.arange(n)
    names = tuple("singleton-0" if v == 0.0 else f"singleton-1/{round(1 / v)}"
                  for v in vals)
    return AnnotatedSpace(
        "ndagger", net, labels, names, ClopenAtoms(labels), {},
        {"zero": 0, "one": n - 1})


def _build_circle(eps):
    count = 8
    while 2 * math.pi / count > 1.4 * eps:
        count *= 2
    ang = 2 * math.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    for j, exact in ((0, (1, 0)), (count // 4, (0, 1)),
                     (count // 2, (-1, 0)), (3 * count // 4, (0, -1))):
        pts[j] = exact
    net = Net(pts, eps)
    return AnnotatedSpace(
        "circle", net, np.zeros(count, dtype=int), ("circle",),
        ClopenAtoms.connected(count), {"radial": _circle_retraction()},
        {"angle0": 0},
        contains_fn=lambda p: (np.abs(np.hypot(p[:, 0], p[:, 1]) - 1.0)
                               <= _MEMBER_SLACK))


# The largest net a builder makes, in points (a disk: in lattice cells).
# The unit disk at 2^-11 (4,097^2 cells, about 13.2M points) fits; a
# larger net is refused before its arrays are allocated.
_MAX_POINTS = 1 << 25


def _check_size(size: float, what: str):
    """InvalidArgument if size is past _MAX_POINTS."""
    if size > _MAX_POINTS:
        raise InvalidArgument(f"{what}: about {size:.3g}, past the cap of "
                              f"{_MAX_POINTS}")


def _finite_number(value) -> float | None:
    """value as a finite float (-0.0 as 0.0, which equals it) if it is an
    int or a float, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value + 0.0 if math.isfinite(value) else None


def _disk_parameters(**given) -> dict:
    """The disk's parameters as _build_disk reads them (two floats and a
    float), less those equal to their defaults: make_space's memo key and
    recipe.  InvalidArgument on a value the builder cannot read."""
    defaults = _PARAMETERS["disk"]
    center, radius = {**defaults, **given}.values()
    coords = tuple(map(_finite_number, center)) \
        if isinstance(center, tuple) else ()
    radius = _finite_number(radius)
    if len(coords) != 2 or None in coords or radius is None or radius < 0:
        raise InvalidArgument("disk needs a center of two finite numbers "
                              "and a finite radius >= 0")
    params = {"center": coords, "radius": radius}
    return {k: v for k, v in params.items() if v != defaults[k]}


def _build_disk(eps, center=(0.0, 0.0), radius=1.0, extra=None):
    side = 2 * radius / eps + 1
    _check_size(side * side, "disk lattice cells")
    center = np.array(center)
    pts, n_grid, injected = _disk_points(eps, center, radius, extra)
    net = Net(pts, eps)
    n = len(net)

    reach = radius + _MEMBER_SLACK
    inside = float(_square_limit(np.array([reach]))[0])

    @np.errstate(over="ignore")
    def member(p):
        """euclidean_rows(p, center) <= reach, bit for bit: true where the
        sum of squares s of the same differences is at most inside (see
        metric._square_limit), else decided by np.hypot."""
        dx, dy = p[:, 0] - center[0], p[:, 1] - center[1]
        s = dx * dx
        s += dy * dy
        within = s <= inside
        rest = np.flatnonzero(~within)
        within[rest] = np.hypot(dx[rest], dy[rest]) <= reach
        return within

    return AnnotatedSpace(
        "disk", net, np.zeros(n, dtype=int), ("disk",),
        ClopenAtoms.connected(n),
        {"radial-clamp": _disk_retraction(center, radius)},
        {"center": _nearest_row(net.points[:n_grid], center)},
        meta={"injected_indices": injected},
        contains_fn=member)


def _disk_points(eps, center, radius, extra):
    """The disk's net points, how many of them are lattice points, and the
    rows of the extra points.

    The lattice points come first, in row order, then the points of three
    boundary rings and of extra that are not lattice points, each once at
    its first occurrence.  No temporary is the size of the lattice but the
    mask (one byte per cell) and the index table (four bytes per cell,
    freed before the points are allocated).
    """
    cx, cy = center
    xs = dyadic.grid(eps, cx - radius, cx + radius)
    ys = dyadic.grid(eps, cy - radius, cy + radius)
    # the mask a block of rows at a time: no lattice-sized float temporary
    dx2, dy2 = (xs - cx) ** 2, (ys - cy) ** 2
    mask = np.empty((len(xs), len(ys)), dtype=bool)
    for rows, _ in pair_blocks(len(xs), len(ys)):
        np.less_equal(dx2[rows, None] + dy2, radius ** 2, out=mask[rows])
    n_grid = int(np.count_nonzero(mask))
    if n_grid == 0:
        raise InvalidArgument(f"disk of radius {radius!r} holds no lattice "
                              f"point at {dyadic.format_epsilon(eps)}")
    idx2d = np.full(mask.shape, -1, dtype=np.int32)
    idx2d[mask] = np.arange(n_grid, dtype=np.int32)

    count = int(math.ceil(2 * math.pi * radius / (0.5 * eps)))
    ang = 2 * math.pi * np.arange(count) / count
    queries = [np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
               for r in (radius, radius - 0.5 * eps, radius - eps)]
    if extra is not None and len(extra):
        queries.append(np.asarray(extra, dtype=float))
    arr = np.concatenate(queries)
    # exact hits on kept lattice points take their index (dyadic divisions
    # are exact, so genuine duplicates compare equal bit for bit)
    f = (arr - (xs[0], ys[0])) / eps
    hit = np.all((f == np.round(f)) & (f >= 0) & (f < mask.shape), axis=1)
    ix, iy = f[hit].astype(int).T
    index = np.full(len(arr), -1, dtype=int)
    index[hit] = idx2d[ix, iy]
    del idx2d
    fresh = _first_occurrences(arr, np.flatnonzero(index < 0), index, n_grid)

    pts = np.empty((n_grid + len(fresh), 2))
    stop = 0
    for rows, _ in pair_blocks(len(xs), len(ys)):
        m = mask[rows]
        start, stop = stop, stop + int(np.count_nonzero(m))
        pts[start:stop, 0] = np.broadcast_to(xs[rows, None], m.shape)[m]
        pts[start:stop, 1] = np.broadcast_to(ys, m.shape)[m]
    pts[n_grid:] = fresh
    return pts, n_grid, index[3 * count:].copy()


def _first_occurrences(arr, rows, index, start):
    """The distinct points among arr[rows], each at its first occurrence,
    in the order of those; index[r] gets start plus the position of
    arr[r]'s.  Points compare as Python float pairs do (-0.0 equals 0.0,
    a NaN nothing), and a point keeps the bits of its first occurrence.
    """
    points = arr[rows]
    # + 0.0 folds -0.0 into 0.0; rows compare as records, so a NaN row
    # equals no other
    _, first, inverse = np.unique(points + 0.0, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=int)
    rank[order] = np.arange(len(first))
    index[rows] = start + rank[inverse.ravel()]
    return points[first[order]]


def _nearest_row(pts, target) -> int:
    """The first row of pts nearest target, a block of rows at a time."""
    best, first = math.inf, 0
    for rows, _ in pair_blocks(len(pts), 1):
        d = euclidean_rows(pts[rows], target)
        i = int(d.argmin())
        if d[i] < best:
            best, first = d[i], rows.start + i
    return first


def _sample_monotone_arc(theta_a, theta_b, step, endpoints):
    """Arc-length resampling of (pi/theta, sin theta) on [theta_a, theta_b].

    Endpoints are replaced by the exact coordinates supplied, so zeros
    and extrema of the curve land on the net bit-exactly.
    """
    fine = max(256, 4 * int(math.ceil(2.5 / step)))
    th = np.linspace(theta_a, theta_b, fine)
    pts = np.column_stack([math.pi / th, np.sin(th)])
    seg = euclidean_rows(pts[1:], pts[:-1])
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    n = max(1, int(math.ceil(total / step)))
    targets = np.linspace(0.0, total, n + 1)
    th_s = np.interp(targets, arc, th)
    out = np.column_stack([math.pi / th_s, np.sin(th_s)])
    out[0] = endpoints[0]
    out[-1] = endpoints[1]
    return out


def _build_sine(eps):
    k_osc = osc_cutoff(eps)
    m_tail = round(1.0 / eps)
    step = 1.4 * eps

    curve_pts = []
    zero_pos = {}
    for k in range(1, k_osc + 1):
        z0 = (1.0 / k, 0.0)
        z1 = (1.0 / (k + 1), 0.0)
        peak = (2.0 / (2 * k + 1), 1.0 if k % 2 == 0 else -1.0)
        half1 = _sample_monotone_arc(k * math.pi, (k + 0.5) * math.pi, step,
                                     (z0, peak))
        half2 = _sample_monotone_arc((k + 0.5) * math.pi, (k + 1) * math.pi,
                                     step, (peak, z1))
        if k == 1:
            zero_pos[1] = 0
            curve_pts.append(half1)
        else:
            curve_pts.append(half1[1:])
        curve_pts.append(half2[1:])
        zero_pos[k + 1] = sum(len(c) for c in curve_pts) - 1
    curve = np.vstack(curve_pts)
    tail_x = 1.0 / np.arange(k_osc + 2, m_tail + 1, dtype=float)
    tail = np.column_stack([tail_x, np.zeros_like(tail_x)])    # empty at 1
    for j, m in enumerate(range(k_osc + 2, m_tail + 1)):
        zero_pos[m] = len(curve) + j
    seg_y = dyadic.grid(eps, -1.0, 1.0)
    segment = np.column_stack([np.zeros(len(seg_y)), seg_y])
    pts = np.vstack([curve, tail, segment])
    n_curve = len(curve) + len(tail)
    n = len(pts)

    labels = np.zeros(n, dtype=int)
    labels[n_curve:] = 1
    origin = n_curve + int(np.nonzero(seg_y == 0.0)[0][0])
    net = Net(pts, eps)

    def member(p):
        x, y = p[:, 0], p[:, 1]
        on_seg = (np.abs(x) <= _MEMBER_SLACK) & (np.abs(y) <= 1 + _MEMBER_SLACK)
        # 1e-12 is a floor, not a tolerance: on_seg decides every x below it
        good = (x > 1e-12) & (x <= 1 + _MEMBER_SLACK)
        on_curve = np.zeros(len(p), dtype=bool)
        xs = np.where(good, x, 1.0)
        on_curve[good] = np.abs(np.sin(math.pi / xs) - y)[good] <= _SINE_SLACK
        return on_seg | on_curve

    return AnnotatedSpace(
        "sine", net, labels, ("curve", "segment"),
        ClopenAtoms.connected(n), {}, {"origin": origin, "corner": 0},
        meta={"zero_index": zero_pos},
        contains_fn=member)


def _comb_teeth(eps) -> list[float]:
    cut = index_cutoff(eps)
    teeth = [1.0 / m for m in range(1, cut + 1)]
    m = cut + 1
    while True:
        target = teeth[-1] - 0.75 * eps
        if target <= 0.85 * eps:
            break
        m = max(m, int(math.ceil(1.0 / target)))
        if 1.0 / m <= 0.85 * eps:
            break
        teeth.append(1.0 / m)
        m += 1
    teeth.append(0.0)
    return teeth


def _build_comb(eps):
    teeth = _comb_teeth(eps)
    ygrid = dyadic.grid(eps)
    base_x = _unique(np.concatenate([dyadic.grid(eps), np.asarray(teeth)]))
    _check_size(len(base_x) + len(teeth) * (len(ygrid) - 1), "comb points")
    base = np.column_stack([base_x, np.zeros(len(base_x))])
    cols = [np.column_stack([np.full(len(ygrid) - 1, x), ygrid[1:]])
            for x in teeth]
    pts = np.vstack([base] + cols)
    n = len(pts)
    net = Net(pts, eps)

    def member(p):
        x, y = p[:, 0], p[:, 1]
        on_base = ((np.abs(y) <= _MEMBER_SLACK) & (x >= -_MEMBER_SLACK)
                   & (x <= 1 + _MEMBER_SLACK))
        inv = np.round(1.0 / np.maximum(x, 1e-300))   # a floor: no 1 / 0
        on_tooth = ((np.abs(x) <= _MEMBER_SLACK) |
                    ((inv >= 1) & (np.abs(x * inv - 1.0) <= _MEMBER_SLACK)))
        on_tooth &= (y >= -_MEMBER_SLACK) & (y <= 1 + _MEMBER_SLACK)
        return on_base | on_tooth

    # base_x starts at 0.0; the limit tooth's column comes last, tip on top
    return AnnotatedSpace(
        "comb", net, np.zeros(n, dtype=int), ("comb",),
        ClopenAtoms.connected(n), {}, {"limit-tip": n - 1, "origin": 0},
        contains_fn=member)


def _build_hawaii(eps):
    k_max = round(1.0 / eps)
    pts = [np.array([[0.0, 0.0]])]
    circle_indices = {}
    offset = 1
    for k in range(1, k_max + 1):
        r = 1.0 / k
        count = max(8, int(math.ceil(2 * math.pi * r / (1.4 * eps))))
        count += count % 2
        ang = math.pi + 2 * math.pi * np.arange(count) / count
        circ = np.column_stack([r + r * np.cos(ang), r * np.sin(ang)])
        circ[count // 2] = (2.0 * r, 0.0)
        ring = _frozen(np.concatenate([[0], offset + np.arange(count - 1)]),
                       int)
        pts.append(circ[1:])  # drop the shared origin sample
        circle_indices[k] = ring
        offset += count - 1
    net_pts = np.vstack(pts)
    n = len(net_pts)
    net = Net(net_pts, eps)

    def member(p):
        x, y = p[:, 0], p[:, 1]
        rr = x * x + y * y
        ok = np.zeros(len(p), dtype=bool)
        ok |= rr <= (eps * 1e-3) ** 2
        pos = rr > 0
        # on circle k iff x^2+y^2 = 2x/k for a natural k
        with np.errstate(divide="ignore", invalid="ignore"):
            k_est = np.where(pos & (x > 0), 2 * x / np.where(pos, rr, 1.0), 0.0)
        k_round = np.round(k_est)
        ok |= pos & (k_round >= 1) & (np.abs(k_est - k_round) <= _INTEGER_SLACK * np.maximum(1, k_round))
        return ok

    return AnnotatedSpace(
        "hawaii", net, np.zeros(n, dtype=int), ("earring",),
        ClopenAtoms.connected(n), {}, {"origin": 0},
        meta={"circles": circle_indices},
        contains_fn=member)


_BUILDERS = {
    "point": _build_point,
    "interval": _build_interval,
    "ndagger": _build_ndagger,
    "circle": _build_circle,
    "disk": _build_disk,
    "sine": _build_sine,
    "comb": _build_comb,
    "hawaii": _build_hawaii,
}

# The parameters each builder reads, with their defaults; make_space
# refuses any other.
_PARAMETERS = {"disk": {"center": (0.0, 0.0), "radius": 1.0}}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def make_space(name: str, resolution: float, **params) -> AnnotatedSpace:
    """Catalog space at a dyadic resolution (memoised until clear_caches)."""
    if name not in _BUILDERS:
        raise UnknownName(f"unknown catalog space {name!r}")
    if not dyadic.is_dyadic(resolution):
        raise InvalidArgument(f"resolution {resolution!r} is not dyadic")
    if unread := sorted(set(params) - set(_PARAMETERS.get(name, ()))):
        raise InvalidArgument(f"{name} reads no parameter {unread}")
    if name == "disk":
        params = _disk_parameters(**params)
    return _catalog_space(name, resolution, tuple(sorted(params.items())))


@functools.cache
def _catalog_space(name: str, resolution: float, params: tuple):
    recipe = {"kind": "catalog", "name": name, "parameters": dict(params),
              "resolution": resolution}
    return dataclasses.replace(_BUILDERS[name](resolution, **dict(params)),
                               recipe=recipe)


def clear_caches():
    """Forget every memoised catalog space and named pair."""
    _catalog_space.cache_clear()
    _named_pair.cache_clear()


# ---------------------------------------------------------------------------
# constructors used by the positive-side machinery


def product_with(space: AnnotatedSpace, factor: str,
                 grid_step: float | None = None) -> AnnotatedSpace:
    """Product factor x A with the max metric.

    factor "interval" uses a dyadic grid (step <= A's resolution);
    factor "ndagger" uses the 1/m catalog net at A's resolution.
    """
    eps = space.resolution
    if factor == "interval":
        step = float(grid_step if grid_step is not None else eps)
        if not dyadic.is_dyadic(step) or step > eps + _ORDER_SLACK:
            raise InvalidArgument("grid step must be dyadic and <= resolution")
        fvals = dyadic.grid(step)
        grid = {"step": step}
    elif factor == "ndagger":
        fvals = _ndagger_values(eps)
        grid = {}
    else:
        raise InvalidArgument(f"unknown product factor {factor!r}")
    if not isinstance(space.net.metric, EuclideanMetric):
        raise InvalidArgument("product base must carry the ambient metric")

    nA, nF = len(space.net), len(fvals)
    _check_size(nA * nF, "product points")
    rep = np.repeat(fvals, nA)
    tiled = np.tile(space.net.points, (nF, 1))
    pts = np.column_stack([rep, tiled])
    net = Net(pts, eps, MaxProductMetric(split=1))

    base = space.clopen
    if factor == "interval":
        labels = np.tile(space.labels, nF)
        names = space.label_names
        atom_ids = np.tile(base.ids, nF)
    else:
        labels = np.concatenate([space.labels + i * len(space.label_names)
                                 for i in range(nF)])
        names = tuple(f"f{i}|{bn}" for i in range(nF)
                      for bn in space.label_names)
        atom_ids = np.concatenate([np.where(base.ids < 0, -1,
                                            base.ids + i * base.count)
                                   for i in range(nF)])
    return AnnotatedSpace(
        f"product({factor},{space.name})", net, labels, names,
        ClopenAtoms(atom_ids), {}, {},
        meta={"factor_values": _frozen(fvals)},
        recipe={"kind": "construct", "op": "product", "factor": factor,
                "base": space, **grid})


def cone(space: AnnotatedSpace) -> AnnotatedSpace:
    """Metric cone: level-t copies with the t=1 level collapsed to an apex."""
    if not isinstance(space.net.metric, EuclideanMetric):
        raise InvalidArgument("cone base must carry the ambient metric")
    eps = space.resolution
    levels = _frozen(dyadic.grid(eps)[:-1])   # 0 .. 1-eps; apex stands for 1
    nA, nL = len(space.net), len(levels)
    _check_size(nA * nL + 1, "cone points")
    rep = np.repeat(levels, nA)
    tiled = np.tile(space.net.points, (nL, 1))
    pts = np.column_stack([tiled, rep])
    apex = np.concatenate([space.net.points[0], [1.0]])
    pts = np.vstack([pts, apex[None, :]])
    net = Net(pts, eps, ConeMetric())
    n = len(pts)
    return AnnotatedSpace(
        f"cone({space.name})", net, np.zeros(n, dtype=int), ("cone",),
        ClopenAtoms.connected(n), {}, {"apex": n - 1},
        meta={"levels": levels},
        recipe={"kind": "construct", "op": "cone", "base": space})


# past it, block n's diameter 2^(-n-2) is no longer a normal float
OPC_MAX_BLOCKS = 1020


def opc_disjoint_union(blocks: list[AnnotatedSpace]) -> AnnotatedSpace:
    """One-point compactification of a shrinking disjoint union.

    Block n is rescaled to diameter 2^-n-2 and placed on the first axis
    inside [0.75 * 2^-n, 2^-n], so every point of block n sits within
    2^-n of the point at infinity (placed at the origin).
    """
    if not 1 <= len(blocks) <= OPC_MAX_BLOCKS:
        raise InvalidArgument(f"opc takes 1..{OPC_MAX_BLOCKS} blocks")
    _check_size(1 + sum(len(b.net) for b in blocks), "opc points")
    eps = blocks[0].resolution
    dim = max(b.net.dimension for b in blocks)
    pts = [np.zeros((1, dim))]
    offset = 1
    meta_blocks = []
    labels = [np.array([0])]
    names = ["infinity"]
    atom_ids = [np.array([len(blocks)])]    # infinity after the blocks
    for n, b in enumerate(blocks, start=1):
        if b.resolution != eps:
            raise InvalidArgument("opc blocks must share one resolution")
        p = b.net.points
        lo = p.min(axis=0)
        extent = float(np.linalg.norm(p.max(axis=0) - lo))  # >= true diameter
        scale = (2.0 ** (-n - 2)) / max(extent, 1e-12)  # floor: extent 0
        shifted = np.zeros((len(p), dim))
        shifted[:, :p.shape[1]] = (p - lo) * scale
        shifted[:, 0] += 0.75 * 2.0 ** (-n)
        pts.append(shifted)
        atom_ids.append(np.full(len(p), n - 1))
        meta_blocks.append({"n": n, "start": offset, "size": len(p),
                            "scale": scale, "shift": 0.75 * 2.0 ** (-n)})
        labels.append(b.labels + len(names))
        names.extend(f"block{n}:{ln}" for ln in b.label_names)
        offset += len(p)
    net = Net(np.vstack(pts), eps)
    return AnnotatedSpace(
        "opc", net, np.concatenate(labels), tuple(names),
        ClopenAtoms(np.concatenate(atom_ids)), {},
        {"infinity": 0}, meta={"blocks": meta_blocks},
        recipe={"kind": "construct", "op": "opc", "blocks": list(blocks)})


def subspace(space: AnnotatedSpace, indices, name: str) -> AnnotatedSpace:
    """Connected sub-net of a catalog space, reusing the parent's metric."""
    idx = _net_indices(indices, space, "subspace")
    labs = _unique(space.labels[idx])
    if len(labs) != 1:
        raise InvalidArgument("subspace must sit inside one path component")
    net = space.net.subnet(idx)
    n = len(idx)
    return AnnotatedSpace(
        name, net, np.zeros(n, dtype=int), (space.label_names[labs[0]],),
        ClopenAtoms.connected(n), {}, {},
        contains_fn=space.contains_fn,
        recipe={"kind": "construct", "op": "subspace", "base": space,
                "indices": [int(i) for i in idx], "name": name})


def spiked_base_pair(v_space: AnnotatedSpace, p_index: int) -> SpacePair:
    """Pair (cone of V, base plus the spike over p)."""
    if not (0 <= p_index < len(v_space.net)):
        raise InvalidArgument("spike basepoint must be a net point of V")
    y = cone(v_space)
    nA = len(v_space.net)
    spike = p_index + nA * np.arange(1, len(y.meta["levels"]))
    z = np.concatenate([np.arange(nA), spike, [y.basepoint("apex")]])
    return SpacePair.build(f"spiked-base({v_space.name})", y, z)


def urysohn(space: AnnotatedSpace, z_indices, v_indices):
    """Separating function: 1 on Z, 0 off V, Lipschitz 2 / d(Z, Y - V)."""
    from .maps import MapSample  # local import to avoid a cycle

    z = np.asarray(z_indices, dtype=int)
    in_v = np.zeros(len(space.net), dtype=bool)
    in_v[np.asarray(v_indices, dtype=int)] = True
    if not in_v[z].all():
        raise InvalidArgument("urysohn requires Z inside V")
    comp = np.flatnonzero(~in_v)
    if len(comp) == 0:
        raise InvalidArgument("urysohn requires a nonempty complement")
    d_comp, d_z = space.net.dist_to_set(comp), space.net.dist_to_set(z)
    sep = float(d_comp[z].min())
    if sep <= 0:
        from .errors import DegenerateSeparation
        raise DegenerateSeparation("d(Z, Y - V) vanishes on the net")
    values = (d_comp / (d_comp + d_z))[:, None]
    codomain = make_space("interval", space.resolution)
    return MapSample(space.net, codomain, values, Modulus.lip(2.0 / sep),
                     name="urysohn")


# ---------------------------------------------------------------------------
# pair catalog


def pair_names() -> list[str]:
    return ["interval-N", "interval-ends", "sine-zeros", "disk-earring",
            "opc-intervals"]


def make_pair(name: str, resolution: float) -> SpacePair:
    """Named (Y, Z) pairs used by the example reproductions (memoised
    until clear_caches)."""
    if not dyadic.is_dyadic(resolution):
        raise InvalidArgument(f"resolution {resolution!r} is not dyadic")
    return _named_pair(name, resolution)


@functools.cache
def _named_pair(name: str, eps: float) -> SpacePair:
    return dataclasses.replace(
        _build_named_pair(name, eps),
        recipe={"kind": "catalog", "name": name, "resolution": eps})


def _build_named_pair(name: str, eps: float) -> SpacePair:
    if name == "interval-N":
        members = _ndagger_values(eps)
        y = _build_interval(eps, extra=members)
        z = np.searchsorted(y.net.points[:, 0], members)
        member_ids = _frozen([0] + list(range(round(1 / eps), 0, -1)), int)
        return SpacePair.build(name, y, z, meta={"z_members": member_ids})
    if name == "interval-ends":
        y = make_space("interval", eps)
        return SpacePair.build(name, y, [y.basepoint("left"), y.basepoint("right")])
    if name == "sine-zeros":
        y = make_space("sine", eps)
        zp = y.meta["zero_index"]
        ms = sorted(zp)  # 1..tail_max
        z = np.asarray([zp[m] for m in ms] + [y.basepoint("origin")])
        return SpacePair.build(name, y, z,
                               meta={"z_members": _frozen(ms + [0], int)})
    if name == "disk-earring":
        ear = make_space("hawaii", eps)
        y = _build_disk(eps, (1.0, 0.0), extra=ear.net.points)
        z = y.meta["injected_indices"]
        return SpacePair.build(name, y, z, meta={"z_space": ear})
    if name == "opc-intervals":
        block = make_space("interval", eps)
        y = opc_disjoint_union([block] * 8)
        z = [0]
        for b in y.meta["blocks"]:
            z.extend([b["start"], b["start"] + b["size"] - 1])
        return SpacePair.build(name, y, np.asarray(z))
    raise UnknownName(f"unknown pair {name!r}")
