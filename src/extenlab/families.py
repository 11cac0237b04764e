"""The catalog map families phi_n -> phi and their explicit extensions.

Each family lives over a fixed pair (Y, Z); the values follow the classic
counterexample formulas exactly on net points, so sup distances come out
as closed forms (1/(n+1) for the comb, sine and ndagger families, 2/(n+1)
for the earring family, 1/n for the path-component family).

extends says which instances extend; explicit_extension covers exactly
those and refuses the rest rather than guessing.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, NotCoveredRefusal, UnknownName
from .metric import Modulus, measured_modulus
from .maps import MapFamily, MapSample, constant_map
from .spaces import index_cutoff, make_pair, make_space, osc_cutoff

def _sqrt_step_modulus(diameter: float) -> Modulus:
    """Step table dominating omega(t) = sqrt(2 t), capped at the diameter."""
    radii = diameter * 2.0 ** np.arange(-23, 1.0)
    bounds = np.minimum(diameter, np.sqrt(2.0 * radii))
    return Modulus.step([(0.0, 0.0)] + list(zip(radii, bounds)))


def example_family(name: str, resolution: float) -> MapFamily:
    """Catalog family over its standard pair at the given resolution."""
    build = _FAMILIES.get(name)
    if build is None:
        raise UnknownName(f"unknown family {name!r}")
    return build(resolution)


def _comb_family(eps: float) -> MapFamily:
    pair = make_pair("interval-N", eps)
    comb = make_space("comb", eps)
    members = pair.meta["z_members"]          # 0 stands for the point 0.0
    z_coords = pair.z_net.points[:, 0]

    def phi_values(n: int) -> np.ndarray:
        keep = (members >= 1) & (members <= n)
        x = np.where(keep, z_coords, 0.0)
        return np.column_stack([x, np.ones(len(x))])

    limit_vals = np.column_stack([z_coords, np.ones(len(z_coords))])
    limit = MapSample(pair.z_net, comb, limit_vals, Modulus.lip(1.0),
                      name="comb-limit")

    def gen(n: int) -> MapSample:
        return MapSample(pair.z_net, comb, phi_values(n),
                         Modulus.lip(n + 1.0), name=f"comb-{n}")

    return MapFamily("comb", pair, comb, limit, gen,
                     n_bound=index_cutoff(eps) - 1)


def _pathcomp_family(name: str, eps: float) -> MapFamily:
    # the non-closed path component of the sine curve, approached along
    # its baseline zeros x_k = (1/k, 0) -> (0, 0)
    pair = make_pair("interval-N", eps)
    sine = make_space("sine", eps)
    members = pair.meta["z_members"]
    z_coords = pair.z_net.points[:, 0]

    def gen(n: int) -> MapSample:
        x = np.where((members >= 1) & (members <= n), z_coords, 1.0 / n)
        vals = np.column_stack([x, np.zeros(len(x))])
        return MapSample(pair.z_net, sine, vals, Modulus.lip(1.0),
                         name=f"{name}-{n}")

    limit_vals = np.column_stack([z_coords, np.zeros(len(z_coords))])
    limit = MapSample(pair.z_net, sine, limit_vals, Modulus.lip(1.0),
                      name=f"{name}-limit")
    return MapFamily(name, pair, sine, limit, gen, n_bound=osc_cutoff(eps))


def _sine_eopen_family(eps: float) -> MapFamily:
    pair = make_pair("sine-zeros", eps)
    sine = pair.space
    members = pair.meta["z_members"]
    z_pts = pair.z_net.points

    def gen(n: int) -> MapSample:
        keep = (members >= 1) & (members <= n)
        vals = np.where(keep[:, None], z_pts, 0.0)
        return MapSample(pair.z_net, sine, vals, Modulus.lip(n + 1.0),
                         name=f"sine-eopen-{n}")

    limit = MapSample(pair.z_net, sine, z_pts, Modulus.lip(1.0),
                      name="sine-eopen-limit")
    return MapFamily("sine-eopen", pair, sine, limit, gen,
                     n_bound=osc_cutoff(eps))


def _ndagger_eopen_family(eps: float) -> MapFamily:
    pair = make_pair("interval-N", eps)
    ndag = make_space("ndagger", eps)
    members = pair.meta["z_members"]

    def gen(n: int) -> MapSample:
        vals = np.where(members >= 1, 1.0 / (n + members), 0.0)
        return MapSample(pair.z_net, ndag, vals[:, None], Modulus.lip(1.0),
                         name=f"ndagger-eopen-{n}")

    limit = constant_map(pair.z_net, ndag, [0.0], name="ndagger-eopen-limit")
    return MapFamily("ndagger-eopen", pair, ndag, limit, gen, n_bound=64)


def _hawaii_family(eps: float) -> MapFamily:
    pair = make_pair("disk-earring", eps)
    ear = pair.meta["z_space"]
    circles = ear.meta["circles"]
    circle_of = np.zeros(len(pair.z_net), dtype=int)   # 0 = shared origin
    for k, ring in circles.items():
        circle_of[ring[1:]] = k
    z_pts = pair.z_net.points

    def gen(n: int) -> MapSample:
        collapse = (circle_of >= 0) & (circle_of <= n)
        vals = np.where(collapse[:, None], 0.0, z_pts)
        return MapSample(pair.z_net, ear, vals, _sqrt_step_modulus(2.0),
                         name=f"hawaii-{n}")

    limit = constant_map(pair.z_net, ear, [0.0, 0.0], name="hawaii-limit")
    return MapFamily("hawaii", pair, ear, limit, gen,
                     n_bound=min(index_cutoff(eps), len(circles) - 1))


def _ndagger_eclosed_family(eps: float) -> MapFamily:
    pair = make_pair("opc-intervals", eps)
    ndag = make_space("ndagger", eps)
    n_blocks = len(pair.space.meta["blocks"])
    # z layout: infinity first, then (left, right) per block
    block_of = np.r_[0, np.repeat(np.arange(1, n_blocks + 1), 2)]

    def values_for(cut: int) -> np.ndarray:
        vals = np.where((block_of >= 1) & (block_of <= cut),
                        1.0 / np.maximum(block_of, 1), 0.0)
        return vals[:, None]

    def gen(j: int) -> MapSample:
        vals = values_for(j)
        return MapSample(pair.z_net, ndag, vals,
                         measured_modulus(pair.z_net, vals),
                         name=f"ndagger-eclosed-{j}")

    lim_vals = values_for(n_blocks)
    limit = MapSample(pair.z_net, ndag, lim_vals,
                      measured_modulus(pair.z_net, lim_vals),
                      name="ndagger-eclosed-limit")
    return MapFamily("ndagger-eclosed", pair, ndag, limit, gen,
                     n_bound=n_blocks - 1)


_FAMILIES = {
    "pathcomp": lambda eps: _pathcomp_family("pathcomp", eps),
    "sine-eclosed": lambda eps: _pathcomp_family("sine-eclosed", eps),
    "sine-eopen": _sine_eopen_family,
    "comb": _comb_family,
    "ndagger-eopen": _ndagger_eopen_family,
    "hawaii": _hawaii_family,
    "ndagger-eclosed": _ndagger_eclosed_family,
}
FAMILY_NAMES = tuple(_FAMILIES)

# The maps Z -> X that extend over Y are neither open nor closed in X^Z,
# and each family but ndagger-eclosed (which extends throughout) shows
# one of the two: not closed, every member extends and the limit does
# not; not open, the limit extends and no member does.
_NOT_CLOSED = ("pathcomp", "sine-eclosed", "comb")
_NOT_OPEN = ("sine-eopen", "ndagger-eopen", "hawaii")


def extends(name: str, n: int | None) -> bool:
    """Whether member n of the family (None: its limit) extends over Y."""
    if name not in _FAMILIES:
        raise UnknownName(f"unknown family {name!r}")
    return name not in (_NOT_CLOSED if n is None else _NOT_OPEN)


# ---------------------------------------------------------------------------
# explicit extensions (positive side)


def _covered_family(name: str, n: int | None, resolution: float,
                   extending: bool) -> MapFamily:
    """The family of an instance a builder covers.

    Raises InvalidArgument for a member n outside 1..n_bound, then
    NotCoveredRefusal unless the instance extends exactly when the
    builder asks for extending instances.
    """
    fam = example_family(name, resolution)
    if n is not None and not 1 <= n <= fam.n_bound:
        raise InvalidArgument(f"{name}: n={n} outside 1..{fam.n_bound} "
                              "at this resolution")
    if extends(name, n) != extending:
        which = "limit" if n is None else n
        verb = "does not extend" if extending else "extends"
        raise NotCoveredRefusal(f"{name} {which} {verb}")
    return fam


def explicit_extension(name: str, n: int | None,
                       resolution: float) -> MapSample:
    """Explicit extension over Y for the instances that extend.

    n = None asks for the limit map's extension.  Raises InvalidArgument
    for a member outside the family's bound and NotCoveredRefusal for the
    instances that do not extend.
    """
    fam = _covered_family(name, n, resolution, extending=True)
    y_net = fam.pair.space.net
    if name == "comb":
        return _comb_extension(fam, n)
    if name in ("pathcomp", "sine-eclosed"):
        return _pathcomp_extension(fam, n)
    if name == "sine-eopen":
        return MapSample(y_net, fam.codomain, y_net.points, Modulus.lip(1.0),
                         name="sine-identity")
    if name in ("ndagger-eopen", "hawaii"):       # constant limits
        return constant_map(y_net, fam.codomain, fam.limit.values[0],
                            name=f"{name}-limit-ext")
    return _block_constant_extension(fam, n)


def _comb_extension(fam: MapFamily, n: int) -> MapSample:
    """Constant at the limit tooth tip on [0, 1/(n+1)], then tooth-to-tooth
    traversals: down tooth k+1, across the base, up tooth k."""
    pair = fam.pair
    y = pair.space.net.points[:, 0]
    vals = np.zeros((len(y), 2))
    const = y <= 1.0 / (n + 1)
    vals[const] = (0.0, 1.0)
    for k in range(1, n + 1):
        a, b = 1.0 / (k + 1), 1.0 / k
        # the map's value at the segment's left end: tooth k+1's tip for
        # k < n, the limit tooth's tip (0, 1) for k = n
        x_down = a if k < n else 0.0
        x_up = b
        sel = (y > a) & (y <= b)
        w = x_up - x_down
        length = 2.0 + w
        s = (y[sel] - a) / (b - a) * length
        xx = np.empty(len(s))
        yy = np.empty(len(s))
        down = s <= 1.0
        across = (s > 1.0) & (s <= 1.0 + w)
        up = s > 1.0 + w
        xx[down], yy[down] = x_down, 1.0 - s[down]
        xx[across], yy[across] = x_down + (s[across] - 1.0), 0.0
        xx[up], yy[up] = x_up, s[up] - 1.0 - w
        vals[sel, 0] = xx
        vals[sel, 1] = yy
    vals[pair.z_indices] = fam.member(n).values   # bit-exact on Z
    return MapSample(pair.space.net, fam.codomain, vals,
                     measured_modulus(pair.space.net, vals),
                     name=f"comb-ext-{n}")


def _polyline_positions(points: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Points along a polyline at given arc-length fractions in [0, 1]."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1] if arc[-1] > 0 else 1.0
    target = fractions * total
    pos = np.clip(np.searchsorted(arc, target, side="right") - 1, 0,
                  len(seg) - 1)
    t = (target - arc[pos]) / np.maximum(seg[pos], 1e-300)
    return points[pos] + (points[pos + 1] - points[pos]) * t[:, None]


def _pathcomp_extension(fam: MapFamily, n: int) -> MapSample:
    """Walks the shipped curve polyline between consecutive zeros."""
    pair, sine = fam.pair, fam.codomain
    zero = sine.meta["zero_index"]
    y = pair.space.net.points[:, 0]
    vals = np.zeros((len(y), 2))
    x_n = 1.0 / n
    const = y <= x_n
    vals[const] = (x_n, 0.0)
    for k in range(1, n):
        a, b = 1.0 / (k + 1), 1.0 / k
        sel = (y > a) & (y <= b)
        if not np.any(sel):
            continue
        # curve indices run from x = 1/k down to 1/(k+1)
        poly = sine.net.points[zero[k]:zero[k + 1] + 1]
        frac = (y[sel] - a) / (b - a)
        vals[sel] = _polyline_positions(poly[::-1], frac)
    vals[pair.z_indices] = fam.member(n).values
    return MapSample(pair.space.net, sine, vals,
                     measured_modulus(pair.space.net, vals),
                     name=f"{fam.name}-ext-{n}")


def _block_constant_extension(fam: MapFamily, j: int | None) -> MapSample:
    """Per-block constant extension for the shrinking-union family."""
    pair = fam.pair
    phi = fam.limit if j is None else fam.member(j)
    vals = np.zeros((len(pair.space.net), 1))
    for block in pair.space.meta["blocks"]:
        zpos = pair.z_position(block["start"])
        vals[block["start"]:block["start"] + block["size"]] = phi.values[zpos]
    vals[0] = phi.values[0]   # the point at infinity
    return MapSample(pair.space.net, fam.codomain, vals,
                     measured_modulus(pair.space.net, vals),
                     name=f"ndagger-eclosed-ext-{'limit' if j is None else j}")
