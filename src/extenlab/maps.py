"""Sampled continuous maps, extension operators, homotopies, winding numbers.

A MapSample is a map represented by its values on a domain net together
with a declared modulus of continuity; check_modulus re-verifies the
declaration independently, so the declaration is a falsifiable contract
rather than trusted metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import grid
from .errors import (DiameterTooLarge, DomainMismatch, EpsilonTooLarge,
                     ExtensionFailure, GluingMismatch, InvalidArgument,
                     LoopTooCoarse)
from .metric import (_ANGLE_SLACK, _EXACT_SLACK, _INTEGER_SLACK,
                     _ON_NET_SLACK, Modulus, Net, _euclidean, _frozen,
                     _same_net, _through_constructor, _unique, check_modulus,
                     euclidean_rows, measured_modulus, measured_modulus_multi,
                     pair_blocks, sup_distance)
from .spaces import AnnotatedSpace, Retraction, SpacePair, spiked_base_pair

# Rows per weighted-average product `w @ values` in
# dugundji_extend_partial.  BLAS rounds that product differently for
# different row counts, so this grouping fixes the output bits; it fixes
# nothing else (the weights are filled in pair_blocks blocks).
_AVERAGE_ROWS = 2048


@dataclass(frozen=True)
class MapSample:
    """Map values on a domain net into an annotated codomain.

    values are frozen and ownership passes (see metric._frozen): an array
    that owns its data is frozen in place, a view of a writeable array is
    copied.
    """

    domain: Net
    codomain: AnnotatedSpace
    values: np.ndarray
    modulus: Modulus
    name: str = ""

    def __post_init__(self):
        v = _frozen(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if len(v) != len(self.domain):
            raise InvalidArgument("one value per domain net point required")
        object.__setattr__(self, "values", v)

    __reduce__ = _through_constructor

    @property
    def codomain_name(self) -> str:
        return self.codomain.key

    def _distinct_values(self) -> np.ndarray:
        """np.unique(values, axis=0) (metric._unique)."""
        return _unique(self.values, rows=True)

    def value_diameter(self) -> float:
        """Largest Euclidean distance between two values (exact maximum)."""
        vals = self._distinct_values()
        best = 0.0
        for rows, cols in pair_blocks(len(vals), len(vals), upper=True):
            d = _euclidean(vals[rows][:, None, :], vals[cols][None, :, :])
            best = max(best, float(d.max()))
        return best

    def validity_report(self, slack: float | None = None) -> list[str]:
        """Empty list if valid: values near the codomain net, modulus holds."""
        problems = []
        eps = self.codomain.resolution
        # every value queried as it is: sorting out repeats (np.unique)
        # costs more than the queries it saves
        vals = self.values
        if np.all(vals == vals[0]):
            vals = vals[:1]
        worst = float(self.codomain.net.nearest(vals)[1].max())
        if worst > eps + _ON_NET_SLACK:
            problems.append(f"value {worst:.3g} away from the codomain net "
                            f"(allowed {eps:.3g})")
        use = 2 * eps if slack is None else slack
        if not check_modulus(self, use):
            problems.append(f"declared modulus violated beyond slack {use:.3g}")
        return problems


@dataclass(frozen=True)
class MapFamily:
    """Convergent family phi_n -> phi over a fixed pair."""

    name: str
    pair: SpacePair
    codomain: AnnotatedSpace
    limit: MapSample
    generator: object
    n_bound: int

    def member(self, n: int) -> MapSample:
        if not (1 <= n <= self.n_bound):
            raise InvalidArgument(
                f"{self.name}: n={n} outside the truncation bound "
                f"{self.n_bound} at this resolution")
        return self.generator(n)


@dataclass(frozen=True)
class Homotopy:
    """Family of slices over a time grid; a sampled map on [0,1] x base.

    times and values are frozen and ownership passes, as for MapSample.
    """

    base: Net
    codomain: AnnotatedSpace
    times: np.ndarray
    values: np.ndarray          # (n_times, n_base, dim)
    modulus: Modulus            # uniform in t

    def __post_init__(self):
        t = _frozen(self.times)
        v = _frozen(self.values)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if v.shape[0] != len(t) or v.shape[1] != len(self.base):
            raise InvalidArgument("homotopy values must be (times, base, dim)")

    __reduce__ = _through_constructor

    def slice(self, t: float) -> MapSample:
        i = int(np.abs(self.times - t).argmin())
        return MapSample(self.base, self.codomain, self.values[i],
                         self.modulus, name=f"slice@{self.times[i]:g}")


def restrict(f: MapSample, pair: SpacePair) -> MapSample:
    """Values copied on the Z indices, modulus inherited."""
    if not _same_net(f.domain, pair.space.net):
        raise DomainMismatch("restrict: map does not live on the pair's Y")
    return MapSample(pair.z_net, f.codomain, f.values[pair.z_indices],
                     f.modulus, name=f"{f.name}|Z")


def constant_map(domain: Net, codomain: AnnotatedSpace, value,
                 name="constant") -> MapSample:
    value = np.asarray(value, dtype=float)
    values = np.full((len(domain), value.size), value)
    return MapSample(domain, codomain, values, Modulus.lip(0.0), name=name)


# ---------------------------------------------------------------------------
# extension operators


def dugundji_extend_partial(pair: SpacePair, f: MapSample,
                            retraction: str):
    """Raw weighted-extension values plus a per-point success mask.

    Points whose weighted average escapes the retraction neighborhood are
    flagged False instead of raising; slice-wise consumers (the cylinder
    demos) decide which slices survive.

    The points off Z go in groups of _AVERAGE_ROWS rows, which fix only
    the bits of the product `w @ values`.  A group's weights are written
    into one reused _AVERAGE_ROWS x |Z| array a pair_blocks block at a
    time, so the distances and their differences never exist at group
    size; every weight is the same elementwise value either way.
    """
    if len(f.values) != len(pair.z_net):
        raise DomainMismatch("extension wants a map on the pair's Z")
    if retraction not in f.codomain.retractions:
        raise InvalidArgument(
            f"codomain {f.codomain.name} has no retraction {retraction!r}")
    retr = f.codomain.retractions[retraction]
    if not np.all(retr.contains(f.values)):
        raise InvalidArgument("map values must lie in the retraction domain")
    net = pair.space.net
    z = pair.z_indices
    n = len(net)
    dim = f.values.shape[1]
    out = np.empty((n, dim))
    ok = np.ones(n, dtype=bool)
    in_z = np.zeros(n, dtype=bool)
    in_z[z] = True
    rows = np.nonzero(~in_z)[0]
    weights = np.empty((min(len(rows), _AVERAGE_ROWS), len(z)))
    for lo in range(0, len(rows), _AVERAGE_ROWS):
        idx = rows[lo:lo + _AVERAGE_ROWS]
        w = weights[:len(idx)]
        for part, _ in pair_blocks(len(idx), len(z)):
            d = net.dist_idx(idx[part], z)
            np.subtract(2.0 * d.min(axis=1, keepdims=True), d, out=w[part])
            np.maximum(0.0, w[part], out=w[part])
        total = w.sum(axis=1)
        avg = (w @ f.values) / total[:, None]
        inside = retr.contains(avg)
        avg_r = np.where(inside[:, None], retr.apply(avg), avg)
        out[idx] = avg_r
        ok[idx] = inside
    out[z] = f.values
    return out, ok


def dugundji_extend(pair: SpacePair, f: MapSample,
                    retraction: str) -> MapSample:
    """Locally weighted extension through the codomain's retraction.

    Exact on Z; off Z each value is the inverse-distance-weighted average
    of f over the Z points within twice the distance to Z, pushed through
    the named retraction.  Raises ExtensionFailure when an average leaves
    the retraction's neighborhood (legitimate for non-convex codomains at
    coarse resolution).
    """
    values, ok = dugundji_extend_partial(pair, f, retraction)
    if not np.all(ok):
        bad = int(np.count_nonzero(~ok))
        raise ExtensionFailure(
            f"{bad} weighted averages left the retraction neighborhood")
    modulus = measured_modulus(pair.space.net, values)
    return MapSample(pair.space.net, f.codomain, values, modulus,
                     name=f"dugundji({f.name})")


_DELTA_TABLE = {"interval": lambda t: t / 2,
                "disk": lambda t: t / 2,
                "circle": lambda t: min(t / 2, 1.0)}

_DEFAULT_RETRACTION = {"interval": "clamp", "disk": "radial-clamp",
                       "circle": "radial"}


def small_diameter_extend(pair: SpacePair, f: MapSample,
                          eps_target: float) -> MapSample:
    """Extension with image diameter below eps_target.

    Requires diam f(Z) below the codomain's shipped delta bound; the
    extension is the weighted one localized around f(Z) by construction.
    """
    name = f.codomain.name
    if name not in _DELTA_TABLE:
        raise InvalidArgument(f"no small-extension delta table for {name!r}")
    delta = _DELTA_TABLE[name](eps_target)
    diam = f.value_diameter()
    if not diam < delta:
        raise DiameterTooLarge(
            f"diam f(Z) = {diam:.6g} not below delta = {delta:.6g}")
    out = dugundji_extend(pair, f, _DEFAULT_RETRACTION[name])
    out_diam = out.value_diameter()
    if not out_diam < eps_target:
        raise ExtensionFailure(
            f"output diameter {out_diam:.6g} reached eps target {eps_target:.6g}")
    return out


def glue_homotopy_extension(pair: SpacePair, vbar_indices, phibar: MapSample,
                            psi: Homotopy, f: MapSample) -> MapSample:
    """Piecewise extension: psi_{f(y)}(y) on closure(V), phibar elsewhere.

    psi lives on the sub-net closure(V), whose Y indices are vbar_indices;
    psi's time is evaluated at the nearest grid point to f(y).  The result
    agrees with psi's final slice on Z.
    """
    vbar = np.asarray(vbar_indices, dtype=int)
    if len(phibar.values) != len(pair.space.net) or len(f.values) != len(pair.space.net):
        raise DomainMismatch("glue: phibar and f must live on Y")
    start_gap = float(euclidean_rows(psi.values[0],
                                     phibar.values[vbar]).max())
    if start_gap > _ON_NET_SLACK:
        raise GluingMismatch(
            f"psi slice 0 differs from phibar by {start_gap:.3g} on closure(V)")
    out = np.array(phibar.values)
    t_idx = np.abs(f.values[vbar, 0][:, None] - psi.times[None, :]).argmin(axis=1)
    out[vbar] = psi.values[t_idx, np.arange(len(vbar))]
    modulus = measured_modulus(pair.space.net, out)
    return MapSample(pair.space.net, phibar.codomain, out, modulus,
                     name=f"glued({phibar.name})")


# ---------------------------------------------------------------------------
# homotopies


def homotopy_between(f: MapSample, g: MapSample, mode: str) -> Homotopy:
    """Straight-line or shorter-arc homotopy with exact endpoint slices."""
    if not _same_net(f.domain, g.domain):
        raise DomainMismatch("homotopy endpoints must share a domain")
    if f.codomain_name != g.codomain_name:
        raise DomainMismatch("homotopy endpoints must share a codomain")
    times = grid(2.0 ** -6)
    equal_rows = np.all(f.values == g.values, axis=1)

    if mode == "straight-line":
        if f.codomain.name not in ("interval", "disk", "point"):
            raise InvalidArgument("straight-line homotopy needs a convex codomain")
        t = times[:, None, None]
        values = (1 - t) * f.values
        values += t * g.values
    elif mode == "geodesic-circle":
        if f.codomain.name != "circle":
            raise InvalidArgument("geodesic mode is for the circle codomain")
        if not sup_distance(f, g) < 2.0 - _EXACT_SLACK:
            raise EpsilonTooLarge("antipodal values: no shorter arc")
        a0, a1 = (np.arctan2(v[:, 1], v[:, 0]) for v in (f.values, g.values))
        delta = np.mod(a1 - a0 + math.pi, 2 * math.pi) - math.pi
        if np.any(np.abs(np.abs(delta) - math.pi) < _ANGLE_SLACK):
            raise EpsilonTooLarge("antipodal values: no shorter arc")
        angles = a0 + times[:, None] * delta
        values = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        raise InvalidArgument(f"unknown homotopy mode {mode!r}")

    values[0] = f.values
    values[-1] = g.values
    values[:, equal_rows, :] = f.values[equal_rows]  # fixed rows stay put
    modulus = measured_modulus_multi(f.domain, values)
    return Homotopy(f.domain, f.codomain, times, values, modulus)


def equiconnect_homotopy(phi0: MapSample, phi1: MapSample,
                         delta: float) -> Homotopy:
    """Homotopy between delta-close maps fixing their coincidence set.

    All slices stay pairwise within the endpoint distance, so the
    delta-check doubles as the closeness guarantee.
    """
    if not sup_distance(phi0, phi1) < delta:
        raise EpsilonTooLarge("maps are not delta-close")
    mode = "geodesic-circle" if phi0.codomain.name == "circle" else "straight-line"
    return homotopy_between(phi0, phi1, mode)


def cone_contraction(v_space: AnnotatedSpace, p_index: int,
                     eps_target: float) -> Homotopy:
    """Contraction of a small ball V to p, fixing p, within eps_target.

    Built by the small-diameter extension over the spiked-base pair of
    the cone on V; the ambient ANR is V's parent space.
    """
    ambient = (v_space.recipe or {}).get("base")
    if ambient is None:
        raise InvalidArgument("cone_contraction needs a subspace of an ANR")
    pair = spiked_base_pair(v_space, p_index)
    n_v = len(v_space.net)
    levels = pair.space.meta["levels"]
    p_coords = v_space.net.points[p_index]
    z_values = np.vstack([
        v_space.net.points,                       # base: identity into ambient
        np.tile(p_coords, (len(pair.z_indices) - n_v, 1)),
    ])
    zmap = MapSample(pair.z_net, ambient, z_values, Modulus.lip(1.0),
                     name="spiked-base")
    ext = small_diameter_extend(pair, zmap, eps_target)
    frames = [ext.values[i * n_v:(i + 1) * n_v] for i in range(len(levels))]
    frames.append(np.tile(ext.values[-1], (n_v, 1)))   # apex level
    times = np.concatenate([levels, [1.0]])
    return Homotopy(v_space.net, ambient, times, np.stack(frames),
                    ext.modulus)


# ---------------------------------------------------------------------------
# winding numbers and the earring retractions


def winding_number(loop_points, center=(0.0, 0.0)) -> int:
    """Signed turns of a closed polygonal loop about a center.

    Sound only when every angular step is below pi; larger steps raise
    LoopTooCoarse instead of guessing an arc direction.
    """
    pts = np.asarray(loop_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise InvalidArgument("winding needs a planar loop of >= 2 points")
    c = np.asarray(center, dtype=float)
    ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
    step = np.diff(np.concatenate([ang, ang[:1]]))
    step = np.mod(step + math.pi, 2 * math.pi) - math.pi
    if np.any(np.abs(step) >= math.pi - _ANGLE_SLACK):
        raise LoopTooCoarse("angular step >= pi")
    total = float(step.sum()) / (2 * math.pi)
    rounded = round(total)
    if abs(total - rounded) > _INTEGER_SLACK:
        raise InvalidArgument(f"winding sum {total} is not an integer")
    return int(rounded)


def collapse_retraction(earring: AnnotatedSpace, k: int) -> Retraction:
    """Retraction of the earring onto its k'th circle.

    Fixes the k'th circle pointwise and sends every other circle to the
    common origin; idempotent on net points.
    """
    if earring.name != "hawaii":
        raise InvalidArgument("collapse retraction is for the earring")
    if k not in earring.meta["circles"]:
        raise InvalidArgument(f"circle {k} not represented at this resolution")

    def apply(p):
        x, y = p[:, 0], p[:, 1]
        rr = x * x + y * y
        with np.errstate(divide="ignore", invalid="ignore"):
            k_est = np.where(rr > 0, 2 * np.maximum(x, 0.0) / np.where(rr > 0, rr, 1.0), 0.0)
        keep = (np.abs(k_est - k) <= _INTEGER_SLACK * k) & (rr > 0)
        out = np.zeros_like(p)
        out[keep] = p[keep]
        return out

    return Retraction(f"collapse-{k}", earring.contains, apply)
