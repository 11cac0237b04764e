"""Machine-checkable evidence for extendibility and its verification.

A certificate either exhibits an extension (Positive) or one of four
obstruction mechanisms: distinct path components in the codomain, a
missing clopen extension, a mandatory crossing region, or a nonzero
winding number against a nullhomotopy witness.  Verdicts are
finite-resolution statements; each records the resolution and the
margins that refinement should only improve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtenlabError, InvalidArgument, LoopTooCoarse, \
    NotCoveredRefusal, UnknownName
from .families import explicit_extension
from .maps import MapSample, collapse_retraction, winding_number
from .metric import euclidean_rows, reachable
from .spaces import AnnotatedSpace, SpacePair, make_pair, make_space

VERIFIED = "verified"
REFUTED = "refuted"
INVALID = "invalid-certificate"
INCONSISTENT = "inconsistent-input"


@dataclass(frozen=True)
class PositiveCertificate:
    kind = "positive"
    extension: MapSample
    tolerance: float
    modulus_slack: float | None = None


@dataclass(frozen=True)
class PathComponentObstruction:
    kind = "path-component"
    z1: int
    z2: int
    witness_path: np.ndarray          # Y net indices
    x_labels: tuple

    def __post_init__(self):
        w = np.asarray(self.witness_path, dtype=int)
        w.setflags(write=False)
        object.__setattr__(self, "witness_path", w)


@dataclass(frozen=True)
class ClopenObstruction:
    kind = "clopen"
    value_label: int                  # the natural number the value encodes
    value_ambient: float              # its coordinate, 1/value_label
    trace: tuple                      # Z positions of the preimage


@dataclass(frozen=True)
class MandatoryCrossingObstruction:
    kind = "mandatory-crossing"
    brackets: tuple                   # ((a_j, b_j), ...) as Z positions
    region: dict                      # {"axis": int, "op": str, "value": float}
    z0: int
    separation: float


@dataclass(frozen=True)
class WindingObstruction:
    kind = "winding"
    loop: np.ndarray                  # Z positions, cyclic order
    witness_rings: np.ndarray         # (rings, loop length, 2) in Y
    retraction: str                   # "collapse-k"
    expected_winding: int

    def __post_init__(self):
        lp = np.asarray(self.loop, dtype=int)
        lp.setflags(write=False)
        object.__setattr__(self, "loop", lp)
        w = np.asarray(self.witness_rings, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "witness_rings", w)


Certificate = (PositiveCertificate | PathComponentObstruction |
               ClopenObstruction | MandatoryCrossingObstruction |
               WindingObstruction)


@dataclass
class Verdict:
    status: str
    epsilon: float
    checks: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def add(self, name: str, passed: bool, info: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(passed), "info": info})
        return passed

    def as_dict(self) -> dict:
        return {"status": self.status, "epsilon": self.epsilon,
                "trace": self.checks, "margins": self.margins}


def region_mask(points: np.ndarray, region: dict) -> np.ndarray:
    axis, op, value = region["axis"], region["op"], region["value"]
    coord = points[:, axis]
    if op == "le":
        return coord <= value
    if op == "ge":
        return coord >= value
    if op == "abs_ge":
        return np.abs(coord) >= value
    if op == "abs_le":
        return np.abs(coord) <= value
    raise InvalidArgument(f"unknown region op {op!r}")


def check_certificate(pair: SpacePair, phi: MapSample,
                      cert: Certificate) -> Verdict:
    """Re-check a certificate from scratch against the pair and map."""
    eps = pair.resolution
    v = Verdict(VERIFIED, eps)
    if not (phi.domain is pair.z_net
            or np.array_equal(phi.domain.points, pair.z_net.points)):
        v.status = INCONSISTENT
        v.add("map-on-Z", False, "map does not live on the pair's Z net")
        return v
    try:
        checker = _CHECKERS[cert.kind]
    except (KeyError, AttributeError):
        v.status = INVALID
        v.add("kind", False, "unknown certificate kind")
        return v
    try:
        checker(pair, phi, cert, v)
    except (IndexError, ValueError, TypeError, KeyError) as exc:
        v.status = INVALID
        v.add("well-formed", False, f"malformed certificate: {exc}")
    except ExtenlabError as exc:
        v.status = INVALID
        v.add("well-formed", False, str(exc))
    return v


def _fail(v: Verdict):
    if v.status == VERIFIED:
        v.status = REFUTED


def _check_positive(pair, phi, cert, v: Verdict):
    ext = cert.extension
    if not np.array_equal(ext.domain.points, pair.space.net.points):
        v.status = INCONSISTENT
        v.add("extension-on-Y", False, "extension does not live on Y")
        return
    if ext.codomain_name != phi.codomain_name:
        v.status = INCONSISTENT
        v.add("codomain", False, "extension and map codomains differ")
        return
    slack = cert.modulus_slack if cert.modulus_slack is not None \
        else 2 * ext.codomain.resolution
    problems = ext.validity_report(slack=slack)
    if not v.add("extension-valid", not problems, "; ".join(problems)):
        _fail(v)
    gap = float(euclidean_rows(ext.values[pair.z_indices], phi.values).max())
    if not v.add("restriction-agreement",
                 gap <= cert.tolerance + 1e-15,
                 f"sup over Z = {gap:.3g}, tolerance {cert.tolerance:g}"):
        _fail(v)
    v.margins["restriction_gap"] = cert.tolerance - gap


def _check_path_component(pair, phi, cert, v: Verdict):
    y = pair.space
    witness = cert.witness_path
    z_y = pair.z_indices
    ok_shape = (0 <= cert.z1 < len(z_y) and 0 <= cert.z2 < len(z_y)
                and len(witness) >= 1
                and witness.min() >= 0 and witness.max() < len(y.net))
    if not v.add("well-formed", ok_shape, "indices in range"):
        v.status = INVALID
        return
    if not v.add("witness-endpoints",
                 witness[0] == z_y[cert.z1] and witness[-1] == z_y[cert.z2],
                 "witness joins z1 to z2"):
        v.status = INVALID
        return
    if len(witness) > 1:
        steps = y.net.dist_pairs(witness[:-1], witness[1:])
        max_step = float(steps.max())
    else:
        max_step = 0.0
    if not v.add("witness-steps", max_step <= 2 * pair.resolution + 1e-12,
                 f"max step {max_step:.3g} vs 2 eps"):
        _fail(v)
    labels = y.labels[witness]
    if not v.add("witness-one-component", len(np.unique(labels)) == 1,
                 "witness stays in one Y component"):
        _fail(v)
    cod = phi.codomain
    imgs = phi.values[[cert.z1, cert.z2]]
    idx, dist = cod.net.nearest(imgs)
    if not v.add("images-on-net", float(dist.max()) <= cod.resolution + 1e-9,
                 "images resolve to codomain net points"):
        _fail(v)
        return
    names = tuple(cod.label_names[cod.labels[i]] for i in idx)
    if not v.add("labels-claimed", names == tuple(cert.x_labels),
                 f"labels {names}"):
        _fail(v)
    if not v.add("labels-distinct", names[0] != names[1],
                 "images in distinct path components"):
        _fail(v)
    v.margins["image_separation"] = float(euclidean_rows(imgs[:1], imgs[1:])[0])


def _check_clopen(pair, phi, cert, v: Verdict):
    vals = phi.values[:, 0]
    preimage = frozenset(int(i) for i in np.nonzero(vals == cert.value_ambient)[0])
    claimed = frozenset(int(i) for i in cert.trace)
    if not v.add("preimage-matches-trace", preimage == claimed,
                 f"preimage size {len(preimage)}, trace size {len(claimed)}"):
        _fail(v)
    if not v.add("trace-nonempty", len(claimed) > 0, ""):
        _fail(v)
    trace_y = frozenset(int(pair.z_indices[i]) for i in claimed)
    exists = pair.space.clopen.trace_extends(pair.z_indices, trace_y)
    if not v.add("no-clopen-extension", not exists,
                 "Y's clopen oracle finds no set with this trace"):
        _fail(v)
    others = np.unique(vals[vals != cert.value_ambient])
    if len(others):
        v.margins["value_isolation"] = float(
            np.abs(others - cert.value_ambient).min())


def _check_mandatory_crossing(pair, phi, cert, v: Verdict):
    eps = pair.resolution
    cod = phi.codomain
    mask = region_mask(cod.net.points, cert.region)
    if not v.add("region-nonempty", bool(mask.any()), ""):
        v.status = INVALID
        return
    z0_img = phi.values[cert.z0]
    sep = float(euclidean_rows(
        np.broadcast_to(z0_img, cod.net.points[mask].shape),
        cod.net.points[mask]).min())
    if not v.add("separation", sep >= cert.separation - 1e-12,
                 f"d(phi(z0), region) = {sep:.6g}"):
        _fail(v)
    if not v.add("separation-above-4eps", cert.separation > 4 * eps,
                 f"{cert.separation:.6g} > {4 * eps:.6g}"):
        _fail(v)

    adj = cod.net.adjacency(2 * eps)
    da_prev = db_prev = math.inf
    z0_pt = pair.z_net.points[cert.z0]
    prev_a = None
    for j, (a, b) in enumerate(cert.brackets):
        imgs = phi.values[[a, b]]
        idx, dist = cod.net.nearest(imgs)
        if not v.add(f"bracket{j}-images-on-net",
                     float(dist.max()) <= 1e-9,
                     "bracket images are codomain net points"):
            _fail(v)
            continue
        la, lb = cod.labels[idx[0]], cod.labels[idx[1]]
        if not v.add(f"bracket{j}-same-component", la == lb,
                     "both images in one codomain component"):
            _fail(v)
            continue
        allowed = (cod.labels == la) & ~mask
        crossing_forced = not reachable(adj, allowed, int(idx[0]), int(idx[1]))
        if not v.add(f"bracket{j}-crossing-forced", crossing_forced,
                     "no chain avoids the region"):
            _fail(v)
        da = float(euclidean_rows(pair.z_net.points[[a]], z0_pt[None, :])[0])
        db = float(euclidean_rows(pair.z_net.points[[b]], z0_pt[None, :])[0])
        monotone = da < da_prev - 1e-15 and db < db_prev - 1e-15
        nested = prev_a is None or db <= da_prev + 1e-12
        if not v.add(f"bracket{j}-approaches-z0", monotone and nested,
                     f"d(a,z0)={da:.4g}, d(b,z0)={db:.4g}"):
            _fail(v)
        da_prev, db_prev, prev_a = da, db, a
    if not v.add("brackets-present", len(cert.brackets) > 0, ""):
        _fail(v)
    v.margins["separation_margin"] = cert.separation - 4 * eps
    if math.isfinite(da_prev):
        v.margins["final_bracket_gap"] = da_prev


def _check_winding(pair, phi, cert, v: Verdict):
    eps = pair.resolution
    y = pair.space
    loop_y = pair.z_indices[cert.loop]
    rings = cert.witness_rings
    if rings.ndim != 3 or rings.shape[1] != len(cert.loop) or rings.shape[2] != 2:
        v.status = INVALID
        v.add("well-formed", False, "witness rings must be (r, loop, 2)")
        return
    ring0_gap = float(euclidean_rows(rings[0], y.net.points[loop_y]).max())
    if not v.add("witness-starts-at-loop", ring0_gap <= 1e-12,
                 "first ring equals the loop"):
        v.status = INVALID
        return
    last = rings[-1]
    if not v.add("witness-ends-constant",
                 float(euclidean_rows(last, np.broadcast_to(last[0], last.shape)).max()) <= 1e-12,
                 "last ring is a single point"):
        v.status = INVALID
        return
    flat = rings.reshape(-1, 2)
    inside = y.contains(flat)
    if not v.add("witness-inside-Y", bool(np.all(inside)),
                 f"{int(np.count_nonzero(~inside))} vertices escape Y"):
        _fail(v)
    lim = 2 * eps * (1 + 1e-9)
    chords = euclidean_rows(rings.reshape(-1, 2),
                            np.roll(rings, -1, axis=1).reshape(-1, 2)).max()
    radial = euclidean_rows(rings[:-1].reshape(-1, 2),
                            rings[1:].reshape(-1, 2)).max()
    diag = euclidean_rows(np.roll(rings, -1, axis=1)[:-1].reshape(-1, 2),
                          rings[1:].reshape(-1, 2)).max()
    worst = float(max(chords, radial, diag))
    if not v.add("witness-triangles-small", worst <= lim,
                 f"max witness edge {worst:.4g} vs 2 eps"):
        _fail(v)
    try:
        k = int(cert.retraction.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        v.status = INVALID
        v.add("retraction-name", False, "expected collapse-k")
        return
    retr = collapse_retraction(phi.codomain, k)
    loop_vals = retr.apply(phi.values[cert.loop])
    center = (1.0 / k, 0.0)
    try:
        w = winding_number(loop_vals, center)
    except LoopTooCoarse as exc:
        v.add("winding-defined", False, str(exc))
        _fail(v)
        return
    v.add("winding-defined", True, "")
    if not v.add("winding-matches",
                 w == cert.expected_winding and w != 0,
                 f"winding {w}, expected {cert.expected_winding}"):
        _fail(v)
    v.margins["winding"] = float(abs(w))


_CHECKERS = {
    "positive": _check_positive,
    "path-component": _check_path_component,
    "clopen": _check_clopen,
    "mandatory-crossing": _check_mandatory_crossing,
    "winding": _check_winding,
}


# ---------------------------------------------------------------------------
# building the shipped obstructions


def _comb_bracket_count(eps: float) -> int:
    from .spaces import index_cutoff
    j = 0
    while (1.0 / ((j + 1) * (j + 2))) > 2 * eps * (1 + 1e-9) \
            and (j + 2) <= index_cutoff(eps):
        j += 1
    return j


def _sine_bracket_count(eps: float, k_osc: int) -> int:
    # a bracket is blocked when the gap left at the oscillation's peak
    # after deleting |y| >= 1 - 2 eps exceeds the chain scale
    u = math.acos(1 - 2 * eps)
    count = 0
    for j in range(1, k_osc):
        theta = (j + 0.5) * math.pi
        gap = 2 * math.pi * u / (theta * theta - u * u)
        spacing = 1.0 / (j * (j + 1))
        if gap > 2 * eps * (1 + 1e-9) and spacing > 2 * eps * (1 + 1e-9):
            count += 1
        else:
            break
    return count


def _member_positions(pair: SpacePair) -> dict:
    return {int(m): i for i, m in enumerate(pair.meta["z_members"])}


def build_negative_certificate(name: str, n: int | None,
                               resolution: float) -> Certificate:
    """Obstruction certificate for an instance known non-extendible."""
    eps = resolution
    if name == "comb":
        if n is not None:
            raise NotCoveredRefusal("every finite comb member extends")
        pair = make_pair("interval-N", eps)
        pos = _member_positions(pair)
        count = _comb_bracket_count(eps)
        brackets = tuple((pos[j + 1], pos[j]) for j in range(1, count + 1))
        return MandatoryCrossingObstruction(
            brackets=brackets,
            region={"axis": 1, "op": "le", "value": 2 * eps},
            z0=pos[0], separation=1.0 - 2 * eps)
    if name in ("sine-eclosed", "pathcomp"):
        if n is not None:
            raise NotCoveredRefusal("finite members stay in one path component")
        pair = make_pair("interval-N", eps)
        pos = _member_positions(pair)
        if name == "sine-eclosed":
            sine = make_space("sine", eps)
            count = _sine_bracket_count(eps, sine.meta["osc_cutoff"])
            brackets = tuple((pos[j + 1], pos[j]) for j in range(1, count + 1))
            return MandatoryCrossingObstruction(
                brackets=brackets,
                region={"axis": 1, "op": "abs_ge", "value": 1.0 - 2 * eps},
                z0=pos[0], separation=1.0 - 2 * eps)
        y_lo = pair.z_indices[pos[0]]
        y_hi = pair.z_indices[pos[1]]
        witness = np.arange(y_hi, y_lo - 1, -1)
        return PathComponentObstruction(
            z1=pos[1], z2=pos[0], witness_path=witness,
            x_labels=("curve", "segment"))
    if name == "sine-eopen":
        if n is None:
            raise NotCoveredRefusal("the sine inclusion extends via the identity")
        pair = make_pair("sine-zeros", eps)
        sine = pair.space
        if n + 1 > sine.meta["osc_cutoff"] + 1:
            raise InvalidArgument(f"oscillation {n} not represented")
        pos = _member_positions(pair)
        zero = sine.meta["zero_index"]
        witness = np.arange(zero[n], zero[n + 1] + 1)
        return PathComponentObstruction(
            z1=pos[n], z2=pos[n + 1], witness_path=witness,
            x_labels=("curve", "segment"))
    if name == "ndagger-eopen":
        if n is None:
            raise NotCoveredRefusal("the constant limit extends")
        pair = make_pair("interval-N", eps)
        pos = _member_positions(pair)
        return ClopenObstruction(value_label=n + 1,
                                 value_ambient=1.0 / (n + 1),
                                 trace=(pos[1],))
    if name == "hawaii":
        if n is None:
            raise NotCoveredRefusal("the constant limit extends")
        pair = make_pair("disk-earring", eps)
        ear = pair.meta["z_space"]
        if n + 1 not in ear.meta["circles"]:
            raise InvalidArgument(f"circle {n + 1} not represented")
        loop = ear.meta["circles"][n + 1]
        k = n + 1
        center = np.array([1.0 / k, 0.0])
        loop_pts = ear.net.points[loop]
        radius = 1.0 / k
        steps = max(1, int(math.ceil(4 * radius / eps)))
        scales = 1.0 - np.arange(steps + 1) / steps
        rings = center[None, None, :] + scales[:, None, None] \
            * (loop_pts[None, :, :] - center[None, None, :])
        rings[-1] = center
        return WindingObstruction(loop=loop, witness_rings=rings,
                                  retraction=f"collapse-{k}",
                                  expected_winding=1)
    if name == "ndagger-eclosed":
        raise NotCoveredRefusal("every member and the limit extend here")
    raise UnknownName(f"unknown example family {name!r}")


def certificate_for(name: str, n: int | None,
                    resolution: float) -> Certificate:
    """The catalog's certificate for member n of a family (None: the
    limit): its obstruction where it does not extend, else its explicit
    extension.  The two builders refuse exactly each other's instances."""
    try:
        return build_negative_certificate(name, n, resolution)
    except NotCoveredRefusal:
        return PositiveCertificate(explicit_extension(name, n, resolution),
                                   tolerance=0.0)


def disjointify(space: AnnotatedSpace, sets) -> list[frozenset]:
    """Turn accepted clopen sets into disjoint ones with the same union."""
    cleaned = []
    for s in sets:
        fs = frozenset(int(i) for i in s)
        if not space.clopen.extends(fs):
            raise InvalidArgument("disjointify inputs must be accepted clopens")
        cleaned.append(fs)
    out, used = [], frozenset()
    for fs in cleaned:
        out.append(fs - used)
        used |= fs
    return out
