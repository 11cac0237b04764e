"""Machine-checkable evidence for extendibility and its verification.

A certificate either exhibits an extension (Positive) or one of four
obstruction mechanisms: distinct path components in the codomain, a
missing clopen extension, a mandatory crossing region, or a nonzero
winding number against a nullhomotopy witness.  Verdicts are
finite-resolution statements; each records the resolution and the
margins that refinement should only improve.

A certificate's file form holds its kind, the resolution and each
dataclass field under its own name (see serialization.certificate_to_json);
the field annotations below are what the reader checks each value against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtenlabError, InvalidArgument, LoopTooCoarse
from .families import _covered_family, explicit_extension, extends
from .maps import MapSample, collapse_retraction, winding_number
from .metric import (_frozen, _same_net, euclidean_rows, pair_blocks,
                     reachable)
from .spaces import AnnotatedSpace, SpacePair, index_cutoff, osc_cutoff

VERIFIED = "verified"
REFUTED = "refuted"
INVALID = "invalid-certificate"
INCONSISTENT = "inconsistent-input"

# Positions in the pair's nets, which the file reader checks are in range.
ZPosition = int                   # one position in Z
ZPositions = tuple                # positions in Z, 1-d
ZPositionPairs = tuple            # ((a, b), ...) positions in Z
YPositions = np.ndarray           # positions in Y, 1-d
Region = dict                     # {"axis": int, "op": str, "value": float}
NonNegative = float               # a finite number >= 0


@dataclass
class Verdict:
    """Outcome of a check.  A failed check sets the status it names:
    REFUTED replaces only VERIFIED; INVALID and INCONSISTENT always apply."""

    status: str
    epsilon: float
    checks: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def add(self, name: str, passed: bool, info: str = "",
            fails: str = REFUTED) -> bool:
        self.checks.append({"check": name, "ok": bool(passed), "info": info})
        if not passed and (fails != REFUTED or self.status == VERIFIED):
            self.status = fails
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


class Certificate:
    """Evidence about a pair and a map; check(pair, phi, v) re-checks it."""

    kind = None


@dataclass(frozen=True)
class PositiveCertificate(Certificate):
    kind = "positive"
    extension: MapSample
    tolerance: NonNegative
    modulus_slack: float | None = None

    def check(self, pair, phi, v: Verdict):
        ext = self.extension
        if not _same_net(ext.domain, pair.space.net):
            v.add("extension-on-Y", False, "extension does not live on Y",
                  fails=INCONSISTENT)
            return
        if ext.codomain_name != phi.codomain_name:
            v.add("codomain", False, "extension and map codomains differ",
                  fails=INCONSISTENT)
            return
        slack = self.modulus_slack if self.modulus_slack is not None \
            else 2 * ext.codomain.resolution
        problems = ext.validity_report(slack=slack)
        v.add("extension-valid", not problems, "; ".join(problems))
        gap = float(euclidean_rows(ext.values[pair.z_indices],
                                   phi.values).max())
        v.add("restriction-agreement", gap <= self.tolerance + 1e-15,
              f"sup over Z = {gap:.3g}, tolerance {self.tolerance:g}")
        v.margins["restriction_gap"] = self.tolerance - gap


@dataclass(frozen=True)
class PathComponentObstruction(Certificate):
    kind = "path-component"
    z1: ZPosition
    z2: ZPosition
    witness_path: YPositions
    x_labels: tuple[str, str]

    def __post_init__(self):
        object.__setattr__(self, "witness_path",
                           _frozen(self.witness_path, int))
        object.__setattr__(self, "x_labels", tuple(self.x_labels))

    def check(self, pair, phi, v: Verdict):
        y = pair.space
        witness = self.witness_path
        z_y = pair.z_indices
        ok_shape = (0 <= self.z1 < len(z_y) and 0 <= self.z2 < len(z_y)
                    and witness.ndim == 1 and len(witness) >= 1
                    and witness.min() >= 0 and witness.max() < len(y.net))
        if not v.add("well-formed", ok_shape, "indices in range",
                     fails=INVALID):
            return
        if not v.add("witness-endpoints", witness[0] == z_y[self.z1]
                     and witness[-1] == z_y[self.z2],
                     "witness joins z1 to z2", fails=INVALID):
            return
        max_step = float(y.net.dist_pairs(witness[:-1], witness[1:])
                         .max(initial=0.0))
        v.add("witness-steps", max_step <= 2 * pair.resolution + 1e-12,
              f"max step {max_step:.3g} vs 2 eps")
        v.add("witness-one-component", len(np.unique(y.labels[witness])) == 1,
              "witness stays in one Y component")
        cod = phi.codomain
        imgs = phi.values[[self.z1, self.z2]]
        idx, dist = cod.net.nearest(imgs)
        if not v.add("images-on-net",
                     float(dist.max()) <= cod.resolution + 1e-9,
                     "images resolve to codomain net points"):
            return
        names = tuple(cod.label_names[cod.labels[i]] for i in idx)
        v.add("labels-claimed", names == self.x_labels, f"labels {names}")
        v.add("labels-distinct", names[0] != names[1],
              "images in distinct path components")
        v.margins["image_separation"] = float(
            euclidean_rows(imgs[:1], imgs[1:])[0])


@dataclass(frozen=True)
class ClopenObstruction(Certificate):
    kind = "clopen"
    value_label: int                  # the natural number the value encodes
    value_ambient: float              # its coordinate, 1/value_label
    trace: ZPositions                 # of the preimage, sorted

    def __post_init__(self):
        object.__setattr__(self, "trace",
                           tuple(sorted(int(i) for i in self.trace)))

    def check(self, pair, phi, v: Verdict):
        cod = phi.codomain
        if cod.net.dimension == 1:
            idx, dist = cod.net.nearest([self.value_ambient])
            isolated = dist[0] == 0 and cod.clopen.extends(
                frozenset({int(idx[0])}))
        else:
            isolated = False
        if not isolated:
            v.add("value-isolated", False, "the value is no codomain net "
                  "point that is clopen on its own", fails=INVALID)
            return
        vals = phi.values[:, 0]
        preimage = frozenset(
            int(i) for i in np.nonzero(vals == self.value_ambient)[0])
        claimed = frozenset(self.trace)
        v.add("preimage-matches-trace", preimage == claimed,
              f"preimage size {len(preimage)}, trace size {len(claimed)}")
        v.add("trace-nonempty", len(claimed) > 0, "")
        trace_y = frozenset(int(pair.z_indices[i]) for i in claimed)
        exists = pair.space.clopen.trace_extends(pair.z_indices, trace_y)
        v.add("no-clopen-extension", not exists,
              "Y's clopen oracle finds no set with this trace")
        others = np.unique(vals[vals != self.value_ambient])
        if len(others):
            v.margins["value_isolation"] = float(
                np.abs(others - self.value_ambient).min())


@dataclass(frozen=True)
class MandatoryCrossingObstruction(Certificate):
    kind = "mandatory-crossing"
    brackets: ZPositionPairs
    region: Region
    z0: ZPosition
    separation: float

    def __post_init__(self):
        object.__setattr__(self, "brackets", tuple(
            (int(a), int(b)) for a, b in self.brackets))

    def check(self, pair, phi, v: Verdict):
        eps = pair.resolution
        cod = phi.codomain
        mask = region_mask(cod.net.points, self.region)
        if not v.add("region-nonempty", bool(mask.any()), "",
                     fails=INVALID):
            return
        sep = float(euclidean_rows(phi.values[self.z0],
                                   cod.net.points[mask]).min())
        v.add("separation", sep >= self.separation - 1e-12,
              f"d(phi(z0), region) = {sep:.6g}")
        v.add("separation-above-4eps", self.separation > 4 * eps,
              f"{self.separation:.6g} > {4 * eps:.6g}")

        adj = cod.net.adjacency(2 * eps)
        da_prev = db_prev = math.inf
        z0_pt = pair.z_net.points[self.z0]
        prev_a = None
        for j, (a, b) in enumerate(self.brackets):
            idx, dist = cod.net.nearest(phi.values[[a, b]])
            if not v.add(f"bracket{j}-images-on-net",
                         float(dist.max()) <= 1e-9,
                         "bracket images are codomain net points"):
                continue
            la, lb = cod.labels[idx[0]], cod.labels[idx[1]]
            if not v.add(f"bracket{j}-same-component", la == lb,
                         "both images in one codomain component"):
                continue
            allowed = (cod.labels == la) & ~mask
            v.add(f"bracket{j}-crossing-forced",
                  not reachable(adj, allowed, int(idx[0]), int(idx[1])),
                  "no chain avoids the region")
            da, db = map(float, euclidean_rows(pair.z_net.points[[a, b]],
                                               z0_pt))
            monotone = da < da_prev - 1e-15 and db < db_prev - 1e-15
            nested = prev_a is None or db <= da_prev + 1e-12
            v.add(f"bracket{j}-approaches-z0", monotone and nested,
                  f"d(a,z0)={da:.4g}, d(b,z0)={db:.4g}")
            da_prev, db_prev, prev_a = da, db, a
        v.add("brackets-present", len(self.brackets) > 0, "")
        v.margins["separation_margin"] = self.separation - 4 * eps
        if math.isfinite(da_prev):
            v.margins["final_bracket_gap"] = da_prev


@dataclass(frozen=True)
class WindingObstruction(Certificate):
    kind = "winding"
    loop: ZPositions                  # in cyclic order
    witness_rings: np.ndarray         # (rings, loop length, 2) in Y
    retraction: str                   # "collapse-k", k >= 1
    expected_winding: int

    def __post_init__(self):
        object.__setattr__(self, "loop", _frozen(self.loop, int))
        object.__setattr__(self, "witness_rings",
                           _frozen(self.witness_rings))
        k = re.fullmatch(r"collapse-([1-9][0-9]*)", self.retraction)
        if k is None:
            raise InvalidArgument("winding certificate field 'retraction' "
                                  "must be collapse-k, k >= 1")
        object.__setattr__(self, "_k", int(k[1]))   # not a field

    def check(self, pair, phi, v: Verdict):
        eps = pair.resolution
        y = pair.space
        loop_y = pair.z_indices[self.loop]
        rings = self.witness_rings
        if rings.ndim != 3 or rings.shape[1:] != (len(self.loop), 2):
            v.add("well-formed", False, "witness rings must be (r, loop, 2)",
                  fails=INVALID)
            return
        if len(rings) < 2 or len(self.loop) == 0:
            v.add("well-formed", False, "a witness needs two rings and a "
                  "nonempty loop", fails=INVALID)
            return
        ring0_gap = float(euclidean_rows(rings[0], y.net.points[loop_y]).max())
        if not v.add("witness-starts-at-loop", ring0_gap <= 1e-12,
                     "first ring equals the loop", fails=INVALID):
            return
        spread = float(euclidean_rows(rings[-1], rings[-1][0]).max())
        if not v.add("witness-ends-constant", spread <= 1e-12,
                     "last ring is a single point", fails=INVALID):
            return
        escaped, worst = _witness_escapes_and_longest_edge(y, rings)
        v.add("witness-inside-Y", escaped == 0,
              f"{escaped} vertices escape Y")
        v.add("witness-triangles-small", worst <= 2 * eps * (1 + 1e-9),
              f"max witness edge {worst:.4g} vs 2 eps")
        retr = collapse_retraction(phi.codomain, self._k)
        loop_vals = retr.apply(phi.values[self.loop])
        try:
            w = winding_number(loop_vals, (1.0 / self._k, 0.0))
        except LoopTooCoarse as exc:
            v.add("winding-defined", False, str(exc))
            return
        v.add("winding-defined", True, "")
        v.add("winding-matches", w == self.expected_winding and w != 0,
              f"winding {w}, expected {self.expected_winding}")
        v.margins["winding"] = float(abs(w))


def _witness_escapes_and_longest_edge(y: AnnotatedSpace,
                                      rings: np.ndarray) -> tuple[int, float]:
    """How many vertices of the (r, L, 2) witness rings lie outside y, and
    its longest edge: the chord from each vertex to the next one of its
    ring (cyclically), the radial edge to the same vertex of the next
    ring, and the diagonal from the next vertex to it.

    A block is as many whole rings as pair_blocks fits in _BLOCK_BYTES of
    coordinates, so the temporaries are a few blocks whatever r is; its
    radial and diagonal edges reach into the next block's first ring.
    The longest edge is the max of the same np.hypot values as over the
    whole array.
    """
    escaped, worst = 0, 0.0
    for rows, _ in pair_blocks(len(rings), rings[0].size):
        block = rings[rows]
        escaped += int(np.count_nonzero(~y.contains(block.reshape(-1, 2))))
        turned = np.roll(block, -1, axis=1)
        after = rings[rows.start + 1:rows.stop + 1]
        for p, q in ((block, turned), (block[:len(after)], after),
                     (turned[:len(after)], after)):
            if p.size:
                worst = max(worst, float(euclidean_rows(
                    p.reshape(-1, 2), q.reshape(-1, 2)).max()))
    return escaped, worst


KINDS = {cls.kind: cls for cls in (
    PositiveCertificate, PathComponentObstruction, ClopenObstruction,
    MandatoryCrossingObstruction, WindingObstruction)}


def check_certificate(pair: SpacePair, phi: MapSample,
                      cert: Certificate) -> Verdict:
    """Re-check a certificate from scratch against the pair and map."""
    v = Verdict(VERIFIED, pair.resolution)
    if not _same_net(phi.domain, pair.z_net):
        v.add("map-on-Z", False, "map does not live on the pair's Z net",
              fails=INCONSISTENT)
        return v
    if not isinstance(cert, Certificate):
        v.add("kind", False, "unknown certificate kind", fails=INVALID)
        return v
    try:
        cert.check(pair, phi, v)
    except ExtenlabError as exc:
        v.add("well-formed", False, str(exc), fails=INVALID)
    return v


# ---------------------------------------------------------------------------
# building the shipped obstructions


def _comb_bracket_count(eps: float) -> int:
    j = 0
    while (1.0 / ((j + 1) * (j + 2))) > 2 * eps * (1 + 1e-9) \
            and (j + 2) <= index_cutoff(eps):
        j += 1
    return j


def _sine_bracket_count(eps: float) -> int:
    # a bracket is blocked when the gap left at the oscillation's peak
    # after deleting |y| >= 1 - 2 eps exceeds the chain scale
    u = math.acos(1 - 2 * eps)
    count = 0
    for j in range(1, osc_cutoff(eps)):
        theta = (j + 0.5) * math.pi
        gap = 2 * math.pi * u / (theta * theta - u * u)
        spacing = 1.0 / (j * (j + 1))
        if gap > 2 * eps * (1 + 1e-9) and spacing > 2 * eps * (1 + 1e-9):
            count += 1
        else:
            break
    return count


def build_negative_certificate(name: str, n: int | None,
                               resolution: float) -> Certificate:
    """Obstruction certificate for an instance that does not extend.

    Raises InvalidArgument for a member outside the family's bound and
    NotCoveredRefusal for the instances that extend.
    """
    eps = resolution
    fam = _covered_family(name, n, eps, extending=False)
    pair, cod = fam.pair, fam.codomain
    if name == "hawaii":
        k = n + 1
        loop = cod.meta["circles"][k]
        center = np.array([1.0 / k, 0.0])
        loop_pts = cod.net.points[loop]
        radius = 1.0 / k
        steps = max(1, int(math.ceil(4 * radius / eps)))
        scales = 1.0 - np.arange(steps + 1) / steps
        rings = scales[:, None, None] * (loop_pts - center)
        rings += center
        rings[-1] = center
        return WindingObstruction(loop=loop, witness_rings=rings,
                                  retraction=f"collapse-{k}",
                                  expected_winding=1)
    pos = {int(m): i for i, m in enumerate(pair.meta["z_members"])}
    if name == "pathcomp":
        witness = np.arange(pair.z_indices[pos[1]],
                            pair.z_indices[pos[0]] - 1, -1)
        return PathComponentObstruction(
            z1=pos[1], z2=pos[0], witness_path=witness,
            x_labels=("curve", "segment"))
    if name in ("comb", "sine-eclosed"):
        if name == "comb":
            count = _comb_bracket_count(eps)
            region = {"axis": 1, "op": "le", "value": 2 * eps}
        else:
            count = _sine_bracket_count(eps)
            region = {"axis": 1, "op": "abs_ge", "value": 1.0 - 2 * eps}
        return MandatoryCrossingObstruction(
            brackets=[(pos[j + 1], pos[j]) for j in range(1, count + 1)],
            region=region, z0=pos[0], separation=1.0 - 2 * eps)
    if name == "sine-eopen":
        zero = cod.meta["zero_index"]
        witness = np.arange(zero[n], zero[n + 1] + 1)
        return PathComponentObstruction(
            z1=pos[n], z2=pos[n + 1], witness_path=witness,
            x_labels=("curve", "segment"))
    return ClopenObstruction(value_label=n + 1,         # ndagger-eopen
                             value_ambient=1.0 / (n + 1),
                             trace=(pos[1],))


def certificate_for(name: str, n: int | None,
                    resolution: float) -> Certificate:
    """The catalog's certificate for member n of a family (None: the
    limit): its explicit extension where it extends, else its
    obstruction."""
    if extends(name, n):
        return PositiveCertificate(explicit_extension(name, n, resolution),
                                   tolerance=0.0)
    return build_negative_certificate(name, n, resolution)


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
