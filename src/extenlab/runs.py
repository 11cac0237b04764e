"""End-to-end reproductions producing convergence tables and verdicts.

Each run builds its pair and family, constructs positive certificates on
the extendible side and obstruction certificates on the non-extendible
side, re-checks everything through the certificate checker, and fails
loudly (ok=False with a note, never a silent pass) when any expected
identity or verdict does not hold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dyadic
from .certificates import (VERIFIED, PositiveCertificate, Verdict,
                           certificate_for, check_certificate, disjointify)
from .errors import EpsilonTooLarge, ExtenlabError, InvalidArgument, \
    UnknownName
from .families import example_family, explicit_extension
from .maps import (Homotopy, MapSample, constant_map, cone_contraction,
                   dugundji_extend_partial, equiconnect_homotopy,
                   glue_homotopy_extension, homotopy_between, restrict,
                   small_diameter_extend)
from .metric import (_ANGLE_SLACK, _EXACT_SLACK, Modulus, _largest_distance,
                     _square_limit, euclidean_rows, measured_modulus,
                     measured_modulus_multi, sup_distance)
from .spaces import SpacePair, make_pair, make_space, product_with, \
    subspace, urysohn


@dataclass
class Report:
    """Outcome of one named reproduction at one resolution."""

    name: str
    epsilon: float
    n_max: int
    rows: list = field(default_factory=list)
    conclusion: str = ""
    notes: list = field(default_factory=list)
    first_success: int | None = None
    ok: bool = True
    timing_seconds: float = 0.0
    family: str | None = None         # the catalog family tabulated, if any

    def add_row(self, label, sup, kind, verdict, margin):
        self.rows.append({"label": str(label),
                          "sup": None if sup is None else float(sup),
                          "kind": kind, "verdict": verdict.status,
                          "margin": float(margin)})
        if not verdict.ok:
            self.ok = False
            bad = [c for c in verdict.checks if not c["ok"]]
            self.notes.append(f"row {label}: {verdict.status} "
                              f"({'; '.join(c['check'] for c in bad)})")

    def fail(self, note: str):
        self.ok = False
        self.notes.append(note)

    def expect(self, condition: bool, note: str) -> bool:
        if not condition:
            self.fail(note)
        return condition

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {"example": self.name,
               "epsilon": dyadic.format_epsilon(self.epsilon),
               "n_max": self.n_max, "rows": self.rows,
               "first_success": self.first_success,
               "conclusion": self.conclusion, "notes": self.notes,
               "ok": self.ok}
        if include_timing:
            out["timing_seconds"] = self.timing_seconds
        return out

    def to_text(self) -> str:
        lines = [f"example: {self.name}   epsilon: "
                 f"{dyadic.format_epsilon(self.epsilon)}   n_max: {self.n_max}",
                 f"{'label':>8}  {'sup_distance':>22}  {'certificate':>22}  "
                 f"{'verdict':>10}  {'margin':>12}"]
        for r in self.rows:
            sup = "-" if r["sup"] is None else repr(r["sup"])
            lines.append(f"{r['label']:>8}  {sup:>22}  {r['kind']:>22}  "
                         f"{r['verdict']:>10}  {r['margin']:>12.6g}")
        if self.first_success is not None:
            lines.append(f"first successful n: {self.first_success}")
        lines.append(f"conclusion: {self.conclusion}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["label,sup_distance"]
        for r in self.rows:
            sup = "" if r["sup"] is None else repr(r["sup"])
            lines.append(f"{r['label']},{sup}")
        return "\n".join(lines) + "\n"


def _family_run(report: Report, family: str, closed_form, conclusion: str):
    """Shared driver for the counterexample families.

    Tabulates each member against closed_form(n), its expected
    sup_distance to the limit, then the limit itself; every row is
    re-checked with the certificate the catalog gives it.
    """
    eps = report.epsilon
    fam = example_family(family, eps)
    if report.n_max > fam.n_bound:
        raise InvalidArgument(
            f"n_max {report.n_max} beyond the truncation bound {fam.n_bound} "
            f"at {dyadic.format_epsilon(eps)}")
    report.family = family

    def add_row(n, phi, sup):
        cert = certificate_for(family, n, eps)
        verdict = check_certificate(fam.pair, phi, cert)
        report.add_row("limit" if n is None else n, sup, cert.kind, verdict,
                       _row_margin(verdict))

    prev = math.inf
    for n in range(1, report.n_max + 1):
        member = fam.member(n)
        sup = sup_distance(member, fam.limit)
        expected = closed_form(n)
        report.expect(sup == expected,
                      f"n={n}: sup {sup!r} != closed form {expected!r}")
        report.expect(sup < prev, f"n={n}: sup column not strictly decreasing")
        prev = sup
        add_row(n, member, sup)
    add_row(None, fam.limit, 0.0)
    report.conclusion = conclusion
    return fam


def _row_margin(verdict) -> float:
    for key in ("separation_margin", "image_separation", "value_isolation",
                "winding", "restriction_gap"):
        if key in verdict.margins:
            return verdict.margins[key]
    return 0.0


def _run_ndagger_eclosed(report: Report):
    fam = _family_run(report, "ndagger-eclosed", lambda j: 1.0 / (j + 1),
                      "extendible members converge to a limit whose "
                      "extension is assembled from disjoint clopen blocks")
    # the limit's extension assembled from clopen blocks, disjointified
    space = fam.pair.space
    v_sets = [frozenset(range(b["start"], b["start"] + b["size"]))
              for b in space.meta["blocks"]]
    u_sets = disjointify(space, v_sets)
    report.expect(u_sets == v_sets,
                  "block witnesses were already disjoint but changed")
    vals = np.zeros((len(space.net), 1))
    for k, u in enumerate(u_sets, start=1):
        vals[sorted(u)] = 1.0 / k
    direct = explicit_extension("ndagger-eclosed", None, report.epsilon)
    report.expect(bool(np.array_equal(vals, direct.values)),
                  "block-assembled extension differs from the direct one")


def _run_anr_eopen(report: Report):
    eps = report.epsilon
    circle = make_space("circle", eps)
    pair = make_pair("interval-ends", eps)
    y_space = pair.space
    quarter = len(circle.net) // 4
    base_pts = circle.net.points[[0, quarter]]
    prod = product_with(y_space, "ndagger")
    factor_vals = np.asarray(prod.meta["factor_values"])
    if report.n_max > (bound := int(np.count_nonzero(factor_vals))):
        raise InvalidArgument(f"n_max {report.n_max} beyond the truncation "
                              f"bound {bound} at {dyadic.format_epsilon(eps)}")

    def gamma(m):
        return 3 * math.pi / (4 * m)

    def member_values(m):
        ang = np.array([gamma(m), math.pi / 2 - gamma(m)])
        return np.column_stack([np.cos(ang), np.sin(ang)])

    limit = MapSample(pair.z_net, circle, base_pts, Modulus.lip(2.0),
                      name="anr-eopen-limit")
    y = y_space.net.points[:, 0]
    limit_ext_vals = np.column_stack([np.cos(math.pi / 2 * y),
                                      np.sin(math.pi / 2 * y)])
    limit_ext = MapSample(y_space.net, circle, limit_ext_vals,
                          Modulus.lip(math.pi / 2), name="anr-eopen-limit-ext")
    verdict = check_certificate(
        pair, restrict(limit_ext, pair),
        PositiveCertificate(limit_ext, tolerance=2 * eps))
    report.expect(verdict.ok, "limit extension failed its own certificate")

    n_base = len(y_space.net)
    z_cols = pair.z_indices
    tilde_z = [np.arange(n_base)]         # the 0 slice carries all of Y
    psi_vals = [limit_ext_vals]
    for i, f in enumerate(factor_vals):
        if f == 0.0:
            continue
        m = round(1.0 / f)
        tilde_z.append(i * n_base + z_cols)
        psi_vals.append(member_values(m))
    tilde_z = np.concatenate(tilde_z)
    psi_values = np.vstack(psi_vals)
    tilde_pair = SpacePair.build("eopen-cylinder", prod, tilde_z)
    psi = MapSample(tilde_pair.z_net, circle, psi_values,
                    measured_modulus(tilde_pair.z_net, psi_values),
                    name="eopen-psi")
    values, ok_mask = dugundji_extend_partial(tilde_pair, psi, "radial")

    first = None
    prev = math.inf
    for n in range(1, report.n_max + 1):
        i_n = int(np.nonzero(factor_vals == 1.0 / n)[0][0])
        rows = i_n * n_base + np.arange(n_base)
        member = MapSample(pair.z_net, circle, member_values(n),
                           Modulus.lip(2.0), name=f"anr-eopen-{n}")
        sup = sup_distance(member, limit)
        report.expect(sup < prev, f"n={n}: sup not strictly decreasing")
        prev = sup
        if not bool(ok_mask[rows].all()):
            if first is not None:
                report.fail(f"slice {n} failed after first success {first}")
            continue
        slice_vals = values[rows]
        ext = MapSample(y_space.net, circle, slice_vals,
                        measured_modulus(y_space.net, slice_vals),
                        name=f"anr-eopen-ext-{n}")
        verdict = check_certificate(pair, member,
                                    PositiveCertificate(ext, tolerance=0.0))
        if first is None:
            first = n
        drift = float(euclidean_rows(slice_vals, limit_ext_vals).max())
        report.add_row(n, sup, "positive", verdict, _row_margin(verdict))
        report.notes.append(f"n={n}: sup |ext_n - ext_limit| = {drift!r}")
    report.first_success = first
    report.expect(first is not None, "no slice extension ever succeeded")
    report.conclusion = ("the cylinder over the convergent family extends "
                         "slice-wise from the first reported n onward")


def _run_eop_homotopy(report: Report):
    eps = report.epsilon
    circle = make_space("circle", eps)
    net = circle.net
    ang = np.arctan2(net.points[:, 1], net.points[:, 0])
    k_cap = 64

    def angle_shift(k):
        if k == 1:
            return 0.75 * math.pi
        return ((-1) ** (k + 1)) * math.pi / (2 * k)

    def member(k):
        b = angle_shift(k)
        vals = np.column_stack([np.cos(ang + b), np.sin(ang + b)])
        return MapSample(net, circle, vals, Modulus.lip(2.0),
                         name=f"eop-{k}")

    limit = MapSample(net, circle, net.points, Modulus.lip(1.0), name="eop-limit")
    members = {k: member(k) for k in range(1, k_cap + 1)}

    def chain_ok(n):
        # the geodesic chain breaks only at an exactly antipodal pair
        return not any(
            abs(abs(angle_shift(k) - angle_shift(k + 1)) - math.pi)
            < _ANGLE_SLACK for k in range(n, k_cap))

    first = None
    for n in range(1, report.n_max + 1):
        if chain_ok(n):
            first = n
            break
    report.first_success = first
    if not report.expect(first is not None, "no homotopy threshold found"):
        return
    times = [0.0] + [1.0 / k for k in range(k_cap, first - 1, -1)]
    frames = [limit.values] + [members[k].values
                               for k in range(k_cap, first - 1, -1)]
    psi = Homotopy(net, circle, np.asarray(times), np.stack(frames),
                   measured_modulus_multi(net, frames[:2] + frames[-2:]))
    prev = math.inf
    for k in range(first, report.n_max + 1):
        sup = sup_distance(members[k], limit)
        report.expect(sup < prev, f"k={k}: sup not strictly decreasing")
        prev = sup
        verdict = Verdict(VERIFIED, eps)
        verdict.add("slice-identity", np.array_equal(
            psi.slice(1.0 / k).values, members[k].values),
            f"slice at 1/{k} equals member {k} exactly")
        gap = abs(angle_shift(k) - angle_shift(min(k + 1, k_cap)))
        report.add_row(k, sup, "slice-identity", verdict,
                       2.0 - 2 * math.sin(min(gap, math.pi) / 2))
    exact0 = bool(np.array_equal(psi.slice(0.0).values, limit.values))
    report.expect(exact0, "slice at 0 is not the limit map")
    report.conclusion = ("one homotopy path passes through every member "
                         "beyond the reported threshold and ends at the limit")


def _run_anr_eclosed(report: Report):
    eps = report.epsilon
    pair = make_pair("interval-N", eps)
    y_space = pair.space
    circle = make_space("circle", eps)
    y = y_space.net.points[:, 0]

    def global_ext(beta):
        a = math.pi / 2 * y + beta
        return MapSample(y_space.net, circle,
                         np.column_stack([np.cos(a), np.sin(a)]),
                         Modulus.lip(math.pi / 2), name=f"ext-{beta:.3f}")

    phibar_limit = global_ext(0.0)
    phi = restrict(phibar_limit, pair)
    rho = 4 * eps
    d_z = np.min(y_space.net.dist_idx(np.arange(len(y)), pair.z_indices),
                 axis=1)
    v_idx = np.nonzero(d_z < rho)[0]
    vbar_idx = np.nonzero(d_z <= rho)[0]
    f = urysohn(y_space, pair.z_indices, v_idx)
    sub = y_space.net.subnet(vbar_idx)
    prev = math.inf
    for n in range(1, report.n_max + 1):
        beta = math.pi / (n + 2)
        phibar_n = global_ext(beta)
        phi_n = restrict(phibar_n, pair)
        sup = sup_distance(phi_n, phi)
        report.expect(sup < prev, f"n={n}: sup not strictly decreasing")
        prev = sup
        a_on = MapSample(sub, circle, phibar_n.values[vbar_idx],
                         phibar_n.modulus, name="psi0")
        b_on = MapSample(sub, circle, phibar_limit.values[vbar_idx],
                         phibar_limit.modulus, name="psi1")
        psi = homotopy_between(a_on, b_on, "geodesic-circle")
        glued = glue_homotopy_extension(pair, vbar_idx, phibar_n, psi, f)
        cert = PositiveCertificate(glued, tolerance=0.0,
                                   modulus_slack=4 * eps)
        verdict = check_certificate(pair, phi, cert)
        report.add_row(n, sup, "glued-extension", verdict,
                       _row_margin(verdict))
    report.conclusion = ("each nearby extendible member yields, by homotopy "
                         "gluing along a separating function, an extension "
                         "of the limit that is exact on the subspace")


def _run_loc_ext(report: Report):
    eps = report.epsilon
    pair = make_pair("opc-intervals", eps)
    circle = make_space("circle", eps)
    p = circle.net.points[0]
    blocks = pair.space.meta["blocks"]
    n_demo = 2
    full_vals = np.tile(p, (len(pair.space.net), 1))
    prev = math.inf
    for b in blocks:
        k = b["n"]
        a_k = 2.0 ** (-k - 1)
        angles = np.array([-a_k, a_k])
        f_vals = np.column_stack([np.cos(angles), np.sin(angles)])
        idx = np.arange(b["start"], b["start"] + b["size"])
        bspace = subspace(pair.space, idx, f"block-{k}")
        bpair = SpacePair.build(f"block-{k}-ends", bspace,
                                [0, b["size"] - 1])
        span = float(bpair.z_net.points.max() - bpair.z_net.points.min())
        fmap = MapSample(bpair.z_net, circle, f_vals,
                         Modulus.lip(2.0 * a_k / span), name=f"phi-{k}")
        try:
            ext = small_diameter_extend(bpair, fmap, 2.0 ** (-k + 1))
        except ExtenlabError as exc:
            report.fail(f"block {k}: {exc}")
            continue
        diam = ext.value_diameter()
        report.expect(diam < prev, f"block {k}: diameters not decreasing")
        prev = diam
        verdict = Verdict(VERIFIED, eps)
        verdict.add("image-diameter", diam <= 2.0 ** (-k + 1),
                    f"diam {diam:.4g} <= {2.0 ** (-k + 1):.4g}")
        report.add_row(k, diam, "small-diameter-extension", verdict,
                       2.0 ** (-k + 1) - diam)
        if k > n_demo:
            full_vals[idx] = ext.values
    # accumulation toward the point at infinity
    worst = 0.0
    for b in blocks:
        idx = np.arange(b["start"], b["start"] + b["size"])
        far = float(np.abs(pair.space.net.points[idx, 0]).max())
        worst = max(worst, far - 2.0 ** (-b["n"]))
    report.expect(worst <= _EXACT_SLACK,
                  "a block escapes its 2^-n ball around infinity")
    # the assembled extension of the n_demo family member: full_vals is p
    # at infinity, on blocks up to n_demo and on any block that failed
    fam_vals = full_vals[pair.z_indices]
    member = MapSample(pair.z_net, circle, fam_vals,
                       measured_modulus(pair.z_net, fam_vals),
                       name=f"loc-ext-{n_demo}")
    assembled = MapSample(pair.space.net, circle, full_vals,
                          measured_modulus(pair.space.net, full_vals),
                          name="loc-ext-assembled")
    verdict = check_certificate(pair, member,
                                PositiveCertificate(assembled, tolerance=0.0))
    report.add_row(f"family n={n_demo}", None, "positive", verdict,
                   _row_margin(verdict))
    limit = constant_map(pair.z_net, circle, p, name="loc-ext-limit")
    lverdict = check_certificate(
        pair, limit,
        PositiveCertificate(constant_map(pair.space.net, circle, p),
                            tolerance=0.0))
    report.add_row("limit", None, "positive", lverdict,
                   _row_margin(lverdict))
    report.conclusion = ("small-diameter maps on shrinking blocks extend "
                         "with shrinking image diameters, assembling to an "
                         "extension over the compactified union")


def _run_cone_contraction(report: Report):
    eps = report.epsilon
    circle = make_space("circle", eps)
    p_idx = 0
    p = circle.net.points[p_idx]
    prev = math.inf
    for j in range(1, report.n_max + 1):
        target = 2.0 ** (-j)
        delta = min(target / 2, 1.0)
        radius = delta / 4
        d_to_p = euclidean_rows(circle.net.points, p)
        idx = np.nonzero(d_to_p <= radius)[0]
        if len(idx) < 3:
            report.notes.append(f"j={j}: ball too small at this resolution")
            break
        ball = subspace(circle, idx, f"ball-{j}")
        p_local = int(np.nonzero(idx == p_idx)[0][0])
        try:
            h = cone_contraction(ball, p_local, target)
        except ExtenlabError as exc:
            report.fail(f"j={j}: {exc}")
            continue
        spread = float(euclidean_rows(h.values.reshape(-1, 2), p).max())
        verdict = Verdict(VERIFIED, eps)
        verdict.add("starts-at-identity",
                    np.array_equal(h.slice(0.0).values, ball.net.points), "")
        verdict.add("ends-at-p", np.all(h.slice(1.0).values == p), "")
        verdict.add("fixes-p-throughout",
                    np.all(h.values[:, p_local, :] == p), "")
        verdict.add("stays-in-target-ball", spread < target,
                    f"max distance to p {spread:.4g} < {target:.4g}")
        report.expect(spread < prev, f"j={j}: contraction radii not decreasing")
        prev = spread
        report.add_row(j, spread, "cone-contraction", verdict,
                       target - spread)
    report.conclusion = ("balls around the basepoint contract to it inside "
                         "shrinking neighborhoods, fixing the basepoint at "
                         "every stage")


def _all_slice_pairs(values: np.ndarray) -> float:
    """max over a of float(euclidean_rows(values[a], values[a + 1:]).max()),
    bit for bit (see metric._largest_distance)."""
    return max(_largest_distance(values[a], values[a + 1:])
               for a in range(len(values) - 1))


def _largest_slice_distance(values: np.ndarray) -> float:
    """_all_slice_pairs(values) bit for bit, a (T, n, d) stack, with only
    the rows that may hold the maximum sent through it.

    best, the largest distance of slices 0 and T - 1, is the distance of
    a slice pair, so it is one of the values the maximum is taken over.
    A row whose box over all slices has widths w (hi - lo) with squares
    summing to s <= _square_limit(best) has every slice pair's computed
    distance below best: the exact difference of two of its slices is at
    most the box's in each coordinate, and rounding is monotone, so each
    |fl(p_k - q_k)| <= fl(w_k), and the _square_limit argument carries
    over (as in metric._box_squares).  The other rows, an s of inf among
    them, go through the loop; the maximum is that of best and theirs.
    With every value finite, every distance is a number, so the maximum
    does not depend on the order it is taken in.  Python's max over NaN
    does, so a NaN or infinite value sends the whole stack through the
    loop."""
    if not np.isfinite(values).all():
        return _all_slice_pairs(values)
    best = _largest_distance(values[0], values[-1])
    with np.errstate(over="ignore"):
        w = values.max(axis=0) - values.min(axis=0)
        s = np.einsum("ik,ik->i", w, w)
    rows = s > _square_limit(np.array([best]))
    if not rows.any():
        return best
    return max(best, _all_slice_pairs(values[:, rows]))


def _run_equiconnected(report: Report):
    eps = report.epsilon
    circle = make_space("circle", eps)
    net = circle.net
    ang = np.arctan2(net.points[:, 1], net.points[:, 0])
    phi0 = MapSample(net, circle, net.points, Modulus.lip(1.0), name="identity")
    prev = math.inf
    for j in range(1, report.n_max + 1):
        delta = 2.0 ** (-j)
        amp = delta / 2
        bump = np.where((ang >= 0) & (ang <= math.pi),
                        amp * np.sin(np.maximum(ang, 0.0)), 0.0)
        shifted = ang + bump
        vals = np.where((bump == 0.0)[:, None], net.points,
                        np.column_stack([np.cos(shifted), np.sin(shifted)]))
        phi1 = MapSample(net, circle, vals, Modulus.lip(2.0),
                         name=f"bumped-{j}")
        sup = sup_distance(phi0, phi1)
        report.expect(sup < prev, f"j={j}: sup not strictly decreasing")
        prev = sup
        try:
            h = equiconnect_homotopy(phi0, phi1, delta)
        except EpsilonTooLarge as exc:
            report.fail(f"j={j}: {exc}")
            continue
        coincidence = np.nonzero(np.all(phi0.values == phi1.values,
                                        axis=1))[0]
        fixed = bool(np.all(h.values[:, coincidence, :]
                            == phi0.values[coincidence]))
        pairwise = _largest_slice_distance(h.values)
        ends = bool(np.array_equal(h.values[0], phi0.values)
                    and np.array_equal(h.values[-1], phi1.values))
        verdict = Verdict(VERIFIED, eps)
        verdict.add("coincidence-fixed", fixed and len(coincidence) > 0,
                    f"{len(coincidence)} coincidence points pinned")
        verdict.add("endpoints-exact", ends, "")
        verdict.add("slices-pairwise-close", pairwise < delta,
                    f"max pairwise slice distance {pairwise:.4g} < {delta:.4g}")
        report.add_row(j, sup, "equiconnected-homotopy", verdict,
                       delta - pairwise)
    report.conclusion = ("delta-close maps admit homotopies that pin their "
                         "coincidence set and keep all stages epsilon-close")


_EXAMPLES = {
    "pathcomp": dict(
        family="pathcomp", closed_form=lambda n: 1.0 / n,
        eps=2.0 ** -8, n_max=15,
        claim="a non-closed path component makes a uniform limit of "
              "extendible maps non-extendible",
        conclusion="a non-closed path component: members extend, the limit "
                   "lands in a different component"),
    "sine-not-eclosed": dict(
        family="sine-eclosed", closed_form=lambda n: 1.0 / n,
        eps=2.0 ** -8, n_max=15,
        claim="the topologist's sine curve is not e-closed",
        conclusion="maps into the curve component extend along it; the "
                   "limit reaches the segment and is blocked by the "
                   "oscillation peaks"),
    "sine-not-eopen": dict(
        family="sine-eopen", closed_form=lambda n: 1.0 / (n + 1),
        eps=2.0 ** -8, n_max=15,
        claim="the topologist's sine curve is not e-open",
        conclusion="no member extends (image splits across path components); "
                   "the inclusion limit extends via the identity"),
    "comb": dict(
        family="comb", closed_form=lambda n: 1.0 / (n + 1),
        eps=2.0 ** -8, n_max=20,
        claim="the infinite comb is path-connected but not e-closed",
        conclusion="every member extends over the interval; the limit is "
                   "blocked by a mandatory crossing of the base"),
    "ndagger-not-eopen": dict(
        family="ndagger-eopen", closed_form=lambda n: 1.0 / (n + 1),
        eps=2.0 ** -8, n_max=20,
        claim="the compactified naturals are not e-open",
        conclusion="no member has the clopen intersection property over the "
                   "interval; the constant limit extends"),
    "ndagger-eclosed": dict(runner=_run_ndagger_eclosed, eps=2.0 ** -6,
                            n_max=7,
                            claim="the compactified naturals are e-closed "
                                  "via the clopen intersection property"),
    "hawaii": dict(
        family="hawaii", closed_form=lambda n: 2.0 / (n + 1),
        eps=2.0 ** -8, n_max=10,
        claim="the Hawaiian earring is path-connected and locally "
              "path-connected but not e-open",
        conclusion="members wind once around a collapsed circle, so none "
                   "extends over the disk; the constant limit does"),
    "anr-eopen": dict(runner=_run_anr_eopen, eps=2.0 ** -6, n_max=6,
                      claim="near an extendible limit into a compact ANR, "
                            "members become extendible"),
    "eop-homotopy": dict(runner=_run_eop_homotopy, eps=2.0 ** -6, n_max=8,
                         claim="a uniformly convergent family into the "
                               "circle is eventually joined by one homotopy "
                               "path"),
    "anr-eclosed": dict(runner=_run_anr_eclosed, eps=2.0 ** -6, n_max=6,
                        claim="a uniform limit of extendible maps into the "
                              "circle extends by homotopy gluing"),
    "loc-ext": dict(runner=_run_loc_ext, eps=2.0 ** -6, n_max=8,
                    claim="small-diameter maps extend with small-diameter "
                          "images over a compactified shrinking union"),
    "cone-contraction": dict(runner=_run_cone_contraction, eps=2.0 ** -7,
                             n_max=4,
                             claim="small balls contract to a point rel the "
                                   "point inside prescribed neighborhoods"),
    "equiconnected": dict(runner=_run_equiconnected, eps=2.0 ** -6, n_max=6,
                          claim="close circle-valued maps are homotopic rel "
                                "their coincidence set"),
}


def list_examples() -> list[dict]:
    """Static catalog of the shipped reproductions."""
    return [{"name": name,
             "claim": entry["claim"],
             "default_epsilon": dyadic.format_epsilon(entry["eps"]),
             "default_n_max": entry["n_max"]}
            for name, entry in sorted(_EXAMPLES.items())]


def run_example(name: str, epsilon: float | None = None,
                n_max: int | None = None) -> Report:
    """Run one named reproduction and assemble its report."""
    if name not in _EXAMPLES:
        raise UnknownName(f"unknown example {name!r}")
    entry = _EXAMPLES[name]
    eps = entry["eps"] if epsilon is None else epsilon
    if not dyadic.is_dyadic(eps):
        raise InvalidArgument(f"epsilon {eps!r} is not dyadic")
    count = entry["n_max"] if n_max is None else n_max
    if count < 1:
        raise InvalidArgument("n_max must be at least 1")
    report = Report(name=name, epsilon=eps, n_max=count)
    started = time.perf_counter()
    if "runner" in entry:
        entry["runner"](report)
    else:
        _family_run(report, entry["family"], entry["closed_form"],
                    entry["conclusion"])
    report.timing_seconds = time.perf_counter() - started
    return report
