import tracemalloc

import numpy as np
import pytest

import extenlab as xl
from extenlab import certificates as certs_mod, metric as metric_mod
from extenlab.certificates import (ClopenObstruction,
                                   MandatoryCrossingObstruction,
                                   PathComponentObstruction,
                                   PositiveCertificate, WindingObstruction,
                                   build_negative_certificate,
                                   check_certificate, disjointify,
                                   region_mask)
from extenlab.errors import InvalidArgument
from extenlab.maps import MapSample, constant_map
from extenlab.metric import (Modulus, build_epsilon_graph, euclidean_rows,
                             reachable)
from extenlab.serialization import dumps

from conftest import bfs_reachable_dense

EPS6 = 2.0 ** -6
EPS8 = 2.0 ** -8


@pytest.fixture(scope="module")
def comb_family():
    return xl.example_family("comb", EPS8)


# ---------------------------------------------------------------------------
# positive certificates


def test_positive_verifies_comb_member(comb_family):
    ext = xl.explicit_extension("comb", 2, EPS8)
    v = check_certificate(comb_family.pair, comb_family.member(2),
                          PositiveCertificate(ext, tolerance=0.0))
    assert v.ok and v.status == "verified"


def test_positive_refuted_when_restriction_disagrees(comb_family):
    ext = xl.explicit_extension("comb", 2, EPS8)
    v = check_certificate(comb_family.pair, comb_family.member(3),
                          PositiveCertificate(ext, tolerance=0.0))
    assert v.status == "refuted"
    assert any(c["check"] == "restriction-agreement" and not c["ok"]
               for c in v.checks)


def test_positive_refuted_on_invalid_extension(comb_family):
    # values off the codomain net fail the validity sub-check
    pair = comb_family.pair
    bad_vals = np.full((len(pair.space.net), 2), 7.5)
    bad = MapSample(pair.space.net, comb_family.codomain, bad_vals,
                    Modulus.lip(0.0))
    v = check_certificate(pair, comb_family.member(1),
                          PositiveCertificate(bad, tolerance=10.0))
    assert v.status == "refuted"


def test_positive_inconsistent_when_extension_not_on_y(comb_family):
    other = xl.make_pair("interval-N", EPS6)
    ext6 = xl.explicit_extension("comb", 2, EPS6)
    v = check_certificate(comb_family.pair, comb_family.member(2),
                          PositiveCertificate(ext6, tolerance=0.0))
    assert v.status == "inconsistent-input"


def test_check_rejects_map_not_on_z(comb_family):
    iv = xl.make_space("interval", EPS8)
    stray = constant_map(iv.net, comb_family.codomain, [0.0, 1.0])
    ext = xl.explicit_extension("comb", 1, EPS8)
    v = check_certificate(comb_family.pair, stray,
                          PositiveCertificate(ext, tolerance=0.0))
    assert v.status == "inconsistent-input"


# ---------------------------------------------------------------------------
# mandatory crossing


def test_comb_limit_crossing_margins(comb_family):
    cert = build_negative_certificate("comb", None, EPS8)
    v = check_certificate(comb_family.pair, comb_family.limit, cert)
    assert v.ok
    assert v.margins["separation_margin"] == 1.0 - 6 * EPS8
    assert len(cert.brackets) == 10


def test_comb_crossing_refuted_for_extendible_member(comb_family):
    # the obstruction is a statement about the limit; members laugh it off
    cert = build_negative_certificate("comb", None, EPS8)
    v = check_certificate(comb_family.pair, comb_family.member(2), cert)
    assert v.status == "refuted"


def test_crossing_tampered_region_refuted(comb_family):
    cert = build_negative_certificate("comb", None, EPS8)
    wide = MandatoryCrossingObstruction(
        brackets=cert.brackets,
        region={"axis": 1, "op": "le", "value": 0.99},   # nearly everything
        z0=cert.z0, separation=cert.separation)
    v = check_certificate(comb_family.pair, comb_family.limit, wide)
    assert v.status == "refuted"


def test_crossing_tampered_separation_refuted(comb_family):
    cert = build_negative_certificate("comb", None, EPS8)
    greedy = MandatoryCrossingObstruction(
        brackets=cert.brackets, region=cert.region, z0=cert.z0,
        separation=1.5)
    v = check_certificate(comb_family.pair, comb_family.limit, greedy)
    assert v.status == "refuted"
    assert any(c["check"] == "separation" and not c["ok"] for c in v.checks)


def test_crossing_small_separation_fails_4eps_rule(comb_family):
    cert = build_negative_certificate("comb", None, EPS8)
    timid = MandatoryCrossingObstruction(
        brackets=cert.brackets, region=cert.region, z0=cert.z0,
        separation=3 * EPS8)
    v = check_certificate(comb_family.pair, comb_family.limit, timid)
    assert v.status == "refuted"


def test_sine_limit_crossing_two_brackets():
    fam = xl.example_family("sine-eclosed", EPS8)
    cert = build_negative_certificate("sine-eclosed", None, EPS8)
    assert len(cert.brackets) == 2     # the peak-gap rule at this resolution
    v = check_certificate(fam.pair, fam.limit, cert)
    assert v.ok
    assert v.margins["separation_margin"] == 1.0 - 6 * EPS8


def test_sine_crossing_fewer_brackets_at_coarser_resolution():
    cert6 = build_negative_certificate("sine-eclosed", None, EPS6)
    assert len(cert6.brackets) == 1
    fam = xl.example_family("sine-eclosed", EPS6)
    assert check_certificate(fam.pair, fam.limit, cert6).ok


def test_crossing_blocked_by_the_region_not_by_accident():
    # bracket images chain to each other until the region is deleted, and
    # the first bracket beyond the builder's cutoff genuinely sneaks
    eps = EPS8
    fam = xl.example_family("comb", eps)
    cert = build_negative_certificate("comb", None, eps)
    cod = fam.codomain
    adj = cod.net.adjacency(2 * eps)
    mask = region_mask(cod.net.points, cert.region)
    for a, b in cert.brackets:
        ia, _ = cod.net.nearest(fam.limit.values[[a]])
        ib, _ = cod.net.nearest(fam.limit.values[[b]])
        lab = cod.labels == cod.labels[ia[0]]
        assert reachable(adj, lab, int(ia[0]), int(ib[0]))
        assert not reachable(adj, lab & ~mask, int(ia[0]), int(ib[0]))
    j_next = len(cert.brackets) + 1
    pos = {int(m): i for i, m in enumerate(fam.pair.meta["z_members"])}
    ia, _ = cod.net.nearest(fam.limit.values[[pos[j_next + 1]]])
    ib, _ = cod.net.nearest(fam.limit.values[[pos[j_next]]])
    lab = cod.labels == cod.labels[ia[0]]
    assert reachable(adj, lab & ~mask, int(ia[0]), int(ib[0]))


def _per_bracket_check(self, pair, phi, v):
    """MandatoryCrossingObstruction.check with one reachable() call per
    bracket: the reference for the one union-find per label.  A bracket
    forces a crossing only if both its images lie outside the region."""
    import math
    eps = pair.resolution
    cod = phi.codomain
    mask = region_mask(cod.net.points, self.region)
    if not v.add("region-nonempty", bool(mask.any()), "",
                 fails=certs_mod.INVALID):
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
              bool(allowed[idx].all())
              and not reachable(adj, allowed, int(idx[0]), int(idx[1])),
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


@pytest.mark.parametrize("k", [6, 7, 8])
@pytest.mark.parametrize("name", ["comb", "sine-eclosed"])
def test_crossing_check_keeps_the_per_bracket_verdict_bytes(
        monkeypatch, name, k):
    # one union-find per label instead of one reachable() per bracket
    eps = 2.0 ** -k
    fam = xl.example_family(name, eps)
    cert = build_negative_certificate(name, None, eps)
    b = cert.brackets[0][1]
    image = fam.limit.values[[b]]
    edited = MandatoryCrossingObstruction(   # bracket images in the region,
        brackets=((b, b), *cert.brackets),   # both ends of the first
        region={"axis": 0, "op": "ge", "value": float(image[0, 0])},
        z0=cert.z0, separation=cert.separation)
    cases = [(fam.limit, cert), (fam.member(1), cert), (fam.limit, edited)]
    got = [dumps(check_certificate(fam.pair, phi, c).as_dict())
           for phi, c in cases]
    monkeypatch.setattr(MandatoryCrossingObstruction, "check",
                        _per_bracket_check)
    want = [dumps(check_certificate(fam.pair, phi, c).as_dict())
            for phi, c in cases]
    assert got == want
    limit, member, tampered = (check_certificate(fam.pair, phi, c)
                               for phi, c in cases)
    assert limit.ok and member.status == "refuted"
    # a bracket with an image in the region forces no crossing: both
    # brackets that end at that image fail their crossing entries
    assert region_mask(image, edited.region).all()
    trace = {c["check"]: c["ok"] for c in tampered.checks}
    assert not trace["bracket0-crossing-forced"]
    assert not trace["bracket1-crossing-forced"]
    assert tampered.status == "refuted"
    # and a chain that avoids the region still refutes a bracket
    assert not all(c["ok"] for c in member.checks
                   if c["check"].endswith("crossing-forced"))


def test_bracket_counts_grow_with_refinement():
    counts = [(len(build_negative_certificate("sine-eclosed", None, 2.0 ** -k).brackets),
               len(build_negative_certificate("comb", None, 2.0 ** -k).brackets))
              for k in (6, 7, 8, 9)]
    assert counts == [(1, 5), (2, 7), (2, 10), (3, 15)]


def test_crossing_checker_matches_dense_bfs(rng):
    # oracle equivalence on 25 random sub-nets of up to 200 points
    for trial in range(25):
        n = int(rng.integers(40, 201))
        pts = rng.random((n, 2))
        scale = float(rng.uniform(0.08, 0.25))
        cut = float(rng.uniform(0.2, 0.8))
        allowed = pts[:, 1] > cut
        src, dst = (int(x) for x in rng.integers(0, n, size=2))
        net = xl.Net(pts, 0.25)
        adj = build_epsilon_graph(net, scale).adjacency()
        fast = reachable(adj, allowed, src, dst)
        slow = bfs_reachable_dense(pts, scale, allowed, src, dst)
        assert fast == slow


# ---------------------------------------------------------------------------
# path components


def test_sine_eopen_member_obstructions():
    fam = xl.example_family("sine-eopen", EPS8)
    for n in (1, 5, 15):
        cert = build_negative_certificate("sine-eopen", n, EPS8)
        v = check_certificate(fam.pair, fam.member(n), cert)
        assert v.ok
        assert v.margins["image_separation"] == 1.0 / n


def test_pathcomp_limit_obstruction():
    fam = xl.example_family("pathcomp", EPS8)
    cert = build_negative_certificate("pathcomp", None, EPS8)
    v = check_certificate(fam.pair, fam.limit, cert)
    assert v.ok


def test_pathcomp_obstruction_refuted_against_member():
    # phi_n keeps both images in the curve, so the labels check fails
    fam = xl.example_family("pathcomp", EPS8)
    cert = build_negative_certificate("pathcomp", None, EPS8)
    v = check_certificate(fam.pair, fam.member(3), cert)
    assert v.status == "refuted"


def test_path_component_bad_witness_is_invalid():
    fam = xl.example_family("sine-eopen", EPS8)
    cert = build_negative_certificate("sine-eopen", 2, EPS8)
    broken = PathComponentObstruction(
        z1=cert.z1, z2=cert.z2,
        witness_path=cert.witness_path[:-3],   # no longer ends at z2
        x_labels=cert.x_labels)
    v = check_certificate(fam.pair, fam.member(2), broken)
    assert v.status == "invalid-certificate"


def test_path_component_torn_witness_refuted():
    fam = xl.example_family("sine-eopen", EPS8)
    cert = build_negative_certificate("sine-eopen", 2, EPS8)
    torn = np.concatenate([cert.witness_path[:2], cert.witness_path[-2:]])
    bad = PathComponentObstruction(z1=cert.z1, z2=cert.z2, witness_path=torn,
                                   x_labels=cert.x_labels)
    v = check_certificate(fam.pair, fam.member(2), bad)
    assert v.status == "refuted"
    assert any(c["check"] == "witness-steps" and not c["ok"]
               for c in v.checks)


def test_path_component_long_witness_checked_in_linear_memory():
    import math
    import tracemalloc
    fam = xl.example_family("sine-eopen", EPS8)
    phi = fam.member(2)
    cert = build_negative_certificate("sine-eopen", 2, EPS8)
    w = cert.witness_path
    # walk the witness back and forth: every step a step of the witness
    reps = math.ceil((4000 - len(w)) / (2 * (len(w) - 1)))
    long = PathComponentObstruction(
        z1=cert.z1, z2=cert.z2, witness_path=np.concatenate(
            [w] + [w[-2::-1], w[1:]] * reps), x_labels=cert.x_labels)
    assert len(long.witness_path) >= 4000
    short = check_certificate(fam.pair, phi, cert)
    tracemalloc.start()
    try:
        v = check_certificate(fam.pair, phi, long)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20    # a (k-1) x (k-1) step matrix takes 128 MB
    assert v.as_dict() == short.as_dict()


# ---------------------------------------------------------------------------
# clopen


def test_ndagger_clopen_obstruction_and_trace():
    fam = xl.example_family("ndagger-eopen", EPS8)
    cert = build_negative_certificate("ndagger-eopen", 3, EPS8)
    assert cert.value_label == 4
    v = check_certificate(fam.pair, fam.member(3), cert)
    assert v.ok


def test_clopen_wrong_trace_refuted():
    fam = xl.example_family("ndagger-eopen", EPS8)
    cert = build_negative_certificate("ndagger-eopen", 3, EPS8)
    wrong = ClopenObstruction(cert.value_label, cert.value_ambient,
                              trace=tuple(list(cert.trace) + [5]))
    v = check_certificate(fam.pair, fam.member(3), wrong)
    assert v.status == "refuted"


def test_clopen_trivial_trace_refuted_by_oracle():
    # the empty trace extends (to the empty clopen), so no obstruction;
    # 1/2 is an isolated point of the codomain that member 3 never takes
    fam = xl.example_family("ndagger-eopen", EPS8)
    ghost = ClopenObstruction(2, 1.0 / 2, trace=())
    v = check_certificate(fam.pair, fam.member(3), ghost)
    assert v.status == "refuted"


# ---------------------------------------------------------------------------
# winding


def test_hawaii_winding_certificates():
    fam = xl.example_family("hawaii", EPS8)
    for n in (1, 4, 10):
        cert = build_negative_certificate("hawaii", n, EPS8)
        v = check_certificate(fam.pair, fam.member(n), cert)
        assert v.ok
        assert v.margins["winding"] == 1.0


def test_winding_refuted_against_limit():
    # the constant limit collapses the loop: winding 0, certificate fails
    fam = xl.example_family("hawaii", EPS8)
    cert = build_negative_certificate("hawaii", 2, EPS8)
    v = check_certificate(fam.pair, fam.limit, cert)
    assert v.status == "refuted"


def test_winding_tampered_expectation_refuted():
    fam = xl.example_family("hawaii", EPS8)
    cert = build_negative_certificate("hawaii", 2, EPS8)
    wrong = WindingObstruction(cert.loop, cert.witness_rings,
                               cert.retraction, expected_winding=2)
    v = check_certificate(fam.pair, fam.member(2), wrong)
    assert v.status == "refuted"


def test_winding_witness_escaping_y_refuted():
    fam = xl.example_family("hawaii", EPS8)
    cert = build_negative_certificate("hawaii", 2, EPS8)
    rings = np.array(cert.witness_rings)
    rings[1:] += np.array([5.0, 0.0])    # push the interior outside the disk
    bad = WindingObstruction(cert.loop, rings, cert.retraction, 1)
    v = check_certificate(fam.pair, fam.member(2), bad)
    assert v.status in ("refuted", "invalid-certificate")


def test_winding_coarse_witness_refuted():
    fam = xl.example_family("hawaii", EPS8)
    cert = build_negative_certificate("hawaii", 2, EPS8)
    rings = np.array(cert.witness_rings)[::12]   # huge radial jumps
    rings[-1] = rings[-1][0]
    bad = WindingObstruction(cert.loop, rings, cert.retraction, 1)
    v = check_certificate(fam.pair, fam.member(2), bad)
    assert v.status in ("refuted", "invalid-certificate")


def _whole_array_rule(y, rings):
    """Escaped vertices and longest edge of a witness over the whole
    (r, L, 2) array at once: the reference for the blocked check."""
    inside = y.contains(rings.reshape(-1, 2))
    turned = np.roll(rings, -1, axis=1)    # chords, radial, diagonal
    worst = max(float(euclidean_rows(p.reshape(-1, 2),
                                     q.reshape(-1, 2)).max())
                for p, q in ((rings, turned), (rings[:-1], rings[1:]),
                             (turned[:-1], rings[1:])))
    return int(np.count_nonzero(~inside)), worst


def test_blocked_winding_check_matches_the_whole_array_rule(monkeypatch):
    fam = xl.example_family("hawaii", EPS6)
    phi = fam.member(2)
    cert = build_negative_certificate("hawaii", 2, EPS6)
    rings = np.array(cert.witness_rings)
    r = len(rings)
    # blocks of 7 rings: rings 7 and 14 start blocks, the last is partial
    monkeypatch.setattr(metric_mod, "_BLOCK_BYTES", 7 * 8 * rings[0].size)
    assert r % 7 not in (0, 1)
    straddling = rings.copy()
    straddling[7:] += (0.05, 0.0)       # the edges from ring 6 to ring 7
    escaping = rings.copy()
    escaping[r - 2, 0] = (5.0, 0.0)     # in the last, partial block
    wrapping = rings.copy()             # ring 10's vertex 0 to 11's last
    step = rings[11, -1] - rings[10, 0]
    wrapping[11, -1] += 0.1 * step / np.hypot(*step)
    y = fam.pair.space
    longest = {"straddling": _whole_array_rule(y, straddling[6:8])[1],
               "wrapping": float(np.hypot(*(wrapping[11, -1] - rings[10, 0])))}
    for name, witness in (("emitted", rings), ("straddling", straddling),
                          ("escaping", escaping), ("wrapping", wrapping)):
        got = certs_mod._witness_escapes_and_longest_edge(y, witness)
        want = _whole_array_rule(y, witness)
        assert got == want, name
        if name in longest:
            assert want[1] == longest[name]
        assert (want[0] > 0) == (name == "escaping")
        bad = WindingObstruction(cert.loop, witness, cert.retraction, 1)
        blocked = check_certificate(fam.pair, phi, bad)
        with monkeypatch.context() as m:
            m.setattr(certs_mod, "_witness_escapes_and_longest_edge",
                      _whole_array_rule)
            whole = check_certificate(fam.pair, phi, bad)
        assert blocked.status == whole.status
        assert dumps(blocked.as_dict()) == dumps(whole.as_dict())
        assert blocked.ok == (name == "emitted")


def _rolled_fold(y, rings):
    """The blocked check with each family's edges taken against an
    np.roll copy and folded with max() in turn, one family's plain
    maximum at a time: the reference for the one screen over all three
    families."""
    escaped, worst = 0, 0.0
    for rows, _ in metric_mod.pair_blocks(len(rings), rings[0].size):
        block = rings[rows]
        escaped += int(np.count_nonzero(~y.contains(block.reshape(-1, 2))))
        turned = np.roll(block, -1, axis=1)
        after = rings[rows.start + 1:rows.stop + 1]
        for p, q in ((block, turned), (block[:len(after)], after),
                     (turned[:len(after)], after)):
            if p.size:
                worst = max(worst, float(metric_mod._euclidean(p, q).max()))
    return escaped, worst


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_one_edge_screen_matches_the_family_fold(monkeypatch, rng):
    # NaN lengths drop a whole family from the fold, inf and huge values
    # overflow the squares, equal points square below the floor: each of
    # these must give the family-by-family answer, block by block
    y = xl.example_family("hawaii", EPS6).pair.space
    for loop in (1, 2, 9):
        rings = rng.random((23, loop, 2)) * 0.2
        cases = {"plain": rings, "constant": np.zeros_like(rings),
                 "huge": rings * 1e300}
        for name, special in (("nan", np.nan), ("inf", np.inf),
                              ("-inf", -np.inf)):
            for at in ((0, 0, 0), (5, loop - 1, 1), (22, 0, 1)):
                bad = rings.copy()
                bad[at] = special
                cases[f"{name}{at}"] = bad
        both = rings.copy()
        both[7, 0] = (np.inf, np.nan)            # np.hypot(inf, nan) is inf
        cases["inf-nan"] = both
        for rows_per_block in (None, 1, 4):
            if rows_per_block is not None:
                monkeypatch.setattr(metric_mod, "_BLOCK_BYTES",
                                    8 * rows_per_block * rings[0].size)
            for name, witness in cases.items():
                got = certs_mod._witness_escapes_and_longest_edge(y, witness)
                assert got == _rolled_fold(y, witness), (loop, name)
            monkeypatch.undo()


def test_winding_check_memory_does_not_grow_with_the_rings():
    fam = xl.example_family("hawaii", EPS8)
    phi = fam.member(1)
    cert = build_negative_certificate("hawaii", 1, EPS8)
    taller = WindingObstruction(cert.loop,
                                np.repeat(cert.witness_rings, 4, axis=0),
                                cert.retraction, 1)
    for witness in (cert, taller):
        tracemalloc.start()
        try:
            v = check_certificate(fam.pair, phi, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.ok
        # the whole-array rule takes 2.5 times the rings (11.6 MB here)
        assert peak <= 4 * metric_mod._BLOCK_BYTES


# ---------------------------------------------------------------------------
# region masks, disjointify, soundness


def test_region_mask_operators():
    pts = np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 1.0]])
    assert region_mask(pts, {"axis": 1, "op": "le", "value": 0.5}).tolist() \
        == [True, True, False]
    assert region_mask(pts, {"axis": 1, "op": "abs_ge", "value": 0.9}).tolist() \
        == [True, False, True]
    with pytest.raises(InvalidArgument):
        region_mask(pts, {"axis": 1, "op": "between", "value": 0.0})


def test_disjointify_overlapping_triples():
    nd = xl.make_space("ndagger", 2.0 ** -4)
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    out = disjointify(nd, sets)
    assert [sorted(s) for s in out] == [[0, 1], [2], [3]]
    assert frozenset().union(*out) == frozenset().union(*sets)
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            assert not (a & b)


def test_disjointify_keeps_disjoint_inputs():
    nd = xl.make_space("ndagger", 2.0 ** -4)
    sets = [frozenset({0}), frozenset({4, 5}), frozenset({7})]
    assert disjointify(nd, sets) == list(sets)


@pytest.mark.parametrize("seed", range(3))
def test_disjointify_random_subsets_property(seed):
    from hypothesis import given, settings, strategies as st

    nd = xl.make_space("ndagger", 2.0 ** -4)
    size = len(nd.net)

    @given(st.lists(st.sets(st.integers(min_value=0, max_value=size - 1),
                            max_size=8), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def run(sets):
        fsets = [frozenset(s) for s in sets]
        out = disjointify(nd, fsets)
        union_in = frozenset().union(*fsets)
        union_out = frozenset().union(*out)
        assert union_in == union_out
        flat = [i for s in out for i in s]
        assert len(flat) == len(set(flat))
        # each output sits inside its input
        for u, v in zip(out, fsets):
            assert u <= v

    run()


def test_disjointify_rejects_non_clopen_inputs():
    comb = xl.make_space("comb", EPS6)
    with pytest.raises(InvalidArgument):
        disjointify(comb, [frozenset({1, 2})])


def test_disjointify_on_all_shipped_atom_families():
    for name in ("ndagger", "comb", "sine", "hawaii", "interval"):
        space = xl.make_space(name, EPS6)
        atoms = space.clopen.atoms()
        out = disjointify(space, atoms)
        assert frozenset().union(*out) == frozenset().union(*atoms)
        flat = sorted(i for s in out for i in s)
        assert len(flat) == len(set(flat))
    opc = xl.opc_disjoint_union([xl.make_space("interval", 2.0 ** -4)] * 4)
    out = disjointify(opc, opc.clopen.atoms())
    assert [sorted(s) for s in out] == [sorted(s) for s in opc.clopen.atoms()]


def test_soundness_drill_no_positive_for_obstructed_instances():
    # every instance with a shipped obstruction must refuse an extension
    cases = [("comb", None), ("sine-eclosed", None), ("pathcomp", None),
             ("sine-eopen", 2), ("ndagger-eopen", 2), ("hawaii", 2)]
    for name, n in cases:
        cert = build_negative_certificate(name, n, EPS6)
        assert cert is not None
        with pytest.raises(xl.NotCoveredRefusal):
            xl.explicit_extension(name, n, EPS6)


# ---------------------------------------------------------------------------
# the status rule


def test_a_failed_check_sets_its_status_by_one_rule():
    from extenlab.certificates import (INCONSISTENT, INVALID, REFUTED,
                                       VERIFIED, Verdict)
    v = Verdict(VERIFIED, EPS6)
    assert v.add("holds", True) and v.status == VERIFIED
    assert not v.add("fails", False) and v.status == REFUTED
    for worse in (INVALID, INCONSISTENT):
        w = Verdict(VERIFIED, EPS6)
        w.add("shape", False, fails=worse)
        w.add("later", False)             # REFUTED replaces only VERIFIED
        assert w.status == worse
    v.add("shape", False, fails=INVALID)   # INVALID replaces REFUTED
    assert v.status == INVALID
    v.add("ok-again", True, fails=INCONSISTENT)
    assert v.status == INVALID
    assert [c["ok"] for c in v.checks] == [True, False, False, True]
