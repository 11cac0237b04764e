import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extenlab as xl
from extenlab import maps
from extenlab.errors import (DiameterTooLarge, DomainMismatch,
                             EpsilonTooLarge, GluingMismatch, InvalidArgument,
                             LoopTooCoarse)
from extenlab.maps import (MapSample, collapse_retraction, cone_contraction,
                           constant_map, dugundji_extend,
                           dugundji_extend_partial,
                           equiconnect_homotopy, glue_homotopy_extension,
                           homotopy_between, restrict, small_diameter_extend,
                           winding_number)
from extenlab.metric import Modulus, Net, check_modulus, euclidean_rows, \
    sup_distance
from extenlab.spaces import ClopenAtoms, SpacePair, product_with, subspace

from test_metric import _random_nets

EPS6 = 2.0 ** -6


@pytest.fixture(scope="module")
def interval():
    return xl.make_space("interval", EPS6)


@pytest.fixture(scope="module")
def circle():
    return xl.make_space("circle", EPS6)


@pytest.fixture(scope="module")
def ends_pair(interval):
    return SpacePair.build("ends", interval,
                           [interval.basepoint("left"),
                            interval.basepoint("right")])


# ---------------------------------------------------------------------------
# restrict


def test_restrict_copies_values_and_modulus():
    fam = xl.example_family("comb", 2.0 ** -8)
    ext = xl.explicit_extension("comb", 4, 2.0 ** -8)
    back = restrict(ext, fam.pair)
    assert np.array_equal(back.values, fam.member(4).values)
    assert back.modulus is ext.modulus
    assert sup_distance(back, fam.member(4)) == 0.0


def test_restrict_identity_on_comb_base_is_inclusion():
    comb = xl.make_space("comb", EPS6)
    base = np.nonzero(comb.net.points[:, 1] == 0.0)[0]
    pair = SpacePair.build("comb-base", comb, base)
    ident = MapSample(comb.net, comb, comb.net.points, Modulus.lip(1.0))
    r = restrict(ident, pair)
    assert np.array_equal(r.values, comb.net.points[base])


def test_restrict_constant(interval, ends_pair):
    c = constant_map(interval.net, interval, [0.25])
    r = restrict(c, ends_pair)
    assert np.all(r.values == 0.25)


def test_restrict_rejects_wrong_domain(interval, ends_pair):
    other = xl.make_space("interval", 2.0 ** -5)
    f = constant_map(other.net, other, [0.0])
    with pytest.raises(DomainMismatch):
        restrict(f, ends_pair)


def test_restrict_after_extend_is_identity(interval, ends_pair):
    f = MapSample(ends_pair.z_net, interval, np.array([[0.0], [1.0]]),
                  Modulus.lip(1.0))
    ext = dugundji_extend(ends_pair, f, "clamp")
    assert np.array_equal(restrict(ext, ends_pair).values, f.values)


# ---------------------------------------------------------------------------
# weighted extension


def test_dugundji_midpoint(interval, ends_pair):
    f = MapSample(ends_pair.z_net, interval, np.array([[0.0], [1.0]]),
                  Modulus.lip(1.0))
    ext = dugundji_extend(ends_pair, f, "clamp")
    mid = int(np.nonzero(interval.net.points[:, 0] == 0.5)[0][0])
    assert ext.values[mid, 0] == 0.5
    assert check_modulus(ext, 0.0)


def test_dugundji_whole_space_returns_input(interval):
    pair = SpacePair.build("all", interval, np.arange(len(interval.net)))
    f = MapSample(pair.z_net, interval, interval.net.points.copy(),
                  Modulus.lip(1.0))
    ext = dugundji_extend(pair, f, "clamp")
    assert np.array_equal(ext.values, f.values)


def test_dugundji_constant_stays_constant(interval, ends_pair):
    f = constant_map(ends_pair.z_net, interval, [0.75])
    ext = dugundji_extend(ends_pair, f, "clamp")
    assert np.all(ext.values == 0.75)


def test_dugundji_interval_range_stays_in_hull(interval):
    # convex-combination property: output within [min f, max f]
    idx = np.nonzero(np.isin(interval.net.points[:, 0],
                             [0.0, 0.25, 0.75, 1.0]))[0]
    pair = SpacePair.build("four", interval, idx)
    f = MapSample(pair.z_net, interval,
                  np.array([[0.2], [0.9], [0.3], [0.6]]), Modulus.lip(8.0))
    ext = dugundji_extend(pair, f, "clamp")
    assert ext.values.min() >= 0.2 - 1e-12
    assert ext.values.max() <= 0.9 + 1e-12


def test_dugundji_circle_antipodal_fails(circle, interval):
    pair = SpacePair.build("ends", interval,
                           [interval.basepoint("left"),
                            interval.basepoint("right")])
    f = MapSample(pair.z_net, circle, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                  Modulus.lip(2.0))
    with pytest.raises(xl.ExtensionFailure):
        dugundji_extend(pair, f, "radial")


def _reference_partial(pair, f, retraction):
    """dugundji_extend_partial as one expression per group of
    _AVERAGE_ROWS rows, every array at group size: the reference for the
    operator's blockwise filling of the weights."""
    retr = f.codomain.retractions[retraction]
    net, z = pair.space.net, pair.z_indices
    out = np.empty((len(net), f.values.shape[1]))
    ok = np.ones(len(net), dtype=bool)
    rows = np.setdiff1d(np.arange(len(net)), z)
    for lo in range(0, len(rows), maps._AVERAGE_ROWS):
        idx = rows[lo:lo + maps._AVERAGE_ROWS]
        d = net.dist_idx(idx, z)
        w = np.maximum(0.0, 2.0 * d.min(axis=1)[:, None] - d)
        avg = (w @ f.values) / w.sum(axis=1)[:, None]
        inside = retr.contains(avg)
        out[idx] = np.where(inside[:, None], retr.apply(avg), avg)
        ok[idx] = inside
    out[z] = f.values
    return out, ok


def _space_on(template, net):
    """template's annotations over another net: one component, one atom."""
    return dataclasses.replace(
        template, name="test-space", net=net,
        labels=np.zeros(len(net), dtype=int), label_names=("all",),
        clopen=ClopenAtoms.connected(len(net)), basepoints={}, recipe=None)


def _cylinder_pair():
    """anr-eopen's pair at 2^-6: the ndagger cylinder over [0, 1] (max
    metric), Z its 0 slice and both ends of every other slice; 4,225
    points, 193 in Z, so the 4,032 rows off Z make two groups."""
    ends = xl.make_pair("interval-ends", EPS6)
    prod = product_with(ends.space, "ndagger")
    n = len(ends.space.net)
    levels = np.nonzero(np.asarray(prod.meta["factor_values"]))[0]
    z = np.concatenate([np.arange(n), *(i * n + ends.z_indices
                                        for i in levels)])
    return SpacePair.build("cylinder", prod, z)


def _circle_map(pair, circle, angles):
    return MapSample(pair.z_net, circle,
                     np.column_stack([np.cos(angles), np.sin(angles)]),
                     Modulus.lip(1e6))


def _operator_cases(rng, circle, interval):
    """(name, pair, map) on every metric backend: random Z and values on
    the circle, so some averages leave the radial retraction's domain."""
    n = 300
    for name, net in _random_nets(rng, n).items():
        pair = SpacePair.build(name, _space_on(interval, net),
                               np.sort(rng.choice(n, 40, replace=False)))
        yield name, pair, _circle_map(pair, circle,
                                      rng.uniform(-math.pi, math.pi, 40))
    disk = xl.make_space("disk", 2.0 ** -5)      # 2-d, past one group
    pair = SpacePair.build("disk-ring", disk, np.nonzero(
        np.hypot(*disk.net.points.T) > 0.95)[0])
    yield "disk", pair, _circle_map(pair, circle, np.arctan2(
        *pair.z_net.points.T[::-1]) * 3)
    pair = _cylinder_pair()
    yield "cylinder", pair, _circle_map(pair, circle, math.pi / 2 * (
        pair.z_net.points[:, 1] + pair.z_net.points[:, 0]))


# a duplicate of a Z point off Z has all weights 0: a NaN average
_ZERO_WEIGHTS = "ignore:invalid value encountered in divide:RuntimeWarning"


@pytest.mark.filterwarnings(_ZERO_WEIGHTS)
@pytest.mark.parametrize("rows_per_block, group", [
    (None, None), (3, None), (1, None), (None, 64)])
def test_dugundji_blocks_keep_the_group_expression_bits(
        monkeypatch, rng, circle, interval, rows_per_block, group):
    # the weights fill a group a pair_blocks block at a time; only
    # `w @ values` needs the whole group, so every bit must stay.  Groups
    # of 64 rows give many boundaries and a short last group reusing the
    # front of the weight array
    from extenlab import metric
    shipped = metric._BLOCK_BYTES
    if group is not None:
        monkeypatch.setattr(maps, "_AVERAGE_ROWS", group)
    for name, pair, f in _operator_cases(rng, circle, interval):
        want = _reference_partial(pair, f, "radial")
        if rows_per_block is not None:
            monkeypatch.setattr(metric, "_BLOCK_BYTES",
                                8 * len(pair.z_indices) * rows_per_block)
        got = dugundji_extend_partial(pair, f, "radial")
        monkeypatch.setattr(metric, "_BLOCK_BYTES", shipped)
        assert got[0].tobytes() == want[0].tobytes(), name
        assert got[1].tobytes() == want[1].tobytes(), name
        assert not want[1].all() or name in ("cylinder", "disk"), name


def test_dugundji_holds_one_group_of_weights(circle):
    # 15.0 MiB traced when each group built its distances, differences
    # and weights as whole 2048 x |Z| arrays; now one such array plus the
    # metric's 1 MiB blocks
    import tracemalloc
    pair = _cylinder_pair()
    f = _circle_map(pair, circle, math.pi / 2 * pair.z_net.points[:, 1])
    weights = maps._AVERAGE_ROWS * len(pair.z_indices) * 8
    tracemalloc.start()
    try:
        _, ok = dugundji_extend_partial(pair, f, "radial")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak <= weights + (5 << 20), peak


def test_small_diameter_extension_interval(interval):
    idx = np.nonzero(np.isin(interval.net.points[:, 0], [0.0, 1.0]))[0]
    pair = SpacePair.build("ends", interval, idx)
    f = MapSample(pair.z_net, interval, np.array([[0.5], [0.5 + EPS6]]),
                  Modulus.lip(1.0))
    ext = small_diameter_extend(pair, f, eps_target=8 * EPS6)
    assert ext.value_diameter() < 8 * EPS6
    assert ext.values.min() >= 0.5 - 1e-12
    assert ext.values.max() <= 0.5 + EPS6 + 1e-12


def test_small_diameter_extension_circle_arc(circle, interval):
    idx = np.nonzero(np.isin(interval.net.points[:, 0], [0.0, 1.0]))[0]
    pair = SpacePair.build("ends", interval, idx)
    a = 2.0 ** -5
    f = MapSample(pair.z_net, circle,
                  np.array([[math.cos(-a), math.sin(-a)],
                            [math.cos(a), math.sin(a)]]),
                  Modulus.lip(2.0))
    ext = small_diameter_extend(pair, f, eps_target=2.0 ** -3)
    assert ext.value_diameter() < 2.0 ** -3
    radius = np.hypot(ext.values[:, 0], ext.values[:, 1])
    assert np.allclose(radius, 1.0)


def test_small_diameter_rejects_wide_input(circle, interval):
    idx = np.nonzero(np.isin(interval.net.points[:, 0], [0.0, 1.0]))[0]
    pair = SpacePair.build("ends", interval, idx)
    f = MapSample(pair.z_net, circle, np.array([[1.0, 0.0], [0.0, 1.0]]),
                  Modulus.lip(2.0))
    with pytest.raises(DiameterTooLarge):
        small_diameter_extend(pair, f, eps_target=0.25)


def test_small_diameter_constant(interval):
    idx = np.nonzero(np.isin(interval.net.points[:, 0], [0.0, 1.0]))[0]
    pair = SpacePair.build("ends", interval, idx)
    f = constant_map(pair.z_net, interval, [0.5])
    ext = small_diameter_extend(pair, f, eps_target=0.25)
    assert ext.value_diameter() == 0.0


@pytest.mark.parametrize("value", [0.5, [0.5], [0.5, -1.0]],
                         ids=["0-d", "1-wide", "2-wide"])
def test_constant_map_allocates_its_values_once(circle, value):
    # np.tile handed over a view that freezing copied: twice the output
    import tracemalloc
    domain = Net(np.zeros((200_000, 1)), 1.0)
    tracemalloc.start()
    try:
        f = constant_map(domain, circle, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.shape == (len(domain), np.size(value))
    assert np.all(f.values == np.ravel(value)) and not f.values.flags.writeable
    assert peak <= 1.1 * f.values.nbytes


@pytest.mark.parametrize("shift", [0.0, 0.3, np.nan])
def test_validity_report_reads_as_over_the_distinct_values(rng, circle,
                                                          shift):
    # each value is queried as it is; the worst distance, so the message,
    # is the one over np.unique's rows
    values = circle.net.points[rng.integers(0, len(circle.net), 400)]
    values[::7] *= 1.0 + np.float64(shift)
    f = MapSample(Net(np.arange(400.0)[:, None], 1.0), circle, values,
                  Modulus.lip(1e6))
    worst = float(circle.net.nearest(np.unique(values, axis=0))[1].max())
    problems = f.validity_report()
    if shift == 0.0:
        assert not problems and worst == 0.0
    else:
        assert problems == [f"value {worst:.3g} away from the codomain net "
                            f"(allowed {circle.resolution:.3g})"]


# ---------------------------------------------------------------------------
# homotopies


def test_homotopy_constant_when_endpoints_equal(circle):
    f = constant_map(circle.net, circle, [1.0, 0.0])
    g = constant_map(circle.net, circle, [1.0, 0.0])
    h = homotopy_between(f, g, "geodesic-circle")
    assert np.all(h.values == h.values[0])


def test_homotopy_interval_midslice(interval):
    f = constant_map(interval.net, interval, [0.0])
    g = constant_map(interval.net, interval, [1.0])
    h = homotopy_between(f, g, "straight-line")
    assert np.all(h.slice(0.5).values == 0.5)
    assert np.array_equal(h.values[0], f.values)
    assert np.array_equal(h.values[-1], g.values)


def test_homotopy_geodesic_quarter_turn(circle):
    dom = Net(np.array([[0.0]]), 1.0)
    f = MapSample(dom, circle, np.array([[1.0, 0.0]]), Modulus.lip(0.0))
    g = MapSample(dom, circle, np.array([[0.0, 1.0]]), Modulus.lip(0.0))
    h = homotopy_between(f, g, "geodesic-circle")
    v = h.slice(0.5).values[0]
    assert math.atan2(v[1], v[0]) == pytest.approx(math.pi / 4, abs=1e-12)
    # stays within the spanned arc
    angles = np.arctan2(h.values[..., 1], h.values[..., 0])
    assert angles.min() >= -1e-12 and angles.max() <= math.pi / 2 + 1e-12


def test_homotopy_slices_are_valid_under_the_shared_modulus(circle):
    f = constant_map(circle.net, circle, [1.0, 0.0])
    g = constant_map(circle.net, circle, [0.0, 1.0])
    h = homotopy_between(f, g, "geodesic-circle")
    for t in (0.0, 0.5, 1.0):
        assert not h.slice(t).validity_report()


def test_homotopy_geodesic_rejects_antipodal(circle):
    dom = Net(np.array([[0.0]]), 1.0)
    f = MapSample(dom, circle, np.array([[1.0, 0.0]]), Modulus.lip(0.0))
    g = MapSample(dom, circle, np.array([[-1.0, 0.0]]), Modulus.lip(0.0))
    with pytest.raises(EpsilonTooLarge):
        homotopy_between(f, g, "geodesic-circle")


def test_homotopy_straight_line_needs_convex_codomain(circle):
    f = constant_map(circle.net, circle, [1.0, 0.0])
    with pytest.raises(InvalidArgument):
        homotopy_between(f, f, "straight-line")


def test_equiconnect_fixes_coincidence_and_stays_close(circle):
    net = circle.net
    phi0 = MapSample(net, circle, net.points, Modulus.lip(1.0))
    ang = np.arctan2(net.points[:, 1], net.points[:, 0])
    bump = np.where((ang >= 0) & (ang <= math.pi),
                    0.01 * np.sin(np.maximum(ang, 0.0)), 0.0)
    vals = np.where((bump == 0.0)[:, None], net.points,
                    np.column_stack([np.cos(ang + bump), np.sin(ang + bump)]))
    phi1 = MapSample(net, circle, vals, Modulus.lip(2.0))
    h = equiconnect_homotopy(phi0, phi1, delta=0.05)
    coincidence = np.all(phi0.values == phi1.values, axis=1)
    assert coincidence.sum() > 0
    assert np.all(h.values[:, coincidence, :] == phi0.values[coincidence])
    for a in range(len(h.times)):
        gap = euclidean_rows(h.values[a], h.values[0]).max()
        assert gap < 0.05


def test_equiconnect_identical_maps(circle):
    phi = MapSample(circle.net, circle, circle.net.points, Modulus.lip(1.0))
    h = equiconnect_homotopy(phi, phi, delta=0.1)
    assert np.all(h.values == phi.values)


def test_equiconnect_rejects_distant_maps(circle):
    phi0 = MapSample(circle.net, circle, circle.net.points, Modulus.lip(1.0))
    rolled = np.roll(circle.net.points, len(circle.net) // 2, axis=0)
    phi1 = MapSample(circle.net, circle, rolled, Modulus.lip(1.0))
    with pytest.raises(EpsilonTooLarge):
        equiconnect_homotopy(phi0, phi1, delta=0.1)


def test_glue_returns_phibar_when_f_vanishes(interval):
    pair = xl.make_pair("interval-N", EPS6)
    y = pair.space
    vals = np.column_stack([np.cos(y.net.points[:, 0]),
                            np.sin(y.net.points[:, 0])])
    circle6 = xl.make_space("circle", EPS6)
    phibar = MapSample(y.net, circle6, vals, Modulus.lip(1.0))
    sub_idx = np.arange(5)
    sub = y.net.subnet(sub_idx)
    from extenlab.maps import Homotopy
    frames = np.stack([vals[sub_idx], vals[sub_idx]])
    psi = Homotopy(sub, circle6, np.array([0.0, 1.0]), frames,
                   Modulus.lip(1.0))
    f = constant_map(y.net, xl.make_space("interval", EPS6), [0.0])
    out = glue_homotopy_extension(pair, sub_idx, phibar, psi, f)
    assert np.array_equal(out.values, phibar.values)


def test_glue_rejects_mismatched_start(interval):
    pair = xl.make_pair("interval-N", EPS6)
    y = pair.space
    circle6 = xl.make_space("circle", EPS6)
    vals = np.tile([1.0, 0.0], (len(y.net), 1))
    phibar = MapSample(y.net, circle6, vals, Modulus.lip(0.0))
    sub_idx = np.arange(5)
    sub = y.net.subnet(sub_idx)
    from extenlab.maps import Homotopy
    wrong = np.tile([0.0, 1.0], (5, 1))
    psi = Homotopy(sub, circle6, np.array([0.0, 1.0]),
                   np.stack([wrong, wrong]), Modulus.lip(0.0))
    f = constant_map(y.net, xl.make_space("interval", EPS6), [0.0])
    with pytest.raises(GluingMismatch):
        glue_homotopy_extension(pair, sub_idx, phibar, psi, f)


# ---------------------------------------------------------------------------
# cone contraction


def test_cone_contraction_contract(circle):
    p_idx = 0
    p = circle.net.points[p_idx]
    d = euclidean_rows(circle.net.points,
                       np.broadcast_to(p, circle.net.points.shape))
    ball = subspace(circle, np.nonzero(d <= 2.0 ** -5)[0], "ball")
    p_local = int(np.nonzero(ball.net.points[:, 0] == p[0])[0][0])
    h = cone_contraction(ball, p_local, eps_target=2.0 ** -2)
    assert np.array_equal(h.slice(0.0).values, ball.net.points)
    assert np.all(h.slice(1.0).values == p)
    assert np.all(h.values[:, p_local, :] == p)
    spread = euclidean_rows(
        h.values.reshape(-1, 2),
        np.broadcast_to(p, (h.values.size // 2, 2))).max()
    assert spread < 2.0 ** -2


def test_cone_contraction_single_point(circle):
    ball = subspace(circle, [0], "just-p")
    h = cone_contraction(ball, 0, eps_target=0.5)
    assert np.all(h.values == circle.net.points[0])


def test_cone_contraction_monotone_on_convex_codomain(interval):
    p_idx = int(np.nonzero(interval.net.points[:, 0] == 0.5)[0][0])
    d = np.abs(interval.net.points[:, 0] - 0.5)
    ball_idx = np.nonzero(d <= 2.0 ** -5)[0]
    ball = subspace(interval, ball_idx, "ball")
    p_local = int(np.nonzero(ball_idx == p_idx)[0][0])
    h = cone_contraction(ball, p_local, eps_target=2.0 ** -2)
    dist_to_p = np.abs(h.values[:, :, 0] - 0.5)
    assert np.all(np.diff(dist_to_p, axis=0) <= 1e-12)


# ---------------------------------------------------------------------------
# winding and collapse


def test_winding_standard_and_doubled_loops():
    ang = 2 * np.pi * np.arange(64) / 64
    loop = np.column_stack([np.cos(ang), np.sin(ang)])
    assert winding_number(loop, (0.0, 0.0)) == 1
    ang2 = 4 * np.pi * np.arange(128) / 128
    double = np.column_stack([np.cos(ang2), np.sin(ang2)])
    assert winding_number(double, (0.0, 0.0)) == 2
    assert winding_number(loop[::-1], (0.0, 0.0)) == -1


def test_winding_constant_loop_is_zero():
    assert winding_number(np.tile([[1.0, 0.0]], (6, 1)), (0.0, 0.0)) == 0


def test_winding_rejects_coarse_loop():
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(LoopTooCoarse):
        winding_number(square, (0.0, 0.0))


@given(st.integers(min_value=0, max_value=63),
       st.integers(min_value=8, max_value=64))
@settings(max_examples=40, deadline=None)
def test_winding_invariant_under_rotation_and_refinement(shift, count):
    ang = 2 * np.pi * np.arange(count) / count
    loop = np.column_stack([np.cos(ang), np.sin(ang)])
    rolled = np.roll(loop, shift % count, axis=0)
    assert winding_number(rolled, (0.0, 0.0)) == 1


def test_collapse_retraction_behaviour():
    ear = xl.make_space("hawaii", EPS6)
    r2 = collapse_retraction(ear, 2)
    c2 = ear.net.points[ear.meta["circles"][2][4]]
    c5 = ear.net.points[ear.meta["circles"][5][3]]
    assert np.allclose(r2.apply(c2[None, :])[0], c2)
    assert np.array_equal(r2.apply(c5[None, :])[0], [0.0, 0.0])
    once = r2.apply(ear.net.points)
    assert np.array_equal(r2.apply(once), once)


def test_collapse_composed_with_other_circle_loop_is_nullwinding():
    ear = xl.make_space("hawaii", EPS6)
    r3 = collapse_retraction(ear, 3)
    loop5 = ear.net.points[ear.meta["circles"][5]]
    collapsed = r3.apply(loop5)
    # everything lands at the origin, reading as winding 0 about C_3
    assert winding_number(collapsed + 0.0, (1.0 / 3, 0.0)) == 0


def test_collapse_retraction_bounds():
    ear = xl.make_space("hawaii", EPS6)
    with pytest.raises(InvalidArgument):
        collapse_retraction(ear, 0)
    with pytest.raises(InvalidArgument):
        collapse_retraction(ear, 10 ** 6)


# ---------------------------------------------------------------------------
# geodesic homotopies against the unscreened kernel


def _on_circle(angles, radius=1.0):
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _assert_unscreened_table(h):
    from test_metric import unscreened_bounds
    radii, bounds = unscreened_bounds(h.base, list(h.values))
    got = np.array(h.modulus.table()[1:]).T
    assert np.array_equal(got[0], radii) and np.array_equal(got[1], bounds)


def _geodesic_endpoints(rng, n):
    """(f, g) value arrays at the edges of the geodesic construction (the
    angle cut, near-antipodal turns, fixed rows, points off the circle),
    by name."""
    a = rng.uniform(-math.pi, math.pi, n)
    d = rng.uniform(-0.4, 0.4, n)
    cases = {}
    # angles a few ulps either side of the cut at +-pi
    cut = np.where(rng.random(n) < 0.5, math.pi, -math.pi)
    near = cut * (1 - rng.integers(0, 4, n) * 2.0 ** -52)
    cases["near-pi"] = _on_circle(near), _on_circle(near - d)
    # delta just inside the antipodal refusal (radius 0.5 keeps the maps
    # closer than 2); the other rows turn little
    wide = np.where(rng.random(n) < 0.5, d, np.sign(d) * (math.pi - 2e-9))
    radius = np.where(np.abs(wide) > 1, 0.5, 1.0)[:, None]
    cases["wide-delta"] = radius * _on_circle(a), radius * _on_circle(a + wide)
    # a quarter of the rows equal, some with signs of zero that arctan2
    # tells apart
    f, g = _on_circle(a), _on_circle(a + d)
    g[::4] = f[::4]
    f[1::8], g[1::8] = (-1.0, -0.0), (-1.0, 0.0)
    cases["equal-rows"] = f, g
    # endpoints a few ulps off the circle
    f, g = _on_circle(a), _on_circle(a + d)
    f[::3] *= 1 + rng.integers(-3, 4, (len(f[::3]), 1)) * 2.0 ** -52
    g[1::3] *= 1 + rng.integers(-3, 4, (len(g[1::3]), 1)) * 2.0 ** -52
    cases["ulps-off"] = f, g
    # and far off: radius 0.5 and 3, and the zero vector
    f, g = f.copy(), g.copy()
    f[5::9] *= 0.5
    g[7::11] *= 0.5
    f[6::13] *= 3.0
    g[6::13] *= 3.0
    f[9::17] = 0.0
    cases["far-off"] = f, g
    return cases


@pytest.mark.parametrize("budget", [1 << 20, 8 * 900, 8 * 40])
def test_geodesic_homotopy_keeps_the_table_bit_for_bit(monkeypatch, rng,
                                                        circle, budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 72
    for domain in (circle.net.subnet(np.arange(0, len(circle.net), 7)),
                   Net(np.round(rng.random((n, 2)), 2), 0.1)):
        for f, g in _geodesic_endpoints(rng, len(domain)).values():
            _assert_unscreened_table(homotopy_between(
                MapSample(domain, circle, f, Modulus.lip(2.0)),
                MapSample(domain, circle, g, Modulus.lip(2.0)),
                "geodesic-circle"))


def test_geodesic_homotopy_on_equiconnected_keeps_the_table(circle):
    # the j = 1 call of the equiconnected reproduction at its resolution
    net = circle.net
    phi0 = MapSample(net, circle, net.points, Modulus.lip(1.0))
    ang = np.arctan2(net.points[:, 1], net.points[:, 0])
    bump = np.where((ang >= 0) & (ang <= math.pi),
                    0.25 * np.sin(np.maximum(ang, 0.0)), 0.0)
    vals = np.where((bump == 0.0)[:, None], net.points,
                    np.column_stack([np.cos(ang + bump), np.sin(ang + bump)]))
    _assert_unscreened_table(homotopy_between(
        phi0, MapSample(net, circle, vals, Modulus.lip(2.0)),
        "geodesic-circle"))


def test_straight_line_homotopy_keeps_the_table_bit_for_bit():
    # 65 disk-valued slices: every map of every surviving run
    net = xl.make_space("interval", 2.0 ** -8).net
    disk = xl.make_space("disk", 2.0 ** -3)
    y = net.points[:, 0]
    f = 0.5 * np.column_stack([np.cos(3 * y), np.sin(5 * y)])
    g = np.column_stack([y - 0.5, 0.25 * np.cos(7 * y)])
    g[::5] = f[::5]                       # some rows stay put
    h = homotopy_between(MapSample(net, disk, f, Modulus.lip(4.0)),
                         MapSample(net, disk, g, Modulus.lip(4.0)),
                         "straight-line")
    assert len(h.values) == 65
    _assert_unscreened_table(h)


def test_pickled_nets_maps_and_homotopies_come_back_frozen(rng):
    # pickle goes through the constructors, so the arrays are read-only
    # in numpy's own float64 again and a net's derived data is built anew
    import pickle
    from extenlab.maps import Homotopy
    net = Net(rng.random((5, 2)), 0.5)
    net._pair_table
    f = MapSample(net, None, rng.random((5, 2)), Modulus.lip(1.0), name="f")
    h = Homotopy(net, None, np.linspace(0.0, 1.0, 3), rng.random((3, 5, 2)),
                 Modulus.lip(2.0))
    for obj, fields in ((net, ("points",)), (f, ("values",)),
                        (h, ("times", "values"))):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        for name in fields:
            a, b = getattr(obj, name), getattr(back, name)
            assert b.tobytes() == a.tobytes() and b.shape == a.shape
            assert b.dtype is np.dtype(float) and not b.flags.writeable
    back = pickle.loads(pickle.dumps(net))
    assert back.resolution == net.resolution
    assert "_pair_table" not in vars(back)
    g = pickle.loads(pickle.dumps(f))
    assert not g.domain.points.flags.writeable and g.name == "f"
    assert g.modulus == f.modulus


@pytest.mark.parametrize("n", [1, 7, 512])
def test_homotopy_stack_is_the_per_slice_construction(n):
    # the (T, n, d) stack is built in one broadcast; each slice keeps the
    # bytes of its own per-slice expression
    rng = np.random.default_rng(n)
    eps = 2.0 ** -3
    domain = Net(np.arange(n, dtype=float)[:, None], eps)
    times = xl.dyadic.grid(2.0 ** -6)
    interval, circle = (xl.make_space(name, eps)
                        for name in ("interval", "circle"))
    a, b = rng.random((2, n, 1))
    f, g = (MapSample(domain, interval, v, Modulus.lip(1e9)) for v in (a, b))
    want = np.stack([(1 - t) * a + t * b for t in times])
    want[0], want[-1] = a, b
    h = homotopy_between(f, g, "straight-line")
    assert h.values.tobytes() == want.tobytes()

    a0 = rng.uniform(-math.pi, math.pi, n)
    delta = rng.uniform(-3.0, 3.0, n)
    ends = [np.column_stack([np.cos(x), np.sin(x)]) for x in (a0, a0 + delta)]
    f, g = (MapSample(domain, circle, v, Modulus.lip(1e9)) for v in ends)
    a0, a1 = (np.arctan2(v[:, 1], v[:, 0]) for v in ends)
    delta = np.mod(a1 - a0 + math.pi, 2 * math.pi) - math.pi
    want = np.stack([np.column_stack([np.cos(a0 + t * delta),
                                      np.sin(a0 + t * delta)])
                     for t in times])
    want[0], want[-1] = ends
    h = homotopy_between(f, g, "geodesic-circle")
    assert h.values.tobytes() == want.tobytes()
