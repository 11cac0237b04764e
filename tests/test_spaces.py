import math
import tracemalloc

import numpy as np
import pytest

import extenlab as xl
from extenlab import dyadic, spaces as spaces_mod
from extenlab.errors import (DegenerateSeparation, DomainMismatch,
                             InvalidArgument, UnknownName)
from extenlab.maps import MapSample
from extenlab.metric import Modulus, check_modulus, euclidean_rows, \
    sup_distance
from extenlab.spaces import index_cutoff, osc_cutoff

from conftest import assert_labels_chain_connected

EPS6 = 2.0 ** -6
EPS8 = 2.0 ** -8


# ---------------------------------------------------------------------------
# truncation policy


def test_index_cutoff_matches_shipped_table():
    assert index_cutoff(2.0 ** -6) == 8
    assert index_cutoff(2.0 ** -8) == 32
    assert index_cutoff(2.0 ** -4) == 2
    assert index_cutoff(2.0 ** -10) == 32


def test_osc_cutoff_values():
    assert osc_cutoff(2.0 ** -8) == 15
    assert osc_cutoff(2.0 ** -6) == 7
    assert osc_cutoff(2.0 ** -10) == 31


def test_make_space_rejects_unknown_and_nondyadic():
    with pytest.raises(UnknownName):
        xl.make_space("moebius", EPS6)
    with pytest.raises(InvalidArgument):
        xl.make_space("interval", 0.1)


def test_make_space_is_cached():
    assert xl.make_space("comb", EPS6) is xl.make_space("comb", EPS6)


# ---------------------------------------------------------------------------
# catalog annotations


def test_ndagger_contains_exact_distinguished_points():
    nd = xl.make_space("ndagger", EPS6)
    vals = set(nd.net.points[:, 0].tolist())
    assert 0.0 in vals
    for m in range(1, 9):
        assert 1.0 / m in vals          # distinguished indices, exactly
    assert 1.0 / 64 in vals             # fill points continue to 1/eps
    assert nd.component_count() == len(nd.net)   # totally disconnected
    assert len(nd.clopen.atoms()) == len(nd.net)
    assert nd.clopen.trace_extends(np.arange(len(nd.net)), frozenset({3}))


def test_sine_has_two_labels_and_exact_zeros():
    sine = xl.make_space("sine", EPS8)
    assert sine.label_names == ("curve", "segment")
    assert sine.component_count() == 2
    zeros = sine.meta["zero_index"]
    for m in (1, 2, 15, 16, 100):
        pt = sine.net.points[zeros[m]]
        assert pt[0] == 1.0 / m and pt[1] == 0.0
    origin = sine.net.points[sine.basepoint("origin")]
    assert origin[0] == 0.0 and origin[1] == 0.0


def test_sine_peaks_are_exact():
    sine = xl.make_space("sine", EPS8)
    pts = sine.net.points
    for k in (1, 2, 3):
        x_peak = 2.0 / (2 * k + 1)
        y_peak = 1.0 if k % 2 == 0 else -1.0
        hits = np.nonzero((pts[:, 0] == x_peak) & (pts[:, 1] == y_peak))[0]
        assert len(hits) == 1


def test_comb_keeps_exact_teeth_and_limit_tooth():
    comb = xl.make_space("comb", EPS8)
    xs = set(comb.net.points[:, 0].tolist())
    for m in range(1, 33):
        assert 1.0 / m in xs
    tip = comb.net.points[comb.basepoint("limit-tip")]
    assert tip[0] == 0.0 and tip[1] == 1.0
    assert comb.component_count() == 1


def test_comb_net_covers_true_comb(rng):
    # every point of the full comb lies within eps of the net
    comb = xl.make_space("comb", EPS6)
    ys = rng.random(120)
    ms = rng.integers(1, 500, size=120)
    true_pts = np.column_stack([1.0 / ms, ys])
    base_pts = np.column_stack([rng.random(60), np.zeros(60)])
    _, d = comb.net.nearest(np.vstack([true_pts, base_pts]))
    assert float(d.max()) <= EPS6 + 1e-12


def test_hawaii_circles_and_membership(rng):
    ear = xl.make_space("hawaii", EPS6)
    circles = ear.meta["circles"]
    assert set(circles) == set(range(1, 65))
    # circle rings pass through the shared origin and the far point
    for k in (1, 3, 17):
        ring = circles[k]
        assert ring[0] == 0
        far = ear.net.points[ring[len(ring) // 2]]
        assert far[0] == 2.0 / k and far[1] == 0.0
    # the whole earring is covered within eps, including cut circles
    ks = rng.integers(1, 300, size=200)
    th = rng.uniform(0, 2 * math.pi, size=200)
    pts = np.column_stack([1 / ks + np.cos(th) / ks, np.sin(th) / ks])
    _, d = ear.net.nearest(pts)
    assert float(d.max()) <= EPS6 + 1e-12


def test_circle_distinguished_points_exact():
    c = xl.make_space("circle", EPS6)
    pts = c.net.points
    for target in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        assert np.any(np.all(pts == np.asarray(target, dtype=float), axis=1))


def test_retractions_fix_their_spaces():
    for name in ("interval", "circle", "disk"):
        space = xl.make_space(name, EPS6)
        for retr in space.retractions.values():
            assert bool(np.all(retr.contains(space.net.points)))
            moved = retr.apply(space.net.points)
            gap = euclidean_rows(moved, space.net.points).max()
            assert float(gap) <= EPS6


# Points off each space; (0.3, 0.3) and (1.0, 0.5) miss every earring
# circle, while (0.5, 0.5) would lie on circle 2.
OFF_THE_SPACE = {
    "point": [[0.5], [1e-6]],
    "interval": [[-0.01], [1.01]],
    "circle": [[0.0, 0.0], [0.5, 0.5], [1.01, 0.0]],
    "sine": [[0.5, 0.5], [-0.1, 0.0], [0.0, 1.5]],
    "comb": [[0.75, 0.5], [0.5, 1.5], [-0.1, 0.0]],
    "hawaii": [[0.3, 0.3], [1.0, 0.5], [-0.5, 0.0]],
}


@pytest.mark.parametrize("name", sorted(OFF_THE_SPACE))
def test_analytic_membership_accepts_the_net_and_rejects_points_off(name):
    for k in range(4, 11):
        space = xl.make_space(name, 2.0 ** -k)
        assert space.contains_fn is not None
        assert bool(np.all(space.contains(space.net.points))), k
        assert not np.any(space.contains(OFF_THE_SPACE[name])), k


def test_connected_oracles_accept_only_trivial_traces():
    comb = xl.make_space("comb", EPS6)
    z = np.arange(5)
    assert comb.clopen.trace_extends(z, frozenset())
    assert comb.clopen.trace_extends(z, frozenset(range(5)))
    assert not comb.clopen.trace_extends(z, frozenset({1}))


def test_clopen_oracle_resolution_independent():
    for eps in (2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
        nd = xl.make_space("ndagger", eps)
        assert nd.clopen.extends(frozenset({0, 1}))
        sine = xl.make_space("sine", eps)
        assert not sine.clopen.extends(frozenset({0}))
        assert sine.clopen.extends(frozenset(range(len(sine.net))))


# ---------------------------------------------------------------------------
# constructors


def test_product_point_interval_is_interval():
    prod = xl.product_with(xl.make_space("point", 2.0 ** -4), "interval")
    iv = xl.make_space("interval", 2.0 ** -4)
    assert len(prod.net) == len(iv.net)
    d1 = prod.net.dist_idx(np.arange(len(prod.net)), np.arange(len(prod.net)))
    d2 = iv.net.dist_idx(np.arange(len(iv.net)), np.arange(len(iv.net)))
    assert np.array_equal(d1, d2)


def test_product_interval_square_one_component():
    sq = xl.product_with(xl.make_space("interval", 2.0 ** -4), "interval")
    assert sq.component_count() == 1
    assert_labels_chain_connected(sq)


def test_product_circle_ndagger_components():
    eps = 2.0 ** -5
    prod = xl.product_with(xl.make_space("circle", eps), "ndagger")
    nd = xl.make_space("ndagger", eps)
    assert prod.component_count() == len(nd.net)
    # each declared component is internally 2eps-chain-connected
    assert_labels_chain_connected(prod)


def test_product_rejects_coarse_grid():
    with pytest.raises(InvalidArgument):
        xl.product_with(xl.make_space("interval", EPS6), "interval",
                        grid_step=2.0 ** -4)


def test_product_key_names_its_grid_step():
    # same base and factor, different grid steps: different codomains
    eps = 2.0 ** -4
    base = xl.make_space("interval", eps)
    coarse = xl.product_with(base, "interval")
    fine = xl.product_with(base, "interval", grid_step=2.0 ** -6)
    assert (len(coarse.net), len(fine.net)) == (289, 1105)
    assert coarse.key != fine.key
    point = xl.make_space("point", eps).net
    f = MapSample(point, coarse, coarse.net.points[:1], Modulus.lip(1.0))
    g = MapSample(point, fine, fine.net.points[:1], Modulus.lip(1.0))
    with pytest.raises(DomainMismatch):
        sup_distance(f, g)


def test_subspace_key_names_its_indices():
    # subspaces of one base under one name: the key tells the index sets
    # apart, so maps into different ones refuse to compare
    eps = 2.0 ** -4
    circle = xl.make_space("circle", eps)
    first = xl.subspace(circle, [0, 1, 2], "b")
    other = xl.subspace(circle, [5, 6, 7], "b")
    again = xl.subspace(circle, [0, 1, 2], "b")
    assert first.key != other.key
    assert first.key == again.key
    point = xl.make_space("point", eps).net
    f, g, h = (MapSample(point, sub, sub.net.points[:1], Modulus.lip(1.0))
               for sub in (first, other, again))
    with pytest.raises(DomainMismatch):
        sup_distance(f, g)
    assert sup_distance(f, h) == 0.0


def test_label_oracle_rejects_a_split_label():
    # the interval with its two ends under one label and the middle under
    # another: the end label is no chain class, so the oracle must fail
    iv = xl.make_space("interval", 2.0 ** -4)
    labels = np.zeros(len(iv.net), dtype=int)
    labels[4:-4] = 1
    split = xl.AnnotatedSpace("split", iv.net, labels, ("ends", "middle"),
                              iv.clopen, {}, {})
    with pytest.raises(AssertionError):
        assert_labels_chain_connected(split)
    assert_labels_chain_connected(iv)


def test_cone_point_is_interval():
    cp = xl.cone(xl.make_space("point", 2.0 ** -4))
    iv = xl.make_space("interval", 2.0 ** -4)
    assert len(cp.net) == len(iv.net)
    d1 = cp.net.dist_idx(np.arange(len(cp.net)), np.arange(len(cp.net)))
    d2 = iv.net.dist_idx(np.arange(len(iv.net)), np.arange(len(iv.net)))
    assert np.allclose(d1, d2)


def test_cone_two_points_single_component():
    from extenlab.spaces import AnnotatedSpace, ClopenAtoms
    from extenlab.metric import Net
    two = AnnotatedSpace(
        "two-points", Net(np.array([[0.0], [1.0]]), 2.0 ** -4),
        np.array([0, 1]), ("a", "b"), ClopenAtoms.connected(2), {}, {})
    c = xl.cone(two)
    assert c.component_count() == 1
    assert_labels_chain_connected(c)


def test_cone_ndagger_path_connected():
    c = xl.cone(xl.make_space("ndagger", 2.0 ** -5))
    assert c.component_count() == 1
    assert_labels_chain_connected(c)


def test_cone_metric_triangle_inequality_sampled(rng):
    c = xl.cone(xl.make_space("ndagger", 2.0 ** -4))
    n = len(c.net)
    idx = rng.integers(0, n, size=(200, 3))
    d = c.net.dist_idx(np.arange(n), np.arange(n))
    for i, j, k in idx:
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_opc_single_interval():
    opc = xl.opc_disjoint_union([xl.make_space("interval", 2.0 ** -4)])
    assert opc.component_count() == 2    # the block and the infinity point


def test_opc_of_points_all_blocks_clopen():
    pts = [xl.make_space("point", 2.0 ** -4)] * 5
    opc = xl.opc_disjoint_union(pts)
    assert opc.component_count() == 6
    atoms = opc.clopen.atoms()
    assert len(atoms) == 6
    # every union of point blocks is accepted
    assert opc.clopen.extends(frozenset({1, 3}))
    assert opc.clopen.extends(frozenset({0, 2}))     # with infinity


def test_opc_blocks_accumulate_at_infinity():
    opc = xl.opc_disjoint_union([xl.make_space("interval", EPS6)] * 8)
    for b in opc.meta["blocks"]:
        idx = np.arange(b["start"], b["start"] + b["size"])
        far = float(np.abs(opc.net.points[idx, 0]).max())
        assert far <= 2.0 ** (-b["n"]) + 1e-15


def test_opc_refuses_a_block_count_past_a_normal_diameter():
    # block n has diameter 2^(-n-2): 2^-1022 at n = 1,020, the least normal
    point = xl.make_space("point", 2.0 ** -3)
    assert len(xl.opc_disjoint_union([point] * 1020).net) == 1021
    for count in (0, 1021):
        with pytest.raises(InvalidArgument, match="1..1020"):
            xl.opc_disjoint_union([point] * count)


def test_opc_oracle_rejects_block_splitting():
    opc = xl.opc_disjoint_union([xl.make_space("interval", 2.0 ** -4)] * 3)
    b = opc.meta["blocks"][0]
    whole = frozenset(range(b["start"], b["start"] + b["size"]))
    assert opc.clopen.extends(whole)
    assert not opc.clopen.extends(frozenset(list(whole)[:3]))


def test_opc_requires_blocks():
    with pytest.raises(InvalidArgument):
        xl.opc_disjoint_union([])


def test_constructors_preserve_net_quality(rng):
    # sampled true points of the defining formulas stay within epsilon
    prod = xl.product_with(xl.make_space("circle", 2.0 ** -5), "interval")
    ts = rng.random(60)
    angs = rng.uniform(0, 2 * math.pi, 60)
    _, d = prod.net.nearest(np.column_stack([ts, np.cos(angs), np.sin(angs)]))
    assert float(d.max()) <= 2.0 ** -5
    cn = xl.cone(xl.make_space("interval", 2.0 ** -4))
    _, d = cn.net.nearest(np.column_stack([rng.random(60), rng.random(60)]))
    assert float(d.max()) <= 2.0 ** -4
    opc = xl.opc_disjoint_union([xl.make_space("interval", 2.0 ** -4)] * 3)
    for b in opc.meta["blocks"]:
        lo = 0.75 * 2.0 ** -b["n"]
        true_pts = (lo + b["scale"] * rng.random(30))[:, None]
        _, d = opc.net.nearest(true_pts)
        assert float(d.max()) <= 2.0 ** -4


def test_cone_single_component_in_two_eps_graph():
    from extenlab.metric import _components, build_epsilon_graph
    c = xl.cone(xl.make_space("ndagger", 2.0 ** -4))
    g = build_epsilon_graph(c.net, 2 * 2.0 ** -4)
    assert len(np.unique(_components(len(c.net), *g.adjacency()))) == 1


def test_spiked_base_pair_shapes():
    v = xl.make_space("ndagger", 2.0 ** -4)
    pair = xl.spiked_base_pair(v, 0)
    levels = len(pair.space.meta["levels"]) + 1   # including the apex level
    assert len(pair.z_indices) == len(v.net) + levels - 1
    with pytest.raises(InvalidArgument):
        xl.spiked_base_pair(v, 999)


def test_spiked_base_pair_point_gives_whole_interval():
    pt = xl.make_space("point", 2.0 ** -4)
    pair = xl.spiked_base_pair(pt, 0)
    assert len(pair.z_indices) == len(pair.space.net)


# ---------------------------------------------------------------------------
# urysohn


def test_urysohn_values_and_modulus():
    iv = xl.make_space("interval", EPS6)
    z = [iv.basepoint("left")]
    v = np.nonzero(iv.net.points[:, 0] < 0.5)[0]
    f = xl.urysohn(iv, z, v)
    x = iv.net.points[:, 0]
    assert f.values[x == 0.0][0, 0] == 1.0
    assert f.values[x == 0.25][0, 0] == 0.5
    assert f.values[x == 0.75][0, 0] == 0.0
    assert np.all((f.values >= 0) & (f.values <= 1))
    assert check_modulus(f, 0.0)
    sep = 0.5   # d(Z, complement of V) on this net
    assert f.modulus.lipschitz == 2.0 / sep


def test_urysohn_degenerate_separation():
    # a duplicated coordinate puts the complement at distance zero from Z
    from extenlab.spaces import AnnotatedSpace, ClopenAtoms
    from extenlab.metric import Net
    net = Net(np.array([[0.0], [0.0], [1.0]]), 1.0)
    sp = AnnotatedSpace("dup", net, np.zeros(3, dtype=int), ("dup",),
                        ClopenAtoms.connected(3), {}, {})
    with pytest.raises(DegenerateSeparation):
        xl.urysohn(sp, [0], [0, 2])


def test_urysohn_requires_z_inside_v():
    iv = xl.make_space("interval", EPS6)
    with pytest.raises(InvalidArgument):
        xl.urysohn(iv, [0, 5], [0, 1, 2])


def test_urysohn_refuses_an_empty_z():
    iv = xl.make_space("interval", 2.0 ** -3)
    for z in ([], np.array([], dtype=int)):
        with pytest.raises(InvalidArgument, match="nonempty Z"):
            xl.urysohn(iv, z, [0, 1])


# ---------------------------------------------------------------------------
# pairs


def test_pair_catalog_builds_and_z_nets_match():
    for name in xl.pair_names():
        pair = xl.make_pair(name, EPS6)
        assert np.array_equal(pair.z_net.points,
                              pair.space.net.points[pair.z_indices])


def test_interval_n_pair_members():
    pair = xl.make_pair("interval-N", EPS6)
    members = pair.meta["z_members"]
    coords = pair.z_net.points[:, 0]
    assert members[0] == 0 and coords[0] == 0.0
    for m, c in zip(members[1:], coords[1:]):
        assert c == 1.0 / m


def test_disk_earring_pair_z_is_the_earring():
    pair = xl.make_pair("disk-earring", EPS6)
    ear = pair.meta["z_space"]
    assert np.array_equal(pair.z_net.points, ear.net.points)
    inside = pair.space.contains(ear.net.points)
    assert bool(np.all(inside))
    # the injected earring points make it another space than the catalog disk
    disk = xl.make_space("disk", EPS6, center=(1.0, 0.0), radius=1.0)
    assert pair.space.key != disk.key


def _meshgrid_disk(eps, center, radius, extra):
    """Points, center basepoint and injected rows of the disk as the
    meshgrid builder made them, whole-grid temporaries and all: the
    reference for spaces._build_disk."""
    center = np.asarray(center, dtype=float)
    cx, cy = center
    xs = dyadic.grid(eps, cx - radius, cx + radius)
    ys = dyadic.grid(eps, cy - radius, cy + radius)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2
    grid_pts = np.column_stack([gx[mask], gy[mask]])
    idx2d = np.full(mask.shape, -1, dtype=int)
    idx2d[mask] = np.arange(len(grid_pts))
    rows, seen = [grid_pts], {}

    def add_rows(arr):
        f = (arr - (xs[0], ys[0])) / eps
        hit = np.all((f == np.round(f)) & (f >= 0) & (f < idx2d.shape),
                     axis=1)
        ix, iy = f[hit].astype(int).T
        out = np.full(len(arr), -1, dtype=int)
        out[hit] = idx2d[ix, iy]
        for i in np.flatnonzero(out < 0).tolist():
            p = (float(arr[i, 0]), float(arr[i, 1]))
            if p not in seen:
                seen[p] = len(grid_pts) + len(seen)
                rows.append(arr[i:i + 1])
            out[i] = seen[p]
        return out

    count = int(math.ceil(2 * math.pi * radius / (0.5 * eps)))
    ang = 2 * math.pi * np.arange(count) / count
    for r in (radius, radius - 0.5 * eps, radius - eps):
        add_rows(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
    injected = np.empty(0, dtype=int) if extra is None else add_rows(extra)
    center_row = int(euclidean_rows(grid_pts, center).argmin())
    return np.vstack(rows), center_row, injected


@pytest.mark.parametrize("k", range(3, 10))
def test_disk_builder_matches_the_meshgrid_builder(k):
    eps = 2.0 ** -k
    ear = xl.make_space("hawaii", eps).net.points
    for center in ((0.0, 0.0), (1.0, 0.0), (0.3, -0.1)):
        for radius in (1.0, 0.5, 0.3):
            lattice, _, _ = _meshgrid_disk(eps, center, radius, None)
            # the earring moved into the disk, exact lattice and boundary
            # points, and repeated rows
            moved = np.asarray(center) + radius * (ear - (1.0, 0.0))
            extra = np.vstack([moved, lattice[[0, len(lattice) // 2, -1]],
                               moved[:3]])
            for added in (None, extra):
                pts, center_row, injected = _meshgrid_disk(eps, center,
                                                           radius, added)
                disk = spaces_mod._build_disk(eps, center, radius, added)
                got = disk.net.points
                assert got.shape == pts.shape
                assert got.tobytes() == pts.tobytes()
                assert disk.basepoint("center") == center_row
                assert disk.meta["injected_indices"].dtype == injected.dtype
                assert np.array_equal(disk.meta["injected_indices"],
                                      injected)


def _dict_loop_disk_points(eps, center, radius, extra):
    """spaces._disk_points with its non-lattice points resolved one at a
    time through a dict of float pairs (first occurrences kept): the
    reference for the sort-based dedup."""
    cx, cy = center
    xs = dyadic.grid(eps, cx - radius, cx + radius)
    ys = dyadic.grid(eps, cy - radius, cy + radius)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2
    n_grid = int(np.count_nonzero(mask))
    idx2d = np.full(mask.shape, -1, dtype=np.int32)
    idx2d[mask] = np.arange(n_grid, dtype=np.int32)
    count = int(math.ceil(2 * math.pi * radius / (0.5 * eps)))
    ang = 2 * math.pi * np.arange(count) / count
    queries = [np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
               for r in (radius, radius - 0.5 * eps, radius - eps)]
    if extra is not None and len(extra):
        queries.append(np.asarray(extra, dtype=float))
    arr = np.concatenate(queries)
    f = (arr - (xs[0], ys[0])) / eps
    hit = np.all((f == np.round(f)) & (f >= 0) & (f < mask.shape), axis=1)
    ix, iy = f[hit].astype(int).T
    index = np.full(len(arr), -1, dtype=int)
    index[hit] = idx2d[ix, iy]
    fresh: dict = {}
    for i in np.flatnonzero(index < 0).tolist():
        p = (float(arr[i, 0]), float(arr[i, 1]))
        index[i] = fresh.setdefault(p, n_grid + len(fresh))
    pts = np.concatenate([np.column_stack([gx[mask], gy[mask]]),
                          np.reshape(list(fresh), (-1, 2))])
    return pts, n_grid, index[3 * count:].copy()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_disk_points_match_the_dict_loop(rng):
    eps = 2.0 ** -4
    # signed zeros (both orders), repeats, lattice points, NaN rows (a
    # NaN equals nothing, so each is its own point) and random points
    extra = np.array([[-0.0, 0.3], [0.0, 0.3], [0.3, 0.0], [0.3, -0.0],
                      [0.25, 0.5], [0.25, 0.5], [0.1, 0.1], [0.1, 0.1],
                      [np.nan, 0.2], [np.nan, 0.2], [0.2, np.nan],
                      [-0.0, -0.0], [0.0, 0.0]])
    extra = np.vstack([extra, 0.6 * rng.random((20, 2)), extra[::-1]])
    for center, radius in (((0.0, 0.0), 1.0), ((0.5, -0.25), 0.3),
                           ((0.3, 0.1), 0.7)):
        for added in (None, extra[:0], extra, extra[:8]):
            want = _dict_loop_disk_points(eps, center, radius, added)
            got = spaces_mod._disk_points(eps, center, radius, added)
            assert got[1] == want[1]
            for g, w in ((got[0], want[0]), (got[2], want[2])):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
    # the first occurrence's bits: -0.0 where it came before 0.0
    pts, n_grid, index = spaces_mod._disk_points(eps, (0.0, 0.0), 1.0, extra)
    assert np.signbit(pts[index[0], 0]) and index[1] == index[0]
    assert not np.signbit(pts[index[2], 1]) and index[3] == index[2]
    assert index[4] == index[5] < n_grid and index[8] != index[9]


def test_disk_earring_pair_peaks_near_its_points():
    # the lattice mask and index table are the only lattice-sized
    # temporaries; the meshgrid builder peaked at 6.6 times the points
    xl.make_space("hawaii", EPS8)
    tracemalloc.start()
    try:
        pair = spaces_mod._build_named_pair("disk-earring", EPS8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * pair.space.net.points.nbytes


# ---------------------------------------------------------------------------
# memo


def test_make_space_rejects_parameters_its_builder_does_not_read():
    eps = 2.0 ** -5
    with pytest.raises(InvalidArgument):
        xl.make_space("interval", eps, bogus=3)
    with pytest.raises(InvalidArgument):
        xl.make_space("disk", eps, center=(0.0, 0.0), colour="red")
    disk = xl.make_space("disk", eps, center=(0.5, 0.5), radius=0.25)
    # the key follows the parameters the builder read, and only them
    spaces_mod.clear_caches()
    again = xl.make_space("disk", eps, radius=0.25, center=(0.5, 0.5))
    assert again is not disk and again.key == disk.key
    assert disk.key != xl.make_space("disk", eps, center=(0.5, 0.5)).key
    assert disk.key != xl.make_space("disk", eps, radius=0.25).key


def test_disk_parameters_are_canonical_before_the_memo():
    from extenlab import serialization as ser
    eps = 2.0 ** -3

    def written(**params):
        return ser.dumps(ser.space_to_ref(xl.make_space("disk", eps,
                                                        **params)))
    # the recipe a disk writes does not depend on what was built before
    spaces_mod.clear_caches()
    fresh = written(center=(0.5, 0), radius=2)
    spaces_mod.clear_caches()
    written(center=(0.5, 0.0), radius=2.0)
    assert written(center=(0.5, 0), radius=2) == fresh
    assert '"radius":2.0' in fresh and '"center":[0.5,0.0]' in fresh
    spaces_mod.clear_caches()
    assert written(center=(-0.0, 0.5), radius=-0.0) == written(
        center=(0.0, 0.5), radius=0.0)
    assert "-0.0" not in written(center=(-0.0, 0.5), radius=-0.0)
    # defaults spelled out are the default disk: one space, no parameters
    plain = xl.make_space("disk", eps)
    for spelled in ({"center": (0.0, 0.0), "radius": 1.0},
                    {"center": (0, 0)}, {"radius": 1}):
        assert xl.make_space("disk", eps, **spelled) is plain
        assert '"parameters":{}' in written(**spelled)
    f = MapSample(plain.net, plain, plain.net.points, Modulus.lip(1.0))
    g = xl.make_space("disk", eps, center=(0.0, 0.0), radius=1.0)
    assert sup_distance(f, MapSample(g.net, g, g.net.points,
                                     Modulus.lip(1.0))) == 0.0
    for bad in ({"radius": -1.0}, {"radius": "1"}, {"radius": True},
                {"center": [0.0, 0.0]}, {"center": (0.0, math.nan)}):
        with pytest.raises(InvalidArgument):
            xl.make_space("disk", eps, **bad)


EPS5 = 2.0 ** -5


def _explicit(name, points):
    """A space read from an explicit reference on 1-d points."""
    from extenlab import serialization as ser
    return ser.space_from_ref({
        "kind": "explicit", "name": name,
        "net": {"dimension": 1, "points": [[p] for p in points],
                "resolution": EPS5, "metric": "euclidean"},
        "path_components": [0] * len(points), "component_names": ["only"],
        "clopen_atoms": [list(range(len(points)))]})


def _reloaded(space):
    from extenlab import serialization as ser
    return ser.space_from_ref(ser.space_to_ref(space))


def _disk(**params):
    return xl.make_space("disk", EPS5, **params)


def _product(step=None, base=None):
    return xl.product_with(base or xl.make_space("interval", EPS5),
                           "interval", grid_step=step)


def _arc(indices):
    return xl.subspace(xl.make_space("circle", EPS5), indices, "arc")


# (case, first space, second space, do they share a key?)
IDENTITY_CASES = [
    ("catalog-equal-parameters",
     lambda: _disk(center=(0.5, 0.5), radius=0.25),
     lambda: _disk(radius=0.25, center=(0.5, 0.5)), True),
    ("catalog-other-center", lambda: _disk(center=(0.5, 0.5)),
     lambda: _disk(center=(0.5, 0.25)), False),
    ("catalog-other-radius", lambda: _disk(radius=0.5), lambda: _disk(),
     False),
    ("catalog-other-resolution", lambda: xl.make_space("interval", EPS5),
     lambda: xl.make_space("interval", EPS6), False),
    ("product-equal-steps", lambda: _product(),
     lambda: _product(EPS5), True),
    ("product-other-steps", lambda: _product(),
     lambda: _product(2.0 ** -6), False),
    ("subspace-equal-indices", lambda: _arc([0, 1, 2]),
     lambda: _arc([0, 1, 2]), True),
    ("subspace-other-indices", lambda: _arc([0, 1, 2]),
     lambda: _arc([5, 6, 7]), False),
    ("interval-N-y-against-catalog-interval",
     lambda: xl.make_pair("interval-N", EPS5).space,
     lambda: xl.make_space("interval", EPS5), False),
    ("disk-earring-y-against-catalog-disk",
     lambda: xl.make_pair("disk-earring", EPS5).space,
     lambda: _disk(center=(1.0, 0.0), radius=1.0), False),
    ("explicit-equal-points", lambda: _explicit("user", [0.0, 1.0]),
     lambda: _explicit("user", [0.0, 1.0]), True),
    ("explicit-signed-zero", lambda: _explicit("user", [-0.0, 1.0]),
     lambda: _explicit("user", [0.0, 1.0]), True),
    ("explicit-other-points", lambda: _explicit("user", [0.0, 1.0]),
     lambda: _explicit("user", [0.0, 0.5, 1.0]), False),
    ("explicit-other-names", lambda: _explicit("user", [0.0, 1.0]),
     lambda: _explicit("other", [0.0, 1.0]), False),
    ("explicit-against-catalog-on-its-points",
     lambda: _explicit("interval", dyadic.grid(EPS5).tolist()),
     lambda: xl.make_space("interval", EPS5), False),
    ("recipe-less-against-its-reload",
     lambda: xl.make_pair("interval-N", EPS5).space,
     lambda: _reloaded(xl.make_pair("interval-N", EPS5).space), True),
    ("cone-over-explicit-equal-points",
     lambda: xl.cone(_explicit("user", [0.0, 1.0])),
     lambda: xl.cone(_explicit("user", [-0.0, 1.0])), True),
    ("cone-over-explicit-other-points",
     lambda: xl.cone(_explicit("user", [0.0, 1.0])),
     lambda: xl.cone(_explicit("user", [0.0, 0.5])), False),
    ("product-over-explicit-other-points",
     lambda: _product(base=_explicit("user", [0.0, 1.0])),
     lambda: _product(base=_explicit("user", [0.0, 0.5])), False),
    ("opc-over-explicit-other-points",
     lambda: xl.opc_disjoint_union([_explicit("user", [0.0, 1.0])] * 2),
     lambda: xl.opc_disjoint_union([_explicit("user", [0.0, 1.0]),
                                    _explicit("user", [0.0, 0.5])]), False),
]


@pytest.mark.parametrize("case, first, second, same", IDENTITY_CASES,
                         ids=[case for case, *_ in IDENTITY_CASES])
def test_space_identity(case, first, second, same):
    # each side is built afresh, so a shared key is never a shared object;
    # maps into the two compare exactly when their keys agree
    a = first()
    spaces_mod.clear_caches()
    b = second()
    assert a is not b
    assert (a.key == b.key) is same
    point = xl.make_space("point", EPS5).net
    f, g = (MapSample(point, s, s.net.points[:1], Modulus.lip(1.0))
            for s in (a, b))
    if same:
        assert sup_distance(f, g) == 0.0
    else:
        with pytest.raises(DomainMismatch):
            sup_distance(f, g)


def test_clear_caches_builds_fresh_instances():
    eps = 2.0 ** -5
    space = xl.make_space("interval", eps)
    pair = xl.make_pair("interval-ends", eps)
    assert xl.make_space("interval", eps) is space
    assert xl.make_pair("interval-ends", eps) is pair
    spaces_mod.clear_caches()
    fresh_space = xl.make_space("interval", eps)
    fresh_pair = xl.make_pair("interval-ends", eps)
    assert fresh_space is not space and fresh_pair is not pair
    assert np.array_equal(fresh_space.net.points, space.net.points)
    assert xl.make_space("interval", eps) is fresh_space
    assert xl.make_pair("interval-ends", eps) is fresh_pair


def test_sine_net_sizes_from_epsilon_one_to_2_9():
    # at 1 the zero tail is empty; the finer sizes are the ones every
    # reproduction has used
    sizes = [len(xl.make_space("sine", 2.0 ** -k).net) for k in range(10)]
    assert sizes == [6, 10, 19, 48, 119, 326, 836, 2225, 6268, 17662]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("center, radius", [((0.0, 0.0), 1.0),
                                            ((1.0, -0.25), 0.5),
                                            ((0.5, 0.5), 0.0)])
def test_disk_membership_from_squares_is_the_hypot_test(rng, center, radius):
    # squares decide away from the boundary, np.hypot in a band around it
    disk = spaces_mod._build_disk(EPS6, center, radius)
    c, reach = np.array(center), radius + 1e-9
    angle = rng.uniform(0, 2 * math.pi, 400)
    u = np.column_stack([np.cos(angle), np.sin(angle)])
    # relative offsets around the band's edges (2^-30) and within ulps
    rel = np.r_[np.arange(-8, 9) * 2.0 ** -32, np.arange(-4, 5) * 2.0 ** -52]
    pts = c + reach * (1 + rel[:, None, None]) * u
    pts = pts.reshape(-1, 2)
    pts[:9] = [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.nan], [1e300, 0.0],
               [1e200, 1e200], [1e-300, 0.0], center, [c[0], np.inf],
               [-0.0, -0.0]]
    want = euclidean_rows(pts, c) <= reach
    got = disk.contains(pts)
    assert np.array_equal(got, want)
    assert got.any() and not got.all()
    with pytest.raises(xl.InvalidArgument, match="dimension"):
        disk.contains(rng.random((20, 1)))


@pytest.mark.parametrize("name, dim", [(name, dim) for name in
                                       ("point", "interval", "circle", "disk",
                                        "sine", "comb", "hawaii")
                                       for dim in (1, 2, 3)])
def test_contains_refuses_points_of_another_dimension(name, dim):
    space = xl.make_space(name, EPS6)
    pts = np.zeros((4, dim))
    if dim == space.net.dimension:
        assert space.contains(pts).shape == (4,)
    else:
        with pytest.raises(xl.InvalidArgument, match="dimension"):
            space.contains(pts)


def _first_occurrences_oracle(arr, rows, start):
    seen, index, points = {}, {}, []
    for r in rows.tolist():
        key = tuple(float(x) for x in arr[r])
        found = next((k for k in seen if k == key), None)   # NaN: no match
        if found is None:
            seen[key] = start + len(points)
            points.append(arr[r])
            found = key
        index[r] = seen[found]
    return np.array(points).reshape(-1, arr.shape[1]), index


@pytest.mark.parametrize("start", [0, 7])
def test_first_occurrences_match_a_python_oracle(rng, start):
    values = np.array([0.0, -0.0, 1.0, 0.5, np.nan])
    for n in (0, 1, 5, 60):
        arr = rng.choice(values, (n, 2))
        for rows in (np.flatnonzero(rng.random(n) < 0.7),
                     np.arange(0), np.arange(n)):
            index = np.full(n, -1)
            got = spaces_mod._first_occurrences(arr, rows, index, start)
            want, want_index = _first_occurrences_oracle(arr, rows, start)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert {r: int(index[r]) for r in rows.tolist()} == want_index


def test_urysohn_takes_its_distance_minima_a_block_at_a_time():
    # full n x |Y - V| and n x |Z| matrices peaked at about 250 MB here
    space = xl.make_space("interval", 2.0 ** -12)
    z, v = [0], range(101)
    tracemalloc.start()
    try:
        f = spaces_mod.urysohn(space, z, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert f.values[0, 0] == 1.0 and (f.values[101:] == 0.0).all()
