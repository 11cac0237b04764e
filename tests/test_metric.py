import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extenlab as xl
from extenlab.errors import DomainMismatch, InvalidArgument
from extenlab import metric
from extenlab.metric import (EuclideanMetric, Modulus, Net,
                             build_epsilon_graph, check_modulus,
                             measured_modulus, measured_modulus_multi,
                             sup_distance, widest_path_value)
from extenlab.maps import MapSample

from conftest import (components_by_unionfind, exhaustive_widest_path,
                      spot_check_triangle)

EPS8 = 2.0 ** -8
EPS6 = 2.0 ** -6


def line_net(values, eps=0.5):
    return Net(np.asarray(values, dtype=float)[:, None], eps)


# ---------------------------------------------------------------------------
# nets and graphs


def test_net_rejects_bad_resolution():
    with pytest.raises(InvalidArgument):
        Net(np.zeros((1, 1)), 0.0)


def test_epsilon_graph_three_points():
    g = build_epsilon_graph(line_net([0.0, 0.5, 1.0]), 0.6)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_epsilon_graph_complete_at_diameter():
    g = build_epsilon_graph(line_net([0.0, 0.5, 1.0]), 1.0)
    assert len(g.edges) == 3


def test_epsilon_graph_rejects_nonpositive_scale():
    with pytest.raises(InvalidArgument):
        build_epsilon_graph(line_net([0.0, 1.0]), 0.0)


def test_comb_isolated_teeth_connect_only_through_base():
    comb = xl.make_space("comb", EPS6)
    g = build_epsilon_graph(comb.net, 2 * EPS6)
    pts = comb.net.points
    above = pts[:, 1] > 2 * EPS6
    keep = above[g.edges[:, 0]] & above[g.edges[:, 1]]
    labels = components_by_unionfind(len(pts), g.edges[keep])
    tip = {x: labels[np.nonzero((pts[:, 0] == x) & (pts[:, 1] == 1.0))[0][0]]
           for x in (1.0, 0.5, 1 / 3, 0.25)}
    # with the base strip removed, wide teeth fall apart
    assert len(set(tip.values())) == 4


def test_net_adjacency_is_its_own_graph_built_once_per_scale():
    # two products that differ only in grid step, and two explicit spaces
    # with one name: each net reads a graph of its own size
    from extenlab.spaces import AnnotatedSpace, ClopenAtoms
    eps = 2.0 ** -4
    base = xl.make_space("interval", eps)
    nets = [xl.product_with(base, "interval").net,
            xl.product_with(base, "interval", grid_step=2.0 ** -6).net]
    for pts in (np.array([[0.0], [0.5]]), np.array([[0.0], [0.25], [0.5]])):
        nets.append(AnnotatedSpace(
            "user", Net(pts, 0.25), np.zeros(len(pts), dtype=int),
            ("user",), ClopenAtoms.connected(len(pts)), {}, {}).net)
    for net in nets:
        adj = net.adjacency(2 * eps)
        assert len(adj[0]) == len(adj[1])
        assert np.all(adj[0] < adj[1]) and np.all(adj[1] < len(net))
        assert net.adjacency(2 * eps) is adj
        want = build_epsilon_graph(net, 2 * eps).adjacency()
        assert all(np.array_equal(a, b) for a, b in zip(adj, want))
    assert [len(n) for n in nets] == [289, 1105, 2, 3]


def components_of(g):
    """Each node's component id, its smallest member: the union-find
    metric._components runs over the graph's edges."""
    return metric._components(len(g.net), *g.adjacency())


def test_graph_components_two_points_apart():
    g = build_epsilon_graph(line_net([0.0, 1.0]), 0.5)
    assert components_of(g).tolist() == [0, 1]


def test_graph_components_interval_one_piece():
    iv = xl.make_space("interval", EPS6)
    g = build_epsilon_graph(iv.net, EPS6)
    assert len(np.unique(components_of(g))) == 1


def test_graph_components_sine_chains_to_segment():
    sine = xl.make_space("sine", EPS8)
    g = build_epsilon_graph(sine.net, 2 * EPS8)
    labels = components_of(g)
    assert len(np.unique(labels)) == 1
    oracle = components_by_unionfind(len(sine.net), g.edges)
    assert np.array_equal(labels, oracle)


def test_graph_components_canonical_ids_are_smallest_members():
    g = build_epsilon_graph(line_net([0.0, 10.0, 0.4, 10.3]), 0.5)
    labels = components_of(g)
    for lab in np.unique(labels):
        members = np.nonzero(labels == lab)[0]
        assert lab == members.min()


def test_epsilon_graph_edges_match_dense_relation(rng):
    # the edge set is exactly the distance-<=-scale relation
    pts = rng.random((80, 2))
    net = Net(pts, 0.25)
    scale = 0.21
    g = build_epsilon_graph(net, scale)
    diff = pts[:, None, :] - pts[None, :, :]
    dense = np.sqrt((diff ** 2).sum(axis=2))
    want = {(i, j) for i in range(80) for j in range(i + 1, 80)
            if dense[i, j] <= scale}
    got = {(int(a), int(b)) for a, b in g.edges}
    assert got == want


def test_matrix_metric_triangle_spot_check():
    from extenlab.metric import MatrixMetric
    mat = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    net = Net(np.zeros((3, 1)), 1.0, MatrixMetric(mat))
    assert spot_check_triangle(net, samples=100) <= 0.0
    cone = xl.cone(xl.make_space("ndagger", 2.0 ** -4))
    assert spot_check_triangle(cone.net, samples=300) <= 1e-12


def test_matrix_metric_refuses_a_matrix_no_metric_has():
    from extenlab.metric import MatrixMetric
    nan = float("nan")
    mat = np.array([[0.0, 1.0, nan], [1.0, 0.0, 2.0], [nan, 2.0, 0.0]])
    MatrixMetric(mat)                   # NaN holes matching across i, j
    for bad in (mat[0], np.triu(mat), mat + np.eye(3), mat[:2],
                np.where(np.eye(3) == 1, nan, mat)):
        with pytest.raises(InvalidArgument, match="distance matrix"):
            MatrixMetric(bad)


def test_components_refine_under_smaller_scale(rng):
    pts = rng.random((60, 2))
    net = Net(pts, 0.25)
    fine = components_of(build_epsilon_graph(net, 0.08))
    coarse = components_of(build_epsilon_graph(net, 0.2))
    # same fine class -> same coarse class
    for lab in np.unique(fine):
        members = np.nonzero(fine == lab)[0]
        assert len(np.unique(coarse[members])) == 1


# ---------------------------------------------------------------------------
# widest paths


def test_widest_path_src_equals_dst():
    g = build_epsilon_graph(line_net([0.0, 1.0, 2.0]), 1.0)
    assert widest_path_value(g, 1, 1, np.array([3.0, 7.0, 1.0])) == 7.0


def test_widest_path_forced_minimum():
    g = build_epsilon_graph(line_net([0.0, 1.0, 2.0]), 1.0)
    assert widest_path_value(g, 0, 2, np.array([1.0, 0.2, 1.0])) == 0.2


def test_widest_path_unreachable_is_minus_inf():
    g = build_epsilon_graph(line_net([0.0, 5.0]), 1.0)
    assert widest_path_value(g, 0, 1, np.array([1.0, 1.0])) == float("-inf")


def test_widest_path_invalid_index():
    g = build_epsilon_graph(line_net([0.0, 1.0]), 1.0)
    with pytest.raises(InvalidArgument):
        widest_path_value(g, 0, 9, np.array([1.0, 1.0]))


def test_widest_path_comb_tips_dip_to_base():
    comb = xl.make_space("comb", EPS6)
    g = build_epsilon_graph(comb.net, 2 * EPS6)
    pts = comb.net.points
    tip2 = int(np.nonzero((pts[:, 0] == 0.5) & (pts[:, 1] == 1.0))[0][0])
    tip3 = int(np.nonzero((pts[:, 0] == 1 / 3) & (pts[:, 1] == 1.0))[0][0])
    value = widest_path_value(g, tip2, tip3, lambda p: p[:, 1])
    assert value <= 2.0 ** -5
    assert value == 0.0  # the base is the only bridge


def test_widest_path_symmetric_and_monotone_in_scale(rng):
    pts = rng.random((15, 2))
    net = Net(pts, 0.3)
    h = rng.random(15)
    prev = float("-inf")
    for scale in (0.15, 0.3, 0.6):
        g = build_epsilon_graph(net, scale)
        v1 = widest_path_value(g, 0, 7, h)
        v2 = widest_path_value(g, 7, 0, h)
        assert v1 == v2
        assert v1 >= prev
        prev = v1


def reachable_loop(adj, allowed, src, dst):
    """Frontier BFS over per-node neighbour lists of the edge arrays; the
    reference reachable must agree with."""
    if not (allowed[src] and allowed[dst]):
        return False
    if src == dst:
        return True
    seen = np.zeros(len(allowed), dtype=bool)
    seen[src] = True
    frontier = np.array([src])
    nbrs_of = [[] for _ in range(len(allowed))]
    for a, b in zip(*adj):
        nbrs_of[a].append(b)
        nbrs_of[b].append(a)
    while len(frontier):
        nbrs = np.unique(np.array(
            [w for u in frontier for w in nbrs_of[u]], dtype=int))
        nbrs = nbrs[allowed[nbrs] & ~seen[nbrs]]
        if len(nbrs) == 0:
            return False
        if seen[dst] or dst in nbrs:
            return True
        seen[nbrs] = True
        frontier = nbrs
    return False


def test_reachable_matches_the_frontier_loop(rng):
    from extenlab.metric import reachable
    answers = set()
    for trial in range(200):
        n = int(rng.integers(1, 40))
        g = build_epsilon_graph(Net(rng.random((n, 2)), 0.3),
                                float(rng.uniform(0.05, 0.4)))
        adj = g.adjacency()
        allowed = rng.random(n) < rng.uniform(0.3, 1.0)
        for src, dst in rng.integers(0, n, size=(5, 2)):
            got = reachable(adj, allowed, int(src), int(dst))
            assert got is reachable_loop(adj, allowed, int(src), int(dst))
            answers.add(got)
    assert answers == {True, False}


def test_widest_path_matches_exhaustive_search(rng):
    # sparse instances keep the exponential oracle honest and fast
    for trial in range(100):
        n = int(rng.integers(2, 21))
        pts = rng.random((n, 2))
        net = Net(pts, 0.4)
        scale = float(rng.uniform(0.12, 0.3))
        g = build_epsilon_graph(net, scale)
        h = rng.random(n)
        src, dst = rng.integers(0, n, size=2)
        got = widest_path_value(g, int(src), int(dst), h)
        want = exhaustive_widest_path(n, g.edges, int(src), int(dst), h) \
            if src != dst else h[src]
        assert got == pytest.approx(want, abs=0.0)


# ---------------------------------------------------------------------------
# moduli


def test_modulus_lipschitz_and_step_evaluate():
    lip = Modulus.lip(2.0)
    assert lip(0.0) == 0.0 and lip(0.5) == 1.0
    step = Modulus.step([(0.0, 0.0), (0.1, 0.3), (1.0, 1.5)])
    assert step(0.0) == 0.0
    assert step(0.05) == 0.3
    assert step(0.1) == 0.3
    assert step(0.7) == 1.5
    assert step(5.0) == 1.5


def test_modulus_step_table_must_start_at_zero():
    with pytest.raises(InvalidArgument):
        Modulus.step([(0.1, 0.2)])


def test_modulus_rejects_non_finite_entries():
    # a NaN or infinite constant or table entry would make every modulus
    # check pass, e.g. for clip(sin 40x) on the interval against L = NaN
    nan, inf = float("nan"), float("inf")
    for constant in (nan, inf, -1.0):
        with pytest.raises(InvalidArgument):
            Modulus.lip(constant)
    for table in ([(0.0, 0.0), (nan, 1.0)], [(0.0, 0.0), (0.5, nan)],
                  [(0.0, 0.0), (inf, 1.0)], [(0.0, 0.0), (0.5, inf)]):
        with pytest.raises(InvalidArgument):
            Modulus.step(table)


@given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_modulus_monotone(ts):
    m = Modulus.step([(0.0, 0.0), (0.5, 0.2), (2.0, 1.0), (20.0, 1.4)])
    vals = m(np.sort(np.asarray(ts)))
    assert np.all(np.diff(vals) >= 0)


def test_check_modulus_constant_map_any_modulus():
    iv = xl.make_space("interval", EPS6)
    f = MapSample(iv.net, iv, np.full((len(iv.net), 1), 0.25), Modulus.lip(0.0))
    assert check_modulus(f, 0.0)


def test_check_modulus_underdeclared_lipschitz_fails():
    iv = xl.make_space("interval", EPS6)
    f = MapSample(iv.net, iv, iv.net.points.copy(), Modulus.lip(0.5))
    assert not check_modulus(f, 0.0)
    assert check_modulus(f, 1.0)  # slack bails it out


def test_check_modulus_comb_member_exact():
    fam = xl.example_family("comb", EPS8)
    member = fam.member(5)
    assert check_modulus(member, 0.0)
    assert check_modulus(member, 2 * EPS8)


def test_measured_modulus_self_consistent(rng):
    iv = xl.make_space("interval", EPS6)
    values = np.column_stack([np.sin(3 * iv.net.points[:, 0])])
    m = measured_modulus(iv.net, values)
    f = MapSample(iv.net, iv, values, m)
    assert check_modulus(f, 0.0)


# ---------------------------------------------------------------------------
# sup metric


def test_sup_distance_identity_is_zero():
    fam = xl.example_family("comb", EPS8)
    assert sup_distance(fam.member(3), fam.member(3)) == 0.0


def test_sup_distance_comb_member_three():
    fam = xl.example_family("comb", EPS8)
    assert sup_distance(fam.member(3), fam.limit) == 0.25


def test_sup_distance_earring_member_two():
    fam = xl.example_family("hawaii", EPS8)
    assert sup_distance(fam.member(2), fam.limit) == 2.0 / 3.0


def test_sup_distance_domain_mismatch():
    comb = xl.example_family("comb", EPS8)
    sine = xl.example_family("sine-eopen", EPS8)
    with pytest.raises(DomainMismatch):
        sup_distance(comb.member(1), sine.member(1))


def test_sup_metric_axioms_on_random_triples(rng):
    iv = xl.make_space("interval", EPS6)
    net = iv.net
    n = len(net)

    def random_map():
        vals = rng.random((n, 1))
        return MapSample(net, iv, vals, Modulus.lip(50.0))

    for _ in range(1000):
        f, g, h = random_map(), random_map(), random_map()
        dfg = sup_distance(f, g)
        assert dfg >= 0.0
        assert dfg == sup_distance(g, f)
        assert sup_distance(f, f) == 0.0
        assert sup_distance(f, h) <= dfg + sup_distance(g, h) + 1e-12
    same = random_map()
    clone = MapSample(net, iv, same.values.copy(), same.modulus)
    assert sup_distance(same, clone) == 0.0


def test_family_sup_strictly_decreasing_to_zero():
    for name in ("comb", "sine-eopen", "pathcomp", "ndagger-eopen", "hawaii"):
        fam = xl.example_family(name, EPS8)
        sups = [sup_distance(fam.member(n), fam.limit)
                for n in range(1, min(fam.n_bound, 12) + 1)]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < sups[0]
        assert sups[-1] <= 2.0 / (len(sups))


# ---------------------------------------------------------------------------
# the block-pair engine against the full-row reference

_REFERENCE_ROWS = 2048


def _reference_cross(p, q):
    if p.shape[1] == 1:
        return np.abs(p[:, 0][:, None] - q[:, 0][None, :])
    if p.shape[1] == 2:
        return np.hypot(p[:, 0][:, None] - q[:, 0][None, :],
                        p[:, 1][:, None] - q[:, 1][None, :])
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def reference_measured_modulus_multi(net, values_list, n_buckets=24):
    """The row-chunked loop the engine replaced, kept as the oracle."""
    n = len(net)
    dmax = 0.0
    for lo in range(0, n, _REFERENCE_ROWS):
        idx = np.arange(lo, min(lo + _REFERENCE_ROWS, n))
        dmax = max(dmax, float(net.dist_idx(idx, np.arange(n)).max()))
    if dmax == 0.0:
        return Modulus.step([(0.0, 0.0)])
    radii = dmax * 2.0 ** np.arange(-(n_buckets - 1), 1.0)
    peaks = np.zeros(len(radii))
    for lo in range(0, n, _REFERENCE_ROWS):
        idx = np.arange(lo, min(lo + _REFERENCE_ROWS, n))
        dd = net.dist_idx(idx, np.arange(n))
        pos = np.clip(np.searchsorted(radii, dd, side="left"),
                      0, len(radii) - 1).ravel()
        for values in values_list:
            dv = _reference_cross(values[idx], values)
            np.maximum.at(peaks, pos, dv.ravel())
    bounds = np.maximum.accumulate(peaks)
    return Modulus.step([(0.0, 0.0)] + list(zip(radii.tolist(), bounds.tolist())))


def reference_check_modulus(f, slack):
    net = f.domain
    values = f.values
    if len(np.unique(values, axis=0)) == 1:
        return True
    n = len(net)
    for lo in range(0, n, _REFERENCE_ROWS):
        idx = np.arange(lo, min(lo + _REFERENCE_ROWS, n))
        dd = net.dist_idx(idx, np.arange(n))
        dv = _reference_cross(values[idx], values)
        if np.any(dv > f.modulus(dd) + slack + 1e-12):
            return False
    return True


def _random_nets(rng, n):
    from extenlab.metric import ConeMetric, MatrixMetric, MaxProductMetric
    pts = np.round(rng.random((n, 3)), 3)       # ties and repeated distances
    pts[-4:] = pts[:4]                          # duplicate points: d == 0
    sym = rng.random((n, n))
    sym = sym + sym.T
    np.fill_diagonal(sym, 0.0)
    dup = np.arange(4)
    sym[dup, n - 4 + dup] = sym[n - 4 + dup, dup] = 0.0
    nets = {"euclidean-1d": Net(pts[:, :1], 0.1),
            "euclidean-2d": Net(pts[:, :2], 0.1),
            "euclidean-3d": Net(pts, 0.1),
            "max-product": Net(pts, 0.1, MaxProductMetric(1)),
            "cone": Net(pts, 0.1, ConeMetric()),
            "matrix": Net(pts[:, :1], 0.1, MatrixMetric(sym))}
    return nets


# 1 MiB is the shipped budget; the small ones force many row blocks and,
# at 40 cells, blocks of one row wider than the budget
BUDGETS = [1 << 20, 8 * 900, 8 * 40]


@pytest.mark.parametrize("budget", BUDGETS)
def test_pair_blocks_cover_the_grid_within_budget(monkeypatch, budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 97
    for upper in (False, True):
        seen = np.zeros((n, n), dtype=int)
        order = []
        for rows, cols in metric.pair_blocks(n, n, upper):
            assert cols.stop == n
            assert (rows.stop - rows.start) * (n - cols.start) * 8 <= budget \
                or rows.stop - rows.start == 1
            seen[rows, cols] += 1
            order.append((rows.start, cols.start))
        assert order == sorted(order)
        assert seen.max() == 1
        covered = seen + seen.T if upper else seen
        assert covered.min() >= 1


@pytest.mark.parametrize("budget", BUDGETS)
def test_engine_matches_reference_on_all_metric_kinds(monkeypatch, rng, budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 120
    for kind, net in _random_nets(rng, n).items():
        values_list = [rng.random((n, 2)), np.round(rng.random((n, 1)), 2),
                       rng.random((n, 3))]
        for vl in (values_list[:1], [values_list[0], rng.random((n, 2))],
                   [values_list[2], rng.random((n, 3))]):
            want = reference_measured_modulus_multi(net, vl).table()
            assert metric.measured_modulus_multi(net, vl).table() == want, kind
        for values in values_list:
            for modulus in (Modulus.lip(1.0), Modulus.lip(20.0),
                            reference_measured_modulus_multi(net, [values])):
                f = MapSample(net, None, values, modulus)
                for slack in (0.0, 0.05):
                    assert check_modulus(f, slack) == \
                        reference_check_modulus(f, slack), kind


def test_check_modulus_finds_the_one_pair_across_a_block_boundary(
        monkeypatch, rng):
    from extenlab import metric
    n = 60
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * 7 * n)   # 7-row blocks
    mat = np.full((n, n), 10.0)
    np.fill_diagonal(mat, 0.0)
    i, j = 6, 7                       # last row of block 0, first of block 1
    mat[i, j] = mat[j, i] = 0.01
    values = rng.random((n, 1))
    values[i], values[j] = 0.0, 0.5
    net = Net(np.zeros((n, 1)), 1.0, metric.MatrixMetric(mat.copy()))
    f = MapSample(net, None, values, Modulus.lip(1.0))
    assert reference_check_modulus(f, 0.0) is False
    assert check_modulus(f, 0.0) is False
    mat[j, i] = mat[i, j] = 10.0
    healed = MapSample(Net(np.zeros((n, 1)), 1.0, metric.MatrixMetric(mat)),
                       None, values, Modulus.lip(1.0))
    assert check_modulus(healed, 0.0) is reference_check_modulus(healed, 0.0) \
        is True


def test_constant_map_tests_agree_on_signed_zero_and_nan():
    net = line_net(np.arange(6.0))
    mixed = np.array([[0.0, 1.0], [-0.0, 1.0]] * 3)
    nan = np.full((6, 2), np.nan)
    for values in (mixed, nan, np.zeros((6, 1)), -np.zeros((6, 1))):
        f = MapSample(net, None, values, Modulus.lip(0.0))
        assert check_modulus(f, 0.0) is reference_check_modulus(f, 0.0) is True
        assert len(f._distinct_values()) == len(np.unique(values, axis=0))
    for values in (mixed, np.zeros((6, 1))):
        assert measured_modulus(net, values).table() == \
            reference_measured_modulus_multi(net, [values]).table()
        assert MapSample(net, None, values, Modulus.lip(0.0)) \
            .value_diameter() == 0.0


def test_matrix_net_resolves_only_its_own_points():
    from extenlab.metric import MatrixMetric
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [-0.0, 5.0]])
    net = Net(pts, 1.0, MatrixMetric(np.ones((4, 4)) - np.eye(4)))
    idx, dist = net.nearest([[2.0, 3.0], [0.0, 1.0], [0.0, 5.0]])
    assert idx.tolist() == [1, 0, 3] and dist.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(InvalidArgument):
        net.nearest([[2.0, 3.0000001]])


def test_check_modulus_peak_memory_is_bounded():
    import tracemalloc
    ext = xl.explicit_extension("sine-eopen", None, EPS8)
    assert len(ext.domain) == 6268
    tracemalloc.start()
    try:
        assert check_modulus(ext, 2 * EPS8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20        # full-row chunks allocate ~500 MB


def test_vectorised_unionfind_matches_the_loop(rng):
    from conftest import components_by_unionfind_loop
    for trial in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        edges = rng.integers(0, n, size=(m, 2))
        want = components_by_unionfind_loop(n, edges)
        assert np.array_equal(components_by_unionfind(n, edges), want)
    chain = np.column_stack([np.arange(999, 0, -1), np.arange(998, -1, -1)])
    assert components_by_unionfind(1000, chain).tolist() == [0] * 1000


# ---------------------------------------------------------------------------
# derived pair data: diameter, pair codes, nearest-point index


def measured_at(buckets, net, values_list):
    """measured_modulus_multi with metric._BUCKETS set to buckets, its
    table read under the patch, so later reads keep that count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_BUCKETS", buckets)
        modulus = measured_modulus_multi(net, values_list)
        modulus.table()
        return modulus


def _check_moduli(net, values, other):
    """(modulus, read through the pair codes?) covering both check paths."""
    own = [measured_at(k, net, [v]) for v in (values, other)
           for k in (1, 24, 254)]
    table = own[1].table()
    halved = Modulus.step([(r, b / 2) for r, b in table])
    # within and beyond the 1e-12 the test adds to every bound
    nudged = [Modulus.step([(r, b * (1 - cut)) for r, b in table])
              for cut in (1e-13, 1e-11)]
    wider = Modulus.step([(2 * r, b) for r, b in table])      # another top
    uneven = Modulus.step([(0.0, 0.0)] + [
        (r * (1 + 1e-3 * i), b) for i, (r, b) in enumerate(table[1:])])
    return ([(m, True) for m in own + [halved] + nudged]
            + [(m, False) for m in (wider, uneven, Modulus.lip(1.0),
                                    Modulus.lip(20.0))])


# (_BLOCK_BYTES while the table is stored, afterwards, _TABLE_BYTES)
CACHE_CASES = [(1 << 20, 8 * 40, None), (8 * 40, 1 << 20, None),
               (1 << 20, 8 * 40, 0)]


@pytest.mark.parametrize("before, after, table_bytes", CACHE_CASES)
def test_pair_codes_match_reference_cold_and_warm(monkeypatch, rng, before,
                                                  after, table_bytes):
    from extenlab import metric
    if table_bytes is not None:
        monkeypatch.setattr(metric, "_TABLE_BYTES", table_bytes)
    n = 90
    outcomes = set()
    for kind, net in _random_nets(rng, n).items():
        values_list = [rng.random((n, 2)), np.round(rng.random((n, 2)), 2)]
        for values in values_list:
            values[-4:] = values[:4]          # maps agree on duplicates
        monkeypatch.setattr(metric, "_BLOCK_BYTES", before)
        cold = {k: measured_at(k, net, values_list).table()
                for k in (1, 24, 254)}
        assert (net._pair_table[1] is None) == (table_bytes == 0), kind
        monkeypatch.setattr(metric, "_BLOCK_BYTES", after)
        for k in (1, 24, 254):
            want = reference_measured_modulus_multi(net, values_list, k)
            assert cold[k] == want.table(), kind
            for vl in (values_list, values_list[1:]):
                assert measured_at(k, net, vl).table() == \
                    reference_measured_modulus_multi(net, vl, k).table(), kind
        values, other = values_list
        for modulus, coded in _check_moduli(net, values, other):
            assert (own_bucket_count(net, modulus) > 0) is coded, kind
            f = MapSample(net, None, values, modulus)
            for slack in (0.0, 0.05):
                got = check_modulus(f, slack)
                assert got == reference_check_modulus(f, slack), kind
                outcomes.add((coded, got))
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_code_edges_hold_the_radii_of_every_bucket_count():
    from extenlab.metric import _RADII
    for dmax in (1.0, np.sqrt(2.0), 0.3, 7.5e10, 1e-300):
        edges = dmax * 2.0 ** np.arange(1 - _RADII, 1.0)
        for k in range(1, _RADII + 1):
            radii = dmax * 2.0 ** np.arange(-(k - 1), 1.0)
            assert edges[-k:].tobytes() == radii.tobytes()


def _searchsorted_codes(d, dmax):
    from extenlab.metric import _edges
    return np.searchsorted(_edges(dmax), d, side="left").astype(np.uint8)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_pair_codes_from_exponents_match_searchsorted(rng):
    from extenlab import metric
    for kind, net in _random_nets(rng, 60).items():
        for rows, cols, codes, *_ in net._pair_codes():
            want = _searchsorted_codes(net.dist_idx(rows, cols), net._dmax)
            assert np.array_equal(codes, want), kind
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                         -5e-324, 1e-310, 1e308])
    # normal dmax take the exponents; 2^-770, 0, inf and NaN searchsorted
    for dmax in (2.0 ** -30, 1.0, 3.7, 1e300, 2.0 ** -760, 2.0 ** -770, 0.0,
                 np.inf, np.nan):
        edges = metric._edges(dmax)
        spread = dmax * 2.0 ** -rng.integers(0, 300, 3000)
        d = np.concatenate([rng.random(3000) * dmax, spread * rng.random(3000),
                            edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf), specials])
        assert np.array_equal(metric._codes(d, dmax),
                              _searchsorted_codes(d, dmax)), dmax


def test_measured_modulus_needs_maps_of_one_shape():
    net = line_net([0.0, 1.0, 3.0])
    for values_list in ([np.zeros((3, 1)), np.ones((3, 2))],
                        [np.zeros((3, 2)), np.ones((2, 2))],
                        [np.zeros((2, 1))], [np.zeros(3)], []):
        with pytest.raises(InvalidArgument):
            measured_modulus_multi(net, values_list)


@pytest.mark.parametrize("far, table_bytes", [(0, None), (-2, None),
                                              (0, 0)])
def test_pair_grid_is_evaluated_once_per_net(monkeypatch, rng, far,
                                             table_bytes):
    from extenlab import metric
    if table_bytes is not None:
        monkeypatch.setattr(metric, "_TABLE_BYTES", table_bytes)
    n = 300
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * 10 * n)   # ~10 rows
    cells = []
    dist_idx = Net.dist_idx

    def counting(self, i, j):
        d = dist_idx(self, i, j)
        cells.append(d.size)
        return d

    monkeypatch.setattr(Net, "dist_idx", counting)
    pts = rng.random((n, 2))
    pts[far], pts[far + 1] = (-1.0, -1.0), (2.0, 2.0)   # the diameter pair
    net = Net(pts, 0.1)
    blocks = list(metric.pair_blocks(n, n, upper=True))
    sizes = [(r.stop - r.start) * (c.stop - c.start) for r, c in blocks]
    grid = sum(sizes)
    values = rng.random((n, 1))
    declared = measured_modulus(net, values)
    metric.measured_modulus_multi(net, [values, rng.random((n, 1))]).table()
    assert check_modulus(MapSample(net, None, values, declared), 0.0)
    if table_bytes == 0:
        # nothing stored: the diameter once, then the codes in each call
        assert sum(cells) == 4 * grid
    elif far == 0:
        assert sum(cells) == grid
    else:
        # blocks coded before the one holding the diameter, coded again
        assert sum(cells) == grid + sum(sizes[:-1])


def test_one_grid_per_net(monkeypatch, rng):
    from scipy.spatial import cKDTree
    from extenlab import metric
    built = []

    class CountingGrid(metric._Grid):
        def __init__(self, points, radius):
            built.append(radius)
            super().__init__(points, radius)

    monkeypatch.setattr(metric, "_Grid", CountingGrid)
    pts = rng.random((400, 2))
    net = Net(pts, 0.05)
    queries = rng.random((50, 2))
    for _ in range(3):
        idx, dist = net.nearest(queries)
        a, b = net.adjacency(0.08)
    assert built == [0.05, 0.08]    # the net's index, then its graph's
    want_dist, want_idx = cKDTree(pts).query(queries)
    assert idx.tolist() == want_idx.tolist()
    assert dist.tobytes() == want_dist.tobytes()
    pairs = cKDTree(pts).query_pairs(0.08, output_type="ndarray")
    assert np.column_stack([a, b]).tolist() == sorted(pairs.tolist())
    Net(pts.copy(), 0.05).nearest(queries)
    assert len(built) == 3                      # a grid per net, not shared


def test_matrix_net_builds_its_lookup_once(monkeypatch):
    from extenlab.metric import MatrixMetric
    calls = []
    index = MatrixMetric.index
    monkeypatch.setattr(MatrixMetric, "index",
                        lambda self, *a: calls.append(1) or index(self, *a))
    net = Net(np.array([[0.0], [2.0]]), 1.0, MatrixMetric(1 - np.eye(2)))
    for _ in range(3):
        assert net.nearest([[2.0], [0.0]])[0].tolist() == [1, 0]
    assert len(calls) == 1


def test_dist_pairs_is_the_diagonal_bit_for_bit(rng):
    n = 150
    nets = _random_nets(rng, n)
    nets["euclidean-5d"] = Net(rng.random((n, 5)), 0.1)
    i, j = rng.integers(0, n, 400), rng.integers(0, n, 400)
    for kind, net in nets.items():
        want = np.diagonal(net.dist_idx(i, j))
        assert net.dist_pairs(i, j).tobytes() == want.tobytes(), kind


def test_writes_through_a_base_array_reach_no_net_or_map(rng):
    from extenlab.maps import Homotopy
    from extenlab.metric import MatrixMetric
    n = 100
    base = rng.random((2 * n, 2))
    net = Net(base[:n], 0.1)                  # views of writeable arrays
    raw = rng.random((3 * n, 1))
    f = MapSample(net, None, raw[n:2 * n, 0], Modulus.lip(1.0))
    mats = rng.random((2, n, n))
    mats += mats.transpose(0, 2, 1)
    mats[:, np.arange(n), np.arange(n)] = 0.0
    mnet = Net(np.zeros((n, 1)), 0.1, MatrixMetric(mats[0]))
    steps = rng.random((3, n, 1))
    h = Homotopy(net, None, np.linspace(0.0, 1.0, 3), steps[:, :, :],
                 Modulus.lip(1.0))
    points, values, matrix = base[:n].copy(), raw[n:2 * n].copy(), \
        mats[0].copy()
    declared = measured_modulus(net, values)
    answers = (check_modulus(f, 0.0), net.nearest(points[:7])[0].tolist(),
               measured_modulus(mnet, values).table())
    base[:] = 0.0
    raw[:] = 5.0
    mats[:] = 0.0
    steps[:] = 0.0
    assert net.points.tobytes() == points.tobytes()
    assert f.values.tobytes() == values.tobytes()
    assert mnet.metric.matrix.tobytes() == matrix.tobytes()
    assert np.all(h.values != 0.0)
    fresh = Net(points.copy(), 0.1)
    assert measured_modulus(net, f.values).table() == declared.table() == \
        measured_modulus(fresh, values).table()
    assert (check_modulus(f, 0.0), net.nearest(points[:7])[0].tolist(),
            measured_modulus(mnet, values).table()) == answers


def test_owned_arrays_are_frozen_in_place_and_frozen_views_kept(rng):
    from extenlab.maps import Homotopy
    pts = rng.random((20, 2))
    net = Net(pts, 0.1)
    assert net.points is pts and not pts.flags.writeable
    slices = rng.random((4, 20, 1))
    h = Homotopy(net, None, np.linspace(0.0, 1.0, 4), slices,
                 Modulus.lip(1.0))
    assert h.values is slices and not slices.flags.writeable
    # a slice is a view of frozen values: kept, not copied
    assert np.shares_memory(h.slice(1.0).values, h.values)


# ---------------------------------------------------------------------------
# screened kernels against the unscreened per-block kernels they replaced


def bucket_of_code(k):
    """Per pair code, the bucket among a net's top k dyadic radii of each
    distance the code holds: code c in 1..254 holds (edges[c-1], edges[c]]
    (see metric._edges) and the radii are edges[255-k:255], so
    searchsorted(radii, d, "left") is c - 255 + k, clipped to [0, k - 1];
    code 0 (d <= 0) is bucket 0 and code 255 the last."""
    return np.clip(np.arange(256) - 255 + k, 0, k - 1)


def unscreened_bounds(net, values_list, n_buckets=24):
    """measured_modulus_multi's radii and bounds from every pair's
    np.hypot, as the per-block kernel computed them before the screen."""
    from extenlab import metric
    dmax = net._dmax
    if dmax == 0.0:
        return np.empty(0), np.empty(0)
    radii = dmax * 2.0 ** np.arange(-(n_buckets - 1), 1.0)
    bucket = bucket_of_code(n_buckets)
    peaks = np.zeros(len(radii))
    for rows, cols, codes, *_ in net._pair_codes():
        dv = functools.reduce(np.maximum,
                              (metric._euclidean(v[rows][:, None, :],
                                                 v[cols][None, :, :])
                               for v in values_list))
        np.maximum.at(peaks, bucket[codes].ravel(), dv.ravel())
    return radii, np.maximum.accumulate(peaks)


def own_bucket_count(net, modulus):
    """K if modulus is a step table over [0] and the net's own top K
    dyadic radii, bit for bit; else 0."""
    from extenlab.metric import _RADII
    if modulus.kind != "step":
        return 0
    radii, k = modulus.radii, len(modulus.radii) - 1
    if not (1 <= k <= _RADII and len(modulus.bounds) == k + 1
            and radii[0] == 0.0 and radii[-1] > 0.0
            and np.array_equal(radii[1:],
                               radii[-1] * 2.0 ** np.arange(1 - k, 1.0))):
        return 0
    return k if radii[-1] == net._dmax else 0


def unscreened_check_modulus(f, slack):
    """check_modulus before the screen: every pair's np.hypot against
    omega(d) + slack + 1e-12."""
    from extenlab import metric
    net, modulus, values = f.domain, f.modulus, f.values
    if np.all(values == values[0]):
        return True
    k = own_bucket_count(net, modulus)
    if k:
        step = np.r_[0, 1 + bucket_of_code(k)[1:]]
        table = (modulus.bounds + slack + 1e-12)[step]
        blocks = ((rows, cols, table[codes])
                  for rows, cols, codes, *_ in net._pair_codes())
    else:
        blocks = ((rows, cols, modulus(net.dist_idx(rows, cols)) + slack
                   + 1e-12) for rows, cols in net._blocks())
    for rows, cols, allowed in blocks:
        if np.any(metric._euclidean(values[rows][:, None, :],
                                    values[cols][None, :, :]) > allowed):
            return False
    return True


SPECIAL_VALUES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                  "huge": 1e300, "-huge": -1e300, "tiny": 1e-170,
                  "-zero": -0.0}


def _screen_value_sets(rng, net, dim):
    """Value arrays that stress the screens, by name."""
    n = len(net)
    ties = np.round(rng.random((n, dim)), 1)
    sets = {"ties": ties,
            # a few ulps apart from the ties: near-ties in every bucket
            "near-ties": ties * (1 + rng.integers(-2, 3, (n, dim))
                                 * 2.0 ** -52),
            # squares around the least subnormal, 2^-1074
            "tiny": rng.random((n, dim)) * 3e-162,
            "huge": (rng.random((n, dim)) - 0.5) * 1e300}
    if isinstance(net.metric, EuclideanMetric) and net.dimension == dim:
        sets["identity"] = net.points.copy()      # value distance == d
    for name, special in SPECIAL_VALUES.items():
        values = rng.random((n, dim))
        values[rng.integers(0, n, 3), rng.integers(0, dim, 3)] = special
        sets[name] = values
    if dim > 1:                   # np.hypot(inf, nan) is inf, the sum nan
        sets["inf-nan"] = rng.random((n, dim))
        sets["inf-nan"][rng.integers(0, n), :2] = (np.inf, np.nan)
    for values in sets.values():
        values[-4:] = values[:4]      # maps agree on the duplicate points
    return sets


def _assert_bounds_equal(net, values_list, n_buckets):
    from extenlab import metric
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metric, "_BUCKETS", n_buckets)
        got = metric._measured_bounds(net, np.array(values_list, dtype=float))
    want = unscreened_bounds(net, values_list, n_buckets)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("budget", BUDGETS)
def test_screened_kernels_match_the_unscreened_ones(monkeypatch, rng,
                                                   budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 48
    outcomes = set()
    for kind, net in _random_nets(rng, n).items():
        for dim in (1, 2, 3):
            sets = _screen_value_sets(rng, net, dim)
            ties, near = sets["ties"], sets["near-ties"]
            one_ulp = ties.copy()                 # a bucket max 1 ulp up
            one_ulp[rng.integers(0, n)] = np.nextafter(one_ulp[0], np.inf)
            for k in (1, 24):
                _assert_bounds_equal(net, [ties, near, one_ulp], k)
            own = measured_modulus(net, ties)
            wider = Modulus.step([(2 * r, b) for r, b in own.table()])
            for name, values in sets.items():
                for values_list in ([values], [values, ties],
                                    [values, np.roll(values, 1, axis=0)],
                                    [near, values, one_ulp]):
                    _assert_bounds_equal(net, values_list, 24)
                # 1e160 squared overflows: a bound the screen cannot use
                for modulus in (own, wider, Modulus.lip(1.0),
                                Modulus.lip(20.0), Modulus.lip(1e160)):
                    f = MapSample(net, None, values, modulus)
                    for slack in (0.0, 0.05):
                        got = check_modulus(f, slack)
                        assert got == unscreened_check_modulus(f, slack), \
                            (kind, dim, name)
                        outcomes.add(got)
    assert outcomes == {True, False}


def _one_moved_point(net, modulus, slack, dim, ulps):
    """Values equal but at one point j, moved by the least allowance of
    j's pairs shifted by ulps: only ulps > 0 violates the modulus."""
    n = len(net)
    j = n // 2
    others = np.delete(np.arange(n), j)
    d = np.r_[net.dist_idx([j], others)[0], net.dist_idx(others, [j])[:, 0]]
    a = float((modulus(d) + slack + 1e-12).min())
    for _ in range(abs(ulps)):
        a = np.nextafter(a, np.inf if ulps > 0 else 0.0)
    values = np.full((n, dim), 0.75)
    values[:, 0] = 0.0
    values[j, 0] = a                  # every distance to j is exactly a
    return values


@pytest.mark.parametrize("budget", BUDGETS[:2])
def test_check_modulus_decides_pairs_within_an_ulp_of_allowed(monkeypatch,
                                                              rng, budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 48
    for kind, net in _random_nets(rng, n).items():
        own = measured_modulus(net, rng.random((n, 2)))
        moduli = [own, Modulus.step([(2 * r, b) for r, b in own.table()]),
                  Modulus.lip(1.0), Modulus.lip(3.0)]
        for modulus in moduli:
            for dim in (1, 2, 3):
                for slack in (0.0, 0.05):
                    for ulps in (-1, 0, 1):
                        f = MapSample(net, None, _one_moved_point(
                            net, modulus, slack, dim, ulps), modulus)
                        assert check_modulus(f, slack) is (ulps <= 0) \
                            is unscreened_check_modulus(f, slack), \
                            (kind, dim, slack, ulps)


def test_check_screen_margin_covers_the_rounding_of_squares(rng):
    # offsets whose fl(x^2 + y^2) is at most fl(a^2) for a one ulp below
    # np.hypot(x, y): without a margin the screen would pass them
    xy = 1e6 * (1.0 + rng.random((20000, 2)))
    x, y = xy.T
    h = np.hypot(x, y)
    below = np.nextafter(h, 0.0)
    fooled = np.flatnonzero(x * x + y * y <= below * below)
    assert len(fooled) > 20
    for net in (line_net([0.0, 1.0]), Net(np.array([[0.0, 0.0],
                                                    [1.0, 0.0]]), 0.5)):
        for k in fooled[:20]:
            values = np.array([[0.0, 0.0], xy[k]])
            # 1e-12 is below half an ulp of these constants: allowed == L
            for constant, holds in ((below[k], False), (h[k], True)):
                f = MapSample(net, None, values, Modulus.lip(constant))
                assert check_modulus(f, 0.0) is holds \
                    is unscreened_check_modulus(f, 0.0)


def test_planar_net_screen_keeps_a_distance_at_a_step_radius(rng):
    # a screen of the net distance d by sqrt(s), s the sum of its
    # squares, would err: sqrt(s) can exceed np.hypot's d by an ulp, or
    # by far when the squares are subnormal, and a step table with a
    # radius at d would then jump to its next bound
    xy = rng.random((2000, 2))
    x, y = xy.T
    over = np.flatnonzero(np.sqrt(x * x + y * y) > np.hypot(x, y))
    assert len(over)
    for dx, dy in [tuple(xy[k]) for k in over[:10]] + [(1.8e-162, 0.0)]:
        d = float(np.hypot(dx, dy))
        assert np.sqrt(dx * dx + dy * dy) > d
        net = Net(np.array([[0.0, 0.0], [dx, dy]]), 1.0)
        modulus = Modulus.step([(0.0, 0.0), (d, 0.5), (3 * d, 4.0)])
        for slack in (0.0, 0.05):
            allowed = 0.5 + slack + 1e-12
            for a, holds in ((allowed, True),
                             (np.nextafter(allowed, 1.0), False)):
                f = MapSample(net, None, np.array([[0.0, 0.75], [a, 0.75]]),
                              modulus)
                assert check_modulus(f, slack) is holds \
                    is unscreened_check_modulus(f, slack)


@pytest.mark.parametrize("p, q", [
    # rounding: fl(x^2 + y^2) and np.hypot order these two differently
    ((0.5071617982701625, 0.8442094826243638),
     (0.924700775453757, 0.33886754942416897)),
    # underflow: q's squares round to 0, p's to the least subnormal
    ((1.6e-162, 0.0), (1.5e-162, 1.5e-162))])
def test_multi_map_screen_keeps_a_pair_whose_squares_order_lower(p, q):
    # q's squares sum below p's, yet np.hypot puts q above p: q must be
    # evaluated although a screen of its squares by p's would skip it
    assert sum(c * c for c in q) < sum(c * c for c in p)
    assert np.hypot(*q) > np.hypot(*p)
    net = line_net([0.0, 1.0, 1.05])      # d = 1 and 1.05: one bucket
    values = np.array([(0.0, 0.0), p, q])
    for values_list in ([values, np.zeros((3, 2))],
                        [np.zeros((3, 2)), values]):
        _assert_bounds_equal(net, values_list, 24)
        assert measured_modulus_multi(net, values_list).table()[-1] == \
            (1.05, float(np.hypot(*q)))


def test_screen_constants_leave_room_for_the_rounding():
    from extenlab import metric
    u = 2.0 ** -53
    # three-coordinate sums, hypot's ulp and sqrt's rounding together
    assert 16 * u < metric._SCREEN_MARGIN < 2.0 ** -20
    # squares at the floor are normal floats, far above an underflow
    assert metric._SCREEN_FLOOR > 2.0 ** -1022 * 2.0 ** 100
    lim = metric._square_limit(np.array([1.0, 2.0 ** -460, 2.0 ** -440,
                                         1e200, np.inf, np.nan]))
    assert lim[0] == 1.0 - metric._SCREEN_MARGIN
    assert lim[1] == lim[3] == lim[4] == lim[5] == -1.0
    assert lim[2] > 0.0


@pytest.mark.parametrize("budget", BUDGETS[:2])
def test_allowances_bound_every_pair_and_are_exact_where_tight(monkeypatch,
                                                               rng, budget):
    from extenlab import metric
    from extenlab.families import _sqrt_step_modulus
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 48
    loose_codes = set()
    for kind, net in _random_nets(rng, n).items():
        values = rng.random((n, 2))
        own = [measured_at(k, net, [values]) for k in (1, 24, 254)]
        table = own[1].table()
        off_edge = [_sqrt_step_modulus(1.3),
                    Modulus.step([(2 * r, b) for r, b in table]),
                    Modulus.step([(0.0, 0.0)] + [
                        (r * (1 + 1e-3 * i), b)
                        for i, (r, b) in enumerate(table[1:])])]
        lipschitz = [Modulus.lip(c) for c in (0.0, 1.0, 3.0, 1e160)]
        for modulus, is_own in ([(m, True) for m in own]
                                + [(m, False) for m in off_edge + lipschitz]):
            for slack in (0.0, 0.05):
                lo, tight = metric._allowances(net, modulus, slack)
                assert np.isnan(lo[[0, -1]]).all() and not tight[[0, -1]].any()
                held = np.zeros(len(lo), dtype=bool)
                for rows, cols, codes, *_ in net._pair_codes():
                    c = codes.ravel()
                    inner = (c > 0) & (c < len(lo) - 1)
                    d = net.dist_idx(rows, cols).ravel()[inner]
                    allowed = modulus(d) + slack + 1e-12
                    c = c[inner]
                    assert np.all(allowed >= lo[c]), (kind, slack)
                    assert np.array_equal(allowed[tight[c]],
                                          lo[c][tight[c]]), (kind, slack)
                    held[c] = True
                    loose_codes.update((modulus.kind, int(k))
                                       for k in c[~tight[c]])
                if is_own:
                    assert tight[held].all(), (kind, slack)
    # the exact fallback has work: off-edge tables and Lipschitz moduli
    # leave codes that hold pairs without a single allowance
    assert {kind for kind, _ in loose_codes} == {"step", "lipschitz"}


def test_eop_homotopy_frames_leave_few_candidates(monkeypatch):
    # the 4-frame call of the eop-homotopy reproduction at its resolution
    from extenlab import runs
    calls, measure = [], runs.measured_modulus_multi

    def spy(net, values_list, *args, **kwargs):
        modulus = measure(net, values_list, *args, **kwargs)
        calls.append((net, values_list, modulus))
        return modulus

    monkeypatch.setattr(runs, "measured_modulus_multi", spy)
    runs.run_example("eop-homotopy")
    [(net, values_list, modulus)] = calls
    assert len(values_list) == 4
    radii, bounds = unscreened_bounds(net, values_list)
    got = np.array(modulus.table()[1:]).T
    assert np.array_equal(got[0], radii) and np.array_equal(got[1], bounds)


# ---------------------------------------------------------------------------
# tile bounds: whole units of pairs skipped by the boxes of their values


def _count_skips(monkeypatch):
    """Patch metric._unit_runs to count [visited, yielded] pairs."""
    from extenlab import metric
    seen = [0, 0]
    unit_runs = metric._unit_runs

    def counting(net, values_list, limit, seed=False):
        seen[0] += sum(block.codes.size for block in net._pair_codes())
        for run in unit_runs(net, values_list, limit, seed):
            seen[1] += run[2].size
            yield run

    monkeypatch.setattr(metric, "_unit_runs", counting)
    return seen


def _tile_value_sets(rng, net, dim):
    """The screen value sets plus values constant on runs of the net
    order and values smooth in it, which whole units can prove."""
    n = len(net)
    sets = _screen_value_sets(rng, net, dim)
    sets["runs"] = np.repeat(rng.random((n // 4 + 1, dim)), 4, axis=0)[:n]
    sets["smooth"] = np.cumsum(rng.random((n, dim)) * 0.02, axis=0)
    # one coordinate constant: boxes of width 0 there, not elsewhere
    sets["flat"] = sets["smooth"] * np.r_[0.0, np.ones(dim - 1)] + 0.25
    # every square underflows to 0, yet no distance is 0
    sets["underflow"] = sets["smooth"] * 1e-170
    for name in ("runs", "smooth", "flat", "underflow"):
        sets[name][-4:] = sets[name][:4]
    return sets


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize("budget", [1 << 20, 8 * 300])
def test_tiled_kernels_match_the_unscreened_ones(monkeypatch, rng, tile,
                                                 budget):
    from extenlab import metric
    from extenlab.metric import MatrixMetric
    monkeypatch.setattr(metric, "_TILE", tile)
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    seen = _count_skips(monkeypatch)
    n = 30
    nets = _random_nets(rng, n)
    # NaN net distances put pairs in code 255
    holed = nets["matrix"].metric.matrix.copy()
    holed[[3, 17, 20], [25, 8, 21]] = holed[[25, 8, 21], [3, 17, 20]] = np.nan
    nets["matrix-nan"] = Net(nets["matrix"].points, 0.1, MatrixMetric(holed))
    for kind, net in nets.items():
        codes = np.concatenate([b.codes.ravel() for b in net._pair_codes()])
        assert codes.min() == 0
        assert (codes.max() == 255) == (kind == "matrix-nan"), kind
        for dim in (1, 2):
            sets = _tile_value_sets(rng, net, dim)
            own = measured_modulus(net, sets["smooth"])
            for name, values in sets.items():
                for values_list in ([values], [values, np.roll(values, 3, 0)]):
                    _assert_bounds_equal(net, values_list, 24)
                for modulus in (own, Modulus.lip(3.0), Modulus.lip(1e160),
                                Modulus.step([(2 * r, b)
                                              for r, b in own.table()])):
                    f = MapSample(net, None, values, modulus)
                    for slack in (0.0, 0.05):
                        assert check_modulus(f, slack) == \
                            unscreened_check_modulus(f, slack), \
                            (kind, dim, name)
    # whole units were skipped, so the tile rule itself was tested
    assert seen[1] < seen[0]


@pytest.mark.parametrize("tile", [3, 7])
def test_a_lone_violating_pair_at_a_tile_corner_is_found(monkeypatch, rng,
                                                         tile):
    from extenlab import metric
    monkeypatch.setattr(metric, "_TILE", tile)
    n = 6 * tile
    for i, j in ((tile - 1, tile), (tile, tile - 1), (0, n - 1),
                 (n - 1, n - tile)):
        mat = np.full((n, n), 10.0)
        np.fill_diagonal(mat, 0.0)
        mat[i, j] = mat[j, i] = 0.01
        values = np.zeros((n, 1))
        values[i] = 0.5                   # only (i, j) is farther than 10
        net = Net(np.zeros((n, 1)), 1.0, metric.MatrixMetric(mat.copy()))
        f = MapSample(net, None, values, Modulus.lip(1.0))
        assert check_modulus(f, 0.0) is unscreened_check_modulus(f, 0.0) \
            is False, (i, j)
        _assert_bounds_equal(net, [values], 24)
        mat[i, j] = mat[j, i] = 10.0
        healed = MapSample(Net(np.zeros((n, 1)), 1.0,
                               metric.MatrixMetric(mat)),
                           None, values, Modulus.lip(1.0))
        assert check_modulus(healed, 0.0) is True, (i, j)


def test_nan_distance_keeps_the_diameter_and_the_declared_table():
    # the NaN pair keeps code 255; the other pairs set the diameter
    from extenlab import metric
    nan = float("nan")
    net = Net(np.zeros((3, 1)), 1.0,
              metric.MatrixMetric([[0, 1, 5], [1, 0, nan], [5, nan, 0]]))
    values = np.array([[0.0], [1.0], [3.0]])
    assert net._dmax == 5.0
    modulus = measured_modulus(net, values)
    radii, bounds = unscreened_bounds(net, [values])
    got = np.array(modulus.table()[1:]).T
    assert np.array_equal(got[0], radii) and np.array_equal(got[1], bounds)
    assert check_modulus(MapSample(net, None, values, modulus), 0.0)


def test_comb_member_measure_evaluates_few_pairs(monkeypatch):
    # the single-map measure of a refine-workload extension at 2^-9
    from extenlab import metric
    from extenlab.families import explicit_extension
    ext = explicit_extension("comb", 3, 2.0 ** -9)
    evaluated = [0]
    undecided_pairs = metric._undecided_pairs

    def counting(*args, **kwargs):
        for i, j, codes, dv in undecided_pairs(*args, **kwargs):
            evaluated[0] += dv.size
            yield i, j, codes, dv

    monkeypatch.setattr(metric, "_undecided_pairs", counting)
    seen = _count_skips(monkeypatch)
    got = metric._measured_bounds(ext.domain, ext.values[None])
    assert seen[0] == 631167
    assert seen[1] <= 0.3 * seen[0]
    # the pair screen leaves exact distances to few of the visited pairs
    assert evaluated[0] <= 0.03 * seen[0]
    want = unscreened_bounds(ext.domain, [ext.values])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# the O(n) identity proof in check_modulus


ONE_DOWN, ONE_UP = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)


def test_identity_proof_agrees_with_the_unscreened_check(rng):
    # distances near 1e5 have an ulp above 1e-12, so L = 1 - ulp fails
    # without slack: only L >= 1 may take the proof
    n = 60
    outcomes = {}
    for dim in (1, 2, 3):
        pts = rng.random((n, dim)) * 1e5
        pts[-4:] = pts[:4]
        net = Net(pts, 0.5)
        for constant in (1.0, ONE_UP, 2.0, ONE_DOWN):
            for slack in (0.0, 0.05):
                f = MapSample(net, None, pts.copy(), Modulus.lip(constant))
                got = check_modulus(f, slack)
                assert got is unscreened_check_modulus(f, slack), \
                    (dim, constant, slack)
                outcomes[constant, slack] = got
    assert outcomes[ONE_DOWN, 0.0] is False
    assert all(outcomes[c, s] for c in (1.0, ONE_UP, 2.0) for s in (0, 0.05))


def _points_with_specials(rng, n, special):
    pts = rng.random((n, 2))
    pts[rng.integers(0, n, 3), rng.integers(0, 2, 3)] = special
    return pts


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_identity_proof_on_signed_zeros_nan_inf_and_other_shapes(rng):
    n = 40
    zeros = np.round(rng.random((n, 2)), 1)
    zeros[::3, 0] = 0.0
    signed = zeros.copy()
    signed[::3, 0] = -0.0                 # array_equal to the points
    line = np.round(rng.random((n, 1)), 2)
    cases = [(zeros, signed), (zeros, zeros.copy()),
             (_points_with_specials(rng, n, np.nan), None),
             (_points_with_specials(rng, n, np.inf), None),
             (_points_with_specials(rng, n, -np.inf), None),
             # values == points would broadcast these to all True
             (line, np.hstack([line, line])),
             (zeros, zeros[:, :1])]
    got = []
    for pts, values in cases:
        net = Net(pts, 0.5)
        values = pts.copy() if values is None else values
        for constant in (1.0, 2.0):
            f = MapSample(net, None, values, Modulus.lip(constant))
            got.append(check_modulus(f, 0.0))
            assert got[-1] is unscreened_check_modulus(f, 0.0)
    assert got[-4] is False               # sqrt(2) |dx| > |dx|


def test_identity_proof_needs_a_euclidean_net(rng):
    n = 48
    full_path_fails = set()
    for kind, net in _random_nets(rng, n).items():
        for constant in (1.0, ONE_UP, 2.0):
            f = MapSample(net, None, net.points.copy(), Modulus.lip(constant))
            got = check_modulus(f, 0.0)
            assert got is unscreened_check_modulus(f, 0.0), (kind, constant)
            if not got:
                full_path_fails.add(kind)
    # values farther apart than the net distance: the proof must not apply
    assert {"max-product", "cone", "matrix"} <= full_path_fails


def test_sine_identity_at_2_10_calls_no_pair_kernel(monkeypatch):
    from extenlab import metric
    from extenlab.families import explicit_extension

    def refuse(*args, **kwargs):
        raise AssertionError("a pair kernel ran")

    monkeypatch.setattr(metric, "_undecided_pairs", refuse)
    eps = 2.0 ** -10
    ext = explicit_extension("sine-eopen", None, eps)
    assert len(ext.domain) == 48507
    assert check_modulus(ext, 2 * eps)


def test_writes_through_a_base_array_reach_no_space_pair_graph_or_certificate(
        rng):
    from extenlab.certificates import (PathComponentObstruction,
                                       WindingObstruction)
    from extenlab.metric import EpsilonGraph
    iv = xl.make_space("interval", 2.0 ** -3)
    z = np.arange(6)
    pair = xl.SpacePair.build("x", iv, z[1:3])
    labels, edges = np.zeros(12, dtype=int), np.arange(12)
    space = xl.AnnotatedSpace("s", iv.net, labels[:9], ("only",),
                              iv.clopen, {}, {})
    graph = EpsilonGraph(iv.net, 0.25, edges[:8])
    path = PathComponentObstruction(0, 1, z[2:5], ("a", "b"))
    rings = rng.random((3, 4, 2))
    winding = WindingObstruction(z[:4], rings[:, :, :], "collapse-1", 1)
    kept = rings.copy()
    z[:] = 7
    labels[:] = 5
    edges[:] = 0
    rings[:] = 0.0
    assert pair.z_indices.tolist() == [1, 2]
    assert np.array_equal(pair.z_net.points, iv.net.points[[1, 2]])
    assert space.labels.tolist() == [0] * 9
    assert graph.edges.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert path.witness_path.tolist() == [2, 3, 4]
    assert winding.loop.tolist() == [0, 1, 2, 3]
    assert np.array_equal(winding.witness_rings, kept)
    for a in (pair.z_indices, space.labels, graph.edges,
              path.witness_path, winding.loop, winding.witness_rings):
        assert not a.flags.writeable


# ---------------------------------------------------------------------------
# the pair screen: each run's pairs settled from their sums of squares


def _differences_at(rng, targets, dim, ulps=3):
    """(pairs, dim) differences whose sums of squares (one coordinate:
    whose absolute values) lie within a few ulps either side of each
    target, in the order the screen adds the squares."""
    out = []
    for t in targets:
        u = rng.normal(size=dim)
        d = np.sqrt(t) * u / np.linalg.norm(u) if dim > 1 else np.array([t])
        for k in range(-ulps, ulps + 1):
            e = d.copy()
            for _ in range(abs(k)):
                e[0] = np.nextafter(e[0], np.inf if k > 0 else 0.0)
            out.append(e)
    return np.array(out)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_maps", [1, 3])
def test_pair_screen_decides_sums_of_squares_ulps_from_the_limit(
        monkeypatch, rng, dim, n_maps):
    from extenlab import metric
    lim = np.r_[np.nan, 2.0 ** rng.uniform(-40, 8, 254), np.nan]
    # squares that underflow below the floor, and that overflow
    lim[1:5] = 1e-300, 1e-170, 1e200, 1e160
    square = metric._square_limit(lim)
    codes = np.repeat(np.arange(256), 7).astype(np.uint8)
    targets = lim if dim == 1 else np.where(square > 0, square, lim * lim)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = _differences_at(rng, np.nan_to_num(targets, nan=1.0), dim)
    # the other maps of a stack stay below the one that reaches the target
    carrier = rng.integers(0, n_maps, len(diffs))
    maps = rng.random((n_maps, len(diffs), 1)) * diffs[None]
    maps[carrier, np.arange(len(diffs))] = diffs
    values = np.concatenate([np.zeros((n_maps, 1, dim)), maps], axis=1)
    # one run of the tile rule: row 0 against every other point
    run = (np.array([0]), slice(1, len(diffs) + 1), codes[None], lim, square)
    monkeypatch.setattr(metric, "_unit_runs", lambda *args: iter([run]))
    per_map = metric._euclidean(values[:, :1], values[:, 1:])
    got = np.ones(len(diffs), dtype=bool)         # settled by the screen
    yielded = []
    for i, j, c, dv in metric._undecided_pairs(None, values, None):
        assert (i == 0).all() and np.array_equal(c, codes[j - 1])
        assert dv.tobytes() == per_map[:, j - 1].tobytes()
        got[j - 1] = False
        yielded.extend(j.tolist())
    # a pair is yielded once, in run order, exactly when it is not settled
    assert yielded == sorted(set(yielded))
    with np.errstate(over="ignore"):
        if dim == 1:
            want = np.abs(maps[..., 0]).max(axis=0) <= lim[codes]
        else:
            s = functools.reduce(np.add, (maps[..., k] * maps[..., k]
                                          for k in range(dim)))
            want = s.max(axis=0) <= square[codes]
    assert np.array_equal(got, want)
    # sound: a settled pair's exact distance in every map is within lim
    exact = per_map.max(axis=0)
    assert np.all(exact[got] <= lim[codes][got])
    # the ulps either side of the limits reach both decisions, and the
    # limits that NaN, the floor or an overflow make unusable settle none
    assert got.any() and not got.all()
    unusable = np.isin(codes, [0, 255] if dim == 1 else [0, 255, 1, 2, 3, 4])
    assert not got[unusable].any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_seeds_of_every_block_come_first_on_a_stored_table(monkeypatch, rng):
    # seeding first reorders the runs, and every table stays the same
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * 900)   # many blocks
    seeds = []
    seed_runs = metric._seed_runs

    def tagging(block, limit):
        for run in seed_runs(block, limit):
            seeds.append(run)
            yield run

    monkeypatch.setattr(metric, "_seed_runs", tagging)
    n = 90
    for table_bytes, stored in ((metric._TABLE_BYTES, True), (0, False)):
        monkeypatch.setattr(metric, "_TABLE_BYTES", table_bytes)
        for kind, net in _random_nets(rng, n).items():
            values = rng.random((n, 2))
            seeds.clear()
            runs = list(metric._unit_runs(net, values[None],
                                          lambda: np.zeros(256), seed=True))
            kinds = [any(r is s for s in seeds) for r in runs]
            first_unit = kinds.index(False)
            assert all(kinds[:first_unit]), kind
            assert (True not in kinds[first_unit:]) is stored, kind
            for name, v in _screen_value_sets(rng, net, 2).items():
                _assert_bounds_equal(net, [v], 24)
                _assert_bounds_equal(net, [v, values, v[::-1]], 24)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_largest_distance_is_the_plain_maximum(rng):
    from extenlab import metric
    for special in (None, np.nan, np.inf, 1e300, 1e-170, -0.0):
        for dim in (1, 2, 3):
            p = np.round(rng.random((30, dim)), 2)      # ties
            q = np.round(rng.random((5, 30, dim)), 2)
            if special is not None:
                q[rng.integers(0, 5, 2), rng.integers(0, 30, 2)] = special
            for a, b in ((p, q), (q, p), (p, p[::-1]), (q[0], q[1:])):
                want = float(metric._euclidean(a, b).max())
                got = metric._largest_distance(a, b)
                assert np.array_equal(got, want, equal_nan=True), \
                    (special, dim)
    # squares that order two pairs against np.hypot's order (see
    # test_multi_map_screen_keeps_a_pair_whose_squares_order_lower)
    for pq in ([(0.5071617982701625, 0.8442094826243638),
                (0.924700775453757, 0.33886754942416897)],
               [(1.6e-162, 0.0), (1.5e-162, 1.5e-162)]):
        b = np.array(pq)
        assert metric._largest_distance(np.zeros(2), b) == \
            float(np.hypot(*b[1])) > float(np.hypot(*b[0]))
    # a regular polygon: every chord ties, so every pair is near the max
    turn = np.exp(2j * np.pi * np.arange(64) / 64)
    ring = np.column_stack([turn.real, turn.imag])
    assert metric._largest_distance(ring, np.roll(ring, -1, axis=0)) == \
        float(metric._euclidean(ring, np.roll(ring, -1, axis=0)).max())


# ---------------------------------------------------------------------------
# a measured modulus is measured on its first read


def _count_measures(monkeypatch):
    """Patch metric._measured_bounds and Net._pair_table to record the net
    of each measure and of each pair table built: (measures, tables)."""
    import time
    from extenlab import metric
    measures, tables = [], []
    measure = metric._measured_bounds

    def counting(net, *args, **kwargs):
        measures.append(net)
        time.sleep(0.01)                # a window for concurrent readers
        return measure(net, *args, **kwargs)

    build = Net.__dict__["_pair_table"].func
    table = functools.cached_property(
        lambda self: tables.append(self) or build(self))
    table.__set_name__(Net, "_pair_table")
    monkeypatch.setattr(metric, "_measured_bounds", counting)
    monkeypatch.setattr(Net, "_pair_table", table)
    return measures, tables


def test_an_unread_modulus_measures_nothing(monkeypatch):
    from extenlab.maps import cone_contraction, equiconnect_homotopy
    from extenlab.metric import ConeMetric, euclidean_rows
    from extenlab.spaces import subspace
    circle = xl.make_space("circle", 2.0 ** -7)
    net = circle.net
    measures, tables = _count_measures(monkeypatch)
    # the j = 2 contraction of the cone-contraction reproduction
    d = euclidean_rows(net.points, net.points[0])
    ball = subspace(circle, np.flatnonzero(d <= 2.0 ** -5), "ball")
    h = cone_contraction(ball, 0, 2.0 ** -2)
    # a geodesic homotopy of equiconnected
    ang = np.arctan2(net.points[:, 1], net.points[:, 0])
    bump = np.where(ang >= 0, 0.01 * np.sin(np.maximum(ang, 0.0)), 0.0)
    vals = np.column_stack([np.cos(ang + bump), np.sin(ang + bump)])
    vals[bump == 0.0] = net.points[bump == 0.0]
    g = equiconnect_homotopy(MapSample(net, circle, net.points,
                                       Modulus.lip(1.0)),
                             MapSample(net, circle, vals, Modulus.lip(2.0)),
                             delta=0.05)
    assert measures == []
    assert not any(isinstance(t.metric, ConeMetric) for t in tables)
    cone_table, geodesic_table = h.modulus.table(), g.modulus.table()
    assert [m.metric.__class__ for m in measures] == [ConeMetric,
                                                       EuclideanMetric]
    assert measures[0] in tables and 385 <= len(measures[0]) <= 2689
    # read again: kept, not measured again
    assert (h.modulus.table(), g.modulus.table()) == (cone_table,
                                                      geodesic_table)
    assert len(measures) == 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_every_read_of_a_measured_modulus_is_the_eager_table(rng):
    import pickle
    from extenlab import metric
    from extenlab.serialization import modulus_to_json
    n = 40
    t = np.r_[-1.0, -0.0, 0.0, np.nan, -np.nan, np.inf, 3 * rng.random(9)]
    for kind, net in _random_nets(rng, n).items():
        for dim in (1, 2):
            for name, values in _screen_value_sets(rng, net, dim).items():
                for values_list in ([values],
                                    [values, np.roll(values, 1, axis=0)]):
                    radii, bounds = metric._measured_bounds(
                        net, np.array(values_list))
                    try:
                        want = Modulus.step([(0.0, 0.0)] + list(zip(
                            radii.tolist(), bounds.tolist())))
                    except InvalidArgument:
                        assert np.isnan(bounds).any() or \
                            np.isinf(bounds).any(), (kind, dim, name)
                        with pytest.raises(InvalidArgument):
                            measured_modulus_multi(net, values_list)
                        continue
                    probe = np.r_[t, want.radii,
                                  np.nextafter(want.radii, np.inf)]
                    reads = {
                        "call": lambda m: m(probe).tobytes(),
                        "table": lambda m: m.table(),
                        "radii": lambda m: m.radii.tobytes(),
                        "bounds": lambda m: m.bounds.tobytes(),
                        "json": modulus_to_json,
                        "check": lambda m: check_modulus(
                            MapSample(net, None, values, m), 0.0),
                        "repr": repr,
                        "eq": lambda m: (m == want, hash(m) == hash(want)),
                        "pickle": lambda m: pickle.loads(pickle.dumps(m))
                        .bounds.tobytes()}
                    for read, of in reads.items():
                        # a fresh modulus each, so that this is its first read
                        got = measured_modulus_multi(net, values_list)
                        assert of(got) == of(want), (kind, dim, name, read)


def test_writes_after_the_call_leave_the_table(rng):
    n = 50
    net = Net(rng.random((n, 2)), 0.1)
    values = rng.random((n, 2))
    want = measured_modulus(net, values.copy()).table()
    listed = measured_modulus(net, values)              # stacked anew
    rows = np.concatenate([values, values])
    stacks = np.stack([values, values])
    viewed = measured_modulus_multi(net, stacks[:1])    # a view: copied
    owned = stacks[1:].copy()
    passed = measured_modulus_multi(net, owned)         # frozen in place
    values[:] = 0.0
    rows[:] = 0.0
    stacks[:] = 0.0
    with pytest.raises(ValueError):
        owned[0, 0, 0] = 5.0
    assert listed.table() == viewed.table() == passed.table() == want


def test_snapshots_hold_numpy_own_float64_and_maps_survive_pickle(rng):
    import pickle
    from extenlab import metric
    n = 60
    net = Net(rng.random((n, 2)), 0.1)
    values = rng.random((n, 2))
    thawed = pickle.loads(pickle.dumps(values))
    assert thawed.dtype == np.dtype(float) and \
        thawed.dtype is not np.dtype(float)     # equal, not numpy's own
    for values_list in ([thawed], thawed[None], np.stack([thawed, thawed])):
        assert metric._snapshot(net, values_list).dtype is \
            np.dtype(float)
    f = MapSample(net, None, values, measured_modulus(net, values))
    g = pickle.loads(pickle.dumps(f))           # a read: the table goes along
    for a, b in ((f.modulus.radii, g.modulus.radii),
                 (f.modulus.bounds, g.modulus.bounds)):
        assert a.tobytes() == b.tobytes()
        assert b.dtype is np.dtype(float) and not b.flags.writeable
    assert g.modulus == f.modulus
    assert measured_modulus(g.domain, g.values).table() == f.modulus.table()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_invalid_tables_still_raise_at_construction(rng):
    from extenlab.metric import ConeMetric, MaxProductMetric
    n = 30
    nets = [Net(rng.random((n, 2)), 0.1),
            Net(rng.random((n, 3)), 0.1, ConeMetric()),
            Net(rng.random((n, 3)), 0.1, MaxProductMetric(1))]
    for net in nets:
        for bad in (np.nan, np.inf, -np.inf):
            values = rng.random((n, 2))
            values[7, 1] = bad
            with pytest.raises(InvalidArgument):
                measured_modulus(net, values)
        wide = rng.random((n, 1))
        wide[3], wide[4] = 1e308, -1e308        # the span overflows
        with pytest.raises(InvalidArgument):
            measured_modulus(net, wide)
        with pytest.raises(InvalidArgument):     # squares overflow
            measured_modulus(net, 1e160 * rng.random((n, 3)))
    far = np.zeros((n, 1))
    far[1], far[2] = 1e308, -1e308              # the diameter overflows
    with pytest.raises(InvalidArgument):
        measured_modulus(Net(far, 0.1), rng.random((n, 1)))
    # a valid table needs no read to be accepted
    assert measured_modulus(Net(np.zeros((n, 2)), 0.1),
                            rng.random((n, 1))).table() == [(0.0, 0.0)]


def test_four_first_reads_at_once_measure_once(monkeypatch, rng):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor
    n = 400
    points, values = rng.random((n, 2)), rng.random((n, 2))
    want = measured_modulus(Net(points.copy(), 0.1), values).table()
    measures, _ = _count_measures(monkeypatch)
    start = threading.Barrier(4, timeout=60)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            modulus = measured_modulus(Net(points, 0.1), values)

            def first_read(_):
                start.wait()
                return modulus.table()

            with ThreadPoolExecutor(4) as pool:
                tables = list(pool.map(first_read, range(4), timeout=60))
            assert all(table == want for table in tables)
    finally:
        sys.setswitchinterval(switch)
    assert len(measures) == 5           # one per modulus, not per thread


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unique_is_numpy_unique_bit_for_bit(rng):
    from extenlab.metric import _unique
    specials = np.array([0.0, -0.0, 1.0, 2.5, np.nan, -np.nan, np.inf,
                         -np.inf, 1e-300, 5e-324])
    for n in (0, 1, 2, 7, 40, 3000):
        for trial in range(4):
            flat = rng.choice(specials, n)
            flat[rng.random(n) < 0.2] = np.nan * rng.choice([1, -1])
            ints = rng.integers(-5, 5, n)
            for a in (flat, ints, flat.reshape(-1, 1), np.abs(flat)):
                want, got = np.unique(a), _unique(a)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), a
            for dim in (1, 2, 3):
                rows = rng.choice(specials[:5], (n, dim))
                want, got = np.unique(rows, axis=0), _unique(rows, rows=True)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), rows
    for shape in ((3, 0), (0, 2)):
        empty = np.empty(shape)
        assert _unique(empty, rows=True).shape == \
            np.unique(empty, axis=0).shape


@pytest.mark.parametrize("budget", BUDGETS)
def test_distances_to_a_set_are_the_row_minima(monkeypatch, rng, budget):
    from extenlab import metric
    monkeypatch.setattr(metric, "_BLOCK_BYTES", budget)
    n = 60
    for kind, net in _random_nets(rng, n).items():
        for indices in ([0], rng.choice(n, 7, replace=False),
                        np.arange(n)):
            want = net.dist_idx(np.arange(n), indices).min(axis=1)
            got = net.dist_to_set(indices)
            assert got.tobytes() == want.tobytes(), kind
