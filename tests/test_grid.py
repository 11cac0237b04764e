"""Adversarial cases for the cube grid behind Net.nearest and the
epsilon-graphs of Euclidean nets, and for union-find reachability.

scipy's cKDTree is the reference for distance bits and pairs; a
brute-force scan is the reference where ties make cKDTree's pick depend
on its traversal (the grid gives a tie to the smallest index).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import extenlab as xl
from extenlab import metric
from extenlab.metric import (Net, _GRID_CELLS, _components,
                             build_epsilon_graph, reachable)
from extenlab.spaces import AnnotatedSpace, ClopenAtoms

from conftest import components_by_unionfind


def brute_nearest(points, queries):
    """Smallest index of the least sum of squares, and its sqrt; index n
    at distance inf where no sum is finite.  np.sum adds fewer than eight
    terms one after another, as cKDTree does below eight coordinates."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    idx = sq.argmin(axis=1)
    best = sq[np.arange(len(queries)), idx]
    idx[~(best < np.inf)] = len(points)
    return idx, np.sqrt(best)


def assert_like_kd_tree(points, queries, resolution, scale=None):
    """Net.nearest gives cKDTree's distance bits and the brute-force
    index; the scale graph's edges are cKDTree's pairs, sorted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")            # no overflow warnings
        net = Net(points, resolution)
        idx, dist = net.nearest(queries)
        edges = scale and build_epsilon_graph(net, scale).edges
    want_dist, _ = cKDTree(points).query(queries)
    assert dist.tobytes() == want_dist.tobytes()
    assert idx.tolist() == brute_nearest(points, queries)[0].tolist()
    if scale is not None:
        pairs = cKDTree(points).query_pairs(scale, output_type="ndarray")
        assert edges.tolist() == sorted(pairs.tolist())
    return net


def test_duplicate_points_tie_to_the_smallest_index(rng):
    base = rng.random((40, 2))
    points = base[rng.integers(0, 40, 400)]         # every point ~10 times
    queries = np.r_[points[::7], base + 1e-3, base[:5]]
    net = assert_like_kd_tree(points, queries, 0.01, scale=0.02)
    idx, dist = net.nearest(base)
    first = [int(np.flatnonzero((points == b).all(axis=1))[0])
             for b in base if (points == b).all(axis=1).any()]
    hit = dist == 0
    assert idx[hit].tolist() == first


def test_queries_far_outside_the_bounding_box(rng):
    points = rng.random((300, 2))
    far = np.array([[1e6, 0.5], [-1e6, -1e6], [0.5, 1e150], [1e154, 1e154],
                    [1e200, 0.0], [-1.7e308, 1.7e308], [2.0, 2.0]])
    assert_like_kd_tree(points, far, 0.02)
    idx, dist = Net(points, 0.02).nearest(far[4:6])
    assert idx.tolist() == [300, 300]             # every square sum is inf
    assert dist.tolist() == [np.inf, np.inf]


def test_empty_query_arrays():
    net = Net(np.random.default_rng(1).random((50, 3)), 0.1)
    idx, dist = net.nearest(np.empty((0, 3)))
    assert idx.shape == dist.shape == (0,)
    assert idx.dtype.kind == "i" and dist.dtype == float


def test_non_finite_queries_resolve_to_no_point():
    points = np.random.default_rng(2).random((80, 2))
    net = Net(points, 0.05)
    bad = np.array([[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf],
                    [np.nan, np.nan], [0.25, 0.75]])
    idx, dist = net.nearest(bad)
    assert idx[:4].tolist() == [80] * 4
    assert dist[:4].tolist() == [np.inf] * 4
    assert dist[4] == cKDTree(points).query(bad[4])[0]
    space = AnnotatedSpace("user", net, np.zeros(80, dtype=int),
                           ("user",), ClopenAtoms.connected(80), {}, {})
    assert space.contains(bad).tolist() == [False] * 4 + [
        bool(dist[4] <= 0.05 + 1e-9)]


def test_non_finite_points_are_refused():
    net = Net(np.array([[0.0, 1.0], [np.nan, 0.0]]), 0.5)
    with pytest.raises(xl.InvalidArgument, match="finite"):
        net.nearest([[0.0, 0.0]])


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_one_three_and_five_coordinates(rng, dim):
    points = rng.random((500, dim))
    queries = np.r_[rng.random((200, dim)) * 1.4 - 0.2,
                    points[:50] + rng.normal(0, 0.01, (50, dim))]
    assert_like_kd_tree(points, queries, 0.03,
                        scale=0.15 if dim > 1 else 0.004)


def test_all_points_identical():
    points = np.full((60, 3), 0.3)
    net = assert_like_kd_tree(points, np.array([[0.3, 0.3, 0.3],
                                                [1.0, 0.0, 2.0]]), 0.1,
                              scale=1e-9)
    assert net.nearest([[0.3, 0.3, 0.3]])[0].tolist() == [0]
    assert len(build_epsilon_graph(net, 1.0).edges) == 60 * 59 // 2


def test_coordinates_near_1e300_keep_their_keys_in_range(rng):
    points = (rng.random((400, 3)) * 2 - 1) * 1e300
    queries = np.r_[points[:30], points[30:60] * 0.5, [[0.0, 0.0, 0.0]]]
    net = assert_like_kd_tree(points, queries, 1e290)
    points = points.copy()
    points[:10] = points[10] + np.arange(10)[:, None] * 1e140
    with np.errstate(over="ignore"):    # cKDTree refuses to pair these
        sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    i, j = np.nonzero(sq <= 1e150 * 1e150)
    want = [[a, b] for a, b in zip(i.tolist(), j.tolist()) if a < b]
    assert build_epsilon_graph(Net(points, 1e290), 1e150).edges.tolist() \
        == want and len(want) == 45 + 10
    grid = net._index
    keys = grid._level(1)[0]
    assert grid.m.max() <= _GRID_CELLS + 1
    assert keys[0] >= 0 and np.all(np.diff(keys) >= 0)


def test_resolution_far_below_the_span(rng):
    points = rng.random((300, 2))
    grid = metric._Grid(points, 1e-12)
    assert grid.m.max() <= _GRID_CELLS + 1         # the side was raised
    queries = np.r_[points[:40], rng.random((40, 2)), [[5.0, -5.0]]]
    assert_like_kd_tree(points, queries, 1e-12, scale=0.05)


@pytest.mark.parametrize("dim", [2, 3])
def test_dyadic_lattice_pairs_at_exactly_the_scale(dim):
    step = 2.0 ** -5
    axes = [np.arange(9) * step + 0.25] * dim
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    for scale in (step, 2 * step, np.sqrt(2) * step, np.nextafter(step, 0)):
        assert_like_kd_tree(points, points[::5] + step / 2, step / 2,
                            scale=scale)
    g = build_epsilon_graph(Net(points, step / 2), step)
    assert len(g.edges) == dim * 8 * 9 ** (dim - 1)   # lattice neighbours


def test_circle_nets_at_the_chord_length():
    for k in (7, 64, 1000):
        theta = np.arange(k) * (2 * np.pi / k)
        points = np.c_[np.cos(theta), np.sin(theta)]
        chord = float(np.sqrt(((points[1] - points[0]) ** 2).sum()))
        for scale in (chord, np.nextafter(chord, 0), np.nextafter(chord, 2)):
            assert_like_kd_tree(points, points[::3] * 1.01, chord / 2,
                                scale=scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 60), st.integers(0, 2 ** 31),
       st.sampled_from([0.05, 0.2, 1.0, 3.0]))
def test_grid_matches_brute_force_on_lattice_ties(dim, n, seed, res):
    r = np.random.default_rng(seed)
    points = r.integers(-3, 4, (n, dim)) * 0.25
    queries = np.r_[r.integers(-5, 6, (30, dim)) * 0.125, points[:5]]
    assert_like_kd_tree(points, queries, res, scale=0.25 * r.integers(1, 4))


def test_reachable_on_a_long_path():
    n = 100_000
    for order in (np.arange(n), np.random.default_rng(3).permutation(n)):
        a, b = np.sort(np.c_[order[:-1], order[1:]], axis=1).T
        allowed = np.ones(n, dtype=bool)
        src, dst = int(order[0]), int(order[-1])
        assert reachable((a, b), allowed, src, dst)
        allowed[order[n // 2]] = False
        assert not reachable((a, b), allowed, src, dst)
        assert reachable((a, b), allowed, src, int(order[n // 2 - 1]))


def test_graph_components_match_the_union_find_oracle(rng):
    for trial in range(30):
        n = int(rng.integers(1, 300))
        net = Net(rng.random((n, 2)), 0.05)
        g = build_epsilon_graph(net, float(rng.uniform(0.01, 0.2)))
        want = components_by_unionfind(n, g.edges)
        assert _components(n, *g.adjacency()).tolist() == want.tolist()
