"""Acceptance criteria, one test per criterion.

Every test prints a single PASS line with its measured runtime; budgets
are asserted with the criterion, and caches are cleared first so each
timing covers the full build, not warmed leftovers.
"""

import json
import time

import numpy as np

import extenlab as xl
from extenlab import serialization as ser
from extenlab import spaces as spaces_mod
from extenlab.certificates import build_negative_certificate, \
    check_certificate
from extenlab.cli import main as cli_main
from extenlab.metric import (Modulus, build_epsilon_graph, euclidean_rows,
                             reachable, sup_distance, widest_path_value)
from extenlab.maps import MapSample

from conftest import (assert_labels_chain_connected, bfs_reachable_dense,
                      exhaustive_widest_path)

EPS8 = 2.0 ** -8


def _cold_caches():
    spaces_mod.clear_caches()


def _announce(number, elapsed, budget, detail):
    print(f"\nACCEPTANCE {number}: PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s) - {detail}")


def test_acceptance_1_comb_reproduction():
    _cold_caches()
    started = time.perf_counter()
    report = xl.run_example("comb", epsilon=EPS8, n_max=20)
    elapsed = time.perf_counter() - started
    assert report.ok, report.notes
    member_rows = report.rows[:-1]
    assert len(member_rows) == 20
    for n, row in enumerate(member_rows, start=1):
        assert row["kind"] == "positive"
        assert row["verdict"] == "verified"
        assert row["sup"] == 1.0 / (n + 1)          # exact, not approximate
        assert row["margin"] == 0.0                 # tolerance-0 agreement
    limit = report.rows[-1]
    assert limit["kind"] == "mandatory-crossing"
    assert limit["verdict"] == "verified"
    assert limit["margin"] >= 1.0 - 6 * EPS8
    assert elapsed < 10.0
    _announce(1, elapsed, 10,
              "comb: 20 exact positives, crossing margin "
              f"{limit['margin']:.6f} >= {1 - 6 * EPS8:.6f}")


def test_acceptance_2_sine_reproductions():
    _cold_caches()
    started = time.perf_counter()
    closed = xl.run_example("sine-not-eclosed", epsilon=EPS8, n_max=15)
    opened = xl.run_example("sine-not-eopen", epsilon=EPS8, n_max=15)
    elapsed = time.perf_counter() - started
    assert closed.ok, closed.notes
    for row in closed.rows[:-1]:
        assert row["kind"] == "positive" and row["verdict"] == "verified"
    assert closed.rows[-1]["kind"] == "mandatory-crossing"
    assert closed.rows[-1]["verdict"] == "verified"
    cert = build_negative_certificate("sine-eclosed", None, EPS8)
    assert cert.region == {"axis": 1, "op": "abs_ge", "value": 1.0 - 2 * EPS8}
    assert opened.ok, opened.notes
    for row in opened.rows[:-1]:
        assert row["kind"] == "path-component"
        assert row["verdict"] == "verified"
    assert opened.rows[-1]["kind"] == "positive"
    assert opened.rows[-1]["verdict"] == "verified"
    assert elapsed < 15.0
    _announce(2, elapsed, 15,
              "sine: 15 positives + peak crossing; 15 component "
              "obstructions + identity extension")


def test_acceptance_3_ndagger_reproductions():
    _cold_caches()
    started = time.perf_counter()
    eopen = xl.run_example("ndagger-not-eopen", epsilon=EPS8, n_max=20)
    eclosed = xl.run_example("ndagger-eclosed", epsilon=2.0 ** -6, n_max=7)
    elapsed = time.perf_counter() - started
    assert eopen.ok, eopen.notes
    for row in eopen.rows[:-1]:
        assert row["kind"] == "clopen" and row["verdict"] == "verified"
    assert eopen.rows[-1]["kind"] == "positive"
    assert eopen.rows[-1]["verdict"] == "verified"
    assert eclosed.ok, eclosed.notes
    assert all(r["kind"] == "positive" and r["verdict"] == "verified"
               for r in eclosed.rows)
    assert eclosed.rows[-1]["label"] == "limit"
    assert elapsed < 5.0
    _announce(3, elapsed, 5,
              "clopen obstructions for n<=20; block-assembled limit "
              "extension on the shrinking union")


def test_acceptance_4_hawaiian_earring():
    _cold_caches()
    started = time.perf_counter()
    report = xl.run_example("hawaii", epsilon=EPS8, n_max=10)
    elapsed = time.perf_counter() - started
    assert report.ok, report.notes
    for row in report.rows[:-1]:
        assert row["kind"] == "winding" and row["verdict"] == "verified"
        assert row["margin"] == 1.0     # computed winding equals one
    assert report.rows[-1]["kind"] == "positive"
    assert report.rows[-1]["verdict"] == "verified"
    fam = xl.example_family("hawaii", EPS8)
    cert = build_negative_certificate("hawaii", 10, EPS8)
    assert cert.retraction == "collapse-11"
    assert elapsed < 10.0
    _announce(4, elapsed, 10,
              "winding 1 certified for n<=10, constant limit extends")


def test_acceptance_5_anr_constructions():
    _cold_caches()
    budgets = {}
    for name in ("anr-eclosed", "anr-eopen", "eop-homotopy", "loc-ext",
                 "cone-contraction", "equiconnected"):
        started = time.perf_counter()
        report = xl.run_example(name)
        budgets[name] = time.perf_counter() - started
        assert report.ok, (name, report.notes)
        assert budgets[name] < 20.0, name
        if name in ("anr-eopen", "eop-homotopy"):
            assert report.first_success is not None
        if name == "eop-homotopy":
            # every row certifies an exact slice identity
            assert all(r["kind"] == "slice-identity" for r in report.rows)
        if name == "cone-contraction":
            assert all(r["kind"] == "cone-contraction" for r in report.rows)
        if name == "equiconnected":
            assert all(r["kind"] == "equiconnected-homotopy"
                       for r in report.rows)
        if name == "loc-ext":
            diams = [r["sup"] for r in report.rows if r["sup"] is not None]
            assert all(a > b for a, b in zip(diams, diams[1:]))
            assert all(d <= 2.0 ** (-k + 1)
                       for k, d in enumerate(diams, start=1))
    # anr-eclosed exactness spelled out: glued extension vs the limit map
    eps = 2.0 ** -6
    report = xl.run_example("anr-eclosed", epsilon=eps, n_max=3)
    assert all(r["margin"] == 0.0 for r in report.rows)   # exact restriction
    _announce(5, sum(budgets.values()), 120,
              "six ANR constructions, each under 20s: " +
              ", ".join(f"{k}={v:.1f}s" for k, v in budgets.items()))


def test_acceptance_6_oracle_equivalence(rng):
    started = time.perf_counter()
    for trial in range(25):
        n = int(rng.integers(40, 201))
        pts = rng.random((n, 2))
        scale = float(rng.uniform(0.08, 0.25))
        cut = float(rng.uniform(0.2, 0.8))
        allowed = pts[:, 1] > cut
        src, dst = (int(x) for x in rng.integers(0, n, size=2))
        adj = build_epsilon_graph(xl.Net(pts, 0.25), scale).adjacency()
        assert reachable(adj, allowed, src, dst) == \
            bfs_reachable_dense(pts, scale, allowed, src, dst)
    for trial in range(100):
        n = int(rng.integers(2, 21))
        pts = rng.random((n, 2))
        g = build_epsilon_graph(xl.Net(pts, 0.4),
                                float(rng.uniform(0.12, 0.3)))
        h = rng.random(n)
        src, dst = (int(x) for x in rng.integers(0, n, size=2))
        got = widest_path_value(g, src, dst, h)
        want = h[src] if src == dst else \
            exhaustive_widest_path(n, g.edges, src, dst, h)
        assert got == want
    elapsed = time.perf_counter() - started
    _announce(6, elapsed, 120,
              "crossing reachability vs dense BFS (25 nets), maximin vs "
              "exhaustive search (100 nets)")


def test_acceptance_7_metric_and_invariant_suites(rng):
    _cold_caches()
    started = time.perf_counter()

    # sup metric axioms on 1000 random triples
    iv = xl.make_space("interval", 2.0 ** -6)
    maps = [MapSample(iv.net, iv, rng.random((len(iv.net), 1)),
                      Modulus.lip(50.0)) for _ in range(60)]
    for _ in range(1000):
        f, g, h = (maps[int(i)] for i in rng.integers(0, len(maps), 3))
        dfg = sup_distance(f, g)
        assert dfg >= 0 and dfg == sup_distance(g, f)
        assert sup_distance(f, h) <= dfg + sup_distance(g, h) + 1e-12
        assert sup_distance(f, f) == 0.0

    # annotated-space invariants across every shipped resolution
    for k in range(4, 11):
        eps = 2.0 ** -k
        for name in xl.catalog_names():
            space = xl.make_space(name, eps)
            assert_labels_chain_connected(space)
            for retr in space.retractions.values():
                assert bool(np.all(retr.contains(space.net.points)))
                moved = retr.apply(space.net.points)
                assert float(euclidean_rows(moved, space.net.points).max()) \
                    <= eps, (name, k)
        # the clopen answers do not depend on the resolution
        nd = xl.make_space("ndagger", eps)
        assert nd.clopen.trace_extends(np.arange(4), frozenset({1}))
        sine = xl.make_space("sine", eps)
        assert not sine.clopen.trace_extends(np.arange(4), frozenset({1}))
        spaces_mod.clear_caches()   # keep the fine nets from piling up

    # certificate serialization round-trips bit for bit
    eps = 2.0 ** -6
    fam = xl.example_family("comb", eps)
    for name, n in [("comb", None), ("sine-eopen", 3),
                    ("ndagger-eopen", 2), ("hawaii", 2)]:
        cert = build_negative_certificate(name, n, eps)
        blob = ser.dumps(ser.certificate_to_json(cert, eps))
        fam_n = xl.example_family(name, eps)
        back = ser.certificate_from_json(json.loads(blob), fam_n.pair,
                                         fam_n.codomain)
        assert ser.dumps(ser.certificate_to_json(back, eps)) == blob
        phi = fam_n.limit if n is None else fam_n.member(n)
        assert check_certificate(fam_n.pair, phi, back).ok

    # CLI determinism: byte-identical repeat runs
    import io, contextlib
    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()
    argv = ["example", "run", "ndagger-eclosed", "--epsilon", "2^-6",
            "--format", "json"]
    c1, o1 = capture(argv)
    c2, o2 = capture(argv)
    assert c1 == c2 == 0
    assert o1.encode() == o2.encode()

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(7, elapsed, 120,
              "metric axioms x1000, catalog invariants at 2^-4..2^-10, "
              "round-trips, CLI determinism")
