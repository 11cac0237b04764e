import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import extenlab as xl
from extenlab.errors import InvalidArgument, UnknownName
from extenlab.runs import list_examples, run_example
from extenlab.serialization import dumps

EPS6 = 2.0 ** -6
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_catalog_lists_thirteen_reproductions():
    entries = list_examples()
    names = [e["name"] for e in entries]
    assert len(names) == 13
    assert "comb" in names and "anr-eclosed" in names
    for e in entries:
        assert e["claim"]
        assert e["default_n_max"] >= 1


def test_reproductions_keep_their_report_bytes():
    # each report at its pin hashes to the digest the benchmark records
    recorded = json.loads(DIGESTS.read_text())
    for entry in list_examples():
        name = entry["name"]
        text = dumps(run_example(name).as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() \
            == recorded[f"repro/{name}"], name


def test_refined_reproductions_keep_their_report_bytes():
    # the four growing examples at 2^-9, as the benchmark's refine pass
    recorded = json.loads(DIGESTS.read_text())
    for name in ("pathcomp", "sine-not-eclosed", "comb", "hawaii"):
        text = dumps(run_example(name, epsilon=2.0 ** -9).as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() \
            == recorded[f"refine/{name}"], name


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:overflow:RuntimeWarning")
def test_screened_slice_distance_is_the_plain_maximum(rng):
    from extenlab.metric import euclidean_rows
    from extenlab.runs import _largest_slice_distance
    for special in (None, np.nan, np.inf, 1e300, 1e-170, -0.0):
        for dim in (1, 2, 3):
            values = np.round(rng.random((9, 40, dim)), 2)   # ties
            if special is not None:
                values[rng.integers(0, 9, 2), rng.integers(0, 40, 2)] = special
            want = max(float(euclidean_rows(values[a], values[a + 1:]).max())
                       for a in range(len(values) - 1))
            got = _largest_slice_distance(values)
            assert np.array_equal(got, want, equal_nan=True), (special, dim)


def test_unknown_example_raises():
    with pytest.raises(UnknownName):
        run_example("nosuch")


def test_run_rejects_nondyadic_epsilon_and_bad_nmax():
    with pytest.raises(InvalidArgument):
        run_example("comb", epsilon=0.1)
    with pytest.raises(InvalidArgument):
        run_example("comb", n_max=0)
    with pytest.raises(InvalidArgument):
        run_example("comb", epsilon=EPS6, n_max=50)   # beyond truncation


def test_reports_are_deterministic():
    a = run_example("ndagger-eclosed", epsilon=EPS6)
    b = run_example("ndagger-eclosed", epsilon=EPS6)
    assert dumps(a.as_dict()) == dumps(b.as_dict())
    assert a.to_text() == b.to_text()
    assert a.to_csv() == b.to_csv()


def test_report_rows_all_verified_and_sup_decreasing():
    r = run_example("comb", epsilon=EPS6, n_max=6)
    assert r.ok
    assert all(row["verdict"] == "verified" for row in r.rows)
    sups = [row["sup"] for row in r.rows if row["sup"] is not None]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert r.rows[-1]["label"] == "limit"


def test_margin_resolution_monotonicity():
    # finer nets sharpen obstruction margins on the shipped examples
    for name in ("comb", "sine-not-eclosed"):
        coarse = run_example(name, epsilon=2.0 ** -6, n_max=5)
        fine = run_example(name, epsilon=2.0 ** -8, n_max=5)
        m_c = coarse.rows[-1]["margin"]
        m_f = fine.rows[-1]["margin"]
        assert m_f >= m_c
    for name in ("sine-not-eopen", "ndagger-not-eopen", "hawaii"):
        coarse = run_example(name, epsilon=2.0 ** -6, n_max=4)
        fine = run_example(name, epsilon=2.0 ** -8, n_max=4)
        for rc, rf in zip(coarse.rows[:-1], fine.rows[:-1]):
            assert rf["margin"] >= rc["margin"] - 1e-12


def test_first_success_reported_and_stable():
    a = run_example("eop-homotopy")
    b = run_example("eop-homotopy")
    assert a.first_success == b.first_success == 2
    c = run_example("anr-eopen")
    d = run_example("anr-eopen")
    assert c.first_success == d.first_success
    assert c.first_success is not None


def test_timing_excluded_from_canonical_dict():
    r = run_example("ndagger-eclosed", epsilon=EPS6)
    assert "timing_seconds" not in r.as_dict()
    assert "timing_seconds" in r.as_dict(include_timing=True)
    assert r.timing_seconds > 0


def test_text_and_csv_formats_carry_the_table():
    r = run_example("ndagger-not-eopen", epsilon=EPS6, n_max=4)
    text = r.to_text()
    assert "example: ndagger-not-eopen" in text
    assert "limit" in text
    csv = r.to_csv()
    assert csv.splitlines()[0] == "label,sup_distance"
    assert len(csv.splitlines()) == len(r.rows) + 1


def test_loc_ext_rows_decreasing_diameters():
    r = run_example("loc-ext")
    assert r.ok
    diams = [row["sup"] for row in r.rows if row["sup"] is not None]
    assert all(a > b for a, b in zip(diams, diams[1:]))
    bounds = [2.0 ** (-k + 1) for k in range(1, len(diams) + 1)]
    assert all(d <= b for d, b in zip(diams, bounds))


def test_cone_contraction_rows_rel_p():
    r = run_example("cone-contraction")
    assert r.ok
    for row in r.rows:
        assert row["verdict"] == "verified"
        assert row["margin"] > 0


def test_equiconnected_rows():
    r = run_example("equiconnected")
    assert r.ok
    sups = [row["sup"] for row in r.rows]
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_anr_eclosed_exactness():
    r = run_example("anr-eclosed", n_max=3)
    assert r.ok
    assert all(row["verdict"] == "verified" for row in r.rows)


def test_every_example_report_validates_against_schema():
    import json
    import jsonschema
    from extenlab.serialization import dumps as ser_dumps, load_schema
    schema = load_schema("report")
    for entry in list_examples():
        r = run_example(entry["name"])
        jsonschema.validate(instance=json.loads(ser_dumps(r.as_dict())),
                            schema=schema)
        assert r.ok, (entry["name"], r.notes)
