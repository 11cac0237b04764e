import dataclasses
import json

import jsonschema
import numpy as np
import pytest

import extenlab as xl
from extenlab import serialization as ser
from extenlab.certificates import (PositiveCertificate,
                                   build_negative_certificate,
                                   check_certificate)
from extenlab.errors import DomainMismatch, InvalidArgument
from extenlab.maps import MapSample
from extenlab.metric import MatrixMetric, Modulus, Net, sup_distance

EPS6 = 2.0 ** -6


def _registry():
    from referencing import Registry, Resource
    resources = []
    for name in ("net", "space", "pair", "map", "certificate", "verdict",
                 "report", "problem"):
        body = ser.load_schema(name)
        resources.append((body["$id"], Resource.from_contents(body)))
        resources.append((f"{name}.json", Resource.from_contents(body)))
    return Registry().with_resources(resources)


def _validate(name: str, instance):
    schema = ser.load_schema(name)
    jsonschema.validate(instance=instance, schema=schema,
                        registry=_registry())


# ---------------------------------------------------------------------------
# nets / spaces / pairs


def test_net_round_trip_euclidean():
    net = xl.make_space("interval", EPS6).net
    data = json.loads(ser.dumps(ser.net_to_json(net)))
    _validate("net", data)
    back = ser.net_from_json(data)
    assert np.array_equal(back.points, net.points)
    assert back.resolution == net.resolution


def test_net_round_trip_matrix():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = Net(np.array([[0.0], [1.0]]), 0.5, MatrixMetric(mat))
    data = json.loads(ser.dumps(ser.net_to_json(net)))
    _validate("net", data)
    back = ser.net_from_json(data)
    assert np.array_equal(back.metric.matrix, mat)


@pytest.mark.parametrize("dimension, point, resolution", [
    (3, 0.0, 0.5), (1, float("nan"), 0.5), (1, 0.0, float("inf"))],
    ids=["dimension", "nan-point", "inf-resolution"])
def test_net_json_must_match_dimension(dimension, point, resolution):
    # a net is a finite point set at a finite resolution, in its dimension
    with pytest.raises(InvalidArgument):
        ser.net_from_json({"dimension": dimension, "points": [[point]],
                           "resolution": resolution, "metric": "euclidean"})


def test_catalog_space_ref_round_trip():
    for name in ("sine", "comb", "ndagger", "hawaii"):
        space = xl.make_space(name, EPS6)
        ref = json.loads(ser.dumps(ser.space_to_ref(space)))
        _validate("space", ref)
        back = ser.space_from_ref(ref)
        assert back is space    # cached catalog instance


def test_construct_space_ref_round_trip():
    base = xl.make_space("ndagger", 2.0 ** -4)
    for space in (xl.cone(base), xl.product_with(base, "interval"),
                  xl.opc_disjoint_union([xl.make_space("interval", 2.0 ** -4)] * 2)):
        ref = json.loads(ser.dumps(ser.space_to_ref(space)))
        _validate("space", ref)
        back = ser.space_from_ref(ref)
        assert np.array_equal(back.net.points, space.net.points)
        assert np.array_equal(back.labels, space.labels)


def test_explicit_space_round_trip():
    from extenlab.spaces import AnnotatedSpace, ClopenAtoms
    net = Net(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5)
    sp = AnnotatedSpace("user", net, np.zeros(2, dtype=int), ("user",),
                        ClopenAtoms.connected(2), {}, {})
    ref = json.loads(ser.dumps(ser.space_to_ref(sp)))
    _validate("space", ref)
    back = ser.space_from_ref(ref)
    assert np.array_equal(back.net.points, net.points)
    assert back.clopen.extends(frozenset({0, 1}))
    assert not back.clopen.extends(frozenset({0}))


def test_pair_spaces_reload_with_their_points():
    # the Y spaces of interval-N and disk-earring carry catalog names but
    # extra points; no constructor rebuilds them, so they reload explicitly
    eps = 2.0 ** -5
    for name in xl.pair_names():
        space = xl.make_pair(name, eps).space
        ref = json.loads(ser.dumps(ser.space_to_ref(space)))
        _validate("space", ref)
        back = ser.space_from_ref(ref)
        assert np.array_equal(back.net.points, space.net.points), name
    for name in ("interval-N", "disk-earring"):
        ref = ser.space_to_ref(xl.make_pair(name, eps).space)
        assert ref["kind"] == "explicit", name


def test_explicit_space_with_a_catalog_name_stays_explicit():
    from extenlab.spaces import AnnotatedSpace, ClopenAtoms
    net = Net(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), 0.5)
    sp = AnnotatedSpace("circle", net, np.zeros(3, dtype=int),
                        ("circle",), ClopenAtoms.connected(3), {}, {})
    ref = json.loads(ser.dumps(ser.space_to_ref(sp)))
    assert ref["kind"] == "explicit"
    assert np.array_equal(ser.space_from_ref(ref).net.points, net.points)


def test_subspace_ref_round_trip():
    base = xl.make_space("sine", EPS6)
    sub = xl.subspace(base, [3, 4, 5, 6], "arc")
    ref = json.loads(ser.dumps(ser.space_to_ref(sub)))
    _validate("space", ref)
    assert ref == {"kind": "construct", "op": "subspace", "name": "arc",
                   "indices": [3, 4, 5, 6], "base": ser.space_to_ref(base)}
    back = ser.space_from_ref(ref)
    assert np.array_equal(back.net.points, sub.net.points)
    assert back.recipe["base"] is base


def test_pair_ref_round_trip():
    for name in xl.pair_names():
        pair = xl.make_pair(name, EPS6)
        ref = json.loads(ser.dumps(ser.pair_to_ref(pair)))
        _validate("pair", ref)
        back = ser.pair_from_ref(ref)
        assert back is pair


def test_explicit_pair_round_trip():
    iv = xl.make_space("interval", EPS6)
    from extenlab.spaces import SpacePair
    pair = SpacePair.build("custom", iv, [0, 3, 7])
    ref = json.loads(ser.dumps(ser.pair_to_ref(pair)))
    _validate("pair", ref)
    back = ser.pair_from_ref(ref)
    assert np.array_equal(back.z_indices, pair.z_indices)


def test_pair_with_a_catalog_name_but_no_recipe_reloads_its_own_z():
    # only make_pair records the catalog recipe, so a pair built by hand
    # keeps its Z even under a catalog pair's name
    iv = xl.make_space("interval", 2.0 ** -5)
    from extenlab.spaces import SpacePair
    pair = SpacePair.build("interval-ends", iv, [0, 5])
    assert pair.recipe is None
    ref = json.loads(ser.dumps(ser.pair_to_ref(pair)))
    _validate("pair", ref)
    assert ref["kind"] == "explicit"
    back = ser.pair_from_ref(ref)
    assert back.name == "interval-ends"
    assert back.z_indices.tolist() == [0, 5]
    assert np.array_equal(back.space.net.points, iv.net.points)
    catalog = xl.make_pair("interval-ends", 2.0 ** -5)
    assert ser.pair_to_ref(catalog) == {"kind": "catalog",
                                        "name": "interval-ends",
                                        "resolution": 2.0 ** -5}
    assert catalog.z_indices.tolist() == [0, 32]


# ---------------------------------------------------------------------------
# maps and moduli


def test_modulus_round_trips():
    for m in (Modulus.lip(2.5),
              Modulus.step([(0.0, 0.0), (0.5, 0.1), (2.0, 1.0)])):
        back = ser.modulus_from_json(
            json.loads(ser.dumps(ser.modulus_to_json(m))))
        assert back.kind == m.kind
        ts = np.array([0.0, 0.3, 0.6, 1.9])
        assert np.array_equal(back(ts), m(ts))


def test_map_round_trip_preserves_bits():
    fam = xl.example_family("comb", EPS6)
    phi = fam.member(3)
    data = json.loads(ser.dumps(ser.map_to_json(phi)))
    _validate("map", data)
    back = ser.map_from_json(data, fam.pair.z_net)
    assert np.array_equal(back.values, phi.values)
    assert xl.sup_distance(back, phi) == 0.0


# ---------------------------------------------------------------------------
# certificates and verdicts


@pytest.mark.parametrize("name,n", [
    ("comb", None), ("sine-eclosed", None), ("pathcomp", None),
    ("sine-eopen", 2), ("ndagger-eopen", 3), ("hawaii", 2),
])
def test_obstruction_certificates_round_trip_and_reverify(name, n):
    fam = xl.example_family(name, EPS6)
    phi = fam.limit if n is None else fam.member(n)
    cert = build_negative_certificate(name, n, EPS6)
    blob = ser.dumps(ser.certificate_to_json(cert, EPS6))
    data = json.loads(blob)
    _validate("certificate", data)
    back = ser.certificate_from_json(data, fam.pair, fam.codomain)
    assert ser.dumps(ser.certificate_to_json(back, EPS6)) == blob
    v1 = check_certificate(fam.pair, phi, cert)
    v2 = check_certificate(fam.pair, phi, back)
    assert v1.ok and v2.ok
    assert ser.dumps(v1.as_dict()) == ser.dumps(v2.as_dict())


def test_positive_certificate_round_trip():
    fam = xl.example_family("comb", EPS6)
    cert = PositiveCertificate(xl.explicit_extension("comb", 2, EPS6), 0.0)
    blob = ser.dumps(ser.certificate_to_json(cert, EPS6))
    data = json.loads(blob)
    _validate("certificate", data)
    back = ser.certificate_from_json(data, fam.pair, fam.codomain)
    assert ser.dumps(ser.certificate_to_json(back, EPS6)) == blob
    assert check_certificate(fam.pair, fam.member(2), back).ok


def test_verdict_json_validates():
    fam = xl.example_family("comb", EPS6)
    cert = build_negative_certificate("comb", None, EPS6)
    v = check_certificate(fam.pair, fam.limit, cert)
    data = json.loads(ser.dumps(v.as_dict()))
    _validate("verdict", data)


def test_report_json_validates():
    r = xl.run_example("ndagger-eclosed", epsilon=EPS6)
    data = json.loads(ser.dumps(r.as_dict()))
    _validate("report", data)


def test_explicit_space_rewrites_the_reference_it_was_read_from():
    # no phantom atom is appended on the way back out
    eps = 2.0 ** -5
    spaces = [xl.make_pair(name, eps).space
              for name in ("interval-N", "disk-earring")]
    spaces.append(dataclasses.replace(xl.make_space("ndagger", eps),
                                      recipe=None))
    for space in spaces:
        text = ser.dumps(ser.space_to_ref(space))
        ref = json.loads(text)
        assert ref["kind"] == "explicit"
        assert ser.space_to_ref(ser.space_from_ref(ref)) == ref
        assert ser.dumps(ser.space_to_ref(ser.space_from_ref(ref))) == text


def test_explicit_reload_keys_apart_from_the_catalog_space():
    # the reloaded interval-N Y shares name and resolution with the
    # catalog interval, but not its points
    eps = 2.0 ** -5
    catalog = xl.make_space("interval", eps)
    back = ser.space_from_ref(
        ser.space_to_ref(xl.make_pair("interval-N", eps).space))
    assert back.name == catalog.name and back.key != catalog.key
    domain = xl.make_space("point", eps).net
    f = MapSample(domain, catalog, [[0.5]], Modulus.lip(1.0))
    g = MapSample(domain, back, [[0.5]], Modulus.lip(1.0))
    with pytest.raises(DomainMismatch):
        sup_distance(f, g)
    assert sup_distance(g, ser.map_from_json(ser.map_to_json(g), domain)) == 0


def _explicit_ref(name, points, eps):
    return {"kind": "explicit", "name": name,
            "net": {"dimension": 1, "points": [[p] for p in points],
                    "resolution": eps, "metric": "euclidean"},
            "path_components": [0] * len(points),
            "component_names": ["only"],
            "clopen_atoms": [list(range(len(points)))]}


def test_explicit_spaces_on_other_points_key_apart():
    # same name and resolution; the key follows the points
    eps = 2.0 ** -1
    a = ser.space_from_ref(_explicit_ref("user", [0.0, 1.0], eps))
    b = ser.space_from_ref(_explicit_ref("user", [5.0, 7.0, 9.0], eps))
    assert a.key != b.key
    domain = xl.make_space("point", eps).net
    f = MapSample(domain, a, [[1.0]], Modulus.lip(1.0))
    g = MapSample(domain, b, [[8.0]], Modulus.lip(1.0))
    with pytest.raises(DomainMismatch):
        sup_distance(f, g)


def test_explicit_spaces_on_equal_points_share_a_key():
    eps = 2.0 ** -1
    a = ser.space_from_ref(_explicit_ref("user", [0.0, 1.0], eps))
    b = ser.space_from_ref(_explicit_ref("user", [0.0, 1.0], eps))
    c = ser.space_from_ref(_explicit_ref("user", [-0.0, 1.0], eps))
    assert a.key == b.key == c.key
    assert ser.space_from_ref(ser.space_to_ref(a)).key == a.key


def test_the_certificate_schema_lists_each_kind_by_its_fields():
    from extenlab.certificates import KINDS
    branches = {b["properties"]["kind"]["const"]: b
                for b in ser.load_schema("certificate")["oneOf"]}
    assert set(branches) == set(KINDS)
    for kind, cls in KINDS.items():
        fields = dataclasses.fields(cls)
        assert set(branches[kind]["properties"]) == \
            {"kind", "epsilon"} | {f.name for f in fields}
        assert set(branches[kind]["required"]) == {"kind", "epsilon"} | {
            f.name for f in fields if f.default is dataclasses.MISSING}


def _alternatives(schema):
    """A schema's branches by their kind, else by their first key."""
    return {b["properties"]["kind"]["const"] if "kind" in b["properties"]
            else min(b["properties"]): b
            for b in schema.get("oneOf", [schema])}


def test_each_part_of_a_file_is_read_by_the_fields_of_its_schema():
    # the field table and the shipped schemas admit the same keys and need
    # the same ones, alternative by alternative
    schema = {name: ser.load_schema(name) for name in (
        "net", "space", "pair", "map", "problem", "certificate")}
    schema["modulus"] = schema["map"]["properties"]["modulus"]
    for name, branches in ((name, _alternatives(body))
                           for name, body in schema.items()):
        rows = {min(row["kind"]) if "kind" in row else
                min(k.rstrip("?") for k in row): row
                for row in ser._SHAPES[name]}
        assert rows.keys() == branches.keys(), name
        for kind, row in rows.items():
            branch = branches[kind]
            assert {k.rstrip("?") for k in row} == set(branch["properties"])
            assert {k for k in row if k[-1] != "?"} == set(branch["required"])
    construct = _alternatives(schema["space"])["construct"]["properties"]
    assert ser._SHAPES["space"][1]["op"] == set(construct["op"]["enum"])
    region = _alternatives(schema["certificate"])["mandatory-crossing"]
    assert ser._SHAPES["Region"]["op"] == set(
        region["properties"]["region"]["properties"]["op"]["enum"])
    euclidean, matrix = schema["net"]["properties"]["metric"]["oneOf"]
    assert ser._SHAPES["net"][0]["metric"][0] == {euclidean["const"]}
    assert ser._SHAPES["net"][0]["metric"][1].keys() == set(
        matrix["properties"]) == set(matrix["required"])


def _numpy_scalars(value):
    if isinstance(value, bool) or not isinstance(value, (int, float, tuple,
                                                         dict)):
        return value
    if isinstance(value, tuple):
        return tuple(_numpy_scalars(v) for v in value)
    if isinstance(value, dict):
        return {k: _numpy_scalars(v) for k, v in value.items()}
    return np.int64(value) if isinstance(value, int) else np.float64(value)


@pytest.mark.parametrize("name,n", [("hawaii", None), ("pathcomp", None),
                                    ("ndagger-eopen", 2), ("comb", None),
                                    ("hawaii", 2)])
def test_numpy_scalar_fields_write_the_plain_bytes(name, n):
    from extenlab.certificates import ClopenObstruction, certificate_for
    fam = xl.example_family(name, EPS6)
    plain = certificate_for(name, n, EPS6)
    if plain.kind == "clopen":              # an unsorted trace is sorted
        plain = ClopenObstruction(plain.value_label, plain.value_ambient,
                                  (0, 2, 3))
        numpy = ClopenObstruction(np.int64(plain.value_label),
                                  np.float64(plain.value_ambient),
                                  [np.int64(3), np.int64(0), np.int64(2)])
    else:
        numpy = dataclasses.replace(plain, **{
            f.name: _numpy_scalars(getattr(plain, f.name))
            for f in dataclasses.fields(plain)})
        if plain.kind == "positive":
            numpy = dataclasses.replace(numpy, modulus_slack=np.float64(0.5))
            plain = dataclasses.replace(plain, modulus_slack=0.5)
    blob = ser.dumps(ser.certificate_to_json(plain, EPS6))
    assert ser.dumps(ser.certificate_to_json(numpy, EPS6)) == blob
    _validate("certificate", json.loads(blob))
    back = ser.certificate_from_json(json.loads(blob), fam.pair,
                                     fam.codomain)
    assert ser.dumps(ser.certificate_to_json(back, EPS6)) == blob


def test_bulk_json_pauses_the_collector_and_restores_its_state(monkeypatch):
    import gc
    phi = xl.example_family("comb", EPS6).member(1)
    seen = []
    to_ref = ser.space_to_ref

    def recording(space):               # called inside map_to_json
        seen.append(gc.isenabled())
        return to_ref(space)

    monkeypatch.setattr(ser, "space_to_ref", recording)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            data = ser.map_to_json(phi)
            back = ser.map_from_json(json.loads(ser.dumps(data)), phi.domain)
            assert gc.isenabled() is enabled
            assert np.array_equal(back.values, phi.values)
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_collector_pauses_nest_across_threads():
    import gc
    import threading
    inside, release = threading.Event(), threading.Event()

    def hold():
        with ser._gc_paused():
            inside.set()
            release.wait(10)

    was = gc.isenabled()
    try:
        gc.enable()
        for thread_leaves_first in (False, True):
            inside.clear()
            release.clear()
            other = threading.Thread(target=hold)
            other.start()
            assert inside.wait(10)
            with ser._gc_paused():      # enters while the other is inside
                assert not gc.isenabled()
                if thread_leaves_first:
                    release.set()
                    other.join(10)
                    assert not gc.isenabled()
            assert gc.isenabled() is thread_leaves_first
            release.set()
            other.join(10)
            assert gc.isenabled()
        phi = xl.example_family("comb", EPS6).member(1)
        workers = [threading.Thread(
            target=lambda: [ser.map_to_json(phi) for _ in range(20)])
            for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
        assert gc.isenabled()
        gc.disable()
        with ser._gc_paused():
            pass
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
