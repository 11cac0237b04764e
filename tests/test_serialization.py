import json

import jsonschema
import numpy as np
import pytest

import extenlab as xl
from extenlab import serialization as ser
from extenlab.certificates import (PositiveCertificate,
                                   build_negative_certificate,
                                   check_certificate)
from extenlab.errors import InvalidArgument
from extenlab.metric import MatrixMetric, Modulus, Net

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


def test_net_json_must_match_dimension():
    with pytest.raises(InvalidArgument):
        ser.net_from_json({"dimension": 3, "points": [[0.0]],
                           "resolution": 0.5, "metric": "euclidean"})


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
    from extenlab.spaces import AnnotatedSpace, ConnectedOracle
    net = Net(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5)
    sp = AnnotatedSpace("user", (), net, np.zeros(2, dtype=int), ("user",),
                        ConnectedOracle(2), {}, {}, np.empty((0, 2)))
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
    from extenlab.spaces import AnnotatedSpace, ConnectedOracle
    net = Net(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), 0.5)
    sp = AnnotatedSpace("circle", (), net, np.zeros(3, dtype=int),
                        ("circle",), ConnectedOracle(3), {}, {},
                        np.empty((0, 2)))
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


def test_homotopy_round_trip_as_product_map():
    circle = xl.make_space("circle", EPS6)
    from extenlab.maps import constant_map, homotopy_between
    f = constant_map(circle.net, circle, [1.0, 0.0])
    g = constant_map(circle.net, circle, [0.0, 1.0])
    h = xl.homotopy_between(f, g, "geodesic-circle")
    data = json.loads(ser.dumps(ser.homotopy_to_json(h)))
    back = ser.homotopy_from_json(data, circle.net)
    assert np.array_equal(back.values, h.values)
    assert np.array_equal(back.times, h.times)
    # every slice is a valid sample under the shared modulus
    for t in (0.0, 0.5, 1.0):
        assert not back.slice(t).validity_report()


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
