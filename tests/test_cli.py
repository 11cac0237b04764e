import dataclasses
import json
import math
import sys

import jsonschema
import numpy as np
import pytest

import extenlab as xl
from extenlab import cli
from extenlab import serialization as ser
from extenlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_list(capsys):
    code, out, _ = run_cli(capsys, "example", "list")
    assert code == 0
    assert "comb" in out and "anr-eclosed" in out
    assert len(out.strip().splitlines()) == 13


def test_main_builds_its_parser_once(capsys):
    from extenlab.cli import build_parser
    build_parser.cache_clear()
    assert run_cli(capsys, "example", "list")[0] == 0
    assert run_cli(capsys, "example", "run", "nosuch")[0] == 3
    assert build_parser.cache_info().misses == 1


def test_example_run_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "example", "run", "ndagger-eclosed",
                           "--epsilon", "2^-6")
    assert code == 0
    assert "status: ok" in out


def test_example_run_unknown_name_exit_three(capsys):
    code, _, err = run_cli(capsys, "example", "run", "nosuch")
    assert code == 3
    assert "unknown example" in err


def test_example_run_bad_epsilon_exit_three(capsys):
    code, _, err = run_cli(capsys, "example", "run", "comb",
                           "--epsilon", "0.3")
    assert code == 3


def test_example_run_json_is_schema_valid(capsys):
    code, out, _ = run_cli(capsys, "example", "run", "ndagger-eclosed",
                           "--epsilon", "2^-6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    schema = ser.load_schema("report")
    jsonschema.validate(instance=data, schema=schema)
    assert data["ok"] is True


def test_example_run_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "example", "run", "ndagger-eclosed",
                         "--epsilon", "2^-6", "--format", "json")
    _, out2, _ = run_cli(capsys, "example", "run", "ndagger-eclosed",
                         "--epsilon", "2^-6", "--format", "json")
    assert out1.encode() == out2.encode()


def test_example_run_csv(capsys):
    code, out, _ = run_cli(capsys, "example", "run", "ndagger-not-eopen",
                           "--epsilon", "2^-6", "--n-max", "4",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label,sup_distance"


def test_space_info_sine(capsys):
    code, out, _ = run_cli(capsys, "space", "info", "sine",
                           "--epsilon", "2^-8")
    assert code == 0
    assert "path_components: 2" in out


def test_space_info_comb(capsys):
    code, out, _ = run_cli(capsys, "space", "info", "comb",
                           "--epsilon", "2^-6")
    assert code == 0
    assert "path_components: 1" in out


def test_space_sketch_svg(tmp_path, capsys):
    out_file = tmp_path / "sine.svg"
    code, _, _ = run_cli(capsys, "space", "sketch", "sine",
                         "--epsilon", "2^-6", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_construct_cone_reloadable(tmp_path, capsys):
    out_file = tmp_path / "cone.json"
    code, _, _ = run_cli(capsys, "construct", "cone", "ndagger",
                         "--epsilon", "2^-5", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    space = ser.space_from_ref(data)
    assert space.component_count() == 1


# `construct` output for a disk base at 2^-3 with two opc blocks
CONSTRUCT_DISK = {
    "cone": '{"base":{"kind":"catalog","name":"disk","parameters":{},'
            '"resolution":0.125},"kind":"construct","op":"cone"}',
    "product-interval": '{"base":{"kind":"catalog","name":"disk",'
                        '"parameters":{},"resolution":0.125},'
                        '"factor":"interval","kind":"construct",'
                        '"op":"product","step":0.125}',
    "product-ndagger": '{"base":{"kind":"catalog","name":"disk",'
                       '"parameters":{},"resolution":0.125},'
                       '"factor":"ndagger","kind":"construct","op":"product"}',
    "opc": '{"blocks":[{"kind":"catalog","name":"disk","parameters":{},'
           '"resolution":0.125},{"kind":"catalog","name":"disk",'
           '"parameters":{},"resolution":0.125}],"kind":"construct",'
           '"op":"opc"}',
}


def test_construct_output_bytes(capsys):
    for op, expected in CONSTRUCT_DISK.items():
        code, out, _ = run_cli(capsys, "construct", op, "disk",
                               "--epsilon", "2^-3", "--blocks", "2")
        assert code == 0
        assert out == expected + "\n", op


@pytest.mark.parametrize("blocks", ["0", "1021", str(10 ** 19)])
def test_construct_opc_refuses_a_block_count_before_building(capsys, blocks):
    # 10^19 blocks once ended in an OverflowError traceback with exit 1
    code, out, err = run_cli(capsys, "construct", "opc", "point",
                             "--epsilon", "2^-3", "--blocks", blocks)
    assert code == 3 and out == ""
    assert "1..1020" in err and "Traceback" not in err


def test_eop_homotopy_refuses_n_max_beyond_its_members(capsys):
    # --n-max 65 read a member past the 64 built: KeyError, exit 1
    code, out, err = run_cli(capsys, "example", "run", "eop-homotopy",
                             "--n-max", "65")
    assert code == 3 and out == ""
    assert "truncation bound 64" in err and "Traceback" not in err


def test_unknown_flags_rejected(capsys):
    code, _, _ = run_cli(capsys, "example", "run", "comb", "--bogus")
    assert code == 3


def test_certify_cycle(tmp_path, capsys):
    certs = tmp_path / "certs"
    code, _, _ = run_cli(capsys, "example", "run", "comb",
                         "--epsilon", "2^-6", "--n-max", "5",
                         "--emit-certificates", str(certs))
    assert code == 0
    problem = certs / "problem.json"
    certificate = certs / "certificate.json"
    jsonschema.validate(instance=json.loads(problem.read_text()),
                        schema=ser.load_schema("problem"),
                        registry=_registry())
    code, out, _ = run_cli(capsys, "certify", str(problem), str(certificate))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "verified"


@pytest.mark.parametrize("form", ["catalog", "explicit"])
@pytest.mark.parametrize("n", [None, 1], ids=["limit", "member-1"])
@pytest.mark.parametrize("family", xl.FAMILY_NAMES)
def test_emitted_files_fit_the_schemas_and_certify(tmp_path, family, n, form):
    # what the writers emit for each family, its pair by recipe or by points
    eps = EPS4
    fam = xl.example_family(family, eps)
    pair = fam.pair if form == "catalog" else \
        dataclasses.replace(fam.pair, recipe=None)
    problem = {"pair": ser.pair_to_ref(pair),
               "map": ser.map_to_json(fam.limit if n is None
                                      else fam.member(n))}
    cert = ser.certificate_to_json(xl.certificate_for(family, n, eps), eps)
    path = tmp_path / "problem.json"
    path.write_text(ser.dumps(problem))
    for name, instance in (("problem", problem), ("certificate", cert)):
        jsonschema.validate(instance=json.loads(ser.dumps(instance)),
                            schema=ser.load_schema(name),
                            registry=_registry())
    assert _certify(tmp_path, path, ser.dumps(cert)) == 0


def test_certify_refutes_a_crossing_whose_bracket_images_lie_in_the_region(
        tmp_path):
    # sine-eclosed's member 3 extends (its positive certificate verifies),
    # so no crossing of the region x >= 0.5 is forced; the images of the
    # bracket (63, 64) lie in that region, 0.16 away from phi(z0)
    eps = 2.0 ** -6
    fam = xl.example_family("sine-eclosed", eps)
    problem = tmp_path / "problem.json"
    problem.write_text(ser.dumps({"pair": ser.pair_to_ref(fam.pair),
                                  "map": ser.map_to_json(fam.member(3))}))
    positive = xl.certificate_for("sine-eclosed", 3, eps)
    assert _certify(tmp_path, problem,
                    ser.dumps(ser.certificate_to_json(positive, eps))) == 0
    crossing = dataclasses.replace(
        xl.certificate_for("sine-eclosed", None, eps), brackets=((63, 64),),
        region={"axis": 0, "op": "ge", "value": 0.5}, separation=0.16)
    assert _certify(tmp_path, problem,
                    ser.dumps(ser.certificate_to_json(crossing, eps))) == 2


def _registry():
    from referencing import Registry, Resource
    resources = []
    for name in ("net", "space", "pair", "map", "certificate", "verdict",
                 "report", "problem"):
        body = ser.load_schema(name)
        resources.append((body["$id"], Resource.from_contents(body)))
        resources.append((f"{name}.json", Resource.from_contents(body)))
    return Registry().with_resources(resources)


def test_certify_tampered_fields(tmp_path, capsys):
    certs = tmp_path / "certs"
    run_cli(capsys, "example", "run", "comb", "--epsilon", "2^-6",
            "--n-max", "5", "--emit-certificates", str(certs))
    cert = json.loads((certs / "certificate.json").read_text())
    cert["separation"] = 1.7
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "certify", str(certs / "problem.json"),
                           str(tampered))
    assert code == 2
    assert json.loads(out)["status"] == "refuted"

    cert["kind"] = "alien"
    tampered.write_text(json.dumps(cert))
    code, _, err = run_cli(capsys, "certify", str(certs / "problem.json"),
                           str(tampered))
    assert code == 3


def test_certify_truncated_file(tmp_path, capsys):
    certs = tmp_path / "certs"
    run_cli(capsys, "example", "run", "comb", "--epsilon", "2^-6",
            "--n-max", "5", "--emit-certificates", str(certs))
    blob = (certs / "certificate.json").read_text()
    broken = tmp_path / "broken.json"
    broken.write_text(blob[:len(blob) // 2])
    code, _, err = run_cli(capsys, "certify", str(certs / "problem.json"),
                           str(broken))
    assert code == 3


def test_certify_respects_data_dir(tmp_path, capsys, monkeypatch):
    certs = tmp_path / "certs"
    run_cli(capsys, "example", "run", "ndagger-not-eopen",
            "--epsilon", "2^-6", "--emit-certificates", str(certs))
    monkeypatch.setenv("EXTENLAB_DATA_DIR", str(certs))
    code, out, _ = run_cli(capsys, "certify", "problem.json",
                           "certificate.json")
    assert code == 0


def test_space_sketch_rejects_one_dimensional(capsys):
    code, _, err = run_cli(capsys, "space", "sketch", "interval",
                           "--epsilon", "2^-6")
    assert code == 3


def test_construct_bad_epsilon(capsys):
    code, _, _ = run_cli(capsys, "construct", "cone", "ndagger",
                         "--epsilon", "0.3")
    assert code == 3


def test_space_info_json_is_valid_json(capsys):
    code, out, _ = run_cli(capsys, "space", "info", "ndagger",
                           "--epsilon", "2^-6", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["path_components"] == info["net_size"]


def test_certify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "certify", str(tmp_path / "none.json"),
                           str(tmp_path / "also-none.json"))
    assert code == 3


def test_positive_emitted_for_extendible_limits(tmp_path, capsys):
    certs = tmp_path / "pos"
    code, _, _ = run_cli(capsys, "example", "run", "hawaii",
                         "--epsilon", "2^-6", "--n-max", "3",
                         "--emit-certificates", str(certs))
    assert code == 0
    cert = json.loads((certs / "certificate.json").read_text())
    assert cert["kind"] == "positive"
    code, out, _ = run_cli(capsys, "certify", str(certs / "problem.json"),
                           str(certs / "certificate.json"))
    assert code == 0


def test_positive_emitted_for_the_sine_inclusion_limit(tmp_path, capsys):
    certs = tmp_path / "pos"
    code, _, _ = run_cli(capsys, "example", "run", "sine-not-eopen",
                         "--epsilon", "2^-6", "--n-max", "2",
                         "--emit-certificates", str(certs))
    assert code == 0
    cert = json.loads((certs / "certificate.json").read_text())
    assert cert["kind"] == "positive"
    code, out, _ = run_cli(capsys, "certify", str(certs / "problem.json"),
                           str(certs / "certificate.json"))
    assert code == 0 and json.loads(out)["status"] == "verified"


def test_emit_certificates_refused_for_a_run_without_a_family(tmp_path,
                                                              capsys):
    code, _, err = run_cli(capsys, "example", "run", "eop-homotopy",
                           "--epsilon", "2^-6", "--n-max", "2",
                           "--emit-certificates", str(tmp_path / "none"))
    assert code == 3
    assert "does not emit certificate files" in err


def test_certify_rejects_a_parameter_no_builder_reads(tmp_path, capsys):
    eps = 2.0 ** -4
    fam = xl.example_family("sine-eopen", eps)
    cod_ref = {"kind": "catalog", "name": "interval",
               "parameters": {"with": "N"}, "resolution": eps}
    problem = tmp_path / "problem.json"
    problem.write_text(ser.dumps({
        "pair": ser.pair_to_ref(fam.pair),
        "map": {**ser.map_to_json(fam.member(1)), "codomain": cod_ref}}))
    certificate = tmp_path / "certificate.json"
    cert = xl.build_negative_certificate("sine-eopen", 1, eps)
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    code, _, err = run_cli(capsys, "certify", str(problem), str(certificate))
    assert code == 3
    assert "with" in err


def test_certify_rejects_a_non_finite_modulus(tmp_path, capsys):
    # a NaN or infinite constant would make every modulus check pass
    eps = 2.0 ** -4
    fam = xl.example_family("sine-eopen", eps)
    cert = xl.build_negative_certificate("sine-eopen", 1, eps)
    certificate = tmp_path / "certificate.json"
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    for constant in (float("nan"), float("inf")):
        phi = ser.map_to_json(fam.member(1))
        phi["modulus"] = {"lipschitz": constant}
        problem = tmp_path / "problem.json"
        problem.write_text(ser.dumps({"pair": ser.pair_to_ref(fam.pair),
                                      "map": phi}))
        code, _, err = run_cli(capsys, "certify", str(problem),
                               str(certificate))
        assert code == 3
        assert "finite" in err


def _certify_into_matrix_codomain(tmp_path, capsys, matrix_of):
    """certify sine-eopen's member 1 at 2^-4 into an explicit codomain
    whose net carries matrix_of(d), d its own distance matrix."""
    eps = 2.0 ** -4
    fam = xl.example_family("sine-eopen", eps)
    phi = fam.member(1)
    cod = phi.codomain
    every = np.arange(len(cod.net))
    matrix = matrix_of(cod.net.dist_idx(every, every))
    cod_ref = {"kind": "explicit", "name": "sine-matrix",
               "net": {"dimension": 2, "points": cod.net.points.tolist(),
                       "resolution": eps,
                       "metric": {"matrix": matrix.tolist()}},
               "path_components": cod.labels.tolist(),
               "component_names": list(cod.label_names),
               "clopen_atoms": [every.tolist()]}
    problem = tmp_path / "problem.json"
    problem.write_text(ser.dumps({
        "pair": ser.pair_to_ref(fam.pair),
        "map": {**ser.map_to_json(phi), "codomain": cod_ref}}))
    certificate = tmp_path / "certificate.json"
    cert = xl.build_negative_certificate("sine-eopen", 1, eps)
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    return run_cli(capsys, "certify", str(problem), str(certificate))


def test_certify_matrix_metric_codomain(tmp_path, capsys):
    # an explicit codomain whose net carries a distance matrix: images
    # resolve to its points by exact lookup instead of crashing
    code, out, _ = _certify_into_matrix_codomain(tmp_path, capsys,
                                                 lambda d: d)
    assert code == 0 and json.loads(out)["status"] == "verified"


@pytest.mark.parametrize("matrix_of", [
    lambda d: d[:-3], lambda d: np.vstack([d, d[:2]]), lambda d: d[0],
    lambda d: -d, lambda d: np.full_like(d, np.nan), lambda d: np.triu(d),
    lambda d: d + np.eye(len(d))],
    ids=["3-rows-short", "2-rows-long", "1-d", "negated", "nan", "asymmetric",
         "nonzero-diagonal"])
def test_certify_rejects_a_malformed_distance_matrix(tmp_path, capsys,
                                                     matrix_of):
    code, _, err = _certify_into_matrix_codomain(tmp_path, capsys, matrix_of)
    assert code == 3
    assert "distance matrix" in err


def test_certify_rejects_malformed_clopen_atoms(tmp_path, capsys):
    # an explicit Y whose clopen atoms overlap, leave the net or are empty
    # is malformed input (exit 3), not a space with odd clopen sets
    eps = 2.0 ** -4
    fam = xl.example_family("ndagger-eopen", eps)
    pair = ser.pair_to_ref(dataclasses.replace(fam.pair, recipe=None))
    n = len(fam.pair.space.net)
    certificate = tmp_path / "certificate.json"
    cert = xl.build_negative_certificate("ndagger-eopen", 1, eps)
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    problem = tmp_path / "problem.json"
    for atoms, code_wanted in (([list(range(n))], 0),
                               ([list(range(n)), [0]], 3),
                               ([[0, 0], list(range(1, n))], 3),
                               ([list(range(n + 1))], 3),
                               ([[-1], list(range(n))], 3),
                               ([[], list(range(n))], 3)):
        pair["space"]["clopen_atoms"] = atoms
        problem.write_text(ser.dumps({"pair": pair,
                                      "map": ser.map_to_json(fam.member(1))}))
        code, _, err = run_cli(capsys, "certify", str(problem),
                               str(certificate))
        assert code == code_wanted, atoms
        assert code == 0 or "clopen atom" in err


def test_certify_rejects_malformed_path_components(tmp_path, capsys):
    # an explicit Y needs one label per net point, each naming a component
    eps = 2.0 ** -4
    fam = xl.example_family("ndagger-eopen", eps)
    pair = ser.pair_to_ref(dataclasses.replace(fam.pair, recipe=None))
    n = len(fam.pair.space.net)
    assert pair["space"]["component_names"] == ["interval"]
    certificate = tmp_path / "certificate.json"
    cert = xl.build_negative_certificate("ndagger-eopen", 1, eps)
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    problem = tmp_path / "problem.json"
    for labels, code_wanted in (([0] * n, 0), ([0], 3), ([0] * (n + 1), 3),
                                ([5] * n, 3), ([-1] + [0] * (n - 1), 3),
                                ([], 3)):
        pair["space"]["path_components"] = labels
        problem.write_text(ser.dumps({"pair": pair,
                                      "map": ser.map_to_json(fam.member(1))}))
        code, _, err = run_cli(capsys, "certify", str(problem),
                               str(certificate))
        assert code == code_wanted, labels
        assert code == 0 or "path_components" in err


def test_every_example_at_coarse_epsilon_ends_in_an_exit_code(capsys):
    # sine at 1 once raised numpy's "negative dimensions", anr-eopen at
    # 1 .. 2^-2 an IndexError on a missing 1/n slice
    codes = {}
    for entry in xl.list_examples():
        for eps in ("1", "2^-1", "2^-2", "2^-3"):
            codes[entry["name"], eps] = run_cli(
                capsys, "example", "run", entry["name"], "--epsilon", eps)[0]
    assert len(codes) == 52 and set(codes.values()) <= {0, 2, 3, 4}
    for name in ("pathcomp", "sine-not-eclosed", "sine-not-eopen"):
        assert codes[name, "1"] == 3
    for eps in ("1", "2^-1", "2^-2"):
        assert codes["anr-eopen", eps] == 3
    assert codes["anr-eopen", "2^-3"] == 0


# sha256 of each example's JSON report at the coarse resolutions (standard
# output, a NUL, standard error) with its exit code, as recorded before
# measured moduli became lazy: an error deferred to a later read would
# move a report.fail path and show here
COARSE_REPORTS = {
    ("anr-eclosed", "1"): (3, "6450758716ba0c2715c165a3fde942f8b825910cfdf217824bded6ea2195ed77"),
    ("anr-eclosed", "2^-1"): (3, "6450758716ba0c2715c165a3fde942f8b825910cfdf217824bded6ea2195ed77"),
    ("anr-eclosed", "2^-2"): (3, "6450758716ba0c2715c165a3fde942f8b825910cfdf217824bded6ea2195ed77"),
    ("anr-eclosed", "2^-3"): (3, "6450758716ba0c2715c165a3fde942f8b825910cfdf217824bded6ea2195ed77"),
    ("anr-eopen", "1"): (3, "f91ea5a1de88d6ac40afb2f9cbc9178aade2c0491ee018f40a01a364f64d2a83"),
    ("anr-eopen", "2^-1"): (3, "7b76372ad896fd9d210ca39721053b351a01c44cfe57c10ac8e856968ae60d9e"),
    ("anr-eopen", "2^-2"): (3, "4444acdaabdb83fc3efa8c13abf564c08ccd9f88e283b8942ee4a77c26bfcfe8"),
    ("anr-eopen", "2^-3"): (0, "77fc6bb0682e4bb672a8e6f1cadec4412d0e66a8f4c5750c943d376607f42580"),
    ("comb", "1"): (3, "b36e1ccda1b4d2bca9c1f405e0cbcaa491b289da5fe3f20629473c374ce1c9fc"),
    ("comb", "2^-1"): (3, "95c7f31b14409f3eb50ece81bdf78f802774772a9cfe06486b064b539052c737"),
    ("comb", "2^-2"): (3, "c67d1ab2442cb4381d2d8397da6dd2373f83286b96dbf39f29970d96bd1465bb"),
    ("comb", "2^-3"): (3, "ca4ccb73122ca43e6e21bfe582892b69119178332948b6f34d5d8c2db68cab34"),
    ("cone-contraction", "1"): (0, "75a34841e442f4547b028aef77ef1ba4e9ccd6180de39cd2af6a4d35d6f2f048"),
    ("cone-contraction", "2^-1"): (0, "214037e33d9d764674fb91efb2ede5f0f06207b94bd523bab959a33bf1234ace"),
    ("cone-contraction", "2^-2"): (0, "5ff2b116f3e45ff34a755293e0069df319e3f7b4daadeca4e77475f7f070ed66"),
    ("cone-contraction", "2^-3"): (0, "35898706162d05a3299969ad3c8b5ca6d7c65ad0b79e907580767a9dd05e5684"),
    ("eop-homotopy", "1"): (0, "cd0d85677ee30a2550770e9d8d7a198db9349b2fc7391c6d9dff92669df60d0b"),
    ("eop-homotopy", "2^-1"): (0, "aa429864c92dda1907d7f1436761d2ae2045ce3a169516c61e5a96558677883f"),
    ("eop-homotopy", "2^-2"): (0, "7358ccccbf3e213156a73f947d12cefcaab692589dc92f7c202bc55e691e4437"),
    ("eop-homotopy", "2^-3"): (0, "236984da2620075517e071f2d79b96761af599393260607672da809a66189519"),
    ("equiconnected", "1"): (0, "ca144b926d5f884e09a7f39eccf12b78d0bc62589753981fab0dbfc661710ed5"),
    ("equiconnected", "2^-1"): (0, "f7a86bb93f8b52002b41f254d85e14fadb218c0f4c98ee678fd98ae1742e82f3"),
    ("equiconnected", "2^-2"): (0, "2b75a420bb1c49b1081de2515cb6f30eb1ab736ed5e6c40b43b25ffaa8847b57"),
    ("equiconnected", "2^-3"): (0, "8fa319f7f11361e9fe3b23c0b82882560e9bc8a66e8db5c02a60813a3ab37e3f"),
    ("hawaii", "1"): (3, "226752dc97b852c03aa470222b920f5d4287e5cb428478322300f3c8781fd97b"),
    ("hawaii", "2^-1"): (3, "393c87105adb041fc6c3e513c13867a32fcc020c4b0bcf0bf2b8ebde93f30058"),
    ("hawaii", "2^-2"): (3, "58ce8574d514062c80a825e17805007251e0dcf5ccd623fdd0286a841aa7e5ea"),
    ("hawaii", "2^-3"): (3, "795673f0dfb3c58cb1a22c987549447b6b8a565d4060a32dc9f3264b3d4e571b"),
    ("loc-ext", "1"): (0, "f34df97fe260a2d75452365a0140b13f5a9f4ddcd54f6e480b1ab5c7776f0f99"),
    ("loc-ext", "2^-1"): (0, "122b0563f7cbb0591bdf9088962db6052f7a9afd5e62670fc085cbe441475a42"),
    ("loc-ext", "2^-2"): (0, "3f0546f50eedc821884efc6315d57b3c3e9460ccf0050c4fbd5a28589c11b854"),
    ("loc-ext", "2^-3"): (0, "e8ae68193d43060980d903e9070bb4549211818cb8ec8417cee62c24b0bbda0c"),
    ("ndagger-eclosed", "1"): (0, "54271778c70166a488bdd59793672002070308624b900a34bec4fc6ceeac954f"),
    ("ndagger-eclosed", "2^-1"): (0, "f0a27300ddf8484bd2596fecb94a342b98bf56fd5c79bad0f830ba3fa284a9e1"),
    ("ndagger-eclosed", "2^-2"): (0, "33363c2e2aacc39f5d201c0dc55c7c97cedc09cd2a414adb7c8199d60d1d5cca"),
    ("ndagger-eclosed", "2^-3"): (0, "b6024dfb76bfdc328e3dc4bc9a6b0a77209afa266c49f3c1221734508b7823cc"),
    ("ndagger-not-eopen", "1"): (2, "69e3145ce749a4423d52b38c09a3523f1f3d562ae4beff558d7c702fe626109d"),
    ("ndagger-not-eopen", "2^-1"): (2, "63b0159d8d0287593835f2b1e420c04688a92e08cd952d9034a57282a2030b47"),
    ("ndagger-not-eopen", "2^-2"): (2, "fca7697c59ff927ca1e171b58b20dab0847a44d263dc3e7dedb6354e2d6a6e3b"),
    ("ndagger-not-eopen", "2^-3"): (2, "ec30fc2b567e5cb5742db22c6c18299db6cb2eb250c9814cd0a2a852e2f68807"),
    ("pathcomp", "1"): (3, "75b71b9916341c94072a6493268b04a18d74948c363742b761657d89f1f0772f"),
    ("pathcomp", "2^-1"): (3, "6575bf332fb7824fcb2f5fb71ea2e86a87ad49c7ad5421eadadd0cd2e1502f17"),
    ("pathcomp", "2^-2"): (3, "a3011fce76d7666809cb48eeb481feee6c89750367681ff88b7e896938bf590a"),
    ("pathcomp", "2^-3"): (3, "e0e9e6f5e5aafd2abb54d6d620a098b0ce8ceb155ad09112bdbf82952c55c9d4"),
    ("sine-not-eclosed", "1"): (3, "75b71b9916341c94072a6493268b04a18d74948c363742b761657d89f1f0772f"),
    ("sine-not-eclosed", "2^-1"): (3, "6575bf332fb7824fcb2f5fb71ea2e86a87ad49c7ad5421eadadd0cd2e1502f17"),
    ("sine-not-eclosed", "2^-2"): (3, "a3011fce76d7666809cb48eeb481feee6c89750367681ff88b7e896938bf590a"),
    ("sine-not-eclosed", "2^-3"): (3, "e0e9e6f5e5aafd2abb54d6d620a098b0ce8ceb155ad09112bdbf82952c55c9d4"),
    ("sine-not-eopen", "1"): (3, "75b71b9916341c94072a6493268b04a18d74948c363742b761657d89f1f0772f"),
    ("sine-not-eopen", "2^-1"): (3, "6575bf332fb7824fcb2f5fb71ea2e86a87ad49c7ad5421eadadd0cd2e1502f17"),
    ("sine-not-eopen", "2^-2"): (3, "a3011fce76d7666809cb48eeb481feee6c89750367681ff88b7e896938bf590a"),
    ("sine-not-eopen", "2^-3"): (3, "e0e9e6f5e5aafd2abb54d6d620a098b0ce8ceb155ad09112bdbf82952c55c9d4"),
}


def test_every_example_at_coarse_epsilon_keeps_its_report_bytes(capsys):
    import hashlib
    got = {}
    for entry in xl.list_examples():
        for eps in ("1", "2^-1", "2^-2", "2^-3"):
            code, out, err = run_cli(capsys, "example", "run", entry["name"],
                                     "--epsilon", eps, "--format", "json")
            got[entry["name"], eps] = (code, hashlib.sha256(
                (out + "\0" + err).encode()).hexdigest())
    assert got == COARSE_REPORTS


# the same digest for equiconnected at two fine resolutions, as recorded
# before its largest slice distance was screened by per-row boxes
FINE_EQUICONNECTED = {
    "2^-8": (0, "a9a56d937b8df0cf217f1e849e00881b0c373888b9eed68876525fe0e6ba5f8f"),
    "2^-10": (0, "561c98d8d9d0b842cb4783f5ff87244f60982a953c6cf4a9ef95128b79f431bb"),
}


def test_equiconnected_at_fine_epsilon_keeps_its_report_bytes(capsys):
    import hashlib
    got = {}
    for eps in FINE_EQUICONNECTED:
        code, out, err = run_cli(capsys, "example", "run", "equiconnected",
                                 "--epsilon", eps, "--format", "json")
        got[eps] = (code, hashlib.sha256(
            (out + "\0" + err).encode()).hexdigest())
    assert got == FINE_EQUICONNECTED


def test_space_info_sine_at_epsilon_one(capsys):
    code, out, _ = run_cli(capsys, "space", "info", "sine", "--epsilon", "1")
    assert code == 0 and "net_size: 6" in out


# ---------------------------------------------------------------------------
# certificate fields are checked up front


EPS6 = 2.0 ** -6


def _emitted(tmp_path, family, n, eps=EPS6):
    """problem.json as emitted, and the certificate's file form."""
    fam = xl.example_family(family, eps)
    phi = fam.limit if n is None else fam.member(n)
    problem = tmp_path / "problem.json"
    problem.write_text(ser.dumps({"pair": ser.pair_to_ref(fam.pair),
                                  "map": ser.map_to_json(phi)}))
    cert = xl.certificate_for(family, n, eps)
    return problem, json.loads(ser.dumps(ser.certificate_to_json(cert, eps)))


def _certify(tmp_path, problem, text):
    certificate = tmp_path / "certificate.json"
    certificate.write_text(text)
    return main(["certify", str(problem), str(certificate),
                 "--out", str(tmp_path / "verdict.json")])


@pytest.mark.parametrize("family,n,field,tamper", [
    ("comb", None, "z0", lambda v: float("inf")),
    ("hawaii", 2, "expected_winding", lambda v: float("inf")),
    ("comb", None, "z0", lambda v: -1),
    ("ndagger-eopen", 2, "trace", lambda v: [-1]),
    ("sine-eopen", 2, "witness_path", lambda v: [[i] for i in v]),
    ("comb", None, "brackets", lambda v: [[float(v[0][0]), v[0][1]]] + v[1:]),
    ("comb", None, "region", lambda v: {**v, "axis": -1}),
    ("comb", None, "region", lambda v: {**v, "junk": [1]}),
    ("comb", None, "region", lambda v: {}),
    ("comb", None, "region", lambda v: {**v, "axis": 5}),
    ("comb", None, "region", lambda v: {**v, "axis": 1.0}),
    ("comb", None, "region", lambda v: {**v, "op": "xx"}),
    ("comb", None, "region", lambda v: {**v, "value": "a"}),
    ("comb", None, "region", lambda v: {**v, "value": float("nan")}),
    # a NaN or infinite slack or tolerance passes every comparison
    ("comb", 2, "modulus_slack", lambda v: float("nan")),
    ("comb", 2, "modulus_slack", lambda v: float("inf")),
    ("comb", 2, "tolerance", lambda v: float("inf")),
    ("comb", 2, "tolerance", lambda v: float("nan")),
    ("comb", None, "separation", lambda v: float("nan")),
    # the schema holds two labels; one or three once refuted (exit 2)
    ("pathcomp", None, "x_labels", lambda v: v[:1]),
    ("pathcomp", None, "x_labels", lambda v: v + ["segment"]),
    # each spelling once verified as collapse-2
    *[("hawaii", 1, "retraction", lambda v, s=s: s) for s in (
        "radial-2", "x-2", "collapse--2", "collapse- 2", "collapse-+2",
        "collapse-02")],
], ids=["int-infinite", "winding-infinite", "negative-position",
        "trace-negative", "path-2d", "bracket-float", "region-axis-negative",
        "region-extra-key", "region-empty", "region-axis-too-large",
        "region-axis-float", "region-op-unknown", "region-value-string",
        "region-value-nan", "slack-nan", "slack-infinite",
        "tolerance-infinite", "tolerance-nan", "separation-nan",
        "x-labels-one", "x-labels-three",
        "retraction-radial", "retraction-x", "retraction-negative",
        "retraction-space", "retraction-plus", "retraction-leading-zero"])
def test_certify_refuses_a_field_that_does_not_fit(tmp_path, capsys, family,
                                                   n, field, tamper):
    problem, cert = _emitted(tmp_path, family, n)
    assert _certify(tmp_path, problem, json.dumps(cert)) == 0
    cert[field] = tamper(cert[field])
    assert _certify(tmp_path, problem, json.dumps(cert)) == 3
    assert repr(field) in capsys.readouterr().err


def test_certify_refuses_non_finite_numbers_in_a_refuted_positive(tmp_path,
                                                                   capsys):
    # one extension value off Z moved to the tip of tooth 1 breaks the
    # declared modulus; a NaN or infinite slack once let it verify
    problem, cert = _emitted(tmp_path, "comb", 2, EPS5)
    z = xl.example_family("comb", EPS5).pair.z_indices
    off_z = int(np.setdiff1d(np.arange(len(z) + 1), z)[0])
    cert["extension"]["values"][off_z] = [1.0, 1.0]
    assert _certify(tmp_path, problem, json.dumps(cert)) == 2
    for slack in (float("nan"), float("inf")):
        assert _certify(tmp_path, problem,
                        json.dumps({**cert, "modulus_slack": slack})) == 3
        assert "'modulus_slack'" in capsys.readouterr().err
    for special in (float("nan"), float("inf"), float("-inf")):
        cert["extension"]["values"][off_z] = [special, 1.0]
        assert _certify(tmp_path, problem, json.dumps(cert)) == 3
        assert "finite" in capsys.readouterr().err


def test_certify_refuses_a_deeply_nested_file(tmp_path, capsys):
    problem, _ = _emitted(tmp_path, "comb", None)
    assert _certify(tmp_path, problem, "[" * 100_000) == 3
    assert "cannot read inputs" in capsys.readouterr().err


def test_certify_fuzzed_certificate_fields_end_in_an_exit_code(tmp_path):
    from hypothesis import HealthCheck, given, settings, strategies as st

    eps = 2.0 ** -5
    emitted = {}
    for family, n in (("hawaii", None), ("pathcomp", None),
                      ("ndagger-eopen", 2), ("comb", None), ("hawaii", 2)):
        base = tmp_path / f"{family}-{n}"
        base.mkdir()
        problem, cert = _emitted(base, family, n, eps)
        emitted[cert["kind"]] = (base, problem, cert)
    assert len(emitted) == 5
    nested = st.recursive(st.just(0), lambda inner: st.lists(
        inner, min_size=1, max_size=2), max_leaves=40)
    wrong = st.one_of(
        st.sampled_from([None, True, "collapse-2", {}, [], [[0, 1]], 0.5]),
        st.integers(min_value=-2 ** 80, max_value=2 ** 80),
        st.sampled_from([-1, -2 ** 63, 2 ** 63, 10 ** 400]),
        st.floats(allow_nan=True, allow_infinity=True), nested)

    @given(st.sampled_from(sorted(emitted)), st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def run(kind, data):
        base, problem, cert = emitted[kind]
        cert = dict(cert)
        key = data.draw(st.sampled_from(sorted(cert)))
        if data.draw(st.booleans()):
            del cert[key]
        else:
            cert[key] = data.draw(wrong)
        assert _certify(base, problem, json.dumps(cert)) in (0, 2, 3, 4)

    run()
    floats = {kind: ["epsilon"] + [
        f.name for f in dataclasses.fields(ser.certs.KINDS[kind])
        if f.type in ("float", "float | None", "NonNegative")]
        for kind in emitted}

    @given(st.sampled_from(sorted(emitted)), st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def non_finite(kind, data):
        base, problem, cert = emitted[kind]
        cert = {**cert, data.draw(st.sampled_from(floats[kind])):
                data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))}
        assert _certify(base, problem, json.dumps(cert)) == 3

    non_finite()


# ---------------------------------------------------------------------------
# malformed problem files and unwritable outputs end in exit 3


EPS5 = 2.0 ** -5


def _explicit_problem(family, n, eps=EPS5):
    """problem.json's content for member n (None: the limit), its pair in
    explicit form, and the catalog certificate's file form."""
    fam = xl.example_family(family, eps)
    phi = fam.limit if n is None else fam.member(n)
    pair = dataclasses.replace(fam.pair, recipe=None)
    problem = {"pair": ser.pair_to_ref(pair), "map": ser.map_to_json(phi)}
    cert = ser.certificate_to_json(xl.certificate_for(family, n, eps), eps)
    return json.loads(ser.dumps(problem)), json.loads(ser.dumps(cert))


def _whole_subspace(extra):
    """A codomain edit: the space as a subspace of itself, plus indices."""
    def edit(ref):
        n = len(ser.space_from_ref(ref).net)
        return {"kind": "construct", "op": "subspace", "base": ref,
                "indices": list(range(n)) + extra, "name": "whole"}
    return edit


def _set(*path, value):
    """A problem edit: the entry at path becomes value, or value(entry)."""
    def edit(problem):
        *head, last = path
        for key in head:
            problem = problem[key]
        problem[last] = value(problem[last]) if callable(value) else value
    return edit


def _extra(*path):
    """A file edit: one key no schema admits, beside the keys at path."""
    return _set(*path, "junk", value=1)


@pytest.mark.parametrize("family,n,edit,code_wanted", [
    ("comb", None, _set("pair", "z_indices", 0, value=999), 3),
    ("comb", None, _set("pair", "z_indices", 0, value=-1), 3),
    ("comb", None, _set("pair", "z_indices", 1, value=1.5), 3),
    ("comb", None, _set("map", "codomain", "resolution", value=10 ** 400), 3),
    ("comb", None, _set("map", "codomain", value=_whole_subspace([])), 0),
    ("comb", None, _set("map", "codomain", value=_whole_subspace([99999])), 3),
    ("comb", None, _set("map", "codomain", value=_whole_subspace([-1])), 3),
    ("comb", None, _set("pair", value=5), 3),
    ("comb", None, _set("map", "codomain", value=5), 3),
    ("comb", None, _set("pair", "space", value=5), 3),
    ("comb", None, _set("map", "codomain", value={
        "kind": "construct", "op": "cone", "base": {
            "kind": "catalog", "name": "disk", "parameters": {},
            "resolution": EPS5}}), 3),
    ("ndagger-eopen", 2, _set("map", "codomain", value={
        "kind": "catalog", "name": "interval", "parameters": {},
        "resolution": EPS5}), 3),
    ("comb", None, _set("map", "codomain", value={
        "kind": "catalog", "name": "comb", "parameters": [1],
        "resolution": EPS5}), 3),
    # one non-finite value at a Z point once verified every one of these
    ("comb", None, _set("map", "values", 2, 0, value=float("nan")), 3),
    ("pathcomp", None, _set("map", "values", 2, 1, value=float("inf")), 3),
    ("sine-eclosed", None, _set("map", "values", 2, 1, value=float("nan")),
     3),
    ("sine-eopen", 1, _set("map", "values", 2, 0, value=float("-inf")), 3),
    ("hawaii", 1, _set("map", "values", 2, 0, value=float("nan")), 3),
    ("ndagger-eopen", 1, _set("map", "values", 2, 0, value=float("inf")), 3),
    # disk parameters the builder refuses before it allocates
    *[("comb", None, _set("map", "codomain", value={
        "kind": "catalog", "name": "disk", "parameters": parameters,
        "resolution": EPS5}), 3) for parameters in (
        {"radius": -1.0}, {"radius": 1e9}, {"radius": float("nan")},
        {"center": [float("inf"), 0.0]}, {"radius": "1"},
        {"radius": EPS5 / 4})],
    # each of these once verified (a string value refuted): the schemas
    # reject them all
    *[("ndagger-eopen", 1, edit, 3) for edit in (
        _set("pair", "space", "path_components", 0, value=0.7),
        _set("pair", "space", "component_names", value="interval"),
        _set("pair", "space", "name", value=5),
        _set("pair", "space", "resolution", value="x"),
        lambda p: p["pair"]["space"].update(
            clopen_atom=p["pair"]["space"]["clopen_atoms"]),
        _set("pair", "space", "net", "resolution", value="0.03125"),
        _extra("pair", "space", "net"),
        _set("pair", "name", value=5),
        _extra("pair"),
        _set("pair", "z_indices", 0, value=True),
        _extra(),
        _set("map", "modulus", value={"lipschitz": True}),
        _set("map", "modulus", value={"lipschitz": "1"}),
        _set("map", "modulus", value={"lipschitz": -1e-300}),
        _set("pair", "space", "net", "dimension", value=0),
        _set("map", "modulus", value=lambda m: {**m, "steps": [[0.0, 0.0]]}),
        _set("map", "name", value=5),
        _set("map", "values", 0, 0, value=True),
        _set("map", "values", 0, 0, value="0.5"),
        _extra("map", "codomain"),
        _set("map", "codomain", "resolution", value="0.03125"))],
], ids=["z-index-past-the-net", "z-index-negative", "z-index-not-an-integer",
        "resolution-past-every-float", "subspace-whole",
        "subspace-index-past-the-net", "subspace-index-negative",
        "pair-not-an-object", "codomain-not-an-object",
        "space-not-an-object", "values-of-another-dimension",
        "clopen-value-not-isolated-in-the-codomain",
        "catalog-parameters-not-an-object", "comb-value-nan",
        "pathcomp-value-infinite", "sine-eclosed-value-nan",
        "sine-eopen-value-minus-infinite", "hawaii-value-nan",
        "ndagger-eopen-value-infinite", "disk-radius-negative",
        "disk-past-the-cell-cap", "disk-radius-nan", "disk-center-infinite",
        "disk-radius-a-string", "disk-without-a-lattice-point",
        "labels-float", "component-names-string", "space-name-number",
        "space-resolution-string", "clopen-atom-misspelt",
        "net-resolution-string", "net-extra-key", "pair-name-number",
        "pair-extra-key", "z-index-bool", "top-extra-key", "lipschitz-bool",
        "lipschitz-string", "lipschitz-negative", "net-dimension-zero",
        "lipschitz-and-steps", "map-name-number",
        "value-bool", "value-string", "codomain-extra-key",
        "codomain-resolution-string"])
def test_certify_refuses_a_malformed_problem(tmp_path, capsys, family, n,
                                             edit, code_wanted):
    problem, cert = _explicit_problem(family, n)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert _certify(tmp_path, path, json.dumps(cert)) == 0
    edit(problem)
    path.write_text(json.dumps(problem))
    capsys.readouterr()
    assert _certify(tmp_path, path, json.dumps(cert)) == code_wanted
    assert "Traceback" not in capsys.readouterr().err


def test_certify_refuses_a_winding_witness_of_one_ring(tmp_path, capsys):
    # its edge maxima were taken over empty arrays: a checker fault, exit 4
    problem, cert = _explicit_problem("hawaii", 1)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    cert["loop"] = cert["loop"][:1]
    cert["witness_rings"] = [[cert["witness_rings"][0][0]]]
    capsys.readouterr()
    assert _certify(tmp_path, path, json.dumps(cert)) == 3
    assert "Traceback" not in capsys.readouterr().err
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["trace"] == [{"check": "well-formed", "ok": False,
                                 "info": "a witness needs two rings and a "
                                         "nonempty loop"}]


# a family and member whose certificate is of each kind
_ONE_OF_KIND = {"positive": ("comb", 2), "path-component": ("pathcomp", None),
                "clopen": ("ndagger-eopen", 2),
                "mandatory-crossing": ("comb", None),
                "winding": ("hawaii", 1)}


@pytest.mark.parametrize("kind", sorted(ser.certs.KINDS))
def test_a_fault_of_the_checker_exits_four(tmp_path, capsys, monkeypatch,
                                           kind):
    problem, cert = _emitted(tmp_path, *_ONE_OF_KIND[kind])
    assert cert["kind"] == kind

    def fault(self, pair, phi, v):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(ser.certs.KINDS[kind], "check", fault)
    capsys.readouterr()
    assert _certify(tmp_path, problem, json.dumps(cert)) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "IndexError" in err
    assert "Traceback" not in err


# What certify may not run: the builders of families, runs, measured
# moduli, extensions and certificates.  The checker re-verifies a file
# with code of its own, so a defect in a builder cannot make its output
# and the check agree.
_BUILDER_FUNCTIONS = {"measured_modulus_multi", "measured_modulus",
                      "_measured_bounds", "_measured_table", "_accepted",
                      "explicit_extension", "build_negative_certificate",
                      "certificate_for"}


@pytest.mark.parametrize("kind", sorted(ser.certs.KINDS))
def test_certify_runs_no_builder(tmp_path, capsys, kind):
    problem, cert = _emitted(tmp_path, *_ONE_OF_KIND[kind])
    assert cert["kind"] == kind
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_globals.get("__name__"),
                        frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        code = _certify(tmp_path, problem, json.dumps(cert))
    finally:
        sys.setprofile(None)
    assert code == 0
    ours = {(m, f) for m, f in called if m and m.startswith("extenlab")}
    assert ("extenlab.certificates", "check_certificate") in ours
    reached = {(m, f) for m, f in ours
               if m in ("extenlab.families", "extenlab.runs")
               or f in _BUILDER_FUNCTIONS or f.startswith("dugundji_extend")}
    assert not reached


def test_running_out_of_memory_exits_three(capsys, monkeypatch):
    # a backstop only: sizes past the cap are refused before allocation
    def exhaust(args):
        raise MemoryError("Unable to allocate 550. MiB")

    monkeypatch.setitem(cli._DISPATCH, ("space", "info"), exhaust)
    code, _, err = run_cli(capsys, "space", "info", "comb",
                           "--epsilon", "2^-6")
    assert code == 3 and err == "error: out of memory\n"
    assert "Traceback" not in err


def test_running_out_of_memory_while_checking_exits_four(tmp_path, capsys,
                                                         monkeypatch):
    # in the check phase a MemoryError is a fault of the checker
    problem, cert = _emitted(tmp_path, *_ONE_OF_KIND["clopen"])

    def exhaust(self, pair, phi, v):
        raise MemoryError

    monkeypatch.setattr(ser.certs.KINDS["clopen"], "check", exhaust)
    capsys.readouterr()
    assert _certify(tmp_path, problem, json.dumps(cert)) == 4
    err = capsys.readouterr().err
    assert "MemoryError" in err and "Traceback" not in err


def test_output_that_cannot_be_written_exits_three(tmp_path, capsys):
    problem, cert = _emitted(tmp_path, "ndagger-eopen", 2)
    certificate = tmp_path / "certificate.json"
    certificate.write_text(json.dumps(cert))
    code, _, err = run_cli(capsys, "certify", str(problem), str(certificate),
                           "--out", str(tmp_path / "missing" / "v.json"))
    assert code == 3 and "cannot write output" in err
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(capsys, "example", "run", "ndagger-not-eopen",
                           "--epsilon", "2^-6", "--n-max", "2",
                           "--emit-certificates", str(taken))
    assert code == 3 and "cannot write output" in err


def test_certify_fuzzed_problem_references_end_in_an_exit_code(tmp_path):
    from hypothesis import HealthCheck, given, settings, strategies as st

    paths = [("pair",), ("map",), ("pair", "space"), ("map", "codomain"),
             ("pair", "z_indices")]
    emitted = []
    for family, n, subspace in (("comb", None, True),
                                ("ndagger-eopen", 2, False),
                                ("sine-eopen", 2, False)):
        problem, cert = _explicit_problem(family, n)
        if subspace:     # the codomain as a subspace of itself
            _set("map", "codomain", value=_whole_subspace([]))(problem)
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(problem))
        assert _certify(tmp_path, problem_path, json.dumps(cert)) == 0
        emitted.append((problem, json.dumps(cert), paths + subspace * [
            ("map", "codomain", "base"), ("map", "codomain", "indices")]))
    index = st.integers(min_value=-2 ** 70, max_value=2 ** 70) | \
        st.sampled_from([-1, 999, 99999])
    nested = st.recursive(index, lambda inner: st.lists(
        inner, max_size=3), max_leaves=12)
    wrong = st.one_of(index, st.text(max_size=4), nested,
                      st.sampled_from([None, 0.5, {}, {"kind": "catalog"}]))

    @given(st.sampled_from(emitted), st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def run(base, data):
        problem, cert, paths = base
        path = data.draw(st.sampled_from(paths))
        problem = json.loads(json.dumps(problem))
        entry = problem
        for key in path:
            entry = entry[key]
        if isinstance(entry, list) and data.draw(st.booleans()):
            entry[data.draw(st.integers(0, len(entry) - 1))] = data.draw(index)
        else:
            _set(*path, value=data.draw(wrong))(problem)
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(problem))
        assert _certify(tmp_path, problem_path, cert) in (0, 2, 3, 4)

    run()
    special = st.sampled_from([math.nan, math.inf, -math.inf])

    @given(st.sampled_from(emitted), st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def bad_values(base, data):
        problem = json.loads(json.dumps(base[0]))
        values = problem["map"]["values"]
        row = data.draw(st.integers(0, len(values) - 1))
        width = len(values[row])
        edit = data.draw(st.sampled_from(["non-finite", "ragged", "width",
                                          "empty"]))
        if edit == "non-finite":
            values[row][data.draw(st.integers(0, width - 1))] = \
                data.draw(special)
        elif edit == "ragged":
            values[row] = values[row][:-1] if data.draw(st.booleans()) \
                else values[row] + [0.0]
        elif edit == "width":
            other = data.draw(st.integers(0, 3).filter(lambda w: w != width))
            problem["map"]["values"] = [(v + [0.0] * 3)[:other]
                                        for v in values]
        else:
            problem["map"]["values"] = []
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(problem))
        assert _certify(tmp_path, problem_path, base[1]) == 3

    bad_values()


# ---------------------------------------------------------------------------
# a file the shipped schemas reject exits 3


EPS4 = 2.0 ** -4


@pytest.mark.parametrize("edit", [
    _extra("extension"), _set("extension", "name", value=5),
    _set("extension", "values", 0, 0, value=False),
    _extra("extension", "codomain"), _set("tolerance", value=-1e-300),
    _set("tolerance", value=-1.0)],
    ids=["extra-key", "name-number", "value-bool", "codomain-extra-key",
         "tolerance-below-zero", "tolerance-minus-one"])
def test_certify_refuses_a_positive_extension_the_schema_rejects(tmp_path,
                                                                 capsys, edit):
    # each of these once verified
    problem, cert = _explicit_problem("comb", 1, EPS4)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert cert["kind"] == "positive"
    assert _certify(tmp_path, path, json.dumps(cert)) == 0
    edit(cert)
    assert not _validator("certificate").is_valid(cert)
    capsys.readouterr()
    assert _certify(tmp_path, path, json.dumps(cert)) == 3
    assert "Traceback" not in capsys.readouterr().err


def _validator(name):
    schema = ser.load_schema(name)
    return jsonschema.Draft202012Validator(schema, registry=_registry())


def _replacements(value):
    """Values of another JSON type than value: bools and strings for a
    number, and a float for an int; and negative numbers for a number."""
    swaps = [v for v in (None, True, "x", 0.5, 3, [], [0], {}, {"kind": "x"})
             if type(v) is not type(value)]
    if type(value) in (int, float):
        swaps += [str(value), value == 0, -1, -1e-300, -abs(value) - 1]
    return swaps + ([value + 0.5] if type(value) is int else [])


def test_certify_exits_three_on_every_file_the_schemas_reject(tmp_path,
                                                              capsys):
    from hypothesis import HealthCheck, given, settings, strategies as st

    emitted = []
    for family, n in (("comb", None), ("ndagger-eopen", 2),
                      ("sine-eopen", 2), ("hawaii", 1), ("comb", 1)):
        problem, cert = _explicit_problem(family, n, EPS4)
        if n is None:   # the codomain as a subspace of itself
            _set("map", "codomain", value=_whole_subspace([]))(problem)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert _certify(tmp_path, path, json.dumps(cert)) == 0
        emitted.append((problem, cert))
    assert emitted[-1][1]["kind"] == "positive"
    validators = {name: _validator(name) for name in ("problem",
                                                      "certificate")}

    @given(st.integers(0, len(emitted) - 1), st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def run(which, data):
        problem, cert = json.loads(json.dumps(emitted[which]))
        # the positive one's extension map, else the problem file
        parent, key = (cert, "extension") if cert["kind"] == "positive" \
            else (problem, data.draw(st.sampled_from(sorted(problem))))
        while isinstance(parent[key], (dict, list)) and parent[key] \
                and data.draw(st.integers(0, 3)):
            node = parent[key]
            parent, key = node, data.draw(st.sampled_from(sorted(node))) \
                if isinstance(node, dict) \
                else data.draw(st.integers(0, len(node) - 1))
        edit = data.draw(st.sampled_from(["drop", "extra", "swap"]))
        if edit == "drop":
            del parent[key]
        elif edit == "extra" and isinstance(parent, dict):
            parent["junk"] = data.draw(st.sampled_from([1, "x", {}]))
        else:
            parent[key] = data.draw(st.sampled_from(
                _replacements(parent[key])))
        rejected = not (validators["problem"].is_valid(problem)
                        and validators["certificate"].is_valid(cert))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        capsys.readouterr()
        code = _certify(tmp_path, path, json.dumps(cert))
        assert "Traceback" not in capsys.readouterr().err
        assert code == 3 if rejected else code in (0, 2, 3, 4)

    run()


def test_no_scipy_module_at_runtime(tmp_path):
    # the package, a reproduction and a certify in a fresh interpreter
    import os
    import subprocess
    import sys
    from pathlib import Path
    certs = tmp_path / "certs"
    script = (
        "import sys\n"
        "import extenlab, extenlab.cli\n"
        "run = extenlab.cli.main\n"
        f"assert run(['example', 'run', 'comb', '--epsilon', '2^-6',"
        f" '--n-max', '5', '--emit-certificates', {str(certs)!r}]) == 0\n"
        f"assert run(['certify', {str(certs / 'problem.json')!r},"
        f" {str(certs / 'certificate.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(xl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_no_numpy_ma_module_at_runtime(tmp_path):
    # numpy's unique imports numpy.ma on its first call; the package's
    # sort-based unique does not: the 13 reproductions at their pinned
    # resolutions and a certify in a fresh interpreter
    import os
    import subprocess
    import sys
    from pathlib import Path
    certs = tmp_path / "certs"
    script = (
        "import contextlib, io, sys\n"
        "import extenlab, extenlab.cli\n"
        "run = extenlab.cli.main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for entry in extenlab.list_examples():\n"
        "        run(['example', 'run', entry['name']])\n"
        f"    assert run(['example', 'run', 'comb', '--epsilon', '2^-6',"
        f" '--n-max', '5', '--emit-certificates', {str(certs)!r}]) == 0\n"
        f"    assert run(['certify', {str(certs / 'problem.json')!r},"
        f" {str(certs / 'certificate.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(xl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [("cone", "interval", "--epsilon", "2^-16"),
                                  ("opc", "disk", "--blocks", "1020",
                                   "--epsilon", "2^-8"),
                                  ("product-interval", "disk",
                                   "--epsilon", "2^-8")])
def test_construct_refuses_nets_past_the_cap(capsys, argv):
    # 65,537 x 65,536 cone points, 1,020 disks of about 206k points, 257
    # copies of that disk: each refused before any array of that size
    code, _, err = run_cli(capsys, "construct", *argv)
    assert code == 3 and "past the cap" in err


@pytest.mark.parametrize("argv", [("example", "run", "comb"),
                                  ("space", "info", "comb"),
                                  ("space", "sketch", "comb"),
                                  ("construct", "cone", "comb")])
def test_the_comb_past_the_cap_is_refused(capsys, argv):
    # 36,045,340 comb points at 2^-16, refused before any array of that size
    code, _, err = run_cli(capsys, *argv, "--epsilon", "2^-16")
    assert code == 3 and "comb points" in err and "past the cap" in err
