import dataclasses
import json

import jsonschema
import numpy as np

import extenlab as xl
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
    problem.write_text(ser.dumps({"pair": ser.pair_to_ref(fam.pair),
                                  "map": ser.map_to_json(fam.member(1),
                                                         cod_ref)}))
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


def test_certify_matrix_metric_codomain(tmp_path, capsys):
    # an explicit codomain whose net carries a distance matrix: images
    # resolve to its points by exact lookup instead of crashing
    eps = 2.0 ** -4
    fam = xl.example_family("sine-eopen", eps)
    phi = fam.member(1)
    cod = phi.codomain
    every = np.arange(len(cod.net))
    cod_ref = {"kind": "explicit", "name": "sine-matrix",
               "net": {"dimension": 2, "points": cod.net.points.tolist(),
                       "resolution": eps,
                       "metric": {"matrix":
                                  cod.net.dist_idx(every, every).tolist()}},
               "path_components": cod.labels.tolist(),
               "component_names": list(cod.label_names),
               "clopen_atoms": [every.tolist()]}
    problem = tmp_path / "problem.json"
    problem.write_text(ser.dumps({"pair": ser.pair_to_ref(fam.pair),
                                  "map": ser.map_to_json(phi, cod_ref)}))
    certificate = tmp_path / "certificate.json"
    cert = xl.build_negative_certificate("sine-eopen", 1, eps)
    certificate.write_text(ser.dumps(ser.certificate_to_json(cert, eps)))
    code, out, _ = run_cli(capsys, "certify", str(problem), str(certificate))
    assert code == 0 and json.loads(out)["status"] == "verified"


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


def test_space_info_sine_at_epsilon_one(capsys):
    code, out, _ = run_cli(capsys, "space", "info", "sine", "--epsilon", "1")
    assert code == 0 and "net_size: 6" in out
