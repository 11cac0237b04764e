"""JSON round-trips for nets, spaces, pairs, maps, certificates, verdicts.

All writers emit sorted-key JSON with exact shortest-round-trip floats,
so identical objects always serialize to identical bytes.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import InvalidArgument, UnknownName
from .metric import MatrixMetric, Modulus, Net
from .spaces import (AnnotatedSpace, BlockOracle, SpacePair, cone, make_pair,
                     make_space, opc_disjoint_union, product_with, subspace)
from .maps import Homotopy, MapSample
from . import certificates as certs


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def net_to_json(net: Net) -> dict:
    metric = "euclidean" if net.metric_kind == "ambient-euclidean" else \
        {"matrix": net.metric.matrix.tolist()} if isinstance(net.metric, MatrixMetric) \
        else None
    if metric is None:
        raise InvalidArgument("only euclidean/matrix nets have a file form")
    return {"dimension": net.dimension, "points": net.points.tolist(),
            "resolution": net.resolution, "metric": metric}


def net_from_json(data: dict) -> Net:
    pts = np.asarray(data["points"], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != data["dimension"]:
        raise InvalidArgument("net points do not match the declared dimension")
    metric = data["metric"]
    if metric == "euclidean":
        return Net(pts, float(data["resolution"]))
    if isinstance(metric, dict) and "matrix" in metric:
        return Net(pts, float(data["resolution"]),
                   MatrixMetric(np.asarray(metric["matrix"], dtype=float)))
    raise InvalidArgument("metric must be 'euclidean' or {'matrix': ...}")


def space_to_ref(space: AnnotatedSpace) -> dict:
    """Reference form: the recipe the space was built by, with each base
    space replaced by its reference, or else the explicit form."""
    if space.recipe is not None:
        return _with_refs(space.recipe)
    return {"kind": "explicit", "name": space.name,
            "net": net_to_json(space.net),
            "path_components": space.labels.tolist(),
            "component_names": list(space.label_names),
            "clopen_atoms": [sorted(int(i) for i in a)
                             for a in space.clopen.atoms()],
            "resolution": space.resolution}


def _with_refs(value):
    if isinstance(value, AnnotatedSpace):
        return space_to_ref(value)
    if isinstance(value, dict):
        return {k: _with_refs(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_with_refs(v) for v in value]
    return value


def space_from_ref(data: dict) -> AnnotatedSpace:
    kind = data.get("kind")
    if kind == "catalog":
        params = {k: (tuple(v) if isinstance(v, list) else v)
                  for k, v in data.get("parameters", {}).items()}
        return make_space(data["name"], float(data["resolution"]), **params)
    if kind == "construct":
        op = data["op"]
        if op == "cone":
            return cone(space_from_ref(data["base"]))
        if op == "product":
            return product_with(space_from_ref(data["base"]), data["factor"],
                                grid_step=data.get("step"))
        if op == "opc":
            return opc_disjoint_union([space_from_ref(b)
                                       for b in data["blocks"]])
        if op == "subspace":
            return subspace(space_from_ref(data["base"]), data["indices"],
                            data["name"])
        raise UnknownName(f"unknown construction {op!r}")
    if kind == "explicit":
        net = net_from_json(data["net"])
        labels = np.asarray(data["path_components"], dtype=int)
        names = tuple(data.get("component_names",
                               [f"component-{i}" for i in
                                range(labels.max() + 1)]))
        atoms = [frozenset(a) for a in data["clopen_atoms"]]
        oracle = BlockOracle(atoms, infinity=-1)
        return AnnotatedSpace(data.get("name", "explicit"), (), net, labels,
                              names, oracle, {}, {}, np.empty((0, 2)))
    raise InvalidArgument("space reference needs a known 'kind'")


def pair_to_ref(pair: SpacePair) -> dict:
    """Reference form: the catalog recipe the pair was built by, or else
    the explicit form."""
    if pair.recipe is not None:
        return dict(pair.recipe)
    return {"kind": "explicit", "space": space_to_ref(pair.space),
            "z_indices": pair.z_indices.tolist(), "name": pair.name}


def pair_from_ref(data: dict) -> SpacePair:
    if data.get("kind") == "catalog":
        return make_pair(data["name"], float(data["resolution"]))
    space = space_from_ref(data["space"])
    return SpacePair.build(data.get("name", "pair"), space,
                           np.asarray(data["z_indices"], dtype=int))


def modulus_to_json(m: Modulus) -> dict:
    if m.kind == "lipschitz":
        return {"lipschitz": m.lipschitz}
    return {"steps": [[float(r), float(b)] for r, b in m.table()]}


def modulus_from_json(data: dict) -> Modulus:
    if "lipschitz" in data:
        return Modulus.lip(float(data["lipschitz"]))
    if "steps" in data:
        return Modulus.step([(float(r), float(b)) for r, b in data["steps"]])
    raise InvalidArgument("modulus needs 'lipschitz' or 'steps'")


def map_to_json(f: MapSample, codomain_ref: dict | None = None) -> dict:
    return {"codomain": codomain_ref or space_to_ref(f.codomain),
            "values": f.values.tolist(),
            "modulus": modulus_to_json(f.modulus),
            "name": f.name}


def map_from_json(data: dict, domain: Net,
                  codomain: AnnotatedSpace | None = None) -> MapSample:
    cod = codomain if codomain is not None else space_from_ref(data["codomain"])
    return MapSample(domain, cod, np.asarray(data["values"], dtype=float),
                     modulus_from_json(data["modulus"]),
                     name=data.get("name", ""))


def homotopy_to_json(h) -> dict:
    """Homotopy as a map on the time-grid product of its base."""
    return {"codomain": space_to_ref(h.codomain),
            "times": h.times.tolist(),
            "values": h.values.reshape(-1, h.values.shape[2]).tolist(),
            "modulus": modulus_to_json(h.modulus)}


def homotopy_from_json(data: dict, base: Net):
    times = np.asarray(data["times"], dtype=float)
    flat = np.asarray(data["values"], dtype=float)
    values = flat.reshape(len(times), len(base), -1)
    return Homotopy(base, space_from_ref(data["codomain"]), times, values,
                    modulus_from_json(data["modulus"]))


def certificate_to_json(cert, epsilon: float) -> dict:
    if isinstance(cert, certs.PositiveCertificate):
        return {"kind": "positive", "epsilon": epsilon,
                "tolerance": cert.tolerance,
                "modulus_slack": cert.modulus_slack,
                "extension": map_to_json(cert.extension)}
    if isinstance(cert, certs.PathComponentObstruction):
        return {"kind": "path-component", "epsilon": epsilon,
                "z1": int(cert.z1), "z2": int(cert.z2),
                "witness_path": cert.witness_path.tolist(),
                "x_labels": list(cert.x_labels)}
    if isinstance(cert, certs.ClopenObstruction):
        return {"kind": "clopen", "epsilon": epsilon,
                "value_label": int(cert.value_label),
                "value_ambient": cert.value_ambient,
                "trace": sorted(int(i) for i in cert.trace)}
    if isinstance(cert, certs.MandatoryCrossingObstruction):
        return {"kind": "mandatory-crossing", "epsilon": epsilon,
                "brackets": [[int(a), int(b)] for a, b in cert.brackets],
                "region": cert.region, "z0": int(cert.z0),
                "separation": cert.separation}
    if isinstance(cert, certs.WindingObstruction):
        return {"kind": "winding", "epsilon": epsilon,
                "loop": cert.loop.tolist(),
                "witness_rings": cert.witness_rings.tolist(),
                "retraction": cert.retraction,
                "expected_winding": int(cert.expected_winding)}
    raise InvalidArgument("unknown certificate type")


def certificate_from_json(data: dict, pair: SpacePair,
                          codomain: AnnotatedSpace):
    kind = data.get("kind")
    if kind == "positive":
        ext = map_from_json(data["extension"], pair.space.net)
        return certs.PositiveCertificate(
            ext, float(data["tolerance"]),
            None if data.get("modulus_slack") is None
            else float(data["modulus_slack"]))
    if kind == "path-component":
        return certs.PathComponentObstruction(
            int(data["z1"]), int(data["z2"]),
            np.asarray(data["witness_path"], dtype=int),
            tuple(data["x_labels"]))
    if kind == "clopen":
        return certs.ClopenObstruction(int(data["value_label"]),
                                       float(data["value_ambient"]),
                                       tuple(data["trace"]))
    if kind == "mandatory-crossing":
        return certs.MandatoryCrossingObstruction(
            tuple((int(a), int(b)) for a, b in data["brackets"]),
            dict(data["region"]), int(data["z0"]),
            float(data["separation"]))
    if kind == "winding":
        return certs.WindingObstruction(
            np.asarray(data["loop"], dtype=int),
            np.asarray(data["witness_rings"], dtype=float),
            str(data["retraction"]), int(data["expected_winding"]))
    raise InvalidArgument(f"unknown certificate kind {kind!r}")


def load_schema(name: str) -> dict:
    text = resources.files("extenlab.schemas").joinpath(f"{name}.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)
