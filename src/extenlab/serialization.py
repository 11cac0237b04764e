"""JSON round-trips for nets, spaces, pairs, maps, certificates, verdicts.

All writers emit sorted-key JSON with exact shortest-round-trip floats,
so identical objects always serialize to identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from importlib import resources

import numpy as np

from .errors import InvalidArgument, UnknownName
from .metric import EuclideanMetric, MatrixMetric, Modulus, Net
from .spaces import (AnnotatedSpace, ClopenAtoms, SpacePair, cone, make_pair,
                     make_space, opc_disjoint_union, product_with, subspace)
from .maps import MapSample
from . import certificates as certs


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def net_to_json(net: Net) -> dict:
    metric = "euclidean" if isinstance(net.metric, EuclideanMetric) else \
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
    if not np.all(np.isfinite(pts)):
        raise InvalidArgument("net points must be finite")
    metric = data["metric"]
    if metric == "euclidean":
        return Net(pts, float(data["resolution"]))
    if isinstance(metric, dict) and "matrix" in metric:
        matrix = np.asarray(metric["matrix"], dtype=float)
        if matrix.shape != (len(pts), len(pts)) \
                or not np.all((matrix >= 0) & (matrix < np.inf)):
            raise InvalidArgument("a net's distance matrix must be (n, n) "
                                  "for its n points, finite and >= 0")
        return Net(pts, float(data["resolution"]), MatrixMetric(matrix))
    raise InvalidArgument("metric must be 'euclidean' or {'matrix': ...}")


def space_to_ref(space: AnnotatedSpace) -> dict:
    """Reference form: the recipe the space was built by, with each base
    space replaced by its reference, or else the explicit form."""
    if space.recipe is not None:
        return _plain(space.recipe)
    return {"kind": "explicit", "name": space.name,
            "net": net_to_json(space.net),
            "path_components": space.labels.tolist(),
            "component_names": list(space.label_names),
            "clopen_atoms": [sorted(int(i) for i in a)
                             for a in space.clopen.atoms()],
            "resolution": space.resolution}


def space_from_ref(data: dict) -> AnnotatedSpace:
    kind = _object(data, "space").get("kind")
    if kind == "catalog":
        params = {k: (tuple(v) if isinstance(v, list) else v) for k, v
                  in _object(data.get("parameters", {}), "parameters").items()}
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
        if labels.shape != (len(net),) or not len(labels):
            raise InvalidArgument("path_components needs one label per point")
        names = tuple(data.get("component_names",
                               [f"component-{i}" for i in
                                range(labels.max() + 1)]))
        if labels.min() < 0 or labels.max() >= len(names):
            raise InvalidArgument("path_components must index component_names")
        # the parameters keep the key apart from every catalog key and
        # from explicit spaces on other points (+ 0.0 folds -0.0 into 0.0)
        digest = hashlib.sha256(repr(net.points.shape).encode()
                                + (net.points + 0.0).tobytes()).hexdigest()
        return AnnotatedSpace(data.get("name", "explicit"),
                              (("kind", "explicit"), ("points", digest[:16])),
                              net, labels, names,
                              _clopen_atoms(data["clopen_atoms"], len(net)),
                              {}, {})
    raise InvalidArgument("space reference needs a known 'kind'")


def _clopen_atoms(atoms, size: int) -> ClopenAtoms:
    """Atom ids from a file's disjoint, nonempty lists of net indices."""
    ids = np.full(size, -1)
    for j, atom in enumerate(atoms):
        idx = np.asarray(atom)
        if idx.ndim != 1 or idx.dtype.kind != "i" or not len(idx) \
                or idx.min() < 0 or idx.max() >= size:
            raise InvalidArgument(f"clopen atom {j} must list net indices")
        ids[idx] = j
    if np.count_nonzero(ids >= 0) != sum(len(a) for a in atoms):
        raise InvalidArgument("clopen atoms overlap")
    return ClopenAtoms(ids)


def pair_to_ref(pair: SpacePair) -> dict:
    """Reference form: the catalog recipe the pair was built by, or else
    the explicit form."""
    if pair.recipe is not None:
        return dict(pair.recipe)
    return {"kind": "explicit", "space": space_to_ref(pair.space),
            "z_indices": pair.z_indices.tolist(), "name": pair.name}


def pair_from_ref(data: dict) -> SpacePair:
    if _object(data, "pair").get("kind") == "catalog":
        return make_pair(data["name"], float(data["resolution"]))
    space = space_from_ref(data["space"])
    return SpacePair.build(data.get("name", "pair"), space, data["z_indices"])


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InvalidArgument(f"a {what} reference must be an object")
    return data


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
    f = MapSample(domain, cod, np.asarray(data["values"], dtype=float),
                  modulus_from_json(data["modulus"]), name=data.get("name", ""))
    if f.values.ndim != 2 or f.values.shape[1] != cod.net.dimension \
            or not np.all(np.isfinite(f.values)):
        raise InvalidArgument("map values must be finite points of the "
                              f"codomain's dimension {cod.net.dimension}")
    return f


def certificate_to_json(cert, epsilon: float) -> dict:
    """kind, epsilon and every dataclass field under its own name."""
    out = {f.name: _plain(getattr(cert, f.name))
           for f in dataclasses.fields(cert)}
    out.update(kind=cert.kind, epsilon=epsilon)
    return out


def _plain(value):
    if isinstance(value, MapSample):
        return map_to_json(value)
    if isinstance(value, AnnotatedSpace):
        return space_to_ref(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def certificate_from_json(data: dict, pair: SpacePair,
                          codomain: AnnotatedSpace):
    """The certificate a file holds.  Each field must fit its annotation
    (see _SHAPES), positions inside the pair's nets and axes inside the
    codomain's, or InvalidArgument is raised; an absent field takes its
    default."""
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = certs.KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidArgument(f"unknown certificate kind {kind!r}")
    fields = dataclasses.fields(cls)
    types = {"kind": "str", "epsilon": "float",
             **{f.name: f.type for f in fields}}
    needed = {"epsilon"} | {f.name for f in fields
                            if f.default is dataclasses.MISSING}
    if not needed <= set(data) <= set(types):
        raise InvalidArgument(f"a {kind} certificate holds {sorted(types)}")
    sizes = {"Z": len(pair.z_net), "Y": len(pair.space.net),
             "axis": codomain.net.dimension}
    for name, value in data.items():
        if not _fits(value, _SHAPES[types[name]], sizes):
            raise InvalidArgument(f"{kind} certificate field {name!r} "
                                  f"must be {types[name]}")
    return cls(**{f.name: map_from_json(data[f.name], pair.space.net)
                  if f.type == "MapSample" else data[f.name]
                  for f in fields if f.name in data})


def _finite(value) -> bool:
    return _fits(value, (int, float), {}) and math.isfinite(value)


# What a field admits, by its annotation: a tuple of JSON types (ints
# within int64), "Z" or "Y" for a position in that net and "axis" for an
# axis of the codomain, [shape] for a list of shape and [shape, shape]
# for a pair, {key: shape} for an object with exactly those keys, or a
# test of the value.  Numbers must be finite: a check against a NaN or
# infinite slack or tolerance passes whatever the certificate holds.
_SHAPES = {"MapSample": (dict,), "float": _finite,
           "float | None": lambda v: v is None or _finite(v), "int": (int,),
           "str": (str,), "np.ndarray": (list,),
           "tuple[str, ...]": [(str,)], "ZPosition": "Z",
           "ZPositions": ["Z"], "ZPositionPairs": [["Z", "Z"]],
           "YPositions": ["Y"],
           "Region": {"axis": "axis",
                      "op": lambda v: v in ("le", "ge", "abs_ge", "abs_le"),
                      "value": _finite}}


def _fits(value, shape, sizes: dict) -> bool:
    if callable(shape):
        return shape(value)
    if isinstance(shape, str):
        return type(value) is int and 0 <= value < sizes[shape]
    if isinstance(shape, tuple):
        return type(value) in shape and (type(value) is not int
                                         or -2 ** 63 <= value < 2 ** 63)
    if isinstance(shape, dict):
        return type(value) is dict and value.keys() == shape.keys() and all(
            _fits(value[k], shape[k], sizes) for k in shape)
    return type(value) is list and len(shape) in (1, len(value)) and all(
        _fits(v, shape[i % len(shape)], sizes) for i, v in enumerate(value))


def load_schema(name: str) -> dict:
    text = resources.files("extenlab.schemas").joinpath(f"{name}.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)
