"""JSON round-trips for nets, spaces, pairs, maps, certificates, verdicts.

All writers emit sorted-key JSON with exact shortest-round-trip floats,
so identical objects always serialize to identical bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import threading
from importlib import resources
from itertools import chain

import numpy as np

from .errors import InvalidArgument
from .metric import EuclideanMetric, MatrixMetric, Modulus, Net
from .spaces import (AnnotatedSpace, ClopenAtoms, SpacePair, cone, make_pair,
                     make_space, opc_disjoint_union, product_with, subspace)
from .maps import MapSample
from . import certificates as certs


# Pauses of the collector nest, across threads too: the first to enter
# disables it and the last to leave enables it again if it was enabled
# when the first entered.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for a bulk (de)serialization,
    and enable it again after only if it was enabled before.  JSON trees
    and the arrays read from them hold no reference cycles, so reference
    counting frees them all; the collector would only walk every list
    built so far, again and again, as the tree grows.  The collector is
    one per process, so it stays off while any thread is inside."""
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@_gc_paused()
def net_to_json(net: Net) -> dict:
    metric = "euclidean" if isinstance(net.metric, EuclideanMetric) else \
        {"matrix": net.metric.matrix.tolist()} if isinstance(net.metric, MatrixMetric) \
        else None
    if metric is None:
        raise InvalidArgument("only euclidean/matrix nets have a file form")
    return {"dimension": net.dimension, "points": net.points.tolist(),
            "resolution": net.resolution, "metric": metric}


@_gc_paused()
def net_from_json(data: dict) -> Net:
    pts = np.asarray(_read(data, "net")["points"], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != data["dimension"]:
        raise InvalidArgument("net points do not match the declared dimension")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgument("net points must be finite")
    if data["metric"] == "euclidean":
        return Net(pts, float(data["resolution"]))
    matrix = np.asarray(data["metric"]["matrix"], dtype=float)
    if matrix.shape != (len(pts), len(pts)) \
            or not np.all((matrix >= 0) & (matrix < np.inf)):
        raise InvalidArgument("a net's distance matrix must be (n, n) "
                              "for its n points, finite and >= 0")
    return Net(pts, float(data["resolution"]), MatrixMetric(matrix))


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
    kind = _read(data, "space")["kind"]
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
        return subspace(space_from_ref(data["base"]), data["indices"],
                        data["name"])
    net = net_from_json(data["net"])
    labels = np.asarray(data["path_components"])
    if labels.shape != (len(net),) or not len(labels):
        raise InvalidArgument("path_components needs one label per point")
    names = tuple(data.get("component_names", [f"component-{i}" for i in
                                               range(labels.max() + 1)]))
    if labels.min() < 0 or labels.max() >= len(names):
        raise InvalidArgument("path_components must index component_names")
    return AnnotatedSpace(
        data.get("name", "explicit"), net, labels, names,
        _clopen_atoms(data["clopen_atoms"], len(net)), {}, {})


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
    if _read(data, "pair")["kind"] == "catalog":
        return make_pair(data["name"], float(data["resolution"]))
    space = space_from_ref(data["space"])
    return SpacePair.build(data.get("name", "pair"), space, data["z_indices"])


def modulus_to_json(m: Modulus) -> dict:
    if m.kind == "lipschitz":
        return {"lipschitz": m.lipschitz}
    return {"steps": [[float(r), float(b)] for r, b in m.table()]}


def modulus_from_json(data: dict) -> Modulus:
    if "lipschitz" in _read(data, "modulus"):
        return Modulus.lip(data["lipschitz"])
    return Modulus.step(data["steps"])


@_gc_paused()
def map_to_json(f: MapSample) -> dict:
    return {"codomain": space_to_ref(f.codomain),
            "values": f.values.tolist(),
            "modulus": modulus_to_json(f.modulus),
            "name": f.name}


@_gc_paused()
def map_from_json(data: dict, domain: Net) -> MapSample:
    cod = space_from_ref(_read(data, "map")["codomain"])
    values = np.asarray(data["values"], dtype=float)
    if values.ndim != 2 or values.shape[1] != cod.net.dimension \
            or not np.all(np.isfinite(values)):
        raise InvalidArgument("map values must be finite points of the "
                              f"codomain's dimension {cod.net.dimension}")
    return MapSample(domain, cod, values, modulus_from_json(data["modulus"]),
                     name=data.get("name", ""))


def problem_from_json(data: dict) -> tuple[SpacePair, MapSample]:
    """The pair (Y, Z) and the map Z -> X that a problem file holds."""
    pair = pair_from_ref(_read(data, "problem")["pair"])
    return pair, map_from_json(data["map"], pair.z_net)


@_gc_paused()
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


@_gc_paused()
def certificate_from_json(data: dict, pair: SpacePair,
                          codomain: AnnotatedSpace):
    """The certificate a file holds.  It must fit its kind's row of
    _SHAPES, with positions inside the pair's nets and axes inside the
    codomain's, or InvalidArgument is raised; an absent field takes its
    default."""
    sizes = {"Z": len(pair.z_net), "Y": len(pair.space.net),
             "axis": codomain.net.dimension}
    cls = certs.KINDS[_read(data, "certificate", sizes)["kind"]]
    return cls(**{f.name: map_from_json(data[f.name], pair.space.net)
                  if f.type == "MapSample" else data[f.name]
                  for f in dataclasses.fields(cls) if f.name in data})


def _read(data, row: str, sizes: dict = {}) -> dict:
    """data, if it fits one alternative of _SHAPES[row]; else
    InvalidArgument naming the first key that is missing, not admitted or
    malformed in the alternative it misses least."""
    if type(data) is not dict:
        raise InvalidArgument(f"a {row} must be an object")
    misfits = min((_misfits(data, s, sizes) for s in _SHAPES[row]), key=len)
    if misfits:
        raise InvalidArgument(f"{row} field {misfits[0]!r} is missing, not "
                              "admitted or malformed")
    return data


def _misfits(value: dict, row: dict, sizes: dict) -> list:
    """The keys of value that row does not admit or that do not fit, then
    the keys row needs (those without a trailing ?) that value lacks."""
    admits = {k.rstrip("?"): s for k, s in row.items()}
    return [k for k, v in value.items()
            if k not in admits or not _fits(v, admits[k], sizes)] + \
        [k for k in row if k[-1] != "?" and k not in value]


def _finite(value) -> bool:
    return _fits(value, _NUMBER, {}) and math.isfinite(value)


def _nonnegative(value) -> bool:
    """A number not below 0 (NaN and inf are for its reader to refuse)."""
    return _fits(value, _NUMBER, {}) and not value < 0


def _dimension(value) -> bool:
    return _fits(value, (int,), {}) and value >= 1


def _numbers(value) -> bool:
    """A list of JSON numbers or of lists of them, typed in one pass (its
    reader checks the shape)."""
    rows = type(value) is list and set(map(type, value)) <= {list}
    return type(value) is list and set(map(type, chain.from_iterable(
        value) if rows else value)) <= {int, float}


# What a certificate field admits, by its annotation, and the
# alternatives of each part of a file: a tuple of JSON types (ints within
# int64) and shapes, any one of which fits; a set of admitted strings;
# "Z" or "Y" for a position in that net, "axis" for an axis of the
# codomain; [shape] for a list of shape, [shape, shape] for a pair;
# {key: shape} for an object, a trailing ? marking a key it may omit; or
# a test of the value.  Certificate numbers must be finite (a NaN slack
# passes every check), and the schemas' ranges hold: a tolerance and a
# Lipschitz constant >= 0, a dimension >= 1.  A part another reader reads
# is an object here.
_NUMBER = (int, float)
_SHAPES = {
    "MapSample": (dict,), "float": _finite,
    "NonNegative": lambda value: _finite(value) and _nonnegative(value),
    "int": (int,), "str": (str,),
    "float | None": (type(None), _finite), "np.ndarray": (list,),
    "tuple[str, str]": [(str,), (str,)], "ZPosition": "Z", "ZPositions": ["Z"],
    "ZPositionPairs": [["Z", "Z"]], "YPositions": ["Y"],
    "Region": {"axis": "axis", "op": {"le", "ge", "abs_ge", "abs_le"},
               "value": _finite},
    "net": ({"dimension": _dimension, "points": _numbers,
             "resolution": _NUMBER,
             "metric": ({"euclidean"}, {"matrix": _numbers})},),
    "space": ({"kind": {"catalog"}, "name": (str,), "parameters?": (dict,),
               "resolution": _NUMBER},
              {"kind": {"construct"}, "base?": (dict,), "blocks?": (list,),
               "factor?": (str,), "indices?": [(int,)], "name?": (str,),
               "op": {"cone", "product", "opc", "subspace"},
               "step?": (*_NUMBER, type(None))},
              {"kind": {"explicit"}, "name?": (str,), "net": (dict,),
               "path_components": [(int,)], "component_names?": [(str,)],
               "clopen_atoms": [[(int,)]], "resolution?": _NUMBER}),
    "pair": ({"kind": {"catalog"}, "name": (str,), "resolution": _NUMBER},
             {"kind": {"explicit"}, "name?": (str,), "space": (dict,),
              "z_indices": [(int,)]}),
    "map": ({"codomain": (dict,), "values": _numbers, "modulus": (dict,),
             "name?": (str,)},),
    "modulus": ({"lipschitz": _nonnegative},
                {"steps": [[_NUMBER, _NUMBER]]}),
    "problem": ({"pair": (dict,), "map": (dict,)},)}
_SHAPES["certificate"] = tuple({"kind": {kind}, "epsilon": _finite, **{
    f.name + "?" * (f.default is not dataclasses.MISSING): _SHAPES[f.type]
    for f in dataclasses.fields(cls)}} for kind, cls in certs.KINDS.items())


def _fits(value, shape, sizes: dict) -> bool:
    if callable(shape):
        return shape(value)
    if isinstance(shape, str):
        return type(value) is int and 0 <= value < sizes[shape]
    if isinstance(shape, tuple):
        if type(value) in shape:
            return type(value) is not int or -2 ** 63 <= value < 2 ** 63
        return any(_fits(value, s, sizes) for s in shape
                   if not isinstance(s, type))
    if isinstance(shape, set):
        return type(value) is str and value in shape
    if isinstance(shape, dict):
        return type(value) is dict and not _misfits(value, shape, sizes)
    return type(value) is list and len(shape) in (1, len(value)) and all(
        _fits(v, shape[i % len(shape)], sizes) for i, v in enumerate(value))


def load_schema(name: str) -> dict:
    text = resources.files("extenlab.schemas").joinpath(f"{name}.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)
