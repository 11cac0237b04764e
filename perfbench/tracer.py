"""Span tracer for the traced passes of the extenlab benchmark.

`Tracer.install` wraps every public function and every public method of
the eight layer modules (`spaces`, `metric`, `maps`, `families`,
`certificates`, `serialization`, `runs`, `cli`).  Call sites inside the
package import functions by name (`from .metric import check_modulus`),
so a wrapper is installed on every module attribute that holds the
original function object; otherwise internal calls would escape their
span.  `dyadic` and `errors` do no measurable work and are not wrapped.

A span opens only where control enters a layer: from the benchmark or
from another layer.  A call within one layer (`check_modulus` into
`Net.dist_idx`) stays in the span of the call that entered the layer, so
a span's self time is the time spent in its layer, and each named
per-layer metric is classified by the function through which the layer
was entered.  Spans stay in memory as `[name, parent, start, end]` rows
and are reduced once, at the end of the pass, into self times: a span's
duration minus the durations of its direct children.  Counters run on
every call, boundary or not, and are derived outside-in, from arguments
and return values only; no private module state of the package is read.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# The layer modules, each with the metric that holds its whole self time.
LAYER_SELF = {"spaces": "spaces.self_s", "metric": "metric.self_s",
              "maps": "maps.self_s", "families": "families.s",
              "certificates": "certificates.self_s",
              "serialization": "serialization.self_s",
              "runs": "runs.self_s", "cli": "cli.certify_self_s"}

CERTIFICATE_KINDS = ("positive", "path-component", "clopen",
                     "mandatory-crossing", "winding")

# MapFamily lives in `maps`, but `member` runs the generator closure that
# `families` built, so its time is family generation.
_LAYER_OVERRIDES = {"maps.MapFamily.member": "families"}

_MEASURE = ("metric.measured_modulus_multi", "metric.measured_modulus")
_SPACE_BUILDERS = tuple(f"spaces.{name}" for name in (
    "make_space", "make_pair", "product_with", "cone", "opc_disjoint_union",
    "subspace", "spiked_base_pair", "urysohn"))
_DUGUNDJI = ("maps.dugundji_extend", "maps.dugundji_extend_partial")
_HOMOTOPY = ("maps.homotopy_between", "maps.equiconnect_homotopy",
             "maps.glue_homotopy_extension", "maps.cone_contraction")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = {"modulus_measure_pairs": 0,
                         "modulus_check_pairs": 0, "graph_edges": 0,
                         "write_bytes": 0, "read_bytes": 0,
                         "reach_calls": 0, "checks": 0,
                         "space_calls": 0, "space_hits": 0,
                         "net_points": 0}
        self._returned = {}      # id -> object returned by make_space/pair
        self._nets = {}          # id -> Net already counted in net_points
        self._hook_table = self._hooks()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, namer=None, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:     # not a layer boundary
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            span = [namer(args, kwargs) if namer else name,
                    stack[-1][0] if stack else -1, clock(), 0.0]
            stack.append((len(spans), layer))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _wrapper_for(self, fn, layer, qualname):
        layer = _LAYER_OVERRIDES.get(f"{layer}.{qualname}", layer)
        name = f"{layer}.{qualname}"
        namer = None
        if name == "certificates.check_certificate":
            def namer(args, kwargs):
                kind = getattr(_arg(args, kwargs, 2, "cert"), "kind", "?")
                return f"certificates.check.{kind}"
        elif name == "runs.run_example":
            def namer(args, kwargs):
                return f"runs.run_example.{_arg(args, kwargs, 0, 'name')}"
        return self._wrap(fn, name, namer, self._hook_table.get(name))

    def _hooks(self):
        c = self.counters

        def measure(args, kwargs, result):
            net = _arg(args, kwargs, 0, "net")
            values = _arg(args, kwargs, 1, "values_list")
            c["modulus_measure_pairs"] += len(net) ** 2 * len(values)

        def check(args, kwargs, result):
            # problem size n^2, also when a constant map returns at once
            f = _arg(args, kwargs, 0, "f")
            c["modulus_check_pairs"] += len(f.domain) ** 2

        def graph(args, kwargs, result):
            c["graph_edges"] += len(result.edges)

        def reach(args, kwargs, result):
            c["reach_calls"] += 1

        def certificate_check(args, kwargs, result):
            c["checks"] += 1

        def dumps(args, kwargs, result):
            c["write_bytes"] += len(result)      # json.dumps output is ASCII

        def cli_main(args, kwargs, result):
            argv = _arg(args, kwargs, 0, "argv")
            if argv and argv[0] == "certify":
                c["read_bytes"] += sum(os.path.getsize(p) for p in argv[1:3])

        def lookup(args, kwargs, result):
            c["space_calls"] += 1
            if id(result) in self._returned:
                c["space_hits"] += 1
            self._returned[id(result)] = result
            built(args, kwargs, result)

        def built(args, kwargs, result):
            net = getattr(getattr(result, "space", result), "net", None)
            if net is not None and id(net) not in self._nets:
                self._nets[id(net)] = net
                c["net_points"] += len(net)

        hooks = {"metric.measured_modulus_multi": measure,
                 "metric.check_modulus": check,
                 "metric.build_epsilon_graph": graph,
                 "metric.reachable": reach,
                 "certificates.check_certificate": certificate_check,
                 "serialization.dumps": dumps,
                 "cli.main": cli_main}
        for name in _SPACE_BUILDERS:
            hooks[name] = built
        hooks["spaces.make_space"] = hooks["spaces.make_pair"] = lookup
        return hooks

    def install(self, package: str = "extenlab"):
        """Wrap the layers of an imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        wrapped = {}                 # id(original) -> (original, wrapper)
        for layer in LAYER_SELF:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrapper_for(
                        obj, layer, obj.__qualname__))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])

    def _wrap_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                setattr(cls, attr, type(raw)(
                    self._wrapper_for(fn, layer, fn.__qualname__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrapper_for(raw, layer,
                                                     raw.__qualname__))

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, wall_s: float, examples) -> dict:
        """Per-layer metrics of one traced pass whose timed wall is wall_s."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = {}, {}
        for (name, _, start, end), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)

        def total(names):
            return sum(self_s.get(n, 0.0) for n in names)

        def layer_self(layer):
            return sum(v for n, v in self_s.items()
                       if n.split(".", 1)[0] == layer)

        def rate(seconds, pairs):
            return seconds * 1e9 / pairs if pairs else 0.0

        c = self.counters
        m = {}
        m["metric.modulus_measure_s"] = total(_MEASURE)
        m["metric.modulus_measure_pairs"] = c["modulus_measure_pairs"]
        m["metric.modulus_measure_ns_per_pair"] = rate(
            m["metric.modulus_measure_s"], c["modulus_measure_pairs"])
        m["metric.modulus_check_s"] = total(["metric.check_modulus"])
        m["metric.modulus_check_pairs"] = c["modulus_check_pairs"]
        m["metric.modulus_check_ns_per_pair"] = rate(
            m["metric.modulus_check_s"], c["modulus_check_pairs"])
        m["metric.graph_s"] = total(["metric.build_epsilon_graph"])
        m["metric.graph_edges"] = c["graph_edges"]
        m["metric.reach_s"] = total(["metric.reachable"])
        m["metric.reach_calls"] = c["reach_calls"]
        m["metric.self_s"] = layer_self("metric")

        for kind in CERTIFICATE_KINDS:
            m[f"certificates.check.{kind}_s"] = total(
                [f"certificates.check.{kind}"])
        m["certificates.checks"] = c["checks"]
        m["certificates.build_s"] = total(
            ["certificates.build_negative_certificate"])
        m["certificates.self_s"] = layer_self("certificates")

        ser = [n for n in self_s if n.startswith("serialization.")]
        m["serialization.write_s"] = total(
            n for n in ser if n == "serialization.dumps"
            or n.endswith(("_to_json", "_to_ref")))
        m["serialization.write_bytes"] = c["write_bytes"]
        m["serialization.read_s"] = total(
            n for n in ser if n == "serialization.load_schema"
            or n.endswith(("_from_json", "_from_ref")))
        m["serialization.read_bytes"] = c["read_bytes"]
        m["serialization.self_s"] = layer_self("serialization")

        m["cli.certify_s"] = incl_s.get("cli.main", 0.0)
        m["cli.certify_self_s"] = layer_self("cli")

        m["spaces.build_s"] = total(_SPACE_BUILDERS)
        m["spaces.calls"] = c["space_calls"]
        m["spaces.net_points"] = c["net_points"]
        m["spaces.hit_ratio"] = (c["space_hits"] / c["space_calls"]
                                 if c["space_calls"] else 0.0)
        m["spaces.self_s"] = layer_self("spaces")

        m["maps.dugundji_s"] = total(_DUGUNDJI)
        m["maps.homotopy_s"] = total(_HOMOTOPY)
        m["maps.validity_s"] = total(["maps.MapSample.validity_report"])
        m["maps.value_diameter_s"] = total(["maps.MapSample.value_diameter"])
        m["maps.self_s"] = layer_self("maps")

        m["families.s"] = layer_self("families")

        for example in examples:
            m[f"runs.{example}.s"] = incl_s.get(
                f"runs.run_example.{example}", 0.0)
        m["runs.self_s"] = layer_self("runs")

        m["trace.spans"] = len(self.spans)
        return add_totals(m, wall_s)




def add_totals(m: dict, wall_s: float) -> dict:
    """Add the `other` remainder and the shares of the traced wall time.

    Applied to one pass, and again to medians over passes, so that the
    reported layer self times plus `other.self_s` add up to `trace.wall_s`.
    """
    m["trace.wall_s"] = wall_s
    m["other.self_s"] = wall_s - sum(m[k] for k in LAYER_SELF.values())
    for layer, key in LAYER_SELF.items():
        m[f"share.{layer}"] = m[key] / wall_s
    m["share.other"] = m["other.self_s"] / wall_s
    m["share.modulus_kernels"] = (m["metric.modulus_measure_s"]
                                  + m["metric.modulus_check_s"]) / wall_s
    m["share.serialization_cli"] = (m["serialization.self_s"]
                                    + m["cli.certify_self_s"]) / wall_s
    return m
