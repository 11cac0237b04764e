"""Clopen atoms against the four oracle classes they replaced.

The reference classes below are the set-based oracles that answered
"does this set extend to a clopen set?" before every space stored one
atom id per net point.  They are kept only here, as the oracle for
`ClopenAtoms`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import extenlab as xl
from extenlab import serialization as ser
from extenlab.errors import InvalidArgument


class ConnectedOracle:
    def __init__(self, size: int):
        self.size = size

    def atoms(self):
        return [frozenset(range(self.size))]

    def extends(self, subset: frozenset) -> bool:
        return len(subset) in (0, self.size)

    def trace_extends(self, z_indices, trace: frozenset) -> bool:
        return len(trace) in (0, len(z_indices))


class DiscreteOracle:
    def __init__(self, size: int):
        self.size = size

    def atoms(self):
        return [frozenset([i]) for i in range(self.size)]

    def extends(self, subset: frozenset) -> bool:
        return True

    def trace_extends(self, z_indices, trace: frozenset) -> bool:
        return True


class BlockOracle:
    def __init__(self, blocks: list[frozenset], infinity: int):
        self.blocks = [frozenset(b) for b in blocks]
        self.infinity = infinity

    def atoms(self):
        return self.blocks + [frozenset([self.infinity])]

    def extends(self, subset: frozenset) -> bool:
        rest = set(subset) - {self.infinity}
        for block in self.blocks:
            hit = rest & block
            if hit and hit != block:
                return False
            rest -= block
        return not rest

    def trace_extends(self, z_indices, trace: frozenset) -> bool:
        zset = set(int(i) for i in np.atleast_1d(z_indices))
        rest = set(trace) - {self.infinity}
        if not rest <= zset:
            return False
        for block in self.blocks:
            hit = rest & block
            zhit = zset & block
            if hit and hit != zhit:
                return False
            rest -= block
        return not rest


class ProductOracle:
    def __init__(self, kind: str, base_oracle, slices: list[np.ndarray]):
        self.kind = kind
        self.base = base_oracle
        self.slices = [np.asarray(s) for s in slices]
        self._pos = [{int(g): j for j, g in enumerate(s)} for s in self.slices]

    def atoms(self):
        if self.kind == "interval":
            return [frozenset(int(s[j]) for s in self.slices for j in atom)
                    for atom in self.base.atoms()]
        return [frozenset(int(s[j]) for j in atom)
                for s in self.slices for atom in self.base.atoms()]

    def _parts(self, subset: frozenset):
        parts, matched = [], 0
        for pos in self._pos:
            part = frozenset(pos[int(i)] for i in subset if int(i) in pos)
            matched += len(part)
            parts.append(part)
        return parts if matched == len(subset) else None

    def extends(self, subset: frozenset) -> bool:
        parts = self._parts(subset)
        if parts is None:
            return False
        if any(not self.base.extends(p) for p in parts):
            return False
        if self.kind == "interval":
            return len(set(parts)) == 1
        return True

    def trace_extends(self, z_indices, trace: frozenset) -> bool:
        raise InvalidArgument("product spaces are not used as pair bases")


def reference_oracle(space):
    """The oracle the replaced code built for this space."""
    recipe = space.recipe or {}
    n = len(space.net)
    if recipe.get("op") == "product":
        base = recipe["base"]
        nA = len(base.net)
        slices = [i * nA + np.arange(nA) for i in range(n // nA)]
        return ProductOracle(recipe["factor"], reference_oracle(base), slices)
    if recipe.get("op") == "opc":
        spans = [(b["start"], b["start"] + b["size"])
                 for b in space.meta["blocks"]]
        return BlockOracle([frozenset(range(*s)) for s in spans], infinity=0)
    if space.name == "ndagger":
        return DiscreteOracle(n)
    return ConnectedOracle(n)


def _unions(rng, atoms, within, count):
    """Random unions of the pieces atom & within, as given and with one
    point of `within` toggled, plus plain random subsets of `within`."""
    pieces = [a & within for a in atoms]
    pool = sorted(within)
    out = []
    for _ in range(count):
        pick = rng.random(len(pieces)) < rng.random()
        union = frozenset().union(*(p for p, k in zip(pieces, pick) if k))
        out.append(union)
        if pool:
            out.append(union ^ {pool[rng.integers(len(pool))]})
            size = rng.integers(0, len(pool) + 1)
            out.append(frozenset(int(i) for i in
                                 rng.choice(pool, size=size, replace=False)))
    return out


def _spaces(eps):
    """(space, Z indices) for each catalog space, pair Y and constructor."""
    out = [(xl.make_space(name, eps), None) for name in xl.catalog_names()]
    out += [(p.space, p.z_indices)
            for p in (xl.make_pair(name, eps) for name in xl.pair_names())]
    interval = xl.make_space("interval", eps)
    ndagger = xl.make_space("ndagger", eps)
    mixed = xl.opc_disjoint_union([interval, xl.make_space("point", eps),
                                   ndagger, xl.make_space("circle", eps)])
    out += [(mixed, None), (xl.cone(interval), None), (xl.cone(ndagger), None),
            (xl.subspace(xl.make_space("sine", eps), [3, 4, 5, 6], "arc"),
             None)]
    interval_n = xl.make_pair("interval-N", eps).space
    for base in (interval, ndagger, mixed, interval_n):
        for factor in ("interval", "ndagger"):
            out.append((xl.product_with(base, factor), None))
    return out


def _check(rng, new, ref, n, z, count=40) -> int:
    everything = frozenset(range(n))
    subsets = _unions(rng, ref.atoms(), everything, count)
    subsets += [frozenset(), everything]
    for s in subsets:
        assert new.extends(s) == ref.extends(s), sorted(s)
    zset = frozenset(int(i) for i in z)
    traces = _unions(rng, ref.atoms(), zset, count) + [frozenset(), zset]
    for t in traces:
        try:
            want = ref.trace_extends(z, t)
        except InvalidArgument:
            # the replaced product oracle answered no trace: the smallest
            # accepted set that can meet Z in t is the union of the
            # atoms t meets
            closure = frozenset().union(*(a for a in ref.atoms() if a & t))
            want = closure & zset == t and ref.extends(closure)
        assert new.trace_extends(z, t) == want, sorted(t)
    return len(subsets) + len(traces)


@pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -4])
def test_clopen_atoms_answer_as_the_replaced_oracles(eps):
    rng = np.random.default_rng(round(1 / eps))
    queries = 0
    for space, z in _spaces(eps):
        n = len(space.net)
        ref = reference_oracle(space)
        assert space.clopen.atoms() == ref.atoms(), space.key
        if z is None:
            z = np.sort(rng.choice(n, size=max(1, n // 3), replace=False))
        queries += _check(rng, space.clopen, ref, n, z)
    assert queries > 5000


def test_explicit_atoms_answer_as_the_replaced_block_oracle():
    # an explicit file may leave points out of every atom; the replaced
    # reload read it as blocks around a phantom point -1
    rng = np.random.default_rng(7)
    space = xl.make_space("interval", 2.0 ** -4)
    ref = ser.space_to_ref(dataclasses.replace(space, recipe=None))
    ref["clopen_atoms"] = [[0, 1, 2], [5], [7, 8, 9, 10], [16]]
    back = ser.space_from_ref(ref)
    old = BlockOracle([frozenset(a) for a in ref["clopen_atoms"]],
                      infinity=-1)
    assert back.clopen.atoms() == old.atoms()[:-1]
    for z in (np.arange(17), np.array([0, 2, 5, 8, 12, 16])):
        _check(rng, back.clopen, old, len(back.net), z, count=40)


def test_connected_atoms_store_nothing_per_point():
    ids = xl.make_space("disk", 2.0 ** -6).clopen.ids
    assert ids.strides == (0,)


def test_sets_leaving_the_net_or_z_never_extend():
    nd = xl.make_space("ndagger", 2.0 ** -4)
    n = len(nd.net)
    assert nd.clopen.extends(frozenset({0, n - 1}))
    assert not nd.clopen.extends(frozenset({n}))
    assert not nd.clopen.extends(frozenset({-1}))
    assert nd.clopen.trace_extends([1, 2], frozenset({1}))
    assert not nd.clopen.trace_extends([1, 2], frozenset({3}))
