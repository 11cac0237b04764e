import numpy as np
import pytest

import extenlab as xl
from extenlab.errors import InvalidArgument, NotCoveredRefusal, UnknownName
from extenlab.certificates import (Certificate, PositiveCertificate,
                                   build_negative_certificate,
                                   certificate_for)
from extenlab.families import (FAMILY_NAMES, example_family,
                               explicit_extension, extends)
from extenlab.maps import restrict
from extenlab.metric import check_modulus
from extenlab.serialization import certificate_to_json, dumps

EPS8 = 2.0 ** -8
EPS6 = 2.0 ** -6


def test_unknown_family_rejected():
    with pytest.raises(UnknownName):
        example_family("borsuk", EPS6)


def test_family_members_pass_their_moduli():
    # declared moduli hold with zero slack; full validity at 2 eps slack
    for name in FAMILY_NAMES:
        fam = example_family(name, EPS6)
        for n in (1, min(3, fam.n_bound)):
            member = fam.member(n)
            assert check_modulus(member, 0.0), (name, n)
            assert not member.validity_report(), (name, n)
        assert check_modulus(fam.limit, 0.0), name
        assert not fam.limit.validity_report(), name


def test_family_truncation_bounds_enforced():
    fam = example_family("comb", EPS6)
    with pytest.raises(InvalidArgument):
        fam.member(fam.n_bound + 1)
    with pytest.raises(InvalidArgument):
        fam.member(0)


def test_comb_member_formula_values():
    fam = example_family("comb", EPS8)
    phi2 = fam.member(2)
    members = fam.pair.meta["z_members"]
    at = {int(m): i for i, m in enumerate(members)}
    assert phi2.values[at[2]].tolist() == [0.5, 1.0]
    assert phi2.values[at[3]].tolist() == [0.0, 1.0]
    assert phi2.values[at[0]].tolist() == [0.0, 1.0]


def test_ndagger_member_formula_values():
    fam = example_family("ndagger-eopen", EPS8)
    phi3 = fam.member(3)
    members = fam.pair.meta["z_members"]
    at = {int(m): i for i, m in enumerate(members)}
    assert phi3.values[at[2], 0] == 1.0 / 5.0   # value 3+2 sits at 1/5
    assert phi3.values[at[0], 0] == 0.0         # the limit point maps to 0


def test_hawaii_member_collapses_low_circles():
    fam = example_family("hawaii", EPS8)
    phi1 = fam.member(1)
    ear = fam.pair.meta["z_space"]
    ring1 = ear.meta["circles"][1]
    ring2 = ear.meta["circles"][2]
    assert np.all(phi1.values[ring1] == 0.0)
    assert np.array_equal(phi1.values[ring2], fam.pair.z_net.points[ring2])


def test_pathcomp_member_sends_tail_to_x_n():
    fam = example_family("pathcomp", EPS8)
    phi4 = fam.member(4)
    members = fam.pair.meta["z_members"]
    at = {int(m): i for i, m in enumerate(members)}
    assert phi4.values[at[3]].tolist() == [1.0 / 3, 0.0]
    assert phi4.values[at[9]].tolist() == [0.25, 0.0]
    assert phi4.values[at[0]].tolist() == [0.25, 0.0]


# ---------------------------------------------------------------------------
# explicit extensions


def test_comb_extension_restricts_exactly():
    fam = example_family("comb", EPS8)
    for n in (1, 7, 20):
        ext = explicit_extension("comb", n, EPS8)
        assert np.array_equal(restrict(ext, fam.pair).values,
                              fam.member(n).values)
        assert not ext.validity_report()


def test_comb_extension_midpoint_hits_base():
    ext = explicit_extension("comb", 1, EPS8)
    pair = example_family("comb", EPS8).pair
    y = pair.space.net.points[:, 0]
    mid = int(np.nonzero(y == 0.75)[0][0])
    assert ext.values[mid, 1] == 0.0


def test_comb_extension_constant_below_cut():
    n = 3
    ext = explicit_extension("comb", n, EPS8)
    pair = example_family("comb", EPS8).pair
    y = pair.space.net.points[:, 0]
    low = y <= 1.0 / (n + 1)
    assert np.all(ext.values[low] == np.array([0.0, 1.0]))


def test_pathcomp_extension_walks_the_curve():
    fam = example_family("pathcomp", EPS8)
    sine = fam.codomain
    curve_label = sine.label_names.index("curve")
    for n in (2, 10):
        ext = explicit_extension("pathcomp", n, EPS8)
        assert np.array_equal(restrict(ext, fam.pair).values,
                              fam.member(n).values)
        assert not ext.validity_report()
        # every value resolves to a net point of the curve component
        idx, dist = sine.net.nearest(ext.values)
        assert float(dist.max()) <= EPS8
        assert np.all(sine.labels[idx] == curve_label)


def test_identity_extension_for_sine_inclusion():
    ext = explicit_extension("sine-eopen", None, EPS8)
    pair = example_family("sine-eopen", EPS8).pair
    assert np.array_equal(ext.values, pair.space.net.points)


def test_block_extension_for_shrinking_union():
    fam = example_family("ndagger-eclosed", EPS6)
    for j in (1, 4, None):
        ext = explicit_extension("ndagger-eclosed", j, EPS6)
        phi = fam.limit if j is None else fam.member(j)
        assert np.array_equal(restrict(ext, fam.pair).values, phi.values)


@pytest.mark.parametrize("name,n", [
    ("comb", None), ("sine-eclosed", None), ("pathcomp", None),
    ("sine-eopen", 3), ("ndagger-eopen", 2), ("hawaii", 4),
])
def test_refusals_for_nonextendible_instances(name, n):
    with pytest.raises(NotCoveredRefusal):
        explicit_extension(name, n, EPS8)


def test_refusals_for_unprovable_obstructions():
    for name, n in [("comb", 3), ("sine-eopen", None),
                    ("ndagger-eopen", None), ("hawaii", None),
                    ("ndagger-eclosed", 2), ("pathcomp", 5)]:
        with pytest.raises(NotCoveredRefusal):
            build_negative_certificate(name, n, EPS8 if name != "ndagger-eclosed" else EPS6)


def _built_or_refused(build, name, n):
    try:
        return build(name, n, EPS6)
    except NotCoveredRefusal:
        return None


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_builders_partition_every_instance(name):
    # exactly one of the two builders covers each member and the limit,
    # the other refuses it, and certificate_for takes the covered side
    fam = example_family(name, EPS6)
    for n in [*range(1, fam.n_bound + 1), None]:
        neg = _built_or_refused(build_negative_certificate, name, n)
        ext = _built_or_refused(explicit_extension, name, n)
        assert (neg is None) != (ext is None), (name, n)
        assert (neg is None) == extends(name, n), (name, n)
        expected = neg or PositiveCertificate(ext, tolerance=0.0)
        assert dumps(certificate_to_json(certificate_for(name, n, EPS6),
                                         EPS6)) \
            == dumps(certificate_to_json(expected, EPS6)), (name, n)


# whether the members and the limit extend: not closed (members extend,
# the limit does not), not open (the limit extends, no member does), or
# extendible throughout
PAPER_CLASSIFICATION = {
    "pathcomp": (True, False), "sine-eclosed": (True, False),
    "comb": (True, False), "sine-eopen": (False, True),
    "ndagger-eopen": (False, True), "hawaii": (False, True),
    "ndagger-eclosed": (True, True),
}


def test_extends_follows_the_papers_classification():
    assert set(PAPER_CLASSIFICATION) == set(FAMILY_NAMES)
    for name, (members, limit) in PAPER_CLASSIFICATION.items():
        n_bound = example_family(name, EPS6).n_bound
        assert {extends(name, n) for n in range(1, n_bound + 1)} \
            == {members}, name
        assert extends(name, None) == limit, name


@pytest.mark.parametrize("build", [
    extends, lambda name, n: explicit_extension(name, n, EPS6),
    lambda name, n: build_negative_certificate(name, n, EPS6),
    lambda name, n: certificate_for(name, n, EPS6),
], ids=["extends", "explicit_extension", "build_negative_certificate",
        "certificate_for"])
def test_unknown_family_name_raises_unknown_name(build):
    for n in (None, 1):
        with pytest.raises(UnknownName):
            build("borsuk", n)


@pytest.mark.parametrize("eps", [2.0 ** -5, EPS6, EPS8])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_members_outside_the_bound_are_refused_as_invalid(name, eps):
    # n = 0 and n = -1 used to crash inside the builders, and members past
    # n_bound used to build; the bound itself still builds
    n_bound = example_family(name, eps).n_bound
    for n in (-1, 0, n_bound + 1):
        for build in (explicit_extension, build_negative_certificate,
                      certificate_for):
            with pytest.raises(InvalidArgument):
                build(name, n, eps)
    assert isinstance(certificate_for(name, n_bound, eps), Certificate)
