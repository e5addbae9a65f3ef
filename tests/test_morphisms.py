"""Morphisms: the mapping-tuple helpers against the raw-table operations of
the oracles, the isomorphism check behind inverse and AutGroup, and the
isomorphism search against the all-pairs closure it replaced."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    AutGroup,
    Morphism,
    Subgroup,
    all_subgroups,
    automorphisms,
    conj_morphism,
    enlarge_weakly_normal,
    find_fusion_isomorphism,
    fusion_of_group,
    inner_fusion,
    load_group_spec,
    transport_fusion,
)
from fusionkit.errors import (
    FusionkitError,
    ImageNotContained,
    NotAnIsomorphism,
    NotASubgroup,
    OrderBoundExceeded,
)
from fusionkit.morphisms import (
    _compose, _inverse, _isomorphisms, _positions, _restrict, _transport
)
from oracles import _compose as raw_compose
from oracles import _invert as raw_invert
from oracles import _restrictions as raw_restrictions
from oracles import (
    homomorphism_witness_pairwise, isomorphisms_by_pair_closure, transport_pairwise
)


def _raw_restrict(iso, S):
    if set(S.elements) == set(iso[0]):
        return iso
    (restricted,) = raw_restrictions(iso, {frozenset(S.elements)})
    return restricted


def _draw_iso(data, F, domains):
    Q = data.draw(st.sampled_from(domains))
    return data.draw(st.sampled_from(list(F.isos_from(Q))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tuple_helpers_match_the_raw_oracle(catalog_systems, data):
    _, _, F = data.draw(st.sampled_from(catalog_systems))
    phi = _draw_iso(data, F, F.subgroups())
    Q, R = phi.domain, phi.codomain
    raw = (Q.key, phi.mapping)

    S = data.draw(st.sampled_from([S for S in F.subgroups() if S <= Q]))
    restricted = _restrict(phi.mapping, _positions(Q.key, S.key))
    assert (S.key, restricted) == _raw_restrict(raw, S)
    assert phi.restrict(S).mapping == restricted

    inverse = _inverse(Q.key, phi.mapping)
    assert (R.key, inverse) == raw_invert(raw)
    assert phi.inverse().mapping == inverse

    psi = _draw_iso(data, F, [R])
    composed = _compose(phi.mapping, R.key, psi.mapping)
    assert (Q.key, composed) == raw_compose(raw, (R.key, psi.mapping))
    assert phi.then(psi).mapping == composed

    # an F-iso alpha: S -> S2 inside Q, moved along phi: chi^-1 . alpha . chi
    alpha = data.draw(st.sampled_from([a for a in F.isos_from(S) if a.codomain <= Q]))
    image, (moved,) = _transport(dict(zip(Q.key, phi.mapping)), S.key, [alpha.mapping])
    back = raw_invert(_raw_restrict(raw, S))
    forward = _raw_restrict(raw, alpha.codomain)
    expected = raw_compose(raw_compose(back, (S.key, alpha.mapping)), forward)
    assert (image, moved) == expected
    if alpha.codomain == S:
        assert alpha.conjugated_by(phi).key == (image, image, moved)


def test_transport_of_several_maps_moves_each_one_alone(catalog_systems, a4xd8_system):
    """All the maps out of each subgroup Q of P, moved at once along an
    F-automorphism chi of P, are the maps moved one at a time, by sorting
    each map's pairs; and the image key is the sorted image of Q.  Every
    chi of each catalog system is tried, and eight of F_P(A4 x D8)."""
    moved_maps = 0
    cases = [(F, F.isos_between(F.P, F.P)) for _, _, F in catalog_systems]
    cases.append((a4xd8_system, a4xd8_system.isos_between(a4xd8_system.P, a4xd8_system.P)[:8]))
    for F, automorphisms in cases:
        for chi in automorphisms:
            send = dict(zip(F.P.elements, chi.mapping))
            for Q in F.subgroups():
                maps = [m for ms in F._isos[Q.key].values() for m in ms]
                image, moved = _transport(send, Q.key, maps)
                assert image == tuple(sorted(send[x] for x in Q.key))
                assert [(image, m) for m in moved] == [
                    transport_pairwise(send, Q.key, m) for m in maps
                ]
                moved_maps += len(maps)
    assert moved_maps > 10000


def _s3_sylow():
    G, _ = load_group_spec("s3")
    return fusion_of_group(G, 3).P


def test_a_non_injective_map_onto_a_set_of_the_right_size_is_not_an_iso():
    P = _s3_sylow()
    collapse = Morphism(P, P, (P.elements[0],) * len(P))
    assert not collapse.is_iso
    with pytest.raises(NotAnIsomorphism):
        collapse.inverse()
    with pytest.raises(NotAnIsomorphism):
        AutGroup(P, [Morphism.identity(P), collapse])


def test_a_map_out_of_the_codomain_is_not_an_iso():
    P = _s3_sylow()
    outside = next(x for x in range(len(P.group)) if x not in P)
    stray = Morphism(P, P, P.elements[:-1] + (outside,))
    assert not stray.is_iso
    assert Morphism.identity(P).is_iso


def test_build_rejects_a_trivial_domain_sent_off_the_identity():
    # the trivial group has no generators, so its law is f(1.1) = f(1).f(1)
    P = _s3_sylow()
    one = Subgroup(P.group, (P.group.identity,))
    for x in P.elements[1:]:
        with pytest.raises(FusionkitError, match="not a homomorphism") as info:
            Morphism.build(one, P, (x,))
        assert info.value.witness == (one.elements[0],) * 2
    assert Morphism.build(one, P, one.elements).mapping == one.elements


def test_build_witness_is_the_first_failing_pair_of_the_pairwise_scan(catalog_systems):
    # swapping two neighbouring images of an F-isomorphism keeps it injective
    # and inside its codomain, and mostly breaks the homomorphism law
    failing = 0
    for _name, _p, F in catalog_systems:
        for phi in F.all_isos():
            m = phi.mapping
            for i in range(1, len(m) - 1):
                swapped = m[:i] + (m[i + 1], m[i]) + m[i + 2 :]
                expected = homomorphism_witness_pairwise(phi.domain, phi.codomain, swapped)
                try:
                    Morphism.build(phi.domain, phi.codomain, swapped)
                except FusionkitError as exc:
                    assert str(exc) == "not a homomorphism" and exc.witness == expected
                    failing += 1
                else:
                    assert expected is None
    assert failing > 2000


def _by_pair_closure(A, B, **limit):
    """The oracle's isomorphisms A -> B, in its order, as mapping tuples."""
    return [
        tuple(m[x] for x in A.elements)
        for m in isomorphisms_by_pair_closure(A, B, find_all=True, **limit)
    ]


def _automorphisms_or_error(make):
    try:
        return make().morphisms
    except OrderBoundExceeded as exc:
        return exc.args


def _fusion_isomorphism_by_pair_closure(F1, F2):
    """``find_fusion_isomorphism`` as it was before the search was lazy:
    every isomorphism P1 -> P2 is found first, then the first that carries
    F1 onto F2 is taken."""
    if F1.p != F2.p or len(F1.P) != len(F2.P) or F1.iso_count() != F2.iso_count():
        return None
    for mapping in _by_pair_closure(F1.P, F2.P):
        chi = Morphism(F1.P, F2.P, mapping)
        if transport_fusion(F1, chi) == F2:
            return chi
    return None


def test_isomorphisms_match_the_pair_closure_search(catalog_systems):
    """The lazy search along generator edges finds the isomorphisms of the
    all-pairs closure, in the same order: ``automorphisms`` of every catalog
    group of order <= 24 (ea16 and ea9sc2 exceed the order bound, and both
    forms raise the same error), the isomorphism lists of every subgroup of
    their Sylow subgroups, and ``find_fusion_isomorphism`` on every pair of
    their systems at the same prime, pairs of different orders included."""
    groups = {name: F.group for name, _, F in catalog_systems}
    raised = []
    for name, G in groups.items():
        Q = G.full_subgroup
        got = _automorphisms_or_error(lambda: automorphisms(G))
        want = _automorphisms_or_error(
            lambda: AutGroup(Q, [Morphism(Q, Q, m) for m in _by_pair_closure(Q, Q, limit=400)])
        )
        assert got == want, name
        if got == ("automorphism count exceeds bound 400",):
            raised.append(name)
    assert sorted(raised) == ["ea16", "ea9sc2"]

    subgroups = [S for _, _, F in catalog_systems for S in F.subgroups()]
    assert len(subgroups) == 681
    for S in subgroups:
        assert list(_isomorphisms(S, S)) == _by_pair_closure(S, S)

    found = 0
    for (_, p, F1), (_, q, F2) in combinations_with_replacement(catalog_systems, 2):
        if p == q:
            chi = find_fusion_isomorphism(F1, F2)
            assert chi == _fusion_isomorphism_by_pair_closure(F1, F2)
            found += chi is not None
    assert found == 430


# name: (call on S3 and its subgroups, in lattice order 1, <(1,2)>, <(1,3)>,
# <(2,3)>, A3, S3; the error class; its message).  A3's elements are
# 0, 3 = (1,2,3) and 4 = (1,3,2).
MORPHISM_REFUSALS = {
    "build-not-injective": (
        lambda G, s: Morphism.build(s[4], s[4], (0, 0, 3)),
        NotAnIsomorphism, "mapping is not injective",
    ),
    "build-outside-the-codomain": (
        lambda G, s: Morphism.build(s[1], s[2], s[1].elements),
        ImageNotContained, "image is not inside the codomain",
    ),
    "then-outside-the-next-domain": (
        lambda G, s: Morphism.identity(s[1]).then(Morphism.identity(s[2])),
        ImageNotContained, "composition undefined",
    ),
    "restrict-outside-the-domain": (
        lambda G, s: Morphism.identity(s[1]).restrict(s[2]),
        NotASubgroup, "restriction target not inside domain",
    ),
    "conjugated-by-a-map-on-a-smaller-domain": (
        lambda G, s: Morphism.identity(s[4]).conjugated_by(Morphism.identity(s[1])),
        NotASubgroup, "automorphism domain not inside the transport map",
    ),
    "conjugated-by-a-map-that-is-not-injective": (
        lambda G, s: Morphism.identity(s[4]).conjugated_by(Morphism(s[4], s[5], (0, 0, 0))),
        NotAnIsomorphism, "not onto the codomain",
    ),
    "conj-outside-the-container": (
        lambda G, s: conj_morphism(s[4], 1, s[1], s[1]),
        NotASubgroup, "subgroups must live in the given group",
    ),
    "conj-by-an-element-outside-the-container": (
        lambda G, s: conj_morphism(s[4], 1, s[4], s[4]),
        NotASubgroup, "conjugating element not in the group",
    ),
    "conj-outside-the-codomain": (
        lambda G, s: conj_morphism(G, 3, s[1], s[1]),
        ImageNotContained, "conjugate does not land in the codomain",
    ),
    "index-of-a-foreign-automorphism": (
        lambda G, s: AutGroup(s[4], [Morphism.identity(s[4])]).index_of(
            Morphism(s[4], s[4], (0, 4, 3))
        ),
        NotASubgroup, "automorphism not in this group",
    ),
    "morphisms-of-another-group": (
        lambda G, s: AutGroup(s[4], [Morphism.identity(s[4])]).morphisms_of(
            AutGroup(s[1], [Morphism.identity(s[1])]).group.full_subgroup
        ),
        NotASubgroup, "subgroup of a different automorphism group",
    ),
    # Aut_E(A3) = Aut(A3) does not lie in Aut_F(A3) = 1
    "enlarge-by-a-system-outside-f": (
        lambda G, s: enlarge_weakly_normal(
            inner_fusion(s[4], 3), fusion_of_group(G, 3), [Morphism.identity(s[4])]
        ),
        NotASubgroup, "automorphism not in this group",
    ),
}


@pytest.mark.parametrize("case", sorted(MORPHISM_REFUSALS))
def test_morphism_layer_refuses_malformed_input(case):
    make, error, message = MORPHISM_REFUSALS[case]
    G = load_group_spec("s3")[0]
    with pytest.raises(FusionkitError) as info:
        make(G, all_subgroups(G.full_subgroup))
    assert (type(info.value), str(info.value)) == (error, message)
