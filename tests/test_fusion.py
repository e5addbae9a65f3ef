"""Fusion system layer: construction, closure, quotients, products, transport."""

import itertools
import json
import operator
import random
import weakref
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    all_subgroups,
    aut_map_of,
    based_range,
    centralizer,
    check_weakly_normal_map,
    conj_morphism,
    enumerate_subsystems_on,
    FusionSystem,
    Group,
    Morphism,
    Subgroup,
    deserialize,
    direct_product,
    direct_product_groups,
    find_fusion_isomorphism,
    full_subcategory,
    fusion_of_group,
    generated_fusion,
    group_centre,
    inner_fusion,
    intersect_raw,
    internal_direct_product,
    is_isomorphic_fusion,
    is_saturated,
    is_saturated_puig,
    is_strongly_closed,
    is_subsystem,
    load_catalog,
    load_group_spec,
    make_group,
    normalizer,
    o_p,
    quotient,
    quotient_with_data,
    strongly_closed_subgroups,
    sylow,
    transport_fusion,
    validate_fusion,
    x_subgroup,
)
from fusionkit import fusion, groups, hypercentre, normal_maps, saturation, subsystems
from fusionkit.errors import (
    FusionkitError,
    NotAPGroup,
    NotASubgroup,
    NotASubgroupOfP,
    NotStronglyClosed,
    NotSylow,
    ParseError,
    PrimeMismatch,
)
from fusionkit.fusion import _close, _routes
from fusionkit.morphisms import _compose, _inverse, _isomorphisms
from oracles import (
    aut_s_by_normalizer_rows,
    fusion_by_every_element,
    fully_normalized_by_scan,
    generated_fusion_by_full_closure,
    normalizer_by_every_element,
    validate_fusion_by_full_tuples,
)

ISO_COUNTS = {
    ("a4", 2): 13,
    ("s4", 2): 28,
    ("s3", 3): 3,
    ("sl23", 2): 32,
    ("s3xs3", 3): 17,
}


@pytest.mark.parametrize("key,count", sorted(ISO_COUNTS.items()))
def test_fusion_of_group_iso_counts_frozen(key, count):
    name, p = key
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    assert F.iso_count() == count
    validate_fusion(F)


def test_fusion_of_group_matches_the_every_element_scan(catalog_systems, ladder_groups):
    """On the catalog and ladder systems, on every proper container H < G
    with p dividing |H| in the catalog groups, and on every conjugate P^g
    other than ``sylow``'s pick, the coset build equals the scan over
    every element of the container."""
    systems = [F for _, _, F in catalog_systems]
    systems += [fusion_of_group(G, 2) for G in ladder_groups]
    for F in systems:
        assert F._isos == fusion_by_every_element(F.group.full_subgroup, F.P), F
        assert fusion_of_group(F.P, F.p, F.P)._isos == fusion_by_every_element(F.P, F.P), F
    containers = conjugates = 0
    for _, p, F in catalog_systems:
        G = F.group
        for H in all_subgroups(G)[:-1]:
            if len(H) % p == 0:
                E = fusion_of_group(H, p)
                assert E._isos == fusion_by_every_element(H, E.P), (F, H.elements)
                containers += 1
        others = {tuple(sorted(G.conj(x, g) for x in F.P.elements)) for g in G.full_subgroup}
        for key in sorted(others - {F.P.key}):
            Pg = Subgroup(G, key)
            assert fusion_of_group(G, p, Pg)._isos == fusion_by_every_element(G.full_subgroup, Pg), (F, key)
            conjugates += 1
    assert containers and conjugates


def test_inner_fusion_of_abelian_group_has_only_identities():
    G, _ = load_group_spec("a4")
    P = sylow(G.full_subgroup, 2)
    F = inner_fusion(P, 2)
    assert F.iso_count() == 5
    assert all(m.domain == m.codomain for m in F.all_isos())


def test_hom_sets_are_isos_followed_by_inclusions():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    Q = next(S for S in F.subgroups() if len(S) == 2)
    homs = F.hom_set(Q, F.P)
    assert len(homs) == 3
    for phi in homs:
        image = Subgroup(G, set(phi.mapping))
        assert F.contains_morphism(Morphism(Q, image, phi.mapping))


def test_morphisms_compose_left_to_right_within_the_system():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    for Q in F.subgroups():
        for phi in F.isos_from(Q):
            for psi in F.isos_from(phi.codomain):
                assert F.contains_morphism(phi.then(psi))


def test_restrictions_stay_in_the_system():
    G, _ = load_group_spec("sl23")
    F = fusion_of_group(G, 2)
    for Q in F.subgroups():
        for phi in F.isos_from(Q):
            for U in F.subgroups():
                if U < Q:
                    assert F.contains_morphism(phi.restrict(U))


def test_serialization_round_trip():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    data = json.loads(json.dumps(F.serialize()))
    assert deserialize(data) == F


def test_deserialize_rejects_a_non_closed_group_list():
    G, _ = load_group_spec("s3xs3")
    data = fusion_of_group(G, 3).serialize()
    data["group"] = data["group"][:-1]
    with pytest.raises(FusionkitError):
        deserialize(data)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda group: group[::-1], id="reversed"),
    pytest.param(lambda group: group + group[:1], id="duplicated-entry"),
])
def test_deserialize_refuses_a_group_list_out_of_sorted_order(edit):
    """Every index in P and the isos names an element of the sorted list
    that ``serialize`` writes, so a list in any other order is refused, not
    read against a sorted copy: reversed, F_P(S3)'s P = [0, 3, 4] names three
    transpositions in the document's own order, yet loaded as the 3-cycles."""
    G, _ = load_group_spec("s3")
    data = fusion_of_group(G, 3).serialize()
    data["group"] = edit(data["group"])
    with pytest.raises(ParseError) as info:
        deserialize(data)
    assert str(info.value) == "fusion data group entries are not the sorted elements of a group"


def _group(name):
    return load_group_spec(name)[0]


def _d8_factors(*words):
    """F_P(D8) for D8 = <r, s>, and the cyclic subgroup generated by each
    word of ``words`` over r and s."""
    G = _group("d8")
    letters = dict(zip("rs", G.generator_indices))
    return fusion_of_group(G, 2), *(G.generated_subgroup([reduce(G.mul, map(letters.get, w))]) for w in words)


FUSION_REFUSALS = {
    "system-p-of-another-group": (
        NotASubgroup, "P must be a subgroup of the ambient group",
        lambda: FusionSystem(_group("s3"), fusion_of_group(_group("d8"), 2).P, 2, {})),
    "system-p-not-a-p-group": (
        NotAPGroup, "P has order 6, not a power of 3",
        lambda: FusionSystem(_group("s3"), _group("s3").full_subgroup, 3, {})),
    "fusion-of-group-p-outside": (
        NotASubgroup, "P must be a subgroup of the acting group",
        lambda: fusion_of_group(_group("s3"), 3, fusion_of_group(_group("d8"), 2).P)),
    "fusion-of-group-p-not-sylow": (
        NotSylow, "|P| = 3 is not the 2-part of |G| = 6",
        lambda: fusion_of_group(_group("s3"), 2, fusion_of_group(_group("s3"), 3).P)),
    "inner-fusion-trivial-without-prime": (
        NotAPGroup, "the trivial group needs an explicit prime",
        lambda: inner_fusion(_group("s3").generated_subgroup([]))),
    "inner-fusion-not-a-p-group": (
        NotAPGroup, "order 6 is not a power of 3",
        lambda: inner_fusion(_group("s3"), 3)),
    "generated-fusion-not-a-p-group": (
        NotAPGroup, "order 6 is not a power of 2",
        lambda: generated_fusion(_group("s3").full_subgroup, 2, [])),
    "intersect-raw-two-groups": (
        FusionkitError, "intersection needs a common ambient group",
        lambda: intersect_raw(fusion_of_group(_group("d8"), 2), fusion_of_group(_group("s3"), 3))),
    "intersect-raw-two-primes": (
        PrimeMismatch, "3 != 2",
        lambda: intersect_raw(fusion_of_group(_group("s3"), 3), fusion_of_group(_group("s3"), 2))),
    "direct-product-two-primes": (
        PrimeMismatch, "3 != 2",
        lambda: direct_product(fusion_of_group(_group("s3"), 3), fusion_of_group(_group("d8"), 2))),
    "internal-product-meeting-factors": (
        FusionkitError, "factors intersect nontrivially",
        lambda: internal_direct_product(*_d8_factors("r", "rr"))),
    "internal-product-not-spanning": (
        FusionkitError, "factors do not span an internal direct product",
        lambda: internal_direct_product(*_d8_factors("s", "rs"))),
    "internal-product-not-commuting": (
        FusionkitError, "factors do not commute elementwise",
        lambda: internal_direct_product(*_d8_factors("r", "s"))),
    "transport-off-p": (
        FusionkitError, "transport needs an isomorphism defined on P",
        lambda: transport_fusion(
            fusion_of_group(_group("s3"), 3), Morphism.identity(_group("s3").full_subgroup))),
}


@pytest.mark.parametrize("case", sorted(FUSION_REFUSALS))
def test_fusion_constructors_refuse_what_they_cannot_build(case):
    """Each public constructor of ``fusion`` refuses an input it cannot
    build a system from with its own error class and message: a P outside
    the group or not a p-group, a P that is not Sylow, two systems of other
    groups or primes, factors that do not form an internal direct product
    (on D8 = <r, s>), and a transport map that is not defined on P."""
    error, message, call = FUSION_REFUSALS[case]
    with pytest.raises(FusionkitError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("key", ["degree", "group", "P", "isos", "p"])
def test_deserialize_missing_key_is_a_parse_error(key):
    G, _ = load_group_spec("s3")
    data = fusion_of_group(G, 3).serialize()
    del data[key]
    with pytest.raises(ParseError):
        deserialize(data)


@pytest.mark.parametrize("field,value", [
    pytest.param("isos", [[1]], id="isos-short-entry"),
    pytest.param("isos", [[[0], 5]], id="isos-mappings-not-a-list"),
    pytest.param("isos", {"0": []}, id="isos-object"),
    pytest.param("isos", "[]", id="isos-string"),
    pytest.param("P", 3, id="P-number"),
    pytest.param("P", [0, 99], id="P-index-out-of-range"),
    pytest.param("P", ["0"], id="P-string-index"),
    pytest.param("group", "()", id="group-string"),
    pytest.param("group", [[]], id="group-entry-not-a-string"),
    pytest.param("degree", "3", id="degree-string"),
    pytest.param("p", None, id="p-null"),
])
def test_deserialize_malformed_field_is_a_parse_error(field, value):
    G, _ = load_group_spec("s3")
    data = fusion_of_group(G, 3).serialize()
    data[field] = value
    with pytest.raises(ParseError):
        deserialize(data)


@pytest.mark.parametrize("entry", [
    pytest.param([[0, 3, 4], [[0]]], id="mapping-shorter-than-domain"),
    pytest.param([[0, 3, 4], [[0, 999, 1]]], id="mapping-index-out-of-range"),
    pytest.param([[0, 3, 4], [[0, 1, 2]]], id="mapping-outside-P"),
    pytest.param([[0, 3, 4], [[0, 3, 4, 0]]], id="mapping-longer-than-domain"),
    pytest.param([[0, 3, 4], [[0, 3, "4"]]], id="mapping-string-index"),
    pytest.param([[0, 3, 4], [[0, 3, 4.5]]], id="mapping-fractional-index"),
    pytest.param([[0, 3, 4], [[0, [3], 4]]], id="mapping-nested-list"),
    pytest.param([[0, 3, 4], [0, 3, 4]], id="mapping-not-a-list"),
    pytest.param([[0, 1, 2], [[0, 1, 2]]], id="domain-outside-P"),
    pytest.param([[0, None, 4], [[0, 3, 4]]], id="domain-null-index"),
    pytest.param([[0, 3, 4.0], [[0, 3, 4]]], id="domain-integral-float-index"),
    pytest.param([[0, 3, 4], [[0, 3.0, 4]]], id="mapping-integral-float-index"),
])
def test_deserialize_malformed_iso_entry_is_a_parse_error(entry):
    G, _ = load_group_spec("s3")
    data = fusion_of_group(G, 3).serialize()
    data["isos"][1] = entry  # the entry of the domain P = [0, 3, 4]
    with pytest.raises(ParseError):
        deserialize(data)


@pytest.mark.parametrize("field,value", [
    pytest.param("degree", 1 << 40, id="degree-huge"),
    pytest.param("p", (1 << 61) - 1, id="p-huge-prime"),
    pytest.param("p", 0, id="p-zero"),
])
def test_deserialize_out_of_range_number_is_a_parse_error(field, value):
    G, _ = load_group_spec("s3")
    data = fusion_of_group(G, 3).serialize()
    data[field] = value
    with pytest.raises(ParseError):
        deserialize(data)


@pytest.mark.parametrize("document", [[], "fusion", 3, None])
def test_deserialize_non_object_document_is_a_parse_error(document):
    with pytest.raises(ParseError):
        deserialize(document)


def test_quotient_by_centre_of_inner_d8():
    G, _ = load_group_spec("d8")
    F = inner_fusion(G.full_subgroup, 2)
    Z = group_centre(F.P)
    Fbar, qd = quotient_with_data(F, Z)
    assert len(Fbar.P) == 4
    assert Fbar == inner_fusion(Fbar.P, 2)
    assert qd.preimage(Fbar.P).elements == F.P.elements
    assert quotient(F, Z) == Fbar


def test_quotient_requires_strongly_closed_kernel():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    Z = group_centre(F.P)
    assert not is_strongly_closed(F, Z)
    with pytest.raises(NotStronglyClosed):
        quotient(F, Z)


def test_membership_is_false_across_groups_primes_and_carriers():
    """``contains_morphism`` answers False for a map whose domain lies
    outside P and for one whose image leaves P; ``is_subsystem`` answers
    False for a system of another group, of another prime, and on a carrier
    outside the other's.  On S3 at p = 2, P is one of the three subgroups of
    order 2 and Q another; the system itself answers True."""
    G = _group("s3")
    F = fusion_of_group(G, 2)
    Q = next(S for S in all_subgroups(G.full_subgroup) if len(S) == 2 and S != F.P)
    assert F.contains_morphism(Morphism.identity(F.P))
    assert not F.contains_morphism(Morphism.identity(Q))
    assert not F.contains_morphism(Morphism(F.P, G.full_subgroup, Q.elements))
    assert is_subsystem(F, F)
    assert not is_subsystem(fusion_of_group(_group("d8"), 2), F)
    assert not is_subsystem(fusion_of_group(G, 3), F)
    assert not is_subsystem(fusion_of_group(G, 2, Q), F)


def test_quotient_refuses_a_map_that_breaks_the_kernel_cosets():
    """An unvalidated table on P = C2^3 whose extra map on P fixes T = <t>
    pointwise, so T stays strongly closed, but swaps a and b, which lie in
    different cosets of T.  It breaks the homomorphism law, and
    ``quotient_with_data`` refuses it with the map as witness."""
    G, _ = load_group_spec("ea8")
    F = inner_fusion(G.full_subgroup, 2)
    P = F.P
    t, a, b = (P.elements[i] for i in (1, 2, 4))  # (5,6), (3,4), (1,2)
    T = G.generated_subgroup([t])
    assert b not in (a, G.mul(a, t))
    m = tuple({a: b, b: a}.get(x, x) for x in P.elements)
    isos = {qk: dict(targets) for qk, targets in F._isos.items()}
    isos[P.key][P.key] += (m,)
    broken = FusionSystem(G, P, 2, isos)
    assert is_strongly_closed(broken, T)
    with pytest.raises(NotStronglyClosed, match="^morphism does not respect the kernel cosets$") as err:
        quotient_with_data(broken, T)
    assert err.value.witness == m


def test_quotient_of_sl23_by_its_centre():
    G, _ = load_group_spec("sl23")
    F = fusion_of_group(G, 2)
    Z = group_centre(F.P)
    assert is_strongly_closed(F, Z)
    Fbar, _ = quotient_with_data(F, Z)
    A, _ = load_group_spec("a4")
    assert is_isomorphic_fusion(Fbar, fusion_of_group(A, 2))


def test_transport_by_ambient_conjugation():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    g = next(x for x in range(len(G)) if G.element_order(x) == 3)
    image = Subgroup(G, {G.conj(x, g) for x in F.P.elements})
    chi = conj_morphism(G.full_subgroup, g, F.P, image)
    moved = transport_fusion(F, chi)
    assert moved.P.elements == image.elements
    assert fusion_of_group(G, 2, image) == moved


def test_direct_product_of_group_fusions_matches_product_group():
    Ga, _ = load_group_spec("s3")
    Fa = fusion_of_group(Ga, 3)
    prod = direct_product(Fa, Fa)
    Gb, _ = load_group_spec("s3xs3")
    assert is_isomorphic_fusion(prod, fusion_of_group(Gb, 3))


def test_internal_direct_product_agrees_with_full_subcategories():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, _, r2, _ = G.generator_indices
    P1 = G.generated_subgroup([r1])
    P2 = G.generated_subgroup([r2])
    prod = internal_direct_product(F, P1, P2)
    assert prod == F
    E1 = full_subcategory(F, P1)
    assert E1.iso_count() == 3
    assert is_subsystem(E1, F)


def test_intersect_raw_is_a_lower_bound():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    H = G.generated_subgroup([r1, r2, G.mul(s1, s2)])
    FH = fusion_of_group(H, 3, F.P)
    raw = intersect_raw(EK, FH)
    assert is_subsystem(raw, EK) and is_subsystem(raw, FH)
    assert raw == EK


def test_generated_fusion_is_idempotent():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    again = generated_fusion(F.P, 2, list(F.all_isos()))
    assert again == F


def _ordered(isos):
    """A table with its domain order and the order of each domain's buckets."""
    return [(qk, list(targets.items())) for qk, targets in isos.items()]


def test_closure_over_a_closed_table_matches_the_full_closure(catalog_systems, a4xd8_system):
    """``generated_fusion``, and ``_close`` of the system it gives with one
    more map, equal the full closure of the oracle, domain order and bucket
    order included: random sets of 0-6 seeds on P and on every 7th subgroup
    of P, for every catalog system and F_P(A4 x D8)."""
    rng = random.Random(1306)
    cases = 0
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        pool = list(F.all_isos())
        for S in (F.P, *F.subgroups()[::7]):
            inside = [m for m in pool if m.domain <= S and m.codomain <= S]
            seeds = rng.sample(inside, rng.randint(0, min(6, len(inside))))
            E = generated_fusion(S, F.p, seeds)
            assert _ordered(E._isos) == _ordered(
                generated_fusion_by_full_closure(S, F.p, seeds)._isos
            ), (F, S.elements)
            m = rng.choice(inside)
            grown = _close(S, E._isos, [(m.domain.key, m.mapping)])
            assert _ordered(grown) == _ordered(
                generated_fusion_by_full_closure(S, F.p, seeds + [m])._isos
            ), (F, S.elements)
            cases += 2
    assert cases > 600


def test_closure_composes_two_seeds_in_either_pop_order(catalog_systems, a4xd8_system):
    """Two composable seeds g: S -> Q and f: Q -> R, neither a map of P's
    inner fusion, close P's inner fusion to the full closure of the oracle,
    domain order and bucket order included, whichever is popped first: as
    the seeds [g, f] and [f, g] of one closure, and one after the other,
    so that the second is closed over a table already holding the first.
    A fixed sample of pairs on every catalog system and F_P(A4 x D8)."""
    rng = random.Random(2403)
    cases = 0
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        inner = fusion_of_group(F.P, F.p, F.P)._isos
        outer = [m for m in F.all_isos()
                 if m.mapping not in inner[m.domain.key].get(m.codomain.key, ())]
        pairs = [(g, f) for g in outer for f in outer if f.domain == g.codomain]
        for g, f in rng.sample(pairs, min(3, len(pairs))):
            expected = _ordered(generated_fusion_by_full_closure(F.P, F.p, [g, f])._isos)
            for seeds in ([g, f], [f, g]):
                assert _ordered(generated_fusion(F.P, F.p, seeds)._isos) == expected, (F, seeds)
                first, second = ((m.domain.key, m.mapping) for m in seeds)
                table = _close(F.P, _close(F.P, inner, [first]), [second])
                assert _ordered(table) == expected, (F, seeds)
            cases += 1
    assert cases > 20


def _count(isos):
    return sum(len(ms) for targets in isos.values() for ms in targets.values())


def test_closure_queues_only_new_maps(catalog_systems, monkeypatch):
    """Each map ``_close`` pops is inverted once.  Closing inner fusion with
    its own maps as seeds pops none, and each closure of the subsystem
    search gets one seed and pops exactly the maps its base lacks."""
    popped = []
    inverse = fusion._inverse
    monkeypatch.setattr(fusion, "_inverse", lambda qk, m: popped.append(m) or inverse(qk, m))
    for _, p, F in catalog_systems:
        inner = inner_fusion(F.P, p)
        assert generated_fusion(F.P, p, list(inner.all_isos())) == inner
    assert popped == []

    closes = []

    def counted(P, base, seeds):
        seeds, before = list(seeds), len(popped)
        table = _close(P, base, seeds)
        added = _count(table) - _count(base)
        closes.append((len(seeds), len(popped) - before, added))
        return table

    monkeypatch.setattr(subsystems, "_close", counted)
    for name, p in (("s4", 2), ("a4", 2), ("s3xs3", 3)):
        F = fusion_of_group(load_group_spec(name)[0], p)
        enumerate_subsystems_on(F, F.P)
    assert closes and all(n == 1 and pops == added for n, pops, added in closes), closes


def test_bad_seeds_raise_what_the_full_closure_raises():
    """Each bad seed, alone or after good ones, raises the type, message
    and witness of the full closure: a domain or an image outside P, a map
    that is not injective, one of the wrong length, sampled bijections of
    each subgroup of P that fix 1 and are not homomorphisms, and one that
    moves 1, after every F-isomorphism from its domain."""
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    P, good = F.P, list(F.all_isos())
    outside = next(S for S in all_subgroups(G) if len(S) == 3)
    e = G.identity
    other = next(x for x in range(len(G)) if x not in P)
    cases = [
        [Morphism(outside, outside, outside.elements)],
        [Morphism(P, P, (e,) + P.elements[2:] + (other,))],
        [Morphism(P, P, (e,) * len(P))],
        [Morphism(P, P, P.elements[:-1])],
    ]
    rng = random.Random(1307)
    for Q in F.subgroups()[1:]:
        # 1 (the least element) swapped with another, after every F-iso from Q
        swap = (Q.elements[1], e) + Q.elements[2:]
        cases.append([*F.isos_from(Q), Morphism(Q, Q, swap)])
        rest = [x for x in Q.elements if x != e]
        orders = list(itertools.permutations(rest))
        for images in rng.sample(orders, min(40, len(orders))):
            send = {e: e, **dict(zip(rest, images))}
            cases.append([Morphism(Q, P, tuple(send[x] for x in Q.elements))])
    bad = [c for c in cases if _outcome(lambda s: generated_fusion(P, 2, s), c)]
    messages = set()
    for seeds in bad + [good[:3] + c for c in bad[::7]] + [bad[i] + bad[-i] for i in range(5)]:
        expected = _outcome(lambda s: generated_fusion_by_full_closure(P, 2, s), seeds)
        assert _outcome(lambda s: generated_fusion(P, 2, s), seeds) == expected, seeds
        messages.add(expected[1])
    assert len(bad) > 40 and len(messages) == 5, messages


def test_route_generators_generate_each_automizer(catalog_systems, a4xd8_system):
    """The generator routes of each class of ``_routes`` close under
    composition to exactly Aut_F(Q0), and each one at least doubles the
    span of those before it."""
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        for Q0, routes in _routes(F):
            gens = [t for R, t in routes if R == Q0]
            span, reached = {Q0.elements}, [Q0.elements]
            for x in reached:
                for g in gens:
                    y = _compose(x, Q0.elements, g)
                    if y not in span:
                        span.add(y)
                        reached.append(y)
            assert span == set(F.iso_mappings(Q0, Q0)), (F, Q0.elements)
            assert 2 ** len(gens) <= len(span), (F, Q0.elements)


def test_routes_are_one_list_per_system_from_each_normalized_member(catalog_systems, s4xd8_system):
    """``_routes(F)`` is computed once per system: every strongly closed T
    that axiom (i) or the invariance test asks about reads the same list,
    kept under the one key None.  Each class's routes start at its recorded
    fully normalized member and reach each member.  On F_P(S4 x D8) two
    classes have a fully normalized member other than their least one."""
    for F in [F for _, _, F in catalog_systems] + [s4xd8_system]:
        fresh = FusionSystem(F.group, F.P, F.p, F._isos)
        routes = _routes(fresh)
        for T in strongly_closed_subgroups(fresh):
            E = full_subcategory(fresh, T)
            subsystems.is_invariant(fresh, E)
            check_weakly_normal_map(fresh, aut_map_of(E))
        assert _routes(fresh) is routes
        assert list(fresh._cache["routes"]) == [None]
        classes = fresh.classes()
        assert len(routes) == len(classes)
        for (Q0, class_routes), cls in zip(routes, classes):
            assert Q0 is cls.normalized, (F, Q0.elements)
            assert [R for R, _ in class_routes if R != Q0] == [R for R in cls if R != Q0]


def test_a_strongly_closed_t_holds_the_routes_of_each_class_it_meets(strongly_closed_to_64):
    """Over every strongly closed T of the catalog systems of order <= 64
    (590 pairs when written), the classes that meet T are exactly those
    whose Q0 lies in T, and each of their routes ends in T, so the callers
    of ``_routes`` read T's classes off the system's one list."""
    for F, T in strongly_closed_to_64:
        for (Q0, class_routes), cls in zip(_routes(F), F.classes()):
            assert any(R <= T for R in cls) == (Q0 <= T), (F, T.elements, Q0.elements)
            if Q0 <= T:
                assert all(R <= T for R, _ in class_routes), (F, T.elements, Q0.elements)


def test_find_fusion_isomorphism_identity_case():
    G, _ = load_group_spec("q8")
    F = inner_fusion(G.full_subgroup, 2)
    assert find_fusion_isomorphism(F, F) is not None


_PAIRS = [("s3", 3), ("d8", 2), ("q8", 2), ("a4", 2), ("s4", 2), ("d12", 2),
          ("dic3", 2), ("c12", 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PAIRS), st.data())
def test_every_ambient_conjugation_lands_in_the_system(pair, data):
    name, p = pair
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    g = data.draw(st.integers(0, len(G) - 1))
    Q = data.draw(st.sampled_from(F.subgroups()))
    image = Subgroup(G, {G.conj(x, g) for x in Q.elements})
    if image <= F.P:
        mapping = tuple(G.conj(x, g) for x in Q.elements)
        assert F.contains_morphism(Morphism(Q, image, mapping))


def test_n_p_agrees_with_the_every_element_normalizer(catalog_systems, ladder_groups):
    """``n_p`` equals ``oracles.normalizer_by_every_element(F.P, Q)`` on
    every subgroup of the catalog and ladder systems; a Q outside P raises
    ``NotASubgroup``, as the normalizer does."""
    systems = [FusionSystem(F.group, F.P, F.p, F._isos) for _, _, F in catalog_systems]
    systems += [fusion_of_group(G, 2) for G in ladder_groups]
    for F in systems:
        for Q in F.subgroups():
            assert F.n_p(Q) == normalizer_by_every_element(F.P, Q), (F, Q.elements)
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    outside = sylow(G, 3)
    other = load_group_spec("d8")[0].full_subgroup
    for Q in (outside, other):
        with pytest.raises(NotASubgroup):
            normalizer(F.P, Q)
        with pytest.raises(NotASubgroup):
            F.n_p(Q)


def test_class_members_are_the_lattice_objects(catalog_systems, a4xd8_system):
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        lattice = {Q.key: Q for Q in F.subgroups()}
        for cls in F.classes():
            assert all(R is lattice[R.key] for R in cls), (F, cls.representative.elements)


def test_subgroups_of_p_that_a_system_hands_out_are_the_lattice_objects(
    catalog_systems, a4xd8_system, monkeypatch
):
    """On every catalog system and F_P(A4 x D8), ``F.subgroup(k)`` for each
    key k, N_P(Q) and C_P(Q) for each Q, the subgroups of the layout of
    each strongly closed T (U C_T(U) among them), and N_phi for each phi
    that ``is_receptive`` tries are P's lattice's own objects; a key that
    is not a subgroup of P raises ``NotASubgroupOfP``."""
    found, n_phi = [], saturation.n_phi

    def recorded(F, phi):
        found.append(n_phi(F, phi))
        return found[-1]

    monkeypatch.setattr(saturation, "n_phi", recorded)
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        lattice = {Q.key: Q for Q in all_subgroups(F.P)}
        found.clear()
        for key, Q in lattice.items():
            assert F.subgroup(key) is Q
            assert F.n_p(Q) is lattice[F.n_p(Q).key] and F.c_p(Q) is lattice[F.c_p(Q).key]
            saturation.is_receptive(F, Q)
        for T in subsystems.strongly_closed_subgroups(F):
            layout = normal_maps._layout(F, T)
            held = [*layout.subs, *layout.domain]
            held += [S for Q, V, _ in layout.extend.values() for S in (Q, V)]
            held += [S for Q, _, above in layout.centric for S in (Q, *(V for V, _, _ in above))]
            assert all(S is lattice[S.key] for S in held), (F, T.elements)
        assert all(N is lattice[N.key] for N in found), F
    assert found
    F = a4xd8_system
    for key in (tuple(range(len(F.group))), F.P.key[:-1]):
        with pytest.raises(NotASubgroupOfP):
            F.subgroup(key)


def test_saturation_runs_the_greedy_generator_search_on_no_subgroup(monkeypatch):
    """On a fresh F_P(S4 x D8), building the system and deciding its
    saturation run the greedy generator search on no subgroup: the classes
    hold the lattice's objects, and each keeps the tuple the layer build
    reached it by, which ``groups._generating`` reads."""
    G = direct_product_groups(*(make_group(load_catalog(n)) for n in ("s4", "d8"))).group
    P = sylow(G, 2)
    generators, searches = Subgroup.generators, []

    def counted(self):
        if self._gens is None:
            searches.append(self.key)
        return generators(self)

    monkeypatch.setattr(Subgroup, "generators", counted)
    F = fusion_of_group(G, 2, P)
    assert is_saturated(F).saturated
    assert len(F.subgroups()) == 389 and searches == []


def test_a_system_reads_the_rows_of_p_and_of_one_rep_per_coset_of_p(monkeypatch):
    """On a fresh F_P(S4 x D8), building the system, deciding its
    saturation and validating it read conjugation rows twice: once for
    P's lattice, whose entry keeps one of them per coset of Z(P), and once
    for one representative of each left coset of P other than P.  No call
    reads a row for every element of G."""
    G = direct_product_groups(*(make_group(load_catalog(n)) for n in ("s4", "d8"))).group
    conj_rows, calls = groups._conj_rows, []

    def counted(*args):
        calls.append(len(args[1]))
        return conj_rows(*args)

    for module in (groups, fusion):
        monkeypatch.setattr(module, "_conj_rows", counted)
    F = fusion_of_group(G, 2)
    assert is_saturated(F).saturated
    validate_fusion(F)
    assert sorted(calls) == [len(G) // len(F.P) - 1, len(F.P)]
    assert len(G) not in calls


def test_p_is_the_top_of_its_own_lattice(catalog_systems, ladder_groups):
    """On the catalog and ladder systems, F.P is its lattice's own object:
    the top of ``all_subgroups(F.P)``, what ``F.subgroup`` returns for its
    key, and N_P of each normal subgroup of P.  While F lives, a second
    F_P(G) on the same group object gets the same P and the same members.
    F.P owns the lattice, so a dropped system takes P and its lattice with
    it, and the next F_P(G) builds both afresh."""
    systems = [F for _, _, F in catalog_systems]
    systems += [fusion_of_group(G, 2) for G in ladder_groups]
    for F in systems:
        assert all_subgroups(F.P)[-1] is F.P, F
        assert F.subgroup(F.P.key) is F.P, F
        for Q in F.subgroups():
            if Q.is_normal_in(F.P):
                assert F.n_p(Q) is F.P, (F, Q.elements)
        again = fusion_of_group(F.group, F.p)
        assert again.P is F.P and all(map(operator.is_, again.subgroups(), F.subgroups())), F
    G = make_group(load_catalog("s4"))
    F = fusion_of_group(G, 2)
    P, bottom = weakref.ref(F.P), weakref.ref(F.subgroups()[0])
    del F
    assert P() is None and bottom() is None and not G._lattices
    F = fusion_of_group(G, 2)
    assert list(G._lattices) == [F.P.key]


def test_each_class_records_its_first_member_with_the_largest_n_p(catalog_systems, a4xd8_system):
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        for cls in F.classes():
            sizes = [len(normalizer_by_every_element(F.P, R)) for R in cls]
            assert cls.normalized is cls.members[sizes.index(max(sizes))]
        for Q in F.subgroups():
            assert F.is_fully_normalized(Q) == fully_normalized_by_scan(F, Q), (F, Q.elements)


def test_conjugation_from_a_source_outside_p_is_refused():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    Q = Subgroup(G, (G.identity,))
    for source in (G.full_subgroup, sylow(G, 3)):
        with pytest.raises(NotASubgroupOfP):
            F.aut_mappings_of_conjugation(Q, source)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_PAIRS), st.data())
def test_full_subcategory_is_a_subsystem(pair, data):
    name, p = pair
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    S = data.draw(st.sampled_from(F.subgroups()))
    E = full_subcategory(F, S)
    validate_fusion(E)
    assert is_subsystem(E, F)


def test_n_p_and_aut_p_tables_match_the_every_element_scan_on_the_ladder(ladder_groups):
    for G in ladder_groups:
        F = fusion_of_group(G, 2)
        for Q in F.subgroups():
            N = normalizer_by_every_element(F.P, Q)
            assert F.n_p(Q) == N, Q
            conjugations = {tuple(G.conj(x, g) for x in Q.elements) for g in N.elements}
            assert F.aut_mappings_of_conjugation(Q, F.P) == conjugations, Q


def test_c_p_matches_the_centralizer(catalog_systems, a4xd8_system):
    """C_P(Q) read off Inn(P) is ``centralizer(F.P, Q)`` on every subgroup
    of every catalog system and of F_P(A4 x D8)."""
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        for Q in F.subgroups():
            assert F.c_p(Q) == centralizer(F.P, Q), (F, Q.elements)


def test_aut_s_of_q_matches_the_normalizer_rows(catalog_systems, a4xd8_system):
    """Aut_S(Q) read off Inn(P) equals the rows of every element of N_S(Q)
    (``oracles.aut_s_by_normalizer_rows``) for every pair Q, S of subgroups
    of P, Q inside S or not, on every catalog system and F_P(A4 x D8)."""
    checked = 0
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        fresh = FusionSystem(F.group, F.P, F.p, F._isos)
        for Q in F.subgroups():
            for S in F.subgroups():
                aut_s = fresh.aut_mappings_of_conjugation(Q, S)
                assert aut_s == aut_s_by_normalizer_rows(F, Q, S), (F, Q.elements, S.elements)
                checked += not Q <= S
    assert checked > 10000, checked


def test_p_local_questions_ask_no_normalizer_inside_p(catalog_systems, monkeypatch):
    """Saturation by both criteria, ``based_range(F, F.P)``, O_p(F) and X_F
    on a fresh copy of every catalog system call ``normalizer`` and
    ``centralizer`` on no container of P's group inside P: N_P, C_P,
    Aut_S(Q) and N_phi are read off Inn(P).  The name each module imports
    is spied on, as is the module's own in ``groups``."""
    inside = []
    for module in (groups, fusion, saturation, subsystems, normal_maps, hypercentre):
        for name in ("normalizer", "centralizer"):
            if hasattr(module, name):
                def spy(container, H, real=getattr(module, name), name=name):
                    amb = groups._as_subgroup(container)
                    if amb.group is P.group and amb <= P:
                        inside.append((name, amb.elements, H.elements))
                    return real(container, H)
                monkeypatch.setattr(module, name, spy)
    for _, _, F in catalog_systems:
        F = FusionSystem(F.group, F.P, F.p, F._isos)
        P = F.P
        assert is_saturated(F).saturated and is_saturated_puig(F).saturated
        based_range(F, P)
        o_p(F)
        x_subgroup(F)
        assert inside == [], (F, inside[:3])


def test_facts_about_a_subgroup_of_an_equal_group_object_are_not_kept(catalog_systems):
    """A subgroup of an equal but distinct ``Group`` object gets the answers
    of its twin in P's group from n_p, c_p, aut_mappings_of_conjugation and
    is_fully_normalized, and the memo keeps none of them: no entry of c_p
    or Aut_P, and n_p only for the class members of P's own group that
    is_fully_normalized reads."""
    for _, _, F in catalog_systems:
        twin = Group(F.group.perms, F.group.degree, closed=True)
        assert twin == F.group and twin is not F.group
        fresh = FusionSystem(F.group, F.P, F.p, F._isos)
        for Q in F.subgroups():
            Q2 = Subgroup(twin, Q.elements, check=False)
            assert fresh.n_p(Q2) == F.n_p(Q) and fresh.c_p(Q2) == F.c_p(Q)
            aut_p = fresh.aut_mappings_of_conjugation(Q2, fresh.P)
            assert aut_p == F.aut_mappings_of_conjugation(Q, F.P)
            assert fresh.is_fully_normalized(Q2) == F.is_fully_normalized(Q)
        for fact in ("c_p", "aut_p"):
            assert not fresh._cache.get(fact)
        assert all(N.group is F.group for N in fresh._cache["n_p"].values())


def _span(*bounds):
    """The indices of the half-open ranges [bounds[0], bounds[1]), ..."""
    return tuple(i for a, b in zip(bounds[::2], bounds[1::2]) for i in range(a, b))


# (system, mappings removed as (domain, target, mapping), first failure and
# its witness); the failures were taken from validate_fusion as it was when
# it still looked up each mapping by its sorted image.  On d8 in S4 and on
# the ladder system no single missing mapping is first seen by the
# restriction check: a smaller domain's inversion or composition check sees
# it earlier.  So the d8 restriction case cuts <z> off from its two
# F-conjugates in both directions, and s3 x s3 at p = 3 gives the
# one-mapping case.
VALIDATE_PINS = {
    "d8-inversion": (
        ("s4", 2), [((0, 16), (0, 7), (0, 7))],
        "not closed under inversion", (0, 16),
    ),
    "d8-composition": (
        ("s4", 2), [((0, 7), (0, 16), (0, 16))],
        "not closed under composition", ((0, 23), (0, 16)),
    ),
    "d8-restriction": (
        ("s4", 2),
        [((0, 7), (0, 16), (0, 16)), ((0, 16), (0, 7), (0, 7)),
         ((0, 7), (0, 23), (0, 23)), ((0, 23), (0, 7), (0, 7))],
        "not closed under restriction", ((0, 16, 7, 23), (0, 7)),
    ),
    "s3xs3-restriction": (
        ("s3xs3", 3), [((0, 3, 4), (0, 3, 4), (0, 4, 3))],
        "not closed under restriction", ((0, 4, 3, 18, 22, 21, 24, 28, 27), (0, 3, 4)),
    ),
    "ladder-inversion": (
        None,
        [(_span(0, 8, 24, 32, 64, 72, 88, 96), _span(0, 8, 24, 32, 64, 72, 88, 96),
          _span(0, 8, 64, 72, 88, 96, 24, 32))],
        "not closed under inversion", _span(0, 8, 88, 96, 24, 32, 64, 72),
    ),
    "ladder-composition": (
        None, [(_span(0, 8, 24, 32), _span(0, 8, 64, 72), _span(0, 8, 64, 72))],
        "not closed under composition",
        ((0, 1, 7, 6, 4, 5, 3, 2, 24, 25, 31, 30, 28, 29, 27, 26),
         (0, 1, 7, 6, 4, 5, 3, 2, 64, 65, 71, 70, 68, 69, 67, 66)),
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_PINS))
def test_validate_fusion_reports_the_first_missing_mapping(case, ladder_groups):
    source, removed, message, witness = VALIDATE_PINS[case]
    if source is None:
        F = fusion_of_group(ladder_groups[0], 2)
    else:
        F = fusion_of_group(load_group_spec(source[0])[0], source[1])
    isos = {qk: dict(targets) for qk, targets in F._isos.items()}
    for qk, rk, m in removed:
        assert m in isos[qk][rk]
        isos[qk][rk] = tuple(x for x in isos[qk][rk] if x != m)
    with pytest.raises(FusionkitError) as info:
        validate_fusion(FusionSystem(F.group, F.P, F.p, isos))
    assert (str(info.value), info.value.witness) == (message, witness)


def _outcome(check, F):
    try:
        check(F)
    except FusionkitError as exc:
        return type(exc), str(exc), exc.witness
    return None


def _with_bucket(F, qk, rk, mappings):
    isos = {k: dict(targets) for k, targets in F._isos.items()}
    isos[qk][rk] = mappings
    return FusionSystem(F.group, F.P, F.p, isos)


def _removals(F):
    for qk, targets in F._isos.items():
        for rk, ms in targets.items():
            for j in range(len(ms)):
                yield qk, rk, ms[:j] + ms[j + 1 :]


def _swaps(F):
    for qk, targets in F._isos.items():
        for rk, ms in targets.items():
            for j, m in enumerate(ms):
                for i in range(len(m) - 1):
                    swapped = m[:i] + (m[i + 1], m[i]) + m[i + 2 :]
                    yield qk, rk, ms[:j] + (swapped,) + ms[j + 1 :]


def _without_bucket(F, qk, rk):
    isos = {k: dict(targets) for k, targets in F._isos.items()}
    del isos[qk][rk]
    return FusionSystem(F.group, F.P, F.p, isos)


def _foreign_automorphisms(F):
    """Each automizer S(Q, Q) with the first automorphism of Q that it lacks
    added, and each one-element automizer replaced by the first
    automorphism of Q other than the identity."""
    for qk, targets in F._isos.items():
        auts, Q = targets[qk], F.subgroup(qk)
        lacking = next((m for m in _isomorphisms(Q, Q) if m not in auts), None)
        if lacking is not None:
            yield qk, qk, auts + (lacking,)
            if len(auts) == 1:
                yield qk, qk, (next(m for m in _isomorphisms(Q, Q) if m != qk),)


def _grown_by_a_swap(F):
    """Each automizer S(Q, Q) with |Q| >= 3 grown by the identity of Q with
    its second and third images swapped, a bijection that fixes 1."""
    for qk, targets in F._isos.items():
        if len(qk) >= 3:
            yield qk, qk, targets[qk] + ((qk[0], qk[2], qk[1]) + qk[3:],)


def _cut_off(F):
    """For each F-class and each member R but the first, the table with
    every bucket between R and another member dropped, both ways, as a
    dict."""
    seen = set()
    for qk, targets in F._isos.items():
        if qk not in seen:
            seen.update(targets)
            for rk in list(targets)[1:]:
                isos = {k: dict(t) for k, t in F._isos.items()}
                for other in targets:
                    if other != rk:
                        del isos[other][rk], isos[rk][other]
                yield isos


def _generated_by_one_iso(G, p, order):
    """The system on the p-group G generated by the first isomorphism
    between the first two isomorphic subgroups Q, R of G of ``order``,
    with Q and R."""
    pairs = itertools.combinations([S for S in all_subgroups(G.full_subgroup) if len(S) == order], 2)
    Q, R = next((Q, R) for Q, R in pairs if next(_isomorphisms(Q, R), None))
    E = generated_fusion(G.full_subgroup, p, [Morphism(Q, R, next(_isomorphisms(Q, R)))])
    return E, Q, R


def test_validate_fusion_fails_first_where_the_full_tuple_check_does(ladder_groups, monkeypatch):
    # Each table below is judged as the full-tuple oracle judges it:
    # - on seven small systems, five F_P(G) and two generated by one map
    #   (C2^3 by a map of four-groups, C3 x C9 by a map of cyclic subgroups
    #   of order 9): every removal and neighbouring swap, every automizer
    #   grown by a foreign automorphism or a swapped identity, every
    #   one-element automizer replaced by a foreign automorphism, every
    #   bucket between two members dropped, and every member cut off from
    #   its class;
    # - on C3 x C9, the generating map Q -> R with two images of order 9
    #   swapped, and its inverse, and the table with every map into Q dropped;
    # - on the |P| = 32 ladder system, a fixed sample of removals and swaps,
    #   and a swap inside Aut_F(P);
    # - on F_P(S4), seven tables of the wrong shape: a domain missing, a
    #   bucket keyed by a subset that is no subgroup, mappings stored under
    #   another image's key in a bucket between two members and in an
    #   automizer, a class whose members differ in order, in table order and
    #   reversed, and Aut_F(P) cut to the identity.
    # Some fail one step of the decision alone: a swapped identity on C5 and
    # the bent map on C3 x C9 only the homomorphism law, a cut restriction
    # on C2^3 only the restriction of the generating map, and the table
    # without maps into Q only the identity of Q.
    cases = []
    c3xc9 = direct_product_groups(*(make_group(load_catalog(n)) for n in ("c3", "c9"))).group
    E, Q, R = _generated_by_one_iso(c3xc9, 3, 9)
    (t,) = E._isos[Q.key][R.key]
    i, j = [k for k, x in enumerate(Q.key) if c3xc9.element_order(x) == 9][:2]
    bent = tuple(t[j] if k == i else t[i] if k == j else y for k, y in enumerate(t))
    bent_table = {k: dict(targets) for k, targets in E._isos.items()}
    bent_table[Q.key][R.key], bent_table[R.key][Q.key] = (bent,), (_inverse(Q.key, bent),)
    unfixed = {k: dict(targets) for k, targets in E._isos.items()}
    del unfixed[Q.key][Q.key], unfixed[R.key][Q.key]
    cases += [partial(FusionSystem, E.group, E.P, E.p, table) for table in (bent_table, unfixed)]
    systems = [fusion_of_group(load_group_spec(name)[0], p)
               for name, p in [("s4", 2), ("s3xs3", 3), ("sl23", 2), ("c8", 2), ("c5", 5)]]
    systems += [E, _generated_by_one_iso(make_group(load_catalog("ea8")), 2, 4)[0]]
    for F in systems:
        cases += [partial(_with_bucket, F, *c) for c in [
            *_removals(F), *_swaps(F), *_foreign_automorphisms(F), *_grown_by_a_swap(F)
        ]]
        cases += [partial(_without_bucket, F, qk, rk)
                  for qk, targets in F._isos.items() for rk in targets if rk != qk]
        cases += [partial(FusionSystem, F.group, F.P, F.p, table) for table in _cut_off(F)]
    F = fusion_of_group(ladder_groups[0], 2)
    pk = F.P.key
    cases += [partial(_with_bucket, F, *c)
              for c in [*list(_removals(F))[::20], *list(_swaps(F))[::200]]]
    # this neighbouring swap in the identity of Aut_F(P), |Aut_F(P)| = 12,
    # spans 165888 permutations of P, so the decision closes spans with a
    # bound; ``bounded`` below fails a closure without one
    cases += [partial(_with_bucket, F, pk, pk, c[2]) for c in _swaps(F) if c[:2] == (pk, pk)][9:10]
    F = fusion_of_group(load_group_spec("s4")[0], 2)
    pk, ek = F.P.key, F.P.key[:1]
    qk, targets = next((qk, t) for qk, t in F._isos.items() if len(t) > 1)
    (_, ms), (other, _) = list(targets.items())[:2]
    unequal = {k: dict(t) for k, t in F._isos.items()}
    unequal[ek][pk], unequal[pk][ek] = (pk,), (ek,)
    cases += [
        partial(FusionSystem, F.group, F.P, F.p, {k: t for k, t in F._isos.items() if k != pk}),
        partial(_with_bucket, F, pk, pk[:-1], F._isos[pk][pk]),
        partial(_with_bucket, F, qk, other, ms),
        partial(_with_bucket, F, qk, qk, F._isos[qk][other]),
        partial(FusionSystem, F.group, F.P, F.p, unequal),
        partial(FusionSystem, F.group, F.P, F.p, dict(reversed(unequal.items()))),
        partial(_with_bucket, F, pk, pk, (pk,)),
    ]
    closure = fusion._closure

    def bounded(gens, degree, order_bound):
        assert order_bound is not None
        return closure(gens, degree, order_bound)

    monkeypatch.setattr(fusion, "_closure", bounded)
    messages = set()
    for make in cases:
        expected = _outcome(validate_fusion_by_full_tuples, make())
        assert _outcome(validate_fusion, make()) == expected, make.args[1:]
        messages.add(expected and expected[1])
    assert messages >= {
        "not a homomorphism", "inner fusion missing", "not closed under inversion",
        "not closed under restriction", "not closed under composition",
        "iso table does not range over the subgroups of P", "target is not a subgroup of P",
        "mapping does not match its target key",
    }


def _deep_restrictions(F):
    """(domain, mapping) of every restriction of a stored map to a subgroup
    of index p^2 or more in its domain that is not a map of P's inner
    fusion, once each."""
    lattice, inner = F.subgroups(), fusion_of_group(F.P, F.p, F.P)._isos
    found = {}
    for Q in lattice:
        for S in lattice:
            if S < Q and len(S) * F.p**2 <= len(Q):
                for m in itertools.chain(*F._isos[Q.key].values()):
                    r = tuple(m[Q.key.index(x)] for x in S.key)
                    if r not in inner[S.key].get(tuple(sorted(r)), ()):
                        found[S.key, r] = None
    return list(found)


def test_validate_fusion_names_a_missing_deep_restriction_as_the_full_tuple_check_does(
    ladder_groups,
):
    # One restriction to a subgroup of index p^2 or more is removed.  With
    # the domains in reverse order the full check meets the gap first on a
    # large domain, where the maps' restrictions to maximal subgroups are
    # all stored, so it is named there only by the rerun over every subgroup.
    systems = [fusion_of_group(load_group_spec(name)[0], p)
               for name, p in [("a4xc2", 2), ("ea9_s3", 3)]]
    systems.append(fusion_of_group(ladder_groups[0], 2))
    deep = 0
    for F in systems:
        for skey, mapping in _deep_restrictions(F)[:: 1 if len(F.P) < 32 else 40]:
            isos = {qk: dict(targets) for qk, targets in F._isos.items()}
            rk = tuple(sorted(mapping))
            isos[skey][rk] = tuple(m for m in isos[skey][rk] if m != mapping)
            for table in (isos, dict(reversed(isos.items()))):
                E = FusionSystem(F.group, F.P, F.p, table)
                expected = _outcome(validate_fusion_by_full_tuples, E)
                assert expected is not None
                assert _outcome(validate_fusion, E) == expected, (skey, mapping)
                if expected[1] == "not closed under restriction":
                    m, sk = expected[2]
                    deep += len(m) >= len(sk) * F.p**2
    assert deep >= 10


def test_validate_fusion_builds_no_morphism_on_a_valid_table(ladder_groups, monkeypatch):
    F = fusion_of_group(ladder_groups[1], 2)
    build, calls = Morphism.build.__func__, []
    name_failure, named = fusion._name_failure, []

    def counted(cls, *args):
        calls.append(args)
        return build(cls, *args)

    def naming(E):
        named.append(E)
        return name_failure(E)

    monkeypatch.setattr(Morphism, "build", classmethod(counted))
    monkeypatch.setattr(fusion, "_name_failure", naming)
    validate_fusion(F)
    assert calls == [] and named == []
    # one mapping that breaks the law is built, to name the failing pair
    qk, rk, ms = next(c for c in _swaps(F) if len(c[0]) > 2)
    with pytest.raises(FusionkitError, match="not a homomorphism"):
        validate_fusion(_with_bucket(F, qk, rk, ms))
    assert len(calls) == 1 and len(named) == 1


def test_validate_fusion_decides_every_valid_system_class_by_class(
    every_catalog_system, carrier_subsystems, ladder_groups, monkeypatch
):
    """F_P(G) for every catalog group at every prime, the three ladder
    groups and three products at odd p, and the subsystems on the small
    catalog carriers, are all accepted without the every-pair check."""

    def naming(E):
        raise AssertionError(f"the every-pair check ran on {E!r}")

    odd = [
        (direct_product_groups(make_group(load_catalog(a)), make_group(load_catalog(b))).group, p)
        for a, b, p in [("ea9", "ea9", 3), ("ea9", "c9", 3), ("c5", "c5", 5)]
    ]
    systems = [
        *every_catalog_system,
        *(fusion_of_group(G, 2) for G in ladder_groups),
        *(fusion_of_group(G, p) for G, p in odd),
        *carrier_subsystems,
    ]
    monkeypatch.setattr(fusion, "_name_failure", naming)
    for F in systems:
        validate_fusion(F)


def _with_empty_buckets(F):
    """For each pair of subgroups Q, R of P that are not F-conjugate, the
    table with an empty bucket Q -> R added, and (Q, R)."""
    for qk, targets in F._isos.items():
        for rk in F._isos:
            if rk not in targets:
                yield _with_bucket(F, qk, rk, ()), (qk, rk)


def test_validate_fusion_refuses_an_empty_bucket():
    # An empty bucket between two classes breaks no axiom that the
    # full-tuple check reads, but the class-by-class decision refuses it,
    # and the library reads such a table as one class: on F_P(S4) an empty
    # bucket between two order-2 subgroups that are not F-conjugate merges
    # their classes, and the routes then raise a bare KeyError.
    for name, p in [("s4", 2), ("s3xs3", 3)]:
        F = fusion_of_group(load_group_spec(name)[0], p)
        tables = list(_with_empty_buckets(F))
        assert tables
        for E, witness in tables:
            assert _outcome(validate_fusion_by_full_tuples, E) is None
            assert not fusion._is_valid(E)
            assert _outcome(validate_fusion, E) == (FusionkitError, "empty iso bucket", witness)


def test_validate_fusion_accepts_exactly_what_the_class_by_class_decision_accepts():
    # On every mutated table of three small systems, and on each with an
    # empty bucket added, validate_fusion raises exactly when _is_valid
    # refuses.
    for name, p in [("s4", 2), ("s3xs3", 3), ("c8", 2)]:
        F = fusion_of_group(load_group_spec(name)[0], p)
        tables = [_with_bucket(F, *c) for c in [
            *_removals(F), *_swaps(F), *_foreign_automorphisms(F), *_grown_by_a_swap(F)
        ]]
        tables += [FusionSystem(F.group, F.P, F.p, table) for table in _cut_off(F)]
        tables += [E for E, _ in _with_empty_buckets(F)]
        tables.append(F)
        verdicts = {fusion._is_valid(E) for E in tables}
        assert verdicts == {True, False}
        for E in tables:
            assert (_outcome(validate_fusion, E) is None) == fusion._is_valid(E)
