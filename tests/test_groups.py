"""Group layer: lattice, Sylow theory, series, against brute-force oracles."""

import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    AutGroup,
    Group,
    Subgroup,
    automorphisms,
    all_subgroups,
    catalog_names,
    centralizer,
    commutator_subgroup,
    coset_quotient,
    direct_product_groups,
    fusion_of_group,
    group_centre,
    load_catalog,
    load_group_spec,
    make_group,
    normalizer,
    o_p_prime_group,
    parse_perm,
    subgroup_closure,
    sylow,
    upper_central_series_group,
)
import fusionkit.groups as groups
from fusionkit.errors import (
    FusionkitError,
    InvalidPermutation,
    NotASubgroup,
    OrderBoundExceeded,
    PreconditionFailed,
)
from fusionkit.groups import is_prime
from fusionkit.perms import perm_mul
from oracles import (
    cayley_table_by_perm_mul,
    centralizer_by_every_element,
    closure_by_breadth_first,
    generators_by_closure,
    is_normal_by_every_pair,
    maximal_subgroups_by_containment,
    normalizer_by_every_element,
    oracle_subgroup_sets,
    upper_central_series_by_every_element,
)

# counts of isomorphism types per order, as published for orders 1..24
GROUPS_PER_ORDER = [
    1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15,
]

SUBGROUP_COUNTS = {
    "d8": 10,
    "q8": 6,
    "a4": 10,
    "s4": 30,
    "c12": 6,
    "ea8": 16,
    "ea9": 6,
}


def _catalog_upto(bound):
    for name in sorted(catalog_names()):
        spec = load_catalog(name)
        if spec.get("order", 0) <= bound:
            yield name, spec


def test_catalog_covers_all_groups_up_to_24():
    seen = {}
    for name, spec in _catalog_upto(24):
        seen.setdefault(spec["order"], []).append(name)
    for order, expected in enumerate(GROUPS_PER_ORDER, start=1):
        assert len(seen.get(order, [])) == expected, f"order {order}"


def test_catalog_entries_are_pairwise_nonisomorphic():
    from fusionkit import is_isomorphic

    by_order = {}
    for name, spec in _catalog_upto(16):
        by_order.setdefault(spec["order"], []).append(make_group(spec))
    for order, groups in by_order.items():
        for i, G in enumerate(groups):
            for H in groups[i + 1 :]:
                assert not is_isomorphic(G.full_subgroup, H.full_subgroup)


@pytest.mark.parametrize("name,count", sorted(SUBGROUP_COUNTS.items()))
def test_subgroup_counts_frozen(name, count):
    G, _ = load_group_spec(name)
    assert len(all_subgroups(G.full_subgroup)) == count


@pytest.mark.parametrize("name", [name for name, _ in _catalog_upto(24)])
def test_subgroup_lattice_matches_subset_closure_oracle(name):
    G, _ = load_group_spec(name)
    carriers = [G.full_subgroup]
    carriers += [sylow(G.full_subgroup, p) for p in range(2, len(G) + 1)
                 if len(G) % p == 0 and is_prime(p)]
    for P in carriers:
        lattice, oracle = all_subgroups(P), oracle_subgroup_sets(P)
        assert {S._set for S in lattice} == oracle and len(lattice) == len(oracle)
        assert [S.key for S in lattice] == sorted(
            (S.key for S in lattice), key=lambda k: (len(k), k)
        )


def _product(*names):
    G = make_group(load_catalog(names[0]))
    for name in names[1:]:
        G = direct_product_groups(G, make_group(load_catalog(name))).group
    return G


# products whose lattices take the layer build at p = 3 and p = 5
ODD_PRODUCTS = [(("ea9", "ea9"), 3), (("ea9", "c9"), 3), (("c5", "c5"), 5)]


def test_layer_lattice_equals_the_join_closure(ladder_groups):
    carriers = [sylow(G.full_subgroup, 2) for G in ladder_groups]
    carriers += [sylow(_product(*names).full_subgroup, p) for names, p in ODD_PRODUCTS]
    for P in carriers:
        assert [S.key for S in all_subgroups(P)] == [
            S.key for S in groups._subgroup_lattice(P)
        ], P


def test_layer_lattice_matches_the_subset_closure_oracle(ladder_groups):
    carriers = [sylow(ladder_groups[0].full_subgroup, 2)]
    carriers += [sylow(_product(*names).full_subgroup, p) for names, p in
                 [(("ea9", "c3"), 3), (("c5", "c5"), 5), (("c4", "c4", "c2"), 2)]]
    for P in carriers:
        assert len(P) <= 32
        lattice, oracle = all_subgroups(P), oracle_subgroup_sets(P)
        assert {S._set for S in lattice} == oracle and len(lattice) == len(oracle), P


def test_recorded_maximal_subgroups_are_those_found_by_containment(ladder_groups):
    carriers = [sylow(G.full_subgroup, 2) for G in ladder_groups]
    carriers += [sylow(_product(*names).full_subgroup, p) for names, p in ODD_PRODUCTS]
    for name in sorted(catalog_names()):
        G = make_group(load_catalog(name))
        carriers += [sylow(G.full_subgroup, p) for p in range(2, len(G) + 1)
                     if len(G) % p == 0 and is_prime(p)]
        carriers.append(Subgroup(G, (G.identity,)))
    for P in carriers:
        assert groups._maximal_subgroups(P) == maximal_subgroups_by_containment(P), P


def test_recorded_inn_is_one_row_per_coset_of_the_centre_and_kept(ladder_groups):
    """On the ladder and catalog Sylow carriers, Inn(P) as recorded is one
    (row, coset) pair per coset gZ(P), Z(P) from ``group_centre``, the
    cosets partitioning P.  The row is its least element's whole row of G,
    and every element of the coset conjugates P by it (off P, c_gz and
    c_g may differ).  The rows differ pairwise on P, and the record is
    read back as the same object."""
    carriers = [sylow(G.full_subgroup, 2) for G in ladder_groups]
    for name in sorted(catalog_names()):
        G = make_group(load_catalog(name))
        carriers += [sylow(G.full_subgroup, p) for p in range(2, len(G) + 1)
                     if len(G) % p == 0 and is_prime(p)]
    for P in carriers:
        G, Z = P.group, group_centre(P)
        inn = groups._inn(P)
        on_p = groups._picker(P.elements)
        for row, coset in inn:
            g = coset[0]
            assert coset == tuple(sorted(G.mul(g, z) for z in Z.elements)), P
            assert row == groups._conj_rows(G, [g])[g], P
            for h in coset:
                assert on_p(row) == on_p(groups._conj_rows(G, [h])[h]), (P, h)
        assert len({on_p(row) for row, _ in inn}) == len(inn) == len(P) // len(Z), P
        assert sorted(x for _, coset in inn for x in coset) == list(P.elements), P
        assert groups._inn(P) is inn, P


def test_the_carrier_asked_for_is_the_top_of_its_lattice():
    """Both lattice builds put the carrier they were asked for at the top,
    not an equal copy: the join closure on each catalog group that is not
    a p-group, and the layer build on each catalog p-group and each
    proper Sylow subgroup.  The carrier owns the memo, which does not
    refer back to it: the index keeps the top's key, last, with no object,
    and a lookup by that key returns the carrier."""
    builds = set()
    for name in sorted(catalog_names()):
        G = make_group(load_catalog(name))
        carriers = [G.full_subgroup] + [
            sylow(G, p) for p in range(2, len(G)) if len(G) % p == 0 and is_prime(p)
        ]
        for S in dict.fromkeys(carriers):
            assert all_subgroups(S)[-1] is S, (name, S)
            index = groups._subgroup_index(S)
            assert list(index)[-1] == S.key and index[S.key] is None, (name, S)
            assert groups._lattice_member(S, S.key) is S, (name, S)
            assert S._lattice is G._lattices[S.key], (name, S)
            builds.add(groups._maximal_subgroups(S) is None)
    assert builds == {False, True}


def test_sylow_of_a_p_group_is_the_whole_group_without_normalizers(monkeypatch):
    calls = []
    normalizer = groups.normalizer
    monkeypatch.setattr(groups, "normalizer", lambda *a: calls.append(a) or normalizer(*a))
    checked = 0
    for name in sorted(catalog_names()):
        G = make_group(load_catalog(name))
        primes = [p for p in range(2, len(G) + 1) if len(G) % p == 0 and is_prime(p)]
        if len(primes) == 1:
            assert sylow(G, primes[0]) == G.full_subgroup, name
            checked += 1
    assert checked > 10 and calls == []


def test_prime_power_lattices_need_no_join_or_closure(monkeypatch):
    # every carrier is fresh, so each all_subgroups call below builds
    carriers = [sylow(_product(a, b).full_subgroup, 2) for a, b in
                [("a4", "d8"), ("s4", "q16")]]
    carriers += [sylow(_product(*names).full_subgroup, p) for names, p in ODD_PRODUCTS]
    for name, spec in _catalog_upto(24):
        G = make_group(spec)
        carriers += [sylow(G.full_subgroup, p) for p in range(2, len(G) + 1)
                     if len(G) % p == 0 and is_prime(p)]
    calls = []
    monkeypatch.setattr(groups, "_join", lambda *a: calls.append("_join"))
    monkeypatch.setattr(groups, "subgroup_closure", lambda *a: calls.append("closure"))
    for P in carriers:
        assert P.key not in P.group._lattices
        for Q in all_subgroups(P)[::8]:
            all_subgroups(Q)
    assert calls == []


def test_join_matches_the_closure_of_the_union():
    G, _ = load_group_spec("s4")
    lattice = all_subgroups(G)
    for H in lattice:
        for K in lattice:
            assert H.join(K).key == G.generated_subgroup(H.elements + K.elements).key


def _same_objects(xs, ys):
    return len(xs) == len(ys) and all(map(operator.is_, xs, ys))


def test_lattice_memo_is_shared_by_carriers_with_one_key():
    """Live carriers with one key read one memo: the same member objects,
    topped by the carrier first asked for while it lives and by the asker
    once it is gone.  The group keeps a key only while a carrier with it
    lives."""
    G, _ = load_group_spec("s4")
    P = sylow(G.full_subgroup, 2)
    twin = Subgroup(G, reversed(P.elements))
    assert twin is not P
    lattice = all_subgroups(P)
    assert _same_objects(all_subgroups(twin), lattice) and twin._lattice is P._lattice
    full = all_subgroups(G)
    assert _same_objects(all_subgroups(G.full_subgroup), full)
    assert set(G._lattices) == {P.key, G.full_subgroup.key}
    below = lattice[:-1]
    del P, lattice
    again = all_subgroups(twin)
    assert _same_objects(again[:-1], below) and again[-1] is twin
    del twin, again
    assert set(G._lattices) == {full[-1].key}
    del full
    assert not G._lattices


def test_lattice_of_a_subgroup_carrier_is_the_filtered_lattice():
    G, _ = load_group_spec("s4")
    for H in all_subgroups(G):
        assert all_subgroups(H) == tuple(S for S in all_subgroups(G) if S <= H)


def test_an_equal_group_starts_with_an_empty_lattice_memo():
    """An equal group object builds its own lattice, and a lattice lives
    only as long as a carrier holds it."""
    G, _ = load_group_spec("d8")
    lattice = all_subgroups(G)
    H = Group(G.perms, G.degree)
    assert H == G and G._lattices and not H._lattices
    assert all_subgroups(H) == lattice
    assert not any(map(operator.is_, all_subgroups(H), lattice))
    assert not H._lattices
    del lattice
    assert not G._lattices


def test_sylow_orders():
    for name, p, order in [("s4", 2, 8), ("s4", 3, 3), ("a4", 2, 4),
                           ("s3xs3", 3, 9), ("ea9_s3", 3, 27), ("sl23", 2, 8)]:
        G, _ = load_group_spec(name)
        P = sylow(G.full_subgroup, p)
        assert len(P) == order
        assert len(G) % len(P) == 0 and (len(G) // len(P)) % p != 0


def test_sylow_is_deterministic():
    G, _ = load_group_spec("s4")
    assert sylow(G.full_subgroup, 2).elements == sylow(G.full_subgroup, 2).elements


def test_centre_and_commutator():
    G, _ = load_group_spec("d8")
    P = G.full_subgroup
    assert len(group_centre(P)) == 2
    assert len(commutator_subgroup(P, P, P)) == 2
    G, _ = load_group_spec("s4")
    P = G.full_subgroup
    assert len(group_centre(P)) == 1
    assert len(commutator_subgroup(P, P, P)) == 12


def test_normalizer_centralizer_basics():
    G, _ = load_group_spec("s4")
    P = sylow(G.full_subgroup, 2)
    assert normalizer(G.full_subgroup, P).elements == P.elements
    Z = group_centre(P)
    assert centralizer(G.full_subgroup, Z) >= P


def test_normalizer_matches_the_every_element_scan():
    for name, spec in _catalog_upto(24):
        G = make_group(spec).full_subgroup
        for H in all_subgroups(G):
            assert normalizer(G, H) == normalizer_by_every_element(G, H), (name, H)


def test_closure_and_normality_match_the_element_by_element_forms():
    """``subgroup_closure``, a coset search from the trivial subgroup,
    against the breadth-first closure, and ``is_normal_in``, which reads
    generators, against every pair of elements: on every subgroup and every
    pair of subgroups of each catalog group of order <= 24."""
    pairs = normal = 0
    for name, spec in _catalog_upto(24):
        G = make_group(spec)
        lattice = all_subgroups(G)
        for H in lattice:
            for gens in (H.generators(), H.elements[::-2]):
                assert subgroup_closure(G, gens) == closure_by_breadth_first(G, gens), (name, H)
            for K in lattice:
                gens = H.generators() + K.elements[-1:]
                assert subgroup_closure(G, gens) == closure_by_breadth_first(G, gens), (name, H, K)
                assert H.is_normal_in(K) == is_normal_by_every_pair(H, K), (name, H, K)
                pairs, normal = pairs + 1, normal + H.is_normal_in(K)
    assert pairs > 10000 and 0 < normal < pairs


def test_generators_are_the_greedy_choice_of_the_closure_scan(ladder_groups):
    subgroups = [H for _, spec in _catalog_upto(24) for H in all_subgroups(make_group(spec))]
    subgroups += [H for G in ladder_groups for H in all_subgroups(sylow(G, 2))]
    for H in subgroups:
        assert H.generators() == generators_by_closure(H), H


def test_upper_central_series_group():
    G, _ = load_group_spec("d8")
    series = upper_central_series_group(G.full_subgroup)
    assert [len(S) for S in series] == [2, 8]
    G, _ = load_group_spec("s4")
    series = upper_central_series_group(G.full_subgroup)
    assert [len(S) for S in series] == [1]


def test_centralizer_matches_the_every_element_test(every_catalog_system, a4xd8_system, s4xd8_system):
    """``centralizer`` tests each g against H's generators alone and finds
    what the test against every element of H found: C_P(Q) for every
    subgroup Q of P in F_P(G) for every catalog group G and prime, in
    F_P(A4 x D8) and in F_P(S4 x D8), and the centre of every catalog group."""
    systems = every_catalog_system + [a4xd8_system, s4xd8_system]
    pairs = [(F.P, Q) for F in systems for Q in F.subgroups()]
    for P, Q in pairs:
        assert centralizer(P, Q) == centralizer_by_every_element(P, Q), Q
    assert len(pairs) == 1358
    for name in catalog_names():
        G = make_group(load_catalog(name))
        assert group_centre(G) == centralizer_by_every_element(G, G.full_subgroup), name


def test_upper_central_series_group_matches_the_every_element_test(ladder_groups):
    """``upper_central_series_group`` tests [g, x] for the container's
    generators x alone and finds the terms that the test for every x found,
    on every catalog group and the three ladder products."""
    every = [make_group(load_catalog(name)) for name in sorted(catalog_names())] + ladder_groups
    for G in every:
        assert upper_central_series_group(G) == upper_central_series_by_every_element(G), G
    assert len(every) == 81


def test_o_p_prime_group():
    G, _ = load_group_spec("a4")
    assert len(o_p_prime_group(G.full_subgroup, 2)) == 1
    assert len(o_p_prime_group(G.full_subgroup, 3)) == 4
    G, _ = load_group_spec("s3")
    assert len(o_p_prime_group(G.full_subgroup, 2)) == 3
    assert len(o_p_prime_group(G.full_subgroup, 3)) == 1


_SMALL = ["s3", "d8", "q8", "a4", "c12", "d12", "s4", "dic3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL), st.data())
def test_generated_subgroups_satisfy_lagrange(name, data):
    G, _ = load_group_spec(name)
    gens = data.draw(
        st.lists(st.integers(0, len(G) - 1), min_size=0, max_size=3)
    )
    H = G.generated_subgroup(gens)
    assert len(G) % len(H) == 0
    for a in gens:
        assert a in H._set


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL), st.data())
def test_conjugation_is_an_automorphism(name, data):
    G, _ = load_group_spec(name)
    g = data.draw(st.integers(0, len(G) - 1))
    a = data.draw(st.integers(0, len(G) - 1))
    b = data.draw(st.integers(0, len(G) - 1))
    assert G.conj(G.mul(a, b), g) == G.mul(G.conj(a, g), G.conj(b, g))
    assert G.conj(G.inv(a), g) == G.inv(G.conj(a, g))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL), st.data())
def test_element_order_divides_group_order(name, data):
    G, _ = load_group_spec(name)
    g = data.draw(st.integers(0, len(G) - 1))
    assert len(G) % G.element_order(g) == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SMALL), st.data())
def test_subgroup_conjugates_are_subgroups(name, data):
    G, _ = load_group_spec(name)
    gens = data.draw(st.lists(st.integers(0, len(G) - 1), max_size=2))
    g = data.draw(st.integers(0, len(G) - 1))
    H = G.generated_subgroup(gens)
    image = Subgroup(G, {G.conj(x, g) for x in H.elements}, check=True)
    assert len(image) == len(H)


def test_closed_group_rejects_a_non_closed_element_list():
    # a 3-cycle without its square
    with pytest.raises(FusionkitError):
        Group([(1, 2, 0)], 3, closed=True)


@pytest.mark.parametrize("name", ["a4", "d8", "q16"])
def test_closed_group_rejects_a_list_missing_or_adding_one_element(name):
    G = make_group(load_catalog(name))
    stray = next(p for p in itertools.permutations(range(G.degree)) if p not in G.perms)
    lists = [G.perms[:i] + G.perms[i + 1 :] for i in range(1, len(G))] + [G.perms + (stray,)]
    for perms in lists:
        with pytest.raises(FusionkitError, match="not closed under products"):
            Group(perms, G.degree, closed=True)


def test_cayley_table_is_the_product_of_permutations(ladder_groups):
    for G in [make_group(spec) for _, spec in _catalog_upto(400)] + ladder_groups:
        assert G._mul == cayley_table_by_perm_mul(G), G


def test_closed_build_multiplies_permutations_only_for_generator_rows(monkeypatch, ladder_groups):
    # each generator lies outside the subgroup the earlier ones generate, so
    # there are at most log2 |G| of them, with one row of products each
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return perm_mul(a, b)

    monkeypatch.setattr(groups, "perm_mul", counted)
    for G in [make_group(spec) for _, spec in _catalog_upto(400)] + ladder_groups:
        calls = 0
        assert Group(G.perms, G.degree, closed=True)._mul == G._mul
        assert calls <= math.ceil(math.log2(len(G))) * len(G), G


def test_aut_group_rejects_a_set_not_closed_under_composition():
    """One automorphism of order 3 of V4 is refused as a permutation group;
    the two of order 3, closed once the identity is added, reach
    ``AutGroup``'s own refusal."""
    G, _ = load_group_spec("v4")
    A = automorphisms(G.full_subgroup)
    rotations = [m for i, m in enumerate(A.morphisms) if A.group.element_order(i) == 3]
    with pytest.raises(FusionkitError):
        AutGroup(G.full_subgroup, rotations[:1])
    with pytest.raises(FusionkitError, match="^automorphism set is not closed under composition$"):
        AutGroup(G.full_subgroup, rotations)


# name: (call on S3 and its subgroups, in lattice order 1, <(1,2)>, <(1,3)>,
# <(2,3)>, A3, S3; the error class; its message)
GROUP_REFUSALS = {
    "sylow-at-1": (lambda G, subs: sylow(G, 1), PreconditionFailed, "1 is not a prime"),
    "fusion-at-0": (
        lambda G, subs: fusion_of_group(G, 0), PreconditionFailed, "0 is not a prime"
    ),
    "not-a-permutation": (
        lambda G, subs: Group([(0, 0, 1)], 3),
        FusionkitError, "not a permutation of degree 3: (0, 0, 1)",
    ),
    "closed-list-above-bound": (
        lambda G, subs: Group(G.perms, 3, closed=True, order_bound=5),
        OrderBoundExceeded, "group order 6 exceeds bound 5",
    ),
    "empty-subgroup": (
        lambda G, subs: Subgroup(G, []), NotASubgroup, "a subgroup cannot be empty"
    ),
    "subgroup-without-inverses": (
        lambda G, subs: Subgroup(G, subs[4].elements[:2]),
        NotASubgroup, "not closed under inversion",
    ),
    "quotient-by-a-non-normal-kernel": (
        lambda G, subs: coset_quotient(G, subs[1]), NotASubgroup, "kernel is not normal"
    ),
}


@pytest.mark.parametrize("case", sorted(GROUP_REFUSALS))
def test_group_layer_refuses_malformed_input(case):
    make, error, message = GROUP_REFUSALS[case]
    G = load_group_spec("s3")[0]
    with pytest.raises(FusionkitError) as info:
        make(G, all_subgroups(G.full_subgroup))
    assert (type(info.value), str(info.value)) == (error, message)


PERM_REFUSALS = {
    "stray-text": ("(1,2)x", None, "stray text outside cycles: '(1,2)x'"),
    "bad-point": ("(1,a)", None, "bad cycle point 'a' in '(1,a)'"),
    "point-0": ("(0,1)", None, "cycle points are 1-based: '(0,1)'"),
    "point-above-the-degree": ("(1,5)", 3, "cycle point 5 exceeds degree 3"),
}


@pytest.mark.parametrize("case", sorted(PERM_REFUSALS))
def test_parse_perm_refuses_malformed_cycles(case):
    text, degree, message = PERM_REFUSALS[case]
    with pytest.raises(FusionkitError) as info:
        parse_perm(text, degree)
    assert (type(info.value), str(info.value)) == (InvalidPermutation, message)


@pytest.mark.parametrize(
    "text, degree, perm",
    [("()()", 2, (0, 1)), ("(1)(2,3)()", 3, (0, 2, 1)), ("(1,3)", None, (2, 1, 0))],
)
def test_parse_perm_skips_empty_cycles_and_takes_the_largest_point_as_degree(text, degree, perm):
    assert parse_perm(text, degree) == perm
