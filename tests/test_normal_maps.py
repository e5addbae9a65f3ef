"""Weakly normal maps: axioms, generation, enumeration, ranges, wedges."""

import json

import pytest

from fusionkit import (
    MapVerdict,
    Morphism,
    NotBased,
    Subgroup,
    all_subgroups,
    aut_map_from_data,
    aut_map_of,
    aut_map_to_data,
    automorphisms,
    based_range,
    check_weakly_normal_map,
    complete_partial_map,
    enlarge_weakly_normal,
    full_subcategory,
    fusion_of_group,
    generate_from_map,
    generated_fusion,
    group_centre,
    inner_fusion,
    intersect_raw,
    intersection_wedge,
    is_isomorphic_fusion,
    is_saturated,
    is_strongly_closed,
    is_subsystem,
    load_group_spec,
    normal_maps,
    normality_status,
    o_p_prime_subsystem,
    partial_domain,
    strongly_closed_subgroups,
    subgroup_closure,
    t_core,
    upper_central_series,
    verify_theorem_a,
    weakly_normal_systems_on,
    x_subgroup,
)
from fusionkit.cli import run
from fusionkit.errors import (
    CoreUndefined,
    FusionkitError,
    InconsistentPartial,
    IndexNotCoprime,
    NotASubgroup,
    NotNormalInAutF,
    NotStronglyClosed,
    ParseError,
    PreconditionFailed,
    TheoremViolation,
)
from fusionkit.fusion import _generators
from fusionkit.normal_maps import _first_disagreement, _maximum, _minimum
from oracles import (
    check_weakly_normal_map_per_call,
    closure_by_breadth_first,
    complete_partial_map_per_call,
    generators_by_breadth_first,
    is_normal_by_every_pair,
)


@pytest.fixture(scope="module")
def a4():
    G, _ = load_group_spec("a4")
    return G, fusion_of_group(G, 2)


@pytest.fixture(scope="module")
def ea9():
    G, _ = load_group_spec("ea9_s3")
    return G, fusion_of_group(G, 3)


@pytest.fixture(scope="module")
def s3xs3():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    H = G.generated_subgroup([r1, r2, G.mul(s1, s2)])
    FH = fusion_of_group(H, 3, G.generated_subgroup([r1, r2]))
    return G, F, EK, FH


def test_aut_map_of_a_weakly_normal_subsystem_passes_the_axioms(s3xs3):
    G, F, EK, FH = s3xs3
    for ambient in (F, FH):
        verdict = check_weakly_normal_map(ambient, aut_map_of(EK))
        assert verdict.ok, (verdict.axiom, verdict.reason)


def test_generation_recovers_the_subsystem(s3xs3):
    G, F, EK, FH = s3xs3
    assert generate_from_map(F, aut_map_of(EK)) == EK


def test_round_trip_from_the_map_side(a4):
    G, F = a4
    for E in weakly_normal_systems_on(F, F.P):
        A = aut_map_of(E)
        E2 = generate_from_map(F, A)
        assert E2 == E
        assert aut_map_of(E2).assignment == A.assignment


def test_enumeration_counts_on_v4(a4):
    G, F = a4
    counts = sorted(E.iso_count() for E in weakly_normal_systems_on(F, F.P))
    assert counts == [5, 13]


def test_enumeration_counts_on_ea9_carriers(ea9):
    G, F = ea9
    Q = G.generated_subgroup([G.generator_indices[0], G.generator_indices[1]])
    R = group_centre(F.P)
    assert [E.iso_count() for E in weakly_normal_systems_on(F, Q)] == [6]
    assert sorted(E.iso_count() for E in weakly_normal_systems_on(F, R)) == [2, 3]
    assert sorted(E.iso_count() for E in weakly_normal_systems_on(F, F.P)) == [59, 108]


def test_based_range_on_the_ea9_centre(ea9):
    G, F = ea9
    R = group_centre(F.P)
    rng = based_range(F, R)
    assert rng
    assert rng.minimal == inner_fusion(R, 3)
    S3, _ = load_group_spec("s3")
    assert is_isomorphic_fusion(rng.maximal, fusion_of_group(S3, 3))


def test_maximal_systems_on_nested_carriers_need_not_nest(ea9):
    G, F = ea9
    Q = G.generated_subgroup([G.generator_indices[0], G.generator_indices[1]])
    R = group_centre(F.P)
    range_q = based_range(F, Q)
    range_r = based_range(F, R)
    assert range_q.maximal == inner_fusion(Q, 3)
    assert not is_subsystem(range_r.maximal, range_q.maximal)
    assert is_subsystem(range_r.minimal, range_q.minimal)


def test_based_range_carrier_must_be_strongly_closed(a4):
    G, F = a4
    C2 = next(S for S in F.subgroups() if len(S) == 2)
    with pytest.raises(NotStronglyClosed):
        based_range(F, C2)


def test_completion_refuses_a_t_that_is_not_strongly_closed(catalog_systems):
    """``complete_partial_map`` raises NotStronglyClosed on every subgroup T
    of a catalog system that is not strongly closed, as
    ``check_weakly_normal_map`` does, here for the partial map of the
    automizers Aut_F(U) on ``partial_domain``."""
    seen = 0
    for _, _, F in catalog_systems:
        for T in F.subgroups():
            if is_strongly_closed(F, T):
                continue
            partial = {U.key: F.iso_mappings(U, U) for U in partial_domain(F, T)}
            with pytest.raises(NotStronglyClosed):
                complete_partial_map(F, T, partial)
            seen += 1
    assert seen


def test_not_based_outcome_is_falsy(a4):
    G, F = a4
    outcome = NotBased(F.P, "no weakly normal subsystem on the carrier")
    assert not outcome
    assert outcome.reason


def test_minimal_system_is_the_p_prime_residue(a4):
    G, F = a4
    rng = based_range(F, F.P)
    assert rng.minimal == o_p_prime_subsystem(F)
    assert rng.maximal == F


def _largest_coprime_enlargement(F, E):
    """The join of every normal subgroup of Aut_F(T) that contains
    Aut_E(T) with index prime to p, as a subgroup of F.aut_group(T).group."""
    ag = F.aut_group(E.P)
    full = ag.group.full_subgroup
    aut_e = ag.subgroup_from(E.isos_between(E.P, E.P))
    joined = aut_e
    for S in all_subgroups(full):
        if aut_e <= S and S.is_normal_in(full) and (len(S) // len(aut_e)) % F.p != 0:
            joined = joined.join(S)
    return joined


def test_based_ranges_are_the_residue_and_the_largest_enlargement(sweep_weakly_normal):
    """based_range reads both ends off the enumeration.  On every carrier of
    the catalog sweep they must be what the theory says: the minimum is
    O^{p'}(E) for each weakly normal E on T, and the maximum is the largest
    coprime enlargement of the minimum."""
    carriers = systems_seen = 0
    for name, p, F, T, systems in sweep_weakly_normal:
        rng = based_range(F, T)
        if not systems:
            assert not rng, (name, p, T.elements)
            continue
        carriers += 1
        systems_seen += len(systems)
        for E in systems:
            assert o_p_prime_subsystem(E) == rng.minimal, (name, p, T.elements)
        largest = enlarge_weakly_normal(
            F, rng.minimal, _largest_coprime_enlargement(F, rng.minimal)
        )
        assert rng.maximal == largest, (name, p, T.elements)
    assert (carriers, systems_seen) == (571, 604)


def test_systems_without_a_minimum_or_maximum_raise():
    G, _ = load_group_spec("v4")
    P = G.full_subgroup
    e, a, b, c = P.elements
    E1 = generated_fusion(P, 2, [Morphism(P, P, (e, b, a, c))])
    E2 = generated_fusion(P, 2, [Morphism(P, P, (e, a, c, b))])
    for extreme in (_minimum, _maximum):
        assert extreme((E1,), P) == E1
        with pytest.raises(TheoremViolation):
            extreme((E1, E2), P)


def test_enlargement_recovers_the_maximal_system(a4):
    G, F = a4
    inner = inner_fusion(F.P, 2)
    ag = F.aut_group(F.P)
    grown = enlarge_weakly_normal(F, inner, ag.morphisms_of(ag.group.full_subgroup))
    assert grown == F


def test_partial_map_completion_round_trip(s3xs3):
    G, F, EK, FH = s3xs3
    T = EK.P
    A = aut_map_of(EK)
    partial = {
        U.key: A.assignment[U.key] for U in partial_domain(F, T)
    }
    completed = complete_partial_map(F, T, partial)
    assert completed.assignment == A.assignment


def test_aut_map_serialization_round_trip(s3xs3):
    G, F, EK, FH = s3xs3
    A = aut_map_of(EK)
    data = json.loads(json.dumps(aut_map_to_data(A)))
    assert aut_map_from_data(F, data).assignment == A.assignment


@pytest.mark.parametrize("key", ["T", "assignment"])
def test_aut_map_missing_key_is_a_parse_error(s3xs3, key):
    G, F, EK, FH = s3xs3
    data = aut_map_to_data(aut_map_of(EK))
    del data[key]
    with pytest.raises(ParseError):
        aut_map_from_data(F, data)


@pytest.mark.parametrize("key, value", [
    ("T", [0, 999]),
    ("T", [[0]]),
    ("T", "0"),
    ("assignment", [[1]]),
    ("assignment", 5),
    ("assignment", [[5, [[0]]]]),
    ("assignment", [[[0], [[[0]]]]]),
])
def test_aut_map_malformed_field_is_a_parse_error(s3xs3, key, value):
    G, F, EK, FH = s3xs3
    data = aut_map_to_data(aut_map_of(EK))
    data[key] = value
    with pytest.raises(ParseError):
        aut_map_from_data(F, data)


def test_the_small_maps_assignment_generates_inner_not_itself(a4):
    """An assignment can satisfy the axioms while its source category is
    not weakly normal: the trivial-automizer map of the order-two-maps
    system regenerates inner fusion, not the system it came from."""
    G, F = a4
    isos = [phi for Q in F.subgroups() if len(Q) <= 2
            for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    E = generated_fusion(F.P, 2, isos)
    A = aut_map_of(E)
    assert check_weakly_normal_map(F, A).ok
    regenerated = generate_from_map(F, A)
    assert regenerated == inner_fusion(F.P, 2)
    assert regenerated != E


def test_overfull_assignment_fails_the_restriction_axiom(ea9):
    """Assigning the full automizer at the carrier with a too-small value
    on a stabilized maximal subgroup must be rejected: some automorphism
    of P stabilizes the subgroup but restricts outside its value."""
    G, F = ea9
    P = F.P
    A_full = aut_map_of(F)
    bad = dict(A_full.assignment)
    for U in F.subgroups():
        if len(U) != 9:
            continue
        auts = F.iso_mappings(U, U)
        inner_auts = F.aut_mappings_of_conjugation(U, P)
        if len(auts) > len(inner_auts):
            bad[U.key] = frozenset(inner_auts)
    candidate = type(A_full)(P, bad)
    verdict = check_weakly_normal_map(F, candidate)
    assert not verdict.ok


def test_t_core_of_the_raw_intersection(s3xs3):
    G, F, EK, FH = s3xs3
    Q = EK.P
    raw = intersect_raw(EK, FH)
    assert t_core(FH, raw, Q) == EK


def test_wedge_nested_case(s3xs3):
    G, F, EK, FH = s3xs3
    assert intersection_wedge(F, EK, FH) == EK
    assert intersection_wedge(F, FH, EK) == EK


def test_wedge_incomparable_case():
    G, _ = load_group_spec("d8xc2")
    F = fusion_of_group(G, 2)
    x, y, z = G.generator_indices
    Q = G.generated_subgroup([x, y])
    R = G.generated_subgroup([G.mul(x, z), y])
    E1 = fusion_of_group(Q, 2, Q)
    E2 = fusion_of_group(R, 2, R)
    S = Subgroup(G, Q._set & R._set)
    W = intersection_wedge(F, E1, E2)
    assert W == inner_fusion(S, 2)
    assert is_subsystem(W, E1) and is_subsystem(W, E2)


def test_wedge_relaxed_case_with_one_merely_saturated_input(ea9):
    """When one input is saturated on the smaller carrier but not weakly
    normal in F, the wedge is still defined and lands inside both."""
    G, F = ea9
    reflection = next(
        E for E in _saturated_on_centre_lines(G, F)
        if not normality_status(F, E).weakly_normal
    )
    W = intersection_wedge(F, reflection, F)
    assert is_subsystem(W, reflection)
    assert normality_status(reflection, W).weakly_normal
    assert intersection_wedge(F, F, reflection) == W


def test_wedge_of_two_subsystems_neither_weakly_normal_nor_saturated(a4):
    """The order-2 maps of F_V4(A4) generate an F-invariant subsystem E that
    is not saturated, so it is not weakly normal, and E wedged with itself
    has no route."""
    G, F = a4
    seeds = [phi for Q in F.subgroups() if len(Q) <= 2
             for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    E = generated_fusion(F.P, 2, seeds)
    assert normality_status(F, E).invariant and not is_saturated(E)
    with pytest.raises(PreconditionFailed):
        intersection_wedge(F, E, E)


def _saturated_on_centre_lines(G, F):
    """Rank-one subsystems from local subgroups, used as relaxed-wedge inputs."""
    out = []
    for g in range(len(G)):
        if G.element_order(g) != 2:
            continue
        for U in F.subgroups():
            if len(U) == 9 and all(G.conj(x, g) in U._set for x in U.elements):
                H = G.generated_subgroup(list(U.elements) + [g])
                E = fusion_of_group(H, 3, U)
                if is_saturated(E).saturated:
                    out.append(E)
        if out:
            return out
    return out


def test_every_enumerated_system_is_weakly_normal_and_round_trips(ea9):
    G, F = ea9
    R = group_centre(F.P)
    for E in weakly_normal_systems_on(F, R):
        assert normality_status(F, E).weakly_normal
        assert generate_from_map(F, aut_map_of(E)) == E


@pytest.fixture(scope="module")
def s4_inner():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    return F, inner_fusion(F.P, 2)


def test_inner_map_of_d8_fails_axiom_i_in_s4(s4_inner):
    """The axiom (i) witness, pinned: the first F-isomorphism, in subgroup
    and table order, along which A(U) does not move onto A(U phi)."""
    F, E = s4_inner
    verdict = check_weakly_normal_map(F, aut_map_of(E))
    assert (verdict.ok, verdict.axiom) == (False, "i")
    V, phi = verdict.witness
    assert V.describe() == "<(1,2)(3,4), (1,3)(2,4)>"
    assert repr(phi) == "Morphism((1,2)(3,4)->(1,3)(2,4), (1,3)(2,4)->(1,2)(3,4))"
    assert (phi.domain, phi.codomain, phi.mapping) == (V, V, (0, 16, 7, 23))


def test_completing_the_inner_values_of_d8_in_s4_is_inconsistent(s4_inner):
    """The InconsistentPartial witness, pinned: transport from the four-group
    V disagrees with V's own value."""
    F, E = s4_inner
    A = aut_map_of(E)
    partial = {U.key: A.assignment[U.key] for U in partial_domain(F, F.P)}
    with pytest.raises(InconsistentPartial) as info:
        complete_partial_map(F, F.P, partial)
    V, R = info.value.witness
    assert V.describe() == "<(1,2)(3,4), (1,3)(2,4)>"
    assert R == V


@pytest.fixture(scope="module")
def s4_four_group():
    """F_P(S4) at 2, its normal four-group V, strongly closed with
    Aut_F(V) = S3, and the two weakly normal systems on V: the inner one
    and the one with Aut(V) = C3."""
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    V = next(T for T in strongly_closed_subgroups(F) if len(T) == 4)
    inner, c3 = weakly_normal_systems_on(F, V)
    return F, V, inner, c3


def _aut_f_subgroup(F, V, order):
    """The mappings of the first subgroup of Aut_F(V) of the given order."""
    ag = F.aut_group(V)
    S = next(S for S in all_subgroups(ag.group.full_subgroup) if len(S) == order)
    return frozenset(m.mapping for m in ag.morphisms_of(S))


def _refused_maps(F, V):
    """Maps the axiom check refuses before testing an axiom, each with the
    error, message and witness it raises: on a T that is not strongly
    closed, missing a subgroup of T, with an automorphism of P outside
    Aut_F(P), with an A(V) of one automorphism of order 3 and no
    identity, and with an A(V) of the identity and one automorphism of
    order 3, which is not closed."""
    C = next(S for S in F.subgroups() if len(S) == 2 and not S <= V)
    on_c = aut_map_of(inner_fusion(C, 2))
    on_v = aut_map_of(inner_fusion(V, 2))
    C2 = next(U for U in F.subgroups() if len(U) == 2 and U <= V)
    missing = normal_maps.AutMap(V, {k: v for k, v in on_v.assignment.items() if k != C2.key})
    on_p = aut_map_of(F)
    outer = next(m.mapping for m in automorphisms(F.P) if m.mapping not in on_p.at(F.P))
    outside = normal_maps.AutMap(F.P, {**on_p.assignment, F.P.key: on_p.at(F.P) | {outer}})
    order_3 = _aut_f_subgroup(F, V, 3) - {V.elements}
    not_a_group = normal_maps.AutMap(V, {**on_v.assignment, V.key: frozenset([min(order_3)])})
    not_closed = normal_maps.AutMap(
        V, {**on_v.assignment, V.key: frozenset([V.elements, min(order_3)])}
    )
    return [
        (on_c, NotStronglyClosed, "the map must live on a strongly closed subgroup", C),
        (missing, PreconditionFailed, "assignment must cover exactly the subgroups of T", None),
        (outside, PreconditionFailed, "A(U) must be contained in Aut_F(U)", F.P),
        (not_a_group, PreconditionFailed, "A(U) must be a subgroup of Aut_F(U)", V),
        (not_closed, PreconditionFailed, "A(U) must be a subgroup of Aut_F(U)", V),
    ]


@pytest.mark.parametrize("case", range(5))
def test_the_axiom_check_refuses_maps_it_cannot_test(s4_four_group, case, tmp_path, capsys):
    """Each refusal of ``check_weakly_normal_map`` raises its typed error
    with its witness, and ``fusionkit map-check --map FILE`` on the same map
    exits 2 with that error on stderr."""
    F, V = s4_four_group[:2]
    A, error, message, witness = _refused_maps(F, V)[case]
    with pytest.raises(error) as info:
        check_weakly_normal_map(F, A)
    assert (info.value.args, info.value.witness) == ((message,), witness)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(aut_map_to_data(A)))
    assert run(["map-check", "--group", "s4", "--prime", "2", "--map", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and json.loads(err) == {"error": error.__name__, "message": message}


def test_spans_close_as_the_breadth_first_loop_did(
    every_catalog_system, a4xd8_system, s4xd8_system, s4_four_group
):
    """``_generators`` closes each span through ``groups._closure`` and
    picks the same generators, in the same order, with the same span, as
    the breadth-first loop of its own that it replaced: on Aut_F(Q) for
    every Q of F_P(G) for every catalog group G and prime, of F_P(A4 x D8)
    and of F_P(S4 x D8), and on the values at V of the maps the axiom check refuses, two of
    which are not closed."""
    systems = every_catalog_system + [a4xd8_system, s4xd8_system]
    cases = [(Q.key, F.iso_mappings(Q, Q)) for F in systems for Q in F.subgroups()]
    F, V = s4_four_group[:2]
    refused = [A.at(V) for A, *_ in _refused_maps(F, V) if A.T == V]
    cases += [(V.key, value) for value in refused]
    for domain, auts in cases:
        assert _generators(domain, auts) == generators_by_breadth_first(domain, auts), domain
    assert len(cases) == 1358 + 3
    assert sum(len(_generators(V.key, value)[1]) != len(value) for value in refused) == 2


def test_completion_refuses_a_partial_map_on_the_wrong_domain(s4_four_group):
    F, V, inner, _ = s4_four_group
    A = aut_map_of(inner)
    C2 = next(U for U in F.subgroups() if len(U) == 2 and U <= V)
    for keys in ([], [V.key, C2.key]):
        with pytest.raises(PreconditionFailed, match="defined exactly on the fully normalized"):
            complete_partial_map(F, V, {k: A.assignment[k] for k in keys})
    assert complete_partial_map(F, V, {V.key: A.at(V)}).assignment == A.assignment


def test_generation_refuses_a_map_that_fails_an_axiom(s4_four_group):
    """A(V) of order 2 is not normal in Aut_F(V) = S3, so axiom (i) fails."""
    F, V, inner, _ = s4_four_group
    A = normal_maps.AutMap(V, {**aut_map_of(inner).assignment, V.key: _aut_f_subgroup(F, V, 2)})
    assert check_weakly_normal_map(F, A).axiom == "i"
    with pytest.raises(PreconditionFailed, match=r"not a weakly normal map: axiom \(i\) fails"):
        generate_from_map(F, A)


def test_enlargement_refusals(s4_four_group):
    """H from another automorphism group, H missing Aut_E(V), H = C2 not
    normal in Aut_F(V) = S3, and H = S3 of even index over the inner system
    are each refused; H = C3 over the inner system gives the other one."""
    F, V, inner, c3 = s4_four_group
    full = F.aut_group(V).group.full_subgroup
    by_order = {len(S): S for S in all_subgroups(full)}
    C2 = next(S for S in F.subgroups() if len(S) == 2)
    with pytest.raises(NotASubgroup):
        enlarge_weakly_normal(F, inner, F.aut_group(C2).group.full_subgroup)
    with pytest.raises(PreconditionFailed, match="must contain Aut_E"):
        enlarge_weakly_normal(F, c3, [Morphism.identity(V)])
    with pytest.raises(NotNormalInAutF) as info:
        enlarge_weakly_normal(F, inner, by_order[2])
    assert info.value.witness == by_order[2]
    with pytest.raises(IndexNotCoprime) as info:
        enlarge_weakly_normal(F, inner, full)
    assert info.value.witness == full
    assert enlarge_weakly_normal(F, inner, by_order[3]) == c3


def test_t_core_refusals(s4_four_group):
    """The container must hold T, and the minimal system on P, all of F,
    is not inside P's inner system."""
    F, V, inner, c3 = s4_four_group
    C = next(S for S in F.subgroups() if len(S) == 2 and not S <= V)
    with pytest.raises(PreconditionFailed, match="subgroup containing T"):
        t_core(F, inner_fusion(C, 2), V)
    with pytest.raises(CoreUndefined) as info:
        t_core(F, inner_fusion(F.P, 2), F.P)
    assert info.value.witness == F.P
    assert (t_core(F, F, V), t_core(F, inner_fusion(F.P, 2), V)) == (c3, inner)


def test_search_refuses_a_seed_space_above_the_cap(s4_four_group, monkeypatch):
    """On V, Aut_F(V) = S3 gives two seed choices of odd order, so with the
    cap at 1 the search refuses before it completes a candidate."""
    F, V = s4_four_group[:2]
    monkeypatch.setattr(normal_maps, "SEARCH_CAP", 1)
    with pytest.raises(FusionkitError) as info:
        weakly_normal_systems_on(F, V)
    assert type(info.value) is FusionkitError
    assert info.value.args == ("seed assignment search space exceeds 1",)


def test_search_goes_on_past_an_inconsistent_candidate(s4_four_group, monkeypatch):
    """On V the search completes two candidates: the trivial seed first,
    which gives the inner system, then C3.  With the completion refusing
    the first as inconsistent, the search skips it, completes the second
    and returns the C3 system alone."""
    F, V, inner, c3 = s4_four_group
    complete, seeds = normal_maps._complete, []

    def refuse_first(*args):
        seeds.append(args[3])
        if len(seeds) == 1:
            raise InconsistentPartial("refused", witness=V)
        return complete(*args)

    monkeypatch.setattr(normal_maps, "_complete", refuse_first)
    assert weakly_normal_systems_on(F, V) == (c3,)
    assert seeds[0] == {V.key: frozenset([V.elements])} and len(seeds) == 2


def test_wedge_refuses_an_intersection_map_that_fails_an_axiom(s4_four_group, monkeypatch):
    """With the (ii)-(v) step refusing every map, the wedge of the two
    weakly normal systems on V raises TheoremViolation naming the axiom,
    the reason and the witness of that verdict."""
    F, V, inner, c3 = s4_four_group
    refusal = MapVerdict(False, "v", "restriction map is not onto the normalizer of Aut_V(U) in A(U)", (V, V))
    monkeypatch.setattr(normal_maps, "_check_ii_to_v", lambda *args: refusal)
    with pytest.raises(TheoremViolation) as info:
        intersection_wedge(F, inner, c3)
    assert info.value.args == (f"intersection map fails axiom (v): {refusal.reason}",)
    assert info.value.witness == (V, V)


def _cut_down_maps(F, T):
    """The maps of inner fusion and of the full subcategory on T and, for
    |P| <= 16, the full subcategory's map with A(R) cut down to the
    identity at one R."""
    maps = [aut_map_of(E) for E in (inner_fusion(T, F.p), full_subcategory(F, T))]
    if len(F.P) <= 16:
        full = maps[1].assignment
        maps += [
            normal_maps.AutMap(T, {**full, R.key: frozenset([R.elements])})
            for R in F.subgroups()
            if R <= T and len(full[R.key]) > 1
        ]
    return maps


def _completed(call, *args):
    try:
        return call(*args)
    except InconsistentPartial as exc:
        return exc


def _on_domain(F, T, A):
    """A's values on ``partial_domain(F, T)``."""
    return {U.key: A.assignment[U.key] for U in partial_domain(F, T)}


def _search_calls(F, T, monkeypatch):
    """The calls that ``weakly_normal_systems_on(F, T)`` makes of the private
    steps ``_complete`` and ``_check_ii_to_v``, in order, as (name, args)."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("_complete", "_check_ii_to_v"):

            def spy(*args, name=name, call=getattr(normal_maps, name)):
                calls.append((name, args))
                return call(*args)

            m.setattr(normal_maps, name, spy)
        weakly_normal_systems_on(F, T)
    return calls


def test_axiom_i_and_completion_scan_only_to_name_a_failure(strongly_closed_cases, monkeypatch):
    """On every candidate map that ``weakly_normal_systems_on`` completes and
    checks, over every strongly closed T of the catalog systems and of
    F_P(A4 x D8), on the maps of inner fusion and of the full subcategory on
    each T, and, for the catalog systems, on the full subcategory's map with
    A(R) cut down to the identity at one R (so that some fail on one route
    alone):

    - axiom (i) fails exactly when ``_first_disagreement``, the scan over
      every F-isomorphism, finds a failure, and with its witness; it never
      fails on a map the search has completed;
    - the search's ``_complete`` and ``complete_partial_map`` give the same
      map, or the same InconsistentPartial witness, as with every layer
      moved by that scan, and call the scan only to name a disagreement."""
    seen = {"i": 0, "ok": 0, "inconsistent": 0, "completed": 0, "searched": 0}

    def checked(F, A):
        verdict = check_weakly_normal_map(F, A)
        scan = _first_disagreement(F, [Q for Q in F.subgroups() if Q <= A.T], dict(A.assignment))
        assert (verdict.axiom == "i") == (scan is not None)
        assert scan is None or verdict.witness == scan
        seen["i" if scan else "ok"] += 1
        return verdict

    def completed(call, *args):
        scans = []

        def recorded(*scanned):
            scans.append(scanned)
            return _first_disagreement(*scanned)

        with monkeypatch.context() as m:
            m.setattr(normal_maps, "_first_disagreement", recorded)
            got = _completed(call, *args)
        with monkeypatch.context() as m:
            m.setattr(normal_maps, "_moved_along", lambda *a: None)
            every_iso = _completed(call, *args)
        inconsistent = isinstance(got, InconsistentPartial)
        assert len(scans) == inconsistent
        if inconsistent:
            assert (got.args, got.witness) == (every_iso.args, every_iso.witness)
            seen["inconsistent"] += 1
            return
        assert got.assignment == every_iso.assignment
        seen["completed"] += 1

    for F, T in strongly_closed_cases:
        for name, args in _search_calls(F, T, monkeypatch):
            if name == "_complete":
                seen["searched"] += 1
                completed(normal_maps._complete, *args)
            else:
                assert checked(*args[:2]).axiom != "i"
        for A in _cut_down_maps(F, T):
            checked(F, A)
            completed(complete_partial_map, F, T, _on_domain(F, T, A))
    assert min(seen.values()) > 0, seen


def _outcome(call, *args):
    """The result of a check or a completion, or the FusionkitError it raised,
    and the fields compared: the verdict's (ok, axiom, reason, witness), the
    completed map's carrier and assignment, or the error's type, args and
    witness."""
    try:
        got = call(*args)
    except FusionkitError as exc:
        return exc, (type(exc), exc.args, exc.witness)
    if isinstance(got, MapVerdict):
        return got, (got.ok, got.axiom, got.reason, got.witness)
    return got, (got.T, got.assignment)


def test_check_and_completion_match_their_per_call_forms(strongly_closed_cases, monkeypatch):
    """On every candidate map that ``weakly_normal_systems_on`` completes and
    checks, over every strongly closed T of the catalog systems and of
    F_P(A4 x D8), and on the maps of
    ``test_axiom_i_and_completion_scan_only_to_name_a_failure``,
    ``check_weakly_normal_map`` and ``complete_partial_map`` on T's layout
    give what the per-call forms in ``tests/oracles.py`` give, verdict,
    witness, completed map and InconsistentPartial witness alike.  On each
    search candidate, the public check also gives the search's own
    (ii)-(v) verdict, and the map ``_complete`` makes from one value per
    class is what both completions make from its values on
    ``partial_domain``."""
    seen = set()

    def compared(call, oracle, *args):
        got, fields = _outcome(call, *args)
        assert fields == _outcome(oracle, *args)[1], (call.__name__, fields)
        seen.add(fields[1] if isinstance(got, MapVerdict) else type(got).__name__)
        return fields

    for F, T in strongly_closed_cases:
        for name, args in _search_calls(F, T, monkeypatch):
            got, fields = _outcome(getattr(normal_maps, name), *args)
            if name == "_check_ii_to_v":
                assert compared(check_weakly_normal_map, check_weakly_normal_map_per_call, *args[:2]) == fields
            elif isinstance(got, normal_maps.AutMap):
                partial = _on_domain(F, T, got)
                assert compared(complete_partial_map, complete_partial_map_per_call, F, T, partial) == fields
        for A in _cut_down_maps(F, T):
            compared(check_weakly_normal_map, check_weakly_normal_map_per_call, F, A)
            compared(complete_partial_map, complete_partial_map_per_call, F, T, _on_domain(F, T, A))
    assert {None, "i", "ii", "iii", "iv", "v", "AutMap", "InconsistentPartial"} <= seen, seen


def test_layout_is_built_once_per_strongly_closed_subgroup(monkeypatch):
    """On a fresh F_P(A4 x A4), ``based_range(F, P)`` builds P's layout once,
    and two ``weakly_normal_systems_on(F, T)`` for every strongly closed T
    then build each other T's layout once."""
    built, build = [], normal_maps._build_layout

    def spy(F, T):
        built.append(T.key)
        return build(F, T)

    monkeypatch.setattr(normal_maps, "_build_layout", spy)
    F = fusion_of_group(load_group_spec("a4xa4")[0], 2)
    based_range(F, F.P)
    assert built == [F.P.key]
    carriers = strongly_closed_subgroups(F)
    for T in carriers:
        weakly_normal_systems_on(F, T)
        weakly_normal_systems_on(F, T)
    assert sorted(built) == sorted(T.key for T in carriers) and len(carriers) > 2


def test_theorems_a_to_c_on_a4xd8(a4xd8_system):
    """Theorems A and B on every weakly normal subsystem on every strongly
    closed T of F_P(A4 x D8), |P| = 32: ``verify_theorem_a`` holds, and the
    map of E generates E again.  Theorem C once: X_F is the limit of the
    upper central series."""
    F = a4xd8_system
    counts = []
    for T in strongly_closed_subgroups(F):
        found = weakly_normal_systems_on(F, T)
        for E in found:
            assert verify_theorem_a(F, E).holds, T.elements
            assert generate_from_map(F, aut_map_of(E)) == E, T.elements
        counts.append(len(found))
    assert (len(counts), sum(counts)) == (12, 18)
    assert x_subgroup(F).value == upper_central_series(F).limit


def test_theorems_a_to_c_on_s4xd8(s4xd8_system):
    """Theorems A and B on every weakly normal subsystem on every strongly
    closed T of F_P(S4 x D8), |P| = 64: ``verify_theorem_a`` holds, and the
    map of E generates E again.  Theorem C once: X_F is the limit of the
    upper central series."""
    F = s4xd8_system
    counts = []
    for T in strongly_closed_subgroups(F):
        found = weakly_normal_systems_on(F, T)
        for E in found:
            assert verify_theorem_a(F, E).holds, T.elements
            assert generate_from_map(F, aut_map_of(E)) == E, T.elements
        counts.append(len(found))
    assert (len(counts), sum(counts)) == (25, 31)
    assert x_subgroup(F).value == upper_central_series(F).limit


def test_automizer_lattices_match_the_element_by_element_forms(a4xd8_system, monkeypatch):
    """On every Aut_F(Q) lattice that ``weakly_normal_systems_on`` enumerates
    on F_P(A4 x D8), ``is_normal_in`` agrees with the every-pair test and
    ``subgroup_closure`` with the breadth-first closure, on every subgroup
    and every pair of subgroups."""
    F = a4xd8_system
    enumerated = []

    def spy(container):
        enumerated.append(container)
        return all_subgroups(container)

    monkeypatch.setattr(normal_maps, "all_subgroups", spy)
    for T in strongly_closed_subgroups(F):
        weakly_normal_systems_on(F, T)
    assert len(enumerated) > 10
    for full in enumerated:
        lattice = all_subgroups(full)
        for S in lattice:
            gens = S.generators()
            assert subgroup_closure(full.group, gens) == closure_by_breadth_first(full.group, gens)
            for K in lattice:
                assert S.is_normal_in(K) == is_normal_by_every_pair(S, K), (S.elements, K.elements)
