"""Subsystems: invariance, normality, O^{p'}, O_p, local systems, Theorem A."""

import json

import pytest

from fusionkit import (
    Morphism,
    based_range,
    Subgroup,
    centralizer,
    deserialize,
    enumerate_subsystems_on,
    frattini_decompose,
    full_subcategory,
    fusion_of_group,
    generated_fusion,
    group_centre,
    inner_fusion,
    is_saturated,
    is_strongly_closed,
    is_subsystem,
    load_group_spec,
    local_subsystem,
    normality_status,
    normalizer,
    o_p,
    o_p_prime_subsystem,
    quotient,
    saturation,
    strongly_closed_subgroups,
    subsystems,
    verify_theorem_a,
    weakly_normal_systems_on,
    x_subgroup,
)
from fusionkit.errors import (
    FusionkitError,
    InputError,
    NotASubsystem,
    NotFullyCentralized,
    NotFullyNormalized,
    NotSaturated,
    NotStronglyClosed,
    PreconditionFailed,
)
from fusionkit.fusion import _close
from fusionkit.groups import _join_normalized, is_p_power
from fusionkit.morphisms import _compose
from fusionkit.subsystems import _invariance_witness, _is_p_element, _local_is_all, is_invariant
from oracles import (
    o_p_by_central_series,
    o_p_prime_by_aut_groups,
    oracle_subsystem_tables,
    strongly_closed_by_each_subgroup,
    system_table,
)

STRONGLY_CLOSED_ORDERS = {
    ("s4", 2): [1, 4, 8],
    ("a4", 2): [1, 4],
    ("sl23", 2): [1, 2, 8],
    ("s3xs3", 3): [1, 3, 3, 9],
    ("ea9_s3", 3): [1, 3, 9, 9, 27],
}


@pytest.mark.parametrize("key,orders", sorted(STRONGLY_CLOSED_ORDERS.items()))
def test_strongly_closed_subgroups_frozen(key, orders):
    name, p = key
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    closed = strongly_closed_subgroups(F)
    assert sorted(len(T) for T in closed) == orders
    for T in closed:
        assert is_strongly_closed(F, T)


def test_o_p_values():
    for name, p, order in [("s4", 2, 4), ("a4", 2, 4), ("sl23", 2, 8),
                           ("s3xs3", 3, 9), ("ea9_s3", 3, 27), ("s3", 3, 3)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        assert len(o_p(F)) == order
        assert o_p_by_central_series(F).elements == o_p(F).elements


def test_o_p_prime_of_v4_in_a4_is_inner():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    sub = o_p_prime_subsystem(F)
    # a table other than F's starts with none of F's cached facts
    assert sub._cache == {}
    assert sub == inner_fusion(F.P, 2)
    assert normality_status(F, sub).weakly_normal


def test_o_p_prime_of_s4_is_everything():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    assert o_p_prime_subsystem(F) == F


def test_o_p_prime_of_a_p_group_system_decides_no_saturation(catalog_systems, monkeypatch):
    """On F_P(P), O^{p'}(F) = F, and it reuses F's facts: deciding its
    saturation and its normality in F runs no saturation test."""
    systems = [F for _, _, F in catalog_systems if len(F.P) == len(F.group)]
    calls = []

    def counted(F, Q):
        calls.append(Q)
        return True

    for F in systems:
        assert is_saturated(F).saturated
    monkeypatch.setattr(saturation, "is_fully_automized", counted)
    monkeypatch.setattr(saturation, "is_receptive", counted)
    for F in systems:
        sub = o_p_prime_subsystem(F)
        assert sub == F
        assert normality_status(F, sub).normal
    assert len(systems) > 10 and calls == []


def test_o_p_prime_closes_once_when_aut_zero_is_already_held(catalog_systems, monkeypatch):
    """On every catalog system where O^{p'}(F) takes a closure, each map of
    Aut^0_F(P) is already in O^{p'}_*(F), so the closure runs once."""
    closes = []

    def counted(*args):
        closes.append(args)
        return _close(*args)

    monkeypatch.setattr(subsystems, "_close", counted)
    closing = 0
    for _, _, F in catalog_systems:
        closes.clear()
        o_p_prime_subsystem(F)
        assert len(closes) <= 1, F
        closing += len(closes)
    assert closing > 20


def test_o_p_prime_from_p_elements_matches_the_aut_group_path(
    catalog_systems, sweep_weakly_normal, a4xd8_system
):
    """O^{p'}(E) from the p-elements of the mapping tuples equals O^{p'}(E)
    through ``AutGroup`` and ``generated_fusion``, on every catalog system,
    its quotient by every proper nontrivial strongly closed T, every weakly
    normal system of the sweep, and F_P(A4 x D8).  Both the systems where
    every automorphism is a p-element and the others occur."""
    catalog = [F for _, _, F in catalog_systems]
    systems = catalog + [a4xd8_system]
    systems += [
        quotient(F, T) for F in catalog for T in strongly_closed_subgroups(F)
        if 1 < len(T) < len(F.P)
    ]
    systems += [E for *_, found in sweep_weakly_normal for E in found]
    kept = 0
    for E in systems:
        sub = o_p_prime_subsystem(E)
        assert sub._isos == o_p_prime_by_aut_groups(E)._isos, E
        kept += sub._isos is E._isos
    assert len(systems) > 700 and 0 < kept < len(systems), (len(systems), kept)


def test_o_p_prime_on_the_affine_systems_is_the_minimal_weakly_normal_system(affine_systems):
    """On every weakly normal system E of F_P(ASL(2,3)) and F_P(AGL(2,3)),
    O^{p'}(E) is the minimal weakly normal system on its carrier found by
    enumeration, equals the ``AutGroup`` form, and Theorem A holds.  On
    these systems O^{p'}_*(E) is not saturated, so the maps of Aut^0_E(T)
    are needed; O^{3'}(F_P(ASL(2,3))) is F itself."""
    asl, _ = affine_systems
    assert o_p_prime_subsystem(asl) is asl
    checked = 0
    for F in affine_systems:
        for T in strongly_closed_subgroups(F):
            found = weakly_normal_systems_on(F, T)
            if found:
                minimal = based_range(F, T).minimal
            for E in found:
                sub = o_p_prime_subsystem(E)
                assert sub._isos == minimal._isos == o_p_prime_by_aut_groups(E)._isos, E
                assert verify_theorem_a(F, E).holds, E
                checked += 1
    assert checked >= 8


def test_p_elements_are_read_off_cycle_lengths(catalog_systems, a4xd8_system):
    """``_is_p_element`` agrees with the order of the automorphism found by
    repeated composition, for every automorphism of every subgroup of
    every catalog system and F_P(A4 x D8), at the primes 2, 3 and 5."""
    seen = set()
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        for Q in F.subgroups():
            for m in F.iso_mappings(Q, Q):
                power, order = m, 1
                while power != Q.elements:
                    power, order = _compose(power, Q.elements, m), order + 1
                for p in (2, 3, 5):
                    assert _is_p_element(Q.key, m, p) == is_p_power(order, p), (Q.key, m, p)
                seen.add(order)
    assert seen >= {1, 2, 3, 4, 6}, seen


def test_first_factor_of_s3xs3_is_normal():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    status = normality_status(F, EK)
    assert status.invariant and status.weakly_normal and status.normal


def test_first_factor_in_the_index_two_subgroup_is_only_weakly_normal():
    G, _ = load_group_spec("s3xs3")
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    H = G.generated_subgroup([r1, r2, G.mul(s1, s2)])
    FH = fusion_of_group(H, 3, G.generated_subgroup([r1, r2]))
    status = normality_status(FH, EK)
    assert status.invariant and status.weakly_normal
    assert not status.normal
    assert status.failure_witness is not None


def test_theorem_a_on_the_weakly_normal_case():
    G, _ = load_group_spec("s3xs3")
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    H = G.generated_subgroup([r1, r2, G.mul(s1, s2)])
    FH = fusion_of_group(H, 3, G.generated_subgroup([r1, r2]))
    report = verify_theorem_a(FH, EK)
    assert report.holds
    assert report.subsystem == inner_fusion(EK.P, 3)


def test_theorem_a_requires_weak_normality():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    isos = [phi for Q in F.subgroups() if len(Q) <= 2
            for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    E = generated_fusion(F.P, 2, isos)
    assert not is_saturated(E).saturated
    with pytest.raises(PreconditionFailed):
        verify_theorem_a(F, E)


def _s4_system():
    """F_P(S4), its strongly closed four-group V, and a subgroup C of
    order 2 outside V, which is not strongly closed."""
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    V = next(T for T in strongly_closed_subgroups(F) if len(T) == 4)
    C = next(S for S in F.subgroups() if len(S) == 2 and not S <= V)
    return F, V, C


def _v4_in_a4_unsaturated():
    """The system on V4 that the order-2 maps of F_V4(A4) generate, which
    is not saturated (the ``v4_a4`` worked example)."""
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    seeds = [phi for Q in F.subgroups() if len(Q) <= 2
             for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    return generated_fusion(F.P, 2, seeds)


SUBSYSTEM_REFUSALS = {
    "normality-status-not-a-subsystem": (
        NotASubsystem, "E is not a subsystem of F",
        lambda F, V, C: normality_status(inner_fusion(F.P, 2), F)),
    "normality-status-not-strongly-closed": (
        NotStronglyClosed, "E does not live on a strongly closed subgroup",
        lambda F, V, C: normality_status(F, inner_fusion(C, 2))),
    "frattini-decompose-outside-t": (
        NotASubsystem, "morphism does not live inside T",
        lambda F, V, C: frattini_decompose(F, inner_fusion(V, 2), Morphism.identity(F.P))),
    "local-subsystem-unknown-kind": (
        InputError, "unknown local subsystem kind: 'bogus'",
        lambda F, V, C: local_subsystem(F, V, "bogus")),
    "o-p-not-saturated": (
        NotSaturated, "O_p needs a saturated system",
        lambda F, V, C: o_p(_v4_in_a4_unsaturated())),
    "o-p-prime-not-saturated": (
        NotSaturated, "O^{p'} needs a saturated system",
        lambda F, V, C: o_p_prime_subsystem(_v4_in_a4_unsaturated())),
    "enumeration-past-its-limit": (
        InputError, "more than 1 subsystems on the carrier",
        lambda F, V, C: enumerate_subsystems_on(F, V, limit=1)),
}


@pytest.mark.parametrize("case", sorted(SUBSYSTEM_REFUSALS))
def test_subsystem_queries_refuse_inputs_outside_their_hypotheses(case):
    """Each public query of ``subsystems`` refuses an input outside its
    hypotheses with its own error class and message: a system that is not
    a subsystem of F or lives on a subgroup that is not strongly closed, a
    morphism outside T, an unknown kind of local subsystem, a system that
    is not saturated, and more subsystems on a carrier than the limit."""
    error, message, call = SUBSYSTEM_REFUSALS[case]
    with pytest.raises(FusionkitError) as info:
        call(*_s4_system())
    assert type(info.value) is error and str(info.value) == message


def test_frattini_decomposition_of_a_weakly_normal_pair():
    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    T = EK.P
    for Q in F.subgroups():
        if not Q <= T or len(Q) == 1:
            continue
        for phi in F.isos_from(Q):
            if not phi.codomain <= T:
                continue
            alpha, rest = frattini_decompose(F, EK, phi)
            assert alpha.domain == T and alpha.codomain == T
            assert EK.contains_morphism(rest)


def test_local_subsystem_normalizer_of_o_p():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    V = o_p(F)
    assert local_subsystem(F, V, "normalizer") == F


def test_local_subsystem_centralizer_of_the_fixed_centre():
    G, _ = load_group_spec("sl23")
    F = fusion_of_group(G, 2)
    Z = group_centre(F.P)
    assert local_subsystem(F, Z, "p_centralizer") == F


def test_local_subsystems_are_the_fusion_of_the_local_subgroups(catalog_systems):
    """On F = F_P(G), for every catalog group of order <= 24 and prime,
    N_F(Q), C_F(Q) and N_P(Q)C_F(Q) are F_S(H) for H = N_G(Q), C_G(Q) and
    N_P(Q)C_G(Q), with S = N_P(Q), C_P(Q) and N_P(Q), on every fully
    normalized Q (fully centralized Q for C_F(Q)); any other Q is refused."""
    kinds = set()
    for _, p, F in catalog_systems:
        G = F.group
        for Q in F.subgroups():
            NP, CG = F.n_p(Q), centralizer(G, Q)
            cases = [("centralizer", CG, F.c_p(Q), F.is_fully_centralized(Q))]
            cases += [("normalizer", normalizer(G, Q), NP, F.is_fully_normalized(Q)),
                      ("p_centralizer", NP.join(CG), NP, F.is_fully_normalized(Q))]
            for kind, H, S, full in cases:
                if full:
                    expected = fusion_of_group(H, p, S)
                    assert local_subsystem(F, Q, kind) == expected, (F, Q.elements, kind)
                    kinds.add(kind)
                else:
                    refusal = NotFullyCentralized if kind == "centralizer" else NotFullyNormalized
                    with pytest.raises(refusal):
                        local_subsystem(F, Q, kind)
    assert kinds == {"normalizer", "centralizer", "p_centralizer"}


def test_enumeration_counts_match_the_oracle():
    cases = [("a4", 2, lambda G, F: F.P, 6),
             ("s3xs3", 3, lambda G, F: G.generated_subgroup([G.generator_indices[0]]), 2)]
    for name, p, pick, count in cases:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        T = pick(G, F)
        systems = enumerate_subsystems_on(F, T)
        assert len(systems) == count
        assert {system_table(E) for E in systems} == oracle_subsystem_tables(F, T)


def test_ea9_carrier_has_nineteen_subsystems_four_saturated():
    G, _ = load_group_spec("ea9_s3")
    F = fusion_of_group(G, 3)
    Q = G.generated_subgroup([G.generator_indices[0], G.generator_indices[1]])
    systems = enumerate_subsystems_on(F, Q)
    assert len(systems) == 19
    assert {system_table(E) for E in systems} == oracle_subsystem_tables(F, Q)
    saturated = [E for E in systems if is_saturated(E).saturated]
    assert sorted(E.iso_count() for E in saturated) == [6, 10, 10, 10]
    for E in systems:
        assert is_subsystem(E, F)


def test_theorem_a_extensions_are_the_first_in_hom_set(sweep_weakly_normal):
    """Each Theorem A witness is the first psi of a plain ``hom_set`` scan
    of TC_P(T) that extends phi and has [psi, C_P(T)] inside Z(T)."""
    checked = 0
    for name, p, F, T, systems in sweep_weakly_normal:
        if len(F.group) > 12:
            continue
        G = F.group
        C = F.c_p(T)
        TC = T.join(C)
        Z = T.centre()
        for E in systems:
            for phi, ext in verify_theorem_a(F, E).w_set:
                expected = next(
                    psi for psi in F.hom_set(TC, TC)
                    if psi.restrict(T).mapping == phi.mapping
                    and all(G.mul(G.inv(x), psi.apply(x)) in Z for x in C.elements)
                )
                assert ext == expected, (name, p, T, phi)
                checked += 1
    assert checked > 20


def test_strongly_closed_subgroups_match_the_per_subgroup_scan(catalog_systems):
    for name, p, F in catalog_systems:
        assert strongly_closed_subgroups(F) == strongly_closed_by_each_subgroup(F), (name, p)


def test_strong_closure_on_a_table_not_closed_under_restriction():
    # inner fusion of D8 in S4, plus one automorphism of order 3 of the
    # normal four-group V but none of its restrictions: it moves the centre
    # Z of D8, though no map on Z does
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    V = next(Q for Q in F.subgroups() if len(Q) == 4 and len(F.iso_mappings(Q, Q)) == 6)
    inner = inner_fusion(F.P, 2)
    rotation = next(m for m in F.iso_mappings(V, V) if m not in inner.iso_mappings(V, V))
    document = inner.serialize()
    next(maps for domain, maps in document["isos"] if domain == list(V.key)).append(list(rotation))
    E = deserialize(json.loads(json.dumps(document)))
    Z = group_centre(F.P)
    assert Z <= V and len(E.iso_mappings(Z, Z)) == 1
    assert Z in strongly_closed_subgroups(inner)
    assert Z not in strongly_closed_subgroups(E)
    assert strongly_closed_subgroups(E) == strongly_closed_by_each_subgroup(E)


def test_inner_fusion_of_d8_is_not_invariant_in_s4():
    """The failure witness of the invariance test, pinned: the first
    F-isomorphism in table order that moves an inner map of D8 out of
    inner fusion."""
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    status = normality_status(F, inner_fusion(F.P, 2))
    assert (status.invariant, status.weakly_normal, status.normal) == (False, False, False)
    bad = status.failure_witness
    assert repr(bad) == "Morphism((1,2)(3,4)->(1,4)(2,3))"
    assert (bad.domain.elements, bad.codomain, bad.mapping) == ((0, 7), F.P, (0, 23))


def test_is_invariant_scans_only_to_name_a_failure(
    strongly_closed_cases, sweep_weakly_normal, monkeypatch
):
    """``is_invariant`` decides on the routes of each class and calls
    ``_invariance_witness``, the scan over every F-isomorphism, only when a
    route fails.  Its answer is the scan's for every weakly normal E of the
    catalog sweep, for inner fusion and the full subcategory on every
    strongly closed T of the catalog systems and of F_P(A4 x D8), and for
    each system on such a T of a catalog system generated by the first
    F-isomorphism Q -> R between two subgroups of T, Q != R; some of those
    fail only on the last route of a class."""
    scans = []

    def recorded(F, E):
        scans.append(_invariance_witness(F, E))
        return scans[-1]

    monkeypatch.setattr(subsystems, "_invariance_witness", recorded)
    cases = [(F, E) for _, _, F, _, systems in sweep_weakly_normal for E in systems]
    for F, T in strongly_closed_cases:
        cases += [(F, inner_fusion(T, F.p)), (F, full_subcategory(F, T))]
        if len(F.P) <= 16:
            cases += [
                (F, generated_fusion(T, F.p, [F.isos_between(Q, R)[0]]))
                for Q in F.subgroups()
                if Q <= T
                for R in F.conjugacy_class(Q)
                if R != Q and R <= T
            ]
    failures = 0
    for F, E in cases:
        scans.clear()
        expected = _invariance_witness(F, E)
        assert is_invariant(F, E) == expected, (F, E.P.elements)
        assert scans == ([] if expected is None else [expected])
        failures += expected is not None
    assert 0 < failures < len(cases)


def test_local_test_on_routes_matches_local_subsystem(
    catalog_systems, a4xd8_system, s4xd8_system, affine_systems
):
    """``_local_is_all`` (used by ``o_p`` and ``x_subgroup``) agrees with
    building ``local_subsystem`` and comparing it with F, for both kinds, on
    every normal subgroup of P of every catalog system, of F_P(A4 x D8),
    F_P(S4 x D8) and F_P(ASL(2,3))."""
    verdicts = []
    pool = [F for _, _, F in catalog_systems] + [a4xd8_system, s4xd8_system, affine_systems[0]]
    for F in pool:
        for Q in F.subgroups():
            if F.n_p(Q) != F.P:
                continue
            aut_p = F.aut_mappings_of_conjugation(Q, F.P)
            for kind, allowed in (("normalizer", None), ("p_centralizer", aut_p)):
                got = _local_is_all(F, Q, allowed)
                assert got == (local_subsystem(F, Q, kind) == F), (F, Q.elements, kind)
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_local_test_skips_the_routes_of_p_conjugations(catalog_systems, monkeypatch):
    """On F_P(P), every route is a conjugation by an element of P, so
    ``x_subgroup`` and ``o_p`` join no QR for any catalog p-group; on
    F_P(S4) and F_P(A4) at p = 2, Aut_F(V4) is larger than Aut_P(V4), and
    some route is still tested."""
    joins = []

    def counted(H, gens):
        joins.append(gens)
        return _join_normalized(H, gens)

    monkeypatch.setattr(subsystems, "_join_normalized", counted)
    inner = [F for _, _, F in catalog_systems if len(F.P) == len(F.group) > 1]
    assert len(inner) > 20
    for F in inner:
        x_subgroup(F)
        o_p(F)
    assert joins == []
    for name in ("s4", "a4"):
        F = fusion_of_group(load_group_spec(name)[0], 2)
        for decide in (x_subgroup, o_p):
            joins.clear()
            decide(F)
            assert joins, (name, decide)
