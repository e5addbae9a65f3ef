"""End-to-end runners for the five named worked examples.

Each runner rebuilds its configuration from the catalog, checks the
published outcomes, and returns (predicate, holds, witness) triples; a
false entry means the computation disagrees with the expected value.  The
command line front end folds these into reports, and the test suite
asserts that every entry holds.
"""

from __future__ import annotations

from .catalog import load_catalog, make_group
from .errors import InputError
from .fusion import (
    fusion_of_group,
    generated_fusion,
    inner_fusion,
    intersect_raw,
    is_isomorphic_fusion,
    is_subsystem,
)
from .groups import group_centre, p_part, sylow
from .morphisms import _restricted, _restriction
from .normal_maps import (
    aut_map_of,
    based_range,
    check_weakly_normal_map,
    generate_from_map,
    intersection_wedge,
    t_core,
)
from .saturation import has_surjectivity_property, is_saturated
from .subsystems import enumerate_subsystems_on, normality_status

__all__ = ["EXAMPLES", "run_example"]

Result = tuple[str, bool, object]


def run_v4_a4() -> list[Result]:
    """The order-2 maps of F_V4(A4) without their extensions: invariant,
    Sylow at the top, surjectivity everywhere, yet not saturated."""
    G = make_group(load_catalog("a4"))
    P = sylow(G, 2)
    F = fusion_of_group(G, 2, P)
    seeds = [
        phi
        for Q in F.subgroups()
        if len(Q) <= 2
        for phi in F.isos_from(Q)
        if len(phi.codomain) <= 2
    ]
    E = generated_fusion(P, 2, seeds)

    results: list[Result] = []
    status = normality_status(F, E)
    results.append(("E is F-invariant", status.invariant, E))
    aut_e = E.iso_mappings(P, P)
    aut_p = F.aut_mappings_of_conjugation(P, P)
    sylow_ok = aut_p <= set(aut_e) and p_part(len(aut_e), 2) == len(aut_p)
    results.append(("Aut_P(P) is a Sylow 2-subgroup of Aut_E(P)", sylow_ok, len(aut_e)))
    surj = all(has_surjectivity_property(E, Q) for Q in E.subgroups())
    results.append(("every subgroup has the surjectivity property", surj, None))
    results.append(("E is not saturated", not is_saturated(E).saturated, E))

    A = aut_map_of(E)
    verdict = check_weakly_normal_map(F, A)
    results.append(("the automizer map of E passes the axioms", bool(verdict), verdict.axiom))
    regen = generate_from_map(F, A)
    results.append(
        ("the map regenerates the inner system, not E",
         regen == inner_fusion(P, 2) and regen != E, regen)
    )
    return results


def run_a4xa4() -> list[Result]:
    """Two weakly normal subsystems of F_P(A4 x A4) whose raw intersection
    is not saturated; the wedge collapses to the inner system."""
    G = make_group(load_catalog("a4xa4"))
    P = sylow(G, 2)
    F = fusion_of_group(G, 2, P)
    a = G.index_of((1, 0, 3, 2, 4, 5, 6, 7))
    b = G.index_of((2, 3, 0, 1, 4, 5, 6, 7))
    c = G.index_of((0, 1, 2, 3, 5, 4, 7, 6))
    d = G.index_of((0, 1, 2, 3, 6, 7, 4, 5))
    x = next(
        g for g in range(len(G))
        if G.element_order(g) == 3 and G.conj(a, g) == b and G.conj(c, g) == d
    )
    y = next(
        g for g in range(len(G))
        if G.element_order(g) == 3 and G.conj(a, g) == b and G.conj(d, g) == c
    )
    H1 = G.generated_subgroup(list(P.elements) + [x])
    H2 = G.generated_subgroup(list(P.elements) + [y])
    E1 = fusion_of_group(H1, 2, P)
    E2 = fusion_of_group(H2, 2, P)
    Q = G.generated_subgroup([a, b])

    results: list[Result] = []
    results.append(("E1 is weakly normal", normality_status(F, E1).weakly_normal, E1))
    results.append(("E2 is weakly normal", normality_status(F, E2).weakly_normal, E2))
    raw = intersect_raw(E1, E2)
    results.append(
        ("the raw intersection has trivial automizer at P",
         len(raw.iso_mappings(P, P)) == 1, None)
    )
    sigma = [m for m in raw.iso_mappings(Q, Q) if m != Q.elements]
    results.append(
        ("the raw intersection has a nontrivial automorphism on <a, b>",
         len(sigma) == 2, len(sigma) + 1)
    )
    extendable = any(
        not _restricted(_restriction(V, Q), raw.iso_mappings(V, V)).isdisjoint(sigma)
        for V in raw.subgroups() if Q < V
    )
    results.append(
        ("the automorphism extends to no overgroup inside the intersection",
         not extendable, Q)
    )
    results.append(
        ("the raw intersection is not saturated", not is_saturated(raw).saturated, raw)
    )
    wedge = intersection_wedge(F, E1, E2)
    results.append(
        ("the wedge is the inner system on P", wedge == inner_fusion(P, 2), wedge)
    )
    return results


def run_d8xc2() -> list[Result]:
    """The wedge of the two dihedral inner subsystems of D8 x C2 lives on
    the shared Klein four group and is its inner system."""
    G = make_group(load_catalog("d8xc2"))
    P = G.full_subgroup
    F = fusion_of_group(G, 2, P)
    x, y, z = G.generator_indices
    Q = G.generated_subgroup([x, y])
    R = G.generated_subgroup([G.mul(x, z), y])
    S = Q.meet(R)
    E1 = fusion_of_group(Q, 2, Q)
    E2 = fusion_of_group(R, 2, R)

    results: list[Result] = []
    results.append(("E1 = F_Q(Q) is weakly normal", normality_status(F, E1).weakly_normal, E1))
    results.append(("E2 = F_R(R) is weakly normal", normality_status(F, E2).weakly_normal, E2))
    a1 = set(E1.iso_mappings(S, S))
    a2 = set(E2.iso_mappings(S, S))
    results.append(("Aut_E1(S) equals Aut_E2(S)", a1 == a2 and len(a1) == 2, len(a1)))
    wedge = intersection_wedge(F, E1, E2)
    results.append(("the wedge is F_S(S)", wedge == inner_fusion(S, 2), wedge))
    naive = generated_fusion(S, 2, [phi for phi in E1.isos_between(S, S)])
    results.append(
        ("the shared automizer generates a non-saturated system on S",
         not is_saturated(naive).saturated, naive)
    )
    return results


def run_s3xs3() -> list[Result]:
    """F_Q(K) is normal in F_P(G) and weakly normal but not normal in
    F_P(H); its Q-core inside the intersection is F_Q(K) itself."""
    G = make_group(load_catalog("s3xs3"))
    r1, s1, r2, s2 = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    H = G.generated_subgroup([r1, r2, G.mul(s1, s2)])
    P = sylow(G, 3)
    Q = G.generated_subgroup([r1])
    F = fusion_of_group(G, 3, P)
    FH = fusion_of_group(H, 3, P)
    EK = fusion_of_group(K, 3, Q)

    results: list[Result] = []
    in_g = normality_status(F, EK)
    results.append(("F_Q(K) is normal in F_P(G)", in_g.normal, EK))
    in_h = normality_status(FH, EK)
    results.append(("F_Q(K) is weakly normal in F_P(H)", in_h.weakly_normal, EK))
    results.append(("F_Q(K) is not normal in F_P(H)", not in_h.normal, in_h.failure_witness))
    D = intersect_raw(EK, FH)
    core = t_core(FH, D, Q)
    results.append(("the Q-core of the intersection is F_Q(K)", core == EK, core))
    wedge = intersection_wedge(F, EK, FH)
    results.append(("the wedge in F_P(G) is F_Q(K)", wedge == EK, wedge))
    return results


def run_ea9_s3() -> list[Result]:
    """Maximal weakly normal subsystems fail to be monotone: on R = Z(P)
    the maximum is the S3 system, on Q = EA9 it is inner, and the former
    is not contained in the latter.  Exactly three saturated subsystems on
    Q contain both, none weakly normal."""
    G = make_group(load_catalog("ea9_s3"))
    P = sylow(G, 3)
    F = fusion_of_group(G, 3, P)
    Q = G.generated_subgroup([G.generator_indices[0], G.generator_indices[1]])
    R = group_centre(P)

    results: list[Result] = []
    range_q = based_range(F, Q)
    range_r = based_range(F, R)
    results.append(("Q and R are based", bool(range_q) and bool(range_r), None))
    s3 = make_group(load_catalog("s3"))
    s3_fusion = fusion_of_group(s3, 3)
    results.append(
        ("R^F(R) is the S3 fusion system on C3",
         is_isomorphic_fusion(range_r.maximal, s3_fusion), range_r.maximal)
    )
    results.append(
        ("R^F(Q) is the inner system F_Q(Q)",
         range_q.maximal == inner_fusion(Q, 3), range_q.maximal)
    )
    results.append(
        ("R^F(R) is not contained in R^F(Q)",
         not is_subsystem(range_r.maximal, range_q.maximal), None)
    )
    candidates = [
        E
        for E in enumerate_subsystems_on(F, Q)
        if is_saturated(E).saturated
        and is_subsystem(range_r.maximal, E)
        and is_subsystem(range_q.minimal, E)
    ]
    results.append(
        ("exactly three saturated subsystems on Q contain R^F(R) and R_F(Q)",
         len(candidates) == 3, len(candidates))
    )
    results.append(
        ("none of the three is weakly normal in F",
         all(not normality_status(F, E).weakly_normal for E in candidates), None)
    )
    return results


EXAMPLES = {
    "v4-a4": run_v4_a4,
    "a4xa4": run_a4xa4,
    "d8xc2": run_d8xc2,
    "s3xs3": run_s3xs3,
    "ea9-s3": run_ea9_s3,
}


def run_example(name: str) -> list[Result]:
    if name not in EXAMPLES:
        known = ", ".join(sorted(EXAMPLES))
        raise InputError(f"unknown example {name!r}; known: {known}")
    return EXAMPLES[name]()
