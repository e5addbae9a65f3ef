"""Acceptance gate: twelve concrete criteria, one printed line per criterion.

Each test prints its verdict line before asserting, so the line appears
for failures as well.  The heavyweight sweep structures are session
fixtures shared with the rest of the suite.
"""

import pytest

from fusionkit import (
    Subgroup,
    aut_map_of,
    based_range,
    direct_product,
    enumerate_subsystems_on,
    full_subcategory,
    fusion_of_group,
    generate_from_map,
    generated_fusion,
    group_centre,
    group_vs_fusion_centres,
    inner_fusion,
    internal_direct_product,
    intersect_raw,
    intersection_wedge,
    is_isomorphic_fusion,
    is_perfect,
    is_saturated,
    is_saturated_puig,
    is_strongly_closed,
    is_subsystem,
    load_group_spec,
    normality_status,
    o_p_prime_subsystem,
    subgroup_status,
    t_core,
    upper_central_series,
    upper_central_series_group,
    verify_perfect_z2,
    verify_theorem_a,
    weakly_normal_systems_on,
    x_subgroup,
)
from fusionkit.groups import all_subgroups
from fusionkit.saturation import has_surjectivity_property
from fusionkit.errors import PreconditionFailed
from oracles import (
    oracle_subgroup_sets,
    oracle_subsystem_tables,
    saturated_by_every_member,
    saturated_puig_by_every_member,
    system_from_table,
    system_table,
)


def _criterion(number, label, checks):
    failed = [desc for desc, ok in checks if not ok]
    print(f"[criterion {number:2d}] {label}: {'PASS' if not failed else 'FAIL'}")
    assert not failed, f"criterion {number} failed: {failed}"


def _small_maps_system(F):
    isos = [phi for Q in F.subgroups() if len(Q) <= 2
            for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    return generated_fusion(F.P, F.p, isos)


@pytest.fixture(scope="module")
def v4_a4():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    return G, F, _small_maps_system(F)


@pytest.fixture(scope="module")
def a4xa4():
    G, _ = load_group_spec("a4xa4")
    F = fusion_of_group(G, 2)
    P = F.P
    a = G.index_of((1, 0, 3, 2, 4, 5, 6, 7))
    b = G.index_of((2, 3, 0, 1, 4, 5, 6, 7))
    c = G.index_of((0, 1, 2, 3, 5, 4, 7, 6))
    d = G.index_of((0, 1, 2, 3, 6, 7, 4, 5))
    x = next(g for g in range(len(G)) if G.element_order(g) == 3
             and G.conj(a, g) == b and G.conj(c, g) == d)
    y = next(g for g in range(len(G)) if G.element_order(g) == 3
             and G.conj(a, g) == b and G.conj(d, g) == c)
    H1 = G.generated_subgroup(list(P.elements) + [x])
    H2 = G.generated_subgroup(list(P.elements) + [y])
    E1 = fusion_of_group(H1, 2, P)
    E2 = fusion_of_group(H2, 2, P)
    return G, F, E1, E2, (a, b, c, d)


@pytest.fixture(scope="module")
def d8xc2():
    G, _ = load_group_spec("d8xc2")
    F = fusion_of_group(G, 2)
    x, y, z = G.generator_indices
    Q = G.generated_subgroup([x, y])
    R = G.generated_subgroup([G.mul(x, z), y])
    S = Subgroup(G, Q._set & R._set)
    return G, F, fusion_of_group(Q, 2, Q), fusion_of_group(R, 2, R), S


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


@pytest.fixture(scope="module")
def ea9():
    G, _ = load_group_spec("ea9_s3")
    F = fusion_of_group(G, 3)
    Q = G.generated_subgroup([G.generator_indices[0], G.generator_indices[1]])
    R = group_centre(F.P)
    return G, F, Q, R


@pytest.fixture(scope="module")
def product_instances(a4xa4, d8xc2, s3xs3):
    """Seven systems whose carrier is an internal direct product of two
    strongly closed factors, with both lemma outcomes represented."""
    out = []

    G, F, E1, E2, _ = a4xa4
    P = F.P
    p1 = {v for v in P.elements if all(G.perm_of(v)[i] == i for i in range(4, 8))}
    p2 = {v for v in P.elements if all(G.perm_of(v)[i] == i for i in range(0, 4))}
    P1, P2 = Subgroup(G, p1), Subgroup(G, p2)
    out.append(("a4xa4 full", F, P1, P2))
    out.append(("a4xa4 first twist", E1, P1, P2))
    out.append(("a4xa4 second twist", E2, P1, P2))

    G, F, _, _, _ = d8xc2
    x, y, z = G.generator_indices
    out.append(("d8xc2 inner", F, G.generated_subgroup([x, y]),
                G.generated_subgroup([z])))

    G, F, _, _ = s3xs3
    r1, _, r2, _ = G.generator_indices
    out.append(("s3xs3", F, G.generated_subgroup([r1]),
                G.generated_subgroup([r2])))

    for la, lb in (("s4", "s3"), ("sl23", "c2")):
        Ga, _ = load_group_spec(la)
        Gb, _ = load_group_spec(lb)
        prod = direct_product(fusion_of_group(Ga, 2), fusion_of_group(Gb, 2))
        Ge = prod.group
        left = {v for v in prod.P.elements
                if all(Ge.perm_of(v)[i] == i for i in range(Ga.degree, Ge.degree))}
        right = {v for v in prod.P.elements
                 if all(Ge.perm_of(v)[i] == i for i in range(0, Ga.degree))}
        out.append((f"{la}x{lb} external", prod,
                    Subgroup(Ge, left), Subgroup(Ge, right)))
    return out


def test_criterion_01_v4_in_a4(v4_a4):
    G, F, E = v4_a4
    status = normality_status(F, E)
    aut_p = set(F.aut_mappings_of_conjugation(F.P, F.P))
    aut_e = set(E.iso_mappings(E.P, E.P))
    _criterion(1, "V4 in A4: invariant, Sylow automizer, surjectivity, unsaturated", [
        ("E is F-invariant", status.invariant),
        ("Aut_P(P) is contained in Aut_E(P)", aut_p <= aut_e),
        ("Aut_P(P) is Sylow in Aut_E(P)", len(aut_e) % 2 != 0 or aut_p == aut_e),
        ("every subgroup has the surjectivity property",
         all(has_surjectivity_property(E, Q) for Q in E.subgroups())),
        ("is_saturated is false", not is_saturated(E).saturated),
    ])


def test_criterion_02_a4xa4(a4xa4):
    G, F, E1, E2, (a, b, c, d) = a4xa4
    P = F.P
    raw = intersect_raw(E1, E2)
    U = G.generated_subgroup([a, b])
    identity = tuple(P.elements)
    raw_aut_p = set(raw.iso_mappings(P, P))
    nontrivial = [m for m in raw.iso_mappings(U, U) if m != U.elements]
    upos = {e: i for i, e in enumerate(U.elements)}
    extendable = []
    for m in nontrivial:
        for V in raw.subgroups():
            if not (U < V):
                continue
            for big in raw.iso_mappings(V, V):
                vpos = {e: i for i, e in enumerate(V.elements)}
                if all(big[vpos[u]] == m[upos[u]] for u in U.elements):
                    extendable.append((m, V))
    _criterion(2, "A4xA4: intersection of weakly normal subsystems breaks", [
        ("E1 is weakly normal", normality_status(F, E1).weakly_normal),
        ("E2 is weakly normal", normality_status(F, E2).weakly_normal),
        ("the raw intersection has trivial automizer at P",
         raw_aut_p == {identity}),
        ("a nontrivial automorphism survives on <a,b>", len(nontrivial) > 0),
        ("no surviving automorphism extends past <a,b>", not extendable),
        ("the raw intersection is not saturated", not is_saturated(raw).saturated),
    ])


def test_criterion_03_d8xc2(d8xc2):
    G, F, E1, E2, S = d8xc2
    aut1 = set(E1.iso_mappings(S, S))
    aut2 = set(E2.iso_mappings(S, S))
    W = intersection_wedge(F, E1, E2)
    _criterion(3, "D8xC2: the wedge repairs the intersection", [
        ("E1 = F_Q(Q) is weakly normal", normality_status(F, E1).weakly_normal),
        ("E2 = F_R(R) is weakly normal", normality_status(F, E2).weakly_normal),
        ("Aut_E1(S) equals Aut_E2(S)", aut1 == aut2),
        ("the wedge is F_S(S)", W == inner_fusion(S, 2)),
    ])


def test_criterion_04_s3xs3(s3xs3):
    G, F, EK, FH = s3xs3
    in_g = normality_status(F, EK)
    in_h = normality_status(FH, EK)
    core = t_core(FH, intersect_raw(EK, FH), EK.P)
    _criterion(4, "S3xS3: normal in the product, weakly normal in the twist", [
        ("E_K is normal in F_P(G)", in_g.normal),
        ("E_K is weakly normal in F_P(H)", in_h.weakly_normal),
        ("E_K is not normal in F_P(H)", not in_h.normal),
        ("the T-core of the intersection is E_K", core == EK),
    ])


def test_criterion_05_ea9_s3(ea9):
    G, F, Q, R = ea9
    range_q = based_range(F, Q)
    range_r = based_range(F, R)
    S3, _ = load_group_spec("s3")
    candidates = [
        E for E in enumerate_subsystems_on(F, Q)
        if is_saturated(E).saturated
        and is_subsystem(range_r.maximal, E)
        and is_subsystem(range_q.minimal, E)
    ]
    _criterion(5, "EA9:S3: exactly three saturated systems between the ranges", [
        ("R^F(R) is the S3 fusion system on C3",
         is_isomorphic_fusion(range_r.maximal, fusion_of_group(S3, 3))),
        ("R^F(Q) is inner fusion on Q", range_q.maximal == inner_fusion(Q, 3)),
        ("R^F(R) is not contained in R^F(Q)",
         not is_subsystem(range_r.maximal, range_q.maximal)),
        ("exactly three candidates", len(candidates) == 3),
        ("none of the candidates is weakly normal",
         not any(normality_status(F, E).weakly_normal for E in candidates)),
    ])


def test_criterion_06_theorem_a_sweep(sweep_weakly_normal):
    violations = []
    total = 0
    for name, p, F, T, systems in sweep_weakly_normal:
        for E in systems:
            total += 1
            if not verify_theorem_a(F, E).holds:
                violations.append((name, p, len(T)))
    _criterion(6, f"Theorem A over {total} weakly normal subsystems", [
        ("no violations", not violations),
        ("the sweep is nonempty", total > 0),
    ])


def test_criterion_07_theorem_b_round_trips(sweep_weakly_normal):
    bad_system_side = []
    bad_map_side = []
    total = 0
    for name, p, F, T, systems in sweep_weakly_normal:
        for E in systems:
            total += 1
            A = aut_map_of(E)
            E2 = generate_from_map(F, A)
            if E2 != E:
                bad_system_side.append((name, p, len(T)))
            if aut_map_of(E2).assignment != A.assignment:
                bad_map_side.append((name, p, len(T)))
    _criterion(7, f"Theorem B round trips over {total} subsystems", [
        ("generate after aut_map is the identity", not bad_system_side),
        ("aut_map after generate is the identity", not bad_map_side),
    ])


def test_criterion_08_theorem_c_sweep(catalog_systems):
    violations = []
    for name, p, F in catalog_systems:
        series = upper_central_series(F)
        X = x_subgroup(F)
        if X.value.elements != series.limit.elements:
            violations.append((name, p, "X_F"))
        zp = upper_central_series_group(F.P)
        limit = series.limit
        for i, term in enumerate(series.terms):
            zi = zp[min(i, len(zp) - 1)]
            expected = sorted(limit._set & zi._set)
            if list(term.elements) != expected:
                violations.append((name, p, f"Z_{i + 1}"))
    _criterion(8, f"Theorem C over {len(catalog_systems)} systems", [
        ("X_F equals the hypercentre and Z_i(F) = Z_inf n Z_i(P)",
         not violations),
    ])


@pytest.fixture(scope="module")
def saturation_pool(
    catalog_systems, sweep_weakly_normal, v4_a4, a4xa4, d8xc2, s3xs3, ea9
):
    """The systems criterion 9 judges: the catalog, every weakly normal
    subsystem of the sweep, and the worked examples with their raw
    intersections and enumerated subsystems."""
    pool = [F for _, _, F in catalog_systems]
    for _, _, F, _, systems in sweep_weakly_normal:
        pool.extend(systems)
    pool.append(v4_a4[2])
    G, F, E1, E2, _ = a4xa4
    pool.extend([F, E1, E2, intersect_raw(E1, E2)])
    G, F, E1, E2, S = d8xc2
    naive = generated_fusion(S, 2, E1.isos_between(S, S))
    pool.extend([E1, E2, naive, intersection_wedge(F, E1, E2)])
    G, F, EK, FH = s3xs3
    pool.extend([EK, FH, intersect_raw(EK, FH)])
    G, F, Q, R = ea9
    pool.extend(enumerate_subsystems_on(F, Q))
    return pool


def test_criterion_09_saturation_criteria_agree(saturation_pool):
    pool = saturation_pool
    disagreements = [
        E for E in pool
        if is_saturated(E).saturated != is_saturated_puig(E).saturated
    ]
    saturated = sum(1 for E in pool if is_saturated(E).saturated)
    _criterion(9, f"two saturation criteria on {len(pool)} systems "
                  f"({len(pool) - saturated} unsaturated)", [
        ("no disagreements", not disagreements),
        ("unsaturated systems are represented", saturated < len(pool)),
    ])


def test_is_saturated_matches_the_every_member_scan(saturation_pool, carrier_subsystems):
    """Deciding each class on its first fully normalized member gives the
    verdict, witness and reason of the scan over every member.  Besides
    criterion 9's pool, the systems on every carrier of order at least 4
    in the catalog p-groups of order at most 16 are compared, since about
    half of them are not saturated."""
    pool = list(saturation_pool) + carrier_subsystems
    reference = [saturated_by_every_member(E) for E in pool]
    mismatches = [E for E, want in zip(pool, reference) if is_saturated(E) != want]
    unsaturated = sum(not want.saturated for want in reference)
    assert not mismatches, mismatches[:3]
    assert len(pool) > 1400 and unsaturated > 350, (len(pool), unsaturated)


def test_is_saturated_puig_matches_the_every_member_scan(saturation_pool, carrier_subsystems):
    """Deciding each class of the Puig-style criterion on its recorded
    fully normalized member gives the verdict, witness and reason of trying
    every member, on criterion 9's pool and the systems on every carrier of
    order at least 4 in the catalog p-groups of order at most 16."""
    pool = list(saturation_pool) + carrier_subsystems
    reference = [saturated_puig_by_every_member(E) for E in pool]
    mismatches = [E for E, want in zip(pool, reference) if is_saturated_puig(E) != want]
    unsaturated = sum(not want.saturated for want in reference)
    assert not mismatches, mismatches[:3]
    assert len(pool) > 1400 and unsaturated > 350, (len(pool), unsaturated)


def test_criterion_10_perfect_and_group_centres(catalog_systems):
    z2_violations = []
    centre_violations = []
    perfect_count = 0
    compared = 0
    for name, p, F in catalog_systems:
        if is_perfect(F):
            perfect_count += 1
            if not verify_perfect_z2(F).holds:
                z2_violations.append((name, p))
        try:
            report = group_vs_fusion_centres(F.group, p)
        except PreconditionFailed:
            continue
        compared += 1
        if not report.equal:
            centre_violations.append((name, p))
    _criterion(10, f"perfect Z_2 on {perfect_count} systems, "
                   f"centre comparison on {compared} groups", [
        ("perfect systems have Z_2 = Z_1", not z2_violations),
        ("group and fusion centres agree", not centre_violations),
        ("both sweeps are nonempty", perfect_count > 0 and compared > 0),
    ])


def test_criterion_11_direct_product_lemma(product_instances):
    checks = []
    outcomes = set()
    for label, F, P1, P2 in product_instances:
        sc = is_strongly_closed(F, P1) and is_strongly_closed(F, P2)
        E1 = full_subcategory(F, P1)
        E2 = full_subcategory(F, P2)
        prod = internal_direct_product(F, P1, P2)
        n1 = normality_status(F, E1)
        n2 = normality_status(F, E2)
        equal = F == prod
        outcomes.add(equal)
        checks.append((f"{label}: factors strongly closed", sc))
        checks.append((f"{label}: factors weakly normal",
                       n1.weakly_normal and n2.weakly_normal))
        checks.append((f"{label}: F is contained in E1 x E2",
                       is_subsystem(F, prod)))
        checks.append((f"{label}: F = E1 x E2 iff both iff either normal",
                       equal == n1.normal == n2.normal))
    checks.append(("at least five product systems", len(product_instances) >= 5))
    checks.append(("both lemma outcomes appear", outcomes == {True, False}))
    _criterion(11, f"direct product lemma on {len(product_instances)} systems",
               checks)


def test_criterion_12_oracle_equivalences(catalog_systems):
    from fusionkit import catalog_names, load_catalog, make_group

    lattice_mismatches = []
    seen_groups = set()
    for name in sorted(catalog_names()):
        spec = load_catalog(name)
        if spec.get("order", 0) > 24:
            continue
        seen_groups.add(name)
        G = make_group(spec)
        lattice = all_subgroups(G.full_subgroup)
        oracle = oracle_subgroup_sets(G.full_subgroup)
        if {S._set for S in lattice} != oracle or len(lattice) != len(oracle):
            lattice_mismatches.append(name)

    range_mismatches = []
    carriers = 0
    from fusionkit import strongly_closed_subgroups

    for name, p, F in catalog_systems:
        for T in strongly_closed_subgroups(F):
            if len(T) > 9:
                continue
            carriers += 1
            tables = oracle_subsystem_tables(F, T)
            if {system_table(E) for E in enumerate_subsystems_on(F, T)} != tables:
                range_mismatches.append((name, p, len(T), "enumeration"))
                continue
            systems = [system_from_table(F, T, t) for t in tables]
            wn = [E for E in systems if normality_status(F, E).weakly_normal]
            rng = based_range(F, T)
            if not wn:
                if rng:
                    range_mismatches.append((name, p, len(T), "based"))
                continue
            smallest = min(wn, key=lambda E: E.iso_count())
            largest = max(wn, key=lambda E: E.iso_count())
            if not all(is_subsystem(smallest, E) for E in wn):
                range_mismatches.append((name, p, len(T), "no minimum"))
            if not all(is_subsystem(E, largest) for E in wn):
                range_mismatches.append((name, p, len(T), "no maximum"))
            if not (rng and rng.minimal == smallest and rng.maximal == largest):
                range_mismatches.append((name, p, len(T), "range"))
            if T.elements == F.P.elements and o_p_prime_subsystem(F) != smallest:
                range_mismatches.append((name, p, len(T), "o_p_prime"))
    _criterion(12, f"oracles: {len(seen_groups)} lattices, {carriers} carriers", [
        ("subgroup lattices match the subset-closure oracle",
         not lattice_mismatches),
        ("ranges and O^{p'} match the exhaustive enumeration",
         not range_mismatches),
    ])
