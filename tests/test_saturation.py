"""Saturation: the two criteria, their agreement, and the classic failure."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    AutGroup,
    Morphism,
    Subgroup,
    extend_morphism,
    fusion_of_group,
    generated_fusion,
    inner_fusion,
    intersect_raw,
    is_centric,
    is_fully_automized,
    is_receptive,
    is_saturated,
    is_saturated_puig,
    load_group_spec,
    saturation,
    subgroup_status,
    sylow,
)
from fusionkit import examples, fusion, groups
from fusionkit.errors import FusionkitError, NotAnIsomorphism, NotASubgroupOfP
from fusionkit.morphisms import _restricted, _restriction
from fusionkit.saturation import has_surjectivity_property, n_phi
from oracles import (
    n_phi_by_every_element,
    n_phi_by_normalizer_scan,
    receptive_by_every_iso,
    restrictions_by_elements,
    surjectivity_by_aut_groups,
)


def small_maps_system(F, bound=2):
    """The subsystem generated by all isomorphisms between subgroups of
    order at most the bound."""
    isos = [
        phi
        for Q in F.subgroups()
        if len(Q) <= bound
        for phi in F.isos_from(Q)
        if len(phi.codomain) <= bound
    ]
    return generated_fusion(F.P, F.p, isos)


@pytest.fixture(scope="module")
def v4_pair():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    return F, small_maps_system(F)


def test_group_fusion_systems_are_saturated():
    for name, p in [("s4", 2), ("a4", 2), ("s3xs3", 3), ("sl23", 2),
                    ("ea9_s3", 3), ("d12", 3), ("dic3", 2)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        assert is_saturated(F).saturated
        assert is_saturated_puig(F).saturated


def test_small_maps_system_is_not_saturated(v4_pair):
    F, E = v4_pair
    rs = is_saturated(E)
    puig = is_saturated_puig(E)
    assert not rs.saturated
    assert not puig.saturated
    assert rs.witness is not None


def test_small_maps_system_has_surjectivity_everywhere(v4_pair):
    F, E = v4_pair
    assert all(has_surjectivity_property(E, Q) for Q in E.subgroups())


def test_small_maps_failure_is_receptivity_at_the_involutions(v4_pair):
    """The cross-isomorphisms between the order-2 subgroups have N_phi = P
    but no extension, so the fully automized representatives fail to be
    receptive; the carrier itself is unobjectionable."""
    F, E = v4_pair
    carrier = subgroup_status(E, E.P)
    assert carrier.fully_normalized and carrier.receptive
    for Q in E.subgroups():
        if len(Q) == 2:
            status = subgroup_status(E, Q)
            assert status.fully_automized
            assert not status.receptive


def test_v4_statuses_in_the_full_system():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    assert is_centric(F, F.P)
    assert is_fully_automized(F, F.P)
    assert is_receptive(F, F.P)
    C2 = next(S for S in F.subgroups() if len(S) == 2)
    assert not is_centric(F, C2)
    assert is_receptive(F, C2)


def test_extend_morphism_from_receptive_target():
    G, _ = load_group_spec("s4")
    F = fusion_of_group(G, 2)
    Z = next(S for S in F.subgroups()
             if len(S) == 2 and F.c_p(S).elements == F.P.elements)
    phi = F.isos_between(Z, Z)[0]
    lifted = extend_morphism(F, phi, F.P)
    assert lifted is not None and lifted.domain == F.P


def test_extend_morphism_returns_the_first_extension_in_hom_set(catalog_systems):
    """The extension is the first one a plain scan of ``hom_set`` accepts,
    so the witnesses built on it do not depend on how the search runs."""
    checked = 0
    for name, p, F in catalog_systems:
        if len(F.group) > 12:
            continue
        for phi in F.all_isos():
            control = n_phi(F, phi)
            expected = next(
                (psi for psi in F.hom_set(control, F.P)
                 if psi.restrict(phi.domain).mapping == phi.mapping),
                None,
            )
            assert extend_morphism(F, phi, control) == expected, (name, p, phi)
            checked += expected is not None
    assert checked > 100


def test_raw_intersection_can_break_saturation():
    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    E = small_maps_system(F)
    raw = intersect_raw(F, E)
    assert raw == E
    assert is_saturated(raw).saturated == is_saturated_puig(raw).saturated


_SYSTEMS = [("s3", 3), ("d8", 2), ("q8", 2), ("a4", 2), ("a4", 3), ("s4", 2),
            ("s4", 3), ("d12", 2), ("c12", 2), ("dic3", 2), ("dic3", 3)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SYSTEMS), st.integers(1, 4))
def test_two_criteria_agree_on_generated_subsystems(pair, bound):
    """Agreement must hold on non-saturated systems too, so probe systems
    generated by bounded-order isomorphisms."""
    name, p = pair
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    E = small_maps_system(F, bound=bound)
    assert is_saturated(E).saturated == is_saturated_puig(E).saturated


def test_inner_fusion_is_saturated_for_all_small_p_groups():
    for name in ["d8", "q8", "c8", "ea8", "c4xc2", "ea9", "c9"]:
        G, _ = load_group_spec(name)
        P = G.full_subgroup
        p = 2 if len(G) % 2 == 0 else 3
        F = inner_fusion(P, p)
        assert is_saturated(F).saturated
        assert is_saturated_puig(F).saturated


def test_n_phi_matches_the_every_element_scan(catalog_systems):
    checked = 0
    for name, p, F in catalog_systems:
        for E in (F, small_maps_system(F)):
            for phi in E.all_isos():
                assert n_phi(E, phi) == n_phi_by_every_element(E, phi), (name, p, phi)
                checked += 1
    assert checked > 2000, checked


def test_n_phi_matches_the_normalizer_scan(catalog_systems, a4xd8_system):
    """N_phi read off Inn(P) equals the scan of every g in N_P(S)
    (``oracles.n_phi_by_normalizer_scan``) for every stored isomorphism of
    every catalog system and of F_P(A4 x D8)."""
    checked = 0
    for F in [F for _, _, F in catalog_systems] + [a4xd8_system]:
        for phi in F.all_isos():
            assert n_phi(F, phi) == n_phi_by_normalizer_scan(F, phi), (F, phi)
            checked += 1
    assert checked > 2000, checked


def test_is_receptive_matches_the_every_iso_scan(catalog_systems):
    """Trying one isomorphism per coset of Aut_P(R) decides receptivity as
    trying every isomorphism onto R does, on every subgroup, fully
    normalized or not, of the catalog systems and of their small-maps
    subsystems."""
    checked = refused = 0
    for name, p, F in catalog_systems:
        for E in (F, small_maps_system(F)):
            for R in E.subgroups():
                want = receptive_by_every_iso(E, R)
                assert is_receptive(E, R) == want, (name, p, R)
                checked += 1
                refused += not want
    assert checked > 1000 and refused > 10, (checked, refused)


def test_surjectivity_matches_the_aut_group_scan(catalog_systems, carrier_subsystems):
    """Answering at once where Aut_F(Q) = Aut_P(Q) decides the surjectivity
    property as building Aut_F(Q) and its normalizers does, on every
    subgroup of the catalog systems and of the subsystems on their small
    carriers, where the property often fails."""
    pool = [F for _, _, F in catalog_systems] + carrier_subsystems
    checked = refused = at_once = 0
    for E in pool:
        for Q in E.subgroups():
            want = surjectivity_by_aut_groups(E, Q)
            assert has_surjectivity_property(E, Q) == want, (E, Q)
            checked += 1
            refused += not want
            at_once += len(E.iso_mappings(Q, Q)) == len(E.aut_mappings_of_conjugation(Q, E.P))
    assert refused > 100 and 1000 < at_once < checked, (checked, refused, at_once)


def test_restrictions_match_the_element_wise_restrictions(catalog_systems, carrier_subsystems):
    """``_restricted(_restriction(R, Q), ...)``, which the surjectivity
    property reads, gives the restrictions of Aut_F(R) to Q that map Q onto
    itself, as looking each image up one element at a time does, for every
    Q and every R between QC_P(Q) and N_P(Q) of the surjectivity test's
    systems.  Some automorphisms of R move Q."""
    pool = [F for _, _, F in catalog_systems] + carrier_subsystems
    checked = moved = 0
    for E in pool:
        for Q in E.subgroups():
            lo, hi = Q.join(E.c_p(Q)), E.n_p(Q)
            for R in (R for R in E.subgroups() if lo <= R <= hi):
                want = restrictions_by_elements(E, R, Q)
                assert _restricted(_restriction(R, Q), E.iso_mappings(R, R)) == want, (E, Q, R)
                checked += 1
                at = [R.elements.index(x) for x in Q.elements]
                moved += any({m[i] for i in at} != Q._set for m in E.iso_mappings(R, R))
    assert checked > 6000 and moved > 300, (checked, moved)


def test_inner_systems_try_no_map_for_receptivity(monkeypatch):
    """In a p-group whose subgroups are all normal, each class is one R and
    every map of the inner system lies in Aut_P(R), so deciding saturation
    of F_P(P) tries none of them: ``n_phi`` is never called."""
    calls = []
    real = saturation.n_phi
    monkeypatch.setattr(saturation, "n_phi", lambda *a: calls.append(a) or real(*a))
    for name in ["c4xc2", "c8", "ea8", "q8", "c4xc4", "c4xv4", "q8xc2", "ea9", "c9"]:
        G, _ = load_group_spec(name)
        assert is_saturated(inner_fusion(G.full_subgroup)).saturated
    assert calls == []


def test_surjectivity_builds_no_aut_group_when_aut_f_is_aut_p(monkeypatch):
    """``has_surjectivity_property`` builds no ``AutGroup`` for Q with
    Aut_F(Q) = Aut_P(Q), and builds Aut_F(Q) for the other Q."""
    built = []
    init = AutGroup.__init__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(AutGroup, "__init__", spy_init)
    at_once = other = 0
    for name, p in [("s4", 2), ("a4", 2), ("s3xs3", 3), ("sl23", 2)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        for Q in F.subgroups():
            before = len(built)
            assert has_surjectivity_property(F, Q)
            if len(F.iso_mappings(Q, Q)) == len(F.aut_mappings_of_conjugation(Q, F.P)):
                assert len(built) == before, (name, Q)
                at_once += 1
            else:
                assert len(built) == before + 1, (name, Q)
                other += 1
    assert at_once > 10 and other > 3, (at_once, other)


def test_intervals_of_p_build_no_lattice_of_their_own(monkeypatch):
    """``is_saturated_puig`` on F_P(ea9_s3) at p = 3 builds no subgroup
    lattice: the R between QC_P(Q) and N_P(Q) are read off P's lattice.
    Across the worked examples, the lattice of a proper subgroup is built
    only for the P of a system whose table is being built
    (``fusion_of_group`` or ``_close``), never for the V between U and
    N_T(U) of axiom (v) of ``check_weakly_normal_map``."""
    builders = {fusion.fusion_of_group.__code__, fusion._close.__code__}
    built = []

    def recorded(build):
        def spy(amb, *args):
            frame, under_builder = sys._getframe(1), False
            while frame is not None and not under_builder:
                under_builder, frame = frame.f_code in builders, frame.f_back
            built.append((amb, under_builder))
            return build(amb, *args)
        return spy

    for name in ("_layer_lattice", "_subgroup_lattice"):
        monkeypatch.setattr(groups, name, recorded(getattr(groups, name)))
    G, _ = load_group_spec("ea9_s3")
    F = fusion_of_group(G, 3)
    del built[:]
    assert is_saturated_puig(F).saturated
    assert built == []
    for name in examples.EXAMPLES:
        assert all(holds for _, holds, _ in examples.run_example(name))
    assert built
    for amb, under_builder in built:
        assert len(amb) == len(amb.group) or under_builder, (len(amb), amb.elements)


# name: (call on S3's system at p = 3 and the inner system of A3, on
# A3 = {0, 3, 4}; the error class; its message)
SATURATION_REFUSALS = {
    "n-phi-of-a-map-outside-f": (
        lambda F, inner: n_phi(inner, Morphism(inner.P, inner.P, (0, 4, 3))),
        NotAnIsomorphism, "phi must be an isomorphism of the system",
    ),
    "extend-to-a-subgroup-without-the-domain": (
        lambda F, inner: extend_morphism(F, Morphism.identity(F.P), F.subgroups()[0]),
        NotASubgroupOfP, "extension domain must contain the domain of phi",
    ),
}


@pytest.mark.parametrize("case", sorted(SATURATION_REFUSALS))
def test_saturation_layer_refuses_malformed_input(case):
    make, error, message = SATURATION_REFUSALS[case]
    F = fusion_of_group(load_group_spec("s3")[0], 3)
    with pytest.raises(FusionkitError) as info:
        make(F, inner_fusion(F.P, 3))
    assert (type(info.value), str(info.value)) == (error, message)
