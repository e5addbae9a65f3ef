"""Centres: Z(F), the central series, X_F, perfect systems, group comparison."""

import sys

import pytest

from fusionkit import (
    centre_of,
    fusion,
    fusion_of_group,
    group_centre,
    group_vs_fusion_centres,
    hypercentre,
    inner_fusion,
    is_perfect,
    is_saturated,
    is_saturated_puig,
    load_catalog,
    load_group_spec,
    make_group,
    o_p,
    quotient,
    saturation,
    strongly_closed_subgroups,
    upper_central_series,
    verify_perfect_z2,
    x_subgroup,
)
from fusionkit.errors import NotSaturated, PreconditionFailed
from fusionkit.groups import QuotientData
from oracles import centre_by_fixed_points, centre_by_local_tests, perfect_by_quotients

CENTRE_ORDERS = {
    ("s4", 2): 1,
    ("a4", 2): 1,
    ("sl23", 2): 2,
    ("s3xs3", 3): 1,
    ("ea9_s3", 3): 1,
    ("s3", 3): 1,
}


@pytest.mark.parametrize("key,order", sorted(CENTRE_ORDERS.items()))
def test_centre_orders_frozen(key, order):
    name, p = key
    G, _ = load_group_spec(name)
    F = fusion_of_group(G, p)
    Z = centre_of(F)
    assert len(Z) == order
    assert Z.elements == centre_by_fixed_points(F).elements


def test_centre_on_routes_matches_the_fixed_points(catalog_systems, a4xd8_system, s4xd8_system):
    """``centre_of`` decides each x on the routes of each class; it agrees
    with the fixed points of every morphism on every catalog system, on its
    quotient by every proper nontrivial strongly closed T, and on
    F_P(A4 x D8) and F_P(S4 x D8)."""
    systems = [a4xd8_system, s4xd8_system]
    for _, _, F in catalog_systems:
        systems.append(F)
        systems += [quotient(F, T) for T in strongly_closed_subgroups(F) if 1 < len(T) < len(F.P)]
    orders = []
    for F in systems:
        Z = centre_of(F)
        assert Z.elements == centre_by_fixed_points(F).elements, F
        orders.append(len(Z))
    assert orders.count(1) > 10 and len(orders) - orders.count(1) > 100


def test_centre_definitions_agree_on_inner_systems():
    for name in ["d8", "q8", "c8", "ea8", "c4xc2"]:
        G, _ = load_group_spec(name)
        F = inner_fusion(G.full_subgroup, 2)
        assert centre_of(F).elements == centre_by_fixed_points(F).elements
        assert centre_of(F).elements == group_centre(F.P).elements


def test_inner_series_is_the_group_series():
    G, _ = load_group_spec("d8")
    F = inner_fusion(G.full_subgroup, 2)
    series = upper_central_series(F)
    assert [len(S) for S in series.terms] == [2, 8]
    assert series.limit.elements == F.P.elements


def test_x_subgroup_equals_the_hypercentre():
    for name, p in [("s4", 2), ("sl23", 2), ("a4", 2), ("ea9_s3", 3),
                    ("d8", 2), ("q8", 2)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        X = x_subgroup(F)
        series = upper_central_series(F)
        assert X.value.elements == series.limit.elements
        assert series.limit <= o_p(F)


def test_perfect_flags():
    for name, p, expected in [("a4", 2, True), ("sl23", 2, True),
                              ("s4", 2, False), ("d8", 2, False),
                              ("s3", 3, True), ("ea9_s3", 3, False)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        assert is_perfect(F) is expected, (name, p)


def test_perfect_on_routes_matches_the_quotients(
    catalog_systems, sweep_weakly_normal, a4xd8_system
):
    """``is_perfect`` reads the routes of the classes above each candidate
    T; it agrees with building F/T and comparing it with the inner system
    of P/T, on every catalog system, its quotient by every proper
    nontrivial strongly closed T, every weakly normal system of the sweep,
    and F_P(A4 x D8).  Both verdicts occur."""
    catalog = [F for _, _, F in catalog_systems]
    systems = catalog + [a4xd8_system]
    systems += [
        quotient(F, T) for F in catalog for T in strongly_closed_subgroups(F)
        if 1 < len(T) < len(F.P)
    ]
    systems += [E for *_, found in sweep_weakly_normal for E in found]
    verdicts = []
    for F in systems:
        verdict = is_perfect(F)
        assert verdict is perfect_by_quotients(F), F
        verdicts.append(verdict)
    assert len(systems) > 700 and verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_centre_and_perfectness_from_images_match_the_oracles(
    catalog_systems, sweep_weakly_normal, ladder_groups, affine_systems
):
    """``centre_of`` reads Z(F) off the x with x^F = {x}, and ``is_perfect``
    reads foc(F) = P off the same F-images.  Both agree with the oracles:
    Z(F) by fixed points and by the local test on the routes, perfectness
    by building each quotient.  The systems are every catalog system, its
    quotient by every proper nontrivial strongly closed T, every weakly
    normal system of the sweep, F_P(G) for the three ladder groups,
    ASL(2,3) and AGL(2,3), and a4xa4, ea16 and ea9_s3 at their primes.
    Nontrivial centres and both verdicts occur."""
    catalog = [F for _, _, F in catalog_systems]
    systems = catalog + [
        quotient(F, T) for F in catalog for T in strongly_closed_subgroups(F)
        if 1 < len(T) < len(F.P)
    ]
    systems += [E for *_, found in sweep_weakly_normal for E in found]
    systems += [fusion_of_group(G, 2) for G in ladder_groups] + list(affine_systems)
    for name in ["a4xa4", "ea16", "ea9_s3"]:
        spec = load_catalog(name)
        systems.append(fusion_of_group(make_group(spec), spec.get("prime", 2)))
    central = perfect = 0
    for F in systems:
        Z = centre_of(F)
        assert Z.elements == centre_by_fixed_points(F).elements, F
        assert Z.elements == centre_by_local_tests(F).elements, F
        verdict = is_perfect(F)
        assert verdict is perfect_by_quotients(F), F
        central += len(Z) > 1
        perfect += verdict
    assert len(systems) > 1000 and central > 800 and perfect > 150 and len(systems) - perfect > 800


def test_centre_and_perfectness_find_no_routes_and_no_closed_subgroups(monkeypatch):
    """``centre_of`` and ``is_perfect`` on a fresh saturated system call
    neither ``fusion._find_routes`` nor ``strongly_closed_subgroups``, from
    any module of the library."""
    calls = []
    real = fusion._find_routes
    monkeypatch.setattr(fusion, "_find_routes", lambda *a: calls.append(a) or real(*a))
    for name, module in list(sys.modules.items()):
        if name.startswith("fusionkit") and hasattr(module, "strongly_closed_subgroups"):
            closed = module.strongly_closed_subgroups
            monkeypatch.setattr(
                module, "strongly_closed_subgroups",
                lambda *a, closed=closed: calls.append(a) or closed(*a),
            )
    for name, p, order, expected in [
        ("a4", 2, 1, True), ("sl23", 2, 2, True), ("s4", 2, 1, False), ("d8xc2", 2, 4, False)
    ]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        assert len(centre_of(F)) == order and is_perfect(F) is expected
    assert calls == []


def test_perfect_builds_no_quotient_and_no_inner_system(monkeypatch):
    """``is_perfect`` on a fresh system constructs no ``QuotientData`` and
    calls no ``inner_fusion``, from any module of the library."""
    built = []
    init = QuotientData.__init__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(QuotientData, "__init__", spy_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("fusionkit") and hasattr(module, "inner_fusion"):
            real = module.inner_fusion
            monkeypatch.setattr(
                module, "inner_fusion", lambda *a, real=real: built.append(a) or real(*a)
            )
    for name, p, expected in [("a4", 2, True), ("s4", 2, False), ("sl23", 2, True)]:
        G, _ = load_group_spec(name)
        assert is_perfect(fusion_of_group(G, p)) is expected
    assert built == []


def test_perfect_systems_have_stalled_series():
    for name, p in [("a4", 2), ("sl23", 2), ("s3", 3)]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, p)
        report = verify_perfect_z2(F)
        assert report.holds
        assert report.centre.elements == report.second_centre.elements
        for x, table in report.lambda_tables:
            for g, value in table:
                assert value in report.centre._set


def test_verify_perfect_z2_decides_perfectness_once(monkeypatch):
    G, _ = load_group_spec("a4")
    expected = verify_perfect_z2(fusion_of_group(G, 2))
    decide, calls = hypercentre._focal_is_all, []

    def counted(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(hypercentre, "_focal_is_all", counted)
    F = fusion_of_group(G, 2)
    assert is_perfect(F)
    assert verify_perfect_z2(F) == expected
    assert len(calls) == 1


def test_perfect_verification_needs_a_perfect_system():
    G, _ = load_group_spec("d8")
    F = inner_fusion(G.full_subgroup, 2)
    with pytest.raises(PreconditionFailed):
        verify_perfect_z2(F)


def test_group_vs_fusion_centres_agree():
    for name, p in [("a4", 2), ("d8", 2), ("s4", 2), ("sl23", 2),
                    ("ea9_s3", 3), ("s3xs3", 3)]:
        G, _ = load_group_spec(name)
        report = group_vs_fusion_centres(G, p)
        assert report.equal


def test_group_vs_fusion_requires_trivial_coprime_core():
    G, _ = load_group_spec("c6")
    with pytest.raises(PreconditionFailed):
        group_vs_fusion_centres(G, 2)


def test_centres_require_saturation():
    from fusionkit import generated_fusion

    G, _ = load_group_spec("a4")
    F = fusion_of_group(G, 2)
    isos = [phi for Q in F.subgroups() if len(Q) <= 2
            for phi in F.isos_from(Q) if len(phi.codomain) <= 2]
    E = generated_fusion(F.P, 2, isos)
    with pytest.raises(NotSaturated):
        upper_central_series(E)


def test_quotients_by_strongly_closed_subgroups_are_saturated(catalog_systems):
    """F/T is saturated for saturated F and strongly closed T, under both
    criteria, on every catalog system; ``upper_central_series`` relies on
    it to take each quotient's centre without deciding saturation again."""
    checked = 0
    for name, p, F in catalog_systems:
        for T in strongly_closed_subgroups(F):
            Fbar = quotient(F, T)
            assert is_saturated(Fbar).saturated, (name, p, T.elements)
            assert is_saturated_puig(Fbar).saturated, (name, p, T.elements)
            checked += 1
    assert checked > 500, checked


def test_upper_central_series_decides_saturation_once(monkeypatch):
    """Saturation is decided on F alone, not again on each quotient."""
    calls = []
    real = saturation._roberts_shpectorov
    monkeypatch.setattr(
        saturation, "_roberts_shpectorov", lambda F: calls.append(F) or real(F)
    )
    for name in ["d8", "q16", "d8xc2"]:
        G, _ = load_group_spec(name)
        F = fusion_of_group(G, 2)
        calls.clear()
        assert len(upper_central_series(F).terms) >= 2
        assert calls == [F], name
