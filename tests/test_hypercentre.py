"""Centres: Z(F), the central series, X_F, perfect systems, group comparison."""

import pytest

from fusionkit import (
    centre_of,
    fusion_of_group,
    group_centre,
    group_vs_fusion_centres,
    hypercentre,
    inner_fusion,
    is_perfect,
    load_group_spec,
    o_p,
    quotient,
    strongly_closed_subgroups,
    upper_central_series,
    verify_perfect_z2,
    x_subgroup,
)
from fusionkit.errors import NotSaturated, PreconditionFailed
from oracles import centre_by_fixed_points

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


def test_centre_on_routes_matches_the_fixed_points(catalog_systems, a4xd8_system):
    """``centre_of`` decides each x on the routes of each class; it agrees
    with the fixed points of every morphism on every catalog system, on its
    quotient by every proper nontrivial strongly closed T, and on
    F_P(A4 x D8)."""
    systems = [a4xd8_system]
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
    derived, calls = hypercentre.commutator_subgroup, []

    def counted(*args):
        calls.append(args)
        return derived(*args)

    monkeypatch.setattr(hypercentre, "commutator_subgroup", counted)
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
