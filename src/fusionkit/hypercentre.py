"""Centres of fusion systems: Z(F), the upper central series, X_F,
perfect systems, and the comparison with group-theoretic centres.

The centre of a saturated system collects the elements fixed by a suitable
extension of every morphism, and each Z_i(F) is read off the F-images of
each element, with no quotient built, up to the hypercentre Z_inf(F).  The
subgroup X_F, the largest one with F = P C_F(X_F), is computed from its own
definition; that it equals the hypercentre is a theorem, which the
``hypercentre`` and ``sweep`` reports state as a predicate and the test
suite checks, rather than something each call re-derives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSaturated, PreconditionFailed, TheoremViolation
from .fusion import FusionSystem, _images, fusion_of_group, is_strongly_closed
from .groups import Group, Subgroup, _as_subgroup, o_p_prime_group, sylow, upper_central_series_group
from .saturation import is_saturated
from .subsystems import _join_passing, _local_is_all

__all__ = [
    "CentralSeries",
    "XSubgroup",
    "PerfectCentreReport",
    "CentreComparisonReport",
    "centre_of",
    "upper_central_series",
    "x_subgroup",
    "is_perfect",
    "verify_perfect_z2",
    "group_vs_fusion_centres",
]


@dataclass(frozen=True)
class CentralSeries:
    """The terms [Z_1(F), Z_2(F), ...], strictly ascending, and their limit."""

    terms: tuple[Subgroup, ...]
    limit: Subgroup


@dataclass(frozen=True)
class XSubgroup:
    """The largest subgroup X_F of P with F = P C_F(X_F)."""

    value: Subgroup


@dataclass(frozen=True)
class PerfectCentreReport:
    """Z_2(F) = Z_1(F) for a perfect system, with the lambda_x evidence.

    Each table row pairs an element x of Z_2(F) with the full value table
    of the homomorphism g |-> [x, g]; the theorem forces every value to be
    the identity.
    """

    centre: Subgroup
    second_centre: Subgroup
    lambda_tables: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    holds: bool


@dataclass(frozen=True)
class CentreComparisonReport:
    """Z_i(G) against Z_i(F_P(G)) when O_{p'}(G) is trivial."""

    group_series: tuple[Subgroup, ...]
    fusion_series: CentralSeries
    equal: bool


def _require_saturated(F: FusionSystem) -> None:
    if not is_saturated(F).saturated:
        raise NotSaturated("a saturated system is required", witness=F)


def centre_of(F: FusionSystem) -> Subgroup:
    """Z(F): the x in P whose adjunction extends every morphism.

    An element x qualifies when every isomorphism phi: Q -> R has an
    extension Q<x> -> R<x> fixing x, that is, when F = C_F(<x>).  For
    saturated F these are the x with x^F = {x}, read off the F-images of
    each element.  Such an x is fixed by an extension, so x^F = {x}.
    Conversely, x^F = {x} puts x in Z(P), as each c_g: P -> P fixes it.  By
    Alperin's fusion theorem (AKO I.3.5), F is generated by restrictions of
    automorphisms of P and of F-centric subgroups Q, and each such Q holds
    Z(P).  A restriction of an automorphism of Q to A extends to A<x> <= Q,
    fixing x, and so does every composite of such maps.
    """
    _require_saturated(F)
    return _centre(F, F.subgroup((F.group.identity,)))


def _centre(F: FusionSystem, T: Subgroup) -> Subgroup:
    """The preimage of Z(F/T): the x in P with x^F inside xT."""
    G, images, tset = F.group, _images(F), T._set
    central = [x for x in F.P.elements if all(G.mul(G.inv(x), y) in tset for y in images[x])]
    Z = G.generated_subgroup(central)
    if len(Z) != len(central):
        raise TheoremViolation("central elements do not form a subgroup", witness=tuple(central))
    return Z


def upper_central_series(F: FusionSystem) -> CentralSeries:
    """Z_i(F), the x in P with x^F inside x Z_{i-1}(F), from Z_0(F) = 1 to
    the first repetition: the preimage of Z(F/Z_{i-1}(F)), with no quotient
    built, since for saturated F and strongly closed T each F-map on Q
    agrees modulo T with an F-map on QT (Puig), so (xT)^{F/T} is
    {yT : y in x^F}.  Saturation is decided once, on F; each term is checked
    strongly closed, or TheoremViolation is raised, before it is taken as T.
    """
    _require_saturated(F)
    terms = [_centre(F, F.subgroup((F.group.identity,)))]
    while True:
        T = terms[-1]
        if not is_strongly_closed(F, T):
            raise TheoremViolation("a central series term is not strongly closed", witness=T)
        if len(T) == len(F.P):
            break
        nxt = _centre(F, T)
        if nxt.elements == T.elements:
            break
        terms.append(nxt)
    return CentralSeries(tuple(terms), terms[-1])


def _has_central_quotient(F: FusionSystem, Q: Subgroup) -> bool:
    if F.n_p(Q) != F.P:
        return False
    aut_p = F.aut_mappings_of_conjugation(Q, F.P)
    if set(F.iso_mappings(Q, Q)) != aut_p:
        return False
    return _local_is_all(F, Q, aut_p)


def x_subgroup(F: FusionSystem) -> XSubgroup:
    """X_F: the largest subgroup with F = P C_F(X_F).

    Computed as the join of all normal subgroups Q of P with
    F = P C_F(Q); the join must again satisfy the property and must be
    strongly closed, or TheoremViolation is raised.  X_F equals the
    hypercentre Z_inf(F) by theorem; that is checked by the test suite,
    not by this call.

    F = P C_F(Q) holds when every F-isomorphism extends to QR, mapping Q
    onto Q by an element of Aut_P(Q).  Those isomorphisms are closed under
    composition and inverse, so ``_local_is_all`` tests only the routes of
    each class and stops at the first that fails.  Each Q tested is normal
    in P, and the allowed restrictions to Q are Aut_P(Q) itself, so a
    route that is c_g for some g in P passes (c_g on QR maps Q onto Q by
    an element of Aut_P(Q)) and is not tested.
    """
    _require_saturated(F)
    X = _join_passing(
        F, F.subgroups(), lambda Q: _has_central_quotient(F, Q),
        "the join of subgroups with F = P C_F(Q) loses the property",
    )
    if not is_strongly_closed(F, X):
        raise TheoremViolation("X_F is not strongly closed", witness=X)
    return XSubgroup(X)


def is_perfect(F: FusionSystem) -> bool:
    """Whether F admits no surjection onto the inner system of a
    nontrivial abelian quotient of P.

    Such a map factors through F/T for a proper strongly closed T holding
    [P, P], with F/T the inner system of P/T, whose maps are identities.
    For saturated F such a T exists exactly when the focal subgroup
    foc(F), generated by the x^-1 y with y in x^F, is proper; so F is
    perfect exactly when foc(F) = P.  foc(F) holds [P, P], is strongly
    closed, and no F-map moves a coset of it, so it serves as T when it is
    proper.  Conversely, for saturated F each F-map on Q agrees modulo a
    strongly closed T with an F-map on QT (Puig), so every x^-1 y lies in
    T when F/T has only identity maps.  Decided once per system.
    """
    _require_saturated(F)
    return F._fact("perfect", None, _focal_is_all, F)


def _focal_is_all(F: FusionSystem) -> bool:
    """Whether foc(F) = P."""
    G = F.group
    focal = {G.mul(G.inv(x), y) for x, ys in _images(F).items() for y in ys}
    return len(G.generated_subgroup(focal)) == len(F.P)


def verify_perfect_z2(F: FusionSystem) -> PerfectCentreReport:
    """For perfect F, check Z_2(F) = Z(F) along with the argument's
    ingredients: each x in Z_2(F) gives a homomorphism g |-> [x, g] from P
    into Z(F), which perfectness forces to be trivial.  The map is a
    homomorphism once its values are central: [x, gh] = [x, h][x, g]^h
    = [x, g][x, h]."""
    if not is_perfect(F):
        raise PreconditionFailed("the system is not perfect", witness=F)
    series = upper_central_series(F)
    z1 = series.terms[0]
    z2 = series.terms[1] if len(series.terms) > 1 else z1
    G = F.group
    tables = []
    for x in z2.elements:
        row = tuple((g, G.comm(x, g)) for g in F.P.elements)
        for g, value in row:
            if value not in z1:
                raise TheoremViolation(
                    "lambda_x does not land in the centre", witness=(x, g)
                )
        tables.append((x, row))
    if z2.elements != z1.elements:
        raise TheoremViolation(
            "second centre exceeds the centre of a perfect system", witness=z2
        )
    return PerfectCentreReport(z1, z2, tuple(tables), True)


def group_vs_fusion_centres(G: Group | Subgroup, p: int) -> CentreComparisonReport:
    """Z_i(G) against Z_i(F_P(G)), term by term, given O_{p'}(G) = 1.

    A nontrivial O_{p'}(G) raises PreconditionFailed, since the comparison
    is only claimed in that case; an actual mismatch of the two series
    raises TheoremViolation.
    """
    amb = _as_subgroup(G)
    core = o_p_prime_group(amb, p)
    if len(core) != 1:
        raise PreconditionFailed("O_{p'}(G) must be trivial", witness=core)
    P = sylow(amb, p)
    F = fusion_of_group(amb, p, P)
    gseries = upper_central_series_group(amb)
    fseries = upper_central_series(F)
    length = max(len(gseries), len(fseries.terms))
    for i in range(length):
        gi = gseries[min(i, len(gseries) - 1)]
        fi = fseries.terms[min(i, len(fseries.terms) - 1)]
        if gi.elements != fi.elements:
            raise TheoremViolation(
                f"Z_{i + 1}(G) differs from Z_{i + 1}(F)", witness=(gi, fi)
            )
    return CentreComparisonReport(tuple(gseries), fseries, True)
