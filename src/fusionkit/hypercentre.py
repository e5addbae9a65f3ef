"""Centres of fusion systems: Z(F), the upper central series, X_F,
perfect systems, and the comparison with group-theoretic centres.

The centre of a saturated system collects the elements fixed by a suitable
extension of every morphism; iterating on quotients gives Z_i(F) and the
hypercentre Z_inf(F).  The subgroup X_F, the largest one with
F = P C_F(X_F), is computed from its own definition; that it equals the
hypercentre is a theorem, which the ``hypercentre`` and ``sweep`` reports
state as a predicate and the test suite checks, rather than something each
call re-derives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSaturated, PreconditionFailed, TheoremViolation
from .fusion import FusionSystem, _routes, fusion_of_group, is_strongly_closed, quotient_with_data
from .groups import (
    Group,
    Subgroup,
    commutator_subgroup,
    group_centre,
    o_p_prime_group,
    sylow,
    upper_central_series_group,
)
from .saturation import is_saturated
from .subsystems import _local_is_all, strongly_closed_subgroups

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
    extension Q<x> -> R<x> fixing x, that is, when F = C_F(<x>).  Only x in
    Z(P) can qualify, since the extension of each c_y: P -> P is c_y itself
    and must fix x, so the search runs over Z(P).  Checking isomorphisms
    suffices: a morphism is an isomorphism onto its image followed by an
    inclusion.

    For x in Z(P), X = <x> is normal in P, and an extension fixes x exactly
    when its restriction to X is the identity.  So ``_local_is_all`` with
    the identity of X as the only allowed restriction decides x on the
    routes of each class.
    """
    _require_saturated(F)
    return _centre(F)


def _centre(F: FusionSystem) -> Subgroup:
    G = F.group
    fixed = [G.identity]
    for x in group_centre(F.P).elements:
        if x != G.identity:
            X = G.generated_subgroup((x,))
            if _local_is_all(F, X, frozenset({X.elements})):
                fixed.append(x)
    Z = G.generated_subgroup(fixed)
    if len(Z) != len(fixed):
        raise TheoremViolation("central elements do not form a subgroup", witness=tuple(fixed))
    return Z


def upper_central_series(F: FusionSystem) -> CentralSeries:
    """Z_i(F): preimages of the centres of the successive quotients.

    The series stops at the first repetition; every term must come out
    strongly closed, and a term that does not raises TheoremViolation.

    Saturation is decided once, on F.  Each term is taken as the kernel
    of a quotient only after it is found strongly closed, and the
    quotient of a saturated system by a strongly closed subgroup is
    saturated (Puig), so the centre of each quotient is taken without
    deciding saturation again.
    """
    _require_saturated(F)
    terms: list[Subgroup] = [_centre(F)]
    while True:
        prev = terms[-1]
        if len(prev) == len(F.P):
            break
        Fbar, qd = quotient_with_data(F, prev)
        nxt = qd.preimage(_centre(Fbar))
        if nxt.elements == prev.elements:
            break
        terms.append(nxt)
    for term in terms:
        if not is_strongly_closed(F, term):
            raise TheoremViolation(
                "a central series term is not strongly closed", witness=term
            )
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
    each class and stops at the first that fails.
    """
    _require_saturated(F)
    G = F.group
    X = Subgroup(G, (G.identity,), check=False)
    for Q in F.subgroups():
        if _has_central_quotient(F, Q):
            X = X.join(Q)
    if not _has_central_quotient(F, X):
        raise TheoremViolation(
            "the join of subgroups with F = P C_F(Q) loses the property",
            witness=X,
        )
    if not is_strongly_closed(F, X):
        raise TheoremViolation("X_F is not strongly closed", witness=X)
    return XSubgroup(X)


def _fixes_cosets(F: FusionSystem, T: Subgroup) -> bool:
    """Whether F/T is the inner system of P/T, for strongly closed T
    containing [P, P].  As P/T is abelian, that inner system has only
    identity maps, so equality holds exactly when every F-isomorphism
    between subgroups containing T fixes each coset of T.  Those
    isomorphisms are closed under composition and inverse, and a class
    whose first member contains T lies wholly above T, as T is strongly
    closed; so the routes of those classes decide it."""
    G = F.group
    return all(
        G.mul(G.inv(x), y) in T._set
        for Q0, routes in _routes(F, F.P) if T <= Q0
        for _, t in routes
        for x, y in zip(Q0.elements, t)
    )


def is_perfect(F: FusionSystem) -> bool:
    """Whether F admits no surjection onto the inner system of a
    nontrivial abelian quotient of P.

    A quotient map to F_A(A) with A abelian factors through F/T for a
    strongly closed T containing [P, P], so it suffices to test whether
    some such proper T gives F/T equal to the inner system on P/T, which
    ``_fixes_cosets`` decides on the routes.  Decided once per system.
    """
    _require_saturated(F)
    return F._fact("perfect", None, _no_abelian_quotient, F)


def _no_abelian_quotient(F: FusionSystem) -> bool:
    derived, order = commutator_subgroup(F.P, F.P, F.P), len(F.P)
    closed = [T for T in strongly_closed_subgroups(F) if len(T) < order and derived <= T]
    return not any(_fixes_cosets(F, T) for T in closed)


def verify_perfect_z2(F: FusionSystem) -> PerfectCentreReport:
    """For perfect F, check Z_2(F) = Z(F) along with the argument's
    ingredients: each x in Z_2(F) gives a homomorphism g |-> [x, g] from P
    into Z(F), which perfectness forces to be trivial."""
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
        for g in F.P.elements:
            for h in F.P.elements:
                lhs = G.comm(x, G.mul(g, h))
                rhs = G.mul(G.comm(x, g), G.comm(x, h))
                if lhs != rhs:
                    raise TheoremViolation(
                        "lambda_x is not a homomorphism", witness=(x, g, h)
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
    amb = G.full_subgroup if isinstance(G, Group) else G
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
