"""Weakly normal maps A(-) on a strongly closed subgroup.

A weakly normal map assigns to every subgroup U of a strongly closed T a
subgroup A(U) of Aut(U) subject to five axioms; the subsystem generated by
all the A(U) is weakly normal and recovers A as its automizer assignment.
This module implements the axiom checker, the completion of a partial map
from its defining subgroups, subsystem generation, intersections of weakly
normal subsystems, coprime enlargement, the minimal/maximal systems on a
based subgroup, and T-cores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    CoreUndefined,
    FusionkitError,
    InconsistentPartial,
    IndexNotCoprime,
    NotASubgroup,
    NotNormalInAutF,
    NotStronglyClosed,
    ParseError,
    PostconditionViolation,
    PreconditionFailed,
    TheoremViolation,
)
from .fusion import (
    FusionSystem,
    Key,
    _close,
    _generators,
    _routes,
    fusion_of_group,
    intersect_raw,
    is_strongly_closed,
    is_subsystem,
)
from .groups import Subgroup, _picker, all_subgroups, normalizer, p_part
from .morphisms import (
    AutGroup,
    Morphism,
    _aut_subgroup,
    _restricted,
    _restriction,
    _transport,
)
from .saturation import is_saturated
from .subsystems import normality_status

__all__ = [
    "AutMap",
    "MapVerdict",
    "BasedRange",
    "NotBased",
    "partial_domain",
    "aut_map_of",
    "check_weakly_normal_map",
    "complete_partial_map",
    "generate_from_map",
    "intersection_wedge",
    "enlarge_weakly_normal",
    "weakly_normal_systems_on",
    "based_range",
    "t_core",
    "aut_map_to_data",
    "aut_map_from_data",
]

AUT_MAP_SCHEMA = "fusionkit-autmap/1"

# Cap on the number of seed assignments tried by the subsystem search.
SEARCH_CAP = 4096


@dataclass(frozen=True)
class AutMap:
    """An assignment U -> A(U) of automorphism mapping-sets for all U <= T.

    Values are frozensets of mapping tuples aligned to the sorted elements
    of their subgroup, the same convention as the fusion iso tables.
    """

    T: Subgroup
    assignment: dict[Key, frozenset[Key]]

    def at(self, U: Subgroup) -> frozenset[Key]:
        return self.assignment[U.key]


@dataclass(frozen=True)
class MapVerdict:
    """Outcome of the axiom check, with the first failing axiom tagged."""

    ok: bool
    axiom: str | None = None
    reason: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BasedRange:
    """The minimal and maximal weakly normal subsystems on a based subgroup."""

    T: Subgroup
    minimal: FusionSystem
    maximal: FusionSystem


@dataclass(frozen=True)
class NotBased:
    """Returned when no weakly normal subsystem exists on the subgroup."""

    T: Subgroup
    reason: str

    def __bool__(self) -> bool:
        return False


def partial_domain(F: FusionSystem, T: Subgroup) -> tuple[Subgroup, ...]:
    """The subgroups a partial map must cover: fully normalized U <= T with
    C_T(U) <= U.  A completed map is determined by its values here."""
    return _layout(F, F.require_in_p(T)).domain


def aut_map_of(E: FusionSystem) -> AutMap:
    """The automizer assignment U -> Aut_E(U) of a subsystem."""
    assignment = {
        Q.key: frozenset(E.iso_mappings(Q, Q)) for Q in E.subgroups()
    }
    return AutMap(E.P, assignment)


class _Layout(NamedTuple):
    """What the axiom check and completion read of F on T, built once per
    (F, T) by ``_build_layout``; nothing in it depends on a map.

    - ``subs``: the subgroups of T in lattice order.
    - ``aut_t``: the fully normalized U <= T, each with Aut_T(U).
    - ``domain``: ``partial_domain``, the fully normalized U with
      C_T(U) <= U.
    - ``extend``: by key, each other fully normalized U with
      V = U C_T(U) > U and the restriction from V to U (``_restricted``).
    - ``layers``: one per order, largest first: the fully normalized U <= T
      of that order, and the routes of ``_routes`` whose Q0 is one of them.
      T is strongly closed, so each class of a subgroup of T lies in T; the
      completion gives its Q0 a value, given or restricted from the larger
      Q0 C_T(Q0), and the routes carry it to every member.
      Each route is (Q0's key, R's key, send, order): ``send`` maps Q0's
      elements along the route and ``order`` picks a map's images in the
      sorted order of R, so moving a value builds no index and sorts nothing.
    - ``centric``: for each U of ``domain``, Aut_F(U) and, for each V with
      U < V <= N_T(U), the restriction from V to U and Aut_V(U) as a
      subgroup of Aut_F(U)."""

    subs: tuple[Subgroup, ...]
    aut_t: tuple[tuple[Subgroup, frozenset[Key]], ...]
    domain: tuple[Subgroup, ...]
    extend: dict[Key, tuple[Subgroup, Subgroup, tuple]]
    layers: tuple[tuple[tuple[Subgroup, ...], tuple], ...]
    centric: tuple[tuple[Subgroup, AutGroup, tuple], ...]


def _layout(F: FusionSystem, T: Subgroup) -> _Layout:
    """T's layout, built once per (F, T)."""
    return F._fact("layout", T, _build_layout, F, T)


def _build_layout(F: FusionSystem, T: Subgroup) -> _Layout:
    subs = tuple(Q for Q in F.subgroups() if Q <= T)
    normalized = [Q for Q in subs if F.is_fully_normalized(Q)]
    domain, extend = [], {}
    for Q in normalized:
        V = F.subgroup(Q.join(F.c_p(Q).meet(T)).key)
        if V == Q:
            domain.append(Q)
        else:
            extend[Q.key] = (Q, V, _restriction(V, Q))
    routes: dict[int, list] = {}
    for Q0, class_routes in _routes(F):
        if Q0 <= T:
            routes.setdefault(len(Q0), []).extend(
                (Q0.key, R.key, dict(zip(Q0.elements, t)).__getitem__,
                 _picker(sorted(range(len(t)), key=t.__getitem__)))
                for R, t in class_routes
            )
    layers = tuple(
        (tuple(Q for Q in normalized if len(Q) == size), tuple(routes.get(size, ())))
        for size in sorted({len(Q) for Q in normalized}, reverse=True)
    )
    centric = []
    for Q in domain:
        ag, N = F.aut_group(Q), F.n_p(Q)
        above = tuple(
            (V, _restriction(V, Q), _aut_subgroup(ag, F.aut_mappings_of_conjugation(Q, V)))
            for V in subs if Q < V <= N
        )
        centric.append((Q, ag, above))
    return _Layout(
        subs=subs,
        aut_t=tuple((Q, F.aut_mappings_of_conjugation(Q, T)) for Q in normalized),
        domain=tuple(domain),
        extend=extend,
        layers=layers,
        centric=tuple(centric),
    )


def _moved_along(routes, values) -> dict | None:
    """The value of each route's Q0 moved along it to the route's member;
    None when a member that has a value, Q0 among them, gets a different
    one.  ``routes`` are a layout layer's, and ``values`` holds a value for
    each of their Q0."""
    moved = {}
    for q0key, rkey, send, order in routes:
        moved[rkey] = value = frozenset([tuple(map(send, order(m))) for m in values[q0key]])
        if values.get(rkey, value) != value:
            return None
    return moved


def _first_disagreement(F: FusionSystem, subs, values) -> tuple[Subgroup, Morphism] | None:
    """Move the value of each Q in ``subs`` along every F-isomorphism phi
    from Q, in order, giving it to each Q phi that has none; the first
    (Q, phi) that meets a different value."""
    for Q in subs:
        base = values[Q.key]
        for phi in F.isos_from(Q):
            value = frozenset(_transport(dict(zip(Q.elements, phi.mapping)), Q.elements, base)[1])
            if values.setdefault(phi.codomain.key, value) != value:
                return Q, phi
    return None


def check_weakly_normal_map(F: FusionSystem, A: AutMap) -> MapVerdict:
    """Check the five weakly normal map axioms, exhaustively, in order.

    Returns a verdict carrying the tag of the first failing axiom and a
    witness.  Raises on structural problems: T not strongly closed, the
    assignment not covering exactly the subgroups of T, or some A(U) not
    being a subgroup of Aut_F(U).

    Everything that depends on (F, T) alone is read off T's layout
    (``_Layout``), built once per (F, T): the subgroups of T, the fully
    normalized ones, U C_T(U) with the restriction to U, Aut_V(U) for
    axiom (v), and the routes of ``_routes`` with Q0 <= T.
    Axiom (i) is tested on those routes: A(Q0)^beta = A(Q0) for generators
    beta of Aut_F(Q0), and A(R) = A(Q0)^t_R for each other member R.  The
    F-isomorphisms phi with A(Q phi) = A(Q)^phi are closed under
    composition and inverse, so this is exact; if it fails,
    ``_first_disagreement`` names the scan's first failure.

    A(U) inside Aut_F(U) is a subgroup exactly when it is as large as the
    span that ``_generators`` closes from it.  Only axiom (v) builds A(U)
    as a subgroup of Aut_F(U)'s permutation group, for the U of
    ``partial_domain``.  Axioms (ii)-(v) are ``_check_ii_to_v``, which the
    subsystem search calls alone on each map it completes.
    """
    T = F.require_in_p(A.T)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("the map must live on a strongly closed subgroup", witness=T)
    layout = _layout(F, T)
    if set(A.assignment) != {Q.key for Q in layout.subs}:
        raise PreconditionFailed("assignment must cover exactly the subgroups of T")
    for Q in layout.subs:
        value = A.assignment[Q.key]
        if not value.issubset(F.iso_mappings(Q, Q)):
            raise PreconditionFailed(
                "A(U) must be contained in Aut_F(U)", witness=Q
            )
        if len(_generators(Q.key, value)[1]) != len(value):
            raise PreconditionFailed(
                "A(U) must be a subgroup of Aut_F(U)", witness=Q
            )

    # (i) A(U phi) = A(U)^phi for every F-isomorphism phi with domain in T.
    if any(_moved_along(routes, A.assignment) is None for _, routes in layout.layers):
        return MapVerdict(
            False,
            axiom="i",
            reason="conjugation transport disagrees with the assignment",
            witness=_first_disagreement(F, layout.subs, A.assignment),
        )
    return _check_ii_to_v(F, A, layout)


def _check_ii_to_v(F: FusionSystem, A: AutMap, layout: _Layout) -> MapVerdict:
    """Axioms (ii)-(v) of ``check_weakly_normal_map``, in its order and with
    its witnesses, on T's layout, for a map that meets its preconditions and
    axiom (i).

    A map that ``_complete`` has made from subgroups of Aut_F(U) does, so
    the subsystem search and ``_nested_wedge`` check it here alone.  It
    assigns exactly the layout's keys: every class of a subgroup of T has
    its Q0 among the fully normalized U <= T, and the routes carry Q0's
    value to every member.  Each value is a given subgroup of Aut_F(U), or
    one moved along an F-isomorphism, or the restriction of A(U C_T(U));
    ``_restricted`` keeps only the maps that send U onto itself, so that is
    the image of a group under restriction, a homomorphism into Aut_F(U).
    And the completion has run ``_moved_along`` on every layer's routes,
    the A(Q0)^beta = A(Q0) routes among them, which are the routes that
    axiom (i) tests."""
    T = A.T

    # (ii) Aut_T(U) <= A(U) for fully normalized U.
    for Q, aut_t in layout.aut_t:
        if not aut_t <= A.assignment[Q.key]:
            return MapVerdict(
                False,
                axiom="ii",
                reason="A(U) misses a T-conjugation automorphism",
                witness=Q,
            )

    # (iii) Aut_T(T) is a Sylow p-subgroup of A(T).
    inn_t = F.aut_mappings_of_conjugation(T, T)
    a_t = A.assignment[T.key]
    if not (inn_t <= a_t and p_part(len(a_t), F.p) == len(inn_t)):
        return MapVerdict(
            False,
            axiom="iii",
            reason="Aut_T(T) is not a Sylow p-subgroup of A(T)",
            witness=T,
        )

    # (iv) every element of A(U) extends to an element of A(U C_T(U)),
    # for fully normalized U; it holds where U C_T(U) = U.
    for Q, V, restriction in layout.extend.values():
        missing = A.assignment[Q.key] - _restricted(restriction, A.assignment[V.key])
        if missing:
            return MapVerdict(
                False,
                axiom="iv",
                reason="an element of A(U) has no extension in A(U C_T(U))",
                witness=(Q, sorted(missing)[0]),
            )

    # (v) for U in ``partial_domain`` and U <= V <= N_T(U), the restriction map
    # from the U-stabilizing part of A(V) is a well defined surjection onto
    # N_{A(U)}(Aut_V(U)): restrictions land in A(U) and cover the normalizer.
    # V <= T, so V <= N_P(U) is V <= N_T(U).  Aut_V(U) is a group by construction,
    # and inside A(U) by (ii).  V = U holds: Aut_U(U) is normal in Aut(U).
    for Q, ag, above in layout.centric:
        a_pos = _aut_subgroup(ag, A.assignment[Q.key])
        for V, restriction, autv_pos in above:
            needed = {
                m.mapping for m in ag.morphisms_of(normalizer(a_pos, autv_pos))
            }
            got = _restricted(restriction, A.assignment[V.key])
            if not got <= needed:
                return MapVerdict(
                    False,
                    axiom="v",
                    reason="an element of A(V) stabilizing U restricts outside A(U)",
                    witness=(Q, V),
                )
            if not needed <= got:
                return MapVerdict(
                    False,
                    axiom="v",
                    reason="restriction map is not onto the normalizer of Aut_V(U) in A(U)",
                    witness=(Q, V),
                )

    return MapVerdict(True)


def complete_partial_map(F: FusionSystem, T: Subgroup, partial) -> AutMap:
    """Extend a partial map from its defining subgroups to all of T.

    The partial map must be given exactly on the fully normalized U <= T
    with C_T(U) <= U.  Values propagate by descending order: conjugation
    transport within each size, and restriction from U C_T(U) for fully
    normalized subgroups not in the domain.  Disagreement between transport
    routes raises InconsistentPartial.

    T must be strongly closed, or NotStronglyClosed is raised.  The size
    layers, U C_T(U) with the restriction to U, and the routes of
    ``_routes`` with Q0 <= T are read off T's layout (``_Layout``), built
    once per (F, T).  Transport runs along those routes, as in axiom (i) of
    ``check_weakly_normal_map``; when two disagree, ``_first_disagreement``
    names the first disagreement of the full scan.
    """
    T = F.require_in_p(T)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("the map must live on a strongly closed subgroup", witness=T)
    values = partial.assignment if isinstance(partial, AutMap) else dict(partial)
    given = {k: frozenset(v) for k, v in values.items()}
    layout = _layout(F, T)
    if set(given) != {Q.key for Q in layout.domain}:
        raise PreconditionFailed(
            "partial map must be defined exactly on the fully normalized "
            "subgroups of T that contain their T-centralizer"
        )
    return _complete(F, T, layout, given)


def _complete(F: FusionSystem, T: Subgroup, layout: _Layout, given) -> AutMap:
    """The completion of ``complete_partial_map`` on T's layout, from
    ``given`` values on fully normalized U <= T that cover the first member
    of each class that meets ``partial_domain``.

    Layers run by descending order.  Each fully normalized U takes its given
    value, or, outside ``partial_domain``, the restriction from U C_T(U);
    a member of ``partial_domain`` given no value is left to the routes.
    A class's Q0 is its first fully normalized member, so it is either the
    class's first member of ``partial_domain``, which is given, or outside
    it.  The routes then carry Q0's value to every member, and one that
    meets a different value raises InconsistentPartial, naming the first
    disagreement of ``_first_disagreement``'s scan."""
    assigned: dict[Key, frozenset[Key]] = {}
    for normalized, routes in layout.layers:
        for Q in normalized:
            if Q.key in given:
                assigned[Q.key] = given[Q.key]
            elif Q.key in layout.extend:
                _, V, restriction = layout.extend[Q.key]
                assigned[Q.key] = _restricted(restriction, assigned[V.key])
        moved = _moved_along(routes, assigned)
        if moved is None:
            bad = _first_disagreement(F, [Q for Q in normalized if Q.key in assigned], assigned)
            if bad:
                raise InconsistentPartial(
                    "conjugation transport disagrees between two routes",
                    witness=(bad[0], bad[1].codomain),
                )
        else:
            assigned.update(moved)
    return AutMap(T, assigned)


def generate_from_map(F: FusionSystem, A: AutMap) -> FusionSystem:
    """The subsystem generated by all the A(U).

    A must pass the axiom check, or PreconditionFailed is raised.  The
    result must have automizers exactly A(U), or PostconditionViolation is
    raised.  It is weakly normal by theorem; the test suite certifies that
    through ``verify_theorem_a``, and this call does not re-check it.
    """
    verdict = check_weakly_normal_map(F, A)
    if not verdict:
        raise PreconditionFailed(
            f"not a weakly normal map: axiom ({verdict.axiom}) fails: {verdict.reason}"
        )
    return _generate(F, A)


def _generate(F: FusionSystem, A: AutMap) -> FusionSystem:
    """The generate step of ``generate_from_map``, for a map whose axioms
    the caller has just checked."""
    T = F.subgroup(A.T.key)
    seeds = [(qk, m) for qk, ms in A.assignment.items() for m in ms]
    inner = F._fact("inner", T, fusion_of_group, T, F.p, T)._isos
    E = FusionSystem(F.group, T, F.p, _close(T, inner, seeds))
    for Q in E.subgroups():
        if frozenset(E.iso_mappings(Q, Q)) != A.assignment[Q.key]:
            raise PostconditionViolation(
                "generated subsystem has the wrong automizer", witness=Q
            )
    return E


def enlarge_weakly_normal(F: FusionSystem, E: FusionSystem, H) -> FusionSystem:
    """The weakly normal subsystem on T with Aut(T) enlarged to H.

    E must be weakly normal on T = E.P; H is a normal subgroup of Aut_F(T)
    containing Aut_E(T) with index prime to p, given either as a subgroup
    of F.aut_group(T).group or as an iterable of automorphisms of T.  The
    result E' satisfies Hom_{E'}(Q, T) = Hom_E(Q, T) . H for all Q <= T.
    """
    T = F.require_in_p(E.P)
    ag = F.aut_group(T)
    if isinstance(H, Subgroup):
        if H.group != ag.group:
            raise NotASubgroup("H must be a subgroup of Aut_F(T)")
        h_pos = Subgroup(ag.group, H.elements, check=True)
    else:
        h_pos = Subgroup(ag.group, (ag.index_of(m) for m in H), check=True)
    aut_e = _aut_subgroup(ag, E.iso_mappings(T, T), check=True)
    if not aut_e <= h_pos:
        raise PreconditionFailed("H must contain Aut_E(T)")
    if not h_pos.is_normal_in(ag.group.full_subgroup):
        raise NotNormalInAutF("H must be normal in Aut_F(T)", witness=h_pos)
    if (len(h_pos) // len(aut_e)) % F.p == 0:
        raise IndexNotCoprime(
            "|H : Aut_E(T)| must be prime to p", witness=h_pos
        )

    h_maps = [h.mapping for h in ag.morphisms_of(h_pos)]
    seeds = [(T.key, h) for h in h_maps]
    E2 = FusionSystem(F.group, T, F.p, _close(T, E._isos, seeds))

    if frozenset(E2.iso_mappings(T, T)) != set(h_maps):
        raise PostconditionViolation("Aut of the enlargement is not H", witness=E2)
    index = {x: i for i, x in enumerate(T.elements)}
    for Q in E2.subgroups():
        lhs = {m for ms in E2._isos.get(Q.key, {}).values() for m in ms}
        rhs = set()
        for ms in E._isos.get(Q.key, {}).values():
            for psi in ms:
                # psi then h, for each h: h's images at psi's images
                rhs.update(map(_picker([index[x] for x in psi]), h_maps))
        if lhs != rhs:
            raise PostconditionViolation(
                "hom-sets of the enlargement do not match Hom_E(Q, T) . H",
                witness=Q,
            )
    if not normality_status(F, E2).weakly_normal:
        raise PostconditionViolation(
            "enlargement is not weakly normal", witness=E2
        )
    return E2


def weakly_normal_systems_on(F: FusionSystem, T: Subgroup) -> tuple[FusionSystem, ...]:
    """All weakly normal subsystems of F on the strongly closed subgroup T.

    Searches over the possible values of a weakly normal map on the
    defining subgroups, one choice per F-class, given at the class's first
    member of ``partial_domain``; the routes carry it to the others.  Each
    surviving map is completed and generated, and checked on axioms
    (ii)-(v) alone, which is all a completed map leaves open
    (``_check_ii_to_v``).  The search is exhaustive because every weakly
    normal subsystem restricts to such an assignment.
    """
    T = F.require_in_p(T)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("T must be strongly closed", witness=T)
    layout = _layout(F, T)
    firsts: dict[Key, Subgroup] = {}
    for Q in layout.domain:
        firsts.setdefault(F.conjugacy_class(Q).representative.key, Q)

    class_choices: list[list[frozenset[Key]]] = []
    total = 1
    for Q in firsts.values():
        ag = F.aut_group(Q)
        full = ag.group.full_subgroup
        inn_t = _aut_subgroup(ag, F.aut_mappings_of_conjugation(Q, T))
        choices = [
            frozenset(m.mapping for m in ag.morphisms_of(S))
            for S in all_subgroups(full)
            if inn_t <= S and S.is_normal_in(full)
            and (Q != T or p_part(len(S), F.p) == len(inn_t))
        ]
        class_choices.append(choices)
        total *= len(choices)
        if total > SEARCH_CAP:
            raise FusionkitError(
                f"seed assignment search space exceeds {SEARCH_CAP}"
            )

    keys = [Q.key for Q in firsts.values()]
    found: dict[tuple, FusionSystem] = {}
    for combo in itertools.product(*class_choices):
        try:
            A = _complete(F, T, layout, dict(zip(keys, combo)))
        except InconsistentPartial:
            continue
        if _check_ii_to_v(F, A, layout):
            E = _generate(F, A)
            found.setdefault(E.to_key(), E)
    return tuple(sorted(found.values(), key=lambda E: (E.iso_count(), E.to_key())))


def _minimum(systems: tuple[FusionSystem, ...], T: Subgroup) -> FusionSystem:
    """The system contained in all the others; TheoremViolation if none is.
    ``systems`` are in ``weakly_normal_systems_on``'s order, by number of
    isomorphisms first, and a proper subsystem has fewer, so only the first
    can be."""
    if all(is_subsystem(systems[0], other) for other in systems):
        return systems[0]
    raise TheoremViolation("weakly normal systems on T have no minimum", witness=T)


def _maximum(systems: tuple[FusionSystem, ...], T: Subgroup) -> FusionSystem:
    """The system containing all the others; TheoremViolation if none does.
    Only the last of ``systems``, ordered as for ``_minimum``, can be."""
    if all(is_subsystem(other, systems[-1]) for other in systems):
        return systems[-1]
    raise TheoremViolation("weakly normal systems on T have no maximum", witness=T)


def based_range(F: FusionSystem, T: Subgroup) -> BasedRange | NotBased:
    """The minimal and maximal weakly normal subsystems on T, if any exist.

    Both are read off the exhaustive enumeration ``weakly_normal_systems_on``:
    the system contained in all the others and the one containing all the
    others.  If either is missing, TheoremViolation is raised.  That the
    minimum is O^{p'}(E) for every weakly normal E on T, and the maximum the
    largest coprime enlargement of the minimum, are theorems the test suite
    checks on every based carrier of the catalog sweep.
    """
    systems = weakly_normal_systems_on(F, T)
    if not systems:
        return NotBased(T=T, reason="no weakly normal subsystem on this subgroup")
    return BasedRange(T=T, minimal=_minimum(systems, T), maximal=_maximum(systems, T))


def t_core(F: FusionSystem, D: FusionSystem, T: Subgroup) -> FusionSystem:
    """The largest weakly normal subsystem of F on T contained in D.

    D is any subsystem of F whose carrier contains T.  Defined whenever T
    is based in F and the minimal system on T lies inside D.
    """
    T = F.require_in_p(T)
    if not T <= D.P:
        raise PreconditionFailed("the container must be a subsystem on a subgroup containing T")
    systems = weakly_normal_systems_on(F, T)
    if not systems:
        raise PreconditionFailed("T is not based in F", witness=T)
    minimal = _minimum(systems, T)
    if not is_subsystem(minimal, D):
        raise CoreUndefined(
            "the minimal weakly normal system on T is not contained in D",
            witness=T,
        )
    return _maximum(tuple(E for E in systems if is_subsystem(E, D)), T)


def _nested_wedge(ambient: FusionSystem, Ea: FusionSystem, Eb: FusionSystem) -> FusionSystem:
    """The wedge of two subsystems with nested carriers, via the map route.

    Seeds A(Q) = Aut_{Ea}(Q) n Aut_{Eb}(Q) on the defining subgroups of
    T = Ea.P, then completes, checks, and generates over the ambient.
    Ea is weakly normal in the ambient or is the ambient, so T is strongly
    closed there, and the seeds cover T's layout's domain: the checks of
    ``complete_partial_map`` hold, and its private step runs alone.
    """
    T = Ea.P
    layout = _layout(ambient, T)
    given = {
        Q.key: frozenset(Ea.iso_mappings(Q, Q)).intersection(Eb.iso_mappings(Q, Q))
        for Q in layout.domain
    }
    A = _complete(ambient, T, layout, given)
    verdict = _check_ii_to_v(ambient, A, layout)
    if not verdict:
        raise TheoremViolation(
            f"intersection map fails axiom ({verdict.axiom}): {verdict.reason}",
            witness=verdict.witness,
        )
    E = _generate(ambient, A)
    if not (is_subsystem(E, Ea) and is_subsystem(E, Eb)):
        raise TheoremViolation(
            "wedge is not contained in both subsystems", witness=E
        )
    return E


def intersection_wedge(
    F: FusionSystem, E1: FusionSystem, E2: FusionSystem
) -> FusionSystem:
    """The wedge of two weakly normal subsystems of F.

    For nested carriers this is the map route: automizer intersections on
    the defining subgroups, completed and generated; the result is weakly
    normal in F and contained in both.  For incomparable carriers it is the
    T-core of the raw intersection over T = E1.P n E2.P.  If exactly one of
    the two is merely saturated (on the smaller carrier), the wedge is
    computed inside it and is weakly normal there instead.
    """
    s1 = normality_status(F, E1)
    s2 = normality_status(F, E2)
    T1, T2 = E1.P, E2.P
    if s1.weakly_normal and s2.weakly_normal:
        if T1 <= T2:
            return _nested_wedge(F, E1, E2)
        if T2 <= T1:
            return _nested_wedge(F, E2, E1)
        D = intersect_raw(E1, E2)
        return t_core(F, D, D.P)
    if s2.weakly_normal and T1 <= T2 and is_saturated(E1):
        return _nested_wedge(E1, E1, E2)
    if s1.weakly_normal and T2 <= T1 and is_saturated(E2):
        return _nested_wedge(E2, E2, E1)
    raise PreconditionFailed(
        "wedge needs weakly normal subsystems, or one weakly normal and "
        "one saturated on the smaller carrier"
    )


def aut_map_to_data(A: AutMap) -> dict:
    return {
        "schema": AUT_MAP_SCHEMA,
        "T": list(A.T.elements),
        "assignment": [
            [list(key), [list(m) for m in sorted(value)]]
            for key, value in sorted(A.assignment.items())
        ],
    }


def aut_map_from_data(F: FusionSystem, data: dict) -> AutMap:
    if not isinstance(data, dict) or data.get("schema") != AUT_MAP_SCHEMA:
        raise PreconditionFailed(f"expected schema {AUT_MAP_SCHEMA}")
    missing = [k for k in ("T", "assignment") if k not in data]
    if missing:
        raise ParseError(f"aut-map data is missing {', '.join(missing)}")
    bad = [k for k in ("T", "assignment") if not isinstance(data[k], list)]
    if bad:
        raise ParseError(f"aut-map data field {', '.join(bad)} is not a list")
    if not all(type(x) is int and 0 <= x < len(F.group) for x in data["T"]):
        raise ParseError("aut-map data T entries are not element indices")
    T = F.require_in_p(Subgroup(F.group, data["T"]))
    try:
        pairs = [(list(key), [list(m) for m in mappings]) for key, mappings in data["assignment"]]
        # checked before the dict and sets are built, where a JSON false
        # would merge into an equal 0; type(...) is int, as isinstance lets it through
        if not all(type(x) is int for key, ms in pairs for m in (key, *ms) for x in m):
            raise TypeError
        assignment = {tuple(key): frozenset(map(tuple, ms)) for key, ms in pairs}
    except (TypeError, ValueError):
        raise ParseError("aut-map data assignment entries are not [key, mappings] pairs") from None
    return AutMap(T, assignment)
