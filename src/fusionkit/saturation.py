"""Saturation predicates and the two whole-system saturation deciders."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnIsomorphism, NotASubgroupOfP
from .fusion import FusionSystem
from .groups import Subgroup, _generating, _inn, _picker, normalizer, p_part
from .morphisms import (
    Morphism, _aut_subgroup, _positions, _restricted, _restriction, _transport
)


@dataclass(frozen=True)
class SubgroupStatus:
    fully_normalized: bool
    fully_centralized: bool
    fully_automized: bool
    receptive: bool
    centric: bool


@dataclass(frozen=True)
class SaturationVerdict:
    saturated: bool
    witness: Subgroup | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.saturated


def n_phi(F: FusionSystem, phi: Morphism) -> Subgroup:
    """N_phi: the preimage in N_P(S) of Aut_P(S) ∩ Aut_P(R)^{phi^-1}, the
    union of the cosets of Z(P) whose Inn(P) row lies in that meet on S;
    Z(P) is one of them."""
    S = phi.domain
    F.require_in_p(S)
    if len(set(phi.mapping)) != len(phi.mapping) or not F.contains_morphism(phi):
        raise NotAnIsomorphism("phi must be an isomorphism of the system", witness=phi)
    # c_g on S is known by its images of S's generators, so each member of
    # Aut_P(S) is transported once and each row of Inn(P) is matched by those.
    gens = _generating(S)
    at_gens = _picker(_positions(S.elements, gens))
    auts = list(F.aut_mappings_of_conjugation(S, F.P))
    image, moved = _transport(dict(zip(S.elements, phi.mapping)), S.elements, auts)
    target = F.aut_mappings_of_conjugation(F.subgroup(image), F.P)
    wanted = {at_gens(a) for a, b in zip(auts, moved) if b in target}
    on_gens = _picker(gens)
    members = (x for row, coset in _inn(F.P) if on_gens(row) in wanted for x in coset)
    return F.subgroup(tuple(sorted(members)))


def extend_morphism(F: FusionSystem, phi: Morphism, D: Subgroup) -> Morphism | None:
    """The first F-morphism D -> P restricting to phi, in canonical order."""
    S = phi.domain
    F.require_in_p(D)
    if not S <= D:
        raise NotASubgroupOfP("extension domain must contain the domain of phi", witness=S)
    mapping = F._extension(D, F.P, S.elements, lambda r: r == phi.mapping)
    return None if mapping is None else Morphism(D, F.P, mapping)


def is_receptive(F: FusionSystem, R: Subgroup) -> bool:
    """Whether every F-isomorphism onto R extends to its N_phi.

    phi and phi followed by c_h, for c_h in Aut_P(R), have the same N_phi
    and extend together (extend by the first, then c_h on P), so one phi
    per coset phi . Aut_P(R) is tried.  The coset Aut_P(R) itself is not
    tried: such a phi is c_h on R for some h in N_P(R), N_phi lies in
    N_P(R), and c_h on N_phi is an F-morphism extending phi."""
    F.require_in_p(R)
    aut_p = F.aut_mappings_of_conjugation(R, F.P)
    for S in F.conjugacy_class(R):
        seen = set(aut_p) if S == R else set()
        for m in F.iso_mappings(S, R):
            if m in seen:
                continue
            seen.update(map(_picker(_positions(R.elements, m)), aut_p))
            phi = Morphism(S, R, m)
            if extend_morphism(F, phi, n_phi(F, phi)) is None:
                return False
    return True


def is_fully_automized(F: FusionSystem, Q: Subgroup) -> bool:
    return len(F.aut_mappings_of_conjugation(Q, F.P)) == p_part(len(F.iso_mappings(Q, Q)), F.p)


def is_centric(F: FusionSystem, Q: Subgroup) -> bool:
    return all(F.c_p(R) <= R for R in F.conjugacy_class(Q))


def subgroup_status(F: FusionSystem, Q: Subgroup) -> SubgroupStatus:
    F.require_in_p(Q)
    return SubgroupStatus(
        fully_normalized=F.is_fully_normalized(Q),
        fully_centralized=F.is_fully_centralized(Q),
        fully_automized=is_fully_automized(F, Q),
        receptive=is_receptive(F, Q),
        centric=is_centric(F, Q),
    )


def has_surjectivity_property(F: FusionSystem, Q: Subgroup) -> bool:
    """Whether Aut_F(Q ≤ R) -> N_{Aut_F(Q)}(Aut_R(Q)) is onto for every
    R between QC_P(Q) and N_P(Q), each read off P's lattice.

    When Aut_F(Q) = Aut_P(Q) it is, and no automorphism group is built:
    each member of N_{Aut_F(Q)}(Aut_R(Q)) is c_h on Q for some h in
    N_P(Q).  R contains C_P(Q), so R is the whole preimage of Aut_R(Q) in
    N_P(Q); c_h normalizes Aut_R(Q), so h normalizes R, and c_h on R lies
    in Aut_P(R) and restricts to the given member."""
    F.require_in_p(Q)
    if len(F.iso_mappings(Q, Q)) == len(F.aut_mappings_of_conjugation(Q, F.P)):
        return True
    A, lo, hi = F.aut_group(Q), Q.join(F.c_p(Q)), F.n_p(Q)
    for R in (R for R in F.subgroups() if lo <= R <= hi):
        aut_r = _aut_subgroup(A, F.aut_mappings_of_conjugation(Q, R))
        needed = normalizer(A.group.full_subgroup, aut_r)
        restrictions = _restricted(_restriction(R, Q), F.iso_mappings(R, R))
        if not {A.morphisms[i].mapping for i in needed.elements} <= restrictions:
            return False
    return True


def is_saturated(F: FusionSystem) -> SaturationVerdict:
    """Roberts-Shpectorov criterion: every class has a fully automized,
    receptive member.

    A fully automized receptive subgroup is fully normalized, and every
    fully normalized conjugate of it is again fully automized and receptive
    (Aschbacher-Kessar-Oliver, Fusion Systems in Algebra and Topology,
    I.2.6(c)).  So the member each class records, its first with the
    largest N_P (``ConjClass.normalized``), decides the class."""
    return F._fact("saturated", None, _roberts_shpectorov, F)


def _roberts_shpectorov(F: FusionSystem) -> SaturationVerdict:
    for cls in F.classes():
        Q = cls.normalized
        if not (is_fully_automized(F, Q) and is_receptive(F, Q)):
            reason = "class has no fully automized receptive member"
            return SaturationVerdict(False, witness=cls.representative, reason=reason)
    return SaturationVerdict(True)


def normalizer_map(F: FusionSystem, R: Subgroup, Q: Subgroup) -> Morphism | None:
    """Some F-morphism N_P(R) -> N_P(Q) carrying R onto Q, if one exists."""
    NR, NQ = F.n_p(R), F.n_p(Q)
    mapping = F._extension(NR, NQ, R.elements, lambda r: set(r) == Q._set)
    return None if mapping is None else Morphism(NR, NQ, mapping)


def is_saturated_puig(F: FusionSystem) -> SaturationVerdict:
    """Puig-style criterion: P fully automized, and each class has a member
    Q reachable from every member's normalizer and having the surjectivity
    property.

    The class's recorded member Q (``ConjClass.normalized``) decides it,
    saturated F or not: a member Q' that all members reach is fully
    normalized (normalizer maps are injective), so Q reaches Q' by an
    F-isomorphism psi of normalizers, every R reaches Q through Q' and
    psi^-1, and psi carries the surjectivity property of Q' to Q."""
    if not is_fully_automized(F, F.P):
        return SaturationVerdict(False, witness=F.P, reason="P is not fully automized")
    for cls in F.classes():
        Q = cls.normalized
        reached = all(normalizer_map(F, R, Q) is not None for R in cls.members)
        if not (reached and has_surjectivity_property(F, Q)):
            return SaturationVerdict(
                False,
                witness=cls.representative,
                reason="no member satisfies the normalizer-map and surjectivity conditions",
            )
    return SaturationVerdict(True)
