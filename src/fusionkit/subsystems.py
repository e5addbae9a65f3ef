"""Strong closure, normality verdicts, local subsystems, O_p, O^{p'},
Frattini decomposition, and the normality theorem verifier."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InputError,
    NoDecomposition,
    NotASubsystem,
    NotFullyCentralized,
    NotFullyNormalized,
    NotSaturated,
    NotStronglyClosed,
    PreconditionFailed,
    TheoremViolation,
)
from .fusion import (
    FusionSystem,
    IsoTable,
    _close,
    _iso_table,
    _routes,
    fusion_of_group,
    generated_fusion,
    is_strongly_closed,
    is_subsystem,
)
from .groups import Subgroup, _inn, _join, _join_normalized, _picker, all_subgroups, is_p_power
from .morphisms import Key, Morphism, _compose, _inverse, _positions, _restrict, _transport
from .saturation import is_centric, is_saturated


@dataclass(frozen=True)
class NormalityVerdict:
    invariant: bool
    weakly_normal: bool
    normal: bool
    failure_witness: Morphism | None = None


@dataclass(frozen=True)
class TheoremAReport:
    subsystem: FusionSystem
    verdict: NormalityVerdict
    w_set: tuple[tuple[Morphism, Morphism], ...]

    @property
    def holds(self) -> bool:
        return self.verdict.normal


def strongly_closed_subgroups(F: FusionSystem) -> list[Subgroup]:
    return [T for T in F.subgroups() if is_strongly_closed(F, T)]


def is_invariant(F: FusionSystem, E: FusionSystem) -> Morphism | None:
    """None if E is F-invariant, else a transported morphism outside E.

    E is F-invariant when every F-isomorphism Q -> R between subgroups of
    T = E.P carries E's maps inside Q onto E's maps inside R.  A map moves
    along phi as along the restriction of phi to the subgroup S that the
    map's domain and image generate, so it is enough that phi: S -> R
    carries E's maps with span S onto those with span R.  The phi that do
    are closed under composition and inverse, so it is exact to test only
    the routes of ``_routes`` (computed once per system) of the classes
    inside T, which must be strongly closed; when one fails,
    ``_invariance_witness`` scans every isomorphism for the first failure."""
    spans = _by_span(E)
    for Q0, routes in (r for r in _routes(F) if r[0].key in spans):
        base = spans[Q0.key]
        for R, t in routes:
            send = dict(zip(Q0.elements, t))
            moved = (_transport(send, dk, ms) for dk, ms in base.items())
            if spans.get(R.key, {}) != {image: set(ms) for image, ms in moved}:
                return _invariance_witness(F, E)
    return None


def _by_span(E: FusionSystem) -> dict[Key, dict[Key, set[Key]]]:
    """E's maps, by the subgroup that their domain and image generate and
    then by domain."""
    out: dict[Key, dict[Key, set[Key]]] = {}
    for dk, targets in E._isos.items():
        for rk, ms in targets.items():
            span = dk if rk == dk else tuple(sorted(_join(E.group, dk, dk + rk)))
            out.setdefault(span, {}).setdefault(dk, set()).update(ms)
    return out


def _invariance_witness(F: FusionSystem, E: FusionSystem) -> Morphism | None:
    """The first E-map inside some Q <= T that an F-isomorphism from Q
    moves outside E, trying every F-isomorphism in table order."""
    T = E.P
    tset = T._set
    for qk, targets in F._isos.items():
        if not tset.issuperset(qk):
            continue
        qset = set(qk)
        inner_isos = [
            (q2k, inside)
            for q2k, tg in E._isos.items()
            if qset.issuperset(q2k)
            and (inside := [m2 for ms2 in tg.values() for m2 in ms2 if qset.issuperset(m2)])
        ]
        for ms in targets.values():
            for m in ms:
                if not tset.issuperset(m):
                    continue
                send = dict(zip(qk, m))
                for q2k, inside in inner_isos:
                    dom, moved = _transport(send, q2k, inside)
                    stored = E._isos.get(dom, {})
                    for mapping in moved:
                        if mapping not in stored.get(tuple(sorted(mapping)), ()):
                            return Morphism(F.subgroup(dom), T, mapping)
    return None


def _normal_extension(F: FusionSystem, T: Subgroup, phi: Morphism) -> Morphism | None:
    """The first extension psi of the automorphism phi of T in
    Aut_F(TC_P(T)) with [psi, C_P(T)] ≤ Z(T), i.e. x^-1 (x psi) in Z(T)
    for every x in C_P(T)."""
    C = F.c_p(T)
    TC = T.join(C)
    G = F.group
    zset = T.centre()._set
    n = len(T)

    def accept(images: Key) -> bool:
        return images[:n] == phi.mapping and all(
            G.mul(G.inv(x), y) in zset for x, y in zip(C.elements, images[n:])
        )

    mapping = F._extension(TC, TC, T.elements + C.elements, accept)
    return None if mapping is None else Morphism(TC, TC, mapping)


def normality_status(F: FusionSystem, E: FusionSystem) -> NormalityVerdict:
    T = E.P
    if not is_subsystem(E, F):
        raise NotASubsystem("E is not a subsystem of F", witness=E)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("E does not live on a strongly closed subgroup", witness=T)
    bad = is_invariant(F, E)
    if bad is not None:
        return NormalityVerdict(False, False, False, failure_witness=bad)
    if not is_saturated(E).saturated:
        return NormalityVerdict(True, False, False)
    for phi in E.isos_between(T, T):
        if _normal_extension(F, T, phi) is None:
            return NormalityVerdict(True, True, False, failure_witness=phi)
    return NormalityVerdict(True, True, True)


def frattini_decompose(
    F: FusionSystem, E: FusionSystem, psi: Morphism
) -> tuple[Morphism, Morphism]:
    """psi = alpha . beta with alpha in Aut_F(T) and beta in E."""
    T = E.P
    A = psi.domain
    if not A <= T or not T.contains_all(psi.mapping):
        raise NotASubsystem("morphism does not live inside T", witness=psi)
    AutT = F.aut_group(T)
    idx = _positions(T.elements, A.elements)
    for alpha in AutT.morphisms:
        moved = _restrict(alpha.mapping, idx)
        dom = tuple(sorted(moved))
        mapping = _compose(_inverse(A.elements, moved), A.elements, psi.mapping)
        if mapping in E._isos.get(dom, {}).get(tuple(sorted(mapping)), ()):
            return alpha, Morphism(F.subgroup(dom), T, mapping)
    raise NoDecomposition("no Frattini decomposition found", witness=psi)


# -- local subsystems ---------------------------------------------------------

LOCAL_KINDS = ("normalizer", "centralizer", "p_centralizer")


def local_subsystem(F: FusionSystem, Q: Subgroup, kind: str) -> FusionSystem:
    """N_F(Q), C_F(Q), or N_P(Q)C_F(Q), by extension search."""
    F.require_in_p(Q)
    if kind not in LOCAL_KINDS:
        raise InputError(f"unknown local subsystem kind: {kind!r}")
    if kind == "centralizer":
        if not F.is_fully_centralized(Q):
            raise NotFullyCentralized("Q must be fully centralized", witness=Q)
        carrier = F.c_p(Q)
    else:
        if not F.is_fully_normalized(Q):
            raise NotFullyNormalized("Q must be fully normalized", witness=Q)
        carrier = F.n_p(Q)
    G = F.group
    qset = Q._set
    if kind == "p_centralizer":
        allowed = F.aut_mappings_of_conjugation(Q, F.P)
    elif kind == "centralizer":
        allowed = {Q.elements}
    else:
        allowed = None
    isos = {}
    # per distinct QR: its index, and the maps of QR that restrict to Q as allowed
    kept: dict[Key, tuple[dict[int, int], list[Key]]] = {}
    for R in all_subgroups(carrier):
        # the carrier normalizes Q, so QR is the join of Q with R's generators
        QR = F.subgroup(tuple(sorted(_join(G, Q.elements, R.generators()))))
        if QR.key not in kept:
            index = {x: i for i, x in enumerate(QR.elements)}
            on_q = _picker([index[x] for x in Q.elements])
            kept[QR.key] = index, [
                m for ms in F._isos.get(QR.key, {}).values() for m in ms
                if set(at_q := on_q(m)) == qset and (allowed is None or at_q in allowed)
            ]
        index, maps = kept[QR.key]
        isos[R.key] = set(map(_picker([index[x] for x in R.elements]), maps))
    return FusionSystem(G, carrier, F.p, _iso_table(isos))


def _local_is_all(F: FusionSystem, Q: Subgroup, allowed: frozenset[Key] | None) -> bool:
    """Whether N_F(Q) (``allowed`` None) or N_P(Q)C_F(Q) (``allowed`` the
    table Aut_P(Q)) is all of F, for Q normal in P, without building it.

    The local system lies inside F.  It holds an F-isomorphism phi: R -> R'
    exactly when phi is the restriction of a stored F-isomorphism
    QR -> QR' that maps Q onto Q, with restriction to Q in ``allowed``.
    Those phi are closed under composition and inverse, so the routes of
    ``_routes`` decide it; the first route that fails ends the test.  As Q
    is normal in P, QR is the join of Q with R's generators alone.

    A route that is the restriction of c_g for some g in P passes, so only
    the others are tested (``_routes_beyond_p``): Q is normal in P, so c_g
    on QR is a stored F-isomorphism QR -> QR^g that maps Q onto Q, and its
    restriction to Q lies in Aut_P(Q).  This needs ``allowed`` to hold
    Aut_P(Q), or to be None."""
    qset = Q._set
    for Q0, routes in F._fact("routes_beyond_p", None, _routes_beyond_p, F):
        QR = _join_normalized(Q, Q0.generators())
        on_q = _picker(_positions(QR.elements, Q.elements))
        on_r = _picker(_positions(QR.elements, Q0.elements))
        for R, t in routes:
            target = QR if R == Q0 else _join_normalized(Q, R.generators())
            if not any(
                on_r(m) == t and set(on_q(m)) == qset and (allowed is None or on_q(m) in allowed)
                for m in F.iso_mappings(QR, target)
            ):
                return False
    return True


def _routes_beyond_p(F: FusionSystem) -> list[tuple[Subgroup, list[tuple[Subgroup, Key]]]]:
    """The routes of ``_routes(F)`` that are not the restriction of
    c_g to Q0 for any g in P, by class; a class left with none is dropped.
    A map on Q0 is fixed by its images of Q0's generators, and c_g on P by
    the row of gZ(P) in Inn(P)."""
    rows = [row for row, _ in _inn(F.P)]
    out = []
    for Q0, routes in _routes(F):
        gens = Q0.generators()
        by_p = set(map(_picker(gens), rows))
        at_gens = _picker(_positions(Q0.elements, gens))
        kept = [(R, t) for R, t in routes if at_gens(t) not in by_p]
        if kept:
            out.append((Q0, kept))
    return out


def o_p(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup with F = N_F(Q).

    F = N_F(Q) is decided by ``_local_is_all`` on the routes of each class,
    which is exact because the isomorphisms that extend to QR normalizing Q
    are closed under composition and inverse.  Each Q tested is normal in
    P and any restriction to Q is allowed, so a route that is c_g for some
    g in P passes (c_g on QR normalizes Q) and is not tested."""
    if not is_saturated(F).saturated:
        raise NotSaturated("O_p needs a saturated system", witness=F)
    return _join_passing(
        F, strongly_closed_subgroups(F), lambda Q: F.n_p(Q) == F.P and _local_is_all(F, Q, None),
        "join of normal subgroups is not normal",
    )


def _join_passing(F: FusionSystem, candidates, passes, message: str) -> Subgroup:
    """The join of the ``candidates`` that pass the test ``passes``, which
    the join must pass too, or TheoremViolation(``message``) is raised;
    ``o_p`` and ``hypercentre.x_subgroup`` share it."""
    X = F.subgroups()[0]
    for Q in candidates:
        if passes(Q):
            X = F.subgroup(X.join(Q).key)
    if not passes(X):
        raise TheoremViolation(message, witness=X)
    return X


def o_p_prime_subsystem(E: FusionSystem) -> FusionSystem:
    """O^{p'}(E): the subsystem of index prime to p on T = E.P whose
    automizer of T is Aut^0_E(T) (AKO Part I, section 7).

    E must be saturated, or NotSaturated is raised.  O^{p'}_*(E) is
    generated by O^{p'}(Aut_E(Q)) over all Q <= T.  O^{p'}(A) is the
    subgroup of A generated by its p-elements, and the closure composes
    its seeds, so its seeds are the p-elements of each Aut_E(Q).
    O^{p'}_*(E) need not be saturated.  Aut^0_E(T) is generated by the
    alpha in Aut_E(T) whose restriction to some E-centric Q is a map of
    O^{p'}_*(E).  O^{p'}(E) holds both, and the result is the system the
    two generate; the suite compares it with the minimal weakly normal
    system that ``based_range`` finds by enumeration.  When every map of
    Aut^0_E(T) is already an automorphism of T in O^{p'}_*(E), that is the
    result, and the second closure does not run.

    When the p-elements are all of every Aut_E(Q), the result is E by
    Alperin's fusion theorem (AKO I.3.5), and no closure runs.  That the
    result is saturated is what ``verify_theorem_a`` certifies through
    ``normality_status``; this call does not check it.  When the result
    is E, with or without a closure, E itself is returned, with every fact
    it already holds.
    """
    if not is_saturated(E).saturated:
        raise NotSaturated("O^{p'} needs a saturated system", witness=E)
    auts = [(Q.key, m) for Q in E.subgroups() for m in E.iso_mappings(Q, Q)]
    seeds = [(qk, m) for qk, m in auts if _is_p_element(qk, m, E.p)]
    if len(seeds) == len(auts):
        return E
    star = _close(E.P, fusion_of_group(E.P, E.p, E.P)._isos, seeds)
    held = set(star[E.P.key][E.P.key])
    zero = [seed for seed in _aut_zero(E, star) if seed[1] not in held]
    table = _close(E.P, star, zero) if zero else star
    return E if table == E._isos else FusionSystem(E.group, E.P, E.p, table)


def _aut_zero(E: FusionSystem, star: IsoTable) -> list[tuple[Key, Key]]:
    """The alpha in Aut_E(T) whose restriction to some E-centric Q is a
    map of the table ``star``, as (T's key, alpha) seeds.  E-centricity
    holds for a whole class or for none of it, so it is decided once per
    class."""
    T = E.P
    centric = [
        (star[Q.key], _picker(_positions(T.elements, Q.elements)))
        for cls in E.classes() if is_centric(E, cls.representative) for Q in cls
    ]
    return [
        (T.key, alpha)
        for alpha in E.iso_mappings(T, T)
        if any((m := on_q(alpha)) in maps.get(tuple(sorted(m)), ()) for maps, on_q in centric)
    ]


def _is_p_element(domain: Key, mapping: Key, p: int) -> bool:
    """Whether the automorphism ``mapping`` of ``domain`` has p-power
    order, that is, each of its cycles has p-power length."""
    send = dict(zip(domain, mapping))
    while send:
        x, y = send.popitem()
        length = 1
        while y != x:
            y, length = send.pop(y), length + 1
        if not is_p_power(length, p):
            return False
    return True


# -- Theorem A -----------------------------------------------------------------


def verify_theorem_a(F: FusionSystem, E: FusionSystem) -> TheoremAReport:
    """O^{p'}(E) must be normal in F whenever E is weakly normal in F."""
    pre = normality_status(F, E)
    if not pre.weakly_normal:
        raise PreconditionFailed("E is not weakly normal in F", witness=pre)
    sub = o_p_prime_subsystem(E)
    T = E.P
    w_set = []
    for phi in sub.isos_between(T, T):
        ext = _normal_extension(F, T, phi)
        if ext is None:
            raise TheoremViolation(
                "an automorphism in O^{p'}(E) admits no normal extension", witness=phi
            )
        w_set.append((phi, ext))
    verdict = normality_status(F, sub)
    if not verdict.normal:
        raise TheoremViolation("O^{p'}(E) is not normal in F", witness=verdict)
    return TheoremAReport(sub, verdict, tuple(w_set))


def enumerate_subsystems_on(
    F: FusionSystem, S: Subgroup, *, limit: int = 20000
) -> tuple[FusionSystem, ...]:
    """All subsystems of F on the carrier S, by closure search.

    Starts from inner fusion and repeatedly closes a system found, as the
    closed base, with one more ambient isomorphism; every subsystem on S
    is the closure of finitely many of its isomorphisms, so the search is
    exhaustive.  Exceeding `limit` distinct subsystems raises InputError.
    """
    S = F.require_in_p(S)
    sset = S._set
    pool = [
        (qk, rk, m) for qk, targets in F._isos.items() if sset.issuperset(qk)
        for rk, ms in targets.items() if sset.issuperset(rk) for m in ms
    ]
    start = generated_fusion(S, F.p, [])
    seen = {start.to_key(): start}
    frontier = [start]
    while frontier:
        grown = []
        for E in frontier:
            for qk, rk, m in pool:
                if m in E._isos[qk].get(rk, ()):
                    continue
                E2 = FusionSystem(F.group, S, F.p, _close(S, E._isos, [(qk, m)]))
                key = E2.to_key()
                if key not in seen:
                    if len(seen) >= limit:
                        raise InputError(
                            f"more than {limit} subsystems on the carrier"
                        )
                    seen[key] = E2
                    grown.append(E2)
        frontier = grown
    return tuple(
        sorted(seen.values(), key=lambda E: (E.iso_count(), E.to_key()))
    )


__all__ = [
    "NormalityVerdict",
    "TheoremAReport",
    "enumerate_subsystems_on",
    "frattini_decompose",
    "is_invariant",
    "local_subsystem",
    "normality_status",
    "o_p",
    "o_p_prime_subsystem",
    "strongly_closed_subgroups",
    "verify_theorem_a",
]
