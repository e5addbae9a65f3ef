"""Brute-force oracles, independent of the library's lattice and closure code.

Subgroups are found by raw subset closure over the multiplication table, and
subsystems on a carrier by a from-scratch closure operator on plain mapping
tables (domain elements paired with their images).  Neither touches
all_subgroups, generated_fusion, or FusionSystem internals, so agreement with
the library is evidence, not tautology.  The per-subgroup oracles below take
the library's lattice as given, since the subset closure certifies it.  The
centre gets two more descriptions, by fixed points and by the local test
F = C_F(<x>) on the routes, as the library decided it before it read the
F-images of each element; O_p(F) gets one, by strongly closed central
series.  They are compared with ``centre_of`` and ``o_p``.  Saturation gets the plain Roberts-Shpectorov scan over every
member of every class and every isomorphism onto it, to compare with
``is_saturated`` and ``is_receptive``, and full normalization the scan of
N_P over every member of a class, as the library did before each class
recorded its fully normalized member.
The multiplication table, the homomorphism witness of ``Morphism.build``,
normalizers and the strongly closed subgroups are also computed one element
at a time, as the library did before it read whole table rows and tested
only generators, and ``Subgroup.generators`` closes each span from scratch.
F_P(G) is also built from every element's whole conjugation row, and
``validate_fusion`` run on whole mapping tuples, as the library did before
it read maps off their images of generators.  ``generated_fusion`` also
closes by queueing every map and restricting to every proper subgroup, and
O^{p'}(E) is also built from the permutation groups of ``AutGroup``, as the
library did before it closed over a closed table.  The maximal subgroups of
each subgroup of a p-group are also found by containment, over every pair
of subgroups, where ``generated_fusion`` and ``validate_fusion`` read them
from the layer build.  Generated subgroups are
closed by a breadth-first search, normality is tested on every pair of
elements, and maps are moved along an isomorphism one at a time by sorting
their pairs, as the library did before ``subgroup_closure`` became a coset
search, ``is_normal_in`` read generators and ``_transport`` moved every map
on a domain at once.  Perfectness is also decided by building F/T and the
inner system of P/T for each candidate T and comparing the two, as the
library did before it read the routes, and the upper central series by
building each quotient F/Z_i(F) and taking its centre by fixed points, as
the library did before it read the F-images of each element.  The
surjectivity property of the Puig criterion is also decided by building
Aut_F(Q) and its normalizers for every Q, as the library did before it
answered at once for Q with Aut_F(Q) = Aut_P(Q), with its own restriction
of maps; and the criterion itself by trying every member of each class,
as the library did before it decided each class on its recorded member.
Aut_S(Q) is also read off the conjugation row of every element of N_S(Q),
found by ``normalizer``, and N_phi by testing every element of N_P(S), as
the library did before it kept Inn(P), one row per coset of Z(P).  The
weakly normal map check and completion are kept as they were before each
strongly closed T got its layout, built once per (F, T): each call rescans
P's lattice for the subgroups of T, the fully normalized ones and
``partial_domain``, and moves every value along the routes with a fresh
index.  Isomorphisms between subgroups are also searched for by closing
each partial map under the products of all pairs of its elements, as the
library did before it extended each choice along generator edges.  The
span of a set of automorphisms is also closed by a breadth-first loop of
its own, C(H) tested against every element of H, and the upper central
series of a group against every element of the group, as the library did
before ``fusion._generators`` called ``groups._closure`` and the two
group-wide tests read generators.
"""

from __future__ import annotations

from fusionkit import (
    AutGroup,
    AutMap,
    FusionSystem,
    Group,
    MapVerdict,
    Morphism,
    SaturationVerdict,
    Subgroup,
    commutator_subgroup,
    extend_morphism,
    fusion_of_group,
    generated_fusion,
    group_centre,
    inner_fusion,
    is_fully_automized,
    is_strongly_closed,
    quotient,
    quotient_with_data,
    strongly_closed_subgroups,
)
from fusionkit.errors import (
    FusionkitError,
    InconsistentPartial,
    NotASubgroup,
    NotASubgroupOfP,
    NotStronglyClosed,
    OrderBoundExceeded,
    PreconditionFailed,
    SeedNotInjective,
)
from fusionkit.fusion import _iso_table, _routes
from fusionkit.groups import (
    _as_subgroup,
    _conj_rows,
    _picker,
    _require_subgroup_of,
    all_subgroups,
    centralizer,
    is_p_power,
    normalizer,
    p_part,
)
from fusionkit.morphisms import (
    Key, _aut_subgroup, _inverse, _positions, _restricted, _restriction, _transport
)
from fusionkit.normal_maps import _first_disagreement, _transported
from fusionkit.perms import perm_mul
from fusionkit.saturation import has_surjectivity_property, normalizer_map
from fusionkit.subsystems import _local_is_all

RawIso = tuple[tuple[int, ...], tuple[int, ...]]


def oracle_subgroup_sets(P: Subgroup) -> set[frozenset[int]]:
    """Every subgroup of P, as element sets, by subset closure."""
    G = P.group
    found: set[frozenset[int]] = set()
    frontier = {frozenset((G.identity,))}
    while frontier:
        current = frontier.pop()
        if current in found:
            continue
        found.add(current)
        for g in P.elements:
            if g in current:
                continue
            grown = set(current)
            grown.add(g)
            changed = True
            while changed:
                changed = False
                for a in tuple(grown):
                    inv = G.inv(a)
                    if inv not in grown:
                        grown.add(inv)
                        changed = True
                    for b in tuple(grown):
                        prod = G.mul(a, b)
                        if prod not in grown:
                            grown.add(prod)
                            changed = True
            frontier.add(frozenset(grown))
    return found


def oracle_subgroup_count(P: Subgroup) -> int:
    return len(oracle_subgroup_sets(P))


def maximal_subgroups_by_containment(P: Subgroup) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The keys of the maximal subgroups of each subgroup Q of the p-group
    P, in lattice order: every S of P's lattice with S < Q and |Q:S| = p,
    found by a walk over every pair of subgroups."""
    lattice = all_subgroups(P)
    p = len(lattice[1]) if len(lattice) > 1 else 1
    return {Q.key: [S.key for S in lattice if len(S) * p == len(Q) and S < Q] for Q in lattice}


def _raw(domain: tuple[int, ...], images: dict[int, int]) -> RawIso:
    return (domain, tuple(images[x] for x in domain))


def _raw_of_morphism(m: Morphism) -> RawIso:
    return (m.domain.elements, m.mapping)


def _invert(iso: RawIso) -> RawIso:
    dom, img = iso
    pairs = sorted(zip(img, dom))
    return (tuple(x for x, _ in pairs), tuple(y for _, y in pairs))


def _compose(first: RawIso, second: RawIso) -> RawIso | None:
    """first followed by second, when the image of first is the domain of
    second as a set."""
    dom1, img1 = first
    dom2, img2 = second
    if set(img1) != set(dom2):
        return None
    lookup = dict(zip(dom2, img2))
    return (dom1, tuple(lookup[y] for y in img1))


def _restrictions(iso: RawIso, subgroup_sets: set[frozenset[int]]) -> list[RawIso]:
    dom, img = iso
    lookup = dict(zip(dom, img))
    out = []
    for sub in subgroup_sets:
        if sub < set(dom):
            restricted = tuple(sorted(sub))
            out.append((restricted, tuple(lookup[x] for x in restricted)))
    return out


def _close(
    seed: set[RawIso], subgroup_sets: set[frozenset[int]]
) -> frozenset[RawIso]:
    closed = set(seed)
    frontier = list(seed)
    while frontier:
        iso = frontier.pop()
        candidates = [_invert(iso)]
        candidates.extend(_restrictions(iso, subgroup_sets))
        for other in tuple(closed):
            for combo in (_compose(iso, other), _compose(other, iso)):
                if combo is not None:
                    candidates.append(combo)
        for cand in candidates:
            if cand not in closed:
                closed.add(cand)
                frontier.append(cand)
    return frozenset(closed)


def _inner_seed(T: Subgroup, subgroup_sets: set[frozenset[int]]) -> set[RawIso]:
    G = T.group
    seed: set[RawIso] = set()
    for sub in subgroup_sets:
        dom = tuple(sorted(sub))
        for t in T.elements:
            seed.add((dom, tuple(G.conj(x, t) for x in dom)))
    return seed


def oracle_subsystem_tables(F: FusionSystem, T: Subgroup) -> set[frozenset[RawIso]]:
    """Every subsystem of F on the carrier T, as closed sets of raw tables."""
    subgroup_sets = oracle_subgroup_sets(T)
    pool = {
        _raw_of_morphism(m)
        for Q in F.subgroups()
        if Q <= T
        for m in F.isos_from(Q)
        if m.codomain <= T
    }
    base = _close(_inner_seed(T, subgroup_sets), subgroup_sets)
    found = {base}
    frontier = [base]
    while frontier:
        current = frontier.pop()
        for iso in pool:
            if iso in current:
                continue
            grown = _close(set(current) | {iso}, subgroup_sets)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return found


def system_table(E: FusionSystem) -> frozenset[RawIso]:
    """The raw-table form of a library fusion system, for comparison."""
    return frozenset(_raw_of_morphism(m) for m in E.all_isos())


def system_from_table(F: FusionSystem, T: Subgroup, table: frozenset[RawIso]):
    """Rebuild a library system from a raw table (tables are already closed,
    so generation adds nothing; asserted by the caller via system_table)."""
    G = F.group
    isos = [
        Morphism(Subgroup(G, set(dom)), Subgroup(G, set(img)), img)
        for dom, img in table
    ]
    return generated_fusion(T, F.p, isos)


def centre_by_fixed_points(F: FusionSystem) -> Subgroup:
    """Z(F) of a saturated F as the central elements of P fixed by every
    morphism whose domain contains them."""
    fixed = [
        x
        for x in group_centre(F.P).elements
        if all(phi.apply(x) == x for phi in F.all_isos() if x in phi.domain)
    ]
    return Subgroup(F.group, fixed, check=True)


def centre_by_local_tests(F: FusionSystem) -> Subgroup:
    """Z(F) of a saturated F as the library decided it before it read the
    F-images of each element: each x in Z(P) qualifies when F = C_F(<x>),
    the local test on the routes with the identity of <x> as the only
    allowed restriction."""
    G = F.group
    fixed = [G.identity]
    for x in group_centre(F.P).elements:
        if x != G.identity:
            X = G.generated_subgroup((x,))
            if _local_is_all(F, X, frozenset({X.elements})):
                fixed.append(x)
    return Subgroup(G, fixed, check=True)


def upper_central_series_by_quotients(F: FusionSystem) -> tuple[Subgroup, ...]:
    """Z_1(F), Z_2(F), ... of a saturated F as the library computed them
    before it read the F-images of each element: each term is the preimage
    of the centre of the quotient by the one before, built whole with
    ``quotient_with_data``, with every centre taken by fixed points."""
    terms = [centre_by_fixed_points(F)]
    while len(terms[-1]) < len(F.P):
        Fbar, qd = quotient_with_data(F, terms[-1])
        nxt = qd.preimage(centre_by_fixed_points(Fbar))
        if nxt.elements == terms[-1].elements:
            break
        terms.append(nxt)
    return tuple(terms)


def o_p_by_central_series(F: FusionSystem) -> Subgroup:
    """O_p(F) of a saturated F as the largest strongly closed subgroup with
    a central series whose terms are all strongly closed."""
    closed = strongly_closed_subgroups(F)
    best = Subgroup(F.group, (F.group.identity,), check=False)
    for T in closed:
        chain = [S for S in closed if S <= T]
        reachable = {chain[0].key}
        changed = True
        while changed:
            changed = False
            for S in chain:
                if S.key in reachable:
                    continue
                for below in chain:
                    if below.key in reachable and below <= S:
                        comms = {
                            F.group.comm(x, t) for x in S.elements for t in T.elements
                        }
                        if below.contains_all(comms):
                            reachable.add(S.key)
                            changed = True
                            break
        if T.key in reachable and len(T) > len(best):
            best = T
    return best


def _fully_automized(F: FusionSystem, Q: Subgroup) -> bool:
    """Aut_P(Q), found by conjugating Q by every element of P, is a Sylow
    p-subgroup of Aut_F(Q)."""
    G = F.group
    aut_p = {
        m
        for g in F.P.elements
        if set(m := tuple(G.conj(x, g) for x in Q.elements)) == Q._set
    }
    return len(aut_p) == p_part(len(F.iso_mappings(Q, Q)), F.p)


def n_phi_by_every_element(F: FusionSystem, phi: Morphism) -> Subgroup:
    """N_phi, by moving c_g along phi for every g of P normalizing S."""
    G = F.group
    S, R = phi.domain, phi.image()
    send = dict(zip(S.elements, phi.mapping))
    members = []
    for g in F.P.elements:
        c_g = {x: G.conj(x, g) for x in S.elements}
        if set(c_g.values()) != S._set:
            continue
        moved = {send[x]: send[y] for x, y in c_g.items()}
        if any(moved == {y: G.conj(y, h) for y in R.elements} for h in F.P.elements):
            members.append(g)
    return Subgroup(G, members)


def aut_s_by_normalizer_rows(F: FusionSystem, Q: Subgroup, S: Subgroup) -> frozenset:
    """Aut_S(Q): the conjugation row of each element of N_S(Q), read on Q.
    N_S(Q) is ``normalizer(S, Q)`` when Q <= S, and S ∩ N_P(Q) otherwise."""
    N = normalizer(S, Q) if Q <= S else normalizer(F.P, Q).meet(S)
    return frozenset(map(_picker(Q.elements), _conj_rows(F.group, N.elements).values()))


def n_phi_by_normalizer_scan(F: FusionSystem, phi: Morphism) -> Subgroup:
    """N_phi: each g of N_P(S), found by ``normalizer``, whose conjugation
    row at S's generators is that of a member of Aut_P(S) that phi moves
    into Aut_P(R), both tables from ``aut_s_by_normalizer_rows``."""
    S = phi.domain
    gens = S.generators()
    at_gens = _picker(_positions(S.elements, gens))
    auts = list(aut_s_by_normalizer_rows(F, S, F.P))
    image, moved = _transport(dict(zip(S.elements, phi.mapping)), S.elements, auts)
    target = aut_s_by_normalizer_rows(F, F.subgroup(image), F.P)
    wanted = {at_gens(a) for a, b in zip(auts, moved) if b in target}
    N = normalizer(F.P, S)
    rows, on_gens = _conj_rows(F.group, N.elements), _picker(gens)
    return Subgroup(F.group, [g for g in N.elements if on_gens(rows[g]) in wanted])


def receptive_by_every_iso(F: FusionSystem, R: Subgroup) -> bool:
    """Whether every F-isomorphism onto R, from every member of R's class,
    extends to its N_phi."""
    F.require_in_p(R)
    for S in F.conjugacy_class(R):
        for phi in F.isos_between(S, R):
            if extend_morphism(F, phi, n_phi_by_every_element(F, phi)) is None:
                return False
    return True


def saturated_by_every_member(F: FusionSystem) -> SaturationVerdict:
    """Roberts-Shpectorov criterion, trying every member of every class."""
    for cls in F.classes():
        if not any(
            _fully_automized(F, Q) and receptive_by_every_iso(F, Q) for Q in cls.members
        ):
            return SaturationVerdict(
                False,
                witness=cls.representative,
                reason="class has no fully automized receptive member",
            )
    return SaturationVerdict(True)


def cayley_table_by_perm_mul(G: Group) -> tuple[tuple[int, ...], ...]:
    """G's multiplication table with every entry a product of two
    permutations."""
    return tuple(tuple(G.index_of(perm_mul(a, b)) for b in G.perms) for a in G.perms)


def homomorphism_witness_pairwise(
    domain: Subgroup, codomain: Subgroup, mapping: tuple[int, ...]
) -> tuple[int, int] | None:
    """The first pair (a, b) of domain elements, in row-major order, with
    f(ab) != f(a)f(b), one product at a time; None when there is none."""
    Gd, Gc = domain.group, codomain.group
    image = dict(zip(domain.elements, mapping))
    for a in domain.elements:
        for b in domain.elements:
            if image.get(Gd.mul(a, b)) != Gc.mul(image[a], image[b]):
                return (a, b)
    return None


def closure_by_breadth_first(group: Group, indices) -> Subgroup:
    """The subgroup generated by ``indices``: every product of them, found
    by a breadth-first search that multiplies each new element on the right
    by each generator.  Closure under inverses follows from finiteness."""
    gens = list(dict.fromkeys(indices))
    span = {group.identity, *gens}
    frontier = [g for g in gens if g != group.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in span:
                    span.add(y)
                    new.append(y)
        frontier = new
    return Subgroup(group, span, check=False)


def is_normal_by_every_pair(H: Subgroup, K: Subgroup) -> bool:
    """Whether H <= K and every element of K conjugates every element of H
    into H."""
    G = H.group
    return H <= K and all(G.conj(x, g) in H for g in K.elements for x in H.elements)


def transport_pairwise(send: dict[int, int], domain: tuple, mapping: tuple) -> RawIso:
    """One map moved along the isomorphism ``send``: the sorted image of
    its domain, and the moved map aligned to it, by sorting its pairs."""
    pairs = sorted((send[x], send[y]) for x, y in zip(domain, mapping))
    return tuple(x for x, _ in pairs), tuple(y for _, y in pairs)


def generators_by_closure(H: Subgroup) -> tuple[int, ...]:
    """``Subgroup.generators`` with every span closed from scratch: the
    elements of H by decreasing order, then index, each taken when the
    span of those taken before misses it."""
    G = H.group
    chosen: list[int] = []
    span = {G.identity}
    for x in sorted(H.elements, key=lambda i: (-G.element_order(i), i)):
        if x not in span:
            chosen.append(x)
            span = set(closure_by_breadth_first(G, chosen).elements)
    return tuple(chosen)


def normalizer_by_every_element(container: Subgroup, H: Subgroup) -> Subgroup:
    """The g in ``container`` that conjugate every element of H into H."""
    G = H.group
    members = [g for g in container.elements if all(G.conj(x, g) in H for x in H.elements)]
    return Subgroup(G, members, check=False)


def fully_normalized_by_scan(F: FusionSystem, Q: Subgroup) -> bool:
    """Whether no member of Q's class has a larger N_P than Q, each N_P
    found one element at a time."""
    n = len(normalizer_by_every_element(F.P, Q))
    return all(len(normalizer_by_every_element(F.P, R)) <= n for R in F.conjugacy_class(Q))


def strongly_closed_by_each_subgroup(F: FusionSystem) -> list[Subgroup]:
    """The subgroups T of P that no F-isomorphism moves out of themselves,
    each T checked against every isomorphism in turn."""
    maps = [dict(zip(phi.domain.elements, phi.mapping)) for phi in F.all_isos()]

    def closed(T: Subgroup) -> bool:
        return all(f[x] in T for f in maps for x in T.elements if x in f)

    return [T for T in F.subgroups() if closed(T)]


def fusion_by_every_element(container: Subgroup, P: Subgroup) -> dict:
    """The iso table of F_P(container): for every subgroup Q of P, the
    whole conjugation row x -> x^g of every g in the container read at Q,
    kept when it lands in P, bucketed by sorted image and sorted."""
    G = P.group
    rows = [tuple(G.conj(x, g) for x in range(len(G))) for g in container.elements]
    table = {}
    for Q in all_subgroups(P):
        targets: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for m in map(_picker(Q.elements), rows):
            if P.contains_all(m):
                targets.setdefault(tuple(sorted(m)), set()).add(m)
        table[Q.key] = {rk: tuple(sorted(ms)) for rk, ms in sorted(targets.items())}
    return table


def validate_fusion_by_full_tuples(F: FusionSystem) -> None:
    """``validate_fusion`` on whole mappings: the homomorphism law of every
    stored mapping through ``Morphism.build``, and every inner, inverse,
    restricted and composite mapping looked up in one set of all mappings
    per domain."""
    subgroup_keys = {S.key for S in F.subgroups()}
    pset = F.P._set
    if set(F._isos) != subgroup_keys:
        raise FusionkitError("iso table does not range over the subgroups of P")
    for qk, targets in F._isos.items():
        Q = F.subgroup(qk)
        for rk, ms in targets.items():
            if rk not in subgroup_keys:
                raise FusionkitError("target is not a subgroup of P", witness=rk)
            for m in ms:
                if tuple(sorted(m)) != rk:
                    raise FusionkitError("mapping does not match its target key", witness=m)
                Morphism.build(Q, F.subgroup(rk), m)
    stored = {qk: {m for ms in targets.values() for m in ms} for qk, targets in F._isos.items()}
    G = F.group
    rows = [tuple(G.conj(x, g) for x in range(len(G))) for g in F.P.elements]
    for Q in F.subgroups():
        for mapping in map(_picker(Q.elements), rows):
            if not pset.issuperset(mapping):
                raise FusionkitError("P is not closed under its own conjugation")
            if mapping not in stored[Q.key]:
                raise FusionkitError("inner fusion missing", witness=(Q.key, mapping))
    for qk, targets in F._isos.items():
        qset = set(qk)
        contained = [
            (sk, _picker(_positions(qk, sk))) for sk in F._isos if sk != qk and qset.issuperset(sk)
        ]
        for rk, ms in targets.items():
            for m in ms:
                if _inverse(qk, m) not in stored[rk]:
                    raise FusionkitError("not closed under inversion", witness=m)
                for sk, on_sk in contained:
                    if on_sk(m) not in stored[sk]:
                        raise FusionkitError("not closed under restriction", witness=(m, sk))
                then = _picker(_positions(rk, m))
                for ms2 in F._isos[rk].values():
                    for m2 in ms2:
                        if then(m2) not in stored[qk]:
                            raise FusionkitError("not closed under composition", witness=(m, m2))


def generated_fusion_by_full_closure(P: Subgroup, p: int, seeds) -> FusionSystem:
    """``generated_fusion`` as the library closed it before it started from
    a closed table: every seed is checked whole, through ``Morphism.build``,
    every map of P's inner fusion and every seed goes through the queue, and
    each popped map is restricted to every proper subgroup of its domain,
    found by a scan over all pairs of subgroups."""
    isos = {
        qk: {m for ms in targets.values() for m in ms}
        for qk, targets in fusion_of_group(P, p, P)._isos.items()
    }
    lattice = all_subgroups(P)
    contained = {
        Q.key: [(S.key, _positions(Q.key, S.key)) for S in lattice[:i] if S < Q]
        for i, Q in enumerate(lattice)
    }
    into: dict = {qk: [] for qk in isos}
    outof: dict = {qk: [] for qk in isos}
    queue = [(qk, m) for qk, ms in isos.items() for m in ms]

    def push(qkey, mapping):
        if mapping not in isos[qkey]:
            isos[qkey].add(mapping)
            queue.append((qkey, mapping))

    for phi in seeds:
        if phi.domain.group != P.group or not phi.domain <= P:
            raise NotASubgroupOfP("seed domain not inside P", witness=phi)
        if not P.contains_all(phi.mapping):
            raise NotASubgroupOfP("seed image not inside P", witness=phi)
        if len(set(phi.mapping)) != len(phi.mapping):
            raise SeedNotInjective("seed is not injective", witness=phi)
        Morphism.build(phi.domain, P, phi.mapping)
        push(phi.domain.key, phi.mapping)
    while queue:
        qkey, mapping = queue.pop()
        rkey = tuple(sorted(mapping))
        then = _positions(rkey, mapping)
        into[rkey].append((qkey, then))
        outof[qkey].append(mapping)
        push(rkey, _inverse(qkey, mapping))
        for skey, idx in contained[qkey]:
            push(skey, _picker(idx)(mapping))
        for m2 in outof[rkey]:
            push(qkey, _picker(then)(m2))
        for skey, idx in into[qkey]:
            push(skey, _picker(idx)(mapping))
    return FusionSystem(P.group, P, p, _iso_table(isos))


def o_p_prime_by_aut_groups(E: FusionSystem) -> FusionSystem:
    """O^{p'}(E) from its definition on permutation groups of
    automorphisms.  O^{p'}_*(E) is generated by, for each Q, the subgroup
    of Aut_E(Q) generated by its elements of p-power order.  O^{p'}(E) is
    generated by O^{p'}_*(E) and Aut^0_E(T), the subgroup of Aut_E(T)
    generated by the automorphisms whose restriction to some E-centric Q
    is a morphism of O^{p'}_*(E); Q is E-centric when C_T(R) <= R for
    every image R of Q."""
    seeds = []
    for Q in E.subgroups():
        ag = AutGroup(Q, E.isos_between(Q, Q))
        powers = [i for i in range(len(ag)) if is_p_power(ag.group.element_order(i), E.p)]
        seeds.extend(ag.morphisms_of(ag.group.generated_subgroup(powers)))
    star = generated_fusion(E.P, E.p, seeds)
    T = E.P
    centric = [
        Q for Q in E.subgroups()
        if all(centralizer(T, R) <= R for R in (phi.image() for phi in E.isos_from(Q)))
    ]
    aut_t = AutGroup(T, E.isos_between(T, T))
    zero = [
        i for i, alpha in enumerate(aut_t.morphisms)
        if any(star.contains_morphism(alpha.restrict(Q)) for Q in centric)
    ]
    seeds.extend(aut_t.morphisms_of(aut_t.group.generated_subgroup(zero)))
    return generated_fusion(T, E.p, seeds)


def perfect_by_quotients(F: FusionSystem) -> bool:
    """Whether F is perfect, as the library decided it before it read the
    routes: no proper strongly closed T containing [P, P] has F/T equal to
    the inner system of P/T, both built and compared whole."""
    derived = commutator_subgroup(F.P, F.P, F.P)
    quotients = (
        quotient(F, T)
        for T in strongly_closed_subgroups(F)
        if len(T) < len(F.P) and derived <= T
    )
    return all(Fbar != inner_fusion(Fbar.P, F.p) for Fbar in quotients)


def surjectivity_by_aut_groups(F: FusionSystem, Q: Subgroup) -> bool:
    """Whether Aut_F(Q <= R) -> N_{Aut_F(Q)}(Aut_R(Q)) is onto for every R
    between QC_P(Q) and N_P(Q), with Aut_F(Q) and each normalizer built
    whole for every Q, the R read off N_P(Q)'s own lattice, and the
    restrictions from R by ``restrictions_by_elements``."""
    F.require_in_p(Q)
    A, lo = F.aut_group(Q), Q.join(F.c_p(Q))
    for R in (R for R in all_subgroups(F.n_p(Q)) if lo <= R):
        aut_r = _aut_subgroup(A, F.aut_mappings_of_conjugation(Q, R))
        needed = normalizer(A.group.full_subgroup, aut_r)
        restrictions = restrictions_by_elements(F, R, Q)
        if not {A.morphisms[i].mapping for i in needed.elements} <= restrictions:
            return False
    return True


def restrictions_by_elements(F: FusionSystem, R: Subgroup, Q: Subgroup) -> set[Key]:
    """The restrictions to Q <= R of the F-automorphisms of R that map Q
    onto itself, each image looked up one element at a time."""
    at = {x: i for i, x in enumerate(R.elements)}
    restrictions = set()
    for m in F.iso_mappings(R, R):
        r = tuple(m[at[x]] for x in Q.elements)
        if set(r) == Q._set:
            restrictions.add(r)
    return restrictions


def saturated_puig_by_every_member(F: FusionSystem) -> SaturationVerdict:
    """The Puig-style criterion as the library decided it before each class
    was decided on its recorded member: every member Q of a class is tried,
    until one is reached from every member's normalizer and has the
    surjectivity property."""
    if not is_fully_automized(F, F.P):
        return SaturationVerdict(False, witness=F.P, reason="P is not fully automized")
    for cls in F.classes():
        ok = False
        for Q in cls.members:
            if all(normalizer_map(F, R, Q) is not None for R in cls.members):
                if has_surjectivity_property(F, Q):
                    ok = True
                    break
        if not ok:
            return SaturationVerdict(
                False,
                witness=cls.representative,
                reason="no member satisfies the normalizer-map and surjectivity conditions",
            )
    return SaturationVerdict(True)


def _hom_extend(
    Gd: Group,
    Gc: Group,
    mapping: dict[int, int],
    used: set[int],
    g: int,
    h: int,
) -> tuple[dict[int, int], set[int]] | None:
    """Extend a partial injective homomorphism by g -> h, closing under
    products; returns None when inconsistent."""
    new_map = dict(mapping)
    new_used = set(used)
    queue = [(g, h)]
    while queue:
        a, b = queue.pop()
        if a in new_map:
            if new_map[a] != b:
                return None
            continue
        if b in new_used:
            return None
        new_map[a] = b
        new_used.add(b)
        for x, y in list(new_map.items()):
            queue.append((Gd.mul(x, a), Gc.mul(y, b)))
            queue.append((Gd.mul(a, x), Gc.mul(b, y)))
    return new_map, new_used


def isomorphisms_by_pair_closure(
    A: Subgroup,
    B: Subgroup,
    *,
    find_all: bool,
    limit: int | None = None,
) -> list[dict[int, int]]:
    """All (or the first) isomorphisms A -> B by generator-image search,
    each choice closed under the products of all pairs of its elements."""
    Gd, Gc = A.group, B.group
    if len(A.elements) != len(B.elements):
        return []
    orders_a = sorted(Gd.element_order(x) for x in A.elements)
    orders_b = sorted(Gc.element_order(x) for x in B.elements)
    if orders_a != orders_b:
        return []
    gens = A.generators()
    by_order: dict[int, list[int]] = {}
    for x in B.elements:
        by_order.setdefault(Gc.element_order(x), []).append(x)
    results: list[dict[int, int]] = []

    def rec(i: int, mapping: dict[int, int], used: set[int]):
        if i == len(gens):
            if len(mapping) == len(A.elements):
                results.append(mapping)
                if limit is not None and len(results) > limit:
                    raise OrderBoundExceeded(
                        f"automorphism count exceeds bound {limit}"
                    )
            return
        g = gens[i]
        for h in by_order.get(Gd.element_order(g), []):
            ext = _hom_extend(Gd, Gc, mapping, used, g, h)
            if ext is None:
                continue
            rec(i + 1, ext[0], ext[1])
            if results and not find_all:
                return

    base = {A.group.identity: B.group.identity}
    rec(0, base, {B.group.identity})
    return results


def partial_domain_by_scan(F: FusionSystem, T: Subgroup) -> tuple[Subgroup, ...]:
    """``partial_domain``, by a scan of P's lattice on every call."""
    T = F.require_in_p(T)
    return tuple(
        Q
        for Q in F.subgroups()
        if Q <= T and F.is_fully_normalized(Q) and F.c_p(Q).meet(T) <= Q
    )


def _with_centralizer(F: FusionSystem, Q: Subgroup, T: Subgroup) -> Subgroup:
    """Q C_T(Q), joined on every call."""
    return Q.join(F.c_p(Q).meet(T))


def _moved_on_routes(routes, values) -> dict | None:
    """For each class whose Q0 has a value, that value moved along the
    routes to every member; None when a member that has a value, Q0 among
    them, gets a different one."""
    moved = {}
    for Q0, class_routes in routes:
        if Q0.key not in values:
            continue
        for R, t in class_routes:
            moved[R.key] = value = _transported(Q0, values[Q0.key], t)
            if values.get(R.key, value) != value:
                return None
    return moved


def check_weakly_normal_map_per_call(F: FusionSystem, A: AutMap) -> MapVerdict:
    """``check_weakly_normal_map`` as it was before T's layout, with
    ``partial_domain_by_scan`` for ``partial_domain``: what depends on
    (F, T) alone is found again on every call."""
    T = F.require_in_p(A.T)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("the map must live on a strongly closed subgroup", witness=T)
    subs = [Q for Q in F.subgroups() if Q <= T]
    if set(A.assignment) != {Q.key for Q in subs}:
        raise PreconditionFailed("assignment must cover exactly the subgroups of T")
    a_subgroups = {}
    for Q in subs:
        allowed = set(F.iso_mappings(Q, Q))
        if not A.assignment[Q.key] <= allowed:
            raise PreconditionFailed(
                "A(U) must be contained in Aut_F(U)", witness=Q
            )
        try:
            a_subgroups[Q.key] = _aut_subgroup(F.aut_group(Q), A.assignment[Q.key], check=True)
        except NotASubgroup:
            raise PreconditionFailed(
                "A(U) must be a subgroup of Aut_F(U)", witness=Q
            ) from None

    # (i) A(U phi) = A(U)^phi for every F-isomorphism phi with domain in T.
    if _moved_on_routes(_routes(F), A.assignment) is None:
        return MapVerdict(
            False,
            axiom="i",
            reason="conjugation transport disagrees with the assignment",
            witness=_first_disagreement(F, subs, A.assignment),
        )

    fully_normalized = [Q for Q in subs if F.is_fully_normalized(Q)]

    # (ii) Aut_T(U) <= A(U) for fully normalized U.
    for Q in fully_normalized:
        if not F.aut_mappings_of_conjugation(Q, T) <= A.assignment[Q.key]:
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
    # for fully normalized U.
    for Q in fully_normalized:
        V = _with_centralizer(F, Q, T)
        restrictions = _restricted(_restriction(V, Q), A.assignment[V.key])
        missing = A.assignment[Q.key] - restrictions
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
    # V <= T, so V <= N_P(U) is V <= N_T(U).  Aut_V(U) is a group by construction.
    for Q in partial_domain_by_scan(F, T):
        ag, N, a_pos = F.aut_group(Q), F.n_p(Q), a_subgroups[Q.key]
        for V in (V for V in subs if Q <= V <= N):
            autv_pos = _aut_subgroup(ag, F.aut_mappings_of_conjugation(Q, V))
            needed = {
                m.mapping for m in ag.morphisms_of(normalizer(a_pos, autv_pos))
            }
            got = _restricted(_restriction(V, Q), A.assignment[V.key])
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


def complete_partial_map_per_call(F: FusionSystem, T: Subgroup, partial) -> AutMap:
    """``complete_partial_map`` as it was before T's layout, with
    ``partial_domain_by_scan`` for ``partial_domain``."""
    T = F.require_in_p(T)
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("the map must live on a strongly closed subgroup", witness=T)
    if isinstance(partial, AutMap):
        given = {k: frozenset(v) for k, v in partial.assignment.items()}
    else:
        given = {k: frozenset(v) for k, v in dict(partial).items()}
    domain = partial_domain_by_scan(F, T)
    if set(given) != {Q.key for Q in domain}:
        raise PreconditionFailed(
            "partial map must be defined exactly on the fully normalized "
            "subgroups of T that contain their T-centralizer"
        )

    subs = [Q for Q in F.subgroups() if Q <= T]
    assigned: dict[Key, frozenset[Key]] = {}
    for size in sorted({len(Q) for Q in subs}, reverse=True):
        layer = [Q for Q in subs if len(Q) == size]
        normalized = [Q for Q in layer if F.is_fully_normalized(Q)]
        for Q in normalized:
            if Q.key in given:
                assigned[Q.key] = given[Q.key]
            else:
                V = _with_centralizer(F, Q, T)
                assigned[Q.key] = _restricted(_restriction(V, Q), assigned[V.key])
        values = {Q.key: assigned[Q.key] for Q in normalized}
        moved = _moved_on_routes(_routes(F), values)
        bad = _first_disagreement(F, normalized, assigned) if moved is None else None
        if bad:
            raise InconsistentPartial(
                "conjugation transport disagrees between two routes",
                witness=(bad[0], bad[1].codomain),
            )
        assigned.update(moved or {})
        for Q in layer:
            if Q.key not in assigned:
                raise PreconditionFailed(
                    "a subgroup of T has no fully normalized conjugate",
                    witness=Q,
                )
    return AutMap(T, assigned)


def generators_by_breadth_first(domain: Key, auts) -> tuple[list[Key], set[Key]]:
    """``fusion._generators`` with its own breadth-first closure of each
    span: the generators it picks, each mapping in order that the span of
    those taken before misses, and the span of ``auts``."""
    span: set[Key] = {tuple(range(len(domain)))}
    gens: list[Key] = []
    for perm in (_positions(domain, m) for m in auts):
        if perm not in span:
            gens.append(perm)
            reached = list(span)
            for x in reached:
                # x then s sends position i to s[x[i]]
                new = {tuple(map(s.__getitem__, x)) for s in gens} - span
                span |= new
                reached += new
    return [_picker(g)(domain) for g in gens], span


def centralizer_by_every_element(container: Group | Subgroup, H: Subgroup) -> Subgroup:
    """C(H) inside ``container``, each g tested against every element of H."""
    amb = _require_subgroup_of(H, container)
    G = H.group
    members = []
    for g in amb.elements:
        row = G._mul[g]
        if all(row[x] == G._mul[x][g] for x in H.elements):
            members.append(g)
    return Subgroup(G, members, check=False)


def upper_central_series_by_every_element(container: Group | Subgroup) -> list[Subgroup]:
    """[Z_1, Z_2, ...] of a group up to stabilization, each [g, x] tested
    for every x in ``container``."""
    amb = _as_subgroup(container)
    G = amb.group
    series: list[Subgroup] = []
    current = {G.identity}
    while True:
        nxt = [
            g
            for g in amb.elements
            if all(G.comm(g, x) in current for x in amb.elements)
        ]
        term = Subgroup(G, nxt, check=False)
        if series and term.elements == series[-1].elements:
            break
        series.append(term)
        if len(term.elements) == len(amb.elements):
            break
        current = term._set
    return series
