"""Fusion systems on finite p-groups, stored as closed categories.

A :class:`FusionSystem` on a p-group P keeps, for every pair of
subgroups Q, R of P, the isomorphisms Q -> R belonging to the system;
general morphisms Q -> R are recovered as isomorphisms onto their images
followed by inclusions, which is exactly the divisibility axiom.  The
stored data is a nested dict ``isos[qkey][rkey] = (mapping, ...)`` where
``qkey``/``rkey`` are sorted element-index tuples and each ``mapping``
is aligned to the sorted domain.  All stored families contain the inner
fusion of P and are closed under composition, restriction, and
inversion.

Internal code reads and builds these tables as bare mapping tuples, with
the helpers of :mod:`fusionkit.morphisms` and the one table constructor
``_iso_table``, which ``fusion_of_group`` skips by bucketing its maps by
image as it makes them; :class:`~fusionkit.morphisms.Morphism` objects
are made only where a public method hands a map to its caller.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import (
    FusionkitError,
    NotAPGroup,
    NotASubgroup,
    NotASubgroupOfP,
    NotStronglyClosed,
    NotSylow,
    OrderBoundExceeded,
    ParseError,
    PrimeMismatch,
    SeedNotInjective,
)
from .groups import (
    _DOCUMENT_MAX,
    Group,
    QuotientData,
    Subgroup,
    _as_subgroup,
    _closure,
    _conj_rows,
    _inn,
    _lattice_member,
    _maximal_subgroups,
    _p_normalizer,
    _picker,
    _subgroup_index,
    all_subgroups,
    coset_quotient,
    direct_product_groups,
    ensure_prime,
    is_sylow_in,
    sylow,
)
from .morphisms import (
    AutGroup,
    Key,
    Morphism,
    _hom_test,
    _inverse,
    _isomorphisms,
    _positions,
    _restrict,
    _transport,
)
from .perms import format_cycles, parse_cycles, perm_from_cycles

IsoTable = dict[Key, dict[Key, tuple[Key, ...]]]


@dataclass(frozen=True)
class ConjClass:
    """An F-conjugacy class of subgroups, with its least member first, and
    ``normalized``, its first member with the largest N_P."""

    members: tuple[Subgroup, ...]
    normalized: Subgroup

    @property
    def representative(self) -> Subgroup:
        return self.members[0]

    def __iter__(self) -> Iterator[Subgroup]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class FusionSystem:
    """A fusion system on the p-group ``P`` inside the ambient ``group``."""

    __slots__ = ("group", "P", "p", "name", "_isos", "_cache")

    def __init__(
        self,
        group: Group,
        P: Subgroup,
        p: int,
        isos: IsoTable,
        *,
        name: str | None = None,
    ):
        ensure_prime(p)
        if P.group != group:
            raise NotASubgroup("P must be a subgroup of the ambient group")
        if not P.is_p_group(p):
            raise NotAPGroup(f"P has order {len(P)}, not a power of {p}")
        self.group = group
        self.P = P
        self.p = p
        self.name = name
        self._isos = isos
        self._cache: defaultdict[str, dict] = defaultdict(dict)

    def _fact(self, name: str, Q: Subgroup | None, compute, *args, within: Subgroup | None = None):
        """The one memo of this system's facts: ``compute(*args)``, kept in
        one dict per fact ``name`` under Q's key, or the pair of keys for a
        fact about Q ``within`` a second subgroup; Q None stands for the
        whole system.  No fact is None, a fact about another ``Group`` object's
        subgroup is not kept, and the computes of the facts that are subgroups
        of P (``n_p``, ``c_p``) return P's lattice's own objects, as
        ``test_subgroups_of_p_that_a_system_hands_out_are_the_lattice_objects`` checks."""
        G = self.P.group
        if Q is not None and Q.group is not G or within is not None and within.group is not G:
            return compute(*args)
        memo = self._cache[name]
        key = None if Q is None else Q.key if within is None else (within.key, Q.key)
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(*args)
        return value

    # -- basic queries -------------------------------------------------

    def subgroups(self) -> tuple[Subgroup, ...]:
        return self._fact("subgroups", None, all_subgroups, self.P)

    def subgroup(self, key: Key) -> Subgroup:
        """The subgroup of P with element key ``key``, as P's lattice's own object."""
        try:
            return _lattice_member(self.P, key)
        except KeyError:
            raise NotASubgroupOfP("not a subgroup of P", witness=key) from None

    def require_in_p(self, Q: Subgroup) -> Subgroup:
        if Q.group != self.group or not Q <= self.P:
            raise NotASubgroupOfP("not a subgroup of P", witness=Q)
        return Q

    def iso_mappings(self, Q: Subgroup, R: Subgroup) -> tuple[Key, ...]:
        return self._isos.get(Q.key, {}).get(R.key, ())

    def isos_between(self, Q: Subgroup, R: Subgroup) -> tuple[Morphism, ...]:
        self.require_in_p(Q)
        self.require_in_p(R)
        return tuple(Morphism(Q, R, m) for m in self.iso_mappings(Q, R))

    def isos_from(self, Q: Subgroup) -> Iterator[Morphism]:
        self.require_in_p(Q)
        for rkey, mappings in sorted(self._isos.get(Q.key, {}).items()):
            R = self.subgroup(rkey)
            for m in mappings:
                yield Morphism(Q, R, m)

    def all_isos(self) -> Iterator[Morphism]:
        for qkey in sorted(self._isos):
            yield from self.isos_from(self.subgroup(qkey))

    def iso_count(self) -> int:
        return sum(len(ms) for targets in self._isos.values() for ms in targets.values())

    def contains_morphism(self, phi: Morphism) -> bool:
        """Whether phi (as an injective map into P) belongs to the system."""
        if phi.domain.group != self.group or not phi.domain <= self.P:
            return False
        if not self.P.contains_all(phi.mapping):
            return False
        rkey = tuple(sorted(phi.mapping))
        return phi.mapping in self._isos.get(phi.domain.key, {}).get(rkey, ())

    def hom_set(self, Q: Subgroup, R: Subgroup) -> tuple[Morphism, ...]:
        """All morphisms Q -> R, i.e. isomorphisms onto images inside R."""
        self.require_in_p(Q)
        self.require_in_p(R)
        out = []
        for rkey, mappings in sorted(self._isos.get(Q.key, {}).items()):
            if R.contains_all(rkey):
                out.extend(Morphism(Q, R, m) for m in mappings)
        return tuple(sorted(out))

    def _extension(self, D: Subgroup, C: Subgroup, points: Key, accept) -> Key | None:
        """The least mapping of an F-morphism D -> C, in ``hom_set``'s
        order, whose images of ``points`` (elements of D) pass ``accept``;
        None when no mapping does."""
        idx = _positions(D.elements, points)
        cset = C._set
        candidates = sorted(
            m for rk, ms in self._isos.get(D.key, {}).items() if cset.issuperset(rk) for m in ms
        )
        return next((m for m in candidates if accept(_restrict(m, idx))), None)

    def aut_group(self, Q: Subgroup) -> AutGroup:
        self.require_in_p(Q)
        return self._fact("auts", Q, _aut_group, self, Q)

    def aut_mappings_of_conjugation(self, Q: Subgroup, source: Subgroup) -> frozenset[Key]:
        """Mappings of the automorphisms of Q induced by N_source(Q), for a
        ``source`` inside P, computed once per pair of subgroups of P."""
        return self._fact("aut_p", Q, _conjugations, self, Q, source, within=source)

    def n_p(self, Q: Subgroup) -> Subgroup:
        """N_P(Q), read off Inn(P) once per subgroup of P."""
        return self._fact("n_p", Q, _p_normalizer, self.P, Q)

    def c_p(self, Q: Subgroup) -> Subgroup:
        """C_P(Q), read off Inn(P) once per subgroup of P."""
        return self._fact("c_p", Q, _p_normalizer, self.P, Q, True)

    # -- conjugacy classes ----------------------------------------------

    def conjugacy_class(self, Q: Subgroup) -> ConjClass:
        self.require_in_p(Q)
        index = self._fact("class_of", None, _class_index, self)
        try:
            return index[Q.key]
        except KeyError:
            raise NotASubgroupOfP("not a subgroup of P", witness=Q) from None

    def classes(self) -> tuple[ConjClass, ...]:
        return self._fact("classes", None, _classes, self)

    def is_fully_normalized(self, Q: Subgroup) -> bool:
        return len(self.n_p(Q)) == len(self.n_p(self.conjugacy_class(Q).normalized))

    def is_fully_centralized(self, Q: Subgroup) -> bool:
        c = len(self.c_p(Q))
        return all(len(self.c_p(R)) <= c for R in self.conjugacy_class(Q))

    # -- comparisons -----------------------------------------------------

    def to_key(self) -> tuple:
        return self._fact("key", None, _table_key, self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionSystem):
            return NotImplemented
        return self.group == other.group and self.to_key() == other.to_key()

    def __hash__(self) -> int:
        return hash(self.to_key())

    def __repr__(self) -> str:
        label = self.name or f"on {self.P.describe()}"
        return f"FusionSystem({label}, p={self.p}, |P|={len(self.P)}, isos={self.iso_count()})"

    # -- serialization ----------------------------------------------------

    def serialize(self) -> dict:
        data = {
            "schema": "fusionkit-fusion/1",
            "p": self.p,
            "degree": self.group.degree,
            "group": [format_cycles(pm) for pm in self.group.perms],
            "P": list(self.P.elements),
            "isos": [
                [list(qk), [list(m) for rk in sorted(self._isos[qk]) for m in self._isos[qk][rk]]]
                for qk in sorted(self._isos)
            ],
        }
        if self.name:
            data["name"] = self.name
        return data


def _aut_group(F: FusionSystem, Q: Subgroup) -> AutGroup:
    """Aut_F(Q) on P's lattice's own object for Q."""
    Q = F.subgroup(Q.key)
    return AutGroup(Q, [Morphism(Q, Q, m) for m in F.iso_mappings(Q, Q)])


def _conjugations(F: FusionSystem, Q: Subgroup, source: Subgroup) -> frozenset[Key]:
    """Aut_source(Q): the rows of Inn(P) whose coset gZ(P) lies in N_P(Q)
    and meets ``source``, read on Q.  This is exact, as each s in gZ(P)
    conjugates P as g does."""
    F.require_in_p(source)
    nset, sset, on_q = F.n_p(Q)._set, source._set, _picker(Q.elements)
    return frozenset(
        on_q(row) for row, coset in _inn(F.P) if coset[0] in nset and not sset.isdisjoint(coset)
    )


def _class_index(F: FusionSystem) -> dict[Key, ConjClass]:
    return {S.key: c for c in F.classes() for S in c}


def _classes(F: FusionSystem) -> tuple[ConjClass, ...]:
    """The classes in lattice order, their members the lattice's own
    ``Subgroup`` objects, so each member's generators are found once."""
    seen: set[Key] = set()
    out = []
    for key in _subgroup_index(F.P):
        if key not in seen:
            member_keys = sorted(F._isos.get(key, {key: ()}))
            seen.update(member_keys)
            members = tuple(map(F.subgroup, member_keys))
            out.append(ConjClass(members, max(members, key=lambda S: len(F.n_p(S)))))
    return tuple(out)


def _table_key(F: FusionSystem) -> tuple:
    isos = F._isos
    body = tuple((qk, tuple((rk, isos[qk][rk]) for rk in sorted(isos[qk]))) for qk in sorted(isos))
    return (F.p, F.P.key, body)


def deserialize(data: dict) -> FusionSystem:
    """The system ``serialize`` wrote; malformed fields raise ``ParseError``.

    The iso table is checked for shape only: every domain and every mapping
    is a list of element indices of P, and each mapping is as long as its
    domain.  ``validate_fusion`` checks the table against the group."""
    if not isinstance(data, dict):
        raise ParseError("fusion data is not a JSON object")
    if data.get("schema") != "fusionkit-fusion/1":
        raise FusionkitError(f"unknown fusion schema: {data.get('schema')!r}")
    missing = [k for k in ("p", "degree", "group", "P", "isos") if k not in data]
    if missing:
        raise ParseError(f"fusion data is missing {', '.join(missing)}")
    bad = [k for k in ("group", "P", "isos") if not isinstance(data[k], list)]
    if bad:
        raise ParseError(f"fusion data field {', '.join(bad)} is not a list")
    # type(...) is int rather than isinstance, which lets a JSON true through
    bad = [
        k for k, top in _DOCUMENT_MAX.items()
        if type(data[k]) is not int or not 1 <= data[k] <= top
    ]
    if bad:
        raise ParseError(f"fusion data field {', '.join(bad)} is not a positive integer in range")
    degree = data["degree"]
    if not all(isinstance(s, str) for s in data["group"]):
        raise ParseError("fusion data group entries are not cycle strings")
    perms = [perm_from_cycles(parse_cycles(s), degree) for s in data["group"]]
    group = Group(perms, degree, closed=True)
    # every index below names an element of the sorted list, as serialize wrote it
    if group.perms != tuple(perms):
        raise ParseError("fusion data group entries are not the sorted elements of a group")
    if not all(type(x) is int and 0 <= x < len(group) for x in data["P"]):
        raise ParseError("fusion data P entries are not element indices")
    P = Subgroup(group, data["P"])
    pset = P._set
    isos: dict[Key, list[Key]] = {}
    try:
        for qlist, mappings in data["isos"]:
            qk, ms = tuple(qlist), [tuple(m) for m in mappings]
            # type(x) is int: a JSON 1.0 or true equals an index and would pass P's set
            if not {int}.issuperset(map(type, chain(qk, *ms))):
                raise ValueError("an entry holds a value that is not an integer")
            if not pset.issuperset(chain(qk, *ms)):
                raise ValueError("an entry holds an integer that is not an element of P")
            if any(len(m) != len(qk) for m in ms):
                raise ParseError("fusion data iso mapping is not as long as its domain", witness=qk)
            isos.setdefault(qk, []).extend(ms)
    except (TypeError, ValueError):
        raise ParseError(
            "fusion data isos entries are not [domain, mappings] pairs of element indices of P"
        ) from None
    return FusionSystem(group, P, data["p"], _iso_table(isos), name=data.get("name"))


def _iso_table(isos: dict[Key, Iterable[Key]]) -> IsoTable:
    """The stored table of ``{domain key: mappings}``: each domain's
    mappings deduplicated, bucketed by sorted image and sorted.  Domains
    keep their order and stay even when they have no mappings."""
    table: IsoTable = {}
    for qk, mappings in isos.items():
        targets: dict[Key, set[Key]] = {}
        for m in mappings:
            targets.setdefault(tuple(sorted(m)), set()).add(m)
        table[qk] = {rk: tuple(sorted(ms)) for rk, ms in sorted(targets.items())}
    return table


def _routes(F: FusionSystem) -> list[tuple[Subgroup, list[tuple[Subgroup, Key]]]]:
    """For each F-class, its fully normalized member Q0 (``normalized``)
    and the routes from Q0, as (target, mapping) pairs: (Q0, beta) for
    generators beta of Aut_F(Q0), then (R, t_R) with one stored
    F-isomorphism t_R: Q0 -> R for each other member R.

    Every F-isomorphism Q -> R in the class is t_Q^-1 . beta . t_R with beta
    in Aut_F(Q0).  So a condition that holds on a set of isomorphisms closed
    under composition and inverse holds on the whole class exactly when it
    holds on the routes.  A strongly closed T holds every class that meets
    it, so the routes with Q0 <= T serve T.  Computed once per system."""
    return F._fact("routes", None, _find_routes, F)


def _find_routes(F: FusionSystem) -> list[tuple[Subgroup, list[tuple[Subgroup, Key]]]]:
    out = []
    for cls in F.classes():
        Q0 = cls.normalized
        routes = [(Q0, m) for m in _generators(Q0.key, F.iso_mappings(Q0, Q0))[0]]
        routes += [(R, F._isos[Q0.key][R.key][0]) for R in cls if R != Q0]
        out.append((Q0, routes))
    return out


def _generators(
    domain: Key, auts: Iterable[Key], order_bound: int | None = None
) -> tuple[list[Key], set[Key]]:
    """A generating set of the group spanned by the automorphism mappings
    ``auts`` on ``domain``, and that span: each mapping, in order, that the
    span of those taken before it misses.  Spans are closed by
    ``groups._closure`` as permutations of positions, so a set of mappings
    is a group exactly when it is as large as its span; a span that grows
    past ``order_bound`` raises OrderBoundExceeded."""
    span: set[Key] = {tuple(range(len(domain)))}
    gens: list[Key] = []
    at = {x: i for i, x in enumerate(domain)}.__getitem__
    for perm in (tuple(map(at, m)) for m in auts):
        if perm not in span:
            gens.append(perm)
            span = _closure(gens, len(domain), order_bound)
    return [_picker(g)(domain) for g in gens], span


# -- constructors -----------------------------------------------------------


def fusion_of_group(container: Group | Subgroup, p: int, P: Subgroup | None = None) -> FusionSystem:
    """F_P(G): all conjugation maps between subgroups of P by elements of G.

    Q^(rx) = (Q^r)^x, so the g in G with Q^g <= P are a union of left
    cosets rP, and the maps out of Q are the inner maps of P out of each
    S = Q^r <= P, each after c_r on Q.  The inner maps of every S are read
    off Inn(P), one row per coset of Z(P), bucketed by image; the coset P
    itself gives them.  Each Q reads one row per other left coset of P, at Q's
    generators, since a map is fixed by them.  A row that fixes Q's
    generators gives Q's own inner maps again and one that leaves P gives
    none; each other distinct one moves S's buckets along c_r, which keeps
    their image keys, so only the inner maps are sorted by image."""
    ensure_prime(p)
    amb = _as_subgroup(container)
    G = amb.group
    if P is None:
        P = sylow(amb, p)
    else:
        if P.group != G or not P <= amb:
            raise NotASubgroup("P must be a subgroup of the acting group")
        if not is_sylow_in(P, amb, p):
            raise NotSylow(
                f"|P| = {len(P)} is not the {p}-part of |G| = {len(amb)}", witness=P
            )
    lattice = all_subgroups(P)
    P = lattice[-1]
    pset, inner_rows = P._set, [row for row, _ in _inn(P)]
    reps, covered, coset = [], set(), _picker(P.elements)
    for g in amb.elements:
        if g not in covered:
            reps.append(g)
            covered.update(coset(G._mul[g]))
    rows = _conj_rows(G, reps[1:]).values()  # reps[0] is the identity
    inner: dict[Key, dict[Key, list[Key]]] = {}
    moves: dict[Key, list[Key]] = {}
    for Q in lattice:
        gens, on_q = Q.generators(), _picker(Q.elements)
        on_gens = _picker(gens)
        buckets = inner[Q.key] = {}
        for row in dict(zip(map(on_gens, inner_rows), inner_rows)).values():
            m = on_q(row)
            buckets.setdefault(tuple(sorted(m)), []).append(m)
        for images, row in dict(zip(map(on_gens, rows), rows)).items():
            if images != gens and pset.issuperset(images):
                moves.setdefault(Q.key, []).append(on_q(row))
    isos: IsoTable = {}
    for qk, buckets in inner.items():
        if qk in moves:
            buckets = {rk: set(ms) for rk, ms in buckets.items()}
            # two cosets give Q the same maps or none in common
            for m in moves[qk]:
                move = _picker(_positions(S := tuple(sorted(m)), m))
                for rk, ms in inner[S].items():
                    buckets.setdefault(rk, set()).update(map(move, ms))
        isos[qk] = {rk: tuple(sorted(ms)) for rk, ms in sorted(buckets.items())}
    return FusionSystem(G, P, p, isos)


def inner_fusion(container: Group | Subgroup, p: int | None = None) -> FusionSystem:
    """F_P(P) for a p-group P; the prime is inferred when |P| > 1."""
    P = _as_subgroup(container)
    if p is None:
        if P.is_trivial():
            raise NotAPGroup("the trivial group needs an explicit prime")
        p = min(d for d in range(2, len(P) + 1) if len(P) % d == 0)
    if not P.is_p_group(p):
        raise NotAPGroup(f"order {len(P)} is not a power of {p}", witness=P)
    return fusion_of_group(P, p, P)


def generated_fusion(P: Subgroup, p: int, seeds: Iterable[Morphism]) -> FusionSystem:
    """The smallest fusion system on P containing the seed morphisms: the
    closure of P's inner fusion with the seeds, by ``_close``."""
    ensure_prime(p)
    G = P.group
    if not P.is_p_group(p):
        raise NotAPGroup(f"order {len(P)} is not a power of {p}", witness=P)
    pset = P._set

    def checked() -> Iterator[tuple[Key, Key]]:
        for phi in seeds:
            if phi.domain.group != G or not phi.domain <= P:
                raise NotASubgroupOfP("seed domain not inside P", witness=phi)
            if not pset.issuperset(phi.mapping):
                raise NotASubgroupOfP("seed image not inside P", witness=phi)
            if len(set(phi.mapping)) != len(phi.mapping):
                raise SeedNotInjective("seed is not injective", witness=phi)
            yield phi.domain.key, phi.mapping

    table = _close(P, fusion_of_group(P, p, P)._isos, checked())
    return FusionSystem(G, P, p, table)


def _close(P: Subgroup, base: IsoTable, seeds: Iterable[tuple[Key, Key]]) -> IsoTable:
    """The table of the smallest fusion system on the p-group P holding
    the closed table ``base`` and the ``seeds``, injective maps into P as
    (domain key, mapping) pairs.  A seed not yet held is tested against
    the homomorphism law, and ``Morphism.build`` runs only to name a failure.

    Only new maps are queued, and a popped map f: Q -> R is inverted,
    restricted, and followed by every map the table holds out of R.  The
    composites are exact: let x: A -> B and y: B -> C be maps of the
    closure.  Two maps of ``base`` compose inside it, and ``base`` is
    closed under inverses.  If y is in the table when x is popped, x y is
    formed then.  Otherwise y is new and entered later; popping y^-1
    pushes y, so y^-1 is popped no earlier than y entered, when the table
    holds x^-1, pushed by x's pop or in ``base``.  So y^-1 x^-1 is formed
    when y^-1 is popped, and its inverse x y when that composite is
    popped.  A popped map is restricted to the maximal subgroups of its
    domain, as P's lattice recorded them, and those restrictions are
    popped in turn: every S < Q lies on a chain of subgroups each of index
    p in the next.  A domain that gains no map keeps base's buckets."""
    keys, covers = _subgroup_index(P), _maximal_subgroups(P)
    isos: dict[Key, set[Key]] = {
        key: {m for ms in base.get(key, {}).values() for m in ms} for key in keys
    }
    # per domain, on first use: its maximal subgroups with their positions
    maximal: dict[Key, list[tuple[Key, Key]]] = {}
    queue: list[tuple[Key, Key]] = []
    grown: set[Key] = set()

    def push(qkey: Key, mapping: Key) -> None:
        if mapping not in isos[qkey]:
            isos[qkey].add(mapping)
            queue.append((qkey, mapping))
            grown.add(qkey)

    tests: dict[Key, Callable[[Key], bool]] = {}
    for qk, m in seeds:
        if m in isos[qk]:
            continue
        if qk not in tests:
            tests[qk] = _hom_test(_lattice_member(P, qk), P.group)
        if len(m) != len(qk) or not tests[qk](m):
            Morphism.build(_lattice_member(P, qk), P, m)
        push(qk, m)

    while queue:
        qkey, mapping = queue.pop()
        rkey = tuple(sorted(mapping))
        then = _positions(rkey, mapping)
        if qkey not in maximal:
            maximal[qkey] = [(sk, _positions(qkey, sk)) for sk in covers[qkey]]
        push(rkey, _inverse(qkey, mapping))
        for skey, idx in maximal[qkey]:
            push(skey, _restrict(mapping, idx))
        # a snapshot: an automorphism adds to the set it walks
        for m2 in list(isos[rkey]):
            push(qkey, _restrict(m2, then))

    table = _iso_table({qk: isos[qk] for qk in grown})
    return {qk: table[qk] if qk in grown else base.get(qk, {}) for qk in isos}


def is_subsystem(E: FusionSystem, F: FusionSystem) -> bool:
    """Whether every morphism of E is a morphism of F (and E.P ≤ F.P)."""
    if E.group != F.group or E.p != F.p or not E.P <= F.P:
        return False
    for qk, targets in E._isos.items():
        ftargets = F._isos.get(qk, {})
        for rk, ms in targets.items():
            if not set(ms) <= set(ftargets.get(rk, ())):
                return False
    return True


def full_subcategory(F: FusionSystem, S: Subgroup) -> FusionSystem:
    """The subsystem on S whose morphisms are all F-morphisms between
    subgroups of S."""
    F.require_in_p(S)
    sset = S._set
    isos: dict[Key, list[Key]] = {}
    for qk, targets in F._isos.items():
        if not sset.issuperset(qk):
            continue
        kept = [m for rk, ms in targets.items() if sset.issuperset(rk) for m in ms]
        if kept:
            isos[qk] = kept
    return FusionSystem(F.group, S, F.p, _iso_table(isos))


def intersect_raw(E1: FusionSystem, E2: FusionSystem) -> FusionSystem:
    """The categorical intersection E1 ∩ E2 on E1.P ∩ E2.P.

    Always a fusion system (closure properties survive intersection),
    but not saturated in general.
    """
    if E1.group != E2.group:
        raise FusionkitError("intersection needs a common ambient group")
    if E1.p != E2.p:
        raise PrimeMismatch(f"{E1.p} != {E2.p}")
    T = E1.P.meet(E2.P)
    tset = T._set
    isos: dict[Key, list[Key]] = {}
    for qk, targets in E1._isos.items():
        if not tset.issuperset(qk):
            continue
        other = E2._isos.get(qk, {})
        kept = [
            m for rk, ms in targets.items() if tset.issuperset(rk)
            for m in set(ms).intersection(other.get(rk, ()))
        ]
        if kept:
            isos[qk] = kept
    return FusionSystem(E1.group, T, E1.p, _iso_table(isos))


def direct_product(F1: FusionSystem, F2: FusionSystem) -> FusionSystem:
    """F1 x F2 on P1 x P2: restrictions of coordinatewise pairs of morphisms."""
    if F1.p != F2.p:
        raise PrimeMismatch(f"{F1.p} != {F2.p}")
    dpd = direct_product_groups(F1.group, F2.group)
    P = dpd.embed_pair(F1.P, F2.P)
    isos = _product_table(P, dpd.split_index, dpd.pair_index, F1, F2)
    return FusionSystem(dpd.group, P, F1.p, isos)


def internal_direct_product(F: FusionSystem, P1: Subgroup, P2: Subgroup) -> FusionSystem:
    """E1 x E2 inside F's ambient group, where P = P1 x P2 internally and
    E_i is the full subcategory of F on P_i."""
    F.require_in_p(P1)
    F.require_in_p(P2)
    G = F.group
    if not P1.meet(P2).is_trivial():
        raise FusionkitError("factors intersect nontrivially")
    P = P1.join(P2)
    if len(P) != len(P1) * len(P2):
        raise FusionkitError("factors do not span an internal direct product")
    comp1: dict[int, int] = {}
    comp2: dict[int, int] = {}
    for a in P1.elements:
        for b in P2.elements:
            x = G.mul(a, b)
            if G.mul(b, a) != x:
                raise FusionkitError("factors do not commute elementwise")
            comp1[x] = a
            comp2[x] = b
    E1 = full_subcategory(F, P1)
    E2 = full_subcategory(F, P2)
    isos = _product_table(P, lambda x: (comp1[x], comp2[x]), G.mul, E1, E2)
    return FusionSystem(G, P, F.p, isos)


def _product_table(P: Subgroup, split, pair, E1: FusionSystem, E2: FusionSystem) -> IsoTable:
    """The table of E1 x E2 on P: on each Q <= P, every coordinatewise pair
    of an E1-iso and an E2-iso of Q's two projections.  ``split`` gives
    the coordinates of an element of P and ``pair`` rejoins them."""
    isos: dict[Key, set[Key]] = {}
    for Q in all_subgroups(P):
        firsts, seconds = zip(*(split(x) for x in Q.elements))
        q1, q2 = tuple(sorted(set(firsts))), tuple(sorted(set(seconds)))
        idx = list(zip(_positions(q1, firsts), _positions(q2, seconds)))
        maps2 = [m for ms in E2._isos.get(q2, {}).values() for m in ms]
        isos[Q.key] = {
            tuple(pair(m1[i], m2[j]) for i, j in idx)
            for ms in E1._isos.get(q1, {}).values()
            for m1 in ms
            for m2 in maps2
        }
    return _iso_table(isos)


# -- strongly closed subgroups and quotients ---------------------------------


def is_strongly_closed(F: FusionSystem, T: Subgroup) -> bool:
    """Whether no element of T is moved outside T by any F-morphism."""
    F.require_in_p(T)
    images, tset = _images(F), T._set
    return all(images[x] <= tset for x in T.elements)


def _images(F: FusionSystem) -> dict[int, set[int]]:
    """x^F for each x in P: the images of x under every F-isomorphism whose
    domain holds it, x itself among them; collected once per system."""
    return F._fact("images", None, _collect_images, F)


def _collect_images(F: FusionSystem) -> dict[int, set[int]]:
    images: dict[int, set[int]] = {x: set() for x in F.P.elements}
    for qk, targets in F._isos.items():
        mappings = [m for ms in targets.values() for m in ms]
        for x, column in zip(qk, zip(*mappings)):
            images[x].update(column)
    return images


def quotient_with_data(F: FusionSystem, T: Subgroup) -> tuple[FusionSystem, QuotientData]:
    """F/T on P/T for strongly F-closed T, with the coset transport data."""
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed("quotient kernel must be strongly closed", witness=T)
    qd = coset_quotient(F.P, T)
    tset = T._set
    project = qd.project
    isos: dict[Key, set[Key]] = {}
    for qk, targets in F._isos.items():
        if not tset.issubset(qk):
            continue
        qbar = tuple(sorted({project[x] for x in qk}))
        images = isos.setdefault(qbar, set())
        for ms in targets.values():
            for m in ms:
                bar: dict[int, int] = {}
                for x, y in zip(qk, m):
                    c, cy = project[x], project[y]
                    if bar.setdefault(c, cy) != cy:
                        raise NotStronglyClosed(
                            "morphism does not respect the kernel cosets", witness=m
                        )
                images.add(tuple(bar[c] for c in qbar))
    Fbar = FusionSystem(qd.group, qd.push(F.P), F.p, _iso_table(isos))
    return Fbar, qd


def quotient(F: FusionSystem, T: Subgroup) -> FusionSystem:
    return quotient_with_data(F, T)[0]


# -- transport and isomorphism ------------------------------------------------


def transport_fusion(F: FusionSystem, chi: Morphism) -> FusionSystem:
    """The image system of F along a group isomorphism chi: P -> P'."""
    if chi.domain != F.P or not chi.is_iso:
        raise FusionkitError("transport needs an isomorphism defined on P")
    send = dict(zip(F.P.elements, chi.mapping))
    isos = dict(
        _transport(send, qk, [m for ms in targets.values() for m in ms])
        for qk, targets in F._isos.items()
    )
    return FusionSystem(chi.codomain.group, chi.codomain, F.p, _iso_table(isos))


def find_fusion_isomorphism(F1: FusionSystem, F2: FusionSystem) -> Morphism | None:
    """A group isomorphism P1 -> P2 carrying F1's morphisms onto F2's."""
    if F1.p != F2.p or len(F1.P) != len(F2.P) or F1.iso_count() != F2.iso_count():
        return None
    for mapping in _isomorphisms(F1.P, F2.P):
        chi = Morphism(F1.P, F2.P, mapping)
        if transport_fusion(F1, chi) == F2:
            return chi
    return None


def is_isomorphic_fusion(F1: FusionSystem, F2: FusionSystem) -> bool:
    return find_fusion_isomorphism(F1, F2) is not None


# -- validation ----------------------------------------------------------------


def validate_fusion(F: FusionSystem) -> None:
    """Check every stored axiom; raises FusionkitError on the first failure.

    A fusion system is a category whose classes are groupoids, so validity
    is decided class by class (``_is_valid``), each stored map read once.
    Only a table that decision refuses runs the check over every pair of
    maps (``_name_failure``), to name the first failure, as ``Morphism.build``
    does for the homomorphism law, or else an empty bucket."""
    if not _is_valid(F):
        _name_failure(F)


def _is_valid(F: FusionSystem) -> bool:
    """Whether F's table is a fusion system on P, read one class at a time.

    Take the domains in table order; each not yet seen is the base Q0 of a
    class whose members C are Q0's targets.  Let A = S(Q0, Q0) and t_R the
    first stored map Q0 -> R.  The table is accepted exactly when
      1. its domains are P's lattice;
      2. every member's targets are exactly C, and C lies in the lattice;
      3. each a in A has image key Q0, and the generators that
         ``_generators`` picks from A pass ``_hom_test``.  The span of A is
         closed with ``order_bound`` |A|, so a set of bijections spanning
         far more stops at once;
      4. each t_R has |Q0| entries and image key R, and for R != Q0 passes
         ``_hom_test`` (t_Q0 lies in A);
      5. for all R, R' in C, S(R, R') is {t_R^-1 . a . t_R' : a in the span
         of A}, maps written left to right.  For R = R' = Q0 this says that
         A is its span, a group of automorphisms;
      6. the restrictions of A's generators and of each t_R with R != Q0 to
         each maximal subgroup of Q0 are stored;
      7. the rows of Inn(P), read on P, are stored in S(P, P).

    Why that is validity.  By 5 every stored map is t_R^-1 . a . t_R', a
    composite of the homomorphisms of 3 and 4, with the image key of its
    bucket.  As A is a group, 5 closes each class under composition and
    inversion and puts the identity in each S(R, R), and by 2 no map leaves
    its class.  Each map is a word in A's generators and the t_R and t_R^-1
    with R != Q0; its restriction to a maximal subgroup of its domain is the
    composite of the letters' restrictions to the successive images, each
    stored by 6 or the inverse of a map stored by 6, and the empty word
    restricts to an identity.  Every S < Q lies on a chain of subgroups each
    of index p in the next, so by induction every restriction is stored,
    and c_g on Q, the restriction of c_g on P, is stored by 7.  Conversely,
    in a fusion system t_R . f . t_R'^-1 lies in A for every f in S(R, R'),
    so 1-7 hold.  A valid table is refused here only when it has an empty
    bucket, which ``_name_failure`` names, so ``validate_fusion`` accepts
    exactly the tables accepted here."""
    isos, lattice = F._isos, _subgroup_index(F.P)
    if isos.keys() != lattice.keys():
        return False
    covers, seen = _maximal_subgroups(F.P), set()
    for q0, targets in isos.items():
        if q0 in seen:
            continue
        seen.update(targets)
        if not lattice.keys() >= targets.keys():
            return False
        if any(isos[rk].keys() != targets.keys() for rk in targets):
            return False
        auts = targets.get(q0, ())
        if not auts:
            return False
        if any(tuple(sorted(a)) != q0 for a in auts):
            return False
        try:
            gens, span = _generators(q0, auts, len(set(auts)))
        except OrderBoundExceeded:
            return False
        firsts = {rk: ms[0] for rk, ms in targets.items() if ms}
        if len(firsts) != len(targets):
            return False
        if any(len(t) != len(q0) for t in firsts.values()):
            return False
        if any(tuple(sorted(t)) != rk for rk, t in firsts.items()):
            return False
        # t_Q0 lies in A, so A's generators stand for it
        letters = gens + [t for rk, t in firsts.items() if rk != q0]
        if letters and not all(map(_hom_test(F.subgroup(q0), F.group), letters)):
            return False
        for rk, t in firsts.items():
            # t_R^-1 . a . t_R' takes R's j-th element to t_R'[a[back[j]]]
            back = _picker(_positions(t, rk))
            composites = [_picker(back(a)) for a in span]
            for rk2, t2 in firsts.items():
                if set(isos[rk][rk2]) != {c(t2) for c in composites}:
                    return False
        if letters:
            at = {x: i for i, x in enumerate(q0)}.__getitem__
            for mk in covers[q0]:
                restrictions = map(_picker(tuple(map(at, mk))), letters)
                if not all(r in isos[mk].get(tuple(sorted(r)), ()) for r in restrictions):
                    return False
    on_p = _picker(F.P.key)
    if not {on_p(row) for row, _ in _inn(F.P)} <= set(isos[F.P.key].get(F.P.key, ())):
        return False
    return True


def _name_failure(F: FusionSystem) -> None:
    """The first failure of the check over every pair of stored maps,
    raised as FusionkitError.  Each mapping is tested against the
    homomorphism law on its domain's generators, and ``Morphism.build``
    runs only to name a failure.  Then inner fusion, inverses, restrictions
    to every smaller subgroup and composites are each looked up as a whole
    mapping in one set per domain.  A table that passes all of that and
    that ``_is_valid`` refuses has an empty bucket, named last."""
    lattice = _subgroup_index(F.P)
    if set(F._isos) != set(lattice):
        raise FusionkitError("iso table does not range over the subgroups of P")
    for qk, targets in F._isos.items():
        is_hom = _hom_test(F.subgroup(qk), F.group)
        for rk, ms in targets.items():
            if rk not in lattice:
                raise FusionkitError("target is not a subgroup of P", witness=rk)
            for m in ms:
                if tuple(sorted(m)) != rk:
                    raise FusionkitError("mapping does not match its target key", witness=m)
                if len(m) != len(qk) or not is_hom(m):
                    Morphism.build(F.subgroup(qk), F.subgroup(rk), m)
    stored = {qk: set(chain(*targets.values())) for qk, targets in F._isos.items()}
    rows = [row for row, _ in _inn(F.P)]
    for Q in F.subgroups():
        for mapping in map(_picker(Q.key), rows):
            if mapping not in stored[Q.key]:
                raise FusionkitError("inner fusion missing", witness=(Q.key, mapping))
    for qk, targets in F._isos.items():
        qset = set(qk)
        contained = [(sk, _picker(_positions(qk, sk))) for sk in F._isos if set(sk) < qset]
        for rk, ms in targets.items():
            for m in ms:
                if _inverse(qk, m) not in stored[rk]:
                    raise FusionkitError("not closed under inversion", witness=m)
                for sk, on_sk in contained:
                    if on_sk(m) not in stored[sk]:
                        raise FusionkitError("not closed under restriction", witness=(m, sk))
                then = _picker(_positions(rk, m))
                for m2 in chain(*F._isos[rk].values()):
                    if then(m2) not in stored[qk]:
                        raise FusionkitError("not closed under composition", witness=(m, m2))
    for qk, targets in F._isos.items():
        for rk, ms in targets.items():
            if not ms:
                raise FusionkitError("empty iso bucket", witness=(qk, rk))
