"""Finite permutation groups with eager multiplication tables.

A :class:`Group` stores its full, lexicographically sorted element list
and an order-by-order multiplication table, so group arithmetic is
integer indexing.  Subgroups are immutable sorted index tuples inside a
fixed ambient group, which makes them usable as dictionary keys and
keeps every enumeration in the library deterministic.

The lattice of a carrier ``Subgroup`` is memoized on the carrier itself,
and its group finds it, by the carrier's element key, only while some
carrier with that key lives.  So :func:`all_subgroups` builds a lattice
once for all live carriers with one key, and a dropped group, its table
and its lattices are freed by reference counting: no memo refers back
to the carrier that owns it, and the group refers to none of them
strongly.  A p-group is built layer by
layer, each subgroup of order p^(k+1) as a normal subgroup of index p
plus one element, which reaches all of them because every non-trivial
p-group has a normal subgroup of index p.  The maximal subgroups of a
p-group are exactly those, so the build reaches each subgroup from each
of its maximal subgroups once, and records them in the same memo entry,
with Inn(P): one conjugation row of the p-group P per coset of Z(P),
which is all that P-local questions (N_P, C_P, Aut_P) read.
Any other carrier may have subgroups no such chain reaches (A5 in S5),
and is built as a join closure of cyclic subgroups.  Either build
carries with each subgroup the short generator tuple it was reached by,
and keeps it on the subgroup, where ``_generating`` reads it.
"""

from __future__ import annotations

import math
import weakref
from functools import reduce
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    FusionkitError,
    NotASubgroup,
    OrderBoundExceeded,
    PreconditionFailed,
)
from .perms import Perm, format_cycles, identity_perm, perm_mul

#: Default cap on ambient group orders; constructions refuse to go past it.
DEFAULT_ORDER_BOUND = 400

# The largest prime and degree a fusion document or a group spec may give,
# so that a malformed one cannot make a loader trial-divide a huge number
# or allocate a permutation of a huge degree.
_DOCUMENT_MAX = {"p": 1 << 31, "degree": 1 << 12}


def _picker(positions: Sequence[int]):
    """``operator.itemgetter(*positions)``, always returning a tuple."""
    if len(positions) == 1:
        return lambda seq, i=positions[0]: (seq[i],)
    return itemgetter(*positions) if positions else lambda seq: ()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def ensure_prime(p: int) -> int:
    if not is_prime(p):
        raise PreconditionFailed(f"{p} is not a prime")
    return p


def p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def is_p_power(n: int, p: int) -> bool:
    return p_part(n, p) == n


class Group:
    """A finite permutation group, closed and fully tabulated."""

    __slots__ = (
        "degree",
        "perms",
        "name",
        "generator_indices",
        "_lookup",
        "_mul",
        "_inv",
        "_orders",
        "identity",
        "_full",
        "_lattices",
        "__weakref__",
    )

    def __init__(
        self,
        perms: Iterable[Perm],
        degree: int,
        *,
        name: str | None = None,
        generators: Sequence[Perm] | None = None,
        order_bound: int | None = None,
        closed: bool = False,
    ):
        seed = [tuple(p) for p in perms]
        for p in seed:
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise FusionkitError(f"not a permutation of degree {degree}: {p}")
        if closed:
            elements = set(seed)
            elements.add(identity_perm(degree))
        else:
            elements = _closure(seed, degree, order_bound)
        if order_bound is not None and len(elements) > order_bound:
            raise OrderBoundExceeded(
                f"group order {len(elements)} exceeds bound {order_bound}"
            )
        self.degree = degree
        self.perms: tuple[Perm, ...] = tuple(sorted(elements))
        self.name = name
        self._lookup = {p: i for i, p in enumerate(self.perms)}
        # every list holds the identity, the least permutation of all
        self.identity = 0
        self._mul: tuple[tuple[int, ...], ...] = _cayley_rows(self.perms, self._lookup)
        self._inv = tuple(row.index(0) for row in self._mul)
        orders = []
        for i in range(len(self.perms)):
            k, cur = 1, i
            while cur != self.identity:
                cur = self._mul[cur][i]
                k += 1
            orders.append(k)
        self._orders = tuple(orders)
        if generators is not None:
            self.generator_indices = tuple(self._lookup[tuple(g)] for g in generators)
        else:
            self.generator_indices = None
        # weak, as every subgroup refers to its group: see the module docstring
        self._full: weakref.ref | None = None
        self._lattices: weakref.WeakValueDictionary[tuple[int, ...], _Lattice] = (
            weakref.WeakValueDictionary()
        )

    @property
    def order(self) -> int:
        return len(self.perms)

    def __len__(self) -> int:
        return len(self.perms)

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return self._mul[self._mul[self._inv[g]][x]][g]

    def comm(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return self._mul[self._mul[self._mul[self._inv[x]][self._inv[y]]][x]][y]

    def element_order(self, i: int) -> int:
        return self._orders[i]

    def perm_of(self, i: int) -> Perm:
        return self.perms[i]

    def index_of(self, perm: Perm) -> int:
        return self._lookup[tuple(perm)]

    def element_str(self, i: int) -> str:
        return format_cycles(self.perms[i])

    @property
    def full_subgroup(self) -> "Subgroup":
        """The subgroup of all elements, one object while something holds it."""
        full = None if self._full is None else self._full()
        if full is None:
            full = Subgroup(self, range(len(self.perms)), check=False)
            self._full = weakref.ref(full)
        return full

    def subgroup(self, indices: Iterable[int]) -> "Subgroup":
        return Subgroup(self, indices)

    def generated_subgroup(self, indices: Iterable[int]) -> "Subgroup":
        return subgroup_closure(self, indices)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self.degree == other.degree and self.perms == other.perms

    def __hash__(self) -> int:
        return hash((self.degree, len(self.perms), self.perms[min(1, len(self.perms) - 1)]))

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"Group({label}, order {len(self.perms)})"


def _cayley_rows(perms: tuple[Perm, ...], lookup: dict[Perm, int]) -> tuple[tuple[int, ...], ...]:
    """The table of a sorted element list led by the identity.  Only the
    rows of generators, each the least element not yet reached (so at most
    log2 |G| of them), multiply permutations, which checks closure under
    their products; any other row is row(a.s) = row(a) read at row(s)."""
    n = len(perms)
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    gens, reached = [], [0]
    for g in range(n):
        if rows[g] is not None:
            continue
        try:
            rows[g] = tuple(lookup[perm_mul(perms[g], b)] for b in perms)
        except KeyError:
            raise FusionkitError("element list is not closed under products") from None
        gens.append(g)
        reached.append(g)
        for a in reached:
            row = rows[a]
            for s in gens:
                c = row[s]
                if rows[c] is None:
                    rows[c] = _picker(rows[s])(row)
                    reached.append(c)
    return tuple(rows)


def _closure(seed: list[Perm], degree: int, order_bound: int | None) -> set[Perm]:
    elements = {identity_perm(degree)}
    frontier = [p for p in seed if p not in elements]
    elements.update(frontier)
    gens = list(dict.fromkeys(seed))
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if order_bound is not None and len(elements) > order_bound:
                        raise OrderBoundExceeded(
                            f"group order exceeds bound {order_bound}"
                        )
        frontier = new
    return elements


class Subgroup:
    """A subgroup of a fixed ambient :class:`Group`, as sorted element indices."""

    __slots__ = ("group", "elements", "_set", "_gens", "_reached", "_lattice", "__weakref__")

    def __init__(self, group: Group, elements: Iterable[int], *, check: bool = True):
        self.group = group
        self.elements: tuple[int, ...] = tuple(sorted(set(elements)))
        self._set = frozenset(self.elements)
        self._gens = self._reached = None
        self._lattice: _Lattice | None = None
        if check:
            if not self.elements:
                raise NotASubgroup("a subgroup cannot be empty")
            if group.identity not in self._set:
                raise NotASubgroup("missing identity", witness=self.elements)
            for a in self.elements:
                if group.inv(a) not in self._set:
                    raise NotASubgroup("not closed under inversion", witness=a)
                row = group._mul[a]
                for b in self.elements:
                    if row[b] not in self._set:
                        raise NotASubgroup("not closed under products", witness=(a, b))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> tuple[int, ...]:
        return self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, idx: int) -> bool:
        return idx in self._set

    def contains_all(self, indices: Iterable[int]) -> bool:
        return self._set.issuperset(indices)

    def __le__(self, other: "Subgroup") -> bool:
        return self._set <= other._set

    def __lt__(self, other: "Subgroup") -> bool:
        return self._set < other._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((self.group.degree, len(self.group), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order {len(self.elements)} of {self.group!r})"

    def describe(self) -> str:
        gens = self.generators()
        if not gens:
            return "1"
        return "<" + ", ".join(self.group.element_str(g) for g in gens) + ">"

    def generators(self) -> tuple[int, ...]:
        """A short deterministic generating sequence (greedy by element order)."""
        if self._gens is None:
            G = self.group
            chosen: list[int] = []
            span = {G.identity}
            for x in sorted(self.elements, key=lambda i: (-G._orders[i], i)):
                if x not in span:
                    chosen.append(x)
                    span = _join(G, tuple(span), tuple(chosen))
                    if len(span) == len(self.elements):
                        break
            self._gens = tuple(chosen)
        return self._gens

    def is_normal_in(self, other: "Subgroup") -> bool:
        """Whether each generator of ``other`` conjugates each generator of
        this subgroup into it, as ``normalizer`` tests."""
        if not self <= other:
            return False
        G, gens = self.group, _generating(self)
        return all(G.conj(x, g) in self._set for g in _generating(other) for x in gens)

    def join(self, other: "Subgroup") -> "Subgroup":
        span = _join(self.group, self.elements, self.elements + other.elements)
        return Subgroup(self.group, span, check=False)

    def meet(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.group, self._set & other._set, check=False)

    def is_abelian(self) -> bool:
        G = self.group
        els = self.elements
        return all(G.mul(a, b) == G.mul(b, a) for i, a in enumerate(els) for b in els[i + 1 :])

    def is_p_group(self, p: int) -> bool:
        return is_p_power(len(self.elements), p)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def centre(self) -> "Subgroup":
        return centralizer(self, self)


def _generating(S: Subgroup) -> tuple[int, ...]:
    """A generating tuple of S: the one a lattice build reached S by (at
    most log_p |S| elements for a p-group), or else ``S.generators()``."""
    return S.generators() if S._reached is None else S._reached


def subgroup_closure(group: Group, indices: Iterable[int]) -> Subgroup:
    """<indices>, as ``_join`` from the trivial subgroup."""
    return Subgroup(group, _join(group, (group.identity,), tuple(indices)), check=False)


def _as_subgroup(container: Group | Subgroup) -> Subgroup:
    return container.full_subgroup if isinstance(container, Group) else container


def _require_subgroup_of(H: Subgroup, container: Group | Subgroup) -> Subgroup:
    amb = _as_subgroup(container)
    if H.group is not amb.group and H.group != amb.group:
        raise NotASubgroup("different ambient groups", witness=H)
    if not H <= amb:
        raise NotASubgroup("not contained in the given group", witness=H)
    return amb


def all_subgroups(container: Group | Subgroup) -> tuple[Subgroup, ...]:
    """Every subgroup of ``container``, sorted by (order, element key).

    The lattice is built once for all live carriers with one element key:
    it is memoized on the carrier (``_Lattice``), which the group finds by
    key while the carrier lives, so every ``Subgroup`` with that key, and
    the group itself for its full subgroup, reads the same members and
    the same index of them by key.  Its top is the carrier first asked
    for while that carrier lives.  The memo goes with the last carrier
    that holds it.  A p-group carrier takes the layer build, which also
    records the maximal subgroups of each member and the carrier's
    Inn(P); any other carrier the join closure.
    """
    amb = _as_subgroup(container)
    entry = _lattice_entry(amb)
    return entry.below + (_top(amb, entry),)


def _subgroup_index(amb: Subgroup) -> dict[tuple[int, ...], Subgroup | None]:
    """Each subgroup key of ``amb``, in lattice order, to the lattice's own
    ``Subgroup``; the top's key, last, maps to None, as the memo does not
    refer to its carrier (``_lattice_member`` reads it)."""
    return _lattice_entry(amb).index


def _lattice_member(amb: Subgroup, key: tuple[int, ...]) -> Subgroup:
    """The lattice's own ``Subgroup`` of ``amb`` with element key ``key``,
    its top included; KeyError when no subgroup of ``amb`` has that key."""
    entry = _lattice_entry(amb)
    S = entry.index[key]
    return _top(amb, entry) if S is None else S


def _maximal_subgroups(P: Subgroup) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The maximal subgroups' keys of each subgroup of the p-group P, in lattice order."""
    return _lattice_entry(P).maximal


def _inn(P: Subgroup) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Inn(P) of the p-group P, as one (row, coset) pair per coset gZ(P),
    ordered by least element (Z(P) first): the coset's elements and the
    conjugation row x -> x^g of P's group for its least element g.  Every
    element of the coset conjugates P as g does, so the row is theirs on P;
    off P the rows of a coset may differ, and no caller reads them there."""
    return _lattice_entry(P).inn


class _Lattice:
    """The lattice memo of one carrier key: the subgroups ``below`` the top,
    in lattice order; ``index``, each subgroup's key to the lattice's own
    object (the top's to None); the ``maximal`` subgroup record and
    ``inn``, Inn(P), of a p-group carrier (None for any other); ``top``,
    a weak reference to the carrier first asked for; and ``gens``, the
    tuple the build reached the top by, which each carrier keeps.  Its
    carriers own it through their ``_lattice`` slot and the group keeps it
    weakly, and nothing in it refers to a carrier strongly, so it forms no
    cycle."""

    __slots__ = ("below", "index", "maximal", "inn", "top", "gens", "__weakref__")

    def __init__(self, amb: Subgroup, lattice: tuple[Subgroup, ...], maximal, inn):
        self.below = lattice[:-1]
        self.index = {S.elements: S for S in self.below}
        self.index[amb.elements] = None
        self.maximal = maximal
        self.inn = inn
        self.top = weakref.ref(amb)
        self.gens = lattice[-1]._reached


def _lattice_entry(amb: Subgroup) -> _Lattice:
    entry = amb._lattice
    if entry is None:
        lattices = amb.group._lattices
        entry = lattices.get(amb.elements)
        if entry is None:
            n = len(amb.elements)
            p = min((d for d in range(2, n + 1) if n % d == 0), default=2)
            built = _layer_lattice(amb, p) if is_p_power(n, p) else (_subgroup_lattice(amb), None, None)
            entry = lattices[amb.elements] = _Lattice(amb, *built)
        amb._lattice = entry
        if amb._reached is None:
            amb._reached = entry.gens
    return entry


def _top(amb: Subgroup, entry: _Lattice) -> Subgroup:
    """The top of ``amb``'s lattice: the carrier first asked for, or
    ``amb`` once that carrier is gone."""
    top = entry.top()
    if top is None:
        top, entry.top = amb, weakref.ref(amb)
    return top


def _layer_lattice(amb: Subgroup, p: int) -> tuple[tuple[Subgroup, ...], dict, tuple]:
    """The subgroups of the p-group ``amb``, one layer per order, the
    maximal subgroups of each, and Inn(amb).  Each M of a layer, with the
    generators it was reached by, is first a maximal subgroup of each
    <M', g'> found before in its layer that holds those generators, and
    then yields <M, g> = M u gM u ... u g^(p-1)M for each g outside them
    whose row sends those generators into M with g^p in M; a g that fails
    rules out its coset gM, each member of which fails alike.  So each
    maximal M of J, of index p, is recorded once, in lattice order as each
    layer is taken by key, and each J keeps the tuple it was reached by.
    Two elements conjugate ``amb`` alike exactly when their rows agree at
    the generators the top was reached by, that is, when they lie in one
    coset of Z(amb); one row per such coset is kept."""
    G, mul = amb.group, amb.group._mul
    pth = {g: reduce(lambda x, _: mul[x][g], range(p - 1), g) for g in amb.elements}
    conj = _conj_rows(G, amb.elements)
    triv = Subgroup(G, (G.identity,), check=False)
    triv._reached = ()
    lattice, maximal, layer = [triv], {triv.key: []}, [triv]
    while layer:
        new: list[Subgroup] = []
        holding: dict[int, list[Subgroup]] = {}  # each element's overgroups in new
        for M in layer:
            mset, coset, gens = M._set, _picker(M.elements), M._reached
            on_gens, done = _picker(gens), set(M.elements)
            for J in holding.get(M.elements[-1], ()):
                if J._set.issuperset(gens):
                    maximal[J.elements].append(M.elements)
                    done.update(J.elements)
            for g in amb.elements:
                if g in done:
                    continue
                if pth[g] not in mset or not mset.issuperset(on_gens(conj[g])):
                    done.update(coset(mul[g]))
                    continue
                span, power = list(M.elements), g
                for _ in range(p - 1):
                    span += coset(mul[power])
                    power = mul[power][g]
                done.update(span)
                J = Subgroup(G, span, check=False)
                J._reached, maximal[J.elements] = gens + (g,), [M.elements]
                new.append(J)
                for x in J.elements:
                    holding.setdefault(x, []).append(J)
        new.sort(key=lambda J: J.elements)
        lattice += new
        last, layer = layer, new
    cosets: dict[tuple[int, ...], list[int]] = {}
    on_top = _picker(last[0]._reached)  # the generators of the top, amb
    for g in amb.elements:
        cosets.setdefault(on_top(conj[g]), []).append(g)
    return tuple(lattice), maximal, tuple((conj[c[0]], tuple(c)) for c in cosets.values())


def _subgroup_lattice(amb: Subgroup) -> tuple[Subgroup, ...]:
    """The join closure of the cyclic subgroups of ``amb``.

    Each subgroup is a join of cyclics, and adding one cyclic at a time
    stays inside the subgroup lattice, so the fixpoint reaches everything.
    Every subgroup found keeps the generators it was reached by, one per
    join step, so <H, x> is searched with those and x alone.
    """
    G = amb.group
    mul, identity = G._mul, G.identity
    # one generator per cyclic subgroup: x, and skip the other generators
    # x^k (k prime to the order of x) of the same cyclic
    cyclic_gens: list[int] = []
    covered = {identity}
    for x in amb.elements:
        if x in covered:
            continue
        cyclic_gens.append(x)
        n = G._orders[x]
        power = x
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                covered.add(power)
            power = mul[power][x]
    triv = Subgroup(G, (identity,), check=False)
    triv._reached = ()
    found: dict[tuple[int, ...], Subgroup] = {triv.key: triv}
    frontier = [triv]
    while frontier:
        new = []
        for H in frontier:
            for x in cyclic_gens:
                if x in H._set:
                    continue
                gens = H._reached + (x,)
                key = tuple(sorted(_join(G, H.elements, gens)))
                if key not in found:
                    found[key] = J = Subgroup(G, key, check=False)
                    J._reached = gens
                    new.append(J)
        frontier = new
    return tuple(sorted(found.values(), key=lambda s: (len(s.elements), s.elements)))


def _join(G: Group, H: Sequence[int], gens: tuple[int, ...]) -> set[int]:
    """The elements of <H, gens>, for the elements H of a subgroup of G and
    ``gens`` that alone generate <H, gens>, as the union of the left cosets
    of H it contains: a generator g takes the coset yH to (gy)H, so a search
    over cosets from H reaches every coset.  The coset zH is the row of z
    read at H's elements."""
    mul = G._mul
    coset = _picker(H)
    span = set(H)
    reps = [G.identity]
    for y in reps:
        for g in gens:
            z = mul[g][y]
            if z not in span:
                span.update(coset(mul[z]))
                reps.append(z)
    return span


def _join_normalized(H: Subgroup, gens: tuple[int, ...]) -> Subgroup:
    """<H, gens> for ``gens`` that normalize H.  Then <gens>H is a
    subgroup, so the cosets of H that ``gens`` reach from H are all of it."""
    return Subgroup(H.group, _join(H.group, H.elements, gens), check=False)


def normalizer(container: Group | Subgroup, H: Subgroup) -> Subgroup:
    """N(H) inside ``container``: g normalizes H when it conjugates H's
    generators into H.  As H <= N(H), a left coset gH lies wholly inside
    N(H) or wholly outside it, so one g is tested per coset."""
    amb = _require_subgroup_of(H, container)
    G, hset, gens, coset = H.group, H._set, _generating(H), _picker(H.elements)
    members, decided = [], set()
    for g in amb.elements:
        if g not in decided:
            gH = coset(G._mul[g])
            decided.update(gH)
            if all(G.conj(x, g) in hset for x in gens):
                members += gH
    return Subgroup(G, members, check=False)


def _p_normalizer(P: Subgroup, Q: Subgroup, fixing: bool = False) -> Subgroup:
    """N_P(Q), or C_P(Q) when ``fixing``, for a subgroup Q of the p-group P,
    as P's lattice's own object: the union of the cosets of Z(P) whose
    Inn(P) row sends Q's generators into Q, or fixes each of them."""
    _require_subgroup_of(Q, P)
    gens = _generating(Q)
    on_gens, keep = _picker(gens), gens.__eq__ if fixing else Q._set.issuperset
    members = (x for row, coset in _inn(P) if keep(on_gens(row)) for x in coset)
    return _lattice_member(P, tuple(sorted(members)))


def _conj_rows(G: Group, gs: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """The conjugation rows x -> x^g of G, one per g in ``gs``: x^g is
    (g^-1 x) g, so row g^-1 of the table indexes column g, read for that
    g alone rather than by transposing the table."""
    mul = G._mul
    return {g: _picker(mul[G._inv[g]])(tuple(map(itemgetter(g), mul))) for g in gs}


def centralizer(container: Group | Subgroup, H: Subgroup) -> Subgroup:
    """C(H) inside ``container``: g centralizes H when it commutes with
    H's generators, as ``normalizer`` tests."""
    amb = _require_subgroup_of(H, container)
    G, gens = H.group, _generating(H)
    members = [g for g in amb.elements if all(G._mul[g][x] == G._mul[x][g] for x in gens)]
    return Subgroup(G, members, check=False)


def group_centre(container: Group | Subgroup) -> Subgroup:
    amb = _as_subgroup(container)
    return centralizer(amb, amb)


def sylow(container: Group | Subgroup, p: int) -> Subgroup:
    """The first Sylow p-subgroup found by deterministic normalizer growth,
    or the carrier itself when its order is a power of p."""
    ensure_prime(p)
    amb = _as_subgroup(container)
    G = amb.group
    target = p_part(len(amb.elements), p)
    if target == len(amb.elements):
        return amb
    S = Subgroup(G, (G.identity,), check=False)
    # while |S| is below the Sylow order, p divides |N(S):S| (S lies in a
    # Sylow P' and S < N_P'(S)), so by Cauchy some g in N(S) - S has g^p in S
    while len(S.elements) < target:
        for g in normalizer(amb, S).elements:
            if g in S:
                continue
            power = g
            for _ in range(p - 1):
                power = G.mul(power, g)
            if power in S:
                S = subgroup_closure(G, S.elements + (g,))
                break
    return S


def is_sylow_in(Q: Subgroup, container: Group | Subgroup, p: int) -> bool:
    amb = _as_subgroup(container)
    return Q.is_p_group(p) and len(Q.elements) == p_part(len(amb.elements), p)


def commutator_subgroup(container: Group | Subgroup, A: Subgroup, B: Subgroup) -> Subgroup:
    G = _as_subgroup(container).group
    comms = {G.comm(a, b) for a in A.elements for b in B.elements}
    return subgroup_closure(G, comms)


def upper_central_series_group(container: Group | Subgroup) -> list[Subgroup]:
    """[Z_1, Z_2, ...] up to stabilization, computed inside ``container``.
    g lies in Z_i when [g, x] lies in Z_(i-1) for the container's
    generators x alone: Z_(i-1) is normal and [g, xy] = [g, y] [g, x]^y."""
    amb = _as_subgroup(container)
    G, gens = amb.group, _generating(amb)
    series: list[Subgroup] = []
    current = {G.identity}
    while True:
        nxt = [g for g in amb.elements if all(G.comm(g, x) in current for x in gens)]
        term = Subgroup(G, nxt, check=False)
        if series and term.elements == series[-1].elements:
            break
        series.append(term)
        if len(term.elements) == len(amb.elements):
            break
        current = term._set
    return series


def o_p_prime_group(container: Group | Subgroup, p: int) -> Subgroup:
    """The largest normal subgroup of order coprime to p."""
    ensure_prime(p)
    amb = _as_subgroup(container)
    G = amb.group
    result = Subgroup(G, (G.identity,), check=False)
    for H in all_subgroups(amb):
        if len(H.elements) % p != 0 and H.is_normal_in(amb):
            result = result.join(H)
    if math.gcd(len(result.elements), p) != 1:
        raise FusionkitError("join of normal p'-subgroups is not a p'-group")
    return result


# --- quotients -------------------------------------------------------------


class QuotientData:
    """A quotient H/N realized on the right cosets of N, with transport maps."""

    __slots__ = ("container", "group", "project")

    def __init__(self, container: Group | Subgroup, kernel: Subgroup):
        amb = _require_subgroup_of(kernel, container)
        if not kernel.is_normal_in(amb):
            raise NotASubgroup("kernel is not normal", witness=kernel)
        G = amb.group
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for h in amb.elements:
            if h in coset_of:
                continue
            label = len(reps)
            reps.append(h)
            for n in kernel.elements:
                coset_of[G.mul(n, h)] = label
        degree = len(reps)
        perm_of_elt: dict[int, Perm] = {}
        for h in amb.elements:
            perm_of_elt[h] = tuple(coset_of[G.mul(reps[c], h)] for c in range(degree))
        quotient = Group(set(perm_of_elt.values()), degree, closed=True)
        self.container = amb
        self.group = quotient
        self.project = {h: quotient.index_of(perm_of_elt[h]) for h in amb.elements}

    def push(self, H: Subgroup) -> Subgroup:
        return Subgroup(self.group, {self.project[h] for h in H.elements}, check=False)

    def preimage(self, Hbar: Subgroup) -> Subgroup:
        return Subgroup(
            self.container.group,
            (h for h in self.container.elements if self.project[h] in Hbar),
            check=False,
        )


def coset_quotient(container: Group | Subgroup, kernel: Subgroup) -> QuotientData:
    return QuotientData(container, kernel)


# --- direct products -------------------------------------------------------


class DirectProductData:
    """G1 x G2 on the disjoint union of the two point sets."""

    __slots__ = ("left", "right", "group")

    def __init__(self, left: Group, right: Group, *, name: str | None = None):
        d1, d2 = left.degree, right.degree
        perms = set()
        for p1 in left.perms:
            for p2 in right.perms:
                perms.add(p1 + tuple(x + d1 for x in p2))
        self.left = left
        self.right = right
        self.group = Group(perms, d1 + d2, closed=True, name=name)

    def pair_index(self, i1: int, i2: int) -> int:
        d1 = self.left.degree
        p = self.left.perms[i1] + tuple(x + d1 for x in self.right.perms[i2])
        return self.group.index_of(p)

    def split_index(self, idx: int) -> tuple[int, int]:
        d1 = self.left.degree
        p = self.group.perms[idx]
        return (
            self.left.index_of(p[:d1]),
            self.right.index_of(tuple(x - d1 for x in p[d1:])),
        )

    def embed_pair(self, A: Subgroup, B: Subgroup) -> Subgroup:
        members = {
            self.pair_index(a, b) for a in A.elements for b in B.elements
        }
        return Subgroup(self.group, members, check=False)


def direct_product_groups(left: Group, right: Group, *, name: str | None = None) -> DirectProductData:
    return DirectProductData(left, right, name=name)
