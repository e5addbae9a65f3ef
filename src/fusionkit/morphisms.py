"""Injective homomorphisms between subgroups, and automorphism groups.

A :class:`Morphism` maps a domain subgroup into a codomain subgroup,
possibly of a different ambient group.  ``mapping[i]`` is the image (as
a codomain-ambient element index) of ``domain.elements[i]``.  Maps
compose left to right: ``phi.then(psi)`` applies ``phi`` first.

Internal code works on these domain-aligned mapping tuples directly,
through the module-private helpers below (restriction by positions,
inverse, composition, transport along an isomorphism); ``Morphism`` is
the public boundary type that pairs one such tuple with its subgroups.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    FusionkitError,
    ImageNotContained,
    NotAnIsomorphism,
    NotASubgroup,
    OrderBoundExceeded,
)
from .groups import DEFAULT_ORDER_BOUND, Group, Subgroup, _as_subgroup, _picker

Key = tuple[int, ...]


def _positions(domain: Key, elements: Iterable[int]) -> Key:
    """The positions of ``elements`` in the sorted ``domain``."""
    index = {e: i for i, e in enumerate(domain)}
    return tuple(index[x] for x in elements)


def _restrict(mapping: Key, positions: Key) -> Key:
    """The images of the domain elements at ``positions``."""
    return _picker(positions)(mapping)


def _inverse(domain: Key, mapping: Key) -> Key:
    """The inverse of an injective map, aligned to its sorted image."""
    return tuple(d for _, d in sorted(zip(mapping, domain)))


def _compose(first: Key, domain: Key, second: Key) -> Key:
    """``first`` then ``second``, where ``second`` is aligned to ``domain``
    and ``domain`` contains the image of ``first``."""
    return _restrict(second, _positions(domain, first))


def _transport(send: dict[int, int], domain: Key, mappings: Iterable[Key]) -> tuple[Key, list[Key]]:
    """Maps on ``domain`` moved along an isomorphism chi, given as the dict
    ``send``: the sorted image of ``domain`` under chi, and chi^-1 . m . chi
    aligned to it for each map m.  The moved domain is sorted once, and
    ``send`` must cover the domain and the images of the maps."""
    moved = [send[x] for x in domain]
    # position j of the sorted image comes from position order[j] of the domain
    order = _picker(sorted(range(len(moved)), key=moved.__getitem__))
    return order(moved), [tuple(map(send.__getitem__, order(m))) for m in mappings]


def _restriction(V: Subgroup, U: Subgroup) -> tuple:
    """The picker of U's positions in V, and U's element set."""
    return _picker(_positions(V.elements, U.elements)), U._set


def _restricted(restriction: tuple, mappings: Iterable[Key]) -> frozenset[Key]:
    """Restrictions to U of the maps on V that map U onto itself, for
    ``restriction`` = ``_restriction(V, U)``."""
    on_u, uset = restriction
    return frozenset(r for r in map(on_u, mappings) if set(r) == uset)


def _hom_test(domain: Subgroup, target: Group) -> Callable[[Key], bool]:
    """The homomorphism law for mappings f on ``domain`` into ``target``:
    f(s.a) = f(s).f(a) for every a, one row slice per generator s (or for
    s = 1 when there is none).  This is the whole law: f(1) = 1 follows,
    and the s that satisfy it are closed under products."""
    els, mul = domain.elements, domain.group._mul
    gens = domain.generators() or (domain.group.identity,)
    law = [(els.index(s), _picker(_positions(els, _picker(els)(mul[s])))) for s in gens]

    def test(mapping: Key) -> bool:
        on_images = _picker(mapping)
        return all(at(mapping) == on_images(target._mul[mapping[i]]) for i, at in law)

    return test


class Morphism:
    """An injective homomorphism between subgroups."""

    __slots__ = ("domain", "codomain", "mapping", "_pos")

    def __init__(self, domain: Subgroup, codomain: Subgroup, mapping: Sequence[int]):
        self.domain = domain
        self.codomain = codomain
        self.mapping: tuple[int, ...] = tuple(mapping)
        self._pos = None

    @classmethod
    def build(
        cls, domain: Subgroup, codomain: Subgroup, mapping: Sequence[int]
    ) -> "Morphism":
        """Validated constructor: checks injectivity, containment, and
        the homomorphism law, on the domain's generators; a mapping that
        fails is scanned pair by pair, in element order, for the first
        (a, b) with f(ab) != f(a)f(b)."""
        m = cls(domain, codomain, mapping)
        if len(m.mapping) != len(domain.elements):
            raise FusionkitError("mapping length does not match the domain")
        if len(set(m.mapping)) != len(m.mapping):
            raise NotAnIsomorphism("mapping is not injective", witness=m)
        if not codomain.contains_all(m.mapping):
            raise ImageNotContained("image is not inside the codomain", witness=m)
        if _hom_test(domain, codomain.group)(m.mapping):
            return m
        els, f = domain.elements, dict(zip(domain.elements, m.mapping))
        dmul, cmul = domain.group._mul, codomain.group._mul
        for a, b in product(els, repeat=2):
            if f[dmul[a][b]] != cmul[f[a]][f[b]]:
                raise FusionkitError("not a homomorphism", witness=(a, b))

    @classmethod
    def identity(cls, Q: Subgroup) -> "Morphism":
        return cls(Q, Q, Q.elements)

    def apply(self, idx: int) -> int:
        if self._pos is None:
            self._pos = {e: i for i, e in enumerate(self.domain.elements)}
        return self.mapping[self._pos[idx]]

    @property
    def key(self) -> tuple:
        return (self.domain.elements, self.codomain.elements, self.mapping)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.key == other.key
            and self.domain.group == other.domain.group
            and self.codomain.group == other.codomain.group
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Morphism") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        gens = self.domain.generators()
        G, H = self.domain.group, self.codomain.group
        if not gens:
            return "Morphism(1 -> 1)"
        parts = ", ".join(
            f"{G.element_str(g)}->{H.element_str(self.apply(g))}" for g in gens
        )
        return f"Morphism({parts})"

    def image(self) -> Subgroup:
        return Subgroup(self.codomain.group, self.mapping, check=False)

    @property
    def is_iso(self) -> bool:
        """Whether the mapping hits every codomain element exactly once."""
        return (
            len(self.mapping) == len(self.codomain.elements)
            and set(self.mapping) == self.codomain._set
        )

    def then(self, other: "Morphism") -> "Morphism":
        """Left-to-right composition: apply self, then ``other``."""
        if not other.domain.contains_all(self.mapping):
            raise ImageNotContained("composition undefined", witness=(self, other))
        mapping = _compose(self.mapping, other.domain.elements, other.mapping)
        return Morphism(self.domain, other.codomain, mapping)

    def restrict(self, S: Subgroup) -> "Morphism":
        if not S <= self.domain:
            raise NotASubgroup("restriction target not inside domain", witness=S)
        idx = _positions(self.domain.elements, S.elements)
        return Morphism(S, self.codomain, _restrict(self.mapping, idx))

    def inverse(self) -> "Morphism":
        if not self.is_iso:
            raise NotAnIsomorphism("not onto the codomain", witness=self)
        mapping = _inverse(self.domain.elements, self.mapping)
        return Morphism(self.codomain, self.domain, mapping)

    def conjugated_by(self, chi: "Morphism") -> "Morphism":
        """Transport an automorphism along an isomorphism: chi^-1 . self . chi.

        ``self`` must map a subgroup of ``chi.domain`` to itself; the result
        is the corresponding automorphism of the image under ``chi``.
        """
        S = self.domain.elements
        if not chi.domain.contains_all(S):
            raise NotASubgroup("automorphism domain not inside the transport map")
        moved = _restrict(chi.mapping, _positions(chi.domain.elements, S))
        target = Subgroup(chi.codomain.group, moved, check=False)
        if len(target) != len(moved):
            raise NotAnIsomorphism(
                "not onto the codomain", witness=Morphism(self.domain, target, moved)
            )
        _, (mapping,) = _transport(dict(zip(S, moved)), S, [self.mapping])
        return Morphism(target, target, mapping)


def conj_morphism(container: Group | Subgroup, g: int, Q: Subgroup, R: Subgroup) -> Morphism:
    """The conjugation map c_g: Q -> R, x |-> g^-1 x g."""
    amb = _as_subgroup(container)
    G = amb.group
    if not (Q <= amb and R <= amb) or Q.group != G or R.group != G:
        raise NotASubgroup("subgroups must live in the given group")
    if g not in amb:
        raise NotASubgroup("conjugating element not in the group", witness=g)
    mapping = tuple(G.conj(x, g) for x in Q.elements)
    if not R.contains_all(mapping):
        raise ImageNotContained("conjugate does not land in the codomain", witness=g)
    return Morphism(Q, R, mapping)


# --- automorphism groups ---------------------------------------------------


class AutGroup:
    """A group of automorphisms of a fixed subgroup.

    The automorphisms act on the positions of the subject's sorted
    element list, giving a faithful permutation group; all subgroup
    machinery (Sylow, normality, generated subgroups) is reused through
    that incarnation.
    """

    __slots__ = ("subject", "morphisms", "group", "_index", "_full")

    def __init__(self, subject: Subgroup, morphisms: Iterable[Morphism]):
        morphs = sorted(set(morphisms))
        els = subject.elements
        pos = {e: i for i, e in enumerate(els)}
        perms = []
        for m in morphs:
            if m.domain != subject or not m.is_iso or m.codomain != subject:
                raise NotAnIsomorphism("not an automorphism of the subject", witness=m)
            perms.append(tuple(pos[x] for x in m.mapping))
        group = Group(perms, len(els), closed=True)
        if len(group) != len(morphs):
            raise FusionkitError("automorphism set is not closed under composition")
        by_perm = dict(zip(perms, morphs))
        self.subject = subject
        self.morphisms = tuple(by_perm[p] for p in group.perms)
        self.group = group
        self._index = {m.mapping: i for i, m in enumerate(self.morphisms)}
        # the group holds its full subgroup weakly; holding it here keeps
        # the lattice of Aut(subject) as long as this AutGroup
        self._full = group.full_subgroup

    @property
    def order(self) -> int:
        return len(self.morphisms)

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)

    def index_of(self, m: Morphism) -> int:
        try:
            return self._index[m.mapping]
        except KeyError:
            raise NotASubgroup("automorphism not in this group", witness=m) from None

    def subgroup_from(self, morphisms: Iterable[Morphism]) -> Subgroup:
        return Subgroup(self.group, (self.index_of(m) for m in morphisms), check=False)

    def morphisms_of(self, sub: Subgroup) -> tuple[Morphism, ...]:
        if sub.group != self.group:
            raise NotASubgroup("subgroup of a different automorphism group")
        return tuple(self.morphisms[i] for i in sub.elements)


def _aut_subgroup(ag: AutGroup, mappings: Iterable[Key], *, check: bool = False) -> Subgroup:
    """The automorphisms with the given mappings, as a subgroup of
    ``ag.group``."""
    try:
        positions = [ag._index[m] for m in mappings]
    except KeyError as exc:
        raise NotASubgroup("automorphism not in this group", witness=exc.args[0]) from None
    return Subgroup(ag.group, positions, check=check)


def _extended(A: Subgroup, B: Subgroup, f: dict[int, int], gens: Key, images: Key) -> dict[int, int] | None:
    """``f``, an injective homomorphism on <gens[:-1]>, extended to the one
    on <gens> that sends each generator to its image; None when there is
    none.  It grows along generator edges, as ``groups._join`` grows a
    subgroup: each reached y sends y.s to f(y).f(s), and an image that
    clashes with one already set, or repeats one, refuses it.  Agreement on
    every edge is the homomorphism law."""
    amul, bmul = A.group._mul, B.group._mul
    f, used, edges = dict(f), set(f.values()), tuple(zip(gens, images))
    reached = list(f)
    for y in reached:
        for s, t in edges:
            z, w = amul[y][s], bmul[f[y]][t]
            if z in f:
                if f[z] != w:
                    return None
            elif w in used:
                return None
            else:
                f[z] = w
                used.add(w)
                reached.append(z)
    return f


def _isomorphisms(A: Subgroup, B: Subgroup) -> Iterator[Key]:
    """The isomorphisms A -> B, lazily, as mappings aligned to A's elements.
    Each generator of A takes an image of its order, in B's element order,
    and each choice is extended to the generators taken so far."""
    Ga, Gb = A.group, B.group
    if sorted(map(Ga.element_order, A.elements)) != sorted(map(Gb.element_order, B.elements)):
        return
    gens = A.generators()
    by_order: dict[int, list[int]] = {}
    for x in B.elements:
        by_order.setdefault(Gb.element_order(x), []).append(x)
    choices = [by_order.get(Ga.element_order(g), ()) for g in gens]
    yield from _search(A, B, gens, choices, {Ga.identity: Gb.identity}, ())


def _search(A: Subgroup, B: Subgroup, gens: Key, choices: list, f: dict[int, int], images: Key) -> Iterator[Key]:
    """The isomorphisms of ``_isomorphisms`` that extend ``f``, which sends
    the first generators ``gens`` of A to ``images``; ``choices`` lists
    each generator's candidate images.  A module-level function, unlike a
    nested one that calls itself, leaves no reference cycle behind."""
    k = len(images)
    if k == len(gens):
        yield tuple(map(f.__getitem__, A.elements))
        return
    for h in choices[k]:
        ext = _extended(A, B, f, gens[: k + 1], images + (h,))
        if ext is not None:
            yield from _search(A, B, gens, choices, ext, images + (h,))


def automorphisms(container: Group | Subgroup) -> AutGroup:
    """The full automorphism group of a subgroup or group.

    Raises OrderBoundExceeded when more than ``DEFAULT_ORDER_BOUND``
    automorphisms exist; the search aborts early in that case.
    """
    Q = _as_subgroup(container)
    maps = list(islice(_isomorphisms(Q, Q), DEFAULT_ORDER_BOUND + 1))
    if len(maps) > DEFAULT_ORDER_BOUND:
        raise OrderBoundExceeded(f"automorphism count exceeds bound {DEFAULT_ORDER_BOUND}")
    return AutGroup(Q, [Morphism(Q, Q, m) for m in maps])


def is_isomorphic(A: Group | Subgroup, B: Group | Subgroup) -> bool:
    return next(_isomorphisms(_as_subgroup(A), _as_subgroup(B)), None) is not None
