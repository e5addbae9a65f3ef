"""Permutation primitives.

A permutation of degree n is a tuple of length n holding the images of
the points 0..n-1.  Composition is left to right throughout fusionkit:
``perm_mul(a, b)`` applies ``a`` first, then ``b``.  Textual I/O uses
1-based cycle notation such as ``"(1,2,3)(4,5)"``.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import InvalidPermutation

Perm = tuple[int, ...]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """Apply ``a`` first, then ``b``; below degree 2, ``itemgetter`` returns no tuple."""
    return itemgetter(*a)(b) if len(a) > 1 else tuple(b[x] for x in a)


def perm_cycles(a: Perm) -> list[list[int]]:
    """Decompose into cycles of length >= 2, each starting at its least point."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = a[x]
        cycles.append(cyc)
    return cycles


def format_cycles(a: Perm) -> str:
    cycles = perm_cycles(a)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


def parse_cycles(text: str) -> list[list[int]]:
    """Parse 1-based cycle notation into 0-based cycles.

    Accepts comma or whitespace separated points, e.g. ``"(1,2,3)(4 5)"``.
    The identity may be written ``"()"`` or ``""``.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return []
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise InvalidPermutation(f"stray text outside cycles: {text!r}", witness=text)
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for match in _CYCLE_RE.finditer(stripped):
        tokens = [t for t in re.split(r"[,\s]+", match.group(1).strip()) if t]
        if not tokens:
            continue
        cyc = []
        for tok in tokens:
            if not tok.isdigit():
                raise InvalidPermutation(f"bad cycle point {tok!r} in {text!r}", witness=text)
            point = int(tok)
            if point < 1:
                raise InvalidPermutation(f"cycle points are 1-based: {text!r}", witness=text)
            if point - 1 in seen:
                raise InvalidPermutation(f"point {point} repeated in {text!r}", witness=text)
            seen.add(point - 1)
            cyc.append(point - 1)
        if len(cyc) > 1:
            cycles.append(cyc)
    return cycles


def perm_from_cycles(cycles: list[list[int]], degree: int) -> Perm:
    images = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            if x >= degree:
                raise InvalidPermutation(
                    f"cycle point {x + 1} exceeds degree {degree}", witness=cycles
                )
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def parse_perm(spec, degree: int | None = None) -> Perm:
    """Build a permutation from a cycle string or a list of 1-based cycles.

    With ``degree=None`` the degree is the largest point mentioned.
    """
    if isinstance(spec, str):
        cycles = parse_cycles(spec)
    elif isinstance(spec, (list, tuple)):
        cycles = []
        seen: set[int] = set()
        # type(x) is int rather than isinstance, which lets True through as 1
        flat = bool(spec) and all(type(x) is int for x in spec)
        if not flat and not all(isinstance(c, (list, tuple)) for c in spec):
            raise InvalidPermutation(f"cycles must be lists of points: {spec!r}", witness=spec)
        raw_cycles = [spec] if flat else spec
        for raw in raw_cycles:
            cyc = []
            for point in raw:
                if type(point) is not int or point < 1:
                    raise InvalidPermutation(f"cycle points are 1-based ints: {spec!r}", witness=spec)
                if point - 1 in seen:
                    raise InvalidPermutation(f"point {point} repeated in {spec!r}", witness=spec)
                seen.add(point - 1)
                cyc.append(point - 1)
            if len(cyc) > 1:
                cycles.append(cyc)
    else:
        raise InvalidPermutation(f"cannot interpret {spec!r} as a permutation", witness=spec)
    if degree is None:
        degree = 1 + max((x for cyc in cycles for x in cyc), default=-1)
    return perm_from_cycles(cycles, degree)
