"""The bundled group catalog and group-spec file loading.

A group spec is a JSON object ``{"name": str, "degree": int,
"generators": [cycle strings], optional "prime": int, optional "order":
int}``.  The catalog directory ships one such file per named group;
``load_group_spec`` accepts either a catalog name or a path to a spec
file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError, ParseError, UnknownCatalogName
from .groups import _DOCUMENT_MAX, DEFAULT_ORDER_BOUND, Group, is_prime
from .perms import parse_perm

_CATALOG_DIR = Path(__file__).resolve().parent / "catalog"


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in _CATALOG_DIR.glob("*.json")))


def load_catalog(name: str) -> dict:
    path = _CATALOG_DIR / f"{name}.json"
    if not path.is_file():
        raise UnknownCatalogName(
            f"unknown catalog group {name!r}; known names: {', '.join(catalog_names())}",
            witness=name,
        )
    return json.loads(path.read_text())


def make_group(spec: dict) -> Group:
    """Build the permutation group described by a group spec."""
    if not isinstance(spec, dict):
        raise ParseError(f"group spec must be a JSON object, got {type(spec).__name__}")
    missing = [k for k in ("degree", "generators") if k not in spec]
    if missing:
        raise ParseError(f"group spec is missing {', '.join(missing)}", witness=spec)
    degree = spec["degree"]
    # type(...) is int, not isinstance: a JSON true or false is no number.
    if type(degree) is not int or not 1 <= degree <= _DOCUMENT_MAX["degree"]:
        raise ParseError(
            f"degree must be an integer from 1 to {_DOCUMENT_MAX['degree']}, got {degree!r}"
        )
    raw = spec["generators"]
    if not isinstance(raw, list):
        raise ParseError("generators must be a list of permutations", witness=raw)
    gens = [parse_perm(g, degree) for g in raw]
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    prime = spec.get("prime")
    if prime is not None and not (
        type(prime) is int and prime <= _DOCUMENT_MAX["p"] and is_prime(prime)
    ):
        raise ParseError(f"prime must be a prime number up to {_DOCUMENT_MAX['p']}, got {prime!r}")
    G = Group(gens, degree, name=name, generators=gens, order_bound=DEFAULT_ORDER_BOUND)
    declared = spec.get("order")
    if declared is not None and (type(declared) is not int or declared != len(G)):
        raise ParseError(
            f"spec declares order {declared} but the generators produce order {len(G)}"
        )
    return G


def _read_json(path: Path, what: str):
    """The JSON document in a file; a read error raises ``InputError`` and
    undecodable bytes or invalid JSON raise ``ParseError``."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"invalid JSON in {what} file {path}: {exc}") from None


def load_group_spec(source: str) -> tuple[Group, int | None]:
    """Resolve a CLI group argument: a spec-file path or a catalog name.

    Returns the group together with the spec file's preferred prime, if any.
    """
    looks_like_path = source.endswith(".json") or "/" in source
    if looks_like_path or Path(source).is_file():
        path = Path(source)
        if not path.is_file():
            raise InputError(f"no such group spec file: {source}")
        spec = _read_json(path, "group spec")
    else:
        spec = load_catalog(source)
    group = make_group(spec)
    return group, spec.get("prime")
