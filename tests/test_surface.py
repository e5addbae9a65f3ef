"""Every exported name, and every public member of an exported class, is
used somewhere outside its own export list.

A use is an AST ``Name``, an ``Attribute`` or an imported name in a library
module other than ``__init__.py``, a test, a demo, a ``python`` code block
of the README, ``bench/`` or ``tools/``.  ``from fusionkit.errors import X``
is a use of ``errors``.  A name that only its definition and ``__all__``
mention fails here, so the public surface cannot grow unseen.  Every class
in ``fusionkit.errors`` must likewise be named outside ``errors.py``, so an
error that nothing raises or catches does not linger.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import fusionkit
from fusionkit import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fusionkit"


def _sources(skip=()):
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name not in ("__init__.py", *skip)]
    paths += sorted((ROOT / "tests").glob("*.py"))
    for folder in ("demos", "bench", "tools"):
        paths += sorted((ROOT / folder).glob("*.py"))
    for path in paths:
        if path.name != Path(__file__).name:
            yield path.read_text()
    readme = (ROOT / "README.md").read_text()
    yield from re.findall(r"```python\n(.*?)```", readme, re.S)


def _referenced(skip=()) -> set[str]:
    names = set()
    for text in _sources(skip):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
    return names


def _public_members(cls) -> set[str]:
    members = {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
    }
    if dataclasses.is_dataclass(cls):
        members.update(f.name for f in dataclasses.fields(cls))
    members.update(s for s in getattr(cls, "__slots__", ()) if not s.startswith("_"))
    return members


def _surface() -> list[str]:
    out = []
    for name in fusionkit.__all__:
        out.append(name)
        value = getattr(fusionkit, name)
        if inspect.isclass(value) and value.__module__.startswith("fusionkit."):
            out.extend(f"{name}.{member}" for member in sorted(_public_members(value)))
    return out


def test_every_exported_name_and_member_is_used():
    used = _referenced()
    unused = [entry for entry in _surface() if entry.rsplit(".", 1)[-1] not in used]
    assert not unused, f"public but used nowhere: {unused}"


def test_every_error_class_is_named_outside_errors_py():
    used = _referenced(skip=("errors.py",))
    classes = [
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    ]
    unnamed = [name for name in classes if name not in used]
    assert len(classes) > 20 and not unnamed, f"error classes named nowhere: {unnamed}"
