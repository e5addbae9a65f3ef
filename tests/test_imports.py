"""Every name a library module imports is used in that module, a module's
``__all__`` lists only names the module itself defines, only ``fusion.py``
names the memo of a system's facts, no fact is computed by a lambda, the
modules that work on a system build no unchecked ``Subgroup``, the
per-candidate steps of the subsystem search do not rescan the lattice, the
hypercentre layer builds no quotient, and only ``groups`` and ``morphisms``
grow a list while a loop walks it.

Package re-exports (``__init__.py``) are exempt.  Uses inside string
annotations count.
"""

import ast
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fusionkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = _imported(tree) - _used(tree)
    assert not unused, f"{path.name} imports but never uses: {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_lists_only_own_names(path):
    tree = ast.parse(path.read_text())
    foreign = _exported(tree) - _defined(tree)
    assert not foreign, f"{path.name} exports names it does not define: {sorted(foreign)}"


def _lines_naming(path, name):
    tree = ast.parse(path.read_text())
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Name) and node.id == name
    ]


def test_only_fusion_names_the_memo():
    """``FusionSystem._fact`` is the one reader and writer of ``_cache``, so
    no other module, the package's ``__init__.py`` included, names it."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "fusion.py":
            named = _lines_naming(path, "_cache")
            assert not named, f"{path.name} names _cache on lines {named}"


def test_only_groups_names_the_lattice_memo():
    """``groups`` is the one reader and writer of the lattice memo, the
    carrier's ``Subgroup._lattice`` and the group's weak ``Group._lattices``:
    other modules read a lattice through ``all_subgroups``, its members by
    key through ``_subgroup_index`` and ``_lattice_member`` and its maximal
    subgroups through ``_maximal_subgroups``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "groups.py":
            for name in ("_lattices", "_lattice"):
                named = _lines_naming(path, name)
                assert not named, f"{path.name} names {name} on lines {named}"


def _scopes_naming(tree: ast.AST, name: str, scope: str = "") -> Iterator[tuple[str, int]]:
    """(qualified name of the enclosing definition, line) of each
    ``.name`` attribute below ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Attribute) and node.attr == name:
            yield scope, node.lineno
        yield from _scopes_naming(node, name, inner)


def test_only_reports_and_the_iso_search_run_the_greedy_generator_search():
    """``Subgroup.generators()``'s greedy, element-ordered choice fixes the
    bytes of ``describe`` and ``Morphism.__repr__`` and the order of the
    ``_isomorphisms`` search.  Every other step that needs some generating
    tuple reads ``groups._generating``, which returns the tuple a lattice
    build reached the subgroup by, so those three and the accessor are the
    only definitions that name ``.generators``."""
    allowed = {"Subgroup.describe", "Morphism.__repr__", "_isomorphisms", "_generating"}
    for path in sorted(SRC.glob("*.py")):
        named = [f"{scope}:{line}" for scope, line in _scopes_naming(ast.parse(path.read_text()), "generators")
                 if scope not in allowed]
        assert not named, f"{path.name} names .generators in {named}"


def test_no_fact_is_computed_by_a_lambda():
    """Each ``_fact`` call passes a module-level compute with its arguments,
    so a memo hit builds no closure."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "_fact"
            and any(isinstance(a, ast.Lambda) for a in [*node.args, *(k.value for k in node.keywords)])
        ]
        assert not lines, f"{path.name} passes a lambda to _fact on lines {lines}"


def test_system_modules_build_no_unchecked_subgroup():
    """``fusion``, ``saturation``, ``subsystems``, ``normal_maps`` and
    ``hypercentre`` call ``Subgroup(..., check=False)`` nowhere: each
    subgroup of P they hand out unchecked is P's lattice's own object,
    found by key through ``FusionSystem.subgroup``."""
    for name in ("fusion.py", "saturation.py", "subsystems.py", "normal_maps.py", "hypercentre.py"):
        tree = ast.parse((SRC / name).read_text())
        lines = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Subgroup"
            and any(k.arg == "check" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in node.keywords)
        ]
        assert not lines, f"{name} builds an unchecked Subgroup on lines {lines}"


def test_the_per_candidate_steps_read_the_layout():
    """``check_weakly_normal_map``, ``complete_partial_map`` and their
    private steps ``_check_ii_to_v`` and ``_complete`` run once per candidate
    map of the subsystem search, so they read what depends on (F, T) alone
    off T's layout: their bodies call none of ``F.subgroups()``,
    ``partial_domain``, ``is_fully_normalized``, ``_positions`` or
    ``F.aut_group``.  The search and the nested wedge call the private
    steps on the layout they read once, so they name none of
    ``check_weakly_normal_map``, ``complete_partial_map`` or
    ``partial_domain``."""
    tree = ast.parse((SRC / "normal_maps.py").read_text())
    banned = {"subgroups", "partial_domain", "is_fully_normalized", "_positions", "aut_group"}
    steps = ("check_weakly_normal_map", "complete_partial_map", "_check_ii_to_v", "_complete")
    bodies = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in (*steps, "weakly_normal_systems_on", "_nested_wedge")
    }
    assert len(bodies) == 6
    for name in steps:
        called = {
            getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(bodies[name]) if isinstance(call, ast.Call)
        }
        assert not called & banned, f"{name} calls {sorted(called & banned)}"
    for name in ("weakly_normal_systems_on", "_nested_wedge"):
        named = {
            node.id for node in ast.walk(bodies[name]) if isinstance(node, ast.Name)
        } & {"check_weakly_normal_map", "complete_partial_map", "partial_domain"}
        assert not named, f"{name} names {sorted(named)}"


def test_the_hypercentre_builds_no_quotient():
    """``hypercentre`` reads every term of the upper central series off the
    F-images of each element, so it names none of ``quotient_with_data``,
    ``QuotientData`` or ``coset_quotient``, not even in an import."""
    path = SRC / "hypercentre.py"
    imported = _imported(ast.parse(path.read_text()))
    for name in ("quotient_with_data", "QuotientData", "coset_quotient"):
        named = _lines_naming(path, name)
        assert name not in imported and not named, f"hypercentre.py names {name} on lines {named}"


def _grows(loop: ast.For, name: str) -> bool:
    """Whether the body of ``loop`` appends to, extends or adds to the list ``name``."""
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target, grown = node.func.value, node.func.attr in ("append", "extend")
        elif isinstance(node, ast.AugAssign):
            target, grown = node.target, isinstance(node.op, ast.Add)
        else:
            continue
        if grown and isinstance(target, ast.Name) and target.id == name:
            return True
    return False


def test_only_groups_and_morphisms_grow_a_list_they_walk():
    """A ``for`` loop over a list that its body grows, by ``append``,
    ``extend`` or ``+=``, is a closure search.  The library keeps its
    closure searches in ``groups`` (``_closure``, ``_join``,
    ``_cayley_rows``) and ``morphisms`` (``_extended``), and every other
    module calls them: ``fusion._generators`` closes spans of
    automorphisms with ``groups._closure``."""
    for path in MODULES:
        if path.name in ("groups.py", "morphisms.py"):
            continue
        tree = ast.parse(path.read_text())
        lines = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
            and _grows(node, node.iter.id)
        ]
        assert not lines, f"{path.name} grows the list a loop walks on lines {lines}"
