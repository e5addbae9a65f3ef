"""Outside-in tracing of fusionkit for the benchmark's traced run.

``Tracer.install`` wraps every public function of every ``fusionkit.<module>``
and the public methods of ``FusionSystem``, ``Morphism`` and ``AutGroup``.
The modules import each other's functions by name, so every module-level
reference to a wrapped function is rebound to the same wrapper.  Nothing
under ``src/`` changes.

A timed call is a span: name, start, end, parent span and query id.  Spans
are kept in memory and written out by ``write``.  A name's self time is its
spans' duration minus the time their child spans cover; its total time
counts only the outermost call of a recursion.  Nothing is recorded while
``query`` is negative, which is how input preparation stays out of the
trace.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
from time import perf_counter_ns

import fusionkit
from fusionkit.fusion import FusionSystem
from fusionkit.groups import Group
from fusionkit.morphisms import AutGroup, Morphism

# Timed, but no span is kept for them: subgroup_closure runs about a million
# times a pass of derived-subsystems, and the FusionSystem accessors some
# hundred thousand times a pass of catalog-cli.
UNKEPT = frozenset({"groups.subgroup_closure"})
UNKEPT_PREFIXES = ("fusion.FusionSystem.",)
# Counted only, to keep the tracing overhead bounded: the permutation
# product behind every group table, and the methods of the morphism types.
COUNTED = frozenset({"perms.perm_mul"})
COUNTED_CLASSES = (Morphism, AutGroup)
# A dictionary lookup per element, millions of calls a pass: not wrapped.
SKIPPED = frozenset({"morphisms.Morphism.apply"})

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "query")


def counters(snapshot: dict) -> dict:
    """The deterministic part of a snapshot: every count, no times."""
    return {k: v for k, v in snapshot.items() if not k.endswith("_ms")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.timed: set[int] = set()
        self.query = -1
        self._stack: list[list[int]] = []
        self._next_span = 0
        self.spans = {field: array("q") for field in SPAN_FIELDS}
        self.reset()

    def reset(self) -> None:
        """Zero the per-name aggregates and counters (spans are kept)."""
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self._depth = [0] * n
        self.subgroups_built = 0
        self.isos_built = 0
        self.lattice_calls = 0
        self.lattice_distinct = 0
        self._lattice_seen: set = set()
        self._lattice_query = -1

    # -- hooks: deterministic work counts -----------------------------------

    def _after_all_subgroups(self, args, result) -> None:
        # Every query gets fresh groups, so a lattice memo can only pay off
        # within one query: distinct pairs are counted per query.
        self.subgroups_built += len(result)
        container = args[0]
        amb = container.full_subgroup if isinstance(container, Group) else container
        if self._lattice_query != self.query:
            self._lattice_query = self.query
            self._lattice_seen = set()
        key = (amb.group.perms, amb.elements)
        self.lattice_calls += 1
        if key not in self._lattice_seen:
            self._lattice_seen.add(key)
            self.lattice_distinct += 1

    def _after_fusion(self, args, result) -> None:
        if isinstance(result, FusionSystem):
            self.isos_built += result.iso_count()

    # -- wrappers --------------------------------------------------------------

    def _counted(self, nid: int, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self.query >= 0:
                self.calls[nid] += 1
            return f(*args, **kwargs)

        return wrapper

    def _timed(self, nid: int, f, keep: bool, hook):
        stack = self._stack
        spans = self.spans
        span_id, span_name, span_start = spans["id"], spans["name"], spans["start_ns"]
        span_end, span_parent, span_query = spans["end_ns"], spans["parent"], spans["query"]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self.query < 0:
                return f(*args, **kwargs)
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            depth = self._depth
            depth[nid] += 1
            start = perf_counter_ns()
            try:
                result = f(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                depth[nid] -= 1
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                if depth[nid] == 0:
                    self.total_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur
                if keep:
                    span_id.append(sid)
                    span_name.append(nid)
                    span_start.append(start)
                    span_end.append(end)
                    span_parent.append(parent)
                    span_query.append(self.query)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap(self, name: str, f, counted: bool):
        nid = len(self.names)
        self.names.append(name)
        if counted or name in COUNTED or inspect.isgeneratorfunction(f):
            return self._counted(nid, f)
        self.timed.add(nid)
        if name == "groups.all_subgroups":
            hook = self._after_all_subgroups
        elif name.startswith("fusion.") and name.count(".") == 1:
            hook = self._after_fusion
        else:
            hook = None
        keep = name not in UNKEPT and not name.startswith(UNKEPT_PREFIXES)
        return self._timed(nid, f, keep, hook)

    def install(self) -> None:
        """Wrap fusionkit's public functions and methods; call once."""
        modules = [
            importlib.import_module(f"fusionkit.{info.name}")
            for info in pkgutil.iter_modules(fusionkit.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value, False))
        for mod in [fusionkit, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for cls in (FusionSystem, Morphism, AutGroup):
            prefix = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}"
            counted = cls in COUNTED_CLASSES
            for attr, value in list(vars(cls).items()):
                if cls is AutGroup and attr == "__init__":
                    name = prefix
                elif attr.startswith("_") or f"{prefix}.{attr}" in SKIPPED:
                    continue
                else:
                    name = f"{prefix}.{attr}"
                if isinstance(value, (classmethod, staticmethod)):
                    wrapped = type(value)(self._wrap(name, value.__func__, counted))
                elif inspect.isfunction(value):
                    wrapped = self._wrap(name, value, counted)
                else:
                    continue
                setattr(cls, attr, wrapped)
        self.reset()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name calls and times, layer self times and work counters."""
        out: dict[str, float] = {}
        layer_ns: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            if nid in self.timed:
                out[f"{name}.total_ms"] = self.total_ns[nid] / 1e6
                out[f"{name}.self_ms"] = self.self_ns[nid] / 1e6
                layer = name.split(".", 1)[0]
                layer_ns[layer] = layer_ns.get(layer, 0) + self.self_ns[nid]
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_ms"] = ns / 1e6
        out["groups.subgroups_built"] = self.subgroups_built
        out["groups.all_subgroups.distinct_frac"] = (
            self.lattice_distinct / self.lattice_calls if self.lattice_calls else 1.0
        )
        out["fusion.isos_built"] = self.isos_built
        return out

    def write(self, path, queries: list[str]) -> int:
        """Write the kept spans as gzipped JSON lines; returns the span count."""
        columns = [self.spans[field] for field in SPAN_FIELDS]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            header = {"fields": SPAN_FIELDS, "names": self.names, "queries": queries}
            fh.write(json.dumps(header) + "\n")
            for row in zip(*columns):
                fh.write(json.dumps(row) + "\n")
        return len(columns[0])
