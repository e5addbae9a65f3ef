"""The benchmark's three workloads: their groups, query lists and answers.

A query is one top-level fusionkit call on freshly built inputs, the same
as one CLI invocation: ``prepare`` builds the inputs (not timed), ``call``
is the timed library call, and ``answer`` turns its result into the small
JSON value pinned in ``expected.json``.  A pass runs a workload's query
list once; only the query order changes from pass to pass.

Importing this module imports fusionkit, so the set-up probe times both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import fusionkit as fk
from fusionkit import cli, examples
from fusionkit.groups import is_prime

CLI_COMMANDS = ("build", "saturated", "strongly-closed", "opprime", "hypercentre", "perfect")
CLI_MAX_ORDER = 24
DERIVED_SYSTEMS = (("a4xa4", 2), ("ea16", 2), ("ea9_s3", 3))
LADDER = (("a4", "d8"), ("s4", "d8"), ("s4", "q16"))
# Saturation and validation on |P| = 128 take about 16 s a call; they join
# the ladder once saturation on integer tables makes them affordable.
LADDER_CHECKED_MAX_P = 64


@dataclass(frozen=True)
class Query:
    qid: str
    prepare: Callable[[], tuple]
    call: Callable
    answer: Callable


class SystemSource:
    """Hands out F_P(G) on a fresh copy of G, with nothing cached.

    The iso table is computed once with ``fusion_of_group``.  Each
    ``fresh()`` rebuilds the ambient group with the public builders and
    wraps the stored table in a new ``FusionSystem``, so no lattice or
    class cache survives from one query to the next, and a pass does not
    pay for a full ``fusion_of_group`` per query.
    """

    def __init__(self, build_group: Callable[[], fk.Group], p: int):
        self.build_group = build_group
        self.p = p
        F = fk.fusion_of_group(build_group(), p)
        self.P_elements = F.P.elements
        self.table = F._isos

    def fresh(self) -> fk.FusionSystem:
        G = self.build_group()
        return fk.FusionSystem(G, G.subgroup(self.P_elements), self.p, self.table)


def catalog_group(name: str) -> Callable[[], fk.Group]:
    return lambda: fk.make_group(fk.load_catalog(name))


def product_group(left: str, right: str) -> Callable[[], fk.Group]:
    def build() -> fk.Group:
        data = fk.direct_product_groups(
            fk.make_group(fk.load_catalog(left)),
            fk.make_group(fk.load_catalog(right)),
            name=f"{left}x{right}",
        )
        return data.group
    return build


def _primes_of(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]


# -- set-up: the groups each workload is built from ---------------------------


def build_groups(workload: str) -> list[tuple[str, fk.Group]]:
    """Every group the workload's inputs come from, built once."""
    if workload == "catalog-cli":
        out = []
        for name in fk.catalog_names():
            spec = fk.load_catalog(name)
            if spec["order"] <= CLI_MAX_ORDER:
                out.append((name, fk.make_group(spec)))
        return out
    if workload == "derived-subsystems":
        return [(name, catalog_group(name)()) for name, _ in DERIVED_SYSTEMS]
    if workload == "pgroup-ladder":
        return [(f"{a}x{b}", product_group(a, b)()) for a, b in LADDER]
    raise KeyError(workload)


# -- catalog-cli --------------------------------------------------------------


def _cli_call(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    return rc, out.getvalue().encode()


def _cli_answer(result: tuple[int, bytes], _args) -> dict:
    rc, report = result
    return {"rc": rc, "sha256": hashlib.sha256(report).hexdigest()}


def catalog_cli() -> tuple[list[Query], list[tuple[str, fk.Subgroup]]]:
    queries, carriers = [], []
    for name, G in build_groups("catalog-cli"):
        for p in _primes_of(len(G)):
            carriers.append((f"{name} p={p}", fk.sylow(G, p)))
            for cmd in CLI_COMMANDS:
                argv = [cmd, "--group", name, "--prime", str(p)]
                queries.append(
                    Query(f"{cmd} {name} p={p}", lambda argv=argv: (argv,), _cli_call, _cli_answer)
                )
    return queries, carriers


# -- derived-subsystems -------------------------------------------------------


def _orders(subgroups) -> list[int]:
    return [len(S) for S in subgroups]


def _based_answer(outcome, _args) -> dict:
    if not outcome:
        return {"based": False, "reason": outcome.reason}
    return {
        "based": True,
        "minimal_isos": outcome.minimal.iso_count(),
        "maximal_isos": outcome.maximal.iso_count(),
    }


DERIVED_CALLS = (
    ("is_saturated_puig", lambda F: fk.is_saturated_puig(F), lambda v, _: v.saturated),
    ("o_p_prime_subsystem", lambda F: fk.o_p_prime_subsystem(F), lambda E, _: E.iso_count()),
    (
        "upper_central_series",
        lambda F: fk.upper_central_series(F),
        lambda s, _: {"terms": _orders(s.terms), "limit": len(s.limit)},
    ),
    ("x_subgroup", lambda F: fk.x_subgroup(F), lambda x, _: len(x.value)),
    ("o_p", lambda F: fk.o_p(F), lambda S, _: len(S)),
    ("based_range", lambda F: fk.based_range(F, F.P), _based_answer),
)


def derived_subsystems() -> tuple[list[Query], list[tuple[str, fk.Subgroup]]]:
    queries, carriers = [], []
    for name, p in DERIVED_SYSTEMS:
        source = SystemSource(catalog_group(name), p)
        carriers.append((f"{name} p={p}", source.fresh().P))
        for label, call, answer in DERIVED_CALLS:
            queries.append(
                Query(f"{label} {name} p={p}", lambda s=source: (s.fresh(),), call, answer)
            )
    for example in sorted(examples.EXAMPLES):
        queries.append(
            Query(
                f"run_example {example}",
                lambda example=example: (example,),
                lambda example: examples.run_example(example),
                lambda results, _: [[pred, bool(holds)] for pred, holds, _w in results],
            )
        )
    return queries, carriers


# -- pgroup-ladder ------------------------------------------------------------


def _round_trip(F: fk.FusionSystem) -> fk.FusionSystem:
    return fk.deserialize(json.loads(json.dumps(F.serialize())))


def _validate(F: fk.FusionSystem) -> str:
    fk.validate_fusion(F)
    return "valid"


def pgroup_ladder() -> tuple[list[Query], list[tuple[str, fk.Subgroup]]]:
    queries, carriers = [], []
    for a, b in LADDER:
        tag = f"{a}x{b}"
        build = product_group(a, b)
        source = SystemSource(build, 2)
        carriers.append((f"{tag} p=2", source.fresh().P))
        queries.append(
            Query(
                f"fusion_of_group {tag}",
                lambda build=build: (build(),),
                lambda G: fk.fusion_of_group(G, 2),
                lambda F, _: {
                    "subgroups": len(F.subgroups()),
                    "isos": F.iso_count(),
                    "classes": len(F.classes()),
                },
            )
        )
        fresh = lambda s=source: (s.fresh(),)
        queries.append(
            Query(
                f"strongly_closed_subgroups {tag}",
                fresh,
                lambda F: fk.strongly_closed_subgroups(F),
                lambda closed, _: _orders(closed),
            )
        )
        queries.append(
            Query(
                f"round_trip {tag}",
                fresh,
                _round_trip,
                lambda E, args: {"isos": E.iso_count(), "equal": E == args[0]},
            )
        )
        if len(source.P_elements) <= LADDER_CHECKED_MAX_P:
            queries.append(Query(f"validate_fusion {tag}", fresh, _validate, lambda v, _: v))
            queries.append(
                Query(
                    f"is_saturated {tag}",
                    fresh,
                    lambda F: fk.is_saturated(F),
                    lambda v, _: v.saturated,
                )
            )
    return queries, carriers


WORKLOADS = {
    "catalog-cli": catalog_cli,
    "derived-subsystems": derived_subsystems,
    "pgroup-ladder": pgroup_ladder,
}
