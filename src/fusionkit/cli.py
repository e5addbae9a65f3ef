"""Command line front end: one table of subcommands and one runner.

Each row of ``COMMANDS`` names a subcommand, its help line, its own
arguments and a body.  A body returns (predicate, holds, witness) triples,
the shape the worked examples return.  The runner owns everything else:
for a group command it resolves --group and --prime and builds F_P(G)
before the body runs; then it folds the triples into a
``fusionkit-report/1`` report whose inputs are the group, the prime and
the command's own arguments, and handles --timing, rendering and
--assert.  The argparse tree is built from the table once per process.

Exit codes: 0 on success, 1 when --assert is given and some predicate
fails, 2 on input errors.  Reports are byte-identical across runs unless
--timing is requested.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from .catalog import _read_json, catalog_names, load_catalog, load_group_spec, make_group
from .errors import (
    InputError,
    NotAPGroup,
    NotASubgroup,
    NotASubgroupOfP,
    NotStronglyClosed,
    NotSylow,
    OrderBoundExceeded,
    PreconditionFailed,
    PrimeMismatch,
)
from .fusion import (
    FusionSystem,
    fusion_of_group,
    inner_fusion,
    is_subsystem,
    quotient_with_data,
    validate_fusion,
)
from .groups import (
    Group,
    Subgroup,
    is_prime,
    upper_central_series_group,
)
from .hypercentre import (
    group_vs_fusion_centres,
    is_perfect,
    upper_central_series,
    verify_perfect_z2,
    x_subgroup,
)
from .normal_maps import (
    aut_map_from_data,
    aut_map_of,
    based_range,
    check_weakly_normal_map,
    generate_from_map,
    intersection_wedge,
    weakly_normal_systems_on,
)
from .perms import parse_perm
from .reports import add_result, all_hold, new_report, render
from .saturation import is_saturated, is_saturated_puig
from .subsystems import (
    normality_status,
    o_p,
    o_p_prime_subsystem,
    strongly_closed_subgroups,
    verify_theorem_a,
)
from .examples import EXAMPLES, Result, run_example

# InputError also covers ParseError and UnknownCatalogName.
_INPUT_ERRORS = (
    InputError,
    NotASubgroup,
    NotASubgroupOfP,
    NotSylow,
    NotAPGroup,
    NotStronglyClosed,
    PrimeMismatch,
    PreconditionFailed,
    OrderBoundExceeded,
)

# The sweep searches weakly normal systems only on T up to this order: the search grows fast.
_SWEEP_T_BOUND = 16


def _parse_subgroup(G: Group, text: str) -> Subgroup:
    """A subgroup from semicolon-separated cycle strings, e.g. '(1,2);(3,4)'."""
    indices = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        perm = parse_perm(chunk, G.degree)
        try:
            indices.append(G.index_of(perm))
        except KeyError:
            raise InputError(f"permutation {chunk!r} is not an element of the group")
    return G.generated_subgroup(indices)


def _resolve(args) -> tuple[Group, int]:
    G, spec_prime = load_group_spec(args.group)
    p = args.prime if args.prime is not None else spec_prime
    if p is None:
        raise InputError("no prime given: pass --prime or use a spec with one")
    if p < 1 or len(G) % p != 0:
        raise InputError(f"prime {p} does not divide the group order {len(G)}")
    return G, p


def _subsystem_on(F: FusionSystem, text: str) -> FusionSystem:
    H = _parse_subgroup(F.group, text)
    T = H.meet(F.P)
    return fusion_of_group(H, F.p, T)


# -- command bodies: (args, F) -> triples; F is None for non-group commands --


def _build(args, F: FusionSystem) -> list[Result]:
    validate_fusion(F)
    G = F.group
    return [
        ("group built", True, {"order": len(G), "degree": G.degree}),
        ("Sylow subgroup found", True, F.P),
        ("fusion system built", True, F),
        ("conjugacy classes", True, len(F.classes())),
        ("saturated", is_saturated(F).saturated, None),
    ]


def _saturated(args, F: FusionSystem) -> list[Result]:
    verdict = is_saturated(F)
    puig = is_saturated_puig(F)
    return [
        ("saturated", verdict.saturated, verdict.witness),
        ("the two saturation criteria agree", verdict.saturated == puig.saturated, puig.witness),
    ]


def _strongly_closed(args, F: FusionSystem) -> list[Result]:
    return [("strongly closed subgroups", True, strongly_closed_subgroups(F))]


def _normality(args, F: FusionSystem) -> list[Result]:
    E = _subsystem_on(F, args.sub)
    status = normality_status(F, E)
    return [
        ("subsystem built", True, E),
        ("invariant", status.invariant, status.failure_witness),
        ("weakly normal", status.weakly_normal, None),
        ("normal", status.normal, None),
    ]


def _quotient(args, F: FusionSystem) -> list[Result]:
    T = _parse_subgroup(F.group, args.kernel)
    Fbar, _ = quotient_with_data(F, T)
    return [
        ("kernel is strongly closed", True, T),
        ("quotient built", True, Fbar),
        ("quotient is saturated", is_saturated(Fbar).saturated, None),
        ("quotient is the inner system", Fbar == inner_fusion(Fbar.P, F.p), None),
    ]


def _opprime(args, F: FusionSystem) -> list[Result]:
    sub = o_p_prime_subsystem(F)
    sub_auts = len(sub.iso_mappings(F.P, F.P))
    return [
        ("O^{p'}(F) built", True, sub),
        ("equal to F", sub == F, None),
        ("automizer index at P is prime to p",
         (len(F.iso_mappings(F.P, F.P)) // sub_auts) % F.p != 0, sub_auts),
        ("weakly normal in F", normality_status(F, sub).weakly_normal, None),
    ]


def _map_check(args, F: FusionSystem) -> list[Result]:
    if args.map is not None:
        A = aut_map_from_data(F, _read_json(Path(args.map), "aut-map"))
    elif args.sub is not None:
        A = aut_map_of(_subsystem_on(F, args.sub))
    else:
        raise InputError("map-check needs --map FILE or --sub GENERATORS")
    verdict = check_weakly_normal_map(F, A)
    results = [(
        "the map satisfies the weakly normal axioms",
        bool(verdict), {"axiom": verdict.axiom, "reason": verdict.reason},
    )]
    if verdict:
        results.append(("generated subsystem", True, generate_from_map(F, A)))
    return results


def _wedge(args, F: FusionSystem) -> list[Result]:
    E1 = _subsystem_on(F, args.sub)
    E2 = _subsystem_on(F, args.sub2)
    W = intersection_wedge(F, E1, E2)
    return [
        ("wedge built", True, W),
        ("contained in the first subsystem", is_subsystem(W, E1), None),
        ("contained in the second subsystem", is_subsystem(W, E2), None),
        ("saturated", is_saturated(W).saturated, None),
    ]


def _based(args, F: FusionSystem) -> list[Result]:
    T = _parse_subgroup(F.group, args.target)
    outcome = based_range(F, T)
    if not outcome:
        return [("T is based", False, outcome.reason)]
    return [
        ("T is based", True, T),
        ("minimal weakly normal subsystem", True, outcome.minimal),
        ("maximal weakly normal subsystem", True, outcome.maximal),
    ]


def _hypercentre(args, F: FusionSystem) -> list[Result]:
    series = upper_central_series(F)
    X = x_subgroup(F)
    return [
        ("centre", True, series.terms[0]),
        ("upper central series", True, list(series.terms)),
        ("hypercentre", True, series.limit),
        ("X_F equals the hypercentre", X.value == series.limit, X.value),
        ("hypercentre is contained in O_p(F)", series.limit <= o_p(F), None),
    ]


def _perfect(args, F: FusionSystem) -> list[Result]:
    if not is_perfect(F):
        return [("perfect", False, None)]
    rep = verify_perfect_z2(F)
    return [("perfect", True, None), ("Z_2(F) equals Z(F)", rep.holds, rep.centre)]


def _theorem_a(args, F: FusionSystem) -> list[Result]:
    E = _subsystem_on(F, args.sub)
    rep = verify_theorem_a(F, E)
    return [
        ("E is weakly normal in F", True, E),
        ("O^{p'}(E) built", True, rep.subsystem),
        ("O^{p'}(E) is normal in F", rep.verdict.normal, None),
    ]


def _sweep_one(results: list[Result], name: str, G: Group, p: int) -> None:
    tag = f"{name} p={p}"
    F = fusion_of_group(G, p)
    verdict = is_saturated(F)
    puig = is_saturated_puig(F)
    results.append((f"{tag}: saturation criteria agree", verdict.saturated == puig.saturated, None))
    series = upper_central_series(F)
    X = x_subgroup(F)
    results.append((f"{tag}: X_F equals the hypercentre", X.value == series.limit, X.value))
    zp_series = upper_central_series_group(F.P)
    find_ok = True
    for i, term in enumerate(series.terms):
        zi_p = zp_series[min(i, len(zp_series) - 1)]
        expected = series.limit.meet(zi_p)
        if term.elements != expected.elements:
            find_ok = False
    results.append((f"{tag}: Z_i(F) = Z_inf(F) n Z_i(P)", find_ok, None))
    results.append((f"{tag}: hypercentre inside O_p(F)", series.limit <= o_p(F), None))
    if is_perfect(F):
        rep = verify_perfect_z2(F)
        results.append((f"{tag}: perfect gives Z_2 = Z_1", rep.holds, None))
    try:
        comparison = group_vs_fusion_centres(G, p)
        results.append((f"{tag}: group and fusion centres agree", comparison.equal, None))
    except PreconditionFailed:
        pass
    count = 0
    for T in strongly_closed_subgroups(F):
        if len(T) > _SWEEP_T_BOUND:
            continue
        for E in weakly_normal_systems_on(F, T):
            count += 1
            verify_theorem_a(F, E)
            A = aut_map_of(E)
            if generate_from_map(F, A) != E:
                results.append((f"{tag}: map round trip", False, E))
                return
    results.append((f"{tag}: theorem A and round trips over {count} subsystems", True, count))


def _sweep(args, F: None) -> list[Result]:
    results: list[Result] = []
    for name in sorted(catalog_names()):
        spec = load_catalog(name)
        if spec.get("order", 0) > args.max_order:
            continue
        G = make_group(spec)
        if len(G) > args.max_order:
            continue
        primes = [p for p in range(2, len(G) + 1) if len(G) % p == 0 and is_prime(p)]
        for p in primes:
            _sweep_one(results, name, G, p)
    return results


def _example(args, F: None) -> list[Result]:
    return run_example(args.name)


# -- the table and the runner ----------------------------------------------

Argument = tuple[str, dict]


class Command(NamedTuple):
    """One subcommand.  ``args`` are its own arguments, which also become
    the report's inputs unless ``inputs`` maps the parsed arguments to them."""

    name: str
    help: str
    body: Callable[..., list[Result]]
    args: tuple[Argument, ...] = ()
    group: bool = True
    inputs: Callable[..., dict] | None = None


_SUB: Argument = ("--sub", {"required": True, "help": "generators of a subgroup H of G"})

COMMANDS = (
    Command("build", "build F_P(G) and run basic checks", _build),
    Command("saturated", "test saturation both ways", _saturated),
    Command("strongly-closed", "list strongly closed subgroups", _strongly_closed),
    Command("opprime", "compute O^{p'}(F)", _opprime),
    Command("hypercentre", "centre, central series, X_F", _hypercentre),
    Command("perfect", "perfectness and the Z_2 = Z_1 check", _perfect),
    Command("normality", "normality status of a subsystem", _normality, (_SUB,)),
    Command("quotient", "F/T for a strongly closed kernel", _quotient,
            (("--kernel", {"required": True, "help": "generators of the kernel"}),)),
    Command("map-check", "check the weakly normal map axioms", _map_check, (
        ("--map", {"default": None, "help": "path to an aut-map JSON file"}),
        ("--sub", {"default": None, "help": "generators of a subsystem source"}),
    ), inputs=lambda args: {"map": args.map if args.map is not None else args.sub}),
    Command("wedge", "intersection wedge of two subsystems", _wedge,
            (_SUB, ("--sub2", {"required": True, "help": "generators of the second subgroup"}))),
    Command("based", "minimal and maximal weakly normal subsystems", _based,
            (("--target", {"required": True, "help": "generators of T"}),)),
    Command("theorem-a", "O^{p'}(E) is normal for weakly normal E", _theorem_a, (_SUB,)),
    Command("examples", "run a named worked example", _example,
            (("name", {"choices": sorted(EXAMPLES)}),), group=False),
    Command("sweep", "invariant suite over the catalog", _sweep,
            (("--max-order", {"type": int, "default": 24}),), group=False),
)

_GROUP: tuple[Argument, ...] = (
    ("--group", {"required": True, "help": "catalog name or spec file"}),
    ("--prime", {"type": int, "default": None, "help": "the prime p"}),
)
_COMMON: tuple[Argument, ...] = (
    ("--pretty", {"action": "store_true", "help": "indent the JSON report"}),
    ("--assert", {"dest": "assert_", "action": "store_true",
                  "help": "exit 1 unless every predicate holds"}),
    ("--timing", {"action": "store_true", "help": "record elapsed time"}),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="exact computation with fusion systems on finite p-groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sub = subs.add_parser(cmd.name, help=cmd.help)
        for flag, options in (_GROUP if cmd.group else ()) + cmd.args + _COMMON:
            sub.add_argument(flag, **options)
        sub.set_defaults(spec=cmd)
    return parser


def _inputs(cmd: Command, args) -> dict:
    if cmd.inputs is not None:
        return cmd.inputs(args)
    dests = (flag.lstrip("-").replace("-", "_") for flag, _ in cmd.args)
    return {dest: getattr(args, dest) for dest in dests}


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    cmd: Command = args.spec
    started = time.monotonic()
    try:
        if cmd.group:
            F = fusion_of_group(*_resolve(args))
            inputs = {"group": args.group, "prime": F.p}
        else:
            F, inputs = None, {}
        results = cmd.body(args, F)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2
    report = new_report(cmd.name, inputs | _inputs(cmd, args))
    for predicate, holds, witness in results:
        add_result(report, predicate, holds, witness)
    if args.timing:
        report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    sys.stdout.write(render(report, pretty=args.pretty) + "\n")
    return 1 if args.assert_ and not all_hold(report) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
