"""Command line front end: build systems, run predicates, reproduce the
worked examples, and sweep the catalog, emitting deterministic JSON.

Exit codes: 0 on success, 1 when --assert is given and some predicate
fails, 2 on input errors.  Reports are byte-identical across runs unless
--timing is requested.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations
from pathlib import Path

from .catalog import catalog_names, load_catalog, load_group_spec, make_group
from .errors import (
    FusionkitError,
    InputError,
    NotAPGroup,
    NotASubgroup,
    NotStronglyClosed,
    NotSylow,
    OrderBoundExceeded,
    ParseError,
    PreconditionFailed,
    PrimeMismatch,
    UnknownCatalogName,
)
from .fusion import (
    fusion_of_group,
    inner_fusion,
    is_subsystem,
    quotient_with_data,
    validate_fusion,
)
from .groups import (
    Group,
    Subgroup,
    all_subgroups,
    is_prime,
    sylow,
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
from .examples import EXAMPLES, run_example

_INPUT_ERRORS = (
    InputError,
    ParseError,
    UnknownCatalogName,
    NotASubgroup,
    NotSylow,
    NotAPGroup,
    NotStronglyClosed,
    PrimeMismatch,
    PreconditionFailed,
    OrderBoundExceeded,
)


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
    if len(G) % p != 0:
        raise InputError(f"prime {p} does not divide the group order {len(G)}")
    return G, p


def _subsystem_on(F, G: Group, p: int, text: str):
    H = _parse_subgroup(G, text)
    T = Subgroup(G, H._set & F.P._set)
    return fusion_of_group(H, p, T)


def _finish(report: dict, args, started: float) -> int:
    if getattr(args, "timing", False):
        report["timing_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    sys.stdout.write(render(report, pretty=args.pretty) + "\n")
    if getattr(args, "assert_", False) and not all_hold(report):
        return 1
    return 0


def _cmd_build(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    P = sylow(G.full_subgroup, p)
    F = fusion_of_group(G, p, P)
    validate_fusion(F)
    report = new_report("build", {"group": args.group, "prime": p})
    add_result(report, "group built", True, {"order": len(G), "degree": G.degree})
    add_result(report, "Sylow subgroup found", True, P)
    add_result(report, "fusion system built", True, F)
    add_result(report, "conjugacy classes", True, len(F.classes()))
    add_result(report, "saturated", is_saturated(F).saturated, None)
    return _finish(report, args, started)


def _cmd_saturated(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    verdict = is_saturated(F)
    puig = is_saturated_puig(F)
    report = new_report("saturated", {"group": args.group, "prime": p})
    add_result(report, "saturated", verdict.saturated, verdict.witness)
    add_result(
        report, "the two saturation criteria agree",
        verdict.saturated == puig.saturated, puig.witness,
    )
    return _finish(report, args, started)


def _cmd_strongly_closed(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    closed = strongly_closed_subgroups(F)
    report = new_report("strongly-closed", {"group": args.group, "prime": p})
    add_result(report, "strongly closed subgroups", True, closed)
    return _finish(report, args, started)


def _cmd_normality(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    E = _subsystem_on(F, G, p, args.sub)
    status = normality_status(F, E)
    report = new_report(
        "normality", {"group": args.group, "prime": p, "sub": args.sub}
    )
    add_result(report, "subsystem built", True, E)
    add_result(report, "invariant", status.invariant, status.failure_witness)
    add_result(report, "weakly normal", status.weakly_normal, None)
    add_result(report, "normal", status.normal, None)
    return _finish(report, args, started)


def _cmd_quotient(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    T = _parse_subgroup(G, args.kernel)
    Fbar, _ = quotient_with_data(F, T)
    report = new_report(
        "quotient", {"group": args.group, "prime": p, "kernel": args.kernel}
    )
    add_result(report, "kernel is strongly closed", True, T)
    add_result(report, "quotient built", True, Fbar)
    add_result(report, "quotient is saturated", is_saturated(Fbar).saturated, None)
    add_result(
        report, "quotient is the inner system",
        Fbar == inner_fusion(Fbar.P, p), None,
    )
    return _finish(report, args, started)


def _cmd_opprime(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    sub = o_p_prime_subsystem(F)
    report = new_report("opprime", {"group": args.group, "prime": p})
    add_result(report, "O^{p'}(F) built", True, sub)
    add_result(report, "equal to F", sub == F, None)
    add_result(
        report, "automizer index at P is prime to p",
        (len(F.iso_mappings(F.P, F.P)) // len(sub.iso_mappings(F.P, F.P))) % p != 0,
        len(sub.iso_mappings(F.P, F.P)),
    )
    add_result(
        report, "weakly normal in F", normality_status(F, sub).weakly_normal, None
    )
    return _finish(report, args, started)


def _cmd_map_check(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    if args.map is not None:
        try:
            data = json.loads(Path(args.map).read_text())
        except OSError as exc:
            raise InputError(f"cannot read aut-map file {args.map}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON in {args.map}: {exc}") from None
        A = aut_map_from_data(F, data)
        source = args.map
    elif args.sub is not None:
        A = aut_map_of(_subsystem_on(F, G, p, args.sub))
        source = args.sub
    else:
        raise InputError("map-check needs --map FILE or --sub GENERATORS")
    verdict = check_weakly_normal_map(F, A)
    report = new_report(
        "map-check", {"group": args.group, "prime": p, "map": source}
    )
    add_result(
        report, "the map satisfies the weakly normal axioms",
        bool(verdict), {"axiom": verdict.axiom, "reason": verdict.reason},
    )
    if verdict:
        E = generate_from_map(F, A)
        add_result(report, "generated subsystem", True, E)
    return _finish(report, args, started)


def _cmd_wedge(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    E1 = _subsystem_on(F, G, p, args.sub)
    E2 = _subsystem_on(F, G, p, args.sub2)
    W = intersection_wedge(F, E1, E2)
    report = new_report(
        "wedge", {"group": args.group, "prime": p, "sub": args.sub, "sub2": args.sub2}
    )
    add_result(report, "wedge built", True, W)
    add_result(report, "contained in the first subsystem", is_subsystem(W, E1), None)
    add_result(report, "contained in the second subsystem", is_subsystem(W, E2), None)
    add_result(report, "saturated", is_saturated(W).saturated, None)
    return _finish(report, args, started)


def _cmd_based(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    T = _parse_subgroup(G, args.target)
    outcome = based_range(F, T)
    report = new_report(
        "based", {"group": args.group, "prime": p, "target": args.target}
    )
    if outcome:
        add_result(report, "T is based", True, T)
        add_result(report, "minimal weakly normal subsystem", True, outcome.minimal)
        add_result(report, "maximal weakly normal subsystem", True, outcome.maximal)
    else:
        add_result(report, "T is based", False, outcome.reason)
    return _finish(report, args, started)


def _cmd_hypercentre(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    series = upper_central_series(F)
    X = x_subgroup(F)
    report = new_report("hypercentre", {"group": args.group, "prime": p})
    add_result(report, "centre", True, series.terms[0])
    add_result(report, "upper central series", True, list(series.terms))
    add_result(report, "hypercentre", True, series.limit)
    add_result(report, "X_F equals the hypercentre", True, X.value)
    add_result(
        report, "hypercentre is contained in O_p(F)",
        series.limit <= o_p(F), None,
    )
    return _finish(report, args, started)


def _cmd_perfect(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    perfect = is_perfect(F)
    report = new_report("perfect", {"group": args.group, "prime": p})
    add_result(report, "perfect", perfect, None)
    if perfect:
        rep = verify_perfect_z2(F)
        add_result(report, "Z_2(F) equals Z(F)", rep.holds, rep.centre)
    return _finish(report, args, started)


def _cmd_theorem_a(args) -> int:
    started = time.monotonic()
    G, p = _resolve(args)
    F = fusion_of_group(G, p)
    E = _subsystem_on(F, G, p, args.sub)
    rep = verify_theorem_a(F, E)
    report = new_report(
        "theorem-a", {"group": args.group, "prime": p, "sub": args.sub}
    )
    add_result(report, "E is weakly normal in F", True, E)
    add_result(report, "O^{p'}(E) built", True, rep.subsystem)
    add_result(report, "O^{p'}(E) is normal in F", rep.verdict.normal, None)
    return _finish(report, args, started)


def _cmd_examples(args) -> int:
    started = time.monotonic()
    results = run_example(args.name)
    report = new_report("examples", {"name": args.name})
    for predicate, holds, witness in results:
        add_result(report, predicate, holds, witness)
    return _finish(report, args, started)


def _oracle_subgroup_sets(P: Subgroup) -> set[frozenset[int]]:
    """Every subgroup of P as an element set, by subset closure,
    independent of all_subgroups."""
    G = P.group
    found = set()
    frontier = {frozenset((G.identity,))}
    while frontier:
        current = frontier.pop()
        if current in found:
            continue
        found.add(current)
        for g in P.elements:
            if g in current:
                continue
            grown = set(current)
            grown.add(g)
            changed = True
            while changed:
                changed = False
                for a in list(grown):
                    for b in list(grown):
                        prod = G.mul(a, b)
                        if prod not in grown:
                            grown.add(prod)
                            changed = True
                    inv = G.inv(a)
                    if inv not in grown:
                        grown.add(inv)
                        changed = True
            frontier.add(frozenset(grown))
    return found


def _sweep_one(report: dict, name: str, G: Group, p: int, *, t_bound: int, oracle: bool) -> None:
    tag = f"{name} p={p}"
    F = fusion_of_group(G, p)
    verdict = is_saturated(F)
    puig = is_saturated_puig(F)
    add_result(
        report, f"{tag}: saturation criteria agree",
        verdict.saturated == puig.saturated, None,
    )
    series = upper_central_series(F)
    X = x_subgroup(F)
    add_result(report, f"{tag}: X_F equals the hypercentre", True, X.value)
    zp_series = upper_central_series_group(F.P)
    find_ok = True
    for i, term in enumerate(series.terms):
        zi_p = zp_series[min(i, len(zp_series) - 1)]
        expected = Subgroup(G, series.limit._set & zi_p._set)
        if term.elements != expected.elements:
            find_ok = False
    add_result(report, f"{tag}: Z_i(F) = Z_inf(F) n Z_i(P)", find_ok, None)
    add_result(report, f"{tag}: hypercentre inside O_p(F)", series.limit <= o_p(F), None)
    if is_perfect(F):
        rep = verify_perfect_z2(F)
        add_result(report, f"{tag}: perfect gives Z_2 = Z_1", rep.holds, None)
    try:
        comparison = group_vs_fusion_centres(G, p)
        add_result(report, f"{tag}: group and fusion centres agree", comparison.equal, None)
    except PreconditionFailed:
        pass
    count = 0
    for T in strongly_closed_subgroups(F):
        if len(T) > t_bound:
            continue
        for E in weakly_normal_systems_on(F, T):
            count += 1
            verify_theorem_a(F, E)
            A = aut_map_of(E)
            if generate_from_map(F, A) != E:
                add_result(report, f"{tag}: map round trip", False, E)
                return
    add_result(report, f"{tag}: theorem A and round trips over {count} subsystems", True, count)
    if oracle:
        lattice, expected = all_subgroups(F.P), _oracle_subgroup_sets(F.P)
        add_result(
            report, f"{tag}: subgroup lattice matches the closure oracle",
            len(lattice) == len(expected) and {S._set for S in lattice} == expected,
            None,
        )


def _cmd_sweep(args) -> int:
    started = time.monotonic()
    report = new_report(
        "sweep", {"max_order": args.max_order, "oracle": bool(args.oracle)}
    )
    for name in sorted(catalog_names()):
        spec = load_catalog(name)
        if spec.get("order", 0) > args.max_order:
            continue
        G = make_group(spec)
        if len(G) > args.max_order:
            continue
        primes = [p for p in range(2, len(G) + 1) if len(G) % p == 0 and is_prime(p)]
        for p in primes:
            _sweep_one(report, name, G, p, t_bound=16, oracle=args.oracle)
    return _finish(report, args, started)


def _add_common(sub) -> None:
    sub.add_argument("--prime", type=int, default=None, help="the prime p")
    sub.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub.add_argument(
        "--assert", dest="assert_", action="store_true",
        help="exit 1 unless every predicate holds",
    )
    sub.add_argument("--timing", action="store_true", help="record elapsed time")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="exact computation with fusion systems on finite p-groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for cmd, func, help_text in [
        ("build", _cmd_build, "build F_P(G) and run basic checks"),
        ("saturated", _cmd_saturated, "test saturation both ways"),
        ("strongly-closed", _cmd_strongly_closed, "list strongly closed subgroups"),
        ("opprime", _cmd_opprime, "compute O^{p'}(F)"),
        ("hypercentre", _cmd_hypercentre, "centre, central series, X_F"),
        ("perfect", _cmd_perfect, "perfectness and the Z_2 = Z_1 check"),
    ]:
        sub = subs.add_parser(cmd, help=help_text)
        sub.add_argument("--group", required=True, help="catalog name or spec file")
        _add_common(sub)
        sub.set_defaults(func=func)

    sub = subs.add_parser("normality", help="normality status of a subsystem")
    sub.add_argument("--group", required=True)
    sub.add_argument("--sub", required=True, help="generators of the acting subgroup")
    _add_common(sub)
    sub.set_defaults(func=_cmd_normality)

    sub = subs.add_parser("quotient", help="F/T for a strongly closed kernel")
    sub.add_argument("--group", required=True)
    sub.add_argument("--kernel", required=True, help="generators of the kernel")
    _add_common(sub)
    sub.set_defaults(func=_cmd_quotient)

    sub = subs.add_parser("map-check", help="check the weakly normal map axioms")
    sub.add_argument("--group", required=True)
    sub.add_argument("--map", default=None, help="path to an aut-map JSON file")
    sub.add_argument("--sub", default=None, help="generators of a subsystem source")
    _add_common(sub)
    sub.set_defaults(func=_cmd_map_check)

    sub = subs.add_parser("wedge", help="intersection wedge of two subsystems")
    sub.add_argument("--group", required=True)
    sub.add_argument("--sub", required=True)
    sub.add_argument("--sub2", required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_wedge)

    sub = subs.add_parser("based", help="minimal and maximal weakly normal subsystems")
    sub.add_argument("--group", required=True)
    sub.add_argument("--target", required=True, help="generators of T")
    _add_common(sub)
    sub.set_defaults(func=_cmd_based)

    sub = subs.add_parser("theorem-a", help="O^{p'}(E) is normal for weakly normal E")
    sub.add_argument("--group", required=True)
    sub.add_argument("--sub", required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_theorem_a)

    sub = subs.add_parser("examples", help="run a named worked example")
    sub.add_argument("name", choices=sorted(EXAMPLES))
    _add_common(sub)
    sub.set_defaults(func=_cmd_examples)

    sub = subs.add_parser("sweep", help="invariant suite over the catalog")
    sub.add_argument("--max-order", type=int, default=24)
    sub.add_argument("--oracle", action="store_true", help="enable brute-force cross checks")
    _add_common(sub)
    sub.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
