"""fusionkit benchmark: three closed-loop workloads, one client, no threads.

    python3 bench/run.py --workload catalog-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # each workload in its own process

A query is one top-level call on freshly built inputs (see workloads.py);
a pass runs a workload's fixed query list once, in an order drawn from
``--seed``.  Passes repeat until ``--seconds`` is used up, and at least
MIN_PASSES run.  Every answer is checked against ``expected.json``, and the
lattices of carriers up to order ORACLE_MAX_P are checked against the
subset-closure oracle in ``tests/oracles.py`` before timing starts.

Every end-to-end timing is in calibrated seconds (see speed.py):
wall-clock time scaled by how fast a fixed loop ran around it, read five
times a second all through the passes and the set-up, so that the host's
changing speed drops out.  The wall-clock pass time is printed as a line
of its own.

End-to-end metrics (``--trace 0``): ``pass_s`` sums the latencies of one
pass's queries (building their inputs is not counted) and reports the
median pass; ``query_p50_ms`` and ``query_tail_ms`` are
percentiles of all query latencies, the tail at the highest percentile with
at least ten samples beyond it in MIN_PASSES passes; ``query_geomean_ms`` is
the geometric mean of each distinct query's median, so every query weighs
the same; ``setup_s`` is the median time over fresh interpreters to import
fusionkit and build the workload's groups; ``peak_rss_mb`` is the process's
peak memory.  ``failed_frac`` is printed as a line, and the result's
``failed`` and ``attempted`` carry it.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` it reports the per-layer metrics of a traced run: one
untraced pass, then TRACED_PASSES passes with fusionkit wrapped from the
outside (tracer.py), whose work counts must agree exactly.  Its per-layer
times are wall-clock and include the loop readings that fall inside a
span, about 4% of it; ``trace.overhead_frac`` compares calibrated pass
times.  The traced run writes its spans and its full per-function table
under ``.bench_out/``.

Exit codes: 0 when every answer is right, 1 when one is wrong or the
oracle disagrees, 2 when the sources to benchmark are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import SpeedMeter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("catalog-cli", "derived-subsystems", "pgroup-ladder")

MIN_PASSES = 2
TRACED_PASSES = 2
SETUP_PROBES = 7
ORACLE_MAX_P = 32

END_TO_END = {
    "pass_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "query_geomean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed with --trace 1.  Times are reported for the
# functions and layers that every workload runs; for the rest the call count
# is reported (0 where a workload does not reach that layer), and the full
# per-function table is written to .bench_out/layers-<workload>.json.
TIMED = (
    "groups.all_subgroups",
    "groups.subgroup_closure",
    "groups.normalizer",
    "saturation.is_saturated",
    "saturation.is_receptive",
    "saturation.n_phi",
    "saturation.extend_morphism",
    "fusion.fusion_of_group",
    "fusion.is_strongly_closed",
    "subsystems.strongly_closed_subgroups",
)
COUNTED = (
    "saturation.is_saturated_puig",
    "fusion.generated_fusion",
    "fusion.FusionSystem.serialize",
    "fusion.deserialize",
    "fusion.validate_fusion",
    "morphisms.Morphism.conjugated_by",
    "morphisms.Morphism.then",
    "morphisms.Morphism.restrict",
    "morphisms.AutGroup",
    "subsystems.o_p_prime_subsystem",
    "subsystems.normality_status",
    "subsystems.local_subsystem",
    "normal_maps.check_weakly_normal_map",
    "normal_maps.generate_from_map",
    "normal_maps.weakly_normal_systems_on",
    "normal_maps.based_range",
    "hypercentre.upper_central_series",
    "hypercentre.x_subgroup",
    "hypercentre.centre_of",
    "catalog.load_catalog",
    "catalog.make_group",
    "cli.run",
    "reports.render",
    "perms.perm_mul",
)
TIMED_LAYERS = ("groups", "fusion", "saturation", "subsystems", "perms")
PER_LAYER = {
    **{f"{n}.{m}": u for n in TIMED for m, u in (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))},
    **{f"{n}.calls": "count" for n in COUNTED},
    **{f"{layer}.self_ms": "ms" for layer in TIMED_LAYERS},
    "groups.subgroups_built": "count",
    "groups.all_subgroups.distinct_frac": "frac",
    "fusion.isos_built": "count",
    "trace.overhead_frac": "frac",
}


def tail_percentile(queries_per_pass: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    the fewest samples a run can take, so every run reports the same one."""
    return math.floor(100 - 1000 / (queries_per_pass * MIN_PASSES))


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a beta density centred on rank q * n.  Taking one
    order statistic instead makes a percentile that falls between two
    queries of different cost jump from run to run."""
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log(1 - x))

    steps = 4  # Simpson's rule on each interval [(i - 1) / n, i / n]
    h = 1 / (n * steps)
    estimate = total = 0.0
    for i, value in enumerate(sorted_values):
        lo = i / n
        ys = [density(lo + k * h) for k in range(steps + 1)]
        weight = h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
        estimate += weight * value
        total += weight
    return estimate / total


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_lattices(carriers) -> list[str]:
    import fusionkit as fk

    oracles = load_oracles()
    wrong = []
    for label, P in carriers:
        if len(P) <= ORACLE_MAX_P:
            got, want = len(fk.all_subgroups(P)), oracles.oracle_subgroup_count(P)
            if got != want:
                wrong.append(f"{label}: all_subgroups gives {got}, the oracle {want}")
    return wrong


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of importing fusionkit and building
    the workload's groups."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    seconds = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        seconds.append(float(done.stdout.split()[-1]))
    return statistics.median(seconds)


def run_pass(queries, expected, meter, tracer=None, first_number=0):
    """Run the queries in the given order; returns (latencies, wall-clock
    seconds, failures), the latencies in calibrated seconds of the running
    ``meter``."""
    spans, failures = [], []
    for number, q in enumerate(queries, start=first_number):
        args = q.prepare()
        if tracer is not None:
            tracer.query = number
        start = meter.now()
        try:
            result = q.call(*args)
        except Exception as exc:  # a raising query is a failed query; the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        end = meter.now()
        if tracer is not None:
            tracer.query = -1
        spans.append((q.qid, start, end))
        if error is None:
            got = json.loads(json.dumps(q.answer(result, args)))
            if got != expected.get(q.qid):
                error = f"answer {got!r}, expected {expected.get(q.qid)!r}"
        if error is not None:
            failures.append(f"{q.qid}: {error}")
    meter.read()
    latencies = [(qid, meter.seconds(start, end)) for qid, start, end in spans]
    return latencies, sum(end - start for _, start, end in spans), failures


def end_to_end(queries, passes, setup_s) -> tuple[dict, list[str]]:
    samples = sorted(s for latencies in passes for _, s in latencies)
    by_query = defaultdict(list)
    for latencies in passes:
        for qid, s in latencies:
            by_query[qid].append(s)
    tail_q = tail_percentile(len(queries))
    values = {
        "pass_s": statistics.median(sum(s for _, s in lat) for lat in passes),
        "query_p50_ms": quantile(samples, 0.5) * 1e3,
        "query_tail_ms": quantile(samples, tail_q / 100) * 1e3,
        "query_geomean_ms": math.exp(
            statistics.fmean(math.log(statistics.median(v) * 1e3) for v in by_query.values())
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "pass_s": f"median of {len(passes)} passes of {len(queries)} queries",
        "query_p50_ms": f"N={len(samples)}",
        "query_tail_ms": f"p{tail_q}, N={len(samples)}, {len(samples) * (100 - tail_q) / 100:.1f} beyond",
        "query_geomean_ms": f"{len(by_query)} distinct queries",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "peak_rss_mb": "max resident set of this process",
    }
    lines = [f"{k:18s} {v:12.4f} {END_TO_END[k]:3s}  {notes[k]}" for k, v in values.items()]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def per_layer(snapshots, untraced_s, traced_s) -> dict:
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = statistics.median(traced_s) / untraced_s - 1
        elif unit == "ms":
            value = statistics.median(snap[name] for snap in snapshots)
        else:
            value = snapshots[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    setup_s = measure_setup(args.workload) if not args.trace else None
    queries, carriers = workloads.WORKLOADS[args.workload]()
    wrong = check_lattices(carriers)
    if wrong:
        print("lattice sizes disagree with the closure oracle:", *wrong, sep="\n  ", file=sys.stderr)
        return 1

    rng = random.Random(args.seed)

    def shuffled():
        order = list(queries)
        rng.shuffle(order)
        return order

    failures, passes, walls = [], [], []
    print(f"workload {args.workload}, seed {args.seed}, {len(queries)} queries a pass")
    meter = SpeedMeter()
    meter.start()
    if not args.trace:
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            latencies, wall_s, failed = run_pass(shuffled(), expected, meter)
            passes.append(latencies)
            walls.append(wall_s)
            failures += failed
            wall = time.perf_counter() - pass_started
            if len(passes) >= MIN_PASSES and time.perf_counter() - started + wall > args.seconds:
                break
        meter.stop()
        metrics, lines = end_to_end(queries, passes, setup_s)
    else:
        from tracer import Tracer, counters

        latencies, wall_s, failures = run_pass(shuffled(), expected, meter)
        passes.append(latencies)
        walls.append(wall_s)
        untraced_s = sum(s for _, s in latencies)
        tracer = Tracer()
        tracer.install()
        snapshots, traced_s, labels = [], [], []
        for i in range(TRACED_PASSES):
            order = shuffled()
            tracer.reset()
            latencies, wall_s, failed = run_pass(
                order, expected, meter, tracer, first_number=len(labels)
            )
            labels += [f"pass {i} {q.qid}" for q in order]
            passes.append(latencies)
            walls.append(wall_s)
            failures += failed
            traced_s.append(sum(s for _, s in latencies))
            snapshots.append(tracer.snapshot())
        meter.stop()
        counts = [counters(snap) for snap in snapshots]
        for name in counts[0]:
            if any(c[name] != counts[0][name] for c in counts[1:]):
                failures.append(f"counter {name} differs between traced passes")
        OUT.mkdir(exist_ok=True)
        n_spans = tracer.write(OUT / f"spans-{args.workload}.jsonl.gz", labels)
        table = {
            k: statistics.median(snap[k] for snap in snapshots) for k in sorted(snapshots[0])
        }
        (OUT / f"layers-{args.workload}.json").write_text(json.dumps(table, indent=1) + "\n")
        metrics = per_layer(snapshots, untraced_s, traced_s)
        lines = [f"{k:52s} {v['value']:14.4f} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"{n_spans} spans and the full table written under {OUT.name}/")

    attempted = sum(len(lat) for lat in passes)
    for line in lines:
        print(line)
    loops = sorted(meter.loops)
    print(
        f"wall-clock pass_s {statistics.median(walls):.4f} s; calibration loop "
        f"{statistics.median(loops) * 1e3:.3f} ms median, {loops[0] * 1e3:.3f}-{loops[-1] * 1e3:.3f} "
        f"over {len(loops)} readings"
    )
    print(f"{'failed_frac':18s} {len(failures) / attempted:12.4f}      {len(failures)} of {attempted}")
    for failure in failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    correct = not failures
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    ))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusionkit" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"no fusionkit sources or tests/oracles.py under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
