#!/usr/bin/env python3
"""The repository's performance benchmark.

Two ways to run it, both from the repository root::

    python3 benchmarks/perf/run.py --workload rank_series --seed 7 --seconds 15 --trace 0
    python3 benchmarks/perf/run.py [--seed 7] [--runs 10] [--trace] [--smoke] [--out FILE]

The first form measures one workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The second form runs that once per workload (and per
run) in child processes, prints every metric with unit, median,
quartiles and sample count, and can store the set for ``--compare``.

See README.md for what each metric means and how they interact.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import harness  # noqa: E402
from harness import median, quantile, summarize  # noqa: E402

REFERENCE_PATH = PERF_DIR / "reference.json"
BENCHMARK_PATH = harness.REPO_ROOT / "BENCHMARK.json"
SMOKE_SECONDS = 0  # one repetition per workload
TAIL = 0.95  # op_tail_ms: this quantile of the operations within one repetition
SMOKE_TRACED = "artifacts_cold"  # its wall is what the broker stages must add up to
COLD_STAGES = "cli.import_s + sum(broker.artifact.*_s)"
SERVICE_STAGES = ("service.submit_fresh_ms", "service.compute_wait_ms",
                  "service.result_fetch_ms")


def load_declared() -> dict:
    declared = json.loads(BENCHMARK_PATH.read_text())
    return {
        "seconds": declared["run_seconds"],
        "end_to_end": {m["name"]: m for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m for m in declared["per_layer"]},
    }


# -- reference ------------------------------------------------------------------


def observation_group(workload: str, key: str) -> str:
    return "layers" if key.startswith("layers.") else workload


def count_drift(workload, seed, observed, traced) -> list[str]:
    """Observations that disagree with (or are missing from) the reference."""
    reference = json.loads(REFERENCE_PATH.read_text())
    drift = []
    group = "layers" if traced else workload
    sections = ["any_seed"] + (["seed_only"] if seed == reference["seed"] else [])
    for section in sections:
        for key, value in reference[section].get(group, {}).items():
            if key not in observed:
                drift.append(f"{group}/{key}: pinned but not produced")
            elif observed[key][0] != value:
                drift.append(f"{group}/{key}: {observed[key][0]!r} != reference {value!r}")
    return drift


def write_reference(seed: int, observed_by_group: dict) -> None:
    """Pin what this run observed; groups it did not run keep their pins."""
    reference = {"seed": seed, "any_seed": {}, "seed_only": {}}
    if REFERENCE_PATH.is_file():
        previous = json.loads(REFERENCE_PATH.read_text())
        if previous["seed"] == seed:
            reference = previous
    for group, observed in sorted(observed_by_group.items()):
        for section in ("any_seed", "seed_only"):
            reference[section][group] = {}
        for key, (value, any_seed) in sorted(observed.items()):
            reference["any_seed" if any_seed else "seed_only"][group][key] = value
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# -- one workload, in this process ------------------------------------------------


def measure(workload, seconds: float, spans) -> list[float]:
    """Run repetitions for about ``seconds``; returns their walls."""
    workload.spans = spans
    walls = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        out = workload.repetition()
        walls.append(time.perf_counter() - start)
        workload.digest(out)
        # Another repetition only if at least half of it fits.
        if time.perf_counter() - begin + 0.5 * median(walls) >= seconds:
            return walls


def run_workload(args) -> int:
    from workloads import WORKLOADS

    declared = load_declared()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    cls = WORKLOADS[args.workload]
    traced = bool(args.trace)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    allowed = os.sched_getaffinity(0)
    env = harness.prepare_environment()
    harness.pin_one_cpu(allowed)
    host = harness.host_facts(allowed)

    with harness.ScratchArea() as scratch:
        start = time.perf_counter()
        cls.load()
        import_s = time.perf_counter() - start
        workload = cls(args.seed, scratch, env)
        setup_times = []
        try:
            for _ in range(1 if traced or args.smoke else cls.setups):
                gc.collect()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)

            untraced = harness.Spans("untraced", enabled=False)
            if not traced:
                walls = measure(workload, seconds, untraced)
                # The process imports once; every set-up sample carries that cost.
                setup_times = [import_s + t for t in setup_times]
                tails = [quantile(ops, TAIL) for ops in workload.op_ms]
                metrics = end_to_end_metrics(workload, walls, tails, setup_times)
                samples = {"wall_s": walls, "op_tail_ms": tails, "setup_s": setup_times}
            else:
                # One plain repetition, then one with benchmark-side spans:
                # their difference is what tracing costs on this workload.
                plain = measure(workload, 0, untraced)[0]
                spans = harness.Spans(f"{cls.name}-seed{args.seed}", enabled=True)
                with spans.span(f"workload.{cls.name}") as spans.default_parent:
                    traced_wall = measure(workload, 0, spans)[0]
                spans.dump(harness.OUT_DIR / f"trace-{cls.name}.json")
            workload.finish()
        finally:
            workload.teardown()
        if traced:
            metrics, samples = per_layer_metrics(
                args.seed, scratch, env, allowed, workload.observe, plain, traced_wall)

    drift = list(workload.drift)
    if args.check:
        drift += count_drift(cls.name, args.seed, workload.observed, traced)

    declared_names = declared["per_layer" if traced else "end_to_end"]
    if set(metrics) != set(declared_names):
        print("metrics emitted differ from BENCHMARK.json:",
              sorted(set(metrics) ^ set(declared_names)))
        return 2

    print(f"# {cls.name} seed={args.seed} trace={int(traced)} "
          f"nproc={host['nproc']} affinity={host['affinity']} "
          f"python={host['python']} load1={host['load1']:.2f}")
    if host["load_warning"]:
        print(f"# WARNING: 1-min load average {host['load1']:.2f} exceeds nproc "
              f"{host['nproc']}; timings are contended")
    if not traced:
        print(f"# items_per_s counts {cls.item}; op_tail_ms is the p{TAIL * 100:.0f} of "
              f"{cls.op} within a repetition ({len(workload.op_ms[0])} per repetition)")
    print_table(metrics, samples)
    print(f"# failed {workload.failed} of {workload.attempted}; output_drift {len(drift)}")
    for line in drift[:20]:
        print(f"# drift: {line}")
    print("DETAIL " + json.dumps({
        "workload": cls.name, "seed": args.seed, "traced": traced, "host": host,
        "metrics": metrics, "samples": samples, "drift": drift,
        "observed": workload.observed,
    }))
    print(json.dumps({
        "correct": not drift,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0 if not drift and workload.failed == 0 else 1


def end_to_end_metrics(workload, walls, tails, setup_times) -> dict:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # The fastest repetition: what disturbs a run on a shared machine only
    # ever adds time (README.md, "Why the fastest repetition").
    values = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (min(walls), "s"),
        "items_per_s": (workload.items / len(walls) / min(walls), "1/s"),
        "op_tail_ms": (min(tails), "ms"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer_metrics(seed, scratch, env, allowed, observe, plain, traced_wall):
    from layers import Layers

    # Every traced run measures the layers the same way, whichever workload
    # it traced (one CPU, except where a program widens it itself).
    layers = Layers(seed, scratch, env, allowed, observe)
    layers.run_all()
    layers.record("trace.plain_wall_s", "s", plain)
    layers.record("trace.overhead_frac", "fraction", (traced_wall - plain) / plain)
    metrics = {name: {"value": median(values), "unit": layers.units[name]}
               for name, values in layers.samples.items()}
    return metrics, layers.samples


def print_table(metrics, samples) -> None:
    """Every metric by name: unit, value, and its samples' quartiles and n."""
    print(f"{'metric':<38}{'unit':>9}{'value':>16}{'q1':>14}{'q3':>14}{'n':>7}")
    for name, metric in metrics.items():
        values = samples.get(name)
        stats = summarize(values) if values else {"q1": metric["value"], "q3": metric["value"], "n": 1}
        print(f"{name:<38}{metric['unit']:>9}{metric['value']:>16.6g}"
              f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}{stats['n']:>7}")


# -- all workloads, in child processes ----------------------------------------------


def run_child(name, seed, seconds, trace, args):
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if args.smoke:
        command.append("--smoke")
    if not args.check or args.update_reference:
        command.append("--no-check")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    detail = next((json.loads(line[7:]) for line in lines if line.startswith("DETAIL ")), None)
    if detail is None:
        print(done.stdout, done.stderr, sep="\n")
        raise SystemExit(f"{name}: run produced no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    print("\n".join(line for line in lines[:-2]))
    return detail, result


def orchestrate(args) -> int:
    from workloads import WORKLOADS

    declared = load_declared()
    # All six, the two BENCHMARK.json leaves out included (README.md, "Workloads").
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else declared["seconds"]
    collected = {"seed": args.seed, "runs": args.runs, "seconds": seconds,
                 "smoke": args.smoke, "end_to_end": {}, "per_layer": {}, "problems": []}
    observed_by_group: dict[str, dict] = {}
    # A smoke run traces one workload only: every traced run measures every
    # layer, and six of those would not be a smoke run.
    traced_names = names if not args.smoke else [
        SMOKE_TRACED if SMOKE_TRACED in names else names[0]]
    for name in names:
        for run_index in range(args.runs):
            trace_too = args.trace and run_index == 0 and name in traced_names
            for traced in ([False, True] if trace_too else [False]):
                detail, result = run_child(name, args.seed + run_index, seconds, traced, args)
                section = collected["per_layer" if traced else "end_to_end"]
                for metric, entry in detail["metrics"].items():
                    section.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
                collected.setdefault("units", {}).update(
                    {metric: entry["unit"] for metric, entry in detail["metrics"].items()})
                collected["host"] = detail["host"]
                if not result["correct"] or result["failed"]:
                    collected["problems"].append(
                        f"{name} seed={detail['seed']} trace={int(traced)}: "
                        f"failed={result['failed']} drift={detail['drift'][:3]}")
                for key, pair in detail["observed"].items():
                    observed_by_group.setdefault(observation_group(name, key), {})[key] = pair

    print_summary(collected, declared)
    if args.update_reference:
        write_reference(args.seed, observed_by_group)
        print(f"wrote {REFERENCE_PATH}")
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1) + "\n")
    for problem in collected["problems"]:
        print("PROBLEM", problem)
    return 1 if collected["problems"] else 0


def print_summary(collected, declared) -> None:
    units = collected.get("units", {})
    for section in ("end_to_end", "per_layer"):
        for name, metrics in collected[section].items():
            print(f"\n== {section} / {name}: median, quartiles and n over runs")
            print(f"{'metric':<38}{'unit':>9}{'median':>16}{'q1':>14}{'q3':>14}{'n':>5}"
                  f"{'iqr/median':>12}")
            for metric, values in metrics.items():
                stats = summarize(values)
                spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
                print(f"{metric:<38}{units.get(metric, ''):>9}{stats['median']:>16.6g}"
                      f"{stats['q1']:>14.6g}{stats['q3']:>14.6g}{stats['n']:>5}{spread:>12.3f}")
    for label, value in residuals(collected).items():
        print(f"residual {label}: {value:+.1%}")


def residuals(collected) -> dict[str, float]:
    """How much of an end-to-end number its layer stages leave unexplained."""
    out = {}
    for name, layer in collected["per_layer"].items():
        value = {metric: median(values) for metric, values in layer.items()}
        stages = sum(value[s] for s in SERVICE_STAGES)
        out[f"{name}: service stages vs service.job_fresh_ms"] = (
            (value["service.job_fresh_ms"] - stages) / value["service.job_fresh_ms"])
        if name == "artifacts_cold":
            # Against the cold run timed in the same traced run, seconds
            # before the stages: this machine's speed wanders between runs.
            explained = value["cli.import_s"] + sum(
                v for metric, v in value.items() if metric.startswith("broker.artifact."))
            wall = value["trace.plain_wall_s"]
            out[f"{name}: {COLD_STAGES} vs trace.plain_wall_s"] = (wall - explained) / wall
    return out


# -- command line ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced pass and per-layer metrics")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per workload at seeds seed, seed+1, ... (child processes)")
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition per workload, one set-up")
    parser.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                        help="compare simulated statistics with reference.json")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference.json from this run (use --seed 7 --trace)")
    parser.add_argument("--out", help="store the collected set of runs as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two stored sets against the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)

    if not (harness.SRC_DIR / "repro" / "__init__.py").is_file() or not BENCHMARK_PATH.is_file():
        print(f"no repro sources under {harness.SRC_DIR}: nothing to measure", file=sys.stderr)
        return 2
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, load_declared())
    if args.workload and args.runs is None and not args.update_reference:
        if args.seconds is None:
            args.seconds = load_declared()["seconds"]
        return run_workload(args)
    args.runs = args.runs or 1
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
