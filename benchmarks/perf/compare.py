"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload): both medians and quartiles
over the stored runs, the change of B against A in the metric's worse
direction, the bound from ``BENCHMARK.json``, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — either set's own spread (quartile distance over
  median) is wider than the bound, so the sets cannot tell, unless every
  run of B reads better than every run of A.
"""

from __future__ import annotations

import json

from harness import summarize


def verdict(a_values, b_values, better: str, bound: float):
    a, b = summarize(a_values), summarize(b_values)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if better == "lower":
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if spread > bound and not all_better:
        return a, b, worse_by, "unresolved"
    return a, b, worse_by, "regressed" if worse_by > bound else "ok"


def compare_files(path_a: str, path_b: str, declared: dict) -> int:
    with open(path_a) as fh:
        set_a = json.load(fh)
    with open(path_b) as fh:
        set_b = json.load(fh)
    print(f"{'workload':<22}{'metric':<14}{'A median':>12}{'A q1..q3':>22}"
          f"{'B median':>12}{'B q1..q3':>22}{'worse by':>10}{'bound':>7}  verdict")
    bad = 0
    for workload in set_a["end_to_end"]:
        for metric, spec in declared["end_to_end"].items():
            a_values = set_a["end_to_end"].get(workload, {}).get(metric)
            b_values = set_b["end_to_end"].get(workload, {}).get(metric)
            if not a_values or not b_values:
                print(f"{workload:<22}{metric:<14} missing from one set")
                bad += 1
                continue
            a, b, worse_by, word = verdict(
                a_values, b_values, spec["better"], spec["bound"])
            bad += word != "ok"
            print(f"{workload:<22}{metric:<14}{a['median']:>12.5g}"
                  f"{a['q1']:>11.5g}..{a['q3']:<9.5g}{b['median']:>12.5g}"
                  f"{b['q1']:>11.5g}..{b['q3']:<9.5g}{worse_by:>+10.1%}"
                  f"{spec['bound']:>7.2f}  {word}")
    for label, collected in (("A", set_a), ("B", set_b)):
        for problem in collected.get("problems", []):
            print(f"PROBLEM in {label}: {problem}")
            bad += 1
    exact = [
        (workload, metric)
        for workload, layer in set_a.get("per_layer", {}).items()
        for metric, values in layer.items()
        if declared["per_layer"].get(metric, {}).get("unit") == "count"
        and set_b.get("per_layer", {}).get(workload, {}).get(metric, values) != values
    ]
    for workload, metric in exact:
        print(f"exact count differs: {workload} {metric}")
    return 1 if bad or exact else 0
