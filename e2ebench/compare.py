#!/usr/bin/env python3
"""Compares two sets of e2ebench results. Report only: always exits 0.

    python3 e2ebench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds one JSON line per run, as `run.py --save FILE` appends
them: {"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}.
For every workload and metric it prints each side's median and
quartiles (statistics.quantiles, n=4) and the change of the median.
End-to-end metrics (trace 0 runs) are judged against their bound from
BENCHMARK.json:

  unresolved   a side's quartile spread, as a share of its median, is
               wider than the bound, so the runs cannot tell
  worse        the median got worse by more than the bound
  better       the median got better by more than the bound
  within       otherwise

Per-layer metrics (trace 1 runs) have no bound and get no verdict.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["workload"], int(rec.get("trace", 0)))
            runs.setdefault(key, []).append(rec["result"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench_json = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(bench_json) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    before, after = load(sys.argv[1]), load(sys.argv[2])
    header = (f"{'metric':32s} {'before med [q1, q3]':>34s} {'after med [q1, q3]':>34s}"
              f" {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(before) | set(after)):
        workload, trace = key
        a_runs, b_runs = before.get(key, []), after.get(key, [])
        print(f"\n== {workload} ({'traced' if trace else 'end-to-end'}): "
              f"{len(a_runs)} vs {len(b_runs)} runs")
        for label, rs in (("before", a_runs), ("after", b_runs)):
            if rs:
                att = sum(r["attempted"] for r in rs)
                fail = sum(r["failed"] for r in rs)
                wrong = sum(1 for r in rs if not r["correct"])
                print(f"   {label}: {att} attempted, {fail} failed, {wrong} runs with wrong answers")
        print(header)
        specs = layer if trace else e2e
        for name, spec in specs.items():
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            ma, a1, a3, sa = summary(a)
            mb, b1, b3, sb = summary(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = sign * change
            verdict, bound_txt = "", ""
            if not trace:
                bound = spec["bound"]
                bound_txt = f"{bound:.2f}"
                if sa > bound or sb > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "within"
            print(f"{name:32s} {ma:12.5g} [{a1:9.4g}, {a3:9.4g}] {mb:12.5g} [{b1:9.4g}, {b3:9.4g}]"
                  f" {change * 100:+7.1f}% {bound_txt:>6s}  {verdict}")


if __name__ == "__main__":
    main()
