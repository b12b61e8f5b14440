"""Run two sets of benchmark runs of the same code and compare them.

Usage (from the root of a source checkout)::

    python3 perfbench/steadiness.py

It makes two sets of ten runs of every workload in ``BENCHMARK.json``,
each run with its own seed (set 1: seeds 1..10, set 2: 11..20).  For every
workload and end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, together with ``host.ref_s``.  It exits 1 when

* a metric spreads more than its bound in either set,
* the two sets' medians differ by more than the bound, in either
  direction, or
* the share of failed operations differs between the sets.

Bounds come from ``BENCHMARK.json``.  The table is also written to
``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR, ROOT  # noqa: E402

SETS = 2
RUNS = 10

def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("host.ref_s "):
            result["host_ref_s"] = float(line.split()[1])
    return result


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                res = run_once(bench["command"], w, seed, seconds)
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in res["metrics"].items()),
                      flush=True)

    problems, table = [], {}
    for w in workloads:
        table[w] = {}
        shares = [Fraction(sum(r["failed"] for r in runs),
                           sum(r["attempted"] for r in runs))
                  for runs in results[w]]
        if len(set(shares)) > 1:
            problems.append(f"{w}: failed share differs {shares}")
        rows = [(m["name"], m["bound"]) for m in metrics]
        rows.append(("host.ref_s", None))
        for name, bound in rows:
            sets = []
            for runs in results[w]:
                values = [r["metrics"][name]["value"] if name in r["metrics"]
                          else r["host_ref_s"] for r in runs]
                sets.append(summary(values))
            table[w][name] = sets
            print(f"{w:12s} {name:15s} " + " | ".join(
                f"median {x['median']:.5g} q1 {x['q1']:.5g} "
                f"q3 {x['q3']:.5g} spread {x['spread']:.3f}" for x in sets))
            if bound is None:
                continue
            for k, x in enumerate(sets):
                if x["spread"] > bound:
                    problems.append(f"{w} {name}: set {k + 1} spread "
                                    f"{x['spread']:.3f} > {bound}")
            a, b = sets[0]["median"], sets[1]["median"]
            drift = abs(b - a) / a
            if drift > bound:
                problems.append(f"{w} {name}: medians differ by "
                                f"{drift:.3f} > {bound}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"table": table, "problems": problems,
                   "runs": results}, fh, indent=1)
    for p in problems:
        print("NOT STEADY:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
