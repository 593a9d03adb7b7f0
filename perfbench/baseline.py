"""Run the benchmark over several seeds and record medians and quartiles.

Usage, from the repository root:

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --label seed-commit --out perfbench/BENCH_baseline.json

Each run is its own process (``perfbench/run.py``), one after another.  For
every workload and end-to-end metric the record holds the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the bound fixed in ``BENCHMARK.json``.  One
traced run per workload, made twice, records the per-layer metrics and
whether every count repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT,
        env=dict(os.environ, PYTHONPATH=run.SRC),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--label", default="unlabelled")
    parser.add_argument("--out", help="write the record here (JSON)")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    record = {
        "label": args.label,
        "machine": run.machine(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        results = [one(name, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        print(f"== {name}: correct={entry['correct']} failed/attempted="
              f"{sum(entry['failed'])}/{sum(entry['attempted'])}")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            print(f"  {metric:16s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}, third {bound / 3:.4f})")
        first, second = (one(name, args.seeds[0], seconds, 1) for _ in range(2))
        counts_repeat = all(
            first["metrics"][k]["value"] == second["metrics"][k]["value"]
            for k, m in first["metrics"].items() if m["unit"] == "count"
        )
        entry["per_layer"] = {
            "seed": args.seeds[0],
            "correct": first["correct"] and second["correct"],
            "counts_repeat": counts_repeat,
            "metrics": first["metrics"],
        }
        print(f"  traced: correct={entry['per_layer']['correct']} "
              f"counts repeat exactly: {counts_repeat}")
        record["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
