"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload power-n4 --seeds 1-5 --seconds 20

Runs run.py once per seed, one after another, and prints for each metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the bound in BENCHMARK.json.  The last
line is the per-metric summary as one JSON object, the form kept in
baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            return 1
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)

    summary = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- not below a third of the bound"
        print(f"{name}: median {median:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f} bound {bound}{flag}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
