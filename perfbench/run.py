"""Benchmark of ctxpoly: one workload per call, in fresh interpreters.

    python3 perfbench/run.py --workload small-lps --seed 1 --seconds 58 --trace 0

Run it from the root of a checkout; ctxpoly is imported from ``src/``.
Every op's output is checked against an oracle that does not use the LP.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metrics
and their units are those BENCHMARK.json lists: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``, read from spans around
ctxpoly's public functions (see tracing.py).  Scratch files and span dumps
go to ``.perfbench/``.

Each interpreter runs one client thread and one BLAS thread; scipy's HiGHS
is single-threaded.  The machine this was tuned on has 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Fresh interpreters that only set up, besides the one that measures; the
#: reported setup_s is the median over all of them.
SETUP_RUNS = 2
#: Smallest window over which a tail percentile is taken; see tail().
TAIL_WINDOW_OPS = 200
#: Every child process must be done this long after the start, so a run
#: always exits within 180 s.
RUN_BUDGET_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, seconds: float, max_ops: int, deadline: float) -> dict:
    """One worker interpreter; returns its JSON report."""
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-{mode}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(seed), mode, repr(seconds), str(max_ops), workdir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} run of {workload} passed the time budget") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildError(f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Tail latency: (value, percentile, windows).

    The run is cut into windows of at least TAIL_WINDOW_OPS consecutive ops
    (one window when the run is shorter).  In each window the tail is its
    highest percentile with at least ten samples beyond it; the median over
    windows is reported.  A stall of the shared machine lasting a fraction of
    a second slows a dozen consecutive ops; in a whole-run percentile that
    decides the tail, here it moves one window.  A window of ten samples or
    fewer reports its maximum.
    """
    windows = max(1, len(latencies) // TAIL_WINDOW_OPS)
    size = len(latencies) // windows
    values, percentiles = [], []
    for w in range(windows):
        chunk = sorted(latencies[w * size : (w + 1) * size if w < windows - 1 else None])
        index = len(chunk) - 11 if len(chunk) > 10 else len(chunk) - 1
        values.append(chunk[index])
        percentiles.append(100.0 * (index + 1) / len(chunk))
    return statistics.median(values), min(percentiles), windows


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, dict, list[str]]:
    """End-to-end values, notes printed next to some of them, and extra lines."""
    loop = report["untraced"]
    lat = loop["latencies"]
    n = len(lat)
    tail_s, pct, windows = tail(lat)
    values = {
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "latency_tail_ms": f"median over {windows} window(s) of {n // windows}+ ops of each window's p{pct:.2f}, 10 samples beyond; n={n}",
        "setup_s": f"median of {len(setups)} fresh interpreters: " + " ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    failed = len(loop["failures"])
    return values, notes, [f"failed_frac {failed / n:.6g} fraction  ({failed} of {n} ops)"]


def per_layer(report: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer values, with the tracing overhead, and extra lines."""
    untraced, traced = report["untraced"], report["traced"]
    rate = lambda loop: len(loop["latencies"]) / sum(loop["latencies"])  # noqa: E731
    values = dict(traced["layers"])
    values["tracing.ops_per_s_ratio"] = rate(traced) / rate(untraced)
    line = (
        f"tracing overhead: traced {rate(traced):.6g} ops/s against untraced {rate(untraced):.6g} ops/s "
        f"({len(traced['latencies'])} and {len(untraced['latencies'])} ops); "
        f"{traced['spans']} spans written to {os.path.relpath(traced['spans_file'])}"
    )
    return values, {}, [line]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (smoke tests); 0 = no cap")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "ctxpoly", "__init__.py")):
        print("error: run from the root of a ctxpoly checkout (src/ctxpoly not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            report = run_child(args.workload, args.seed, "trace", args.seconds, args.max_ops, deadline)
        else:
            setups = [
                run_child(args.workload, args.seed, "setup", 0.0, 0, deadline)["setup_s"]
                for _ in range(SETUP_RUNS)
            ]
            report = run_child(args.workload, args.seed, "measure", args.seconds, args.max_ops, deadline)
            setups.append(report["setup_s"])
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    loops = [report["untraced"]] + ([report["traced"]] if args.trace else [])
    attempted = sum(len(loop["latencies"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    if not attempted:
        print("error: no op completed within the run", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 client, ops run back to back")
    print(f"inputs sha256 {report['inputs_sha256']}")
    if "contextual_inputs" in report:
        k, n = report["contextual_inputs"]
        print(f"contextual share of inputs {k / n:.4f} ({k} of {n}, by the facet oracle)")
    if "contextual_seen" in report:
        seen = report["contextual_seen"]
        n = max(seen["checked"], 1)
        print(
            f"contextual share of sources {seen['ctxpoly'] / n:.4f} as ctxpoly decided, "
            f"{seen['pair_oracle'] / n:.4f} witnessed by the LP-free pair oracle ({seen['checked']} checked)"
        )
    values, notes, lines = per_layer(report) if args.trace else end_to_end(report, setups)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print("\n".join(lines))
    print("no layer has a queue, so no wait time is reported")
    for failure in failures[:5]:
        print(f"failed op: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
