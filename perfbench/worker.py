"""One workload in one fresh interpreter; started by ``run.py``.

Usage: worker.py WORKLOAD SEED MODE SECONDS MAX_OPS WORKDIR

MODE is ``setup`` (set up, run the warm-up op and stop), ``measure`` (a
closed loop for SECONDS, untraced) or ``trace`` (half of SECONDS untraced,
half with a ``Tracer`` installed).  MAX_OPS > 0 caps the
number of ops, for smoke tests.  Prints one JSON object on stdout.

Only the standard library is imported before the set-up clock starts, so
``setup_s`` covers importing numpy, scipy and ctxpoly as a user pays it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time

# Siblings of this file; both import only the standard library.
from tracing import Tracer
from workloads import WORKLOADS, canonical_json


def closed_loop(workload, items, seconds: float, max_ops: int, tracer=None, first: int = 0) -> dict:
    """Run ops back to back, each starting when the previous one returned.

    Only the op itself is timed; its clean-up before and its check after run
    while the clock stands.  The loop ends after ``seconds`` of wall time,
    checks included.  Ops take items in pool order from index ``first`` on.
    """
    latencies: list[float] = []
    failures: list[str] = []
    clock = time.perf_counter
    started = clock()
    while clock() - started < seconds and (max_ops <= 0 or len(latencies) < max_ops):
        op_index = first + len(latencies)
        item = items[op_index % len(items)]
        if tracer is not None:
            tracer.op = op_index
        workload.before_op(item)
        t0 = clock()
        try:
            result = workload.op(item)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        if error is None:
            try:
                error = workload.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return {"latencies": latencies, "failures": failures}


def traced_comparison(workload, items, seconds: float, max_ops: int) -> tuple[dict, dict, object]:
    """Untraced and traced ops in four equal blocks, untraced-traced-traced-
    untraced, so a machine that drifts steadily slower or faster during the
    run biases neither side of the tracing overhead."""
    tracer = Tracer()
    loops = {False: {"latencies": [], "failures": []}, True: {"latencies": [], "failures": []}}
    cap = (max_ops + 3) // 4 if max_ops > 0 else 0
    for traced in (False, True, True, False):
        done = loops[traced]
        if traced:
            tracer.install()
        try:
            block = closed_loop(workload, items, seconds / 4, cap, tracer if traced else None, len(done["latencies"]))
        finally:
            tracer.uninstall()
        done["latencies"] += block["latencies"]
        done["failures"] += block["failures"]
    return loops[False], loops[True], tracer


def main(argv: list[str]) -> int:
    name, seed, mode, seconds, max_ops, workdir = argv
    seed, seconds, max_ops = int(seed), float(seconds), int(max_ops)
    workload = WORKLOADS[name]()

    warmup, pool = workload.generate(seed)
    digest = hashlib.sha256(canonical_json([warmup, pool])).hexdigest()
    workload.write_files(workdir, warmup, pool)

    t0 = time.perf_counter()
    for module in workload.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    warmup_item, items = workload.prepare(warmup, pool)
    t1 = time.perf_counter()
    workload.op(warmup_item)
    setup_s = import_s + time.perf_counter() - t1

    out = {"setup_s": setup_s, "inputs_sha256": digest}
    share = workload.contextual_share(pool)
    if share is not None:
        out["contextual_inputs"] = list(share)
    if mode == "measure":
        out["untraced"] = closed_loop(workload, items, seconds, max_ops)
    elif mode == "trace":
        out["untraced"], traced, tracer = traced_comparison(workload, items, seconds, max_ops)
        traced["layers"] = tracer.layer_metrics(max(1, len(traced["latencies"])))
        traced["spans"] = len(tracer.spans)
        spans_path = os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        traced["spans_file"] = spans_path
        out["traced"] = traced
    if workload.contextual_seen is not None:
        out["contextual_seen"] = workload.contextual_seen
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
