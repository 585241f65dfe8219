"""Smoke test of the benchmark: every workload with a tiny op count.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of the checkout.  Checks that each metric named in
BENCHMARK.json prints with its unit, in the human lines and in the JSON
result, and that no op fails; also that the oracles reject a missing
output file and a noncontextual verdict on a contextual source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(os.path.basename(BENCH_DIR), "run.py")  # relative to cwd
#: Enough ops for every code path of the op (eleven for a tail percentile;
#: the resource part alternates relabeling and stochastic maps).
MAX_OPS = {"small-lps": 12, "power-n4": 3}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "60",
           "--trace", str(trace), "--max-ops", str(MAX_OPS[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= MAX_OPS[workload] // 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    if not trace:
        assert any(line.startswith("failed_frac 0 fraction") for line in lines)
    assert any(line.startswith("inputs sha256 ") for line in lines)


def test_inputs_depend_only_on_the_seed():
    digests = {
        next(line for line in run("small-lps", 0).stdout.splitlines() if line.startswith("inputs sha256"))
        for _ in range(2)
    }
    assert len(digests) == 1


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, os.path.basename(BENCH_DIR)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("small-lps", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_output_file_fails_the_op(tmp_path):
    sys.path.insert(0, BENCH_DIR)
    from workloads import SimplestCli

    workload = SimplestCli()
    warmup, pool = workload.generate(7)
    workload.write_files(str(tmp_path), warmup, pool[:1])
    item = workload.items[1]
    for path in (workload.check_path, workload.distance_path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"contextual": False, "d": 0.0}, fh)
    workload.before_op(item)
    assert "no output file" in workload.check(item, (0, 0))


def test_pair_oracle_rejects_a_noncontextual_verdict_on_a_contextual_source():
    np = pytest.importorskip("numpy")
    sys.path.insert(0, BENCH_DIR)
    from workloads import ResourceOps, facet_values, pair_facet_value

    # A simplest behavior violating h3 by 0.4 as measurements 0 and 1 of
    # six; the other four measurements are deterministic.
    q = [[0.85, 0.15, 0.85, 0.15], [0.15, 0.85, 0.85, 0.15]]
    assert facet_values(q)["h3"] == pytest.approx(0.4)
    rows = q + [[1.0, 1.0, 1.0, 1.0]] * 4
    probs = np.array([[[1 - x, x] for x in row] for row in rows])
    assert pair_facet_value(probs) == pytest.approx(0.4)

    workload = ResourceOps()
    workload.np = np
    workload.contextual_seen = {"ctxpoly": 0, "pair_oracle": 0, "checked": 0}
    source = type("Source", (), {"probs": probs})()
    noncontextual = (source, (False, False), (0.0, 0.0), None, None)
    assert "violates a facet" in workload.check(None, noncontextual)
    too_close = (source, (True, False), (0.1, 0.0), None, None)
    assert "below the pair facet bound" in workload.check(None, too_close)


def test_a_window_of_ten_ops_or_fewer_reports_its_maximum():
    sys.path.insert(0, BENCH_DIR)
    from run import tail

    assert tail([0.03, 0.01, 0.02]) == (0.03, 100.0, 1)
    latencies = [0.001 * k for k in range(1, 22)]
    assert tail(latencies)[:2] == (0.011, pytest.approx(100 * 11 / 21))
