"""Each demo script runs to completion and prints one line it always prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_LINE = {
    "facet_witness_sweep.py": "n=3: 24 facets witnessed, smallest violation 0.414213562",
    "quantum_table_demo.py": "l1 contextuality distance: 0.207106781",
    "vertex_census.py": "contextual: 8",
}


def test_every_script_has_an_expected_line():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(EXPECTED_LINE)


@pytest.mark.parametrize("script", sorted(EXPECTED_LINE))
def test_script_runs(script):
    pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED_LINE[script] in result.stdout.splitlines()
