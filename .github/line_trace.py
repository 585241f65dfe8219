"""List every refusal line in src/ctxpoly that the tier-1 tests do not reach.

A refusal line is the line of a ``raise`` statement or of a ``Violation(``
call.  The script runs the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors``, plus any arguments given) in a child
process that records, with ``sys.settrace``, every line executed in
``src/ctxpoly``.  It then prints each refusal line that never ran, with its
source, and each allowed one with its reason.  Only the child process is
traced: a line that only a ``ctx`` subprocess of a test reaches counts as
unreached.  The granularity is the line, so a ``Violation(`` inside a
comprehension counts as reached when the comprehension runs.

    python .github/line_trace.py [pytest arguments]

Standard library only; pytest runs in the child.  Exit status 0 when every
refusal line is reached or allowed, 1 otherwise.  It runs the whole suite,
so it stays out of ``scripts/``, whose scripts tier-1 runs.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ctxpoly"

#: Refusal lines no input can reach, keyed on (module, the line's source
#: without its indentation), with the reason.
ALLOWED = {
    (
        "freeops.py",
        'raise RuntimeError("contextual vertex graph is not connected")  # unreachable for this polytope',
    ): "the contextual-vertex graph of the simplest scenario is connected, so the search always returns a word",
}


def refusal_lines(path: Path) -> list[int]:
    """The lines of ``path`` that hold a ``raise`` or a ``Violation(`` call."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Violation"
        if isinstance(node, ast.Raise) or called:
            lines.add(node.lineno)
    return sorted(lines)


def trace_tests(out: str, args: list[str]) -> None:
    """Run pytest in this process, tracing the lines of ``SRC``, and write
    them to ``out`` as JSON pairs (path, line)."""
    prefix = str(SRC) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest  # noqa: PLC0415 - the suite's runner, imported only in the child

    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    Path(out).write_text(json.dumps(sorted(hits)))
    print(f"pytest exit status {int(code)}", file=sys.stderr)


def main(args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "lines.json")
        pythonpath = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        subprocess.run([sys.executable, __file__, "--child", out, *args], cwd=ROOT, env=env, check=False)
        if not os.path.exists(out):
            print("the traced test run wrote no lines", file=sys.stderr)
            return 1
        hits = {(path, line) for path, line in json.loads(Path(out).read_text())}
    unreached = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in refusal_lines(path):
            if (str(path), line) in hits:
                continue
            text = source[line - 1].strip()
            reason = ALLOWED.get((path.name, text))
            if reason is None:
                unreached += 1
                print(f"unreached {path.name}:{line}: {text}")
            else:
                print(f"allowed {path.name}:{line}: {reason}")
    print(f"{unreached} unreached refusal line(s)")
    return 1 if unreached else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        trace_tests(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(main(sys.argv[1:]))
