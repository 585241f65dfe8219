"""Spans around calls into ctxpoly's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every loaded ctxpoly
module that holds a reference to it, to a wrapper that records one span:
name, start, end, parent span and the op it belongs to.  Spans stay in
memory until ``write`` dumps them.  The untraced run never installs a
tracer, so it runs ctxpoly's own functions.

A span's self time is its duration minus the time its direct child spans
cover.  The bookkeeping a wrapper does around a call (reading LP sizes, for
instance) happens outside the span and is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, function) of every traced layer boundary.
TRACED = (
    ("cli", "run_cli"),
    ("documents", "load_document"),
    ("scenario", "validate_behavior"),
    ("ncmodel", "enumerate_ontic_states"),
    ("ncmodel", "membership_program"),
    ("ncmodel", "is_noncontextual"),
    ("ncmodel", "evaluate_inequalities"),
    ("monotone", "l1_distance"),
    ("lp", "solve_lp"),
    ("freeops", "apply_free_operation"),
    ("freeops", "transport_equivalences"),
    ("freeops", "secondary_procedures"),
    ("simulability", "find_simulation"),
    ("compose", "compose_behaviors"),
    ("quantum", "behavior_from_quantum"),
)


def _lp_size(lp) -> dict:
    """Variables, rows, nonzeros and computed dense bytes of the rows handed in."""
    rows = list(lp.eq_constraints) + list(lp.ineq_constraints)
    nonzeros = sum(int((row != 0).sum()) for row, _ in rows)
    return {
        "vars": int(lp.n_vars),
        "rows": len(rows),
        "nonzeros": nonzeros,
        "dense_bytes": len(rows) * int(lp.n_vars) * 8,
    }


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _annotate(name: str, args, kwargs, result) -> dict | None:
    """Counts a layer reports besides its time, read from its arguments and result."""
    if name == "lp.solve_lp":
        info = _lp_size(_arg(args, kwargs, 0, "lp"))
        info["status"] = result.status
        return info
    if name == "ncmodel.enumerate_ontic_states":
        return {"states": len(result)}
    if name == "freeops.transport_equivalences":
        s = _arg(args, kwargs, 1, "s")
        # Both sides of every declared equivalence are transported.
        return {"transports": 2 * (len(s.prep_equivs) + len(s.meas_equivs))}
    if name == "simulability.find_simulation":
        return {"targets": int(_arg(args, kwargs, 1, "target_behavior").probs.shape[0])}
    return None


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, op index, info, raised,
        # seconds covered by its direct children].
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, covered = self.spans, self._stack, self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False, 0.0]
            stack.append(len(spans))
            spans.append(span)
            covered.append(0.0)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                span[7] = covered.pop()
                if not span[6]:
                    span[5] = _annotate(name, args, kwargs, result)
                if covered:
                    covered[-1] += clock() - outer_start

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "ctxpoly" or key.startswith("ctxpoly.")]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"ctxpoly.{module_name}")
            if home is None:
                continue  # never imported by this workload, so never called
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info, error, child_s in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if info:
                    record["info"] = info
                if error:
                    record["error"] = True
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics: calls and self seconds per traced function,
        plus LP sizes, ontic states and LP shares.  Functions a workload
        never calls report zero."""
        calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self_s = dict.fromkeys(calls, 0.0)
        lp_children = [0] * len(self.spans)
        states = transports = targets = infeasible = errors = 0
        largest = {"vars": 0, "rows": 0, "nonzeros": 0, "dense_bytes": 0}
        for name, start, end, parent, _, info, error, child_s in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s
            if name == "lp.solve_lp":
                if parent >= 0:
                    lp_children[parent] += 1
                if error:
                    errors += 1
                else:
                    infeasible += info["status"] == "infeasible"
                    largest = {key: max(largest[key], info[key]) for key in largest}
            elif name == "ncmodel.enumerate_ontic_states" and info:
                states += info["states"]
            elif name == "freeops.transport_equivalences" and info:
                transports += info["transports"]
            elif name == "simulability.find_simulation" and info:
                targets += info["targets"]
        lp_in = lambda layer: sum(  # noqa: E731
            lp_children[idx] for idx, span in enumerate(self.spans) if span[0] == layer
        )
        per_op = lambda x: x / n_ops  # noqa: E731
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = per_op(calls[name])
            out[f"{name}.self_s"] = per_op(self_s[name])
        out["ncmodel.ontic_states"] = per_op(states)
        out["lp.vars"] = largest["vars"]
        out["lp.rows"] = largest["rows"]
        out["lp.nonzeros"] = largest["nonzeros"]
        out["lp.dense_mb"] = largest["dense_bytes"] / 1e6
        out["lp.infeasible"] = per_op(infeasible)
        out["lp.errors"] = per_op(errors)
        out["freeops.transport_lp_share"] = lp_in("freeops.transport_equivalences") / transports if transports else 0.0
        out["simulability.lp_share"] = lp_in("simulability.find_simulation") / targets if targets else 0.0
        return out
