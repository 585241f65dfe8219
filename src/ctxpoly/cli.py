"""Command-line front end over the JSON document formats.

Every subcommand writes exactly one JSON result object to stdout (or to
--output); with ``--format text`` a human-readable summary additionally goes
to stderr.  Exit codes: 0 when a verdict was produced (including
"contextual" or "not simulable"), 2 for invalid input or documents, 3 for an
internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .compose import cloning_scenario, compose_behaviors, compose_scenarios, power_behavior, power_scenario
from .documents import DocumentError, load_document, to_doc
from .freeops import _apply, erase_measurements, secondary_procedures
from .lp import LP_TOL, LpNumericalError
from .monotone import l1_distance
from .ncmodel import (
    CapExceededError,
    NcVerdict,
    UnsupportedScenarioError,
    _check_scenario,
    _vertices,
    evaluate_inequalities,
    is_noncontextual,
    simplest_scenario_inequalities,
)
from .quantum import behavior_from_quantum, canonical_simplest_realization, witness_all_facets
from .scenario import ShapeMismatchError, validate_behavior, validate_scenario
from .simulability import find_simulation

DEFAULT_TOLERANCE = 1e-9

#: The default --tolerance of each subcommand that takes the flag.  The
#: LP-backed ones hand it to their library call, so it defaults to the LP
#: tolerance, as do ``erase``, ``compose`` and ``power``, which check their
#: scenarios at it; ``validate`` checks probabilities at 1e-9.  The other
#: subcommands have nothing to apply a tolerance to.
_TOLERANCES = {
    "validate": DEFAULT_TOLERANCE,
    **dict.fromkeys(
        ("check", "distance", "apply", "simulate", "secondary", "vertices", "erase", "compose", "power"), LP_TOL
    ),
}


def _load(path: str, kind: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return load_document(data, expect_kind=kind)


def _report_doc(report) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"constraint": v.constraint, "magnitude": v.magnitude, "location": list(v.location)}
            for v in report.violations
        ],
    }


def verdict_doc(verdict: NcVerdict) -> dict:
    doc = {"contextual": verdict.contextual, "violated": verdict.violated}
    if verdict.violation is not None:
        doc["violation"] = verdict.violation
    if verdict.model is not None:
        doc["model"] = {
            "states": [list(state.responses) for state in verdict.model.ontic_states],
            "mus": verdict.model.mus.tolist(),
        }
    return doc


def _cmd_validate(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    report = validate_scenario(scenario, tol=args.tolerance)
    if args.behavior and report.ok:
        behavior = _load(args.behavior, "behavior")
        report = validate_behavior(scenario, behavior, tol=args.tolerance)
    return _report_doc(report), f"validation: {report.summary()}"


def _cmd_check(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    behavior = _load(args.behavior, "behavior")
    verdict = is_noncontextual(scenario, behavior, tol=args.tolerance)
    summary = "contextual" + (f" (violates {verdict.violated})" if verdict.violated else "")
    return verdict_doc(verdict), summary if verdict.contextual else "noncontextual"


def _cmd_distance(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    behavior = _load(args.behavior, "behavior")
    d = l1_distance(scenario, behavior, tol=args.tolerance)
    return {"d": d}, f"l1 contextuality distance: {d:.9g}"


def _cmd_apply(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    behavior = _load(args.behavior, "behavior")
    operation = _load(args.operation, "free_operation")
    _check_scenario(scenario, tol=args.tolerance)
    new_scenario, new_behavior, transported = _apply(operation, scenario, behavior, tol=args.tolerance)
    statuses = {
        "prep": [r.status for r in transported.preps],
        "meas": [r.status for r in transported.meas],
    }
    doc = {"scenario": to_doc(new_scenario), "behavior": to_doc(new_behavior), "transport": statuses}
    return doc, f"applied operation; image scenario ({new_scenario.n_preps},{new_scenario.n_meas},{new_scenario.n_outcomes})"


def _cmd_erase(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    behavior = _load(args.behavior, "behavior")
    keep = [int(tok) for tok in args.keep.split(",") if tok != ""]
    new_scenario, new_behavior = erase_measurements(scenario, behavior, keep, tol=args.tolerance)
    doc = {"scenario": to_doc(new_scenario), "behavior": to_doc(new_behavior)}
    return doc, f"kept measurements {keep}"


def _cmd_compose(args) -> tuple[dict, str]:
    s1 = _load(args.scenario, "scenario")
    s2 = _load(args.scenario2, "scenario")
    for scenario in (s1, s2):
        _check_scenario(scenario, tol=args.tolerance)
    composed = compose_scenarios(s1, s2)
    doc = {"scenario": to_doc(composed)}
    if args.behavior and args.behavior2:
        b1 = _load(args.behavior, "behavior")
        b2 = _load(args.behavior2, "behavior")
        doc["behavior"] = to_doc(compose_behaviors(b1, b2))
    elif args.behavior or args.behavior2:
        raise DocumentError("compose needs either both behaviors or neither")
    return doc, f"composite scenario ({composed.n_preps},{composed.n_meas},{composed.n_outcomes})"


def _cmd_power(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    _check_scenario(scenario, tol=args.tolerance)
    powered = power_scenario(scenario, args.n)
    doc = {"scenario": to_doc(powered)}
    if args.behavior:
        behavior = _load(args.behavior, "behavior")
        doc["behavior"] = to_doc(power_behavior(behavior, args.n))
    return doc, f"power {args.n} scenario ({powered.n_preps},{powered.n_meas},{powered.n_outcomes})"


def _cmd_simulate(args) -> tuple[dict, str]:
    simulators = _load(args.simulators, "behavior")
    target = _load(args.target, "behavior")
    witness = find_simulation(simulators, target, tol=args.tolerance)
    if witness is None:
        return {"simulable": False}, "not simulable"
    doc = {
        "simulable": True,
        "q_M": witness.q_M.tolist(),
        "q_O": witness.q_O.tolist(),
        "residual": witness.residual,
        "shared_post_processing": witness.shared_post_processing,
    }
    return doc, f"simulable (residual {witness.residual:.3g})"


def _cmd_secondary(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    behavior = _load(args.behavior, "behavior")
    result = secondary_procedures(scenario, behavior, tol=args.tolerance)
    doc = {
        "weights": result.weights.tolist(),
        "behavior": to_doc(result.behavior),
        "max_shift": result.max_shift,
    }
    return doc, f"secondary procedures built (max shift {result.max_shift:.6g})"


def _cmd_vertices(args) -> tuple[dict, str]:
    scenario = _load(args.scenario, "scenario")
    vertices = _vertices(scenario, tol=args.tolerance)
    contextual = sum(1 for v in vertices if is_noncontextual(scenario, v, tol=args.tolerance).contextual)
    doc = {"count": len(vertices), "contextual": contextual}
    return doc, f"{len(vertices)} vertices, {contextual} contextual"


def _cmd_quantum_demo(args) -> tuple[dict, str]:
    realization = canonical_simplest_realization()
    behavior = behavior_from_quantum(realization)
    ineqs = simplest_scenario_inequalities()
    values = evaluate_inequalities(ineqs, behavior)[:8]
    violated = {
        ineqs.functionals[i].label: float(values[i]) for i in np.nonzero(values > 0)[0]
    }
    doc = {
        "realization": to_doc(realization),
        "behavior": to_doc(behavior),
        "violations": violated,
    }
    return doc, f"canonical realization violates {', '.join(violated) or 'nothing'}"


def _cmd_witness(args) -> tuple[dict, str]:
    witnesses = witness_all_facets(args.n)
    doc = {
        "n": args.n,
        "facets": [
            {"facet": w.facet, "violation": w.violation, "behavior": to_doc(w.behavior)}
            for w in witnesses
        ],
    }
    worst = min(w.violation for w in witnesses)
    return doc, f"{len(witnesses)} facets witnessed, smallest violation {worst:.6g}"


def _cmd_cloning(args) -> tuple[dict, str]:
    scenario, decomposition = cloning_scenario()
    doc = {"scenario": to_doc(scenario), "decomposition": decomposition.to_doc()}
    return doc, "cloning scenario (12,6,2) with 3 block equivalences"


def _add_common(sub: argparse.ArgumentParser, tolerance: float | None) -> None:
    if tolerance is not None:
        sub.add_argument("--tolerance", type=float, default=tolerance)
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--output", default=None)


_COMMANDS = (
    ("validate", _cmd_validate, (("--scenario", {"required": True}), ("--behavior", {"default": None}))),
    ("check", _cmd_check, (("--scenario", {"required": True}), ("--behavior", {"required": True}))),
    ("distance", _cmd_distance, (("--scenario", {"required": True}), ("--behavior", {"required": True}))),
    (
        "apply",
        _cmd_apply,
        (
            ("--scenario", {"required": True}),
            ("--behavior", {"required": True}),
            ("--operation", {"required": True}),
        ),
    ),
    (
        "erase",
        _cmd_erase,
        (
            ("--scenario", {"required": True}),
            ("--behavior", {"required": True}),
            ("--keep", {"required": True, "help": "comma-separated measurement indices"}),
        ),
    ),
    (
        "compose",
        _cmd_compose,
        (
            ("--scenario", {"required": True}),
            ("--scenario2", {"required": True}),
            ("--behavior", {"default": None}),
            ("--behavior2", {"default": None}),
        ),
    ),
    (
        "power",
        _cmd_power,
        (
            ("--scenario", {"required": True}),
            ("--behavior", {"default": None}),
            ("--n", {"type": int, "required": True}),
        ),
    ),
    ("simulate", _cmd_simulate, (("--simulators", {"required": True}), ("--target", {"required": True}))),
    ("secondary", _cmd_secondary, (("--scenario", {"required": True}), ("--behavior", {"required": True}))),
    ("vertices", _cmd_vertices, (("--scenario", {"required": True}),)),
    ("quantum-demo", _cmd_quantum_demo, ()),
    ("witness", _cmd_witness, (("--n", {"type": int, "default": 1}),)),
    ("cloning", _cmd_cloning, ()),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ctx`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ctx", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, arguments in _COMMANDS:
        p = subs.add_parser(name)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        _add_common(p, _TOLERANCES.get(name))
        p.set_defaults(handler=handler)
    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code) if exc.code else 0

    try:
        doc, summary = args.handler(args)
    except (DocumentError, ShapeMismatchError, UnsupportedScenarioError, ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    payload = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")
    if args.format == "text":
        print(summary, file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
