"""Canonical JSON documents for scenarios, behaviors, free operations and
quantum realizations.

Every document is a single JSON object with a top-level "kind".  Saving is
canonical: fixed key order, compact separators, floats serialized as
shortest round-tripping decimals, so load(save(x)) == x bit-exactly.
Parsing and validation are separate concerns: a document can parse fine and
still describe an invalid object.
"""

from __future__ import annotations

import json

import numpy as np

from .freeops import FreeOperation
from .quantum import QuantumRealization
from .scenario import Behavior, EquivalenceVector, Scenario, ShapeMismatchError


class DocumentError(ValueError):
    """Malformed document: bad JSON, wrong kind, or a field that does not parse."""


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise DocumentError(f"{context}: missing field '{key}'")
    return doc[key]


def _not_a_number_at(value) -> tuple[int, ...] | None:
    """The index path of the first entry of a nested list that is not a
    JSON number, or None.  Booleans and null are not numbers, though numpy
    reads them as 1.0, 0.0 and nan."""
    if isinstance(value, list):
        for idx, entry in enumerate(value):
            path = _not_a_number_at(entry)
            if path is not None:
                return (idx, *path)
        return None
    return None if isinstance(value, (int, float)) and not isinstance(value, bool) else ()


def _number_array(value, context: str) -> np.ndarray:
    """A nested list of JSON numbers as a float array.  Raises DocumentError
    naming the first entry that is not a number, else naming the field when
    numpy refuses the list (a ragged one, or an integer too large)."""
    path = _not_a_number_at(value)
    if path is not None:
        raise DocumentError(f"{context}{''.join(f'[{idx}]' for idx in path)}: expected a number")
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise DocumentError(f"{context}: {exc}") from exc


def _number_list(value, context: str) -> np.ndarray:
    if not isinstance(value, list) or any(isinstance(entry, list) for entry in value):
        raise DocumentError(f"{context}: expected a list of numbers")
    return _number_array(value, context)


def _equiv_to_doc(equiv: EquivalenceVector) -> dict:
    return {"alpha": equiv.alpha.tolist(), "beta": equiv.beta.tolist()}


def _equiv_from_doc(doc, context: str) -> EquivalenceVector:
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object with alpha/beta")
    alpha = _number_list(_require(doc, "alpha", context), f"{context}.alpha")
    beta = _number_list(_require(doc, "beta", context), f"{context}.beta")
    if len(alpha) != len(beta):
        raise DocumentError(f"{context}: alpha and beta lengths differ")
    return EquivalenceVector(alpha, beta)


def _mask_to_doc(mask: np.ndarray | None):
    return None if mask is None else [[bool(x) for x in row] for row in mask]


def _mask_from_doc(doc, context: str) -> np.ndarray | None:
    if doc is None:
        return None
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise DocumentError(f"{context}: expected a list of lists of booleans")
    try:
        mask = np.array(doc, dtype=bool)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{context}: {exc}") from exc
    if mask.ndim != 2:
        raise DocumentError(f"{context}: expected a rank-2 boolean table")
    return mask


def scenario_to_doc(s: Scenario) -> dict:
    doc = {
        "kind": "scenario",
        "preps": s.n_preps,
        "meas": s.n_meas,
        "outcomes": s.n_outcomes,
        "prep_equivs": [_equiv_to_doc(e) for e in s.prep_equivs],
        "meas_equivs": [_equiv_to_doc(e) for e in s.meas_equivs],
    }
    if s.cell_mask is not None:
        doc["cell_mask"] = _mask_to_doc(s.cell_mask)
    return doc


def scenario_from_doc(doc: dict) -> Scenario:
    ctx = "scenario"
    counts = []
    for key in ("preps", "meas", "outcomes"):
        value = _require(doc, key, ctx)
        if isinstance(value, bool) or not isinstance(value, int):
            raise DocumentError(f"{ctx}.{key}: expected an integer")
        counts.append(value)
    prep_equivs = _require(doc, "prep_equivs", ctx)
    meas_equivs = _require(doc, "meas_equivs", ctx)
    if not isinstance(prep_equivs, list) or not isinstance(meas_equivs, list):
        raise DocumentError(f"{ctx}: prep_equivs and meas_equivs must be lists")
    return Scenario(
        n_preps=counts[0],
        n_meas=counts[1],
        n_outcomes=counts[2],
        prep_equivs=tuple(
            _equiv_from_doc(e, f"{ctx}.prep_equivs[{a}]") for a, e in enumerate(prep_equivs)
        ),
        meas_equivs=tuple(
            _equiv_from_doc(e, f"{ctx}.meas_equivs[{b}]") for b, e in enumerate(meas_equivs)
        ),
        cell_mask=_mask_from_doc(doc.get("cell_mask"), f"{ctx}.cell_mask"),
    )


def behavior_to_doc(behavior: Behavior) -> dict:
    doc = {"kind": "behavior", "probs": behavior.probs.tolist()}
    if behavior.cell_mask is not None:
        doc["cell_mask"] = _mask_to_doc(behavior.cell_mask)
    return doc


def behavior_from_doc(doc: dict) -> Behavior:
    tensor = _number_array(_require(doc, "probs", "behavior"), "behavior.probs")
    if tensor.ndim != 3:
        raise DocumentError("behavior.probs: expected a rank-3 nested list")
    return Behavior(tensor, cell_mask=_mask_from_doc(doc.get("cell_mask"), "behavior.cell_mask"))


def free_operation_to_doc(op: FreeOperation) -> dict:
    return {
        "kind": "free_operation",
        "q_P": op.q_P.tolist(),
        "q_M": op.q_M.tolist(),
        "q_O": op.q_O.tolist(),
    }


def free_operation_from_doc(doc: dict) -> FreeOperation:
    arrays = {}
    for key, rank in (("q_P", 2), ("q_M", 2), ("q_O", 3)):
        arr = _number_array(_require(doc, key, "free_operation"), f"free_operation.{key}")
        if arr.ndim != rank:
            raise DocumentError(f"free_operation.{key}: expected a rank-{rank} nested list")
        arrays[key] = arr
    return FreeOperation(**arrays)


def _complex_matrix_to_doc(mat: np.ndarray) -> list:
    # +0.0 canonicalizes negative zeros, which the re/im reconstruction on
    # load would otherwise shuffle around.
    return [[[float(entry.real) + 0.0, float(entry.imag) + 0.0] for entry in row] for row in mat]


def _complex_matrix_from_doc(doc, dim: int, context: str) -> np.ndarray:
    arr = _number_array(doc, context)
    if arr.shape != (dim, dim, 2):
        raise DocumentError(f"{context}: expected a {dim}x{dim} matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def quantum_to_doc(q: QuantumRealization) -> dict:
    return {
        "kind": "quantum",
        "dim": q.dim,
        "states": [_complex_matrix_to_doc(rho) for rho in q.states],
        "povms": [[_complex_matrix_to_doc(e) for e in povm] for povm in q.povms],
    }


def quantum_from_doc(doc: dict) -> QuantumRealization:
    dim = _require(doc, "dim", "quantum")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError("quantum.dim: expected a positive integer")
    states_doc = _require(doc, "states", "quantum")
    povms_doc = _require(doc, "povms", "quantum")
    if not isinstance(states_doc, list) or not isinstance(povms_doc, list):
        raise DocumentError("quantum: states and povms must be lists")
    if not all(isinstance(povm, list) for povm in povms_doc):
        raise DocumentError("quantum.povms: each measurement must be a list of effects")
    states = np.array([_complex_matrix_from_doc(m, dim, f"quantum.states[{j}]") for j, m in enumerate(states_doc)])
    effects = [
        [_complex_matrix_from_doc(e, dim, f"quantum.povms[{i}][{k}]") for k, e in enumerate(povm)]
        for i, povm in enumerate(povms_doc)
    ]
    try:  # measurements with different numbers of effects
        povms = np.array(effects)
    except ValueError as exc:
        raise DocumentError(f"quantum: ragged states/povms ({exc})") from exc
    return QuantumRealization(states=states, povms=povms)


#: Each document kind: its type, its ``to_doc`` and its ``from_doc``.
_KINDS = {
    "scenario": (Scenario, scenario_to_doc, scenario_from_doc),
    "behavior": (Behavior, behavior_to_doc, behavior_from_doc),
    "free_operation": (FreeOperation, free_operation_to_doc, free_operation_from_doc),
    "quantum": (QuantumRealization, quantum_to_doc, quantum_from_doc),
}


def to_doc(value) -> dict:
    """Dictionary form of a value of any type in ``_KINDS``, keys in canonical order."""
    for cls, builder, _ in _KINDS.values():
        if isinstance(value, cls):
            return builder(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as a document")


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("utf-8")


def save_document(value) -> bytes:
    """Canonical JSON bytes for a scenario, behavior, free operation or realization."""
    return canonical_bytes(to_doc(value))


def load_document(data: bytes | str, expect_kind: str | None = None):
    """Parse a document, dispatching on its "kind".

    ``expect_kind`` turns a kind mismatch into an error; useful when the
    caller knows which document a file must contain.  Every failure is a
    DocumentError: arrays that parse but do not fit together are refused by
    the constructor of the document's type, whose message names the field.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DocumentError(f"unknown document kind {kind!r}; expected one of {tuple(_KINDS)}")
    if expect_kind is not None and kind != expect_kind:
        raise DocumentError(f"kind mismatch: wanted '{expect_kind}', document says '{kind}'")
    try:
        return _KINDS[kind][2](doc)
    except ShapeMismatchError as exc:
        raise DocumentError(f"{kind}: {exc}") from exc
