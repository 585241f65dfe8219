import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxpoly as cp
from ctxpoly.cli import run_cli
from ctxpoly.documents import DocumentError, load_document, save_document, to_doc


def test_scenario_document_canonical_form(b_si):
    data = save_document(b_si)
    doc = json.loads(data)
    assert list(doc.keys()) == ["kind", "preps", "meas", "outcomes", "prep_equivs", "meas_equivs"]
    assert doc["kind"] == "scenario"
    assert (doc["preps"], doc["meas"], doc["outcomes"]) == (4, 2, 2)
    assert b" " not in data  # compact separators


def test_behavior_document_shape(canonical_behavior):
    doc = to_doc(canonical_behavior)
    assert list(doc.keys()) == ["kind", "probs"]
    assert np.array(doc["probs"]).shape == (2, 4, 2)


def test_round_trip_scenario(b_si):
    assert load_document(save_document(b_si)) == b_si


def test_round_trip_is_bit_exact(b_si, canonical_behavior, canonical_realization):
    operation = cp.simplest_permutations()["swap_measurements"]
    composed_s = cp.compose_scenarios(b_si, b_si)
    composed_b = cp.compose_behaviors(canonical_behavior, canonical_behavior)
    for value in (b_si, canonical_behavior, operation, canonical_realization, composed_s, composed_b):
        data = save_document(value)
        again = load_document(data)
        assert again == value
        assert save_document(again) == data


def test_canonical_table_round_trips_entrywise(canonical_behavior):
    again = load_document(save_document(canonical_behavior))
    assert np.array_equal(again.probs, canonical_behavior.probs)


def test_negative_probability_parses_but_fails_validation(b_si):
    probs = np.full((2, 4, 2), 0.5)
    probs[0, 0] = [1.1, -0.1]
    behavior = load_document(save_document(cp.Behavior(probs)))
    assert not cp.validate_behavior(b_si, behavior).ok


def test_parse_error_carries_position():
    with pytest.raises(cp.DocumentError, match="line 1"):
        load_document(b'{"kind": "scenario", ')


def test_unknown_kind_rejected():
    with pytest.raises(cp.DocumentError, match="unknown document kind"):
        load_document(b'{"kind":"mystery"}')


def test_kind_mismatch_rejected(b_si):
    with pytest.raises(cp.DocumentError, match="kind mismatch"):
        load_document(save_document(b_si), expect_kind="behavior")


def test_missing_field_named():
    with pytest.raises(cp.DocumentError, match="prep_equivs"):
        load_document(b'{"kind":"scenario","preps":4,"meas":2,"outcomes":2,"meas_equivs":[]}')


def test_ragged_probs_rejected():
    with pytest.raises(cp.DocumentError, match="probs"):
        load_document(b'{"kind":"behavior","probs":[[[0.5,0.5],[1.0]]]}')


def test_free_operation_document_round_trip():
    op = cp.FreeOperation(
        q_P=np.array([[0.25, 1.0], [0.75, 0.0]]),
        q_M=np.eye(2),
        q_O=np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]),
    )
    doc = to_doc(op)
    assert list(doc.keys()) == ["kind", "q_P", "q_M", "q_O"]
    assert load_document(save_document(op)) == op


def test_quantum_document_keys(canonical_realization):
    doc = to_doc(canonical_realization)
    assert list(doc.keys()) == ["kind", "dim", "states", "povms"]
    assert doc["dim"] == 2


def test_mask_persists_for_composites(b_si, canonical_behavior):
    composite = cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(b_si))
    again = load_document(save_document(composite))
    assert np.array_equal(again.physical_mask(), composite.physical_mask())


def test_ragged_cell_mask_rejected():
    with pytest.raises(cp.DocumentError, match="cell_mask"):
        load_document(b'{"kind":"behavior","probs":[[[0.5,0.5]]],"cell_mask":[[true],[true,false]]}')


def test_non_string_kind_rejected():
    with pytest.raises(cp.DocumentError, match="unknown document kind"):
        load_document(b'{"kind":{"probs":1}}')


def test_non_list_quantum_states_rejected():
    with pytest.raises(cp.DocumentError, match="states and povms"):
        load_document(b'{"kind":"quantum","dim":1,"states":1,"povms":false}')


_JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["x", "kind", "scenario"]),
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.sampled_from(
                ["kind", "probs", "preps", "meas", "outcomes", "prep_equivs",
                 "meas_equivs", "alpha", "beta", "q_P", "q_M", "q_O", "dim",
                 "states", "povms", "cell_mask"]
            ),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(_JSON_VALUE, st.sampled_from(["scenario", "behavior", "free_operation", "quantum", None]))
def test_loader_never_leaks_raw_exceptions(value, kind):
    if isinstance(value, dict) and kind is not None:
        value = {**value, "kind": kind}
    try:
        load_document(json.dumps(value))
    except cp.DocumentError:
        pass  # the only acceptable failure mode


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_random_behaviors(n_meas, n_preps, n_outcomes, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_outcomes), size=(n_meas, n_preps))
    behavior = cp.Behavior(probs)
    data = save_document(behavior)
    again = load_document(data)
    assert again == behavior
    assert save_document(again) == data


def _with(value, **fields):
    """The document of ``value`` with ``fields`` replaced."""
    return {**to_doc(value), **fields}


def _malformed_documents():
    si = cp.make_simplest_scenario()
    behavior = cp.uniform_behavior(si)
    operation = cp.simplest_permutations()["swap_measurements"]
    quantum = cp.canonical_simplest_realization()
    even = {"alpha": [0.5, 0.5, 0, 0], "beta": [0, 0, 0.5, 0.5]}
    effect = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    return [
        (_with(si, prep_equivs=[{**even, "alpha": 1}]), "scenario.prep_equivs[0].alpha: expected a list of numbers"),
        (_with(si, prep_equivs=[{**even, "beta": [0, 0, True, 0.5]}]), "scenario.prep_equivs[0].beta[2]: expected a number"),
        (_with(si, prep_equivs=[[0.5, 0.5]]), "scenario.prep_equivs[0]: expected an object with alpha/beta"),
        (_with(si, meas_equivs=[{**even, "beta": [0.5, 0.5]}]), "scenario.meas_equivs[0]: alpha and beta lengths differ"),
        (_with(si, cell_mask=[True, True]), "scenario.cell_mask: expected a list of lists of booleans"),
        (_with(si, cell_mask=[[[True]]]), "scenario.cell_mask: expected a rank-2 boolean table"),
        (_with(si, meas=2.0), "scenario.meas: expected an integer"),
        (_with(si, prep_equivs={}), "scenario: prep_equivs and meas_equivs must be lists"),
        (_with(behavior, probs=[[0.5, 0.5]]), "behavior.probs: expected a rank-3 nested list"),
        (_with(operation, q_O=[[1.0, 0.0], [0.0, 1.0]]), "free_operation.q_O: expected a rank-3 nested list"),
        # The shape error is a ValueError, so the ragged-table handler wraps it.
        (_with(quantum, states=[[[1.0, 0.0]]]), "quantum: ragged states/povms (quantum.states[0]: expected a 2x2 matrix of [re, im] pairs)"),
        (_with(quantum, povms=[0.5, 0.5]), "quantum.povms: each measurement must be a list of effects"),
        (_with(quantum, povms=[[effect, effect], [effect]]), "quantum: ragged states/povms ("),
    ]


@pytest.mark.parametrize("doc, message", _malformed_documents())
def test_each_malformed_field_is_named(doc, message):
    with pytest.raises(DocumentError, match="^" + re.escape(message)):
        load_document(json.dumps(doc))


def test_to_doc_refuses_what_it_cannot_serialize():
    with pytest.raises(TypeError, match="^cannot serialize dict as a document$"):
        to_doc({"kind": "scenario"})


def test_validate_refuses_a_malformed_document(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_with(cp.make_simplest_scenario(), preps="4")))
    assert run_cli(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario.preps: expected an integer\n"
