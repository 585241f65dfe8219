import re

import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.quantum import PAULI_X, PAULI_Z

SIN2 = np.sin(np.pi / 8) ** 2
COS2 = np.cos(np.pi / 8) ** 2

# Outcome-1 slice of the canonical statistics table.
CANONICAL_TABLE = np.array(
    [
        [SIN2, COS2, SIN2, COS2],
        [COS2, SIN2, SIN2, COS2],
    ]
)


def test_canonical_realization_is_valid(canonical_realization):
    assert cp.validate_quantum_realization(canonical_realization).ok


def test_canonical_behavior_matches_table(canonical_behavior):
    assert np.abs(canonical_behavior.probs[:, :, 1] - CANONICAL_TABLE).max() <= 1e-12
    assert np.abs(canonical_behavior.probs.sum(axis=2) - 1.0).max() <= 1e-12


def test_specific_entries(canonical_behavior):
    assert canonical_behavior.probs[0, 0, 1] == pytest.approx(SIN2, abs=1e-12)
    assert canonical_behavior.probs[1, 0, 1] == pytest.approx(COS2, abs=1e-12)


def test_maximally_mixed_states_give_trace_rule():
    realization = cp.maximally_mixed_realization()
    behavior = cp.behavior_from_quantum(realization)
    traces = np.einsum("ikaa->ik", realization.povms).real / 2.0
    assert np.allclose(behavior.probs, traces[:, None, :])
    assert np.allclose(behavior.probs, 0.5)


def test_projective_z_measurement_on_ground_state():
    state = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    realization = cp.QuantumRealization(states=state, povms=np.stack([cp.dichotomic_povm(PAULI_Z)]))
    behavior = cp.behavior_from_quantum(realization)
    # Outcome 1 is the +1 effect, which fires with certainty on |0>.
    assert np.allclose(behavior.probs[0, 0], [0.0, 1.0])


def test_invalid_realization_rejected():
    bogus = cp.QuantumRealization(
        states=np.array([[[1.2, 0.0], [0.0, -0.2]]], dtype=complex),
        povms=np.stack([cp.dichotomic_povm(PAULI_Z)]),
    )
    report = cp.validate_quantum_realization(bogus)
    assert any(v.constraint == "state-not-psd" for v in report.violations)
    with pytest.raises(ValueError, match="invalid quantum realization"):
        cp.behavior_from_quantum(bogus)


def test_incomplete_povm_flagged():
    effects = np.stack([[np.eye(2, dtype=complex) * 0.4, np.eye(2, dtype=complex) * 0.4]])
    report = cp.validate_quantum_realization(
        cp.QuantumRealization(states=np.stack([np.eye(2, dtype=complex) / 2]), povms=effects)
    )
    assert any(v.constraint == "povm-incomplete" for v in report.violations)


def test_canonical_equivalence_verified(b_si, canonical_realization):
    assert cp.verify_quantum_equivalences(canonical_realization, b_si).ok


def test_broken_operator_equivalence_detected(b_si, canonical_realization):
    states = canonical_realization.states.copy()
    states[1] = states[0]  # |0>,|0>,|+>,|-> no longer averages to 1/2
    broken = cp.QuantumRealization(states=states, povms=canonical_realization.povms)
    report = cp.verify_quantum_equivalences(broken, b_si)
    assert any(v.constraint == "state-equivalence-0" for v in report.violations)


def test_empty_equivalence_list_passes(canonical_realization):
    bare = cp.Scenario(4, 2, 2)
    assert cp.verify_quantum_equivalences(canonical_realization, bare).ok


def test_operator_equivalences_imply_behavior_equivalences(b_si, canonical_realization):
    behavior = cp.behavior_from_quantum(canonical_realization)
    assert cp.validate_behavior(b_si, behavior, tol=1e-12).ok


def test_canonical_violates_exactly_one_facet_even_after_permutations(b_si, canonical_behavior):
    ineqs = cp.simplest_scenario_inequalities()
    behaviors = [canonical_behavior]
    for op in cp.simplest_permutations().values():
        behaviors.append(cp.apply_free_operation(op, b_si, canonical_behavior)[1])
    for behavior in behaviors:
        values = cp.evaluate_inequalities(ineqs, behavior)
        assert (values > 1e-9).sum() == 1


def test_distance_of_canonical_behavior_positive(b_si, canonical_behavior):
    assert cp.l1_distance(b_si, canonical_behavior) > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_all_facets(n, b_si):
    witnesses = cp.witness_all_facets(n)
    assert len(witnesses) == 8 * n
    assert len({w.facet for w in witnesses}) == 8 * n
    floor = np.sqrt(2.0) - 1.0 - 1e-9
    scenario = cp.power_scenario(b_si, n)
    lifted = {f.label: f for f in cp.lifted_simplest_inequalities(n).functionals}
    for witness in witnesses:
        assert witness.violation >= floor
        assert cp.validate_behavior(scenario, witness.behavior).ok
        functional = lifted[witness.facet]
        recomputed = float(np.tensordot(functional.coeffs, witness.behavior.probs, axes=3))
        assert recomputed - functional.constant == pytest.approx(witness.violation, abs=1e-12)


def test_witness_violation_is_sharp_for_single_block():
    witnesses = cp.witness_all_facets(1)
    for witness in witnesses:
        assert witness.violation == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)


def test_witness_cap():
    with pytest.raises(cp.CapExceededError):
        cp.witness_all_facets(5)
    with pytest.raises(ValueError):
        cp.witness_all_facets(0)


def test_dichotomic_povm_orientation():
    povm = cp.dichotomic_povm(PAULI_X)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.real(plus.conj() @ povm[1] @ plus) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(povm.sum(axis=0), np.eye(2))


def test_each_operator_violation_is_reported_where_it_is(b_si, canonical_realization):
    states = canonical_realization.states.copy()
    states[1, 0, 1] += 0.1  # no longer hermitian
    states[2] *= 1.1  # trace 1.1
    povms = canonical_realization.povms.copy()
    povms[0, 1, 0, 1] += 0.1  # no longer hermitian, so no longer complete
    povms[1] = [np.diag([1.25, 0.0]), np.diag([-0.25, 1.0])]  # complete, with a negative effect
    report = cp.validate_quantum_realization(cp.QuantumRealization(states=states, povms=povms))
    assert [(v.constraint, v.location) for v in report.violations] == [
        ("state-not-hermitian", (1,)),
        ("state-trace", (2,)),
        ("effect-not-hermitian", (0, 1)),
        ("povm-incomplete", (0,)),
        ("effect-not-psd", (1, 1)),
    ]
    # The canonical effects of outcome 0 of the two measurements differ.
    same = cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0])
    s = cp.Scenario(4, 2, 2, b_si.prep_equivs, (same,))
    report = cp.verify_quantum_equivalences(canonical_realization, s)
    assert [(v.constraint, v.location) for v in report.violations] == [("effect-equivalence-0", ())]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda q: cp.QuantumRealization(states=q.states[:, :, :1], povms=q.povms), "states must have shape (preps, d, d)"),
        (lambda q: cp.QuantumRealization(states=q.states, povms=q.povms[0]), "povms must have shape (meas, outcomes, d, d)"),
        (lambda q: cp.verify_quantum_equivalences(q, cp.make_simplest_scenario(n_meas=3)), "realization does not match scenario counts"),
    ],
)
def test_shape_mismatches_are_refused(canonical_realization, call, message):
    with pytest.raises(cp.ShapeMismatchError, match="^" + re.escape(message) + "$"):
        call(canonical_realization)
