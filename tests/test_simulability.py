import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.lp import compile_rows
from ctxpoly.sampling import perturbed_behavior
from ctxpoly.simulability import _delta_witness_parts


def test_verbatim_targets_get_delta_witness(b6_behavior, canonical_behavior):
    witness = cp.find_simulation(b6_behavior, canonical_behavior)
    assert witness is not None
    assert np.array_equal(witness.q_M[:, 0], [1, 0, 0, 0, 0, 0])
    assert np.array_equal(witness.q_M[:, 1], [0, 1, 0, 0, 0, 0])
    assert np.array_equal(witness.q_O[0, 0], np.eye(2))
    assert np.array_equal(witness.q_O[1, 1], np.eye(2))
    assert witness.residual <= 1e-12
    assert witness.shared_post_processing


def test_trivial_target_always_simulable(b6_behavior):
    trivial = cp.Behavior(np.full((1, 4, 2), 0.5))
    witness = cp.find_simulation(b6_behavior, trivial)
    assert witness is not None
    assert witness.residual <= cp.LP_TOL


def test_trivial_simulators_cannot_reproduce_informative_target():
    trivial = cp.Behavior(np.full((1, 2, 2), 0.5))
    z_statistics = cp.Behavior(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert cp.find_simulation(trivial, z_statistics) is None


def test_prep_count_mismatch_raises(b6_behavior):
    with pytest.raises(cp.ShapeMismatchError):
        cp.find_simulation(b6_behavior, cp.Behavior(np.full((1, 3, 2), 0.5)))


@pytest.mark.parametrize("shape, axis", [((0, 2, 2), "meas"), ((2, 0, 2), "preps"), ((2, 2, 0), "outcomes")])
def test_a_table_with_an_empty_axis_is_refused_by_name(shape, axis):
    # find_simulation raised numpy's "zero-size array to reduction operation
    # minimum" from the table check.
    empty = cp.Behavior(np.zeros(shape))
    scenario = cp.Scenario(shape[1], shape[0], shape[2])
    op = cp.FreeOperation.identity(shape[1], shape[0], shape[2])
    for call in (
        lambda: cp.find_simulation(empty, empty),
        lambda: cp.secondary_procedures(scenario, empty),
        lambda: cp.apply_free_operation(op, scenario, empty),
    ):
        with pytest.raises(ValueError, match=rf" invalid: .* nonpositive-count at \('{axis}',\)"):
            call()
    report = cp.validate_behavior(scenario, empty)
    assert [(v.constraint, v.location) for v in report.violations] == [("nonpositive-count", (axis,))]


def test_witness_round_trip_reproduces_target(b_si, b6_scenario, b6_behavior, canonical_behavior):
    witness = cp.find_simulation(b6_behavior, canonical_behavior)
    operation = cp.simulation_to_free_operation(witness)
    image_scenario, image = cp.apply_free_operation(operation, b6_scenario, b6_behavior)
    assert np.abs(image.probs - canonical_behavior.probs).max() <= 1e-8
    assert image_scenario == b_si


def test_identity_witness_round_trip(b_si, canonical_behavior):
    witness = cp.find_simulation(canonical_behavior, canonical_behavior)
    operation = cp.simulation_to_free_operation(witness)
    assert np.array_equal(operation.q_P, np.eye(4))
    _, image = cp.apply_free_operation(operation, b_si, canonical_behavior)
    assert np.abs(image.probs - canonical_behavior.probs).max() <= 1e-12


def test_mixed_statistics_simulable_via_lp(b6_behavior):
    # An even mixture of the first two canonical measurements with an outcome
    # flip is not verbatim in the set, so the LP path must find it.
    mixed = 0.5 * b6_behavior.probs[0, :, ::-1] + 0.5 * b6_behavior.probs[1]
    target = cp.Behavior(mixed[None, :, :])
    witness = cp.find_simulation(b6_behavior, target)
    assert witness is not None
    assert witness.residual <= cp.LP_TOL


def test_simulation_rows_are_compiled_once_per_call(monkeypatch, b6_behavior):
    compiled, solved = [], []

    def counting(rows, n_ineq):
        compiled.append(rows.shape)
        return compile_rows(rows, n_ineq)

    monkeypatch.setattr(cp.simulability, "compile_rows", counting)
    monkeypatch.setattr(cp.lp, "compile_rows", counting)  # rows added one at a time
    monkeypatch.setattr(cp.simulability, "solve_lp", lambda lp, tol: solved.append(lp) or cp.solve_lp(lp, tol))
    p = b6_behavior.probs
    target = cp.Behavior(np.stack([0.5 * p[0, :, ::-1] + 0.5 * p[1], 0.3 * p[2] + 0.7 * p[3]]))
    assert cp.find_simulation(b6_behavior, target) is not None
    assert len(solved) == 2
    assert len(compiled) == 1


def test_outcome_coarse_graining_is_simulable():
    rng = np.random.default_rng(5)
    source = cp.Behavior(rng.dirichlet(np.ones(3), size=(2, 4)))
    merge = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # outcomes {0,1}->0, {2}->1
    target = cp.Behavior(np.einsum("nk,ijk->ijn", merge, source.probs)[:1])
    witness = cp.find_simulation(source, target)
    assert witness is not None
    assert witness.residual <= cp.LP_TOL
    operation = cp.simulation_to_free_operation(witness)
    image_scenario, image = cp.apply_free_operation(operation, cp.Scenario(4, 2, 3), source)
    assert image_scenario.n_outcomes == 2
    assert np.abs(image.probs - target.probs).max() <= 1e-8


def test_outcome_refinement_is_not_simulable():
    rng = np.random.default_rng(5)
    fine = cp.Behavior(rng.dirichlet(np.ones(3), size=(1, 4)))
    merge = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    coarse_source = cp.Behavior(np.einsum("nk,ijk->ijn", merge, fine.probs))
    assert cp.find_simulation(coarse_source, fine) is None


def test_simulated_contextuality_certifies_simulators(b6_scenario, b6_behavior, b_si, canonical_behavior):
    # The target set is contextual within the shared preparations, so its
    # simulators must be too.
    witness = cp.find_simulation(b6_behavior, canonical_behavior)
    operation = cp.simulation_to_free_operation(witness)
    image_scenario, image = cp.apply_free_operation(operation, b6_scenario, b6_behavior)
    assert cp.is_noncontextual(image_scenario, image).contextual
    assert cp.is_noncontextual(b6_scenario, b6_behavior).contextual


def test_flattening_rejects_conflicting_post_processings():
    q_m = np.array([[1.0, 1.0]])  # one source measurement feeding two targets
    q_o = np.stack([[np.eye(2)], [np.array([[0.0, 1.0], [1.0, 0.0]])]])
    witness = cp.SimulationWitness(
        q_M=q_m, q_O=q_o, residual=0.0, shared_post_processing=False, n_preps=4
    )
    with pytest.raises(cp.SimulationError):
        cp.simulation_to_free_operation(witness)


def test_large_residual_refused(b6_behavior, canonical_behavior):
    witness = cp.find_simulation(b6_behavior, canonical_behavior)
    witness.residual = 1.0
    with pytest.raises(cp.SimulationError):
        cp.simulation_to_free_operation(witness)


def _simulation_lp_reference(p_src, target_row):
    """The per-target simulation LP built one row at a time, as loops."""
    n_src, n_preps, k_src = p_src.shape
    k_tgt = target_row.shape[1]
    n_s = n_src * k_tgt * k_src
    n_vars = n_s + n_src
    s_idx = lambda i, kn, ko: (i * k_tgt + kn) * k_src + ko  # noqa: E731
    lp = cp.LinearProgram(n_vars)
    for i in range(n_src):
        for ko in range(k_src):
            row = np.zeros(n_vars)
            for kn in range(k_tgt):
                row[s_idx(i, kn, ko)] = 1.0
            row[n_s + i] = -1.0
            lp.add_eq(row, 0.0)
    row = np.zeros(n_vars)
    row[n_s:] = 1.0
    lp.add_eq(row, 1.0)
    for j in range(n_preps):
        for kn in range(k_tgt):
            row = np.zeros(n_vars)
            for i in range(n_src):
                for ko in range(k_src):
                    row[s_idx(i, kn, ko)] = p_src[i, j, ko]
            lp.add_eq(row, float(target_row[j, kn]))
    return lp


def test_simulation_lp_matches_the_row_loop(monkeypatch, lp_bytes, b6_behavior, canonical_behavior):
    seen = []
    monkeypatch.setattr(cp.simulability, "solve_lp", lambda lp, tol: seen.append(lp) or cp.solve_lp(lp, tol))
    rng = np.random.default_rng(4)
    signed = np.where(canonical_behavior.probs == 0.0, -0.0, canonical_behavior.probs)
    signed[0, 0] = [-0.0, 1.0]  # zero entries: signed zeros
    coarse = cp.Behavior(np.concatenate([b6_behavior.probs[:, :, :1], b6_behavior.probs[:, :, 1:]], axis=2))
    cases = [
        (b6_behavior, perturbed_behavior(canonical_behavior, rng, 0.01)),
        (canonical_behavior, perturbed_behavior(canonical_behavior, rng, 0.01)),
        (b6_behavior, cp.Behavior(signed)),
        (coarse, cp.Behavior(np.full((1, 4, 3), 1 / 3))),  # outcome counts differ
    ]
    for sim, target in cases:
        seen.clear()
        cp.find_simulation(sim, target)
        lp_targets = [t for t in range(target.probs.shape[0]) if _delta_witness_parts(sim.probs, target.probs[t], cp.LP_TOL) is None]
        assert seen and len(seen) <= len(lp_targets)
        for lp, t in zip(seen, lp_targets):
            assert lp_bytes(lp) == lp_bytes(_simulation_lp_reference(sim.probs, target.probs[t]))
