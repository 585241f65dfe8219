import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxpoly as cp
from ctxpoly.ncmodel import membership_program, model_columns, model_program
from ctxpoly.sampling import random_mixture_behavior

# Contextual vertex paired with the unique tight functional it violates,
# written as the outcome-1 rows of the two measurements.
FACET_VERTEX_PAIRING = {
    "h1": ((0, 1, 1, 0), (0, 1, 0, 1)),
    "h2": ((0, 1, 0, 1), (0, 1, 1, 0)),
    "h3": ((1, 0, 1, 0), (0, 1, 1, 0)),
    "h4": ((0, 1, 1, 0), (1, 0, 1, 0)),
    "h5": ((1, 0, 0, 1), (0, 1, 0, 1)),
    "h6": ((1, 0, 0, 1), (1, 0, 1, 0)),
    "h7": ((0, 1, 0, 1), (1, 0, 0, 1)),
    "h8": ((1, 0, 1, 0), (1, 0, 0, 1)),
}


def vertex_behavior(rows):
    arr = np.array(rows, dtype=float)
    return cp.Behavior(np.stack([1.0 - arr, arr], axis=2))


def outcome1(behavior):
    return tuple(tuple(int(x) for x in row) for row in behavior.probs[:, :, 1])


# -- ontic states ------------------------------------------------------------


def test_simplest_ontic_states(b_si):
    states = cp.enumerate_ontic_states(b_si)
    assert [s.responses for s in states] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_meas_equivalence_filters_states():
    equiv = cp.EquivalenceVector([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])  # [0|M1] ~ [0|M2]
    s = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    states = cp.enumerate_ontic_states(s)
    assert [st.responses for st in states] == [(0, 0), (1, 1)]


def test_b6_state_count(b6_scenario):
    assert len(cp.enumerate_ontic_states(b6_scenario)) == 64


def test_state_cap(b_si):
    with pytest.raises(cp.CapExceededError, match="4"):
        cp.enumerate_ontic_states(b_si, cap=3)


def _ontic_states_reference(s):
    """The enumeration as a loop over every assignment, in exact integers."""
    weights = [
        cp.ncmodel._scaled_integer_weights(e.difference).reshape(s.n_meas, s.n_outcomes) for e in s.meas_equivs
    ]
    return [
        responses
        for responses in itertools.product(range(s.n_outcomes), repeat=s.n_meas)
        if all(sum(w[i, k] for i, k in enumerate(responses)) == 0 for w in weights)
    ]


def _huge_weight_scenario():
    # Weights on outcome 0 of six measurements, with denominators near 1e6
    # whose lcm is far beyond int64; the all-ones state hits none of them.
    primes = (999983, 999979, 999961, 999959)
    alpha, beta = np.zeros(12), np.zeros(12)
    alpha[[0, 2]] = 1 / primes[0], 1 / primes[1]
    alpha[4] = 1 - alpha.sum()
    beta[[6, 8]] = 1 / primes[2], 1 / primes[3]
    beta[10] = 1 - beta.sum()
    return cp.Scenario(2, 6, 2, meas_equivs=(cp.EquivalenceVector(alpha, beta),))


def test_ontic_states_match_the_assignment_loop(b_si, b6_scenario):
    block = cp.Scenario(2, 2, 2, meas_equivs=(cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0]),))
    three_events = cp.EquivalenceVector([0.5, 0, 0.5, 0, 0, 0], [0, 0, 0, 0.5, 0.5, 0])
    for s in (
        b_si,
        b6_scenario,
        cp.compose_scenarios(block, block),  # padded measurement equivalences
        cp.cloning_scenario()[0],
        cp.Scenario(1, 2, 3, meas_equivs=(three_events,)),
        _huge_weight_scenario(),
    ):
        states = cp.enumerate_ontic_states(s)
        assert [st.responses for st in states] == _ontic_states_reference(s)
        assert all(type(x) is int for st in states for x in st.responses)


# -- membership --------------------------------------------------------------


def test_uniform_behavior_noncontextual_with_uniform_model(b_si):
    verdict = cp.is_noncontextual(b_si, cp.uniform_behavior(b_si))
    assert not verdict.contextual
    assert verdict.model is not None and verdict.violated is None
    assert cp.validate_nc_model(b_si, cp.uniform_behavior(b_si), verdict.model).ok
    # A uniform model reproduces it; the LP one must too, so mus are proper.
    assert np.allclose(verdict.model.mus.sum(axis=1), 1.0, atol=cp.LP_TOL)


def test_quantum_behavior_contextual(b_si, canonical_behavior):
    verdict = cp.is_noncontextual(b_si, canonical_behavior)
    assert verdict.contextual
    assert verdict.model is None
    assert verdict.violated == "h7"


def test_table2_vertex_contextual(b_si):
    verdict = cp.is_noncontextual(b_si, vertex_behavior(FACET_VERTEX_PAIRING["h7"]))
    assert verdict.contextual
    assert verdict.violated == "h7"


def test_model_reconstruction_passes_membership(b_si):
    rng = np.random.default_rng(3)
    # Random model respecting the preparation equivalence pointwise:
    # mu3 + mu4 must equal mu1 + mu2 state by state, with both normalized.
    states = cp.enumerate_ontic_states(b_si)
    mu1, mu2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    mid = (mu1 + mu2) / 2.0
    eps = rng.uniform(-1.0, 1.0, size=4)
    eps -= eps.mean()
    eps *= 0.9 * np.min(mid / np.maximum(np.abs(eps), 1e-12))
    mu3, mu4 = mid + eps, mid - eps
    model = cp.NcModel(tuple(states), np.stack([mu1, mu2, mu3, mu4]))
    behavior = model.behavior(b_si)
    assert cp.validate_behavior(b_si, behavior).ok
    assert not cp.is_noncontextual(b_si, behavior).contextual
    values = cp.evaluate_inequalities(cp.simplest_scenario_inequalities(), behavior)
    assert values.max() <= cp.LP_TOL


# -- vertices ----------------------------------------------------------------


def test_vertex_count_and_contextual_subset(b_si, si_vertices):
    assert len(si_vertices) == 36
    contextual = [v for v in si_vertices if cp.is_noncontextual(b_si, v).contextual]
    assert len(contextual) == 8


def test_vertices_are_lexicographic(si_vertices):
    # The outcome index assigned to a cell is 1 exactly where the p1 slice is
    # 1, so the flattened slices are the assignment words themselves.
    assignments = [tuple(x for row in outcome1(v) for x in row) for v in si_vertices]
    assert assignments == sorted(assignments)
    assert len(set(assignments)) == len(assignments)


def test_trivial_two_vertex_scenario():
    s = cp.Scenario(1, 1, 2)
    assert len(cp.enumerate_behavior_vertices(s)) == 2


def test_facet_vertex_pairing_is_a_bijection(si_vertices):
    ineqs = cp.simplest_scenario_inequalities()
    seen = {}
    for vertex in si_vertices:
        values = cp.evaluate_inequalities(ineqs, vertex)[:8]
        hits = np.nonzero(values > 1e-9)[0]
        if hits.size == 0:
            continue
        assert hits.size == 1  # one and only one violated functional
        label = ineqs.functionals[int(hits[0])].label
        assert label not in seen
        seen[label] = outcome1(vertex)
    assert seen == FACET_VERTEX_PAIRING


def test_vertex_cap(b_si):
    with pytest.raises(cp.CapExceededError):
        cp.enumerate_behavior_vertices(b_si, cap=100)


def test_fractional_vertex_scenarios_refused():
    lopsided = cp.EquivalenceVector([2 / 3, 1 / 3, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
    s = cp.Scenario(4, 1, 2, prep_equivs=(lopsided,))
    with pytest.raises(cp.UnsupportedScenarioError):
        cp.enumerate_behavior_vertices(s)
    overlapping = cp.Scenario(
        4, 1, 2,
        prep_equivs=(
            cp.EquivalenceVector([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]),
            cp.EquivalenceVector([0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]),
        ),
    )
    with pytest.raises(cp.UnsupportedScenarioError):
        cp.enumerate_behavior_vertices(overlapping)


# -- inequalities ------------------------------------------------------------


def test_simplest_inequalities_are_built_once_and_read_only(canonical_behavior):
    first, second = cp.simplest_scenario_inequalities(), cp.simplest_scenario_inequalities()
    assert second is first
    assert second.labels == first.labels
    assert np.array_equal(cp.evaluate_inequalities(second, canonical_behavior), cp.evaluate_inequalities(first, canonical_behavior))
    with pytest.raises(ValueError, match="read-only"):
        first.functionals[0].coeffs[0, 0, 0] = 1.0


def test_inequality_set_layout():
    ineqs = cp.simplest_scenario_inequalities()
    assert ineqs.labels[:8] == ("h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8")
    assert len(ineqs.functionals) == 24  # 8 tight + 16 trivial bounds
    assert len(ineqs.nontrivial()) == 8


def test_h7_on_quantum_behavior(canonical_behavior):
    values = cp.evaluate_inequalities(cp.simplest_scenario_inequalities(), canonical_behavior)
    assert abs((values[6] + 1.0) - np.sqrt(2.0)) <= 1e-12
    positive = np.nonzero(values > 1e-12)[0]
    assert list(positive) == [6]  # h7 alone


def test_uniform_behavior_saturates_nothing(b_si):
    values = cp.evaluate_inequalities(
        cp.simplest_scenario_inequalities(), cp.uniform_behavior(b_si)
    )
    assert np.allclose(values[:8], -1.0)


def test_h7_on_its_vertex_is_one():
    values = cp.evaluate_inequalities(
        cp.simplest_scenario_inequalities(), vertex_behavior(FACET_VERTEX_PAIRING["h7"])
    )
    assert values[6] == pytest.approx(1.0, abs=1e-12)


def test_inequality_values_match_one_functional_at_a_time(b_si, si_vertices):
    # Reference: each functional on its own.  The simplest set gives the same
    # floats; the lifted set sums longer rows in another order, so it may
    # differ in the last bits.
    def one_at_a_time(ineqs, behavior):
        return np.array(
            [float(np.tensordot(f.coeffs, behavior.probs, axes=3)) - f.constant for f in ineqs.functionals]
        )

    rng = np.random.default_rng(5)
    ineqs = cp.simplest_scenario_inequalities()
    for behavior in [*si_vertices, *(random_mixture_behavior(si_vertices, rng) for _ in range(50))]:
        assert np.array_equal(cp.evaluate_inequalities(ineqs, behavior), one_at_a_time(ineqs, behavior))
    lifted = cp.lifted_simplest_inequalities(2)
    for _ in range(50):
        behavior = cp.Behavior(rng.random(lifted.functionals[0].coeffs.shape))
        values = cp.evaluate_inequalities(lifted, behavior)
        assert np.allclose(values, one_at_a_time(lifted, behavior), rtol=0.0, atol=16 * np.finfo(float).eps)


def test_inequality_shape_mismatch(b6_behavior):
    with pytest.raises(cp.ShapeMismatchError):
        cp.evaluate_inequalities(cp.simplest_scenario_inequalities(), b6_behavior)


def test_lp_agrees_with_functional_oracle_on_grid(b_si):
    ineqs = cp.simplest_scenario_inequalities()
    grid = [0.0, 0.5, 1.0]
    rows = [
        (a, b, c, a + b - c)
        for a in grid
        for b in grid
        for c in grid
        if 0.0 <= a + b - c <= 1.0
    ]
    for r1 in rows:
        for r2 in rows:
            arr = np.array([r1, r2])
            behavior = cp.Behavior(np.stack([1.0 - arr, arr], axis=2))
            oracle_nc = cp.evaluate_inequalities(ineqs, behavior).max() <= 1e-8
            assert (not cp.is_noncontextual(b_si, behavior).contextual) == oracle_nc


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_nc_vertex_mixtures_are_noncontextual(seed):
    s = cp.make_simplest_scenario()
    vertices = cp.enumerate_behavior_vertices(s)
    ineqs = cp.simplest_scenario_inequalities()
    nc_vertices = [
        v for v in vertices if cp.evaluate_inequalities(ineqs, v)[:8].max() <= 0.0
    ]
    rng = np.random.default_rng(seed)
    behavior = random_mixture_behavior(nc_vertices, rng)
    assert not cp.is_noncontextual(s, behavior).contextual


def _simplest_table(cell=None, value=None):
    probs = np.full((2, 4, 2), 0.5)
    if cell is not None:
        probs[cell] = value
    return probs


@pytest.mark.parametrize(
    "probs, error",
    [
        # Used to come back noncontextual with a model.
        (np.full((3, 4, 2), 0.5), "shape"),
        # Used to come back contextual with "lp-infeasible".
        (_simplest_table((0, 0), [0.2, 0.8]), "prep-equivalence"),
        # Used to surface as scipy's "Invalid input for linprog".
        (_simplest_table((1, 2, 0), np.nan), "non-finite"),
    ],
)
def test_invalid_behavior_rejected_before_the_lp(b_si, probs, error):
    with pytest.raises(ValueError, match=error):
        cp.is_noncontextual(b_si, cp.Behavior(probs))


def test_invalid_scenario_rejected_before_the_lp(malformed_scenario):
    scenario, behavior = malformed_scenario
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(ValueError, match="^scenario invalid: "):
            decide(scenario, behavior)


def test_membership_program_sizes(b_si, b6_scenario):
    # Components touching every measurement keep every ontic state; a block
    # of the power keeps one state per pattern on its two measurements.
    for s, n_vars in ((b_si, 16), (b6_scenario, 256), (cp.power_scenario(b_si, 4), 64)):
        lp = membership_program(model_program(s), cp.uniform_behavior(s))
        assert lp.n_vars == n_vars


def test_component_supports_project_onto_touched_measurements(b_si):
    s = cp.power_scenario(b_si, 2)
    columns = model_columns(s, cp.enumerate_ontic_states(s))
    # Block 0 keeps the first state of each pattern on measurements (0, 1),
    # block 1 the first state of each pattern on measurements (2, 3).
    assert columns.state[columns.prep == 0].tolist() == [0, 4, 8, 12]
    assert columns.state[columns.prep == 7].tolist() == [0, 1, 2, 3]
    assert columns.slot[columns.prep == 7].tolist() == [0, 1, 2, 3]
