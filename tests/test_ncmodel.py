import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxpoly as cp
from ctxpoly.ncmodel import RAY_ZERO_TOL, equivalence_rays, membership_program, model_columns, model_program
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
    """The enumeration as a loop over every assignment, on the equivalences
    as given, within RAY_ZERO_TOL."""
    weights = [e.difference.reshape(s.n_meas, s.n_outcomes) for e in s.meas_equivs]
    return [
        responses
        for responses in itertools.product(range(s.n_outcomes), repeat=s.n_meas)
        if all(abs(sum(w[i, k] for i, k in enumerate(responses))) <= RAY_ZERO_TOL for w in weights)
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


def test_ontic_states_meet_the_equivalence_as_given():
    # The all-zeros state meets the huge weights to about 1e-16; rounded to
    # denominators up to 1e6, their sum 1 - 1/999983 - 1/999979 lost it.
    assert [st.responses for st in cp.enumerate_ontic_states(_huge_weight_scenario())] == [(0,) * 6, (1,) * 6]
    # No deterministic response meets 1/2 +- 1e-8 against 1/2, 1/2 as given;
    # rounded to 1/2, all four did.  The decision procedures refuse it, as
    # its response polytope is not integral.
    near_even = cp.Scenario(1, 2, 2, meas_equivs=(cp.EquivalenceVector([0.5 + 1e-8, 0.5 - 1e-8, 0, 0], [0, 0, 0.5, 0.5]),))
    assert cp.enumerate_ontic_states(near_even) == []
    with pytest.raises(cp.UnsupportedScenarioError, match=re.escape("measurements [0, 1] admit")):
        cp.is_noncontextual(near_even, cp.uniform_behavior(near_even))


def test_response_functions_that_are_not_deterministic_are_refused(coin_flip):
    # Both were decided on deterministic states only: the coin flip was
    # called contextual ("lp-infeasible", d = 1.0), and the huge weights'
    # polytope has 40 fractional vertices of 52.
    huge = _huge_weight_scenario()
    for (s, behavior), group in ((coin_flip, [0, 1, 2]), ((huge, cp.uniform_behavior(huge)), list(range(6)))):
        assert cp.validate_behavior(s, behavior).ok
        for call in (cp.is_noncontextual, cp.l1_distance):
            with pytest.raises(cp.UnsupportedScenarioError, match="^" + re.escape(f"measurements {group} admit a response")):
                call(s, behavior)
    # Integral response polytopes keep their deterministic ontic states.
    block = cp.Scenario(2, 2, 2, meas_equivs=(cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0]),))
    halves = cp.Scenario(2, 2, 2, meas_equivs=(cp.EquivalenceVector([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]),))
    three_events = cp.EquivalenceVector([0.5, 0, 0.5, 0, 0, 0], [0, 0, 0, 0.5, 0.5, 0])
    for s in (block, halves, cp.compose_scenarios(block, halves), cp.Scenario(1, 2, 3, meas_equivs=(three_events,))):
        assert not cp.is_noncontextual(s, cp.uniform_behavior(s)).contextual


def test_double_description_stops_at_the_cap():
    # One measurement equivalence linking eight binary measurements, outcome
    # 0 of the first four against the last four: an integral response
    # polytope, whose double description combines thousands of ray pairs
    # (more than two million at twelve measurements).
    n = 8
    alpha, beta = np.zeros(2 * n), np.zeros(2 * n)
    alpha[:n:2] = beta[n::2] = 2 / n
    s = cp.Scenario(1, n, 2, meas_equivs=(cp.EquivalenceVector(alpha, beta),))
    uniform = cp.uniform_behavior(s)
    with pytest.raises(cp.CapExceededError, match=r"^double description needs at least \d+ ray pairs, cap is 1000$"):
        cp.is_noncontextual(s, uniform, cap=10**3)
    assert not cp.is_noncontextual(s, uniform).contextual


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


def test_a_restated_simplest_equivalence_names_the_tabulated_facets(b_si, si_vertices):
    even = b_si.prep_equivs[0]
    expected = [cp.is_noncontextual(b_si, v).violated for v in si_vertices]
    assert sorted(filter(None, expected)) == [f"h{n}" for n in range(1, 9)]
    uneven = cp.EquivalenceVector([0.3, 0.3, 0.2, 0.2], [0, 0, 0.5, 0.5])  # the same difference, times 0.6
    for s in (cp.Scenario(4, 2, 2, (even, even)), cp.Scenario(4, 2, 2, (uneven,))):
        assert [cp.is_noncontextual(s, v).violated for v in si_vertices] == expected


def test_a_scenario_only_close_to_the_simplest_gets_no_tabulated_facet(b_si, si_vertices):
    # Their cones are not the simplest one, so h1..h8 are not their facets.
    rounded = cp.EquivalenceVector([0.50000002, 0.5, 0, 0], [0, 0, 0.50000002, 0.5])
    shifted = cp.EquivalenceVector([0.5 + 4e-6, 0.5 - 4e-6, 0, 0], [0, 0, 0.5, 0.5])
    expected = [cp.is_noncontextual(b_si, v).contextual for v in si_vertices]
    for equiv, tol in ((rounded, 1e-6), (shifted, 1e-5)):
        s = cp.Scenario(4, 2, 2, (equiv,))
        verdicts = [cp.is_noncontextual(s, v, tol=tol) for v in si_vertices]
        assert [v.contextual for v in verdicts] == expected
        assert {v.violated for v in verdicts if v.contextual} == {"lp-infeasible"}


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


def _vertices_reference(s, tol=cp.LP_TOL):
    """Vertex enumeration as a loop over every assignment of outcomes to the
    physical cells: every 0/1 table, with the uniform filler on masked
    cells, that ``validate_behavior`` accepts at ``tol``."""
    k, mask = s.n_outcomes, s.physical_mask()
    cells = [(i, j) for i in range(s.n_meas) for j in range(s.n_preps) if mask[i, j]]
    out = []
    for word in itertools.product(range(k), repeat=len(cells)):
        probs = np.full((s.n_meas, s.n_preps, k), 1.0 / k)
        probs[mask] = 0.0
        for (i, j), outcome in zip(cells, word):
            probs[i, j, outcome] = 1.0
        if cp.validate_behavior(s, cp.Behavior(probs, cell_mask=s.cell_mask), tol=tol).ok:
            out.append(probs)
    return out


def test_vertices_match_the_assignment_loop(b_si):
    first_outcome = cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0])  # [0|M1] ~ [0|M2]
    block = cp.Scenario(2, 2, 2, meas_equivs=(first_outcome,))
    twin = cp.Scenario(2, 2, 3, prep_equivs=(cp.EquivalenceVector([1.0, 0.0], [0.0, 1.0]),))
    # Both halves of M1 against both halves of M2: met by every behavior, but
    # only through a masked cell's filler once a cell of M1 is masked.
    halves = cp.Scenario(2, 2, 2, meas_equivs=(cp.EquivalenceVector([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]),))
    composite = cp.compose_scenarios(b_si, halves)
    mask = composite.physical_mask().copy()
    mask[0, [0, 1]] = False  # M1 of the first block unmeasured on P1, P2
    mask[2, 4] = False  # M1 of the second block unmeasured on its P1
    masked = cp.Scenario(4 + 2, 2 + 2, 2, composite.prep_equivs, composite.meas_equivs, cell_mask=mask)
    for s, count in (
        (b_si, 36),
        (cp.power_scenario(b_si, 2), 1296),
        (cp.Scenario(1, 1, 2), 2),
        (twin, 9),
        (cp.compose_scenarios(block, block), 16),  # padded measurement equivalences
        (masked, 12 * 8),
    ):
        vertices = cp.enumerate_behavior_vertices(s)
        assert len(vertices) == count
        assert [v.probs.tobytes() for v in vertices] == [t.tobytes() for t in _vertices_reference(s)]
        assert all(np.array_equal(v.physical_mask(), s.physical_mask()) for v in vertices)


def _off_grid_scenarios():
    """Weight magnitudes that differ by 2e-8 (1/2 +- 1e-8), and a fifth
    preparation weighed 2e-7."""
    near_even = cp.Scenario(4, 2, 2, (cp.EquivalenceVector([0.5 + 1e-8, 0.5 - 1e-8, 0, 0], [0, 0, 0.5, 0.5]),))
    tiny = cp.Scenario(5, 2, 2, (cp.EquivalenceVector([0.5, 0.5 - 2e-7, 0, 0, 2e-7], [0, 0, 0.5, 0.5, 0]),))
    return near_even, tiny


def test_vertex_guard_reads_the_weights_at_the_tolerance():
    for s in _off_grid_scenarios():
        with pytest.raises(cp.UnsupportedScenarioError, match="mixes weight magnitudes"):
            cp.enumerate_behavior_vertices(s)


def test_vertices_at_a_coarser_tolerance_are_the_tables_it_accepts():
    for s, count in zip(_off_grid_scenarios(), (36, 144)):
        vertices = cp.ncmodel._vertices(s, 1e-6)
        assert len(vertices) == count
        assert [v.probs.tobytes() for v in vertices] == [t.tobytes() for t in _vertices_reference(s, 1e-6)]


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


def _model_block(rng, n_meas, concentration):
    """A simplest-family behavior built from an explicit noncontextual model:
    for distributions a, b, c, d on the deterministic states, preparations
    (a+b)/2, (c+d)/2, (a+c)/2 and (b+d)/2 satisfy P1 + P2 = P3 + P4."""
    a, b, c, d = rng.dirichlet(np.full(2**n_meas, concentration), size=4)
    mus = np.stack([a + b, c + d, a + c, b + d]) / 2
    responses = np.array(list(itertools.product((0, 1), repeat=n_meas)))
    outcome1 = (mus @ responses).T
    return cp.Behavior(np.stack([1.0 - outcome1, outcome1], axis=2))


@pytest.mark.parametrize("concentration", [1.0, 0.1])
def test_every_returned_model_passes_substitution(b_si, b6_scenario, concentration):
    # Which optimal vertex HiGHS returns depends on its options; every one
    # must still reproduce the behavior.
    rng = np.random.default_rng(17)
    twofold, fourfold = cp.power_scenario(b_si, 2), cp.power_scenario(b_si, 4)
    cloning, _ = cp.cloning_scenario()
    for _ in range(3):
        blocks = [_model_block(rng, 2, concentration) for _ in range(4)]
        b6_blocks = [_model_block(rng, 6, concentration) for _ in range(3)]
        cases = [
            (b_si, blocks[0]),
            (twofold, cp.compose_behaviors(blocks[0], blocks[1])),
            (fourfold, functools.reduce(cp.compose_behaviors, blocks)),
            (b6_scenario, b6_blocks[0]),
            (cloning, cp.Behavior(np.concatenate([b.probs for b in b6_blocks], axis=1))),
        ]
        for s, behavior in cases:
            verdict = cp.is_noncontextual(s, behavior)
            assert not verdict.contextual
            assert cp.validate_nc_model(s, behavior, verdict.model).ok


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
    with pytest.raises(ValueError, match="^scenario invalid: "):
        cp.enumerate_behavior_vertices(scenario)


def test_membership_program_sizes(b_si, b6_scenario):
    # Components touching every measurement keep every ontic state; a block
    # of the power keeps one state per pattern on its two measurements.
    # Only normalization and reproduction rows: the rays carry the
    # equivalences.
    for s, n_vars, n_rows in ((b_si, 16, 20), (b6_scenario, 256, 52), (cp.power_scenario(b_si, 4), 64, 80)):
        lp = membership_program(model_program(s), cp.uniform_behavior(s))
        assert lp.n_vars == n_vars
        assert lp.compiled_rows()[0].n_rows == n_rows


def test_component_supports_project_onto_touched_measurements(b_si):
    s = cp.power_scenario(b_si, 2)
    columns = model_columns(s, cp.enumerate_ontic_states(s))
    # Block 0 keeps the first state of each pattern on measurements (0, 1),
    # block 1 the first state of each pattern on measurements (2, 3).  Each
    # block has 4 pair rays, the first on preparations 0 and 2, the last on
    # 5 and 7.
    assert columns.rays.shape == (8, 8)
    assert np.flatnonzero(columns.rays[0]).tolist() == [0, 2]
    assert np.flatnonzero(columns.rays[7]).tolist() == [5, 7]
    assert columns.state[columns.ray == 0].tolist() == [0, 4, 8, 12]
    assert columns.state[columns.ray == 7].tolist() == [0, 1, 2, 3]
    assert columns.ray.tolist() == np.repeat(np.arange(8), 4).tolist()


# -- the generators of each component's equivalence cone (equivalence_rays) --


def _extreme_rays_by_support(weights, n):
    """Every extreme ray of {v >= 0 : w . v = 0 for each w}, scaled to largest
    entry 1, found one support at a time: a support S carries an extreme ray
    exactly when the equations on S have a one-dimensional null space
    spanned by a vector positive on S."""
    table = np.array(weights, dtype=float).reshape(len(weights), n)
    out = set()
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            _, sing, vt = np.linalg.svd(table[:, support], full_matrices=True)
            if size - np.count_nonzero(sing > 1e-9) != 1:
                continue
            v = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])
            if (v > 1e-9).all():
                ray = np.zeros(n)
                ray[list(support)] = v / v.max()
                out.add(tuple(np.round(ray, 9)))
    return out


def _supports(rays):
    return [frozenset(np.flatnonzero(ray).tolist()) for ray in rays]


def _check_rays(diffs, n):
    """The rays of ``diffs`` after every check that needs no LP."""
    diffs = [np.asarray(d, dtype=float) for d in diffs]
    rays = equivalence_rays(diffs, n)
    for ray in rays:
        assert all(type(x) is float for x in ray) and min(ray) >= 0.0 and max(ray) == 1.0
        assert all(abs(d @ ray) <= 1e-15 for d in diffs)  # on every equation as given
    supports = _supports(rays)
    assert not any(a < b for a in supports for b in supports)  # every support is minimal
    scaled = {tuple(np.round(ray, 9)) for ray in rays}
    assert len(scaled) == len(rays) and scaled == _extreme_rays_by_support(diffs, n)
    return rays


def _integer_ray(ray):
    """A ray whose entries are rationals of small denominator, as the
    gcd-reduced integer vector it scales."""
    fracs = [Fraction(x).limit_denominator(1000) for x in ray]
    ints = [int(f * math.lcm(*(f.denominator for f in fracs))) for f in fracs]
    return tuple(x // math.gcd(*ints) for x in ints)


def test_one_even_equivalence_gives_the_four_pair_rays(b_si):
    diff = b_si.prep_equivs[0].difference
    assert _check_rays([diff], 4) == [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    columns = model_columns(b_si, cp.enumerate_ontic_states(b_si))
    assert columns.rays.tolist() == [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]


def test_unequal_weights_give_integer_rays_on_the_equivalence():
    diff = [1 / 3, 2 / 3, -1 / 2, -1 / 2]
    w = [2, 4, -3, -3]  # 6 * diff
    rays = [_integer_ray(ray) for ray in _check_rays([diff], 4)]
    assert rays == [(3, 0, 2, 0), (3, 0, 0, 2), (0, 3, 4, 0), (0, 3, 0, 4)]
    assert all(sum(int(a) * b for a, b in zip(w, ray)) == 0 for ray in rays)


def test_overlapping_equivalences_on_the_octahedron_give_eight_rays():
    # Preparations +x, -x, +y, -y, +z, -z: the even mixtures of the three
    # antipodal pairs are all equal, stated as two overlapping equivalences.
    diffs = [[0.5, 0.5, -0.5, -0.5, 0, 0], [0, 0, 0.5, 0.5, -0.5, -0.5]]
    rays = _check_rays(diffs, 6)
    # One preparation from each pair.
    assert sorted(rays) == sorted(
        tuple(float(p in chosen) for p in range(6)) for chosen in itertools.product((0, 1), (2, 3), (4, 5))
    )


def test_a_preparation_in_no_equivalence_gives_its_unit_ray(b_si):
    assert _check_rays([], 1) == [(1,)]
    assert _check_rays([[0.5, -0.5, 0]], 3) == [(1, 1, 0), (0, 0, 1)]
    s = cp.Scenario(5, 2, 2, (cp.EquivalenceVector([0.5, 0.5, 0, 0, 0], [0, 0, 0.5, 0.5, 0]),))
    columns = model_columns(s, cp.enumerate_ontic_states(s))
    assert columns.rays[-1].tolist() == [0, 0, 0, 0, 1]
    assert columns.state[columns.ray == len(columns.rays) - 1].tolist() == [0, 1, 2, 3]


def test_rays_of_random_equivalences_are_exactly_the_extreme_rays():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        diffs = []
        for _ in range(int(rng.integers(1, 4))):
            # Two distributions with denominators up to 4 on random sides.
            sides = [rng.multinomial(4, rng.dirichlet(np.ones(n))) / 4 for _ in range(2)]
            if not np.array_equal(*sides):
                diffs.append(sides[0] - sides[1])
        _check_rays(diffs, n)
    for _ in range(40):
        # Weights of no small denominator, and one equivalence that is the
        # sum of two others up to rounding.
        n = 6
        sides = [rng.dirichlet(np.ones(2)) for _ in range(3)]
        pad = lambda a, b: np.concatenate([a if k == b else np.zeros(2) for k in range(3)])  # noqa: E731
        diffs = [pad(sides[0], 0) - pad(sides[1], 1), pad(sides[1], 1) - pad(sides[2], 2)]
        diffs.append(diffs[0] + diffs[1] + rng.normal(scale=1e-16, size=n))
        assert len(_check_rays(diffs, n)) == 8


def test_rays_meet_weights_off_the_rational_grid():
    # No rational of denominator at most 1e6 is within 1e-9 of 1/2 + 1e-8
    # or of 2e-7 but 1/2 and 0.  The rays meet the equivalences as given,
    # and a weight of 2e-7 still links its preparation to the other side.
    near_even = np.array([0.5 + 1e-8, 0.5 - 1e-8, -0.5, -0.5])
    assert len(_check_rays([near_even], 4)) == 4
    tiny = np.array([0.5, 0.5 - 2e-7, -0.5, -0.5, 2e-7])
    rays = _check_rays([tiny], 5)
    assert [np.flatnonzero(ray).tolist() for ray in rays][-2:] == [[2, 4], [3, 4]]


# -- validate_nc_model reports each kind of violation -------------------------


def test_validate_nc_model_reports_each_violation_kind():
    # Measurement 0 answers 0 exactly when measurement 1 does.
    same = cp.EquivalenceVector([1.0, 0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0])
    s = cp.Scenario(4, 3, 2, cp.make_simplest_scenario().prep_equivs, (same,))
    behavior = cp.uniform_behavior(s)
    states = cp.enumerate_ontic_states(s)
    assert [st.responses for st in states] == [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
    uniform = cp.NcModel(tuple(states), np.full((4, 4), 0.25))
    kinds = lambda model, b=behavior: {v.constraint for v in cp.validate_nc_model(s, b, model).violations}  # noqa: E731
    assert kinds(uniform) == set()

    negative = uniform.mus.copy()
    negative[0] = [-0.25, 0.75, 0.25, 0.25]
    assert "mu-negative" in kinds(cp.NcModel(tuple(states), negative))

    unnormalized = uniform.mus.copy()
    unnormalized[1] *= 1.2
    assert "mu-not-normalized" in kinds(cp.NcModel(tuple(states), unnormalized))

    # Preparation 0 moves weight between states with equal answers on the
    # first two measurements; with the third unmeasured, only the
    # equivalence sees it.
    unbalanced = uniform.mus.copy()
    unbalanced[0] = [0.5, 0.0, 0.25, 0.25]
    mask = np.array([[True] * 4, [True] * 4, [False] * 4])
    two_measured = cp.Scenario(4, 3, 2, s.prep_equivs, (same,), cell_mask=mask)
    report = cp.validate_nc_model(two_measured, cp.uniform_behavior(two_measured), cp.NcModel(tuple(states), unbalanced))
    assert {v.constraint for v in report.violations} == {"model-prep-equivalence-0"}

    # A state that breaks the measurement equivalence, carrying no weight.
    broken = (*states[:3], cp.OnticState((0, 1, 1)))
    weights = uniform.mus.copy()
    weights[:, :3] = 1 / 3
    weights[:, 3] = 0.0
    model = cp.NcModel(broken, weights)
    found = cp.validate_nc_model(s, model.behavior(s), model).violations
    assert [(v.constraint, v.location) for v in found] == [("state-meas-equivalence-0", (0, 1, 1))]

    other = cp.Behavior(np.stack([np.tile([[1.0, 0.0]], (4, 1))] * 3))
    assert kinds(uniform, other) == {"reproduction"}


def test_a_state_violation_reads_its_residual_at_the_tolerance():
    # Half of [0|M1] and half of [0|M2] against half of [1|M2] and half of
    # [0|M3]; the first weight is 1e-7 off 1/2.
    equiv = cp.EquivalenceVector([0.5 + 1e-7, 0, 0.5 - 1e-7, 0, 0, 0], [0, 0, 0, 0.5, 0.5, 0])
    s = cp.Scenario(1, 3, 2, meas_equivs=(equiv,))
    model = cp.NcModel((cp.OnticState((0, 1, 1)), cp.OnticState((0, 0, 0))), np.array([[1.0, 0.0]]))
    violations = cp.validate_nc_model(s, model.behavior(s), model).violations
    assert [(v.constraint, v.location) for v in violations] == [
        ("state-meas-equivalence-0", (0, 1, 1)),
        ("state-meas-equivalence-0", (0, 0, 0)),
    ]
    assert [v.magnitude for v in violations] == pytest.approx([1e-7, 0.5])
    coarse = cp.validate_nc_model(s, model.behavior(s), model, tol=1e-6).violations
    assert [(v.constraint, v.location, v.magnitude) for v in coarse] == [("state-meas-equivalence-0", (0, 0, 0), 0.5)]
