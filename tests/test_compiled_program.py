"""The per-scenario compiled program and its cache (ncmodel.model_program)."""

import sys
import threading

import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.ncmodel import PROGRAM_CACHE, model_program
from ctxpoly.sampling import random_noncontextual_simplest_behavior


@pytest.fixture(autouse=True)
def cold_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


def _simplest():
    return cp.make_simplest_scenario()


def _decide(s, behavior):
    """Verdict and distance in bit-comparable form."""
    verdict = cp.is_noncontextual(s, behavior)
    model = verdict.model
    return (
        verdict.contextual,
        verdict.violated,
        verdict.violation,
        None if model is None else ([st.responses for st in model.ontic_states], model.mus.tobytes()),
        cp.l1_distance(s, behavior),
    )


def test_equal_scenarios_share_one_entry(canonical_behavior):
    first = _simplest()
    cp.is_noncontextual(first, canonical_behavior)
    program = model_program(first)
    again = _simplest()  # built separately, equal content
    assert again is not first
    cp.l1_distance(again, canonical_behavior)
    assert model_program(again) is program
    assert len(PROGRAM_CACHE) == 1


def test_compiled_arrays_are_read_only():
    program = model_program(cp.power_scenario(_simplest(), 2))
    for array in (*program.columns, program.rows, program.balance_rhs, program.cells, program.balance, program.reproduce):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0


def test_equivalence_mutated_in_place_is_recompiled():
    s = _simplest()
    # Deterministic preparations: the first two always give outcome 1.  The
    # table breaks (p1 + p2)/2 ~ (p3 + p4)/2 but keeps (p1 + p3)/2 ~ (p2 + p4)/2.
    q = np.array([1.0, 1.0, 0.0, 0.0])
    behavior = cp.Behavior(np.stack([np.stack([1.0 - q, q], axis=1)] * 2))
    cp.is_noncontextual(s, cp.uniform_behavior(s))
    equiv = s.prep_equivs[0]
    equiv.alpha[:] = [0.5, 0.0, 0.5, 0.0]
    equiv.beta[:] = [0.0, 0.5, 0.0, 0.5]
    result = _decide(s, behavior)
    # The stale rows would demand mu1 + mu2 = mu3 + mu4 and find no model.
    assert result[0] is False
    fresh = cp.Scenario(4, 2, 2, (cp.EquivalenceVector(equiv.alpha.copy(), equiv.beta.copy()),))
    PROGRAM_CACHE.clear()
    assert _decide(fresh, behavior) == result


def test_mask_mutated_in_place_is_recompiled(canonical_behavior):
    s = cp.power_scenario(_simplest(), 2)
    behavior = cp.Behavior(cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(_simplest())).probs)
    assert cp.is_noncontextual(s, behavior).contextual  # block 0 is contextual
    s.cell_mask[:2, :4] = False  # block 0 no longer carries data
    result = _decide(s, behavior)
    assert result[0] is False
    fresh = cp.Scenario(s.n_preps, s.n_meas, s.n_outcomes, s.prep_equivs, cell_mask=s.cell_mask.copy())
    PROGRAM_CACHE.clear()
    assert _decide(fresh, behavior) == result


def test_cached_scenario_still_honours_a_smaller_cap(canonical_behavior):
    s = _simplest()
    cp.is_noncontextual(s, canonical_behavior)
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(cp.CapExceededError, match="4"):
            decide(s, canonical_behavior, cap=3)


def test_invalid_scenario_is_not_compiled(malformed_scenario):
    scenario, behavior = malformed_scenario
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(ValueError, match="^scenario invalid: "):
            decide(scenario, behavior)
    assert len(PROGRAM_CACHE) == 0


def test_cache_holds_at_most_four_programs():
    scenarios = [cp.make_simplest_scenario(n_meas=n) for n in range(1, 8)]
    for s in scenarios:
        cp.is_noncontextual(s, cp.uniform_behavior(s))
        assert len(PROGRAM_CACHE) <= 4
    assert len(PROGRAM_CACHE) == 4
    # The least recently used go first.
    kept = model_program(scenarios[-1])
    cp.is_noncontextual(scenarios[0], cp.uniform_behavior(scenarios[0]))
    assert model_program(scenarios[-1]) is kept
    assert len(PROGRAM_CACHE) == 4


def test_mutating_a_returned_model_changes_nothing():
    s = _simplest()
    behavior = cp.uniform_behavior(s)
    verdict = cp.is_noncontextual(s, behavior)
    expected = verdict.model.mus.copy()
    verdict.model.mus[:] = -1.0
    again = cp.is_noncontextual(s, behavior)
    assert np.array_equal(again.model.mus, expected)
    assert again.model.ontic_states == verdict.model.ontic_states


def test_cold_and_warm_results_are_bit_identical(b_si, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(12)
    power = cp.power_scenario(b_si, 4)
    blocks = [canonical_behavior, cp.uniform_behavior(b_si), cp.uniform_behavior(b_si), canonical_behavior]
    power_behavior = blocks[0]
    for block in blocks[1:]:
        power_behavior = cp.compose_behaviors(power_behavior, block)
    cloning, _ = cp.cloning_scenario()
    cases = [
        (b_si, canonical_behavior),
        (b_si, random_noncontextual_simplest_behavior(rng)),
        (b6_scenario, b6_behavior),
        (b6_scenario, cp.uniform_behavior(b6_scenario)),
        (power, power_behavior),
        (power, cp.uniform_behavior(power)),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (cloning, cp.uniform_behavior(cloning)),
    ]
    for s, behavior in cases:
        PROGRAM_CACHE.clear()
        cold = _decide(s, behavior)
        warm = _decide(s, behavior)
        assert warm == cold


def test_threads_share_the_cache_safely():
    scenarios = [cp.make_simplest_scenario(n_meas=n) for n in range(1, 7)]  # more than the cache holds
    behaviors = [cp.uniform_behavior(s) for s in scenarios]
    expected = [_decide(s, b) for s, b in zip(scenarios, behaviors)]
    errors = []

    def work(offset):
        try:
            for step in range(12):
                idx = (offset + step) % len(scenarios)
                assert _decide(scenarios[idx], behaviors[idx]) == expected[idx]
                assert len(PROGRAM_CACHE) <= 4
        except Exception as exc:  # reported below, with the thread's work
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
