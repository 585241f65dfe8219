import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxpoly as cp
from ctxpoly.sampling import random_simplest_behavior

TOL = 1e-9


def test_simplest_scenario_counts(b_si):
    assert (b_si.n_preps, b_si.n_meas, b_si.n_outcomes) == (4, 2, 2)
    assert len(b_si.prep_equivs) == 1
    assert len(b_si.meas_equivs) == 0


def test_simplest_scenario_equivalence_weights(b_si):
    equiv = b_si.prep_equivs[0]
    assert np.array_equal(equiv.alpha, [0.5, 0.5, 0.0, 0.0])
    assert np.array_equal(equiv.beta, [0.0, 0.0, 0.5, 0.5])
    assert equiv.nontrivial()


def test_simplest_scenario_validates(b_si):
    assert cp.validate_scenario(b_si).ok


def test_unnormalized_equivalence_reported():
    bad = cp.Scenario(
        4, 2, 2,
        prep_equivs=(cp.EquivalenceVector([0.5, 0.4, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]),),
    )
    report = cp.validate_scenario(bad)
    assert not report.ok
    assert any(v.constraint == "alpha-not-normalized" for v in report.violations)


def test_trivial_equivalence_rejected():
    bad = cp.Scenario(
        4, 2, 2,
        prep_equivs=(cp.EquivalenceVector([0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]),),
    )
    report = cp.validate_scenario(bad)
    assert any(v.constraint == "trivial-equivalence" for v in report.violations)


def test_wrong_length_equivalence_reported():
    bad = cp.Scenario(4, 2, 2, prep_equivs=(cp.EquivalenceVector([1.0, 0.0], [0.0, 1.0]),))
    report = cp.validate_scenario(bad)
    assert any(v.constraint == "equivalence-length" for v in report.violations)


def test_uniform_behavior_valid(b_si):
    assert cp.validate_behavior(b_si, cp.uniform_behavior(b_si), TOL).ok


def test_quantum_behavior_valid(b_si, canonical_behavior):
    assert cp.validate_behavior(b_si, canonical_behavior, TOL).ok


def test_broken_prep_equivalence_detected(b_si):
    probs = np.full((2, 4, 2), 0.5)
    probs[0, 0] = [0.3, 0.7]  # p(1|1,1)+p(1|1,2) != p(1|1,3)+p(1|1,4)
    report = cp.validate_behavior(b_si, cp.Behavior(probs), TOL)
    assert not report.ok
    assert any(v.constraint == "prep-equivalence-0" for v in report.violations)


def test_meas_equivalence_checked():
    equiv = cp.EquivalenceVector([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])  # [0|M1] ~ [0|M2]
    s = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    good = np.full((2, 2, 2), 0.5)
    assert cp.validate_behavior(s, cp.Behavior(good), TOL).ok
    bad = good.copy()
    bad[0, 0] = [0.9, 0.1]
    report = cp.validate_behavior(s, cp.Behavior(bad), TOL)
    assert any(v.constraint == "meas-equivalence-0" for v in report.violations)


def test_shape_mismatch_raises(b_si):
    with pytest.raises(cp.ShapeMismatchError):
        cp.validate_behavior(b_si, cp.Behavior(np.full((2, 3, 2), 0.5)))


def test_out_of_range_probability_reported(b_si):
    probs = np.full((2, 4, 2), 0.5)
    probs[0, 0] = [1.2, -0.2]
    report = cp.validate_behavior(b_si, cp.Behavior(probs))
    assert any(v.constraint == "prob-out-of-range" for v in report.violations)


def test_report_ok_iff_no_violations():
    assert cp.ValidationReport().ok
    assert not cp.ValidationReport((cp.Violation("x", 1.0),)).ok


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_valid_behaviors_validate(seed):
    rng = np.random.default_rng(seed)
    behavior = random_simplest_behavior(rng)
    assert cp.validate_behavior(cp.make_simplest_scenario(), behavior, TOL).ok


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
)
def test_equivalence_nontriviality_matches_definition(alpha, beta):
    equiv = cp.EquivalenceVector(np.array(alpha), np.array(beta))
    assert equiv.nontrivial(0.0) == bool(np.any(np.asarray(alpha) != np.asarray(beta)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_reported(bad):
    probs = np.full((2, 4, 2), 0.5)
    probs[1, 3, 0] = bad
    report = cp.validate_behavior(cp.make_simplest_scenario(), cp.Behavior(probs))
    assert [(v.constraint, v.magnitude, v.location) for v in report.violations] == [
        ("non-finite", 1.0, (1, 3, 0))
    ]


def _validate_behavior_loop(s, behavior, tol):
    """validate_behavior with one product per equivalence, the reference
    for its stacked products."""
    p = behavior.probs
    expected = (s.n_meas, s.n_preps, s.n_outcomes)
    if p.shape != expected:
        raise cp.ShapeMismatchError(f"behavior tensor has shape {p.shape}, scenario wants {expected}")
    counts = (("preps", s.n_preps), ("meas", s.n_meas), ("outcomes", s.n_outcomes))
    if any(count < 1 for _, count in counts):
        return cp.ValidationReport(tuple(cp.Violation("nonpositive-count", 1.0, (name,)) for name, count in counts if count < 1))
    finite = np.isfinite(p)
    if not finite.all():
        where = np.unravel_index(int(np.argmin(finite)), p.shape)
        count = float(p.size - np.count_nonzero(finite))
        return cp.ValidationReport((cp.Violation("non-finite", count, tuple(int(x) for x in where)),))
    out = []
    low, high = float(p.min()), float(p.max())
    if low < -tol or high > 1.0 + tol:
        where = np.unravel_index(int(np.argmin(p)) if -low > high - 1.0 else int(np.argmax(p)), p.shape)
        out.append(cp.Violation("prob-out-of-range", max(-low, high - 1.0), tuple(int(x) for x in where)))
    gap = np.abs(p.sum(axis=2) - 1.0)
    if gap.max() > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        out.append(cp.Violation("outcome-sum", float(gap.max()), (int(i), int(j))))
    for a, equiv in enumerate(s.prep_equivs):
        residual = np.tensordot(p, equiv.difference, axes=([1], [0]))
        worst = float(np.abs(residual).max())
        if worst > tol:
            i, k = np.unravel_index(int(np.argmax(np.abs(residual))), residual.shape)
            out.append(cp.Violation(f"prep-equivalence-{a}", worst, (int(i), int(k))))
    events = p.transpose(1, 0, 2).reshape(s.n_preps, s.n_events)
    for b, equiv in enumerate(s.meas_equivs):
        residual = events @ equiv.difference
        worst = float(np.abs(residual).max())
        if worst > tol:
            out.append(cp.Violation(f"meas-equivalence-{b}", worst, (int(np.argmax(np.abs(residual))),)))
    mask = behavior.cell_mask
    if mask is not None and s.cell_mask is not None and not np.array_equal(mask, s.cell_mask):
        out.append(cp.Violation("mask-disagrees-with-scenario", 0.0, ()))
    return cp.ValidationReport(tuple(out))


def _report_or_error(validate, s, behavior, tol):
    try:
        return validate(s, behavior, tol)
    except ValueError as exc:  # ShapeMismatchError included
        return type(exc)


def _composite_with_both_kinds():
    """The simplest scenario composed with a three-outcome scenario that has
    two measurement equivalences and a preparation equivalence, then with
    itself: four preparation and four measurement equivalences."""
    meas = (
        cp.EquivalenceVector([0.5, 0.5, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5, 0.0]),
        cp.EquivalenceVector([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
    )
    prep = (cp.EquivalenceVector([0.5, 0.5, 0.0], [0.0, 0.0, 1.0]),)
    block = cp.compose_scenarios(cp.make_simplest_scenario(), cp.Scenario(3, 2, 3, prep, meas))
    return cp.compose_scenarios(block, block)


def test_stacked_equivalence_checks_match_the_loop(malformed_scenario):
    rng = np.random.default_rng(17)
    composite = _composite_with_both_kinds()
    assert (len(composite.prep_equivs), len(composite.meas_equivs)) == (4, 4)
    shape = (composite.n_meas, composite.n_preps, composite.n_outcomes)
    uniform = cp.uniform_behavior(composite)
    cases = [(composite, uniform), (composite, cp.Behavior(uniform.probs, cell_mask=np.ones(shape[:2], dtype=bool)))]
    for scale in (1e-12, 1e-6, 0.3, 1.0):  # from within every tolerance to far outside it
        probs = uniform.probs + scale * rng.uniform(-1.0, 1.0, shape)
        cases.append((composite, cp.Behavior(probs)))
        cases.append((composite, cp.Behavior(probs / probs.sum(axis=2, keepdims=True))))
    non_finite = uniform.probs.copy()
    non_finite[3, 2, 1] = np.nan
    cases.append((composite, cp.Behavior(non_finite)))
    cases.append((cp.cloning_scenario()[0], cp.Behavior(rng.dirichlet(np.ones(2), size=(6, 12)))))
    cases.append(malformed_scenario)
    seen = set()
    for s, behavior in cases:
        for tol in (1e-9, 1e-3):
            report = _report_or_error(cp.validate_behavior, s, behavior, tol)
            assert report == _report_or_error(_validate_behavior_loop, s, behavior, tol)
            if isinstance(report, cp.ValidationReport):
                seen.update(v.constraint.rsplit("-", 1)[0] for v in report.violations)
    assert {"prep-equivalence", "meas-equivalence"} <= seen


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: cp.EquivalenceVector([[0.5, 0.5]], [[0.5, 0.5]]), cp.ShapeMismatchError, "equivalence weights must be 1-D vectors"),
        (lambda: cp.EquivalenceVector([0.5, 0.5], [1.0]), cp.ShapeMismatchError, "alpha has length 2 but beta has length 1"),
        (lambda: cp.Behavior(np.full((2, 2), 0.5)), cp.ShapeMismatchError, "behavior tensor must have shape (meas, preps, outcomes)"),
        (lambda: cp.Behavior(np.full((2, 4, 2), 0.5), cell_mask=np.ones((4, 2))), cp.ShapeMismatchError, "cell mask must have shape (meas, preps)"),
        (lambda: cp.make_simplest_scenario(n_meas=0), ValueError, "need at least one measurement"),
    ],
)
def test_malformed_values_are_refused(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        build()


def test_weights_out_of_range_are_reported_with_their_equivalence():
    # Each side still sums to 1.
    prep = cp.EquivalenceVector([1.5, -0.5, 0, 0], [0, 0, 0.5, 0.5])
    meas = cp.EquivalenceVector([0.5, 0.5, 0, 0], [0, 0, 1.25, -0.25])
    report = cp.validate_scenario(cp.Scenario(4, 2, 2, (prep,), (meas,)))
    assert [(v.constraint, v.magnitude, v.location) for v in report.violations] == [
        ("alpha-out-of-range", 0.5, ("prep", 0)),
        ("beta-out-of-range", 0.25, ("meas", 0)),
    ]
