import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.lp import FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, max_violation, solve_lp
from ctxpoly.ncmodel import enumerate_ontic_states, membership_program, model_columns

LP_TOL = cp.LP_TOL


# One HiGHS case each, kept parametrized so that their test ids (ending in
# [False]) stay stable.
@pytest.mark.parametrize("exact", [False])
def test_minimize_with_lower_bound(exact):
    lp = LinearProgram(1, objective=np.array([1.0]))
    lp.add_ineq(np.array([-1.0]), -3.0)  # x >= 3
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert abs(out.x[0] - 3.0) <= LP_TOL
    assert abs(out.objective_value - 3.0) <= LP_TOL


@pytest.mark.parametrize("exact", [False])
def test_contradictory_bounds_infeasible(exact):
    lp = LinearProgram(1)
    lp.add_ineq(np.array([-1.0]), -1.0)  # x >= 1
    lp.add_ineq(np.array([1.0]), 0.0)  # x <= 0
    assert solve_lp(lp).status == INFEASIBLE


@pytest.mark.parametrize("exact", [False])
def test_unbounded_detected(exact):
    lp = LinearProgram(1, objective=np.array([-1.0]))
    assert solve_lp(lp).status == UNBOUNDED


def test_membership_lp_for_uniform_behavior_feasible(b_si):
    # Oracle first: the hand-built uniform model must satisfy the program.
    states = enumerate_ontic_states(b_si)
    lp = membership_program(b_si, cp.uniform_behavior(b_si), model_columns(b_si, states))
    hand_built = np.full(b_si.n_preps * len(states), 0.25)
    assert max_violation(lp, hand_built) <= 1e-12

    out = solve_lp(lp)
    assert out.status == FEASIBLE
    assert max_violation(lp, out.x) <= LP_TOL


def test_returned_point_is_primal_feasible_by_substitution():
    rng = np.random.default_rng(7)
    lp = LinearProgram(5, objective=rng.uniform(-1, 1, size=5))
    for _ in range(3):
        lp.add_ineq(rng.uniform(0, 1, size=5), 2.0)
    lp.add_eq(np.ones(5), 1.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert max_violation(lp, out.x) <= LP_TOL


def test_status_stable_under_inactive_rhs_perturbation():
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_eq(np.array([1.0, 1.0]), 1.0)
    lp.add_ineq(np.array([1.0, 0.0]), 10.0)  # inactive at any optimum
    base = solve_lp(lp)
    assert base.status == OPTIMAL
    for delta in (LP_TOL, -LP_TOL):
        perturbed = LinearProgram(2, objective=np.array([1.0, 1.0]))
        perturbed.add_eq(np.array([1.0, 1.0]), 1.0)
        perturbed.add_ineq(np.array([1.0, 0.0]), 10.0 + delta)
        out = solve_lp(perturbed)
        assert out.status == base.status
        assert abs(out.objective_value - base.objective_value) <= 10 * LP_TOL


def test_deterministic_for_identical_input():
    lp_rows = [(np.array([1.0, 2.0, 0.5]), 4.0), (np.array([0.3, 0.3, 0.3]), 1.0)]

    def build():
        lp = LinearProgram(3, objective=np.array([1.0, -1.0, 0.5]))
        for row, rhs in lp_rows:
            lp.add_ineq(row, rhs)
        lp.add_eq(np.ones(3), 1.5)
        return lp

    first = solve_lp(build())
    second = solve_lp(build())
    assert first.status == second.status
    assert np.array_equal(first.x, second.x)


def test_membership_verdicts_have_lp_free_evidence(b_si, canonical_behavior):
    columns = model_columns(b_si, enumerate_ontic_states(b_si))

    uniform = membership_program(b_si, cp.uniform_behavior(b_si), columns)
    assert solve_lp(uniform).status == FEASIBLE
    hand_built = np.full(len(columns.prep), 0.25)  # each preparation uniform on its 4 states
    assert max_violation(uniform, hand_built) <= 1e-12

    canonical = membership_program(b_si, canonical_behavior, columns)
    assert solve_lp(canonical).status == INFEASIBLE
    ineqs = cp.simplest_scenario_inequalities()
    h7 = cp.evaluate_inequalities(ineqs, canonical_behavior)[ineqs.labels.index("h7")]
    assert h7 > 0
    assert abs(h7 - (np.sqrt(2.0) - 1.0)) <= 1e-12


def test_free_and_upper_bounded_variables():
    # minimize x + y with x free, -2 <= y <= 5, x + y >= 1, x <= 4: optimum 1.
    lp = LinearProgram(
        2,
        objective=np.array([1.0, 1.0]),
        lower_bounds=np.array([-np.inf, -2.0]),
        upper_bounds=np.array([4.0, 5.0]),
    )
    lp.add_ineq(np.array([-1.0, -1.0]), -1.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert abs(out.objective_value - 1.0) <= LP_TOL
    assert max_violation(lp, out.x) <= LP_TOL


def test_dimension_mismatch_raises():
    lp = LinearProgram(2)
    with pytest.raises(cp.LpError):
        lp.add_eq(np.array([1.0]), 0.0)
