import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.lp import FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, max_violation, solve_lp
from ctxpoly.ncmodel import enumerate_ontic_states, membership_program, model_columns

LP_TOL = cp.LP_TOL


@pytest.mark.parametrize("exact", [False, True])
def test_minimize_with_lower_bound(exact):
    lp = LinearProgram(1, objective=np.array([1.0]))
    lp.add_ineq(np.array([-1.0]), -3.0)  # x >= 3
    out = solve_lp(lp, exact=exact)
    assert out.status == OPTIMAL
    assert abs(out.x[0] - 3.0) <= LP_TOL
    assert abs(out.objective_value - 3.0) <= LP_TOL


@pytest.mark.parametrize("exact", [False, True])
def test_contradictory_bounds_infeasible(exact):
    lp = LinearProgram(1)
    lp.add_ineq(np.array([-1.0]), -1.0)  # x >= 1
    lp.add_ineq(np.array([1.0]), 0.0)  # x <= 0
    assert solve_lp(lp, exact=exact).status == INFEASIBLE


@pytest.mark.parametrize("exact", [False, True])
def test_unbounded_detected(exact):
    lp = LinearProgram(1, objective=np.array([-1.0]))
    assert solve_lp(lp, exact=exact).status == UNBOUNDED


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


def test_exact_mode_agrees_with_backend_on_membership(b_si, canonical_behavior):
    states = enumerate_ontic_states(b_si)
    for behavior, expected in (
        (cp.uniform_behavior(b_si), FEASIBLE),
        (canonical_behavior, INFEASIBLE),
    ):
        lp = membership_program(b_si, behavior, model_columns(b_si, states))
        assert solve_lp(lp).status == expected
        assert solve_lp(lp, exact=True).status == expected


def test_exact_mode_handles_free_and_upper_bounded_variables():
    # minimize x + y with x free, -2 <= y <= 5, x + y >= 1, x <= 4
    lp = LinearProgram(
        2,
        objective=np.array([1.0, 1.0]),
        lower_bounds=np.array([-np.inf, -2.0]),
        upper_bounds=np.array([4.0, 5.0]),
    )
    lp.add_ineq(np.array([-1.0, -1.0]), -1.0)
    backend = solve_lp(lp)
    exact = solve_lp(lp, exact=True)
    assert backend.status == exact.status == OPTIMAL
    assert abs(backend.objective_value - exact.objective_value) <= 1e-9


def test_dimension_mismatch_raises():
    lp = LinearProgram(2)
    with pytest.raises(cp.LpError):
        lp.add_eq(np.array([1.0]), 0.0)
