import threading

import numpy as np
import pytest
from scipy.optimize import linprog

import ctxpoly as cp
from ctxpoly import freeops, lp as lp_module, monotone, ncmodel, simulability
from ctxpoly.lp import FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, compile_rows, max_violation, solve_lp
from ctxpoly.ncmodel import enumerate_ontic_states, membership_program, model_program
from ctxpoly.sampling import perturbed_behavior

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
    lp = membership_program(model_program(b_si), cp.uniform_behavior(b_si))
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
    program = model_program(b_si)
    columns = program.columns

    uniform = membership_program(program, cp.uniform_behavior(b_si))
    assert solve_lp(uniform).status == FEASIBLE
    hand_built = np.full(len(columns.prep), 0.25)  # each preparation uniform on its 4 states
    assert max_violation(uniform, hand_built) <= 1e-12

    canonical = membership_program(program, canonical_behavior)
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


def _lp_with_row(row, rhs, **kwargs):
    lp = LinearProgram(2, **kwargs)
    lp.add_ineq(np.asarray(row, dtype=float), rhs)
    return lp


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: _lp_with_row([np.nan, 1.0], 1.0), ValueError),
        (lambda: _lp_with_row([1.0, 1.0], np.inf), ValueError),
        (lambda: LinearProgram(2, objective=np.array([np.nan, 1.0])), ValueError),
        (lambda: LinearProgram(0), ValueError),
        (lambda: LinearProgram(2, lower_bounds=np.array([np.inf, 0.0])), INFEASIBLE),
        (lambda: LinearProgram(2, lower_bounds=np.array([1.0, 0.0]), upper_bounds=np.array([0.0, 1.0])), INFEASIBLE),
    ],
    ids=["nan-row", "inf-rhs", "nan-objective", "no-variables", "inf-lower-bound", "crossed-bounds"],
)
def test_bad_inputs_raise_or_are_infeasible(build, expected):
    # Non-finite data must never reach HiGHS, which would answer "feasible"
    # for a NaN row and "optimal" with value NaN for a NaN objective.
    if expected is ValueError:
        with pytest.raises(ValueError):
            solve_lp(build())
    else:
        assert solve_lp(build()).status == expected


def _linprog_reference(lp, tol):
    """The same LP through scipy's linprog wrapper, with the options solve_lp uses."""
    feas_tol = max(min(tol, 1e-8), 1e-10)
    rows = {}
    for kind, constraints in (("eq", lp.eq_constraints), ("ub", lp.ineq_constraints)):
        if constraints:
            rows[f"A_{kind}"] = np.array([row for row, _ in constraints])
            rows[f"b_{kind}"] = np.array([rhs for _, rhs in constraints])
    objective = lp.objective if lp.objective is not None else np.zeros(lp.n_vars)
    result = linprog(
        objective,
        bounds=list(zip(lp.lower_bounds, lp.upper_bounds)),
        method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": feas_tol, "dual_feasibility_tolerance": feas_tol},
        **rows,
    )
    status = {0: OPTIMAL if lp.objective is not None else FEASIBLE, 2: INFEASIBLE, 3: UNBOUNDED}[result.status]
    if result.status != 0:
        return status, None, None
    return status, result.x, float(result.fun) if lp.objective is not None else None


def _decision_lps(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior):
    """Every LP the decision procedures hand to solve_lp on both scenarios."""
    seen = []

    def record(lp, tol=cp.LP_TOL):
        seen.append((lp, tol))
        return solve_lp(lp, tol)

    for module in (ncmodel, monotone, freeops, simulability):
        monkeypatch.setattr(module, "solve_lp", record)
    noisy = perturbed_behavior(canonical_behavior, np.random.default_rng(3), 0.01)
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    for s, behavior in ((b_si, canonical_behavior), (b_si, cp.uniform_behavior(b_si)), (b6_scenario, b6_behavior)):
        cp.is_noncontextual(s, behavior)
        cp.l1_distance(s, behavior)
        cp.secondary_procedures(s, behavior)
        eye = np.broadcast_to(np.eye(2), (s.n_meas, 2, 2)).copy()
        cp.transport_equivalences(cp.FreeOperation(mix, np.eye(s.n_meas), eye), s)  # _min_l2_mixture
    cp.secondary_procedures(b_si, noisy)
    cp.find_simulation(b6_behavior, canonical_behavior)
    cp.find_simulation(canonical_behavior, noisy)
    return seen


def test_solve_lp_matches_linprog_bit_for_bit(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior):
    lps = _decision_lps(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior)
    free = LinearProgram(
        2,
        objective=np.array([1.0, 1.0]),
        lower_bounds=np.array([-np.inf, -2.0]),
        upper_bounds=np.array([4.0, 5.0]),
    )
    free.add_ineq(np.array([-1.0, -1.0]), -1.0)
    empty_row = LinearProgram(2, objective=np.array([1.0, 2.0]))
    empty_row.add_eq(np.zeros(2), 1.0)
    lps += [
        (free, cp.LP_TOL),
        (LinearProgram(1, objective=np.array([-1.0])), cp.LP_TOL),  # unbounded
        (LinearProgram(2, objective=np.array([1.0, 2.0])), cp.LP_TOL),  # no rows
        (empty_row, cp.LP_TOL),
    ]
    statuses = set()
    for lp, tol in lps:
        out = solve_lp(lp, tol)
        status, x, value = _linprog_reference(lp, tol)
        assert out.status == status
        assert (out.x is None and x is None) or np.array_equal(out.x, x)
        assert out.objective_value == value
        statuses.add(status)
    assert statuses == {OPTIMAL, FEASIBLE, INFEASIBLE, UNBOUNDED}


def _solve_on_fresh_instance(lp, tol):
    """solve_lp on a HiGHS instance created for this one solve."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_THREAD", threading.local())
        out = solve_lp(lp, tol)
        fresh = lp_module._thread_highs()
    assert fresh is not lp_module._thread_highs()
    return out


def _assert_bit_identical(out, reference):
    assert out.status == reference.status
    assert (out.x is None) == (reference.x is None)
    if out.x is not None:
        assert out.x.dtype == reference.x.dtype and out.x.tobytes() == reference.x.tobytes()
    assert out.objective_value == reference.objective_value


def test_reused_instance_carries_nothing_between_solves(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior):
    lps = _decision_lps(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior)
    # Forward, reversed, then forward at another tolerance: the LP at each
    # turn is solved twice in a row, and the decision procedures solve other
    # LPs of one shape back to back.
    order = lps + lps[::-1] + [(lp, 1e-10) for lp, _ in lps]
    shapes = [(lp.n_vars, lp.compiled_rows()[0].n_rows) for lp, _ in order]
    assert any(shapes[i] == shapes[i + 1] and order[i][0] is not order[i + 1][0] for i in range(len(order) - 1))
    assert lp_module._thread_highs() is lp_module._thread_highs()
    for lp, tol in order:
        _assert_bit_identical(solve_lp(lp, tol), _solve_on_fresh_instance(lp, tol))

    feasible = LinearProgram(2, objective=np.array([1.0, 2.0]))
    feasible.add_ineq(np.array([-1.0, -1.0]), -1.0)
    infeasible = LinearProgram(1)
    infeasible.add_ineq(np.array([-1.0]), -1.0)
    infeasible.add_ineq(np.array([1.0]), 0.0)
    pass_model_error = LinearProgram(2, lower_bounds=np.array([np.inf, 0.0]))
    for before in (infeasible, pass_model_error):
        assert solve_lp(before).status == INFEASIBLE
        if before is pass_model_error:  # HiGHS refused the model, so it never ran
            assert lp_module._thread_highs().getModelStatus() == lp_module._highs.HighsModelStatus.kNotset
        for lp, tol in ((feasible, cp.LP_TOL), lps[-1]):
            _assert_bit_identical(solve_lp(lp, tol), _solve_on_fresh_instance(lp, tol))


def test_threads_solve_on_their_own_instances(b_si):
    instances = {}

    def solve(name):
        solve_lp(membership_program(model_program(b_si), cp.uniform_behavior(b_si)))
        instances[name] = lp_module._thread_highs()

    threads = [threading.Thread(target=solve, args=(name,)) for name in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    solve("main")
    assert len({id(instance) for instance in instances.values()}) == 4


def _max_violation_loop(lp, x):
    """max_violation as a Python loop over single rows, the reference."""
    worst = 0.0
    for row, rhs in lp.eq_constraints:
        worst = max(worst, abs(float(row @ x) - rhs))
    for row, rhs in lp.ineq_constraints:
        worst = max(worst, float(row @ x) - rhs)
    worst = max(worst, float(np.max(lp.lower_bounds - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.upper_bounds, initial=0.0)))
    return worst


def test_max_violation_matches_the_row_loop(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(9)
    lps = _decision_lps(monkeypatch, b_si, canonical_behavior, b6_scenario, b6_behavior)
    for lp, tol in lps:
        out = solve_lp(lp, tol)
        for x in [rng.uniform(-1.0, 1.0, lp.n_vars)] + ([] if out.x is None else [out.x]):
            rows = [row for row, _ in lp.eq_constraints + lp.ineq_constraints]
            rhs = [value for _, value in lp.eq_constraints + lp.ineq_constraints]
            # A matrix product may sum in another order than a single dot
            # product: allow the rounding bound of an n-term dot product.
            scale = float(np.max(np.abs(rows) @ np.abs(x) + np.abs(rhs), initial=0.0))
            assert abs(max_violation(lp, x) - _max_violation_loop(lp, x)) <= lp.n_vars * np.finfo(float).eps * scale


def test_compiled_rows_are_all_of_a_programs_rows():
    rows = compile_rows(np.array([[1.0, 0.0], [1.0, 1.0]]), 1)
    lp = LinearProgram(2, objective=np.array([-1.0, 0.0]))
    lp.set_compiled_rows(rows, np.array([0.5, 1.0]))  # x0 <= 0.5, x0 + x1 == 1
    out = solve_lp(lp)
    assert out.status == OPTIMAL and out.objective_value == -0.5
    assert [(row.tolist(), rhs) for row, rhs in lp.ineq_constraints + lp.eq_constraints] == [([1.0, 0.0], 0.5), ([1.0, 1.0], 1.0)]
    with pytest.raises(cp.LpError):
        lp.add_eq(np.ones(2), 1.0)
    with pytest.raises(cp.LpError):
        lp.set_compiled_rows(rows, np.array([0.5, 1.0]))
    blocks = LinearProgram(2)
    blocks.add_eq(np.ones(2), 1.0)
    with pytest.raises(cp.LpError):
        blocks.set_compiled_rows(rows, np.array([0.5, 1.0]))
    for n_vars, rhs in ((3, [0.5, 1.0]), (2, [0.5])):
        with pytest.raises(cp.LpError):
            LinearProgram(n_vars).set_compiled_rows(rows, np.array(rhs))
    with pytest.raises(ValueError, match="finite"):
        compile_rows(np.array([[np.inf, 0.0]]), 1)
    # HiGHS's copy is the only one, and it hands out copies: writing into
    # them changes nothing.
    for name in ("start_", "index_", "value_"):
        getattr(rows.highs, name)[0] = -1
    rows.arrays()[2][0] = -1.0
    assert [array.tolist() for array in rows.arrays()] == [[0, 2, 3], [0, 1, 1], [1.0, 1.0, 1.0]]
