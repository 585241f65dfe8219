import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

import ctxpoly as cp
from ctxpoly import freeops, lp as lp_module, monotone, ncmodel, simulability
from ctxpoly.lp import FEASIBLE, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, compile_lp, compile_rows, max_violation, solve_lp
from ctxpoly.ncmodel import PROGRAM_CACHE, enumerate_ontic_states, membership_program, model_program
from ctxpoly.sampling import perturbed_behavior, random_simplest_behavior

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
    # Each preparation lies on 2 of the 4 pair rays, each with weight 1/8 on
    # all 4 states: normalization 2 * 4 / 8 = 1, each outcome 2 * 2 / 8.
    states = enumerate_ontic_states(b_si)
    program = model_program(b_si)
    lp = membership_program(program, cp.uniform_behavior(b_si))
    assert len(program.columns.state) == 4 * len(states)
    hand_built = np.full(4 * len(states), 1 / 8)
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
    hand_built = np.full(len(columns.state), 1 / 8)  # each preparation uniform on its 4 states
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
    feas_tol = max(tol, 1e-10)
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
    """Every LP the decision procedures hand to solve_lp on both scenarios.

    The programs are compiled afresh, so that no membership outcome kept
    from an earlier decision replaces a solve."""
    PROGRAM_CACHE.clear()
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
    # The contextual canonical behavior reaches its distance LP.
    program = model_program(b_si)
    assert seen[0][0].compiled_lp()[0] is program.membership
    assert seen[1][0].compiled_lp()[0] is program.distance
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
    # Two membership LPs of one program in a row, as deciding two behaviors
    # of one scenario (or ctx vertices) solves them.
    program = model_program(b_si)
    lps += [(membership_program(program, b), cp.LP_TOL) for b in (canonical_behavior, cp.uniform_behavior(b_si))]
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


@pytest.mark.parametrize("option", [("presolv", "off"), ("presolve", 0)])
def test_an_option_highs_refuses_fails_when_the_instance_is_made(monkeypatch, option):
    # A misspelled name, and a known one with a value of the wrong type:
    # HiGHS refuses both and keeps its default.
    monkeypatch.setattr(lp_module, "_OPTIONS", lp_module._OPTIONS + (option,))
    monkeypatch.setattr(lp_module, "_THREAD", threading.local())
    for _ in range(2):  # no instance is kept after a refusal
        with pytest.raises(ImportError, match=rf"^ctxpoly needs scipy >= 1\.15: .*{option[0]}"):
            solve_lp(LinearProgram(1, objective=np.array([1.0])))
    assert getattr(lp_module._THREAD, "highs", None) is None


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


class _AlteredHighs:
    """A thread's HiGHS instance that reports one number of its solution
    altered: ``("col", i, v)`` sets x[i], ``("row", i, v)`` the activity of
    row i (inequalities first) and ``("objective", v)`` the objective."""

    def __init__(self, highs, alter):
        self._highs = highs
        self._alter = alter

    def getSolution(self):
        solution = self._highs.getSolution()
        values = {"col": list(solution.col_value), "row": list(solution.row_value)}
        if self._alter[0] in values:
            kind, index, value = self._alter
            values[kind][index] = value
        return SimpleNamespace(col_value=values["col"], row_value=values["row"])

    def getObjectiveValue(self):
        if self._alter[0] == "objective":
            return self._alter[1]
        return self._highs.getObjectiveValue()

    def __getattr__(self, name):
        return getattr(self._highs, name)


@pytest.mark.parametrize(
    "alter, refused",
    [
        (("col", 0, np.nan), True),
        (("objective", np.nan), True),
        (("row", 0, np.nan), True),  # the inequality row
        (("row", 1, np.nan), True),  # the equality row
        (("col", 0, -1e-3), True),  # below its lower bound, 0
        (("col", 1, 5.0 + 1e-3), True),  # above its upper bound, 5
        (("row", 0, -1.0 + 1e-3), True),  # breaks -x0 - x1 <= -1
        (("row", 1, 1e-3), True),  # breaks x0 - x1 == 0
        (("row", 1, -1e-3), True),
        (("col", 1, 5.0 + 1e-5), False),  # within result_check_bound(LP_TOL)
        (("row", 0, -1.0 + 1e-5), False),
        (("row", 1, -1e-5), False),
        (("col", 0, 0.5), False),  # the optimum itself
    ],
)
def test_result_check_refuses_nan_and_breaches(monkeypatch, alter, refused):
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]), upper_bounds=np.array([5.0, 5.0]))
    lp.add_ineq(np.array([-1.0, -1.0]), -1.0)
    lp.add_eq(np.array([1.0, -1.0]), 0.0)
    assert np.array_equal(solve_lp(lp).x, [0.5, 0.5])
    altered = _AlteredHighs(lp_module._thread_highs(), alter)
    monkeypatch.setattr(lp_module, "_thread_highs", lambda: altered)
    if refused:
        with pytest.raises(cp.LpNumericalError, match="breaks the constraints"):
            solve_lp(lp)
    else:
        assert solve_lp(lp).status == OPTIMAL


def test_a_status_highs_cannot_certify_raises(backend_fails):
    # A solve stopped at its iteration limit proves neither a point nor
    # infeasibility.
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_ineq(np.array([-1.0, -1.0]), -1.0)
    with pytest.raises(cp.LpNumericalError, match="^LP backend failed to certify a status: Iteration limit reached$"):
        solve_lp(lp)


def test_result_check_scales_with_a_loose_tolerance(monkeypatch, b_si):
    # A behavior valid at a loose tolerance is judged at that tolerance, and
    # HiGHS then returns points that break rows by up to it: the result
    # check accepts ten times the tolerance, so these are decided, not
    # refused as numerical failures.
    rng = np.random.default_rng(0)
    for tol in (1e-3, 1e-2):
        for _ in range(30):
            probs = random_simplest_behavior(rng).probs
            shift = rng.uniform(-0.3, 0.3, size=probs.shape[:2]) * tol
            probs = np.clip(probs + np.stack([shift, -shift], axis=2), 0.0, 1.0)
            behavior = cp.Behavior(probs / probs.sum(axis=2, keepdims=True))
            contextual = cp.is_noncontextual(b_si, behavior, tol=tol).contextual
            assert (cp.l1_distance(b_si, behavior, tol=tol) > 0.0) == contextual
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]), upper_bounds=np.array([5.0, 5.0]))
    lp.add_ineq(np.array([-1.0, -1.0]), -1.0)
    lp.add_eq(np.array([1.0, -1.0]), 0.0)
    highs = lp_module._thread_highs()
    for breach, refused in ((5e-3, False), (2e-2, True)):
        monkeypatch.setattr(lp_module, "_thread_highs", lambda: _AlteredHighs(highs, ("row", 1, breach)))
        if refused:
            with pytest.raises(cp.LpNumericalError, match="breaks the constraints"):
                solve_lp(lp, 1e-3)
        else:
            assert solve_lp(lp, 1e-3).status == OPTIMAL


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
    model = compile_lp(rows, np.array([-1.0, 0.0]))
    lp = LinearProgram.from_compiled(model, np.array([0.5, 1.0]))  # x0 <= 0.5, x0 + x1 == 1
    out = solve_lp(lp)
    assert out.status == OPTIMAL and out.objective_value == -0.5
    assert [(row.tolist(), rhs) for row, rhs in lp.ineq_constraints + lp.eq_constraints] == [([1.0, 0.0], 0.5), ([1.0, 1.0], 1.0)]
    with pytest.raises(cp.LpError):
        lp.add_eq(np.ones(2), 1.0)
    with pytest.raises(cp.LpError):
        lp.add_ineq(np.ones(2), 1.0)
    for rhs in ([0.5], [0.5, 1.0, 2.0], [[0.5, 1.0]]):
        with pytest.raises(cp.LpError):
            LinearProgram.from_compiled(model, np.array(rhs))
    with pytest.raises(ValueError, match="finite"):
        compile_rows(np.array([[np.inf, 0.0]]), 1)
    # HiGHS's copy is the only one, and it hands out copies: writing into
    # them changes nothing.
    for name in ("start_", "index_", "value_"):
        getattr(rows.highs, name)[0] = -1
    rows.arrays()[2][0] = -1.0
    assert [array.tolist() for array in rows.arrays()] == [[0, 2, 3], [0, 1, 1], [1.0, 1.0, 1.0]]


def test_solve_lp_compiles_nothing_for_a_library_lp(monkeypatch, b6_scenario, b6_behavior):
    # Every library LP is a model its caller compiled plus right-hand sides
    # (LinearProgram.from_compiled), so LinearProgram.compiled_lp, the only
    # caller of this module's compile_lp, never runs it.
    stochastic = cp.FreeOperation(
        0.95 * np.eye(4) + 0.05 * np.eye(4)[:, [1, 0, 3, 2]],  # keeps both sides of the equivalence
        0.9 * np.eye(6)[:, :3] + 0.1 * np.eye(6)[:, 3:],
        np.broadcast_to(np.array([[0.97, 0.02], [0.03, 0.98]]), (6, 2, 2)).copy(),
    )

    def resource_round(weight):
        measured = cp.Behavior(weight * b6_behavior.probs + (1.0 - weight) * cp.uniform_behavior(b6_scenario).probs)
        source = cp.secondary_procedures(b6_scenario, measured).behavior
        image_scenario, image = cp.apply_free_operation(stochastic, b6_scenario, source)  # solves no LP
        for s, behavior in ((b6_scenario, source), (image_scenario, image)):
            cp.is_noncontextual(s, behavior)
            cp.l1_distance(s, behavior)
        p = source.probs
        assert cp.find_simulation(source, cp.Behavior(0.5 * p[:1, :, ::-1] + 0.5 * p[1:2])) is not None

    resource_round(1.0)  # the programs of both scenarios are compiled and cached
    compiled, solved = [], []
    compile_lp_of_lp = lp_module.compile_lp
    monkeypatch.setattr(lp_module, "compile_lp", lambda *args: compiled.append(args) or compile_lp_of_lp(*args))
    for module in (ncmodel, monotone, freeops, simulability):
        monkeypatch.setattr(module, "solve_lp", lambda lp, tol, name=module.__name__: solved.append(name) or solve_lp(lp, tol))
    resource_round(0.95)  # another behavior, so no membership outcome is reused
    assert sorted(set(solved)) == ["ctxpoly.freeops", "ctxpoly.monotone", "ctxpoly.ncmodel", "ctxpoly.simulability"]
    assert solved.count("ctxpoly.freeops") == 1  # secondary procedures; the transport solves no LP
    assert compiled == []
