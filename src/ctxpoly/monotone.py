"""The l1 contextuality distance.

d(B) is the smallest worst-case outcome-wise l1 deviation between B and any
behavior admitting a noncontextual model:

    d(B) = min over noncontextual B* of max over physical (i, j)
           of sum_k |p(k|i,j) - p*(k|i,j)|.

The inner max linearizes exactly with one scalar, so the whole quantity is a
single LP over the model weights, per-cell slack variables and that scalar.
The model weights and their rows come from the scenario's compiled program,
shared with the membership test (``ncmodel.model_program``), so each
preparation only weighs the support of its preparation-equivalence
component; on a block composite the distance is the largest block distance.
d vanishes exactly on the noncontextual polytope and never increases under
free operations, which is what makes it usable as a monotone.
"""

from __future__ import annotations

import numpy as np

from .lp import LP_TOL, OPTIMAL, LinearProgram, LpNumericalError, solve_lp
from .ncmodel import ENUMERATION_CAP, check_behavior, model_program
from .scenario import Behavior, Scenario

#: Absolute precision at which distances are reported and compared; two
#: digits looser than the LP feasibility tolerance.
DISTANCE_TOL = 1e-7


def l1_distance(
    s: Scenario, behavior: Behavior, tol: float = LP_TOL, cap: int = ENUMERATION_CAP
) -> float:
    """Distance from the behavior to the noncontextual polytope in the
    max-over-cells l1 sense.  Zero iff the behavior is noncontextual.

    Masked (hybrid) cells are excluded from both the deviation and the max.
    Raises ValueError when the behavior is not valid in the scenario.
    """
    check_behavior(s, behavior, tol)
    program = model_program(s, cap)
    balance, reproduce = program.balance, program.reproduce
    n_mu = balance.shape[1]
    n_slack = len(reproduce)  # e[cell, k], one per physical cell and outcome
    n_cells = n_slack // s.n_outcomes
    n_vars = n_mu + n_slack + 1  # the last column is t, the largest cell deviation
    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    lp = LinearProgram(n_vars, objective=objective)
    eq = np.zeros((len(balance), n_vars))
    eq[:, :n_mu] = balance
    lp.add_eq_rows(eq, program.balance_rhs)

    # e >= p - xi.mu  and  e >= xi.mu - p, interleaved per (cell, outcome);
    # then sum_k e[cell, k] <= t for every physical cell.
    ineq = np.zeros((2 * n_slack + n_cells, n_vars))
    rhs = np.zeros(len(ineq))
    slack = n_mu + np.arange(n_slack)
    ineq[0 : 2 * n_slack : 2, :n_mu] = -reproduce
    ineq[1 : 2 * n_slack : 2, :n_mu] = reproduce
    ineq[np.arange(2 * n_slack), np.repeat(slack, 2)] = -1.0
    p = behavior.probs.take(program.cells)
    rhs[: 2 * n_slack] = np.stack([-p, p], axis=1).reshape(-1)
    ineq[2 * n_slack + np.arange(n_slack) // s.n_outcomes, slack] = 1.0
    ineq[2 * n_slack :, -1] = -1.0
    lp.add_ineq_rows(ineq, rhs)

    outcome = solve_lp(lp, tol=tol)
    if outcome.status != OPTIMAL:
        raise LpNumericalError(f"l1-distance LP returned {outcome.status}")
    return max(0.0, float(outcome.objective_value))
