"""The l1 contextuality distance.

d(B) is the smallest worst-case outcome-wise l1 deviation between B and any
behavior admitting a noncontextual model:

    d(B) = min over noncontextual B* of max over physical (i, j)
           of sum_k |p(k|i,j) - p*(k|i,j)|.

The inner max linearizes exactly with one scalar, so the whole quantity is a
single LP over the model weights, per-cell slack variables and that scalar.
The whole program, rows, slack and scalar columns included, comes compiled
from the scenario's program, shared with the membership test
(``ncmodel.model_program``, laid out by ``ncmodel.distance_rows``); a call
supplies only the right-hand sides.  Each preparation only weighs the
support of its preparation-equivalence component; on a block composite the
distance is the largest block distance.
d vanishes exactly on the noncontextual polytope and never increases under
free operations, which is what makes it usable as a monotone.
"""

from __future__ import annotations

import numpy as np

from .lp import LP_TOL, OPTIMAL, LinearProgram, LpNumericalError, solve_lp
from .ncmodel import ENUMERATION_CAP, check_behavior
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
    program = check_behavior(s, behavior, tol, cap)
    lp = LinearProgram(program.distance.n_cols, objective=program.distance_objective)
    p = behavior.probs.take(program.cells)
    n_cells = len(p) // s.n_outcomes
    lp.set_compiled_rows(
        program.distance, np.concatenate((np.stack([-p, p], axis=1).reshape(-1), np.zeros(n_cells), program.balance_rhs))
    )
    outcome = solve_lp(lp, tol=tol)
    if outcome.status != OPTIMAL:
        raise LpNumericalError(f"l1-distance LP returned {outcome.status}")
    return max(0.0, float(outcome.objective_value))
