"""The l1 contextuality distance.

d(B) is the smallest worst-case outcome-wise l1 deviation between B and any
behavior admitting a noncontextual model:

    d(B) = min over noncontextual B* of max over physical (i, j)
           of sum_k |p(k|i,j) - p*(k|i,j)|.

The inner max linearizes exactly with one scalar t, so the whole quantity is
one LP: the membership LP with slack columns added.  Its model weights x
are one per (extreme ray of a preparation-equivalence component's cone,
support state), so the equivalences hold by construction and only the
normalization and reproduction rows remain.  Each reproduction row becomes
``xi.x + e+ - e- = p`` with e+, e- >= 0, one row per physical cell bounds
``sum_k (e+ + e-)`` by t, and t is minimized.  The program comes compiled
with the scenario's (``ncmodel.model_program``), whose membership rows are
its sub-block; a call supplies only the right-hand side
(``ncmodel.distance_program``).  Each component's rays weigh only its
support; on a block composite the distance is the largest block distance.
d vanishes exactly on the noncontextual polytope and never increases under
free operations, which is what makes it usable as a monotone.  So the
membership decision comes first (``ncmodel.membership_outcome``, the one
``is_noncontextual`` reads): d is 0.0 exactly when the verdict at the same
``tol`` is noncontextual, and only a contextual behavior reaches the
distance LP.  That behavior costs both LPs unless its verdict was just
computed on the same program.
"""

from __future__ import annotations

from .lp import FEASIBLE, LP_TOL, OPTIMAL, LpNumericalError, solve_lp
from .ncmodel import ENUMERATION_CAP, check_behavior, distance_program, membership_outcome
from .scenario import Behavior, Scenario

#: Absolute precision at which distances are reported and compared; two
#: digits looser than the LP feasibility tolerance.
DISTANCE_TOL = 1e-7


def l1_distance(
    s: Scenario, behavior: Behavior, tol: float = LP_TOL, cap: int = ENUMERATION_CAP
) -> float:
    """Distance from the behavior to the noncontextual polytope in the
    max-over-cells l1 sense.

    Exactly 0.0 when ``is_noncontextual`` at the same ``tol`` finds the
    behavior noncontextual, whatever was decided before; a contextual
    behavior costs the membership LP, unless its verdict was just computed,
    and then the distance LP.  Masked (hybrid) cells are excluded from both
    the deviation and the max.  Raises ValueError when the behavior is not
    valid in the scenario.
    """
    program = check_behavior(s, behavior, tol, cap)
    if membership_outcome(program, behavior, tol).status == FEASIBLE:
        return 0.0
    outcome = solve_lp(distance_program(program, behavior), tol=tol)
    if outcome.status != OPTIMAL:
        raise LpNumericalError(f"l1-distance LP returned {outcome.status}")
    return max(0.0, float(outcome.objective_value))
