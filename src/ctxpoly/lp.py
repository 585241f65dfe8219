"""Self-contained linear-program contract used by every decision procedure.

The backend is scipy's HiGHS, which is deterministic for a fixed input.
``max_violation`` re-checks a returned point by direct substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

#: Feasibility tolerance for primal solutions and status decisions.
LP_TOL = 1e-8

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    pass


class LpNumericalError(LpError):
    """The backend could not certify any status for the instance."""


@dataclass
class LinearProgram:
    """minimize objective @ x subject to eq/ineq rows and per-variable bounds.

    ``objective=None`` asks only for feasibility.  Inequalities mean
    ``row @ x <= rhs``.  Default bounds are x >= 0 with no upper bound.
    """

    n_vars: int
    objective: np.ndarray | None = None
    eq_constraints: list[tuple[np.ndarray, float]] = field(default_factory=list)
    ineq_constraints: list[tuple[np.ndarray, float]] = field(default_factory=list)
    lower_bounds: np.ndarray = None  # type: ignore[assignment]
    upper_bounds: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(self.n_vars)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.n_vars, np.inf)
        if self.objective is not None:
            self.objective = np.asarray(self.objective, dtype=float)
            if self.objective.shape != (self.n_vars,):
                raise LpError("objective length does not match n_vars")

    def _check_row(self, row: np.ndarray) -> np.ndarray:
        row = np.asarray(row, dtype=float)
        if row.shape != (self.n_vars,):
            raise LpError(f"constraint row has length {row.shape}, expected {self.n_vars}")
        return row

    def add_eq(self, row: np.ndarray, rhs: float) -> None:
        self.eq_constraints.append((self._check_row(row), float(rhs)))

    def add_ineq(self, row: np.ndarray, rhs: float) -> None:
        self.ineq_constraints.append((self._check_row(row), float(rhs)))


@dataclass
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x; an independent feasibility check."""
    worst = 0.0
    for row, rhs in lp.eq_constraints:
        worst = max(worst, abs(float(row @ x) - rhs))
    for row, rhs in lp.ineq_constraints:
        worst = max(worst, float(row @ x) - rhs)
    worst = max(worst, float(np.max(lp.lower_bounds - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.upper_bounds, initial=0.0)))
    return worst


def solve_lp(lp: LinearProgram, tol: float = LP_TOL) -> LpOutcome:
    """Solve, returning a status plus a primal point when one exists.

    Deterministic for identical input.
    """
    c = lp.objective if lp.objective is not None else np.zeros(lp.n_vars)
    a_eq = b_eq = a_ub = b_ub = None
    if lp.eq_constraints:
        a_eq = np.array([row for row, _ in lp.eq_constraints])
        b_eq = np.array([rhs for _, rhs in lp.eq_constraints])
    if lp.ineq_constraints:
        a_ub = np.array([row for row, _ in lp.ineq_constraints])
        b_ub = np.array([rhs for _, rhs in lp.ineq_constraints])
    bounds = list(zip(lp.lower_bounds, lp.upper_bounds))

    feas_tol = max(min(tol, 1e-8), 1e-10)
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": feas_tol,
            "dual_feasibility_tolerance": feas_tol,
        },
    )
    if result.status == 0:
        status = OPTIMAL if lp.objective is not None else FEASIBLE
        value = float(result.fun) if lp.objective is not None else None
        return LpOutcome(status, np.asarray(result.x, dtype=float), value)
    if result.status == 2:
        return LpOutcome(INFEASIBLE)
    if result.status == 3:
        return LpOutcome(UNBOUNDED)
    raise LpNumericalError(f"LP backend failed to certify a status: {result.message}")

