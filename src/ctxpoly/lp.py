"""Self-contained linear-program contract used by every decision procedure.

The backend is HiGHS, called through the bindings bundled with scipy
(``scipy.optimize._highspy._core``, the ones ``scipy.optimize.linprog``
itself calls).  The LPs here are small, so ``linprog``'s per-call wrapper
(input cleaning, option checking, dual read-back) used to cost more than the
solve.  ``solve_lp`` builds the model ``linprog(method="highs")`` builds,
with the same options, and keeps its input check, its status table and its
check of the returned point.  HiGHS is deterministic for a fixed input.
``max_violation`` re-checks a returned point by direct substitution.
``LinearProgram`` keeps rows in the blocks they were added in, so a caller
can hand over a whole (read-only) matrix without copying it row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # scipy < 1.15 has no such module
    raise ImportError("ctxpoly needs scipy >= 1.15 for its bundled HiGHS bindings") from exc

#: Feasibility tolerance for primal solutions and status decisions.
LP_TOL = 1e-8

#: Largest row or bound violation accepted in a point HiGHS calls optimal;
#: ``linprog`` checks its results with the same bound, 10 * sqrt(1e-9).
RESULT_CHECK_TOL = np.sqrt(1e-9) * 10

#: The HiGHS options ``linprog(method="highs")`` sets besides the feasibility
#: tolerances: silent, presolve on, dual simplex.
_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)),
    ("presolve", "on"),
    ("simplex_strategy", int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
)

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
    Rows are stored in blocks as they were added, without copying;
    ``eq_constraints``/``ineq_constraints`` list them as ``(row, rhs)``
    pairs whose rows are views into those blocks.
    """

    n_vars: int
    objective: np.ndarray | None = None
    lower_bounds: np.ndarray = None  # type: ignore[assignment]
    upper_bounds: np.ndarray = None  # type: ignore[assignment]
    eq_blocks: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)
    ineq_blocks: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(self.n_vars)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.n_vars, np.inf)
        if self.objective is not None:
            self.objective = np.asarray(self.objective, dtype=float)
            if self.objective.shape != (self.n_vars,):
                raise LpError("objective length does not match n_vars")

    def _check_rows(self, rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_vars:
            raise LpError(f"constraint rows have shape {rows.shape}, expected (m, {self.n_vars})")
        if rhs.shape != (len(rows),):
            raise LpError(f"right-hand side has shape {rhs.shape}, expected ({len(rows)},)")
        return rows, rhs

    def add_eq_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add ``rows @ x == rhs``, one row per entry of ``rhs``."""
        self.eq_blocks.append(self._check_rows(rows, rhs))

    def add_ineq_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add ``rows @ x <= rhs``, one row per entry of ``rhs``."""
        self.ineq_blocks.append(self._check_rows(rows, rhs))

    def add_eq(self, row: np.ndarray, rhs: float) -> None:
        self.add_eq_rows(np.asarray(row)[None], [rhs])

    def add_ineq(self, row: np.ndarray, rhs: float) -> None:
        self.add_ineq_rows(np.asarray(row)[None], [rhs])

    @property
    def eq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return _pairs(self.eq_blocks)

    @property
    def ineq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return _pairs(self.ineq_blocks)


def _pairs(blocks: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[np.ndarray, float]]:
    return [(row, rhs) for rows, values in blocks for row, rhs in zip(rows, values.tolist())]


def _rhs(blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.zeros(0), *(rhs for _, rhs in blocks)])


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

    Deterministic for identical input: each call gets a fresh HiGHS
    instance, so nothing is warm-started from an earlier solve.  Raises
    ValueError for a non-finite objective, row or right-hand side, for
    mis-sized bounds and for an LP without variables.
    """
    n = lp.n_vars
    c = lp.objective if lp.objective is not None else np.zeros(n)
    matrix = np.concatenate([np.zeros((0, n)), *(rows for rows, _ in lp.ineq_blocks + lp.eq_blocks)])
    b_ub = _rhs(lp.ineq_blocks)
    b_eq = _rhs(lp.eq_blocks)
    lower = np.array(lp.lower_bounds, dtype=float)
    upper = np.array(lp.upper_bounds, dtype=float)
    if n == 0:
        raise ValueError("invalid LP: no variables")
    if not (np.isfinite(c).all() and np.isfinite(matrix).all()):
        raise ValueError("invalid LP: objective and constraint rows must be finite")
    if not (np.isfinite(b_ub).all() and np.isfinite(b_eq).all()):
        raise ValueError("invalid LP: right-hand sides must be finite")
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"invalid LP: bounds must have {n} entries")
    lower[np.isnan(lower)] = -np.inf  # a NaN bound means no bound, as in linprog
    upper[np.isnan(upper)] = np.inf

    # HiGHS takes row_lower <= A @ x <= row_upper with A column-wise; an
    # equality row has equal sides.  Inequality rows come first.
    col, row = np.nonzero(matrix.T)
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = len(matrix)
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    model.a_matrix_.index_ = row
    model.a_matrix_.value_ = matrix[row, col]
    model.col_cost_ = c
    model.col_lower_ = _clip_inf(lower)
    model.col_upper_ = _clip_inf(upper)
    row_upper = _clip_inf(np.concatenate((b_ub, b_eq)))
    model.row_lower_ = _clip_inf(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
    model.row_upper_ = row_upper

    feas_tol = max(min(tol, 1e-8), 1e-10)
    highs = _highs._Highs()
    for name, value in _OPTIONS:
        highs.setOptionValue(name, value)
    highs.setOptionValue("primal_feasibility_tolerance", feas_tol)
    highs.setOptionValue("dual_feasibility_tolerance", feas_tol)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return LpOutcome(INFEASIBLE)
    run_failed = highs.run() == _highs.HighsStatus.kError
    status = highs.getModelStatus()
    if status in (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kModelError):
        return LpOutcome(INFEASIBLE)
    if status == _highs.HighsModelStatus.kUnbounded:
        return LpOutcome(UNBOUNDED)
    if status != _highs.HighsModelStatus.kOptimal or run_failed:
        raise LpNumericalError(f"LP backend failed to certify a status: {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    value = highs.getInfo().objective_function_value
    slack = row_upper - np.array(solution.row_value)
    slack_ub, residual_eq = slack[: len(b_ub)], slack[len(b_ub) :]
    if (
        np.isnan(x).any()
        or np.isnan(value)
        or np.isnan(slack).any()
        or (x < lower - RESULT_CHECK_TOL).any()
        or (x > upper + RESULT_CHECK_TOL).any()
        or (slack_ub < -RESULT_CHECK_TOL).any()
        or (np.abs(residual_eq) > RESULT_CHECK_TOL).any()
    ):
        raise LpNumericalError("LP backend returned an optimal point that breaks the constraints")
    if lp.objective is None:
        return LpOutcome(FEASIBLE, x)
    return LpOutcome(OPTIMAL, x, float(value))


def _clip_inf(values: np.ndarray) -> np.ndarray:
    """Map +-inf to HiGHS's own infinity."""
    return np.clip(values, -_highs.kHighsInf, _highs.kHighsInf)
