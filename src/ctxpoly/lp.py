"""Self-contained linear-program contract used by every decision procedure.

The backend is HiGHS, called through the bindings bundled with scipy
(``scipy.optimize._highspy._core``, the ones ``scipy.optimize.linprog``
itself calls).  The LPs here are small, so ``linprog``'s per-call wrapper
(input cleaning, option checking, dual read-back) used to cost more than the
solve.  ``solve_lp`` builds the model ``linprog(method="highs")`` builds and
keeps its input check, its status table and its check of the returned point.
Its options differ from ``linprog``'s defaults in one place, presolve off
(see ``_OPTIONS``).  Each thread solves on one HiGHS instance of its own,
reused from solve to solve; HiGHS is deterministic for a fixed input, and
the instance carries nothing from one solve to the next (see ``solve_lp``).
``max_violation`` re-checks a returned point by direct substitution.
HiGHS takes its rows column-wise, and ``compile_rows`` is the one builder of
that layout.  A program whose rows do not change from solve to solve (a
scenario's noncontextual-model programs, ``ncmodel.model_program``) is
compiled once and handed to each ``LinearProgram`` with new right-hand sides
(``set_compiled_rows``); rows added in blocks are compiled on each solve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple

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

#: The HiGHS options of every solve besides the feasibility tolerances:
#: silent and dual simplex, as ``linprog(method="highs")`` sets them, but
#: presolve off where ``linprog`` turns it on.  These LPs are small, and
#: presolve costs more than it saves: on 980 LPs recorded from both
#: benchmark workloads, HiGHS's ``run`` took 0.3-0.6x its time with presolve
#: on for every kind of LP but the 4-fold power's membership LP (0.66-0.77x),
#: with every status equal and objectives within 5e-11.  The optimum
#: found may be another vertex, an equally valid one.  Primal simplex was
#: slower, and turning scaling off gained nothing, so one set of options
#: serves every LP.
_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)),
    ("presolve", "off"),
    ("simplex_strategy", int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
)

#: Each thread's HiGHS instance (``_thread_highs``): one instance must not
#: be solved on by two threads at once.
_THREAD = threading.local()

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    pass


class LpNumericalError(LpError):
    """The backend could not certify any status for the instance."""


class CompiledRows(NamedTuple):
    """Constraint rows in HiGHS's column-wise layout, built by ``compile_rows``.

    Rows ``[0, n_ineq)`` mean ``row @ x <= rhs`` and the rest ``row @ x ==
    rhs``.  ``highs`` is the one copy of the matrix, HiGHS's own, which each
    solve copies into its model in one step: column c holds
    ``value_[start_[c]:start_[c + 1]]`` in rows ``index_[start_[c]:start_[c +
    1]]``, in increasing row order, and every value is finite and nonzero.
    The bindings hand out a fresh list on each read of ``start_``,
    ``index_`` or ``value_``, so the matrix cannot be changed in place, and
    nothing assigns to it after ``compile_rows``.
    """

    n_rows: int
    n_ineq: int
    highs: _highs.HighsSparseMatrix

    @property
    def n_cols(self) -> int:
        return self.highs.num_col_

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh copies of the matrix's start, index and value arrays."""
        return (
            np.array(self.highs.start_, dtype=np.int64),
            np.array(self.highs.index_, dtype=np.int64),
            np.array(self.highs.value_, dtype=float),
        )

    def dense(self) -> np.ndarray:
        """The rows as a fresh dense (n_rows, n_cols) array."""
        start, index, value = self.arrays()
        out = np.zeros((self.n_rows, self.n_cols))
        out[index, np.repeat(np.arange(self.n_cols), np.diff(start))] = value
        return out


def compile_rows(rows: np.ndarray, n_ineq: int) -> CompiledRows:
    """The one column-wise builder, for dense ``rows`` whose first
    ``n_ineq`` are inequalities and the rest equalities.

    Raises ValueError unless every entry is finite.  A scenario's programs
    are compiled once (``ncmodel.model_program``); any other LP is compiled
    by ``solve_lp`` on each solve.
    """
    if not np.isfinite(rows).all():
        raise ValueError("invalid LP: constraint rows must be finite")
    n_rows, n_cols = rows.shape
    # Column-major positions of the nonzeros: what np.nonzero(rows.T)
    # gives, in a third of its time.
    col, row = np.divmod(np.flatnonzero(rows.T != 0), n_rows)
    start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n_cols))))
    highs = _highs.HighsSparseMatrix()
    highs.format_ = _highs.MatrixFormat.kColwise
    highs.num_col_ = n_cols
    highs.num_row_ = n_rows
    # The bindings copy a list several times faster than a numpy array,
    # which they read one numpy scalar at a time; the numbers are the same.
    highs.start_ = start.tolist()
    highs.index_ = row.tolist()
    highs.value_ = rows[row, col].tolist()
    return CompiledRows(n_rows, n_ineq, highs)


@dataclass
class LinearProgram:
    """minimize objective @ x subject to eq/ineq rows and per-variable bounds.

    ``objective=None`` asks only for feasibility.  Inequalities mean
    ``row @ x <= rhs``.  Default bounds are x >= 0 with no upper bound.
    Rows are either added in blocks, stored as they were added without
    copying, or set all at once from rows compiled earlier
    (``set_compiled_rows``).  ``eq_blocks``/``ineq_blocks`` list them as
    dense ``(rows, rhs)`` blocks, expanding compiled rows on demand, and
    ``eq_constraints``/``ineq_constraints`` as ``(row, rhs)`` pairs.
    """

    n_vars: int
    objective: np.ndarray | None = None
    lower_bounds: np.ndarray = None  # type: ignore[assignment]
    upper_bounds: np.ndarray = None  # type: ignore[assignment]
    _eq: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)
    _ineq: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)
    _compiled: tuple[CompiledRows, np.ndarray] | None = field(default=None, init=False, repr=False)

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
        if self._compiled is not None:
            raise LpError("compiled rows are all of a program's rows")
        rows = np.asarray(rows, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_vars:
            raise LpError(f"constraint rows have shape {rows.shape}, expected (m, {self.n_vars})")
        if rhs.shape != (len(rows),):
            raise LpError(f"right-hand side has shape {rhs.shape}, expected ({len(rows)},)")
        return rows, rhs

    def add_eq_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add ``rows @ x == rhs``, one row per entry of ``rhs``."""
        self._eq.append(self._check_rows(rows, rhs))

    def add_ineq_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Add ``rows @ x <= rhs``, one row per entry of ``rhs``."""
        self._ineq.append(self._check_rows(rows, rhs))

    def add_eq(self, row: np.ndarray, rhs: float) -> None:
        self.add_eq_rows(np.asarray(row)[None], [rhs])

    def add_ineq(self, row: np.ndarray, rhs: float) -> None:
        self.add_ineq_rows(np.asarray(row)[None], [rhs])

    def set_compiled_rows(self, rows: CompiledRows, rhs: np.ndarray) -> None:
        """Make ``rows`` all of this program's rows, with right-hand sides
        ``rhs`` in row order (inequalities first)."""
        if self._eq or self._ineq or self._compiled is not None:
            raise LpError("compiled rows are all of a program's rows")
        rhs = np.asarray(rhs, dtype=float)
        if rows.n_cols != self.n_vars:
            raise LpError(f"compiled rows have {rows.n_cols} columns, expected {self.n_vars}")
        if rhs.shape != (rows.n_rows,):
            raise LpError(f"right-hand side has shape {rhs.shape}, expected ({rows.n_rows},)")
        self._compiled = (rows, rhs)

    def compiled_rows(self) -> tuple[CompiledRows, np.ndarray]:
        """Every row, inequalities first, with its right-hand side; rows
        added in blocks are compiled here, on every call."""
        if self._compiled is not None:
            return self._compiled
        blocks = self._ineq + self._eq
        rows = np.concatenate([np.zeros((0, self.n_vars)), *(rows for rows, _ in blocks)])
        rhs = np.concatenate([np.zeros(0), *(rhs for _, rhs in blocks)])
        return compile_rows(rows, sum(len(rhs) for _, rhs in self._ineq)), rhs

    @property
    def eq_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._compiled is None:
            return self._eq
        rows, rhs = self._compiled
        return [(rows.dense()[rows.n_ineq :], rhs[rows.n_ineq :])]

    @property
    def ineq_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._compiled is None:
            return self._ineq
        rows, rhs = self._compiled
        return [(rows.dense()[: rows.n_ineq], rhs[: rows.n_ineq])]

    @property
    def eq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return _pairs(self.eq_blocks)

    @property
    def ineq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return _pairs(self.ineq_blocks)


def _pairs(blocks: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[np.ndarray, float]]:
    return [(row, rhs) for rows, values in blocks for row, rhs in zip(rows, values.tolist())]


@dataclass
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x; an independent feasibility check."""
    worst = 0.0
    for rows, rhs in lp.eq_blocks:
        worst = max(worst, float(np.max(np.abs(rows @ x - rhs), initial=0.0)))
    for rows, rhs in lp.ineq_blocks:
        worst = max(worst, float(np.max(rows @ x - rhs, initial=0.0)))
    worst = max(worst, float(np.max(lp.lower_bounds - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.upper_bounds, initial=0.0)))
    return worst


def _thread_highs() -> _highs._Highs:
    """The calling thread's HiGHS instance, set to ``_OPTIONS`` when created."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
        for name, value in _OPTIONS:
            highs.setOptionValue(name, value)
    return highs


def solve_lp(lp: LinearProgram, tol: float = LP_TOL) -> LpOutcome:
    """Solve, returning a status plus a primal point when one exists.

    Deterministic for identical input, whatever was solved before: the
    calling thread's HiGHS instance is reused, which saves creating one per
    solve, but nothing is warm-started.  ``passModel`` replaces the model and
    invalidates the basis, solution, status and info of the last solve, so
    each solve starts cold, as on a fresh instance.  The instance keeps only
    its options, and the tolerances among them are set on every solve.  Raises
    ValueError for a non-finite objective, row or right-hand side, for
    mis-sized bounds and for an LP without variables.
    """
    n = lp.n_vars
    if n == 0:
        raise ValueError("invalid LP: no variables")
    c = lp.objective if lp.objective is not None else np.zeros(n)
    if not np.isfinite(c).all():
        raise ValueError("invalid LP: objective must be finite")
    rows, rhs = lp.compiled_rows()  # compiled rows were checked finite when compiled
    if not np.isfinite(rhs).all():
        raise ValueError("invalid LP: right-hand sides must be finite")
    lower = np.array(lp.lower_bounds, dtype=float)
    upper = np.array(lp.upper_bounds, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"invalid LP: bounds must have {n} entries")
    lower[np.isnan(lower)] = -np.inf  # a NaN bound means no bound, as in linprog
    upper[np.isnan(upper)] = np.inf

    # HiGHS takes row_lower <= A @ x <= row_upper with A column-wise; an
    # equality row has equal sides.  Inequality rows come first.
    n_ineq = rows.n_ineq
    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = rows.n_rows
    model.a_matrix_ = rows.highs
    model.col_cost_ = c
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = np.concatenate((np.full(n_ineq, -np.inf), rhs[n_ineq:]))
    model.row_upper_ = rhs

    feas_tol = max(min(tol, 1e-8), 1e-10)
    highs = _thread_highs()
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
    slack = rhs - np.array(solution.row_value)
    slack_ub, residual_eq = slack[:n_ineq], slack[n_ineq:]
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

