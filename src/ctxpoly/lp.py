"""Self-contained LP contract used by every decision procedure.

The backend is HiGHS, called through the bindings bundled with scipy
(``scipy.optimize._highspy._core``, the ones ``scipy.optimize.linprog``
itself calls).  They are loaded from their file on their own
(``_load_highs``): importing them as a submodule would run
``scipy.optimize``'s package init, which takes longer than the rest of a
``ctx`` call.  The LPs here are small, so ``linprog``'s per-call wrapper
(input cleaning, option checking, dual read-back) used to cost more than the
solve.  ``solve_lp`` builds the model ``linprog(method="highs")`` builds and
keeps its input check, its status table and its check of the returned point.
Its options differ from ``linprog``'s defaults in one place, presolve off
(see ``_OPTIONS``).  Each thread solves on one HiGHS instance of its own,
reused from solve to solve; HiGHS is deterministic for a fixed input, and
the instance carries nothing from one solve to the next (see ``solve_lp``).
``max_violation`` re-checks a returned point by direct substitution.

HiGHS takes its rows column-wise (``CompiledRows``).  ``compile_rows``
scans dense rows into that layout.  A scenario's noncontextual-model
programs give their column-wise arrays directly, one column at a time, with
no dense matrix (``ncmodel.model_rows``), and are compiled once per scenario
(``ncmodel.model_program``).  ``compile_lp`` is the one builder of
everything else of an LP that no right-hand side changes (sizes, matrix,
costs and column bounds) in HiGHS's model form, and it checks all of it
once.  Every LP of the library is such a model plus its right-hand sides
(``LinearProgram.from_compiled``): a solve only sets the row bounds, passes
the model and reads back the point, the row activities and the objective.
An LP whose rows are added one at a time (``add_eq``/``add_ineq``) is
compiled by the same builders on each solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

#: The bindings' canonical name, the one ``scipy.optimize`` imports them by.
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """HiGHS's bindings, without ``scipy.optimize``'s package init.

    That init takes about 0.3 s, more than all the rest of a ``ctx check``
    process, and the extension needs none of it: ``import scipy`` above has
    run scipy's own loader set-up.  The sys.modules rule: a module already
    registered under ``_HIGHS_MODULE`` is reused, and a loaded one is
    registered there before it runs, as ``importlib``'s recipe does, so
    ``scipy.optimize.linprog`` and ctxpoly share one module object in either
    import order.
    """
    loaded = sys.modules.get(_HIGHS_MODULE)
    if loaded is not None:
        return loaded
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:  # scipy < 1.15 has no such module
        raise ImportError("ctxpoly needs scipy >= 1.15 for its bundled HiGHS bindings")
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()

#: Feasibility tolerance for primal solutions and status decisions.
LP_TOL = 1e-8


def result_check_bound(tol: float) -> float:
    """Largest row or bound violation accepted in a point solved at ``tol``:
    ``linprog``'s bound, 10 * sqrt(1e-9), or ten times a looser feasibility
    tolerance (never below 1e-10), up to which HiGHS's points break rows."""
    return max(np.sqrt(1e-9) * 10, 10 * max(tol, 1e-10))


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
    """Constraint rows in HiGHS's column-wise layout, from dense rows
    (``compile_rows``) or from their column-wise arrays (``from_colwise``).

    Rows ``[0, n_ineq)`` mean ``row @ x <= rhs`` and the rest ``row @ x ==
    rhs``.  ``highs`` is the one copy of the matrix, HiGHS's own, which
    ``compile_lp`` copies into its model in one step; the rows of a
    ``CompiledLp`` are that model's matrix itself.  Column c holds
    ``value_[start_[c]:start_[c + 1]]`` in rows ``index_[start_[c]:start_[c +
    1]]``, in increasing row order, and every value is finite and nonzero.
    ``arrays`` reads it back.  The bindings hand out a fresh list on each
    read of ``start_``, ``index_`` or ``value_``, so the matrix cannot be
    changed in place, and nothing assigns to it after it is built.
    """

    n_rows: int
    n_ineq: int
    highs: _highs.HighsSparseMatrix

    @classmethod
    def from_colwise(
        cls, n_rows: int, n_ineq: int, start: np.ndarray, index: np.ndarray, value: np.ndarray
    ) -> CompiledRows:
        """Rows from their start, index and value arrays, in the layout
        ``highs`` keeps them in (see above)."""
        highs = _highs.HighsSparseMatrix()
        highs.format_ = _highs.MatrixFormat.kColwise
        highs.num_col_ = len(start) - 1
        highs.num_row_ = n_rows
        # The bindings copy a list several times faster than a numpy array,
        # which they read one numpy scalar at a time; the numbers are the same.
        highs.start_ = start.tolist()
        highs.index_ = index.tolist()
        highs.value_ = value.tolist()
        return cls(n_rows, n_ineq, highs)

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


def compile_rows(rows: np.ndarray, n_ineq: int) -> CompiledRows:
    """Dense ``rows``, whose first ``n_ineq`` are inequalities and the rest
    equalities, in HiGHS's column-wise layout: the builder of every LP whose
    rows come as a dense matrix.

    Raises ValueError unless every entry is finite.
    """
    if not np.isfinite(rows).all():
        raise ValueError("invalid LP: constraint rows must be finite")
    n_rows, n_cols = rows.shape
    # Column-major positions of the nonzeros: what np.nonzero(rows.T)
    # gives, in a third of its time.
    col, row = np.divmod(np.flatnonzero(rows.T != 0), n_rows)
    start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n_cols))))
    return CompiledRows.from_colwise(n_rows, n_ineq, start, row, rows[row, col])


class CompiledLp(NamedTuple):
    """Everything of an LP that no right-hand side changes, in HiGHS's
    model form, built and checked by ``compile_lp``.

    ``highs`` holds the sizes, the matrix, the costs and the column bounds;
    each solve sets its row bounds and passes it to HiGHS, which copies it,
    both under ``lock``, since one compiled program serves every thread.
    ``rows`` is its matrix (the one copy), and ``objective`` (None for a
    feasibility LP), ``lower`` and ``upper`` are read-only arrays of what
    it holds, with NaN bounds replaced by infinite ones.
    """

    rows: CompiledRows
    objective: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    highs: _highs.HighsLp
    lock: threading.Lock


def compile_lp(
    rows: CompiledRows,
    objective: np.ndarray | None = None,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> CompiledLp:
    """The one builder of an LP's fixed part: minimize ``objective @ x``
    (feasibility only when None) over ``rows``, within ``lower <= x <=
    upper`` (default x >= 0 with no upper bound).

    Raises ValueError for an LP without variables, a non-finite objective
    and mis-sized bounds.  A NaN bound means no bound, as in ``linprog``.
    """
    n = rows.n_cols
    if n == 0:
        raise ValueError("invalid LP: no variables")
    cost = np.zeros(n) if objective is None else np.array(objective, dtype=float)
    if not np.isfinite(cost).all():
        raise ValueError("invalid LP: objective must be finite")
    lower = np.zeros(n) if lower is None else np.array(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.array(upper, dtype=float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError(f"invalid LP: bounds must have {n} entries")
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    for array in (cost, lower, upper):
        array.flags.writeable = False

    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = rows.n_rows
    model.a_matrix_ = rows.highs
    model.col_cost_ = cost
    # Lists, as in CompiledRows.from_colwise: only the cost setter reads a
    # numpy array quickly.
    model.col_lower_ = lower.tolist()
    model.col_upper_ = upper.tolist()
    # model.a_matrix_ reads HiGHS's copy in place, which the model keeps alive.
    own_rows = CompiledRows(rows.n_rows, rows.n_ineq, model.a_matrix_)
    return CompiledLp(own_rows, None if objective is None else cost, lower, upper, model, threading.Lock())


@dataclass
class LinearProgram:
    """minimize objective @ x subject to eq/ineq rows and per-variable bounds.

    ``objective=None`` asks only for feasibility.  Inequalities mean
    ``row @ x <= rhs``.  Default bounds are x >= 0 with no upper bound.
    An LP is in one of two states: its rows are added one at a time
    (``add_eq``/``add_ineq``), or it is a compiled model with its
    right-hand sides (``from_compiled``), which takes no further row.
    ``compiled_rows`` gives every row in HiGHS's layout either way, and
    ``eq_constraints``/``ineq_constraints`` list them as dense
    ``(row, rhs)`` pairs.
    """

    n_vars: int
    objective: np.ndarray | None = None
    lower_bounds: np.ndarray = None  # type: ignore[assignment]
    upper_bounds: np.ndarray = None  # type: ignore[assignment]
    _eq: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)
    _ineq: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, init=False, repr=False)
    _model: tuple[CompiledLp, np.ndarray] | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_compiled(cls, model: CompiledLp, rhs: np.ndarray) -> LinearProgram:
        """The LP of ``model`` with right-hand sides ``rhs`` in row order
        (inequalities first): its objective and bounds are the model's
        arrays, and ``solve_lp`` hands HiGHS the model itself."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (model.rows.n_rows,):
            raise LpError(f"right-hand side has shape {rhs.shape}, expected ({model.rows.n_rows},)")
        lp = cls(model.rows.n_cols, model.objective, model.lower, model.upper)
        lp._model = (model, rhs)
        return lp

    def __post_init__(self) -> None:
        if self.lower_bounds is None:
            self.lower_bounds = np.zeros(self.n_vars)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.n_vars, np.inf)
        if self.objective is not None:
            self.objective = np.asarray(self.objective, dtype=float)
            if self.objective.shape != (self.n_vars,):
                raise LpError("objective length does not match n_vars")

    def _check_row(self, row: np.ndarray, rhs: float) -> tuple[np.ndarray, np.ndarray]:
        """The row as a one-row block, with its right-hand side."""
        if self._model is not None:
            raise LpError("a compiled model's rows are all of a program's rows")
        rows = np.asarray(row, dtype=float)[None]
        if rows.ndim != 2 or rows.shape[1] != self.n_vars:
            raise LpError(f"constraint row has shape {rows.shape[1:]}, expected ({self.n_vars},)")
        return rows, np.array([rhs], dtype=float)

    def add_eq(self, row: np.ndarray, rhs: float) -> None:
        """Add ``row @ x == rhs``."""
        self._eq.append(self._check_row(row, rhs))

    def add_ineq(self, row: np.ndarray, rhs: float) -> None:
        """Add ``row @ x <= rhs``."""
        self._ineq.append(self._check_row(row, rhs))

    def compiled_rows(self) -> tuple[CompiledRows, np.ndarray]:
        """Every row, inequalities first, with its right-hand side: the
        compiled model's rows, or the rows added one at a time, compiled
        here on every call."""
        if self._model is not None:
            model, rhs = self._model
            return model.rows, rhs
        blocks = self._ineq + self._eq
        rows = np.concatenate([np.zeros((0, self.n_vars)), *(rows for rows, _ in blocks)])
        rhs = np.concatenate([np.zeros(0), *(rhs for _, rhs in blocks)])
        return compile_rows(rows, sum(len(rhs) for _, rhs in self._ineq)), rhs

    def compiled_lp(self) -> tuple[CompiledLp, np.ndarray]:
        """The fixed part of this LP, with its right-hand sides: the model
        it was made from (``from_compiled``) while its objective and bounds
        are still that model's arrays, else compiled here on every call."""
        if self._model is not None:
            model = self._model[0]
            if (
                self.objective is model.objective
                and self.lower_bounds is model.lower
                and self.upper_bounds is model.upper
            ):
                return self._model
        rows, rhs = self.compiled_rows()
        return compile_lp(rows, self.objective, self.lower_bounds, self.upper_bounds), rhs

    def _constraints(self, eq: bool) -> list[tuple[np.ndarray, float]]:
        """The equality (or inequality) rows as dense ``(row, rhs)`` pairs."""
        rows, rhs = self.compiled_rows()
        start, index, value = rows.arrays()
        dense = np.zeros((rows.n_rows, rows.n_cols))
        dense[index, np.repeat(np.arange(rows.n_cols), np.diff(start))] = value
        part = slice(rows.n_ineq, None) if eq else slice(rows.n_ineq)
        return list(zip(dense[part], rhs[part].tolist()))

    @property
    def eq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return self._constraints(eq=True)

    @property
    def ineq_constraints(self) -> list[tuple[np.ndarray, float]]:
        return self._constraints(eq=False)


@dataclass
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x; an independent feasibility
    check, one sparse product over the column-wise rows."""
    rows, rhs = lp.compiled_rows()
    start, index, value = rows.arrays()
    excess = np.bincount(index, value * np.repeat(x, np.diff(start)), minlength=rows.n_rows) - rhs
    n_ineq = rows.n_ineq
    worst = np.concatenate((excess[:n_ineq], np.abs(excess[n_ineq:]), lp.lower_bounds - x, x - lp.upper_bounds))
    return float(np.max(worst, initial=0.0))


def _point_holds(model: CompiledLp, x: np.ndarray, value: float, slack: np.ndarray, bound: float) -> bool:
    """Whether a point, its objective ``value`` and its row slacks ``rhs -
    rows @ x`` keep every bound and row of ``model`` within ``bound``, with
    no NaN: each comparison is false on a NaN."""
    n_ineq = model.rows.n_ineq
    return bool(
        not math.isnan(value)
        and (x >= model.lower - bound).all()
        and (x <= model.upper + bound).all()
        and (slack[:n_ineq] >= -bound).all()
        and (np.abs(slack[n_ineq:]) <= bound).all()
    )


def _thread_highs() -> _highs._Highs:
    """The calling thread's HiGHS instance, set to ``_OPTIONS`` when created.
    Raises ImportError if HiGHS refuses one: it would ignore an option another
    HiGHS renamed, and keep its default."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _highs._Highs()
        for name, value in _OPTIONS:
            if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
                raise ImportError(f"ctxpoly needs scipy >= 1.15: its HiGHS refused the option {name}={value!r}")
        _THREAD.highs = highs
    return highs


def solve_lp(lp: LinearProgram, tol: float = LP_TOL) -> LpOutcome:
    """Solve, returning a status plus a primal point when one exists.

    The LP's fixed part is its compiled model when it has one
    (``LinearProgram.from_compiled``), else it is compiled here by
    ``compile_lp``; a solve sets only the row bounds, which it checks,
    passes the model, runs and reads back the point, the row activities and
    the objective, then checks the point against every row and bound.
    HiGHS judges feasibility at ``tol``, never below 1e-10; the point check
    allows ``result_check_bound(tol)``.
    Deterministic for identical input, whatever was solved before: the
    calling thread's HiGHS instance is reused, which saves creating one per
    solve, but nothing is warm-started.  ``passModel`` replaces the model and
    invalidates the basis, solution, status and info of the last solve, so
    each solve starts cold, as on a fresh instance.  The instance keeps only
    its options, and the tolerances among them are set on every solve.
    Raises ValueError for a non-finite objective, row or right-hand side, for
    mis-sized bounds and for an LP without variables.
    """
    model, rhs = lp.compiled_lp()
    if not np.isfinite(rhs).all():
        raise ValueError("invalid LP: right-hand sides must be finite")
    # HiGHS takes row_lower <= A @ x <= row_upper; an equality row has equal
    # sides.  Inequality rows come first.
    n_ineq = model.rows.n_ineq
    row_upper = rhs.tolist()  # lists, as in compile_lp
    row_lower = [-math.inf] * n_ineq + row_upper[n_ineq:]

    feas_tol = max(tol, 1e-10)
    highs = _thread_highs()
    highs.setOptionValue("primal_feasibility_tolerance", feas_tol)
    highs.setOptionValue("dual_feasibility_tolerance", feas_tol)
    with model.lock:
        model.highs.row_lower_ = row_lower
        model.highs.row_upper_ = row_upper
        refused = highs.passModel(model.highs) == _highs.HighsStatus.kError
    if refused:
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
    value = highs.getObjectiveValue()
    if not _point_holds(model, x, value, rhs - np.array(solution.row_value), result_check_bound(tol)):
        raise LpNumericalError("LP backend returned an optimal point that breaks the constraints")
    if model.objective is None:
        return LpOutcome(FEASIBLE, x)
    return LpOutcome(OPTIMAL, x, float(value))
