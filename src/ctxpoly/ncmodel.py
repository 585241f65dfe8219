"""Finite ontological models and the noncontextual-polytope membership test.

The ontic space used throughout is the complete finite one for a scenario:
every deterministic outcome assignment to the measurements that satisfies
the declared measurement equivalences exactly.  Noncontextuality of a
behavior is then a feasibility LP over preparation distributions on that
space.  Each preparation gets weights only on the support of its
preparation-equivalence component: one state per distinct response pattern
on the measurements the component touches (``model_columns``).  This is
exact, and it keeps the program of a block composite linear in its number
of blocks.  Only the right-hand sides of the membership and distance
programs depend on the behavior, so each scenario's states, columns and the
rows of both programs, column-wise as HiGHS takes them, are compiled once
(``model_program``) and kept in a small LRU keyed on the scenario's content,
together with the tolerance at which the scenario passed validation.
For the simplest scenario the same polytope is carried by eight tight
inequality functionals, which double as an independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lp import FEASIBLE, INFEASIBLE, LP_TOL, CompiledRows, LinearProgram, LpNumericalError, compile_rows, solve_lp
from .scenario import (
    Behavior,
    Scenario,
    ShapeMismatchError,
    ValidationReport,
    Violation,
    make_simplest_scenario,
    validate_behavior,
    validate_scenario,
)

#: Hard ceiling on enumerated deterministic assignments (ontic states or
#: behavior vertices).
ENUMERATION_CAP = 10**6

#: Equivalence weights are snapped to rationals with at most this denominator
#: before exact integer filtering.
WEIGHT_DENOMINATOR_CAP = 10**6

_CHUNK = 1 << 16


class CapExceededError(RuntimeError):
    """An enumeration would need more assignments than the configured cap."""


class UnsupportedScenarioError(ValueError):
    """The scenario falls outside what an operation can handle exactly."""


@dataclass(frozen=True)
class OnticState:
    """Deterministic response vector: entry i is the outcome assigned to measurement i."""

    responses: tuple[int, ...]


@dataclass
class NcModel:
    """A noncontextual ontological model: ontic states plus one distribution per preparation.

    ``mus[j, l]`` is the weight preparation j puts on ontic state l.
    """

    ontic_states: tuple[OnticState, ...]
    mus: np.ndarray

    def response_matrix(self) -> np.ndarray:
        return np.array([s.responses for s in self.ontic_states], dtype=int)

    def behavior(self, s: Scenario) -> Behavior:
        """The probability table this model reproduces (uniform filler on masked cells)."""
        resp = self.response_matrix()  # (L, I)
        indicators = np.stack(
            [(resp[:, i][:, None] == np.arange(s.n_outcomes)[None, :]) for i in range(s.n_meas)]
        ).astype(float)  # (I, L, K)
        probs = np.einsum("ilk,jl->ijk", indicators, self.mus)
        mask = s.physical_mask()
        probs[~mask] = 1.0 / s.n_outcomes
        return Behavior(probs, cell_mask=None if s.cell_mask is None else mask.copy())


@dataclass
class NcVerdict:
    """Outcome of the membership test: a model, or a witness of its impossibility.

    Exactly one of ``model`` / ``violated`` is populated.  ``violated`` is an
    inequality label when the scenario has a known tight set, otherwise the
    LP infeasibility status.
    """

    contextual: bool
    model: NcModel | None = None
    violated: str | None = None
    violation: float | None = None


@dataclass(frozen=True)
class Inequality:
    """Affine functional coeffs . B - constant; the behavior violates it when positive."""

    coeffs: np.ndarray
    constant: float
    label: str


@dataclass(frozen=True)
class InequalitySet:
    functionals: tuple[Inequality, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.functionals)

    def nontrivial(self) -> tuple[Inequality, ...]:
        return tuple(f for f in self.functionals if f.label.startswith("h"))


def _scaled_integer_weights(diff: np.ndarray) -> np.ndarray:
    """alpha - beta as exact integers after clearing rational denominators."""
    fracs = [Fraction(float(x)).limit_denominator(WEIGHT_DENOMINATOR_CAP) for x in diff]
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return np.array([int(f * denom) for f in fracs], dtype=object)


def _check_cap(s: Scenario, cap: int) -> None:
    total = s.n_outcomes**s.n_meas
    if total > cap:
        raise CapExceededError(
            f"ontic enumeration needs {total} response vectors, cap is {cap}"
        )


def enumerate_ontic_states(s: Scenario, cap: int = ENUMERATION_CAP) -> list[OnticState]:
    """All deterministic response vectors satisfying the measurement equivalences exactly.

    Lexicographic order.  Raises CapExceededError when |K|^|I| exceeds the cap.
    """
    _check_cap(s, cap)
    k, n = s.n_outcomes, s.n_meas
    keep = np.ones(k**n, dtype=bool)
    if s.meas_equivs:
        # Row r holds the base-k digits of r: column i runs through the
        # outcomes in runs of k**(n-1-i), so rows are in lexicographic order.
        responses = np.empty((k**n, n), dtype=np.min_scalar_type(k - 1))
        for i in range(n):
            responses[:, i] = np.tile(np.repeat(np.arange(k), k ** (n - 1 - i)), k**i)
    for equiv in s.meas_equivs:
        weights = _scaled_integer_weights(equiv.difference).reshape(n, k)
        # Exact integers: int64 when no partial sum can overflow it, Python
        # integers (object arrays) otherwise.
        if sum(max((abs(x) for x in row), default=0) for row in weights) < 2**63:
            weights = weights.astype(np.int64)
        residual = np.zeros(k**n, dtype=weights.dtype)
        for i in range(n):
            if any(weights[i]):
                residual += weights[i, responses[:, i]]
        keep &= residual == 0
    # Only the states that pass become objects; itertools.product yields the
    # same lexicographic order as the digit table.
    assignments = itertools.product(range(k), repeat=n)
    return list(map(OnticState, itertools.compress(assignments, keep.tolist())))


class ModelColumns(NamedTuple):
    """Variable layout of a noncontextual-model program.

    Column c is the weight preparation ``prep[c]`` puts on ontic state
    ``state[c]`` (an index into the enumerated states); ``slot[c]`` is that
    state's position in the support of the preparation's component and
    ``responses[c]`` its response vector.
    """

    prep: np.ndarray
    state: np.ndarray
    slot: np.ndarray
    responses: np.ndarray


def model_columns(s: Scenario, states: list[OnticState]) -> ModelColumns:
    """Give each preparation columns only on the support of its component.

    Preparation equivalences link preparations into components; nothing else
    in a model program couples two preparations.  The rows of a component
    read the ontic states only through the measurements its preparations
    touch physically, so one state per distinct projection onto those
    measurements suffices: the first in lexicographic order.  Moving every
    state's weight onto that representative keeps every normalization,
    preparation-equivalence and reproduction row, so the restricted program
    is feasible (and has the same optimum) exactly when the full one is.  A
    component that touches every measurement keeps all states, since
    distinct states have distinct projections.
    """
    resp = np.array([st.responses for st in states], dtype=int).reshape(len(states), s.n_meas)
    label = list(range(s.n_preps))
    for equiv in s.prep_equivs:
        linked = {label[j] for j in np.flatnonzero(equiv.difference).tolist()}
        label = [min(linked) if c in linked else c for c in label]
    mask = s.physical_mask()
    supports = {}
    for c in set(label):
        touched = np.flatnonzero(mask[:, np.equal(label, c)].any(axis=1))
        # Enumeration passed the cap, so K^|touched| codes fit in int64.
        codes = resp[:, touched] @ (s.n_outcomes ** np.arange(len(touched), dtype=np.int64))
        supports[c] = np.sort(np.unique(codes, return_index=True)[1])
    per_prep = [supports[c] for c in label]
    state = np.concatenate([np.zeros(0, dtype=int), *per_prep])
    return ModelColumns(
        prep=np.repeat(np.arange(s.n_preps), [len(sup) for sup in per_prep]),
        state=state,
        slot=np.concatenate([np.zeros(0, dtype=int), *(np.arange(len(sup)) for sup in per_prep)]),
        responses=resp[state],
    )


def model_rows(s: Scenario, columns: ModelColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows every noncontextual-model program shares, over ``columns``.

    Returns ``(balance, balance_rhs, reproduce, cells)``.  ``balance`` holds
    one normalization row per preparation, then one row per support state
    for each preparation equivalence; its right-hand side is 1 or 0.
    ``reproduce`` holds one row per physical cell (i, j) and outcome k, in
    that order; row . mu is the model's p(k|i,j), to be matched against
    ``behavior.probs.take(cells)``.
    """
    prep, slot = columns.prep, columns.slot
    norm = (prep[None, :] == np.arange(s.n_preps)[:, None]).astype(float)
    blocks = [norm]
    for equiv in s.prep_equivs:
        diff = equiv.difference
        cols = np.flatnonzero(diff[prep])  # columns of the preparations it weighs
        rows = np.zeros((slot[cols].max(initial=-1) + 1, len(prep)))
        rows[slot[cols], cols] = diff[prep[cols]]
        blocks.append(rows)
    balance = np.concatenate(blocks)
    balance_rhs = np.zeros(len(balance))
    balance_rhs[: s.n_preps] = 1.0

    cell_meas, cell_prep = np.nonzero(s.physical_mask())
    on_prep = prep[None, :] == cell_prep[:, None]  # (cells, cols)
    outcome = columns.responses[:, cell_meas].T  # (cells, cols)
    hits = on_prep[:, None, :] & (outcome[:, None, :] == np.arange(s.n_outcomes)[None, :, None])
    reproduce = hits.reshape(-1, len(prep)).astype(float)
    cells = np.ravel_multi_index(
        (cell_meas[:, None], cell_prep[:, None], np.arange(s.n_outcomes)[None, :]),
        (s.n_meas, s.n_preps, s.n_outcomes),
    ).reshape(-1)
    return balance, balance_rhs, reproduce, cells


def distance_rows(balance: np.ndarray, reproduce: np.ndarray, n_outcomes: int) -> tuple[np.ndarray, int]:
    """The rows of the distance program (``monotone.l1_distance``) over the
    model weights, one slack e[cell, k] per row of ``reproduce`` and, last,
    the largest cell deviation t; returns the rows and how many of them,
    first, are inequalities.

    The inequalities are ``e >= p - xi.mu`` and ``e >= xi.mu - p``
    interleaved per (cell, outcome), right-hand sides ``-p`` and ``p``, then
    ``sum_k e[cell, k] <= t`` for every physical cell, right-hand side 0.
    The equalities are ``balance``, padded with zeros.
    """
    n_mu = balance.shape[1]
    n_slack = len(reproduce)
    n_ineq = 2 * n_slack + n_slack // n_outcomes
    rows = np.zeros((n_ineq + len(balance), n_mu + n_slack + 1))
    rows[n_ineq:, :n_mu] = balance
    slack = n_mu + np.arange(n_slack)
    rows[0 : 2 * n_slack : 2, :n_mu] = -reproduce
    rows[1 : 2 * n_slack : 2, :n_mu] = reproduce
    rows[np.arange(2 * n_slack), np.repeat(slack, 2)] = -1.0
    rows[2 * n_slack + np.arange(n_slack) // n_outcomes, slack] = 1.0
    rows[2 * n_slack : n_ineq, -1] = -1.0
    return rows, n_ineq


class ModelProgram(NamedTuple):
    """Everything in a scenario's noncontextual-model programs that no
    behavior changes, compiled once by ``model_program``; its numpy arrays
    are read-only, and its matrices are kept only as HiGHS's own copies
    (``CompiledRows``).

    ``membership`` holds the membership program's rows, all equalities:
    ``balance`` (right-hand side ``balance_rhs``), then ``reproduce``, one
    row per entry of ``cells``, whose right-hand side is
    ``behavior.probs.take(cells)``.  ``distance`` holds the distance
    program's rows (``distance_rows``) and ``distance_objective`` its
    objective, the last column t.  ``scenario_tol`` is the tolerance at
    which the scenario passed ``validate_scenario`` before it was compiled.
    """

    states: tuple[OnticState, ...]
    columns: ModelColumns
    membership: CompiledRows
    distance: CompiledRows
    distance_objective: np.ndarray
    balance_rhs: np.ndarray
    cells: np.ndarray
    simplest: bool
    scenario_tol: float


def _compile(s: Scenario, tol: float, cap: int) -> ModelProgram:
    states = enumerate_ontic_states(s, cap=cap)
    columns = model_columns(s, states)
    balance, balance_rhs, reproduce, cells = model_rows(s, columns)
    distance = compile_rows(*distance_rows(balance, reproduce, s.n_outcomes))
    objective = np.zeros(distance.n_cols)
    objective[-1] = 1.0
    program = ModelProgram(
        states=tuple(states),
        columns=columns,
        membership=compile_rows(np.concatenate((balance, reproduce)), 0),
        distance=distance,
        distance_objective=objective,
        balance_rhs=balance_rhs,
        cells=cells,
        simplest=_is_simplest(s),
        scenario_tol=tol,
    )
    for array in (*columns, objective, balance_rhs, cells):
        array.flags.writeable = False
    return program


def _scenario_key(s: Scenario) -> tuple:
    """The scenario's content: counts, equivalence weights and cell mask as
    given.  Never its identity, since the arrays inside a Scenario can be
    changed in place.  Read from the fields, never computed from the counts,
    so that a scenario with a negative count reaches ``validate_scenario``."""
    equivs = lambda es: tuple((len(e), e.alpha.tobytes(), e.beta.tobytes()) for e in es)  # noqa: E731
    mask = s.cell_mask
    return (
        s.n_preps,
        s.n_meas,
        s.n_outcomes,
        equivs(s.prep_equivs),
        equivs(s.meas_equivs),
        None if mask is None else (mask.shape, mask.tobytes()),
    )


#: Most compiled programs kept at once.
PROGRAM_CACHE_SIZE = 4


class ProgramCache:
    """Thread-safe LRU of compiled programs, keyed on scenario content."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, ModelProgram] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> ModelProgram | None:
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self._entries.move_to_end(key)
            return program

    def put(self, key: tuple, program: ModelProgram) -> None:
        # Programs are compiled outside the lock: two threads may compile
        # the same scenario, and both get equal programs.
        with self._lock:
            self._entries[key] = program
            self._entries.move_to_end(key)
            while len(self._entries) > PROGRAM_CACHE_SIZE:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Compiled programs of the most recently decided scenarios.
PROGRAM_CACHE = ProgramCache()


def check_behavior(s: Scenario, behavior: Behavior | None, tol: float, cap: int) -> ModelProgram:
    """The input gate of the decision procedures, and the scenario's
    compiled program.

    Raises ValueError (or ShapeMismatchError) unless the scenario is valid
    and the behavior, when given, is valid in it; then CapExceededError when
    the enumeration exceeds ``cap``, whether the program is cached or not.
    The scenario goes first: the behavior checks index into its
    equivalences and mask.  A cached program skips the scenario check only
    at the exact tolerance its scenario passed it at: validity is not
    monotone in the tolerance, since an equivalence whose sides differ by
    1e-6 is valid at 1e-8 but trivial at 1e-5.
    """
    tol = max(tol, 1e-9)
    key = _scenario_key(s)
    program = PROGRAM_CACHE.get(key)
    if program is None or program.scenario_tol != tol:
        report = validate_scenario(s, tol=tol)
        if not report.ok:
            raise ValueError(f"scenario invalid: {report.summary()}")
    if behavior is not None:
        report = validate_behavior(s, behavior, tol=tol)
        if not report.ok:
            raise ValueError(f"behavior invalid in scenario: {report.summary()}")
    _check_cap(s, cap)
    if program is None:
        program = _compile(s, tol, cap)
        PROGRAM_CACHE.put(key, program)
    return program


def model_program(s: Scenario, cap: int = ENUMERATION_CAP) -> ModelProgram:
    """The compiled program of a scenario valid at ``LP_TOL``, from
    ``PROGRAM_CACHE`` when an equal scenario was compiled recently: the
    gate of ``check_behavior`` without a behavior."""
    return check_behavior(s, None, LP_TOL, cap)


def membership_program(program: ModelProgram, behavior: Behavior) -> LinearProgram:
    """Feasibility LP over the model weights of ``program``: normalization per
    preparation, preparation-equivalence rows per support state, and
    reproduction of every physical cell of ``behavior``."""
    lp = LinearProgram(len(program.columns.prep))
    lp.set_compiled_rows(program.membership, np.concatenate((program.balance_rhs, behavior.probs.take(program.cells))))
    return lp


def _is_simplest(s: Scenario) -> bool:
    reference = make_simplest_scenario().prep_equivs[0]
    if (
        (s.n_preps, s.n_meas, s.n_outcomes) != (4, 2, 2)
        or s.meas_equivs
        or len(s.prep_equivs) != 1
        or not bool(np.all(s.physical_mask()))
    ):
        return False
    equiv = s.prep_equivs[0]
    same = np.allclose(equiv.alpha, reference.alpha) and np.allclose(equiv.beta, reference.beta)
    # An equivalence states indistinguishability, so the sides are exchangeable.
    swapped = np.allclose(equiv.alpha, reference.beta) and np.allclose(equiv.beta, reference.alpha)
    return same or swapped


def is_noncontextual(
    s: Scenario, behavior: Behavior, tol: float = LP_TOL, cap: int = ENUMERATION_CAP
) -> NcVerdict:
    """Decide membership of the behavior in the noncontextual polytope.

    Raises ValueError when the behavior is not valid in the scenario.
    Noncontextual: returns the explicit model found by the LP, over every
    enumerated ontic state (zero off each preparation's component support,
    see ``model_columns``).  Contextual: for the simplest scenario the
    verdict names the first violated tight inequality; otherwise it reports
    the LP infeasibility.  The scenario's program is compiled once and
    reused (``model_program``); results do not depend on whether it was.
    """
    program = check_behavior(s, behavior, tol, cap)
    outcome = solve_lp(membership_program(program, behavior), tol=tol)
    if outcome.status == FEASIBLE:
        mus = np.zeros((s.n_preps, len(program.states)))
        mus[program.columns.prep, program.columns.state] = outcome.x
        return NcVerdict(contextual=False, model=NcModel(program.states, mus))
    if outcome.status != INFEASIBLE:
        raise LpNumericalError(f"membership LP returned {outcome.status}")
    if program.simplest:
        ineqs = simplest_scenario_inequalities()
        values = evaluate_inequalities(ineqs, behavior)
        for functional, value in zip(ineqs.functionals, values):
            if value > tol:
                return NcVerdict(contextual=True, violated=functional.label, violation=float(value))
    return NcVerdict(contextual=True, violated="lp-infeasible")


def validate_nc_model(
    s: Scenario, behavior: Behavior, model: NcModel, tol: float = LP_TOL
) -> ValidationReport:
    """Re-check a model by direct substitution, independently of the LP."""
    out: list[Violation] = []
    mus = model.mus
    if mus.min(initial=0.0) < -tol:
        out.append(Violation("mu-negative", float(-mus.min()), ()))
    norm_gap = np.abs(mus.sum(axis=1) - 1.0)
    if norm_gap.max(initial=0.0) > tol:
        out.append(Violation("mu-not-normalized", float(norm_gap.max()), (int(np.argmax(norm_gap)),)))
    for a, equiv in enumerate(s.prep_equivs):
        residual = equiv.difference @ mus  # (L,)
        worst = float(np.abs(residual).max(initial=0.0))
        if worst > tol:
            out.append(Violation(f"model-prep-equivalence-{a}", worst, ()))
    weights = [
        _scaled_integer_weights(e.difference).reshape(s.n_meas, s.n_outcomes)
        for e in s.meas_equivs
    ]
    for b, w in enumerate(weights):
        for state in model.ontic_states:
            if sum(w[i, k] for i, k in enumerate(state.responses)) != 0:
                out.append(Violation(f"state-meas-equivalence-{b}", 1.0, state.responses))
    reproduced = model.behavior(s)
    mask = s.physical_mask()
    gap = np.abs(reproduced.probs - behavior.probs)[mask]
    if gap.max(initial=0.0) > tol:
        out.append(Violation("reproduction", float(gap.max()), ()))
    return ValidationReport(tuple(out))


# --------------------------------------------------------------------------
# Vertex enumeration for scenarios with integral behavior-polytope vertices.
# --------------------------------------------------------------------------


def _check_integral_vertex_support(s: Scenario) -> None:
    """Guard for vertex enumeration: every equivalence difference must use a
    single weight magnitude and distinct equivalences must touch disjoint
    procedures, which makes the constraint system totally unimodular at K=2
    and keeps all polytope vertices at 0/1 points."""
    for kind, equivs in (("prep", s.prep_equivs), ("meas", s.meas_equivs)):
        supports: list[set[int]] = []
        for e in equivs:
            w = _scaled_integer_weights(e.difference)
            magnitudes = {abs(int(x)) for x in w if x != 0}
            if len(magnitudes) > 1:
                raise UnsupportedScenarioError(
                    f"{kind} equivalence mixes weight magnitudes; vertices may be fractional"
                )
            support = {idx for idx, x in enumerate(w) if x != 0}
            if any(support & other for other in supports):
                raise UnsupportedScenarioError(
                    f"overlapping {kind} equivalences; vertices may be fractional"
                )
            supports.append(support)


def enumerate_behavior_vertices(s: Scenario, cap: int = ENUMERATION_CAP) -> list[Behavior]:
    """All 0/1 behaviors satisfying every equivalence exactly, in lexicographic
    order of the per-cell outcome assignment.

    For the supported scenarios these are exactly the vertices of the full
    behavior polytope.  Masked cells take the uniform filler and do not
    contribute assignment freedom.
    """
    _check_integral_vertex_support(s)
    mask = s.physical_mask()
    cells = [(i, j) for i in range(s.n_meas) for j in range(s.n_preps) if mask[i, j]]
    n_cells = len(cells)
    k = s.n_outcomes
    total = k**n_cells
    if total > cap:
        raise CapExceededError(f"vertex enumeration needs {total} assignments, cap is {cap}")

    cell_index = {cell: c for c, cell in enumerate(cells)}

    # Integer-scaled residual tests.  For a preparation equivalence the row at
    # (i, k) is sum_j w_j p[i, j, k]; scaling by K turns the uniform filler on
    # masked cells into the constant w_j.
    prep_tests = []  # (i, k, [(cell col, K*w_j)], const)
    for equiv in s.prep_equivs:
        w = _scaled_integer_weights(equiv.difference)
        for i in range(s.n_meas):
            terms = [(cell_index[(i, j)], int(w[j]) * k) for j in range(s.n_preps) if w[j] != 0 and mask[i, j]]
            const = sum(int(w[j]) for j in range(s.n_preps) if w[j] != 0 and not mask[i, j])
            for kk in range(k):
                prep_tests.append((kk, terms, const))
    meas_tests = []  # per j: ([(cell col, row of K*w over outcomes)], const)
    for equiv in s.meas_equivs:
        w = _scaled_integer_weights(equiv.difference).reshape(s.n_meas, s.n_outcomes)
        for j in range(s.n_preps):
            terms = [
                (cell_index[(i, j)], np.array([int(x) * k for x in w[i]], dtype=np.int64))
                for i in range(s.n_meas)
                if mask[i, j] and any(x != 0 for x in w[i])
            ]
            const = sum(int(x) for i in range(s.n_meas) if not mask[i, j] for x in w[i])
            meas_tests.append((terms, const))

    powers = k ** np.arange(n_cells - 1, -1, -1, dtype=np.int64)
    survivors: list[np.ndarray] = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        codes = np.arange(start, stop, dtype=np.int64)
        assign = (codes[:, None] // powers[None, :]) % k  # ((chunk), n_cells)
        keep = np.ones(stop - start, dtype=bool)
        for kk, terms, const in prep_tests:
            residual = np.full(stop - start, const, dtype=np.int64)
            for col, weight in terms:
                residual += weight * (assign[:, col] == kk)
            keep &= residual == 0
        for terms, const in meas_tests:
            residual = np.full(stop - start, const, dtype=np.int64)
            for col, row_weights in terms:
                residual += row_weights[assign[:, col]]
            keep &= residual == 0
        survivors.append(assign[keep])

    uniform = 1.0 / k
    vertices: list[Behavior] = []
    template = np.full((s.n_meas, s.n_preps, k), uniform)
    template[mask] = 0.0
    for assign in np.concatenate(survivors, axis=0):
        probs = template.copy()
        for c, (i, j) in enumerate(cells):
            probs[i, j, int(assign[c])] = 1.0
        vertices.append(Behavior(probs, cell_mask=None if s.cell_mask is None else mask.copy()))
    return vertices


# --------------------------------------------------------------------------
# Tight inequalities of the simplest scenario.
# --------------------------------------------------------------------------

# Each entry is (label, [(measurement, preparation, sign), ...]) acting on the
# outcome-1 slice of the behavior; the offset is 1 for all eight.  Indices are
# 1-based to match the usual p_ij shorthand.
_SIMPLEST_FACETS = (
    ("h1", ((1, 2, +1), (2, 2, +1), (1, 4, -1), (2, 3, -1))),
    ("h2", ((1, 2, +1), (2, 2, +1), (1, 3, -1), (2, 4, -1))),
    ("h3", ((2, 2, +1), (1, 3, +1), (1, 2, -1), (2, 4, -1))),
    ("h4", ((1, 2, +1), (2, 3, +1), (2, 2, -1), (1, 4, -1))),
    ("h5", ((2, 2, +1), (1, 4, +1), (1, 2, -1), (2, 3, -1))),
    ("h6", ((2, 3, +1), (1, 4, +1), (1, 2, -1), (2, 2, -1))),
    ("h7", ((1, 2, +1), (2, 4, +1), (2, 2, -1), (1, 3, -1))),
    ("h8", ((1, 3, +1), (2, 4, +1), (2, 2, -1), (1, 2, -1))),
)


@functools.cache
def simplest_scenario_inequalities() -> InequalitySet:
    """The eight tight nontrivial functionals h1..h8 of the simplest scenario,
    followed by the sixteen trivial bounds 0 <= p_ij <= 1.

    Values are affine in the behavior: h(B) = coeffs . B - constant, and the
    noncontextual polytope is exactly {valid B : all values <= 0}.  Built
    once; every call returns the same set, whose coefficient arrays are
    read-only.
    """
    functionals: list[Inequality] = []
    for label, terms in _SIMPLEST_FACETS:
        coeffs = np.zeros((2, 4, 2))
        for i, j, sign in terms:
            coeffs[i - 1, j - 1, 1] = sign
        functionals.append(Inequality(coeffs, 1.0, label))
    for i in range(1, 3):
        for j in range(1, 5):
            up = np.zeros((2, 4, 2))
            up[i - 1, j - 1, 1] = 1.0
            functionals.append(Inequality(up, 1.0, f"p{i}{j}<=1"))
            functionals.append(Inequality(-up, 0.0, f"p{i}{j}>=0"))
    for functional in functionals:
        functional.coeffs.flags.writeable = False
    return InequalitySet(tuple(functionals))


def evaluate_inequalities(ineqs: InequalitySet, behavior: Behavior) -> np.ndarray:
    """Vector of functional values; entry > tol means the inequality is violated."""
    coeffs = np.stack([functional.coeffs for functional in ineqs.functionals])
    if coeffs.shape[1:] != behavior.probs.shape:
        raise ShapeMismatchError(
            f"inequality expects behavior of shape {coeffs.shape[1:]}, got {behavior.probs.shape}"
        )
    constants = np.array([functional.constant for functional in ineqs.functionals])
    return np.tensordot(coeffs, behavior.probs, axes=3) - constants
