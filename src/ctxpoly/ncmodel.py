"""Finite ontological models and the noncontextual-polytope membership test.

The ontic space used throughout is the complete finite one for a scenario:
every deterministic outcome assignment to the measurements that satisfies
the declared measurement equivalences exactly.  It is complete only when
every response function the measurement equivalences admit is a mixture of
deterministic ones; the decision procedures refuse every other scenario
(``_check_deterministic_responses``).  Noncontextuality of a
behavior is then a feasibility LP over preparation distributions on that
space.  Each preparation-equivalence component gets weights only on its
support: one state per distinct response pattern on the measurements the
component touches.  On each such state its preparations' weights form a
vector of the cone the equivalences cut from the orthant, so the program
weighs the cone's extreme rays (``equivalence_rays``) instead of the
preparations: one column per (ray, state), and no equivalence rows
(``model_columns``).  Both are exact, and they keep the program of a block
composite linear in its number of blocks.  Each column's entries are known
from its ray and state, so both programs' rows are built column by column
in HiGHS's layout, with no dense matrix (``model_rows``).  Only the
right-hand sides of the membership and distance programs depend on the
behavior, so each scenario's states, columns and both programs, in HiGHS's
model form but for their right-hand sides, are compiled once
(``model_program``) and kept in a small LRU keyed on the scenario's
content, together with the tolerance at which the scenario passed
validation.  Each compiled program in turn keeps the membership outcomes of
the last few behaviors decided on it, keyed on their cells and the LP
tolerance (``membership_outcome``): one membership decision serves both the
verdict and the distance (``monotone.l1_distance``), which is 0.0 exactly
when the verdict is noncontextual.
For the simplest scenario the same polytope is carried by eight tight
inequality functionals, which double as an independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .lp import FEASIBLE, INFEASIBLE, LP_TOL, CompiledLp, CompiledRows, LinearProgram, LpNumericalError
from .lp import LpOutcome, compile_lp, solve_lp
from .scenario import (
    Behavior,
    EquivalenceVector,
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


_ONTIC_NEEDS = "ontic enumeration needs {} response vectors"
_VERTEX_NEEDS = "vertex enumeration needs {} assignments"


def _check_cap(total: int, cap: int, needs: str) -> None:
    if total > cap:
        raise CapExceededError(f"{needs.format(total)}, cap is {cap}")


def _exact_words(
    k: int, n: int, tests: list[tuple[np.ndarray, int]], cap: int, needs: str
) -> Iterator[tuple[int, ...]]:
    """Every word in ``range(k)**n``, in lexicographic order, that passes
    every test ``(weights, const)``: ``const + sum_c weights[c, word[c]] ==
    0`` in exact integers, for an (n, k) table of Python integers.

    Raises CapExceededError (message ``needs`` filled with k**n) when k**n
    exceeds the cap.
    """
    total = k**n
    _check_cap(total, cap, needs)
    keep = np.ones(total, dtype=bool)
    if tests:
        # digits[c, r] is digit c of the word numbered r in lexicographic order.
        digits = np.indices((k,) * n, dtype=np.min_scalar_type(k - 1)).reshape(n, total)
    for weights, const in tests:
        # Exact integers: int64 when no partial sum can overflow it, Python
        # integers (object arrays) otherwise.
        if abs(const) + np.abs(weights).max(axis=1, initial=0).sum() < 2**63:
            weights = weights.astype(np.int64)
        residual = np.full(total, const, dtype=weights.dtype)
        for c in np.flatnonzero(weights.any(axis=1)).tolist():
            residual += weights[c, digits[c]]
        keep &= residual == 0
    # Only the words that pass become tuples; itertools.product yields the
    # same lexicographic order as the digit table.
    return itertools.compress(itertools.product(range(k), repeat=n), keep.tolist())


def enumerate_ontic_states(s: Scenario, cap: int = ENUMERATION_CAP) -> list[OnticState]:
    """All deterministic response vectors satisfying the measurement equivalences exactly.

    Lexicographic order.  Raises CapExceededError when |K|^|I| exceeds the cap.
    """
    tests = [(_scaled_integer_weights(e.difference).reshape(s.n_meas, s.n_outcomes), 0) for e in s.meas_equivs]
    return list(map(OnticState, _exact_words(s.n_outcomes, s.n_meas, tests, cap, _ONTIC_NEEDS)))


#: Below this, a ray's value on an equivalence counts as zero in
#: ``equivalence_rays``: far above the rounding of its float arithmetic, far
#: below ``LP_TOL``, so a ray kept on it meets the equivalence well within
#: the tolerance a solve honours.
RAY_ZERO_TOL = 1e-12


def equivalence_rays(diffs: list[np.ndarray], n: int) -> list[tuple[float, ...]]:
    """The extreme rays of the cone {v >= 0 in R^n : d . v = 0 for every d in
    ``diffs``}, each scaled to largest entry 1, in descending lexicographic
    order of their supports.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996): start
    from the unit vectors, the extreme rays of the orthant.  Each equation
    keeps the rays it vanishes on and adds ``v_p r_n - v_n r_p`` for every
    ray r_p it makes positive and r_n it makes negative.  Then every ray whose
    support strictly contains another's is dropped: a vector of such a cone
    is extreme exactly when no other has a smaller support, and an extreme
    support carries one ray up to scale.

    The arithmetic is in floats, on the equivalences as given, with values
    within ``RAY_ZERO_TOL`` of 0 counted as 0.  Supports are still exact: a
    combination of two nonnegative rays with positive coefficients is
    nonzero exactly on the union of their supports.
    """
    rays = {1 << p: tuple(float(i == p) for i in range(n)) for p in range(n)}  # keyed on support
    for diff in diffs:
        d = diff.tolist()
        values = {sup: sum(map(operator.mul, d, ray)) for sup, ray in rays.items()}
        kept = {sup: ray for sup, ray in rays.items() if abs(values[sup]) <= RAY_ZERO_TOL}
        pos = [(sup, ray, values[sup]) for sup, ray in rays.items() if values[sup] > RAY_ZERO_TOL]
        neg = [(sup, ray, values[sup]) for sup, ray in rays.items() if values[sup] < -RAY_ZERO_TOL]
        for s_p, r_p, v_p in pos:
            for s_n, r_n, v_n in neg:
                ray = [v_p * a - v_n * b for a, b in zip(r_n, r_p)]
                top = max(ray)
                kept.setdefault(s_p | s_n, tuple(a / top for a in ray))
        rays = {
            sup: ray for sup, ray in kept.items()
            if not any(other != sup and other & sup == other for other in kept)
        }
    return [rays[sup] for sup in sorted(rays, key=lambda sup: [sup >> i & 1 for i in range(n)], reverse=True)]


def _components(n: int, supports: list[np.ndarray]) -> list[np.ndarray]:
    """The classes of ``range(n)`` that ``supports`` link (the indices of one
    support share a class), each sorted, in order of their first index."""
    label = list(range(n))
    for support in supports:
        linked = {label[j] for j in support.tolist()}
        label = [min(linked) if c in linked else c for c in label]
    return [np.flatnonzero(np.equal(label, c)) for c in sorted(set(label))]


def _check_deterministic_responses(s: Scenario) -> None:
    """Raise UnsupportedScenarioError when the measurement equivalences admit
    a response function that is not deterministic.

    A group of measurements linked by measurement equivalences has as its
    response functions the points xi >= 0 with sum_k xi[i, k] = 1 for each
    measurement i that meet the group's equivalences.  The ontic space holds
    only the deterministic ones (``enumerate_ontic_states``), which is exact
    only when every vertex of that polytope is a 0/1 point.  Its vertices
    are the extreme rays of the homogenized cone, with rows
    ``sum_k xi[i, k] - t = 0`` and ``d . xi = 0`` for each equivalence's
    difference d as given (``equivalence_rays``), divided by t.
    """
    k = s.n_outcomes
    diffs = [e.difference for e in s.meas_equivs]
    for group in _components(s.n_meas, [np.flatnonzero(diff) // k for diff in diffs]):
        events = (group[:, None] * k + np.arange(k)).ravel()
        on = [np.append(diff[events], 0.0) for diff in diffs if diff[events].any()]
        if not on:
            continue
        sums = np.zeros((len(group), len(events) + 1))
        sums[np.arange(len(group)).repeat(k), np.arange(len(events))] = 1.0
        sums[:, -1] = -1.0
        for ray in equivalence_rays([*sums, *on], len(events) + 1):
            vertex = np.array(ray[:-1]) / ray[-1]
            if not (np.minimum(np.abs(vertex), np.abs(vertex - 1.0)) <= RAY_ZERO_TOL).all():
                raise UnsupportedScenarioError(
                    f"measurements {group.tolist()} admit a response function that is not deterministic "
                    "under their measurement equivalences; the ontic space holds only deterministic ones"
                )


class ModelColumns(NamedTuple):
    """Variable layout of a noncontextual-model program.

    ``rays[r]`` is an extreme ray of a preparation-equivalence component's
    cone (``model_columns``), one weight per preparation, largest entry 1.
    Column c is the weight x put on the pair (ray ``ray[c]``, ontic state
    ``state[c]``), an index into the enumerated states; it gives preparation
    j the weight ``rays[ray[c], j] * x`` on that state.  ``responses[c]`` is
    the state's response vector.  These fix every entry of the column in
    both programs (``model_rows``).
    """

    rays: np.ndarray
    ray: np.ndarray
    state: np.ndarray
    responses: np.ndarray


def model_columns(s: Scenario, states: list[OnticState]) -> ModelColumns:
    """One column per extreme ray of each component's equivalence cone and
    state of the component's support.

    Preparation equivalences link preparations into components; nothing else
    in a model program couples two preparations.  The rows of a component
    read the ontic states only through the measurements its preparations
    touch physically, so one state per distinct projection onto those
    measurements suffices: the first in lexicographic order.  Moving every
    state's weight onto that representative keeps every normalization,
    preparation-equivalence and reproduction constraint, so the restricted
    program is feasible (and has the same optimum) exactly when the full one
    is.  A component that touches every measurement keeps all states, since
    distinct states have distinct projections.

    On each support state, the component's weights (mu_j)_j form a vector of
    the cone {v >= 0 : d . v = 0 for each equivalence's difference d}.
    Every such vector is a nonnegative combination of the cone's extreme
    rays (``equivalence_rays``), so a weight per (ray, state) replaces a
    weight per (preparation, state) and the equivalences hold by
    construction.  Each ray is scaled to largest entry 1; a preparation in
    no equivalence is a component whose one ray is its unit vector.
    """
    resp = np.array([st.responses for st in states], dtype=int).reshape(len(states), s.n_meas)
    diffs = [e.difference for e in s.prep_equivs]
    mask = s.physical_mask()
    rays, ray_states = [], []
    for preps in _components(s.n_preps, [np.flatnonzero(diff) for diff in diffs]):
        touched = np.flatnonzero(mask[:, preps].any(axis=1))
        # Enumeration passed the cap, so K^|touched| codes fit in int64.
        codes = resp[:, touched] @ (s.n_outcomes ** np.arange(len(touched), dtype=np.int64))
        support = np.sort(np.unique(codes, return_index=True)[1])
        on = [diff[preps] for diff in diffs if diff[preps].any()]
        for ray in equivalence_rays(on, len(preps)):
            full = np.zeros(s.n_preps)
            full[preps] = ray
            rays.append(full)
            ray_states.append(support)
    state = np.concatenate([np.zeros(0, dtype=int), *ray_states])
    return ModelColumns(
        rays=np.array(rays),
        ray=np.repeat(np.arange(len(rays)), [len(sup) for sup in ray_states]),
        state=state,
        responses=resp[state],
    )


def model_rows(s: Scenario, columns: ModelColumns) -> tuple[CompiledRows, CompiledRows, np.ndarray]:
    """Both programs' rows over ``columns``, built column by column, and the
    behavior entries they reproduce: ``(membership, distance, cells)``.

    The membership rows are equalities: one normalization row per
    preparation j (right-hand side 1), then one reproduction row per
    physical cell (i, j) and outcome k, whose right-hand side is
    ``behavior.probs.take(cells)``.  A (ray, state) column has the ray's
    weight on j in row j and in the row of each cell (i, j) at the outcome
    its state answers to i.  No row states an equivalence: the rays meet
    them.  The distance columns are [x | e+ | e- | t]: one inequality per
    physical cell, ``sum_k (e+ + e-)[cell, k] - t <= 0``, precedes the
    membership rows, each reproduction row now ``xi.x + e+ - e- = p``.
    """
    k, n_preps = s.n_outcomes, s.n_preps
    cell_meas, cell_prep = np.nonzero(s.physical_mask())
    n_cells = len(cell_meas)
    n_slack = n_cells * k
    # Column c's candidate entries, in increasing row order: its ray's weight
    # on each preparation (normalization row j), then on each physical
    # cell's preparation (that cell's reproduction row at the outcome c's
    # state answers).  The nonzero ones are its entries.
    weight = columns.rays[:, np.concatenate((np.arange(n_preps), cell_prep))]
    col, slot = np.nonzero((weight != 0)[columns.ray])
    value = weight[columns.ray[col], slot]
    index = slot.copy()
    reproduce = slot >= n_preps
    cell = slot[reproduce] - n_preps
    index[reproduce] = n_preps + k * cell + columns.responses[col[reproduce], cell_meas[cell]]
    start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=len(columns.ray)))))
    membership = CompiledRows.from_colwise(n_preps + n_slack, 0, start, index, value)
    # Below the cell rows, e+ and e- of reproduction row r have an entry in
    # its cell's row and in r; t has -1 in every cell row.
    slack = np.arange(n_slack)
    pair = np.stack((slack // k, n_cells + n_preps + slack), axis=1).ravel()
    distance = CompiledRows.from_colwise(
        n_cells + n_preps + n_slack,
        n_cells,
        np.concatenate((start, start[-1] + 2 * np.arange(1, 2 * n_slack + 1), [start[-1] + 4 * n_slack + n_cells])),
        np.concatenate((index + n_cells, pair, pair, np.arange(n_cells))),
        np.concatenate((value, np.ones(2 * n_slack), np.tile([1.0, -1.0], n_slack), np.full(n_cells, -1.0))),
    )
    cells = ((cell_meas * n_preps + cell_prep)[:, None] * k + np.arange(k)).ravel()
    return membership, distance, cells


class ModelProgram(NamedTuple):
    """Everything in a scenario's noncontextual-model programs that no
    behavior changes, compiled once by ``model_program``: both programs in
    HiGHS's model form (``CompiledLp``), all but their right-hand sides.
    Its numpy arrays are read-only, and its matrices are kept only as
    HiGHS's own copies.

    ``membership`` is the feasibility program over the (ray, state) weights
    of ``columns``, and ``distance`` the distance program, minimizing its
    last column t; ``model_rows`` builds both.  Their right-hand side is a
    zero per inequality, a one per preparation, then
    ``behavior.probs.take(cells)`` (``membership_program``).
    ``scenario_tol`` is the tolerance at which the scenario passed
    ``validate_scenario`` before it was compiled.  ``outcomes`` memoizes
    the membership outcomes of the last behaviors decided on it
    (``membership_outcome``); it is the one part that changes after
    compiling, and it lives and dies with the program.
    """

    states: tuple[OnticState, ...]
    columns: ModelColumns
    membership: CompiledLp
    distance: CompiledLp
    cells: np.ndarray
    simplest: bool
    scenario_tol: float
    outcomes: LruCache


def _compile(s: Scenario, tol: float, cap: int) -> ModelProgram:
    states = enumerate_ontic_states(s, cap=cap)
    columns = model_columns(s, states)
    membership, distance, cells = model_rows(s, columns)
    objective = np.zeros(distance.n_cols)
    objective[-1] = 1.0
    for array in (*columns, cells):
        array.flags.writeable = False
    return ModelProgram(
        states=tuple(states),
        columns=columns,
        membership=compile_lp(membership),
        distance=compile_lp(distance, objective),
        cells=cells,
        simplest=_is_simplest(s),
        scenario_tol=tol,
        outcomes=LruCache(OUTCOME_MEMO_SIZE),
    )


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

#: Most membership outcomes each compiled program keeps
#: (``membership_outcome``).  More than one: a free operation's image often
#: compiles to its source's program, and a workload that decides a source
#: and its image, then takes both distances, would find one slot refilled.
OUTCOME_MEMO_SIZE = 4


class LruCache:
    """Thread-safe LRU of at most ``size`` entries, keyed on content."""

    def __init__(self, size: int) -> None:
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._size = size
        self._lock = threading.Lock()

    def get(self, key: tuple):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value: object) -> None:
        # Values are computed outside the lock: two threads may compute the
        # same key, and both get equal values.
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Compiled programs of the most recently decided scenarios.
PROGRAM_CACHE = LruCache(PROGRAM_CACHE_SIZE)


def _check_scenario(s: Scenario, tol: float) -> None:
    """The check of every procedure that reads a scenario: ``validate_scenario``
    at ``tol``, at least 1e-9, raising ValueError on failure."""
    report = validate_scenario(s, tol=max(tol, 1e-9))
    if not report.ok:
        raise ValueError(f"scenario invalid: {report.summary()}")


def _check_table(kind: str, behavior: Behavior, tol: float) -> None:
    """``validate_behavior`` at ``tol``, at least 1e-9, in a scenario of the
    table's counts and no equivalences (finite entries in [0, 1], summing to
    1 per cell), raising ValueError naming the table ``kind`` on failure."""
    n_meas, n_preps, n_outcomes = behavior.probs.shape
    report = validate_behavior(Scenario(n_preps, n_meas, n_outcomes), behavior, tol=max(tol, 1e-9))
    if not report.ok:
        raise ValueError(f"{kind} invalid: {report.summary()}")


def check_behavior(s: Scenario, behavior: Behavior | None, tol: float, cap: int) -> ModelProgram:
    """The input gate of the decision procedures, and the scenario's
    compiled program.

    Raises ValueError (or ShapeMismatchError) unless the scenario is valid
    and the behavior, when given, is valid in it; then CapExceededError when
    the enumeration exceeds ``cap``, whether the program is cached or not;
    then, before compiling, UnsupportedScenarioError when the measurement
    equivalences admit a response function that is not deterministic
    (``_check_deterministic_responses``).
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
        _check_scenario(s, tol)
    if behavior is not None:
        report = validate_behavior(s, behavior, tol=tol)
        if not report.ok:
            raise ValueError(f"behavior invalid in scenario: {report.summary()}")
    _check_cap(s.n_outcomes**s.n_meas, cap, _ONTIC_NEEDS)
    if program is None:
        _check_deterministic_responses(s)
        program = _compile(s, tol, cap)
        PROGRAM_CACHE.put(key, program)
    return program


def model_program(s: Scenario, cap: int = ENUMERATION_CAP) -> ModelProgram:
    """The compiled program of a scenario valid at ``LP_TOL``, from
    ``PROGRAM_CACHE`` when an equal scenario was compiled recently: the
    gate of ``check_behavior`` without a behavior."""
    return check_behavior(s, None, LP_TOL, cap)


def _program(model: CompiledLp, program: ModelProgram, behavior: Behavior) -> LinearProgram:
    """The LP of ``model`` with the one right-hand side both programs share:
    a zero per inequality, a one per preparation, then the behavior's cells."""
    rhs = np.concatenate((np.zeros(model.rows.n_ineq), np.ones(behavior.n_preps), behavior.probs.take(program.cells)))
    return LinearProgram.from_compiled(model, rhs)


def membership_program(program: ModelProgram, behavior: Behavior) -> LinearProgram:
    """Feasibility LP over the (ray, state) weights of ``program``
    (``model_rows``): normalization per preparation and reproduction of
    every physical cell of ``behavior``."""
    return _program(program.membership, program, behavior)


def distance_program(program: ModelProgram, behavior: Behavior) -> LinearProgram:
    """The distance LP of ``behavior`` (``monotone.l1_distance``): the
    membership program plus slack columns and a row per cell (``model_rows``)."""
    return _program(program.distance, program, behavior)


def membership_outcome(program: ModelProgram, behavior: Behavior, tol: float) -> LpOutcome:
    """The outcome of the membership LP of ``behavior`` solved at ``tol``,
    FEASIBLE or INFEASIBLE, from ``program.outcomes`` when an equal one was
    solved recently, else solved and stored there; its ``x`` is read-only.

    The key is the behavior's cells, byte for byte, and ``tol``: every other
    number of the LP is the program's.  ``solve_lp`` is deterministic, so a
    stored outcome is the one a new solve would return, bit for bit.  Raises
    LpNumericalError for any other status.
    """
    key = (behavior.probs.take(program.cells).tobytes(), tol)
    outcome = program.outcomes.get(key)
    if outcome is None:
        outcome = solve_lp(membership_program(program, behavior), tol=tol)
        if outcome.status not in (FEASIBLE, INFEASIBLE):
            raise LpNumericalError(f"membership LP returned {outcome.status}")
        if outcome.x is not None:
            outcome.x.flags.writeable = False
        program.outcomes.put(key, outcome)
    return outcome


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
    enumerated ontic state: mus[j, state] sums each ray's weight on j times
    its column's value (zero off each preparation's component support, see
    ``model_columns``).  Contextual: for the simplest scenario the
    verdict names the first violated tight inequality; otherwise it reports
    the LP infeasibility.  The scenario's program is compiled once and
    reused (``model_program``), and so is the LP's outcome for a behavior
    decided recently at the same ``tol`` (``membership_outcome``); results
    do not depend on either, and every call returns a fresh verdict.
    """
    program = check_behavior(s, behavior, tol, cap)
    outcome = membership_outcome(program, behavior, tol)
    if outcome.status == FEASIBLE:
        columns, n_states = program.columns, len(program.states)
        # mus[j, state] sums rays[ray, j] * x over the columns on that state.
        index = np.arange(s.n_preps)[:, None] * n_states + columns.state
        weight = columns.rays[columns.ray].T * outcome.x
        mus = np.bincount(index.ravel(), weight.ravel(), s.n_preps * n_states).reshape(s.n_preps, n_states)
        return NcVerdict(contextual=False, model=NcModel(program.states, mus))
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
    resp = model.response_matrix().reshape(len(model.ontic_states), s.n_meas)
    for b, equiv in enumerate(s.meas_equivs):
        w = _scaled_integer_weights(equiv.difference).reshape(s.n_meas, s.n_outcomes)
        # Exact Python integers: state l scores sum_i w[i, resp[l, i]].
        scores = w[np.arange(s.n_meas), resp].sum(axis=1, initial=0)
        for l in np.flatnonzero(scores != 0).tolist():
            out.append(Violation(f"state-meas-equivalence-{b}", 1.0, model.ontic_states[l].responses))
    reproduced = model.behavior(s)
    mask = s.physical_mask()
    gap = np.abs(reproduced.probs - behavior.probs)[mask]
    if gap.max(initial=0.0) > tol:
        out.append(Violation("reproduction", float(gap.max()), ()))
    return ValidationReport(tuple(out))


# --------------------------------------------------------------------------
# Vertex enumeration for scenarios with integral behavior-polytope vertices.
# --------------------------------------------------------------------------


def _integral_vertex_weights(kind: str, equivs: tuple[EquivalenceVector, ...]) -> list[np.ndarray]:
    """Each equivalence's scaled integer weights, after the guard for vertex
    enumeration: every equivalence difference must use a single weight
    magnitude and distinct equivalences must touch disjoint procedures, which
    makes the constraint system totally unimodular at K=2 and keeps all
    polytope vertices at 0/1 points."""
    weights = [_scaled_integer_weights(e.difference) for e in equivs]
    supports: list[set[int]] = []
    for w in weights:
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
    return weights


def enumerate_behavior_vertices(s: Scenario, cap: int = ENUMERATION_CAP) -> list[Behavior]:
    """All 0/1 behaviors satisfying every equivalence exactly, in lexicographic
    order of the per-cell outcome assignment.

    For the supported scenarios these are exactly the vertices of the full
    behavior polytope.  Masked cells take the uniform filler and do not
    contribute assignment freedom.  Raises ValueError unless the scenario is
    valid at ``LP_TOL``, the decision procedures' default, then
    UnsupportedScenarioError, then CapExceededError.
    """
    return _vertices(s, LP_TOL, cap)


def _vertices(s: Scenario, tol: float, cap: int = ENUMERATION_CAP) -> list[Behavior]:
    """``enumerate_behavior_vertices`` with the scenario checked at ``tol``, at
    least 1e-9 as in ``check_behavior``; ``ctx vertices`` passes its ``--tolerance``."""
    _check_scenario(s, tol)
    prep_weights = _integral_vertex_weights("prep", s.prep_equivs)
    meas_weights = _integral_vertex_weights("meas", s.meas_equivs)
    k = s.n_outcomes
    mask = s.physical_mask()
    cell_meas, cell_prep = np.nonzero(mask)
    # Each test reads the behavior scaled by K: a physical cell holds K on its
    # outcome, and a masked cell's uniform filler becomes the constant.
    tests = []
    for w in prep_weights:  # sum_j w_j p(k|i,j) == 0 for every (i, k)
        for i in range(s.n_meas):
            on = cell_meas == i
            const = sum(w[~mask[i]])
            for kk in range(k):
                weights = np.zeros((len(cell_meas), k), dtype=object)
                weights[on, kk] = k * w[cell_prep[on]]
                tests.append((weights, const))
    for w in meas_weights:  # sum_(i,k) w_ik p(k|i,j) == 0 for every j
        w = w.reshape(s.n_meas, k)
        for j in range(s.n_preps):
            on = cell_prep == j
            weights = np.zeros((len(cell_meas), k), dtype=object)
            weights[on] = k * w[cell_meas[on]]
            tests.append((weights, sum(w[~mask[:, j]].flat)))

    words = list(_exact_words(k, len(cell_meas), tests, cap, _VERTEX_NEEDS))
    probs = np.full((len(words), s.n_meas, s.n_preps, k), 1.0 / k)
    probs[:, mask] = 0.0
    hits = np.array(words, dtype=np.intp).reshape(len(words), len(cell_meas))
    probs[np.arange(len(words))[:, None], cell_meas, cell_prep, hits] = 1.0
    return [Behavior(p, cell_mask=None if s.cell_mask is None else mask.copy()) for p in probs]


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
