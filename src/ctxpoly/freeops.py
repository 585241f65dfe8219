"""Free operations: stochastic pre-processing of preparations and
measurements plus post-processing of outcomes.

Applying one of these maps can never create contextuality, which is what
makes every construction here usable as a witness: if the image behavior is
contextual, so was the source.  The module also carries the four polytope
symmetries of the simplest scenario, shortest permutation words between its
contextual vertices, and the secondary-procedure construction that repairs
approximately-satisfied preparation equivalences by convex mixing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lp import _FEAS_TOL_FLOOR, LP_TOL, OPTIMAL, LinearProgram, LpNumericalError, compile_lp, compile_rows
from .lp import result_check_bound, solve_lp
from .ncmodel import (
    UnsupportedScenarioError,
    _check_scenario,
    _check_table,
    enumerate_behavior_vertices,
    evaluate_inequalities,
    simplest_scenario_inequalities,
)
from .scenario import (
    Behavior,
    EquivalenceVector,
    PROB_TOL,
    Scenario,
    ShapeMismatchError,
    ValidationReport,
    Violation,
    make_simplest_scenario,
)

TRANSPORTED = "transported"
NOT_REPRESENTABLE = "not-representable"


@dataclass(frozen=True, eq=False)
class FreeOperation:
    """The triple of stochastic maps defining one free operation.

    All matrices are column-stochastic and columns index the *new* scenario:
    ``q_P[j, j_new]`` mixes old preparations into new ones, ``q_M[i, i_new]``
    chooses which old measurement to run, and ``q_O[i]`` post-processes old
    outcomes into new ones (rows = new outcome, columns = old outcome).
    """

    q_P: np.ndarray
    q_M: np.ndarray
    q_O: np.ndarray

    def __post_init__(self) -> None:
        q_p = np.asarray(self.q_P, dtype=float)
        q_m = np.asarray(self.q_M, dtype=float)
        q_o = np.asarray(self.q_O, dtype=float)
        if q_p.ndim != 2 or q_m.ndim != 2 or q_o.ndim != 3:
            raise ShapeMismatchError("q_P and q_M must be matrices, q_O a stack of matrices")
        if q_o.shape[0] != q_m.shape[0]:
            raise ShapeMismatchError("q_O must supply one post-processing per old measurement")
        object.__setattr__(self, "q_P", q_p)
        object.__setattr__(self, "q_M", q_m)
        object.__setattr__(self, "q_O", q_o)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeOperation):
            return NotImplemented
        return (
            np.array_equal(self.q_P, other.q_P)
            and np.array_equal(self.q_M, other.q_M)
            and np.array_equal(self.q_O, other.q_O)
        )

    @classmethod
    def identity(cls, n_preps: int, n_meas: int, n_outcomes: int) -> "FreeOperation":
        return cls(
            np.eye(n_preps),
            np.eye(n_meas),
            np.broadcast_to(np.eye(n_outcomes), (n_meas, n_outcomes, n_outcomes)).copy(),
        )


@dataclass(frozen=True)
class TransportResult:
    status: str
    equivalence: EquivalenceVector | None = None


@dataclass(frozen=True)
class TransportedEquivalences:
    preps: tuple[TransportResult, ...]
    meas: tuple[TransportResult, ...]


def validate_free_operation(op: FreeOperation, tol: float = PROB_TOL) -> ValidationReport:
    # An empty new axis would make an image scenario that validate_scenario refuses.
    new_axes = (("q_P", op.q_P.shape[1]), ("q_M", op.q_M.shape[1]), ("q_O", op.q_O.shape[1]))
    out = [Violation(f"{name}-empty-new-axis", 1.0, ()) for name, size in new_axes if size == 0]
    mats = [("q_P", op.q_P), ("q_M", op.q_M)] + [
        (f"q_O[{i}]", op.q_O[i]) for i in range(op.q_O.shape[0])
    ]
    for name, mat in mats:
        # Negated comparisons, so that a NaN entry is a violation too.
        if not ((mat >= -tol) & (mat <= 1.0 + tol)).all():
            out.append(Violation(f"{name}-entry-range", float(max(-mat.min(), mat.max() - 1.0)), ()))
        gaps = np.abs(mat.sum(axis=0) - 1.0)
        if not (gaps <= tol).all():
            out.append(Violation(f"{name}-column-sum", float(gaps.max()), (int(np.argmax(gaps)),)))
    return ValidationReport(tuple(out))


def _min_l2_mixture(matrix: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray | None:
    """Minimum-norm convex weight vector x with matrix @ x == target, or None.

    0/1 matrices whose rows select at most one column admit an exact closed
    form (permutations, erasure selectors).  Otherwise the least-squares
    convex fit (``_nnls``, Lawson and Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23) decides: the target is not representable when
    that fit misses a row by more than ``tol`` (at least ``_FEAS_TOL_FLOOR``,
    as in ``solve_lp``).  Else the unique minimizer of ``x @ x`` is found
    through a least-distance problem: one SVD, which absorbs dependent rows,
    and NNLS fits.  A point that fails ``solve_lp``'s check, or an NNLS fit
    that does not converge, raises ``LpNumericalError``.
    """
    is_binary = np.all((matrix == 0.0) | (matrix == 1.0))
    if is_binary and np.all(matrix.sum(axis=0) == 1.0) and np.all(matrix.sum(axis=1) <= 1.0):
        candidate = matrix.T @ target
        if np.allclose(matrix @ candidate, target, atol=1e-12, rtol=0.0):
            return candidate
        return None

    a, b = np.vstack([matrix, np.ones(matrix.shape[1])]), np.append(target, 1.0)
    # Convex weights meet ``reached`` exactly: the nearest such right-hand
    # side to b, which is b up to rounding when b is representable.
    reached = a @ _nnls(a, b)
    # The floor copies solve_lp's, as this fit stands in for a feasibility LP.
    if not np.abs(reached - b).max() <= max(tol, _FEAS_TOL_FLOOR):
        return None
    u, s, vt = np.linalg.svd(a)
    rank = int((s > max(a.shape) * np.finfo(float).eps * s[0]).sum())
    x0, null = vt[:rank].T @ (u[:, :rank].T @ reached / s[:rank]), vt[rank:].T
    # Every solution is x0 + N z, with x0 the rows' minimum-norm solution and
    # N a basis of their null space, so the minimizer has the shortest z with
    # N z >= -x0.  The w >= 0 that fits [N.T; -x0] w best to the last unit
    # vector is proportional to that problem's multipliers: x is 0 where
    # w > 0, and elsewhere the minimum-norm solution of the rows there.
    support = _nnls(np.vstack([null.T, -x0]), np.eye(len(null.T) + 1)[-1]) == 0.0
    x = np.zeros(len(support))
    x[support] = np.linalg.lstsq(a[:, support], reached, rcond=None)[0]
    # A weight the rows force to 0 comes out as rounding error; the zeros
    # are exact, since an equivalence's support shapes the model program.
    x[x < 10 * max(a.shape) * np.finfo(float).eps] = 0.0
    if not np.abs(a @ x - b).max() <= result_check_bound(tol):  # and x >= 0 holds
        raise LpNumericalError("equivalence transport returned a point that breaks the constraints")
    return x


def _nnls(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The w >= 0 that minimizes ``|e @ w - f|``, by Lawson and Hanson's NNLS
    (1974, ch. 23); ``LpNumericalError`` after 3n steps, n = len(w)."""
    n = e.shape[1]
    w, free = np.zeros(n), np.zeros(n, dtype=bool)
    tol = 10 * max(e.shape) * np.finfo(float).eps * np.abs(e).sum(axis=0).max()
    for _ in range(3 * n):
        gradient = e.T @ (f - e @ w)
        if (gradient[~free] <= tol).all():
            return w
        j = np.argmax(np.where(free, -np.inf, gradient))
        free[j] = True
        while True:
            step = np.zeros(n)
            step[free] = np.linalg.lstsq(e[:, free], f, rcond=None)[0]
            if (step[free] > 0.0).all():
                break
            if free[j] and w[j] == 0.0 >= step[j]:  # j entered on a rounding error: w is optimal
                return w
            # Move toward the step until the first free weight reaches 0.
            blocking = np.flatnonzero(free & (step <= 0.0))
            ratios = w[blocking] / (w[blocking] - step[blocking])
            w += ratios.min() * (step - w)
            w[blocking[np.argmin(ratios)]] = 0.0
            free &= w > 0.0
        w = step
    raise LpNumericalError(f"equivalence transport's NNLS did not converge in {3 * n} steps")


def _event_matrix(op: FreeOperation) -> np.ndarray:
    """Map from new measurement-event weights to old ones: the joint action of
    q_M and q_O on (measurement, outcome) pairs, row-major in outcomes."""
    n_old, n_new = op.q_M.shape
    k_new, k_old = op.q_O.shape[1], op.q_O.shape[2]
    w = np.einsum("iu,itk->ikut", op.q_M, op.q_O)
    return w.reshape(n_old * k_old, n_new * k_new)


def transport_equivalences(
    op: FreeOperation, s: Scenario, tol: float = LP_TOL
) -> TransportedEquivalences:
    """Push each declared equivalence through the operation.

    For an old pair (alpha, beta) we look for convex (alpha~, beta~) whose
    pre-image under the operation's stochastic maps reproduces the pair; the
    constraints underdetermine the answer, so the minimum-l2 representative,
    which is unique, is returned (a closed form for selector maps, else a
    least-squares convex fit and a least-distance problem per side, see
    ``_min_l2_mixture``).  An equivalence is reported not-representable
    when, on either side, the least-squares convex fit misses a row by more
    than ``tol``.  No LP is solved.  ShapeMismatchError refuses an
    operation that does not act on ``s``'s counts.
    """
    expected = (s.n_preps, s.n_meas, s.n_outcomes)
    if (op.q_P.shape[0], op.q_M.shape[0], op.q_O.shape[2]) != expected:
        raise ShapeMismatchError(f"operation does not act on a {expected} scenario")
    transported = []
    for matrix, equivs in ((op.q_P, s.prep_equivs), (_event_matrix(op), s.meas_equivs)):
        results = []
        for equiv in equivs:
            alpha = _min_l2_mixture(matrix, equiv.alpha, tol)
            beta = _min_l2_mixture(matrix, equiv.beta, tol)
            if alpha is None or beta is None:
                results.append(TransportResult(NOT_REPRESENTABLE))
            else:
                results.append(TransportResult(TRANSPORTED, EquivalenceVector(alpha, beta)))
        transported.append(tuple(results))
    return TransportedEquivalences(*transported)


def apply_free_operation(
    op: FreeOperation, s: Scenario, behavior: Behavior, tol: float = LP_TOL
) -> tuple[Scenario, Behavior]:
    """Transform a behavior and its scenario through a free operation.

    The image scenario carries every equivalence that transports; the rest
    are dropped (dropping constraints only enlarges the noncontextual set,
    so monotonicity is preserved).  Hybrid-masked behaviors are refused:
    their filler cells carry no data to mix.  ValueError refuses an invalid
    scenario, an operation that is not free or not for ``s``'s counts and a
    table that is not one probability distribution per cell of them (see
    ``_apply``).
    """
    _check_scenario(s, tol)
    new_scenario, new_behavior, _ = _apply(op, s, behavior, tol)
    return new_scenario, new_behavior


def _apply(
    op: FreeOperation, s: Scenario, behavior: Behavior, tol: float
) -> tuple[Scenario, Behavior, TransportedEquivalences]:
    """``apply_free_operation`` on a scenario that passed its check at
    ``tol``, with the transport of every equivalence it computed on the
    way.  It checks the operation (at ``tol``, at least ``PROB_TOL``), the
    masks and the table (``_check_table``), then transports, which refuses
    an operation for another scenario, then mixes."""
    report = validate_free_operation(op, max(tol, PROB_TOL))
    if not report.ok:
        raise ValueError(f"free operation invalid: {report.summary()}")
    if not bool(np.all(s.physical_mask())) or not bool(np.all(behavior.physical_mask())):
        raise UnsupportedScenarioError(
            "free operations act on fully physical behaviors; split composites into blocks first"
        )
    _check_table("behavior", behavior, tol, s)

    transported = transport_equivalences(op, s, tol=tol)
    probs = np.einsum("itk,ijk,iu,jv->uvt", op.q_O, behavior.probs, op.q_M, op.q_P)
    new_scenario = Scenario(
        n_preps=op.q_P.shape[1],
        n_meas=op.q_M.shape[1],
        n_outcomes=op.q_O.shape[1],
        prep_equivs=tuple(r.equivalence for r in transported.preps if r.status == TRANSPORTED),
        meas_equivs=tuple(r.equivalence for r in transported.meas if r.status == TRANSPORTED),
    )
    return new_scenario, Behavior(probs), transported


def erase_measurements(s: Scenario, behavior: Behavior, keep, tol: float = LP_TOL) -> tuple[Scenario, Behavior]:
    """Discard all measurements outside ``keep`` (a free operation).

    Preparation equivalences survive untouched; measurement equivalences
    that touch a discarded measurement cannot be represented and are
    dropped.  The scenario and the behavior's table are checked at ``tol``.
    """
    _check_scenario(s, tol)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= s.n_meas:
        raise ValueError(f"keep indices out of range for {s.n_meas} measurements")
    identity = FreeOperation.identity(s.n_preps, s.n_meas, s.n_outcomes)
    op = FreeOperation(identity.q_P, identity.q_M[:, keep], identity.q_O)
    new_scenario, new_behavior, _ = _apply(op, s, behavior, tol)
    return new_scenario, new_behavior


def simplest_permutations() -> dict[str, FreeOperation]:
    """The four symmetry generators of the simplest scenario, as free operations.

    swap_preps_12 and swap_preps_34 exchange preparations within one side of
    the equivalence, swap_measurements exchanges the two measurements, and
    swap_prep_pairs exchanges the two sides wholesale.  Each is an involution
    and maps the behavior polytope onto itself.
    """
    eye2 = np.eye(2)
    q_o = np.broadcast_to(eye2, (2, 2, 2)).copy()
    perm = lambda order: np.eye(4)[:, order]  # noqa: E731

    return {
        "swap_preps_12": FreeOperation(perm([1, 0, 2, 3]), eye2.copy(), q_o.copy()),
        "swap_preps_34": FreeOperation(perm([0, 1, 3, 2]), eye2.copy(), q_o.copy()),
        "swap_measurements": FreeOperation(np.eye(4), eye2[:, [1, 0]], q_o.copy()),
        "swap_prep_pairs": FreeOperation(perm([2, 3, 0, 1]), eye2.copy(), q_o.copy()),
    }


@lru_cache(maxsize=1)
def _simplest_vertex_data():
    s = make_simplest_scenario()
    vertices = enumerate_behavior_vertices(s)
    ineqs = simplest_scenario_inequalities()
    contextual = []
    facet_of = {}
    for idx, vertex in enumerate(vertices):
        values = evaluate_inequalities(ineqs, vertex)[:8]
        hits = np.nonzero(values > 0.5)[0]
        if hits.size:
            contextual.append(idx)
            facet_of[idx] = ineqs.functionals[int(hits[0])].label
    return s, vertices, tuple(contextual), facet_of


def simplest_contextual_vertices() -> tuple[int, ...]:
    """Indices (into the lexicographic vertex list) of the contextual vertices."""
    return _simplest_vertex_data()[2]


@lru_cache(maxsize=1)
def _vertex_graph() -> dict[int, dict[str, int]]:
    s, vertices, contextual, _ = _simplest_vertex_data()
    generators = simplest_permutations()
    graph: dict[int, dict[str, int]] = {v: {} for v in contextual}
    for v in contextual:
        for name, op in generators.items():
            _, image = apply_free_operation(op, s, vertices[v])
            for w in contextual:
                if np.array_equal(image.probs, vertices[w].probs):
                    graph[v][name] = w
                    break
    return graph


def contextual_vertex_path(v: int, w: int) -> list[str]:
    """Shortest word in the four generators mapping contextual vertex v to w.

    Vertices are addressed by their index in the lexicographic vertex list of
    the simplest scenario.  Ties between equally short words break toward the
    generator order of ``simplest_permutations``.  Applying the returned
    generators left to right to vertex v yields vertex w exactly.
    """
    contextual = set(simplest_contextual_vertices())
    for label, idx in (("source", v), ("target", w)):
        if idx not in contextual:
            raise ValueError(f"{label} vertex {idx} is not a contextual vertex")
    if v == w:
        return []
    graph = _vertex_graph()
    frontier = [(v, [])]
    seen = {v}
    while frontier:
        nxt = []
        for node, word in frontier:
            for name, image in graph[node].items():
                if image in seen:
                    continue
                extended = word + [name]
                if image == w:
                    return extended
                seen.add(image)
                nxt.append((image, extended))
        frontier = nxt
    raise RuntimeError("contextual vertex graph is not connected")  # unreachable for this polytope


@dataclass
class SecondaryProcedures:
    """Result of repairing preparation equivalences by convex mixing.

    ``weights[j_old, j_new]`` are the mixing weights defining each secondary
    preparation; ``behavior`` is the induced table; ``max_shift`` the largest
    total-variation change any (measurement, preparation) pair suffered.
    """

    weights: np.ndarray
    behavior: Behavior
    operation: FreeOperation
    max_shift: float


#: Tiny tie-break penalty on off-diagonal mixing weights so that exact input
#: data comes back with identity weights instead of an arbitrary optimal
#: vertex.  Small enough not to disturb the shift objective meaningfully.
_IDENTITY_TIEBREAK = 1e-6


def secondary_procedures(s: Scenario, behavior: Behavior, tol: float = LP_TOL) -> SecondaryProcedures:
    """Mix the measured preparations into secondary ones that satisfy the
    scenario's preparation equivalences exactly, moving each preparation's
    statistics as little as possible.

    The input may violate the equivalences (that is the point); the output
    satisfies them to LP precision.  Because the mixing is itself a free
    operation, contextuality of the output certifies contextuality of the
    input.  Always feasible: mixing everything to the barycenter satisfies
    any equivalence.  ValueError refuses an invalid scenario and a table
    that is not one distribution per cell of ``s``'s counts, at ``tol``.
    """
    _check_scenario(s, tol)
    _check_table("behavior", behavior, tol, s)
    p = behavior.probs
    n_i, n_j, n_k = p.shape
    n_u = n_j * n_j
    n_slack = n_i * n_j * n_k
    n_vars = n_u + n_slack + 1
    # Columns: the mixing weight u[src, new] at src * n_j + new, the shift
    # m[i, j, k] at n_u + (i * n_j + j) * n_k + k, and t last.
    objective = np.zeros(n_vars)
    objective[:n_u] = np.where(np.eye(n_j, dtype=bool), 0.0, _IDENTITY_TIEBREAK).reshape(-1)
    objective[-1] = 1.0

    # Each new preparation is a convex mixture: sum over src of u[src, new] = 1.
    eq = [np.zeros((n_j, n_vars))]
    eq[0][:, :n_u] = np.tile(np.eye(n_j), n_j)
    # Every equivalence holds on every (i, k) of the secondary statistics:
    # sum over new, src of diff[new] u[src, new] p[i, src, k] = 0.
    by_source = p.transpose(0, 2, 1)  # (i, k, src)
    for equiv in s.prep_equivs:
        diff = equiv.difference
        terms = np.where(diff != 0.0, by_source[..., None] * diff, 0.0)  # (i, k, src, new)
        rows = np.zeros((n_i * n_k, n_vars))
        rows[:, :n_u] += terms.reshape(n_i * n_k, n_u)  # 0.0 + x, as an accumulating loop gives
        eq.append(rows)

    # m[i, j, k] >= |secondary p[i, j, k] - p[i, j, k]|, two rows per
    # (i, j, k) in that order; secondary p[i, j, k] = sum over src of
    # u[src, j] p[i, src, k].
    base = np.zeros((n_i, n_j, n_k, n_vars))
    src_cols = np.arange(n_j)[None, None, None, :] * n_j + np.arange(n_j)[None, :, None, None]
    base[
        np.arange(n_i)[:, None, None, None],
        np.arange(n_j)[None, :, None, None],
        np.arange(n_k)[None, None, :, None],
        src_cols,
    ] = by_source[:, None, :, :]
    base = base.reshape(n_slack, n_vars)
    deviation = np.empty((2 * n_slack, n_vars))
    deviation[0::2] = base
    deviation[1::2] = -base
    deviation[np.arange(2 * n_slack), n_u + np.arange(2 * n_slack) // 2] = -1.0
    deviation_rhs = np.stack([p.reshape(-1), -p.reshape(-1)], axis=1).reshape(-1)
    # t >= half the l1 shift of every (i, j).
    total = np.zeros((n_i * n_j, n_vars))
    total[np.arange(n_slack) // n_k, n_u + np.arange(n_slack)] = 0.5
    total[:, -1] = -1.0
    # One block, inequalities first; of the equalities, only normalization has right-hand side 1.
    rows = np.concatenate((deviation, total, *eq))
    n_ineq = len(deviation) + len(total)
    rhs = np.concatenate((deviation_rhs, np.zeros(len(total)), np.ones(n_j), np.zeros(len(rows) - n_ineq - n_j)))
    lp = LinearProgram.from_compiled(compile_lp(compile_rows(rows, n_ineq), objective), rhs)
    outcome = solve_lp(lp, tol=tol)
    if outcome.status != OPTIMAL:
        raise LpNumericalError(f"secondary-procedure LP returned {outcome.status}")
    weights = outcome.x[:n_u].reshape(n_j, n_j)
    secondary = np.einsum("sj,isk->ijk", weights, p)
    shift = float(np.max(0.5 * np.abs(secondary - p).sum(axis=2)))
    identity = FreeOperation.identity(s.n_preps, s.n_meas, s.n_outcomes)
    op = FreeOperation(weights, identity.q_M, identity.q_O)
    return SecondaryProcedures(weights=weights, behavior=Behavior(secondary), operation=op, max_shift=shift)
