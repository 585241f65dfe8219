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
from scipy.linalg import qr
from scipy.optimize import minimize

from .lp import FEASIBLE, INFEASIBLE, LP_TOL, OPTIMAL, LinearProgram, LpNumericalError, solve_lp
from .ncmodel import UnsupportedScenarioError, enumerate_behavior_vertices, evaluate_inequalities, simplest_scenario_inequalities
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
    out: list[Violation] = []
    mats = [("q_P", op.q_P), ("q_M", op.q_M)] + [
        (f"q_O[{i}]", op.q_O[i]) for i in range(op.q_O.shape[0])
    ]
    for name, mat in mats:
        if mat.min(initial=0.0) < -tol or mat.max(initial=0.0) > 1.0 + tol:
            out.append(Violation(f"{name}-entry-range", float(max(-mat.min(), mat.max() - 1.0)), ()))
        gaps = np.abs(mat.sum(axis=0) - 1.0)
        if gaps.max(initial=0.0) > tol:
            out.append(Violation(f"{name}-column-sum", float(gaps.max()), (int(np.argmax(gaps)),)))
    return ValidationReport(tuple(out))


def _min_l2_mixture(matrix: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray | None:
    """Minimum-norm convex weight vector x with matrix @ x == target, or None.

    0/1 matrices whose rows select at most one column admit an exact closed
    form (permutations, erasure selectors); everything else goes through an
    LP feasibility check and an SLSQP projection polished by a least-norm
    solve on the active support.
    """
    n_old, n_new = matrix.shape
    is_binary = np.all((matrix == 0.0) | (matrix == 1.0))
    if is_binary and np.all(matrix.sum(axis=0) == 1.0) and np.all(matrix.sum(axis=1) <= 1.0):
        candidate = matrix.T @ target
        if np.allclose(matrix @ candidate, target, atol=1e-12, rtol=0.0):
            return candidate
        return None

    a_full = np.vstack([matrix, np.ones(n_new)])
    b_full = np.append(target, 1.0)
    lp = LinearProgram(n_new)
    lp.add_eq_rows(a_full, b_full)
    outcome = solve_lp(lp, tol=tol)
    if outcome.status == INFEASIBLE:
        return None
    if outcome.status != FEASIBLE:
        raise LpNumericalError(f"equivalence transport LP returned {outcome.status}")

    # Reduce to an independent row subset: the projector below chokes on the
    # dependent rows these systems usually carry, and for a consistent system
    # the reduction does not change the solution set.
    _, r, pivots = qr(a_full.T, pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > max(a_full.shape) * np.finfo(float).eps * (diag.max() or 1.0)))
    rows = np.sort(pivots[:rank])
    a_red, b_red = a_full[rows], b_full[rows]

    res = minimize(
        lambda x: 0.5 * float(x @ x),
        outcome.x,
        jac=lambda x: x,
        bounds=[(0.0, None)] * n_new,
        constraints=[{"type": "eq", "fun": lambda x: a_red @ x - b_red, "jac": lambda x: a_red}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 300},
    )
    x = res.x if res.success else outcome.x
    support = x > 1e-9
    if support.any():
        polished = np.zeros(n_new)
        sol, *_ = np.linalg.lstsq(a_red[:, support], b_red, rcond=None)
        polished[support] = sol
        if polished.min() >= -1e-11 and np.abs(a_full @ polished - b_full).max() <= 1e-10:
            return np.clip(polished, 0.0, None)
    return x


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
    constraints underdetermine the answer, so the minimum-l2 representative
    is returned for determinism.  An equivalence whose weights cannot be
    realized in the new scenario is reported not-representable.
    """
    expected = (s.n_preps, s.n_meas, s.n_outcomes)
    if (op.q_P.shape[0], op.q_M.shape[0], op.q_O.shape[2]) != expected:
        raise ShapeMismatchError(f"operation does not act on a {expected} scenario")
    preps: list[TransportResult] = []
    for equiv in s.prep_equivs:
        alpha = _min_l2_mixture(op.q_P, equiv.alpha, tol)
        beta = _min_l2_mixture(op.q_P, equiv.beta, tol)
        if alpha is None or beta is None:
            preps.append(TransportResult(NOT_REPRESENTABLE))
        else:
            preps.append(TransportResult(TRANSPORTED, EquivalenceVector(alpha, beta)))
    meas: list[TransportResult] = []
    event_matrix = _event_matrix(op)
    for equiv in s.meas_equivs:
        alpha = _min_l2_mixture(event_matrix, equiv.alpha, tol)
        beta = _min_l2_mixture(event_matrix, equiv.beta, tol)
        if alpha is None or beta is None:
            meas.append(TransportResult(NOT_REPRESENTABLE))
        else:
            meas.append(TransportResult(TRANSPORTED, EquivalenceVector(alpha, beta)))
    return TransportedEquivalences(tuple(preps), tuple(meas))


def apply_free_operation(
    op: FreeOperation, s: Scenario, behavior: Behavior, tol: float = LP_TOL
) -> tuple[Scenario, Behavior]:
    """Transform a behavior and its scenario through a free operation.

    The image scenario carries every equivalence that transports; the rest
    are dropped (dropping constraints only enlarges the noncontextual set,
    so monotonicity is preserved).  Hybrid-masked behaviors are refused:
    their filler cells carry no data to mix.
    """
    new_scenario, new_behavior, _ = _apply(op, s, behavior, tol)
    return new_scenario, new_behavior


def _apply(
    op: FreeOperation, s: Scenario, behavior: Behavior, tol: float
) -> tuple[Scenario, Behavior, TransportedEquivalences]:
    """``apply_free_operation``, together with the transport of every
    equivalence it computed on the way."""
    n_p_old, n_p_new = op.q_P.shape
    n_m_old, n_m_new = op.q_M.shape
    k_new, k_old = op.q_O.shape[1], op.q_O.shape[2]
    if (n_p_old, n_m_old, k_old) != (s.n_preps, s.n_meas, s.n_outcomes):
        raise ShapeMismatchError(
            f"operation expects scenario {(n_p_old, n_m_old, k_old)}, "
            f"got {(s.n_preps, s.n_meas, s.n_outcomes)}"
        )
    if behavior.probs.shape != (s.n_meas, s.n_preps, s.n_outcomes):
        raise ShapeMismatchError("behavior does not match scenario")
    if not bool(np.all(s.physical_mask())) or not bool(np.all(behavior.physical_mask())):
        raise UnsupportedScenarioError(
            "free operations act on fully physical behaviors; split composites into blocks first"
        )

    probs = np.einsum("itk,ijk,iu,jv->uvt", op.q_O, behavior.probs, op.q_M, op.q_P)
    transported = transport_equivalences(op, s, tol=tol)
    new_scenario = Scenario(
        n_preps=n_p_new,
        n_meas=n_m_new,
        n_outcomes=k_new,
        prep_equivs=tuple(r.equivalence for r in transported.preps if r.status == TRANSPORTED),
        meas_equivs=tuple(r.equivalence for r in transported.meas if r.status == TRANSPORTED),
    )
    return new_scenario, Behavior(probs), transported


def erase_measurements(s: Scenario, behavior: Behavior, keep) -> tuple[Scenario, Behavior]:
    """Discard all measurements outside ``keep`` (a free operation).

    Preparation equivalences survive untouched; measurement equivalences
    that touch a discarded measurement cannot be represented and are
    dropped.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= s.n_meas:
        raise ValueError(f"keep indices out of range for {s.n_meas} measurements")
    q_m = np.zeros((s.n_meas, len(keep)))
    for new, old in enumerate(keep):
        q_m[old, new] = 1.0
    op = FreeOperation(
        q_P=np.eye(s.n_preps),
        q_M=q_m,
        q_O=np.broadcast_to(np.eye(s.n_outcomes), (s.n_meas, s.n_outcomes, s.n_outcomes)).copy(),
    )
    return apply_free_operation(op, s, behavior)


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
    any equivalence.
    """
    p = behavior.probs
    if p.shape != (s.n_meas, s.n_preps, s.n_outcomes):
        raise ShapeMismatchError("behavior does not match scenario")
    n_i, n_j, n_k = p.shape
    n_u = n_j * n_j
    n_slack = n_i * n_j * n_k
    n_vars = n_u + n_slack + 1
    # Columns: the mixing weight u[src, new] at src * n_j + new, the shift
    # m[i, j, k] at n_u + (i * n_j + j) * n_k + k, and t last.
    objective = np.zeros(n_vars)
    objective[:n_u] = np.where(np.eye(n_j, dtype=bool), 0.0, _IDENTITY_TIEBREAK).reshape(-1)
    objective[-1] = 1.0
    lp = LinearProgram(n_vars, objective=objective)

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
    eq_rows = np.concatenate(eq)
    eq_rhs = np.zeros(len(eq_rows))
    eq_rhs[:n_j] = 1.0
    lp.add_eq_rows(eq_rows, eq_rhs)

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
    lp.add_ineq_rows(np.concatenate((deviation, total)), np.concatenate((deviation_rhs, np.zeros(len(total)))))

    outcome = solve_lp(lp, tol=tol)
    if outcome.status != OPTIMAL:
        raise LpNumericalError(f"secondary-procedure LP returned {outcome.status}")
    weights = outcome.x[:n_u].reshape(n_j, n_j)
    secondary = np.einsum("sj,isk->ijk", weights, p)
    shift = float(np.max(0.5 * np.abs(secondary - p).sum(axis=2)))
    op = FreeOperation(
        q_P=weights,
        q_M=np.eye(s.n_meas),
        q_O=np.broadcast_to(np.eye(s.n_outcomes), (s.n_meas, s.n_outcomes, s.n_outcomes)).copy(),
    )
    return SecondaryProcedures(weights=weights, behavior=Behavior(secondary), operation=op, max_shift=shift)
