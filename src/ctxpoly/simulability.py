"""Measurement simulability from behavior data.

A target measurement set is simulable by another set observed on the same
preparations when classical pre-processing (pick which simulator to run)
plus outcome post-processing reproduces every target statistic.  Each
target decouples into its own LP after the substitution
s(i, k_new, k) = q_M(i) * q_O(k_new | k), which linearizes the product; the
post-processing found this way may depend on the target, and the witness
records whether it happens not to.

A successful witness converts into a free operation, so simulability
transports contextuality verdicts between scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freeops import FreeOperation
from .lp import FEASIBLE, INFEASIBLE, LP_TOL, LinearProgram, LpNumericalError, compile_lp, compile_rows, solve_lp
from .ncmodel import _check_table
from .scenario import Behavior, ShapeMismatchError


class SimulationError(ValueError):
    """A witness cannot be flattened into a single free operation."""


@dataclass
class SimulationWitness:
    """Classical processings reproducing the target behavior from the simulators.

    ``q_M[i, t]`` is the probability of running simulator i for target t;
    ``q_O[t, i]`` the outcome post-processing used in that branch (rows = new
    outcome, columns = old outcome).  ``residual`` is the largest absolute
    reproduction error over all targets, preparations and outcomes.
    """

    q_M: np.ndarray
    q_O: np.ndarray
    residual: float
    shared_post_processing: bool
    n_preps: int


def _delta_witness_parts(source_probs: np.ndarray, target_row: np.ndarray, tol: float):
    """Index of a simulator reproducing the target verbatim, if any."""
    if source_probs.shape[2] != target_row.shape[1]:
        return None
    gaps = np.abs(source_probs - target_row[None, :, :]).max(axis=(1, 2))
    hits = np.nonzero(gaps <= tol)[0]
    return int(hits[0]) if hits.size else None


def find_simulation(
    sim_behavior: Behavior, target_behavior: Behavior, tol: float = LP_TOL
) -> SimulationWitness | None:
    """Search for processings turning the simulating set's statistics into the
    target's, preparation by preparation.  Returns None when no simulation
    exists (that is a verdict, not an error).

    Targets whose statistics appear verbatim among the simulators short-cut
    to a deterministic witness (point mass on that simulator, identity
    post-processing); the rest go through the per-target feasibility LP.
    ValueError refuses a table that is not one probability distribution per
    cell, at ``tol``.
    """
    p_src = sim_behavior.probs
    p_tgt = target_behavior.probs
    if p_src.shape[1] != p_tgt.shape[1]:
        raise ShapeMismatchError(
            f"behaviors disagree on preparations: {p_src.shape[1]} vs {p_tgt.shape[1]}"
        )
    _check_table("simulator behavior", sim_behavior, tol)
    _check_table("target behavior", target_behavior, tol)
    n_src, n_preps, k_src = p_src.shape
    n_tgt, _, k_tgt = p_tgt.shape

    # Variables: s(i, k_new, k) then m(i).  Only the right-hand side of
    # the last block depends on the target, so the LP is compiled once.
    n_s = n_src * k_tgt * k_src
    n_vars = n_s + n_src
    s_cols = np.arange(n_s).reshape(n_src, k_tgt, k_src)
    # sum over k_new of s(i, k_new, k) = m(i), one row per (i, k).
    post = np.zeros((n_src * k_src, n_vars))
    post_rows = np.arange(n_src * k_src).reshape(n_src, 1, k_src)
    post[post_rows, s_cols] = 1.0
    post[post_rows[:, 0, :], n_s + np.arange(n_src)[:, None]] = -1.0
    # sum over i of m(i) = 1.
    total = np.zeros((1, n_vars))
    total[0, n_s:] = 1.0
    # sum over i, k of s(i, k_new, k) p_src[i, j, k] = p_tgt[t, j, k_new],
    # one row per (j, k_new).
    reproduce = np.zeros((n_preps * k_tgt, n_vars))
    reproduce_rows = np.arange(n_preps * k_tgt).reshape(n_preps, k_tgt, 1, 1)
    reproduce[reproduce_rows, s_cols.transpose(1, 0, 2)] = p_src.transpose(1, 0, 2)[:, None]
    model = compile_lp(compile_rows(np.concatenate((post, total, reproduce)), 0))
    fixed_rhs = np.zeros(len(post) + len(total))
    fixed_rhs[-1] = 1.0

    q_m = np.zeros((n_src, n_tgt))
    q_o = np.zeros((n_tgt, n_src, k_tgt, k_src))
    for t in range(n_tgt):
        verbatim = _delta_witness_parts(p_src, p_tgt[t], tol)
        if verbatim is not None:
            q_m[verbatim, t] = 1.0
            q_o[t, :] = 1.0 / k_tgt
            q_o[t, verbatim] = np.eye(k_tgt)
            continue

        lp = LinearProgram.from_compiled(model, np.concatenate((fixed_rhs, p_tgt[t].reshape(-1))))
        outcome = solve_lp(lp, tol=tol)
        if outcome.status == INFEASIBLE:
            return None
        if outcome.status != FEASIBLE:
            raise LpNumericalError(f"simulation LP returned {outcome.status}")
        s_part = outcome.x[:n_s].reshape(n_src, k_tgt, k_src)
        mass = outcome.x[n_s:]
        q_m[:, t] = mass
        for i in range(n_src):
            if mass[i] > tol:
                q_o[t, i] = s_part[i] / mass[i]
            else:
                q_o[t, i] = 1.0 / k_tgt  # zero-mass branch: uniform by convention

    reproduced = np.einsum("tink,ijk,it->tjn", q_o, p_src, q_m)
    residual = float(np.abs(reproduced - p_tgt).max())
    return SimulationWitness(
        q_M=q_m,
        q_O=q_o,
        residual=residual,
        shared_post_processing=_shared_post_processing(q_m, q_o, tol)[1] is None,
        n_preps=n_preps,
    )


def _shared_post_processing(
    q_m: np.ndarray, q_o: np.ndarray, tol: float
) -> tuple[np.ndarray, int | None]:
    """One post-processing per source measurement, taken from the first target
    that draws on it (uniform for an unused source), and the first source
    whose targets disagree, or None.  Zero-mass branches are free to disagree."""
    n_src, n_tgt = q_m.shape
    k_tgt, k_src = q_o.shape[2], q_o.shape[3]
    shared = np.full((n_src, k_tgt, k_src), 1.0 / k_tgt)
    for i in range(n_src):
        used = [t for t in range(n_tgt) if q_m[i, t] > tol]
        if not used:
            continue
        shared[i] = q_o[used[0], i]
        for t in used[1:]:
            if not np.allclose(q_o[t, i], shared[i], atol=1e-8, rtol=0.0):
                return shared, i
    return shared, None


def simulation_to_free_operation(witness: SimulationWitness, tol: float = LP_TOL) -> FreeOperation:
    """Package a witness as a free operation (identity on preparations).

    A free operation carries one post-processing per *source* measurement, so
    the witness's per-target post-processings must agree wherever a source
    measurement feeds more than one target; delta witnesses always satisfy
    this.  Raises SimulationError otherwise.
    """
    if witness.residual > tol:
        raise SimulationError(f"witness residual {witness.residual:.3g} exceeds tolerance {tol:.3g}")
    q_o, conflict = _shared_post_processing(witness.q_M, witness.q_O, tol)
    if conflict is not None:
        raise SimulationError(f"source measurement {conflict} needs target-dependent post-processing")
    return FreeOperation(q_P=np.eye(witness.n_preps), q_M=witness.q_M, q_O=q_o)
