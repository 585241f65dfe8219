import os
import types
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.quantum import PAULI_X, PAULI_Y, PAULI_Z

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def lp_bytes():
    """Every number HiGHS receives of an LP, bit for bit (so -0.0 differs
    from 0.0): the column-wise matrix, inequality rows first, right-hand
    sides, objective and bounds.  A zero matrix entry, -0.0 included, is
    not stored, so its sign never reaches HiGHS."""

    def parts(lp):
        rows, rhs = lp.compiled_rows()
        objective = None if lp.objective is None else lp.objective.tobytes()
        return (rows.n_ineq, *(array.tobytes() for array in (rows.start, rows.index, rows.value)), rhs.tobytes(), objective,
                np.asarray(lp.lower_bounds).tobytes(), np.asarray(lp.upper_bounds).tobytes())

    return parts


@pytest.fixture(scope="session")
def src_env():
    """The environment of a fresh interpreter that imports ctxpoly from
    this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class _StoppedHighs:
    """A thread's HiGHS instance whose every solve ends at its iteration
    limit, a status ``solve_lp`` cannot certify."""

    def __init__(self, highs):
        self._highs = highs

    def getModelStatus(self):
        return cp.lp._highs.HighsModelStatus.kIterationLimit

    def __getattr__(self, name):
        return getattr(self._highs, name)


@pytest.fixture()
def backend_fails(monkeypatch):
    """Every solve of this thread runs, then fails to certify a status."""
    stopped = _StoppedHighs(cp.lp._thread_highs())
    monkeypatch.setattr(cp.lp, "_thread_highs", lambda: stopped)


@pytest.fixture()
def nnls_fails(monkeypatch):
    """Every NNLS fit of the equivalence transport runs out of steps: it is
    ``freeops._nnls``'s own code, run with a step budget of zero."""
    nnls = cp.freeops._nnls
    no_steps = types.FunctionType(nnls.__code__, {**nnls.__globals__, "range": lambda steps: ()})
    monkeypatch.setattr(cp.freeops, "_nnls", no_steps)


@pytest.fixture(scope="session")
def coin_flip():
    """Measurement M3 a coin flip between M1 and M2, ½[0|M1] + ½[0|M2] ≃
    [0|M3], on two preparations, and a behavior every row of which meets
    that equivalence, so that λ = preparation is a noncontextual model.  The
    response function (1, 0 | 0, 1 | ½, ½) is a vertex of the polytope the
    equivalence cuts, and no deterministic ontic state reaches it."""
    scenario = cp.Scenario(2, 3, 2, meas_equivs=(cp.EquivalenceVector([0.5, 0, 0.5, 0, 0, 0], [0, 0, 0, 0, 1.0, 0]),))
    probs = np.full((3, 2, 2), 0.5)
    probs[0, 0], probs[1, 0] = [1.0, 0.0], [0.0, 1.0]
    return scenario, cp.Behavior(probs)


@pytest.fixture(scope="session")
def b_si():
    return cp.make_simplest_scenario()


@pytest.fixture(scope="session")
def canonical_realization():
    return cp.canonical_simplest_realization()


@pytest.fixture(scope="session")
def canonical_behavior(canonical_realization):
    return cp.behavior_from_quantum(canonical_realization)


@pytest.fixture(scope="session")
def si_vertices(b_si):
    return cp.enumerate_behavior_vertices(b_si)


@pytest.fixture(scope="session")
def b6_scenario():
    return cp.make_simplest_scenario(n_meas=6)


@pytest.fixture(scope="session")
def b6_realization(canonical_realization):
    # Canonical pair plus four arbitrary projective measurements.
    tilted = (PAULI_Z + PAULI_X) / np.sqrt(2.0)
    extra = np.stack([cp.dichotomic_povm(obs) for obs in (PAULI_Z, PAULI_X, PAULI_Y, tilted)])
    povms = np.concatenate([canonical_realization.povms, extra])
    return cp.QuantumRealization(states=canonical_realization.states, povms=povms)


@pytest.fixture(scope="session")
def b6_behavior(b6_realization):
    return cp.behavior_from_quantum(b6_realization)


@pytest.fixture(
    scope="session",
    params=[
        "mask-shape",
        "zero-preps",
        "zero-outcomes",
        "negative-preps",
        "negative-meas",
        "prep-equivalence-length",
        "meas-equivalence-length",
    ],
)
def malformed_scenario(request, b_si):
    """A scenario validate_scenario rejects, with a behavior of its declared
    shape (an empty axis for a negative count).  Each used to reach
    model_columns, the model rows or the program cache's key and fail there
    with a raw numpy error (an IndexError for the mask, a negative dimension
    for a negative count)."""
    short = cp.EquivalenceVector(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
    scenario = {
        "mask-shape": cp.Scenario(4, 2, 2, b_si.prep_equivs, cell_mask=np.ones((3, 4), dtype=bool)),
        "zero-preps": cp.Scenario(0, 2, 2),
        "zero-outcomes": cp.Scenario(4, 2, 0),
        "negative-preps": cp.Scenario(-1, 2, 2),
        "negative-meas": cp.Scenario(4, -2, 2, b_si.prep_equivs),
        "prep-equivalence-length": cp.Scenario(4, 2, 2, (short,)),
        "meas-equivalence-length": cp.Scenario(4, 2, 2, b_si.prep_equivs, (short,)),
    }[request.param]
    shape = (scenario.n_meas, scenario.n_preps, scenario.n_outcomes)
    return scenario, cp.Behavior(np.full(np.maximum(shape, 0), 0.5))
