"""The per-scenario compiled program and its cache (ncmodel.model_program)."""

import sys
import threading
import time

import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly import lp as lp_module, monotone, ncmodel
from ctxpoly.cli import run_cli
from ctxpoly.documents import save_document
from ctxpoly.ncmodel import PROGRAM_CACHE, model_program
from ctxpoly.quantum import PAULI_X, PAULI_Y, PAULI_Z
from ctxpoly.sampling import random_noncontextual_simplest_behavior


@pytest.fixture(autouse=True)
def cold_cache():
    PROGRAM_CACHE.clear()
    yield
    PROGRAM_CACHE.clear()


def _simplest():
    return cp.make_simplest_scenario()


def _decide(s, behavior, distance_first=False):
    """Verdict and distance in bit-comparable form, decided in either order."""
    if distance_first:
        distance = cp.l1_distance(s, behavior)
    verdict = cp.is_noncontextual(s, behavior)
    if not distance_first:
        distance = cp.l1_distance(s, behavior)
    model = verdict.model
    return (
        verdict.contextual,
        verdict.violated,
        verdict.violation,
        None if model is None else ([st.responses for st in model.ontic_states], model.mus.tobytes()),
        distance,
    )


def _run_threads(work, n_threads):
    """Run ``work(offset)`` for each offset in ``n_threads`` threads that
    switch as often as the interpreter allows; returns what they raised."""
    errors = []

    def guarded(offset):
        try:
            work(offset)
        except Exception as exc:  # reported below, with the thread's work
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(offset,)) for offset in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_equal_scenarios_share_one_entry(canonical_behavior):
    first = _simplest()
    cp.is_noncontextual(first, canonical_behavior)
    program = model_program(first)
    again = _simplest()  # built separately, equal content
    assert again is not first
    cp.l1_distance(again, canonical_behavior)
    assert model_program(again) is program
    assert len(PROGRAM_CACHE) == 1


def test_compiled_arrays_are_read_only():
    program = model_program(cp.power_scenario(_simplest(), 2))
    models = (program.membership, program.distance)
    arrays = [*program.columns, program.cells, program.distance.objective]
    for array in arrays + [bound for model in models for bound in (model.lower, model.upper)]:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0
    # The matrices are kept only as HiGHS's own copies, which hand out
    # copies: writing into those changes nothing.
    for rows in (model.rows for model in models):
        before = [array.tobytes() for array in rows.arrays()]
        for name in ("start_", "index_", "value_"):
            getattr(rows.highs, name)[0] = -1
        rows.arrays()[2][0] = -1.0
        assert [array.tobytes() for array in rows.arrays()] == before


def test_equivalence_mutated_in_place_is_recompiled():
    s = _simplest()
    # Deterministic preparations: the first two always give outcome 1.  The
    # table breaks (p1 + p2)/2 ~ (p3 + p4)/2 but keeps (p1 + p3)/2 ~ (p2 + p4)/2.
    q = np.array([1.0, 1.0, 0.0, 0.0])
    behavior = cp.Behavior(np.stack([np.stack([1.0 - q, q], axis=1)] * 2))
    cp.is_noncontextual(s, cp.uniform_behavior(s))
    equiv = s.prep_equivs[0]
    equiv.alpha[:] = [0.5, 0.0, 0.5, 0.0]
    equiv.beta[:] = [0.0, 0.5, 0.0, 0.5]
    result = _decide(s, behavior)
    # The stale rows would demand mu1 + mu2 = mu3 + mu4 and find no model.
    assert result[0] is False
    fresh = cp.Scenario(4, 2, 2, (cp.EquivalenceVector(equiv.alpha.copy(), equiv.beta.copy()),))
    PROGRAM_CACHE.clear()
    assert _decide(fresh, behavior) == result


def test_mask_mutated_in_place_is_recompiled(canonical_behavior):
    s = cp.power_scenario(_simplest(), 2)
    behavior = cp.Behavior(cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(_simplest())).probs)
    assert cp.is_noncontextual(s, behavior).contextual  # block 0 is contextual
    s.cell_mask[:2, :4] = False  # block 0 no longer carries data
    result = _decide(s, behavior)
    assert result[0] is False
    fresh = cp.Scenario(s.n_preps, s.n_meas, s.n_outcomes, s.prep_equivs, cell_mask=s.cell_mask.copy())
    PROGRAM_CACHE.clear()
    assert _decide(fresh, behavior) == result


def test_cached_scenario_still_honours_a_smaller_cap(canonical_behavior):
    s = _simplest()
    cp.is_noncontextual(s, canonical_behavior)
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(cp.CapExceededError, match="4"):
            decide(s, canonical_behavior, cap=3)


def test_invalid_scenario_is_not_compiled(malformed_scenario):
    scenario, behavior = malformed_scenario
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(ValueError, match="^scenario invalid: "):
            decide(scenario, behavior)
    assert len(PROGRAM_CACHE) == 0


def test_cache_holds_at_most_four_programs():
    scenarios = [cp.make_simplest_scenario(n_meas=n) for n in range(1, 8)]
    for s in scenarios:
        cp.is_noncontextual(s, cp.uniform_behavior(s))
        assert len(PROGRAM_CACHE) <= 4
    assert len(PROGRAM_CACHE) == 4
    # The least recently used go first.
    kept = model_program(scenarios[-1])
    cp.is_noncontextual(scenarios[0], cp.uniform_behavior(scenarios[0]))
    assert model_program(scenarios[-1]) is kept
    assert len(PROGRAM_CACHE) == 4


def test_mutating_a_returned_model_changes_nothing():
    s = _simplest()
    behavior = cp.uniform_behavior(s)
    verdict = cp.is_noncontextual(s, behavior)
    expected = verdict.model.mus.copy()
    verdict.model.mus[:] = -1.0
    again = cp.is_noncontextual(s, behavior)
    assert np.array_equal(again.model.mus, expected)
    assert again.model.ontic_states == verdict.model.ontic_states


def test_cold_and_warm_results_are_bit_identical(b_si, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(12)
    power = cp.power_scenario(b_si, 4)
    blocks = [canonical_behavior, cp.uniform_behavior(b_si), cp.uniform_behavior(b_si), canonical_behavior]
    power_behavior = blocks[0]
    for block in blocks[1:]:
        power_behavior = cp.compose_behaviors(power_behavior, block)
    cloning, _ = cp.cloning_scenario()
    cases = [
        (b_si, canonical_behavior),
        (b_si, random_noncontextual_simplest_behavior(rng)),
        (b6_scenario, b6_behavior),
        (b6_scenario, cp.uniform_behavior(b6_scenario)),
        (power, power_behavior),
        (power, cp.uniform_behavior(power)),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (cloning, cp.uniform_behavior(cloning)),
    ]
    for s, behavior in cases:
        PROGRAM_CACHE.clear()
        cold = _decide(s, behavior)
        warm = _decide(s, behavior)
        assert warm == cold


def test_threads_share_the_cache_safely():
    scenarios = [cp.make_simplest_scenario(n_meas=n) for n in range(1, 7)]  # more than the cache holds
    behaviors = [cp.uniform_behavior(s) for s in scenarios]
    expected = [_decide(s, b) for s, b in zip(scenarios, behaviors)]

    def work(offset):
        for step in range(12):
            idx = (offset + step) % len(scenarios)
            assert _decide(scenarios[idx], behaviors[idx]) == expected[idx]
            assert len(PROGRAM_CACHE) <= 4

    assert _run_threads(work, 6) == []


class _YieldingHighs:
    """A thread's HiGHS instance that lets other threads run just before it
    copies a model in, which widens any window a race could use."""

    def __init__(self, highs):
        self._highs = highs

    def passModel(self, model):
        time.sleep(0)
        return self._highs.passModel(model)

    def __getattr__(self, name):
        return getattr(self._highs, name)


def test_threads_decide_on_one_cached_program(monkeypatch):
    # Every decision on a scenario shares its compiled model, into which
    # each solve writes its row bounds: two threads must never interleave
    # those writes with another's solve.
    own = threading.local()
    thread_highs = lp_module._thread_highs

    def yielding_highs():
        if not hasattr(own, "highs"):
            own.highs = _YieldingHighs(thread_highs())
        return own.highs

    monkeypatch.setattr(lp_module, "_thread_highs", yielding_highs)
    rng = np.random.default_rng(8)
    b_si = _simplest()
    s = cp.power_scenario(b_si, 4)
    canonical = cp.behavior_from_quantum(cp.canonical_simplest_realization())
    blocks = lambda: [canonical if rng.random() < 0.3 else random_noncontextual_simplest_behavior(rng) for _ in range(4)]  # noqa: E731
    behaviors = [_compose(blocks()) for _ in range(6)]
    expected = [_decide(s, behavior) for behavior in behaviors]
    assert {verdict[0] for verdict in expected} == {False, True}
    program = model_program(s)

    def work(offset):
        for step in range(4 * len(behaviors)):
            idx = (offset + step) % len(behaviors)
            assert _decide(s, behaviors[idx]) == expected[idx]

    assert _run_threads(work, 4) == []
    assert model_program(s) is program  # every decision was on the one cached program


def _near_trivial():
    """Sides that differ by 1e-6: a valid equivalence at 1e-8, a
    trivial-equivalence at 1e-5."""
    alpha = np.array([0.5 + 5e-7, 0.5 - 5e-7])
    return cp.Scenario(2, 1, 2, (cp.EquivalenceVector(alpha, alpha[::-1].copy()),))


def test_cache_hit_at_another_tolerance_validates_the_scenario_again(capsys, tmp_path):
    s = _near_trivial()
    behavior = cp.uniform_behavior(s)
    assert not cp.is_noncontextual(s, behavior, tol=1e-8).contextual
    program = model_program(s)
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(ValueError, match="^scenario invalid: .*trivial-equivalence"):
            decide(s, behavior, tol=1e-5)
    assert model_program(s) is program  # the refusals were cache hits
    assert cp.l1_distance(s, behavior, tol=1e-8) == 0.0

    paths = {name: tmp_path / f"{name}.json" for name in ("scenario", "behavior")}
    paths["scenario"].write_bytes(save_document(s))
    paths["behavior"].write_bytes(save_document(behavior))
    argv = ["check", "--scenario", str(paths["scenario"]), "--behavior", str(paths["behavior"])]
    assert run_cli(argv) == 0
    assert run_cli([*argv, "--tolerance", "1e-5"]) == 2
    assert "trivial-equivalence" in capsys.readouterr().err
    assert len(PROGRAM_CACHE) == 1


def test_equivalence_made_invalid_in_place_is_refused(canonical_behavior):
    s = _simplest()
    cp.is_noncontextual(s, canonical_behavior)
    s.prep_equivs[0].alpha[:] = [0.7, 0.0, 0.0, 0.5]  # no longer normalized
    for decide in (cp.is_noncontextual, cp.l1_distance):
        with pytest.raises(ValueError, match="^scenario invalid: .*alpha-not-normalized"):
            decide(s, canonical_behavior)
    assert len(PROGRAM_CACHE) == 1


def _model_rows(s, behavior):
    """The membership rows of the program's columns and states, one row at a
    time: a normalization row per preparation, then a reproduction row per
    physical cell and outcome, with the behavior's entry there."""
    program = model_program(s)
    columns = program.columns
    weight = columns.rays[columns.ray]  # (columns, preparations)
    responses = np.array([program.states[l].responses for l in columns.state]).reshape(len(columns.state), s.n_meas)
    balance = [weight[:, j] for j in range(s.n_preps)]
    reproduce, p = [], []
    for i, j in zip(*np.nonzero(s.physical_mask())):
        for k in range(s.n_outcomes):
            reproduce.append(np.where(responses[:, i] == k, weight[:, j], 0.0))
            p.append(behavior.probs[i, j, k])
    return np.array(balance), np.array(reproduce).reshape(-1, len(columns.state)), np.array(p)


def _reference_programs(s, behavior):
    """The membership and distance LPs built one row at a time from the
    program's columns and states (``_model_rows``)."""
    balance, reproduce, p = _model_rows(s, behavior)
    return _row_loop_programs(s, balance, np.ones(s.n_preps), reproduce, p)


def _row_loop_programs(s, balance, balance_rhs, reproduce, p):
    """The membership LP over ``balance`` and ``reproduce`` (right-hand side
    p), and the distance LP: the membership LP with columns [mu | e+ | e- |
    t], one row per physical cell, then the membership rows with e+ - e-
    added to each reproduction row."""
    n_mu, n_slack = balance.shape[1], len(reproduce)
    membership = cp.LinearProgram(n_mu)
    for row, rhs in zip(np.concatenate((balance, reproduce)), np.concatenate((balance_rhs, p))):
        membership.add_eq(row, float(rhs))
    n_vars = n_mu + 2 * n_slack + 1
    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    distance = cp.LinearProgram(n_vars, objective=objective)
    for cell in range(n_slack // s.n_outcomes):
        row = np.zeros(n_vars)
        for e in range(cell * s.n_outcomes, (cell + 1) * s.n_outcomes):
            row[n_mu + e] = 1.0
            row[n_mu + n_slack + e] = 1.0
        row[-1] = -1.0
        distance.add_ineq(row, 0.0)
    for row_mu, rhs in zip(balance, balance_rhs):
        row = np.zeros(n_vars)
        row[:n_mu] = row_mu
        distance.add_eq(row, float(rhs))
    for e in range(n_slack):
        row = np.zeros(n_vars)
        row[:n_mu] = reproduce[e]
        row[n_mu + e] = 1.0
        row[n_mu + n_slack + e] = -1.0
        distance.add_eq(row, float(p[e]))
    return membership, distance


def _interleaved_distance(s, behavior):
    """d(B) from the distance LP in its earlier layout: columns [mu | e | t],
    with ``e >= p - xi.mu`` and ``e >= xi.mu - p`` interleaved per
    (cell, outcome), then ``sum_k e[cell, k] <= t``, then the balance rows."""
    balance, reproduce, p = _model_rows(s, behavior)
    n_mu, n_slack = balance.shape[1], len(reproduce)
    n_vars = n_mu + n_slack + 1
    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    lp = cp.LinearProgram(n_vars, objective=objective)
    for e in range(n_slack):
        for sign in (-1.0, 1.0):
            row = np.zeros(n_vars)
            row[:n_mu] = sign * reproduce[e]
            row[n_mu + e] = -1.0
            lp.add_ineq(row, sign * p[e])
    for cell in range(n_slack // s.n_outcomes):
        row = np.zeros(n_vars)
        row[n_mu + cell * s.n_outcomes : n_mu + (cell + 1) * s.n_outcomes] = 1.0
        row[-1] = -1.0
        lp.add_ineq(row, 0.0)
    for row_mu in balance:
        row = np.zeros(n_vars)
        row[:n_mu] = row_mu
        lp.add_eq(row, 1.0)
    outcome = cp.solve_lp(lp)
    assert outcome.status == cp.lp.OPTIMAL
    return max(0.0, outcome.objective_value)


def test_compiled_programs_match_the_row_loop(monkeypatch, lp_bytes, b_si, canonical_behavior, b6_scenario, b6_behavior):
    seen = []
    record = lambda lp, tol: seen.append(lp) or cp.solve_lp(lp, tol)  # noqa: E731
    monkeypatch.setattr(ncmodel, "solve_lp", record)
    monkeypatch.setattr(monotone, "solve_lp", record)
    cloning, _ = cp.cloning_scenario()
    masked = cp.power_scenario(b_si, 2)
    masked.cell_mask[:2, :4] = False
    masked_behavior = cp.Behavior(cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(b_si)).probs, cell_mask=masked.cell_mask.copy())
    cases = [
        (b_si, canonical_behavior),
        (b_si, cp.uniform_behavior(b_si)),
        (b6_scenario, b6_behavior),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (masked, masked_behavior),
    ]
    verdicts = set()
    for s, behavior in cases:
        membership, distance = _reference_programs(s, behavior)
        for distance_first in (False, True):
            PROGRAM_CACHE.clear()
            seen.clear()
            contextual = _decide(s, behavior, distance_first)[0]
            verdicts.add(contextual)
            # One membership LP serves both calls; only a contextual
            # behavior reaches its distance LP.
            expected = [membership, distance] if contextual else [membership]
            assert [lp_bytes(lp) for lp in seen] == [lp_bytes(lp) for lp in expected]
            # Repeated calls solve nothing new: the verdict comes from the
            # program, and a distance solves its distance LP again.
            seen.clear()
            cp.is_noncontextual(s, behavior)
            cp.l1_distance(s, behavior)
            assert [lp_bytes(lp) for lp in seen] == [lp_bytes(lp) for lp in expected[1:]]
    assert verdicts == {False, True}


def _compose(blocks):
    out = blocks[0]
    for block in blocks[1:]:
        out = cp.compose_behaviors(out, block)
    return out


def test_distance_matches_the_interleaved_layout(b_si, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(21)
    cloning, _ = cp.cloning_scenario()
    masked = cp.power_scenario(b_si, 2)
    masked.cell_mask[:2, :4] = False
    blocks = lambda n: [canonical_behavior if rng.random() < 0.5 else random_noncontextual_simplest_behavior(rng) for _ in range(n)]  # noqa: E731
    stochastic = cp.FreeOperation(
        0.95 * np.eye(4) + 0.05 * np.eye(4)[:, [1, 0, 3, 2]],  # keeps both sides of the equivalence
        0.9 * np.eye(6)[:, :3] + 0.1 * np.eye(6)[:, 3:],
        np.broadcast_to(np.array([[0.97, 0.02], [0.03, 0.98]]), (6, 2, 2)).copy(),
    )
    image_scenario, image = cp.apply_free_operation(stochastic, b6_scenario, b6_behavior)
    cases = [
        (b_si, canonical_behavior),
        (b_si, cp.uniform_behavior(b_si)),
        (b_si, random_noncontextual_simplest_behavior(rng)),
        (b6_scenario, b6_behavior),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (masked, cp.Behavior(cp.compose_behaviors(canonical_behavior, canonical_behavior).probs, cell_mask=masked.cell_mask.copy())),
        (cp.power_scenario(b_si, 4), _compose(blocks(4))),
        (cp.power_scenario(b_si, 6), _compose(blocks(6))),
        (image_scenario, image),
    ]
    assert image_scenario.prep_equivs and cp.l1_distance(image_scenario, image) > 0.02  # still contextual
    for s, behavior in cases:
        assert abs(cp.l1_distance(s, behavior) - _interleaved_distance(s, behavior)) <= 1e-12


def _per_preparation_programs(s, behavior):
    """The membership and distance LPs in the layout the rays replaced: a
    weight per (preparation, support state), one normalization row per
    preparation, one row per (preparation equivalence, support state) over
    the equivalence's float difference, then the reproduction rows, built
    one row at a time.  A preparation's support is the states its
    component's ray columns sit on."""
    program = model_program(s)
    columns = program.columns
    responses = np.array([st.responses for st in program.states]).reshape(len(program.states), s.n_meas)
    prep, state = [], []
    for j in range(s.n_preps):
        support = np.unique(columns.state[columns.rays[columns.ray, j] > 0]).tolist()
        prep += [j] * len(support)
        state += support
    prep, state = np.array(prep), np.array(state)
    balance, balance_rhs = [], []
    for j in range(s.n_preps):
        balance.append((prep == j).astype(float))
        balance_rhs.append(1.0)
    for equiv in s.prep_equivs:
        weighed = equiv.difference[prep]
        for l in np.unique(state[weighed != 0]):
            balance.append(np.where(state == l, weighed, 0.0))
            balance_rhs.append(0.0)
    reproduce, p = [], []
    for i, j in zip(*np.nonzero(s.physical_mask())):
        for k in range(s.n_outcomes):
            reproduce.append(((prep == j) & (responses[state, i] == k)).astype(float))
            p.append(behavior.probs[i, j, k])
    return _row_loop_programs(s, np.array(balance), np.array(balance_rhs), np.array(reproduce), np.array(p))


def _pauli(v):
    """The observable v . sigma."""
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def _bloch(v):
    return 0.5 * (np.eye(2) + _pauli(v))


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _pure_pair(rng, center, u):
    """Bloch vectors a, b of two pure states with u a + (1 - u) b = center,
    for |center| = r: a = center + s d and b = center - k s d with k = u /
    (1 - u), where d makes the angle with center whose cosine x solves
    |a| = |b| = 1, x^2 = (1 - r^2)(k - 1)^2 / (4 k r^2)."""
    r = np.linalg.norm(center)
    c, k = center / r, u / (1 - u)
    x = np.sign(k - 1) * np.sqrt((1 - r * r) * (k - 1) ** 2 / (4 * k * r * r))
    perp = _unit(rng)
    perp -= (perp @ c) * c
    d = x * c + np.sqrt(1 - x * x) * perp / np.linalg.norm(perp)
    s = -r * x + np.sqrt(r * r * x * x + 1 - r * r)
    a, b = center + s * d, center - k * s * d
    assert np.allclose([np.linalg.norm(a), np.linalg.norm(b)], 1.0)
    return a, b


def _qubit_chain(rng, sides, radius, n_meas=4):
    """A qubit scenario whose pure preparations come in pairs, one pair per
    entry (u, 1 - u) of ``sides``: each pair mixes with those weights to one
    common state, and each pair is declared equivalent to the next.  So
    every inner pair sits in two equivalences.  The common state has Bloch
    radius ``radius``; weights down to 1/4 need 1/2 or more for pure pairs.
    Measurements are random dichotomic ones; the behavior is the
    realization's."""
    center = radius * _unit(rng)
    bloch = [v for u, _ in sides for v in _pure_pair(rng, center, u)]
    n = len(bloch)
    equivs = []
    for t in range(len(sides) - 1):
        alpha, beta = np.zeros(n), np.zeros(n)
        alpha[2 * t : 2 * t + 2] = sides[t]
        beta[2 * t + 2 : 2 * t + 4] = sides[t + 1]
        equivs.append(cp.EquivalenceVector(alpha, beta))
    s = cp.Scenario(n, n_meas, 2, tuple(equivs))
    povms = np.stack([cp.dichotomic_povm(_pauli(_unit(rng))) for _ in range(n_meas)])
    realization = cp.QuantumRealization(states=np.stack([_bloch(v) for v in bloch]), povms=povms)
    assert cp.verify_quantum_equivalences(realization, s).ok
    return s, cp.behavior_from_quantum(realization)


def _off_grid():
    """Equivalences with weights that no rational of denominator at most 1e6
    meets within 1e-9, each with a noncontextual behavior that meets them
    only with the weights as given: 1/2 +- 1e-8 (1/2 is the nearest such
    rational), and a fifth preparation weighed 2e-7 (0 is)."""
    eps = 1e-8
    near_even = cp.Scenario(4, 2, 2, (cp.EquivalenceVector([0.5 + eps, 0.5 - eps, 0, 0], [0, 0, 0.5, 0.5]),))
    q = np.array([[1.0, 0.0, 1.0, 2 * eps], [0.0, 1.0, 0.0, 1.0 - 2 * eps]])
    tiny = cp.Scenario(5, 2, 2, (cp.EquivalenceVector([0.5, 0.5 - 2e-7, 0, 0, 2e-7], [0, 0, 0.5, 0.5, 0]),))
    r = np.array([0.5, 0.5, 0.5 + 1e-7, 0.5 + 1e-7, 1.0])
    return [(near_even, cp.Behavior(np.stack([1.0 - q, q], axis=2))), (tiny, cp.Behavior(np.stack([np.stack([1.0 - r, r], axis=1)] * 2)))]


def test_rays_match_the_per_preparation_layout(b_si, si_vertices, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(23)
    blocks = lambda n: [canonical_behavior if rng.random() < 0.4 else random_noncontextual_simplest_behavior(rng) for _ in range(n)]  # noqa: E731
    cloning, _ = cp.cloning_scenario()
    masked = cp.power_scenario(b_si, 2)
    masked.cell_mask[:2, :4] = False
    same = cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0])
    padded = cp.compose_scenarios(*[cp.Scenario(2, 2, 2, meas_equivs=(same,))] * 2)
    halves = lambda: [cp.Behavior(np.stack([col, col])) for col in (rng.dirichlet([1, 1], size=2) for _ in range(2))]  # noqa: E731
    cases = [(b_si, vertex) for vertex in si_vertices]
    for n in (2, 4):
        cases += [(cp.power_scenario(b_si, n), _compose(blocks(n))) for _ in range(4)]
    cases += [
        (masked, cp.Behavior(cp.compose_behaviors(canonical_behavior, canonical_behavior).probs, cell_mask=masked.cell_mask.copy())),
        (masked, cp.Behavior(cp.compose_behaviors(*blocks(2)).probs, cell_mask=masked.cell_mask.copy())),
        (b6_scenario, b6_behavior),
        (b6_scenario, cp.uniform_behavior(b6_scenario)),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (cloning, cp.uniform_behavior(cloning)),
        (padded, _compose(halves())),
        (padded, _compose(halves())),
        *_off_grid(),
    ]
    # Overlapping even equivalences (near the octahedron), unequal weights,
    # and both.
    chains = (([(0.5, 0.5)] * 3, 0.1), ([(1 / 3, 2 / 3), (0.5, 0.5)], 0.4), ([(1 / 3, 2 / 3), (0.5, 0.5), (0.25, 0.75)], 0.55))
    for sides, radius in chains:
        for _ in range(6):
            s, behavior = _qubit_chain(rng, sides, radius)
            uniform = cp.uniform_behavior(s).probs
            cases += [(s, cp.Behavior(lam * behavior.probs + (1 - lam) * uniform)) for lam in (1.0, 0.8, 0.6)]
    verdicts = []
    for s, behavior in cases:
        membership, distance = _per_preparation_programs(s, behavior)
        reference = cp.solve_lp(membership)
        assert reference.status in (cp.lp.FEASIBLE, cp.lp.INFEASIBLE)
        verdict = cp.is_noncontextual(s, behavior)
        assert verdict.contextual == (reference.status == cp.lp.INFEASIBLE)
        if verdict.contextual:
            expected = cp.solve_lp(distance)
            assert expected.status == cp.lp.OPTIMAL
            assert abs(cp.l1_distance(s, behavior) - max(0.0, expected.objective_value)) <= 1e-12
        else:
            # The equivalences hold by construction, not through an LP row.
            assert cp.validate_nc_model(s, behavior, verdict.model).ok
            assert cp.l1_distance(s, behavior) == 0.0
        verdicts.append(verdict.contextual)
    # Both verdicts on each kind of qubit chain (18 cases each, last).
    chains = verdicts[-54:]
    for start in (0, 18, 36):
        assert set(chains[start : start + 18]) == {False, True}


def _dense(rows):
    """Compiled rows as a dense (n_rows, n_cols) array."""
    start, index, value = rows.arrays()
    out = np.zeros((rows.n_rows, rows.n_cols))
    out[index, np.repeat(np.arange(rows.n_cols), np.diff(start))] = value
    return out


def test_distance_rows_are_the_membership_rows_plus_slack(b_si, b6_scenario):
    cloning, _ = cp.cloning_scenario()
    masked = cp.power_scenario(b_si, 2)
    masked.cell_mask[:2, :4] = False
    no_cells = cp.Scenario(4, 2, 2, b_si.prep_equivs, cell_mask=np.zeros((2, 4), dtype=bool))
    for s in (b_si, b6_scenario, cloning, masked, cp.power_scenario(b_si, 4), no_cells):
        program = model_program(s)
        membership, distance = program.membership.rows, program.distance.rows
        n_cells, n_mu = distance.n_ineq, membership.n_cols
        assert membership.n_ineq == 0
        assert np.array_equal(_dense(membership), _dense(distance)[n_cells:, :n_mu])
        # Both programs' arrays are the row loop's, bit for bit.
        for compiled, reference in zip((membership, distance), _reference_programs(s, cp.uniform_behavior(s))):
            rows, _ = reference.compiled_rows()
            assert [a.tobytes() for a in compiled.arrays()] == [a.tobytes() for a in rows.arrays()]
            assert (compiled.n_rows, compiled.n_cols, compiled.n_ineq) == (rows.n_rows, rows.n_cols, rows.n_ineq)
    # The simplest scenario: 16 weights (4 rays x 4 states), e+ and e- for
    # 16 reproduction rows and t; one row per cell (8) above the 20
    # membership rows.  Each weight has 2 normalization and 4 reproduction
    # entries, each slack 2 and t 8.
    rows = model_program(b_si).distance.rows
    assert (rows.n_cols, rows.n_rows, rows.n_ineq, len(rows.highs.value_)) == (49, 28, 8, 168)


# -- the membership outcome each program keeps (ncmodel.membership_outcome) --


def _membership_solves(monkeypatch):
    """The tolerance of every membership LP solved from here on."""
    tols = []
    monkeypatch.setattr(ncmodel, "solve_lp", lambda lp, tol: tols.append(tol) or cp.solve_lp(lp, tol))
    return tols


def test_behavior_changed_in_place_is_decided_again(b_si, canonical_behavior):
    behavior = cp.uniform_behavior(b_si)
    assert not cp.is_noncontextual(b_si, behavior).contextual
    behavior.probs[:] = canonical_behavior.probs
    distance = cp.l1_distance(b_si, behavior)
    assert cp.is_noncontextual(b_si, behavior).contextual
    behavior.probs[:] = cp.uniform_behavior(b_si).probs
    assert cp.l1_distance(b_si, behavior) == 0.0
    PROGRAM_CACHE.clear()
    assert distance == cp.l1_distance(b_si, canonical_behavior) > 0.0


def test_tolerance_is_part_of_the_memo_key(monkeypatch, b_si):
    tols = _membership_solves(monkeypatch)
    behavior = cp.uniform_behavior(b_si)
    assert not cp.is_noncontextual(b_si, behavior, tol=1e-8).contextual
    assert cp.l1_distance(b_si, behavior, tol=1e-10) == 0.0
    assert tols == [1e-8, 1e-10]
    cp.l1_distance(b_si, behavior, tol=1e-8)
    cp.is_noncontextual(b_si, behavior, tol=1e-10)
    assert tols == [1e-8, 1e-10]


def test_distance_is_zero_exactly_when_the_verdict_is_noncontextual(b_si, si_vertices, canonical_behavior, b6_scenario, b6_behavior):
    rng = np.random.default_rng(5)
    cloning, _ = cp.cloning_scenario()
    blocks = lambda n: [canonical_behavior if rng.random() < 0.3 else random_noncontextual_simplest_behavior(rng) for _ in range(n)]  # noqa: E731
    cases = [(b_si, vertex) for vertex in si_vertices]
    for n in (2, 4):
        cases += [(cp.power_scenario(b_si, n), _compose(blocks(n))) for _ in range(4)]
        cases.append((cp.power_scenario(b_si, n), _compose([si_vertices[0]] * (n - 1) + [canonical_behavior])))
    cases += [
        (b6_scenario, b6_behavior),
        (b6_scenario, cp.uniform_behavior(b6_scenario)),
        (cloning, cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))),
        (cloning, cp.uniform_behavior(cloning)),
    ]
    verdicts = set()
    for s, behavior in cases:
        results = []
        for distance_first in (False, True):
            PROGRAM_CACHE.clear()
            results.append(_decide(s, behavior, distance_first))
            results.append(_decide(s, behavior, not distance_first))  # from the memo
        assert all(result == results[0] for result in results)
        contextual, distance = results[0][0], results[0][-1]
        assert (distance == 0.0) is (not contextual)
        verdicts.add(contextual)
    assert verdicts == {False, True}


def test_threads_deciding_different_behaviors_agree_with_a_serial_run(canonical_behavior):
    rng = np.random.default_rng(9)
    b_si = _simplest()
    s = cp.power_scenario(b_si, 4)
    blocks = lambda: [canonical_behavior if rng.random() < 0.3 else random_noncontextual_simplest_behavior(rng) for _ in range(4)]  # noqa: E731
    behaviors = [_compose(blocks()) for _ in range(10)]  # more than a program keeps outcomes for
    expected = [_decide(s, behavior) for behavior in behaviors]
    assert {verdict[0] for verdict in expected} == {False, True}
    PROGRAM_CACHE.clear()
    program = model_program(s)

    def work(offset):
        # Each thread decides its own half of the behaviors, in both orders.
        for step in range(3):
            for idx in range(offset, len(behaviors), 2):
                assert _decide(s, behaviors[idx], distance_first=bool(step % 2)) == expected[idx]

    assert _run_threads(work, 2) == []
    assert model_program(s) is program
