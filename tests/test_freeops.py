import json

import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.cli import run_cli
from ctxpoly.documents import save_document
from ctxpoly.freeops import NOT_REPRESENTABLE, TRANSPORTED
from ctxpoly.sampling import (
    perturbed_behavior,
    random_noncontextual_simplest_behavior,
    random_simplest_behavior,
)


def vertex_behavior(rows):
    arr = np.array(rows, dtype=float)
    return cp.Behavior(np.stack([1.0 - arr, arr], axis=2))


def outcome1(behavior):
    return behavior.probs[:, :, 1]


# -- apply -------------------------------------------------------------------


def test_identity_leaves_behavior_unchanged(b_si, canonical_behavior):
    op = cp.FreeOperation.identity(4, 2, 2)
    image_scenario, image = cp.apply_free_operation(op, b_si, canonical_behavior)
    assert np.allclose(image.probs, canonical_behavior.probs)
    assert image_scenario == b_si


def test_prep_mixing_averages_columns(b_si, canonical_behavior):
    op = cp.FreeOperation(
        q_P=np.array([[0.5], [0.5], [0.0], [0.0]]),
        q_M=np.eye(2),
        q_O=np.broadcast_to(np.eye(2), (2, 2, 2)).copy(),
    )
    _, image = cp.apply_free_operation(op, b_si, canonical_behavior)
    expected = 0.5 * (canonical_behavior.probs[:, 0, :] + canonical_behavior.probs[:, 1, :])
    assert np.allclose(image.probs[:, 0, :], expected)


def test_measurement_swap_on_canonical_behavior(b_si, canonical_behavior):
    op = cp.simplest_permutations()["swap_measurements"]
    _, image = cp.apply_free_operation(op, b_si, canonical_behavior)
    assert np.allclose(image.probs[0], canonical_behavior.probs[1])
    assert np.allclose(image.probs[1], canonical_behavior.probs[0])


def test_dimension_mismatch_raises(b_si, b6_behavior):
    op = cp.FreeOperation.identity(4, 2, 2)
    with pytest.raises(cp.ShapeMismatchError):
        cp.apply_free_operation(op, b_si, b6_behavior)


def test_shape_refusals_name_the_mismatch(b_si, canonical_behavior):
    q_o = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    with pytest.raises(cp.ShapeMismatchError, match="^q_P and q_M must be matrices, q_O a stack of matrices$"):
        cp.FreeOperation(np.ones(4), np.eye(2), q_o)
    with pytest.raises(cp.ShapeMismatchError, match="^q_O must supply one post-processing per old measurement$"):
        cp.FreeOperation(np.eye(4), np.eye(2), np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
    three_meas = cp.FreeOperation.identity(4, 3, 2)
    with pytest.raises(cp.ShapeMismatchError, match=r"^operation does not act on a \(4, 2, 2\) scenario$"):
        cp.transport_equivalences(three_meas, b_si)
    with pytest.raises(cp.ShapeMismatchError, match=r"^operation expects scenario \(4, 3, 2\), got \(4, 2, 2\)$"):
        cp.apply_free_operation(three_meas, b_si, canonical_behavior)
    for keep in ([2], [-1, 0]):
        with pytest.raises(ValueError, match="^keep indices out of range for 2 measurements$"):
            cp.erase_measurements(b_si, canonical_behavior, keep)


def test_masked_behaviors_refused(b_si, canonical_behavior):
    composite_s = cp.compose_scenarios(b_si, b_si)
    composite_b = cp.compose_behaviors(canonical_behavior, canonical_behavior)
    op = cp.FreeOperation.identity(8, 4, 2)
    with pytest.raises(cp.UnsupportedScenarioError):
        cp.apply_free_operation(op, composite_s, composite_b)


def test_apply_output_validates_in_image_scenario(b_si):
    rng = np.random.default_rng(23)
    from ctxpoly.sampling import random_column_stochastic

    for _ in range(10):
        op = cp.FreeOperation(
            q_P=random_column_stochastic(rng, 4, 3),
            q_M=random_column_stochastic(rng, 2, 2),
            q_O=np.stack([random_column_stochastic(rng, 2, 2) for _ in range(2)]),
        )
        behavior = random_simplest_behavior(rng)
        image_scenario, image = cp.apply_free_operation(op, b_si, behavior)
        assert cp.validate_behavior(image_scenario, image, tol=1e-7).ok


# -- transport ---------------------------------------------------------------


def test_identity_transport_returns_equivalence_unchanged(b_si):
    op = cp.FreeOperation.identity(4, 2, 2)
    result = cp.transport_equivalences(op, b_si)
    assert result.preps[0].status == TRANSPORTED
    assert result.preps[0].equivalence == b_si.prep_equivs[0]


def test_prep_pair_swap_transports_to_side_swap(b_si):
    op = cp.simplest_permutations()["swap_prep_pairs"]
    result = cp.transport_equivalences(op, b_si)
    transported = result.preps[0].equivalence
    assert np.array_equal(transported.alpha, [0.0, 0.0, 0.5, 0.5])
    assert np.array_equal(transported.beta, [0.5, 0.5, 0.0, 0.0])


def test_collapse_to_single_prep_not_representable(b_si):
    op = cp.FreeOperation(
        q_P=np.full((4, 1), 0.25),
        q_M=np.eye(2),
        q_O=np.broadcast_to(np.eye(2), (2, 2, 2)).copy(),
    )
    result = cp.transport_equivalences(op, b_si)
    assert result.preps[0].status == NOT_REPRESENTABLE
    assert result.preps[0].equivalence is None


def test_transport_returns_minimum_norm_representative(b_si):
    # A doubly stochastic mixing map leaves a one-parameter family of valid
    # representatives; the reported one must be the minimum-l2 point, not an
    # arbitrary LP vertex.  (The equality system here has dependent rows.)
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    op = cp.FreeOperation(mix, np.eye(2), np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    result = cp.transport_equivalences(op, b_si).preps[0]
    assert result.status == TRANSPORTED
    assert np.allclose(result.equivalence.alpha, [0.5, 0.5, 0, 0], atol=1e-9)
    assert np.allclose(result.equivalence.beta, [0, 0, 0.5, 0.5], atol=1e-9)


def test_failed_projection_raises_instead_of_returning_the_lp_vertex(nnls_fails, b_si):
    # A transport whose fit does not converge is a numerical failure, never
    # a point the transport reports.
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    op = cp.FreeOperation(mix, np.eye(2), np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    with pytest.raises(cp.LpNumericalError, match="NNLS did not converge in 12 steps"):
        cp.transport_equivalences(op, b_si)


def _kkt_holds(matrix, target, x, tol=1e-9):
    """Whether x is the minimizer of x @ x / 2 over the convex weights with
    matrix @ x == target, by its optimality conditions, solver-free: x >= 0,
    every row holds, and the multipliers fitted on the support reproduce x
    there, with a gradient of at most zero off it.  The fit pins the
    multipliers down only where the support spans the rows, as it does for
    generic data; a degenerate optimum can have multipliers the fit misses."""
    a = np.vstack([matrix, np.ones(matrix.shape[1])])
    b = np.append(target, 1.0)
    if x.min() < -tol or np.abs(a @ x - b).max() > tol:
        return False
    support = x > tol
    multipliers, *_ = np.linalg.lstsq(a[:, support].T, x[support], rcond=None)
    gradient = a.T @ multipliers
    return bool(np.abs(gradient[support] - x[support]).max() <= tol and (gradient[~support] <= tol).all())


def test_transport_is_the_minimum_norm_mixture_by_its_optimality_conditions():
    from ctxpoly.sampling import random_column_stochastic

    rng = np.random.default_rng(15)
    off_support = 0
    for _ in range(60):
        # More new preparations than old ones, so many mixtures represent
        # the target.  Every stochastic map's rows sum to the normalization
        # row, and a repeated row adds one more dependent row.
        n_old = int(rng.integers(2, 5))
        matrix = random_column_stochastic(rng, n_old, int(rng.integers(n_old + 1, 9)))
        if rng.random() < 0.3:
            matrix = np.vstack([matrix, matrix[-1]])
        target = matrix @ rng.dirichlet(np.ones(matrix.shape[1]))  # representable by construction
        x = cp.freeops._min_l2_mixture(matrix, target, cp.LP_TOL)
        assert x is not None and _kkt_holds(matrix, target, x)
        off_support += int((x <= 1e-9).sum())
        # An old preparation no new one draws on cannot carry weight.
        unused = matrix.copy()
        unused[0] = 0.0
        unused /= unused.sum(axis=0)
        assert cp.freeops._min_l2_mixture(unused, np.eye(len(unused))[0], cp.LP_TOL) is None
    assert off_support > 0  # the conditions off the support were checked too
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    for target in ([0.25, 0.25, 0.25, 0.25], [0.375, 0.375, 0.125, 0.125]):  # pairs of equal rows
        assert _kkt_holds(mix, np.array(target), cp.freeops._min_l2_mixture(mix, np.array(target), cp.LP_TOL))
    # Dense Dirichlet maps, on about 2% of which the transport failed when it
    # was a HiGHS QP, and the three-outcome event matrices of random
    # measurement maps and post-processings (about 5%).
    for _ in range(150):
        dense = rng.dirichlet(np.ones(4), size=int(rng.integers(2, 7))).T
        n_old, n_new = rng.integers(1, 4, size=2)
        q_m = rng.dirichlet(np.ones(n_old), size=n_new).T
        q_o = rng.dirichlet(np.ones(3), size=(n_old, 3)).transpose(0, 2, 1)
        for matrix in (dense, cp.freeops._event_matrix(cp.FreeOperation(np.eye(1), q_m, q_o))):
            target = matrix @ rng.dirichlet(np.ones(matrix.shape[1]) * 0.5)
            x = cp.freeops._min_l2_mixture(matrix, target, cp.LP_TOL)
            assert x is not None and _kkt_holds(matrix, target, x)


def test_transport_of_a_target_representable_only_within_tol():
    # The fit accepts a target outside the representable set by less than
    # tol: here preparations 3 and 4 would need weights that sum to -eps.
    # The transport returns the nearest convex weights, with no error.
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    for eps in (0.0, 1e-12, 1e-10, 5e-9):
        target = np.array([0.5 + eps, 0.5, -eps, 0.0])
        x = cp.freeops._min_l2_mixture(mix, target, cp.LP_TOL)
        assert x.min() >= 0.0 and np.abs(mix @ x - target).max() <= eps + 1e-15
        assert np.array_equal(x[2:], [0.0, 0.0]) and np.allclose(x[:2], 0.5, rtol=0.0, atol=eps + 1e-15)
    assert cp.freeops._min_l2_mixture(mix, np.array([0.5 + 2e-8, 0.5, -2e-8, 0.0]), cp.LP_TOL) is None


def _within_tol_scenario():
    """A preparation equivalence valid at 1e-8 whose alpha is 2e-9 per row
    from the image of convex weights ``w`` under the stochastic map ``q``."""
    q = np.array([[0.084, 0.626, 0.05, 0.24], [0.104, 0.412, 0.184, 0.3]]).T
    w = np.array([0.62, 0.38])
    alpha = q @ w + np.array([2.0, -2.0, 2.0, -2.0]) * 1e-9
    s = cp.Scenario(4, 2, 2, prep_equivs=(cp.EquivalenceVector(alpha, q[:, ::-1] @ w),))
    return q, w, s


def test_transport_keeps_an_equivalence_met_within_tol(tmp_path, capsys):
    # The feasibility LP that used to decide this refused both targets: HiGHS
    # applies its tolerance to its scaled model.
    q, w, s = _within_tol_scenario()
    assert cp.validate_scenario(s, cp.LP_TOL).ok and np.abs(q @ w - s.prep_equivs[0].alpha).max() < 2.1e-9
    op = cp.FreeOperation(q, np.eye(2), np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    result = cp.transport_equivalences(op, s).preps[0]
    assert result.status == TRANSPORTED
    assert np.abs(q @ result.equivalence.alpha - s.prep_equivs[0].alpha).max() <= cp.LP_TOL
    assert np.abs(q @ result.equivalence.beta - s.prep_equivs[0].beta).max() <= cp.LP_TOL
    image_scenario, _ = cp.apply_free_operation(op, s, cp.uniform_behavior(s))
    assert len(image_scenario.prep_equivs) == 1
    argv = ["apply"]
    for name, document in (("scenario", s), ("behavior", cp.uniform_behavior(s)), ("operation", op)):
        (tmp_path / name).write_bytes(save_document(document))
        argv += [f"--{name}", str(tmp_path / name)]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["transport"] == {"prep": ["transported"], "meas": []}
    one_column = np.array([[0.1], [0.2], [0.3], [0.4]])
    x = cp.freeops._min_l2_mixture(one_column, np.array([0.1 + 2e-9, 0.2 - 2e-9, 0.3 + 2e-9, 0.4 - 2e-9]), cp.LP_TOL)
    assert x is not None and abs(x[0] - 1.0) <= cp.LP_TOL


def test_targets_within_a_quarter_tol_are_transported():
    # A target m @ w + delta, with delta summing to 0 and |delta| <= tol / 4
    # per row, is within sqrt(rows) * tol / 4 of the representable set in the
    # 2-norm, which bounds the least-squares fit's largest miss; for up to 16
    # rows that is at most tol, so the fit never refuses it.  A transported
    # weight vector meets its target within tol.
    rng = np.random.default_rng(21)
    tol = cp.LP_TOL
    for _ in range(200):
        n_old, n_new = rng.integers(1, 4, size=2)
        q_m = rng.dirichlet(np.ones(n_old), size=n_new).T
        q_o = rng.dirichlet(np.ones(3), size=(n_old, 3)).transpose(0, 2, 1)
        dense = rng.dirichlet(np.ones(int(rng.integers(2, 6))), size=int(rng.integers(1, 8))).T
        for matrix in (dense, cp.freeops._event_matrix(cp.FreeOperation(np.eye(1), q_m, q_o))):
            w = rng.dirichlet(np.ones(matrix.shape[1]))
            w[rng.random(len(w)) < 0.3] = 0.0  # a target on a face
            w = w / w.sum() if w.any() else np.eye(len(w))[0]
            delta = rng.uniform(-1.0, 1.0, size=len(matrix))
            delta -= delta.mean()
            target = matrix @ w + delta * (tol / 4) / np.abs(delta).max()
            x = cp.freeops._min_l2_mixture(matrix, target, tol)
            assert x is not None and x.min() >= 0.0
            assert np.abs(matrix @ x - target).max() <= tol and abs(x.sum() - 1.0) <= tol


def test_transport_solves_no_lp(monkeypatch, b_si):
    def no_lp(*args, **kwargs):
        raise AssertionError("the transport solved an LP")

    monkeypatch.setattr(cp.freeops, "solve_lp", no_lp)
    q, _, within_tol = _within_tol_scenario()
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    identity = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    for s, q_p, status in ((b_si, mix, TRANSPORTED), (b_si, np.full((4, 1), 0.25), NOT_REPRESENTABLE),
                           (within_tol, q, TRANSPORTED)):
        op = cp.FreeOperation(q_p, np.eye(2), identity)
        assert cp.transport_equivalences(op, s).preps[0].status == status
        cp.apply_free_operation(op, s, cp.uniform_behavior(s))


def test_transport_raises_when_its_point_breaks_the_rows(monkeypatch):
    # x1 + x3/2 == 1, x2 + x3/2 == 0 over convex weights has the one point
    # (1, 0, 0), while the rows' minimum-norm solution is (5, -1, 2) / 6.
    matrix, target = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]), np.array([1.0, 0.0])
    x = cp.freeops._min_l2_mixture(matrix, target, cp.LP_TOL)
    assert abs(x[0] - 1.0) <= 1e-15 and np.array_equal(x[1:], [0.0, 0.0])
    # Had the LDP's fit found no active bound, x would be (5, 0, 2) / 6, the
    # minimum-norm solution clipped, which breaks the second row by 1/6.
    fits = iter([cp.freeops._nnls, lambda e, f: np.zeros(e.shape[1])])
    monkeypatch.setattr(cp.freeops, "_nnls", lambda e, f: next(fits)(e, f))
    with pytest.raises(cp.LpNumericalError, match="breaks the constraints"):
        cp.freeops._min_l2_mixture(matrix, target, cp.LP_TOL)


def test_nnls_matches_scipy():
    from scipy.optimize import nnls

    rng = np.random.default_rng(17)
    for _ in range(300):
        e = rng.normal(size=rng.integers(1, 8, size=2))
        if rng.random() < 0.3:  # a repeated column
            e[:, -1] = e[:, 0]
        f = rng.normal(size=len(e))
        w = cp.freeops._nnls(e, f)
        assert w.min() >= 0.0
        assert np.linalg.norm(e @ w - f) <= np.linalg.norm(e @ nnls(e, f)[0] - f) + 1e-12


@pytest.mark.parametrize(
    "part, value",
    [
        ("q_P", np.full((4, 4), 0.5)),  # columns sum to 2: every image entry is 1.0
        ("q_O", np.array([[[1.5, 0.0], [-0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])),  # a -0.5 entry
        ("q_M", np.array([[np.nan, 0.0], [0.0, 1.0]])),
        # An empty new axis: the image has no preparations, measurements or
        # outcomes, which validate_scenario refuses.
        ("q_P", np.zeros((4, 0))),
        ("q_M", np.zeros((2, 0))),
        ("q_O", np.zeros((2, 0, 2))),
    ],
)
def test_apply_refuses_an_operation_that_is_not_free(b_si, canonical_behavior, part, value):
    # Each was applied, and its image printed, without a check.
    maps = {"q_P": np.eye(4), "q_M": np.eye(2), "q_O": np.broadcast_to(np.eye(2), (2, 2, 2)).copy(), part: value}
    op = cp.FreeOperation(**maps)
    assert not cp.validate_free_operation(op).ok
    with pytest.raises(ValueError, match=f"^free operation invalid: .*{part}"):
        cp.apply_free_operation(op, b_si, canonical_behavior)


def test_pairwise_collapse_transports_to_two_prep_equivalence(b_si):
    pairwise = np.zeros((4, 2))
    pairwise[0, 0] = pairwise[1, 0] = 0.5
    pairwise[2, 1] = pairwise[3, 1] = 0.5
    op = cp.FreeOperation(pairwise, np.eye(2), np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    result = cp.transport_equivalences(op, b_si).preps[0]
    assert result.status == TRANSPORTED
    assert np.allclose(result.equivalence.alpha, [1.0, 0.0], atol=1e-9)
    assert np.allclose(result.equivalence.beta, [0.0, 1.0], atol=1e-9)


def test_meas_equivalence_transport_through_measurement_swap():
    equiv = cp.EquivalenceVector([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
    s = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    swap = cp.FreeOperation(np.eye(2), np.eye(2)[:, [1, 0]], np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    result = cp.transport_equivalences(swap, s)
    assert result.meas[0].status == TRANSPORTED
    moved = result.meas[0].equivalence
    assert np.array_equal(moved.alpha, [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(moved.beta, [1.0, 0.0, 0.0, 0.0])


def test_transported_equivalences_hold_on_outputs(b_si):
    rng = np.random.default_rng(31)
    mix = 0.5 * np.eye(4) + 0.5 * np.eye(4)[:, [1, 0, 3, 2]]
    op = cp.FreeOperation(
        q_P=mix, q_M=np.eye(2), q_O=np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    )
    result = cp.transport_equivalences(op, b_si)
    assert result.preps[0].status == TRANSPORTED
    for _ in range(5):
        behavior = random_simplest_behavior(rng)
        image_scenario, image = cp.apply_free_operation(op, b_si, behavior)
        assert len(image_scenario.prep_equivs) == 1
        assert cp.validate_behavior(image_scenario, image, tol=1e-8).ok


# -- erasure -----------------------------------------------------------------


def test_erase_b6_to_simplest(b_si, b6_scenario, b6_behavior, canonical_behavior):
    image_scenario, image = cp.erase_measurements(b6_scenario, b6_behavior, [0, 1])
    assert image_scenario == b_si
    assert np.allclose(image.probs, canonical_behavior.probs, atol=1e-12)


def test_erase_keep_all_is_identity(b6_scenario, b6_behavior):
    image_scenario, image = cp.erase_measurements(b6_scenario, b6_behavior, range(6))
    assert image_scenario == b6_scenario
    assert np.allclose(image.probs, b6_behavior.probs)


def test_erase_to_single_measurement(b_si, canonical_behavior):
    image_scenario, image = cp.erase_measurements(b_si, canonical_behavior, [0])
    assert (image_scenario.n_preps, image_scenario.n_meas, image_scenario.n_outcomes) == (4, 1, 2)
    assert len(image_scenario.prep_equivs) == 1
    assert image_scenario.prep_equivs[0] == b_si.prep_equivs[0]
    assert len(image_scenario.meas_equivs) == 0


def test_erase_drops_equivalences_touching_erased_measurements():
    equiv = cp.EquivalenceVector([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
    s = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    behavior = cp.Behavior(np.full((2, 2, 2), 0.5))
    image_scenario, _ = cp.erase_measurements(s, behavior, [0])
    assert len(image_scenario.meas_equivs) == 0


def test_erase_checks_its_scenario_once(monkeypatch, tmp_path, b6_scenario, b6_behavior, malformed_scenario):
    checked = []
    validate = cp.ncmodel.validate_scenario
    monkeypatch.setattr(cp.ncmodel, "validate_scenario", lambda s, tol: checked.append(tol) or validate(s, tol=tol))
    cp.erase_measurements(b6_scenario, b6_behavior, [0, 1], tol=1e-7)
    assert checked == [1e-7]
    checked.clear()
    scenario, behavior = malformed_scenario
    paths = {name: tmp_path / f"{name}.json" for name in ("scenario", "behavior")}
    paths["scenario"].write_bytes(save_document(scenario))
    paths["behavior"].write_bytes(save_document(b6_behavior))
    argv = ["erase", "--scenario", str(paths["scenario"]), "--behavior", str(paths["behavior"]), "--keep", "0"]
    assert run_cli(argv) == 2
    assert checked == [cp.LP_TOL]


def test_empty_keep_rejected(b_si, canonical_behavior):
    with pytest.raises(ValueError):
        cp.erase_measurements(b_si, canonical_behavior, [])


def test_invalid_scenario_rejected_first(malformed_scenario, canonical_behavior):
    # The checks that follow (shapes, keep indices) would otherwise pass
    # some of these, or fail on them with numpy's own errors.
    scenario, behavior = malformed_scenario
    op = cp.simplest_permutations()["swap_measurements"]
    for call in (
        lambda: cp.secondary_procedures(scenario, canonical_behavior),
        lambda: cp.apply_free_operation(op, scenario, canonical_behavior),
        lambda: cp.erase_measurements(scenario, behavior, [0]),
    ):
        with pytest.raises(ValueError, match="^scenario invalid: "):
            call()


@pytest.mark.parametrize("kind", ["non-finite", "prob-out-of-range", "outcome-sum"])
def test_tables_that_are_not_distributions_are_refused(b_si, canonical_behavior, kind):
    # Each of these used to return a result: "simulable", secondary weights,
    # an image.  ctx check refused the same tables.
    probs = canonical_behavior.probs.copy()
    probs[0, 0] = {"non-finite": [np.nan, 0.5], "prob-out-of-range": [1.5, -0.5], "outcome-sum": [0.9, 0.9]}[kind]
    bad = cp.Behavior(probs)
    op = cp.simplest_permutations()["swap_measurements"]
    for call in (
        lambda: cp.find_simulation(bad, canonical_behavior),
        lambda: cp.find_simulation(canonical_behavior, bad),
        lambda: cp.secondary_procedures(b_si, bad),
        lambda: cp.apply_free_operation(op, b_si, bad),
        lambda: cp.erase_measurements(b_si, bad, [0]),
    ):
        with pytest.raises(ValueError, match=f"behavior invalid: .*{kind}"):
            call()


# -- permutations and vertex paths -------------------------------------------


def test_permutation_matrices_match_their_actions(b_si):
    perms = cp.simplest_permutations()
    probe = vertex_behavior(((1, 0, 0, 1), (1, 0, 1, 0)))
    _, image = cp.apply_free_operation(perms["swap_preps_12"], b_si, probe)
    assert np.array_equal(outcome1(image), [[0, 1, 0, 1], [0, 1, 1, 0]])


@pytest.mark.parametrize("name", ["swap_preps_12", "swap_preps_34", "swap_measurements", "swap_prep_pairs"])
def test_permutations_are_involutions(b_si, canonical_behavior, name):
    op = cp.simplest_permutations()[name]
    s1, b1 = cp.apply_free_operation(op, b_si, canonical_behavior)
    _, b2 = cp.apply_free_operation(op, s1, b1)
    assert np.allclose(b2.probs, canonical_behavior.probs)


@pytest.mark.parametrize("name", ["swap_preps_12", "swap_preps_34", "swap_measurements", "swap_prep_pairs"])
def test_permutations_map_vertex_set_onto_itself(b_si, si_vertices, name):
    op = cp.simplest_permutations()[name]
    originals = {v.probs.tobytes() for v in si_vertices}
    images = {cp.apply_free_operation(op, b_si, v)[1].probs.tobytes() for v in si_vertices}
    assert images == originals


def test_empty_path_for_equal_vertices():
    first = cp.simplest_contextual_vertices()[0]
    assert cp.contextual_vertex_path(first, first) == []


def test_path_between_h7_and_h8_replays(b_si, si_vertices):
    ineqs = cp.simplest_scenario_inequalities()
    by_facet = {}
    for idx in cp.simplest_contextual_vertices():
        values = cp.evaluate_inequalities(ineqs, si_vertices[idx])[:8]
        by_facet[ineqs.functionals[int(np.argmax(values))].label] = idx
    word = cp.contextual_vertex_path(by_facet["h7"], by_facet["h8"])
    assert word
    scenario, behavior = b_si, si_vertices[by_facet["h7"]]
    for name in word:
        scenario, behavior = cp.apply_free_operation(cp.simplest_permutations()[name], scenario, behavior)
    assert np.array_equal(behavior.probs, si_vertices[by_facet["h8"]].probs)


def test_vertex_graph_is_built_once(monkeypatch):
    cp.contextual_vertex_path(9, 27)
    monkeypatch.setattr(cp.freeops, "apply_free_operation", None)  # a rebuilt graph would call it
    assert cp.contextual_vertex_path(9, 8) == ["swap_prep_pairs"]


def test_path_words_are_deterministic_and_tie_broken():
    # Shortest words, ties broken toward the generator listing order; frozen
    # from the first verified run as a regression guard.
    contextual = cp.simplest_contextual_vertices()
    assert contextual == (8, 9, 13, 16, 19, 22, 26, 27)
    assert cp.contextual_vertex_path(9, 8) == ["swap_prep_pairs"]
    assert cp.contextual_vertex_path(9, 19) == ["swap_preps_12"]
    assert cp.contextual_vertex_path(9, 27) == [
        "swap_preps_12", "swap_preps_34", "swap_prep_pairs",
    ]
    repeat = [cp.contextual_vertex_path(9, 27) for _ in range(3)]
    assert all(word == repeat[0] for word in repeat)


def test_all_contextual_vertex_pairs_reachable(b_si, si_vertices):
    contextual = cp.simplest_contextual_vertices()
    perms = cp.simplest_permutations()
    for v in contextual:
        for w in contextual:
            word = cp.contextual_vertex_path(v, w)
            scenario, behavior = b_si, si_vertices[v]
            for name in word:
                scenario, behavior = cp.apply_free_operation(perms[name], scenario, behavior)
            assert np.array_equal(behavior.probs, si_vertices[w].probs)


def test_non_contextual_vertex_rejected_as_path_endpoint():
    contextual = set(cp.simplest_contextual_vertices())
    other = next(i for i in range(36) if i not in contextual)
    with pytest.raises(ValueError):
        cp.contextual_vertex_path(other, next(iter(contextual)))


# -- freeness ----------------------------------------------------------------


def test_operations_preserve_noncontextuality(b_si):
    rng = np.random.default_rng(41)
    ops = list(cp.simplest_permutations().values())
    for _ in range(6):
        behavior = random_noncontextual_simplest_behavior(rng)
        assert not cp.is_noncontextual(b_si, behavior).contextual
        for op in ops:
            image_scenario, image = cp.apply_free_operation(op, b_si, behavior)
            assert not cp.is_noncontextual(image_scenario, image).contextual


def test_erasure_and_secondary_operations_are_free_too(b_si, canonical_behavior):
    rng = np.random.default_rng(43)
    secondary_op = cp.secondary_procedures(b_si, perturbed_behavior(canonical_behavior, rng, 0.01)).operation
    for _ in range(4):
        behavior = random_noncontextual_simplest_behavior(rng)
        image_scenario, image = cp.erase_measurements(b_si, behavior, [1])
        assert not cp.is_noncontextual(image_scenario, image).contextual
        image_scenario, image = cp.apply_free_operation(secondary_op, b_si, behavior)
        assert not cp.is_noncontextual(image_scenario, image).contextual


def test_extra_equivalence_scenario_reduces_to_simplest(b_si, canonical_behavior):
    # A six-preparation scenario whose extra equivalence avoids the first four
    # preparations: selecting those four is a free operation onto the simplest
    # scenario, and the extra equivalence (unrepresentable there) drops away.
    extra = cp.EquivalenceVector([0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0])  # P5 ~ P6
    base = cp.EquivalenceVector([0.5, 0.5, 0, 0, 0, 0], [0, 0, 0.5, 0.5, 0, 0])
    wide = cp.Scenario(6, 2, 2, prep_equivs=(base, extra))
    assert cp.validate_scenario(wide).ok

    probs = np.full((2, 6, 2), 0.5)
    probs[:, :4, :] = canonical_behavior.probs
    wide_behavior = cp.Behavior(probs)
    assert cp.validate_behavior(wide, wide_behavior).ok

    selector = cp.FreeOperation(
        q_P=np.eye(6)[:, :4],
        q_M=np.eye(2),
        q_O=np.broadcast_to(np.eye(2), (2, 2, 2)).copy(),
    )
    image_scenario, image = cp.apply_free_operation(selector, wide, wide_behavior)
    assert image_scenario == b_si
    assert np.allclose(image.probs, canonical_behavior.probs)
    assert cp.is_noncontextual(image_scenario, image).contextual
    assert cp.is_noncontextual(wide, wide_behavior).contextual


# -- secondary procedures ----------------------------------------------------


def test_secondary_identity_on_clean_input(b_si, canonical_behavior):
    result = cp.secondary_procedures(b_si, canonical_behavior)
    assert np.allclose(result.weights, np.eye(4), atol=1e-9)
    assert result.max_shift <= 1e-9
    assert np.allclose(result.behavior.probs, canonical_behavior.probs, atol=1e-9)


def test_secondary_identity_on_depolarized_input(b_si):
    uniform = cp.uniform_behavior(b_si)
    result = cp.secondary_procedures(b_si, uniform)
    assert np.allclose(result.weights, np.eye(4), atol=1e-9)
    assert not cp.is_noncontextual(b_si, result.behavior).contextual


def test_secondary_repairs_point_perturbation(b_si, canonical_behavior):
    probs = canonical_behavior.probs.copy()
    probs[0, 0, 1] += 0.01
    probs[0, 0] /= probs[0, 0].sum()
    noisy = cp.Behavior(probs)
    assert not cp.validate_behavior(b_si, noisy).ok

    result = cp.secondary_procedures(b_si, noisy)
    assert cp.validate_behavior(b_si, result.behavior, tol=1e-9).ok
    values = cp.evaluate_inequalities(cp.simplest_scenario_inequalities(), result.behavior)
    base = np.sqrt(2.0) - 1.0
    assert values[6] > 0.0
    assert abs(values[6] - base) <= 0.05  # violation moved by O(0.01)
    assert result.operation.q_P is result.weights


def test_secondary_output_certifies_input(b_si, canonical_behavior):
    rng = np.random.default_rng(55)
    noisy = perturbed_behavior(canonical_behavior, rng, 0.01)
    result = cp.secondary_procedures(b_si, noisy)
    verdict = cp.is_noncontextual(b_si, result.behavior)
    assert verdict.contextual
    assert result.max_shift < 0.05


def _secondary_lp_reference(s, p):
    """The secondary-procedure LP built one row at a time, as loops."""
    n_j = s.n_preps
    n_u = n_j * n_j
    n_vars = n_u + s.n_meas * n_j * s.n_outcomes + 1
    u_idx = lambda src, new: src * n_j + new  # noqa: E731
    m_idx = lambda i, j, k: n_u + (i * n_j + j) * s.n_outcomes + k  # noqa: E731
    objective = np.zeros(n_vars)
    objective[-1] = 1.0
    for src in range(n_j):
        for new in range(n_j):
            if src != new:
                objective[u_idx(src, new)] = cp.freeops._IDENTITY_TIEBREAK
    lp = cp.LinearProgram(n_vars, objective=objective)
    for new in range(n_j):
        row = np.zeros(n_vars)
        for src in range(n_j):
            row[u_idx(src, new)] = 1.0
        lp.add_eq(row, 1.0)
    for equiv in s.prep_equivs:
        diff = equiv.difference
        for i in range(s.n_meas):
            for k in range(s.n_outcomes):
                row = np.zeros(n_vars)
                for new in range(n_j):
                    if diff[new] == 0.0:
                        continue
                    for src in range(n_j):
                        row[u_idx(src, new)] += diff[new] * p[i, src, k]
                lp.add_eq(row, 0.0)
    for i in range(s.n_meas):
        for j in range(n_j):
            for k in range(s.n_outcomes):
                base = np.zeros(n_vars)
                for src in range(n_j):
                    base[u_idx(src, j)] = p[i, src, k]
                row = base.copy()
                row[m_idx(i, j, k)] = -1.0
                lp.add_ineq(row, float(p[i, j, k]))
                row = -base
                row[m_idx(i, j, k)] = -1.0
                lp.add_ineq(row, -float(p[i, j, k]))
    for i in range(s.n_meas):
        for j in range(n_j):
            row = np.zeros(n_vars)
            for k in range(s.n_outcomes):
                row[m_idx(i, j, k)] = 0.5
            row[-1] = -1.0
            lp.add_ineq(row, 0.0)
    return lp


def test_secondary_lp_matches_the_row_loop(monkeypatch, lp_bytes, b_si, canonical_behavior, b6_scenario, b6_behavior):
    seen = []
    monkeypatch.setattr(cp.freeops, "solve_lp", lambda lp, tol: seen.append(lp) or cp.solve_lp(lp, tol))
    rng = np.random.default_rng(8)
    cloning, _ = cp.cloning_scenario()
    cloning_behavior = cp.Behavior(np.concatenate([b6_behavior.probs] * 3, axis=1))
    cases = [
        (b_si, canonical_behavior),
        (b_si, vertex_behavior(((0, 1, 0, 1), (1, 0, 0, 1)))),  # zero entries: signed zeros
        (b_si, perturbed_behavior(canonical_behavior, rng, 0.01)),
        (b6_scenario, perturbed_behavior(b6_behavior, rng, 0.01)),
        (cloning, perturbed_behavior(cloning_behavior, rng, 0.01)),  # three equivalences
    ]
    for s, behavior in cases:
        cp.secondary_procedures(s, behavior)
        assert lp_bytes(seen.pop()) == lp_bytes(_secondary_lp_reference(s, behavior.probs))
