import numpy as np
import pytest

import ctxpoly as cp
from ctxpoly.compose import block_layout, split_blocks
from ctxpoly.sampling import random_simplest_behavior


def test_composite_counts_and_equivalences(b_si):
    composite = cp.compose_scenarios(b_si, b_si)
    assert (composite.n_preps, composite.n_meas, composite.n_outcomes) == (8, 4, 2)
    assert len(composite.prep_equivs) == 2
    first, second = composite.prep_equivs
    assert np.array_equal(first.alpha, [0.5, 0.5, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(first.beta, [0, 0, 0.5, 0.5, 0, 0, 0, 0])
    assert np.array_equal(second.alpha, [0, 0, 0, 0, 0.5, 0.5, 0, 0])
    assert np.array_equal(second.beta, [0, 0, 0, 0, 0, 0, 0.5, 0.5])


def test_hybrid_cells_masked(b_si):
    composite = cp.compose_scenarios(b_si, b_si)
    mask = composite.physical_mask()
    assert mask[:2, :4].all() and mask[2:, 4:].all()
    assert not mask[:2, 4:].any() and not mask[2:, :4].any()


def test_composition_with_equivalence_free_scenario(b_si):
    bare = cp.Scenario(1, 1, 2)
    composite = cp.compose_scenarios(b_si, bare)
    assert len(composite.prep_equivs) == 1
    assert np.array_equal(composite.prep_equivs[0].alpha, [0.5, 0.5, 0, 0, 0])


def test_scenario_composition_associative(b_si):
    left = cp.compose_scenarios(cp.compose_scenarios(b_si, b_si), b_si)
    right = cp.compose_scenarios(b_si, cp.compose_scenarios(b_si, b_si))
    assert left == right


def test_behavior_composition_associative(canonical_behavior, b_si):
    uniform = cp.uniform_behavior(b_si)
    left = cp.compose_behaviors(cp.compose_behaviors(canonical_behavior, uniform), canonical_behavior)
    right = cp.compose_behaviors(canonical_behavior, cp.compose_behaviors(uniform, canonical_behavior))
    assert left == right


def test_uniform_composes_to_uniform(b_si):
    uniform = cp.uniform_behavior(b_si)
    composite = cp.compose_behaviors(uniform, uniform)
    assert np.allclose(composite.probs, 0.5)


def test_composite_behavior_valid(b_si, canonical_behavior):
    composite_s = cp.compose_scenarios(b_si, b_si)
    composite_b = cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(b_si))
    assert cp.validate_behavior(composite_s, composite_b).ok


def test_quantum_block_makes_composite_contextual(b_si, canonical_behavior):
    composite_s = cp.compose_scenarios(b_si, b_si)
    composite_b = cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(b_si))
    assert cp.is_noncontextual(composite_s, composite_b).contextual


def test_nc_vertices_compose_to_noncontextual(b_si, si_vertices):
    composite_s = cp.compose_scenarios(b_si, b_si)
    nc = [v for v in si_vertices if not cp.is_noncontextual(b_si, v).contextual]
    composite = cp.compose_behaviors(nc[0], nc[-1])
    assert not cp.is_noncontextual(composite_s, composite).contextual


def test_composite_verdict_is_conjunction_of_blocks(b_si):
    rng = np.random.default_rng(9)
    composite_s = cp.compose_scenarios(b_si, b_si)
    for _ in range(20):
        b1, b2 = random_simplest_behavior(rng), random_simplest_behavior(rng)
        joint = cp.is_noncontextual(composite_s, cp.compose_behaviors(b1, b2))
        separate = (
            cp.is_noncontextual(b_si, b1).contextual
            or cp.is_noncontextual(b_si, b2).contextual
        )
        assert joint.contextual == separate


def test_power_one_is_identity(b_si, canonical_behavior):
    assert cp.power_scenario(b_si, 1) == b_si
    assert cp.power_behavior(canonical_behavior, 1) == canonical_behavior


def test_power_zero_rejected(b_si, canonical_behavior):
    with pytest.raises(ValueError):
        cp.power_scenario(b_si, 0)
    with pytest.raises(ValueError):
        cp.power_behavior(canonical_behavior, 0)


def test_power_two_has_sixteen_lifted_facets(b_si, canonical_behavior):
    lifted = cp.lifted_simplest_inequalities(2)
    assert len(lifted.functionals) == 16
    composite = cp.compose_behaviors(canonical_behavior, cp.uniform_behavior(b_si))
    values = np.array(
        [np.tensordot(f.coeffs, composite.probs, axes=3) - f.constant for f in lifted.functionals]
    )
    positive = [lifted.functionals[i].label for i in np.nonzero(values > 1e-9)[0]]
    assert positive == ["b0.h7"]


def test_lifted_facets_are_an_oracle_for_the_composite(b_si):
    # The composite membership LP must agree with "all 16 lifted functionals
    # non-positive", which is the facet-additivity statement in test form.
    rng = np.random.default_rng(13)
    composite_s = cp.compose_scenarios(b_si, b_si)
    lifted = cp.lifted_simplest_inequalities(2)
    for _ in range(25):
        composite = cp.compose_behaviors(
            random_simplest_behavior(rng), random_simplest_behavior(rng)
        )
        values = [
            np.tensordot(f.coeffs, composite.probs, axes=3) - f.constant
            for f in lifted.functionals
        ]
        oracle_nc = max(values) <= 1e-8
        assert (not cp.is_noncontextual(composite_s, composite).contextual) == oracle_nc


def test_contextual_composite_reports_lp_infeasibility(b_si, canonical_behavior):
    composite_s = cp.compose_scenarios(b_si, b_si)
    composite = cp.compose_behaviors(canonical_behavior, canonical_behavior)
    verdict = cp.is_noncontextual(composite_s, composite)
    assert verdict.contextual
    assert verdict.violated == "lp-infeasible"  # no tight set wired up for composites
    assert verdict.model is None


def test_two_quantum_blocks_compose_to_contextual(b_si, canonical_behavior):
    composite_s = cp.compose_scenarios(b_si, b_si)
    composite = cp.compose_behaviors(canonical_behavior, canonical_behavior)
    assert cp.is_noncontextual(composite_s, composite).contextual


def test_power_three_vertex_count_by_block_product(b_si, si_vertices):
    # Direct enumeration at n=3 would need 2^36 assignments; the product rule
    # gives the count from the block vertex sets.
    assert len(si_vertices) ** 3 == 46656


def test_split_blocks_inverts_composition(canonical_behavior):
    composite = cp.power_behavior(canonical_behavior, 3)
    blocks = split_blocks(composite, 3)
    for block in blocks:
        assert np.allclose(block.probs, canonical_behavior.probs)
    assert len(block_layout(3)) == 3


def test_product_counts_check(b_si):
    report = cp.product_counts_check(b_si, b_si)
    assert report.vertices_lhs == report.vertices_rhs == 1296
    assert report.consistent


def test_product_counts_with_near_point_polytope(b_si):
    bare = cp.Scenario(1, 1, 2)
    report = cp.product_counts_check(bare, b_si)
    assert report.vertices_lhs == 2 * 36
    assert report.consistent


def test_composite_contextual_vertex_count(b_si, si_vertices):
    # A composite vertex is contextual iff either block vertex is, so the
    # count follows by inclusion-exclusion over the enumerated blocks.
    contextual_flags = [cp.is_noncontextual(b_si, v).contextual for v in si_vertices]
    n_ctx = sum(contextual_flags)
    expected = n_ctx * 36 + 36 * n_ctx - n_ctx * n_ctx
    assert expected == 512
    composite_s = cp.compose_scenarios(b_si, b_si)
    rng = np.random.default_rng(77)
    for _ in range(25):
        i, j = rng.integers(36), rng.integers(36)
        composite = cp.compose_behaviors(si_vertices[i], si_vertices[j])
        verdict = cp.is_noncontextual(composite_s, composite)
        assert verdict.contextual == (contextual_flags[i] or contextual_flags[j])


def test_meas_equivalences_pad_into_blocks():
    equiv = cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0])  # [0|M1] ~ [0|M2]
    block = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    composite = cp.compose_scenarios(block, block)
    assert len(composite.meas_equivs) == 2
    first, second = composite.meas_equivs
    assert np.array_equal(first.alpha, [1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(first.beta, [0, 0, 1, 0, 0, 0, 0, 0])
    assert np.array_equal(second.alpha, [0, 0, 0, 0, 1, 0, 0, 0])
    assert np.array_equal(second.beta, [0, 0, 0, 0, 0, 0, 1, 0])

    # Ontic states factor: responses agree within each block pair.
    states = cp.enumerate_ontic_states(composite)
    assert [s.responses for s in states] == [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]

    report = cp.product_counts_check(block, block)
    assert report.vertices_lhs == report.vertices_rhs == 16

    uniform = cp.uniform_behavior(block)
    composite_b = cp.compose_behaviors(uniform, uniform)
    assert cp.validate_behavior(composite, composite_b).ok
    assert not cp.is_noncontextual(composite, composite_b).contextual


def test_outcome_count_mismatch_pads():
    two = cp.Scenario(1, 1, 2)
    three = cp.Scenario(1, 1, 3)
    composite = cp.compose_scenarios(two, three)
    assert composite.n_outcomes == 3
    b_two = cp.Behavior(np.array([[[0.25, 0.75]]]))
    b_three = cp.Behavior(np.array([[[0.2, 0.3, 0.5]]]))
    composite_b = cp.compose_behaviors(b_two, b_three)
    assert composite_b.probs.shape == (2, 2, 3)
    assert np.allclose(composite_b.probs[0, 0], [0.25, 0.75, 0.0])
    assert np.allclose(composite_b.probs[1, 1], [0.2, 0.3, 0.5])
    assert np.allclose(composite_b.probs[0, 1], 1 / 3)  # hybrid filler
    assert cp.validate_behavior(composite, composite_b).ok


# -- cloning -----------------------------------------------------------------


def test_cloning_counts_and_equivalences(b_si):
    scenario, decomposition = cp.cloning_scenario()
    assert (scenario.n_preps, scenario.n_meas, scenario.n_outcomes) == (12, 6, 2)
    assert len(scenario.prep_equivs) == 3
    assert cp.validate_scenario(scenario).ok
    base = b_si.prep_equivs[0]
    for l, equiv in enumerate(scenario.prep_equivs):
        assert np.array_equal(equiv.alpha[4 * l : 4 * l + 4], base.alpha)
        assert np.array_equal(equiv.beta[4 * l : 4 * l + 4], base.beta)
        outside = np.delete(np.arange(12), np.arange(4 * l, 4 * l + 4))
        assert not equiv.alpha[outside].any() and not equiv.beta[outside].any()
    assert decomposition.block_preps == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
    assert decomposition.measurement_map[0] == decomposition.measurement_map[1]


def test_cloning_block_scenario_is_six_measurement_family(b6_scenario):
    _, decomposition = cp.cloning_scenario()
    assert decomposition.block_scenario() == b6_scenario


def test_cloning_assemble_split_round_trip(b6_behavior, b6_scenario):
    scenario, decomposition = cp.cloning_scenario()
    uniform = cp.uniform_behavior(b6_scenario)
    assembled = decomposition.assemble([b6_behavior, uniform, b6_behavior])
    assert cp.validate_behavior(scenario, assembled).ok
    blocks = decomposition.split(assembled)
    assert np.array_equal(blocks[0].probs, b6_behavior.probs)
    assert np.array_equal(blocks[1].probs, uniform.probs)


def test_cloning_verdict_is_block_conjunction(b6_scenario, b6_behavior):
    scenario, decomposition = cp.cloning_scenario()
    uniform = cp.uniform_behavior(b6_scenario)
    block_options = [(uniform, False), (b6_behavior, True)]
    for bits in range(8):
        chosen = [block_options[(bits >> l) & 1] for l in range(3)]
        assembled = decomposition.assemble([c[0] for c in chosen])
        # Contextual exactly when some block carries the contextual behavior.
        expected_contextual = any(c[1] for c in chosen)
        verdict = cp.is_noncontextual(scenario, assembled)
        assert verdict.contextual == expected_contextual, bits


def test_cloning_decomposition_serializes():
    import json

    _, decomposition = cp.cloning_scenario()
    doc = decomposition.to_doc()
    text = json.dumps(doc)
    assert json.loads(text) == doc
    assert len(doc["prep_labels"]) == 12
    assert len(doc["meas_labels"]) == 6


def _compose_all(blocks):
    composite = blocks[0]
    for block in blocks[1:]:
        composite = cp.compose_behaviors(composite, block)
    return composite


def test_fourfold_power_matches_its_blocks(b_si, si_vertices):
    rng = np.random.default_rng(23)
    s = cp.power_scenario(b_si, 4)
    nc_vertices = [v for v in si_vertices if not cp.is_noncontextual(b_si, v).contextual]
    cases = [[random_simplest_behavior(rng) for _ in range(4)] for _ in range(5)] + [nc_vertices[:4]]
    seen = set()
    for blocks in cases:
        composite = _compose_all(blocks)
        verdict = cp.is_noncontextual(s, composite)
        assert verdict.contextual == any(cp.is_noncontextual(b_si, b).contextual for b in blocks)
        seen.add(verdict.contextual)
        if verdict.model is not None:
            assert verdict.model.mus.shape == (16, 256)
            assert cp.validate_nc_model(s, composite, verdict.model).ok
        d = cp.l1_distance(s, composite)
        assert d == pytest.approx(max(cp.l1_distance(b_si, b) for b in blocks), abs=cp.DISTANCE_TOL)
    assert seen == {False, True}


def test_sixfold_power_through_public_api(b_si, canonical_behavior):
    # The dense program needed 98304 weights and ran out of memory.
    rng = np.random.default_rng(4)
    blocks = [random_simplest_behavior(rng) for _ in range(6)]
    s = cp.power_scenario(b_si, 6)
    for contextual in (False, True):
        if contextual:
            blocks[3] = canonical_behavior
        composite = _compose_all(blocks)
        verdict = cp.is_noncontextual(s, composite)
        assert verdict.contextual == contextual
        assert any(cp.is_noncontextual(b_si, b).contextual for b in blocks) == contextual
        if not contextual:
            assert cp.validate_nc_model(s, composite, verdict.model).ok
        d = cp.l1_distance(s, composite)
        assert d == pytest.approx(max(cp.l1_distance(b_si, b) for b in blocks), abs=cp.DISTANCE_TOL)
        assert (d > cp.DISTANCE_TOL) == contextual


def test_padded_meas_equivalence_composite_model_validates():
    equiv = cp.EquivalenceVector([1.0, 0, 0, 0], [0, 0, 1.0, 0])
    block = cp.Scenario(2, 2, 2, meas_equivs=(equiv,))
    composite = cp.compose_scenarios(block, block)
    rng = np.random.default_rng(5)
    # Each block's two measurements agree, so each preparation draws one coin.
    halves = [cp.Behavior(np.stack([col, col])) for col in (rng.dirichlet([1, 1], size=2) for _ in range(2))]
    behavior = _compose_all(halves)
    verdict = cp.is_noncontextual(composite, behavior)
    assert not verdict.contextual
    assert cp.validate_nc_model(composite, behavior, verdict.model).ok
    # Off-support states carry no weight: two states per preparation.
    assert (np.count_nonzero(verdict.model.mus > 0, axis=1) <= 2).all()


@pytest.mark.parametrize("count", [2, 4])
def test_assemble_refuses_a_wrong_block_count(b6_behavior, count):
    _, decomposition = cp.cloning_scenario()
    with pytest.raises(cp.ShapeMismatchError, match="^expected 3 block behaviors$"):
        decomposition.assemble([b6_behavior] * count)
