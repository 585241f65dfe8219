"""Block composition of scenarios and behaviors.

Two scenarios compose by concatenating their preparations and measurements
and zero-padding every equivalence into its block.  Behaviors stack into a
block-diagonal table; the hybrid cells (a measurement of one block against
a preparation of the other) carry no data, are filled with the uniform
distribution, and stay masked so decision procedures skip them.  At the
polytope level this is a Cartesian product: vertex counts multiply and
facet counts add, and a composite is noncontextual exactly when every block
is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ncmodel import (
    ENUMERATION_CAP,
    Inequality,
    InequalitySet,
    enumerate_behavior_vertices,
    simplest_scenario_inequalities,
)
from .scenario import Behavior, EquivalenceVector, Scenario, ShapeMismatchError, make_simplest_scenario


def _pad_prep_equiv(e: EquivalenceVector, before: int, after: int) -> EquivalenceVector:
    pad = lambda v: np.concatenate([np.zeros(before), v, np.zeros(after)])  # noqa: E731
    return EquivalenceVector(pad(e.alpha), pad(e.beta))


def _pad_meas_equiv(
    e: EquivalenceVector, old_k: int, new_k: int, meas_before: int, meas_after: int
) -> EquivalenceVector:
    old = len(e) // old_k

    def pad(v: np.ndarray) -> np.ndarray:
        table = np.zeros(((meas_before + old + meas_after), new_k))
        table[meas_before : meas_before + old, :old_k] = v.reshape(old, old_k)
        return table.reshape(-1)

    return EquivalenceVector(pad(e.alpha), pad(e.beta))


def compose_scenarios(s1: Scenario, s2: Scenario) -> Scenario:
    """The block scenario: counts add, outcomes pad to the larger block, every
    equivalence is zero-padded into its block, and hybrid cells are masked."""
    k = max(s1.n_outcomes, s2.n_outcomes)
    prep_equivs = tuple(_pad_prep_equiv(e, 0, s2.n_preps) for e in s1.prep_equivs) + tuple(
        _pad_prep_equiv(e, s1.n_preps, 0) for e in s2.prep_equivs
    )
    meas_equivs = tuple(
        _pad_meas_equiv(e, s1.n_outcomes, k, 0, s2.n_meas) for e in s1.meas_equivs
    ) + tuple(_pad_meas_equiv(e, s2.n_outcomes, k, s1.n_meas, 0) for e in s2.meas_equivs)
    mask = np.zeros((s1.n_meas + s2.n_meas, s1.n_preps + s2.n_preps), dtype=bool)
    mask[: s1.n_meas, : s1.n_preps] = s1.physical_mask()
    mask[s1.n_meas :, s1.n_preps :] = s2.physical_mask()
    return Scenario(
        n_preps=s1.n_preps + s2.n_preps,
        n_meas=s1.n_meas + s2.n_meas,
        n_outcomes=k,
        prep_equivs=prep_equivs,
        meas_equivs=meas_equivs,
        cell_mask=mask,
    )


def compose_behaviors(b1: Behavior, b2: Behavior) -> Behavior:
    """Stack two behaviors into the block table; masked cells (hybrids and any
    masked cells inside the blocks) take the uniform filler over the padded
    outcome set."""
    k = max(b1.n_outcomes, b2.n_outcomes)
    n_meas = b1.n_meas + b2.n_meas
    n_preps = b1.n_preps + b2.n_preps
    probs = np.zeros((n_meas, n_preps, k))
    probs[: b1.n_meas, : b1.n_preps, : b1.n_outcomes] = b1.probs
    probs[b1.n_meas :, b1.n_preps :, : b2.n_outcomes] = b2.probs
    mask = np.zeros((n_meas, n_preps), dtype=bool)
    mask[: b1.n_meas, : b1.n_preps] = b1.physical_mask()
    mask[b1.n_meas :, b1.n_preps :] = b2.physical_mask()
    probs[~mask] = 1.0 / k
    return Behavior(probs, cell_mask=mask)


def power_scenario(s: Scenario, n: int) -> Scenario:
    """n-fold left-associated composition of a scenario with itself."""
    if n < 1:
        raise ValueError("power requires n >= 1")
    out = s
    for _ in range(n - 1):
        out = compose_scenarios(out, s)
    return out


def power_behavior(b: Behavior, n: int) -> Behavior:
    if n < 1:
        raise ValueError("power requires n >= 1")
    out = b
    for _ in range(n - 1):
        out = compose_behaviors(out, b)
    return out


def block_layout(n: int, block: Scenario | None = None) -> list[tuple[slice, slice]]:
    """(measurement slice, preparation slice) of each block inside the n-fold
    power of ``block`` (default: the simplest scenario)."""
    block = block or make_simplest_scenario()
    return [
        (
            slice(l * block.n_meas, (l + 1) * block.n_meas),
            slice(l * block.n_preps, (l + 1) * block.n_preps),
        )
        for l in range(n)
    ]


def split_blocks(b: Behavior, n: int, block: Scenario | None = None) -> list[Behavior]:
    """Restrict a power-composite behavior back to its n block behaviors."""
    block = block or make_simplest_scenario()
    out = []
    for meas_sl, prep_sl in block_layout(n, block):
        out.append(Behavior(b.probs[meas_sl, prep_sl, : block.n_outcomes].copy()))
    return out


def lifted_simplest_inequalities(n: int) -> InequalitySet:
    """The 8n tight nontrivial facets of the n-fold power of the simplest
    scenario: each block contributes its own eight, zero-padded in place.
    Labels are ``b{block}.h{index}``."""
    base = simplest_scenario_inequalities().nontrivial()
    power = power_scenario(make_simplest_scenario(), n)
    shape = (power.n_meas, power.n_preps, power.n_outcomes)
    functionals = []
    for l, (meas_sl, prep_sl) in enumerate(block_layout(n)):
        for functional in base:
            coeffs = np.zeros(shape)
            coeffs[meas_sl, prep_sl, :2] = functional.coeffs
            functionals.append(Inequality(coeffs, functional.constant, f"b{l}.{functional.label}"))
    return InequalitySet(tuple(functionals))


@dataclass
class ProductCountsReport:
    vertices_lhs: int
    vertices_rhs: int
    facets_note: str

    @property
    def consistent(self) -> bool:
        return self.vertices_lhs == self.vertices_rhs


def product_counts_check(s1: Scenario, s2: Scenario, cap: int = ENUMERATION_CAP) -> ProductCountsReport:
    """Verify |V(s1 (+) s2)| = |V(s1)| * |V(s2)| by enumerating the composite
    directly and comparing with the product of the block counts."""
    direct = len(enumerate_behavior_vertices(compose_scenarios(s1, s2), cap=cap))
    product = len(enumerate_behavior_vertices(s1, cap=cap)) * len(
        enumerate_behavior_vertices(s2, cap=cap)
    )
    note = (
        "facet counts add across blocks: each preparation-equivalence component "
        "of the composite lies in one block, so its membership program weighs "
        "only the block's response patterns and splits into the block programs"
    )
    return ProductCountsReport(vertices_lhs=direct, vertices_rhs=product, facets_note=note)


# --------------------------------------------------------------------------
# The state-dependent cloning scenario.
# --------------------------------------------------------------------------

_CLONING_PREP_LABELS = (
    "input_a", "input_a_perp", "input_b", "input_b_perp",
    "clone_out_a", "clone_out_a_perp", "ideal_aa", "ideal_aa_perp",
    "clone_out_b", "clone_out_b_perp", "ideal_bb", "ideal_bb_perp",
)
_CLONING_MEAS_LABELS = (
    "test_a", "test_b", "test_clone_a", "test_clone_b", "test_aa", "test_bb",
)


@dataclass
class CloningDecomposition:
    """Witness that the cloning scenario is three four-preparation blocks
    sharing one measurement set.

    ``block_preps[l]`` lists the composite preparation indices of block l and
    ``measurement_map[l]`` the composite index of each of the block's six
    measurements; all three rows coincide, which is the label identification
    that collapses the 18 abstract block measurements to 6 physical ones.
    """

    block_preps: tuple[tuple[int, ...], ...]
    measurement_map: tuple[tuple[int, ...], ...]
    prep_labels: tuple[str, ...]
    meas_labels: tuple[str, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.block_preps)

    def block_scenario(self) -> Scenario:
        """Each block is the simplest-family scenario with six measurements."""
        return make_simplest_scenario(n_meas=len(self.measurement_map[0]))

    def assemble(self, blocks: list[Behavior]) -> Behavior:
        """Stack per-block behaviors (measurements x 4 preps each) into the
        full table; every cell is physical because measurements are shared."""
        if len(blocks) != self.n_blocks:
            raise ShapeMismatchError(f"expected {self.n_blocks} block behaviors")
        return Behavior(np.concatenate([b.probs for b in blocks], axis=1))

    def split(self, behavior: Behavior) -> list[Behavior]:
        return [Behavior(behavior.probs[:, list(preps), :].copy()) for preps in self.block_preps]

    def to_doc(self) -> dict:
        return {
            "block_preps": [list(p) for p in self.block_preps],
            "measurement_map": [list(m) for m in self.measurement_map],
            "prep_labels": list(self.prep_labels),
            "meas_labels": list(self.meas_labels),
        }


def cloning_scenario() -> tuple[Scenario, CloningDecomposition]:
    """The state-dependent cloning scenario: 12 preparations (each source
    state, cloner output and ideal clone together with its orthogonal
    counterpart), 6 dichotomic measurements shared by all of them, and one
    even-mixture equivalence per block.

    The accompanying decomposition exhibits it as the three-fold composition
    of the six-measurement simplest-family scenario under measurement-label
    identification, so its noncontextual polytope is the product of the three
    block polytopes.
    """
    base = make_simplest_scenario().prep_equivs[0]
    equivs = tuple(
        _pad_prep_equiv(base, 4 * l, 12 - 4 * (l + 1)) for l in range(3)
    )
    scenario = Scenario(n_preps=12, n_meas=6, n_outcomes=2, prep_equivs=equivs)
    decomposition = CloningDecomposition(
        block_preps=tuple(tuple(range(4 * l, 4 * (l + 1))) for l in range(3)),
        measurement_map=tuple(tuple(range(6)) for _ in range(3)),
        prep_labels=_CLONING_PREP_LABELS,
        meas_labels=_CLONING_MEAS_LABELS,
    )
    return scenario, decomposition
