"""Core types for prepare-and-measure scenarios.

A scenario fixes the counts of preparations, measurements and outcomes
together with the declared operational equivalences (convex mixtures of
procedures that are statistically indistinguishable).  A behavior is the
dense table of conditional outcome probabilities collected against such a
scenario.  Everything here is a plain immutable value; validation never
raises for bad data, it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

#: Default tolerance for equality checks on probabilities.  Double precision
#: with head-room for LP round-off.
PROB_TOL = 1e-9

#: Canonical preparation equivalence of the simplest nontrivial scenario:
#: an even mixture of the first two preparations is indistinguishable from
#: an even mixture of the last two.
_SIMPLEST_ALPHA = (0.5, 0.5, 0.0, 0.0)
_SIMPLEST_BETA = (0.0, 0.0, 0.5, 0.5)


class ShapeMismatchError(ValueError):
    """Tensor or matrix dimensions disagree with the scenario they target."""


@dataclass(frozen=True, eq=False)
class EquivalenceVector:
    """One operational equivalence, encoded as the weight pair (alpha; beta).

    Both sides are convex weight vectors of equal length: over preparations
    for a preparation equivalence, over measurement events in (measurement,
    outcome) row-major order for a measurement equivalence.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.ndim != 1 or beta.ndim != 1:
            raise ShapeMismatchError("equivalence weights must be 1-D vectors")
        if alpha.shape != beta.shape:
            raise ShapeMismatchError(
                f"alpha has length {alpha.shape[0]} but beta has length {beta.shape[0]}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __len__(self) -> int:
        return self.alpha.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquivalenceVector):
            return NotImplemented
        return np.array_equal(self.alpha, other.alpha) and np.array_equal(self.beta, other.beta)

    @property
    def difference(self) -> np.ndarray:
        """alpha - beta; the row each equivalence contributes to linear checks."""
        return self.alpha - self.beta

    def nontrivial(self, tol: float = PROB_TOL) -> bool:
        """False when alpha equals beta entrywise (a self-equivalence)."""
        return bool(np.max(np.abs(self.difference), initial=0.0) > tol)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A prepare-and-measure scenario.

    ``cell_mask`` (measurements x preparations, True = physical) marks which
    cells of a behavior carry data.  Composite scenarios mark hybrid cells --
    a measurement of one block against a preparation of the other -- as
    non-physical; those cells hold a uniform filler in behaviors and are
    skipped by every decision procedure.  ``None`` means all cells physical.
    """

    n_preps: int
    n_meas: int
    n_outcomes: int
    prep_equivs: tuple[EquivalenceVector, ...] = ()
    meas_equivs: tuple[EquivalenceVector, ...] = ()
    cell_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prep_equivs", tuple(self.prep_equivs))
        object.__setattr__(self, "meas_equivs", tuple(self.meas_equivs))
        if self.cell_mask is not None:
            mask = np.asarray(self.cell_mask, dtype=bool)
            object.__setattr__(self, "cell_mask", mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            (self.n_preps, self.n_meas, self.n_outcomes)
            == (other.n_preps, other.n_meas, other.n_outcomes)
            and self.prep_equivs == other.prep_equivs
            and self.meas_equivs == other.meas_equivs
            and np.array_equal(self.physical_mask(), other.physical_mask())
        )

    @property
    def n_events(self) -> int:
        """Number of measurement events, i.e. (measurement, outcome) pairs."""
        return self.n_meas * self.n_outcomes

    def event_index(self, i: int, k: int) -> int:
        """Flat index of event (measurement i, outcome k), row-major in k."""
        return i * self.n_outcomes + k

    def physical_mask(self) -> np.ndarray:
        """Boolean (n_meas, n_preps) array; True where a behavior cell is data."""
        if self.cell_mask is None:
            return np.ones((self.n_meas, self.n_preps), dtype=bool)
        return self.cell_mask


@dataclass(frozen=True, eq=False)
class Behavior:
    """Dense probability table probs[i][j][k] = p(outcome k | measurement i, preparation j)."""

    probs: np.ndarray
    cell_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 3:
            raise ShapeMismatchError("behavior tensor must have shape (meas, preps, outcomes)")
        object.__setattr__(self, "probs", probs)
        if self.cell_mask is not None:
            mask = np.asarray(self.cell_mask, dtype=bool)
            if mask.shape != probs.shape[:2]:
                raise ShapeMismatchError("cell mask must have shape (meas, preps)")
            object.__setattr__(self, "cell_mask", mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Behavior):
            return NotImplemented
        return np.array_equal(self.probs, other.probs) and np.array_equal(
            self.physical_mask(), other.physical_mask()
        )

    @property
    def n_meas(self) -> int:
        return self.probs.shape[0]

    @property
    def n_preps(self) -> int:
        return self.probs.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[2]

    def physical_mask(self) -> np.ndarray:
        if self.cell_mask is None:
            return np.ones(self.probs.shape[:2], dtype=bool)
        return self.cell_mask


@dataclass(frozen=True)
class Violation:
    """A single failed check: which constraint, how badly, and where."""

    constraint: str
    magnitude: float
    location: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "ok"
        worst = max(self.violations, key=lambda v: v.magnitude)
        return f"{len(self.violations)} violation(s); worst {worst.constraint} at {worst.location} ({worst.magnitude:.3g})"


def make_simplest_scenario(n_meas: int = 2) -> Scenario:
    """The simplest nontrivial scenario: 4 preparations, dichotomic measurements,
    and the single preparation equivalence (1/2,1/2,0,0; 0,0,1/2,1/2).

    ``n_meas=2`` is the minimal case; larger values give the family that keeps
    the same preparation structure but adds measurements (no measurement
    equivalences).
    """
    if n_meas < 1:
        raise ValueError("need at least one measurement")
    equiv = EquivalenceVector(np.array(_SIMPLEST_ALPHA), np.array(_SIMPLEST_BETA))
    return Scenario(n_preps=4, n_meas=n_meas, n_outcomes=2, prep_equivs=(equiv,))


def _check_equivalence(
    equiv: EquivalenceVector, expected_len: int, kind: str, index: int, tol: float
) -> list[Violation]:
    out: list[Violation] = []
    loc = (kind, index)
    if len(equiv) != expected_len:
        out.append(Violation("equivalence-length", float(abs(len(equiv) - expected_len)), loc))
        return out
    for name, vec in (("alpha", equiv.alpha), ("beta", equiv.beta)):
        low = float(np.min(vec, initial=0.0))
        high = float(np.max(vec, initial=0.0))
        if low < -tol or high > 1.0 + tol:
            out.append(Violation(f"{name}-out-of-range", max(-low, high - 1.0), loc))
        gap = abs(float(np.sum(vec)) - 1.0)
        if gap > tol:
            out.append(Violation(f"{name}-not-normalized", gap, loc))
    if not equiv.nontrivial(tol):
        out.append(Violation("trivial-equivalence", 0.0, loc))
    return out


def validate_scenario(s: Scenario, tol: float = PROB_TOL) -> ValidationReport:
    """Check counts, equivalence lengths, weight normalization and nontriviality.

    Failures are data, not exceptions; each one is reported with its index.
    """
    out: list[Violation] = []
    for name, count in (("preps", s.n_preps), ("meas", s.n_meas), ("outcomes", s.n_outcomes)):
        if count < 1:
            out.append(Violation("nonpositive-count", float(1 - count), (name,)))
    for a, equiv in enumerate(s.prep_equivs):
        out.extend(_check_equivalence(equiv, s.n_preps, "prep", a, tol))
    for b, equiv in enumerate(s.meas_equivs):
        out.extend(_check_equivalence(equiv, s.n_events, "meas", b, tol))
    if s.cell_mask is not None and s.cell_mask.shape != (s.n_meas, s.n_preps):
        out.append(Violation("mask-shape", 0.0, s.cell_mask.shape))
    return ValidationReport(tuple(out))


def validate_behavior(s: Scenario, behavior: Behavior, tol: float = PROB_TOL) -> ValidationReport:
    """Check probability bounds, outcome normalization and every declared equivalence.

    Raises ShapeMismatchError when the tensor does not match the scenario;
    everything else is reported, not raised.  A table with an empty axis is
    reported as ``nonpositive-count`` for that axis, as ``validate_scenario``
    names it, and one with NaN or infinite entries as one ``non-finite``
    violation (magnitude: how many entries); neither is checked further.
    Hybrid (masked) cells carry a uniform filler which satisfies all linear
    identities automatically, so no cell is exempted here.
    """
    p = behavior.probs
    expected = (s.n_meas, s.n_preps, s.n_outcomes)
    if p.shape != expected:
        raise ShapeMismatchError(f"behavior tensor has shape {p.shape}, scenario wants {expected}")
    axes = (("preps", p.shape[1]), ("meas", p.shape[0]), ("outcomes", p.shape[2]))
    empty = tuple(Violation("nonpositive-count", 1.0, (name,)) for name, count in axes if count == 0)
    if empty:
        return ValidationReport(empty)

    finite = np.isfinite(p)
    if not finite.all():
        # NaN passes every comparison below and inf poisons every residual.
        where = np.unravel_index(int(np.argmin(finite)), p.shape)
        count = float(p.size - np.count_nonzero(finite))
        return ValidationReport((Violation("non-finite", count, tuple(int(x) for x in where)),))

    out: list[Violation] = []
    low = float(p.min())
    high = float(p.max())
    if low < -tol or high > 1.0 + tol:
        where = np.unravel_index(int(np.argmin(p)) if -low > high - 1.0 else int(np.argmax(p)), p.shape)
        out.append(Violation("prob-out-of-range", max(-low, high - 1.0), tuple(int(x) for x in where)))

    sums = p.sum(axis=2)
    gap = np.abs(sums - 1.0)
    if gap.max() > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        out.append(Violation("outcome-sum", float(gap.max()), (int(i), int(j))))

    # One stacked product per kind of equivalence.  matmul runs it as one
    # matrix-vector product per equivalence, the same BLAS call a product
    # with one equivalence makes, so each residual is the float that
    # product gives.  A residual row runs over i*K + k for a preparation
    # equivalence and over j for a measurement equivalence.
    by_cell = p.transpose(0, 2, 1).reshape(-1, s.n_preps)  # (i*K+k, j)
    events = p.transpose(1, 0, 2).reshape(s.n_preps, s.n_events)  # (j, i*K+k)
    for kind, table, equivs, shape in (
        ("prep", by_cell, s.prep_equivs, (s.n_meas, s.n_outcomes)),
        ("meas", events, s.meas_equivs, (s.n_preps,)),
    ):
        if not equivs:
            continue
        diffs = np.stack([equiv.difference for equiv in equivs])[:, :, None]
        residual = np.abs(np.matmul(table, diffs)[..., 0])  # (equivalence, location)
        worst = residual.max(axis=1)
        for e in np.flatnonzero(worst > tol).tolist():
            where = np.unravel_index(int(np.argmax(residual[e])), shape)
            out.append(Violation(f"{kind}-equivalence-{e}", float(worst[e]), tuple(int(x) for x in where)))

    mask = behavior.cell_mask
    if mask is not None and s.cell_mask is not None and not np.array_equal(mask, s.cell_mask):
        out.append(Violation("mask-disagrees-with-scenario", 0.0, ()))
    return ValidationReport(tuple(out))


def uniform_behavior(s: Scenario) -> Behavior:
    """The maximally mixed table p = 1/|K| everywhere; valid in any scenario."""
    probs = np.full((s.n_meas, s.n_preps, s.n_outcomes), 1.0 / s.n_outcomes)
    return Behavior(probs, cell_mask=None if s.cell_mask is None else s.cell_mask.copy())
