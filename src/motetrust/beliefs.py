"""Probabilistic trust: belief-mass opinions and naive Bayesian posteriors.

Two evidence-based trust formalisms share this module. The first spreads
probability mass over subsets of a finite frame of discernment and reads
off opinions:

    belief(X)    = sum of mass on subsets of X
    disbelief(X) = sum of mass on sets disjoint from X
    uncertainty  = 1 - belief - disbelief

Two opinions about the same statement can be fused with the consensus
operator, which weighs each party's view by the other's uncertainty. The
second formalism counts joint observations of a binary hypothesis ("this
interaction can be trusted") against one or two binary evidence variables
and answers with conditional frequencies; Laplace add-one smoothing over
the two hypothesis values is on by default so an empty table still yields
the indifferent prior 0.5.

Subsets are held as bitmasks over the frame elements, which makes subset
identity canonical and order-independent but caps the frame at
``MAX_FRAME_SIZE`` elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

MAX_FRAME_SIZE = 16
MASS_TOLERANCE = 1e-9


class Frame:
    """Finite frame of discernment over hashable, distinct elements."""

    def __init__(self, elements: Iterable[Hashable]):
        self._elements = tuple(elements)
        if not 1 <= len(self._elements) <= MAX_FRAME_SIZE:
            raise ValueError(f"frame size must be in [1, {MAX_FRAME_SIZE}], got {len(self._elements)}")
        self._bit = {e: 1 << k for k, e in enumerate(self._elements)}
        if len(self._bit) != len(self._elements):
            raise ValueError("frame elements must be distinct")

    @property
    def elements(self) -> tuple[Hashable, ...]:
        return self._elements

    @property
    def size(self) -> int:
        return len(self._elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def subset_mask(self, subset: Iterable[Hashable]) -> int:
        """Canonical bitmask of a subset; rejects foreign elements."""
        mask = 0
        for e in subset:
            try:
                mask |= self._bit[e]
            except KeyError:
                raise ValueError(f"element {e!r} is not in the frame") from None
        return mask

    def __repr__(self) -> str:
        return f"Frame({list(self._elements)!r})"


@dataclass(frozen=True)
class Opinion:
    """A (belief, disbelief, uncertainty) triple summing to one."""

    belief: float
    disbelief: float
    uncertainty: float

    def __post_init__(self) -> None:
        for name, v in (("belief", self.belief), ("disbelief", self.disbelief), ("uncertainty", self.uncertainty)):
            if not -MASS_TOLERANCE <= v <= 1.0 + MASS_TOLERANCE:
                raise ValueError(f"{name} {v} outside [0, 1]")
        total = self.belief + self.disbelief + self.uncertainty
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"opinion components sum to {total}, expected 1")


#: The fully uncertain opinion, the identity of consensus fusion.
VACUOUS_OPINION = Opinion(0.0, 0.0, 1.0)


class BeliefMass:
    """A basic mass assignment: non-negative mass on non-empty subsets, summing to one.

    Construction is strict: mass outside [0, 1], mass on the empty set,
    duplicate subsets, or a total off one by more than ``MASS_TOLERANCE``
    all raise ValueError. Renormalizing silently would hide caller bugs.
    """

    def __init__(self, frame: Frame, mass: Mapping[Iterable[Hashable], float]):
        self.frame = frame
        self._mass: dict[int, float] = {}
        for subset, value in mass.items():
            mask = frame.subset_mask(subset)
            if mask == 0:
                raise ValueError("the empty set carries no mass by definition")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"mass {value} outside [0, 1]")
            if mask in self._mass:
                raise ValueError("duplicate subset in mass assignment")
            self._mass[mask] = value
        total = math.fsum(self._mass.values())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"mass sums to {total}, expected 1 within {MASS_TOLERANCE}")

    def mass_items(self) -> list[tuple[int, float]]:
        """(bitmask, mass) pairs of the focal subsets."""
        return list(self._mass.items())

    def belief(self, subset: Iterable[Hashable]) -> float:
        """Total mass committed to ``subset``: sum over its sub-subsets."""
        x = self.frame.subset_mask(subset)
        return math.fsum(m for y, m in self._mass.items() if y & ~x == 0)

    def disbelief(self, subset: Iterable[Hashable]) -> float:
        """Total mass committed against ``subset``: sum over disjoint subsets."""
        x = self.frame.subset_mask(subset)
        return math.fsum(m for y, m in self._mass.items() if y & x == 0)

    def opinion_of(self, subset: Iterable[Hashable]) -> Opinion:
        """The (belief, disbelief, uncertainty) opinion about a non-empty subset."""
        if self.frame.subset_mask(subset) == 0:
            raise ValueError("opinions are about non-empty subsets")
        b = self.belief(subset)
        d = self.disbelief(subset)
        return Opinion(b, d, 1.0 - b - d)


def consensus(first: Opinion, second: Opinion) -> Opinion:
    """Fuse two opinions about the same statement, weighing each by the other's doubt.

    With kappa = u1 + u2 - u1*u2:

        belief    = (b1*u2 + b2*u1) / kappa
        disbelief = (d1*u2 + d2*u1) / kappa
        uncertainty = u1*u2 / kappa

    kappa vanishes only when both opinions are dogmatic (u = 0), and that
    case is an error rather than a silent convention: two contradicting
    certainties admit no compromise.
    """
    u1, u2 = first.uncertainty, second.uncertainty
    kappa = u1 + u2 - u1 * u2
    if kappa <= 0.0:
        raise ValueError("consensus of two dogmatic opinions (u1 = u2 = 0) is undefined")
    return Opinion(
        (first.belief * u2 + second.belief * u1) / kappa,
        (first.disbelief * u2 + second.disbelief * u1) / kappa,
        (u1 * u2) / kappa,
    )


class EvidenceCounts:
    """Joint counts of (hypothesis, evidence...) observations.

    Tracks how often a binary hypothesis held alongside one or two binary
    evidence variables. Counts are non-negative integers; marginals are
    obtained by leaving constraints unset.
    """

    def __init__(self, evidence_arity: int = 1):
        if evidence_arity not in (1, 2):
            raise ValueError("evidence arity must be 1 or 2")
        self._arity = evidence_arity
        self._counts: dict[tuple[bool, ...], int] = {}

    @property
    def evidence_arity(self) -> int:
        return self._arity

    def record(self, hypothesis: bool, *evidence: bool, times: int = 1) -> None:
        """Add ``times`` observations of the given joint assignment."""
        if len(evidence) != self._arity:
            raise ValueError(f"expected {self._arity} evidence value(s), got {len(evidence)}")
        for v in (hypothesis, *evidence):
            if not isinstance(v, bool):
                raise ValueError(f"observations are boolean, got {v!r}")
        if times < 0:
            raise ValueError("cannot record a negative number of observations")
        key = (hypothesis, *evidence)
        self._counts[key] = self._counts.get(key, 0) + times

    def count(self, hypothesis: bool | None = None, d1: bool | None = None, d2: bool | None = None) -> int:
        """Observations matching every constraint that is not None."""
        if d2 is not None and self._arity < 2:
            raise ValueError("this table has no second evidence variable")
        wanted = (hypothesis, d1, d2)[: 1 + self._arity]
        return sum(
            n for key, n in self._counts.items() if all(w is None or k == w for k, w in zip(key, wanted))
        )

    def total(self) -> int:
        return sum(self._counts.values())


@functools.lru_cache(maxsize=1024)  # tables with equal counts share one posterior float
def _conditional(numerator: int, denominator: int, smoothing: bool) -> float:
    # add-one smoothing spreads one pseudo-count over each of the two
    # hypothesis values, so an empty table answers 0.5
    if smoothing:
        return (numerator + 1) / (denominator + 2)
    if denominator == 0:
        raise ValueError("no observations of the conditioning event and smoothing is off")
    return numerator / denominator


def bayes_posterior(counts: EvidenceCounts, smoothing: bool = True) -> float:
    """P(hypothesis | first evidence observed), as an observed frequency."""
    return _conditional(counts.count(hypothesis=True, d1=True), counts.count(d1=True), smoothing)


def bayes_posterior2(counts: EvidenceCounts, smoothing: bool = True) -> float:
    """P(hypothesis | both evidence variables observed), as an observed frequency."""
    if counts.evidence_arity != 2:
        raise ValueError("the two-evidence posterior needs a two-evidence table")
    return _conditional(
        counts.count(hypothesis=True, d1=True, d2=True), counts.count(d1=True, d2=True), smoothing
    )
