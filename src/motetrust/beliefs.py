"""Probabilistic trust: naive Bayesian posteriors over joint observation counts.

The table counts joint observations of a binary hypothesis ("this
interaction can be trusted") against one or two binary evidence variables
and answers with conditional frequencies; Laplace add-one smoothing over
the two hypothesis values is on by default so an empty table still yields
the indifferent prior 0.5.
"""

from __future__ import annotations

import functools


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


def bayes_posterior2(counts: EvidenceCounts, smoothing: bool = True) -> float:
    """P(hypothesis | both evidence variables observed), as an observed frequency."""
    if counts.evidence_arity != 2:
        raise ValueError("the two-evidence posterior needs a two-evidence table")
    return _conditional(
        counts.count(hypothesis=True, d1=True, d2=True), counts.count(d1=True, d2=True), smoothing
    )
