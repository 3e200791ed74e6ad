"""Probabilistic trust: naive Bayesian posteriors over joint observation counts.

The table counts joint observations of a binary hypothesis ("this
interaction can be trusted") against two binary evidence variables and
answers with conditional frequencies; Laplace add-one smoothing over the
two hypothesis values is on by default so an empty table still yields the
indifferent prior 0.5.
"""

from __future__ import annotations

import functools


class EvidenceCounts:
    """Joint counts of (hypothesis, d1, d2) observations.

    Tracks how often a binary hypothesis held alongside two binary evidence
    variables. Counts are non-negative integers; marginals are obtained by
    leaving constraints unset.
    """

    def __init__(self):
        self._counts: dict[tuple[bool, bool, bool], int] = {}

    def record(self, hypothesis: bool, d1: bool, d2: bool, times: int = 1) -> None:
        """Add ``times`` observations of the given joint assignment."""
        key = (hypothesis, d1, d2)
        for v in key:
            if not isinstance(v, bool):
                raise ValueError(f"observations are boolean, got {v!r}")
        if times < 0:
            raise ValueError("cannot record a negative number of observations")
        self._counts[key] = self._counts.get(key, 0) + times

    def count(self, hypothesis: bool | None = None, d1: bool | None = None, d2: bool | None = None) -> int:
        """Observations matching every constraint that is not None."""
        wanted = (hypothesis, d1, d2)
        return sum(
            n for key, n in self._counts.items() if all(w is None or k == w for k, w in zip(key, wanted))
        )


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
    cells = counts._counts
    trusted = cells.get((True, True, True), 0)
    return _conditional(trusted, trusted + cells.get((False, True, True), 0), smoothing)
