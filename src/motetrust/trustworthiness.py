"""Trustworthiness from behavior counts: trust, confidence, and their blend.

A peer's history is two tallies: ``normal`` interactions and
``misbehavior`` interactions, both floored at one so a fresh peer starts
from the indifferent prior. From these:

    trust      t = normal / (normal + misbehavior)
    stddev sigma = sqrt(normal * misbehavior
                        / ((normal + misbehavior)^2 * (normal + misbehavior + 1)))
    confidence c = 1 - sqrt(12) * sigma

Confidence rescales the spread of the underlying estimate so that the
fresh-peer spread maps to zero confidence and a sharp estimate to one.
Trust and confidence combine into a single trustworthiness score as one
minus the normalized distance from the ideal corner (t = 1, c = 1), with
per-axis scales that decide how much each dimension matters:

    T = 1 - sqrt((t-1)^2/x^2 + (c-1)^2/y^2) / sqrt(1/x^2 + 1/y^2)

The default scales (x = sqrt(2), y = 3) make trust the dominant axis.
A ``TrustRecord`` holds three figures for one peer: t, c and T. sigma
is only a step towards c, so no record keeps it; ``trust_stddev`` gives it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum


class Outcome(Enum):
    NORMAL = "normal"
    MISBEHAVIOR = "misbehavior"


@dataclass(frozen=True)
class BehaviorCounts:
    """Accumulated interaction tallies, floored at one apiece (fresh-peer prior)."""

    normal: float = 1.0
    misbehavior: float = 1.0

    def __post_init__(self) -> None:
        if self.normal < 1.0 or self.misbehavior < 1.0:
            raise ValueError(f"behavior counts start at 1, got ({self.normal}, {self.misbehavior})")


@dataclass(frozen=True)
class TrustworthinessParams:
    """Per-axis scales of the combined score; a smaller scale weighs its axis more."""

    trust_scale: float = math.sqrt(2.0)
    confidence_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.trust_scale <= 0.0 or self.confidence_scale <= 0.0:
            raise ValueError("scales must be positive")


DEFAULT_PARAMS = TrustworthinessParams()


def trust_value(counts: BehaviorCounts) -> float:
    """Expected fraction of normal behavior."""
    return counts.normal / (counts.normal + counts.misbehavior)


def trust_stddev(counts: BehaviorCounts) -> float:
    """Standard deviation of the trust estimate behind ``trust_value``."""
    a, b = counts.normal, counts.misbehavior
    s = a + b
    return math.sqrt(a * b / (s * s * (s + 1.0)))


def confidence(counts: BehaviorCounts) -> float:
    """Confidence in the trust estimate: 1 at zero spread, 0 at the fresh-peer spread."""
    a, b = counts.normal, counts.misbehavior
    s = a + b
    return 1.0 - math.sqrt(12.0 * a * b / (s * s * (s + 1.0)))


def trustworthiness(trust: float, conf: float, params: TrustworthinessParams = DEFAULT_PARAMS) -> float:
    """Blend of trust and confidence: 1 at the ideal corner, 0 at (0, 0)."""
    if not 0.0 <= trust <= 1.0:
        raise ValueError(f"trust {trust} outside [0, 1]")
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence {conf} outside [0, 1]")
    x, y = params.trust_scale, params.confidence_scale
    distance = math.sqrt((trust - 1.0) ** 2 / (x * x) + (conf - 1.0) ** 2 / (y * y))
    worst = math.sqrt(1.0 / (x * x) + 1.0 / (y * y))
    return 1.0 - distance / worst


def update_counts(counts: BehaviorCounts, outcome: Outcome) -> BehaviorCounts:
    """New tallies with one more observation of ``outcome``."""
    if outcome is Outcome.NORMAL:
        return BehaviorCounts(counts.normal + 1.0, counts.misbehavior)
    if outcome is Outcome.MISBEHAVIOR:
        return BehaviorCounts(counts.normal, counts.misbehavior + 1.0)
    raise ValueError(f"unknown outcome {outcome!r}")


@dataclass(frozen=True)
class TrustRecord:
    """The three derived figures for one peer: trust, confidence and their blend."""

    trust: float
    confidence: float
    combined: float

    @classmethod
    @functools.lru_cache(maxsize=1024)  # records are frozen, so equal counts share one
    def from_counts(
        cls, counts: BehaviorCounts, params: TrustworthinessParams = DEFAULT_PARAMS
    ) -> "TrustRecord":
        t = trust_value(counts)
        c = confidence(counts)
        return cls(t, c, trustworthiness(t, c, params))
