"""Five-valued trust algebra with society-level assessment dynamics.

Assessments live on the ordinal scale -2 (fully distrusted), -1 (partially
distrusted), 0 (undecided), +1 (partially trusted), +2 (fully trusted).
``None`` marks the absent assessment of an agent that is unaware of, or
will not disclose its view of, another agent; it never takes part in any
numeric comparison.

A society of n agents is captured by an n x n assessment matrix: row i
holds agent i's outgoing assessments, so column j is the society's
collective view of agent j. Assessments evolve by operators that revise an
entry against the mean of the defined values in its column:

* moderate optimistic: keep the entry unless the column mean exceeds it,
  then move one step up;
* moderate pessimistic: keep the entry unless the column mean falls below
  it, then move one step down;
* consensus seeker: replace the entry with the column mean rounded toward
  zero;
* assessment hopping: replace the entry with a uniformly random scale
  value.

Absent entries absorb every operator. Operator arithmetic runs on exact
integer sums, so mean comparisons carry no floating-point ambiguity.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterable, Sequence

SCALE_MIN = -2
SCALE_MAX = 2
SCALE_VALUES = (-2, -1, 0, 1, 2)

#: A defined scale value, or None for unaware/undisclosed.
Assessment = int | None


class OperatorChoice(Enum):
    """The four assessment-revision styles an agent can adopt."""

    MODERATE_OPTIMISTIC = "optimistic"
    MODERATE_PESSIMISTIC = "pessimistic"
    CONSENSUS_SEEKER = "consensus"
    ASSESSMENT_HOPPING = "hopping"


def check_assessment(value: Assessment) -> Assessment:
    """Return ``value`` if it is None or a scale integer, else raise ValueError."""
    if value is None:
        return value
    # bool is an int subtype and would silently pass the range check
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"assessment must be None or an int in [-2, 2], got {value!r}")
    if not SCALE_MIN <= value <= SCALE_MAX:
        raise ValueError(f"assessment {value} outside [{SCALE_MIN}, {SCALE_MAX}]")
    return value


class AssessmentMatrix:
    """Square matrix of assessments; row i is agent i's view of the society."""

    def __init__(self, rows: Iterable[Sequence[Assessment]]):
        self._rows: list[list[Assessment]] = [[check_assessment(v) for v in row] for row in rows]
        n = len(self._rows)
        if n == 0:
            raise ValueError("assessment matrix needs at least one agent")
        for row in self._rows:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in a {n}-agent society")

    @classmethod
    def _of_checked(cls, rows: list[list[Assessment]]) -> "AssessmentMatrix":
        """Adopt ``rows`` as they are: square, non-empty, every value already checked."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        return matrix

    @classmethod
    def filled(cls, n: int, value: Assessment = None) -> "AssessmentMatrix":
        """A fresh n x n matrix with every entry set to ``value``."""
        if n < 1:
            raise ValueError("assessment matrix needs at least one agent")
        check_assessment(value)
        return cls._of_checked([[value] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self._rows)

    def _check_index(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"agent index {i} outside society of size {self.n}")
        return i

    def entry(self, i: int, j: int) -> Assessment:
        return self._rows[self._check_index(i)][self._check_index(j)]

    def set_entry(self, i: int, j: int, value: Assessment) -> None:
        self._rows[self._check_index(i)][self._check_index(j)] = check_assessment(value)

    def row(self, i: int) -> tuple[Assessment, ...]:
        return tuple(self._rows[self._check_index(i)])

    def column_subvector(self, j: int) -> list[int]:
        """Defined values of column j, in row order. May be empty."""
        self._check_index(j)
        return [row[j] for row in self._rows if row[j] is not None]

    def copy(self) -> "AssessmentMatrix":
        return AssessmentMatrix._of_checked([row[:] for row in self._rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssessmentMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        cells = "; ".join(" ".join("-" if v is None else f"{v:+d}" for v in row) for row in self._rows)
        return f"AssessmentMatrix({cells})"


def apply_operator(
    matrix: AssessmentMatrix,
    i: int,
    j: int,
    op: OperatorChoice,
    rng: random.Random | None = None,
) -> Assessment:
    """Revised value for entry (i, j) under ``op``, reading ``matrix`` only.

    An absent entry stays absent whatever the operator. The column mean is
    taken over the defined values of column j (which include the entry
    itself); comparisons use exact integer cross-multiplication. The
    hopping operator ignores the column and draws uniformly from the scale,
    consuming exactly one value from ``rng``.
    """
    current = matrix.entry(i, j)
    if current is None:
        return None
    if op is OperatorChoice.ASSESSMENT_HOPPING:
        if rng is None:
            raise ValueError("assessment hopping needs an rng")
        return rng.choice(SCALE_VALUES)
    column = matrix.column_subvector(j)
    total, n1 = sum(column), len(column)
    if op is OperatorChoice.MODERATE_OPTIMISTIC:
        # mean <= current  <=>  total <= current * n1
        return current if total <= current * n1 else current + 1
    if op is OperatorChoice.MODERATE_PESSIMISTIC:
        return current if total >= current * n1 else current - 1
    if op is OperatorChoice.CONSENSUS_SEEKER:
        # round the mean toward zero: ceiling when negative, floor otherwise
        if total < 0:
            return -((-total) // n1)
        return total // n1
    raise ValueError(f"unknown operator {op!r}")


def step_society(
    matrix: AssessmentMatrix,
    assignment: Sequence[OperatorChoice],
    rng: random.Random | None = None,
) -> AssessmentMatrix:
    """One synchronous revision round: every agent applies its operator to its row.

    All agents read the pre-step matrix, so revision order cannot leak into
    the result. Returns a new matrix; the input is left untouched. Each
    entry gets the value ``apply_operator`` would give it, and hopping draws
    from ``rng`` in row-major order, but every column's sum and count are
    taken once, so a step costs O(n^2) instead of O(n^3).
    """
    if len(assignment) != matrix.n:
        raise ValueError(f"need one operator per agent: got {len(assignment)} for {matrix.n} agents")
    columns = [[v for v in column if v is not None] for column in zip(*matrix._rows)]
    totals = [sum(column) for column in columns]
    counts = [len(column) for column in columns]
    # every revised value is on the scale, so the rows are adopted unchecked
    return AssessmentMatrix._of_checked(
        [_revise_row(row, op, totals, counts, rng) for row, op in zip(matrix._rows, assignment)]
    )


def _revise_row(
    row: list[Assessment], op: OperatorChoice, totals: list[int], counts: list[int], rng: random.Random | None
) -> list[Assessment]:
    """``apply_operator`` over one row, given the sum and count of each column's defined values."""
    if row.count(None) == len(row):  # absent entries absorb every operator
        return row[:]
    if op is OperatorChoice.ASSESSMENT_HOPPING:
        if rng is None:
            raise ValueError("assessment hopping needs an rng")
        choice = rng.choice
        return [None if v is None else choice(SCALE_VALUES) for v in row]
    cells = zip(row, totals, counts)
    if op is OperatorChoice.MODERATE_OPTIMISTIC:
        return [None if v is None else v if t <= v * c else v + 1 for v, t, c in cells]
    if op is OperatorChoice.MODERATE_PESSIMISTIC:
        return [None if v is None else v if t >= v * c else v - 1 for v, t, c in cells]
    if op is OperatorChoice.CONSENSUS_SEEKER:
        return [None if v is None else -((-t) // c) if t < 0 else t // c for v, t, c in cells]
    raise ValueError(f"unknown operator {op!r}")


def rate_of_change(previous: AssessmentMatrix, current: AssessmentMatrix) -> int:
    """Churn between two matrices of equal size, folded onto the scale 1..10.

    With f the fraction of entries whose value differs (None counts as a
    value), the result is 1 + floor(9 * f), so a frozen matrix scores 1 and
    a fully rewritten one scores 10.
    """
    if previous.n != current.n:
        raise ValueError(f"matrix sizes differ: {previous.n} vs {current.n}")
    n = previous.n
    changed = sum(
        sum(1 for a, b in zip(before, after) if a != b)
        for before, after in zip(previous._rows, current._rows)
        if before != after
    )
    total = n * n
    return max(1, min(10, 1 + (9 * changed) // total))


def quantize_observation(score: float) -> int:
    """Map a safety score in [0, 1] onto the assessment scale by quintile.

    Boundaries are lower-inclusive: 0.2 already counts as -1, 0.8 as +2.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    if score < 0.2:
        return -2
    if score < 0.4:
        return -1
    if score < 0.6:
        return 0
    if score < 0.8:
        return 1
    return 2
