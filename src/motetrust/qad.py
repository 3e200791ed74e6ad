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
from itertools import compress, repeat
from operator import is_not
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
    the result. Returns a new matrix that shares no row with the input,
    which is left untouched. Each entry gets the value ``apply_operator``
    would give it, and hopping draws from ``rng`` in row-major order. Only
    the defined cells are visited: a C-level scan finds each row's, every
    column's sum and count are taken over them once, and each result row
    is a copy of its input row with just those cells revised. A step costs
    O(n^2) in C and O(n + defined cells) in Python, not O(n^3).
    """
    if len(assignment) != matrix.n:
        raise ValueError(f"need one operator per agent: got {len(assignment)} for {matrix.n} agents")
    rows, columns = matrix._rows, range(matrix.n)
    defined = [list(compress(columns, map(is_not, row, repeat(None)))) for row in rows]
    totals, counts = [0] * matrix.n, [0] * matrix.n
    for row, cells in zip(rows, defined):
        for j in cells:
            totals[j] += row[j]
            counts[j] += 1
    # every revised value is on the scale, so the rows are adopted unchecked
    return AssessmentMatrix._of_checked(
        [_revise_row(row, cells, op, totals, counts, rng) for row, cells, op in zip(rows, defined, assignment)]
    )


def _revise_row(
    row: list[Assessment],
    cells: list[int],
    op: OperatorChoice,
    totals: list[int],
    counts: list[int],
    rng: random.Random | None,
) -> list[Assessment]:
    """A copy of ``row`` with its defined ``cells`` revised as ``apply_operator`` would, given each column's sum
    and count of defined values."""
    out = row[:]
    if not cells:  # absent entries absorb every operator
        return out
    if op is OperatorChoice.ASSESSMENT_HOPPING:
        if rng is None:
            raise ValueError("assessment hopping needs an rng")
        choice = rng.choice
        for j in cells:
            out[j] = choice(SCALE_VALUES)
    elif op is OperatorChoice.MODERATE_OPTIMISTIC:
        for j in cells:
            v = row[j]
            if totals[j] > v * counts[j]:
                out[j] = v + 1
    elif op is OperatorChoice.MODERATE_PESSIMISTIC:
        for j in cells:
            v = row[j]
            if totals[j] < v * counts[j]:
                out[j] = v - 1
    elif op is OperatorChoice.CONSENSUS_SEEKER:
        for j in cells:
            t = totals[j]
            out[j] = -((-t) // counts[j]) if t < 0 else t // counts[j]
    else:
        raise ValueError(f"unknown operator {op!r}")
    return out


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
