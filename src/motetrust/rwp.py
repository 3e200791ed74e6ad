"""Rolling workload protocol: interval phases, election, aggregation, failover.

Trust management is too heavy to run everywhere all the time, so the
society elects, once per interval, the mote best placed to carry it. Each
interval walks four phases in a fixed cycle:

    MONITORING -> ANNOUNCING -> ELECTING -> SERVING -> MONITORING ...

During monitoring every mote samples its neighborhood and summarizes
itself in two 1..10 figures: projected computing capability (PCP, energy
it expects to have over the interval relative to capacity) and rate of
change (RoC, churn of its neighborhood assessment matrix). Announcing
floods (address, PCP) pairs; electing picks the highest PCP with ties
going to the lowest address; the winner hosts aggregation and queries for
the serving phase, with an optional runner-up as a hot standby. The host
also adapts the next interval length: calm societies keep the base
period, churning ones shrink it toward the configured floor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .qad import AssessmentMatrix, OperatorChoice, check_assessment, step_society

MAX_SOCIETY_SIZE = 256


class RwpPhase(Enum):
    MONITORING = "monitoring"
    ANNOUNCING = "announcing"
    ELECTING = "electing"
    SERVING = "serving"


#: The only legal phase successor map; the cycle has no shortcuts.
NEXT_PHASE = {
    RwpPhase.MONITORING: RwpPhase.ANNOUNCING,
    RwpPhase.ANNOUNCING: RwpPhase.ELECTING,
    RwpPhase.ELECTING: RwpPhase.SERVING,
    RwpPhase.SERVING: RwpPhase.MONITORING,
}


def is_legal_transition(current: RwpPhase, nxt: RwpPhase) -> bool:
    return NEXT_PHASE[current] is nxt


class AddressedMatrix:
    """Assessment matrix whose rows and columns are labeled by mote addresses."""

    def __init__(self, addresses: Sequence[int], matrix: AssessmentMatrix | None = None):
        self.addresses = tuple(addresses)
        if len(set(self.addresses)) != len(self.addresses) or not self.addresses:
            raise ValueError("addresses must be distinct and non-empty")
        self._index = {a: k for k, a in enumerate(self.addresses)}
        if matrix is None:
            matrix = AssessmentMatrix.filled(len(self.addresses))
        if matrix.n != len(self.addresses):
            raise ValueError("matrix size does not match the address list")
        self.matrix = matrix

    def index_of(self, addr: int) -> int:
        try:
            return self._index[addr]
        except KeyError:
            raise IndexError(f"address {addr} is not covered by this matrix") from None

    def get(self, src: int, dst: int) -> int | None:
        return self.matrix.entry(self.index_of(src), self.index_of(dst))

    def set(self, src: int, dst: int, value: int | None) -> None:
        self.matrix.set_entry(self.index_of(src), self.index_of(dst), check_assessment(value))

    def row(self, src: int) -> dict[int, int]:
        """Defined assessments of row ``src`` keyed by subject address."""
        i = self.index_of(src)
        return {a: v for a, v in zip(self.addresses, self.matrix.row(i)) if v is not None}


@dataclass
class RwpState:
    """Per-mote protocol state; the phase field only moves along the legal cycle."""

    addr: int
    theta: float
    a_minor: AddressedMatrix
    pcp: int = 1
    roc: int = 1
    phase: RwpPhase = RwpPhase.MONITORING
    hacp_addr: int | None = None
    backup_hacp: int | None = None

    def begin_phase(self, phase: RwpPhase, hacp_addr: int | None = None, backup_hacp: int | None = None) -> None:
        """Advance to ``phase``; the host addresses are only held while serving."""
        if not is_legal_transition(self.phase, phase):
            raise ValueError(f"illegal phase transition {self.phase.value} -> {phase.value}")
        self.phase = phase
        if phase is RwpPhase.SERVING:
            self.hacp_addr = hacp_addr
            self.backup_hacp = backup_hacp
        else:
            self.hacp_addr = None
            self.backup_hacp = None


@dataclass(frozen=True)
class QueryResult:
    """What the host knows about one subject: its column, and how much of it exists."""

    values: tuple[int, ...]
    n1: int
    mean: float | None


def compute_pcp(residual_energy: float, harvest_rate: float, theta: float, capacity: float) -> int:
    """Projected computing capability over the next ``theta`` seconds, on 1..10.

    The projection is the energy expected to be available, residual plus
    harvest, capped at capacity; it maps onto deciles of capacity with a
    floor of 1 so even a drained mote stays addressable.
    """
    if capacity <= 0.0:
        raise ValueError("capacity must be positive")
    if residual_energy < 0.0 or harvest_rate < 0.0 or theta <= 0.0:
        raise ValueError("residual, harvest, and interval length must be non-negative (theta positive)")
    projected = min(capacity, residual_energy + harvest_rate * theta)
    return max(1, min(10, math.ceil(10.0 * projected / capacity)))


def election_order(announcements: Iterable[tuple[int, int]]) -> list[int]:
    """Addresses ordered by election precedence: highest PCP first, ties to lowest address."""
    pairs = list(announcements)
    if not pairs:
        raise ValueError("cannot elect from an empty announcement set")
    addrs = [a for a, _ in pairs]
    if len(set(addrs)) != len(addrs):
        raise ValueError("duplicate address in announcements")
    return [a for a, _ in sorted(pairs, key=lambda p: (-p[1], p[0]))]


def next_interval(roc_values: Sequence[int], theta_base: float, theta_min: float, theta_max: float) -> float:
    """Adapt the interval length to reported churn.

    A society of all-1 RoC keeps the base period; all-10 collapses it to
    one tenth before clamping. The result always lands in
    [theta_min, theta_max].
    """
    if not 0.0 < theta_min <= theta_base <= theta_max:
        raise ValueError("need 0 < theta_min <= theta_base <= theta_max")
    if not roc_values:
        raise ValueError("interval adaptation needs at least one RoC value")
    for r in roc_values:
        if not 1 <= r <= 10:
            raise ValueError(f"RoC {r} outside [1, 10]")
    mean_roc = math.fsum(roc_values) / len(roc_values)
    theta = theta_base * (11.0 - mean_roc) / 10.0
    return max(theta_min, min(theta_max, theta))


def aggregate_major(
    minors: Sequence[tuple[int, AddressedMatrix, OperatorChoice]],
    society: Sequence[int],
    rng: random.Random | None = None,
) -> AssessmentMatrix:
    """Stack uploaded neighborhood matrices into one society matrix and return it revised once.

    Each owner contributes its own row: its assessment of every subject its
    minor covers. Subjects nobody assessed keep an all-absent column. The
    stacked matrix then takes a single synchronous revision round in which
    every owner's row moves per its submitted operator; rows of motes that
    uploaded nothing are all-absent and absorb any operator.
    """
    society = list(society)
    if len(set(society)) != len(society) or not society:
        raise ValueError("society must be a non-empty list of distinct addresses")
    index = {a: k for k, a in enumerate(society)}
    stacked = AssessmentMatrix.filled(len(society))
    assignment: list[OperatorChoice] = [OperatorChoice.CONSENSUS_SEEKER] * len(society)  # filler for absent rows
    seen: set[int] = set()
    for owner, minor, op in minors:
        if owner not in index:
            raise ValueError(f"owner {owner} is not part of the society")
        if owner in seen:
            raise ValueError(f"duplicate minor from owner {owner}")
        seen.add(owner)
        for subject in minor.addresses:
            if subject not in index:
                raise ValueError(f"minor of {owner} covers {subject}, which is outside the society")
        for subject, value in minor.row(owner).items():
            stacked.set_entry(index[owner], index[subject], value)
        assignment[index[owner]] = op
    return step_society(stacked, assignment, rng)


def handle_query(major: AssessmentMatrix, subject: int, society: Sequence[int]) -> QueryResult:
    """Answer "what does the society think of ``subject``" from the revised aggregate."""
    society = list(society)
    try:
        j = society.index(subject)
    except ValueError:
        raise IndexError(f"subject {subject} is not part of the society") from None
    values = tuple(major.column_subvector(j))
    mean = math.fsum(values) / len(values) if values else None
    return QueryResult(values, len(values), mean)


def failover(primary: int, backup: int | None, liveness: Callable[[int], bool]) -> int | None:
    """The host to contact: the primary if it is live, else the standby, else nobody."""
    if liveness(primary):
        return primary
    if backup is not None and liveness(backup):
        return backup
    return None


def trust_relation_count(n: int) -> int:
    """Number of directed trust relations among all non-empty coalitions of n motes.

    Every non-empty subset can assess every non-empty subset, giving
    (2^n - 1)^2 ordered pairs. Grows fast enough that the society size is
    capped at ``MAX_SOCIETY_SIZE``.
    """
    if not 1 <= n <= MAX_SOCIETY_SIZE:
        raise ValueError(f"society size must be in [1, {MAX_SOCIETY_SIZE}]")
    return (2**n - 1) ** 2
