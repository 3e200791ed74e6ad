"""Deterministic interval simulator for trust-managed mote societies.

Builds a static radio topology, seeds per-link ground truth, and repeats
the monitor / announce / elect / serve cycle for a configured number of
intervals. ``_Simulation.run_interval`` runs one phase method after another:

* ``_monitor``: every mote polls its neighbors, scores the link, and feeds
  the score to its trust engine (quintile assessments, behavior tallies,
  or evidence counts); returns each mote's PCP and rate of change;
* ``_announce``: every mote floods its (address, PCP) announcement; after
  the first of each component, ``_bill_floods`` bills the rest at once;
* ``_elect``: the society picks the interval's aggregation host, with an
  optional hot standby;
* ``_aggregate``: motes upload their neighborhood matrices to the host,
  which aggregates them and adapts the next interval length to the
  reported churn; returns that length, or None if the host died;
* ``_serve``: each mote selects its most trusted neighbor, queries the
  host, and greedily trust-routes one application message to it.

Every action costs energy. ``charge_energy`` bills the compute charges; the
loops that walk the radio graph (``_send``, which carries polls and answers,
``_unicast``'s walk of uploads and queries to the host, ``_flood`` and
``_route_greedy``) debit tx and rx in place with its arithmetic, so each
mote pays the same sequence of charges. A mote that hits zero is dead for
good and neither sends nor receives; ``_die`` is where a radio debit kills
it.
All randomness flows from named substreams of the scenario seed and every
within-interval sweep runs in ascending address order, so a scenario
reproduces the same trace byte for byte.

Because the dead never come back, the live graph holds still from one death
to the next, and trust holds still throughout ``_serve``. Three caches rest
on that, and a death is the one thing that voids any of them:

* ``_route_greedy`` keeps each holder's next hop in a table that ``_serve``
  clears and fills with each mote's own selection; while it holds, a frame
  that comes back to a holder only goes round that cycle to the hop cap, so
  ``_lap`` bills those hops in one pass unless they would drain a member;
* ``_flood`` keeps the senders of each mote's last walk, which stay a live
  component while they all live, and reuses them while every one would also
  survive its rx; ``_bill_floods`` bills a component's later announcements
  on them in one pass unless that would drain a member;
* ``_unicast`` routes every upload, query and answer along ``_routes(host)``,
  one BFS from the host: an answer reads the tree path to the asker and
  hands it to ``_send``, and an upload or a query steps in place, with no
  path list, from each mote to its lowest-address neighbor one hop nearer
  the host. ``_routes`` is the one search over the live motes;
  ``_shortest_path``, which the simulator does not call, walks it too.

The host routes start afresh in each ``_aggregate``. Every death in a poll,
a flood, a unicast or a greedy route goes through ``_die``, which voids them
and the next hops at once; the flood reach checks its
members itself. Either way, each mote pays exactly what a fresh
computation would have billed it. The engines share what they derive: equal
counts give one frozen ``TrustRecord`` and one Bayes posterior float, and a
qad mote hands out a peer's last ``PairRecord`` again while its assessment
holds, so a trace stores each distinct figure once.

After the last interval nothing moves trust, so the final trust mean reads the
live motes' pairs from the last record and derives only the dead motes' pairs
again.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Protocol, Sequence

from . import rwp as rwp_proto
from .beliefs import EvidenceCounts, bayes_posterior2
from .qad import quantize_observation, rate_of_change
from .rwp import AddressedMatrix
from .scenario import (  # the settings a run reads; the rest stay importable from here, as before
    ARCHITECTURES,
    TOPOLOGIES,
    EnergyCosts,
    Engine,
    LinkEvent,
    LinkTruth,
    SafetyWeights,
    Scenario,
    ScenarioError,
    build_topology,
)
from .trustworthiness import BehaviorCounts, Outcome, TrustRecord, update_counts

SINK_ADDRESS = 0


# ---------------------------------------------------------------------------
# mote state and elementary operations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MoteState:
    """One mote: its battery, its neighborhood assessments, and its trust engine."""

    addr: int
    energy: float
    capacity: float
    harvest_rate: float
    engine: Engine
    a_minor: AddressedMatrix
    alive: bool = True
    unconstrained: bool = False
    trust: TrustEngine = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.energy <= 0.0 and not self.unconstrained:
            self.alive = False
        self.trust = ENGINE_CLASSES[self.engine](self.addr, self.a_minor)

    def harvest(self, seconds: float) -> None:
        """Credit the interval's energy intake; dead motes stay dead."""
        if self.alive and not self.unconstrained:
            self.energy = min(self.capacity, self.energy + self.harvest_rate * seconds)


def charge_energy(mote: MoteState, action: str, costs: EnergyCosts) -> MoteState:
    """Bill one action. Hitting zero kills the mote; dead motes are never billed."""
    # _Simulation's radio walks repeat this debit inline, once per hop; a change here belongs there too
    if action == "tx":
        cost = costs.tx
    elif action == "rx":
        cost = costs.rx
    elif action == "compute":
        cost = costs.compute
    else:
        raise ValueError(f"unknown action {action!r}")
    if mote.alive and not mote.unconstrained:
        energy = mote.energy - cost
        if energy > 0.0:
            mote.energy = energy
        else:  # an overdraw floors at zero, and zero is death
            mote.energy = 0.0
            mote.alive = False
    return mote


@dataclass(frozen=True)
class SafetyObservation:
    """One sample of a link as a mote saw it."""

    link_quality: float
    tx_rate: float
    response_time: float
    uptime: float


def observe_link(truth: LinkTruth, rng: random.Random) -> SafetyObservation:
    """One noisy sample of a link, consuming exactly four draws from ``rng``.

    Noise is zero-mean uniform, truncated into each field's range. The
    scale reads as an absolute spread on the [0, 1] fields and a relative
    spread on the unbounded ones, so a scale of 0 reproduces the truth
    exactly.
    """
    s = truth.noise_scale
    lq = min(1.0, max(0.0, truth.link_quality + rng.uniform(-1.0, 1.0) * s))
    tx = max(0.0, truth.tx_rate * (1.0 + rng.uniform(-1.0, 1.0) * s))
    rt = max(0.0, truth.response_time * (1.0 + rng.uniform(-1.0, 1.0) * s))
    up = min(1.0, max(0.0, truth.uptime + rng.uniform(-1.0, 1.0) * s))
    return SafetyObservation(lq, tx, rt, up)


def safety_score(
    obs: SafetyObservation, weights: SafetyWeights, ref_tx_rate: float, ref_response_time: float
) -> float:
    """Weighted safety of an observation, in [0, 1].

    Rate saturates at its reference; response time scores linearly down to
    zero at the reference and is floored there.
    """
    if ref_tx_rate <= 0.0 or ref_response_time <= 0.0:
        raise ValueError("references must be positive")
    tx_term = min(1.0, obs.tx_rate / ref_tx_rate)
    rt_term = max(0.0, 1.0 - obs.response_time / ref_response_time)
    score = (
        weights.link_quality * obs.link_quality
        + weights.tx_rate * tx_term
        + weights.response_time * rt_term
        + weights.uptime * obs.uptime
    )
    return min(1.0, max(0.0, score))


class TrustEngine(Protocol):
    """A mote's trust engine; `ENGINE_CLASSES` holds one implementation per `Engine`.

    ``metric`` rates a peer for selection, the highest winning; ``pair_records``
    lists the mote's view of each peer it has one of, by ascending address.
    """

    def observe(self, peer: int, score: float, obs: SafetyObservation, scenario: Scenario) -> None: ...
    def metric(self, peer: int) -> float: ...
    def pair_records(self) -> list[PairRecord]: ...


#: The five assessments as floats, so the records of a trace share them.
_SCALE = {value: float(value) for value in range(-2, 3)}


class QadTrust:
    """Quintile assessments: each score, quantized, lands in the mote's own row of its minor.

    It holds that row of the minor's storage and the minor's address index,
    so a read or a write is one dict lookup and one list access.
    """

    def __init__(self, addr: int, a_minor: AddressedMatrix):
        self.addr = addr
        self.a_minor = a_minor
        self._column = a_minor._index  # subject address -> column
        self._row = a_minor.matrix._rows[a_minor.index_of(addr)]  # written in place, never replaced
        self._pairs: dict[int, PairRecord] = {}  # peer -> its last record, handed out again while it holds

    def observe(self, peer: int, score: float, obs: SafetyObservation, scenario: Scenario) -> None:
        self._row[self.a_minor.index_of(peer)] = quantize_observation(score)

    def metric(self, peer: int) -> float:
        column = self._column.get(peer)
        value = None if column is None else self._row[column]
        return -3.0 if value is None else float(value)  # unassessed ranks below the scale

    def pair_records(self) -> list[PairRecord]:
        out, pairs, row = [], self._pairs, self.a_minor.row(self.addr)
        for dst in sorted(row):
            if dst == self.addr:
                continue
            value = row[dst]
            record = pairs.get(dst)
            if record is None or record.metric != value:  # the assessment changed since the last record
                record = pairs[dst] = PairRecord(self.addr, dst, _SCALE[value])
            out.append(record)
        return out


class _CachedTrust:
    """Per-peer evidence plus the selection metric derived from it, kept until the evidence changes."""

    def __init__(self, addr: int, a_minor: AddressedMatrix):
        self.addr = addr
        self.evidence: dict = {}  # peer -> what the engine has recorded about it
        self._metric: dict[int, float] = {}  # observe drops a peer's entry, metric refills it

    def metric(self, peer: int) -> float:
        value = self._metric.get(peer)
        if value is None:  # evidence changed since the last look, or never looked
            value = self._metric[peer] = self._derive(peer)
        return value


class BetaTrust(_CachedTrust):
    """Behavior counts: each score is a normal or a misbehaving interaction against the threshold."""

    def observe(self, peer: int, score: float, obs: SafetyObservation, scenario: Scenario) -> None:
        outcome = Outcome.NORMAL if score >= scenario.misbehavior_threshold else Outcome.MISBEHAVIOR
        self.evidence[peer] = update_counts(self.evidence.get(peer, BehaviorCounts()), outcome)
        self._metric.pop(peer, None)

    def _derive(self, peer: int) -> float:
        return TrustRecord.from_counts(self.evidence.get(peer, BehaviorCounts())).combined

    def pair_records(self) -> list[PairRecord]:
        out = []
        for dst in sorted(self.evidence):
            rec = TrustRecord.from_counts(self.evidence[dst])
            out.append(PairRecord(self.addr, dst, rec.combined, rec.trust, rec.confidence, rec.combined))
        return out


class BayesTrust(_CachedTrust):
    """Evidence counts: (trusted, rate at reference, mostly up) recorded as one joint observation."""

    def observe(self, peer: int, score: float, obs: SafetyObservation, scenario: Scenario) -> None:
        self.evidence.setdefault(peer, EvidenceCounts()).record(
            score >= scenario.misbehavior_threshold, obs.tx_rate >= scenario.ref_tx_rate, obs.uptime > 0.5
        )
        self._metric.pop(peer, None)

    def _derive(self, peer: int) -> float:
        table = self.evidence.get(peer)
        return 0.5 if table is None else bayes_posterior2(table)

    def pair_records(self) -> list[PairRecord]:
        return [PairRecord(self.addr, dst, self.metric(dst)) for dst in sorted(self.evidence)]


#: The one place an `Engine` turns into behavior; a new engine is a class and an entry here.
ENGINE_CLASSES = {Engine.QAD: QadTrust, Engine.BETA: BetaTrust, Engine.BAYES: BayesTrust}


def analyze(mote: MoteState, peer: int, obs: SafetyObservation, scenario: Scenario) -> float:
    """Score one observation of ``peer`` and feed it to the mote's trust engine; returns the score."""
    score = safety_score(obs, scenario.weights, scenario.ref_tx_rate, scenario.ref_response_time)
    mote.trust.observe(peer, score, obs, scenario)
    return score


def select_peer(mote: MoteState, candidates: Iterable[int]) -> int:
    """The most trusted candidate under the mote's engine; ties go to the lowest address."""
    addr, metric = mote.addr, mote.trust.metric
    best = best_metric = None
    for peer in candidates:
        if peer == addr:
            raise ValueError("a mote cannot select itself")
        value = metric(peer)
        if best is None or value > best_metric or (value == best_metric and peer < best):
            best, best_metric = peer, value
    if best is None:
        raise ValueError("peer selection needs at least one candidate")
    return best


# ---------------------------------------------------------------------------
# trace types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)  # a trace holds one per mote per interval, so no __dict__ each
class MoteIntervalRecord:
    addr: int
    alive: bool
    energy: float
    pcp: int | None
    roc: int | None
    is_hacp: bool
    selected_peer: int | None


@dataclass(frozen=True, slots=True)  # and one per observed pair per interval
class PairRecord:
    """One observer's view of one peer at the end of an interval."""

    src: int
    dst: int
    metric: float
    trust: float | None = None
    confidence: float | None = None
    combined: float | None = None


@dataclass(frozen=True)
class MessageStats:
    floods: int = 0
    minors_sent: int = 0
    minors_delivered: int = 0
    queries_sent: int = 0
    queries_answered: int = 0
    app_sent: int = 0
    app_delivered: int = 0


@dataclass(frozen=True)
class IntervalRecord:
    index: int
    theta: float
    theta_next: float
    elected_hacp: int | None
    active_hacp: int | None
    backup_hacp: int | None
    service_gap: bool
    announcements: tuple[tuple[int, int], ...]
    motes: tuple[MoteIntervalRecord, ...]
    pairs: tuple[PairRecord, ...]
    stats: MessageStats


@dataclass(frozen=True)
class SimulationTrace:
    seed: int
    engine: Engine
    architecture: str
    records: tuple[IntervalRecord, ...]
    final_system_trustworthiness: float | None


# ---------------------------------------------------------------------------
# the simulation proper
# ---------------------------------------------------------------------------


class _Simulation:
    def __init__(self, scenario: Scenario):
        self.adjacency = scenario.validate()
        self.sc = scenario
        self.noise_rng = random.Random(f"{scenario.seed}:noise")
        self.hop_rng = random.Random(f"{scenario.seed}:hop")
        self.society = list(range(scenario.motes))
        self.truths: dict[tuple[int, int], LinkTruth] = {}  # never written in place, so links may share one
        default = scenario.default_link
        for a in self.society:
            for b in self.adjacency[a]:
                if b > a:
                    changes = scenario.link_overrides.get((a, b))
                    self.truths[(a, b)] = replace(default, **changes) if changes else default
        self.link_events: dict[int, list[LinkEvent]] = {}  # interval -> its events, in scenario order
        for ev in scenario.link_events:
            self.link_events.setdefault(ev.at, []).append(ev)
        self.motes: dict[int, MoteState] = {}
        for a in self.society:
            neighborhood = sorted({a, *self.adjacency[a]})
            minor = AddressedMatrix(neighborhood)
            minor.set(a, a, 2)  # self-assessment starts fully trusted
            sink = scenario.architecture == "sink" and a == SINK_ADDRESS
            self.motes[a] = MoteState(
                addr=a,
                energy=scenario.capacity if sink else scenario.init_energy,
                capacity=scenario.capacity,
                harvest_rate=scenario.harvest_rate,
                engine=scenario.engine,
                a_minor=minor,
                unconstrained=sink,
            )
        self.theta = scenario.theta_base
        self.records: list[IntervalRecord] = []
        # caches that hold until a mote dies, since the dead never come back
        self._next_hop: dict[int, int] = {}  # greedy holder -> next hop, -1 for none; cleared by _serve and deaths
        self._reach: list[tuple[int, ...] | None] = [None] * scenario.motes  # per mote, its last flood's senders
        self._host: int | None = None  # the interval's host, which every unicast starts or ends at
        self._host_routes: tuple[list[int], list[int]] | None = None  # _routes(host), built by the first unicast

    # -- helpers ------------------------------------------------------------

    def _truth(self, a: int, b: int) -> LinkTruth:
        return self.truths[(min(a, b), max(a, b))]

    def _alive(self, addr: int) -> bool:
        return self.motes[addr].alive

    def _flood(self, origin: int) -> tuple[int, ...]:
        """Duplicate-suppressed broadcast; returns the motes that processed it, in the order they sent."""
        motes, adjacency, costs = self.motes, self.adjacency, self.sc.costs
        if not motes[origin].alive:
            return ()
        tx, rx = costs.tx, costs.rx
        reach = self._reach[origin]
        if reach is not None:
            # members that all live are still the origin's live component; if each survives its rx,
            # the walk would reach them all, so bill each what the walk would and skip the walk
            for b in reach:
                peer = motes[b]
                if not peer.alive or not (b == origin or peer.unconstrained or peer.energy - rx > 0.0):
                    break
            else:
                for b in reach:
                    mote = motes[b]
                    if mote.unconstrained:
                        continue
                    energy = (mote.energy if b == origin else mote.energy - rx) - tx  # the rx leaves it alive
                    if energy > 0.0:
                        mote.energy = energy
                    else:
                        self._die(mote)
                return reach
        processed = {origin}
        # breadth first: a mote pays one rx when first reached and one tx when its turn comes, and
        # nothing bills it in between, so it is alive then and the order within a level changes no charge
        senders = [origin]
        for a in senders:  # grows as the broadcast reaches new motes
            sender = motes[a]
            if not sender.unconstrained:  # the broadcast leaves even if it drains the sender
                energy = sender.energy - tx
                if energy > 0.0:
                    sender.energy = energy
                else:
                    self._die(sender)
            for b in adjacency[a]:
                if b in processed:
                    continue  # duplicates are discarded without processing
                peer = motes[b]
                if not peer.alive:
                    continue
                if not peer.unconstrained:
                    energy = peer.energy - rx
                    if energy > 0.0:
                        peer.energy = energy
                    else:
                        self._die(peer)
                        continue
                processed.add(b)
                senders.append(b)
        # every live neighbor of a sender got its rx, so while all the senders live they are a live component
        reach = tuple(senders)
        for b in reach:
            self._reach[b] = reach
        return reach

    def _routes(self, root: int) -> tuple[list[int], list[int]]:
        """One BFS from ``root`` over the live motes: per mote, its parent and ``toward``, -1 if unreached.

        Neighbors are scanned in ascending order, so walking ``parent`` back from a mote gives the path a search
        from ``root`` finds to it. ``toward[v]``, the lowest-address neighbor of ``v`` one hop nearer ``root``,
        steps along the path a search from ``v`` finds: the lexicographically smallest shortest path. ``depth``
        holds the hop counts. The root's own entries are never read.
        """
        motes, adjacency = self.motes, self.adjacency
        n = self.sc.motes
        parent, toward, depth = [-1] * n, [-1] * n, [-1] * n
        depth[root] = 0
        queue = [root] if motes[root].alive else []  # a dead root reaches no one
        for cur in queue:  # grows as the search reaches new motes, one level after the other
            d = depth[cur] + 1
            for b in adjacency[cur]:
                if depth[b] < 0:
                    if motes[b].alive:
                        depth[b], parent[b], toward[b] = d, cur, cur
                        queue.append(b)
                elif depth[b] == d and cur < toward[b]:
                    toward[b] = cur
        return parent, toward

    def _shortest_path(self, src: int, dst: int) -> list[int] | None:
        """The lexicographically smallest shortest live path, or None; the simulator routes by ``_unicast``."""
        if src == dst:
            return [src]
        path = _walk(self._routes(src)[0], dst, src)
        return path and path[::-1]

    def _void_routes(self) -> None:
        """Forget every route chosen on the live graph, which any death changes."""
        self._next_hop.clear()
        self._host_routes = None

    def _die(self, mote: MoteState) -> None:
        """A radio debit drained ``mote``: it floors at zero, and the live graph the routes were chosen on changes."""
        mote.energy = 0.0
        mote.alive = False
        self._void_routes()

    def _send(self, path: Sequence[int]) -> bool:
        """Carry one frame along ``path``, sender first; False when it breaks.

        Each hop bills tx to a live sender, which sends even if that drains it, and rx to a live receiver. The
        frame breaks at a receiver that is dead or dies of its rx; a poll is the path (mote, peer, mote).
        """
        motes, costs = self.motes, self.sc.costs
        tx, rx = costs.tx, costs.rx
        sender = motes[path[0]]
        for b in path[1:]:  # each receiver that survives sends the next hop
            if sender.alive and not sender.unconstrained:
                energy = sender.energy - tx
                if energy > 0.0:
                    sender.energy = energy
                else:
                    self._die(sender)
            receiver = motes[b]
            if not receiver.alive:
                return False
            if not receiver.unconstrained:
                energy = receiver.energy - rx
                if energy > 0.0:
                    receiver.energy = energy
                else:
                    self._die(receiver)
                    return False
            sender = receiver
        return True

    def _unicast(self, src: int, dst: int) -> bool:
        """Hop-by-hop delivery along the shortest live path; False when it breaks.

        Every unicast runs between a mote and the host that ``_aggregate`` set, along the host's ``_routes``,
        which are kept until a death voids them. An answer takes the reversed parent walk from the asker through
        ``_send``. An upload or a query steps along ``toward`` from the sender to the host in place, with ``_send``'s
        arithmetic: the sender's tx, each relay's rx then tx on one float, and the host's rx. It stops at a receiver
        that is dead or dies of its rx, and a sender or relay that its tx drains still sends. Each is the path a
        fresh search from the sender finds.
        """
        host, routes = self._host, self._host_routes
        if routes is None:
            routes = self._host_routes = self._routes(host)
        if src == host:
            path = _walk(routes[0], dst, host)
            return path is not None and self._send(path[::-1])
        toward = routes[1]  # a death drops the routes but leaves the list as it was, so the walk holds its path
        if toward[src] < 0:
            return False
        motes, costs = self.motes, self.sc.costs
        tx, rx = costs.tx, costs.rx
        sender = motes[src]
        if sender.alive and not sender.unconstrained:  # the frame leaves even if it drains the sender
            energy = sender.energy - tx
            if energy > 0.0:
                sender.energy = energy
            else:
                self._die(sender)
        while True:
            src = toward[src]
            mote = motes[src]
            if not mote.alive:
                return False
            if mote.unconstrained:
                if src == host:
                    return True
                continue
            energy = mote.energy - rx
            if not energy > 0.0:
                self._die(mote)
                return False
            if src == host:
                mote.energy = energy
                return True
            energy -= tx  # a relay that survives its rx sends on, even if that drains it
            if energy > 0.0:
                mote.energy = energy
            else:
                self._die(mote)

    def _route_greedy(self, src: int, dst: int) -> bool:
        """Forward hop by hop to each holder's most trusted neighbor; capped at n hops.

        While no mote dies the next hops hold still, so a frame that comes back to a holder only repeats that cycle
        to the cap. Brent's method spots the return: ``mark`` is the holder after hop ``marked``, and the holder
        after hop ``renew`` replaces it, ``renew`` doubling each time. ``_lap`` then bills the rest of the walk at
        once. A death restarts the search, and a lap that would kill a member turns it off until the next death.
        """
        motes, adjacency, next_hop, costs = self.motes, self.adjacency, self._next_hop, self.sc.costs
        tx, rx = costs.tx, costs.rx
        n = self.sc.motes
        mote = motes[src]
        if not mote.alive:
            return False
        current = mark = src
        marked, renew = 0, 2
        for i in range(1, n + 1):  # hop i; ``mote``, alive, holds the frame at ``current``
            hop = next_hop.get(current)
            if hop is None:  # in _serve trust holds still, and a death clears the table when the live graph changes
                candidates = [b for b in adjacency[current] if motes[b].alive]
                hop = next_hop[current] = select_peer(mote, candidates) if candidates else -1
            if hop < 0:
                return False
            current = hop
            if not mote.unconstrained:  # the frame leaves even if it drains the holder
                energy = mote.energy - tx
                if energy > 0.0:
                    mote.energy = energy
                else:
                    self._die(mote)
                    mark, renew = -1, i  # the receiver is the first mark on the new next hops
            mote = motes[current]
            if not mote.alive:
                return False
            if not mote.unconstrained:
                energy = mote.energy - rx
                if energy > 0.0:
                    mote.energy = energy
                else:
                    self._die(mote)
                    return False
            if current == dst:
                return True
            if current == mark:  # back round a cycle of i - marked hops, which dst is not on
                if i < n and self._lap(current, i - marked, n - i):
                    return False
                mark = renew = -1
            elif i == renew:
                mark, marked, renew = current, i, i + i
        return False

    def _lap(self, start: int, size: int, hops: int) -> bool:
        """Bill a greedy frame's last ``hops`` hops round the ``size``-cycle of next hops from its holder ``start``.

        Hop j goes from member j % size to the next, so each member's debits alternate, the holder's from its tx and
        the others' from their rx; each runs on a local float with the walk's arithmetic. A debit only lowers the
        value, so a member that ends above zero survives every one. Only if all do are the energies committed and
        True returned; otherwise nothing is billed and the walk goes on hop by hop.
        """
        motes, next_hop, costs = self.motes, self._next_hop, self.sc.costs
        billed = []
        member = start
        for p in range(size):
            mote = motes[member]
            member = next_hop[member]
            if mote.unconstrained:
                continue
            sends = (hops - p + size - 1) // size  # the hops j < hops with j % size == p
            receives = (hops - (p - 1) % size + size - 1) // size  # and those with (j + 1) % size == p
            first, then = (costs.tx, costs.rx) if p == 0 else (costs.rx, costs.tx)
            energy = mote.energy
            for _ in range(min(sends, receives)):
                energy = energy - first - then
            if sends != receives:
                energy -= first
            if not energy > 0.0:
                return False
            billed.append((mote, energy))
        for mote, energy in billed:
            mote.energy = energy
        return True

    def _merge_row(self, mote: MoteState, peer: int, row: dict[int, int]) -> None:
        # the poll reply carries the peer's own assessment row, checked when the peer wrote it;
        # keep what overlaps
        column = mote.a_minor._index
        peer_row = mote.a_minor.matrix._rows[column[peer]]
        for subject, value in row.items():
            k = column.get(subject)
            if k is not None:
                peer_row[k] = value

    def _apply_link_events(self, k: int) -> None:
        for ev in self.link_events.get(k, ()):  # a later event on the same link overwrites what both set
            edge = (min(ev.a, ev.b), max(ev.a, ev.b))
            self.truths[edge] = replace(self.truths[edge], **ev.changes)

    def _apply_kills(self, k: int) -> None:
        for addr in self.sc.mote_kills.get(k, ()):
            mote = self.motes[addr]
            mote.alive = False
            if not mote.unconstrained:
                mote.energy = 0.0

    # -- the phases of one interval -------------------------------------------

    def _monitor(self, theta: float) -> tuple[dict[int, int], dict[int, int]]:
        """Poll every neighbor and feed each scored link to the engine; returns the PCP and RoC maps."""
        sc = self.sc
        polling = [m for m in self.motes.values() if m.alive]
        row_snapshots = {m.addr: m.a_minor.row(m.addr) for m in polling}
        rocs: dict[int, int] = {}
        for mote in polling:
            # only a mote's own polls write its minor, so its churn is final once they end
            before = mote.a_minor.matrix.copy()
            for b in self.adjacency[mote.addr]:
                if not mote.alive:
                    break
                if self._send((mote.addr, b, mote.addr)):  # request, then reply with safety data and row
                    analyze(mote, b, observe_link(self._truth(mote.addr, b), self.noise_rng), sc)
                    charge_energy(mote, "compute", sc.costs)
                    self._merge_row(mote, b, row_snapshots.get(b, {}))
            if mote.alive:
                rocs[mote.addr] = rate_of_change(before, mote.a_minor.matrix)

        pcp_map: dict[int, int] = {}
        roc_map: dict[int, int] = {}
        for mote in polling:
            if not mote.alive:
                continue
            roc = rocs[mote.addr]
            pcp = rwp_proto.compute_pcp(mote.energy, mote.harvest_rate, theta, mote.capacity)
            charge_energy(mote, "compute", sc.costs)
            if mote.alive:
                pcp_map[mote.addr], roc_map[mote.addr] = pcp, roc
        return pcp_map, roc_map

    def _announce(self, pcp_map: dict[int, int]) -> list[tuple[int, int]]:
        """Flood each live mote's (address, PCP), in address order; a sink collects none.

        The first announcer of each component floods it, and ``_bill_floods`` then bills the floods of the rest of
        that component at once. After a batch it refuses, every later announcer floods on its own.
        """
        if self.sc.architecture == "sink":
            return []
        announcements = []
        billed: set[int] = set()  # the members of the batches billed so far
        batching = True
        for a, pcp in pcp_map.items():
            if a not in billed:
                if not self._alive(a):  # an earlier flood may have drained it
                    continue
                reach = self._flood(a)
                if batching:
                    if self._bill_floods(reach, a):
                        billed.update(reach)
                    else:
                        batching = False
            announcements.append((a, pcp))
        return announcements

    def _bill_floods(self, reach: tuple[int, ...], first: int) -> bool:
        """Bill the announcement floods of every member of ``reach`` after ``first``, which has just flooded it.

        ``first`` must be the lowest address in ``reach``, and every member alive with ``reach`` as its own, so
        that ``reach`` is a live component whose other members announce next, in address order. While all of them
        survive, each of those floods reuses ``reach``: a member pays rx then tx for another's flood and tx alone
        for its own. Each member's debits run on a local float with the walk's arithmetic. A debit only lowers the
        value, so a member that ends above zero survives every one. Only if all do are the energies committed and
        True returned; otherwise nothing is billed.
        """
        motes, owner, costs = self.motes, self._reach, self.sc.costs
        if first != min(reach):
            return False
        for b in reach:
            if owner[b] is not reach or not motes[b].alive:
                return False
        tx, rx = costs.tx, costs.rx
        last = len(reach) - 1
        billed = []
        for i, b in enumerate(sorted(reach)):
            mote = motes[b]
            if mote.unconstrained:
                continue
            energy = mote.energy
            if i:  # the floods of the i - 1 members between first and it, then its own
                for _ in range(i - 1):
                    energy = energy - rx - tx
                energy -= tx
            for _ in range(last - i):  # and those of the members after it
                energy = energy - rx - tx
            if not energy > 0.0:
                return False
            billed.append((mote, energy))
        for mote, energy in billed:
            mote.energy = energy
        return True

    def _elect(self, announcements: list[tuple[int, int]]) -> tuple[int | None, int | None]:
        """The interval's host and its hot standby, either of which may be None."""
        if self.sc.architecture == "sink":
            return (SINK_ADDRESS if self._alive(SINK_ADDRESS) else None), None
        if not announcements:
            return None, None
        order = rwp_proto.election_order(announcements)
        return order[0], (order[1] if self.sc.failover and len(order) > 1 else None)

    def _aggregate(self, provider: int, roc_map: dict[int, int], stats: Counter[str]) -> float | None:
        """Upload the minors, aggregate them and flood the result; the next theta, or None if the host died."""
        sc = self.sc
        host = self.motes[provider]
        self._host = provider
        self._void_routes()  # routes lead to this interval's host, over the live graph as it is now
        # uploads pass the live matrices: nothing writes them before aggregate_major reads them
        minors = [(provider, host.a_minor, sc.qad_operator)]
        rocs = [roc_map[provider]]
        for a in self.society:
            mote = self.motes[a]
            if a == provider or not mote.alive:
                continue
            stats["minors_sent"] += 1
            if self._unicast(a, provider):
                minors.append((a, mote.a_minor, sc.qad_operator))
                rocs.append(roc_map[a])
                stats["minors_delivered"] += 1
        if not host.alive:
            return None
        charge_energy(host, "compute", sc.costs)  # aggregation
        if not host.alive:
            return None
        rwp_proto.aggregate_major(minors, self.society, rng=self.hop_rng)  # no output reads it
        theta_next = rwp_proto.next_interval(rocs, sc.theta_base, sc.theta_min, sc.theta_max)
        charge_energy(host, "compute", sc.costs)
        if not host.alive:
            return None
        self._flood(provider)  # push the aggregate and next period out
        stats["floods"] += 1
        return theta_next

    def _serve(self, provider: int | None, stats: Counter[str]) -> dict[int, int]:
        """Each live mote picks its most trusted neighbor, queries the host and routes one message to it."""
        selections: dict[int, int] = {}
        self._next_hop.clear()  # the monitor phase has moved trust since the last _serve
        for a in self.society:
            mote = self.motes[a]
            if not mote.alive:
                continue
            candidates = [b for b in self.adjacency[a] if self._alive(b)]
            if not candidates:
                continue
            # also the first hop of a's greedy route, unless a death in its queries clears the table first
            selections[a] = self._next_hop[a] = select_peer(mote, candidates)
            if provider is None:
                continue
            stats["queries_sent"] += 1  # a remote asker's query and answer each cost a unicast
            if a == provider or (self._unicast(a, provider) and self._unicast(provider, a)):
                stats["queries_answered"] += 1
            if a != provider:
                stats["app_sent"] += 1
                if self._route_greedy(a, provider):
                    stats["app_delivered"] += 1
        return selections

    # -- one interval ---------------------------------------------------------

    def run_interval(self, k: int) -> None:
        theta = self.theta
        self._apply_link_events(k)
        pcp_map, roc_map = self._monitor(theta)
        announcements = self._announce(pcp_map)
        elected, backup = self._elect(announcements)
        self._apply_kills(k)  # scripted failures land mid-interval, after the election
        provider = None if elected is None else rwp_proto.failover(elected, backup, self._alive)
        stats: Counter[str] = Counter(floods=len(announcements))
        theta_next = None if provider is None else self._aggregate(provider, roc_map, stats)
        if theta_next is None:  # an unserved interval keeps the current period
            provider, theta_next = None, theta
        selections = self._serve(provider, stats)

        for mote in self.motes.values():  # harvest passes over the dead
            mote.harvest(theta)
        mote_records = tuple(
            MoteIntervalRecord(
                addr=a,
                alive=mote.alive,
                energy=mote.energy,
                pcp=pcp_map.get(a),
                roc=roc_map.get(a),
                is_hacp=(a == provider),
                selected_peer=selections.get(a),
            )
            for a, mote in self.motes.items()  # filled in address order
        )
        self.records.append(
            IntervalRecord(
                index=k,
                theta=theta,
                theta_next=theta_next,
                elected_hacp=elected,
                active_hacp=provider,
                backup_hacp=backup,
                service_gap=provider is None,
                announcements=tuple(announcements),
                motes=mote_records,
                pairs=tuple(p for a in self.society if self._alive(a) for p in self.motes[a].trust.pair_records()),
                stats=MessageStats(**stats),
            )
        )
        self.theta = theta_next

    def final_system_trustworthiness(self) -> float | None:
        """Mean combined trustworthiness over every pair that carries one, dead observers too.

        Nothing moves trust after the last interval, so the live motes' pairs are the ones it recorded;
        only the dead motes' pairs are derived again.
        """
        dead = (p for m in self.motes.values() if not m.alive for p in m.trust.pair_records())
        combined = [p.combined for part in (self.records[-1].pairs, dead) for p in part if p.combined is not None]
        return math.fsum(combined) / len(combined) if combined else None


def _walk(step: list[int], a: int, root: int) -> list[int] | None:
    """The path from ``a`` (not ``root``) to ``root`` along ``step``, or None if ``a`` is unreached.

    A reached mote's steps are all reached, and end at the root.
    """
    if step[a] < 0:
        return None
    path = [a]
    while a != root:
        a = step[a]
        path.append(a)
    return path


def run(scenario: Scenario) -> SimulationTrace:
    """Simulate the scenario start to finish; same scenario, same trace, always."""
    sim = _Simulation(scenario)
    for k in range(scenario.intervals):
        sim.run_interval(k)
    return SimulationTrace(
        seed=scenario.seed,
        engine=scenario.engine,
        architecture=scenario.architecture,
        records=tuple(sim.records),
        final_system_trustworthiness=sim.final_system_trustworthiness(),
    )
