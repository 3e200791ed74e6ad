"""Run invariants over small random scenarios.

Every topology, engine and architecture, failover on and off, batteries
low enough that motes die mid-run, and scripted kills. Whatever the
scenario, a run keeps energy within [0, capacity], never revives the dead,
never delivers more than it sent, floods once per announcement and once
per served aggregate, and repeats itself exactly. It also gives the same
trace as a simulation that keeps no liveness cache and bills every charge
through ``charge_energy``, and each radio walk leaves every mote as that
simulation's walk does.
"""

import math
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st

from motetrust import simnet
from motetrust.simnet import (
    ARCHITECTURES,
    TOPOLOGIES,
    EnergyCosts,
    Engine,
    LinkTruth,
    Scenario,
    _Simulation,
    charge_energy,
    run,
)

CAPACITY = 3.0


@st.composite
def scenarios(draw):
    motes = draw(st.integers(1, 10))
    intervals = draw(st.integers(1, 4))
    kills = draw(
        st.dictionaries(
            st.integers(0, intervals - 1),
            st.lists(st.integers(0, motes - 1), min_size=1, max_size=3, unique=True).map(lambda a: tuple(sorted(a))),
            max_size=2,
        )
    )
    return Scenario(
        motes=motes,
        intervals=intervals,
        topology=draw(st.sampled_from(TOPOLOGIES)),
        radius=draw(st.floats(0.2, 0.9)),
        seed=draw(st.integers(0, 2**16)),
        failover=draw(st.booleans()),
        architecture=draw(st.sampled_from(ARCHITECTURES)),
        engine=draw(st.sampled_from(list(Engine))),
        capacity=CAPACITY,
        init_energy=draw(st.floats(0.0, CAPACITY)),  # a poll round and a few floods can drain it
        harvest_rate=draw(st.sampled_from([0.0, 0.001, 0.01])),
        default_link=LinkTruth(noise_scale=draw(st.sampled_from([0.0, 0.1, 0.5]))),
        mote_kills=kills,
    )


def deaths(trace) -> int:
    return sum(not m.alive for m in trace.records[-1].motes)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_run_invariants(scenario):
    trace = run(scenario)
    dead: set[int] = set()
    for rec in trace.records:
        for m in rec.motes:
            assert 0.0 <= m.energy <= scenario.capacity, (rec.index, m)
            assert not (m.alive and m.addr in dead), f"mote {m.addr} came back at interval {rec.index}"
            if not m.alive:
                dead.add(m.addr)
        s = rec.stats
        assert s.app_delivered <= s.app_sent
        assert s.queries_answered <= s.queries_sent
        assert s.minors_delivered <= s.minors_sent
        assert s.floods == len(rec.announcements) + (rec.active_hacp is not None)  # announcements, then the aggregate
    assert run(scenario) == trace


# two of the four beta motes drain in the last interval, so the dead motes' pairs carry other figures than the
# survivors': counted twice, the survivors' pairs move the mean
SURVIVORS_OUTWEIGH_THE_DEAD = Scenario(
    motes=4, intervals=3, topology="grid", seed=0, engine=Engine.BETA, capacity=CAPACITY, init_energy=1.0,
    harvest_rate=0.001, default_link=LinkTruth(noise_scale=0.0),
)


@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(SURVIVORS_OUTWEIGH_THE_DEAD)
def test_final_mean_counts_every_pair_once(scenario):
    # the simulator reads the live motes' pairs from the last interval's records; derive them all afresh here
    sim = _Simulation(scenario)
    for k in range(scenario.intervals):
        sim.run_interval(k)
    combined = [p.combined for m in sim.motes.values() for p in m.trust.pair_records() if p.combined is not None]
    assert sim.final_system_trustworthiness() == (math.fsum(combined) / len(combined) if combined else None)


def test_the_strategy_drains_batteries():
    # the invariants above only bite if some generated run loses motes to energy, not just to kills
    found = find(
        scenarios().filter(lambda s: not s.mote_kills and s.architecture == "p2p"),
        lambda s: deaths(run(s)) > 0,
        settings=settings(max_examples=200, deadline=None, database=None),
    )
    assert deaths(run(found)) > 0


class _Walking(_Simulation):
    """The simulation without its liveness caches: every greedy hop selects, every flood walks and every
    unicast searches afresh, and every poll, unicast and greedy hop bills through charge_energy."""

    def _flood(self, origin):
        motes, adjacency, costs = self.motes, self.adjacency, self.sc.costs
        if not motes[origin].alive:
            return set()
        processed = {origin}
        senders = [origin]
        for a in senders:
            charge_energy(motes[a], "tx", costs)
            for b in adjacency[a]:
                if b in processed:
                    continue
                peer = motes[b]
                if not peer.alive:
                    continue
                charge_energy(peer, "rx", costs)
                if peer.alive:
                    processed.add(b)
                    senders.append(b)
        return processed

    def _send(self, path):
        motes, costs = self.motes, self.sc.costs
        for sender, receiver in zip(path, path[1:]):
            charge_energy(motes[sender], "tx", costs)
            if not charge_energy(motes[receiver], "rx", costs).alive:  # the dead are never billed
                return False
        return True

    def _shortest_path(self, src, dst):
        if src == dst:
            return [src]
        motes, adjacency = self.motes, self.adjacency
        if not motes[src].alive or not motes[dst].alive:
            return None
        parents = {src: None}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for b in adjacency[cur]:
                if b in parents or not motes[b].alive:
                    continue
                parents[b] = cur
                if b == dst:
                    path = [b]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(b)
        return None

    def _unicast(self, src, dst):
        path = self._shortest_path(src, dst)
        return path is not None and self._send(path)

    def _route_greedy(self, src, dst):
        motes, adjacency = self.motes, self.adjacency
        current = src
        for _ in range(self.sc.motes):
            mote = motes[current]
            if not mote.alive:
                return False
            candidates = [b for b in adjacency[current] if motes[b].alive]
            if not candidates:
                return False
            current = simnet.select_peer(mote, candidates)
            if not self._send((mote.addr, current)):
                return False
            if current == dst:
                return True
        return False


# the aggregate's flood drains a relay on a stored upload path, and the asker queries before any hop death
FLOOD_KILLS_A_RELAY = Scenario(
    motes=9,
    intervals=1,
    topology="geometric",
    radius=0.5,
    seed=9,
    failover=False,
    architecture="sink",
    engine=Engine.QAD,
    capacity=CAPACITY,
    init_energy=0.5,
    harvest_rate=0.0,
    default_link=LinkTruth(noise_scale=0.0),
)


# every battery holds one rx: the sink's first poll leaves mote 1 at exactly 0.0 J, which is death, so it never replies
EXACT_ZERO = Scenario(
    motes=5,
    intervals=2,
    architecture="sink",
    engine=Engine.BETA,
    capacity=CAPACITY,
    init_energy=0.01,
    harvest_rate=0.0,
)

# the sink's aggregate flood reuses its reach after the first interval, queries reuse the upload paths that end
# at it, and answers leave it along the host tree; a run never makes the sink a relay, so the test below does
SINK_REUSES_ITS_ROUTES = Scenario(
    motes=9,
    intervals=3,
    topology="grid",
    seed=4,
    architecture="sink",
    engine=Engine.BAYES,
    capacity=CAPACITY,
    init_energy=CAPACITY,
    harvest_rate=0.0,
)


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(FLOOD_KILLS_A_RELAY)
@example(EXACT_ZERO)
@example(SINK_REUSES_ITS_ROUTES)
def test_the_caches_change_no_trace(scenario):
    with mock.patch.object(simnet, "_Simulation", _Walking):
        walked = run(scenario)
    assert run(scenario) == walked


# binary fractions: every debit is exact, so batteries land on exactly 0.0 J at whichever charge drains them
EXACT_COSTS = EnergyCosts(tx=0.25, rx=0.125, compute=0.0625)


def radio_script(rng, sim):
    """Random floods, uploads, answers, greedy routes and monitor rounds around one host, as (method, args)."""
    n = sim.sc.motes
    host = sim._host = rng.randrange(n)
    for _ in range(30):
        op, a = rng.choice(("_flood", "_flood", "upload", "answer", "_route_greedy", "_monitor")), rng.randrange(n)
        if a == host and op != "_flood":
            continue  # the host sends itself nothing
        if op == "upload":
            yield "_unicast", (a, host)
        elif op == "answer":
            yield "_unicast", (host, a)
        elif op == "_route_greedy":
            yield op, (a, host)
        elif op == "_monitor":
            yield op, (60.0,)
        else:
            yield op, (a,)


@pytest.mark.parametrize("topology", ["ring", "grid"])
def test_each_walk_bills_as_charge_energy(topology):
    # the sink relays floods, uploads, answers and greedy routes here, which no run makes it do, and the
    # batteries drain to exactly 0.0 J at every kind of charge; each call must leave every mote, and return,
    # what the walking oracle's charge_energy calls do
    for seed in range(60):
        rng = random.Random(seed)
        scenario = Scenario(
            motes=7, topology=topology, architecture="sink", engine=Engine.QAD, costs=EXACT_COSTS,
            capacity=4.0, init_energy=4.0, harvest_rate=0.0, default_link=LinkTruth(noise_scale=0.5), seed=seed,
        )
        fast, slow = _Simulation(scenario), _Walking(scenario)
        for addr in range(1, scenario.motes):
            fast.motes[addr].energy = slow.motes[addr].energy = rng.randrange(1, 17) * 0.125
        for method, args in radio_script(rng, fast):
            got, want = getattr(fast, method)(*args), getattr(slow, method)(*args)
            if method == "_flood":
                got, want = set(got), set(want)
            elif method == "_monitor":
                fast._next_hop.clear()  # trust moved, as it has by each _serve
            state = [(m.energy, m.alive) for m in fast.motes.values()]
            assert (got, state) == (want, [(m.energy, m.alive) for m in slow.motes.values()]), (seed, method, args)


GRID_3X3 = Scenario(motes=9, topology="grid", architecture="sink", engine=Engine.QAD)


def unicast_paths(sim, src, dst) -> tuple[bool, list[list[int]]]:
    """What ``_unicast`` returns and the paths it hands ``_send``, which carries nothing and so kills no one."""
    sent = []
    with mock.patch.object(sim, "_send", lambda path: sent.append(list(path)) or True):
        return sim._unicast(src, dst), sent


def test_an_upload_steps_to_the_lowest_nearer_neighbor():
    # both of mote 8's neighbors, 5 and 7, are one hop nearer host 0, and so are both of 5's nearer ones, 2 and 4
    sim = _Simulation(GRID_3X3)
    sim._host = 0
    assert unicast_paths(sim, 8, 0) == (True, [[8, 5, 2, 1, 0]])
    assert unicast_paths(sim, 0, 8) == (True, [[0, 1, 2, 5, 8]])


def with_dead(scenario, dead) -> _Simulation:
    """A fresh simulation of ``scenario`` in which the motes in ``dead`` that it has are dead."""
    sim = _Simulation(scenario)
    for addr in dead:
        if addr < scenario.motes:
            sim.motes[addr].alive = False
            sim.motes[addr].energy = 0.0
    return sim


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sets(st.integers(0, 9)))
@example(GRID_3X3, {4})
def test_shortest_paths_are_the_searched_paths(scenario, dead):
    # _shortest_path walks the parents of one _routes search; for every ordered pair, dead endpoints and a mote to
    # itself included, it must return what the oracle's own deque search returns
    sim = with_dead(scenario, dead)
    for src in range(scenario.motes):
        for dst in range(scenario.motes):
            assert sim._shortest_path(src, dst) == _Walking._shortest_path(sim, src, dst), (src, dst)


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sets(st.integers(0, 9)), st.integers(0, 9))
@example(GRID_3X3, {4}, 8)
def test_host_routes_are_the_searched_paths(scenario, dead, host):
    # one search from the host must route every upload and every answer along the path a search from its
    # sender finds: ties between shortest paths go to the lexicographically smallest
    sim = with_dead(scenario, dead)
    host = sim._host = host % scenario.motes
    for a in range(scenario.motes):
        if a == host or not sim.motes[a].alive:
            continue
        for src, dst in ((a, host), (host, a)):
            want = _Walking._shortest_path(sim, src, dst)
            assert unicast_paths(sim, src, dst) == ((True, [want]) if want else (False, [])), (src, dst)


def reaches_past_the_host(routes) -> bool:
    """Whether host routes are built and lead some mote to the host, so that a stored path has hops to void."""
    return routes is not None and any(p >= 0 for p in routes[0])


class _Probe(_Simulation):
    """Notes when a death voids a cache: stored next hops or host routes in _serve, host routes that the
    uploads built in the aggregate's flood, or a stored flood reach."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.phase = None
        self.live = scenario.motes
        self.seen: set[str] = set()

    def _aggregate(self, *args):
        self.phase = "aggregate"
        try:
            return super()._aggregate(*args)
        finally:
            self.phase = None

    def _serve(self, provider, stats):
        self.phase = "serve"
        self.live = sum(m.alive for m in self.motes.values())
        try:
            return super()._serve(provider, stats)
        finally:
            self.phase = None

    def _void_routes(self):
        live = sum(m.alive for m in self.motes.values())
        if self.phase == "serve" and live < self.live:  # a death in a query, an answer or a greedy route
            if self._next_hop:
                self.seen.add("next hops voided")
            if reaches_past_the_host(self._host_routes):
                self.seen.add("host tree voided")
        self.live = live
        super()._void_routes()

    def _flood(self, origin):
        stored = self._reach[origin] if self.motes[origin].alive else None
        paths = self.phase == "aggregate" and reaches_past_the_host(self._host_routes)
        live = sum(m.alive for m in self.motes.values())
        result = super()._flood(origin)
        if stored is not None and result is not stored:
            self.seen.add("reach voided")
        if paths and sum(m.alive for m in self.motes.values()) < live:
            self.seen.add("upload path voided")
        return result


def voided(scenario) -> set[str]:
    sim = _Probe(scenario)
    for k in range(scenario.intervals):
        sim.run_interval(k)
    return sim.seen


@pytest.mark.parametrize("event", ["next hops voided", "reach voided", "upload path voided", "host tree voided"])
def test_the_strategy_voids_each_cache(event):
    # the oracle above only bites if some generated run has a death void a stored cache entry
    found = find(
        scenarios(),
        lambda s: event in voided(s),
        settings=settings(max_examples=500, deadline=None, database=None),
    )
    assert event in voided(found)
