import dataclasses
import random
from collections import Counter

import pytest

from motetrust.rwp import AddressedMatrix
from motetrust.simnet import (
    Engine,
    EnergyCosts,
    LinkEvent,
    LinkTruth,
    MoteState,
    SafetyObservation,
    SafetyWeights,
    Scenario,
    ScenarioError,
    _Simulation,
    analyze,
    build_topology,
    charge_energy,
    observe_link,
    run,
    safety_score,
    select_peer,
)

DEFAULT_TRUTH = LinkTruth()


def make_mote(engine, addr=0, peers=(1, 2), energy=100.0):
    minor = AddressedMatrix([addr, *peers])
    minor.set(addr, addr, 2)
    return MoteState(
        addr=addr, energy=energy, capacity=100.0, harvest_rate=0.0, engine=engine, a_minor=minor
    )


def plentiful(**overrides):
    """A scenario whose batteries comfortably outlast the run."""
    base = dict(
        motes=6,
        intervals=5,
        capacity=5000.0,
        init_energy=5000.0,
        harvest_rate=1.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestBuildTopology:
    def test_two_mote_ring_has_one_edge(self):
        adj = build_topology(Scenario(motes=2))
        assert adj == {0: (1,), 1: (0,)}

    def test_ring_wraps(self):
        adj = build_topology(Scenario(motes=5))
        assert adj[0] == (1, 4)
        assert adj[3] == (2, 4)

    def test_grid_center_has_four_neighbors(self):
        adj = build_topology(Scenario(motes=9, topology="grid"))
        assert adj[4] == (1, 3, 5, 7)
        assert adj[0] == (1, 3)

    def test_geometric_is_deterministic_and_symmetric(self):
        s = Scenario(motes=12, topology="geometric", radius=0.6, seed=5)
        a, b = build_topology(s), build_topology(s)
        assert a == b
        for src, neighbors in a.items():
            for dst in neighbors:
                assert src in a[dst]

    def test_single_mote_has_no_edges(self):
        assert build_topology(Scenario(motes=1)) == {0: ()}


class TestObserveLink:
    def test_zero_noise_reproduces_truth(self):
        truth = LinkTruth(noise_scale=0.0)
        obs = observe_link(truth, random.Random(1))
        assert obs == SafetyObservation(
            truth.link_quality, truth.tx_rate, truth.response_time, truth.uptime
        )

    def test_consumes_four_draws_deterministically(self):
        a = observe_link(DEFAULT_TRUTH, random.Random(3))
        b = observe_link(DEFAULT_TRUTH, random.Random(3))
        assert a == b

    def test_huge_noise_stays_in_bounds(self):
        truth = LinkTruth(noise_scale=5.0)
        rng = random.Random(0)
        for _ in range(200):
            obs = observe_link(truth, rng)
            assert 0.0 <= obs.link_quality <= 1.0
            assert 0.0 <= obs.uptime <= 1.0
            assert obs.tx_rate >= 0.0
            assert obs.response_time >= 0.0


class TestSafetyScore:
    def test_equal_weight_example(self):
        obs = SafetyObservation(0.8, 125_000.0, 50.0, 0.9)
        score = safety_score(obs, SafetyWeights(), 250_000.0, 100.0)
        assert score == pytest.approx(0.675)

    def test_rate_saturates_and_latency_floors(self):
        obs = SafetyObservation(1.0, 900_000.0, 400.0, 1.0)
        score = safety_score(obs, SafetyWeights(), 250_000.0, 100.0)
        assert score == pytest.approx(0.25 * (1.0 + 1.0 + 0.0 + 1.0))

    def test_references_must_be_positive(self):
        with pytest.raises(ValueError):
            safety_score(SafetyObservation(1, 1, 1, 1), SafetyWeights(), 0.0, 100.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SafetyWeights(0.5, 0.5, 0.5, 0.5)


class TestAnalyze:
    def test_qad_quantizes_into_the_minor(self):
        mote = make_mote(Engine.QAD)
        obs = SafetyObservation(0.95, 250_000.0, 10.0, 0.99)
        scenario = Scenario()
        score = analyze(mote, 1, obs, scenario)
        assert score >= 0.8
        assert mote.a_minor.get(0, 1) == 2

    def test_beta_tallies_against_threshold(self):
        mote = make_mote(Engine.BETA)
        good = SafetyObservation(0.9, 250_000.0, 10.0, 0.99)
        bad = SafetyObservation(0.1, 1_000.0, 400.0, 0.2)
        scenario = Scenario()
        analyze(mote, 1, good, scenario)
        analyze(mote, 1, bad, scenario)
        counts = mote.trust.evidence[1]
        assert (counts.normal, counts.misbehavior) == (2.0, 2.0)

    def test_bayes_records_joint_evidence(self):
        mote = make_mote(Engine.BAYES)
        obs = SafetyObservation(0.9, 250_000.0, 10.0, 0.99)
        analyze(mote, 1, obs, Scenario())
        table = mote.trust.evidence[1]
        assert table.count(hypothesis=True, d1=True, d2=True) == 1


class TestSelectPeer:
    def test_qad_prefers_higher_assessment(self):
        mote = make_mote(Engine.QAD)
        mote.a_minor.set(0, 1, -1)
        mote.a_minor.set(0, 2, 1)
        assert select_peer(mote, [1, 2]) == 2

    def test_unassessed_ranks_below_everything(self):
        mote = make_mote(Engine.QAD)
        mote.a_minor.set(0, 2, -2)
        assert select_peer(mote, [1, 2]) == 2

    @pytest.mark.parametrize(
        "candidates",
        [[2, 1], [3, 2, 1], [2, 1, 2, 1], (peer for peer in (3, 1, 2))],
        ids=["pair", "three-descending", "duplicates", "generator"],
    )
    def test_tie_goes_to_lowest_address(self, candidates):
        mote = make_mote(Engine.BETA, peers=(1, 2, 3))
        assert select_peer(mote, candidates) == 1

    @pytest.mark.parametrize("engine", [Engine.BETA, Engine.BAYES])
    def test_new_evidence_changes_the_next_selection(self, engine):
        mote = make_mote(engine)
        good = SafetyObservation(0.9, 250_000.0, 10.0, 0.99)
        # rate at reference and mostly up, but scored below the threshold
        bad = SafetyObservation(0.0, 250_000.0, 100.0, 0.51)
        analyze(mote, 1, good, Scenario())
        analyze(mote, 2, good, Scenario())
        assert select_peer(mote, [1, 2]) == 1
        analyze(mote, 1, bad, Scenario())
        analyze(mote, 1, bad, Scenario())
        assert select_peer(mote, [1, 2]) == 2

    def test_rejects_self_and_empty(self):
        mote = make_mote(Engine.BETA)
        with pytest.raises(ValueError):
            select_peer(mote, [])
        with pytest.raises(ValueError):
            select_peer(mote, [0, 1])


class TestQadStorage:
    """QadTrust reads and writes the minor's storage directly; every write path must reach its reads."""

    def test_public_set_reaches_metric(self):
        mote = make_mote(Engine.QAD)
        assert mote.trust.metric(1) == -3.0
        mote.a_minor.set(0, 1, -1)
        assert mote.trust.metric(1) == -1.0
        mote.a_minor.set(0, 1, None)
        assert mote.trust.metric(1) == -3.0

    def test_observe_reaches_metric_and_public_get(self):
        mote = make_mote(Engine.QAD)
        analyze(mote, 2, SafetyObservation(0.0, 0.0, 400.0, 0.0), Scenario())
        assert mote.trust.metric(2) == -2.0
        assert mote.a_minor.get(0, 2) == -2

    def test_uncovered_peer_has_no_metric_and_cannot_be_observed(self):
        mote = make_mote(Engine.QAD)
        assert mote.trust.metric(9) == -3.0
        with pytest.raises(IndexError):
            mote.trust.observe(9, 0.9, SafetyObservation(0.9, 250_000.0, 10.0, 0.99), Scenario())

    def test_merge_row_writes_the_peers_row(self):
        sim = _Simulation(Scenario(motes=4, engine=Engine.QAD))
        mote = sim.motes[0]  # ring of four: covers 0, 1 and 3
        sim._merge_row(mote, 1, {0: -2, 1: 2, 2: 1, 3: -1})
        assert mote.a_minor.row(1) == {0: -2, 1: 2, 3: -1}  # mote 2 is outside the minor
        assert mote.trust.metric(1) == -3.0  # the mote's own row is untouched
        sim._merge_row(mote, 0, {1: 1})  # a row merged under the mote's own address is its view
        assert mote.trust.metric(1) == 1.0

    def test_run_keeps_metric_and_pair_records_in_step(self):
        sim = _Simulation(plentiful(engine=Engine.QAD, intervals=2))
        for k in range(2):
            sim.run_interval(k)
        for mote in sim.motes.values():
            for pair in mote.trust.pair_records():
                assert pair.metric == mote.trust.metric(pair.dst) == float(mote.a_minor.get(mote.addr, pair.dst))

    def test_pair_record_is_reused_while_its_assessment_holds(self):
        sim = _Simulation(plentiful(engine=Engine.QAD))
        sim.run_interval(0)
        mote = sim.motes[0]
        first = {p.dst: p for p in mote.trust.pair_records()}
        sim.run_interval(1)
        again = {p.dst: p for p in mote.trust.pair_records()}
        assert first.keys() == again.keys() and all(again[d] is first[d] for d in first)
        mote.a_minor.set(0, 1, int(first[1].metric) - 1)
        changed = {p.dst: p for p in mote.trust.pair_records()}
        assert changed[1] is not first[1] and changed[1].metric == first[1].metric - 1
        assert changed[5] is first[5]

    def test_checked_accessors_still_raise(self):
        minor = make_mote(Engine.QAD).a_minor
        with pytest.raises(IndexError):
            minor.get(0, 9)
        with pytest.raises(IndexError):
            minor.set(9, 0, 1)
        with pytest.raises(IndexError):
            minor.row(9)
        with pytest.raises(ValueError):
            minor.set(0, 1, 5)


class TestEngineContract:
    """Pair records and selection read the same per-peer metric, whatever the engine."""

    GOOD = SafetyObservation(0.9, 250_000.0, 10.0, 0.99)
    BAD = SafetyObservation(0.1, 1_000.0, 400.0, 0.2)

    @pytest.mark.parametrize("engine", list(Engine))
    @pytest.mark.parametrize(
        "history",
        [
            # peers 2 and 3 see the same history, so they tie; peer 1 is worse
            [(3, "GOOD"), (1, "BAD"), (2, "GOOD"), (1, "GOOD"), (3, "GOOD"), (2, "GOOD")],
            # only peer 3 has nothing but good news
            [(1, "BAD"), (2, "BAD"), (3, "GOOD"), (2, "GOOD"), (1, "BAD")],
            # nothing but bad news, spread evenly: all three tie
            [(3, "BAD"), (2, "BAD"), (1, "BAD")],
        ],
    )
    def test_pair_metrics_and_selection_agree(self, engine, history):
        mote = make_mote(engine, peers=(1, 2, 3))
        for peer, kind in history:
            analyze(mote, peer, getattr(self, kind), Scenario())
            select_peer(mote, [1, 2, 3])  # reads every metric between observations
        pairs = mote.trust.pair_records()
        assert [p.dst for p in pairs] == [1, 2, 3]
        assert all(p.src == 0 for p in pairs)
        for pair in pairs:
            assert pair.metric == mote.trust.metric(pair.dst)
        best = max(p.metric for p in pairs)
        expected = min(p.dst for p in pairs if p.metric == best)
        assert select_peer(mote, [3, 1, 2]) == expected


class TestChargeEnergy:
    def test_costs_subtract(self):
        mote = make_mote(Engine.BETA, energy=1.0)
        charge_energy(mote, "rx", EnergyCosts())
        assert mote.energy == pytest.approx(0.99)
        assert mote.alive

    def test_exact_zero_kills(self):
        mote = make_mote(Engine.BETA, energy=0.01)
        charge_energy(mote, "rx", EnergyCosts())
        assert mote.energy == 0.0
        assert not mote.alive

    def test_overdraw_floors_at_zero(self):
        mote = make_mote(Engine.BETA, energy=0.005)
        charge_energy(mote, "rx", EnergyCosts())
        assert mote.energy == 0.0
        assert not mote.alive

    def test_dead_motes_are_never_billed(self):
        mote = make_mote(Engine.BETA, energy=0.01)
        charge_energy(mote, "rx", EnergyCosts())
        charge_energy(mote, "tx", EnergyCosts())
        assert mote.energy == 0.0

    def test_unconstrained_motes_ignore_costs(self):
        mote = MoteState(
            addr=0, energy=5.0, capacity=5.0, harvest_rate=0.0,
            engine=Engine.BETA, a_minor=AddressedMatrix([0]), unconstrained=True,
        )
        charge_energy(mote, "tx", EnergyCosts())
        assert mote.energy == 5.0

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
    def test_costs_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ScenarioError):
            EnergyCosts(tx=bad)
        with pytest.raises(ScenarioError):
            EnergyCosts(compute=bad)

    def test_unknown_action_rejected(self):
        mote = make_mote(Engine.BETA)
        with pytest.raises(ValueError):
            charge_energy(mote, "teleport", EnergyCosts())

    def test_unknown_action_rejected_for_the_dead_and_the_unconstrained(self):
        dead = make_mote(Engine.BETA, energy=0.0)
        assert not dead.alive
        with pytest.raises(ValueError):
            charge_energy(dead, "teleport", EnergyCosts())
        sink = MoteState(
            addr=0, energy=5.0, capacity=5.0, harvest_rate=0.0,
            engine=Engine.BETA, a_minor=AddressedMatrix([0]), unconstrained=True,
        )
        with pytest.raises(ValueError):
            charge_energy(sink, "teleport", EnergyCosts())

    def test_harvest_caps_at_capacity(self):
        mote = make_mote(Engine.BETA, energy=99.0)
        mote.harvest_rate = 10.0
        mote.harvest(60.0)
        assert mote.energy == 100.0


class TestFloodReach:
    """A flood reuses its last reach only when the walk would bill every mote the same."""

    @staticmethod
    def twins():
        # a 3-mote grid is the path 1 - 0 - 2, so mote 0 relays every flood between 1 and 2
        return [_Simulation(plentiful(motes=3, topology="grid")) for _ in range(2)]

    @staticmethod
    def energies(sim):
        return {a: (m.energy, m.alive) for a, m in sim.motes.items()}

    def test_reuse_bills_what_the_walk_bills(self):
        cached, walked = self.twins()
        for sim in (cached, walked):
            assert set(sim._flood(1)) == {0, 1, 2}
        walked._reach = [None] * 3  # forget the reach, so the next flood walks
        reach = cached._reach[1]
        assert cached._flood(1) is reach and walked._flood(1) == reach
        assert self.energies(cached) == self.energies(walked)

    def test_a_mote_short_of_one_rx_forces_the_walk(self):
        cached, walked = self.twins()
        for sim in (cached, walked):
            sim._flood(1)
            sim.motes[0].energy = 0.005  # less than one rx: the relay dies on it, so mote 2 is never reached
        walked._reach = [None] * 3  # forget the reach, so the next flood walks
        unreached = self.energies(cached)[2]
        assert cached._flood(1) == walked._flood(1) == (1,)
        assert self.energies(cached) == self.energies(walked)
        assert self.energies(cached)[2] == unreached


class TestHostRoutes:
    """The routes built from one search from the host serve every unicast only while a fresh search would find
    the same paths."""

    def test_a_flood_death_on_a_stored_upload_path_forces_a_fresh_search(self):
        # on the ring 0-1-2-3, mote 2 uploads to host 0 through relay 1, and the aggregate's flood drains 1
        sim = _Simulation(plentiful(motes=4))
        assert sim._shortest_path(2, 0) == [2, 1, 0]
        sim.motes[1].energy = 0.055  # the uploads leave it less than the flood's rx
        stats = Counter()
        assert sim._aggregate(0, dict.fromkeys(range(4), 1), stats) is not None
        assert not sim.motes[1].alive
        assert sim._host_routes is None  # the relay's death voided the routes the uploads built
        sim._serve(0, stats)
        assert stats["queries_answered"] == 3  # mote 2 asks around the dead relay, through 3
        parent, toward = sim._host_routes
        assert (parent[2], toward[2], parent[1], toward[1]) == (3, 3, -1, -1)

    @staticmethod
    def routed():
        # on the ring 0-1-2-3 with host 0, mote 2's upload builds the host routes, and it keeps its greedy next hop
        sim = _Simulation(plentiful(motes=4))
        sim._host = 0
        assert sim._unicast(2, 0) and sim._route_greedy(2, 0)
        assert sim._host_routes is not None and 2 in sim._next_hop
        return sim

    def test_a_poll_of_the_already_dead_keeps_the_routes(self):
        sim = self.routed()
        sim.motes[3].alive = False
        sim.motes[3].energy = 0.0
        routes, next_hops = sim._host_routes, dict(sim._next_hop)
        assert not sim._send((2, 3, 2))  # mote 2 polls mote 3
        assert sim._host_routes is routes and sim._next_hop == next_hops

    @pytest.mark.parametrize("drained", [2, 3])
    def test_a_poll_that_drains_a_mote_voids_the_routes(self, drained):
        sim = self.routed()
        sim.motes[drained].energy = 0.005  # less than one rx, and so than one tx
        assert not sim._send((2, 3, 2))
        assert not sim.motes[drained].alive
        assert sim._host_routes is None and sim._next_hop == {}


class TestRun:
    def test_single_mote_society(self):
        trace = run(plentiful(motes=1, intervals=3))
        assert len(trace.records) == 3
        for rec in trace.records:
            assert rec.active_hacp == 0
            assert not rec.service_gap
            assert rec.motes[0].is_hacp

    def test_trace_is_deterministic(self):
        s = plentiful(intervals=4, engine=Engine.QAD, seed=11)
        assert run(s) == run(s)

    def test_seed_changes_the_noise(self):
        base = dict(intervals=4, engine=Engine.QAD, default_link=LinkTruth(noise_scale=0.3))
        a = run(plentiful(**base, seed=1))
        b = run(plentiful(**base, seed=2))
        assert a.records != b.records

    def test_energy_stays_in_bounds(self):
        trace = run(plentiful(intervals=6, harvest_rate=0.01))
        for rec in trace.records:
            for m in rec.motes:
                assert 0.0 <= m.energy <= 5000.0

    def test_full_batteries_elect_lowest_address(self):
        trace = run(plentiful())
        for rec in trace.records:
            assert rec.elected_hacp == 0
            assert rec.active_hacp == 0
            hacp_flags = [m.is_hacp for m in rec.motes]
            assert hacp_flags.count(True) == 1 and hacp_flags[0]

    def test_announcements_cover_living_society(self):
        trace = run(plentiful())
        for rec in trace.records:
            addrs = [a for a, _ in rec.announcements]
            assert addrs == sorted(addrs)
            assert len(addrs) == sum(1 for m in rec.motes if m.alive)

    def test_kill_event_is_permanent(self):
        s = plentiful(intervals=8, mote_kills={3: (2,)})
        trace = run(s)
        for rec in trace.records:
            state = next(m for m in rec.motes if m.addr == 2)
            assert state.alive is (rec.index < 3)

    def test_killing_the_host_fails_over_to_backup(self):
        s = plentiful(intervals=8, mote_kills={3: (0,)})
        trace = run(s)
        rec = trace.records[3]
        assert rec.elected_hacp == 0
        assert rec.active_hacp == rec.backup_hacp == 1
        assert not rec.service_gap
        assert not any(r.service_gap for r in trace.records)

    def test_without_failover_the_interval_goes_dark(self):
        s = plentiful(intervals=8, failover=False, mote_kills={3: (0,)})
        trace = run(s)
        gaps = [r.index for r in trace.records if r.service_gap]
        assert gaps == [3]
        assert trace.records[3].active_hacp is None
        assert trace.records[4].active_hacp == 1

    def test_sink_serves_every_interval(self):
        trace = run(plentiful(architecture="sink"))
        for rec in trace.records:
            assert rec.active_hacp == 0
            assert rec.announcements == ()
            assert not rec.service_gap

    def test_sink_battery_never_drains(self):
        trace = run(plentiful(architecture="sink", harvest_rate=0.0, init_energy=1.0, capacity=5000.0))
        sink_energy = [next(m for m in rec.motes if m.addr == 0).energy for rec in trace.records]
        assert all(e == sink_energy[0] for e in sink_energy)

    def test_beta_run_reports_system_trustworthiness(self):
        trace = run(plentiful())
        assert trace.final_system_trustworthiness is not None
        assert 0.0 <= trace.final_system_trustworthiness <= 1.0

    def test_link_event_validation_catches_unknown_edge(self):
        with pytest.raises(ScenarioError):
            run(plentiful(link_events=[LinkEvent(at=1, a=0, b=3, changes={"link_quality": 0.5})]))

    def test_link_event_changes_observed_quality(self):
        # ring of 6: degrade 0-1 midway; observer 0 scores peer 1 by link quality alone
        s = plentiful(
            intervals=10,
            engine=Engine.QAD,
            weights=SafetyWeights(1.0, 0.0, 0.0, 0.0),
            default_link=LinkTruth(noise_scale=0.0),
            link_events=[LinkEvent(at=5, a=0, b=1, changes={"link_quality": 0.1})],
        )
        trace = run(s)

        def metric(rec, src, dst):
            return next(p.metric for p in rec.pairs if p.src == src and p.dst == dst)

        assert metric(trace.records[4], 0, 1) == 2.0
        assert metric(trace.records[5], 0, 1) == -2.0
        assert metric(trace.records[5], 1, 0) == -2.0  # the link, not the mote, degraded
        assert metric(trace.records[5], 2, 1) == 2.0

    def test_link_events_in_one_interval_apply_in_order(self):
        # the later event wins each field it sets; a field only the earlier one sets keeps its value
        def trace_with(*changes):
            events = [LinkEvent(at=3, a=a, b=b, changes=c) for (a, b), c in changes]
            weights = SafetyWeights(0.5, 0.0, 0.0, 0.5)  # link quality and uptime
            scenario = plentiful(
                intervals=5, engine=Engine.QAD, weights=weights, default_link=LinkTruth(noise_scale=0.0), link_events=events
            )
            return run(scenario)

        earlier = ((0, 1), {"link_quality": 0.1, "uptime": 0.1})
        later = ((1, 0), {"link_quality": 0.9})
        both = trace_with(earlier, later)
        assert both == trace_with(((0, 1), {"link_quality": 0.9, "uptime": 0.1}))
        assert both != trace_with(later)
        assert both != trace_with(earlier)


class TestScenarioValidation:
    def test_motes_bounds(self):
        with pytest.raises(ScenarioError):
            run(Scenario(motes=0))
        with pytest.raises(ScenarioError):
            Scenario(motes=300).validate()

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(capacity=10.0, init_energy=11.0),
            Scenario(misbehavior_threshold=1.0),
            Scenario(motes=4, mote_kills={2: (9,)}),
            Scenario(motes=4, link_events=[LinkEvent(1, 0, 2, {"uptime": 0.5})]),
        ],
        ids=["init-energy-above-capacity", "threshold-outside-open-interval", "kill-of-unknown-mote",
             "link-event-off-topology"],
    )
    def test_bad_setting_is_rejected_without_a_line(self, scenario):
        with pytest.raises(ScenarioError) as info:
            scenario.validate()
        assert info.value.line is None

    def test_link_truth_checks_itself_when_built(self):
        with pytest.raises(ScenarioError, match="link_quality 1.5 outside"):
            LinkTruth(link_quality=1.5)

    def test_link_truth_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TRUTH.uptime = 0.5

    def test_returns_the_topology_it_checked(self):
        s = Scenario(motes=12, topology="geometric", radius=0.5, seed=3)
        assert s.validate() == build_topology(s)

    def test_error_carries_line_prefix_when_present(self):
        assert str(ScenarioError("bad", line=7)) == "line 7: bad"
        assert str(ScenarioError("bad")) == "bad"
