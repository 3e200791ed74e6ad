"""Run invariants over small random scenarios.

Every topology, engine and architecture, failover on and off, batteries
low enough that motes die mid-run, and scripted kills. Whatever the
scenario, a run keeps energy within [0, capacity], never revives the dead,
never delivers more than it sent, floods once per announcement and once
per served aggregate, and repeats itself exactly.
"""

from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from motetrust.simnet import ARCHITECTURES, TOPOLOGIES, Engine, LinkTruth, Scenario, run

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


def test_the_strategy_drains_batteries():
    # the invariants above only bite if some generated run loses motes to energy, not just to kills
    found = find(
        scenarios().filter(lambda s: not s.mote_kills and s.architecture == "p2p"),
        lambda s: deaths(run(s)) > 0,
        settings=settings(max_examples=200, deadline=None, database=None),
    )
    assert deaths(run(found)) > 0
