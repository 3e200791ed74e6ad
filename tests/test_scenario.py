import textwrap

import pytest

from motetrust.qad import OperatorChoice
from motetrust.scenario import load_scenario, parse_scenario
from motetrust.simnet import Engine, ScenarioError

MINIMAL = "[network]\nmotes = 4\n"

FULL = textwrap.dedent(
    """
    # full-width scenario
    [network]
    motes = 6
    intervals = 12
    topology = ring
    radius = 0.5
    seed = 9

    [rwp]
    theta_base_s = 50
    theta_min_s = 5
    theta_max_s = 500
    failover = false
    architecture = sink

    [trust]
    engine = qad
    misbehavior_threshold = 0.4
    weights = 0.4, 0.3, 0.2, 0.1
    qad_operator = consensus
    ref_tx_rate_bps = 125000
    ref_response_time_ms = 80

    [energy]
    capacity_j = 900
    init_j = 450
    harvest_j_per_s = 0.25
    tx_cost_j = 0.04
    rx_cost_j = 0.02
    compute_cost_j = 0.01

    [links]
    link_quality = 0.8          # becomes the default for every link
    tx_rate_bps = 200000
    response_time_ms = 30
    uptime = 0.95
    noise_scale = 0.05
    2-3.link_quality = 0.3
    2-3.uptime = 0.6

    [events]
    at=4 link=1-2 link_quality=0.2 uptime=0.5
    at=6 mote=5 action=kill
    """
)


def error_of(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return str(info.value)


class TestDefaults:
    def test_minimal_scenario_fills_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.motes == 4
        assert s.intervals == 20
        assert s.topology == "ring"
        assert s.engine is Engine.BETA
        assert s.theta_base == 60.0
        assert s.failover is True
        assert s.costs.tx == 0.02
        assert s.default_link.link_quality == 0.9

    def test_network_section_required(self):
        assert "missing [network]" in error_of("[rwp]\nfailover = true\n")


class TestFullParse:
    def test_every_section_lands(self):
        s = parse_scenario(FULL)
        assert (s.motes, s.intervals, s.topology, s.radius, s.seed) == (6, 12, "ring", 0.5, 9)
        assert (s.theta_base, s.theta_min, s.theta_max) == (50.0, 5.0, 500.0)
        assert s.failover is False
        assert s.architecture == "sink"
        assert s.engine is Engine.QAD
        assert s.qad_operator is OperatorChoice.CONSENSUS_SEEKER
        assert s.misbehavior_threshold == 0.4
        assert (s.weights.link_quality, s.weights.uptime) == (0.4, 0.1)
        assert (s.ref_tx_rate, s.ref_response_time) == (125_000.0, 80.0)
        assert (s.capacity, s.init_energy, s.harvest_rate) == (900.0, 450.0, 0.25)
        assert (s.costs.tx, s.costs.rx, s.costs.compute) == (0.04, 0.02, 0.01)
        link = s.default_link
        assert (link.link_quality, link.tx_rate, link.response_time) == (0.8, 200_000.0, 30.0)
        assert (link.uptime, link.noise_scale) == (0.95, 0.05)

    def test_overrides_and_events(self):
        s = parse_scenario(FULL)
        assert s.link_overrides == {(2, 3): {"link_quality": 0.3, "uptime": 0.6}}
        assert len(s.link_events) == 1
        ev = s.link_events[0]
        assert (ev.at, ev.a, ev.b) == (4, 1, 2)
        assert ev.changes == {"link_quality": 0.2, "uptime": 0.5}
        assert s.mote_kills == {6: (5,)}


class TestErrors:
    def test_unknown_section_with_line(self):
        assert error_of("[network]\nmotes = 4\n[banana]\n").startswith("line 3:")

    def test_unknown_key_with_line(self):
        msg = error_of("[network]\nmotes = 4\nvolume = 11\n")
        assert msg.startswith("line 3:") and "volume" in msg

    def test_first_bad_line_wins(self):
        # each value is cast on its own line, so a malformed value outranks a later unknown key
        msg = error_of("[network]\nmotes = four\nvolume = 11\n")
        assert msg.startswith("line 2:") and "integer" in msg

    def test_duplicate_key(self):
        msg = error_of("[network]\nmotes = 4\nmotes = 5\n")
        assert "duplicate" in msg and msg.startswith("line 3:")

    def test_duplicate_section(self):
        msg = error_of("[network]\nmotes = 4\n[network]\n")
        assert "duplicate section" in msg

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[network]\n[events]\nat=1 at=2 mote=1 action=kill\n", "line 3: duplicate event token 'at'"),
            (
                "[network]\nmotes = 4\nintervals = 3\n[events]\nat=1 mote=2 action=kill\nat=1 mote=2 action=kill\n",
                "line 6: duplicate kill of mote 2 at interval 1",
            ),
        ],
    )
    def test_a_duplicate_event_names_its_line(self, text, message):
        assert error_of(text) == message

    def test_key_outside_section(self):
        assert error_of("motes = 4\n").startswith("line 1:")

    def test_bad_integer(self):
        msg = error_of("[network]\nmotes = four\n")
        assert "integer" in msg and msg.startswith("line 2:")

    def test_bad_bool(self):
        msg = error_of("[network]\nmotes = 4\n[rwp]\nfailover = maybe\n")
        assert "true or false" in msg

    def test_bad_enum_lists_choices(self):
        msg = error_of("[network]\nmotes = 4\n[trust]\nengine = psychic\n")
        assert "qad" in msg and "beta" in msg and "bayes" in msg

    def test_weights_need_four_numbers(self):
        msg = error_of("[network]\nmotes = 4\n[trust]\nweights = 0.5, 0.5\n")
        assert "4" in msg

    def test_weights_must_sum_to_one(self):
        msg = error_of("[network]\nmotes = 4\n[trust]\nweights = 0.5, 0.5, 0.5, 0.5\n")
        assert "sum" in msg and msg.startswith("line 4:")

    def test_override_needs_existing_edge(self):
        msg = error_of("[network]\nmotes = 4\n[links]\n0-2.link_quality = 0.5\n")
        assert "0-2" in msg

    def test_override_duplicate_field(self):
        text = "[network]\nmotes = 4\n[links]\n0-1.uptime = 0.5\n1-0.uptime = 0.6\n"
        assert "duplicate" in error_of(text)

    def test_malformed_link_spec(self):
        msg = error_of("[network]\nmotes = 4\n[links]\nzero-one.uptime = 0.5\n")
        assert "A-B" in msg

    def test_event_requires_at(self):
        msg = error_of("[network]\nmotes = 4\n[events]\nlink=0-1 uptime=0.5\n")
        assert "at=" in msg

    def test_event_unknown_field(self):
        msg = error_of("[network]\nmotes = 4\n[events]\nat=1 link=0-1 color=red\n")
        assert "color" in msg

    def test_mote_event_requires_kill(self):
        msg = error_of("[network]\nmotes = 4\n[events]\nat=1 mote=2 action=sleep\n")
        assert "kill" in msg

    def test_event_needs_a_target(self):
        msg = error_of("[network]\nmotes = 4\n[events]\nat=1 uptime=0.5\n")
        assert "link=A-B or mote=N" in msg

    def test_out_of_range_value_reports_validation_error(self):
        assert "link_quality" in error_of("[network]\nmotes = 4\n[links]\nlink_quality = 1.5\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_numbers_rejected_with_line(self, value):
        msg = error_of(f"[network]\nmotes = 4\n[energy]\ntx_cost_j = {value}\n")
        assert msg.startswith("line 4:") and "finite" in msg

    @pytest.mark.parametrize("event", ["at=5 link=0-1 uptime=0.5", "at=2 mote=1 action=kill"])
    def test_events_past_the_last_interval_rejected(self, event):
        assert "event interval" in error_of(f"[network]\nmotes = 4\nintervals = 2\n[events]\n{event}\n")

    # range errors found after parsing name the line of the offending key or event
    def test_negative_cost_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\n[energy]\ntx_cost_j = -1\nrx_cost_j = 0.01\n")
        assert msg.startswith("line 4:") and "energy costs" in msg

    def test_default_link_out_of_range_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\n[links]\nlink_quality = 1.5\nnoise_scale = 0.1\n")
        assert msg.startswith("line 4:") and "link_quality 1.5" in msg

    def test_link_override_out_of_range_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\n[links]\n0-1.uptime = 2\n1-2.uptime = 0.5\n")
        assert msg.startswith("line 4:") and "uptime 2.0" in msg

    def test_kill_past_the_run_names_its_line(self):
        text = "[network]\nmotes = 4\nintervals = 2\n[events]\nat=3 mote=1 action=kill\nat=1 mote=2 action=kill\n"
        msg = error_of(text)
        assert msg.startswith("line 5:") and "event interval must be in [0, 1], got 3" in msg

    def test_zero_intervals_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\nintervals = 0\n")
        assert msg.startswith("line 3:") and "intervals must be an integer in [1, 10000], got 0" in msg

    def test_intervals_at_the_cap_accepted(self):
        assert parse_scenario("[network]\nmotes = 4\nintervals = 10000\n").intervals == 10_000

    def test_negative_capacity_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\n[energy]\ncapacity_j = -5\n")
        assert msg.startswith("line 4:") and "capacity_j must be positive, got -5.0" in msg

    def test_override_on_a_missing_edge_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\ntopology = ring\n[links]\n0-1.uptime = 0.5\n0-5.uptime = 0.5\n")
        assert msg.startswith("line 6:") and "link 0-5 names invalid endpoints" in msg

    def test_link_event_on_a_missing_edge_names_its_line(self):
        text = "[network]\nmotes = 4\ntopology = ring\n[events]\nat=1 link=0-1 uptime=0.5\nat=1 link=0-2 uptime=0.5\n"
        msg = error_of(text)
        assert msg.startswith("line 6:") and "link 0-2 does not exist in the ring topology" in msg

    def test_kill_of_an_unknown_mote_names_its_line(self):
        msg = error_of("[network]\nmotes = 4\n[events]\nat=1 mote=1 action=kill\nat=1 mote=9 action=kill\n")
        assert msg.startswith("line 5:") and "kill event names unknown mote 9" in msg

    def test_link_events_are_checked_before_kills(self):
        # Scenario.validate's order, not the file's: the bad kill comes first in the file
        text = "[network]\nmotes = 4\nintervals = 2\n[events]\nat=5 mote=1 action=kill\nat=1 link=0-2 uptime=0.5\n"
        msg = error_of(text)
        assert msg.startswith("line 6:") and "link 0-2 does not exist in the ring topology" in msg

    def test_a_bad_radius_names_its_line(self):
        # the radius check outranks the override that it would otherwise leave without an edge
        msg = error_of("[network]\nmotes = 4\ntopology = geometric\nradius = 0\n[links]\n0-1.uptime = 0.5\n")
        assert msg == "line 4: geometric topology needs radius > 0"

    def test_cross_field_errors_carry_no_line(self):
        msg = error_of("[network]\nmotes = 4\n[rwp]\ntheta_min_s = 50\ntheta_max_s = 5\n")
        assert msg == "need 0 < theta_min_s <= theta_base_s <= theta_max_s"

    def test_event_in_the_last_interval_accepted(self):
        s = parse_scenario("[network]\nmotes = 4\nintervals = 2\n[events]\nat=1 mote=1 action=kill\n")
        assert s.mote_kills == {1: (1,)}

    def test_comment_only_lines_are_skipped(self):
        s = parse_scenario("# header\n\n[network]  # trailing\nmotes = 4  # why not\n")
        assert s.motes == 4


class TestLoadScenario:
    def test_reads_from_disk(self, tmp_path):
        path = tmp_path / "demo.scn"
        path.write_text(FULL, encoding="utf-8")
        assert load_scenario(path).motes == 6

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.scn")
