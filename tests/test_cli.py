import pytest

from motetrust.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SCENARIO,
    MOTES_HEADER,
    PAIRS_HEADER,
    pairs_csv,
    run_cli,
)
from motetrust.simnet import Engine, IntervalRecord, MessageStats, PairRecord, SimulationTrace

SCENARIO = """
[network]
motes = 5
intervals = 4
seed = 3

[energy]
capacity_j = 5000
init_j = 5000
harvest_j_per_s = 1
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


class TestRunCommand:
    def test_writes_csvs_and_summary(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        motes = (out / "motes.csv").read_text().splitlines()
        pairs = (out / "pairs.csv").read_text().splitlines()
        summary = (out / "summary.txt").read_text()
        assert motes[0] == MOTES_HEADER
        assert len(motes) == 1 + 4 * 5  # header + intervals * motes
        assert pairs[0] == PAIRS_HEADER
        assert "final_system_trustworthiness = " in summary
        assert "hacp_rotations = " in summary
        assert "mote_deaths = 0" in summary
        assert "mean_theta_s = " in summary
        assert capsys.readouterr().out == summary

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["run", str(scenario_file), "--out", str(out1)])
        run_cli(["run", str(scenario_file), "--out", str(out2)])
        for name in ("motes.csv", "pairs.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_run(self, tmp_path):
        geo = tmp_path / "geo.scn"
        geo.write_text(
            "[network]\nmotes = 8\nintervals = 3\ntopology = geometric\nradius = 0.5\nseed = 3\n",
            encoding="utf-8",
        )
        outs = [tmp_path / name for name in ("a", "b", "c")]
        run_cli(["run", str(geo), "--out", str(outs[0]), "--seed", "3"])
        run_cli(["run", str(geo), "--out", str(outs[1]), "--seed", "4"])
        run_cli(["run", str(geo), "--out", str(outs[2])])
        # the override reshapes the topology; matching the file seed is a no-op
        assert (outs[0] / "pairs.csv").read_bytes() != (outs[1] / "pairs.csv").read_bytes()
        assert (outs[0] / "pairs.csv").read_bytes() == (outs[2] / "pairs.csv").read_bytes()

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = run_cli(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "cannot read scenario" in capsys.readouterr().err

    def test_invalid_scenario_is_scenario_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[network]\nmotes = 0\n", encoding="utf-8")
        code = run_cli(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_SCENARIO
        assert "scenario error" in capsys.readouterr().err

    def test_seed_that_voids_a_link_override_is_scenario_error(self, tmp_path, capsys):
        # edge 0-2 exists in this geometric draw at seed 1 but not at seed 2; --seed applies
        # before the one validation, so the error keeps the override's line
        geo = tmp_path / "geo.scn"
        geo.write_text(
            "[network]\nmotes = 10\nintervals = 2\ntopology = geometric\nradius = 0.4\nseed = 1\n"
            "[links]\n0-2.link_quality = 0.5\n",
            encoding="utf-8",
        )
        assert run_cli(["validate", str(geo)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "o"
        assert run_cli(["run", str(geo), "--out", str(out), "--seed", "2"]) == EXIT_SCENARIO
        assert capsys.readouterr().err == (
            "scenario error: line 8: link 0-2 does not exist in the geometric topology\n"
        )
        assert not out.exists()

    def test_unwritable_out_dir_is_io_error(self, scenario_file, tmp_path, capsys):
        # a file where the out directory should go forces mkdir to fail for any uid
        blocker = tmp_path / "locked"
        blocker.write_text("", encoding="utf-8")
        code = run_cli(["run", str(scenario_file), "--out", str(blocker / "out")])
        assert code == EXIT_IO
        assert "cannot write outputs" in capsys.readouterr().err


def test_pairs_csv_tells_negative_zero_apart():
    # -0.0 == 0.0, so a cache of formatted figures keyed on their values would print both rows alike
    pairs = (PairRecord(0, 1, 0.0, 0.0, 0.0, 0.0), PairRecord(1, 0, -0.0, -0.0, -0.0, -0.0))
    record = IntervalRecord(0, 60.0, 60.0, None, None, None, True, (), (), pairs, MessageStats())
    trace = SimulationTrace(1, Engine.BETA, "p2p", (record,), None)
    assert pairs_csv(trace).splitlines()[1:] == [
        "0,0,1,0.000000,0.000000,0.000000,0.000000",
        "0,1,0,-0.000000,-0.000000,-0.000000,-0.000000",
    ]


class TestValidateCommand:
    def test_ok(self, scenario_file, capsys):
        assert run_cli(["validate", str(scenario_file)]) == EXIT_OK
        assert "scenario OK" in capsys.readouterr().out

    def test_intervals_past_the_cap_are_a_scenario_error(self, tmp_path, capsys):
        # a trace keeps every interval in memory, so a run this long would never end
        huge = tmp_path / "huge.scn"
        huge.write_text("[network]\nmotes = 4\nintervals = 99999999999999999999\n", encoding="utf-8")
        assert run_cli(["validate", str(huge)]) == EXIT_SCENARIO
        assert capsys.readouterr().err == (
            "scenario error: line 3: intervals must be an integer in [1, 10000], got 99999999999999999999\n"
        )

    @pytest.mark.parametrize("rest", ["init_j = 1e308\n", "init_j = 5e307\nharvest_j_per_s = 0\n"])
    def test_capacity_past_the_cap_is_a_scenario_error(self, tmp_path, capsys, rest):
        # the host election scales a projected energy of up to capacity by ten, which must stay finite
        huge = tmp_path / "huge.scn"
        huge.write_text(f"[network]\nmotes = 4\n[energy]\ncapacity_j = 1e308\n{rest}", encoding="utf-8")
        for argv in (["validate", str(huge)], ["run", str(huge), "--out", str(tmp_path / "out")]):
            assert run_cli(argv) == EXIT_SCENARIO
            assert capsys.readouterr().err == (
                "scenario error: line 4: capacity_j must be at most 1.7976931348623158e+307, got 1e+308\n"
            )

    def test_reports_line_numbers(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[network]\nmotes = 4\nvolume = 11\n", encoding="utf-8")
        assert run_cli(["validate", str(bad)]) == EXIT_SCENARIO
        assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_undecodable_scenario_is_scenario_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"[network]\nmotes = 4 \xff\n")
    out = tmp_path / "out"
    argv = [command, str(bad)] + (["--out", str(out)] if command == "run" else [])
    assert run_cli(argv) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("scenario error: line 2:") and "0xff" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_scenario_with_a_byte_order_mark_validates(tmp_path, capsys):
    path = tmp_path / "bom.scn"
    path.write_bytes(b"\xef\xbb\xbf[network]\nmotes = 4\n")
    assert run_cli(["validate", str(path)]) == EXIT_OK
    assert "scenario OK: 4 motes" in capsys.readouterr().out


def test_undecodable_byte_after_a_byte_order_mark_names_its_byte_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xef\xbb\xbf[network]\nmotes = 4 \xff\n")
    assert run_cli(["validate", str(bad)]) == EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error: line 2: byte 0xff is not UTF-8 text\n"


class TestComplexityCommand:
    @pytest.mark.parametrize("n,expected", [("1", "1"), ("3", "49"), ("10", "1046529")])
    def test_known_values(self, n, expected, capsys):
        assert run_cli(["complexity", n]) == EXIT_OK
        assert capsys.readouterr().out.strip() == expected

    def test_rejects_garbage(self, capsys):
        assert run_cli(["complexity", "foo"]) == EXIT_SCENARIO
        assert run_cli(["complexity", "0"]) == EXIT_SCENARIO
        assert run_cli(["complexity", "999"]) == EXIT_SCENARIO


class TestEntryPoint:
    def test_module_invocation(self, scenario_file, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "motetrust", "run", str(scenario_file), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "final_system_trustworthiness" in proc.stdout

    @pytest.mark.parametrize("command", ["validate", "run", "complexity"])
    def test_unwritable_stdout_is_io_error(self, command, scenario_file, tmp_path):
        import os
        import subprocess
        import sys

        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        argv = {
            "validate": ["validate", str(scenario_file)],
            "run": ["run", str(scenario_file), "--out", str(tmp_path / "out")],
            "complexity": ["complexity", "10"],
        }[command]
        with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
            proc = subprocess.run(
                [sys.executable, "-m", "motetrust", *argv], stdout=full, stderr=subprocess.PIPE, text=True
            )
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("cannot write output: ")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
