"""Command-line front end: run scenarios, validate them, size trust relations.

    motetrust run scenario.scn --out results/ [--seed N]
    motetrust validate scenario.scn
    motetrust complexity 10

``run`` writes motes.csv, pairs.csv, and summary.txt into the output
directory and echoes the summary. Exit codes: 0 on success, 1 on a
scenario error, 2 on an I/O error. Nothing is written unless the scenario
validates and simulates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .rwp import trust_relation_count
from .scenario import Scenario, ScenarioError, load_scenario
from .simnet import SimulationTrace, run

EXIT_OK = 0
EXIT_SCENARIO = 1
EXIT_IO = 2

MOTES_HEADER = "interval,mote,alive,energy_j,pcp,roc,is_hacp,selected_peer"
PAIRS_HEADER = "interval,src,dst,engine_metric,t,c,T"


def _opt_int(value: int | None) -> str:
    return "" if value is None else str(value)


def _opt_num(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def motes_csv(trace: SimulationTrace) -> str:
    lines = [MOTES_HEADER]
    for rec in trace.records:
        for m in rec.motes:
            lines.append(
                f"{rec.index},{m.addr},{int(m.alive)},{m.energy:.6f},"
                f"{_opt_int(m.pcp)},{_opt_int(m.roc)},{int(m.is_hacp)},{_opt_int(m.selected_peer)}"
            )
    return "\n".join(lines) + "\n"


def pairs_csv(trace: SimulationTrace) -> str:
    lines = [PAIRS_HEADER]
    # records share their figures' float objects, so each distinct four is formatted once; keyed on identity,
    # not value, since -0.0 == 0.0 prints otherwise, and the trace keeps every figure alive, so ids stay unique
    figures: dict[tuple[int, int, int, int], str] = {}
    for rec in trace.records:
        for p in rec.pairs:
            key = (id(p.metric), id(p.trust), id(p.confidence), id(p.combined))
            text = figures.get(key)
            if text is None:
                text = figures[key] = (
                    f"{p.metric:.6f},{_opt_num(p.trust)},{_opt_num(p.confidence)},{_opt_num(p.combined)}"
                )
            lines.append(f"{rec.index},{p.src},{p.dst},{text}")
    return "\n".join(lines) + "\n"


def summary_text(trace: SimulationTrace) -> str:
    system = trace.final_system_trustworthiness
    rotations = 0
    last_host: int | None = None
    for rec in trace.records:
        if rec.active_hacp is not None:
            if last_host is not None and rec.active_hacp != last_host:
                rotations += 1
            last_host = rec.active_hacp
    deaths = sum(1 for m in trace.records[-1].motes if not m.alive)
    mean_theta = sum(rec.theta for rec in trace.records) / len(trace.records)
    return (
        f"final_system_trustworthiness = {'n/a' if system is None else f'{system:.6f}'}\n"
        f"hacp_rotations = {rotations}\n"
        f"mote_deaths = {deaths}\n"
        f"mean_theta_s = {mean_theta:.6f}\n"
    )


def _load(path: str, seed: int | None = None) -> Scenario | int:
    """The scenario at ``path``, or the exit code after saying why it cannot be loaded."""
    try:
        return load_scenario(path, seed)
    except OSError as err:
        print(f"cannot read scenario: {err}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_SCENARIO


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, args.seed)
    if isinstance(scenario, int):
        return scenario
    trace = run(scenario)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "motes.csv").write_bytes(motes_csv(trace).encode("ascii"))
        (out_dir / "pairs.csv").write_bytes(pairs_csv(trace).encode("ascii"))
        summary = summary_text(trace)
        (out_dir / "summary.txt").write_bytes(summary.encode("ascii"))
    except OSError as err:
        print(f"cannot write outputs: {err}", file=sys.stderr)
        return EXIT_IO
    print(summary, end="")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if isinstance(scenario, int):
        return scenario
    print(
        f"scenario OK: {scenario.motes} motes, {scenario.intervals} intervals, "
        f"{scenario.topology} topology, {scenario.engine.value} engine"
    )
    return EXIT_OK


def cmd_complexity(args: argparse.Namespace) -> int:
    try:
        n = int(args.n)
        count = trust_relation_count(n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCENARIO
    print(count)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motetrust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write CSV traces")
    p_run.add_argument("scenario", help="scenario file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario", help="scenario file")
    p_val.set_defaults(func=cmd_validate)

    p_cx = sub.add_parser("complexity", help="count trust relations among n motes")
    p_cx.add_argument("n", help="society size (1..256)")
    p_cx.set_defaults(func=cmd_complexity)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_IO
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
