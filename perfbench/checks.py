"""Output checks applied to every operation the benchmark runs.

An operation passes when ``motetrust run`` exits 0, the SHA-256 digests of
its three output files match the ones recorded in ``digests.json`` for
that workload and seed (or, for a seed not recorded there, the ones its
first pass produced), and its trace keeps the run invariants.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from motetrust.simnet import Scenario, SimulationTrace

OUTPUTS = ("motes.csv", "pairs.csv", "summary.txt")
DIGESTS_FILE = Path(__file__).with_name("digests.json")


def file_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


def combined(digests: dict[str, str]) -> str:
    """One digest for an operation: SHA-256 over its three file digests, in file order."""
    return hashlib.sha256(":".join(digests[name] for name in OUTPUTS).encode("ascii")).hexdigest()


def load_recorded() -> dict[str, dict[str, dict[str, list[str]]]]:
    """"full" or "tiny" -> workload -> seed -> combined digest of each operation, in pass order."""
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="ascii"))


def invariant_errors(scenario: Scenario, trace: SimulationTrace) -> list[str]:
    """Broken run invariants: energy within [0, capacity], the dead stay dead, delivered <= sent."""
    errors = []
    dead: set[int] = set()
    for rec in trace.records:
        for m in rec.motes:
            if not 0.0 <= m.energy <= scenario.capacity:
                errors.append(f"interval {rec.index}: mote {m.addr} energy {m.energy} outside [0, capacity]")
            if m.alive and m.addr in dead:
                errors.append(f"interval {rec.index}: mote {m.addr} came back from the dead")
            if not m.alive:
                dead.add(m.addr)
        s = rec.stats
        for got, sent, what in (
            (s.app_delivered, s.app_sent, "app"),
            (s.queries_answered, s.queries_sent, "queries"),
            (s.minors_delivered, s.minors_sent, "minors"),
        ):
            if got > sent:
                errors.append(f"interval {rec.index}: {what} delivered {got} > sent {sent}")
    return errors


def sim_counts(trace: SimulationTrace) -> dict[str, int]:
    """Simulated outcomes of one run (model behaviour, not host time)."""
    stats = [rec.stats for rec in trace.records]
    return {
        "sim.app_sent": sum(s.app_sent for s in stats),
        "sim.app_delivered": sum(s.app_delivered for s in stats),
        "sim.queries_answered": sum(s.queries_answered for s in stats),
        "sim.minors_delivered": sum(s.minors_delivered for s in stats),
        "sim.floods": sum(s.floods for s in stats),
        "sim.deaths": sum(1 for m in trace.records[-1].motes if not m.alive),
    }
