"""The four benchmark workloads, generated as scenario files from a seed.

Each workload is a fixed list of operations; one operation is one
``motetrust run`` invocation. A *pass* runs every operation of the list
once, and the harness repeats passes until its time is up, so every pass
of a run does the same simulated work. Scenario seeds derive from the
workload seed alone, so the same seed always gives the same files.

``tiny=True`` keeps each workload's shape (topology, engine, architecture,
events) at 16 motes or fewer and 2 intervals, for the smoke test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("geo-beta", "ring-qad", "grid-bayes-sink", "demo-sweep")

#: Scenarios per pass, seeded ``seed * count + i``. Cost per interval varies
#: with the draw (by a fifth between geometric topologies, by a tenth between
#: grid noise streams), so a pass averages over several of them.
GEO_SCENARIOS = 32
GRID_SCENARIOS = 3
DEMO_SEEDS = 10

_ENERGY = """
[energy]
capacity_j = 1000
init_j = 1000
harvest_j_per_s = 0.5
"""

_GEO = """# geo-beta: destination-blind greedy routing over Beta trust
[network]
motes = {motes}
intervals = {intervals}
topology = geometric
radius = {radius}
seed = {seed}

[rwp]
architecture = p2p

[trust]
engine = beta
""" + _ENERGY

_RING = """# ring-qad: floods and long BFS unicasts; the elected host is killed
[network]
motes = {motes}
intervals = {intervals}
topology = ring
seed = {seed}

[rwp]
architecture = p2p
failover = true

[trust]
engine = qad
""" + _ENERGY + """
[events]
at={link_at} link={a}-{b} link_quality=0.3 uptime=0.6
at={kill_at} mote=0 action=kill
"""

_GRID = """# grid-bayes-sink: Bayes posteriors; a sink replaces floods and election
[network]
motes = {motes}
intervals = {intervals}
topology = grid
seed = {seed}

[rwp]
architecture = sink

[trust]
engine = bayes
""" + _ENERGY


@dataclass(frozen=True)
class Op:
    """One ``motetrust run`` invocation; ``seed`` is passed as ``--seed`` when set."""

    scenario: Path
    seed: int | None = None

    def argv(self, out_dir: Path) -> list[str]:
        argv = ["run", str(self.scenario), "--out", str(out_dir)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def generate(name: str, seed: int, work_dir: Path, root: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's scenario files under ``work_dir`` and return its operations.

    ``root`` is the checkout holding ``scenarios/demo.scn``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    work_dir.mkdir(parents=True, exist_ok=True)

    def write(stem: str, text: str) -> Path:
        path = work_dir / f"{stem}.scn"
        path.write_text(text, encoding="ascii")
        return path

    if name == "geo-beta":
        count, motes, intervals, radius = (2, 16, 2, 0.45) if tiny else (GEO_SCENARIOS, 96, 1, 0.2)
        return [
            Op(write(f"geo-{s}", _GEO.format(motes=motes, intervals=intervals, radius=radius, seed=s)))
            for s in range(seed * count, seed * count + count)
        ]
    if name == "ring-qad":
        motes, intervals, link_at, kill_at = (16, 2, 0, 1) if tiny else (256, 5, 1, 2)
        # mote 0 wins every election while all motes are charged, so the kill
        # lands on the elected host and the standby takes over
        text = _RING.format(
            motes=motes, intervals=intervals, seed=seed, link_at=link_at, kill_at=kill_at,
            a=motes // 2, b=motes // 2 + 1,
        )
        return [Op(write("ring", text))]
    if name == "grid-bayes-sink":
        count, motes, intervals = (1, 16, 2) if tiny else (GRID_SCENARIOS, 144, 3)
        return [
            Op(write(f"grid-{s}", _GRID.format(motes=motes, intervals=intervals, seed=s)))
            for s in range(seed * count, seed * count + count)
        ]
    demo = root / "scenarios" / "demo.scn"
    count = DEMO_SEEDS
    if tiny:
        count = 2
        demo = write("demo-tiny", _shorten(demo.read_text(encoding="ascii"), 2))
    return [Op(demo, s) for s in range(seed * count, seed * count + count)]


def _shorten(text: str, intervals: int) -> str:
    """The scenario cut to ``intervals``, with each event moved to the same share of the run."""
    old = int(re.search(r"^intervals\s*=\s*(\d+)", text, re.M).group(1))
    text = re.sub(r"^intervals\s*=.*$", f"intervals = {intervals}", text, flags=re.M)
    return re.sub(r"^at=(\d+)", lambda m: f"at={int(m.group(1)) * intervals // old}", text, flags=re.M)
