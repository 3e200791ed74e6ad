"""Golden output digests: the CLI's files for a fixed grid of scenarios.

Each case runs ``motetrust run`` and compares the SHA-256 of motes.csv,
pairs.csv and summary.txt with the digests recorded below. A refactor or a
speed-up must leave every digest unchanged; a change that alters the model
on purpose re-records them (``PYTHONPATH=src python tests/test_golden.py``)
and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from motetrust.cli import EXIT_OK, run_cli

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("motes.csv", "pairs.csv", "summary.txt")

_BASE = """
[network]
motes = {motes}
intervals = {intervals}
topology = {topology}
radius = 0.45
seed = {seed}

[rwp]
architecture = {architecture}

[trust]
engine = {engine}

[energy]
capacity_j = {capacity}
init_j = {init}
harvest_j_per_s = {harvest}
"""

_EVENTS = """
[events]
at=2 link=4-5 link_quality=0.1 uptime=0.2 response_time_ms=90
at=3 mote=0 action=kill
"""


def _text(topology, engine, motes=16, intervals=4, seed=5, architecture="p2p", events="", **energy):
    energy = {"capacity": 1000, "init": 1000, "harvest": 0.5, **energy}
    body = _BASE.format(
        motes=motes, intervals=intervals, topology=topology, seed=seed, architecture=architecture, engine=engine,
        **energy,
    )
    return body + events


CASES = {
    "demo": (ROOT / "scenarios" / "demo.scn").read_text(encoding="ascii"),
    **{
        f"{topology}-{engine}": _text(topology, engine)
        for topology in ("ring", "grid", "geometric")
        for engine in ("qad", "beta", "bayes")
    },
    "grid-bayes-sink": _text("grid", "bayes", motes=9, intervals=3, architecture="sink"),
    "ring-beta-events": _text("ring", "beta", motes=8, intervals=5, events=_EVENTS),
    # small batteries and no harvest: motes die on tx and on rx in polls, floods, unicasts and greedy hops
    "geometric-beta-drain": _text("geometric", "beta", intervals=6, seed=2, capacity=10, init=2.5, harvest=0),
}

GOLDEN = {
    'demo': {
        'motes.csv': '5b6324f780414f411a3885d613fb6af1a9409155b5ca22494d021e8b132a2e17',
        'pairs.csv': '0c07fdf008bde42e6bf8c1871eab162a831a6c1c945d719d3d531ea35f2b0fb9',
        'summary.txt': '2004e3532871fd2dc7d96b6b89b3821c77f91340f505cfc32f013937dccd4cdb',
    },
    'geometric-bayes': {
        'motes.csv': '3534d267f9649c6666d0c32e4fd6129768f9e8b71d0dee4372b4adebc438efbd',
        'pairs.csv': '43959890c4d792d5746fe398b91a16ae0acf4fe66d2fb96bc8c25d4256ac1ccd',
        'summary.txt': 'ba9453a7f8c5ef57e41deb2512fd7c41c56fe23a2432697ca37b63b7271c6954',
    },
    'geometric-beta': {
        'motes.csv': '09fc08bf1e718ad23828d06ad41e5487ce82162963f57166be5cbc4de06510d4',
        'pairs.csv': 'd6d505326163d56249f5fe6013ec858aa65e009bacf24a174136541406288bbb',
        'summary.txt': '6f1d1d66d3a532072283036790b0f6afe34e2ecbb79d81c4a6ddbb9f93a0856f',
    },
    'geometric-beta-drain': {
        'motes.csv': 'bbf4bcef8d9a4ed5a2e77834275954f11be6d12fc0b204b1017f8aa65b1fc6d5',
        'pairs.csv': 'edb4f50caa4e2a298e0828156719198727e56b3f1a102326e4b2da50db698357',
        'summary.txt': '2a895a2f4e10f5e1708d365c51adb72b51043bc8864d41217175603cd093dcb8',
    },
    'geometric-qad': {
        'motes.csv': '3a42b83f5d08636001318621243b2e1e6555237e04006c5b3451ba4836209ec7',
        'pairs.csv': '2d569f0dc7e9927ffe018233b9e8ca7d8a96d98e84a255e6186ff92a266ed75d',
        'summary.txt': 'da6c0c2058e5aa8a7ea78c8bb8a4a42f73c0628d4c110d100f68c5afc0a1c218',
    },
    'grid-bayes': {
        'motes.csv': '23926afce93e0fd8942543971bcf3f1dfbb489ff191ffa0cc535e2c302bbf0b2',
        'pairs.csv': '8c07fe687d7642a15c5ac1031960400ccc1795aaf9d57e8d080b734c9b3ac4bf',
        'summary.txt': 'aa8c709058fe34111af84db38a2b69d711af8f0d697d14c27fa6a053389df221',
    },
    'grid-bayes-sink': {
        'motes.csv': '7956cf29ce8c2e4836f510ca7e318b405c9f11f50629423c427faf03a1f5d5eb',
        'pairs.csv': '3210ec830c314bf52e02de7362f5f0ca81937ea51ce9e64ef6a5c07e791ce8af',
        'summary.txt': '69ad005522308c7695c567bf29cc50a49c3c47d10919dd50d8f5a75814c59ab8',
    },
    'grid-beta': {
        'motes.csv': 'd081cbdfc53788a754951000de0344af314542f4c9cd67031d7940741287043b',
        'pairs.csv': '2c9fa37aebc582e066d7eb8a103803e71e69c8ce6b0fc0530a7dee88a838443b',
        'summary.txt': '733185534953e545242f8110a1167d37953ae72cafce1dc1796b64925a24f5ac',
    },
    'grid-qad': {
        'motes.csv': '36cc58f6ac55621a9dd606938dcb0c14ca733748a2a7afcf6324c31a4364856d',
        'pairs.csv': '74a93e017d962d06ea4e02c95c7d5af6bf58cadb8c7775eb3c64449ee6939046',
        'summary.txt': '2bfa0ac3d2b177e8249241dad9fb713831c1cf6de8527cd2f637e5295cf584a0',
    },
    'ring-bayes': {
        'motes.csv': 'f6a354d27c1dce137464f0733fe15aec2a35c9d0ca18b4a3606670e38321f5b3',
        'pairs.csv': '904015cf88b9e269c4559a9a5b6aaf5e202ca524c5fe787de82608e5df26c106',
        'summary.txt': 'fe9d9fb4d135086415780eb8ead8d0f958ce57662ae72f4538db344aedb1df1c',
    },
    'ring-beta': {
        'motes.csv': 'd9be2bfa3ee7837f7b6d88386ff71a807571aa94772d3af2afcba9f48c89b854',
        'pairs.csv': '652febcf65ca6b96bcce1105603a4be2b5604e10b7d88e76a8acd4383e15fbe4',
        'summary.txt': '0aaf766e6ad1a3681632df198471558d0bb62eebf0d862b7a670f8311c220587',
    },
    'ring-beta-events': {
        'motes.csv': '35909a8dfa12a913f075b0fc27a7ff898a184454120b18a43d187c90dbd6267a',
        'pairs.csv': '700e1b238a82f89b195dafdcae0094bcc3fb9beac123b008885165903320459c',
        'summary.txt': '94dd9ab822dcec07f57172675261ee50ffd913a72ab883adc608f6bac2642730',
    },
    'ring-qad': {
        'motes.csv': 'de9815b81ec080b58e67acf310a6a9fa91a40569cc5936d9bda5a05bb961befd',
        'pairs.csv': '3d8315b43ca2381e922012ccd00c1c5d9361f7477e4c97a6352ac94baafd2ad6',
        'summary.txt': '758ad22d7860dfebd5a5ea9c8a8ac97acca0544e5aafa4d0aa10eb2d7a2a7f46',
    },
}


def digests(text: str, work: Path) -> dict[str, str]:
    scenario = work / "case.scn"
    scenario.write_text(text, encoding="ascii")
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):  # run echoes the summary
        assert run_cli(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert digests(CASES[case], tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in sorted(CASES):
            work = Path(tmp) / case
            work.mkdir()
            got = digests(CASES[case], work)
            print(f"    {case!r}: {{")
            for name in OUTPUTS:
                print(f"        {name!r}: {got[name]!r},")
            print("    },")
        print("}")
