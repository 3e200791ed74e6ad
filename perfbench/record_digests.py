"""Record the output digests the benchmark holds every run to, in digests.json.

    python3 perfbench/record_digests.py

Runs one pass of every full-size workload for each seed below
``run.RECORDED_SEEDS`` (a run's inputs depend on its seed modulo that),
and one pass of every tiny shape at the smoke test's seed, and stores the
combined digest of each operation. A pass that fails its invariants is not recorded. Only
re-record when a change of the simulated behaviour is intended.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from checks import DIGESTS_FILE
from workloads import WORKLOADS

SMOKE_SEED = 1


def record(workload: str, seed: int, tiny: bool) -> list[str]:
    work_dir = run.WORK / f"record-{workload}-{seed}"
    try:
        harness = run.Harness(workload, seed, work_dir, tiny)
        harness.recorded, harness.expected = None, {}
        harness.run_pass()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if harness.failed:
        raise SystemExit(f"{workload} seed {seed}: {harness.failed} operation(s) failed; nothing recorded")
    return [harness.expected[i] for i in range(len(harness.ops))]


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    digests = {
        "full": {w: {str(s): record(w, s, False) for s in range(run.RECORDED_SEEDS)} for w in WORKLOADS},
        "tiny": {w: {str(SMOKE_SEED): record(w, SMOKE_SEED, True)} for w in WORKLOADS},
    }
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {DIGESTS_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
