"""Benchmark whole ``motetrust run`` invocations on four generated workloads.

    python3 perfbench/run.py --workload geo-beta --seed 1 --seconds 25 --trace 0

The workload's scenario files are generated from ``--seed`` (see
``workloads.py``); seeds ``s`` and ``s + 32`` give the same files, so every
seed is checked against digests recorded in ``digests.json``. A pass runs
each scenario once through ``motetrust.cli.run_cli``, as a user would from
the shell; passes repeat until ``--seconds`` is spent, and every operation
of every pass is checked (``checks.py``).

Times are CPU seconds divided by the speed factor of the reference chunks
run beside the work (``calibrate.py``): seconds on the undisturbed
reference machine. Every pass repeats the same work, so each operation and
its set-up are timed once per pass and the median over the passes is kept.
The last line of standard output is one JSON object:

* ``--trace 0``: ``run_s`` is the pass's operations, ``setup_s`` its
  scenario files to simulations ready for interval 0 (``load_scenario``
  and ``_Simulation.__init__`` inside the run), ``interval_ms_p50`` the
  median of ``_Simulation.run_interval`` over every interval of every
  pass, and ``peak_rss_mb`` how far the first pass raised the process's
  peak resident memory above its reading before that pass.
* ``--trace 1``: untraced and traced passes alternate; the per-layer
  metrics are given per pass (times are medians over traced passes) and
  ``trace.overhead`` is the traced ``run_s`` over the untraced one. Spans
  and counters of the first traced pass go to
  ``.perfbench_work/trace-<workload>-seed<seed>.json``.

Run from a checkout holding ``src/motetrust``; without it the script exits
with status 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "motetrust" / "__init__.py").is_file():
    sys.exit(f"perfbench: no motetrust sources under {SRC}")
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from motetrust import cli  # noqa: E402

WORK = ROOT / ".perfbench_work"
MIN_PASSES = 2

#: Seeds with recorded digests; a workload seed picks its inputs modulo this.
RECORDED_SEEDS = 32

#: CPU time of this process (user + system). The program is single-threaded
#: and never waits, and on a shared virtual machine wall time also counts
#: the spells the host runs other guests.
clock = calibrate.clock

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "interval_ms_p50": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    if name.endswith("per_hop"):
        return "1/hop"
    if name.endswith("_j"):
        return "J"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def medians(per_pass: list[list[float]]) -> list[float]:
    """Each unit's median time over the passes that timed every unit."""
    size = max(len(times) for times in per_pass)
    complete = [times for times in per_pass if len(times) == size]
    return [statistics.median(column) for column in zip(*complete)]


@dataclass
class Pass:
    """One pass's times in reference seconds, per operation or per interval."""

    op_s: list[float]
    setup_s: list[float]
    interval_s: list[float]
    cpu_s: float  # CPU seconds in ``run_cli``, not scaled
    factor: float  # how much slower than the reference machine the pass ran


class Harness:
    """Runs and checks one workload's operations, pass after pass."""

    def __init__(self, workload: str, seed: int, work_dir: Path, tiny: bool = False):
        self.workload, self.seed = workload, seed
        self.input_seed = seed % RECORDED_SEEDS
        self.ops = workloads.generate(workload, self.input_seed, work_dir / "scenarios", ROOT, tiny)
        self.out_dir = work_dir / "out"
        recorded = checks.load_recorded().get("tiny" if tiny else "full", {}).get(workload, {})
        self.recorded = recorded.get(str(self.input_seed))
        # per operation: combined digest and simulated counts, from the record or the first pass
        self.expected: dict[int, str] = dict(enumerate(self.recorded or []))
        self.expected_sim: dict[int, dict[str, int]] = {}
        self.attempted = self.failed = 0
        self.pass_sim: dict[str, int] = {}
        self.runs: list[tuple] = []  # (scenario, trace) of each operation of the last pass
        self.meter = calibrate.Meter()

    def run_pass(self) -> Pass:
        """Run every operation once, timing it, its set-up and its intervals."""
        op_s: list[float] = []
        setup_s: list[float] = []
        interval_s: list[float] = []
        op_intervals: list[tuple[float, float | None]] = []  # CPU seconds, speed factor of the chunks after it
        cpu_s = 0.0
        # per operation: [set-up seconds, interval seconds, reference seconds run inside it]
        spent = [0.0, 0.0, 0.0]
        self.pass_sim = {}
        self.runs = []
        meter = self.meter
        pass_chunks, pass_chunk_s = meter.chunks, meter.chunk_s

        def set_up(fn):
            def timed(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                spent[0] += clock() - start
                return result

            return timed

        def interval(fn):
            def timed(sim, k):
                start = clock()
                fn(sim, k)
                elapsed = clock() - start
                chunks = meter.chunks
                chunk_s = meter.after(elapsed)
                spent[1] += elapsed
                spent[2] += chunk_s
                chunks = meter.chunks - chunks
                op_intervals.append((elapsed, chunk_s / (chunks * calibrate.CHUNK_S) if chunks else None))

            return timed

        def capture(fn):
            def captured(scenario):
                trace = fn(scenario)
                self.runs.append((scenario, trace))
                return trace

            return captured

        hooks = tracing.Patches()
        hooks.wrap(cli, "load_scenario", set_up)
        hooks.wrap(tracing.Sim, "__init__", set_up)
        hooks.wrap(tracing.Sim, "run_interval", interval)
        hooks.wrap(cli, "run", capture)
        try:
            for i, op in enumerate(self.ops):
                self.attempted += 1
                spent[:] = [0.0, 0.0, 0.0]
                op_intervals.clear()
                gc.collect()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        start = clock()
                        code = cli.run_cli(op.argv(self.out_dir))
                        elapsed = clock() - start - spent[2]
                    meter.after(elapsed - spent[1])  # the rest of the operation owes chunks too
                    factor = meter.take()
                    cpu_s += elapsed
                    op_s.append(elapsed / factor)
                    setup_s.append(spent[0] / factor)
                    # each interval is scaled by the chunks right after it, or by its operation's if it owed none
                    interval_s += [t / (own or factor) for t, own in op_intervals]
                    errors = self._check(i, code)
                except Exception:  # a crash fails this operation; the rest still run
                    errors = [traceback.format_exc()]
                if errors:
                    self.failed += 1
                    print(f"FAILED {self.workload} seed {self.seed} op {i}: " + "; ".join(errors), file=sys.stderr)
        finally:
            hooks.restore()
        chunks = meter.chunks - pass_chunks
        factor = (meter.chunk_s - pass_chunk_s) / (chunks * calibrate.CHUNK_S) if chunks else 1.0
        return Pass(op_s, setup_s, interval_s, cpu_s, factor)

    def _check(self, i: int, code: int) -> list[str]:
        if code != cli.EXIT_OK:
            return [f"motetrust run exited {code}"]
        digests = checks.file_digests(self.out_dir)
        digest = checks.combined(digests)
        scenario, trace = self.runs[-1]
        sim = checks.sim_counts(trace)
        for key, value in sim.items():
            self.pass_sim[key] = self.pass_sim.get(key, 0) + value
        errors = checks.invariant_errors(scenario, trace)
        if i not in self.expected_sim:  # first pass: publish the digests, keep the counts
            source = "recorded" if self.recorded else "not recorded"
            files = " ".join(f"{name}={value}" for name, value in digests.items())
            print(
                f"digest {self.workload} seed={self.seed} inputs={self.input_seed} op={i} "
                f"scenario_seed={scenario.seed} {files} ({source})"
            )
            self.expected_sim[i] = sim
            self.expected.setdefault(i, digest)
        if digest != self.expected[i]:
            errors.append(f"output digest {digest} differs from {self.expected[i]}")
        if sim != self.expected_sim[i]:
            errors.append(f"simulated counts {sim} differ from {self.expected_sim[i]}")
        return errors


def measure(harness: Harness, seconds: float, traced: bool, trace_file: Path | None = None) -> dict:
    """Run passes for ``seconds``; returns the metrics of the chosen kind."""
    start = time.perf_counter()
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    plain: list[Pass] = []
    with_trace: list[Pass] = []
    layer_runs: list[dict[str, float]] = []
    first_tracer: tracing.Tracer | None = None
    while True:
        plain.append(harness.run_pass())
        if len(plain) == 1:  # what later passes add depends on how the allocator reuses freed memory
            rss_growth_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024.0
        if traced:
            tracer = tracing.Tracer()
            patches = tracing.Patches()
            tracer.install(patches)
            try:
                done = harness.run_pass()
            finally:
                patches.restore()
            with_trace.append(done)
            layers = {
                name: value / done.factor if name.endswith("_s") else value
                for name, value in tracer.layers().items()
            }
            layers.update(harness.pass_sim)
            layers["sim.energy_spent_j"] = tracer.energy_spent
            layer_runs.append(layers)
            first_tracer = first_tracer or tracer
        rounds = len(plain)
        spent = time.perf_counter() - start
        if rounds >= (1 if traced else MIN_PASSES) and spent + spent / rounds > seconds:
            break

    run_s = sum(medians([p.op_s for p in plain]))
    cpu = sorted(p.cpu_s for p in plain)
    factors = sorted(p.factor for p in plain)
    print(
        f"passes: {len(plain)} untraced, CPU {cpu[0]:.4f} to {cpu[-1]:.4f} s, "
        f"speed factor {factors[0]:.3f} to {factors[-1]:.3f}; {len(with_trace)} traced"
    )
    if not traced:
        intervals = [t for p in plain for t in p.interval_s]
        print(f"interval samples: {len(intervals)} ({len(plain[0].interval_s)} distinct, each timed {len(plain)} times)")
        return {
            "run_s": run_s,
            "setup_s": sum(medians([p.setup_s for p in plain])),
            "interval_ms_p50": 1000.0 * statistics.median(intervals),
            "peak_rss_mb": rss_growth_mb,
        }
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if name.endswith("_s"):
            metrics[name] = float(statistics.median(values))
        else:  # counts repeat exactly from pass to pass, and so do their ratios
            if len(set(values)) != 1:
                harness.failed += 1
                print(f"FAILED {harness.workload}: {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = values[0]
    metrics["trace.overhead"] = sum(medians([p.op_s for p in with_trace])) / run_s
    if trace_file is not None:
        trace_file.write_text(
            json.dumps(
                {
                    "workload": harness.workload,
                    "seed": harness.seed,
                    "span_fields": ["name", "start_s", "end_s", "parent", "interval"],
                    "spans": first_tracer.spans,
                    "calls": first_tracer.calls,
                    "total_s": first_tracer.total,
                    "self_s": first_tracer.self_time,
                    "counters": first_tracer.count,
                    "layers": metrics,
                }
            ),
            encoding="ascii",
        )
        print(f"spans and counters: {trace_file}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        harness = Harness(args.workload, args.seed, work_dir)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
        metrics = measure(harness, args.seconds, bool(args.trace), trace_file)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"operations: {harness.attempted} attempted, {harness.failed} failed")
    print(
        json.dumps(
            {
                "correct": harness.failed == 0,
                "attempted": harness.attempted,
                "failed": harness.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
