"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``)
before asserting, so a full run reads as a ten-line report card.
"""

import contextlib
import io
import itertools
import math
import random

import numpy as np
from scipy import stats

from motetrust.beliefs import EvidenceCounts, bayes_posterior2
from motetrust.cli import run_cli
from motetrust.qad import (
    SCALE_VALUES,
    AssessmentMatrix,
    OperatorChoice,
    apply_operator,
    step_society,
)
from motetrust.rwp import election_order, next_interval, trust_relation_count
from motetrust.simnet import (
    Engine,
    LinkEvent,
    LinkTruth,
    SafetyWeights,
    Scenario,
    run,
)
from motetrust.trustworthiness import (
    BehaviorCounts,
    confidence,
    trust_stddev,
    trust_value,
    trustworthiness,
)

GRID = [1, 2, 5, 10, 50]


def conclude(number, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance {number:2d} {status}: {label}")
    assert not problems, f"criterion {number} ({label}): " + "; ".join(problems)


def plentiful(**overrides):
    base = dict(capacity=5000.0, init_energy=5000.0, harvest_rate=1.0)
    base.update(overrides)
    return Scenario(**base)


def test_criterion_01_trustworthiness_formulas():
    problems = []
    if trust_value(BehaviorCounts(1, 1)) != 0.5:
        problems.append("t(1,1) is not exactly 0.5")
    if confidence(BehaviorCounts(1, 1)) != 0.0:
        problems.append("c(1,1) is not exactly 0")
    if trustworthiness(1.0, 1.0) != 1.0:
        problems.append("T(1,1) is not exactly 1")
    if trustworthiness(0.0, 0.0) != 0.0:
        problems.append("T(0,0) is not exactly 0")
    if abs(trustworthiness(1.0, 0.0) - 0.57357) > 1e-4:
        problems.append(f"T(1,0) = {trustworthiness(1.0, 0.0)}")
    if abs(trustworthiness(0.0, 1.0) - 0.09539) > 1e-4:
        problems.append(f"T(0,1) = {trustworthiness(0.0, 1.0)}")
    conclude(1, "trust, confidence, and combined formulas hit the anchor values", problems)


def test_criterion_02_stddev_against_integration():
    problems = []
    p = np.linspace(0.0, 1.0, 200_001)
    for a, b in itertools.product(GRID, GRID):
        w = p ** (a - 1) * (1 - p) ** (b - 1)
        norm = np.trapezoid(w, p)
        mean = np.trapezoid(p * w, p) / norm
        second = np.trapezoid(p * p * w, p) / norm
        expected = math.sqrt(second - mean * mean)
        got = trust_stddev(BehaviorCounts(a, b))
        if abs(got - expected) > 1e-6:
            problems.append(f"sigma({a},{b}) off by {abs(got - expected):.2e}")
    conclude(2, "closed-form spread matches numeric integration on the 5x5 grid", problems)


def test_criterion_03_operator_suite():
    problems = []
    rng = random.Random(2024)
    hop_rng = random.Random(77)
    ops = list(OperatorChoice)
    for _ in range(10_000):
        n = rng.randint(1, 4)
        m = AssessmentMatrix(
            [[rng.choice([None, -2, -1, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
        )
        assignment = [rng.choice(ops) for _ in range(n)]
        out = step_society(m, assignment, hop_rng)
        for i in range(n):
            for j in range(n):
                before, after = m.entry(i, j), out.entry(i, j)
                if before is None:
                    if after is not None:
                        problems.append("undefined entry became defined")
                elif after is None or not -2 <= after <= 2:
                    problems.append(f"entry left the scale: {before} -> {after}")
                elif problems:
                    break
                else:
                    up = apply_operator(m, i, j, OperatorChoice.MODERATE_OPTIMISTIC)
                    down = apply_operator(m, i, j, OperatorChoice.MODERATE_PESSIMISTIC)
                    if up < before or down > before:
                        problems.append("moderate operator moved against its direction")
        if problems:
            break
    single = AssessmentMatrix.filled(1, 0)
    draw_rng = random.Random(0)
    draws = [apply_operator(single, 0, 0, OperatorChoice.ASSESSMENT_HOPPING, draw_rng) for _ in range(10_000)]
    counts = [draws.count(v) for v in SCALE_VALUES]
    if not all(0.17 <= c / 10_000 <= 0.23 for c in counts):
        problems.append(f"hopping frequencies {counts} leave [0.17, 0.23]")
    if stats.chisquare(counts).pvalue < 0.01:
        problems.append("hopping rejected by the chi-square test at 0.01")
    conclude(3, "closure, absorption, monotonicity, and hopping uniformity", problems)


def test_criterion_04_factored_posterior():
    problems = []
    rng = random.Random(9)
    checked = 0
    while checked < 1_000:
        cells = {
            (h, d1, d2): rng.randint(0, 12)
            for h in (False, True)
            for d1 in (False, True)
            for d2 in (False, True)
        }
        c_h_d2 = cells[True, True, True] + cells[True, False, True]
        c_d2 = c_h_d2 + cells[False, True, True] + cells[False, False, True]
        c_d1_d2 = cells[True, True, True] + cells[False, True, True]
        if not (c_h_d2 and c_d2 and c_d1_d2):
            continue
        table = EvidenceCounts()
        for (h, d1, d2), times in cells.items():
            if times:
                table.record(h, d1, d2, times=times)
        factored = (
            (cells[True, True, True] / c_h_d2) * (c_h_d2 / c_d2) / (c_d1_d2 / c_d2)
        )
        if abs(bayes_posterior2(table, smoothing=False) - factored) > 1e-12:
            problems.append(f"table {sorted(cells.items())} disagrees with the factored form")
            break
        checked += 1
    conclude(4, "two-evidence posterior equals its factored form on 1000 tables", problems)


def test_criterion_05_complexity_oracle():
    problems = []
    for n in range(1, 13):
        subsets = sum(
            1 for size in range(1, n + 1) for _ in itertools.combinations(range(n), size)
        )
        if trust_relation_count(n) != subsets * subsets:
            problems.append(f"count({n}) != {subsets}^2")
    if trust_relation_count(10) != 1_046_529:
        problems.append("count(10) is not 1046529")
    conclude(5, "relation count matches subset enumeration squared for n <= 12", problems)


def test_criterion_06_election_from_announcements():
    problems = []
    trace = run(plentiful(motes=20, intervals=50))
    for rec in trace.records:
        hacp_flags = [m.addr for m in rec.motes if m.is_hacp]
        if len(hacp_flags) != 1:
            problems.append(f"interval {rec.index} has {len(hacp_flags)} hosts")
        if not rec.announcements:
            problems.append(f"interval {rec.index} recorded no announcements")
            continue
        if rec.elected_hacp != election_order(rec.announcements)[0]:
            problems.append(f"interval {rec.index} elected {rec.elected_hacp}")
        if rec.active_hacp != rec.elected_hacp or rec.service_gap:
            problems.append(f"interval {rec.index} host did not serve")
    if not all(m.alive for m in trace.records[-1].motes):
        problems.append("a mote died in the no-failure scenario")
    conclude(6, "every interval elects exactly one argmax-PCP host", problems)


def test_criterion_07_failover_bounds_the_outage():
    problems = []
    with_failover = run(plentiful(motes=20, intervals=30, mote_kills={10: (0,)}))
    gaps = [rec.index for rec in with_failover.records if rec.service_gap]
    if gaps:
        problems.append(f"failover on: gap intervals {gaps}")
    kill_rec = with_failover.records[10]
    if kill_rec.active_hacp != kill_rec.backup_hacp or kill_rec.active_hacp is None:
        problems.append("failover on: the backup did not take over at the kill interval")

    without = run(plentiful(motes=20, intervals=30, failover=False, mote_kills={10: (0,)}))
    gaps = [rec.index for rec in without.records if rec.service_gap]
    if gaps != [10]:
        problems.append(f"failover off: gap intervals {gaps} (expected [10])")
    conclude(7, "host death costs zero intervals with a standby, one without", problems)


def degradation_scenario(engine):
    return plentiful(
        motes=6,
        intervals=50,
        engine=engine,
        weights=SafetyWeights(1.0, 0.0, 0.0, 0.0),
        default_link=LinkTruth(noise_scale=0.0),
        link_events=[
            LinkEvent(at=25, a=0, b=1, changes={"link_quality": 0.2}),
            LinkEvent(at=25, a=1, b=2, changes={"link_quality": 0.2}),
        ],
    )


def test_criterion_08_engines_react_to_degradation():
    problems = []
    observers = {0, 2}  # ring neighbors of the degraded mote

    def mean_metric_toward_peer(rec):
        values = [p.metric for p in rec.pairs if p.dst == 1 and p.src in observers]
        return sum(values) / len(values)

    for engine in Engine:
        trace = run(degradation_scenario(engine))
        before = mean_metric_toward_peer(trace.records[24])
        after = mean_metric_toward_peer(trace.records[29])
        if not after < before:
            problems.append(f"{engine.value}: mean metric {before} -> {after} did not drop")
        selections_before = sum(
            1
            for rec in trace.records[15:25]
            for m in rec.motes
            if m.selected_peer == 1
        )
        selections_after = sum(
            1
            for rec in trace.records[25:35]
            for m in rec.motes
            if m.selected_peer == 1
        )
        if not selections_after < selections_before:
            problems.append(
                f"{engine.value}: selections {selections_before} -> {selections_after} did not drop"
            )
    conclude(8, "all three engines shun a degraded link within five intervals", problems)


def test_criterion_09_byte_identical_reruns(tmp_path):
    problems = []
    scn = tmp_path / "repeat.scn"
    scn.write_text(
        "[network]\n"
        "motes = 12\n"
        "intervals = 30\n"
        "topology = geometric\n"
        "radius = 0.6\n"
        "seed = 21\n"
        "[trust]\n"
        "engine = beta\n"
        "[energy]\n"
        "capacity_j = 5000\n"
        "init_j = 5000\n"
        "harvest_j_per_s = 1\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "one", tmp_path / "two"
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        if run_cli(["run", str(scn), "--out", str(out1)]) != 0:
            problems.append("first run failed")
        if run_cli(["run", str(scn), "--out", str(out2)]) != 0:
            problems.append("second run failed")
    if not problems:
        for name in ("motes.csv", "pairs.csv", "summary.txt"):
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                problems.append(f"{name} differs between identical runs")
    conclude(9, "same seed, same scenario: byte-identical outputs", problems)


def test_criterion_10_interval_adaptation():
    problems = []
    if next_interval([1] * 20, 60.0, 6.0, 600.0) != 60.0:
        problems.append("all-calm society moved theta off the base")
    if next_interval([10] * 20, 60.0, 6.0, 600.0) != 6.0:
        problems.append("all-frantic society did not reach theta_min in one step")

    # a calm matrix society settles back to the base period once views stop moving
    trace = run(
        plentiful(motes=6, intervals=10, engine=Engine.QAD, default_link=LinkTruth(noise_scale=0.0))
    )
    thetas = [rec.theta for rec in trace.records]
    if thetas[0] != 60.0:
        problems.append("run did not start at the base period")
    if any(abs(t - 60.0) > 1e-9 for t in thetas[3:]):
        problems.append(f"steady-state thetas {thetas[3:]} left the base period")
    if not any(t < 60.0 for t in thetas[:3]):
        problems.append("early churn never shortened the period")
    conclude(10, "interval length tracks the society rate of change", problems)
