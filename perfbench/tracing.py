"""Wrappers the harness installs around the program's functions, and restores.

Every wrapper replaces a name where its caller looks it up (a module
global such as ``simnet.select_peer``, a module attribute reached as
``rwp_proto.*``, or a class attribute such as ``_Simulation._flood``), so
the program's sources are never edited. ``Patches`` records each original
and puts it back; ``restore`` checks that it did.

``Tracer`` turns coarse calls (one per interval, per flood, per routed
message) into spans: name, start, end, enclosing span, and interval id.
Calls made once per hop or finer only add to a per-name count, total time
and self time, so a traced pass keeps everything in memory. Self time is a
call's duration minus the time its traced children took. The simulator is
single-threaded and has no queues, so no layer ever waits for another:
time waited is zero by construction and is not reported.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from typing import Any, Callable

from motetrust import cli, rwp, simnet
from motetrust.beliefs import EvidenceCounts
from motetrust.rwp import RwpState
from motetrust.trustworthiness import TrustRecord

Sim = simnet._Simulation


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(current function)``."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        checked = set()
        for owner, attr, original in saved:  # the first save of a name holds the true original
            if (id(owner), attr) not in checked and inspect.getattr_static(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
            checked.add((id(owner), attr))


class Tracer:
    """Spans for coarse calls, aggregates for fine ones, and the counters beside them."""

    def __init__(self) -> None:
        self.origin = time.process_time()
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.count: Counter[str] = Counter()  # work counters, keyed by metric name
        self.energy_spent = 0.0
        self.spans: list[list] = []  # [name, start, end, parent span index, interval id]
        self.interval = -1
        self._stack: list[list] = []  # [name, start, child time, enclosing span index]
        self._searched: set[tuple[int, int]] = set()  # BFS (src, dst) this interval, since the last death
        self._evaluated: dict[int, set[int]] = {}  # peers scored per observer since it last monitored

    def wrapper(self, name: str, span: bool, after: Callable | None = None) -> Callable[[Callable], Callable]:
        """A factory for ``Patches.wrap`` that times calls under ``name``."""
        stack, spans, clock = self._stack, self.spans, time.process_time  # CPU time, as in run.py
        calls, total, self_time = self.calls, self.total, self.self_time

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                sid = parent[3] if parent else None
                if span:
                    record = [name, 0.0, 0.0, sid, self.interval]
                    sid = len(spans)
                    spans.append(record)
                frame = [name, 0.0, 0.0, sid]
                stack.append(frame)
                frame[1] = start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    if parent:
                        parent[2] += elapsed
                    calls[name] += 1
                    total[name] += elapsed
                    self_time[name] += elapsed - frame[2]
                    if span:
                        record[1], record[2] = start - self.origin, end - self.origin
                if after is not None:
                    after(args, result)
                return result

            return traced

        return make

    # -- counters kept beside the timings -----------------------------------

    def _interval_started(self, fn: Callable) -> Callable:
        def started(sim, k):
            self.interval += 1
            self._searched.clear()
            return fn(sim, k)

        return started

    def _charged(self, fn: Callable) -> Callable:
        def charged(mote, action, costs):
            alive, energy = mote.alive, mote.energy
            result = fn(mote, action, costs)
            self.count[f"simnet.charge.{action}"] += 1
            self.energy_spent += energy - mote.energy
            if alive and not mote.alive:
                self._searched.clear()  # a death can change every shortest path
            return result

        return charged

    def _killed(self, args, _result) -> None:
        sim, k = args
        if sim.sc.mote_kills.get(k):
            self._searched.clear()

    def _selected(self, args, _result) -> None:
        mote, candidates = args
        seen = self._evaluated.setdefault(mote.addr, set())
        self.count["simnet.select_peer.metric_evals"] += len(candidates)
        self.count["select_peer.reused"] += sum(1 for c in candidates if c in seen)
        seen.update(candidates)
        if self._stack and self._stack[-1][0] == "simnet.greedy":
            self.count["simnet.greedy.hops"] += 1

    def _analyzed(self, args, _result) -> None:
        self._evaluated.pop(args[0].addr, None)

    def _searched_path(self, args, _result) -> None:
        key = (args[1], args[2])
        if key in self._searched:
            self.count["bfs.repeats"] += 1
        self._searched.add(key)

    def _pairs_written(self, _args, text: str) -> None:
        self.count["cli.bytes_out"] += len(text)
        self.count["cli.pair_rows"] += text.count("\n") - 1  # minus the header

    def _counter(self, key: str, value: Callable[[tuple, Any], float]) -> Callable:
        def after(args, result) -> None:
            self.count[key] += value(args, result)

        return after

    def install(self, patches: Patches) -> None:
        """Wrap every traced name; ``patches.restore()`` takes them all off."""
        w, n = patches.wrap, self._counter
        spans = [
            (cli, "load_scenario", "scenario.load", None),
            (cli, "run", "simnet.run", None),
            (cli, "motes_csv", "cli.motes_csv", n("cli.bytes_out", lambda a, r: len(r))),
            (cli, "pairs_csv", "cli.pairs_csv", self._pairs_written),
            (cli, "summary_text", "cli.summary_text", n("cli.bytes_out", lambda a, r: len(r))),
            (Sim, "__init__", "simnet.setup", None),
            (Sim, "run_interval", "simnet.interval", None),
            (Sim, "_flood", "simnet.flood", n("simnet.flood.receptions", lambda a, r: max(0, len(r) - 1))),
            (Sim, "_shortest_path", "simnet.bfs", self._searched_path),
            (Sim, "_unicast", "simnet.unicast", n("unicast.delivered", lambda a, r: int(r))),
            (Sim, "_route_greedy", "simnet.greedy", n("greedy.delivered", lambda a, r: int(r))),
            (simnet, "rate_of_change", "qad.rate_of_change", n("qad.rate_of_change.cells", lambda a, r: a[0].n ** 2)),
            (rwp, "step_society", "qad.step_society", n("qad.step_society.cells", lambda a, r: a[0].n ** 2)),
            (rwp, "aggregate_major", "rwp.aggregate", None),
            (rwp, "election_order", "rwp.election", None),
            (rwp, "handle_query", "rwp.handle_query", None),
            (rwp, "failover", "rwp.failover", None),
            (RwpState, "begin_phase", "rwp.begin_phase", None),
        ]
        aggregates = [
            (Sim, "_apply_kills", "simnet.apply_kills", self._killed),
            (simnet, "charge_energy", "simnet.charge", None),
            (simnet, "select_peer", "simnet.select_peer", self._selected),
            (simnet, "analyze", "simnet.analyze", self._analyzed),
            (simnet, "observe_link", "simnet.observe_link", None),
            (simnet, "update_counts", "trustworthiness.update_counts", None),
            (simnet, "bayes_posterior2", "beliefs.posterior2", None),
            (TrustRecord, "from_counts", "trustworthiness.from_counts", None),
            (EvidenceCounts, "record", "beliefs.record", None),
        ]
        for owner, attr, name, after in spans:
            w(owner, attr, self.wrapper(name, True, after))
        for owner, attr, name, after in aggregates:
            w(owner, attr, self.wrapper(name, False, after))
        # these run outside the timed wrappers: they need the state before the call
        w(Sim, "run_interval", self._interval_started)
        w(simnet, "charge_energy", self._charged)

    def layers(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        calls, total, own, count = self.calls, self.total, self.self_time, self.count

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        return {
            "simnet.greedy.calls": calls["simnet.greedy"],
            "simnet.greedy_s": total["simnet.greedy"],
            "simnet.greedy.hops": count["simnet.greedy.hops"],
            "simnet.greedy.delivered_per_hop": share(count["greedy.delivered"], count["simnet.greedy.hops"]),
            "simnet.select_peer.calls": calls["simnet.select_peer"],
            "simnet.select_peer_s": own["simnet.select_peer"],
            "simnet.select_peer.metric_evals": count["simnet.select_peer.metric_evals"],
            "simnet.select_peer.reuse_share": share(
                count["select_peer.reused"], count["simnet.select_peer.metric_evals"]
            ),
            "trustworthiness.from_counts.calls": calls["trustworthiness.from_counts"],
            "trustworthiness.from_counts_s": total["trustworthiness.from_counts"],
            "trustworthiness.update_counts.calls": calls["trustworthiness.update_counts"],
            "beliefs.posterior2.calls": calls["beliefs.posterior2"],
            "beliefs.posterior2_s": total["beliefs.posterior2"],
            "beliefs.record.calls": calls["beliefs.record"],
            "simnet.flood.calls": calls["simnet.flood"],
            "simnet.flood_s": total["simnet.flood"],
            "simnet.flood.receptions": count["simnet.flood.receptions"],
            "simnet.bfs.calls": calls["simnet.bfs"],
            "simnet.bfs_s": total["simnet.bfs"],
            "simnet.bfs.repeat_share": share(count["bfs.repeats"], calls["simnet.bfs"]),
            "simnet.unicast.calls": calls["simnet.unicast"],
            "simnet.unicast_s": total["simnet.unicast"],
            "simnet.unicast.delivered_share": share(count["unicast.delivered"], calls["simnet.unicast"]),
            "simnet.charge.tx": count["simnet.charge.tx"],
            "simnet.charge.rx": count["simnet.charge.rx"],
            "simnet.charge.compute": count["simnet.charge.compute"],
            "simnet.charge_s": total["simnet.charge"],
            "simnet.analyze.calls": calls["simnet.analyze"],
            "simnet.analyze_s": total["simnet.analyze"],
            "simnet.observe_link.calls": calls["simnet.observe_link"],
            "simnet.interval_self_s": own["simnet.interval"],
            "qad.step_society.calls": calls["qad.step_society"],
            "qad.step_society_s": total["qad.step_society"],
            "qad.step_society.cells": count["qad.step_society.cells"],
            "qad.rate_of_change.calls": calls["qad.rate_of_change"],
            "qad.rate_of_change_s": total["qad.rate_of_change"],
            "qad.rate_of_change.cells": count["qad.rate_of_change.cells"],
            "rwp.aggregate_self_s": own["rwp.aggregate"],
            "rwp.election_s": total["rwp.election"],
            "rwp.handle_query.calls": calls["rwp.handle_query"],
            "rwp.handle_query_s": total["rwp.handle_query"],
            "rwp.begin_phase.calls": calls["rwp.begin_phase"],
            "rwp.failover.calls": calls["rwp.failover"],
            "scenario.load_s": total["scenario.load"],
            "simnet.setup_s": total["simnet.setup"],
            "cli.format_s": total["cli.motes_csv"] + total["cli.pairs_csv"] + total["cli.summary_text"],
            "cli.bytes_out": count["cli.bytes_out"],
            "cli.pair_rows": count["cli.pair_rows"],
        }
