"""Scenarios: the settings a run depends on, their checks, and the file that sets them.

``Scenario`` holds every setting and its value types; ``build_topology``
gives the static radio graph the settings imply. Scenario files are a small
INI dialect with per-link overrides and timed events.

A scenario file is line-oriented text. ``[section]`` headers group ``key = value``
pairs; blank lines and ``#`` comments are skipped. The [network] section must
be present; every key has a default. Unknown sections or keys are rejected
with the offending line number rather than silently ignored. ``_KEYS`` maps
each key below to the setting it sets and the caster that reads it. A value
is cast on its own line, so the first bad line is the one reported. The
checks that need the whole file run in ``Scenario.validate``, the one place
a scenario is checked; the parser passes it the line of each key, override
edge, link event and kill, so those errors name their line too. A repeated
section, key, override field, event token or kill is an error at its line.

    [network]
    motes = 20            # society size (addresses 0..motes-1)
    intervals = 50
    topology = ring       # ring | grid | geometric
    radius = 0.35         # geometric only
    seed = 7

    [rwp]
    theta_base_s = 60
    theta_min_s = 6
    theta_max_s = 600
    failover = true
    architecture = p2p    # p2p | sink (sink pins mote 0 as the host)

    [trust]
    engine = beta         # qad | beta | bayes
    misbehavior_threshold = 0.5
    weights = 0.25,0.25,0.25,0.25   # link_quality, tx_rate, response_time, uptime
    qad_operator = optimistic       # optimistic | pessimistic | consensus | hopping
    ref_tx_rate_bps = 250000
    ref_response_time_ms = 100

    [energy]
    capacity_j = 1000
    init_j = 1000
    harvest_j_per_s = 0.5
    tx_cost_j = 0.02
    rx_cost_j = 0.01
    compute_cost_j = 0.005

    [links]
    link_quality = 0.9    # defaults for every link
    tx_rate_bps = 250000
    response_time_ms = 20
    uptime = 0.99
    noise_scale = 0.02
    3-4.link_quality = 0.4          # per-link override

    [events]
    at=25 link=1-2 link_quality=0.2
    at=10 mote=0 action=kill        # takes effect mid-interval, after the election
"""

from __future__ import annotations

import codecs
import math
import random
import re
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Mapping

from .qad import OperatorChoice
from .rwp import MAX_SOCIETY_SIZE

TOPOLOGIES = ("ring", "grid", "geometric")
ARCHITECTURES = ("p2p", "sink")
_MAX_MOTES = MAX_SOCIETY_SIZE
_MAX_INTERVALS = 10_000  # a trace keeps every interval in memory
_MAX_CAPACITY = sys.float_info.max / 10  # compute_pcp scales a projection of up to capacity by ten


class Engine(Enum):
    QAD = "qad"
    BETA = "beta"
    BAYES = "bayes"


class ScenarioError(ValueError):
    """A scenario that cannot be simulated; ``line`` points at the source when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        base = super().__str__()
        return f"line {self.line}: {base}" if self.line is not None else base


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyCosts:
    """Joules charged per elementary action."""

    tx: float = 0.02
    rx: float = 0.01
    compute: float = 0.005

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) and c >= 0.0 for c in (self.tx, self.rx, self.compute)):
            raise ScenarioError("energy costs must be finite and non-negative")


@dataclass(frozen=True)
class SafetyWeights:
    """Convex weights of the four safety terms."""

    link_quality: float = 0.25
    tx_rate: float = 0.25
    response_time: float = 0.25
    uptime: float = 0.25

    def __post_init__(self) -> None:
        values = (self.link_quality, self.tx_rate, self.response_time, self.uptime)
        if any(w < 0.0 for w in values):
            raise ScenarioError("safety weights must be non-negative")
        if abs(math.fsum(values) - 1.0) > 1e-9:
            raise ScenarioError(f"safety weights must sum to 1, got {math.fsum(values)}")


@dataclass(frozen=True)
class LinkTruth:
    """Ground truth behind one link."""

    link_quality: float = 0.9
    tx_rate: float = 250_000.0
    response_time: float = 20.0
    uptime: float = 0.99
    noise_scale: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.link_quality <= 1.0:
            raise ScenarioError(f"link_quality {self.link_quality} outside [0, 1]")
        if not 0.0 <= self.uptime <= 1.0:
            raise ScenarioError(f"uptime {self.uptime} outside [0, 1]")
        if self.tx_rate < 0.0 or self.response_time < 0.0:
            raise ScenarioError("tx_rate and response_time must be non-negative")
        if self.noise_scale < 0.0:
            raise ScenarioError("noise_scale must be non-negative")


#: Scenario-file key -> the LinkTruth attribute it sets; a default, an override or an event may set each.
LINK_FIELDS = {
    "link_quality": "link_quality",
    "tx_rate_bps": "tx_rate",
    "response_time_ms": "response_time",
    "uptime": "uptime",
    "noise_scale": "noise_scale",
}


@dataclass
class LinkEvent:
    """At the start of interval ``at``, rewrite fields of link (a, b)."""

    at: int
    a: int
    b: int
    changes: dict[str, float]


#: Scenario fields checked on their own: name -> (its scenario-file key, test, what the value must be).
_FIELD_RULES = {
    "motes": ("motes", lambda v: isinstance(v, int) and 1 <= v <= _MAX_MOTES, f"an integer in [1, {_MAX_MOTES}]"),
    "intervals": (
        "intervals",
        lambda v: isinstance(v, int) and 1 <= v <= _MAX_INTERVALS,
        f"an integer in [1, {_MAX_INTERVALS}]",
    ),
    "topology": ("topology", lambda v: v in TOPOLOGIES, f"one of {TOPOLOGIES}"),
    "architecture": ("architecture", lambda v: v in ARCHITECTURES, f"one of {ARCHITECTURES}"),
    "engine": ("engine", lambda v: isinstance(v, Engine), "an Engine"),
    "qad_operator": ("qad_operator", lambda v: isinstance(v, OperatorChoice), "an OperatorChoice"),
    "misbehavior_threshold": ("misbehavior_threshold", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "ref_tx_rate": ("ref_tx_rate_bps", lambda v: v > 0.0, "positive"),
    "ref_response_time": ("ref_response_time_ms", lambda v: v > 0.0, "positive"),
    "capacity": ("capacity_j", lambda v: v > 0.0, "positive"),
    "harvest_rate": ("harvest_j_per_s", lambda v: v >= 0.0, "non-negative"),
}


@dataclass
class Scenario:
    """Everything a run depends on; `validate` is the single gatekeeper."""

    motes: int = 8
    intervals: int = 20
    topology: str = "ring"
    radius: float = 0.35
    seed: int = 1
    theta_base: float = 60.0
    theta_min: float = 6.0
    theta_max: float = 600.0
    failover: bool = True
    architecture: str = "p2p"
    engine: Engine = Engine.BETA
    misbehavior_threshold: float = 0.5
    weights: SafetyWeights = field(default_factory=SafetyWeights)
    qad_operator: OperatorChoice = OperatorChoice.MODERATE_OPTIMISTIC
    ref_tx_rate: float = 250_000.0
    ref_response_time: float = 100.0
    capacity: float = 1000.0
    init_energy: float = 1000.0
    harvest_rate: float = 0.5
    costs: EnergyCosts = field(default_factory=EnergyCosts)
    default_link: LinkTruth = field(default_factory=LinkTruth)
    link_overrides: dict[tuple[int, int], dict[str, float]] = field(default_factory=dict)
    link_events: list[LinkEvent] = field(default_factory=list)
    mote_kills: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def validate(self, lines: Mapping[object, int] | None = None) -> dict[int, tuple[int, ...]]:
        """Raise ScenarioError on the first bad setting, else return the topology checked against.

        ``lines`` maps what a check looks at to the line that set it: a field's name, an
        override's edge ``(a, b)``, ``("event", i)`` for ``link_events[i]`` or ``("kill", at,
        mote)``. An error names the line of its subject if ``lines`` has one. A bad radius names
        its own line, as only a radius the file sets can fail; the other checks that weigh several
        fields against each other name none.
        """
        line_of = (lines or {}).get
        for name, (label, holds, must) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not holds(value):
                raise ScenarioError(f"{label} must be {must}, got {value!r}", line_of(name))
        if self.capacity > _MAX_CAPACITY:
            raise ScenarioError(
                f"capacity_j must be at most {_MAX_CAPACITY!r}, got {self.capacity!r}", line_of("capacity")
            )
        if self.topology == "geometric" and self.radius <= 0.0:
            raise ScenarioError("geometric topology needs radius > 0", line_of("radius"))
        if not 0.0 < self.theta_min <= self.theta_base <= self.theta_max:
            raise ScenarioError("need 0 < theta_min_s <= theta_base_s <= theta_max_s")
        if not 0.0 <= self.init_energy <= self.capacity:
            raise ScenarioError(f"init_j must be in [0, capacity_j], got {self.init_energy}")
        adjacency = build_topology(self)
        for (a, b), changes in sorted(self.link_overrides.items()):
            self._check_link(a, b, changes, adjacency, line_of((a, b)))
        for i, ev in enumerate(self.link_events):
            line = line_of(("event", i))
            self._check_interval(ev.at, line)
            self._check_link(ev.a, ev.b, ev.changes, adjacency, line)
        for at, addrs in sorted(self.mote_kills.items()):
            for addr in addrs:
                line = line_of(("kill", at, addr))
                self._check_interval(at, line)
                if not 0 <= addr < self.motes:
                    raise ScenarioError(f"kill event names unknown mote {addr}", line)
        return adjacency

    def _check_interval(self, at: int, line: int | None) -> None:
        if not 0 <= at < self.intervals:  # an event past the last interval would never fire
            raise ScenarioError(f"event interval must be in [0, {self.intervals - 1}], got {at}", line)

    def _check_link(
        self, a: int, b: int, changes: dict[str, float], adjacency: dict[int, tuple[int, ...]], line: int | None
    ) -> None:
        """An override's or a link event's edge, and the fields it sets."""
        if not (0 <= a < self.motes and 0 <= b < self.motes) or a == b:
            raise ScenarioError(f"link {a}-{b} names invalid endpoints", line)
        if b not in adjacency[a]:
            raise ScenarioError(f"link {a}-{b} does not exist in the {self.topology} topology", line)
        if not changes:
            raise ScenarioError("a link entry must set at least one field", line)
        for name in changes:
            if name not in LINK_FIELDS.values():
                raise ScenarioError(f"unknown link field {name!r}", line)
        try:
            replace(self.default_link, **changes)  # LinkTruth checks its fields
        except ScenarioError as err:
            raise ScenarioError(err.args[0], line) from None


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def build_topology(scenario: Scenario) -> dict[int, tuple[int, ...]]:
    """Adjacency (sorted neighbor tuples) for the scenario's static topology."""
    n = scenario.motes
    adjacency: dict[int, set[int]] = {a: set() for a in range(n)}

    def connect(a: int, b: int) -> None:
        adjacency[a].add(b)
        adjacency[b].add(a)

    if scenario.topology == "ring":
        if n == 2:
            connect(0, 1)
        elif n > 2:
            for a in range(n):
                connect(a, (a + 1) % n)
    elif scenario.topology == "grid":
        cols = math.ceil(math.sqrt(n))
        for a in range(n):
            if (a % cols) + 1 < cols and a + 1 < n:
                connect(a, a + 1)
            if a + cols < n:
                connect(a, a + cols)
    else:  # geometric: uniform points in the unit square, edges within radius
        rng = random.Random(f"{scenario.seed}:topology")
        points = [(rng.random(), rng.random()) for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if math.dist(points[a], points[b]) <= scenario.radius:
                    connect(a, b)
    return {a: tuple(sorted(peers)) for a, peers in adjacency.items()}


# ---------------------------------------------------------------------------
# the file format
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"\[([a-z]+)\]")


def _as_int(key: str, value: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {value!r}", line) from None


def _as_float(key: str, value: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {value!r}", line) from None
    if not math.isfinite(number):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}", line)
    return number


def _as_bool(key: str, value: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ScenarioError(f"{key} must be true or false, got {value!r}", line)


def _as_name(key: str, value: str, line: int) -> str:
    return value.lower()


def _as_enum(enum_cls, key: str, value: str, line: int):
    try:
        return enum_cls(value.lower())
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ScenarioError(f"{key} must be one of: {choices}; got {value!r}", line) from None


def _at_line(line: int, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with any ScenarioError it raises pointed at ``line``."""
    try:
        return check(*args, **kwargs)
    except ScenarioError as err:
        raise ScenarioError(err.args[0], line) from None


def _as_weights(key: str, value: str, line: int) -> SafetyWeights:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ScenarioError(f"weights needs 4 comma-separated numbers, got {len(parts)}", line)
    return _at_line(line, SafetyWeights, *(_as_float(key, p, line) for p in parts))


def _link_field(key: str, value: str, line: int) -> float:
    """An override's or an event's link field ``key``, range-checked alone so that an error names its line."""
    number = _as_float(key, value, line)
    _at_line(line, LinkTruth, **{LINK_FIELDS[key]: number})
    return number


#: section -> file key -> (target, caster). The target is a Scenario field, or
#: ``costs.<attr>`` / ``default_link.<attr>`` for one attribute of that field,
#: which checks the attribute when it is set.
_KEYS = {
    "network": {
        "motes": ("motes", _as_int),
        "intervals": ("intervals", _as_int),
        "topology": ("topology", _as_name),
        "radius": ("radius", _as_float),
        "seed": ("seed", _as_int),
    },
    "rwp": {
        "theta_base_s": ("theta_base", _as_float),
        "theta_min_s": ("theta_min", _as_float),
        "theta_max_s": ("theta_max", _as_float),
        "failover": ("failover", _as_bool),
        "architecture": ("architecture", _as_name),
    },
    "trust": {
        "engine": ("engine", partial(_as_enum, Engine)),
        "misbehavior_threshold": ("misbehavior_threshold", _as_float),
        "weights": ("weights", _as_weights),
        "qad_operator": ("qad_operator", partial(_as_enum, OperatorChoice)),
        "ref_tx_rate_bps": ("ref_tx_rate", _as_float),
        "ref_response_time_ms": ("ref_response_time", _as_float),
    },
    "energy": {
        "capacity_j": ("capacity", _as_float),
        "init_j": ("init_energy", _as_float),
        "harvest_j_per_s": ("harvest_rate", _as_float),
        "tx_cost_j": ("costs.tx", _as_float),
        "rx_cost_j": ("costs.rx", _as_float),
        "compute_cost_j": ("costs.compute", _as_float),
    },
    "links": {key: (f"default_link.{attr}", _as_float) for key, attr in LINK_FIELDS.items()},
}


def _parse_endpoints(text: str, line: int) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)-(\d+)", text)
    if not m:
        raise ScenarioError(f"link must look like A-B, got {text!r}", line)
    return int(m.group(1)), int(m.group(2))


def parse_scenario(text: str, seed: int | None = None) -> Scenario:
    """Parse and fully validate scenario text; raises ScenarioError with line numbers.

    A ``seed`` replaces the file's before validation, since it can reshape a geometric topology.
    """
    overrides: dict[tuple[int, int], dict[str, float]] = {}
    link_events: list[LinkEvent] = []
    scenario = Scenario(link_overrides=overrides, link_events=link_events)  # filled in line by line
    lines: dict[object, int] = {}  # what each line set, keyed as Scenario.validate looks it up
    mote_kills: dict[int, list[int]] = {}
    seen_sections: set[str] = set()
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.fullmatch(line)
            if not m:
                raise ScenarioError(f"malformed section header {line!r}", lineno)
            section = m.group(1)
            if section not in (*_KEYS, "events"):
                raise ScenarioError(f"unknown section [{section}]", lineno)
            if section in seen_sections:
                raise ScenarioError(f"duplicate section [{section}]", lineno)
            seen_sections.add(section)
            continue
        if section is None:
            raise ScenarioError("key outside any section", lineno)
        if section == "events":
            lines.setdefault(_parse_event(line, lineno, link_events, mote_kills), lineno)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "links" and "." in key:
            link_part, field_key = key.split(".", 1)
            a, b = _parse_endpoints(link_part, lineno)
            if field_key not in LINK_FIELDS:
                raise ScenarioError(f"unknown link field {field_key!r}", lineno)
            edge = (min(a, b), max(a, b))
            per_link = overrides.setdefault(edge, {})
            lines.setdefault(edge, lineno)
            attr = LINK_FIELDS[field_key]
            if attr in per_link:
                raise ScenarioError(f"duplicate override {key!r}", lineno)
            per_link[attr] = _link_field(field_key, value, lineno)
            continue
        if key not in _KEYS[section]:
            raise ScenarioError(f"unknown key {key!r} in [{section}]", lineno)
        target, cast = _KEYS[section][key]
        if target in lines:
            raise ScenarioError(f"duplicate key {key!r} in [{section}]", lineno)
        lines[target] = lineno
        part, _, attr = target.rpartition(".")
        parsed = cast(key, value, lineno)
        if part:  # the field's dataclass checks the attribute it is given
            setattr(scenario, part, _at_line(lineno, replace, getattr(scenario, part), **{attr: parsed}))
        else:
            setattr(scenario, attr, parsed)

    if "network" not in seen_sections:
        raise ScenarioError("missing [network] section")

    scenario.mote_kills = {at: tuple(sorted(addrs)) for at, addrs in mote_kills.items()}
    if seed is not None:
        scenario.seed = seed
    scenario.validate(lines)
    return scenario


def _parse_event(
    line: str,
    lineno: int,
    link_events: list[LinkEvent],
    mote_kills: dict[int, list[int]],
) -> tuple:
    """Add one event line to the link events or the kills; returns its key in Scenario.validate's line map."""
    tokens: dict[str, str] = {}
    for tok in line.split():
        if "=" not in tok:
            raise ScenarioError(f"event tokens look like key=value, got {tok!r}", lineno)
        key, value = tok.split("=", 1)
        if key in tokens:
            raise ScenarioError(f"duplicate event token {key!r}", lineno)
        tokens[key] = value
    if "at" not in tokens:
        raise ScenarioError("event needs at=<interval>", lineno)
    at = _as_int("at", tokens.pop("at"), lineno)
    if "link" in tokens:
        a, b = _parse_endpoints(tokens.pop("link"), lineno)
        changes: dict[str, float] = {}
        for key, value in tokens.items():
            if key not in LINK_FIELDS:
                raise ScenarioError(f"unknown link field {key!r} in event", lineno)
            changes[LINK_FIELDS[key]] = _link_field(key, value, lineno)
        if not changes:
            raise ScenarioError("link event changes nothing", lineno)
        link_events.append(LinkEvent(at, a, b, changes))
        return "event", len(link_events) - 1
    elif "mote" in tokens:
        addr = _as_int("mote", tokens.pop("mote"), lineno)
        if tokens.pop("action", None) != "kill":
            raise ScenarioError("mote events support only action=kill", lineno)
        if tokens:
            raise ScenarioError(f"unexpected event tokens {sorted(tokens)}", lineno)
        kills = mote_kills.setdefault(at, [])
        if addr in kills:
            raise ScenarioError(f"duplicate kill of mote {addr} at interval {at}", lineno)
        kills.append(addr)
        return "kill", at, addr
    raise ScenarioError("event needs link=A-B or mote=N", lineno)


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    """Read and parse a scenario file, with ``seed`` as in `parse_scenario`.

    I/O errors propagate as OSError, text that is not UTF-8 as ScenarioError.
    """
    # drop a byte-order mark as "utf-8-sig" would, but keep err.start an index into data
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the text before the bad byte decodes; a stand-in for the byte numbers its line as parse_scenario does
        line = len((data[: err.start].decode("utf-8") + "?").splitlines())
        raise ScenarioError(f"byte {data[err.start]:#04x} is not UTF-8 text", line) from None
    return parse_scenario(text, seed)
