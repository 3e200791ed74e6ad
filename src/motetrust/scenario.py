"""Scenario files: a small INI dialect with per-link overrides and timed events.

A scenario is line-oriented text. ``[section]`` headers group ``key = value``
pairs; blank lines and ``#`` comments are skipped. The [network] section must
be present; every key has a default. Unknown sections or keys are rejected
with the offending line number rather than silently ignored.

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
    noise_scale = 0.02
    3-4.link_quality = 0.4          # per-link override

    [events]
    at=25 link=1-2 link_quality=0.2
    at=10 mote=0 action=kill        # takes effect mid-interval, after the election
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .qad import OperatorChoice
from .simnet import (
    LINK_FIELDS,
    EnergyCosts,
    Engine,
    LinkEvent,
    LinkTruth,
    Scenario,
    ScenarioError,
    SafetyWeights,
    build_topology,
)

_SECTION_RE = re.compile(r"\[([a-z]+)\]")

#: file key -> LinkTruth attribute
_LINK_KEYS = {
    "link_quality": "link_quality",
    "tx_rate_bps": "tx_rate",
    "response_time_ms": "response_time",
    "uptime": "uptime",
    "noise_scale": "noise_scale",
}

_SECTION_KEYS = {
    "network": ("motes", "intervals", "topology", "radius", "seed"),
    "rwp": ("theta_base_s", "theta_min_s", "theta_max_s", "failover", "architecture"),
    "trust": (
        "engine",
        "misbehavior_threshold",
        "weights",
        "qad_operator",
        "ref_tx_rate_bps",
        "ref_response_time_ms",
    ),
    "energy": ("capacity_j", "init_j", "harvest_j_per_s", "tx_cost_j", "rx_cost_j", "compute_cost_j"),
    "links": tuple(_LINK_KEYS),
}


def _as_int(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {value!r}", line) from None


def _as_float(value: str, key: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {value!r}", line) from None
    if not math.isfinite(number):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}", line)
    return number


def _as_bool(value: str, key: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ScenarioError(f"{key} must be true or false, got {value!r}", line)


def _as_enum(enum_cls, value: str, key: str, line: int):
    try:
        return enum_cls(value.lower())
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ScenarioError(f"{key} must be one of: {choices}; got {value!r}", line) from None


def _at_line(line: int, check, *args):
    """``check(*args)``, with any ScenarioError it raises pointed at ``line``."""
    try:
        return check(*args)
    except ScenarioError as err:
        raise ScenarioError(err.args[0], line) from None


def _link_value(attr: str, value: str, key: str, line: int) -> float:
    """A link field's number, range-checked alone so that an error names its line."""
    number = _as_float(value, key, line)
    _at_line(line, LinkTruth(**{attr: number}).validate)
    return number


def _parse_endpoints(text: str, line: int) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)-(\d+)", text)
    if not m:
        raise ScenarioError(f"link must look like A-B, got {text!r}", line)
    return int(m.group(1)), int(m.group(2))


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate scenario text; raises ScenarioError with line numbers."""
    plain: dict[str, tuple[str, int]] = {}  # "section.key" -> (value, line)
    overrides: dict[tuple[int, int], dict[str, float]] = {}
    override_lines: dict[tuple[int, int], int] = {}  # edge -> line of its first override
    link_events: list[LinkEvent] = []
    mote_kills: dict[int, list[int]] = {}
    event_lines: list[tuple[int, LinkEvent | tuple[int, int]]] = []  # (line, link event or (at, mote) kill)
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
            if section not in (*_SECTION_KEYS, "events"):
                raise ScenarioError(f"unknown section [{section}]", lineno)
            if section in seen_sections:
                raise ScenarioError(f"duplicate section [{section}]", lineno)
            seen_sections.add(section)
            continue
        if section is None:
            raise ScenarioError("key outside any section", lineno)
        if section == "events":
            event_lines.append((lineno, _parse_event(line, lineno, link_events, mote_kills)))
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "links" and "." in key:
            link_part, field_key = key.split(".", 1)
            a, b = _parse_endpoints(link_part, lineno)
            if field_key not in _LINK_KEYS:
                raise ScenarioError(f"unknown link field {field_key!r}", lineno)
            edge = (min(a, b), max(a, b))
            per_link = overrides.setdefault(edge, {})
            override_lines.setdefault(edge, lineno)
            attr = _LINK_KEYS[field_key]
            if attr in per_link:
                raise ScenarioError(f"duplicate override {key!r}", lineno)
            per_link[attr] = _link_value(attr, value, key, lineno)
            continue
        if key not in _SECTION_KEYS[section]:
            raise ScenarioError(f"unknown key {key!r} in [{section}]", lineno)
        full = f"{section}.{key}"
        if full in plain:
            raise ScenarioError(f"duplicate key {key!r} in [{section}]", lineno)
        plain[full] = (value, lineno)

    if "network" not in seen_sections:
        raise ScenarioError("missing [network] section")

    def take(full: str, caster):
        if full not in plain:
            return None
        value, lineno = plain.pop(full)
        return _at_line(lineno, caster, value, full.split(".", 1)[1], lineno)

    kwargs: dict = {}
    field_lines: dict[str, int] = {}  # Scenario field -> line of its key

    def put(name: str, full: str, caster) -> None:
        if full in plain:
            field_lines[name] = plain[full][1]
            kwargs[name] = take(full, caster)

    put("motes", "network.motes", _as_int)
    put("intervals", "network.intervals", _as_int)
    put("topology", "network.topology", lambda v, _k, _l: v.lower())
    put("radius", "network.radius", _as_float)
    put("seed", "network.seed", _as_int)
    put("theta_base", "rwp.theta_base_s", _as_float)
    put("theta_min", "rwp.theta_min_s", _as_float)
    put("theta_max", "rwp.theta_max_s", _as_float)
    put("failover", "rwp.failover", _as_bool)
    put("architecture", "rwp.architecture", lambda v, _k, _l: v.lower())
    put("engine", "trust.engine", lambda v, k, l: _as_enum(Engine, v, k, l))
    put("misbehavior_threshold", "trust.misbehavior_threshold", _as_float)
    put("qad_operator", "trust.qad_operator", lambda v, k, l: _as_enum(OperatorChoice, v, k, l))
    put("ref_tx_rate", "trust.ref_tx_rate_bps", _as_float)
    put("ref_response_time", "trust.ref_response_time_ms", _as_float)

    if "trust.weights" in plain:
        value, lineno = plain.pop("trust.weights")
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 4:
            raise ScenarioError(f"weights needs 4 comma-separated numbers, got {len(parts)}", lineno)
        kwargs["weights"] = _at_line(lineno, SafetyWeights, *(_as_float(p, "weights", lineno) for p in parts))

    # each cost and link field is range-checked on its own, so its error names its own line
    cost_kwargs: dict[str, float] = {}
    for file_key, attr in (("tx_cost_j", "tx"), ("rx_cost_j", "rx"), ("compute_cost_j", "compute")):
        got = take(f"energy.{file_key}", lambda v, k, l: EnergyCosts(**{attr: _as_float(v, k, l)}).of(attr))
        if got is not None:
            cost_kwargs[attr] = got
    if cost_kwargs:
        kwargs["costs"] = EnergyCosts(**cost_kwargs)
    put("capacity", "energy.capacity_j", _as_float)
    put("init_energy", "energy.init_j", _as_float)
    put("harvest_rate", "energy.harvest_j_per_s", _as_float)

    link_kwargs: dict[str, float] = {}
    for file_key, attr in _LINK_KEYS.items():
        got = take(f"links.{file_key}", lambda v, k, l: _link_value(attr, v, k, l))
        if got is not None:
            link_kwargs[attr] = got
    if link_kwargs:
        kwargs["default_link"] = LinkTruth(**link_kwargs)

    if plain:  # a key listed in _SECTION_KEYS that no code above reads
        first_line = min(lineno for _, lineno in plain.values())
        raise ScenarioError(f"keys accepted but never read: {', '.join(sorted(plain))}", first_line)

    scenario = Scenario(
        **kwargs,
        link_overrides=overrides,
        link_events=link_events,
        mote_kills={at: tuple(sorted(addrs)) for at, addrs in mote_kills.items()},
    )
    # Scenario.validate's checks in its order, each raised at the line it checks
    for name, lineno in field_lines.items():
        _at_line(lineno, scenario.check_field, name)
    scenario.check_settings()  # cross-field checks have no one line
    adjacency = build_topology(scenario)
    for (a, b), lineno in sorted(override_lines.items()):
        _at_line(lineno, scenario.check_link, a, b, overrides[(a, b)], adjacency)
    for lineno, ev in event_lines:
        if isinstance(ev, LinkEvent):
            _at_line(lineno, scenario.check_event_interval, ev.at)
            _at_line(lineno, scenario.check_link, ev.a, ev.b, ev.changes, adjacency)
        else:
            _at_line(lineno, scenario.check_kill, *ev)
    return scenario


def _parse_event(
    line: str,
    lineno: int,
    link_events: list[LinkEvent],
    mote_kills: dict[int, list[int]],
) -> LinkEvent | tuple[int, int]:
    """Add one event line to the link events or the kills; returns the link event or the kill's (at, mote)."""
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
    at = _as_int(tokens.pop("at"), "at", lineno)
    if "link" in tokens:
        a, b = _parse_endpoints(tokens.pop("link"), lineno)
        changes: dict[str, float] = {}
        for key, value in tokens.items():
            if key not in _LINK_KEYS:
                raise ScenarioError(f"unknown link field {key!r} in event", lineno)
            changes[_LINK_KEYS[key]] = _link_value(_LINK_KEYS[key], value, key, lineno)
        if not changes:
            raise ScenarioError("link event changes nothing", lineno)
        link_events.append(LinkEvent(at, a, b, changes))
        return link_events[-1]
    elif "mote" in tokens:
        addr = _as_int(tokens.pop("mote"), "mote", lineno)
        if tokens.pop("action", None) != "kill":
            raise ScenarioError("mote events support only action=kill", lineno)
        if tokens:
            raise ScenarioError(f"unexpected event tokens {sorted(tokens)}", lineno)
        mote_kills.setdefault(at, []).append(addr)
        return at, addr
    raise ScenarioError("event needs link=A-B or mote=N", lineno)


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; I/O errors propagate as OSError."""
    return parse_scenario(Path(path).read_text(encoding="utf-8"))
