"""Scenario files: a small INI dialect with per-link overrides and timed events.

A scenario is line-oriented text. ``[section]`` headers group ``key = value``
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
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

from .qad import OperatorChoice
from .simnet import LINK_FIELDS, Engine, LinkEvent, LinkTruth, Scenario, ScenarioError, SafetyWeights

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
