"""Run-level configuration: one frozen object describing a whole experiment.

A :class:`RunConfig` pins everything a run depends on (scheme, topology size,
clock and link models, estimator choices, radio schedule, energy constants,
seed), canonicalizes to a plain dict for hashing and storage, and parses from
a documented JSON file where durations are given in seconds and fine-grained
quantities in microseconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from . import protocol
from .clock import DEFAULT_SKEW_BOUND_PPM, ClockConfig, DriftModel, MAX_DRIFT_SEGMENTS, NS_PER_S
from .estimators import ESTIMATOR_METHODS, WINDOW_LSQ, TWO_POINT, default_window
from .precision import FLOAT32_MAX
from .protocol import RadioConfig


class ConfigError(Exception):
    """A configuration value is missing, malformed, or inconsistent."""


def canonical_hash(data: dict) -> str:
    """The hash a config dict is named by: sha256 of its compact, key-sorted JSON."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class LinkConfig:
    """Per-hop link behaviour: fixed propagation, SFD jitter width, loss."""

    propagation_ns: int = 1_000
    jitter_ns: int = 5_000
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.propagation_ns < 0 or self.jitter_ns < 0:
            raise ValueError("propagation and jitter must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")


@dataclass(frozen=True)
class EnergyModel:
    """Radio/MCU current draws (amperes) at a fixed supply voltage."""

    voltage_v: float = 3.3
    i_tx_a: float = 0.0174
    i_listen_a: float = 0.0197
    i_idle_a: float = 2e-5
    i_mcu_a: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and non-negative")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment, checked when it is built.

    ``report_interval_ns=None`` sends a report per filled measurement bundle
    instead of on a schedule; ``radio=None`` takes a radio whose schedule
    follows the scheme.
    """

    scheme: str = protocol.REVERSE_ONEWAY
    hops: int = 1
    duration_ns: int = 600 * NS_PER_S
    seed: int = 0
    si_ns: int = NS_PER_S
    measurement_interval_ns: int = NS_PER_S
    report_interval_ns: int | None = NS_PER_S
    bundling: str = protocol.BUNDLE_SELF
    bundle_size: int = 1
    head_method: str = WINDOW_LSQ
    head_window: int | None = 19
    node_method: str = TWO_POINT
    node_window: int = 8
    node_precision: str = protocol.FP64
    clock: ClockConfig = field(default_factory=ClockConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    radio: RadioConfig | None = None
    energy: EnergyModel = field(default_factory=EnergyModel)
    collect_events: bool = False

    def __post_init__(self) -> None:
        # the scheme first: the radio's default schedule reads its rules
        choices = {
            "scheme": (self.scheme, protocol.SCHEMES),
            "head method": (self.head_method, ESTIMATOR_METHODS),
            "bundling mode": (self.bundling, protocol.BUNDLING_MODES),
            "node precision": (self.node_precision, protocol.PRECISION_MODES),
            "node estimator": (self.node_method, (TWO_POINT, WINDOW_LSQ)),
        }
        for what, (value, allowed) in choices.items():
            if value not in allowed:
                raise ConfigError(f"unknown {what} {value!r}")
        rules = protocol.SCHEME_RULES[self.scheme]
        # integer -> (value, least value or None where its own class checks it)
        integers = {
            "hops": (self.hops, 1),
            "seed": (self.seed, 0),
            "bundle_size": (self.bundle_size, 1),
            "node_window": (self.node_window, 2),
            "head_window": (self.head_window, 2),
            "bitrate_bps": (self.radio_config().bitrate_bps, None),
            # every time is a whole number of nanoseconds
            "duration_ns": (self.duration_ns, 1),
            "si_ns": (self.si_ns, 1),
            "measurement_interval_ns": (self.measurement_interval_ns, 1),
            "report_interval_ns": (self.report_interval_ns, 1),
            "clock.tick_ns": (self.clock.tick_ns, None),
            "clock.drift.step_ns": (self.clock.drift.step_ns, None),
            "link.propagation_ns": (self.link.propagation_ns, None),
            "link.jitter_ns": (self.link.jitter_ns, None),
        }
        # None: an unbounded head window, no report schedule, a continuous clock
        nullable = ("head_window", "report_interval_ns", "clock.tick_ns")
        for name, (value, least) in integers.items():
            if value is None and name in nullable:
                continue
            if type(value) is not int:  # bool and float are rejected, not truncated
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if type(self.collect_events) is not bool:
            raise ConfigError("collect_events must be true or false")
        if rules.two_way and self.hops != 1:
            raise ConfigError("two-way baselines are single-hop only")
        if self.bundling == protocol.BUNDLE_ALL and not rules.reports:
            raise ConfigError(f"{self.scheme} sends no reports for bundling {self.bundling!r}")
        walk, cap = self.clock.drift, MAX_DRIFT_SEGMENTS
        if walk.kind == "random-walk" and self.duration_ns // walk.step_ns > cap:
            raise ConfigError(f"drift.step_s too short: over {cap} segments per node")
        if self.link.jitter_ns > protocol.EPOCH_NS:
            raise ConfigError(
                f"SFD jitter {self.link.jitter_ns} ns exceeds {protocol.EPOCH_NS} ns, "
                "the time of the first stamp, so a stamp could fall before t = 0"
            )
        if rules.node_fits and self.node_precision != protocol.FP64:
            # an fp32 node rounds every stamp into single precision
            reach = self.stamp_reach()
            if reach > FLOAT32_MAX:
                raise ConfigError(f"clock stamps up to {reach:.3g} ticks overflow an fp32 node")

    def stamp_reach(self) -> float:
        """The largest magnitude a clock stamp can take, in ticks (ns if tick-free):
        the widest offset plus the fastest clock at the last stamp, or inf."""
        try:
            return (self.clock.offset_ns + (1.0 + DEFAULT_SKEW_BOUND_PPM * 1e-6)
                    * (self.duration_ns + self.link.jitter_ns)) / (self.clock.tick_ns or 1)
        except OverflowError:
            return math.inf

    def radio_config(self) -> RadioConfig:
        return self.radio if self.radio is not None else _radio(self.scheme)

    def to_dict(self) -> dict:
        """Canonical plain-dict form; integers only for times (nanoseconds)."""
        data = dataclasses.asdict(self)
        data["radio"] = dataclasses.asdict(self.radio_config())
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        """Build from the canonical form of :meth:`to_dict`.

        ``scheme``, ``duration_ns`` and ``si_ns`` are required; any other key
        may be left out and takes its dataclass default (a radio schedule
        follows the scheme).  An unknown key, at any level, is an error.
        """
        try:
            rest = dict(data)
            clock = dict(rest.pop("clock", {}))
            clock["drift"] = DriftModel(**clock.get("drift", {}))
            radio = rest.pop("radio", None)
            if radio is not None:
                radio = _radio(rest["scheme"], **radio)
            link = LinkConfig(**rest.pop("link", {}))
            energy = EnergyModel(**rest.pop("energy", {}))
            required = {k: rest.pop(k) for k in ("scheme", "duration_ns", "si_ns")}
            return RunConfig(
                **required,
                **rest,
                clock=ClockConfig(**clock),
                link=link,
                radio=radio,
                energy=energy,
            )
        except (KeyError, TypeError, ValueError) as exc:
            missing = isinstance(exc, KeyError)
            raise ConfigError(f"missing key {exc}" if missing else str(exc)) from exc

    def config_hash(self) -> str:
        return canonical_hash(self.to_dict())

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def _radio(scheme: str, **given) -> RadioConfig:
    """A radio of the ``given`` fields whose schedule, unless given, follows
    the scheme, which must be known."""
    if scheme not in protocol.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return RadioConfig(**{"schedule": protocol.default_radio_schedule(scheme), **given})


# -- the documented JSON schema ----------------------------------------------


def _number(value, name: str) -> float:
    """A JSON number as a float; strings, booleans and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range") from exc


def _scaled(unit: str, ns_per_unit: int):
    """Converter from a number of ``unit`` to integer nanoseconds."""

    def convert(value, name: str) -> int:
        try:
            return round(_number(value, name) * ns_per_unit)
        except (ValueError, OverflowError) as exc:  # round() of nan or inf
            raise ConfigError(f"{name} must be a finite number of {unit}") from exc

    return convert


def _nullable(convert):
    return lambda value, name: None if value is None else convert(value, name)


def _same(value, name: str):
    return value


def _window(value, name: str):
    return None if value == "all" else value


_seconds = _scaled("seconds", NS_PER_S)
_micros = _scaled("microseconds", 1_000)

# documented key -> (canonical key, converter or nested section); a section
# whose canonical key is None ("head", "node") merges into its parent
_SCHEMA = {
    "scheme": ("scheme", _same),
    "hops": ("hops", _same),
    "duration_s": ("duration_ns", _seconds),
    "seed": ("seed", _same),
    "si_s": ("si_ns", _seconds),
    "measurement_interval_s": ("measurement_interval_ns", _seconds),
    "report_interval_s": ("report_interval_ns", _nullable(_seconds)),
    "bundling": ("bundling", _same),
    "bundle_size": ("bundle_size", _same),
    "collect_events": ("collect_events", _same),
    "head": (None, {
        "method": ("head_method", _same),
        "window": ("head_window", _window),
    }),
    "node": (None, {
        "method": ("node_method", _same),
        "window": ("node_window", _same),
        "precision": ("node_precision", _same),
    }),
    "clock": ("clock", {
        "tick_us": ("tick_ns", _nullable(_micros)),
        "skew_ppm": ("skew_ppm", _number),
        "offset_us": ("offset_ns", lambda value, name: float(_micros(value, name))),
        "drift": ("drift", {
            "kind": ("kind", _same),
            "sigma_ppm": ("walk_sigma_ppm", _number),
            "step_s": ("step_ns", _seconds),
        }),
    }),
    "link": ("link", {
        "propagation_us": ("propagation_ns", _micros),
        "jitter_us": ("jitter_ns", _micros),
        "loss": ("loss", _number),
    }),
    "radio": ("radio", {
        "bitrate_bps": ("bitrate_bps", _same),
        "schedule": ("schedule", _same),
        "lpl_duty": ("lpl_duty", _number),
    }),
    "energy": ("energy", {f.name: (f.name, _number) for f in fields(EnergyModel)}),
}


def _canonical(section, schema: dict, path: str) -> dict:
    """Map one schema section to canonical keys and units, rejecting unknown keys."""
    where = path.rstrip(".") or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(schema), key=repr)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    canon = {}
    for key, value in section.items():
        name, rule = schema[key]
        if isinstance(rule, dict):
            value = _canonical(value, rule, f"{path}{key}.")
        else:
            value = rule(value, path + key)
        if name is None:
            canon.update(value)
        else:
            canon[name] = value
    return canon


def parse_config(data: dict) -> RunConfig:
    """Parse the documented JSON config schema (seconds / microseconds units).

    Unknown keys are rejected at every level, so typos fail loudly.  Defaults
    are those of the dataclasses, except the ones derived from ``si_s`` and
    a random walk's ``sigma_ppm`` of 0.02.
    """
    canon = _canonical(data, _SCHEMA, "")
    for key in ("scheme", "duration_s", "si_s"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")
    canon.setdefault("measurement_interval_ns", canon["si_ns"])
    canon.setdefault("report_interval_ns", canon["si_ns"])
    canon.setdefault("head_window", default_window(data["si_s"]))
    drift = canon.get("clock", {}).get("drift", {})
    if drift.get("kind") == "random-walk":
        drift.setdefault("walk_sigma_ppm", 0.02)
    return RunConfig.from_dict(canon)


def load_config(path) -> RunConfig:
    """Load a JSON config file using the documented schema."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return parse_config(data)


# -- presets ------------------------------------------------------------------


def table1_config(scheme: str, si_s: float, seed: int = 0) -> RunConfig:
    """Single-hop message-count scenario: 3600 s, 100 measurements.

    Reports go out per measurement (no separate report schedule), so sensor
    transmissions equal the measurement count for every scheme.
    """
    return RunConfig(
        scheme=scheme,
        hops=1,
        duration_ns=3_600 * NS_PER_S,
        seed=seed,
        si_ns=round(si_s * NS_PER_S),
        measurement_interval_ns=36 * NS_PER_S,
        report_interval_ns=None,
        bundle_size=1,
        link=LinkConfig(loss=0.0),
    )


def singlehop_accuracy_config(
    seed: int = 0,
    duration_s: int = 600,
    si_s: float = 1.0,
    head_window: int | None = 19,
    walk_sigma_ppm: float = 0.02,
) -> RunConfig:
    """Single-hop accuracy scenario: scheduled reports, quantized clocks,
    SFD jitter, slowly wandering skew."""
    si_ns = round(si_s * NS_PER_S)
    return RunConfig(
        scheme=protocol.REVERSE_ONEWAY,
        hops=1,
        duration_ns=duration_s * NS_PER_S,
        seed=seed,
        si_ns=si_ns,
        measurement_interval_ns=si_ns,
        report_interval_ns=si_ns,
        head_window=head_window,
        clock=ClockConfig(drift=DriftModel.random_walk(sigma_ppm=walk_sigma_ppm)),
    )


def multihop_accuracy_config(
    hops: int = 6,
    seed: int = 0,
    duration_s: int = 600,
    si_s: float = 1.0,
    head_window: int | None = 19,
    walk_sigma_ppm: float = 0.02,
    bundling: str = protocol.BUNDLE_SELF,
) -> RunConfig:
    """Chain-topology accuracy scenario with per-node reporting."""
    si_ns = round(si_s * NS_PER_S)
    return RunConfig(
        scheme=protocol.REVERSE_ONEWAY,
        hops=hops,
        duration_ns=duration_s * NS_PER_S,
        seed=seed,
        si_ns=si_ns,
        measurement_interval_ns=si_ns,
        report_interval_ns=si_ns,
        bundling=bundling,
        head_window=head_window,
        clock=ClockConfig(drift=DriftModel.random_walk(sigma_ppm=walk_sigma_ppm)),
    )


def energy_comparison_config(scheme: str, schedule: str | None = None) -> RunConfig:
    """Energy scenario: identical sensing load, scheme-typical radio schedule.

    The beaconless scheme reports every 10 s with the radio otherwise off;
    flooding beacons every 1 s with the radio listening (always or duty-cycled).
    """
    if scheme not in (protocol.REVERSE_ONEWAY, protocol.CONVENTIONAL_ONEWAY):
        raise ConfigError("energy comparison covers the one-way schemes")
    beaconless = scheme == protocol.REVERSE_ONEWAY
    return RunConfig(
        scheme=scheme,
        hops=1,
        duration_ns=600 * NS_PER_S,
        seed=0,
        si_ns=10 * NS_PER_S if beaconless else NS_PER_S,
        measurement_interval_ns=10 * NS_PER_S,
        report_interval_ns=10 * NS_PER_S if beaconless else None,
        radio=RadioConfig(schedule=schedule or protocol.default_radio_schedule(scheme)),
    )
