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
from dataclasses import dataclass, field

from . import protocol
from .clock import (
    ClockConfig,
    DriftModel,
    MAX_DRIFT_SEGMENTS,
    NS_PER_S,
    TICK_1US_NS,
)
from .estimators import ESTIMATOR_METHODS, WINDOW_LSQ, TWO_POINT, default_window
from .protocol import RadioConfig, SchemeConfig
from .simnet import LinkConfig


class ConfigError(Exception):
    """A configuration value is missing, malformed, or inconsistent."""


DEFAULT_ENERGY = {
    "voltage_v": 3.3,
    "i_tx_a": 0.0174,
    "i_listen_a": 0.0197,
    "i_idle_a": 2e-5,
    "i_mcu_a": 0.0,
}

_ENERGY_KEYS = tuple(DEFAULT_ENERGY)

# round() raises ValueError for nan and OverflowError for an infinite value
def _seconds_to_ns(value, name: str) -> int:
    try:
        ns = round(float(value) * NS_PER_S)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a finite number of seconds") from exc
    return ns


def _us_to_ns(value, name: str) -> int:
    try:
        ns = round(float(value) * 1_000)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a finite number of microseconds") from exc
    return ns


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment."""

    scheme: str = protocol.REVERSE_ONEWAY
    hops: int = 1
    duration_ns: int = 600 * NS_PER_S
    seed: int = 0
    si_ns: int = NS_PER_S
    measurement_interval_ns: int = NS_PER_S
    report_interval_ns: int | None = NS_PER_S
    bundling: str = protocol.BUNDLE_NONE
    bundle_size: int = 1
    head_method: str = WINDOW_LSQ
    head_window: int | None = 19
    node_method: str = TWO_POINT
    node_window: int = 8
    node_precision: str = protocol.FP64
    clock: ClockConfig = field(default_factory=ClockConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    radio: RadioConfig | None = None
    energy: dict = field(default_factory=lambda: dict(DEFAULT_ENERGY))
    collect_events: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in protocol.SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.hops < 1:
            raise ConfigError("hops must be at least 1")
        if (
            self.scheme
            in (protocol.REVERSE_TWOWAY, protocol.CONVENTIONAL_TWOWAY)
            and self.hops != 1
        ):
            raise ConfigError("two-way baselines are single-hop only")
        if self.duration_ns <= 0:
            raise ConfigError("duration must be positive")
        walk, cap = self.clock.drift, MAX_DRIFT_SEGMENTS
        if walk.kind == "random-walk" and self.duration_ns // walk.step_ns > cap:
            raise ConfigError(f"drift.step_s too short: over {cap} segments per node")
        if self.head_method not in ESTIMATOR_METHODS:
            raise ConfigError(f"unknown head method {self.head_method!r}")
        if self.bundling not in protocol.BUNDLING_MODES:
            raise ConfigError(f"unknown bundling mode {self.bundling!r}")
        for key in _ENERGY_KEYS:
            if key not in self.energy:
                raise ConfigError(f"energy model is missing {key!r}")
            if float(self.energy[key]) < 0.0:
                raise ConfigError(f"energy constant {key!r} must be non-negative")
        try:
            epoch_ns = self.scheme_config().epoch_ns
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.link.jitter_ns > epoch_ns:
            raise ConfigError(
                f"SFD jitter {self.link.jitter_ns} ns exceeds {epoch_ns} ns, the "
                "time of the first stamp, so a stamp could fall before t = 0"
            )

    def scheme_config(self) -> SchemeConfig:
        return SchemeConfig(
            scheme=self.scheme,
            si_ns=self.si_ns,
            measurement_interval_ns=self.measurement_interval_ns,
            report_interval_ns=self.report_interval_ns,
            bundling=self.bundling,
            bundle_size=self.bundle_size,
            head_method=self.head_method,
            head_window=self.head_window,
            node_method=self.node_method,
            node_window=self.node_window,
            node_precision=self.node_precision,
        )

    def radio_config(self) -> RadioConfig:
        if self.radio is not None:
            return self.radio
        return RadioConfig(schedule=protocol.default_radio_schedule(self.scheme))

    def to_dict(self) -> dict:
        """Canonical plain-dict form; integers only for times (nanoseconds)."""
        drift = self.clock.drift
        radio = self.radio_config()
        return {
            "scheme": self.scheme,
            "hops": self.hops,
            "duration_ns": self.duration_ns,
            "seed": self.seed,
            "si_ns": self.si_ns,
            "measurement_interval_ns": self.measurement_interval_ns,
            "report_interval_ns": self.report_interval_ns,
            "bundling": self.bundling,
            "bundle_size": self.bundle_size,
            "head_method": self.head_method,
            "head_window": self.head_window,
            "node_method": self.node_method,
            "node_window": self.node_window,
            "node_precision": self.node_precision,
            "clock": {
                "tick_ns": self.clock.tick_ns,
                "skew_ppm": self.clock.skew_ppm,
                "offset_ns": self.clock.offset_ns,
                "drift": {
                    "kind": drift.kind,
                    "walk_sigma_ppm": drift.walk_sigma_ppm,
                    "step_ns": drift.step_ns,
                },
            },
            "link": {
                "propagation_ns": self.link.propagation_ns,
                "jitter_ns": self.link.jitter_ns,
                "loss": self.link.loss,
            },
            "radio": {
                "bitrate_bps": radio.bitrate_bps,
                "schedule": radio.schedule,
                "lpl_duty": radio.lpl_duty,
            },
            "energy": {k: float(self.energy[k]) for k in _ENERGY_KEYS},
            "collect_events": self.collect_events,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        clock_d = data.get("clock", {})
        drift_d = clock_d.get("drift", {})
        drift = DriftModel(
            kind=drift_d.get("kind", "constant"),
            walk_sigma_ppm=drift_d.get("walk_sigma_ppm", 0.0),
            step_ns=drift_d.get("step_ns", NS_PER_S),
        )
        clock = ClockConfig(
            tick_ns=clock_d.get("tick_ns", TICK_1US_NS),
            skew_ppm=clock_d.get("skew_ppm", 40.0),
            offset_ns=clock_d.get("offset_ns", 100_000_000.0),
            drift=drift,
        )
        link_d = data.get("link", {})
        link = LinkConfig(
            propagation_ns=link_d.get("propagation_ns", 1_000),
            jitter_ns=link_d.get("jitter_ns", 5_000),
            loss=link_d.get("loss", 0.0),
        )
        radio_d = data.get("radio")
        radio = None
        if radio_d is not None:
            radio = RadioConfig(
                bitrate_bps=radio_d.get("bitrate_bps", 250_000),
                schedule=radio_d.get(
                    "schedule", protocol.default_radio_schedule(data["scheme"])
                ),
                lpl_duty=radio_d.get("lpl_duty", 0.05),
            )
        energy = dict(DEFAULT_ENERGY)
        energy.update(data.get("energy", {}))
        try:
            return RunConfig(
                scheme=data["scheme"],
                hops=data["hops"],
                duration_ns=data["duration_ns"],
                seed=data.get("seed", 0),
                si_ns=data["si_ns"],
                measurement_interval_ns=data["measurement_interval_ns"],
                report_interval_ns=data.get("report_interval_ns"),
                bundling=data.get("bundling", protocol.BUNDLE_NONE),
                bundle_size=data.get("bundle_size", 1),
                head_method=data.get("head_method", WINDOW_LSQ),
                head_window=data.get("head_window", 19),
                node_method=data.get("node_method", TWO_POINT),
                node_window=data.get("node_window", 8),
                node_precision=data.get("node_precision", protocol.FP64),
                clock=clock,
                link=link,
                radio=radio,
                energy=energy,
                collect_events=data.get("collect_events", False),
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc.args[0]!r}") from exc

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def parse_config(data: dict) -> RunConfig:
    """Parse the documented JSON config schema (seconds / microseconds units).

    Unknown top-level keys are rejected so typos fail loudly.
    """
    known = {
        "scheme", "hops", "duration_s", "seed", "si_s",
        "measurement_interval_s", "report_interval_s", "bundling",
        "bundle_size", "head", "node", "clock", "link", "radio", "energy",
        "collect_events",
    }
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    for key in ("scheme", "duration_s", "si_s"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")

    scheme = data["scheme"]
    si_ns = _seconds_to_ns(data["si_s"], "si_s")
    duration_ns = _seconds_to_ns(data["duration_s"], "duration_s")
    meas_ns = _seconds_to_ns(
        data.get("measurement_interval_s", data["si_s"]), "measurement_interval_s"
    )
    report_s = data.get("report_interval_s", data["si_s"])
    report_ns = None if report_s is None else _seconds_to_ns(report_s, "report_interval_s")

    bundling = data.get("bundling", protocol.BUNDLE_NONE)
    if bundling not in protocol.BUNDLING_MODES:
        raise ConfigError(f"unknown bundling mode {bundling!r}")

    head_d = data.get("head", {})
    window = head_d.get("window", default_window(float(data["si_s"])))
    if window == "all":
        window = None
    if window is not None and (not isinstance(window, int) or window < 2):
        raise ConfigError("head window must be an integer >= 2 or \"all\"")

    node_d = data.get("node", {})

    clock_d = data.get("clock", {})
    tick_us = clock_d.get("tick_us", 1.0)
    tick_ns = None if tick_us is None else _us_to_ns(tick_us, "tick_us")
    drift_d = clock_d.get("drift", {"kind": "constant"})
    kind = drift_d.get("kind", "constant")
    offset_ns = float(_us_to_ns(clock_d.get("offset_us", 100_000.0), "offset_us"))
    try:
        if kind == "constant":
            drift = DriftModel.constant()
        elif kind == "random-walk":
            drift = DriftModel.random_walk(
                sigma_ppm=float(drift_d.get("sigma_ppm", 0.02)),
                step_ns=_seconds_to_ns(drift_d.get("step_s", 1.0), "drift.step_s"),
            )
        else:
            raise ConfigError(f"unknown drift kind {kind!r}")
        clock = ClockConfig(
            tick_ns=tick_ns,
            skew_ppm=float(clock_d.get("skew_ppm", 40.0)),
            offset_ns=offset_ns,
            drift=drift,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"clock: {exc}") from exc

    link_d = data.get("link", {})
    try:
        link = LinkConfig(
            propagation_ns=_us_to_ns(link_d.get("propagation_us", 1.0), "propagation_us"),
            jitter_ns=_us_to_ns(link_d.get("jitter_us", 5.0), "jitter_us"),
            loss=float(link_d.get("loss", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    radio_d = data.get("radio")
    radio = None
    if radio_d is not None:
        try:
            radio = RadioConfig(
                bitrate_bps=int(radio_d.get("bitrate_bps", 250_000)),
                schedule=radio_d.get(
                    "schedule", protocol.default_radio_schedule(scheme)
                ),
                lpl_duty=float(radio_d.get("lpl_duty", 0.05)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    energy = dict(DEFAULT_ENERGY)
    energy.update(data.get("energy", {}))

    return RunConfig(
        scheme=scheme,
        hops=int(data.get("hops", 1)),
        duration_ns=duration_ns,
        seed=int(data.get("seed", 0)),
        si_ns=si_ns,
        measurement_interval_ns=meas_ns,
        report_interval_ns=report_ns,
        bundling=bundling,
        bundle_size=int(data.get("bundle_size", 1)),
        head_method=head_d.get("method", WINDOW_LSQ),
        head_window=window,
        node_method=node_d.get("method", TWO_POINT),
        node_window=int(node_d.get("window", 8)),
        node_precision=node_d.get("precision", protocol.FP64),
        clock=clock,
        link=link,
        radio=radio,
        energy=energy,
        collect_events=bool(data.get("collect_events", False)),
    )


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
        bundling=protocol.BUNDLE_NONE,
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
    if scheme == protocol.REVERSE_ONEWAY:
        si_ns = 10 * NS_PER_S
        radio = RadioConfig(schedule=schedule or protocol.SCHEDULED_WAKE)
    elif scheme == protocol.CONVENTIONAL_ONEWAY:
        si_ns = NS_PER_S
        radio = RadioConfig(schedule=schedule or protocol.ALWAYS_ON)
    else:
        raise ConfigError("energy comparison covers the one-way schemes")
    return RunConfig(
        scheme=scheme,
        hops=1,
        duration_ns=600 * NS_PER_S,
        seed=0,
        si_ns=si_ns,
        measurement_interval_ns=10 * NS_PER_S,
        report_interval_ns=10 * NS_PER_S if scheme == protocol.REVERSE_ONEWAY else None,
        radio=radio,
    )
