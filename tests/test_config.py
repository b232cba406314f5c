"""Run configuration: validation, the JSON schema, hashing, presets."""

import json

import pytest

from synclab.clock import MAX_DRIFT_SEGMENTS, ClockConfig, DriftModel
from synclab.config import (
    ConfigError,
    RunConfig,
    energy_comparison_config,
    load_config,
    multihop_accuracy_config,
    parse_config,
    singlehop_accuracy_config,
    table1_config,
)
from synclab.protocol import (
    ALWAYS_ON,
    BUNDLE_ALL,
    BUNDLE_SELF,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    REVERSE_ONEWAY,
    SCHEDULED_WAKE,
)

S = 1_000_000_000

MINIMAL = {"scheme": REVERSE_ONEWAY, "duration_s": 600, "si_s": 1}


def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.scheme == REVERSE_ONEWAY
    assert cfg.scheme_config().si_ns == cfg.si_ns
    assert cfg.radio_config().schedule == SCHEDULED_WAKE


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(scheme="semaphore")
    with pytest.raises(ConfigError):
        RunConfig(hops=0)
    with pytest.raises(ConfigError):
        RunConfig(scheme=CONVENTIONAL_TWOWAY, hops=2)
    with pytest.raises(ConfigError):
        RunConfig(duration_ns=0)
    with pytest.raises(ConfigError):
        RunConfig(head_method="spline")
    with pytest.raises(ConfigError):
        RunConfig(bundling="zip")
    with pytest.raises(ConfigError):
        RunConfig(energy={"voltage_v": 3.3})  # missing current draws
    with pytest.raises(ConfigError):
        RunConfig(energy={**RunConfig().energy, "i_tx_a": -1.0})
    with pytest.raises(ConfigError):
        RunConfig(bundle_size=0)  # nested scheme validation surfaces here
    RunConfig(scheme=CONVENTIONAL_TWOWAY, hops=1)


def test_radio_default_follows_scheme():
    assert RunConfig().radio_config().schedule == SCHEDULED_WAKE
    assert (
        RunConfig(scheme=CONVENTIONAL_ONEWAY).radio_config().schedule == ALWAYS_ON
    )
    explicit = energy_comparison_config(CONVENTIONAL_ONEWAY, schedule="lpl")
    assert explicit.radio_config().schedule == "lpl"


def test_dict_round_trip_is_canonical():
    cfg = multihop_accuracy_config(hops=3, seed=11)
    data = cfg.to_dict()
    again = RunConfig.from_dict(data)
    assert again.to_dict() == data
    assert again.config_hash() == cfg.config_hash()
    # nanosecond integers only: the canonical form is JSON-stable
    assert json.loads(json.dumps(data)) == data
    assert data["si_ns"] == S and data["clock"]["drift"]["kind"] == "random-walk"


def test_from_dict_missing_key():
    data = RunConfig().to_dict()
    del data["si_ns"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_config_hash_sensitivity():
    cfg = RunConfig()
    assert len(cfg.config_hash()) == 16
    int(cfg.config_hash(), 16)  # hex
    assert cfg.config_hash() == RunConfig().config_hash()
    assert cfg.replace(seed=1).config_hash() != cfg.config_hash()
    assert cfg.replace(head_window=5).config_hash() != cfg.config_hash()


def test_replace_returns_new_config():
    cfg = RunConfig()
    other = cfg.replace(seed=7)
    assert other.seed == 7 and cfg.seed == 0
    with pytest.raises(ConfigError):
        cfg.replace(hops=-1)


def test_parse_minimal_config_defaults():
    cfg = parse_config(dict(MINIMAL))
    assert cfg.scheme == REVERSE_ONEWAY
    assert cfg.duration_ns == 600 * S
    assert cfg.si_ns == S
    assert cfg.measurement_interval_ns == S  # defaults to the sync interval
    assert cfg.report_interval_ns == S
    assert cfg.head_window == 19  # chosen from the sync interval
    assert cfg.clock.tick_ns == 1000
    assert cfg.clock.drift == DriftModel.constant()
    assert cfg.link.propagation_ns == 1000 and cfg.link.jitter_ns == 5000
    assert cfg.radio is None
    assert cfg.hops == 1 and cfg.seed == 0


def test_parse_window_defaults_follow_interval():
    assert parse_config({**MINIMAL, "si_s": 10}).head_window == 5
    assert parse_config({**MINIMAL, "si_s": 100}).head_window == 2
    assert parse_config({**MINIMAL, "head": {"window": "all"}}).head_window is None
    assert parse_config({**MINIMAL, "head": {"window": 7}}).head_window == 7
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "head": {"window": 1}})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "head": {"window": "wide"}})


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        parse_config({**MINIMAL, "syncing": True})
    assert "syncing" in str(err.value)
    for missing in ("scheme", "duration_s", "si_s"):
        broken = {k: v for k, v in MINIMAL.items() if k != missing}
        with pytest.raises(ConfigError):
            parse_config(broken)


def test_parse_units_and_aliases():
    cfg = parse_config(
        {
            **MINIMAL,
            "hops": 3,
            "seed": 9,
            "measurement_interval_s": 5,
            "report_interval_s": None,
            "bundling": "self",
            "clock": {
                "tick_us": 30.5,
                "skew_ppm": 100,
                "offset_us": 50_000,
                "drift": {"kind": "random-walk", "sigma_ppm": 0.05, "step_s": 2},
            },
            "link": {"propagation_us": 2, "jitter_us": 0, "loss": 0.1},
            "radio": {"bitrate_bps": 19200, "schedule": "lpl", "lpl_duty": 0.1},
        }
    )
    assert cfg.hops == 3 and cfg.seed == 9
    assert cfg.measurement_interval_ns == 5 * S
    assert cfg.report_interval_ns is None
    assert cfg.bundling == BUNDLE_SELF
    assert cfg.clock.tick_ns == 30_500
    assert cfg.clock.skew_ppm == 100.0
    assert cfg.clock.offset_ns == 50_000_000
    assert cfg.clock.drift.kind == "random-walk"
    assert cfg.clock.drift.walk_sigma_ppm == 0.05
    assert cfg.clock.drift.step_ns == 2 * S
    assert cfg.link.propagation_ns == 2000 and cfg.link.jitter_ns == 0
    assert cfg.link.loss == 0.1
    assert cfg.radio.bitrate_bps == 19200 and cfg.radio.schedule == "lpl"
    assert parse_config({**MINIMAL, "bundling": "all"}).bundling == BUNDLE_ALL
    assert parse_config({**MINIMAL, "clock": {"tick_us": None}}).clock.tick_ns is None


def test_parse_error_paths():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "duration_s": "long"})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "duration_s": -5})
    for bundling in ("zip", "self-data", "all-data"):
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "bundling": bundling})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "clock": {"drift": {"kind": "brownian"}}})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "link": {"loss": 1.5}})
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "radio": {"schedule": "solar"}})


WALK = {"kind": "random-walk"}


@pytest.mark.parametrize(
    "patch",
    [
        {"clock": {"tick_us": 0}},
        {"clock": {"skew_ppm": -1}},
        {"clock": {"skew_ppm": 900}},
        {"clock": {"skew_ppm": float("nan")}},
        {"clock": {"skew_ppm": float("inf")}},
        {"clock": {"offset_us": float("inf")}},
        {"clock": {"drift": {**WALK, "sigma_ppm": -1}}},
        {"clock": {"drift": {**WALK, "sigma_ppm": float("nan")}}},
        {"clock": {"drift": {**WALK, "sigma_ppm": float("inf")}}},
        {"clock": {"drift": {**WALK, "step_s": 0}}},
        {"clock": {"drift": {**WALK, "step_s": 1e-12}}},
        {"clock": {"drift": {**WALK, "step_s": float("inf")}}},
        {"duration_s": float("inf")},
        {"si_s": float("inf")},
    ],
    ids=repr,
)
def test_parse_rejects_bad_clock_values(patch):
    # each of these used to leak ValueError/OverflowError from parse_config,
    # fail mid-run, or (sigma nan) run silently as constant drift
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, **patch})


def test_parse_accepts_skew_at_the_bound():
    assert parse_config({**MINIMAL, "clock": {"skew_ppm": 500}}).clock.skew_ppm == 500.0


def test_drift_segment_cap():
    # a random-walk clock holds one table entry per drift segment it reaches
    walk = {**WALK, "step_s": 1e-6}
    at_cap = parse_config({**MINIMAL, "duration_s": 1, "clock": {"drift": walk}})
    assert at_cap.duration_ns // at_cap.clock.drift.step_ns == MAX_DRIFT_SEGMENTS
    with pytest.raises(ConfigError, match="segments"):
        parse_config({**MINIMAL, "duration_s": 2, "clock": {"drift": walk}})
    fine_walk = ClockConfig(drift=DriftModel.random_walk(0.02, step_ns=1))
    with pytest.raises(ConfigError, match="segments"):
        RunConfig(duration_ns=MAX_DRIFT_SEGMENTS + 1, clock=fine_walk)
    # constant drift has no table and no cap
    RunConfig(duration_ns=MAX_DRIFT_SEGMENTS + 1, clock=ClockConfig())


def test_parse_rejects_jitter_that_stamps_before_time_zero():
    # the first SFD stamp is at the 10 ms epoch; a wider jitter could read a
    # clock at negative time mid-run
    with pytest.raises(ConfigError, match="jitter"):
        parse_config({**MINIMAL, "link": {"jitter_us": 400_000}})
    with pytest.raises(ConfigError, match="jitter"):
        parse_config({**MINIMAL, "link": {"jitter_us": 10_000.001}})
    assert parse_config({**MINIMAL, "link": {"jitter_us": 10_000}}).link.jitter_ns == 10**7


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_config(path) == parse_config(dict(MINIMAL))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(array)


def test_presets():
    t1 = table1_config(CONVENTIONAL_TWOWAY, 10.0, seed=3)
    assert t1.duration_ns == 3600 * S
    assert t1.measurement_interval_ns == 36 * S
    assert t1.report_interval_ns is None
    assert t1.link.loss == 0.0 and t1.seed == 3

    single = singlehop_accuracy_config(seed=2)
    assert single.scheme == REVERSE_ONEWAY and single.hops == 1
    assert single.report_interval_ns == single.si_ns
    assert single.clock.drift.kind == "random-walk"
    assert single.clock.drift.walk_sigma_ppm == 0.02

    multi = multihop_accuracy_config()
    assert multi.hops == 6 and multi.bundling == BUNDLE_SELF

    rev = energy_comparison_config(REVERSE_ONEWAY)
    conv = energy_comparison_config(CONVENTIONAL_ONEWAY)
    assert rev.si_ns == 10 * S and conv.si_ns == S
    assert rev.radio.schedule == SCHEDULED_WAKE
    assert conv.radio.schedule == ALWAYS_ON
    assert rev.measurement_interval_ns == conv.measurement_interval_ns == 10 * S
    assert rev.duration_ns == conv.duration_ns == 600 * S
    with pytest.raises(ConfigError):
        energy_comparison_config(CONVENTIONAL_TWOWAY)
