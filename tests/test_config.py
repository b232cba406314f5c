"""Run configuration: validation, the JSON schema, hashing, presets."""

import copy
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
from synclab.precision import FLOAT32_MAX
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

UNITS = {
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


def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.scheme == REVERSE_ONEWAY
    assert cfg.radio_config().schedule == SCHEDULED_WAKE


def test_run_config_validation():
    for bad in (
        {"scheme": "semaphore"},
        {"hops": 0},
        {"seed": -1},
        {"scheme": CONVENTIONAL_TWOWAY, "hops": 2},
        {"duration_ns": 0},
        {"head_method": "spline"},
        {"bundling": "zip"},
        {"si_ns": 0},
        {"measurement_interval_ns": 0},
        {"report_interval_ns": -1},
        {"bundle_size": 0},
        {"node_precision": "fp16"},
        {"node_method": "cumulative-ratio"},
        {"head_window": 1},
        {"node_window": 1},
    ):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    canonical = RunConfig().to_dict()
    with pytest.raises(ConfigError):  # a misspelled current draw
        RunConfig.from_dict({**canonical, "energy": {"voltage_v": 3.3, "i_tx": 0.02}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({**canonical, "energy": {"i_tx_a": -1.0}})
    RunConfig(scheme=CONVENTIONAL_TWOWAY, hops=1)
    RunConfig(head_window=None, report_interval_ns=None)


def test_unknown_scheme_is_named_before_the_radio_reads_it():
    # the radio's default schedule comes from the scheme's rules, so the
    # scheme is checked first, with or without a radio object
    for build in (
        lambda: RunConfig(scheme="semaphore"),
        lambda: parse_config({**MINIMAL, "scheme": "semaphore"}),
        lambda: parse_config({**MINIMAL, "scheme": "semaphore", "radio": {"lpl_duty": 0.1}}),
        lambda: RunConfig.from_dict({**RunConfig().to_dict(), "scheme": "semaphore"}),
    ):
        with pytest.raises(ConfigError, match="^unknown scheme 'semaphore'$"):
            build()


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
    cfg = parse_config(UNITS)
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
    # "none", retired, ran as "self"; a stored one is upgraded on trace load
    for bundling in ("zip", "self-data", "all-data", "none"):
        with pytest.raises(ConfigError):
            parse_config({**MINIMAL, "bundling": bundling})
    # all-data bundling merges reports, which the conventional schemes never send
    for scheme in (CONVENTIONAL_ONEWAY, CONVENTIONAL_TWOWAY):
        with pytest.raises(ConfigError, match="'all'"):
            parse_config({**MINIMAL, "scheme": scheme, "bundling": "all"})
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


def test_parse_rejects_fp32_node_stamps_past_the_single_range():
    # an fp32 node rounds every stamp into single precision: the largest,
    # offset + (1 + 500 ppm) * (duration + jitter) in ticks, must fit
    flood = {"scheme": CONVENTIONAL_ONEWAY, "duration_s": 5, "si_s": 1}
    node = {"precision": "fp32-nearest", "method": "two-point"}
    far = {"offset_us": 1e36, "tick_us": None}
    with pytest.raises(ConfigError, match="fp32 node"):
        parse_config({**flood, "node": node, "clock": far})
    # the same offset in 1 us ticks, at an fp64 node or without node fits is fine
    parse_config({**flood, "node": node, "clock": {**far, "tick_us": 1}})
    parse_config({**flood, "node": {**node, "precision": "fp64"}, "clock": far})
    parse_config({**flood, "scheme": REVERSE_ONEWAY, "node": node, "clock": far})
    # the bound itself, on either side
    for scale, fits in ((1.0 - 2.0**-30, True), (1.0 + 2.0**-30, False)):
        clock = ClockConfig(tick_ns=1000, offset_ns=1000 * FLOAT32_MAX * scale)
        build = lambda: RunConfig(scheme=CONVENTIONAL_ONEWAY, node_precision="fp32-chop",
                                  duration_ns=5 * S, clock=clock)
        if fits:
            build()
        else:
            with pytest.raises(ConfigError, match="fp32 node"):
                build()


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


@pytest.mark.parametrize(
    "patch",
    [
        # misspelled nested keys used to be ignored
        {"link": {"jiter_us": 400}},
        {"energy": {"i_tx": 5}},
        # these leaked ValueError or AttributeError
        {"hops": "x"},
        {"seed": "abc"},
        {"node": {"window": "x"}},
        {"energy": {"voltage_v": "abc"}},
        {"clock": 5},
        # these ran with a silently changed value
        {"hops": 2.7},
        {"node": {"window": 1}},
        {"energy": {"voltage_v": math.nan}},
        {"hops": True},
        {"collect_events": "yes"},
        {"clock": {"drift": {"sigma_ppm": 0.05}}},  # constant drift, sigma dropped
        # accepted, then failed when the run seeded its generators
        {"seed": -1},
    ],
    ids=repr,
)
def test_parse_rejects_malformed_values(patch):
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, **patch})


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("clock", "skew_ppm", 900),
        ("link", "loss", 2),
        pytest.param("clock", "tick_ns", 2**53 + 1, id="clock-tick_ns-past-bound"),
        pytest.param("clock", "tick_ns", 10**400, id="clock-tick_ns-past-float"),
    ],
)
def test_from_dict_rejects_bad_nested_values(section, key, value):
    # these leaked ValueError from the nested dataclass; a tick past the
    # float range was accepted and raised OverflowError mid-run
    data = RunConfig().to_dict()
    data[section][key] = value
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


@pytest.mark.parametrize(
    "path, value",
    [
        # a 1 ns run with no outcomes
        (("duration_ns",), True),
        # these ran with float event times and put floats into to_dict()
        (("si_ns",), 1.5e9),
        (("measurement_interval_ns",), 1e9),
        (("report_interval_ns",), 2.5e9),
        (("clock", "tick_ns"), 1000.0),
        (("link", "jitter_ns"), 5e3),
        (("link", "propagation_ns"), 1e3),
        # accepted, then a TypeError mid-run when the walk indexed its table
        (("clock", "drift", "step_ns"), 5e8),
    ],
    ids=lambda p: ".".join(p) if isinstance(p, tuple) else repr(p),
)
def test_from_dict_rejects_non_integer_times(path, value):
    data = RunConfig(duration_ns=5 * S).to_dict()
    data["clock"]["drift"] = {"kind": "random-walk", "walk_sigma_ppm": 0.05}
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


PINNED_UNITS = {
    **UNITS,
    "link": {**UNITS["link"], "loss": 0},
    "energy": {"voltage_v": 3, "i_mcu_a": 0},
}


@pytest.mark.parametrize(
    "build, digest",
    [
        (RunConfig, "554c54d126d4e0b0"),
        (lambda: parse_config(MINIMAL), "554c54d126d4e0b0"),
        (multihop_accuracy_config, "ba64d0cc144321e4"),
        (
            lambda: energy_comparison_config(CONVENTIONAL_ONEWAY, schedule="lpl"),
            "d0320466121ac09a",
        ),
        (
            lambda: table1_config(CONVENTIONAL_TWOWAY, 10.0, seed=3),
            "dded599ae3515c8d",
        ),
        # int energy values still hash as floats, "voltage_v": 3.0
        (lambda: parse_config(PINNED_UNITS), "7837288572cb7dc7"),
    ],
)
def test_config_hash_is_pinned(build, digest):
    # stored traces and summary.json files name their config by this hash;
    # JSON tells 3 from 3.0 and 1 from true, so it pins value types too
    assert build().config_hash() == digest


# every documented key, so that each one can be broken in turn
FULL = {
    **UNITS,
    "bundle_size": 2,
    "collect_events": False,
    "head": {"method": "window-lsq", "window": 7},
    "node": {"method": "window-lsq", "window": 8, "precision": "fp32-chop"},
    "energy": {
        "voltage_v": 3.0,
        "i_tx_a": 0.02,
        "i_listen_a": 0.02,
        "i_idle_a": 0.0,
        "i_mcu_a": 0.001,
    },
}


def _paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


new_keys = st.text(max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


def _break(data, path, rename, key, value):
    """A copy of ``data`` with the key at ``path`` renamed to ``key``, or its
    value replaced by ``value``."""
    data = copy.deepcopy(data)
    *parents, last = path
    section = data
    for name in parents:
        section = section[name]
    if rename:
        section[key] = section.pop(last)
    else:
        section[last] = value
    return data


CANONICAL = parse_config(FULL).to_dict()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_paths(FULL))), st.booleans(), new_keys, json_values)
def test_parse_accepts_or_raises_config_error(path, rename, key, value):
    # parsing only, no run: what it accepts is a RunConfig that passed every
    # check, and its canonical form builds the same config again
    try:
        cfg = parse_config(_break(FULL, path, rename, key, value))
    except ConfigError:
        return
    assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_paths(CANONICAL))), st.booleans(), new_keys, json_values)
def test_from_dict_accepts_or_raises_config_error(path, rename, key, value):
    try:
        RunConfig.from_dict(_break(CANONICAL, path, rename, key, value))
    except ConfigError:
        pass
