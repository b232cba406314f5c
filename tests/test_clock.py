import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from synclab.clock import (
    ClockConfig,
    ClockParams,
    DRIFT_BLOCK,
    DriftModel,
    HardwareClock,
    NS_PER_S,
    TICK_1US_NS,
    TICK_32KHZ_NS,
    TimeRegressionError,
    draw_clock_params,
    seconds,
)


def test_time_conversions_round_trip():
    assert seconds(1.5) == 1_500_000_000
    assert seconds(123_456_789 / 1e9) == 123_456_789


def test_params_validation():
    params = ClockParams(1.00005, 1000.0)
    assert math.isclose(params.skew_ppm, 50.0)
    with pytest.raises(ValueError):
        ClockParams(0.0, 0.0)
    with pytest.raises(ValueError):
        ClockParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        ClockParams(1.1, 0.0).validate_skew()


def test_constant_clock_matches_affine_form():
    # quantization-free diagnostic mode returns the exact phase
    clock = HardwareClock(ClockParams(1.00005, 123.0), tick_ns=None)
    for t in (0, 1, 999, 10**9, 3_600 * NS_PER_S):
        assert math.isclose(clock.read(t), 1.00005 * t + 123.0, rel_tol=1e-12)


def test_quantization_floors_to_ticks():
    clock = HardwareClock(ClockParams(1.0, 0.0), tick_ns=TICK_1US_NS)
    assert clock.read(999) == 0
    assert clock.read(1_000) == 1
    assert clock.read(1_999) == 1
    assert clock.read(2_000) == 2


def test_32khz_tick():
    clock = HardwareClock(ClockParams(1.0, 0.0), tick_ns=TICK_32KHZ_NS)
    assert clock.read(30_499) == 0
    assert clock.read(30_500) == 1


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tick_ns=st.sampled_from([None, TICK_1US_NS]),
    times=st.lists(
        st.integers(min_value=0, max_value=3 * DRIFT_BLOCK * NS_PER_S),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=50, deadline=None)
def test_read_rejects_time_regression(seed, tick_ns, times):
    # a read is a lookup in the drift table, so reads at any t >= 0, in any
    # order, equal the reads of a fresh clock in time order; only t < 0 raises
    def walker():
        return HardwareClock(
            ClockParams(1.0, 0.0),
            tick_ns=tick_ns,
            drift=DriftModel.random_walk(50.0),
            rng=np.random.default_rng(seed),
        )

    in_order = walker()
    expected = {t: in_order.read(t) for t in sorted(times)}
    clock = walker()
    assert [clock.read(t) for t in times] == [expected[t] for t in times]
    steady = HardwareClock(ClockParams(1.0, 0.0))
    assert steady.read(5_000) == 5
    assert steady.read(4_999) == 4
    for c in (clock, steady):
        with pytest.raises(TimeRegressionError):
            c.read(-1)


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("sigma_ppm", [0.02, 0.5, 50.0])
def test_drift_blocks_equal_scalar_draws(sigma_ppm, seed):
    # the drift table draws a block of rate steps per generator call; a run
    # stays what it was only while a block is the sequence of one-at-a-time
    # scalar draws, which is numpy's behaviour, not its promise: an upgrade
    # that breaks it fails here instead of moving every drifting clock read
    step = NS_PER_S // 4
    params = ClockParams(1 + 30e-6, 5e7)
    clock = HardwareClock(
        params,
        tick_ns=None,
        drift=DriftModel.random_walk(sigma_ppm, step_ns=step),
        rng=np.random.default_rng(seed),
    )
    twin = np.random.default_rng(seed)
    sigma = sigma_ppm * 1e-6 * math.sqrt(step / NS_PER_S)
    phase, rate = params.offset, params.ratio
    # the segment-by-segment integration the table must reproduce bit for
    # bit, across at least two block edges (50 ppm also hits the clamp)
    for k in range(2 * DRIFT_BLOCK + 2):
        assert (clock.read(k * step), clock.rate(k * step)) == (phase, rate)
        phase += rate * step
        rate = min(max(rate + float(twin.normal(0.0, sigma)), 1 - 500e-6), 1 + 500e-6)


@given(
    skew=st.floats(min_value=-400, max_value=400),
    offset=st.floats(min_value=0, max_value=1e9),
    times=st.lists(st.integers(min_value=0, max_value=10**12), min_size=2, max_size=30),
)
def test_reads_monotone_under_constant_drift(skew, offset, times):
    clock = HardwareClock(ClockParams(1 + skew * 1e-6, offset), tick_ns=TICK_1US_NS)
    last = None
    for t in sorted(times):
        ticks = clock.read(t)
        if last is not None:
            assert ticks >= last
        last = ticks


@given(
    sigma=st.floats(min_value=0.001, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=2000)
def test_reads_monotone_under_random_walk(sigma, seed):
    rng = np.random.default_rng(seed)
    clock = HardwareClock(
        ClockParams(1.0, 0.0),
        tick_ns=TICK_1US_NS,
        drift=DriftModel.random_walk(sigma),
        rng=rng,
    )
    last = 0
    for k in range(50):
        ticks = clock.read(k * 7 * NS_PER_S // 10)
        assert ticks >= last
        last = ticks


def test_random_walk_rate_stays_clamped():
    rng = np.random.default_rng(0)
    clock = HardwareClock(
        ClockParams(1.0, 0.0),
        tick_ns=None,
        drift=DriftModel.random_walk(sigma_ppm=1000.0),
        rng=rng,
    )
    skews = [abs(clock.rate(k * NS_PER_S) - 1.0) for k in range(200)]
    assert max(skews) <= 500.0e-6 + 1e-12
    assert max(skews) > 499.0e-6  # the walk reached the bound


def test_random_walk_needs_rng():
    with pytest.raises(ValueError):
        HardwareClock(
            ClockParams(1.0, 0.0), drift=DriftModel.random_walk(0.1), rng=None
        )


def test_drift_model_validation():
    with pytest.raises(ValueError):
        DriftModel(kind="brownian")
    with pytest.raises(ValueError):
        DriftModel(kind="random-walk", walk_sigma_ppm=-1.0)
    with pytest.raises(ValueError):
        DriftModel(step_ns=0)


def test_draw_clock_params_ranges():
    rng = np.random.default_rng(42)
    for _ in range(200):
        params = draw_clock_params(rng, skew_ppm=40.0, offset_ns=1e8)
        assert abs(params.ratio - 1.0) <= 40.0e-6
        assert abs(params.offset) <= 1e8


def test_clock_config_build_applies_overrides():
    cfg = ClockConfig(drift=DriftModel.random_walk(0.5))
    rng = np.random.default_rng(1)
    drifting = cfg.build(ClockParams(1.0, 0.0), rng)
    assert drifting.drift.kind == "random-walk"
    steady = cfg.build(ClockParams(1.0, 0.0), rng, drift=DriftModel.constant())
    assert steady.drift.kind == "constant"


def test_clock_config_validation():
    with pytest.raises(ValueError):
        ClockConfig(tick_ns=0)
    with pytest.raises(ValueError):
        ClockConfig(skew_ppm=-1.0)
    # a read divides by the tick as a float: the longest tick converts exactly
    ClockConfig(tick_ns=2**53)
    with pytest.raises(ValueError):
        ClockConfig(tick_ns=2**53 + 1)
    with pytest.raises(ValueError):
        HardwareClock(ClockParams(1.0, 0.0), tick_ns=10**400)


def test_phase_integration_matches_affine_for_huge_times():
    # hour-scale reads stay consistent with the closed form
    clock = HardwareClock(ClockParams(1 + 40e-6, 1e8), tick_ns=TICK_1US_NS)
    t = 3_600 * NS_PER_S
    expected = math.floor(((1 + 40e-6) * t + 1e8) / TICK_1US_NS)
    assert clock.read(t) == expected
