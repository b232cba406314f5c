import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from synclab.clock import (
    ClockConfig,
    ClockParams,
    DriftModel,
    HardwareClock,
    NS_PER_S,
    TICK_1US_NS,
    TICK_32KHZ_NS,
    TimeRegressionError,
    draw_clock_params,
    seconds,
    to_seconds,
)


def test_time_conversions_round_trip():
    assert seconds(1.5) == 1_500_000_000
    assert to_seconds(1_500_000_000) == 1.5
    assert seconds(to_seconds(123_456_789)) == 123_456_789


def test_params_validation():
    params = ClockParams(1.00005, 1000.0)
    assert math.isclose(params.skew_ppm, 50.0)
    with pytest.raises(ValueError):
        ClockParams(0.0, 0.0)
    with pytest.raises(ValueError):
        ClockParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        ClockParams(1.1, 0.0).validate_skew(500.0)


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


def test_read_rejects_time_regression():
    # a read may go back in time as far as the start of the previous drift
    # segment and returns the integrated phase there; earlier reads and
    # negative times raise
    steady = HardwareClock(ClockParams(1.0, 0.0))
    assert steady.read(5_000) == 5
    assert steady.read(4_999) == 4
    with pytest.raises(TimeRegressionError):
        steady.read(-1)

    def walker():
        return HardwareClock(
            ClockParams(1.0, 0.0),
            tick_ns=None,
            drift=DriftModel.random_walk(50.0),
            rng=np.random.default_rng(3),
        )

    # the same rng draws in forward order give the phases to expect
    forward = walker()
    times = tuple(ms * NS_PER_S // 1000 for ms in (500, 2000, 2500, 3000, 3200))
    expected = {t: forward.read(t) for t in times}
    clock = walker()
    assert clock.read(times[-1]) == expected[times[-1]]
    for t in reversed(times[1:]):
        assert clock.read(t) == expected[t]
    assert clock.read(3 * NS_PER_S) != 3 * NS_PER_S  # the walk moved the phase
    for t in (2 * NS_PER_S - 1, times[0], -1):
        with pytest.raises(TimeRegressionError):
            clock.read(t)


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
        skew_bound_ppm=500.0,
    )
    for k in range(1, 200):
        clock.read(k * NS_PER_S)
        assert abs(clock.ratio - 1.0) <= 500.0e-6 + 1e-12


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


def test_phase_integration_matches_affine_for_huge_times():
    # hour-scale reads stay consistent with the closed form
    clock = HardwareClock(ClockParams(1 + 40e-6, 1e8), tick_ns=TICK_1US_NS)
    t = 3_600 * NS_PER_S
    expected = math.floor(((1 + 40e-6) * t + 1e8) / TICK_1US_NS)
    assert clock.read(t) == expected
