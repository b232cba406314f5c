"""Estimator tests against exact rational oracles and worked examples."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab.clock import ClockParams
from synclab.estimators import (
    CUMULATIVE_RATIO,
    ESTIMATOR_METHODS,
    TWO_POINT,
    WINDOW_LSQ,
    EstimationError,
    HeadEstimator,
    InsufficientDataError,
    RegressionWindow,
    SingularSystemError,
    TimestampPair,
    cumulative_params,
    cumulative_ratio,
    default_window,
    interpolate_params,
    logical_time,
    lsq_fit,
    multihop_from_head,
    multihop_to_head,
    rate_corrected_advance,
    translate_child_to_parent,
    translate_parent_to_child,
)


def fraction_lsq(pairs):
    # exact normal-equation solution in rational arithmetic
    xs = [Fraction(p.t_parent) for p in pairs]
    ys = [Fraction(p.t_child) for p in pairs]
    n = len(pairs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


def test_lsq_fit_worked_example():
    # child lags parent by a constant 1000 ticks at identical rate
    pairs = [TimestampPair(1000.0, 2000.0, 0), TimestampPair(2000.0, 3000.0, 1)]
    params = lsq_fit(pairs)
    assert params.ratio == 1.0
    assert params.offset == -1000.0


def test_interpolate_params_worked_example():
    prev = TimestampPair(0.0, 0.0, 0)
    cur = TimestampPair(1_000_050.0, 1_000_000.0, 1)
    params = interpolate_params(prev, cur)
    assert math.isclose(params.ratio, 1.00005, rel_tol=1e-15)
    assert params.offset == 0.0


def test_cumulative_ratio_worked_example():
    initial = TimestampPair(0.0, 0.0, 0)
    latest = TimestampPair(1_000_000.0, 1_000_050.0, 10)
    assert math.isclose(
        cumulative_ratio(initial, latest), 1.00005, rel_tol=1e-15
    )


@st.composite
def fit_windows(draw):
    # well-conditioned windows: distinct parent stamps, crystal-band slope,
    # offset magnitude large enough for a relative comparison
    n = draw(st.integers(min_value=2, max_value=40))
    start = draw(st.integers(min_value=0, max_value=10**7))
    # parent spacing dominates the noise so the fitted slope stays positive
    steps = draw(st.lists(st.integers(10_000, 10**6), min_size=n - 1, max_size=n - 1))
    parents = [float(start)]
    for step in steps:
        parents.append(parents[-1] + step)
    ratio = 1.0 + draw(st.integers(-500, 500)) * 1e-6
    offset = draw(st.integers(1_000, 1_000_000)) * draw(st.sampled_from((-1.0, 1.0)))
    noises = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    return [
        TimestampPair(ratio * p + offset + noise, p, i)
        for i, (p, noise) in enumerate(zip(parents, noises))
    ]


@settings(max_examples=200)
@given(fit_windows())
def test_lsq_fit_matches_rational_oracle(pairs):
    params = lsq_fit(pairs)
    slope, intercept = fraction_lsq(pairs)
    assert math.isclose(params.ratio, float(slope), rel_tol=1e-12)
    assert math.isclose(params.offset, float(intercept), rel_tol=1e-9, abs_tol=1e-6)


@given(fit_windows())
def test_lsq_fit_over_generic_numbers_agrees_with_float_fit(pairs):
    # Fraction timestamps take the left-to-right summation that Float32Emu
    # takes, here in exact arithmetic
    exact = lsq_fit(
        [TimestampPair(Fraction(p.t_child), Fraction(p.t_parent)) for p in pairs]
    )
    params = lsq_fit(pairs)
    assert math.isclose(exact.ratio, params.ratio, rel_tol=1e-12)
    assert math.isclose(exact.offset, params.offset, rel_tol=1e-9, abs_tol=1e-6)


def test_two_pair_lsq_equals_interpolation():
    prev = TimestampPair(123.0, 456.0, 0)
    cur = TimestampPair(100_123.5, 100_461.0, 1)
    fitted = lsq_fit([prev, cur])
    interp = interpolate_params(prev, cur)
    assert math.isclose(fitted.ratio, interp.ratio, rel_tol=1e-12)
    assert math.isclose(fitted.offset, interp.offset, rel_tol=1e-12)


def test_noise_free_recovery_all_methods():
    true = ClockParams(1.000321, -54321.0)
    pairs = [
        TimestampPair(true.ratio * p + true.offset, float(p), i)
        for i, p in enumerate(range(0, 20_000_000, 1_000_000))
    ]
    for params in (
        lsq_fit(pairs),
        interpolate_params(pairs[-2], pairs[-1]),
        cumulative_params(pairs[0], pairs[-1]),
    ):
        assert math.isclose(params.ratio, true.ratio, rel_tol=1e-12)
        assert math.isclose(params.offset, true.offset, rel_tol=1e-9)
    assert math.isclose(
        cumulative_ratio(pairs[0], pairs[-1]), 1.0 / true.ratio, rel_tol=1e-12
    )


def test_cumulative_params_pass_through_both_anchors():
    initial = TimestampPair(500.0, 1_000.0, 0)
    latest = TimestampPair(9_000_500.0, 9_005_000.0, 7)
    params = cumulative_params(initial, latest)
    assert math.isclose(logical_time(params, initial.t_parent), initial.t_child, rel_tol=1e-12)
    assert math.isclose(logical_time(params, latest.t_parent), latest.t_child, rel_tol=1e-12)


def test_estimator_error_paths():
    with pytest.raises(InsufficientDataError):
        lsq_fit([TimestampPair(1.0, 2.0, 0)])
    with pytest.raises(SingularSystemError):
        lsq_fit([TimestampPair(1.0, 5.0, 0), TimestampPair(2.0, 5.0, 1)])
    with pytest.raises(EstimationError):
        # child time decreasing while parent advances: negative fitted rate
        lsq_fit([TimestampPair(10.0, 0.0, 0), TimestampPair(0.0, 10.0, 1)])
    with pytest.raises(SingularSystemError):
        cumulative_ratio(TimestampPair(5.0, 0.0, 0), TimestampPair(5.0, 9.0, 1))
    with pytest.raises(SingularSystemError):
        interpolate_params(TimestampPair(0.0, 5.0, 0), TimestampPair(9.0, 5.0, 1))
    with pytest.raises(EstimationError):
        rate_corrected_advance(0.0, 10.0, 0.0, 0.0)
    with pytest.raises(EstimationError):
        rate_corrected_advance(0.0, 0.0, 10.0, 1.0)


def test_rate_corrected_advance_examples():
    assert rate_corrected_advance(100.0, 110.0, 100.0, 2.0) == 105.0
    assert rate_corrected_advance(0.0, 10.0, 10.0, 0.5) == 0.0
    # a ratio below one means the local clock runs slow: advance exceeds
    # elapsed local time
    assert rate_corrected_advance(50.0, 60.0, 50.0, 0.999) > 60.0 - 50.0 + 50.0 - 1


def test_logical_time_is_affine():
    params = ClockParams(1.25, -3.0)
    assert logical_time(params, 0.0) == -3.0
    assert logical_time(params, 4.0) == 2.0


def test_translate_round_trip_single_hop():
    params = ClockParams(1.0005, 123456.0)
    t = 987_654_321.0
    back = translate_child_to_parent(params, translate_parent_to_child(params, t))
    assert abs(back - t) <= math.ulp(t)


hop_params = st.builds(
    ClockParams,
    st.integers(-500, 500).map(lambda ppm: 1.0 + ppm * 1e-6),
    st.integers(-1_000_000, 1_000_000).map(float),
)


@settings(max_examples=200)
@given(
    st.lists(hop_params, min_size=1, max_size=4),
    st.integers(0, 10**9).map(float),
)
def test_multihop_round_trip_within_ulp_per_hop(stack, t_reference):
    # rounding error accumulates at the scale of the intermediate values,
    # two rounded operations per hop in each direction
    scales = [max(1.0, t_reference)]
    t = t_reference
    for params in stack:
        t = translate_parent_to_child(params, t)
        scales.append(abs(t))
    back = multihop_to_head(stack, t)
    assert abs(back - t_reference) <= 2 * len(stack) * math.ulp(max(scales))


def test_multihop_composition_order():
    # reference -> layer1 -> layer2 applies head-adjacent params first
    stack = [ClockParams(2.0, 10.0), ClockParams(0.5, -1.0)]
    t = 100.0
    layer1 = translate_parent_to_child(stack[0], t)
    layer2 = translate_parent_to_child(stack[1], layer1)
    assert multihop_from_head(stack, t) == layer2
    assert math.isclose(multihop_to_head(stack, layer2), t, rel_tol=1e-12)
    with pytest.raises(EstimationError):
        multihop_to_head([], 1.0)
    with pytest.raises(EstimationError):
        multihop_from_head([], 1.0)


def test_regression_window_eviction_and_duplicates():
    window = RegressionWindow(capacity=3)
    for i in range(5):
        assert window.push(TimestampPair(float(i), float(i), i))
    assert [p.sync_index for p in window.pairs] == [2, 3, 4]
    assert not window.push(TimestampPair(99.0, 99.0, 4))
    assert not window.push(TimestampPair(99.0, 99.0, 1))
    assert len(window) == 3
    assert window.last_sync_index() == 4
    with pytest.raises(ValueError):
        RegressionWindow(capacity=1)


def test_unbounded_window_keeps_everything():
    window = RegressionWindow(capacity=None)
    for i in range(100):
        window.push(TimestampPair(float(i), float(i), i))
    assert len(window) == 100
    assert window.capacity is None


def test_default_window_by_interval():
    assert default_window(100.0) == 2
    assert default_window(300.0) == 2
    assert default_window(10.0) == 5
    assert default_window(1.0) == 19
    assert default_window(0.1) == 19


def test_head_estimator_bootstrap_and_fit():
    head = HeadEstimator(method=WINDOW_LSQ, window=19)
    assert head.params_for(1) is None
    assert head.freshness(1) == -1
    assert head.ingest(1, TimestampPair(1000.0, 2000.0, 0))
    assert head.params_for(1) is None  # one pair is not enough
    assert head.ingest(1, TimestampPair(2000.0, 3000.0, 1))
    params = head.params_for(1)
    assert params.ratio == 1.0 and params.offset == -1000.0
    assert head.freshness(1) == 1
    assert head.known_nodes() == (1,)


def test_head_estimator_rejects_duplicates():
    head = HeadEstimator(method=WINDOW_LSQ, window=5)
    assert head.ingest(2, TimestampPair(0.0, 0.0, 0))
    assert head.ingest(2, TimestampPair(10.0, 10.0, 1))
    before = head.params_for(2)
    assert not head.ingest(2, TimestampPair(999.0, 999.0, 1))
    assert head.params_for(2) == before


def test_head_estimator_two_point_tracks_latest_pairs():
    head = HeadEstimator(method=TWO_POINT)
    assert head.window == 2
    for i, (c, p) in enumerate([(0.0, 0.0), (10.0, 20.0), (40.0, 50.0)]):
        head.ingest(3, TimestampPair(c, p, i))
    expected = interpolate_params(TimestampPair(10.0, 20.0, 1), TimestampPair(40.0, 50.0, 2))
    assert head.params_for(3) == expected


def test_head_estimator_cumulative_anchors_first_pair_ever():
    head = HeadEstimator(method=CUMULATIVE_RATIO, window=2)
    pairs = [TimestampPair(float(i * 1000 + 7), float(i * 1000), i) for i in range(6)]
    for pair in pairs:
        head.ingest(4, pair)
    # anchored at sync 0 even though the bounded window evicted it
    assert head.params_for(4) == cumulative_params(pairs[0], pairs[-1])


def test_head_estimator_chain_translation():
    head = HeadEstimator(method=WINDOW_LSQ, window=19)
    truth = {1: ClockParams(1.0001, 500.0), 2: ClockParams(0.9999, -250.0)}
    for node, params in truth.items():
        for i, p in enumerate((0.0, 1e6, 2e6)):
            head.ingest(node, TimestampPair(logical_time(params, p), p, i))
    assert head.chain_params([1, 2]) is not None
    assert head.chain_params([1, 3]) is None
    assert head.translate_to_reference([1, 3], 0.0) is None
    t_local = 1.5e6
    expected = multihop_to_head([truth[1], truth[2]], t_local)
    assert math.isclose(head.translate_to_reference([1, 2], t_local), expected, rel_tol=1e-9)


def test_head_estimator_validates_method():
    with pytest.raises(ValueError):
        HeadEstimator(method="no-such-method")
    for method in ESTIMATOR_METHODS:
        HeadEstimator(method=method)
