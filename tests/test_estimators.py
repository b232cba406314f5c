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
    SingularSystemError,
    TimestampPair,
    _Sums,
    centered_fit,
    cumulative_params,
    cumulative_ratio,
    default_window,
    interpolate_params,
    logical_time,
    lsq_fit,
    multihop_from_head,
    multihop_to_head,
    new_link,
    translate_child_to_parent,
)
from synclab.precision import CHOP, ROUNDED


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
    # Fraction timestamps take the left-to-right summation that an fp32
    # node's centered fit takes, here in exact arithmetic
    exact = lsq_fit(
        [TimestampPair(Fraction(p.t_child), Fraction(p.t_parent)) for p in pairs]
    )
    params = lsq_fit(pairs)
    assert math.isclose(exact.ratio, params.ratio, rel_tol=1e-12)
    assert math.isclose(exact.offset, params.offset, rel_tol=1e-9, abs_tol=1e-6)


@st.composite
def pushed_windows(draw):
    # int or float pair streams into a window link of random capacity; sync
    # index jumps of 0 and -1 make duplicate and stale pairs the link ignores;
    # the link fits once after ``cut`` pairs and again at the end
    as_float = draw(st.booleans())
    capacity = draw(st.sampled_from((None, *range(2, 26))))
    ratio = 1.0 + draw(st.integers(-500, 500)) * 1e-6
    parent = draw(st.integers(0, 10**7))
    index = 0
    stream = []
    for _ in range(draw(st.integers(2, 60))):
        parent += draw(st.integers(10_000, 10**6))
        index += draw(st.sampled_from((-1, 0, 1, 1, 2)))
        child = ratio * parent + draw(st.integers(-1000, 1000))
        if as_float:
            fractions = st.floats(0.0, 1.0)
            stamps = (child + draw(fractions), parent + draw(fractions))
        else:
            stamps = (round(child), parent)
        stream.append(TimestampPair(*stamps, index))
    return capacity, stream, draw(st.integers(1, len(stream)))


def assert_rounded_rational_fit(link, accepted, capacity):
    pairs = accepted[-capacity:] if capacity else accepted
    if len(pairs) < 2:
        with pytest.raises(InsufficientDataError):
            link.fit()
        return
    ratio, offset = link.fit()
    slope, intercept = fraction_lsq(pairs)
    assert (ratio, offset) == (float(slope), float(intercept))
    again = lsq_fit(pairs)
    assert (again.ratio.hex(), again.offset.hex()) == (ratio.hex(), offset.hex())


@settings(max_examples=300)
@given(pushed_windows())
def test_window_lsq_is_the_rounded_rational_solution(window):
    # the reference is the last ``capacity`` pairs that the link accepted;
    # the fit at the end reads the link's sums after the pushes and
    # evictions since the fit mid-stream
    capacity, stream, cut = window
    link = new_link(WINDOW_LSQ, capacity)
    accepted = []
    for pair in stream[:cut]:
        if link.push(pair):
            accepted.append(pair)
    assert_rounded_rational_fit(link, accepted, capacity)
    for pair in stream[cut:]:
        if link.push(pair):
            accepted.append(pair)
    assert_rounded_rational_fit(link, accepted, capacity)


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


def test_lsq_sums_reject_a_fit_that_overflows_a_float():
    # a stamp past the float range is still a plain int; a fit whose ratio,
    # or whose offset alone, overflows a float is an EstimationError
    for child_stamps in ((0, 10**400), (10**400, 10**400 + 1)):
        sums = _Sums()
        for parent, child in enumerate(child_stamps):
            sums.add(TimestampPair(child, parent, parent))
        with pytest.raises(EstimationError, match="overflows a float"):
            sums.solve()


def test_two_pair_fits_reject_a_quotient_that_overflows_a_float():
    # an int stamp past the float range: an EstimationError, not an
    # OverflowError, so a head link keeps its last good fit
    huge = 10**400
    for fit in (interpolate_params, cumulative_params):
        for first, second in (((0, 0), (huge, 1)), ((huge, 0), (huge + 1, 1)), ((0, 0), (1, huge))):
            with pytest.raises(EstimationError, match="overflows a float"):
                fit(TimestampPair(*first, 0), TimestampPair(*second, 1))


def test_cumulative_ratio_rejects_a_quotient_that_overflows_a_float():
    # the elapsed child time, or the ratio itself, past the float range
    huge = 10**400
    for first, second in (((0, 0), (huge, 1)), ((0, 0), (1, huge)), ((0, huge), (2, 0))):
        with pytest.raises(EstimationError, match="overflows a float"):
            cumulative_ratio(TimestampPair(*first, 0), TimestampPair(*second, 1))


def test_logical_time_is_affine():
    params = ClockParams(1.25, -3.0)
    assert logical_time(params, 0.0) == -3.0
    assert logical_time(params, 4.0) == 2.0


def test_translate_round_trip_single_hop():
    params = ClockParams(1.0005, 123456.0)
    t = 987_654_321.0
    back = translate_child_to_parent(params, logical_time(params, t))
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
        t = logical_time(params, t)
        scales.append(abs(t))
    back = multihop_to_head(stack, t)
    assert abs(back - t_reference) <= 2 * len(stack) * math.ulp(max(scales))


def test_multihop_composition_order():
    # reference -> layer1 -> layer2 applies head-adjacent params first
    stack = [ClockParams(2.0, 10.0), ClockParams(0.5, -1.0)]
    t = 100.0
    layer1 = logical_time(stack[0], t)
    layer2 = logical_time(stack[1], layer1)
    assert multihop_from_head(stack, t) == layer2
    assert math.isclose(multihop_to_head(stack, layer2), t, rel_tol=1e-12)
    with pytest.raises(EstimationError):
        multihop_to_head([], 1.0)
    with pytest.raises(EstimationError):
        multihop_from_head([], 1.0)


def test_regression_window_eviction_and_duplicates():
    link = new_link(WINDOW_LSQ, 3)
    for i in range(5):
        assert link.push(TimestampPair(float(i), float(i), i))
    assert [p.sync_index for p in link.pairs] == [2, 3, 4]
    assert link.current()
    assert not link.push(TimestampPair(99.0, 99.0, 4))
    assert not link.push(TimestampPair(99.0, 99.0, 1))
    assert len(link.pairs) == 3 and not link.dirty
    # a window link keeps whatever capacity it is given; the head refuses one below 2
    with pytest.raises(ValueError):
        HeadEstimator(window=1)


@pytest.mark.parametrize("method", ESTIMATOR_METHODS)
def test_every_link_takes_only_newer_sync_indices(method):
    # the one sync-index rule: a stale or duplicate pair changes nothing and
    # leaves no refit pending
    link = new_link(method, 2)
    assert link.push(TimestampPair(0, 0, 5))
    assert link.push(TimestampPair(10, 10, 7))
    assert link.current()
    fitted = (link.ratio, link.offset)
    for stale in (7, 6, 5, -1):
        assert not link.push(TimestampPair(999, 1, stale))
    assert not link.dirty and link.current()
    assert (link.ratio, link.offset) == fitted
    assert link.push(TimestampPair(20, 20, 8)) and link.dirty


def test_unbounded_window_holds_no_pairs_and_sums_every_pair():
    # an fp64 link with no window to evict from is its exact sums alone
    link = new_link(WINDOW_LSQ, None)
    pairs = [TimestampPair(i * 1_000 + (i * 7919) % 13, i * 1_000.5, i) for i in range(100)]
    for pair in pairs:
        assert link.push(pair)
    assert not link.push(pairs[-1])
    assert link.pairs is None and link.sums.n == 100
    assert ClockParams(*link.fit()) == lsq_fit(pairs)
    # a stamp the sums cannot hold exactly is refused, the sums untouched
    with pytest.raises(ValueError, match="finite floats"):
        link.push(TimestampPair(math.inf, 1e9, 100))
    assert link.sums.n == 100


def test_rounded_window_link_fits_its_pairs_with_no_sums():
    # an fp32 node's window link holds its last ``capacity`` pairs, rounded
    # into the mode, and fits them one operation at a time
    chop = ROUNDED[CHOP]
    link = new_link(WINDOW_LSQ, 4, chop)
    for i in range(9):
        stamps = (chop.number(i * 1_000.25 + i % 3), chop.number(i * 1_000.0))
        assert link.push(TimestampPair(*stamps, i))
    assert link.sums is None and [p.sync_index for p in link.pairs] == [5, 6, 7, 8]
    children, parents, _ = zip(*link.pairs)
    assert link.fit() == centered_fit(parents, children, chop)


def test_default_window_by_interval():
    assert default_window(100.0) == 2
    assert default_window(300.0) == 2
    assert default_window(10.0) == 5
    assert default_window(1.0) == 19
    assert default_window(0.1) == 19


def test_head_estimator_bootstrap_and_fit():
    head = HeadEstimator(method=WINDOW_LSQ, window=19)
    assert head.params_for(1) is None
    assert head.ingest(1, TimestampPair(1000.0, 2000.0, 0))
    assert head.params_for(1) is None  # one pair is not enough
    assert head.ingest(1, TimestampPair(2000.0, 3000.0, 1))
    params = head.params_for(1)
    assert params.ratio == 1.0 and params.offset == -1000.0


def test_head_estimator_rejects_duplicates():
    head = HeadEstimator(method=WINDOW_LSQ, window=5)
    assert head.ingest(2, TimestampPair(0.0, 0.0, 0))
    assert head.ingest(2, TimestampPair(10.0, 10.0, 1))
    before = head.params_for(2)
    assert not head.ingest(2, TimestampPair(999.0, 999.0, 1))
    assert head.params_for(2) == before


def test_head_estimator_two_point_tracks_latest_pairs():
    head = HeadEstimator(method=TWO_POINT)
    for i, (c, p) in enumerate([(0.0, 0.0), (10.0, 20.0), (40.0, 50.0)]):
        head.ingest(3, TimestampPair(c, p, i))
    expected = interpolate_params(TimestampPair(10.0, 20.0, 1), TimestampPair(40.0, 50.0, 2))
    assert head.params_for(3) == expected


@pytest.mark.parametrize("method", ESTIMATOR_METHODS)
def test_head_estimator_keeps_its_last_good_fit(method):
    # SFD jitter wider than the gap between two sync frames can put a
    # later pair's stamps before an earlier one's: the refit turns
    # non-positive or singular, and the link keeps translating with the
    # fit it had
    head = HeadEstimator(method=method, window=2)
    head.ingest(1, TimestampPair(1000, 1000, 0))
    head.ingest(1, TimestampPair(2000, 2000, 1))
    good = head.params_for(1)
    assert good is not None
    head.ingest(1, TimestampPair(500, 2500, 2))  # child stamp went back
    assert head.params_for(1) == good
    head.ingest(1, TimestampPair(3000, 1000, 3))  # parent stamp went back
    assert head.params_for(1) == good
    assert head.translate_to_reference((1,), 4000) == float(logical_time(good, 4000))


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
    assert head.params_for(1) is not None and head.params_for(2) is not None
    assert head.params_for(3) is None
    assert head.translate_to_reference([1, 3], 0.0) is None
    t_local = 1.5e6
    expected = multihop_to_head([truth[1], truth[2]], t_local)
    assert math.isclose(head.translate_to_reference([1, 2], t_local), expected, rel_tol=1e-9)


def test_head_estimator_validates_method():
    with pytest.raises(ValueError):
        HeadEstimator(method="no-such-method")
    for method in ESTIMATOR_METHODS:
        HeadEstimator(method=method)
