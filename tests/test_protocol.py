"""Frame building, sizes, and per-node protocol state transitions."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from synclab.clock import ClockParams, HardwareClock
from synclab.config import ConfigError, RunConfig
from synclab.estimators import (
    OPERATORS,
    EstimationError,
    InsufficientDataError,
    TimestampPair,
    centered_fit,
    interpolate_params,
    logical_time,
    lsq_fit,
)
from synclab.precision import CHOP, NEAREST, ROUNDED
from synclab.protocol import (
    ALWAYS_ON,
    BEACON,
    BROADCAST,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    FP32_CHOP,
    FP32_NEAREST,
    FP64,
    HEADER_BYTES,
    MEASUREMENT,
    RECORD_BYTES,
    REPORT,
    REQUEST,
    RESPONSE,
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
    SCHEDULED_WAKE,
    SEND,
    TIMESTAMP_BYTES,
    JITTER_BLOCK,
    RECEIVE,
    HopRecord,
    JitterModel,
    MeasurementRecord,
    Message,
    NodeState,
    RadioConfig,
    default_radio_schedule,
)

SI = 1_000_000_000  # 1 s


def make_node(scheme=REVERSE_ONEWAY, level=1, children=(), tick_ns=None, **cfg_kwargs):
    cfg = RunConfig(scheme=scheme, si_ns=SI, measurement_interval_ns=SI, **cfg_kwargs)
    clock = HardwareClock(ClockParams(1.0, 0.0), tick_ns=tick_ns)
    parent = None if level == 0 else level - 1
    return NodeState(level, level, parent, children, clock, JitterModel.zero(), cfg)


def test_message_sizes():
    bare = Message(kind=MEASUREMENT, src=1, dst=0)
    assert bare.size_bytes == HEADER_BYTES == 5
    assert bare.send_stamp is None

    stamped = Message(kind=REPORT, src=1, dst=0, send_stamp=1.0, sync_index=1)
    assert stamped.size_bytes == HEADER_BYTES + TIMESTAMP_BYTES == 9
    assert stamped.send_stamp is not None

    pair = HopRecord(origin=2, layer=2, t_child=1.0, t_parent=2.0, sync_index=1)
    with_pair = Message(
        kind=REPORT, src=1, dst=0, send_stamp=1.0, sync_index=2, hop_records=(pair,)
    )
    assert with_pair.size_bytes == 9 + 2 * TIMESTAMP_BYTES == 17

    records = tuple(
        MeasurementRecord(origin=1, seq=i, local_ticks=0.0, value=7) for i in range(2)
    )
    with_bundle = Message(kind=MEASUREMENT, src=1, dst=0, bundle=records)
    assert with_bundle.size_bytes == HEADER_BYTES + 2 * RECORD_BYTES == 21

    response = Message(
        kind=RESPONSE, src=0, dst=1, send_stamp=5.0, sync_index=1, extra_stamps=(4.0,)
    )
    assert response.size_bytes == HEADER_BYTES + 2 * TIMESTAMP_BYTES == 13

    with pytest.raises(ValueError):
        Message(kind="telegram", src=0, dst=1)


def test_frames_and_records_are_immutable():
    pair = HopRecord(origin=2, layer=2, t_child=1.0, t_parent=2.0, sync_index=1)
    record = MeasurementRecord(origin=1, seq=1, local_ticks=0.0, value=7)
    frame = Message(kind=REPORT, src=1, dst=0, send_stamp=1.0, sync_index=2,
                    hop_records=(pair,), bundle=(record,))
    for value, field in ((frame, "send_stamp"), (pair, "t_parent"), (record, "local_ticks")):
        with pytest.raises(AttributeError):
            setattr(value, field, 3.0)
        with pytest.raises(AttributeError):
            setattr(value, "note", "a field that does not exist")
    assert frame.send_stamp == 1.0 and pair.t_parent == 2.0 and record.local_ticks == 0.0
    # the kind check still runs, positional or by keyword
    with pytest.raises(ValueError, match="unknown message kind"):
        Message(kind="telegram", src=0, dst=1)
    with pytest.raises(ValueError, match="unknown message kind"):
        Message("telegram", 0, 1)


def test_replace_and_make_check_the_kind():
    # namedtuple's _make builds without __init__, and _replace goes through it
    with pytest.raises(ValueError, match="unknown message kind"):
        Message(REPORT, 1, 0)._replace(kind="telegram")
    with pytest.raises(ValueError, match="unknown message kind"):
        Message._make(["telegram", 1, 0, None, None, (), (), ()])
    frame = Message(REPORT, 1, 0)._replace(dst=2, send_stamp=1.0)
    assert type(frame) is Message and frame == Message(REPORT, 1, 2, 1.0)
    assert Message._make(frame) == frame
    with pytest.raises(TypeError):
        Message._make([REPORT, 1, 0])  # _make still takes every field


def test_jitter_model_validation():
    assert JitterModel.zero().sample(SEND) == 0
    with pytest.raises(ValueError):
        JitterModel(-1)
    with pytest.raises(ValueError):
        JitterModel(100)  # nonzero width without rng streams
    with pytest.raises(ValueError):
        JitterModel.zero().sample("sideways")


@given(st.integers(0, 2**32 - 1))
def test_jitter_samples_within_width(seed):
    width = 5000
    ss = np.random.SeedSequence(seed)
    send_rng, recv_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    jitter = JitterModel(width, rng_send=send_rng, rng_recv=recv_rng)
    for side in (SEND, "receive"):
        for _ in range(10):
            assert -width <= jitter.sample(side) <= width


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("width", [1, 5_000, 10_000_000])
def test_jitter_blocks_equal_scalar_draws(width, seed):
    # JitterModel draws a block per generator call; a run stays what it was
    # only while a block is the sequence of one-at-a-time scalar draws, which
    # is numpy's behaviour, not its promise: an upgrade that breaks it fails
    # here instead of moving every jittered stamp
    send, recv = np.random.SeedSequence(seed).spawn(2)
    jitter = JitterModel(width, np.random.default_rng(send), np.random.default_rng(recv))
    twins = {SEND: np.random.default_rng(send), RECEIVE: np.random.default_rng(recv)}
    # the sides interleave unevenly and each crosses at least two block edges
    for i in range(3 * (2 * JITTER_BLOCK + 1)):
        side = RECEIVE if i % 3 == 0 else SEND
        got = jitter.sample(side)
        assert type(got) is int
        assert got == int(twins[side].integers(-width, width + 1))


def test_sfd_timestamp_without_jitter_is_clock_read():
    node = make_node(tick_ns=1000)
    assert node.stamp(SEND, 5_000_500) == 5000


def test_scheme_config_validation():
    good = dict(scheme=REVERSE_ONEWAY, si_ns=SI, measurement_interval_ns=SI)
    RunConfig(**good)
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "scheme": "carrier-pigeon"})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "si_ns": 0})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "report_interval_ns": -1})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "bundling": "sideways"})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "bundle_size": 0})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "node_precision": "fp16"})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "node_method": "cumulative-ratio"})
    with pytest.raises(ConfigError):
        RunConfig(**{**good, "head_method": "spline"})
    for window in ("head_window", "node_window"):
        with pytest.raises(ConfigError):
            RunConfig(**{**good, window: 1})
    RunConfig(**{**good, "head_window": None})


def test_radio_config_airtime_and_validation():
    radio = RadioConfig(bitrate_bps=250_000)
    frame = Message(kind=REPORT, src=1, dst=0, send_stamp=1.0, sync_index=1)
    assert math.isclose(radio.airtime_s(frame), 9 * 8 / 250_000)
    with pytest.raises(ValueError):
        RadioConfig(bitrate_bps=0)
    with pytest.raises(ValueError):
        RadioConfig(schedule="sometimes")
    with pytest.raises(ValueError):
        RadioConfig(lpl_duty=0.0)


def test_default_radio_schedule():
    assert default_radio_schedule(REVERSE_ONEWAY) == SCHEDULED_WAKE
    assert default_radio_schedule(REVERSE_TWOWAY) == SCHEDULED_WAKE
    assert default_radio_schedule(CONVENTIONAL_ONEWAY) == ALWAYS_ON
    assert default_radio_schedule(CONVENTIONAL_TWOWAY) == ALWAYS_ON


def test_report_carries_and_drains_buffers():
    node = make_node()
    node.record_measurement(100_000_000, value=42)
    node.pending_pairs.append(
        HopRecord(origin=2, layer=2, t_child=1.0, t_parent=2.0, sync_index=1)
    )
    report = node.build_report(200_000_000, scheduled=True)
    assert report.kind == REPORT
    assert report.dst == node.parent
    assert report.send_stamp is not None
    assert len(report.bundle) == 1 and report.bundle[0].value == 42
    assert len(report.hop_records) == 1
    assert not node.records and not node.pending_pairs
    assert report.sync_index == 1
    follow_up = node.build_report(SI + 300_000_000, scheduled=False)
    assert follow_up.sync_index == 2


def test_empty_scheduled_report_gated_by_sync_interval():
    node = make_node()
    first = node.build_report(500_000_000, scheduled=True)
    assert first is not None and first.bundle == ()
    # too soon: the last sync-bearing frame is less than one interval old
    assert node.build_report(500_000_000 + SI // 2, scheduled=True) is None
    assert node.build_report(500_000_000 + SI, scheduled=True) is not None


def test_nonempty_report_is_never_gated():
    node = make_node()
    node.build_report(500_000_000, scheduled=True)
    node.record_measurement(600_000_000, value=1)
    report = node.build_report(700_000_000, scheduled=True)
    assert report is not None and len(report.bundle) == 1


def test_relay_is_sync_bearing_and_drains_pairs():
    node = make_node(children=(2,))
    node.pending_pairs.append(
        HopRecord(origin=2, layer=2, t_child=10.0, t_parent=11.0, sync_index=3)
    )
    records = (MeasurementRecord(origin=2, seq=1, local_ticks=5.0, value=9),)
    relay = node.build_relay(records, 300_000_000)
    assert relay.kind == REPORT and relay.send_stamp is not None
    assert relay.bundle == records
    assert len(relay.hop_records) == 1
    assert not node.pending_pairs


def test_receive_sync_frame_builds_pair():
    parent = make_node(level=0, children=(1,))
    frame = Message(kind=REPORT, src=1, dst=0, send_stamp=123.456, sync_index=7)
    record = parent.receive_sync_frame(frame, 2_000_000_000, child_level=1)
    assert record.origin == 1
    assert record.layer == 1
    assert record.t_child == 123.456
    assert record.t_parent == 2_000_000_000.0  # identity clock, no quantization
    assert record.sync_index == 7
    with pytest.raises(ValueError):
        parent.receive_sync_frame(Message(kind=MEASUREMENT, src=1, dst=0), 0, 1)


def test_head_cannot_use_sensor_frames():
    head = make_node(level=0, children=(1,))
    with pytest.raises(EstimationError):
        head.build_report(0, scheduled=True)
    with pytest.raises(EstimationError):
        head.build_relay((), 0)
    with pytest.raises(EstimationError):
        head.build_measurement_frame(0)
    with pytest.raises(EstimationError):
        head.build_request(0)


def beacon(stamp, generation, src=0):
    return Message(
        kind=BEACON, src=src, dst=BROADCAST, send_stamp=stamp, sync_index=generation
    )


def test_beacon_pairs_and_node_estimate():
    node = make_node(scheme=CONVENTIONAL_ONEWAY)
    assert node.node_estimate(0.0) is None
    # embedded reference runs at half the node's own rate
    assert node.on_beacon(beacon(1000.0, 1), 2000)
    assert not node.on_beacon(beacon(999.0, 1), 2500)  # duplicate generation
    assert node.on_beacon(beacon(2000.0, 2), 4000)
    assert node.node_estimate(6000.0) == 3000.0


def test_record_measurement_estimates_only_when_flooding():
    reverse = make_node(scheme=REVERSE_ONEWAY)
    record = reverse.record_measurement(1_000_000, value=3)
    assert record.est_ticks is None
    assert record.seq == 1 and reverse.records == [record]

    flooding = make_node(scheme=CONVENTIONAL_ONEWAY)
    assert flooding.record_measurement(1000, value=3).est_ticks is None  # no fit yet
    flooding.on_beacon(beacon(1000.0, 1), 2000)
    flooding.on_beacon(beacon(2000.0, 2), 4000)
    synced = flooding.record_measurement(6000, value=3)
    assert synced.est_ticks == 3000.0


def test_rebroadcast_gated_until_bootstrap():
    node = make_node(scheme=CONVENTIONAL_ONEWAY, children=(2,), tick_ns=1000)
    assert node.build_rebroadcast(1_000_000, generation=1) is None
    node.on_beacon(beacon(1000.0, 1), 2_000_000)  # own stamp 2000 ticks
    node.on_beacon(beacon(2000.0, 2), 4_000_000)  # own stamp 4000 ticks
    again = node.build_rebroadcast(5_000_001, generation=3)
    assert again is not None
    assert again.kind == BEACON and again.dst == BROADCAST
    assert again.send_stamp == 2500  # round(est) on a quantized clock
    assert again.sync_index == 3


EXACT_NODE_ESTIMATES = {
    (FP32_NEAREST, "two-point"): ["0x1.fa458a0000000p+30", "0x1.74585a0000000p+31"],
    (FP32_NEAREST, "window-lsq"): ["0x1.fa458c0000000p+30", "0x1.74585c0000000p+31"],
    (FP32_CHOP, "two-point"): ["0x1.fa458a0000000p+30", "0x1.74585a0000000p+31"],
    (FP32_CHOP, "window-lsq"): ["0x1.fa45860000000p+30", "0x1.7458580000000p+31"],
}


@pytest.mark.parametrize("mode", [FP32_NEAREST, FP32_CHOP])
@pytest.mark.parametrize("method", ["two-point", "window-lsq"])
def test_node_estimate_low_precision_paths(mode, method):
    node = make_node(
        scheme=CONVENTIONAL_ONEWAY, node_precision=mode, node_method=method
    )
    # exactly representable single-precision values: the fit is exact
    node.on_beacon(beacon(1000.0, 1), 2000)
    node.on_beacon(beacon(2000.0, 2), 4000)
    estimate = node.node_estimate(6000.0)
    assert isinstance(estimate, float)
    assert math.isclose(estimate, 3000.0, rel_tol=1e-6)

    # beacon stamps single precision cannot hold: every rounding shows, so
    # the estimates are pinned bit for bit
    node = make_node(
        scheme=CONVENTIONAL_ONEWAY, node_precision=mode, node_method=method
    )
    node.on_beacon(beacon(123_456_789.0, 1), 123_400_001)
    node.on_beacon(beacon(1_123_457_013.0, 2), 1_123_400_003)
    node.on_beacon(beacon(2_123_457_241.0, 3), 2_123_400_007)
    estimates = [node.node_estimate(t) for t in (2_123_400_007.0, 3_123_400_011.0)]
    assert [e.hex() for e in estimates] == EXACT_NODE_ESTIMATES[mode, method]


def reference_fit(method, mode, pairs):
    """The fit of a node's last pairs, computed apart from the node: the
    least-squares solution of ``lsq_fit`` in fp64, the centered fit on the
    mode's table in fp32, or the interpolation of the latest two."""
    arithmetic = OPERATORS if mode == FP64 else ROUNDED[mode]
    if method == "two-point":
        if len(pairs) < 2:
            raise InsufficientDataError("two-point needs 2 pairs")
        return interpolate_params(*pairs[-2:], arithmetic)
    if mode == FP64:
        return lsq_fit(pairs)
    return ClockParams(*centered_fit(
        [p.t_parent for p in pairs], [p.t_child for p in pairs], arithmetic
    ))


def estimate_outcome(estimate) -> str | None:
    """``float.hex`` of an estimate, None before the first good fit, or the
    name of the error it raises."""
    try:
        value = estimate()
    except ArithmeticError as exc:
        return type(exc).__name__
    return None if value is None else float(value).hex()


# (generation, embedded send stamp, receive time in ns, local time to read the
# estimate at or None): generations repeat and go stale, and a few stamps are
# far enough out that a refit fails in single precision
beacon_streams = st.lists(
    st.tuples(
        st.integers(1, 12),
        st.one_of(st.floats(0.0, 2e10), st.sampled_from([1e20, 3e38])),
        st.one_of(st.integers(0, 2 * 10**10), st.just(10**21)),
        st.one_of(st.none(), st.floats(0.0, 2e10)),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["two-point", "window-lsq"]),
    st.integers(2, 10),
    st.sampled_from([FP64, FP32_NEAREST, FP32_CHOP]),
    beacon_streams,
)
# a good fit, then a refit from a stale-looking pair that gives a negative ratio
@example("window-lsq", 2, FP32_CHOP, [(1, 1e9, 10**9, None), (2, 2e9, 2 * 10**9, 3e9),
                                      (3, 1.5e9, 3 * 10**9, 4e9)])
# a good fit, then a refit whose squares overflow single precision
@example("window-lsq", 3, FP32_NEAREST, [(1, 1e9, 10**9, None), (2, 2e9, 2 * 10**9, 3e9),
                                         (3, 3e9, 10**21, 4e9)])
def test_node_estimate_is_the_fit_of_its_last_unique_pairs(method, window, precision, stream):
    # the node's beacon link against a model: pairs of new generations only,
    # the last ``window`` of them (two for two-point) refitted lazily when
    # an estimate is read, and a failed refit keeps the last good fit
    node = make_node(scheme=CONVENTIONAL_ONEWAY, node_precision=precision,
                     node_method=method, node_window=window)
    mode = {FP64: FP64, FP32_NEAREST: NEAREST, FP32_CHOP: CHOP}[precision]
    arithmetic = OPERATORS if mode == FP64 else ROUNDED[mode]
    number = arithmetic.number
    pairs, fit, dirty = [], None, False
    for generation, sent, received, local in stream:
        new = not pairs or generation > pairs[-1].sync_index
        assert node.on_beacon(beacon(sent, generation), received) == new
        if new:
            pairs.append(TimestampPair(number(sent), number(float(received)), generation))
            dirty = True
        if local is None:
            continue
        if dirty:
            dirty = False
            try:
                fit = reference_fit(method, mode, pairs[-window:])
            except (EstimationError, ArithmeticError):
                pass  # the last good fit stays
        expected = estimate_outcome(
            lambda: None if fit is None else logical_time(fit, number(local), arithmetic)
        )
        assert estimate_outcome(lambda: node.node_estimate(local)) == expected


def test_measurement_frame_and_forwarding():
    node = make_node(scheme=CONVENTIONAL_ONEWAY, level=2)
    assert node.build_measurement_frame(0) is None
    node.record_measurement(1000, value=5)
    frame = node.build_measurement_frame(2000)
    assert frame.kind == MEASUREMENT and frame.send_stamp is None
    assert not node.records

    relay = make_node(scheme=CONVENTIONAL_ONEWAY, level=1, children=(2,))
    forwarded = relay.build_forward(frame.bundle)
    assert forwarded.src == relay.node_id and forwarded.dst == relay.parent
    assert forwarded.bundle == frame.bundle


def test_two_way_exchange_frames():
    sensor = make_node(scheme=CONVENTIONAL_TWOWAY)
    request = sensor.build_request(1_000_000)
    assert request.kind == REQUEST and request.send_stamp is not None
    assert request.sync_index == 1

    head = make_node(scheme=CONVENTIONAL_TWOWAY, level=0, children=(1,))
    rx_stamp = head.stamp("receive", 1_500_000)
    response = head.build_response(request, rx_stamp, 2_000_000)
    assert response.kind == RESPONSE
    assert response.dst == request.src
    assert response.sync_index == request.sync_index
    assert response.extra_stamps == (rx_stamp,)
    assert response.size_bytes == 13


def test_counts_bookkeeping():
    node = make_node()
    report = Message(kind=REPORT, src=1, dst=0, send_stamp=1.0, sync_index=1)
    meas = Message(kind=MEASUREMENT, src=2, dst=1)
    node.note_tx(report, airtime_s=0.001)
    node.note_tx(meas, airtime_s=0.002)
    node.note_rx(meas, airtime_s=0.003)
    assert node.counts[REPORT] == [1, 0]
    assert node.counts[MEASUREMENT] == [1, 1]
    assert math.isclose(node.tx_seconds, 0.003)
    assert math.isclose(node.rx_seconds, 0.003)
