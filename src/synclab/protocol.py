"""Frame formats and per-node protocol state for the synchronization schemes.

Four schemes share one node model:

* ``reverse-oneway``: beaconless.  Sensors send measurement reports up the
  tree; every upward frame carries the sender's send-SFD timestamp, the
  receiving parent takes its own receive-SFD timestamp, and the resulting
  timestamp pairs ride existing upward frames to the head, which estimates
  every link's clock and translates measurement timestamps.  Sensors never
  listen for sync traffic.
* ``conventional-oneway``: the head floods reference beacons every sync
  interval; sensors estimate reference time locally from (embedded send
  stamp, own receive stamp) pairs and translate their own measurement
  timestamps before reporting them.
* ``conventional-twoway`` and ``reverse-twoway``: request/response baselines
  kept at message-flow and counting fidelity (their measurement records reach
  the head untranslated).

Frame layout used for size accounting: header 5 B (kind 1, src 2, dst 2);
every timestamp 4 B; every measurement record 8 B (origin 2, timestamp 4,
value 2); every forwarded timestamp pair 2 x 4 B.  A sync-bearing frame
additionally carries its sender's send timestamp as one 4 B field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clock import ClockParams, HardwareClock
from .estimators import (
    RegressionWindow,
    TimestampPair,
    TWO_POINT,
    WINDOW_LSQ,
    interpolate_params,
    logical_time,
    lsq_fit,
    EstimationError,
)
from .precision import CHOP, NEAREST, Float32Emu, convert_timestamps

REVERSE_ONEWAY = "reverse-oneway"
REVERSE_TWOWAY = "reverse-twoway"
CONVENTIONAL_ONEWAY = "conventional-oneway"
CONVENTIONAL_TWOWAY = "conventional-twoway"
SCHEMES = (
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
)

BEACON = "beacon"
REQUEST = "request"
RESPONSE = "response"
REPORT = "report"
MEASUREMENT = "measurement"
KINDS = (BEACON, REQUEST, RESPONSE, REPORT, MEASUREMENT)

HEAD = "head"
GATEWAY = "gateway"
LEAF = "leaf"

BUNDLE_NONE = "none"
BUNDLE_SELF = "self"
BUNDLE_ALL = "all"
BUNDLING_MODES = (BUNDLE_NONE, BUNDLE_SELF, BUNDLE_ALL)

FP64 = "fp64"
FP32_NEAREST = "fp32-nearest"
FP32_CHOP = "fp32-chop"
PRECISION_MODES = (FP64, FP32_NEAREST, FP32_CHOP)
_ROUNDING = {FP32_NEAREST: NEAREST, FP32_CHOP: CHOP}

ALWAYS_ON = "always-on"
LPL = "lpl"
SCHEDULED_WAKE = "scheduled-wake"
RADIO_SCHEDULES = (ALWAYS_ON, LPL, SCHEDULED_WAKE)

BROADCAST = -1

HEADER_BYTES = 5
TIMESTAMP_BYTES = 4
RECORD_BYTES = 8

SEND = "send"
RECEIVE = "receive"

MS = 1_000_000  # ns per millisecond


@dataclass(frozen=True)
class MeasurementRecord:
    """One sensed sample: who measured it, when (locally), and the payload.

    ``est_ticks`` is the node-local translation to reference time, filled
    only by schemes that estimate at the sensor (conventional one-way).
    """

    origin: int
    seq: int
    local_ticks: float
    value: int
    est_ticks: float | None = None


@dataclass(frozen=True)
class HopRecord:
    """A forwarded timestamp pair: one sync sample for the link at ``layer``.

    ``origin`` is the child whose clock produced ``t_child``; ``layer`` is
    that child's hop level, so the pair parameterizes the map between layer
    and layer-1 clocks.
    """

    origin: int
    layer: int
    t_child: float
    t_parent: float
    sync_index: int

    def pair(self) -> TimestampPair:
        return TimestampPair(self.t_child, self.t_parent, self.sync_index)


@dataclass(frozen=True)
class Message:
    """A radio frame.  Fields that are unset do not occupy wire bytes."""

    kind: str
    src: int
    dst: int
    send_stamp: float | None = None
    sync_index: int | None = None
    hop_records: tuple[HopRecord, ...] = ()
    bundle: tuple[MeasurementRecord, ...] = ()
    extra_stamps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")

    @property
    def sync_bearing(self) -> bool:
        return self.send_stamp is not None

    @property
    def size_bytes(self) -> int:
        size = HEADER_BYTES
        if self.send_stamp is not None:
            size += TIMESTAMP_BYTES
        size += TIMESTAMP_BYTES * len(self.extra_stamps)
        size += 2 * TIMESTAMP_BYTES * len(self.hop_records)
        size += RECORD_BYTES * len(self.bundle)
        return size


class JitterModel:
    """Symmetric uniform SFD timestamping jitter, per side.

    Send and receive draws come from independent streams so the two ends of
    a link never share randomness.  ``width_ns == 0`` is deterministic.
    """

    def __init__(
        self,
        width_ns: int,
        rng_send: np.random.Generator | None = None,
        rng_recv: np.random.Generator | None = None,
    ) -> None:
        if width_ns < 0:
            raise ValueError("jitter width must be non-negative")
        if width_ns > 0 and (rng_send is None or rng_recv is None):
            raise ValueError("nonzero jitter needs explicit rng streams")
        self.width_ns = width_ns
        self._rng = {SEND: rng_send, RECEIVE: rng_recv}

    @staticmethod
    def zero() -> "JitterModel":
        return JitterModel(0)

    def sample(self, side: str) -> int:
        if side not in (SEND, RECEIVE):
            raise ValueError(f"unknown SFD side {side!r}")
        if self.width_ns == 0:
            return 0
        rng = self._rng[side]
        return int(rng.integers(-self.width_ns, self.width_ns + 1))


def sfd_timestamp(side: str, clock: HardwareClock, t: int, jitter: JitterModel):
    """Local timestamp latched at a frame's SFD, including interrupt jitter."""
    return clock.read(t + jitter.sample(side))


@dataclass(frozen=True)
class SchemeConfig:
    """Protocol parameters for one run.

    ``report_interval_ns=None`` sends reverse-scheme reports immediately per
    filled measurement bundle; a value schedules reports on that period, and
    a scheduled report with an empty buffer is emitted as a timestamp-only
    frame only if at least one sync interval passed since the node's last
    sync-bearing transmission.
    """

    scheme: str
    si_ns: int
    measurement_interval_ns: int
    report_interval_ns: int | None = None
    bundling: str = BUNDLE_NONE
    bundle_size: int = 1
    head_method: str = WINDOW_LSQ
    head_window: int | None = 19
    node_method: str = TWO_POINT
    node_window: int = 8
    node_precision: str = FP64
    epoch_ns: int = 10 * MS
    measurement_offset_ns: int = 50 * MS
    report_offset_ns: int = 100 * MS
    report_stagger_ns: int = 10 * MS
    send_setup_ns: int = 1 * MS
    forward_delay_ns: int = 1 * MS
    response_delay_ns: int = 1 * MS

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.si_ns <= 0 or self.measurement_interval_ns <= 0:
            raise ValueError("intervals must be positive")
        if self.report_interval_ns is not None and self.report_interval_ns <= 0:
            raise ValueError("report interval must be positive or None")
        if self.bundling not in BUNDLING_MODES:
            raise ValueError(f"unknown bundling mode {self.bundling!r}")
        if self.bundle_size < 1:
            raise ValueError("bundle size must be at least 1")
        if self.node_precision not in PRECISION_MODES:
            raise ValueError(f"unknown node precision {self.node_precision!r}")
        if self.node_method not in (TWO_POINT, WINDOW_LSQ):
            raise ValueError(f"unknown node estimator {self.node_method!r}")


@dataclass(frozen=True)
class RadioConfig:
    """Radio bit rate and duty-cycle schedule (drives energy accounting)."""

    bitrate_bps: int = 250_000
    schedule: str = SCHEDULED_WAKE
    lpl_duty: float = 0.05

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.schedule not in RADIO_SCHEDULES:
            raise ValueError(f"unknown radio schedule {self.schedule!r}")
        if not 0.0 < self.lpl_duty <= 1.0:
            raise ValueError("lpl duty must be in (0, 1]")

    def airtime_s(self, message: Message) -> float:
        return message.size_bytes * 8 / self.bitrate_bps


def default_radio_schedule(scheme: str) -> str:
    """Reverse schemes duty-cycle the radio; conventional ones listen always."""
    if scheme in (REVERSE_ONEWAY, REVERSE_TWOWAY):
        return SCHEDULED_WAKE
    return ALWAYS_ON


class NodeState:
    """Protocol state of one node.

    Builds and consumes frames; knows its static place in the tree (parent,
    children, hop level) but nothing about event scheduling or links.  The
    engine routes frames and calls these methods at the right times.
    """

    def __init__(
        self,
        node_id: int,
        level: int,
        parent: int | None,
        children: tuple[int, ...],
        clock: HardwareClock,
        jitter: JitterModel,
        cfg: SchemeConfig,
    ) -> None:
        self.node_id = node_id
        self.level = level
        self.parent = parent
        self.children = children
        self.clock = clock
        self.jitter = jitter
        self.cfg = cfg
        if level == 0:
            self.role = HEAD
        elif children:
            self.role = GATEWAY
        else:
            self.role = LEAF
        self.records: list[MeasurementRecord] = []
        self.pending_pairs: list[HopRecord] = []
        self.sync_counter = 0
        self.record_seq = 0
        self.last_sync_tx_ns: int | None = None
        self.counts: dict[str, list[int]] = {}
        self.tx_seconds = 0.0
        self.rx_seconds = 0.0
        # node-side sync state (conventional one-way)
        self.beacon_window = RegressionWindow(max(2, cfg.node_window))
        self._node_fit = None
        self._node_dirty = True

    # -- bookkeeping ------------------------------------------------------

    def note_tx(self, message: Message, airtime_s: float) -> None:
        self.counts.setdefault(message.kind, [0, 0])[0] += 1
        self.tx_seconds += airtime_s

    def note_rx(self, message: Message, airtime_s: float) -> None:
        self.counts.setdefault(message.kind, [0, 0])[1] += 1
        self.rx_seconds += airtime_s

    def tx_total(self) -> int:
        return sum(v[0] for v in self.counts.values())

    def rx_total(self) -> int:
        return sum(v[1] for v in self.counts.values())

    def stamp(self, side: str, t: int):
        return sfd_timestamp(side, self.clock, t, self.jitter)

    def _next_sync_index(self) -> int:
        self.sync_counter += 1
        return self.sync_counter

    # -- measurements ------------------------------------------------------

    def record_measurement(self, t: int, value: int) -> MeasurementRecord:
        """Sense one sample at simulation time ``t`` and buffer it."""
        ticks = self.clock.read(t)
        est = None
        if self.cfg.scheme == CONVENTIONAL_ONEWAY:
            est = self.node_estimate(ticks)
        self.record_seq += 1
        record = MeasurementRecord(self.node_id, self.record_seq, ticks, value, est)
        self.records.append(record)
        return record

    # -- reverse (beaconless) scheme ----------------------------------------

    def build_report(self, t: int, scheduled: bool) -> Message | None:
        """Upward report: buffered records, pending pairs, own send stamp.

        A scheduled report with nothing to carry becomes a timestamp-only
        frame, gated so sync-bearing transmissions stay at least one sync
        interval apart.
        """
        if self.parent is None:
            raise EstimationError("the head has no parent to report to")
        if not self.records and not self.pending_pairs and scheduled:
            if (
                self.last_sync_tx_ns is not None
                and t - self.last_sync_tx_ns < self.cfg.si_ns
            ):
                return None
        records = tuple(self.records)
        pairs = tuple(self.pending_pairs)
        self.records.clear()
        self.pending_pairs.clear()
        message = Message(
            kind=REPORT,
            src=self.node_id,
            dst=self.parent,
            send_stamp=self.stamp(SEND, t),
            sync_index=self._next_sync_index(),
            hop_records=pairs,
            bundle=records,
        )
        self.last_sync_tx_ns = t
        return message

    def build_relay(self, records: tuple[MeasurementRecord, ...], t: int) -> Message:
        """Forward another node's records upward as a separate frame.

        The relay is itself sync-bearing (the radio stamps every frame), and
        it opportunistically drains the pending pair buffer.
        """
        if self.parent is None:
            raise EstimationError("the head does not relay")
        pairs = tuple(self.pending_pairs)
        self.pending_pairs.clear()
        message = Message(
            kind=REPORT,
            src=self.node_id,
            dst=self.parent,
            send_stamp=self.stamp(SEND, t),
            sync_index=self._next_sync_index(),
            hop_records=pairs,
            bundle=records,
        )
        self.last_sync_tx_ns = t
        return message

    def receive_sync_frame(
        self, message: Message, t: int, child_level: int
    ) -> HopRecord:
        """Stamp an upward sync-bearing frame and form the new pair.

        The pair binds the child's embedded send stamp to this node's receive
        stamp and is tagged with the child's layer.
        """
        if message.send_stamp is None or message.sync_index is None:
            raise ValueError("frame carries no sync data")
        return HopRecord(
            origin=message.src,
            layer=child_level,
            t_child=message.send_stamp,
            t_parent=self.stamp(RECEIVE, t),
            sync_index=message.sync_index,
        )

    # -- conventional one-way (flooding) scheme ------------------------------

    def build_beacon(self, t: int, generation: int) -> Message:
        """Head-side reference beacon with the embedded send stamp."""
        return Message(
            kind=BEACON,
            src=self.node_id,
            dst=BROADCAST,
            send_stamp=self.stamp(SEND, t),
            sync_index=generation,
        )

    def build_rebroadcast(self, t: int, generation: int) -> Message | None:
        """Re-flood a beacon generation with this node's reference estimate.

        Unsynchronized nodes stay silent, so the flood reaches layer j+1 only
        once layer j has bootstrapped.
        """
        raw = self.stamp(SEND, t)
        est = self.node_estimate(raw)
        if est is None:
            return None
        embedded = est if self.clock.tick_ns is None else round(est)
        return Message(
            kind=BEACON,
            src=self.node_id,
            dst=BROADCAST,
            send_stamp=embedded,
            sync_index=generation,
        )

    def on_beacon(self, message: Message, t: int) -> bool:
        """Record a beacon's (embedded stamp, own receive stamp) pair."""
        if message.send_stamp is None or message.sync_index is None:
            raise ValueError("beacon carries no sync data")
        own = self.stamp(RECEIVE, t)
        added = self.beacon_window.push(
            TimestampPair(
                t_child=message.send_stamp,
                t_parent=own,
                sync_index=message.sync_index,
            )
        )
        if added:
            self._node_dirty = True
        return added

    def node_estimate(self, local_ticks) -> float | None:
        """Node-local reference-time estimate for a local timestamp.

        Fits reference-on-own-clock from received beacon pairs, under the
        configured arithmetic fidelity.  Returns None before bootstrap.
        """
        pairs = self.beacon_window.pairs
        if len(pairs) < 2:
            return None
        if self._node_dirty:
            self._node_fit = self._fit_node_params(pairs)
            self._node_dirty = False
        return float(logical_time(self._node_fit, self._node_number(local_ticks)))

    def _node_number(self, value):
        """A timestamp as the node's arithmetic holds it."""
        if self.cfg.node_precision == FP64:
            return float(value)
        return Float32Emu.from_number(float(value), _ROUNDING[self.cfg.node_precision])

    def _fit_node_params(self, pairs) -> ClockParams:
        two_point = self.cfg.node_method == TWO_POINT
        if two_point:
            pairs = pairs[-2:]
        if self.cfg.node_precision != FP64:
            pairs = [convert_timestamps(p, self._node_number) for p in pairs]
        return interpolate_params(*pairs) if two_point else lsq_fit(pairs)

    def build_measurement_frame(self, t: int) -> Message | None:
        """Standalone upward measurement frame (conventional schemes)."""
        if self.parent is None:
            raise EstimationError("the head has no parent to report to")
        if not self.records:
            return None
        records = tuple(self.records)
        self.records.clear()
        return Message(
            kind=MEASUREMENT, src=self.node_id, dst=self.parent, bundle=records
        )

    def build_forward(self, message: Message) -> Message:
        """Relay a measurement frame one hop up, payload unchanged."""
        if self.parent is None:
            raise EstimationError("the head does not forward")
        return Message(
            kind=MEASUREMENT, src=self.node_id, dst=self.parent, bundle=message.bundle
        )

    # -- two-way baselines ---------------------------------------------------

    def build_request(self, t: int) -> Message:
        if self.parent is None:
            raise EstimationError("the head does not request")
        return Message(
            kind=REQUEST,
            src=self.node_id,
            dst=self.parent,
            send_stamp=self.stamp(SEND, t),
            sync_index=self._next_sync_index(),
        )

    def build_response(self, request: Message, request_rx_stamp, t: int) -> Message:
        return Message(
            kind=RESPONSE,
            src=self.node_id,
            dst=request.src,
            send_stamp=self.stamp(SEND, t),
            sync_index=request.sync_index,
            extra_stamps=(request_rx_stamp,),
        )
