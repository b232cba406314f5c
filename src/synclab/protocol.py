"""Frame formats and per-node protocol state for the synchronization schemes.

Four schemes share one node model; :data:`SCHEME_RULES` says what each does:

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
  kept at message-flow and counting fidelity.

Frame layout used for size accounting: header 5 B (kind 1, src 2, dst 2);
every timestamp 4 B; every measurement record 8 B (origin 2, timestamp 4,
value 2); every forwarded timestamp pair 2 x 4 B.  A sync-bearing frame
additionally carries its sender's send timestamp as one 4 B field.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .clock import HardwareClock
from .estimators import OPERATORS, EstimationError, TimestampPair, logical_time, new_link
from .precision import CHOP, NEAREST, ROUNDED

if TYPE_CHECKING:
    from .config import RunConfig

REVERSE_ONEWAY = "reverse-oneway"
REVERSE_TWOWAY = "reverse-twoway"
CONVENTIONAL_ONEWAY = "conventional-oneway"
CONVENTIONAL_TWOWAY = "conventional-twoway"


@dataclass(frozen=True, kw_only=True)
class SchemeRules:
    """What a scheme makes the nodes and the head do; a rule left out is off."""

    # every upward frame is a sync-bearing report, and the radio duty-cycles
    reports: bool = False
    # the head broadcasts a beacon every SI
    beacons: bool = False
    # each sensor sends a two-way request every SI
    requests: bool = False
    # sensors fit beacon pairs and report their own estimates
    node_fits: bool = False
    # a request/response baseline, single-hop for now
    two_way: bool = False
    # why the head leaves a delivered measurement untranslated; None: it translates
    untranslated: str | None = None


# every other module reads what a scheme does here, not from its name
SCHEME_RULES = {
    REVERSE_ONEWAY: SchemeRules(reports=True),
    REVERSE_TWOWAY: SchemeRules(reports=True, beacons=True, two_way=True, untranslated="scheme"),
    CONVENTIONAL_ONEWAY: SchemeRules(beacons=True, node_fits=True, untranslated="bootstrap"),
    CONVENTIONAL_TWOWAY: SchemeRules(requests=True, two_way=True, untranslated="scheme"),
}
SCHEMES = tuple(SCHEME_RULES)

BEACON = "beacon"
REQUEST = "request"
RESPONSE = "response"
REPORT = "report"
MEASUREMENT = "measurement"
KINDS = (BEACON, REQUEST, RESPONSE, REPORT, MEASUREMENT)

BUNDLE_NONE = "none"
BUNDLE_SELF = "self"
BUNDLE_ALL = "all"
BUNDLING_MODES = (BUNDLE_NONE, BUNDLE_SELF, BUNDLE_ALL)

FP64 = "fp64"
FP32_NEAREST = "fp32-nearest"
FP32_CHOP = "fp32-chop"
PRECISION_MODES = (FP64, FP32_NEAREST, FP32_CHOP)
# a node's arithmetic: Python's operators under fp64, its mode's ROUNDED table
# of plain floats under fp32 (plain functions, so no reference cycle)
_ARITHMETIC = {FP64: OPERATORS, FP32_NEAREST: ROUNDED[NEAREST], FP32_CHOP: ROUNDED[CHOP]}

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

# Event timing shared by every run (ns).  The first beacon, request or SFD
# stamp falls at EPOCH_NS; measurements start MEASUREMENT_OFFSET_NS later and
# scheduled reports REPORT_OFFSET_NS later, deeper nodes REPORT_STAGGER_NS
# earlier per level so a wave climbs the chain in one pass.
EPOCH_NS = 10 * MS
MEASUREMENT_OFFSET_NS = 50 * MS
REPORT_OFFSET_NS = 100 * MS
REPORT_STAGGER_NS = 10 * MS
SEND_SETUP_NS = 1 * MS
FORWARD_DELAY_NS = 1 * MS
RESPONSE_DELAY_NS = 1 * MS

JITTER_BLOCK = 256
"""SFD jitter values each side draws per generator call."""


class MeasurementRecord(NamedTuple):
    """One sensed sample: who measured it, when (locally), and the payload.

    ``est_ticks`` is the node-local translation to reference time, filled
    only by schemes that estimate at the sensor (conventional one-way).
    """

    origin: int
    seq: int
    local_ticks: float
    value: int
    est_ticks: float | None = None


class HopRecord(NamedTuple):
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


class Message(namedtuple(
    "Message", "kind src dst send_stamp sync_index hop_records bundle extra_stamps",
    defaults=(None, None, (), (), ()),
)):
    """A radio frame.  Fields that are unset do not occupy wire bytes.

    Frames and the records they carry are immutable tuple records, as a run
    builds one per hop.  The base is a plain ``namedtuple``: a
    ``typing.NamedTuple`` allows no ``__init__`` to check the kind in.
    ``_make`` bypasses ``__init__``, so it checks the kind too; ``_replace``
    (and ``copy.replace``) build their frame through ``_make``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")

    @classmethod
    def _make(cls, iterable) -> "Message":
        message = super()._make(iterable)
        message.__init__()
        return message

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

    Each side's generator draws ``JITTER_BLOCK`` values at a time with one
    ``integers(-w, w + 1, size=...)`` call and hands them out as Python ints
    in order.  With numpy's PCG64 a block is the same sequence as that many
    scalar ``integers(-w, w + 1)`` calls, and a jitter generator feeds
    nothing else, so drawing ahead changes no value a run sees.
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
        # per side: the current block, reversed so that pop() yields in order
        self._ahead: dict[str, list[int]] = {SEND: [], RECEIVE: []}

    @staticmethod
    def zero() -> "JitterModel":
        return JitterModel(0)

    def sample(self, side: str) -> int:
        ahead = self._ahead.get(side)
        if ahead is None:
            raise ValueError(f"unknown SFD side {side!r}")
        if self.width_ns == 0:
            return 0
        if not ahead:
            w = self.width_ns
            block = self._rng[side].integers(-w, w + 1, size=JITTER_BLOCK)
            ahead.extend(block.tolist()[::-1])
        return ahead.pop()


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
    return SCHEDULED_WAKE if SCHEME_RULES[scheme].reports else ALWAYS_ON


class NodeState:
    """Protocol state of one node.

    Builds and consumes frames; knows its static place in the tree (parent,
    children, hop level) but nothing about event scheduling or links.  The
    engine routes frames and calls these methods at the right times.  What
    the run's configuration makes a node do is decided once, in ``__init__``.
    """

    def __init__(
        self,
        node_id: int,
        level: int,
        parent: int | None,
        children: tuple[int, ...],
        clock: HardwareClock,
        jitter: JitterModel,
        cfg: RunConfig,
    ) -> None:
        self.node_id = node_id
        self.level = level
        self.parent = parent
        self.children = children
        self.clock = clock
        self.jitter = jitter
        self.si_ns = cfg.si_ns
        self.records: list[MeasurementRecord] = []
        self.pending_pairs: list[HopRecord] = []
        self.sync_counter = 0
        self.record_seq = 0
        self.last_sync_tx_ns: int | None = None
        self.counts: dict[str, list[int]] = {}
        self.tx_seconds = 0.0
        self.rx_seconds = 0.0
        self._estimates = SCHEME_RULES[cfg.scheme].node_fits
        # its beacon pairs go into the head's link type, in its arithmetic
        self.beacon_link = new_link(
            cfg.node_method, cfg.node_window, _ARITHMETIC[cfg.node_precision]
        )

    # -- bookkeeping ------------------------------------------------------

    def note_tx(self, message: Message, airtime_s: float) -> None:
        count = self.counts.get(message.kind) or self.counts.setdefault(message.kind, [0, 0])
        count[0] += 1
        self.tx_seconds += airtime_s

    def note_rx(self, message: Message, airtime_s: float) -> None:
        count = self.counts.get(message.kind) or self.counts.setdefault(message.kind, [0, 0])
        count[1] += 1
        self.rx_seconds += airtime_s

    def stamp(self, side: str, t: int):
        """Local timestamp latched at a frame's SFD, including interrupt jitter."""
        return self.clock.read(t + self.jitter.sample(side))

    def _next_sync_index(self) -> int:
        self.sync_counter += 1
        return self.sync_counter

    # -- measurements ------------------------------------------------------

    def record_measurement(self, t: int, value: int) -> MeasurementRecord:
        """Sense one sample at simulation time ``t`` and buffer it."""
        ticks = self.clock.read(t)
        est = self.node_estimate(ticks) if self._estimates else None
        self.record_seq += 1
        record = MeasurementRecord(self.node_id, self.record_seq, ticks, value, est)
        self.records.append(record)
        return record

    # -- reverse (beaconless) scheme ----------------------------------------

    def build_report(self, t: int, scheduled: bool) -> Message | None:
        """Upward report: the node's own buffered records, built by
        :meth:`build_relay`.

        A scheduled report with nothing to carry becomes a timestamp-only
        frame, gated so sync-bearing transmissions stay at least one sync
        interval apart.
        """
        if (
            scheduled
            and not self.records
            and not self.pending_pairs
            and self.last_sync_tx_ns is not None
            and t - self.last_sync_tx_ns < self.si_ns
        ):
            return None
        records = tuple(self.records)
        self.records.clear()
        return self.build_relay(records, t)

    def build_relay(self, records: tuple[MeasurementRecord, ...], t: int) -> Message:
        """Send records upward in a report: the node's own, or a child's.

        Every report is sync-bearing (the radio stamps every frame), and it
        drains the pending pair buffer.
        """
        if self.parent is None:
            raise EstimationError("the head has no parent to report to")
        pairs = tuple(self.pending_pairs)
        self.pending_pairs.clear()
        # positional, as keywords cost a tuple record a dict per frame:
        # kind, src, dst, send_stamp, sync_index, hop_records, bundle
        message = Message(
            REPORT, self.node_id, self.parent,
            self.stamp(SEND, t), self._next_sync_index(), pairs, records,
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
            message.src, child_level, message.send_stamp,
            self.stamp(RECEIVE, t), message.sync_index,
        )

    # -- conventional one-way (flooding) scheme ------------------------------

    def build_beacon(self, t: int) -> Message:
        """Head-side reference beacon with the embedded send stamp; beacon
        generations are numbered by the head's sync counter."""
        # positional, as in build_relay: kind, src, dst, send_stamp, sync_index
        return Message(
            BEACON, self.node_id, BROADCAST, self.stamp(SEND, t), self._next_sync_index()
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
        # kind, src, dst, send_stamp, sync_index
        return Message(BEACON, self.node_id, BROADCAST, embedded, generation)

    def on_beacon(self, message: Message, t: int) -> bool:
        """Record a beacon's (embedded stamp, own receive stamp) pair.

        The pair enters ``beacon_link`` as the node's arithmetic holds it:
        raw stamps under fp64, rounded into the mode once, here, under fp32,
        so a refit reads the pairs without converting them again.
        """
        if message.send_stamp is None or message.sync_index is None:
            raise ValueError("beacon carries no sync data")
        link = self.beacon_link
        number = link.arithmetic.number
        # positional: t_child, t_parent, sync_index
        pair = TimestampPair(
            number(message.send_stamp), number(self.stamp(RECEIVE, t)), message.sync_index
        )
        return link.push(pair)

    def node_estimate(self, local_ticks) -> float | None:
        """Node-local reference-time estimate for a local timestamp.

        Fits reference-on-own-clock from received beacon pairs, in the
        node's arithmetic.  A refit that fails (say, a non-positive fp32
        ratio, or a square past the single-precision range) is rejected and
        the last good fit kept.  Returns None before the first good fit.
        """
        link = self.beacon_link
        if not link.current():
            return None
        arithmetic = link.arithmetic
        return logical_time(link, arithmetic.number(local_ticks), arithmetic)

    def build_measurement_frame(self, t: int) -> Message | None:
        """Upward measurement frame of the node's own buffered records
        (conventional schemes), built by :meth:`build_forward`."""
        if self.parent is None:
            raise EstimationError("the head has no parent to report to")
        if not self.records:
            return None
        records = tuple(self.records)
        self.records.clear()
        return self.build_forward(records)

    def build_forward(self, records: tuple[MeasurementRecord, ...]) -> Message:
        """Send records one hop up in a measurement frame: the node's own, or
        a child's, unchanged."""
        if self.parent is None:
            raise EstimationError("the head does not forward")
        # kind, src, dst, send_stamp, sync_index, hop_records, bundle
        return Message(MEASUREMENT, self.node_id, self.parent, None, None, (), records)

    # -- two-way baselines ---------------------------------------------------

    def build_request(self, t: int) -> Message:
        if self.parent is None:
            raise EstimationError("the head does not request")
        # kind, src, dst, send_stamp, sync_index
        return Message(
            REQUEST, self.node_id, self.parent, self.stamp(SEND, t), self._next_sync_index()
        )

    def build_response(self, request: Message, request_rx_stamp, t: int) -> Message:
        # kind, src, dst, send_stamp, sync_index, hop_records, bundle,
        # extra_stamps
        return Message(
            RESPONSE, self.node_id, request.src, self.stamp(SEND, t),
            request.sync_index, (), (), (request_rx_stamp,),
        )
