"""Deterministic discrete-event simulation of chain networks.

Nodes are :class:`~synclab.protocol.NodeState` machines; the engine routes
frames over links (fixed propagation, optional Bernoulli loss), fires
timers, and records what the head receives as the replayable
:class:`~synclab.trace.RunTrace`, which translates it.  A run takes one of
two paths, chosen when :class:`Engine` is built, from the config alone:

* the event heap, keyed by ``(due, sequence)``, each entry carrying the
  handler that runs it: events at the same nanosecond execute in insertion
  order, so a run is a pure function of its configuration and seed;
* the walk, for a lossless reverse one-way run on a report schedule, where
  no event's time depends on a draw or an earlier outcome: each node takes
  its events in time order from closed-form times, and reads its stamps as
  arrays.  A run where two events at one node may share a nanosecond takes
  the heap, as does any other run; the two paths record the same trace.

What the scheme makes each node do per frame is decided once per run, when
:class:`Engine` is built, from its :data:`~synclab.protocol.SCHEME_RULES`: a
received frame goes through a table from frame kind to handler, and
:meth:`Engine.run` starts the timers the rules name.

Randomness is split into named streams spawned from the run seed (one drift
stream and two SFD-jitter streams per node, plus one loss stream), so event
interleaving can never change which random draw lands where.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .clock import NS_PER_S, ClockConfig, ClockParams, DriftModel
from .config import LinkConfig, RunConfig
from . import protocol
from .protocol import (
    EPOCH_NS,
    FORWARD_DELAY_NS,
    MEASUREMENT_OFFSET_NS,
    REPORT_OFFSET_NS,
    REPORT_STAGGER_NS,
    RESPONSE_DELAY_NS,
    SEND_SETUP_NS,
    RECEIVE,
    SEND,
    Message,
    NodeState,
    JitterModel,
)
from .trace import PAIR_BUCKETS, RECORD_BUCKETS, HeadEvents, RunTrace


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
    level: int
    parent: int | None
    children: tuple[int, ...]
    params: ClockParams


@dataclass(frozen=True)
class Topology:
    """A static tree (chains in practice): node specs plus shared configs."""

    nodes: dict[int, NodeSpec]
    clock: ClockConfig
    link: LinkConfig
    head_id: int = 0

    @property
    def hops(self) -> int:
        return max(spec.level for spec in self.nodes.values())

    def sensor_ids(self) -> tuple[int, ...]:
        return tuple(
            sorted(n for n, spec in self.nodes.items() if spec.level > 0)
        )

    def chain_to(self, origin: int) -> tuple[int, ...]:
        """Ancestor chain from the head-adjacent node down to ``origin``."""
        chain: list[int] = []
        node = origin
        while node != self.head_id:
            chain.append(node)
            parent = self.nodes[node].parent
            if parent is None:
                raise ValueError(f"node {origin} is not connected to the head")
            node = parent
        chain.reverse()
        return tuple(chain)


def build_chain(
    hops: int,
    clock: ClockConfig | None = None,
    link: LinkConfig | None = None,
    seed: int = 0,
) -> Topology:
    """A head plus ``hops`` sensor nodes in a line, clocks drawn from ``seed``.

    Node ids equal hop levels (head is 0); the head gets identity clock
    parameters, sensors draw theirs from the clock config ranges.
    """
    if hops < 1:
        raise ValueError("a chain needs at least one hop")
    clock = clock or ClockConfig()
    link = link or LinkConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    nodes: dict[int, NodeSpec] = {}
    for node_id in range(hops + 1):
        params = ClockParams(1.0, 0.0) if node_id == 0 else clock.draw_params(rng)
        parent = None if node_id == 0 else node_id - 1
        children = (node_id + 1,) if node_id < hops else ()
        nodes[node_id] = NodeSpec(node_id, node_id, parent, children, params)
    return Topology(nodes=nodes, clock=clock, link=link)


WALK_BLOCK_NS = 16 * NS_PER_S
"""Simulated time a walked run advances every node through at a time, so
that what the walk holds besides the head events is one block's frames."""

_due = itemgetter(0)


def _report_phase(cfg: RunConfig, level: int) -> int:
    """A sensor's first scheduled report: deeper levels report earlier, so a
    wave climbs the chain in one pass."""
    return EPOCH_NS + REPORT_OFFSET_NS + (cfg.hops - level) * REPORT_STAGGER_NS


def _first_meeting(a: int, p: int, b: int, q: int) -> int | None:
    """The first time at or after both starts of the progressions ``a + i*p``
    and ``b + j*q``, or None where they never meet."""
    g = math.gcd(p, q)
    if (b - a) % g:
        return None
    m = q // g
    t = a + p * ((b - a) // g * pow(p // g, -1, m) % m)
    lcm = p * m
    return t + max(0, -(-(max(a, b) - t) // lcm)) * lcm


def _schedule_ties(cfg: RunConfig, topology: Topology) -> bool:
    """Whether two events of a lossless reverse one-way run with a report
    schedule may fall on one nanosecond at one node.

    Every event there repeats with a fixed period: a sensor's measurements
    every MI from the first, and every RI its report, each frame it would
    receive (a child's report or relay, ``propagation_ns`` after it is sent)
    and, under self bundling, each relay (``FORWARD_DELAY_NS`` after a
    frame arrives).  This counts every report and relay that could happen,
    including ones the timestamp-only gate skips or no records fill, so it
    needs no draw and may decline a run whose events never tie.  Two
    progressions of period RI meet where their first times agree modulo RI;
    the measurements meet another where the two congruences share a
    solution before the horizon.
    """
    horizon, ri, mi = cfg.duration_ns, cfg.report_interval_ns, cfg.measurement_interval_ns
    relays = cfg.bundling != protocol.BUNDLE_ALL
    first_measure = EPOCH_NS + MEASUREMENT_OFFSET_NS
    sends: dict[int, list[int]] = {}
    for spec in sorted(topology.nodes.values(), key=lambda spec: -spec.level):
        arrivals = [s + topology.link.propagation_ns for c in spec.children for s in sends[c]]
        arrivals = [t for t in arrivals if t < horizon]
        sensor = spec.parent is not None
        own = [_report_phase(cfg, spec.level)] if sensor else []
        relayed = [t + FORWARD_DELAY_NS for t in arrivals] if sensor and relays else []
        sends[spec.node_id] = [t for t in own + relayed if t < horizon]
        periodic = sends[spec.node_id] + arrivals
        if len({t % ri for t in periodic}) < len(periodic):
            return True
        if sensor:
            for start in periodic:
                meeting = _first_meeting(first_measure, mi, start, ri)
                if meeting is not None and meeting < horizon:
                    return True
    return False


class Engine:
    """One simulation run: a :class:`~synclab.config.RunConfig` -> RunTrace.

    The config checked itself when it was built, so the engine checks
    nothing again.  ``__init__`` reads the scheme's rules, once: it binds
    one handler per frame kind that does something at its receiver (reports,
    measurement frames, two-way requests, and beacons where sensors fit
    them; any other frame costs its receiver only the reception) and sets
    two plain values the handlers read: whether a sensor's upward frame is a
    report, and whether a gateway merges a child's reported records into its
    own buffer.  No handler compares the scheme or a frame's kind again; the
    head is ``node is self.head``.  The engine records the head's events and
    translates none of them.  ``walks`` says whether :meth:`run` walks the
    run's fixed schedule (see :meth:`_walk`) instead of running the heap.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.rules = rules = protocol.SCHEME_RULES[cfg.scheme]
        topology = build_chain(cfg.hops, cfg.clock, cfg.link, cfg.seed)
        self.topology = topology
        self._levels = {n: spec.level for n, spec in topology.nodes.items()}
        self.cfg = cfg
        self.radio = cfg.radio_config()
        self.link = cfg.link
        base = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,))
        node_ids = sorted(topology.nodes)
        streams = base.spawn(3 * len(node_ids) + 1)
        self.nodes: dict[int, NodeState] = {}
        for i, node_id in enumerate(node_ids):
            spec = topology.nodes[node_id]
            drift_rng = np.random.default_rng(streams[3 * i])
            jitter = (
                JitterModel.zero()
                if self.link.jitter_ns == 0
                else JitterModel(
                    self.link.jitter_ns,
                    np.random.default_rng(streams[3 * i + 1]),
                    np.random.default_rng(streams[3 * i + 2]),
                )
            )
            # the head holds the reference that defines the timescale
            drift = DriftModel.constant() if spec.level == 0 else None
            clock = cfg.clock.build(spec.params, drift_rng, drift=drift)
            self.nodes[node_id] = NodeState(
                node_id, spec.level, spec.parent, spec.children, clock, jitter, cfg
            )
        self.loss_rng = np.random.default_rng(streams[-1])
        self.head = self.nodes[topology.head_id]
        self.chains = {n: topology.chain_to(n) for n in topology.sensor_ids()}
        # plain functions, not bound methods: a table of bound methods would
        # tie the engine into a reference cycle and keep a finished run's
        # whole state alive until the cyclic collector runs
        self._handlers: dict[str, Callable] = {
            protocol.REPORT: Engine._on_report,
            protocol.MEASUREMENT: Engine._on_measurement,
            protocol.REQUEST: Engine._on_request,
        }
        if rules.node_fits:
            self._handlers[protocol.BEACON] = Engine._on_beacon
        self._reports = rules.reports
        # all-data bundling merges a child's reported records into the
        # gateway's buffer; measurement frames are forwarded as they arrived
        self._merge_records = self._reports and cfg.bundling == protocol.BUNDLE_ALL
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self._horizon = cfg.duration_ns
        # true time of each measurement not yet delivered to the head
        self._truth: dict[tuple[int, int], int] = {}
        # the head events' letters and columns: int64 arrays where the config
        # bounds every value (times stay below the horizon; a stamp reach under
        # half of int64 spares a clock read's float rounding), lists past that
        ints = "q" if cfg.duration_ns < 2**63 else None
        stamps = "d" if cfg.clock.tick_ns is None else "q" if cfg.stamp_reach() < 2**62 else None
        self._kinds = bytearray()
        self._tables = HeadEvents.empty_tables(ints, stamps)
        self._pairs = tuple(self._tables["pair"].values())
        self._measurements = tuple(self._tables["measurement"].values())
        # the newest sync index the head took from each origin
        self._newest: dict[int, int] = {}
        self.pair_accounting = dict.fromkeys(PAIR_BUCKETS, 0)
        self.record_accounting = dict.fromkeys(RECORD_BUCKETS, 0)
        self.event_log: list[tuple] | None = [] if cfg.collect_events else None
        # a lossless reverse one-way run on a report schedule is a fixed
        # schedule, walked without the heap where no two events at a node
        # may share a nanosecond (the heap orders those by insertion); loss
        # draws follow the global event order, beacons and requests feed
        # back, a flush on a full bundle is scheduled as the run goes, and the
        # event log needs the global order across nodes
        self.walks = (
            self._reports and not rules.beacons and not rules.requests
            and cfg.link.loss == 0.0 and cfg.report_interval_ns is not None
            and not cfg.collect_events and stamps is not None
            # every clock read's time, jitter included, is an int64
            and cfg.duration_ns + self.link.jitter_ns < 2**63
            and not _schedule_ties(cfg, topology)
        )

    # -- scheduling ---------------------------------------------------------

    def _push(self, due: int, handler: Callable, payload: tuple) -> bool:
        """Queue ``handler(due, *payload)``; events at or past the horizon
        never run.  The unique sequence number orders the heap before the
        handler is ever compared."""
        if due >= self._horizon:
            return False
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, handler, payload))
        return True

    # -- frame handling -----------------------------------------------------

    def _transmit(self, node: NodeState, message: Message, t: int) -> None:
        airtime = self.radio.airtime_s(message)
        node.note_tx(message, airtime)
        if self.event_log is not None:
            self.event_log.append((t, node.node_id, f"tx-{message.kind}"))
        if message.dst == protocol.BROADCAST:
            receivers = node.children
        else:
            receivers = (message.dst,)
        arrival = t + self.link.propagation_ns
        for dst in receivers:
            if self.link.loss > 0.0 and self.loss_rng.random() < self.link.loss:
                self._account_missing(message, "lost")
                continue
            if not self._push(arrival, self._on_frame, (dst, message, airtime)):
                self._account_missing(message, "in_flight")

    def _account_missing(self, message: Message, bucket: str) -> None:
        self.pair_accounting[bucket] += len(message.hop_records)
        self.record_accounting[bucket] += len(message.bundle)

    def _ingest_pairs(self, pairs, t: int) -> None:
        """Take each pair unless its sync index is not newer than the last
        one taken from its origin, the rule every head estimator applies."""
        newest = self._newest
        t_ns, origins, layers, children, parents, indices = self._pairs
        taken = 0
        for origin, layer, t_child, t_parent, sync_index in pairs:
            last = newest.get(origin)
            if last is not None and sync_index <= last:
                self.pair_accounting["duplicates"] += 1
                continue
            newest[origin] = sync_index
            taken += 1
            # one append per column, written out: the engine's hottest appends
            t_ns.append(t)
            origins.append(origin)
            layers.append(layer)
            children.append(t_child)
            parents.append(t_parent)
            indices.append(sync_index)
        self.pair_accounting["ingested"] += taken
        self._kinds += b"p" * taken

    def _deliver_records(self, records, t: int) -> None:
        truth, levels = self._truth, self._levels
        t_ns, origins, origin_levels, seqs, stamps, truths, estimates = self._measurements
        delivered = 0
        for origin, seq, local_ticks, _, est_ticks in records:
            true_ns = truth.pop((origin, seq), None)
            if true_ns is None:
                self.record_accounting["duplicates"] += 1
                continue
            delivered += 1
            t_ns.append(t)
            origins.append(origin)
            origin_levels.append(levels[origin])
            seqs.append(seq)
            stamps.append(local_ticks)
            truths.append(true_ns)
            estimates.append(est_ticks)
        self.record_accounting["delivered"] += delivered
        self._kinds += b"m" * delivered

    def _on_frame(self, t: int, dst_id: int, message: Message, airtime: float) -> None:
        """Receive a frame; ``airtime`` is the sender's, sized once per frame."""
        node = self.nodes[dst_id]
        node.note_rx(message, airtime)
        if self.event_log is not None:
            self.event_log.append((t, dst_id, f"rx-{message.kind}"))
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(self, t, node, message)

    def _on_report(self, t: int, node: NodeState, message: Message) -> None:
        """A report is a measurement frame that also carries sync: stamp it,
        then pass its pairs and records on as the head or a gateway does."""
        if message.src not in node.children:
            self.pair_accounting["unknown_child"] += 1
            return
        pair = node.receive_sync_frame(message, t, self._levels[message.src])
        self.pair_accounting["created"] += 1
        if node is self.head:
            self._ingest_pairs((pair, *message.hop_records), t)
        else:
            node.pending_pairs.append(pair)
            node.pending_pairs.extend(message.hop_records)
        self._on_measurement(t, node, message)

    def _on_measurement(self, t: int, node: NodeState, message: Message) -> None:
        if node is self.head:
            self._deliver_records(message.bundle, t)
        elif self._merge_records:
            node.records.extend(message.bundle)
        elif message.bundle:
            relay = (node.node_id, message.bundle)
            if not self._push(t + FORWARD_DELAY_NS, self._on_relay, relay):
                self.record_accounting["in_flight"] += len(message.bundle)

    def _on_beacon(self, t: int, node: NodeState, message: Message) -> None:
        node.on_beacon(message, t)
        if node.children:
            rebroadcast = (node.node_id, message.sync_index)
            self._push(t + FORWARD_DELAY_NS, self._on_rebroadcast, rebroadcast)

    def _on_request(self, t: int, node: NodeState, message: Message) -> None:
        rx_stamp = node.stamp(protocol.RECEIVE, t)
        response = (node.node_id, message, rx_stamp)
        self._push(t + RESPONSE_DELAY_NS, self._on_respond, response)

    # -- timer handlers -----------------------------------------------------

    def _on_measure(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        record = node.record_measurement(t, value=node.record_seq + 1)
        self._truth[(record.origin, record.seq)] = t
        self.record_accounting["generated"] += 1
        if self.event_log is not None:
            self.event_log.append((t, node_id, "measure"))
        if self.cfg.report_interval_ns is None and len(node.records) >= self.cfg.bundle_size:
            self._push(t + SEND_SETUP_NS, self._on_flush, (node_id, False))
        self._push(t + self.cfg.measurement_interval_ns, self._on_measure, (node_id,))

    def _on_report_timer(self, t: int, node_id: int) -> None:
        self._on_flush(t, node_id, True)
        self._push(t + self.cfg.report_interval_ns, self._on_report_timer, (node_id,))

    def _on_flush(self, t: int, node_id: int, scheduled: bool) -> None:
        """Send a sensor's buffered records upward, on its report timer
        (``scheduled``) or once a bundle fills."""
        node = self.nodes[node_id]
        if self._reports:
            message = node.build_report(t, scheduled)
        else:
            message = node.build_measurement_frame(t)
        if message is not None:
            self._transmit(node, message, t)

    def _on_relay(self, t: int, node_id: int, records: tuple) -> None:
        node = self.nodes[node_id]
        if self._reports:
            message = node.build_relay(records, t)
        else:
            message = node.build_forward(records)
        self._transmit(node, message, t)

    def _on_beacon_timer(self, t: int, node_id: int) -> None:
        self._transmit(self.head, self.head.build_beacon(t), t)
        self._push(t + self.cfg.si_ns, self._on_beacon_timer, (node_id,))

    def _on_rebroadcast(self, t: int, node_id: int, generation: int) -> None:
        node = self.nodes[node_id]
        message = node.build_rebroadcast(t, generation)
        if message is not None:
            self._transmit(node, message, t)

    def _on_request_timer(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        self._transmit(node, node.build_request(t), t)
        self._push(t + self.cfg.si_ns, self._on_request_timer, (node_id,))

    def _on_respond(self, t: int, node_id: int, request: Message, rx_stamp) -> None:
        node = self.nodes[node_id]
        self._transmit(node, node.build_response(request, rx_stamp, t), t)

    def run(self) -> RunTrace:
        if self.walks:
            self._walk()
            return self._finish()
        cfg = self.cfg
        for node_id in self.topology.sensor_ids():
            self._push(EPOCH_NS + MEASUREMENT_OFFSET_NS, self._on_measure, (node_id,))
            if cfg.report_interval_ns is not None:
                phase = _report_phase(cfg, self._levels[node_id])
                self._push(phase, self._on_report_timer, (node_id,))
            if self.rules.requests:
                self._push(EPOCH_NS, self._on_request_timer, (node_id,))
        if self.rules.beacons:
            self._push(EPOCH_NS, self._on_beacon_timer, (self.head.node_id,))

        heap = self._heap
        while heap:
            t, _, handler, payload = heapq.heappop(heap)
            handler(t, *payload)

        return self._finish()

    # -- the walk -----------------------------------------------------------

    def _walk(self) -> None:
        """Run the schedule the heap would, without it.

        No event's time depends on a draw or an earlier outcome, and no two
        events at a node share a nanosecond, so each node can take its own
        events in time order from closed-form times; a node's sends become
        its parent's arrivals, so the nodes go from the deepest level up (a
        chain node has one child, so its inbox fills in time order).
        The run goes in blocks of :data:`WALK_BLOCK_NS`: a frame or relay
        due past a block waits for the next.
        """
        cfg = self.cfg
        specs = sorted(self.topology.nodes.values(), key=lambda spec: -spec.level)
        inbox = {spec.node_id: [] for spec in specs}
        relays = {spec.node_id: [] for spec in specs}
        sensors = [spec for spec in specs if spec.parent is not None]
        measure_at = dict.fromkeys(
            (spec.node_id for spec in sensors), EPOCH_NS + MEASUREMENT_OFFSET_NS)
        report_at = {spec.node_id: _report_phase(cfg, spec.level) for spec in sensors}
        mi, ri = cfg.measurement_interval_ns, cfg.report_interval_ns
        queues = [*inbox.values(), *relays.values()]
        while True:
            # the block that holds the next event: a sparse schedule skips
            # the blocks where nothing happens
            first = min([*measure_at.values(), *report_at.values(),
                         *(queue[0][0] for queue in queues if queue)])
            if first >= self._horizon:
                break
            start = first - first % WALK_BLOCK_NS
            end = min(start + WALK_BLOCK_NS, self._horizon)
            for spec in specs:
                n = spec.node_id
                if spec.parent is None:
                    self._walk_head(inbox[n], end)
                    continue
                measures = range(measure_at[n], end, mi)
                reports = range(report_at[n], end, ri)
                measure_at[n] += len(measures) * mi
                report_at[n] += len(reports) * ri
                self._walk_sensor(
                    self.nodes[n], measures, reports, inbox[n], relays[n],
                    inbox[spec.parent], end,
                )

    def _arrivals(self, node: NodeState, inbox: list, end: int) -> tuple[list, np.ndarray]:
        """The frames reaching ``node`` before ``end``, taken from its inbox,
        and their arrival times."""
        split = bisect_left(inbox, end, key=_due)
        frames = inbox[:split]
        del inbox[:split]
        self.pair_accounting["created"] += len(frames)
        if frames:
            count = node.counts.setdefault(protocol.REPORT, [0, 0])
            count[1] += len(frames)
        return frames, np.array([frame[0] for frame in frames], np.int64)

    def _walk_head(self, inbox: list, end: int) -> None:
        head = self.head
        frames, times = self._arrivals(head, inbox, end)
        stamps = head.clock.read_array(times + head.jitter.sample_many(RECEIVE, len(frames)))
        levels, ingest, deliver = self._levels, self._ingest_pairs, self._deliver_records
        rx_seconds = head.rx_seconds
        for frame, received in zip(frames, stamps.tolist()):
            arrival, airtime, src, stamp, index, pairs, bundle = frame
            rx_seconds += airtime
            ingest(((src, levels[src], stamp, received, index), *pairs), arrival)
            deliver(bundle, arrival)
        head.rx_seconds = rx_seconds

    def _walk_sensor(
        self, node: NodeState, measures: range, reports: range, inbox: list,
        relays: list, out: list, end: int,
    ) -> None:
        """One block of a sensor's events: what ``_on_measure``,
        ``_on_report_timer``, ``_on_report`` and ``_on_relay`` do, in time
        order.  A first pass finds the reports the gate skips, so the node's
        sends are known; then its jitter is drawn and its clock read once for
        every measurement, send and receive of the block."""
        horizon, merge = self._horizon, self._merge_records
        frames, arrival_times = self._arrivals(node, inbox, end)
        if not merge:
            for frame in frames:
                bundle = frame[6]
                if not bundle:
                    continue
                due = frame[0] + FORWARD_DELAY_NS
                if due < horizon:
                    relays.append((due, bundle))
                else:
                    self.record_accounting["in_flight"] += len(bundle)
        split = bisect_left(relays, end, key=_due)
        relayed = relays[:split]
        del relays[:split]
        self.record_accounting["generated"] += len(measures)

        # the block's events in time order, as 4 t + kind: 0 a measurement,
        # 1 a report, 2 an arrival, 3 a relay; each kind's times are in order
        keys = [*range(4 * measures.start, 4 * end, 4 * measures.step),
                *range(4 * reports.start + 1, 4 * end, 4 * reports.step)]
        keys += [4 * frame[0] + 2 for frame in frames]
        keys += [4 * relay[0] + 3 for relay in relayed]
        keys.sort()
        kinds = [key & 3 for key in keys]

        sends, skipped = [], set()
        has_records, has_pairs = bool(node.records), bool(node.pending_pairs)
        last, si = node.last_sync_tx_ns, node.si_ns
        reporting, relaying = iter(reports), iter(relayed)
        for kind in kinds:
            if kind == 0:
                has_records = True
            elif kind == 2:
                # the frame's pair makes the next report go out, and with it
                # any records merged under all bundling (which relays nothing)
                has_pairs = True
            else:
                if kind == 1:
                    t = next(reporting)
                    if not (has_records or has_pairs) and protocol.sync_gated(t, last, si):
                        skipped.add(t)
                        continue
                    has_records = False
                else:
                    t = next(relaying)[0]
                has_pairs, last = False, t
                sends.append(t)

        stamps = node.clock.read_array(np.concatenate((
            np.arange(measures.start, measures.stop, measures.step, dtype=np.int64),
            node.jitter.sample_many(SEND, len(sends)) + np.array(sends, np.int64),
            node.jitter.sample_many(RECEIVE, len(frames)) + arrival_times,
        ))).tolist()
        ticks = iter(stamps[:len(measures)])
        sent = iter(stamps[len(measures):len(measures) + len(sends)])
        received = iter(stamps[len(measures) + len(sends):])
        if sends:
            count = node.counts.setdefault(protocol.REPORT, [0, 0])
            count[0] += len(sends)

        n, levels, truth = node.node_id, self._levels, self._truth
        records, pending = node.records, node.pending_pairs
        seq, index, tx_seconds, rx_seconds = (
            node.record_seq, node.sync_counter, node.tx_seconds, node.rx_seconds)
        airtime_of, delay = self.radio.bytes_airtime_s, self.link.propagation_ns
        measuring, reporting = iter(measures), iter(reports)
        arriving, relaying = iter(frames), iter(relayed)
        lost_pairs = lost_records = 0
        for kind in kinds:
            if kind == 2:
                _, airtime, src, stamp, sync, pairs, bundle = next(arriving)
                rx_seconds += airtime
                pending.append((src, levels[src], stamp, next(received), sync))
                pending.extend(pairs)
                if merge:
                    records.extend(bundle)
                continue
            if kind == 0:
                seq += 1
                records.append((n, seq, next(ticks), seq, None))
                truth[n, seq] = next(measuring)
                continue
            if kind == 1:
                t = next(reporting)
                if t in skipped:
                    continue
                bundle = tuple(records)
                records.clear()
            else:
                t, bundle = next(relaying)
            pairs = tuple(pending)
            pending.clear()
            index += 1
            airtime = airtime_of(protocol.frame_bytes(1, len(pairs), len(bundle)))
            tx_seconds += airtime
            stamp = next(sent)
            if t + delay < horizon:
                out.append((t + delay, airtime, n, stamp, index, pairs, bundle))
            else:
                lost_pairs += len(pairs)
                lost_records += len(bundle)
        self.pair_accounting["in_flight"] += lost_pairs
        self.record_accounting["in_flight"] += lost_records
        node.record_seq, node.sync_counter, node.last_sync_tx_ns = seq, index, last
        node.tx_seconds, node.rx_seconds = tx_seconds, rx_seconds

    def _finish(self) -> RunTrace:
        # anything still buffered at a node never reached the head
        for node in self.nodes.values():
            self.pair_accounting["in_flight"] += len(node.pending_pairs)
            self.record_accounting["in_flight"] += len(node.records)
        undelivered = [
            (origin, seq, true_ns) for (origin, seq), true_ns in sorted(self._truth.items())
        ]
        node_counts = {
            n: {k: (v[0], v[1]) for k, v in node.counts.items()}
            for n, node in self.nodes.items()
        }
        airtime = {
            n: (node.tx_seconds, node.rx_seconds) for n, node in self.nodes.items()
        }
        return RunTrace(
            scheme=self.cfg.scheme,
            seed=self.cfg.seed,
            duration_ns=self.cfg.duration_ns,
            tick_ns=self.topology.clock.tick_ns,
            head_method=self.cfg.head_method,
            head_window=self.cfg.head_window,
            radio=dataclasses.asdict(self.radio),
            levels=self._levels,
            chains=dict(self.chains),
            head_events=HeadEvents(self._kinds.decode(), self._tables),
            node_counts=node_counts,
            airtime=airtime,
            pair_accounting=self.pair_accounting,
            record_accounting=self.record_accounting,
            undelivered=undelivered,
            event_log=self.event_log,
        )

