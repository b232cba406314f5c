"""Deterministic discrete-event simulation of chain networks.

The engine owns an event heap keyed by ``(due, sequence)``, each entry
carrying the bound handler that runs it: events at the same nanosecond
execute in insertion order, so a run is a pure function of
its configuration and seed.  Nodes are :class:`~synclab.protocol.NodeState`
machines; the engine routes frames over links (fixed propagation, optional
Bernoulli loss), fires timers, and records what the head receives as the
replayable :class:`~synclab.trace.RunTrace`, which translates it.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clock import ClockConfig, ClockParams, DriftModel
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
    Message,
    NodeState,
    JitterModel,
    MeasurementRecord,
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
    translates none of them.
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

    def _ingest_pair(self, hop: protocol.HopRecord, t: int) -> None:
        """Take a pair unless its sync index is not newer than the last one
        taken from its origin, the rule every head estimator applies."""
        origin, layer, t_child, t_parent, sync_index = hop
        newest = self._newest.get(origin)
        if newest is not None and sync_index <= newest:
            self.pair_accounting["duplicates"] += 1
            return
        self._newest[origin] = sync_index
        self.pair_accounting["ingested"] += 1
        # one append per column, written out: the engine's hottest appends
        self._kinds += b"p"
        t_ns, origins, layers, children, parents, indices = self._pairs
        t_ns.append(t)
        origins.append(origin)
        layers.append(layer)
        children.append(t_child)
        parents.append(t_parent)
        indices.append(sync_index)

    def _deliver_record(self, record: MeasurementRecord, t: int) -> None:
        origin, seq, local_ticks, _, est_ticks = record
        true_ns = self._truth.pop((origin, seq), None)
        if true_ns is None:
            self.record_accounting["duplicates"] += 1
            return
        self.record_accounting["delivered"] += 1
        self._kinds += b"m"
        t_ns, origins, levels, seqs, stamps, truths, estimates = self._measurements
        t_ns.append(t)
        origins.append(origin)
        levels.append(self._levels[origin])
        seqs.append(seq)
        stamps.append(local_ticks)
        truths.append(true_ns)
        estimates.append(est_ticks)

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
            self._ingest_pair(pair, t)
            for hop in message.hop_records:
                self._ingest_pair(hop, t)
        else:
            node.pending_pairs.append(pair)
            node.pending_pairs.extend(message.hop_records)
        self._on_measurement(t, node, message)

    def _on_measurement(self, t: int, node: NodeState, message: Message) -> None:
        if node is self.head:
            for record in message.bundle:
                self._deliver_record(record, t)
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
        cfg = self.cfg
        hops = cfg.hops
        for node_id in self.topology.sensor_ids():
            self._push(EPOCH_NS + MEASUREMENT_OFFSET_NS, self._on_measure, (node_id,))
            if cfg.report_interval_ns is not None:
                level = self._levels[node_id]
                phase = EPOCH_NS + REPORT_OFFSET_NS + (hops - level) * REPORT_STAGGER_NS
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

