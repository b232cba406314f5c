"""Deterministic discrete-event simulation of chain networks.

The engine owns an event heap keyed by ``(due, sequence)``, each entry
carrying the bound handler that runs it: events at the same nanosecond
execute in insertion order, so a run is a pure function of
its configuration and seed.  Nodes are :class:`~synclab.protocol.NodeState`
machines; the engine routes frames over links (fixed propagation, optional
Bernoulli loss), fires timers, feeds the head-side estimator, and accumulates
the replayable :class:`RunTrace`.

Randomness is split into named streams spawned from the run seed (one drift
stream and two SFD-jitter streams per node, plus one loss stream), so event
interleaving can never change which random draw lands where.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .clock import ClockConfig, ClockParams, DriftModel
from .estimators import HeadEstimator, TimestampPair
from . import protocol
from .protocol import (
    Message,
    NodeState,
    JitterModel,
    RadioConfig,
    SchemeConfig,
    MeasurementRecord,
)


@dataclass(frozen=True)
class LinkConfig:
    """Per-hop link behaviour: fixed propagation, SFD jitter width, loss."""

    propagation_ns: int = 1_000
    jitter_ns: int = 5_000
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.propagation_ns < 0 or self.jitter_ns < 0:
            raise ValueError("propagation and jitter must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")


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


@dataclass
class MeasurementOutcome:
    """Per-measurement result: truth, head-side estimate, error."""

    origin: int
    level: int
    seq: int
    true_ns: int
    local_ticks: float
    arrival_ns: int | None
    est_ticks: float | None
    err_s: float | None
    translated: bool
    reason: str | None


@dataclass
class RunTrace:
    """Everything a run produced, sufficient to replay head-side estimation.

    ``head_events`` is the exact ordered stream the head saw: unique
    timestamp pairs and delivered measurement records.  Re-folding it with a
    different estimator or window reproduces what that head would have
    computed from the same radio traffic.
    """

    scheme: str
    seed: int
    duration_ns: int
    tick_ns: int | None
    head_method: str
    head_window: int | None
    radio: dict
    levels: dict[int, int]
    chains: dict[int, tuple[int, ...]]
    head_events: list[tuple]
    outcomes: list[MeasurementOutcome]
    node_counts: dict[int, dict[str, tuple[int, int]]]
    airtime: dict[int, tuple[float, float]]
    pair_accounting: dict[str, int]
    record_accounting: dict[str, int]
    event_log: list[tuple] | None = None
    config: dict | None = None
    config_hash: str | None = None

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "tick_ns": self.tick_ns,
            "head_method": self.head_method,
            "head_window": self.head_window,
            "radio": dict(self.radio),
            "levels": {str(k): v for k, v in self.levels.items()},
            "chains": {str(k): list(v) for k, v in self.chains.items()},
            "head_events": [list(ev) for ev in self.head_events],
            # an undelivered measurement has no local timestamp: NaN in
            # memory, null here so that a saved trace is strict JSON
            "outcomes": [
                {**asdict(o), "local_ticks": None} if math.isnan(o.local_ticks)
                else asdict(o)
                for o in self.outcomes
            ],
            "node_counts": {
                str(n): {k: list(v) for k, v in kinds.items()}
                for n, kinds in self.node_counts.items()
            },
            "airtime": {str(n): list(v) for n, v in self.airtime.items()},
            "pair_accounting": dict(self.pair_accounting),
            "record_accounting": dict(self.record_accounting),
            "event_log": (
                None if self.event_log is None else [list(e) for e in self.event_log]
            ),
            "config": self.config,
            "config_hash": self.config_hash,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunTrace":
        return RunTrace(
            scheme=data["scheme"],
            seed=data["seed"],
            duration_ns=data["duration_ns"],
            tick_ns=data["tick_ns"],
            head_method=data["head_method"],
            head_window=data["head_window"],
            radio=dict(data["radio"]),
            levels={int(k): v for k, v in data["levels"].items()},
            chains={int(k): tuple(v) for k, v in data["chains"].items()},
            head_events=[tuple(ev) for ev in data["head_events"]],
            outcomes=[
                MeasurementOutcome(**{**o, "local_ticks": math.nan})
                if o["local_ticks"] is None else MeasurementOutcome(**o)
                for o in data["outcomes"]
            ],
            node_counts={
                int(n): {k: (v[0], v[1]) for k, v in kinds.items()}
                for n, kinds in data["node_counts"].items()
            },
            airtime={int(n): (v[0], v[1]) for n, v in data["airtime"].items()},
            pair_accounting=dict(data["pair_accounting"]),
            record_accounting=dict(data["record_accounting"]),
            event_log=(
                None
                if data.get("event_log") is None
                else [tuple(e) for e in data["event_log"]]
            ),
            config=data.get("config"),
            config_hash=data.get("config_hash"),
        )


def error_seconds(est_ticks: float, true_ns: int, tick_ns: int | None) -> float:
    """Head-estimate error in seconds for a tick-valued estimate."""
    est_ns = est_ticks * tick_ns if tick_ns is not None else est_ticks
    return (est_ns - true_ns) / 1e9


def measurement_outcome(
    origin: int,
    level: int,
    seq: int,
    true_ns: int,
    local_ticks: float,
    arrival_ns: int | None,
    est_ticks: float | None,
    tick_ns: int | None,
    reason: str = "bootstrap",
) -> MeasurementOutcome:
    """The outcome of one measurement: translated exactly when ``est_ticks``
    is set, with its error; otherwise untranslated for ``reason``."""
    if est_ticks is None:
        return MeasurementOutcome(
            origin, level, seq, true_ns, local_ticks, arrival_ns,
            None, None, False, reason,
        )
    return MeasurementOutcome(
        origin, level, seq, true_ns, local_ticks, arrival_ns,
        est_ticks, error_seconds(est_ticks, true_ns, tick_ns), True, None,
    )


def apply_head_event(
    estimator: HeadEstimator,
    chains: dict[int, tuple[int, ...]],
    tick_ns: int | None,
    event: tuple,
) -> MeasurementOutcome | None:
    """Fold one head event into the estimator; measurements yield outcomes.

    This is the single translation path shared by the live run and offline
    replay, which is what makes replay bit-identical.
    """
    if event[0] == "pair":
        _, _, origin, _, t_child, t_parent, sync_index = event
        estimator.ingest(origin, TimestampPair(t_child, t_parent, sync_index))
        return None
    _, arrival_ns, origin, level, seq, local_ticks, true_ns, _ = event
    est_ticks = estimator.translate_to_reference(chains[origin], local_ticks)
    return measurement_outcome(
        origin, level, seq, true_ns, local_ticks, arrival_ns, est_ticks, tick_ns
    )


class Engine:
    """One simulation run: topology + scheme + seed -> RunTrace."""

    def __init__(
        self,
        topology: Topology,
        cfg: SchemeConfig,
        seed: int,
        radio: RadioConfig | None = None,
        collect_events: bool = False,
    ) -> None:
        if (
            cfg.scheme in (protocol.REVERSE_TWOWAY, protocol.CONVENTIONAL_TWOWAY)
            and topology.hops > 1
        ):
            raise ValueError(
                "two-way baselines are message-flow level only and support "
                "single-hop topologies"
            )
        self.topology = topology
        self.cfg = cfg
        self.seed = seed
        self.radio = radio or RadioConfig(
            schedule=protocol.default_radio_schedule(cfg.scheme)
        )
        self.link = topology.link
        base = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
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
            clock = topology.clock.build(spec.params, drift_rng, drift=drift)
            self.nodes[node_id] = NodeState(
                node_id, spec.level, spec.parent, spec.children, clock, jitter, cfg
            )
        self.loss_rng = np.random.default_rng(streams[-1])
        self.head = self.nodes[topology.head_id]
        self.estimator = HeadEstimator(cfg.head_method, cfg.head_window)
        self.chains = {n: topology.chain_to(n) for n in topology.sensor_ids()}
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self._horizon: int = 0
        self._beacon_generation = 0
        self._truth: dict[tuple[int, int], int] = {}
        self._delivered: set[tuple[int, int]] = set()
        self.head_events: list[tuple] = []
        self.outcomes: list[MeasurementOutcome] = []
        self.pair_accounting = {
            "created": 0, "ingested": 0, "duplicates": 0,
            "lost": 0, "in_flight": 0, "unknown_child": 0,
        }
        self.record_accounting = {
            "generated": 0, "delivered": 0, "duplicates": 0,
            "lost": 0, "in_flight": 0,
        }
        self.event_log: list[tuple] | None = [] if collect_events else None

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

    def _log(self, t: int, node: int, kind: str) -> None:
        if self.event_log is not None:
            self.event_log.append((t, node, kind))

    # -- frame handling -----------------------------------------------------

    def _transmit(self, node: NodeState, message: Message, t: int) -> None:
        airtime = self.radio.airtime_s(message)
        node.note_tx(message, airtime)
        self._log(t, node.node_id, f"tx-{message.kind}")
        if message.dst == protocol.BROADCAST:
            receivers = node.children
        else:
            receivers = (message.dst,)
        arrival = t + self.link.propagation_ns
        for dst in receivers:
            if self.link.loss > 0.0 and self.loss_rng.random() < self.link.loss:
                self._account_missing(message, "lost")
                continue
            if not self._push(arrival, self._on_frame, (dst, message)):
                self._account_missing(message, "in_flight")

    def _account_missing(self, message: Message, bucket: str) -> None:
        self.pair_accounting[bucket] += len(message.hop_records)
        self.record_accounting[bucket] += len(message.bundle)

    def _ingest_pair(self, hop: protocol.HopRecord, t: int) -> None:
        added = self.estimator.ingest(hop.origin, hop.pair())
        if not added:
            self.pair_accounting["duplicates"] += 1
            return
        self.pair_accounting["ingested"] += 1
        self.head_events.append(
            ("pair", t, hop.origin, hop.layer, hop.t_child, hop.t_parent, hop.sync_index)
        )

    def _deliver_record(self, record: MeasurementRecord, t: int) -> None:
        key = (record.origin, record.seq)
        if key in self._delivered:
            self.record_accounting["duplicates"] += 1
            return
        self._delivered.add(key)
        self.record_accounting["delivered"] += 1
        true_ns = self._truth[key]
        level = self.topology.nodes[record.origin].level
        event = (
            "measurement", t, record.origin, level, record.seq,
            record.local_ticks, true_ns, record.est_ticks,
        )
        self.head_events.append(event)
        scheme = self.cfg.scheme
        tick_ns = self.topology.clock.tick_ns
        if scheme == protocol.REVERSE_ONEWAY:
            outcome = apply_head_event(self.estimator, self.chains, tick_ns, event)
        else:
            # only conventional one-way estimates at the sensor; the two-way
            # baselines deliver their records untranslated
            outcome = measurement_outcome(
                record.origin, level, record.seq, true_ns, record.local_ticks, t,
                record.est_ticks, tick_ns,
                "bootstrap" if scheme == protocol.CONVENTIONAL_ONEWAY else "scheme",
            )
        self.outcomes.append(outcome)

    def _on_frame(self, t: int, dst_id: int, message: Message) -> None:
        node = self.nodes[dst_id]
        node.note_rx(message, self.radio.airtime_s(message))
        self._log(t, dst_id, f"rx-{message.kind}")
        kind = message.kind
        if kind == protocol.REPORT:
            if message.src not in node.children:
                self.pair_accounting["unknown_child"] += 1
                return
            child_level = self.topology.nodes[message.src].level
            hop = node.receive_sync_frame(message, t, child_level)
            self.pair_accounting["created"] += 1
            if node.role == protocol.HEAD:
                self._ingest_pair(hop, t)
                for forwarded in message.hop_records:
                    self._ingest_pair(forwarded, t)
                for record in message.bundle:
                    self._deliver_record(record, t)
            else:
                node.pending_pairs.append(hop)
                node.pending_pairs.extend(message.hop_records)
                if self.cfg.bundling == protocol.BUNDLE_ALL:
                    node.records.extend(message.bundle)
                elif message.bundle:
                    queued = self._push(
                        t + self.cfg.forward_delay_ns,
                        self._on_relay,
                        (dst_id, message.bundle),
                    )
                    if not queued:
                        self.record_accounting["in_flight"] += len(message.bundle)
        elif kind == protocol.MEASUREMENT:
            if node.role == protocol.HEAD:
                for record in message.bundle:
                    self._deliver_record(record, t)
            else:
                queued = self._push(
                    t + self.cfg.forward_delay_ns, self._on_forward, (dst_id, message)
                )
                if not queued:
                    self._account_missing(message, "in_flight")
        elif kind == protocol.BEACON:
            if self.cfg.scheme == protocol.CONVENTIONAL_ONEWAY:
                node.on_beacon(message, t)
                if node.children:
                    self._push(
                        t + self.cfg.forward_delay_ns,
                        self._on_rebroadcast,
                        (dst_id, message.sync_index),
                    )
            # reverse two-way sensors only pay the reception cost
        elif kind == protocol.REQUEST:
            rx_stamp = node.stamp(protocol.RECEIVE, t)
            self._push(
                t + self.cfg.response_delay_ns,
                self._on_respond,
                (dst_id, message, rx_stamp),
            )
        elif kind == protocol.RESPONSE:
            pass  # counting level: the reception cost is the point

    # -- timer handlers -----------------------------------------------------

    def _on_measure(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        record = node.record_measurement(t, value=node.record_seq + 1)
        self._truth[(record.origin, record.seq)] = t
        self.record_accounting["generated"] += 1
        self._log(t, node_id, "measure")
        if self.cfg.report_interval_ns is None and len(node.records) >= self.cfg.bundle_size:
            flush = (
                self._on_flush_report
                if self.cfg.scheme in (protocol.REVERSE_ONEWAY, protocol.REVERSE_TWOWAY)
                else self._on_flush_meas
            )
            self._push(t + self.cfg.send_setup_ns, flush, (node_id,))
        self._push(t + self.cfg.measurement_interval_ns, self._on_measure, (node_id,))

    def _on_report_timer(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        if self.cfg.scheme in (protocol.REVERSE_ONEWAY, protocol.REVERSE_TWOWAY):
            message = node.build_report(t, scheduled=True)
        else:
            message = node.build_measurement_frame(t)
        if message is not None:
            self._transmit(node, message, t)
        self._push(t + self.cfg.report_interval_ns, self._on_report_timer, (node_id,))

    def _on_flush_report(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        message = node.build_report(t, scheduled=False)
        if message is not None:
            self._transmit(node, message, t)

    def _on_flush_meas(self, t: int, node_id: int) -> None:
        node = self.nodes[node_id]
        message = node.build_measurement_frame(t)
        if message is not None:
            self._transmit(node, message, t)

    def _on_relay(self, t: int, node_id: int, records: tuple) -> None:
        node = self.nodes[node_id]
        self._transmit(node, node.build_relay(records, t), t)

    def _on_forward(self, t: int, node_id: int, message: Message) -> None:
        node = self.nodes[node_id]
        self._transmit(node, node.build_forward(message), t)

    def _on_beacon_timer(self, t: int, node_id: int) -> None:
        self._beacon_generation += 1
        message = self.head.build_beacon(t, self._beacon_generation)
        self._transmit(self.head, message, t)
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

    def run(self, duration_ns: int) -> RunTrace:
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        self._horizon = duration_ns
        cfg = self.cfg
        scheme = cfg.scheme
        hops = self.topology.hops
        for node_id in self.topology.sensor_ids():
            self._push(
                cfg.epoch_ns + cfg.measurement_offset_ns, self._on_measure, (node_id,)
            )
            if cfg.report_interval_ns is not None:
                level = self.topology.nodes[node_id].level
                phase = (
                    cfg.epoch_ns
                    + cfg.report_offset_ns
                    + (hops - level) * cfg.report_stagger_ns
                )
                self._push(phase, self._on_report_timer, (node_id,))
            if scheme == protocol.CONVENTIONAL_TWOWAY:
                self._push(cfg.epoch_ns, self._on_request_timer, (node_id,))
        if scheme in (protocol.CONVENTIONAL_ONEWAY, protocol.REVERSE_TWOWAY):
            self._push(cfg.epoch_ns, self._on_beacon_timer, (self.head.node_id,))

        heap = self._heap
        while heap:
            t, _, handler, payload = heapq.heappop(heap)
            handler(t, *payload)

        return self._finish(duration_ns)

    def _finish(self, duration_ns: int) -> RunTrace:
        # anything still buffered at a node never reached the head
        for node in self.nodes.values():
            self.pair_accounting["in_flight"] += len(node.pending_pairs)
            self.record_accounting["in_flight"] += len(node.records)
        undelivered = sorted(
            key for key in self._truth if key not in self._delivered
        )
        for origin, seq in undelivered:
            level = self.topology.nodes[origin].level
            self.outcomes.append(
                measurement_outcome(
                    origin, level, seq, self._truth[(origin, seq)], math.nan,
                    arrival_ns=None, est_ticks=None, tick_ns=None, reason="undelivered",
                )
            )
        node_counts = {
            n: {k: (v[0], v[1]) for k, v in node.counts.items()}
            for n, node in self.nodes.items()
        }
        airtime = {
            n: (node.tx_seconds, node.rx_seconds) for n, node in self.nodes.items()
        }
        return RunTrace(
            scheme=self.cfg.scheme,
            seed=self.seed,
            duration_ns=duration_ns,
            tick_ns=self.topology.clock.tick_ns,
            head_method=self.cfg.head_method,
            head_window=self.cfg.head_window,
            radio={
                "bitrate_bps": self.radio.bitrate_bps,
                "schedule": self.radio.schedule,
                "lpl_duty": self.radio.lpl_duty,
            },
            levels={n: spec.level for n, spec in self.topology.nodes.items()},
            chains=dict(self.chains),
            head_events=self.head_events,
            outcomes=self.outcomes,
            node_counts=node_counts,
            airtime=airtime,
            pair_accounting=self.pair_accounting,
            record_accounting=self.record_accounting,
            event_log=self.event_log,
        )


def run(
    topology: Topology,
    cfg: SchemeConfig,
    duration_ns: int,
    seed: int,
    radio: RadioConfig | None = None,
    collect_events: bool = False,
) -> RunTrace:
    """Simulate one run and return its trace."""
    engine = Engine(topology, cfg, seed, radio=radio, collect_events=collect_events)
    return engine.run(duration_ns)
