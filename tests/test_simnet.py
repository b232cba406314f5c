"""Discrete-event engine tests: topology, accounting, determinism."""

import gc
import json
import math
import weakref
from array import array
from pathlib import Path

import pytest

from synclab.clock import ClockConfig, ClockParams
from synclab.config import RunConfig, parse_config, table1_config
from synclab.protocol import (
    BEACON,
    BUNDLE_SELF,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    MEASUREMENT,
    REPORT,
    REQUEST,
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
    SCHEME_RULES,
)
from synclab.simnet import Engine, LinkConfig, Topology, build_chain
from synclab.trace import HeadEvents, RunTrace, error_seconds

S = 1_000_000_000  # ns per second


def totals(trace, node_id):
    kinds = trace.node_counts.get(node_id, {})
    tx = sum(v[0] for v in kinds.values())
    rx = sum(v[1] for v in kinds.values())
    return tx, rx


def test_link_config_validation():
    LinkConfig()
    with pytest.raises(ValueError):
        LinkConfig(propagation_ns=-1)
    with pytest.raises(ValueError):
        LinkConfig(jitter_ns=-1)
    with pytest.raises(ValueError):
        LinkConfig(loss=1.0)
    with pytest.raises(ValueError):
        LinkConfig(loss=-0.1)


def test_build_chain_shape():
    topo = build_chain(3, seed=7)
    assert topo.hops == 3
    assert topo.sensor_ids() == (1, 2, 3)
    assert topo.chain_to(3) == (1, 2, 3)
    assert topo.chain_to(1) == (1,)
    head = topo.nodes[0]
    assert head.params == ClockParams(1.0, 0.0)
    assert head.parent is None and head.children == (1,)
    assert topo.nodes[2].parent == 1 and topo.nodes[2].children == (3,)
    assert topo.nodes[3].children == ()
    with pytest.raises(ValueError):
        build_chain(0)


def test_build_chain_deterministic_draws():
    a = build_chain(4, seed=42)
    b = build_chain(4, seed=42)
    c = build_chain(4, seed=43)
    assert all(a.nodes[n].params == b.nodes[n].params for n in a.nodes)
    assert any(a.nodes[n].params != c.nodes[n].params for n in a.sensor_ids())


def test_error_seconds_units():
    assert math.isclose(error_seconds(1_000_010, 1_000_000_000, 1000), 1e-5)
    assert math.isclose(error_seconds(1_000_000_500.0, 1_000_000_000, None), 5e-7)


def test_derive_outcomes_bootstrap_then_translation():
    meas = ("measurement", 10 * S, 1, 1, 1, 5_000_000.0, 5 * S, None)
    # identity link: child ticks equal head ticks
    pairs = [("pair", S, 1, 1, 1e6, 1e6, 1), ("pair", 2 * S, 1, 1, 2e6, 2e6, 2)]
    trace = RunTrace(
        scheme=REVERSE_ONEWAY, seed=0, duration_ns=20 * S, tick_ns=1000,
        head_method="window-lsq", head_window=19, radio={}, levels={0: 0, 1: 1},
        chains={1: (1,)}, head_events=HeadEvents.from_rows([meas, *pairs, meas]),
        node_counts={}, airtime={},
        pair_accounting={}, record_accounting={},
    )
    early, late = trace.outcomes
    assert not early.translated
    assert early.reason == "bootstrap" and early.err_s is None
    assert late.translated and late.reason is None
    assert math.isclose(late.est_ticks, 5_000_000.0)
    assert math.isclose(late.err_s, 0.0, abs_tol=1e-12)


VERSIONLESS = Path(__file__).parent / "data" / "versionless" / "trace.json"


def test_head_events_read_as_the_rows_a_versionless_trace_upgrades_to():
    data = json.loads(VERSIONLESS.read_text())
    rows = [tuple(row) for row in data["head_events"]]
    events = RunTrace.from_dict(data).head_events
    assert len(events) == len(rows) > 2
    assert list(events) == rows
    for i in (0, 1, len(rows) // 2, len(rows) - 1, -1, -len(rows)):
        assert events[i] == rows[i]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            events[i]
    assert events == HeadEvents.from_rows(rows) == rows
    assert events != HeadEvents.from_rows(rows[:-1])
    assert events != HeadEvents.from_rows([*rows[:-1], (*rows[-1][:-1], -1)])


CHAIN_RUN = {
    "scheme": "reverse-oneway", "hops": 6, "duration_s": 600, "si_s": 1, "bundling": "self",
    "head": {"method": "window-lsq", "window": 19},
    "clock": {"tick_us": 1, "drift": {"kind": "random-walk", "sigma_ppm": 0.02}},
}


def test_engine_stores_int_head_event_fields_as_int64_arrays():
    # the release-gate chain run: every field but est_ticks is an int there,
    # stamps included, and each takes 8 bytes per event
    events = Engine(parse_config(CHAIN_RUN)).run().head_events
    for kind, table in events.tables.items():
        count = events.kinds.count(kind[0])
        assert count > 1000
        for name, column in table.items():
            if name == "est_ticks":
                assert type(column) is list and set(column) == {None}
                continue
            assert type(column) is array and column.typecode == "q", (kind, name)
            assert len(column) == count and column.itemsize * len(column) <= 8 * count


def test_hourlong_reverse_oneway_message_totals():
    trace = Engine(table1_config(REVERSE_ONEWAY, 1)).run()
    assert totals(trace, 1) == (100, 0)
    head_tx, head_rx = totals(trace, 0)
    assert (head_tx, head_rx) == (0, 100)
    assert trace.record_accounting["generated"] == 100
    assert trace.record_accounting["delivered"] == 100


def test_hourlong_reverse_twoway_message_totals():
    trace = Engine(table1_config(REVERSE_TWOWAY, 10)).run()
    assert totals(trace, 1) == (100, 360)


def test_hourlong_conventional_twoway_message_totals():
    trace = Engine(table1_config(CONVENTIONAL_TWOWAY, 100)).run()
    assert totals(trace, 1) == (136, 36)


def test_hourlong_conventional_oneway_message_totals():
    trace = Engine(table1_config(CONVENTIONAL_ONEWAY, 10)).run()
    assert totals(trace, 1) == (100, 360)


@pytest.mark.parametrize("scheme", sorted(SCHEME_RULES))
def test_frames_sent_are_the_ones_the_scheme_rules_name(scheme):
    rules = SCHEME_RULES[scheme]
    trace = Engine(RunConfig(scheme=scheme, duration_ns=10 * S)).run()
    head, sensor = ({kind for kind, (tx, _) in trace.node_counts[n].items() if tx} for n in (0, 1))
    assert (BEACON in head) == rules.beacons
    assert (REQUEST in sensor) == rules.requests
    upward = sensor - {REQUEST}
    assert upward == ({REPORT} if rules.reports else {MEASUREMENT}), upward


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accounting_conservation_under_loss(seed):
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY,
        hops=3,
        duration_ns=60 * S,
        seed=seed,
        si_ns=S,
        measurement_interval_ns=5 * S,
        report_interval_ns=S,
        bundling=BUNDLE_SELF,
        link=LinkConfig(loss=0.25),
    )
    trace = Engine(cfg).run()
    pairs = trace.pair_accounting
    records = trace.record_accounting
    assert pairs["created"] == (
        pairs["ingested"] + pairs["duplicates"] + pairs["lost"]
        + pairs["in_flight"] + pairs["unknown_child"]
    )
    assert records["generated"] == (
        records["delivered"] + records["duplicates"] + records["lost"]
        + records["in_flight"]
    )
    assert pairs["lost"] > 0  # the lossy link actually dropped something
    # every generated measurement is accounted for in the outcome list
    assert len(trace.outcomes) == records["generated"]
    undelivered = [o for o in trace.outcomes if o.reason == "undelivered"]
    assert len(undelivered) == records["lost"] + records["in_flight"]


def test_same_seed_reproduces_trace_exactly():
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY, hops=2, duration_ns=30 * S, seed=5, si_ns=S,
        measurement_interval_ns=2 * S, report_interval_ns=S, bundling=BUNDLE_SELF,
    )
    first = Engine(cfg).run()
    second = Engine(cfg).run()
    assert first.to_dict() == second.to_dict()
    third = Engine(cfg.replace(seed=6)).run()
    assert first.head_events != third.head_events


def test_trace_round_trips_through_json():
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY, hops=2, duration_ns=20 * S, seed=1, si_ns=S,
        measurement_interval_ns=3 * S, report_interval_ns=S, collect_events=True,
    )
    trace = Engine(cfg).run()
    data = json.loads(json.dumps(trace.to_dict()))
    restored = RunTrace.from_dict(data)
    assert restored.to_dict() == trace.to_dict()
    assert restored.outcomes == trace.outcomes
    assert restored.chains == trace.chains


@pytest.mark.parametrize("scheme", [REVERSE_ONEWAY, CONVENTIONAL_ONEWAY, REVERSE_TWOWAY])
def test_finished_engine_is_freed_without_the_cycle_collector(scheme):
    # a run's state (nodes, clocks, outcomes) is freed as soon as the last
    # reference to its engine goes; a reference cycle through the engine
    # would hold it until the cyclic collector runs, which raises peak memory
    cfg = RunConfig(
        scheme=scheme, duration_ns=5 * S, seed=2, si_ns=S,
        measurement_interval_ns=S, report_interval_ns=None,
    )
    gc.disable()
    try:
        engine = Engine(cfg)
        engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def test_no_events_at_or_past_horizon():
    duration = 10 * S
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY, hops=2, duration_ns=duration, seed=3, si_ns=S,
        measurement_interval_ns=S, report_interval_ns=S, collect_events=True,
    )
    trace = Engine(cfg).run()
    assert trace.event_log, "expected a populated event log"
    assert max(t for t, _, _ in trace.event_log) < duration


def test_undelivered_measurements_get_placeholder_outcomes():
    # near-total loss: most measurements never reach the head
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY, duration_ns=20 * S, seed=9, si_ns=S,
        measurement_interval_ns=S, report_interval_ns=S, link=LinkConfig(loss=0.9),
    )
    trace = Engine(cfg).run()
    undelivered = [o for o in trace.outcomes if o.reason == "undelivered"]
    assert undelivered, "expected losses at 90% drop rate"
    for outcome in undelivered:
        assert outcome.arrival_ns is None
        assert outcome.est_ticks is None and outcome.err_s is None
        assert not outcome.translated
    # outcomes appear in deterministic (origin, seq) order per origin
    seqs = [o.seq for o in trace.outcomes if o.origin == 1 and o.reason == "undelivered"]
    assert seqs == sorted(seqs)
