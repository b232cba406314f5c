"""Counting formulas, energy accounting, accuracy metrics, replay, sweeps."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synclab.analysis import (
    MEASUREMENT_COLUMNS,
    SWEEP_COLUMNS,
    AccuracyReport,
    EnergyLedger,
    EnergyModel,
    accuracy_metrics,
    count_conventional,
    count_proposed,
    energy_from_trace,
    load_trace,
    replay,
    run_config,
    save_trace,
    sensor_totals,
    summarize_trace,
    sweep,
    table1_counts,
    write_measurements_csv,
    write_summary_json,
    write_sweep_csv,
)
from synclab.cli import main
from synclab.config import (
    ConfigError,
    RunConfig,
    parse_config,
    singlehop_accuracy_config,
    table1_config,
)
from synclab.protocol import (
    ALWAYS_ON,
    BEACON,
    BUNDLE_ALL,
    BUNDLE_SELF,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    LPL,
    MEASUREMENT,
    REPORT,
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
    SCHEDULED_WAKE,
    SCHEME_RULES,
    SCHEMES,
)
from synclab.simnet import LinkConfig
from synclab.trace import MeasurementOutcome, RunTrace

S = 1_000_000_000


def test_count_conventional_examples():
    assert count_conventional(4, 2) == 39
    assert count_conventional(1, 0) == 1
    assert count_conventional(2, 1) == 7
    assert count_conventional(1, 5) == 6
    with pytest.raises(ValueError):
        count_conventional(0, 1)
    with pytest.raises(ValueError):
        count_conventional(1, -1)


def test_count_conventional_closed_form():
    # the per-round sum telescopes to n^2, the flood wave to 2n - 1
    for n in range(1, 11):
        for m in range(4):
            assert count_conventional(n, m) == (2 * n - 1) + m * n * n


def test_count_proposed_examples():
    assert count_proposed(4, "self") == 16
    assert count_proposed(4, "all") == 7
    for n, want in [(1, 1), (2, 4), (4, 16), (6, 36)]:
        assert count_proposed(n, "self") == want == n * n
    for n, want in [(1, 1), (2, 3), (4, 7), (6, 11)]:
        assert count_proposed(n, "all") == want == 2 * n - 1
    with pytest.raises(ValueError):
        count_proposed(0, "self")
    for mode in ("some", "self-data", "all-data"):
        with pytest.raises(ValueError):
            count_proposed(2, mode)


def test_table1_counts_full_grid():
    m, dur = 100, 3600.0
    want = {
        (CONVENTIONAL_TWOWAY, 1): (3700, 3600),
        (CONVENTIONAL_TWOWAY, 10): (460, 360),
        (CONVENTIONAL_TWOWAY, 100): (136, 36),
        (CONVENTIONAL_ONEWAY, 1): (100, 3600),
        (CONVENTIONAL_ONEWAY, 10): (100, 360),
        (CONVENTIONAL_ONEWAY, 100): (100, 36),
        (REVERSE_TWOWAY, 1): (100, 3600),
        (REVERSE_TWOWAY, 10): (100, 360),
        (REVERSE_TWOWAY, 100): (100, 36),
        (REVERSE_ONEWAY, 1): (100, 0),
        (REVERSE_ONEWAY, 10): (100, 0),
        (REVERSE_ONEWAY, 100): (100, 0),
    }
    for (scheme, si), expected in want.items():
        assert table1_counts(scheme, si, dur, m) == expected
    with pytest.raises(ValueError):
        table1_counts("smoke-signals", 1, dur, m)
    with pytest.raises(ValueError):
        table1_counts(REVERSE_ONEWAY, 0, dur, m)


@pytest.mark.parametrize("hops,mode", [(hops, mode) for mode in (BUNDLE_SELF, BUNDLE_ALL)
                                       for hops in range(1, 7)])
def test_one_report_wave_matches_closed_form(hops, mode):
    # intervals longer than the run leave exactly one report wave
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY,
        hops=hops,
        duration_ns=S // 2,
        si_ns=10 * S,
        measurement_interval_ns=10 * S,
        report_interval_ns=10 * S,
        bundling=mode,
    )
    trace = run_config(cfg)
    # sync-bearing report events, sent and received, over every sensor
    reports = [kinds.get(REPORT, (0, 0)) for node, kinds in trace.node_counts.items()
               if trace.levels[node] > 0]
    assert sum(tx + rx for tx, rx in reports) == count_proposed(hops, mode)


@pytest.mark.parametrize("hops", range(1, 7))
def test_steady_flood_wave_matches_closed_form(hops):
    # a sensor rebroadcasts a beacon only once its two-point fit holds two,
    # so flooding reaches hop k one wave later than hop k-1: over w waves hop
    # k receives w - (k - 1) beacons.  Once every hop is reached, one more
    # wave costs the closed form's flood: a receive per sensor and a
    # rebroadcast per sensor with a child, 2(n-1)+1 events
    def beacon_counts(waves):
        cfg = RunConfig(scheme=CONVENTIONAL_ONEWAY, hops=hops, duration_ns=waves * S,
                        si_ns=S, measurement_interval_ns=100 * S, report_interval_ns=None)
        counts = run_config(cfg).node_counts
        return [counts[k].get(BEACON, (0, 0)) for k in range(1, hops + 1)]

    waves = 8
    first, more = beacon_counts(waves), beacon_counts(waves + 1)
    assert [rx for _, rx in first] == [waves - (k - 1) for k in range(1, hops + 1)]
    assert sum(map(sum, more)) - sum(map(sum, first)) == count_conventional(hops, 0)


@pytest.mark.parametrize("hops", range(1, 7))
def test_flood_measurement_wave_matches_closed_form(hops):
    # one beacon in the run (SI 100 s) and no report schedule: each sensor
    # sends a measurement frame per record, and every frame climbs the chain
    # hop by hop, so one more measurement round adds the closed form's
    # measurement events, 2(i-1)+1 from hop i, n^2 over the chain
    def measurement_events(waves):
        cfg = RunConfig(scheme=CONVENTIONAL_ONEWAY, hops=hops, duration_ns=waves * S,
                        si_ns=100 * S, measurement_interval_ns=S, report_interval_ns=None)
        counts = run_config(cfg).node_counts
        return sum(sum(counts[k].get(MEASUREMENT, (0, 0))) for k in range(1, hops + 1))

    added = count_conventional(hops, 1) - count_conventional(hops, 0)
    assert measurement_events(9) - measurement_events(8) == added == hops**2


schedule_settings = st.fixed_dictionaries({
    "hops": st.integers(1, 6),
    "duration_s": st.integers(1, 30),
    "seed": st.integers(0, 2**32 - 1),
    "si_s": st.sampled_from([0.25, 0.5, 1, 2]),
    "measurement_interval_s": st.sampled_from([0.1, 0.37, 0.5, 1, 3]),
    "report_interval_s": st.sampled_from([0.5, 1, 2]),
})


@settings(max_examples=30, deadline=None)
@given(schedule_settings)
def test_the_measurement_schedule_does_not_depend_on_the_scheme(data):
    # at loss 0 the two one-way schemes take the same measurements at the
    # same instants, delivered or not; a lossless reverse run is walked and a
    # conventional one goes through the heap loop, so this holds the walk's
    # schedule against the heap loop's
    def schedule(scheme):
        trace = run_config(parse_config({**data, "scheme": scheme}))
        return {(o.origin, o.seq, o.true_ns) for o in trace.outcomes}

    assert schedule(REVERSE_ONEWAY) == schedule(CONVENTIONAL_ONEWAY)


def test_sensor_totals_excludes_head():
    trace = run_config(table1_config(REVERSE_ONEWAY, 1.0))
    per_sensor = sensor_totals(trace)
    assert set(per_sensor) == {1}
    assert per_sensor[1] == (100, 0)


def synthetic_trace(duration_s=100.0, tx_s=0.0, rx_s=0.0, schedule=SCHEDULED_WAKE):
    return RunTrace(
        scheme=REVERSE_ONEWAY,
        seed=0,
        duration_ns=round(duration_s * S),
        tick_ns=1000,
        head_method="window-lsq",
        head_window=19,
        radio={"bitrate_bps": 250_000, "schedule": schedule, "lpl_duty": 0.05},
        levels={0: 0, 1: 1},
        chains={1: (1,)},
        head_events=[],
        node_counts={0: {}, 1: {"report": (3, 0)}},
        airtime={0: (0.0, rx_s), 1: (tx_s, 0.0)},
        pair_accounting={},
        record_accounting={},
    )


def test_energy_all_idle():
    model = EnergyModel()
    ledger = energy_from_trace(synthetic_trace(), model)
    # radio never active: every node idles for the full duration
    for node in ledger.nodes.values():
        assert math.isclose(node.energy_j, 3.3 * 2e-5 * 100.0, rel_tol=1e-12)
    assert math.isclose(ledger.sensor_average_power_w(), 3.3 * 2e-5, rel_tol=1e-12)
    assert math.isclose(ledger.total_j(), 2 * 3.3 * 2e-5 * 100.0, rel_tol=1e-12)


def test_energy_dwell_per_schedule():
    model = EnergyModel(voltage_v=3.0, i_tx_a=0.02, i_listen_a=0.01, i_idle_a=0.001)
    trace = synthetic_trace(duration_s=100.0, tx_s=2.0, rx_s=1.0)
    always = energy_from_trace(trace, model, schedule=ALWAYS_ON).nodes[1]
    assert always.listen_seconds == 98.0 and always.idle_seconds == 0.0
    assert math.isclose(always.energy_j, 3.0 * (0.02 * 2 + 0.01 * 98), rel_tol=1e-12)

    lpl = energy_from_trace(trace, model, schedule=LPL).nodes[1]
    assert math.isclose(lpl.listen_seconds, 5.0)
    assert math.isclose(lpl.energy_j, 3.0 * (0.02 * 2 + 0.01 * 5 + 0.001 * 93), rel_tol=1e-12)

    # the trace records receive airtime on node 0 in this synthetic layout
    wake = energy_from_trace(trace, model, schedule=SCHEDULED_WAKE).nodes[1]
    assert wake.listen_seconds == 0.0
    assert math.isclose(wake.energy_j, 3.0 * (0.02 * 2 + 0.001 * 98), rel_tol=1e-12)

    with pytest.raises(ValueError):
        energy_from_trace(trace, model, schedule="solar")
    with pytest.raises(ValueError):
        energy_from_trace(synthetic_trace(duration_s=1.0, tx_s=2.0), model,
                          schedule=ALWAYS_ON)


def test_energy_scales_linearly_with_duration():
    model = EnergyModel()
    short = energy_from_trace(synthetic_trace(duration_s=50.0), model)
    long = energy_from_trace(synthetic_trace(duration_s=100.0), model)
    assert math.isclose(2 * short.total_j(), long.total_j(), rel_tol=1e-12)


energy_models = st.builds(
    EnergyModel,
    voltage_v=st.floats(1.0, 5.0),
    # listening must cost measurably more than idling for schedule ordering
    i_tx_a=st.floats(0.001, 0.1),
    i_listen_a=st.floats(0.011, 0.1),
    i_idle_a=st.floats(0.0, 0.01),
    i_mcu_a=st.floats(0.0, 0.001),
)


@settings(max_examples=100)
@given(energy_models)
def test_schedule_energy_ordering(model):
    # same radio activity, progressively longer listen dwells
    trace = synthetic_trace(duration_s=100.0, tx_s=1.0, rx_s=0.5)
    wake = energy_from_trace(trace, model, schedule=SCHEDULED_WAKE).nodes[1]
    lpl = energy_from_trace(trace, model, schedule=LPL).nodes[1]
    always = energy_from_trace(trace, model, schedule=ALWAYS_ON).nodes[1]
    assert wake.energy_j <= lpl.energy_j <= always.energy_j


def test_energy_model_validation():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            EnergyModel(i_tx_a=bad)
    with pytest.raises(TypeError):
        EnergyModel(i_tx=0.03)  # a misspelled current is not ignored
    assert EnergyModel(**{"i_tx_a": 0.03}) == EnergyModel(i_tx_a=0.03)


def outcome(err_s, origin=1, level=1, seq=1):
    translated = err_s is not None
    return MeasurementOutcome(
        origin=origin, level=level, seq=seq, true_ns=0, local_ticks=0.0,
        arrival_ns=0 if translated else None,
        est_ticks=0.0 if translated else None,
        err_s=err_s, translated=translated,
        reason=None if translated else "bootstrap",
    )


def test_accuracy_metrics_hand_example():
    report = accuracy_metrics([outcome(1e-6, seq=1), outcome(-3e-6, seq=2)])
    assert report.n_total == report.n_translated == 2
    assert math.isclose(report.overall.mae_s, 2e-6, rel_tol=1e-12)
    assert math.isclose(report.overall.mse_s2, 5e-12, rel_tol=1e-12)
    assert report.overall.p50_abs_s == 1e-6
    assert report.overall.max_abs_s == 3e-6
    assert report.overall.errors_s == (1e-6, -3e-6)


def test_accuracy_metrics_grouping_and_reasons():
    outcomes = [
        outcome(1e-6, origin=1, level=1, seq=1),
        outcome(2e-6, origin=2, level=2, seq=1),
        outcome(None, origin=2, level=2, seq=2),
    ]
    report = accuracy_metrics(outcomes)
    assert report.n_total == 3 and report.n_translated == 2
    assert set(report.per_node) == {1, 2}
    assert report.per_node[2].errors_s == (2e-6,)
    assert report.by_level[1].n == 1
    assert report.untranslated_reasons == {"bootstrap": 1}


def test_accuracy_metrics_error_paths():
    with pytest.raises(ValueError):
        accuracy_metrics([])
    with pytest.raises(ValueError):
        accuracy_metrics([outcome(None)])


@given(st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=50))
def test_percentiles_are_monotone(errors):
    outs = [outcome(e, seq=i + 1) for i, e in enumerate(errors)]
    stats = accuracy_metrics(outs).overall
    assert stats.p50_abs_s <= stats.p90_abs_s <= stats.p99_abs_s <= stats.max_abs_s
    assert stats.p50_abs_s in [abs(e) for e in errors]  # empirical quantile


def short_accuracy_config(seed=0, **overrides):
    cfg = singlehop_accuracy_config(seed=seed, duration_s=40)
    return cfg.replace(**overrides) if overrides else cfg


def test_replay_identity_and_window_change():
    trace = run_config(short_accuracy_config())
    same = replay(trace)
    assert same.outcomes == trace.outcomes
    assert same.head_window == trace.head_window

    narrow = replay(trace, head_window=2)
    assert narrow.head_window == 2
    assert len(narrow.outcomes) == len(trace.outcomes)
    assert [o.est_ticks for o in narrow.outcomes] != [o.est_ticks for o in trace.outcomes]

    unbounded = replay(trace, head_window="all")
    assert unbounded.head_window is None
    assert [o.est_ticks for o in unbounded.outcomes] != [o.est_ticks for o in narrow.outcomes]


def test_replay_equals_fresh_run_with_that_window():
    base = short_accuracy_config()
    trace = run_config(base)
    replayed = replay(trace, head_window=5)
    fresh = run_config(base.replace(head_window=5))
    assert replayed.outcomes == fresh.outcomes


def assert_accounting_conserves(pairs: dict, records: dict) -> None:
    """Every hop pair and measurement record ends in exactly one bucket."""
    assert pairs["created"] == (
        pairs["ingested"] + pairs["duplicates"] + pairs["lost"]
        + pairs["in_flight"] + pairs["unknown_child"]
    )
    assert records["generated"] == (
        records["delivered"] + records["duplicates"] + records["lost"]
        + records["in_flight"]
    )


@pytest.mark.parametrize(
    "cfg",
    [
        # event-driven bundled reports over a lossy 6-hop chain
        RunConfig(
            hops=6,
            duration_ns=60 * S,
            bundle_size=4,
            report_interval_ns=None,
            link=LinkConfig(loss=0.05),
        ),
        # SFD jitter wider than the gap between a 10 ms SI's clock reads
        *(
            parse_config({"scheme": scheme, "duration_s": 20, "si_s": 0.01})
            for scheme in SCHEMES
        ),
        # SFD jitter as wide as the gaps between a node's sync frames: head
        # refits of out-of-order pairs turn non-positive
        parse_config({
            "scheme": "reverse-oneway", "duration_s": 20, "si_s": 1, "hops": 3,
            "link": {"jitter_us": 10_000},
        }),
    ],
    ids=lambda cfg: f"{cfg.scheme}-{cfg.hops}hop-si{cfg.si_ns // 10**6}ms",
)
def test_jittered_clock_reads_run_to_completion(cfg):
    # SFD jitter can latch a stamp a few us before the clock's previous read
    trace = run_config(cfg)
    assert_accounting_conserves(trace.pair_accounting, trace.record_accounting)
    assert trace.record_accounting["generated"] > 0
    assert len(trace.outcomes) == trace.record_accounting["generated"]


def test_fp32_node_rejects_a_non_positive_refit():
    # node 2's fp32 reference estimate falls between two beacons while its
    # own stamp advances, so node 3's two-point refit has a negative ratio;
    # node 3 keeps its last good fit and the run completes
    cfg = parse_config({
        "scheme": "conventional-oneway", "duration_s": 60, "si_s": 0.01,
        "hops": 3, "seed": 93, "report_interval_s": None,
        "clock": {"tick_us": 30.5},
        "node": {"method": "two-point", "precision": "fp32-nearest"},
    })
    trace = run_config(cfg)
    assert trace.record_accounting["generated"] == len(trace.outcomes) > 0
    assert_accounting_conserves(trace.pair_accounting, trace.record_accounting)
    report = accuracy_metrics(trace)
    assert report.n_translated > 0
    assert math.isfinite(report.overall.mae_s)


def test_replay_rejects_other_schemes():
    # every scheme whose head leaves measurements untranslated
    for scheme in (CONVENTIONAL_ONEWAY, REVERSE_TWOWAY, CONVENTIONAL_TWOWAY):
        trace = run_config(table1_config(scheme, 10.0))
        with pytest.raises(ValueError, match="head-side estimation"):
            replay(trace)


def test_replay_rejects_bad_head_settings_at_the_call():
    # the replayed outcomes are derived on first read, but replay reads them
    trace = run_config(short_accuracy_config())
    with pytest.raises(ValueError):
        replay(trace, head_method="bogus")
    with pytest.raises(ValueError):
        replay(trace, head_window=1)
    # a window the method does not read is still checked
    with pytest.raises(ValueError):
        replay(trace, head_window=1, head_method="cumulative-ratio")


def test_sweep_grid_order_and_labels():
    base = short_accuracy_config(duration_ns=20 * S)
    rows = sweep(base, seeds=[0, 1], windows=[2, "all"])
    assert [(r["seed"], r["window"]) for r in rows] == [
        (0, "2"), (0, "all"), (1, "2"), (1, "all"),
    ]
    for row in rows:
        assert set(SWEEP_COLUMNS) <= set(row)
        assert row["scheme"] == REVERSE_ONEWAY
        assert row["n_translated"] is None or row["n_translated"] <= row["n_total"]


def test_sweep_parallel_matches_serial():
    base = short_accuracy_config(duration_ns=20 * S)
    serial = sweep(base, seeds=[0, 1], windows=[2, 5])
    parallel = sweep(base, seeds=[0, 1], windows=[2, 5], workers=2)
    assert serial == parallel


def test_sweep_pool_has_at_most_one_process_per_cell(monkeypatch):
    import concurrent.futures

    import synclab.analysis

    # a pool class bound at import would escape the fake and fork for real
    assert not hasattr(synclab.analysis, "ProcessPoolExecutor")
    sizes = []

    class RecordingPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = short_accuracy_config(duration_ns=20 * S)
    serial = sweep(base, seeds=[0, 1], windows=[2])
    assert sweep(base, seeds=[0, 1], windows=[2], workers=64) == serial
    assert sizes == [2]
    # one cell runs in this process: no pool at all
    assert sweep(base, seeds=[0], windows=[2], workers=64) == serial[:1]
    assert sizes == [2]


def test_measurement_csv_round_trip(tmp_path):
    trace = run_config(short_accuracy_config())
    path = tmp_path / "measurements.csv"
    write_measurements_csv(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(MEASUREMENT_COLUMNS)
    assert len(rows) == len(trace.outcomes)
    translated = [o for o in trace.outcomes if o.translated]
    got = [r for r in rows if r["translated"] == "true"]
    assert len(got) == len(translated)
    # repr round trip preserves the float exactly
    assert float(got[0]["err_s"]) == translated[0].err_s


def test_sweep_csv_and_summary_json(tmp_path):
    base = short_accuracy_config(duration_ns=20 * S)
    rows = sweep(base, windows=[2])
    sweep_path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep_path, rows)
    with open(sweep_path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(SWEEP_COLUMNS)
        assert len(list(reader)) == len(rows)

    trace = run_config(base)
    report = accuracy_metrics(trace)
    ledger = energy_from_trace(trace, EnergyModel())
    summary = summarize_trace(trace, report, ledger)
    out = tmp_path / "summary.json"
    write_summary_json(out, summary)
    loaded = json.loads(out.read_text())
    assert loaded == json.loads(json.dumps(summary))
    assert loaded["scheme"] == REVERSE_ONEWAY


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_save_and_load_trace(tmp_path):
    trace = run_config(short_accuracy_config())
    path = tmp_path / "trace.json"
    save_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.to_dict() == trace.to_dict()

    # a lossy run leaves undelivered measurements with no local timestamp
    lossy = run_config(RunConfig(
        hops=6, duration_ns=60 * S, bundling=BUNDLE_SELF, bundle_size=4,
        link=LinkConfig(loss=0.05),
    ))
    assert any(math.isnan(o.local_ticks) for o in lossy.outcomes)
    save_trace(path, lossy)
    json.loads(path.read_text(), parse_constant=reject_constant)
    loaded = load_trace(path)
    assert loaded.to_dict() == lossy.to_dict()
    write_measurements_csv(tmp_path / "live.csv", lossy)
    write_measurements_csv(tmp_path / "loaded.csv", loaded)
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "live.csv").read_bytes()


VERSIONLESS = Path(__file__).parent / "data" / "versionless"


def test_versionless_trace_loads_to_its_run_outputs(tmp_path):
    # the fixture is a trace of tests/data/versionless/run.json, written with
    # every outcome stored and no format_version, and that run's CSV
    loaded = load_trace(VERSIONLESS / "trace.json")
    write_measurements_csv(tmp_path / "loaded.csv", loaded)
    expected = (VERSIONLESS / "measurements.csv").read_bytes()
    assert (tmp_path / "loaded.csv").read_bytes() == expected
    reasons = {o.reason for o in loaded.outcomes}
    assert {"bootstrap", "undelivered"} <= reasons


def test_versionless_trace_stored_outcomes_equal_the_derived_ones():
    stored = json.loads((VERSIONLESS / "trace.json").read_text())["outcomes"]
    derived = [
        {**dataclasses.asdict(o), "local_ticks": None if math.isnan(o.local_ticks) else o.local_ticks}
        for o in load_trace(VERSIONLESS / "trace.json").outcomes
    ]
    assert derived == stored


head_settings = st.fixed_dictionaries({
    "method": st.sampled_from(["window-lsq", "two-point", "cumulative-ratio"]),
    "window": st.one_of(st.integers(2, 25), st.just("all")),
})

reverse_oneway_configs = st.fixed_dictionaries(
    {
        "scheme": st.just(REVERSE_ONEWAY),
        "duration_s": st.integers(1, 30),
        "si_s": st.sampled_from([0.1, 0.25, 0.5, 1, 2]),
        "hops": st.integers(1, 4),
        "seed": st.integers(0, 2**32 - 1),
        "bundling": st.sampled_from(["self", "all"]),
        "bundle_size": st.integers(1, 4),
        "head": head_settings,
        "clock": st.fixed_dictionaries({
            "tick_us": st.one_of(st.none(), st.integers(1, 50)),
            # offsets up to and past where an fp32 node's stamps leave the
            # single range
            "offset_us": st.one_of(
                st.floats(0.0, 1e6), st.integers(20, 36).map(lambda e: 10.0**e)
            ),
            "drift": st.sampled_from([
                {"kind": "constant"},
                {"kind": "random-walk", "sigma_ppm": 0.05, "step_s": 0.5},
            ]),
        }),
        "link": st.fixed_dictionaries({
            "loss": st.floats(0.0, 0.2, exclude_max=True),
            "jitter_us": st.floats(0.0, 10_000.0),
        }),
    },
    optional={"report_interval_s": st.none()},
)


@settings(max_examples=60, deadline=None)
@given(reverse_oneway_configs, head_settings)
def test_saved_trace_is_strict_json_and_replays_the_live_run(tmp_path_factory, data, head):
    tmp_path = tmp_path_factory.mktemp("trace")
    trace = run_config(parse_config(data))
    path = tmp_path / "trace.json"
    save_trace(path, trace)
    text = path.read_text()
    json.loads(text, parse_constant=reject_constant)
    assert text == json.dumps(trace.to_dict(), allow_nan=False) + "\n"
    loaded = load_trace(path)
    write_measurements_csv(tmp_path / "live.csv", trace)
    write_measurements_csv(tmp_path / "replayed.csv", replay(loaded))
    assert (tmp_path / "replayed.csv").read_bytes() == (tmp_path / "live.csv").read_bytes()
    # the head's settings do not change the run's traffic: a run at another
    # head records the same stream, and replaying it there gives that run
    other = run_config(parse_config({**data, "head": head}))
    for key in ("head_events", "node_counts", "pair_accounting", "record_accounting"):
        assert getattr(other, key) == getattr(trace, key), key
    moved = replay(loaded, head_window=head["window"], head_method=head["method"])
    write_measurements_csv(tmp_path / "other.csv", other)
    write_measurements_csv(tmp_path / "moved.csv", moved)
    assert (tmp_path / "moved.csv").read_bytes() == (tmp_path / "other.csv").read_bytes()
    # a window larger than the trace's pair count never evicts: its link,
    # which holds its pairs, fits as an unbounded one, which holds none
    wide = loaded.head_events.kinds.count("p") + 2
    for window, name in ((wide, "wide.csv"), (None, "all.csv")):
        write_measurements_csv(tmp_path / name, replay(loaded, window, "window-lsq"))
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "all.csv").read_bytes()


scheme_and_hops = st.one_of(
    st.fixed_dictionaries({
        "scheme": st.sampled_from([REVERSE_ONEWAY, CONVENTIONAL_ONEWAY]),
        "hops": st.integers(1, 3),
    }),
    # the two-way baselines are single-hop only
    st.fixed_dictionaries({
        "scheme": st.sampled_from([REVERSE_TWOWAY, CONVENTIONAL_TWOWAY]),
        "hops": st.just(1),
    }),
)

run_settings = st.fixed_dictionaries(
    {
        "duration_s": st.integers(1, 30),
        "si_s": st.sampled_from([0.1, 0.25, 0.5, 1, 2]),
        "seed": st.integers(0, 2**32 - 1),
        "bundling": st.sampled_from(["self", "all"]),
        "bundle_size": st.integers(1, 4),
        "node": st.fixed_dictionaries({
            "method": st.sampled_from(["two-point", "window-lsq"]),
            "window": st.integers(2, 8),
            "precision": st.sampled_from(["fp64", "fp32-chop", "fp32-nearest"]),
        }),
        "clock": st.fixed_dictionaries({
            "tick_us": st.one_of(st.none(), st.integers(1, 50)),
            # offsets up to and past where an fp32 node's stamps leave the
            # single range
            "offset_us": st.one_of(
                st.floats(0.0, 1e6), st.integers(20, 36).map(lambda e: 10.0**e)
            ),
            "drift": st.sampled_from([
                {"kind": "constant"},
                {"kind": "random-walk", "sigma_ppm": 0.05, "step_s": 0.5},
            ]),
        }),
        "link": st.fixed_dictionaries({
            "loss": st.floats(0.0, 0.2, exclude_max=True),
            "jitter_us": st.floats(0.0, 10_000.0),
        }),
        "radio": st.fixed_dictionaries({
            "schedule": st.sampled_from([ALWAYS_ON, LPL, SCHEDULED_WAKE]),
        }),
    },
    optional={"report_interval_s": st.none()},
)


def any_scheme_config(parts):
    data = {**parts[0], **parts[1]}
    # all-data bundling merges reports, which the conventional schemes never send
    if not SCHEME_RULES[data["scheme"]].reports:
        data["bundling"] = BUNDLE_SELF
    return data


any_scheme_configs = st.tuples(scheme_and_hops, run_settings).map(any_scheme_config)


@settings(max_examples=60, deadline=None)
@given(any_scheme_configs)
def test_saved_trace_of_every_scheme_is_strict_json_and_loads_as_the_run(
    tmp_path_factory, data
):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    tmp_path = tmp_path_factory.mktemp("trace")
    trace = run_config(cfg)
    path = tmp_path / "trace.json"
    save_trace(path, trace)
    json.loads(path.read_text(), parse_constant=reject_constant)
    loaded = load_trace(path)
    assert loaded.to_dict() == trace.to_dict()
    # the loaded trace derives its outcomes; the live run built them
    write_measurements_csv(tmp_path / "live.csv", trace)
    write_measurements_csv(tmp_path / "loaded.csv", loaded)
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "live.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(any_scheme_configs)
def test_runs_of_every_scheme_conserve_and_rerun_byte_identically(tmp_path_factory, data):
    try:
        parse_config(data)
    except ConfigError:
        return
    tmp_path = tmp_path_factory.mktemp("run")
    (tmp_path / "run.json").write_text(json.dumps(data))
    outputs = []
    for rerun in ("first", "second"):
        out = tmp_path / rerun
        assert main(["run", "--config", str(tmp_path / "run.json"), "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("measurements.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0][1])
    assert_accounting_conserves(summary["pair_accounting"], summary["record_accounting"])


def csv_writer_bytes(path, trace) -> bytes:
    """What ``csv.writer`` writes for the cells of ``trace``'s measurement
    rows: the reference that ``write_measurements_csv`` formats by hand."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEASUREMENT_COLUMNS)
        for out in trace.outcomes:
            writer.writerow((
                trace.scheme, trace.seed, out.origin, out.level, out.seq, out.true_ns,
                out.local_ticks, out.arrival_ns, out.est_ticks, out.err_s,
                "true" if out.translated else "false", out.reason,
            ))
    return Path(path).read_bytes()


# loss leaves undelivered rows (NaN local ticks, no arrival); float ticks;
# translated rows (no reason) next to untranslated ones (no estimate, no error)
CSV_EDGE_CONFIG = {
    "scheme": REVERSE_ONEWAY, "hops": 2, "duration_s": 20, "si_s": 1, "seed": 3,
    "clock": {"tick_us": None}, "link": {"loss": 0.15},
}


@settings(max_examples=60, deadline=None)
@given(any_scheme_configs)
@example(CSV_EDGE_CONFIG)
def test_measurements_csv_is_what_csv_writer_writes(tmp_path_factory, data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    tmp_path = tmp_path_factory.mktemp("csv")
    trace = run_config(cfg)
    write_measurements_csv(tmp_path / "measurements.csv", trace)
    expected = csv_writer_bytes(tmp_path / "reference.csv", trace)
    assert (tmp_path / "measurements.csv").read_bytes() == expected


def test_csv_edge_config_covers_every_empty_and_nan_cell():
    trace = run_config(parse_config(CSV_EDGE_CONFIG))
    assert trace.tick_ns is None
    outcomes = trace.outcomes
    assert any(math.isnan(o.local_ticks) and o.arrival_ns is None for o in outcomes)
    assert any(o.est_ticks is None and o.err_s is None and o.arrival_ns is not None
               for o in outcomes)
    assert any(o.translated and o.reason is None for o in outcomes)
