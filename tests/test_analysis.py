"""Counting formulas, energy accounting, accuracy metrics, replay, sweeps."""

import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab.analysis import (
    MEASUREMENT_COLUMNS,
    SWEEP_COLUMNS,
    AccuracyReport,
    EnergyLedger,
    EnergyModel,
    accuracy_metrics,
    command_local_time,
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
    sync_event_total,
    table1_counts,
    write_measurements_csv,
    write_summary_json,
    write_sweep_csv,
)
from synclab.config import RunConfig, singlehop_accuracy_config, table1_config
from synclab.estimators import HeadEstimator
from synclab.protocol import (
    ALWAYS_ON,
    BUNDLE_ALL,
    BUNDLE_SELF,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    LPL,
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
    SCHEDULED_WAKE,
)
from synclab.simnet import LinkConfig, MeasurementOutcome, RunTrace

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
        assert count_proposed(n, "self-data") == want
    for n, want in [(1, 1), (2, 3), (4, 7), (6, 11)]:
        assert count_proposed(n, "all") == want == 2 * n - 1
        assert count_proposed(n, "all-data") == want
    with pytest.raises(ValueError):
        count_proposed(0, "self")
    with pytest.raises(ValueError):
        count_proposed(2, "some")


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


@pytest.mark.parametrize("hops,mode", [(1, BUNDLE_SELF), (2, BUNDLE_SELF),
                                       (4, BUNDLE_SELF), (1, BUNDLE_ALL),
                                       (2, BUNDLE_ALL), (4, BUNDLE_ALL)])
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
    assert sync_event_total(trace) == count_proposed(hops, mode)


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
        outcomes=[],
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
    with pytest.raises(ValueError):
        EnergyModel(i_tx_a=-0.1)
    assert EnergyModel.from_dict({}) == EnergyModel()
    assert EnergyModel.from_dict({"i_tx_a": 0.03}).i_tx_a == 0.03


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


def test_replay_rejects_other_schemes():
    trace = run_config(table1_config(CONVENTIONAL_ONEWAY, 10.0))
    with pytest.raises(ValueError):
        replay(trace)


def test_command_local_time_round_trip():
    trace = run_config(short_accuracy_config())
    t_reference = 30e6  # ticks
    local = command_local_time(trace, 1, t_reference)
    assert local is not None
    estimator = HeadEstimator(trace.head_method, trace.head_window)
    from synclab.simnet import apply_head_event

    for event in trace.head_events:
        apply_head_event(estimator, trace.chains, trace.tick_ns, event)
    back = estimator.translate_to_reference(trace.chains[1], local)
    assert math.isclose(back, t_reference, rel_tol=1e-9)


def test_command_local_time_needs_bootstrap():
    trace = run_config(short_accuracy_config())
    trace.head_events = [e for e in trace.head_events if e[0] != "pair"]
    assert command_local_time(trace, 1, 1e6) is None


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
