"""Offline analysis: message-count formulas, energy, accuracy, replay, sweeps.

Everything here consumes a :class:`~synclab.simnet.RunTrace` (or builds one
from a :class:`~synclab.config.RunConfig`) and reduces it to numbers: message
counts, per-node energy under a radio duty schedule, measurement-time error
statistics, or a sweep table.  Replay re-folds a stored head event stream
through a fresh estimator, so window and method studies reuse one simulation.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import protocol, simnet
from .clock import NS_PER_S
from .config import RunConfig
from .estimators import HeadEstimator, multihop_from_head
from .simnet import MeasurementOutcome, RunTrace, apply_head_event


# -- closed-form message counts ----------------------------------------------


def count_conventional(n: int, m: int) -> int:
    """Sensor-side message events for one flood plus ``m`` measurement rounds
    per node on an ``n``-hop chain.

    One flood wave costs ``2(n-1)+1`` receive/transmit events at the sensors;
    each measurement from layer ``i`` costs ``2(i-1)+1`` on its way up.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    flood = 2 * (n - 1) + 1
    per_round = sum(2 * (i - 1) + 1 for i in range(1, n + 1))
    return flood + m * per_round


_SELF_MODES = ("self", "self-data", protocol.BUNDLE_SELF)
_ALL_MODES = ("all", "all-data", protocol.BUNDLE_ALL)


def count_proposed(n: int, mode: str) -> int:
    """Sensor-side message events for one beaconless report wave.

    Self-data bundling sends one frame per node (relayed hop by hop):
    ``sum(2(i-1)+1) = n^2``.  All-data bundling merges everything into a
    single ascending frame: ``2(n-1)+1``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mode in _SELF_MODES:
        return sum(2 * (i - 1) + 1 for i in range(1, n + 1))
    if mode in _ALL_MODES:
        return 2 * (n - 1) + 1
    raise ValueError(f"unknown bundling mode {mode!r}")


def table1_counts(
    scheme: str, si_s: float, duration_s: float, measurements: int
) -> tuple[int, int]:
    """Single-hop sensor (N_TX, N_RX) over a run of the given length.

    Sync rounds happen every SI; measurements ride their own frames.
    """
    if si_s <= 0 or duration_s <= 0:
        raise ValueError("SI and duration must be positive")
    if measurements < 0:
        raise ValueError("measurements must be non-negative")
    rounds = math.floor(duration_s / si_s)
    if scheme == protocol.CONVENTIONAL_TWOWAY:
        return (measurements + rounds, rounds)
    if scheme == protocol.CONVENTIONAL_ONEWAY:
        return (measurements, rounds)
    if scheme == protocol.REVERSE_TWOWAY:
        return (measurements, rounds)
    if scheme == protocol.REVERSE_ONEWAY:
        return (measurements, 0)
    raise ValueError(f"unknown scheme {scheme!r}")


# -- trace count helpers -------------------------------------------------------


def sensor_totals(trace: RunTrace) -> dict[int, tuple[int, int]]:
    """Per-sensor (N_TX, N_RX) over all frame kinds."""
    totals = {}
    for node, kinds in trace.node_counts.items():
        if trace.levels[node] == 0:
            continue
        tx = sum(v[0] for v in kinds.values())
        rx = sum(v[1] for v in kinds.values())
        totals[node] = (tx, rx)
    return totals


def sync_event_total(trace: RunTrace) -> int:
    """Total sync-bearing report events (TX+RX) across all sensor nodes."""
    total = 0
    for node, kinds in trace.node_counts.items():
        if trace.levels[node] == 0:
            continue
        tx, rx = kinds.get(protocol.REPORT, (0, 0))
        total += tx + rx
    return total


# -- energy --------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyModel:
    """Radio/MCU current draws (amperes) at a fixed supply voltage."""

    voltage_v: float = 3.3
    i_tx_a: float = 0.0174
    i_listen_a: float = 0.0197
    i_idle_a: float = 2e-5
    i_mcu_a: float = 0.0

    def __post_init__(self) -> None:
        for name in ("voltage_v", "i_tx_a", "i_listen_a", "i_idle_a", "i_mcu_a"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    @staticmethod
    def from_dict(data: dict) -> "EnergyModel":
        return EnergyModel(
            voltage_v=float(data.get("voltage_v", 3.3)),
            i_tx_a=float(data.get("i_tx_a", 0.0174)),
            i_listen_a=float(data.get("i_listen_a", 0.0197)),
            i_idle_a=float(data.get("i_idle_a", 2e-5)),
            i_mcu_a=float(data.get("i_mcu_a", 0.0)),
        )


@dataclass(frozen=True)
class NodeEnergy:
    node_id: int
    level: int
    tx_count: int
    rx_count: int
    tx_seconds: float
    listen_seconds: float
    idle_seconds: float
    energy_j: float
    avg_power_w: float


@dataclass(frozen=True)
class EnergyLedger:
    nodes: dict[int, NodeEnergy]
    duration_s: float
    schedule: str

    def total_j(self) -> float:
        return sum(n.energy_j for n in self.nodes.values())

    def sensor_average_power_w(self) -> float:
        sensors = [n for n in self.nodes.values() if n.level > 0]
        if not sensors:
            raise ValueError("trace has no sensor nodes")
        return sum(n.avg_power_w for n in sensors) / len(sensors)


def energy_from_trace(
    trace: RunTrace, model: EnergyModel, schedule: str | None = None
) -> EnergyLedger:
    """Energy per node: dwell times from the trace, currents from ``model``.

    The listen dwell follows the radio schedule: an always-on radio listens
    whenever it is not transmitting, a duty-cycled one listens a fixed
    fraction of the time, a wake-on-schedule one only during actual receptions.
    """
    schedule = schedule or trace.radio["schedule"]
    duty = trace.radio.get("lpl_duty", 0.05)
    duration_s = trace.duration_ns / NS_PER_S
    nodes = {}
    for node_id, kinds in trace.node_counts.items():
        tx_s, rx_s = trace.airtime[node_id]
        if schedule == protocol.ALWAYS_ON:
            listen_s = duration_s - tx_s
        elif schedule == protocol.LPL:
            listen_s = duty * duration_s
        elif schedule == protocol.SCHEDULED_WAKE:
            listen_s = rx_s
        else:
            raise ValueError(f"unknown radio schedule {schedule!r}")
        idle_s = duration_s - tx_s - listen_s
        if tx_s < 0 or listen_s < 0 or idle_s < -1e-12:
            raise ValueError(f"negative dwell time at node {node_id}")
        idle_s = max(idle_s, 0.0)
        energy_j = model.voltage_v * (
            model.i_tx_a * tx_s
            + model.i_listen_a * listen_s
            + model.i_idle_a * idle_s
            + model.i_mcu_a * duration_s
        )
        nodes[node_id] = NodeEnergy(
            node_id=node_id,
            level=trace.levels[node_id],
            tx_count=sum(v[0] for v in kinds.values()),
            rx_count=sum(v[1] for v in kinds.values()),
            tx_seconds=tx_s,
            listen_seconds=listen_s,
            idle_seconds=idle_s,
            energy_j=energy_j,
            avg_power_w=energy_j / duration_s,
        )
    return EnergyLedger(nodes=nodes, duration_s=duration_s, schedule=schedule)


# -- accuracy -------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorStats:
    """Summary of signed errors (seconds) with empirical-CDF percentiles."""

    n: int
    mae_s: float
    mse_s2: float
    p50_abs_s: float
    p90_abs_s: float
    p99_abs_s: float
    max_abs_s: float
    errors_s: tuple[float, ...]


@dataclass(frozen=True)
class AccuracyReport:
    overall: ErrorStats
    per_node: dict[int, ErrorStats]
    by_level: dict[int, ErrorStats]
    n_total: int
    n_translated: int
    untranslated_reasons: dict[str, int]


def _error_stats(errors: list[float]) -> ErrorStats:
    arr = np.abs(np.asarray(errors, dtype=float))
    p50, p90, p99 = (
        float(np.quantile(arr, q, method="inverted_cdf")) for q in (0.5, 0.9, 0.99)
    )
    return ErrorStats(
        n=len(errors),
        mae_s=float(arr.mean()),
        mse_s2=float(np.mean(np.square(np.asarray(errors, dtype=float)))),
        p50_abs_s=p50,
        p90_abs_s=p90,
        p99_abs_s=p99,
        max_abs_s=float(arr.max()),
        errors_s=tuple(float(e) for e in errors),
    )


def accuracy_metrics(trace_or_outcomes) -> AccuracyReport:
    """Error statistics over the translated measurements of a run.

    Untranslated measurements (bootstrap, undelivered, or scheme without
    head-side translation) are excluded from the statistics and tallied by
    reason.
    """
    if isinstance(trace_or_outcomes, RunTrace):
        outcomes = trace_or_outcomes.outcomes
    else:
        outcomes = list(trace_or_outcomes)
    if not outcomes:
        raise ValueError("no measurements to analyze")
    reasons: dict[str, int] = {}
    translated = []
    for out in outcomes:
        if out.translated:
            translated.append(out)
        else:
            reasons[out.reason] = reasons.get(out.reason, 0) + 1
    if not translated:
        raise ValueError("no translated measurements to analyze")
    per_node: dict[int, list[float]] = {}
    by_level: dict[int, list[float]] = {}
    for out in translated:
        per_node.setdefault(out.origin, []).append(out.err_s)
        by_level.setdefault(out.level, []).append(out.err_s)
    return AccuracyReport(
        overall=_error_stats([o.err_s for o in translated]),
        per_node={n: _error_stats(v) for n, v in sorted(per_node.items())},
        by_level={l: _error_stats(v) for l, v in sorted(by_level.items())},
        n_total=len(outcomes),
        n_translated=len(translated),
        untranslated_reasons=reasons,
    )


# -- replay and orchestration ----------------------------------------------------


def run_config(cfg: RunConfig, collect_events: bool | None = None) -> RunTrace:
    """Build the chain topology for ``cfg``, run it, stamp config identity."""
    topology = simnet.build_chain(cfg.hops, cfg.clock, cfg.link, cfg.seed)
    collect = cfg.collect_events if collect_events is None else collect_events
    trace = simnet.run(
        topology,
        cfg.scheme_config(),
        cfg.duration_ns,
        cfg.seed,
        radio=cfg.radio_config(),
        collect_events=collect,
    )
    trace.config = cfg.to_dict()
    trace.config_hash = cfg.config_hash()
    return trace


_KEEP = object()
"""Default marker: keep the trace's own window (None means unbounded)."""


def replay(
    trace: RunTrace,
    head_window=_KEEP,
    head_method: str | None = None,
) -> RunTrace:
    """Re-fit head-side estimation on a stored trace without re-simulating.

    Folds the recorded head event stream through a fresh estimator; radio
    traffic, timestamps, and delivery are untouched, so with the original
    window and method this reproduces the original outcomes exactly.
    ``head_window=None`` (or ``"all"``) selects an unbounded window.
    """
    if trace.scheme != protocol.REVERSE_ONEWAY:
        raise ValueError("replay applies to head-side estimation traces only")
    method = trace.head_method if head_method is None else head_method
    window = trace.head_window if head_window is _KEEP else head_window
    if window == "all":
        window = None
    estimator = HeadEstimator(method, window)
    outcomes = []
    for event in trace.head_events:
        out = apply_head_event(estimator, trace.chains, trace.tick_ns, tuple(event))
        if out is not None:
            outcomes.append(out)
    for out in trace.outcomes:
        if out.reason == "undelivered":
            outcomes.append(dataclasses.replace(out))
    return dataclasses.replace(
        trace, head_method=method, head_window=window, outcomes=outcomes
    )


def command_local_time(trace: RunTrace, origin: int, t_reference) -> float | None:
    """Head-side helper for optional downlink commands: the local clock value
    at which node ``origin`` should act to hit reference time ``t_reference``.

    Uses the same per-layer parameters the head learned from the trace;
    returns None while any layer on the path is still unsynchronized.
    """
    if trace.scheme != protocol.REVERSE_ONEWAY:
        raise ValueError("local-time commands need head-side estimation traces")
    estimator = HeadEstimator(trace.head_method, trace.head_window)
    for event in trace.head_events:
        apply_head_event(estimator, trace.chains, trace.tick_ns, tuple(event))
    chain = trace.chains[origin]
    params = estimator.chain_params(chain)
    if params is None:
        return None
    return multihop_from_head(params, t_reference)


# -- sweeps -----------------------------------------------------------------------


def _window_label(window) -> str:
    return "all" if window is None else str(window)


def _derive_config(
    base: RunConfig, scheme: str, si_ns: int, hops: int, seed: int
) -> RunConfig:
    changes = {"scheme": scheme, "hops": hops, "seed": seed}
    if si_ns != base.si_ns:
        changes["si_ns"] = si_ns
        # keep schedules that were tied to the sync interval tied to it
        if base.report_interval_ns == base.si_ns:
            changes["report_interval_ns"] = si_ns
        if base.measurement_interval_ns == base.si_ns:
            changes["measurement_interval_ns"] = si_ns
    return base.replace(**changes)


def _sweep_cell(args) -> list[dict]:
    base, scheme, si_ns, hops, seed, windows = args
    cfg = _derive_config(base, scheme, si_ns, hops, seed)
    cfg = cfg.replace(head_window=windows[0])
    trace = run_config(cfg)
    rows = []
    for window in windows:
        if window == trace.head_window or trace.scheme != protocol.REVERSE_ONEWAY:
            cell = trace
        else:
            cell = replay(trace, head_window=window)
        row = {
            "scheme": scheme,
            "si_s": si_ns / NS_PER_S,
            "hops": hops,
            "seed": seed,
            "window": _window_label(window),
            "n_total": len(cell.outcomes),
            "n_translated": None,
            "mae_s": None,
            "mse_s2": None,
            "p50_abs_s": None,
            "p90_abs_s": None,
            "p99_abs_s": None,
            "max_abs_s": None,
        }
        try:
            report = accuracy_metrics(cell)
        except ValueError:
            rows.append(row)
            continue
        row.update(
            n_translated=report.n_translated,
            mae_s=report.overall.mae_s,
            mse_s2=report.overall.mse_s2,
            p50_abs_s=report.overall.p50_abs_s,
            p90_abs_s=report.overall.p90_abs_s,
            p99_abs_s=report.overall.p99_abs_s,
            max_abs_s=report.overall.max_abs_s,
        )
        rows.append(row)
    return rows


def sweep(
    base: RunConfig,
    schemes=None,
    si_s=None,
    hops=None,
    seeds=None,
    windows=None,
    workers: int = 1,
) -> list[dict]:
    """Grid run: scheme x SI x hops x seed simulated once each, then one row
    per window via replay.  Rows come back in deterministic grid order.
    """
    schemes = list(schemes) if schemes else [base.scheme]
    si_list = [round(s * NS_PER_S) for s in si_s] if si_s else [base.si_ns]
    hops_list = list(hops) if hops else [base.hops]
    seed_list = list(seeds) if seeds is not None else [base.seed]
    window_list = list(windows) if windows else [base.head_window]
    window_list = [None if w == "all" else w for w in window_list]
    cells = [
        (base, scheme, si_ns, hop, seed, tuple(window_list))
        for scheme in schemes
        for si_ns in si_list
        for hop in hops_list
        for seed in seed_list
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_sweep_cell, cells))
    else:
        per_cell = [_sweep_cell(cell) for cell in cells]
    return [row for rows in per_cell for row in rows]


# -- serialization -----------------------------------------------------------------


SWEEP_COLUMNS = (
    "scheme", "si_s", "hops", "seed", "window", "n_total", "n_translated",
    "mae_s", "mse_s2", "p50_abs_s", "p90_abs_s", "p99_abs_s", "max_abs_s",
)

MEASUREMENT_COLUMNS = (
    "scheme", "seed", "origin", "level", "seq", "true_ns", "local_ticks",
    "arrival_ns", "est_ticks", "err_s", "translated", "reason",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_measurements_csv(path, trace: RunTrace) -> None:
    """One row per measurement, fixed column order, full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEASUREMENT_COLUMNS)
        for out in trace.outcomes:
            writer.writerow(
                [
                    trace.scheme,
                    trace.seed,
                    out.origin,
                    out.level,
                    out.seq,
                    out.true_ns,
                    _fmt(out.local_ticks),
                    _fmt(out.arrival_ns),
                    _fmt(out.est_ticks),
                    _fmt(out.err_s),
                    _fmt(out.translated),
                    _fmt(out.reason),
                ]
            )


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in SWEEP_COLUMNS])


def _stats_dict(stats: ErrorStats) -> dict:
    return {
        "n": stats.n,
        "mae_s": stats.mae_s,
        "mse_s2": stats.mse_s2,
        "p50_abs_s": stats.p50_abs_s,
        "p90_abs_s": stats.p90_abs_s,
        "p99_abs_s": stats.p99_abs_s,
        "max_abs_s": stats.max_abs_s,
    }


def summarize_trace(
    trace: RunTrace,
    report: AccuracyReport | None = None,
    ledger: EnergyLedger | None = None,
) -> dict:
    """JSON-ready run summary: identity, counts, accounting, metrics."""
    summary = {
        "scheme": trace.scheme,
        "seed": trace.seed,
        "config_hash": trace.config_hash,
        "duration_s": trace.duration_ns / NS_PER_S,
        "head_method": trace.head_method,
        "head_window": _window_label(trace.head_window),
        "node_counts": {
            str(n): {k: list(v) for k, v in sorted(kinds.items())}
            for n, kinds in sorted(trace.node_counts.items())
        },
        "sensor_totals": {
            str(n): list(v) for n, v in sorted(sensor_totals(trace).items())
        },
        "pair_accounting": dict(trace.pair_accounting),
        "record_accounting": dict(trace.record_accounting),
        "config": trace.config,
    }
    if report is not None:
        summary["accuracy"] = {
            "overall": _stats_dict(report.overall),
            "by_level": {
                str(l): _stats_dict(s) for l, s in report.by_level.items()
            },
            "n_total": report.n_total,
            "n_translated": report.n_translated,
            "untranslated_reasons": report.untranslated_reasons,
        }
    if ledger is not None:
        summary["energy"] = {
            "schedule": ledger.schedule,
            "total_j": ledger.total_j(),
            "nodes": {
                str(n.node_id): {
                    "level": n.level,
                    "tx_count": n.tx_count,
                    "rx_count": n.rx_count,
                    "tx_seconds": n.tx_seconds,
                    "listen_seconds": n.listen_seconds,
                    "idle_seconds": n.idle_seconds,
                    "energy_j": n.energy_j,
                    "avg_power_w": n.avg_power_w,
                }
                for n in sorted(ledger.nodes.values(), key=lambda e: e.node_id)
            },
        }
    return summary


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trace(path, trace: RunTrace) -> None:
    with open(path, "w") as fh:
        json.dump(trace.to_dict(), fh, allow_nan=False)
        fh.write("\n")


def load_trace(path) -> RunTrace:
    with open(path) as fh:
        return RunTrace.from_dict(json.load(fh))
