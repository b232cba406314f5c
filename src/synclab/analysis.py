"""Offline analysis: message-count formulas, energy, accuracy, replay, sweeps.

Everything here consumes a :class:`~synclab.trace.RunTrace` (or builds one
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
from array import array
from dataclasses import dataclass

import numpy as np

from . import protocol, simnet
from .clock import NS_PER_S
from .config import EnergyModel, RunConfig
from .trace import RunTrace


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


def count_proposed(n: int, mode: str) -> int:
    """Sensor-side message events for one beaconless report wave.

    Self-data bundling sends one frame per node (relayed hop by hop):
    ``sum(2(i-1)+1) = n^2``.  All-data bundling merges everything into a
    single ascending frame: ``2(n-1)+1``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mode == protocol.BUNDLE_SELF:
        return sum(2 * (i - 1) + 1 for i in range(1, n + 1))
    if mode == protocol.BUNDLE_ALL:
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
    rules = protocol.SCHEME_RULES.get(scheme)
    if rules is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    rounds = math.floor(duration_s / si_s)
    return (measurements + rounds * rules.requests, rounds * (rules.beacons or rules.requests))


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


# -- energy --------------------------------------------------------------------


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
    duty = trace.radio["lpl_duty"]
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


_STATISTICS = tuple(
    f.name for f in dataclasses.fields(ErrorStats) if f.name not in ("n", "errors_s")
)
"""The statistics a summary and a sweep row report, ``mae_s`` to
``max_abs_s``, in field order."""


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


def run_config(cfg: RunConfig) -> RunTrace:
    """Run ``cfg`` and stamp its identity on the trace."""
    trace = simnet.Engine(cfg).run()
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

    The replayed trace is the stored one at the new head settings, its
    outcomes folded from the recorded head events by
    :func:`~synclab.trace.derive_outcomes`, as every trace's are; radio
    traffic, timestamps, and delivery are untouched, so with the original
    window and method this reproduces the original outcomes exactly.
    ``head_window=None`` (or ``"all"``) selects an unbounded window.  Bad
    head settings (an unknown method, a window below 2) raise ValueError
    here, not at the first read of the outcomes.
    """
    if protocol.SCHEME_RULES[trace.scheme].untranslated is not None:
        raise ValueError("replay applies to head-side estimation traces only")
    method = trace.head_method if head_method is None else head_method
    window = trace.head_window if head_window is _KEEP else head_window
    if window == "all":
        window = None
    replayed = dataclasses.replace(trace, head_method=method, head_window=window)
    replayed.outcomes  # fold now, so that bad head settings raise at the call
    return replayed


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
    head_fits = protocol.SCHEME_RULES[scheme].untranslated is None
    rows = []
    for window in windows:
        if window == trace.head_window or not head_fits:
            cell = trace
        else:
            cell = replay(trace, head_window=window)
        try:
            report = accuracy_metrics(cell)
        except ValueError:  # nothing translated: the statistics are empty cells
            report = None
        rows.append({
            "scheme": scheme,
            "si_s": si_ns / NS_PER_S,
            "hops": hops,
            "seed": seed,
            "window": _window_label(window),
            "n_total": len(cell.outcomes),
            "n_translated": report and report.n_translated,
            **{name: report and getattr(report.overall, name) for name in _STATISTICS},
        })
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

    ``workers`` > 1 runs the cells in a process pool of at most one process
    per cell; the pool module is imported only then, so no other command
    loads ``multiprocessing``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
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
    workers = min(workers, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_sweep_cell, cells))
    else:
        per_cell = [_sweep_cell(cell) for cell in cells]
    return [row for rows in per_cell for row in rows]


# -- serialization -----------------------------------------------------------------


SWEEP_COLUMNS = (
    "scheme", "si_s", "hops", "seed", "window", "n_total", "n_translated", *_STATISTICS,
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
    """One row per measurement, fixed column order, full float precision.

    Each row is the bytes ``csv.writer`` writes for its cells: a number is
    its ``str`` (a float's shortest repr), None is an empty cell, and
    ``translated`` is ``true`` or ``false``.  No cell needs quoting: the
    scheme and the reason are fixed identifiers and the outcome fields hold
    plain ints and floats.  Rows are written ``_TRACE_SLICE`` at a time, so
    the file's text is never held whole.
    """
    head = f"{trace.scheme},{trace.seed},"
    outcomes = trace.outcomes
    with open(path, "w", newline="") as fh:
        fh.write(",".join(MEASUREMENT_COLUMNS) + "\n")
        for start in range(0, len(outcomes), _TRACE_SLICE):
            fh.write("".join([
                f"{head}{out.origin},{out.level},{out.seq},{out.true_ns},{out.local_ticks},"
                f"{'' if out.arrival_ns is None else out.arrival_ns},"
                f"{'' if out.est_ticks is None else out.est_ticks},"
                f"{'' if out.err_s is None else out.err_s},"
                f"{'true' if out.translated else 'false'},"
                f"{'' if out.reason is None else out.reason}\n"
                for out in outcomes[start:start + _TRACE_SLICE]
            ]))


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in SWEEP_COLUMNS])


def _stats_dict(stats: ErrorStats) -> dict:
    return {name: getattr(stats, name) for name in ("n", *_STATISTICS)}


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


_ENCODE = json.JSONEncoder(allow_nan=False).encode
_TRACE_SLICE = 128
"""List items per encoder call, and CSV rows per write: the C encoder holds a
call's fragments until it joins them, so one call per long list would hold all
of its text at once."""


def _write_json(fh, value) -> None:
    """Write ``json.dumps(value, allow_nan=False)`` with each array written as
    a list, one object member and ``_TRACE_SLICE`` items per encoder call."""
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else '{'}{_ENCODE(key)}: ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, (list, array)):
        fh.write("[")
        for start in range(0, len(value), _TRACE_SLICE):
            items = value[start:start + _TRACE_SLICE]
            items = _ENCODE(items if type(items) is list else items.tolist())[1:-1]
            fh.write(f"{', ' if start else ''}{items}")
        fh.write("]")
    else:
        fh.write(_ENCODE(value))


def save_trace(path, trace: RunTrace) -> None:
    """Write ``trace`` as strict JSON: the text of ``json.dumps(trace.to_dict(),
    allow_nan=False)`` plus a newline.

    The text is encoded by the C encoder a piece at a time (see
    :func:`_write_json`), from the trace's own head-event columns, so the
    run's largest values (those columns and the event log) are never held as
    one string, nor as lists.  A non-finite number raises ``ValueError``.
    """
    with open(path, "w") as fh:
        _write_json(fh, trace.to_dict(column=lambda values: values))
        fh.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"a trace is strict JSON, got {name}")


def load_trace(path) -> RunTrace:
    """Read a trace that :func:`save_trace` wrote, in this format or the
    version-less one.  Its outcomes are derived from its head events when
    first read (see :class:`~synclab.trace.RunTrace`)."""
    with open(path) as fh:
        return RunTrace.from_dict(json.load(fh, parse_constant=_reject_constant))
