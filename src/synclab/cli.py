"""Command-line front end: run, sweep, count, replay.

Exit status is 0 on success and 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import analysis, estimators, protocol
from .config import ConfigError, RunConfig, load_config


def _parse_window(text: str):
    if text == "all":
        return "all"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be an integer or 'all', got {text!r}"
        )
    if value < 2:
        raise argparse.ArgumentTypeError("window must be at least 2")
    return value


def _write_event_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("t_ns", "node", "kind"))
        for t_ns, node, kind in trace.event_log:
            writer.writerow((t_ns, node, kind))


def _emit_run_outputs(out_dir, trace, save_trace: bool) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    try:
        report = analysis.accuracy_metrics(trace)
    except ValueError:
        report = None
    ledger = None
    if trace.config is not None:
        model = RunConfig.from_dict(trace.config).energy
        ledger = analysis.energy_from_trace(trace, model)
    summary = analysis.summarize_trace(trace, report=report, ledger=ledger)
    analysis.write_measurements_csv(os.path.join(out_dir, "measurements.csv"), trace)
    analysis.write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    if save_trace:
        analysis.save_trace(os.path.join(out_dir, "trace.json"), trace)
    if trace.event_log is not None:
        _write_event_csv(os.path.join(out_dir, "events.csv"), trace)
    return summary


def _print_run_line(summary: dict) -> None:
    line = (
        f"{summary['scheme']} seed={summary['seed']}"
        f" window={summary['head_window']}"
    )
    accuracy = summary.get("accuracy")
    if accuracy is not None:
        line += (
            f" translated={accuracy['n_translated']}/{accuracy['n_total']}"
            f" mae={accuracy['overall']['mae_s']:.3e}s"
        )
    energy = summary.get("energy")
    if energy is not None:
        line += f" energy={energy['total_j']:.4e}J"
    print(line)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.event_log:
        cfg = cfg.replace(collect_events=True)
    trace = analysis.run_config(cfg)
    summary = _emit_run_outputs(args.out_dir, trace, args.save_trace)
    _print_run_line(summary)
    return 0


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    rows = analysis.sweep(
        base,
        schemes=args.schemes,
        si_s=args.si,
        hops=args.hops,
        seeds=args.seeds,
        windows=args.windows,
        workers=args.workers,
    )
    analysis.write_sweep_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_count(args) -> int:
    if args.table1:
        for scheme in protocol.SCHEMES:
            for si_s in args.si or (1.0, 10.0, 100.0):
                tx, rx = analysis.table1_counts(
                    scheme, si_s, args.duration, args.measurements
                )
                print(f"{scheme:22s} si={si_s:>6g}s n_tx={tx:>6d} n_rx={rx:>6d}")
        return 0
    if args.hops is None:
        raise ConfigError("count needs --hops (or --table1)")
    n, m = args.hops, args.per_hop_measurements
    print(f"conventional n={n} m={m}: {analysis.count_conventional(n, m)}")
    print(f"proposed self-data n={n}: {analysis.count_proposed(n, protocol.BUNDLE_SELF)}")
    print(f"proposed all-data  n={n}: {analysis.count_proposed(n, protocol.BUNDLE_ALL)}")
    return 0


def _cmd_replay(args) -> int:
    trace = analysis.load_trace(args.trace)
    kwargs = {}
    if args.window is not None:
        kwargs["head_window"] = args.window
    if args.method is not None:
        kwargs["head_method"] = args.method
    replayed = analysis.replay(trace, **kwargs)
    summary = _emit_run_outputs(args.out_dir, replayed, args.save_trace)
    _print_run_line(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synclab",
        description="Deterministic time-synchronization laboratory for chain "
        "sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument(
        "--save-trace", action="store_true", help="also write replayable trace.json"
    )
    p_run.add_argument(
        "--event-log", action="store_true", help="also write per-event events.csv"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs -> one CSV table")
    p_sweep.add_argument("--config", required=True, help="JSON base config file")
    p_sweep.add_argument(
        "--schemes", nargs="+", choices=protocol.SCHEMES, default=None
    )
    p_sweep.add_argument("--si", nargs="+", type=float, default=None,
                         help="sync intervals in seconds")
    p_sweep.add_argument("--hops", nargs="+", type=int, default=None)
    p_sweep.add_argument("--seeds", nargs="+", type=int, default=None)
    p_sweep.add_argument("--windows", nargs="+", type=_parse_window, default=None,
                         help="head window sizes (integers or 'all')")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_count = sub.add_parser("count", help="closed-form message-count calculator")
    p_count.add_argument("--hops", type=int, default=None)
    p_count.add_argument("--per-hop-measurements", type=int, default=2)
    p_count.add_argument("--table1", action="store_true",
                         help="single-hop per-scheme N_TX/N_RX table")
    p_count.add_argument("--si", nargs="+", type=float, default=None,
                         help="sync intervals for the table (seconds)")
    p_count.add_argument("--duration", type=float, default=3600.0)
    p_count.add_argument("--measurements", type=int, default=100)
    p_count.set_defaults(func=_cmd_count)

    p_replay = sub.add_parser(
        "replay", help="re-fit head estimation on a stored trace"
    )
    p_replay.add_argument("--trace", required=True, help="trace.json from run")
    p_replay.add_argument("--window", type=_parse_window, default=None)
    p_replay.add_argument("--method", default=None, choices=estimators.ESTIMATOR_METHODS)
    p_replay.add_argument("--out-dir", default=".", help="output directory")
    p_replay.add_argument("--save-trace", action="store_true",
                          help="also write the replayed trace.json")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
