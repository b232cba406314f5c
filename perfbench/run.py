"""synclab benchmark: three batch workloads driven through ``synclab.cli.main``.

    python3 perfbench/run.py --workload chain-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # all three, one process
    python3 -m pytest perfbench/test_smoke.py             # one short op per workload

Each operation (op) is one CLI invocation, or a fixed group of them, run
in-process on config files generated from the workload seed.  Ops run in a
closed loop with one client until ``--seconds`` of measuring have passed, and
always at least ``GUARD_OPS`` of them, so that the deterministic outputs
cover the same ops on every run.  Every op's outputs are checked; an op that
raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: importing synclab plus the median of ``SETUP_REPS`` set-ups
  (config generation; for replay-windows also simulating and saving the trace);
* ``ops_per_s`` and ``op_s_p50``: checked ops per second of op time, and the
  median op time, over the run's ops (their count is ``attempted``);
* ``peak_rss_mb``: the process's peak resident memory;
* ``ok_frac``: ops that passed their checks over ops attempted;
* ``mae_us``, ``sensor_tx_frames``, ``sensor_energy_mj``: science guards
  over the first ``GUARD_OPS`` ops, which repeat exactly for a seed: pooled
  mean absolute translation error, and per invocation the sensors' transmitted
  frames and radio energy.

Times are host seconds scaled to a reference speed (see ``Stopwatch``); the
raw seconds go to the results file.  ``--trace 1`` alternates untraced and
traced runs of the same op, wraps the program's public functions (see
``tracer.py``) and reports per-layer counts and self times per traced op, and
the tracing overhead.  A completed run prints, as its last stdout line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(``--workload all`` prints one such line per workload).  Everything the run
writes stays under the checkout: scratch outputs in ``.perfbench_work/``,
results and spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import heapq
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

GUARD_OPS = 3
"""Ops always run; the digest and the science guards cover exactly these."""

SETUP_REPS = 3
"""Set-up repeats per run; setup_s reports import time plus their median."""

MAX_TRACED_PAIRS = 3
"""Upper bound on (untraced, traced) op pairs in a traced run, to cap span memory."""

REF_POOL = 50_000
"""Objects in the reference walk's pool: a few MB, beyond the per-core caches
(and counted in peak_rss_mb); each sample walks every ``REF_STRIDE``-th one."""
REF_STRIDE = 25

REF_NOMINAL_S = 0.002
"""Typical time of one reference sample on the 2-vCPU Xeon VM the benchmark
was written on; scaled times read as seconds on that machine at that speed."""

HELD_OUT_SEED = 7919
"""Seed kept out of tuning; a claimed gain must also hold on it."""

SMOKE_DURATION_S = 60

CHAIN_CONFIG = {
    "scheme": "reverse-oneway",
    "hops": 6,
    "duration_s": 600,
    "si_s": 1,
    "bundling": "self",
    "head": {"method": "window-lsq", "window": 19},
    "clock": {"tick_us": 1, "drift": {"kind": "random-walk", "sigma_ppm": 0.02}},
}

FLOOD_CONFIG = {
    "scheme": "conventional-oneway",
    "hops": 3,
    "duration_s": 600,
    "si_s": 1,
    "link": {"loss": 0.01},
    "node": {"method": "window-lsq", "window": 8, "precision": "fp32-chop"},
}

REPLAYS = (
    ("window-2", ["--window", "2"]),
    ("window-19", ["--window", "19"]),
    ("window-all", ["--window", "all"]),
    ("cumulative-ratio", ["--method", "cumulative-ratio"]),
)

WHY = {
    "chain-run": "6-hop reverse-oneway run with trace save: engine, clock, jitter, "
    "frames, head-side refits and writers; never touches precision",
    "replay-windows": "replays one stored trace at windows 2, 19, all and "
    "cumulative-ratio: head-side fitting and trace I/O with no engine at all",
    "flood-fp32": "3-hop beacon flooding, 1% loss, node window-lsq in fp32-chop: "
    "node-side emulated fits and lost frames; never touches HeadEstimator",
}

# Which per-layer metrics should move which end-to-end metric, on which workloads.
PREDICTIONS = (
    ("clock.read.calls clock.read.self_s clock.drift_steps", "ops_per_s",
     "chain-run flood-fp32; zero on replay-windows"),
    ("protocol.jitter.calls protocol.jitter.self_s protocol.frames_built "
     "protocol.size_bytes.self_s", "ops_per_s", "chain-run flood-fp32"),
    ("protocol.node_estimate.calls protocol.node_estimate.self_s", "ops_per_s",
     "flood-fp32 only"),
    ("precision.f32_ops precision.f32.self_s", "ops_per_s",
     "flood-fp32 only; zero elsewhere"),
    ("estimators.ingest.calls estimators.fit.calls estimators.fit.pairs "
     "estimators.fit.self_s estimators.translate.self_s estimators.fits_per_ingest",
     "ops_per_s op_s_p50", "replay-windows most, chain-run next; zero on flood-fp32"),
    ("simnet.events simnet.heap.self_s simnet.heap_peak simnet.run.self_s "
     "simnet.head_events", "ops_per_s", "chain-run flood-fp32; zero on replay-windows"),
    ("analysis.replay.self_s analysis.accuracy.self_s analysis.energy.self_s "
     "analysis.write.self_s analysis.bytes_written analysis.load_trace.self_s "
     "analysis.bytes_read", "ops_per_s peak_rss_mb", "replay-windows chain-run"),
    ("config.parse.self_s cli.main.total_s", "setup_s op_s_p50", "all"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mae_us": "us",
    "sensor_tx_frames": "count",
    "sensor_energy_mj": "mJ",
}


class CheckFailed(Exception):
    """An op's outputs broke an invariant the benchmark checks."""


@dataclass
class Outputs:
    """What one CLI invocation wrote, after its checks passed."""

    csv_bytes: bytes
    summary_bytes: bytes
    abs_errors: list
    tx_frames: int
    sensor_energy_j: float


@dataclass
class OpResult:
    """One op: raw and scaled seconds, output digest, and (for the first
    GUARD_OPS ops only) the checked outputs the science guards are read from."""

    raw_s: float
    scaled_s: float
    digest: str = ""
    outputs: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# -- driving the program --------------------------------------------------------


class _RefItem:
    __slots__ = ("seq", "value")

    def __init__(self, seq: int, value: float) -> None:
        self.seq, self.value = seq, value


class Stopwatch:
    """Host seconds of a section, raw and scaled to the reference speed.

    The host's speed drifts: on the 2-vCPU VM this benchmark was written on, a
    fixed op's 20 s medians varied by about a fifth from one minute to the
    next.  So while a section runs, a timer signal every ``SAMPLE_EVERY_S``
    interrupts it to time a small fixed reference workload that never changes
    with the program and mixes the kinds of work the workloads do: object
    churn through a heap and a dict, a walk over a pool of objects larger than
    the caches, and float32 rounding through fractions and numpy scalars.
    The section's raw time excludes those samples; its scaled time is
    ``raw * REF_NOMINAL_S / mean(sample times)``, so a slow spell of the host
    slows the samples as much as the section and cancels out: over ten 30 s
    runs the scaled op time's IQR/median was 0.01-0.08 per workload.  A section too
    short to hold ``MIN_SAMPLES`` samples is scaled by every sample of the run
    so far; the import and set-up are scaled last, by all of the run's samples.
    A disabled stopwatch (traced runs) takes no samples and scales nothing.
    """

    SAMPLE_EVERY_S = 0.1
    MIN_SAMPLES = 5

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # imported here, not at the top, so that synclab's import time keeps it
        self._np = importlib.import_module("numpy")
        self._samples: list = []
        self._pool: list = []
        self._offset = 0
        if enabled:
            rng = random.Random(0)
            self._pool = [_RefItem(i, float(i)) for i in range(REF_POOL)]
            rng.shuffle(self._pool)
            self._samples = [self._sample() for _ in range(self.MIN_SAMPLES)]

    def _sample(self) -> float:
        """Time one fixed slice of the kinds of work the workloads do."""
        t0 = time.perf_counter()
        heap, counts, acc = [], {}, 0.0
        for i in range(600):
            heapq.heappush(heap, ((i * 7919) % 1009, i, _RefItem(i, float(i))))
            if len(heap) > 16:
                due, seq, item = heapq.heappop(heap)
                counts[seq % 97] = counts.get(seq % 97, 0) + 1
                acc = math.fsum((acc, item.value * 1.000001, -due / 3.0))
        self._offset = (self._offset + 1) % REF_STRIDE
        acc += math.fsum([o.value for o in self._pool[self._offset::REF_STRIDE]])
        np = self._np
        zero = np.float32(0.0)
        for i in range(1, 41):
            exact = Fraction(1.0 + i * 2.0**-30) + Fraction(i * 1e-3)
            approx = np.float32(float(exact))
            if Fraction(float(approx)) > exact:
                approx = np.nextafter(approx, zero)
            acc += float(approx)
        return time.perf_counter() - t0

    def scale(self, raw: float, samples=()) -> float:
        """Scale ``raw`` seconds by ``samples``, or by the run's samples so far."""
        if not self.enabled:
            return raw
        basis = samples if len(samples) >= self.MIN_SAMPLES else self._samples
        return raw * REF_NOMINAL_S / statistics.fmean(basis)

    def time(self, fn) -> tuple[float, list]:
        """Run ``fn()``; return its raw seconds and the samples taken meanwhile."""
        samples, spent = [], 0.0
        if not self.enabled:
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0, samples

        def on_timer(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            samples.append(self._sample())
            spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.extend(samples)
        return elapsed - spent, samples


def _invoke(cli, argv) -> None:
    """Run one CLI command in-process, its stdout captured and discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise CheckFailed(f"synclab {argv[0]} exited with {rc}")


def check_outputs(out_dir: Path) -> Outputs:
    """Read one invocation's measurements.csv and summary.json and check them."""
    csv_bytes = (out_dir / "measurements.csv").read_bytes()
    summary_bytes = (out_dir / "summary.json").read_bytes()
    summary = json.loads(summary_bytes)
    pa = summary["pair_accounting"]
    if pa["created"] != (
        pa["ingested"] + pa["duplicates"] + pa["lost"] + pa["in_flight"]
        + pa["unknown_child"]
    ):
        raise CheckFailed(f"pair accounting does not conserve: {pa}")
    ra = summary["record_accounting"]
    if ra["generated"] != ra["delivered"] + ra["lost"] + ra["in_flight"]:
        raise CheckFailed(f"record accounting does not conserve: {ra}")
    abs_errors = []
    for row in csv.DictReader(io.StringIO(csv_bytes.decode())):
        if row["translated"] == "true":
            err = float(row["err_s"])
            if not math.isfinite(err):
                raise CheckFailed(f"non-finite translated error {row['err_s']!r}")
            abs_errors.append(abs(err))
    if not abs_errors or summary["accuracy"]["n_translated"] != len(abs_errors):
        raise CheckFailed("translated rows disagree with summary.json")
    nodes = summary["energy"]["nodes"].values()
    return Outputs(
        csv_bytes=csv_bytes,
        summary_bytes=summary_bytes,
        abs_errors=abs_errors,
        tx_frames=sum(tx for tx, _ in summary["sensor_totals"].values()),
        sensor_energy_j=math.fsum(n["energy_j"] for n in nodes if n["level"] > 0),
    )


def op_seed(workload: str, seed: int, index: int) -> int:
    """Simulation seed of op ``index``; a pure function of the workload seed."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31)


def _write_config(path: Path, config: dict, seed: int, smoke: bool) -> Path:
    data = dict(config, seed=seed)
    if smoke:
        data["duration_s"] = SMOKE_DURATION_S
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


class Workload:
    """A named op plus its set-up; ``op`` returns the output dirs to check.

    During an op each CLI invocation is timed on its own; the code between
    invocations and the output checks stay outside the op's time.
    """

    name = ""

    def __init__(self, cli, seed: int, smoke: bool, watch: Stopwatch) -> None:
        self.cli, self.seed, self.smoke, self.watch = cli, seed, smoke, watch
        self.timing = False
        self.raw_s = self.scaled_s = 0.0

    def invoke(self, argv) -> None:
        if not self.timing:
            _invoke(self.cli, argv)
            return
        raw, samples = self.watch.time(lambda: _invoke(self.cli, argv))
        self.raw_s += raw
        self.scaled_s += self.watch.scale(raw, samples)

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self, index: int, out: Path) -> list:
        raise NotImplementedError

    def check_op(self, outputs: list) -> None:
        """Cross-invocation checks beyond the per-invocation ones."""


class ChainRun(Workload):
    name = "chain-run"

    def setup(self, work: Path) -> None:
        self.config = _write_config(work / "chain.json", CHAIN_CONFIG, self.seed, self.smoke)

    def op(self, index: int, out: Path) -> list:
        self.invoke(["run", "--config", self.config, "--out-dir", out,
                     "--seed", op_seed(self.name, self.seed, index), "--save-trace"])
        return [out]


class FloodFp32(Workload):
    name = "flood-fp32"

    def setup(self, work: Path) -> None:
        self.config = _write_config(work / "flood.json", FLOOD_CONFIG, self.seed, self.smoke)

    def op(self, index: int, out: Path) -> list:
        self.invoke(["run", "--config", self.config, "--out-dir", out,
                     "--seed", op_seed(self.name, self.seed, index)])
        return [out]


class ReplayWindows(Workload):
    name = "replay-windows"

    def setup(self, work: Path) -> None:
        config = _write_config(work / "chain.json", CHAIN_CONFIG, self.seed, self.smoke)
        live = work / "live"
        self.invoke(["run", "--config", config, "--out-dir", live,
                     "--seed", op_seed(self.name, self.seed, 0), "--save-trace"])
        self.live_csv = (live / "measurements.csv").read_bytes()
        self.trace = live / "trace.json"
        self.trace_sha = hashlib.sha256(self.trace.read_bytes()).hexdigest()

    def op(self, index: int, out: Path) -> list:
        dirs = []
        for label, args in REPLAYS:
            self.invoke(["replay", "--trace", self.trace,
                         "--out-dir", out / label, *args])
            dirs.append(out / label)
        return dirs

    def check_op(self, outputs: list) -> None:
        # the trace was recorded with window-lsq at window 19
        own = outputs[[label for label, _ in REPLAYS].index("window-19")]
        if own.csv_bytes != self.live_csv:
            raise CheckFailed("replay at the trace's own settings differs from the live run")


WORKLOADS = {w.name: w for w in (ChainRun, ReplayWindows, FloodFp32)}


def run_op(workload: Workload, index: int, keep: bool, tracer=None) -> OpResult:
    """One timed op, then its output checks (outside the timed region)."""
    out = WORK_DIR / f"{workload.name}-{os.getpid()}" / f"op-{index}"
    workload.raw_s = workload.scaled_s = 0.0
    workload.timing = True
    span = None if tracer is None else tracer.open(tracer.name_id("bench.op"))
    try:
        try:
            dirs = workload.op(index, out)
        finally:
            workload.timing = False
            if span is not None:
                tracer.close(span)
        outputs = [check_outputs(d) for d in dirs]
        workload.check_op(outputs)
        h = hashlib.sha256()
        for o in outputs:
            h.update(o.csv_bytes)
            h.update(o.summary_bytes)
        result = OpResult(workload.raw_s, workload.scaled_s, h.hexdigest(),
                          outputs if keep else [])
    except Exception:  # the loop must go on; the op counts as failed
        result = OpResult(workload.raw_s, workload.scaled_s, error=traceback.format_exc())
        print(f"op {index} failed:\n{result.error}", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


# -- metrics ------------------------------------------------------------------------


def guards(ops: list) -> dict:
    """Deterministic science guards over the first GUARD_OPS ops."""
    outputs = [o for op in ops for o in op.outputs]
    errors = [e for o in outputs for e in o.abs_errors]
    if not errors:
        return {"mae_us": 0.0, "sensor_tx_frames": 0.0, "sensor_energy_mj": 0.0}
    return {
        "mae_us": math.fsum(errors) / len(errors) * 1e6,
        "sensor_tx_frames": math.fsum(o.tx_frames for o in outputs) / len(outputs),
        "sensor_energy_mj": math.fsum(o.sensor_energy_j for o in outputs)
        / len(outputs) * 1e3,
    }


def digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.digest.encode())
    return h.hexdigest()


def per_layer_metrics(tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced op, and self seconds per layer per op."""
    calls, total, own = tracer.self_times()
    counts = tracer.counts

    def per(value):
        return value / n_ops

    fit_calls = calls.get("estimators.fit", 0)
    ingests = calls.get("estimators.ingest", 0)
    values = {
        "clock.read.calls": per(calls.get("clock.read", 0)),
        "clock.read.self_s": per(own.get("clock.read", 0.0)),
        "clock.drift_steps": per(counts.get("clock.drift_steps", 0)),
        "protocol.jitter.calls": per(calls.get("protocol.jitter", 0)),
        "protocol.jitter.self_s": per(own.get("protocol.jitter", 0.0)),
        "protocol.frames_built": per(counts.get("protocol.frames_built", 0)),
        "protocol.size_bytes.self_s": per(own.get("protocol.size_bytes", 0.0)),
        "protocol.node_estimate.calls": per(calls.get("protocol.node_estimate", 0)),
        "protocol.node_estimate.self_s": per(own.get("protocol.node_estimate", 0.0)),
        "precision.f32_ops": per(calls.get("precision.f32", 0)),
        "precision.f32.self_s": per(own.get("precision.f32", 0.0)),
        "estimators.ingest.calls": per(ingests),
        "estimators.fit.calls": per(fit_calls),
        "estimators.fit.pairs": per(counts.get("estimators.fit.pairs", 0)),
        "estimators.fit.self_s": per(own.get("estimators.fit", 0.0)),
        "estimators.translate.self_s": per(own.get("estimators.translate", 0.0)),
        "estimators.fits_per_ingest": fit_calls / ingests if ingests else 0.0,
        "simnet.events": per(counts.get("simnet.events", 0)),
        "simnet.heap.self_s": per(own.get("simnet.heap", 0.0)),
        "simnet.heap_peak": float(tracer.heap_peak),
        "simnet.run.self_s": per(own.get("simnet.run", 0.0)),
        "simnet.head_events": per(counts.get("simnet.head_events", 0)),
        "analysis.replay.self_s": per(own.get("analysis.replay", 0.0)),
        "analysis.accuracy.self_s": per(own.get("analysis.accuracy", 0.0)),
        "analysis.energy.self_s": per(own.get("analysis.energy", 0.0)),
        "analysis.write.self_s": per(own.get("analysis.write", 0.0)),
        "analysis.bytes_written": per(counts.get("analysis.bytes_written", 0)),
        "analysis.load_trace.self_s": per(own.get("analysis.load_trace", 0.0)),
        "analysis.bytes_read": per(counts.get("analysis.bytes_read", 0)),
        "config.parse.self_s": per(own.get("config.parse", 0.0)),
        "cli.main.total_s": per(total.get("cli.main", 0.0)),
    }
    layers: dict = {}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + per(seconds)
    return values, layers


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_ingest"):
        return "ratio"
    if name.startswith("analysis.bytes_"):
        return "B"
    return "count"


# -- environment ---------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").is_dir():
        try:
            proc = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- one workload ---------------------------------------------------------------------


def _setup(cls, cli, seed: int, smoke: bool, reps: int, watch: Stopwatch) -> tuple:
    """Set the workload up ``reps`` times; keep the last, return each rep's
    (raw seconds, samples)."""
    times, digests = [], set()
    workload = None
    for rep in range(reps):
        work = WORK_DIR / f"{cls.name}-{os.getpid()}" / f"setup-{rep}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = cls(cli, seed, smoke, watch)
        times.append(watch.time(lambda: workload.setup(work)))
        digests.add(getattr(workload, "trace_sha", None))
    if len(digests) != 1:
        raise CheckFailed("set-up repeats produced different traces")
    return workload, times


def run_workload(name: str, cli, args, import_raw: float, watch, tracer_mod) -> dict:
    smoke = args.smoke
    guard_ops = 1 if smoke else GUARD_OPS
    reps = 1 if smoke else SETUP_REPS
    workload, setup_times = _setup(WORKLOADS[name], cli, args.seed, smoke, reps, watch)

    ops, traced, overheads = [], [], []
    tracer = tracer_mod.Tracer() if args.trace else None
    start = time.perf_counter()

    def more() -> bool:
        if len(ops) < guard_ops:
            return True
        if smoke or time.perf_counter() - start >= args.seconds:
            return False
        return not args.trace or len(traced) < MAX_TRACED_PAIRS

    while more():
        index = len(ops)
        op = run_op(workload, index, keep=index < guard_ops)
        ops.append(op)
        if tracer is not None:
            tracer.install()
            try:
                traced_op = run_op(workload, index, keep=False, tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append(traced_op)
            if traced_op.ok and op.ok:
                if traced_op.digest != op.digest:
                    traced_op.error = "traced outputs differ from untraced outputs"
                overheads.append(traced_op.raw_s - op.raw_s)

    attempted = len(ops) + len(traced)
    failed = sum(not o.ok for o in ops + traced)
    guard_block = ops[:guard_ops]
    result = {
        "workload": name,
        "why": WHY[name],
        "environment": environment(args.seed),
        "predictions": [
            {"metrics": m.split(), "moves": e.split(), "workloads": w}
            for m, e, w in PREDICTIONS
        ],
        "op_raw_s": [o.raw_s for o in ops],
        "op_scaled_s": [o.scaled_s for o in ops],
        "op_digests": [o.digest for o in ops],
        "digest": digest(guard_block),
        "digest_ops": len(guard_block),
    }
    if tracer is None:
        times = [o.scaled_s for o in ops]
        metrics = {
            "setup_s": watch.scale(import_raw)
            + statistics.median(watch.scale(*t) for t in setup_times),
            "ops_per_s": sum(o.ok for o in ops) / math.fsum(times),
            "op_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
            **guards(guard_block),
        }
        units = END_TO_END_UNITS
        result.update(import_raw_s=import_raw,
                      setup_raw_s=statistics.median(raw for raw, _ in setup_times))
    else:
        n = max(len(traced), 1)
        metrics, layers = per_layer_metrics(tracer, n)
        units = {k: layer_unit(k) for k in metrics}
        op_total = math.fsum(o.raw_s for o in traced) / n
        overhead = statistics.median(overheads) if overheads else 0.0
        untraced = statistics.median([o.raw_s for o in ops])
        result.update(
            layer_self_s=layers,
            traced_op_s=op_total,
            untraced_op_s=untraced,
            tracing_overhead_s=overhead,
            spans=len(tracer),
            unwrapped=tracer.missing,
        )
        print(f"{name}: self seconds per traced op by layer (sum {sum(layers.values()):.4f}"
              f" of {op_total:.4f} s)")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<11} {seconds:10.4f} s  {seconds / max(op_total, 1e-9):6.1%}")
        print(f"{name}: tracing overhead {overhead:.4f} s per op over "
              f"{untraced:.4f} s untraced ({overhead / max(untraced, 1e-9):.0%}), "
              f"{len(tracer)} spans")
        if tracer.missing:
            print(f"{name}: not wrapped (absent): {' '.join(tracer.missing)}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result.update(correct=failed == 0, attempted=attempted, failed=failed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"{stem}-spans.npz")

    env = result["environment"]
    print(f"{name}: python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"commit {env['git_commit']} src_lines {env['src_lines']} seed {args.seed} "
          f"held-out seed {HELD_OUT_SEED}")
    print(f"{name}: {len(ops)} ops, {failed} failed; digest {result['digest']} "
          f"over the first {len(guard_block)} ops")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:16.6f} {units[key]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"one short op per workload ({SMOKE_DURATION_S} s simulated)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        importlib.import_module("synclab.cli")
    except ImportError as exc:
        print(f"error: cannot import synclab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_raw = time.perf_counter() - t0
    import synclab
    import synclab.cli as cli

    watch = Stopwatch(enabled=not args.trace)

    if Path(synclab.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: synclab was imported from {synclab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracer_mod

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, cli, args, import_raw, watch, tracer_mod))
    finally:
        for name in names:
            shutil.rmtree(WORK_DIR / f"{name}-{os.getpid()}", ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    if len(names) > 1:
        print("peak_rss_mb is the process high-water mark so far; "
              "run a workload alone for its own peak")
    for result in results:
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
