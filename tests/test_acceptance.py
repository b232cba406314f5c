"""End-to-end release gates, one test per criterion.

Each test asserts its numeric target at full strength, asserts its wall-time
budget, and prints a single summary line with the headline numbers (visible
under ``pytest -s``; ``pytest -v`` gives the pass/fail line per criterion).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from synclab.analysis import (
    EnergyModel,
    accuracy_metrics,
    count_conventional,
    count_proposed,
    energy_from_trace,
    replay,
    run_config,
    sensor_totals,
    table1_counts,
)
from synclab.cli import main
from synclab.clock import ClockConfig, ClockParams
from synclab.config import (
    RunConfig,
    energy_comparison_config,
    multihop_accuracy_config,
    singlehop_accuracy_config,
    table1_config,
)
from synclab.estimators import (
    TimestampPair,
    cumulative_ratio,
    interpolate_params,
    lsq_fit,
    multihop_from_head,
    multihop_to_head,
)
from synclab.precision import (
    CHOP,
    MACHINE_EPS32,
    PrecisionLoss,
    empirical_loss,
    psi_error,
)
from synclab.protocol import (
    ALWAYS_ON,
    BUNDLE_ALL,
    BUNDLE_SELF,
    CONVENTIONAL_ONEWAY,
    CONVENTIONAL_TWOWAY,
    LPL,
    REVERSE_ONEWAY,
    REVERSE_TWOWAY,
)
from synclab.simnet import LinkConfig, build_chain

S = 1_000_000_000


def test_criterion_01_closed_form_counts_exact():
    t0 = time.perf_counter()
    conv = count_conventional(4, 2)
    bundled_self = count_proposed(4, BUNDLE_SELF)
    bundled_all = count_proposed(4, BUNDLE_ALL)
    elapsed = time.perf_counter() - t0
    assert (conv, bundled_self, bundled_all) == (39, 16, 7)
    assert elapsed < 0.001
    print(
        f"criterion 1: PASS - counts {conv}/{bundled_self}/{bundled_all} "
        f"exact in {elapsed * 1e6:.0f} us"
    )


EXPECTED_HOURLY_COUNTS = {
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


def test_criterion_02_hourly_count_table_and_live_traces():
    slowest = 0.0
    for (scheme, si_s), expected in EXPECTED_HOURLY_COUNTS.items():
        counted = table1_counts(scheme, si_s, 3600.0, 100)
        assert counted == expected, (scheme, si_s)
        t0 = time.perf_counter()
        trace = run_config(table1_config(scheme, si_s))
        elapsed = time.perf_counter() - t0
        assert sensor_totals(trace)[1] == expected, (scheme, si_s)
        assert elapsed < 10.0, (scheme, si_s)
        slowest = max(slowest, elapsed)
    print(
        "criterion 2: PASS - all 12 (scheme x SI) cells exact, closed form "
        f"and hour-long live traces agree; slowest trace {slowest:.2f} s"
    )


def test_criterion_03_chop_translation_error_bands():
    t0 = time.perf_counter()
    worst = PrecisionLoss(eps_alpha=-MACHINE_EPS32, eps_beta=0.0)
    # end-to-end single-precision chop on a large anchored window: the input
    # 2**30 + 127 quantizes to 2**30, giving a slope loss near the worst case
    measured = empirical_loss(
        interpolate_params,
        TimestampPair(0.0, 0.0),
        TimestampPair(2.0**30 + 127.0, 2.0**30),
        mode=CHOP,
    )
    checks = []
    for loss in (worst, measured):
        for horizon_s, target_us in ((1.0, 0.119), (10.0, 1.19)):
            ticks = horizon_s * 1e6  # 1 us resolution
            psi_us = abs(psi_error(loss, ticks))
            assert 0.9 * target_us <= psi_us <= 1.3 * target_us
            checks.append(psi_us)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        "criterion 3: PASS - |psi| bands: worst-case "
        f"{checks[0]:.4f}/{checks[1]:.3f} us, chop-measured "
        f"{checks[2]:.4f}/{checks[3]:.3f} us at 1 s/10 s"
    )


def test_criterion_04_noise_free_estimator_recovery():
    t0 = time.perf_counter()
    cfg = RunConfig(
        scheme=REVERSE_ONEWAY,
        hops=6,
        duration_ns=300 * S,
        si_ns=S,
        measurement_interval_ns=S,
        report_interval_ns=S,
        bundling=BUNDLE_SELF,
        clock=ClockConfig(tick_ns=None),
        link=LinkConfig(propagation_ns=0, jitter_ns=0, loss=0.0),
    )
    trace = run_config(cfg)
    truth = build_chain(cfg.hops, cfg.clock, cfg.link, cfg.seed).nodes

    pairs = [
        TimestampPair(ev[4], ev[5], ev[6])
        for ev in trace.head_events
        if ev[0] == "pair" and ev[2] == 1
    ]
    assert len(pairs) > 100
    true1 = truth[1].params
    fitted = lsq_fit(pairs)
    assert math.isclose(fitted.ratio, true1.ratio, rel_tol=1e-9)
    assert math.isclose(fitted.offset, true1.offset, rel_tol=1e-9)
    two_point = interpolate_params(pairs[0], pairs[-1])
    assert math.isclose(two_point.ratio, true1.ratio, rel_tol=1e-9)
    assert math.isclose(two_point.offset, true1.offset, rel_tol=1e-9)
    rate = cumulative_ratio(pairs[0], pairs[-1])
    assert math.isclose(rate, 1.0 / true1.ratio, rel_tol=1e-9)

    errors = [abs(out.err_s) for out in trace.outcomes if out.translated]
    assert len(errors) > 1000
    assert max(errors) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "criterion 4: PASS - noise-free recovery: ratio/offset within 1e-9 "
        f"relative, {len(errors)} translated errors all < 1e-9 s "
        f"(max {max(errors):.2e} s) in {elapsed:.2f} s"
    )


def _fraction_lsq(pairs):
    # child-on-parent normal equations in exact rational arithmetic
    n = Fraction(len(pairs))
    sp = sum(Fraction(p.t_parent) for p in pairs)
    sc = sum(Fraction(p.t_child) for p in pairs)
    spp = sum(Fraction(p.t_parent) * Fraction(p.t_parent) for p in pairs)
    spc = sum(Fraction(p.t_parent) * Fraction(p.t_child) for p in pairs)
    ratio = (n * spc - sp * sc) / (n * spp - sp * sp)
    offset = (sc - ratio * sp) / n
    return ratio, offset


def test_criterion_05_lsq_matches_extended_precision_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        parents = rng.uniform(0.0, 1e5) + np.cumsum(rng.uniform(1e3, 1e5, n))
        ratio = 1.0 + rng.uniform(-5e-4, 5e-4)
        offset = rng.uniform(1e4, 1e6) * (1 if rng.random() < 0.5 else -1)
        children = ratio * parents + offset + rng.uniform(-1e2, 1e2, n)
        pairs = [
            TimestampPair(float(c), float(p), i)
            for i, (c, p) in enumerate(zip(children, parents))
        ]
        fitted = lsq_fit(pairs)
        exact_ratio, exact_offset = _fraction_lsq(pairs)
        rel_r = abs(Fraction(fitted.ratio) - exact_ratio) / abs(exact_ratio)
        rel_o = abs(Fraction(fitted.offset) - exact_offset) / abs(exact_offset)
        worst = max(worst, float(rel_r), float(rel_o))
        assert rel_r <= Fraction(1, 10**12)
        assert rel_o <= Fraction(1, 10**12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 5: PASS - 1000 windows vs rational normal-equation oracle, "
        f"worst relative difference {worst:.2e} (< 1e-12) in {elapsed:.1f} s"
    )


def test_criterion_06_multihop_translation_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_per_hop = 0.0
    for _ in range(10_000):
        hops = int(rng.integers(1, 7))
        stack = [
            ClockParams(
                ratio=1.0 + rng.uniform(-5e-4, 5e-4),
                offset=rng.uniform(-1e6, 1e6),
            )
            for _ in range(hops)
        ]
        t_reference = rng.uniform(1e8, 1e9)
        local = multihop_from_head(stack, t_reference)
        back = multihop_to_head(stack, local)
        error = abs(back - t_reference)
        assert error <= hops * math.ulp(t_reference)
        worst_per_hop = max(worst_per_hop, error / (hops * math.ulp(t_reference)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        "criterion 6: PASS - 10^4 random 1-6 hop stacks round-trip within "
        f"1 ulp/hop (worst {worst_per_hop:.2f} ulp/hop) in {elapsed:.1f} s"
    )


def test_criterion_07_single_hop_accuracy_and_window_optimum():
    t0 = time.perf_counter()
    pooled = {2: [], 19: [], "all": []}
    worst_seed_mae = 0.0
    for seed in range(10):
        trace = run_config(singlehop_accuracy_config(seed=seed))
        at_19 = accuracy_metrics(trace).overall
        assert at_19.mae_s < 10e-6, seed
        worst_seed_mae = max(worst_seed_mae, at_19.mae_s)
        pooled[19].extend(at_19.errors_s)
        pooled[2].extend(
            accuracy_metrics(replay(trace, head_window=2)).overall.errors_s
        )
        pooled["all"].extend(
            accuracy_metrics(replay(trace, head_window=None)).overall.errors_s
        )
    mae = {k: float(np.mean(np.abs(v))) for k, v in pooled.items()}
    assert mae[19] < mae[2]
    assert mae[19] < mae["all"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        "criterion 7: PASS - per-seed MAE at window 19 all < 10 us (worst "
        f"{worst_seed_mae * 1e6:.2f} us); pooled MAE us: m=2 {mae[2] * 1e6:.2f}, "
        f"m=19 {mae[19] * 1e6:.2f}, m=all {mae['all'] * 1e6:.2f} "
        f"(interior optimum) in {elapsed:.0f} s"
    )


def test_criterion_08_multihop_error_growth():
    t0 = time.perf_counter()
    by_level = {level: [] for level in range(1, 7)}
    for seed in range(20):
        report = accuracy_metrics(run_config(multihop_accuracy_config(seed=seed)))
        for level, stats in report.by_level.items():
            by_level[level].extend(stats.errors_s)
    mae = [float(np.mean(np.abs(by_level[level]))) for level in range(1, 7)]
    for shallow, deep in zip(mae, mae[1:]):
        assert deep >= shallow
        assert deep - shallow < 3e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        "criterion 8: PASS - 20-seed mean MAE non-decreasing hop 1..6: "
        + " -> ".join(f"{m * 1e6:.2f}" for m in mae)
        + f" us, increments < 3 us, in {elapsed:.0f} s"
    )


def test_criterion_09_energy_ratios():
    t0 = time.perf_counter()
    model = EnergyModel()
    beaconless = run_config(energy_comparison_config(REVERSE_ONEWAY))
    flooding = run_config(energy_comparison_config(CONVENTIONAL_ONEWAY))
    p_beaconless = energy_from_trace(beaconless, model).sensor_average_power_w()
    p_always = energy_from_trace(flooding, model, schedule=ALWAYS_ON)
    p_lpl = energy_from_trace(flooding, model, schedule=LPL)
    ratio_always = p_beaconless / p_always.sensor_average_power_w()
    ratio_lpl = p_beaconless / p_lpl.sensor_average_power_w()
    assert ratio_always < 0.05
    assert ratio_lpl < 0.16
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "criterion 9: PASS - beaconless average sensor power is "
        f"{ratio_always * 100:.2f}% of always-on flooding and "
        f"{ratio_lpl * 100:.2f}% of duty-cycled flooding in {elapsed:.1f} s"
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"scheme": "reverse-oneway", "duration_s": 60, "si_s": 1, "seed": 7})
    )
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        assert main(["run", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0
        outputs.append((out_dir / "measurements.csv").read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "criterion 10: PASS - identical config+seed reruns produced "
        f"byte-identical CSV ({len(outputs[0])} bytes) in {elapsed:.1f} s"
    )
