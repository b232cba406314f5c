"""
Hardware clocks: skew, quantization, and drift
==============================================

Builds a handful of free-running node clocks, reads them against simulation
time, and shows how constant-skew clocks diverge linearly while random-walk
drift makes the divergence wander.
"""

import numpy as np

from synclab.clock import (
    NS_PER_S,
    ClockParams,
    DriftModel,
    HardwareClock,
    draw_clock_params,
)

rng = np.random.default_rng(42)

# -- draw a few plausible clocks: skew uniform on +/-40 ppm, offset +/-0.1 s --
params = [draw_clock_params(rng) for _ in range(4)]
print("drawn clocks:")
for i, p in enumerate(params):
    print(f"  node {i + 1}: skew {p.skew_ppm:+8.3f} ppm   offset {p.offset / 1e6:+9.3f} ms")

# -- constant drift: local - true grows linearly with the skew ----------------
print("\nconstant drift, 1 us ticks (local minus true time, in us):")
clocks = [HardwareClock(p) for p in params]
header = "  t (s)  " + "".join(f"{f'node {i + 1}':>11}" for i in range(len(clocks)))
print(header)
for t_s in (0, 600, 1200, 1800, 2400, 3000, 3600):
    t = t_s * NS_PER_S
    row = [clock.read(t) - t / 1000 for clock in clocks]  # ticks are us here
    print(f"  {t_s:5d}  " + "".join(f"{r:+11.1f}" for r in row))

# -- random-walk drift: the rate itself wanders ------------------------------
# every 600 s the ratio gains a N(0, sigma * sqrt(600 s)) ppm increment;
# reads stay monotone
walker = HardwareClock(
    ClockParams(1.0, 0.0),
    drift=DriftModel.random_walk(sigma_ppm=0.5, step_ns=600 * NS_PER_S),
    rng=np.random.default_rng(7),
)
steady = HardwareClock(ClockParams(1.0, 0.0))
print("\nrandom-walk drift (sigma 0.5 ppm/sqrt(s)) vs drift-free twin:")
print("  t (s)   walker-true (us)   skew now (ppm)")
for t_s in range(0, 3601, 600):
    t = t_s * NS_PER_S
    drifted = walker.read(t) - steady.read(t)
    skew_ppm = (walker.rate(t) - 1.0) * 1e6
    print(f"  {t_s:5d}   {drifted:+16.1f}   {skew_ppm:+13.4f}")

# -- quantization: timestamps are floor(phase / tick) ------------------------
fine = HardwareClock(ClockParams(1.0, 0.0), tick_ns=None)
coarse = HardwareClock(ClockParams(1.0, 0.0), tick_ns=30_500)  # 30.5 us jiffy
t = 1_000_000_123
print(
    f"\nquantization at t = {t} ns: unquantized {fine.read(t):.0f} ns, "
    f"30.5 us ticks -> {coarse.read(t)} ticks "
    f"({coarse.read(t) * 30_500} ns, error {t - coarse.read(t) * 30_500} ns)"
)

print(
    "\ntakeaway: tens-of-ppm skew costs milliseconds per minute; quantization"
    "\nfloors every timestamp to its tick, so the tick size bounds the best"
    "\naccuracy any estimator can reach."
)
