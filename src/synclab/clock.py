"""Hardware clock models for simulated sensor nodes.

Simulation time is integer nanoseconds (``SimTime``).  Each node owns a
hardware clock that maps simulation time to local ticks through an affine
rate/offset model, optionally perturbed by a random walk on the rate, and
quantized by flooring to the counter tick size.  A drifting clock holds its
rate path as a table of fixed-length segments, so a read at any t >= 0, in
any order, is one lookup; nothing here touches module-level state.

The local counter is assumed wide enough never to wrap, so local timestamps
are ordinary (unbounded) Python integers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

SimTime = int
"""Simulation time in integer nanoseconds."""

NS_PER_S = 1_000_000_000

TICK_1US_NS = 1_000
"""Software-timer quantization: 1 us counter tick."""

TICK_32KHZ_NS = 30_500
"""32 kHz crystal counter quantization: 30.5 us tick."""

DEFAULT_SKEW_BOUND_PPM = 500.0
"""Largest plausible crystal skew magnitude accepted for hardware clocks."""

DRIFT_BLOCK = 1024
"""Drift segments a random-walk clock adds to its table at a time."""

MAX_DRIFT_SEGMENTS = 10**6
"""Most drift segments per node a run may need (``duration // step``)."""

MAX_TICK_NS = 2**53
"""Longest counter tick (about 104 days): a read divides the float phase by
the tick and an estimate's error multiplies it back, so the tick must
convert to a float exactly."""


class ClockError(Exception):
    """Base class for clock contract violations."""


class TimeRegressionError(ClockError):
    """A clock was read at a negative simulation time."""


def seconds(value: float) -> SimTime:
    """Convert seconds to integer nanoseconds of simulation time."""
    return int(round(value * NS_PER_S))


@dataclass(frozen=True)
class ClockParams:
    """Affine clock model: local = ratio * reference + offset.

    ``ratio`` is the dimensionless rate (1 + skew) and must be positive.
    ``offset`` is expressed in the same unit as the timestamps the params are
    applied to (nanoseconds for hardware clocks, ticks for estimates fitted
    from tick-valued timestamp pairs).  Params fitted at single precision
    hold plain floats on the single-precision grid in both fields.

    Estimates fitted from noisy data may legitimately fall outside the
    crystal plausibility bound, so only positivity is enforced here; use
    :meth:`validate_skew` where a hardware-plausibility check is wanted.
    """

    ratio: float
    offset: float

    def __post_init__(self) -> None:
        if not float(self.ratio) > 0.0:
            raise ValueError(f"clock ratio must be positive, got {self.ratio!r}")

    @property
    def skew_ppm(self) -> float:
        """Rate deviation from nominal in parts per million."""
        return (self.ratio - 1.0) * 1e6

    def validate_skew(self) -> None:
        """Raise ``ValueError`` unless ``|ratio - 1|`` is within
        :data:`DEFAULT_SKEW_BOUND_PPM`."""
        if abs(self.ratio - 1.0) * 1e6 > DEFAULT_SKEW_BOUND_PPM:
            raise ValueError(f"clock skew {self.skew_ppm:.3f} ppm exceeds bound "
                             f"{DEFAULT_SKEW_BOUND_PPM} ppm")


@dataclass(frozen=True)
class DriftModel:
    """Evolution law for the clock rate.

    ``constant`` keeps the rate fixed forever.  ``random-walk`` perturbs the
    rate by a zero-mean Gaussian step with standard deviation
    ``walk_sigma_ppm * sqrt(dt_seconds)`` ppm, applied in fixed ``step_ns``
    quanta of simulation time and clamped to the skew plausibility bound.
    """

    kind: str = "constant"
    walk_sigma_ppm: float = 0.0
    step_ns: SimTime = NS_PER_S

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "random-walk"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not 0.0 <= self.walk_sigma_ppm < math.inf:
            raise ValueError("walk_sigma_ppm must be finite and non-negative")
        if self.step_ns <= 0:
            raise ValueError("drift step must be positive")
        walk = (self.walk_sigma_ppm, self.step_ns)
        if self.kind == "constant" and walk != (0.0, NS_PER_S):
            raise ValueError("constant drift takes no walk_sigma_ppm or step_ns")

    @staticmethod
    def constant() -> "DriftModel":
        return DriftModel()

    @staticmethod
    def random_walk(sigma_ppm: float, step_ns: SimTime = NS_PER_S) -> "DriftModel":
        return DriftModel(kind="random-walk", walk_sigma_ppm=sigma_ppm, step_ns=step_ns)


class HardwareClock:
    """A free-running node counter with skew, drift, and quantization.

    Under constant drift the local phase at time t is ``ratio * t + offset``.
    Under random-walk drift it is piecewise affine: entry k of the clock's
    table (two fp64 arrays, 16 bytes a segment) holds the phase at ``k *
    step_ns`` and the rate over that segment, and the table grows on demand
    by :data:`DRIFT_BLOCK` segments.  Each rate step is a zero-mean Gaussian
    of standard deviation ``walk_sigma_ppm * sqrt(step in seconds)`` ppm,
    clamped to the skew bound, so the rate stays positive and reads stay
    monotone in t.  A read at t < 0 raises :class:`TimeRegressionError`.

    ``tick_ns`` selects quantization: local timestamps are
    ``floor(phase / tick_ns)`` as integers in tick units.  ``tick_ns=None``
    is a diagnostic quantization-free mode returning the raw phase as a float
    in nanosecond units.
    """

    def __init__(
        self,
        params: ClockParams,
        *,
        tick_ns: int | None = TICK_1US_NS,
        drift: DriftModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        params.validate_skew()
        if tick_ns is not None and not 0 < tick_ns <= MAX_TICK_NS:
            raise ValueError(f"tick_ns must be from 1 to {MAX_TICK_NS} ns, or None")
        drift = drift or DriftModel.constant()
        if drift.kind == "random-walk" and drift.walk_sigma_ppm > 0.0 and rng is None:
            raise ValueError("random-walk drift needs an explicit rng for determinism")
        self._ratio = params.ratio
        self._offset = params.offset
        self._tick_ns = tick_ns
        self._drift = drift
        self._step_ns = drift.step_ns
        self._rng = rng
        walking = drift.kind == "random-walk"
        self._phases = array("d", [params.offset]) if walking else None
        self._rates = array("d", [params.ratio]) if walking else None

    @property
    def tick_ns(self) -> int | None:
        return self._tick_ns

    @property
    def drift(self) -> DriftModel:
        return self._drift

    def read(self, t: SimTime):
        """Local timestamp at ``t``: integer ticks, or the float phase in ns
        in quantization-free mode."""
        if t < 0:
            raise TimeRegressionError(f"clock read at t={t}, before simulation time 0")
        if self._phases is None:
            phase = self._ratio * t + self._offset
        else:
            k = t // self._step_ns
            if k >= len(self._phases):
                self._grow(k)
            phase = self._phases[k] + self._rates[k] * (t - k * self._step_ns)
        if self._tick_ns is None:
            return phase
        return math.floor(phase / self._tick_ns)

    def rate(self, t: SimTime) -> float:
        """The clock rate (1 + skew) over the drift segment holding ``t``."""
        if self._rates is None:
            return self._ratio
        self.read(t)  # grows the table through t's segment
        return self._rates[t // self._step_ns]

    def _grow(self, k: int) -> None:
        """Extend the table by whole blocks through segment ``k``.  A block
        draws its rate steps in one call; the drift generator feeds nothing
        else, so drawing ahead changes no value a read returns."""
        step, sigma_ppm = self._step_ns, self._drift.walk_sigma_ppm
        sigma = sigma_ppm * 1e-6 * math.sqrt(step / NS_PER_S)
        bound = DEFAULT_SKEW_BOUND_PPM * 1e-6
        lo, hi = 1.0 - bound, 1.0 + bound
        phases, rates = self._phases, self._rates
        phase, rate = phases[-1], rates[-1]
        while len(phases) <= k:
            if sigma_ppm > 0.0:
                steps = self._rng.normal(0.0, sigma, size=DRIFT_BLOCK).tolist()
            else:
                steps = [None] * DRIFT_BLOCK
            for z in steps:
                phase += rate * step
                if z is not None:
                    rate = min(max(rate + z, lo), hi)
                phases.append(phase)
                rates.append(rate)


def draw_clock_params(
    rng: np.random.Generator,
    *,
    skew_ppm: float = 40.0,
    offset_ns: float = 1e8,
) -> ClockParams:
    """Draw plausible hardware clock parameters.

    Skew is uniform on +/- ``skew_ppm``; offset uniform on +/- ``offset_ns``.
    """
    ratio = 1.0 + float(rng.uniform(-skew_ppm, skew_ppm)) * 1e-6
    offset = float(rng.uniform(-offset_ns, offset_ns))
    return ClockParams(ratio, offset)


@dataclass(frozen=True)
class ClockConfig:
    """How node clocks are generated: quantization, draw ranges, drift law.

    ``tick_ns=None`` selects the quantization-free diagnostic mode.  The head
    always gets identity parameters and a drift-free rate (it holds the
    reference that defines the timescale), but shares the quantization and
    timestamping fidelity of the sensors.
    """

    tick_ns: int | None = TICK_1US_NS
    skew_ppm: float = 40.0
    offset_ns: float = 1e8
    drift: DriftModel = DriftModel()

    def __post_init__(self) -> None:
        if self.tick_ns is not None and not 0 < self.tick_ns <= MAX_TICK_NS:
            raise ValueError(f"tick_ns must be from 1 to {MAX_TICK_NS} ns, or None")
        bound = DEFAULT_SKEW_BOUND_PPM
        if not (0.0 <= self.skew_ppm <= bound and 0.0 <= self.offset_ns < math.inf):
            raise ValueError(f"need skew_ppm in [0, {bound}], finite offset_ns >= 0")

    def draw_params(self, rng: np.random.Generator) -> ClockParams:
        return draw_clock_params(rng, skew_ppm=self.skew_ppm, offset_ns=self.offset_ns)

    def build(
        self,
        params: ClockParams,
        rng: np.random.Generator | None = None,
        drift: DriftModel | None = None,
    ) -> HardwareClock:
        drift = self.drift if drift is None else drift
        return HardwareClock(params, tick_ns=self.tick_ns, drift=drift, rng=rng)
