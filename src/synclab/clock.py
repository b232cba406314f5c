"""Hardware clock models for simulated sensor nodes.

Simulation time is integer nanoseconds (``SimTime``).  Each node owns a
hardware clock that maps simulation time to local ticks through an affine
rate/offset model, optionally perturbed by a random walk on the rate, and
quantized by flooring to the counter tick size.  Clock state is plain value
data owned by one simulation; nothing here touches module-level state.

The local counter is assumed wide enough never to wrap, so local timestamps
are ordinary (unbounded) Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SimTime = int
"""Simulation time in integer nanoseconds."""

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

TICK_1US_NS = 1_000
"""Software-timer quantization: 1 us counter tick."""

TICK_32KHZ_NS = 30_500
"""32 kHz crystal counter quantization: 30.5 us tick."""

DEFAULT_SKEW_BOUND_PPM = 500.0
"""Largest plausible crystal skew magnitude accepted for hardware clocks."""


class ClockError(Exception):
    """Base class for clock contract violations."""


class TimeRegressionError(ClockError):
    """A clock was read at an earlier simulation time than a previous read."""


def seconds(value: float) -> SimTime:
    """Convert seconds to integer nanoseconds of simulation time."""
    return int(round(value * NS_PER_S))


def to_seconds(t: SimTime) -> float:
    """Convert simulation nanoseconds to float seconds."""
    return t / NS_PER_S


@dataclass(frozen=True)
class ClockParams:
    """Affine clock model: local = ratio * reference + offset.

    ``ratio`` is the dimensionless rate (1 + skew) and must be positive.
    ``offset`` is expressed in the same unit as the timestamps the params are
    applied to (nanoseconds for hardware clocks, ticks for estimates fitted
    from tick-valued timestamp pairs).  Params fitted at single precision
    hold :class:`~synclab.precision.Float32Emu` values in both fields.

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

    def validate_skew(self, bound_ppm: float = DEFAULT_SKEW_BOUND_PPM) -> None:
        """Raise ``ValueError`` unless ``|ratio - 1|`` is within ``bound_ppm``."""
        if abs(self.ratio - 1.0) * 1e6 > bound_ppm:
            raise ValueError(
                f"clock skew {self.skew_ppm:.3f} ppm exceeds bound {bound_ppm} ppm"
            )


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
        if self.walk_sigma_ppm < 0.0:
            raise ValueError("walk_sigma_ppm must be non-negative")
        if self.step_ns <= 0:
            raise ValueError("drift step must be positive")

    @staticmethod
    def constant() -> "DriftModel":
        return DriftModel()

    @staticmethod
    def random_walk(sigma_ppm: float, step_ns: SimTime = NS_PER_S) -> "DriftModel":
        return DriftModel(kind="random-walk", walk_sigma_ppm=sigma_ppm, step_ns=step_ns)


class HardwareClock:
    """A free-running node counter with skew, drift, and quantization.

    The clock integrates its rate over simulation time: the local phase at
    time t is ``offset + integral of ratio``, accumulated from an internal
    anchor.  Under constant drift this equals ``ratio * t + offset`` exactly
    (to fp64 rounding); under random-walk drift the integration is what keeps
    reads monotone, since the rate stays positive after clamping.

    ``tick_ns`` selects quantization: local timestamps are
    ``floor(phase / tick_ns)`` as integers in tick units.  ``tick_ns=None``
    is a diagnostic quantization-free mode returning the raw phase as a float
    in nanosecond units.

    Reads must be issued at non-decreasing simulation times; a read earlier
    than a previous one raises :class:`TimeRegressionError`.
    """

    def __init__(
        self,
        params: ClockParams,
        *,
        tick_ns: int | None = TICK_1US_NS,
        drift: DriftModel | None = None,
        rng: np.random.Generator | None = None,
        skew_bound_ppm: float = DEFAULT_SKEW_BOUND_PPM,
    ) -> None:
        params.validate_skew(skew_bound_ppm)
        if tick_ns is not None and tick_ns <= 0:
            raise ValueError("tick_ns must be positive or None")
        drift = drift or DriftModel.constant()
        if drift.kind == "random-walk" and drift.walk_sigma_ppm > 0.0 and rng is None:
            raise ValueError("random-walk drift needs an explicit rng for determinism")
        self._ratio = params.ratio
        self._tick_ns = tick_ns
        self._drift = drift
        self._rng = rng
        self._bound = skew_bound_ppm * 1e-6
        self._anchor_t: SimTime = 0
        self._anchor_phase: float = params.offset
        self._last_read: SimTime = 0

    @property
    def params(self) -> ClockParams:
        """Current rate and the phase the clock would show at its anchor."""
        return ClockParams(self._ratio, self._anchor_phase - self._ratio * self._anchor_t)

    @property
    def ratio(self) -> float:
        return self._ratio

    @property
    def tick_ns(self) -> int | None:
        return self._tick_ns

    @property
    def drift(self) -> DriftModel:
        return self._drift

    def read(self, t: SimTime):
        """Local timestamp at simulation time ``t``.

        Returns an integer tick count, or a float nanosecond phase in
        quantization-free mode.
        """
        if t < self._last_read:
            raise TimeRegressionError(
                f"clock read at t={t} after a read at t={self._last_read}"
            )
        self._last_read = t
        if self._drift.kind == "random-walk":
            while t - self._anchor_t >= self._drift.step_ns:
                self.advance_drift(self._drift.step_ns)
        phase = self._anchor_phase + self._ratio * (t - self._anchor_t)
        if self._tick_ns is None:
            return phase
        return math.floor(phase / self._tick_ns)

    def advance_drift(self, dt: SimTime) -> None:
        """Integrate the phase over ``dt`` and apply one drift step.

        Constant drift leaves the rate untouched.  Random-walk drift adds a
        zero-mean Gaussian step of standard deviation
        ``walk_sigma_ppm * sqrt(dt in seconds)`` ppm and clamps the result to
        the plausibility bound, keeping the rate strictly positive.
        """
        if dt <= 0:
            raise ValueError("drift advance needs a positive dt")
        self._anchor_phase += self._ratio * dt
        self._anchor_t += dt
        if self._drift.kind == "random-walk" and self._drift.walk_sigma_ppm > 0.0:
            sigma = self._drift.walk_sigma_ppm * 1e-6 * math.sqrt(dt / NS_PER_S)
            self._ratio += float(self._rng.normal(0.0, sigma))
            lo, hi = 1.0 - self._bound, 1.0 + self._bound
            self._ratio = min(max(self._ratio, lo), hi)


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
        if self.tick_ns is not None and self.tick_ns <= 0:
            raise ValueError("tick_ns must be positive or None")
        if self.skew_ppm < 0.0 or self.offset_ns < 0.0:
            raise ValueError("draw ranges must be non-negative")

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
