"""IEEE-754 single-precision emulation and the computational error model.

Resource-poor sensor nodes evaluate estimator formulas in single precision
(1 sign bit, 8 exponent bits, 23 fraction bits); the head runs the same
formulas in 64-bit floats.  This module provides

* :func:`round32`: rounding of a 64-bit value into the single-precision grid
  under round-to-nearest-even or chop (round toward zero);
* :class:`Float32Emu`: a number type whose every arithmetic operation rounds
  its result to single precision in a chosen mode, so the estimator functions
  of :mod:`synclab.estimators`, written over generic numbers, run at node
  fidelity when handed :class:`Float32Emu` timestamps;
* :class:`PrecisionLoss` and :func:`psi_error`: the affine model of the time
  translation error caused by finite precision, err(T) = eps_alpha * T +
  eps_beta for a local timestamp T, and :func:`empirical_loss`, which
  measures it for one estimator on given timestamps.

Loss sign convention: empirical losses are (low-precision value - exact
value).  Under chop the magnitude of a rounded value never exceeds the exact
one, so the relative ratio loss lies in [-2^-23, 0] for ratios near one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .clock import ClockParams
from .estimators import TimestampPair

MACHINE_EPS32 = 2.0 ** -23
"""Machine epsilon of the single-precision format (ulp of 1.0)."""

FLOAT32_MAX = float(np.finfo(np.float32).max)

NEAREST = "nearest"
CHOP = "chop"
_MODES = (NEAREST, CHOP)


class PrecisionOverflowError(ArithmeticError):
    """A value exceeds the largest finite single-precision magnitude."""


def round32(x: float, mode: str = NEAREST) -> float:
    """Round a finite 64-bit value to the single-precision grid.

    ``nearest`` is round-to-nearest, ties to even, bit-identical to a native
    float32 conversion.  ``chop`` rounds toward zero (the result magnitude
    never exceeds the input magnitude).  Values beyond the largest finite
    single-precision magnitude raise :class:`PrecisionOverflowError`.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown rounding mode {mode!r}")
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"round32 needs a finite value, got {x!r}")
    if abs(x) > FLOAT32_MAX:
        raise PrecisionOverflowError(f"{x!r} overflows single precision")
    y = float(np.float32(x))
    if mode == CHOP and abs(y) > abs(x):
        # nearest rounded away from zero; step back to the chop neighbour
        y = float(np.nextafter(np.float32(y), np.float32(0.0)))
    return y


def _chop_from_fraction(exact: Fraction) -> float:
    """Largest-magnitude single-precision value not exceeding ``exact``.

    Used for operations whose fp64 intermediate is itself rounded (quotients,
    and sums whose operands' exponents differ by more than the spare fp64
    significand bits) and can therefore land on the wrong side of a
    single-precision boundary (double rounding).
    """
    if exact == 0:
        return 0.0
    approx = np.float32(float(exact))
    if math.isinf(float(approx)) or abs(exact) > Fraction(FLOAT32_MAX):
        raise PrecisionOverflowError("result overflows single precision")
    zero = np.float32(0.0)
    # walk toward zero while the magnitude overshoots the exact value
    while approx != 0 and abs(Fraction(float(approx))) > abs(exact):
        approx = np.nextafter(approx, zero)
    # walk away from zero while the next representable still fits
    away = np.float32(math.copysign(math.inf, float(exact)))
    while True:
        candidate = np.nextafter(approx, away)
        if math.isinf(float(candidate)) or abs(Fraction(float(candidate))) > abs(exact):
            break
        approx = candidate
    return float(approx)


def decompose(value: float) -> tuple[int, float, int]:
    """Split a float into (sign, significand in [1, 2), exponent).

    ``value == sign * significand * 2**exponent``.  Zero decomposes to
    (1, 0.0, 0).
    """
    if value == 0.0:
        return (1, 0.0, 0)
    sign = -1 if value < 0.0 else 1
    mantissa, exponent = math.frexp(abs(value))
    return (sign, mantissa * 2.0, exponent - 1)


@dataclass(frozen=True)
class Float32Emu:
    """A single-precision value with a rounding mode attached.

    Every arithmetic operation is rounded exactly once into the
    single-precision grid under the attached mode, mirroring hardware
    behaviour.  Nearest mode may round through fp64 (safe: the fp64 format
    is wide enough that the double rounding is invisible for +, -, *, /
    of single-precision operands).  Chop mode routes sums, differences and
    quotients through exact rational arithmetic, because a nearest-rounded
    fp64 intermediate can overshoot the true value onto a representable
    single, leaving the directed rounding nothing to trim; products of
    single-precision values are exact in fp64 already.
    """

    value: float
    mode: str = NEAREST

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown rounding mode {self.mode!r}")
        if float(np.float32(self.value)) != self.value:
            raise ValueError(f"{self.value!r} is not single-precision representable")

    @staticmethod
    def from_number(x, mode: str = NEAREST) -> "Float32Emu":
        if isinstance(x, Float32Emu):
            return x
        return Float32Emu(round32(float(x), mode), mode)

    def _coerce(self, other) -> "Float32Emu":
        if isinstance(other, Float32Emu):
            if other.mode != self.mode:
                raise ValueError("mixed rounding modes in one expression")
            return other
        return Float32Emu.from_number(other, self.mode)

    def _wrap(self, exact: float) -> "Float32Emu":
        return Float32Emu(round32(exact, self.mode), self.mode)

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "Float32Emu":
        return Float32Emu(-self.value, self.mode)

    def __add__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        if self.mode == CHOP:
            exact = Fraction(self.value) + Fraction(other.value)
            return Float32Emu(_chop_from_fraction(exact), self.mode)
        return self._wrap(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        if self.mode == CHOP:
            exact = Fraction(self.value) - Fraction(other.value)
            return Float32Emu(_chop_from_fraction(exact), self.mode)
        return self._wrap(self.value - other.value)

    def __rsub__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        return other.__sub__(self)

    def __mul__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        return self._wrap(self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        if other.value == 0.0:
            raise ZeroDivisionError("single-precision division by zero")
        if self.mode == CHOP:
            exact = Fraction(self.value) / Fraction(other.value)
            return Float32Emu(_chop_from_fraction(exact), self.mode)
        quotient = np.float32(self.value) / np.float32(other.value)
        if math.isinf(float(quotient)):
            raise PrecisionOverflowError("quotient overflows single precision")
        return Float32Emu(float(quotient), self.mode)

    def __rtruediv__(self, other) -> "Float32Emu":
        other = self._coerce(other)
        return other.__truediv__(self)

    def decompose(self) -> tuple[int, float, int]:
        """(sign, significand in [1, 2), exponent) of the stored value."""
        return decompose(self.value)


@dataclass(frozen=True)
class PrecisionLoss:
    """Affine precision-loss coefficients of a translation formula.

    ``eps_alpha`` multiplies the local timestamp, ``eps_beta`` is constant;
    the induced translation error at local time T is
    ``psi_error(loss, T) = eps_alpha * T + eps_beta``.
    """

    eps_alpha: float
    eps_beta: float = 0.0


def psi_error(loss: PrecisionLoss, local_time: float) -> float:
    """Translation error at a local timestamp under a precision loss."""
    return loss.eps_alpha * local_time + loss.eps_beta


def convert_timestamps(arg, convert):
    """An estimator argument with ``convert`` applied to its numbers: both
    timestamps of a :class:`TimestampPair`, or a plain number itself."""
    if isinstance(arg, TimestampPair):
        return TimestampPair(convert(arg.t_child), convert(arg.t_parent), arg.sync_index)
    return convert(arg)


def empirical_loss(estimator: Callable, *args, mode: str = NEAREST) -> PrecisionLoss:
    """Measure the loss of an estimator as (fp32 result - fp64 result).

    ``estimator`` is one of the generic functions of
    :mod:`synclab.estimators`.  It runs twice on the same arguments: once
    with every timestamp wrapped as a :class:`Float32Emu` under ``mode``, once
    with every timestamp as a 64-bit float.  A :class:`ClockParams` result
    maps to ``PrecisionLoss(ratio loss, offset loss)``; a scalar result fills
    only ``eps_alpha``.
    """
    to32 = lambda v: Float32Emu.from_number(v, mode)
    low = estimator(*(convert_timestamps(a, to32) for a in args))
    exact = estimator(*(convert_timestamps(a, float) for a in args))
    if isinstance(low, ClockParams):
        return PrecisionLoss(
            eps_alpha=float(low.ratio) - float(exact.ratio),
            eps_beta=float(low.offset) - float(exact.offset),
        )
    return PrecisionLoss(eps_alpha=float(low) - float(exact))
