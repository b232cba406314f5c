"""IEEE-754 single-precision emulation and the computational error model.

Resource-poor sensor nodes evaluate estimator formulas in single precision
(1 sign bit, 8 exponent bits, 23 fraction bits); the head runs the same
formulas in 64-bit floats.  This module provides

* :func:`round32`: rounding of a 64-bit value into the single-precision grid
  under round-to-nearest-even (a native float32 round trip) or chop (round
  toward zero: the same round trip, stepped one unit toward zero when it
  rounded away from zero);
* :data:`ROUNDED`: one table per rounding mode of ``+ - * /`` on plain
  floats that hold single-precision values, each result rounded once and
  checked: the arithmetic of an fp32 node from beacon to estimate.  Chop
  mode truncates an fp64 result that is exact (every product, every sum or
  difference whose TwoSum error term is zero) or whose truncation is exact
  (every quotient) with one ``fmod`` when it is normal in single precision,
  by struct packing when it is zero or subnormal, and otherwise truncates
  the exact value by integer significand arithmetic;
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
import struct
from dataclasses import dataclass
from typing import Callable

from .clock import ClockParams
from .estimators import Arithmetic, TimestampPair

MACHINE_EPS32 = 2.0 ** -23
"""Machine epsilon of the single-precision format (ulp of 1.0)."""

FLOAT32_MAX = 3.4028234663852886e38
"""Largest finite single-precision magnitude, (2 - 2**-23) * 2**127."""
_FLOAT32_MAX_INT = int(FLOAT32_MAX)

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")

NEAREST = "nearest"
CHOP = "chop"
_MODES = (NEAREST, CHOP)


class PrecisionOverflowError(ArithmeticError):
    """A value exceeds the largest finite single-precision magnitude."""


def _checked(value: float) -> float:
    """``value`` if it is a finite single-precision value, else
    :class:`ValueError`: the check on every integer-routine result."""
    # the range check rejects inf and NaN, which pack, and keeps a value past
    # the fp32 range from packing, which raises; an int is compared as it is
    if not (-FLOAT32_MAX <= value <= FLOAT32_MAX
            and _F32.unpack(_F32.pack(value))[0] == value):
        raise ValueError(f"{value!r} is not single-precision representable")
    return value


def _chop(num: int, den: int) -> float:
    """The single-precision value of largest magnitude not above ``|num/den|``,
    with the sign of ``num/den`` (``den > 0``).

    The quotient's binary exponent comes from the bit lengths, clamped at
    the subnormal floor 2**-149; one floor division then yields the 24-bit
    significand.  A nonzero value that chops to zero keeps its sign, an
    exact zero is +0.0.  A magnitude above :data:`FLOAT32_MAX` raises
    :class:`PrecisionOverflowError`.  The result is checked.
    """
    n = abs(num)
    # ulp exponent for a quotient in [2**(e-1), 2**(e+1)), e = bit-length gap;
    # the significand q then has 24 or 25 bits (fewer when subnormal)
    shift = max(n.bit_length() - den.bit_length() - 1, -126) - 23
    q = n // (den << shift) if shift >= 0 else (n << -shift) // den
    if q >> 24:
        q >>= 1
        shift += 1
    if shift >= 104 and n > _FLOAT32_MAX_INT * den:
        raise PrecisionOverflowError("result overflows single precision")
    value = math.ldexp(q, shift)
    return _checked(-value if num < 0 else value)


def _chop_exact(x: float) -> float:
    """:func:`_chop` of a value that fp64 holds exactly, by struct packing:
    :func:`round32`'s routine, and the table's for the zeros, subnormal
    results and errors that its inline fast path leaves to it.

    Packing rounds to nearest; when that lands above ``|x|``, the answer is
    the next single-precision value toward zero, one less in the float32 bit
    pattern (sign-magnitude, so this holds across binades and down into the
    subnormals, and a nonzero value that chops to zero keeps its sign).  A
    value unpacked from ``<f``, or one step toward zero from a finite one, is
    single precision, so the one check is the range check in front, which
    also rejects inf and NaN (:func:`_unrepresentable`).
    """
    if not -FLOAT32_MAX <= x <= FLOAT32_MAX:
        raise _unrepresentable(x)
    packed = _F32.pack(x)
    value = _F32.unpack(packed)[0]
    if abs(value) > abs(x):
        value = _F32.unpack(_U32.pack(_U32.unpack(packed)[0] - 1))[0]
    return value


def _unrepresentable(x: float) -> Exception:
    """The error for a value beyond the finite single-precision range:
    :class:`ValueError` for NaN, :class:`PrecisionOverflowError` for any
    other (an infinity, or a finite magnitude above :data:`FLOAT32_MAX`)."""
    if x != x:
        return ValueError(f"{x!r} is not single-precision representable")
    return PrecisionOverflowError(f"{x!r} overflows single precision")


def round32(x: float, mode: str = NEAREST) -> float:
    """Round a finite 64-bit value to the single-precision grid.

    ``nearest`` is round-to-nearest, ties to even, bit-identical to a native
    float32 conversion; it raises :class:`PrecisionOverflowError` only when
    the rounded value overflows, so a value just above :data:`FLOAT32_MAX`
    rounds down to it as float32 hardware does.  ``chop`` rounds toward zero
    (the result magnitude never exceeds the input magnitude) and raises for
    any value beyond :data:`FLOAT32_MAX`.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown rounding mode {mode!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"round32 needs a finite value, got {x!r}")
    return _chop_exact(x) if mode == CHOP else _nearest(x)


def _nearest(x: float) -> float:
    """``x`` rounded to the nearest single-precision value, ties to even.

    Packing raises exactly when a finite ``x`` rounds to an infinity; an
    infinite or NaN ``x`` packs as itself, and the range check on the value
    unpacked from ``<f`` (which is otherwise single precision) rejects it.
    """
    try:
        value = _F32.unpack(_F32.pack(x))[0]
    except OverflowError:
        raise PrecisionOverflowError(f"{x!r} overflows single precision") from None
    if not -FLOAT32_MAX <= value <= FLOAT32_MAX:
        raise _unrepresentable(value)
    return value


_NORMAL32 = 2.0 ** -126
"""Smallest normal single-precision magnitude."""
_ulp = math.ulp
_fmod = math.fmod

# The chop fast path, inline in each operation below.  A value ``x`` that
# fp64 holds exactly, with ``_NORMAL32 <= |x| <= FLOAT32_MAX`` (which rules
# out zero, subnormal results, inf and NaN), chops to ``x - fmod(x, ulp)``,
# where ``ulp = math.ulp(x) * 2**29`` is its single-precision ulp (fp64 has
# 29 more fraction bits, and both formats are normal there, so the scaling
# is exact).  ``fmod`` is exact and keeps the sign of ``x``, so the
# difference is ``n * ulp`` with ``2**23 <= |n| < 2**24`` and the sign of
# ``x``: single precision by construction.  Zero (whose sign ``fmod`` would
# lose), subnormal results and errors go to the struct routine,
# :func:`_chop_exact`, and an fp64 result that is not exact to the integer
# routine, :func:`_chop`.


def _chop_add(a: float, b: float) -> float:
    """``a + b`` chopped, for single-precision ``a`` and ``b``.

    The fp64 sum is exact when its TwoSum error term is zero (it then also
    carries the IEEE sign of an exact zero); otherwise the exact sum is
    formed with integers.
    """
    t = a + b
    bp = t - a
    if (a - (t - bp)) + (b - bp) == 0.0:
        if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
            return t - _fmod(t, _ulp(t) * 2.0 ** 29)
        return _chop_exact(t)
    return _chop(*_exact_sum(a, b))


def _chop_sub(a: float, b: float) -> float:
    """``a - b`` chopped, as :func:`_chop_add` with TwoDiff's error term,
    ``(a - (t - bp)) - (b + bp)``: the TwoSum term of ``a + (-b)``."""
    t = a - b
    bp = t - a
    if (a - (t - bp)) - (b + bp) == 0.0:
        if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
            return t - _fmod(t, _ulp(t) * 2.0 ** 29)
        return _chop_exact(t)
    return _chop(*_exact_sum(a, -b))


def _chop_mul(a: float, b: float) -> float:
    """``a * b`` chopped: a product of singles is exact in fp64."""
    t = a * b
    if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
        return t - _fmod(t, _ulp(t) * 2.0 ** 29)
    return _chop_exact(t)


def _chop_div(a: float, b: float) -> float:
    """``a / b`` chopped, for single-precision ``a`` and ``b``.

    The fp64 quotient is rarely exact, yet chopping it is exact whenever it
    is normal and nonzero in single precision.  With IEEE exponents, let
    ``m = M * 2**(E-23)`` be a single-precision value (``M`` an integer
    below ``2**24``) other than ``a/b``, and ``b`` have exponent ``E_b``.
    Then ``a - m*b`` is a nonzero multiple of ``2**(E+E_b-46)``, so
    ``|a/b - m| >= 2**(E-47)``, while fp64's half-ulp near ``m`` is at most
    ``2**(E-52)``.  So the fp64 quotient never reaches or crosses a
    single-precision value that ``a/b`` does not equal: it chops as ``a/b``
    does.  A zero dividend, a subnormal quotient and an overflow go to the
    integer routine, :func:`_chop_quotient`.
    """
    t = a / _divisor(b)
    if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
        return t - _fmod(t, _ulp(t) * 2.0 ** 29)
    return _chop_quotient(a, b)


def _chop_quotient(a: float, b: float) -> float:
    """``a / b`` chopped with integers, for single-precision ``a`` and a
    nonzero ``b``: a zero dividend keeps the IEEE sign of the fp64 quotient."""
    na, da = _ratio(a)
    nb, db = _ratio(b)
    if not na:
        return a / b
    if nb < 0:
        na, nb = -na, -nb
    return _chop(na * db, da * nb)


def _exact_sum(a: float, b: float) -> tuple[int, int]:
    """``a + b`` exactly, as (numerator, power-of-two denominator)."""
    na, da = _ratio(a)
    nb, db = _ratio(b)
    if da < db:
        na, da, nb, db = nb, db, na, da
    return na + nb * (da // db), da


def _ratio(x: float) -> tuple[int, int]:
    """``x.as_integer_ratio()``; NaN raises its own :class:`ValueError`, an
    infinity :class:`PrecisionOverflowError`."""
    try:
        return x.as_integer_ratio()
    except OverflowError:
        raise PrecisionOverflowError(f"{x!r} overflows single precision") from None


def _divisor(b: float) -> float:
    """A divisor ``b``: :class:`ZeroDivisionError` when it is zero, and
    :class:`PrecisionOverflowError` when it is infinite (a finite dividend
    over it gives a zero quotient, which would hide it)."""
    if b == 0.0:
        raise ZeroDivisionError("single-precision division by zero")
    if abs(b) == math.inf:
        raise PrecisionOverflowError(f"{b!r} overflows single precision")
    return b


ROUNDED = {
    NEAREST: Arithmetic(
        lambda a, b: _nearest(a + b),
        lambda a, b: _nearest(a - b),
        lambda a, b: _nearest(a * b),
        lambda a, b: _nearest(a / _divisor(b)),
        lambda n: round32(n, NEAREST),
    ),
    CHOP: Arithmetic(_chop_add, _chop_sub, _chop_mul, _chop_div, lambda n: round32(n, CHOP)),
}
"""Per rounding mode, ``+ - * /`` of plain floats that hold single-precision
values, each result rounded once in that mode and single precision: an
overflow, or an infinite operand, raises :class:`PrecisionOverflowError`, a
NaN operand :class:`ValueError` and a zero divisor
:class:`ZeroDivisionError`.  ``number`` rounds a plain number into the mode.
Nearest rounds the fp64 result: fp64 is wide enough that the double rounding
is invisible for ``+ - * /`` of single operands.  An exact zero keeps the IEEE
sign of the fp64 result in both modes.  An fp32 node computes on this table
from beacon to estimate, and so does :func:`empirical_loss`."""


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
    :mod:`synclab.estimators` that take an ``arithmetic``.  It runs twice on
    the same arguments: once with every timestamp rounded into ``mode`` and
    ``arithmetic=ROUNDED[mode]``, once with every timestamp as a 64-bit
    float in Python's operators.  An unknown mode raises
    :class:`ValueError`.  A :class:`ClockParams` result maps to
    ``PrecisionLoss(ratio loss, offset loss)``; a scalar result fills only
    ``eps_alpha``.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown rounding mode {mode!r}")
    arithmetic = ROUNDED[mode]
    low = estimator(*(convert_timestamps(a, arithmetic.number) for a in args),
                    arithmetic=arithmetic)
    exact = estimator(*(convert_timestamps(a, float) for a in args))
    if isinstance(low, ClockParams):
        return PrecisionLoss(
            eps_alpha=low.ratio - exact.ratio,
            eps_beta=low.offset - exact.offset,
        )
    return PrecisionLoss(eps_alpha=low - exact)
