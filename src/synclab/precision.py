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
  and by struct packing when it is zero or subnormal; a sum or difference
  that fp64 rounded chops as its fp64 value does, or as the fp64 value next
  to it toward zero, as the sign of the TwoSum error term says;
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

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")

NEAREST = "nearest"
CHOP = "chop"
_MODES = (NEAREST, CHOP)


class PrecisionOverflowError(ArithmeticError):
    """A value exceeds the largest finite single-precision magnitude."""


def _chop_exact(x: float) -> float:
    """A value that fp64 holds exactly, chopped: the single-precision value
    of largest magnitude not above ``|x|``, with the sign of ``x``.  This is
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
_nextafter = math.nextafter

# The chop fast path, inline in each operation below.  A value ``x`` that
# fp64 holds exactly, with ``_NORMAL32 <= |x| <= FLOAT32_MAX`` (which rules
# out zero, subnormal results, inf and NaN), chops to ``x - fmod(x, ulp)``,
# where ``ulp = math.ulp(x) * 2**29`` is its single-precision ulp (fp64 has
# 29 more fraction bits, and both formats are normal there, so the scaling
# is exact).  ``fmod`` is exact and keeps the sign of ``x``, so the
# difference is ``n * ulp`` with ``2**23 <= |n| < 2**24`` and the sign of
# ``x``: single precision by construction.  Zero (whose sign ``fmod`` would
# lose), subnormal results and errors go to the struct routine,
# :func:`_chop_exact`, and a sum or difference that fp64 rounded to
# :func:`_chop_rounded`.


def _chop_add(a: float, b: float) -> float:
    """``a + b`` chopped, for single-precision ``a`` and ``b``: inline when
    the TwoSum error term is zero (the fp64 sum is then exact, and carries
    the IEEE sign of an exact zero), else by :func:`_chop_rounded`."""
    t = a + b
    bp = t - a
    e = (a - (t - bp)) + (b - bp)
    if e == 0.0:
        if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
            return t - _fmod(t, _ulp(t) * 2.0 ** 29)
        return _chop_exact(t)
    return _chop_rounded(t, e)


def _chop_sub(a: float, b: float) -> float:
    """``a - b`` chopped, as :func:`_chop_add` with TwoDiff's error term,
    ``(a - (t - bp)) - (b + bp)``: the TwoSum term of ``a + (-b)``."""
    t = a - b
    bp = t - a
    e = (a - (t - bp)) - (b + bp)
    if e == 0.0:
        if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
            return t - _fmod(t, _ulp(t) * 2.0 ** 29)
        return _chop_exact(t)
    return _chop_rounded(t, e)


def _chop_rounded(t: float, e: float) -> float:
    """``t + e`` chopped: ``t`` is the fp64 sum or difference of two singles
    and ``e`` its nonzero TwoSum error term (NaN for a non-finite operand,
    and then ``t`` raises).

    ``t + e`` lies strictly between ``t`` and its fp64 neighbour on the side
    of ``e``, at most halfway, and the single grid lies on the fp64 grid.
    So with ``e`` toward zero, ``t + e`` chops as that neighbour does; with
    ``e`` away from zero, as ``t`` does, except that past
    :data:`FLOAT32_MAX` it overflows; and a ``t`` past the range overflows
    either way.
    """
    value = _chop_exact(t)  # raises for a t past the range
    if (e < 0.0) == (t > 0.0):
        return _chop_exact(_nextafter(t, 0.0))
    if abs(t) == FLOAT32_MAX:
        raise PrecisionOverflowError(f"{t!r} + {e!r} overflows single precision")
    return value


def _chop_mul(a: float, b: float) -> float:
    """``a * b`` chopped: a product of singles is exact in fp64."""
    t = a * b
    if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
        return t - _fmod(t, _ulp(t) * 2.0 ** 29)
    return _chop_exact(t)


def _chop_div(a: float, b: float) -> float:
    """``a / b`` chopped, for single-precision ``a`` and ``b``.

    The fp64 quotient is rarely exact, yet it chops as ``a/b`` does.  With
    IEEE exponents, a single is ``M * 2**(E-23)`` for an integer ``M`` below
    ``2**24`` (``E = -126`` for a subnormal).  Let ``a`` and ``b`` have
    exponents ``E_a`` and ``E_b``, and ``m != a/b`` be a single of exponent
    ``E``.  Then ``a - m*b`` is a nonzero multiple of ``2**(E_a-23)`` or of
    ``2**(E+E_b-46)``, whichever is smaller, so ``|a/b - m|`` is at least
    ``2**(E_a-23) / |b|`` or, as ``|b| < 2**(E_b+1)``, ``2**(E-47)``.  The
    fp64 quotient is within ``2**-53 * |a/b|`` of ``a/b``: below
    ``2**(E_a-52) / |b|``, and below ``2**(E-51)`` while ``|a/b| <
    2**(E+2)`` (farther off, ``m`` is out of its reach).  So it never
    reaches or crosses a single that ``a/b`` does not equal.  The bounds
    come from the operands' exponents, not from ``m`` being normal: a
    quotient outside the normal range, zeros, subnormals and overflows,
    goes to :func:`_chop_exact`.
    """
    t = a / _divisor(b)
    if _NORMAL32 <= t <= FLOAT32_MAX or -FLOAT32_MAX <= t <= -_NORMAL32:
        return t - _fmod(t, _ulp(t) * 2.0 ** 29)
    return _chop_exact(t)


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
NaN fp64 result (a NaN operand, or ``inf - inf``) :class:`ValueError` and a
zero divisor :class:`ZeroDivisionError`, alike in both modes.  ``number``
rounds a plain number into the mode.
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
