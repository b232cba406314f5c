import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from synclab.precision import (
    CHOP,
    Float32Emu,
    MACHINE_EPS32,
    NEAREST,
    PrecisionLoss,
    PrecisionOverflowError,
    decompose,
    empirical_loss,
    psi_error,
    round32,
)
from synclab.estimators import TimestampPair, cumulative_ratio, interpolate_params

finite32 = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


def next_up32(x: float) -> float:
    return float(np.nextafter(np.float32(x), np.float32(np.inf)))


def next_down32(x: float) -> float:
    return float(np.nextafter(np.float32(x), np.float32(-np.inf)))


def pairs(c0, p0, c1, p1):
    """Two timestamp pairs, (child, parent) each, as the two-pair estimators take."""
    return TimestampPair(c0, p0), TimestampPair(c1, p1)


@given(finite32)
def test_round32_nearest_minimizes_distance(x):
    r = round32(x, NEAREST)
    assert r == float(np.float32(r))  # representable
    # no neighboring float32 is closer
    assert abs(x - r) <= abs(x - next_up32(r))
    assert abs(x - r) <= abs(x - next_down32(r))


def test_round32_nearest_ties_to_even():
    # exactly between 1 and 1+2^-23: even mantissa wins
    assert round32(1.0 + 2.0**-24, NEAREST) == 1.0
    # exactly between 1+2^-23 and 1+2^-22: rounds up to the even one
    assert round32(1.0 + 3.0 * 2.0**-24, NEAREST) == 1.0 + 2.0**-22


@given(finite32)
def test_round32_chop_is_largest_float32_toward_zero(x):
    r = round32(x, CHOP)
    assert r == float(np.float32(r))
    assert abs(r) <= abs(x)
    if x > 0:
        assert Fraction(r) <= Fraction(x) < Fraction(next_up32(r))
    elif x < 0:
        assert Fraction(next_down32(r)) < Fraction(x) <= Fraction(r)
    else:
        assert r == 0.0


def test_round32_rejects_bad_input():
    with pytest.raises(ValueError):
        round32(1.0, "floor")
    with pytest.raises(ValueError):
        round32(float("nan"))
    with pytest.raises(PrecisionOverflowError):
        round32(1e39)


def test_decompose():
    sign, significand, exponent = decompose(-6.0)
    assert sign == -1
    assert significand == 1.5
    assert exponent == 2
    assert decompose(1.0) == (1, 1.0, 0)


# ranges chosen so sums, products, and guarded quotients stay finite in fp32
two_floats = st.tuples(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)


@given(two_floats)
def test_emu_nearest_matches_hardware_float32(pair):
    a, b = pair
    ea = Float32Emu.from_number(a, NEAREST)
    eb = Float32Emu.from_number(b, NEAREST)
    fa, fb = np.float32(ea.value), np.float32(eb.value)
    assert (ea + eb).value == float(fa + fb)
    assert (ea - eb).value == float(fa - fb)
    assert (ea * eb).value == float(fa * fb)
    if abs(float(fb)) >= 1e-6:
        assert (ea / eb).value == float(fa / fb)


@given(two_floats)
def test_emu_chop_results_bound_exact_value(pair):
    a, b = pair
    ea = Float32Emu.from_number(a, CHOP)
    eb = Float32Emu.from_number(b, CHOP)
    for op in ("add", "mul", "div"):
        if op == "add":
            got, exact = (ea + eb).value, Fraction(ea.value) + Fraction(eb.value)
        elif op == "mul":
            got, exact = (ea * eb).value, Fraction(ea.value) * Fraction(eb.value)
        else:
            if abs(eb.value) < 1e-6:
                continue
            got, exact = (ea / eb).value, Fraction(ea.value) / Fraction(eb.value)
        assert abs(Fraction(got)) <= abs(exact)
        if exact > 0:
            assert Fraction(got) <= exact < Fraction(next_up32(got))
        elif exact < 0:
            assert Fraction(next_down32(got)) < exact <= Fraction(got)
        else:
            assert got == 0.0


def test_emu_guards():
    one = Float32Emu.from_number(1.0, NEAREST)
    with pytest.raises(ZeroDivisionError):
        one / Float32Emu.from_number(0.0, NEAREST)
    with pytest.raises(ValueError):
        one + Float32Emu.from_number(1.0, CHOP)
    with pytest.raises(ValueError):
        Float32Emu(1.0 + 2.0**-24, NEAREST)  # not representable
    assert float(-one) == -1.0
    assert (1.0 - one).value == 0.0
    assert (2.0 / Float32Emu.from_number(2.0, NEAREST)).value == 1.0


def test_psi_error_is_affine_in_local_time():
    loss = PrecisionLoss(eps_alpha=-MACHINE_EPS32, eps_beta=2.0)
    assert psi_error(loss, 0.0) == 2.0
    assert math.isclose(psi_error(loss, 1e6), -MACHINE_EPS32 * 1e6 + 2.0)


def test_chop_loss_sign_convention():
    # with inputs exactly representable in single precision, the only
    # rounding is the chopped division itself, so fp32 - fp64 <= 0
    loss = empirical_loss(
        cumulative_ratio, *pairs(0.0, 0.0, 1_000_000.0, 1_000_003.0), mode=CHOP
    )
    assert -MACHINE_EPS32 * 2 < loss.eps_alpha < 0.0
    # non-representable inputs quantize toward zero on entry, which can push
    # the end-to-end quotient above the exact value
    quantized = empirical_loss(
        cumulative_ratio, *pairs(0.0, 0.0, 2**30 + 127.0, 2.0**30), mode=CHOP
    )
    assert quantized.eps_alpha > 0.0


def test_engineered_near_worst_chop_case():
    # exact ratio 1 + 127/2^30 chops to 1.0: alpha loss ~ -0.99 * 2^-23
    loss = empirical_loss(
        interpolate_params, *pairs(0.0, 0.0, 2**30 + 127.0, 2.0**30), mode=CHOP
    )
    assert loss.eps_beta == 0.0
    assert math.isclose(loss.eps_alpha, -(127 / 2**30), rel_tol=1e-12)
    assert 0.9 <= abs(loss.eps_alpha) / MACHINE_EPS32 <= 1.0


def test_empirical_loss_matches_direct_difference():
    args = (1_000.0, 2_000.0, 500_000.0, 501_000.0)
    loss = empirical_loss(interpolate_params, *pairs(*args), mode=NEAREST)
    low = interpolate_params(
        *pairs(*(Float32Emu.from_number(a, NEAREST) for a in args))
    )
    exact = interpolate_params(*pairs(*args))
    assert loss.eps_alpha == low.ratio.value - exact.ratio
    assert loss.eps_beta == low.offset.value - exact.offset


def test_worst_case_psi_magnitudes_at_tick_scale():
    # near-worst chop loss on the ratio: ~0.119 us of error per simulated
    # second of local time measured in 1 us ticks
    loss = empirical_loss(
        interpolate_params, *pairs(0.0, 0.0, 2**30 + 127.0, 2.0**30), mode=CHOP
    )
    one_second_ticks = 1e6
    assert 0.9 * 0.119 <= abs(psi_error(loss, one_second_ticks)) <= 1.3 * 0.119
    assert 0.9 * 1.19 <= abs(psi_error(loss, 10 * one_second_ticks)) <= 1.3 * 1.19
