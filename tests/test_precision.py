import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from synclab.clock import ClockParams
from synclab.precision import (
    CHOP,
    FLOAT32_MAX,
    MACHINE_EPS32,
    NEAREST,
    PrecisionLoss,
    PrecisionOverflowError,
    ROUNDED,
    empirical_loss,
    psi_error,
    round32,
)
from synclab.estimators import (
    Arithmetic,
    EstimationError,
    TimestampPair,
    centered_fit,
    cumulative_ratio,
    interpolate_params,
)

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


def chop_oracle(exact: Fraction) -> float:
    """The single-precision value of largest magnitude not above ``|exact|``,
    with the sign of ``exact``: a nonzero value chopped to zero keeps it, an
    exact zero is +0.0.  Magnitudes above FLOAT32_MAX raise."""
    magnitude = abs(exact)
    if magnitude > Fraction(FLOAT32_MAX):
        raise PrecisionOverflowError("oracle: overflow")
    # rounding to nearest lands on the answer or on the value one step above
    near = np.float32(float(magnitude))
    best = max(
        float(c)
        for c in (near, np.nextafter(near, np.float32(0.0)))
        if Fraction(float(c)) <= magnitude
    )
    return -best if exact < 0 else best


def outcome(compute) -> str:
    """``float.hex`` of a result, or the name of the error it raises."""
    try:
        return float(compute()).hex()
    except (PrecisionOverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


def steps_from(x: float, k: int) -> float:
    """``x`` moved ``k`` single-precision steps, or ``x`` if that overflows."""
    y = np.float32(x)
    toward = np.float32(math.copysign(math.inf, k))
    with np.errstate(over="ignore"):
        for _ in range(abs(k)):
            y = np.nextafter(y, toward)
    return float(y) if math.isfinite(float(y)) else x


# every single-precision operand: signed zeros, subnormals, values near
# FLOAT32_MAX; and pairs within a few steps of b = a or b = -a, where a - b
# or a + b nearly cancels
f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
f32_pairs = st.one_of(
    st.tuples(f32, f32),
    st.builds(
        lambda a, k, flip: (a, steps_from(-a if flip else a, k)),
        f32, st.integers(-4, 4), st.booleans(),
    ),
)
SMALLEST = 2.0**-149
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def table_ops(mode: str) -> dict:
    """Each operator of ARITHMETIC -> its mode's ROUNDED entry (``add``,
    ``sub``, ``mul``, ``div``, in that order)."""
    return dict(zip(ARITHMETIC, ROUNDED[mode]))


def with_exponent_gap(a: float, significand: int, gap: int, negative: bool) -> tuple:
    """``a`` and a single-precision value ``gap`` binades from it."""
    exponent = math.frexp(a)[1] + gap - 24
    with np.errstate(over="ignore"):
        b = float(np.float32(math.ldexp(significand, exponent)))
    b = min(b, FLOAT32_MAX)
    return (a, -b if negative else b)


# pairs whose exponents differ by at most 29: their exact sum and difference
# span at most 53 bits, so fp64 holds them
exact_sum_pairs = st.builds(
    with_exponent_gap,
    f32, st.integers(2**23, 2**24 - 1), st.integers(-29, 29), st.booleans(),
)


def chopped(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda v: round32(v, CHOP))


def fit_operands(x: float, mean_offset: float, y_offset: float, acc: float) -> list:
    """Operand pairs of a node's centred fit at a stamp ``x``: the stamp and
    the window mean, a centred difference squared, two centred differences
    multiplied, and a running sum of squares plus one more square."""
    mean = round32(x + mean_offset, CHOP)
    dx = round32(x - mean, CHOP)
    dy = round32(x + y_offset - mean, CHOP)
    return [(x, mean), (dx, dx), (dx, dy), (acc, round32(dx * dx, CHOP))]


# those operands at timestamp scale: stamps of 1e8-1e9 ticks, window means
# within 1e7 ticks of them
offsets = st.floats(-1e7, 1e7)
timestamp_pairs = st.builds(
    fit_operands, chopped(1e8, 1e9), offsets, offsets, chopped(0.0, 1e15)
).flatmap(st.sampled_from)


def assert_chop_matches_oracle(a: float, b: float, ops=ARITHMETIC) -> None:
    """Each chop-mode ``op(a, b)`` equals the oracle by ``float.hex``,
    including which operations raise."""
    rounded = table_ops(CHOP)
    for op in ops:
        if b == 0.0 and op is operator.truediv:
            expected = "ZeroDivisionError"
        elif op(Fraction(a), Fraction(b)) == 0:
            # an exact zero carries the IEEE sign, that of the fp64 result
            expected = op(a, b).hex()
        else:
            expected = outcome(lambda: chop_oracle(op(Fraction(a), Fraction(b))))
        assert outcome(lambda: rounded[op](a, b)) == expected, (op.__name__, a, b)


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


@settings(max_examples=400)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(-(2.0**-150))
@example(1.5 * SMALLEST)
@example(FLOAT32_MAX)
@example(FLOAT32_MAX * (1.0 + 2.0**-40))
@example(-(2.0**128))
@example(2.0 - 2.0**-30)
@example(-0.75 * SMALLEST)
def test_round32_chop_is_largest_float32_toward_zero(x):
    expected = x.hex() if x == 0.0 else outcome(lambda: chop_oracle(Fraction(x)))
    assert outcome(lambda: round32(x, CHOP)) == expected


def test_round32_rejects_bad_input():
    with pytest.raises(ValueError):
        round32(1.0, "floor")
    with pytest.raises(ValueError):
        round32(float("nan"))
    with pytest.raises(PrecisionOverflowError):
        round32(1e39)


@settings(max_examples=400)
@given(f32_pairs)
@example((FLOAT32_MAX, FLOAT32_MAX))
@example((FLOAT32_MAX, 0.5))
@example((FLOAT32_MAX, 2.0**102))
@example((-FLOAT32_MAX, 2.0**103))
@example((-0.0, -0.0))
@example((-0.0, 1.0))
@example((SMALLEST, 4.0))
@example((1.0, 0.0))
def test_emu_nearest_matches_hardware_float32(pair):
    a, b = pair
    rounded = table_ops(NEAREST)
    for op in ARITHMETIC:
        got = outcome(lambda: rounded[op](a, b))
        if op is operator.truediv and b == 0.0:
            assert got == "ZeroDivisionError"
            continue
        with np.errstate(over="ignore"):
            hardware = float(op(np.float32(a), np.float32(b)))
        if math.isinf(hardware):
            assert got == "PrecisionOverflowError", op.__name__
        else:
            assert got == hardware.hex(), op.__name__


@settings(max_examples=400)
@given(f32_pairs)
@example((FLOAT32_MAX, FLOAT32_MAX))
@example((FLOAT32_MAX, -SMALLEST))
@example((-0.0, -0.0))
@example((-0.0, 1.0))
@example((-0.0, 0.0))
@example((0.0, -1.0))
@example((SMALLEST, 3.0))
@example((-SMALLEST, FLOAT32_MAX))
@example((1.0 + 2.0**-23, 1.0))
@example((1.0, 0.0))
def test_emu_chop_results_bound_exact_value(pair):
    assert_chop_matches_oracle(*pair)


@settings(max_examples=400)
@given(st.one_of(exact_sum_pairs, timestamp_pairs))
# exact sums and products just below a power of two, where rounding to
# nearest lands on the power
@example((2.0 - 2.0**-23, 3.0 * 2.0**-25))
@example((1.0, 1.0 - 2.0**-24))
@example((1.0 + 2.0**-23, 1.0 - 2.0**-23))
@example((-(2.0**100), 2.0**73))
# the subnormal floor, and products that underflow to a signed zero
@example((2.0**-126, -SMALLEST))
@example((SMALLEST, 1.5))
@example((SMALLEST, 0.75))
@example((-SMALLEST, 0.75))
@example((SMALLEST, -0.5))
# results at and just past FLOAT32_MAX
@example((FLOAT32_MAX, 1.0))
@example((-FLOAT32_MAX, 1.0 + 2.0**-23))
@example((FLOAT32_MAX, 2.0**103))
@example((-FLOAT32_MAX, -(2.0**102)))
@example((-FLOAT32_MAX, 2.0**104))
# sums whose fp64 value is inexact: the fp64 sum and the sign of its TwoSum
# error term decide the chop, down a binade, beside a single, or past the range
@example((1.0, 2.0**-40))
@example((1.0, -(2.0**-40)))
@example((2.0**30, 1.0 + 2.0**-23))
@example((-FLOAT32_MAX, 2.0**-40))
@example((FLOAT32_MAX, 1.25 * 2.0**74))
def test_emu_chop_exact_fp64_results_match_oracle(pair):
    assert_chop_matches_oracle(*pair, ops=(operator.add, operator.sub, operator.mul))


def test_emu_chop_matches_oracle_on_seeded_pairs():
    rng = np.random.default_rng(20261018)
    n = 1000

    def random_f32():
        # finite magnitudes from every binade, either sign
        bits = rng.integers(0, 0x7F800000, n, dtype=np.uint32)
        return bits.view(np.float32).astype(np.float64) * rng.choice([-1.0, 1.0], n)

    a = random_f32()
    within_29 = a * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-29, 30, n))
    stamps = rng.uniform(1e8, 1e9, n)
    columns = [
        (a, random_f32()),
        (a, np.clip(within_29, -FLOAT32_MAX, FLOAT32_MAX).astype(np.float32)),
        (stamps.astype(np.float32),
         (stamps + rng.uniform(-1e7, 1e7, n)).astype(np.float32)),
    ]
    for xs, ys in columns:
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert_chop_matches_oracle(x, y)


def near_quotient(m: float, b: float, k: int) -> tuple:
    """A dividend ``k`` single-precision steps from ``m * b`` chopped, and
    ``b``: a quotient at or just beside the single value ``m``, where a
    chopped fp64 quotient would first go wrong."""
    a = round32(max(-FLOAT32_MAX, min(m * b, FLOAT32_MAX)), CHOP)
    return steps_from(a, k), b


@settings(max_examples=400)
@given(st.one_of(st.builds(near_quotient, f32, f32, st.integers(-1, 1)), f32_pairs))
# subnormal quotients, and quotients at and just below the smallest normal
@example((SMALLEST, 2.0))
@example((-(2.0**-126), 1.5))
@example((2.0**-125, 2.0))
@example((2.0**-126, 1.0 + 2.0**-23))
# signed zeros
@example((-0.0, 3.0))
@example((0.0, -3.0))
@example((SMALLEST, -FLOAT32_MAX))
@example((1.0, -0.0))
# FLOAT32_MAX: exact, and just past the range
@example((FLOAT32_MAX, FLOAT32_MAX))
@example((FLOAT32_MAX, 1.0))
@example((-FLOAT32_MAX, 1.0 - 2.0**-24))
@example((FLOAT32_MAX, 0.5))
def test_emu_chop_quotient_matches_oracle(pair):
    # chop division truncates the fp64 quotient when that is normal: the
    # oracle divides exactly
    assert_chop_matches_oracle(*pair, ops=(operator.truediv,))


@pytest.mark.parametrize("mode", [NEAREST, CHOP])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_rounded_table_rejects_non_finite_operands(mode, op):
    # an fp32 node computes on the table with no checked constructor in
    # front of it: an infinity is an overflow, a NaN no single value
    compute = getattr(ROUNDED[mode], op)
    for a, b in ((math.inf, 2.0), (-math.inf, 2.0), (2.0, math.inf), (2.0, -math.inf)):
        with pytest.raises(PrecisionOverflowError):
            compute(a, b)
    for a, b in ((math.nan, 2.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            compute(a, b)


def chop_op(op):
    """``op`` rounded by :func:`chop_oracle`, an exact zero with the sign of
    the fp64 result."""
    def rounded(a, b):
        exact = op(Fraction(a), Fraction(b))
        return op(a, b) if exact == 0 else chop_oracle(exact)
    return rounded


def hardware_op(op):
    """``op`` in numpy float32, an infinite result raising as an overflow."""
    def rounded(a, b):
        if op is operator.truediv and b == 0.0:
            raise ZeroDivisionError("division by zero")
        with np.errstate(over="ignore"):
            result = float(op(np.float32(a), np.float32(b)))
        if math.isinf(result):
            raise PrecisionOverflowError("oracle: overflow")
        return result
    return rounded


# the centred fit in arithmetic built from the oracles, not from precision
ORACLE_ARITHMETIC = {
    CHOP: Arithmetic(*map(chop_op, ARITHMETIC), float),
    NEAREST: Arithmetic(*map(hardware_op, ARITHMETIC), float),
}


def fit_outcome(fit) -> tuple | str:
    """``float.hex`` of a fit's ratio and offset, or the name of the error
    it raises."""
    try:
        params = fit()
    except (EstimationError, PrecisionOverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return float(params.ratio).hex(), float(params.offset).hex()


def assert_fits_agree(window: list) -> list:
    """In both modes, the float-level fit of a window of (child, parent)
    single-precision values (an fp32 node's refit: the centred fit on the
    mode's rounding table) and the same fit in oracle arithmetic, whose
    operations share no code with the table, agree bit for bit, or raise
    alike.
    Returns the outcome in each mode."""
    children = [c for c, _ in window]
    parents = [p for _, p in window]
    outcomes = []
    for mode in (NEAREST, CHOP):
        floats = fit_outcome(
            lambda: ClockParams(*centered_fit(parents, children, ROUNDED[mode]))
        )
        expected = fit_outcome(
            lambda: ClockParams(*centered_fit(parents, children, ORACLE_ARITHMETIC[mode]))
        )
        assert floats == expected, (mode, window)
        outcomes.append(floats)
    return outcomes


def stamp_window(start: float, steps: list, ratio: float, offset: float) -> list:
    """(child, parent) stamps at timestamp scale: parent stamps from
    ``start`` by ``steps``, child stamps on a line through them, both
    chopped onto the single-precision grid."""
    parents = np.cumsum([start, *steps]).tolist()
    return [(round32(p * ratio + offset, CHOP), round32(p, CHOP)) for p in parents]


fit_windows = st.one_of(
    st.builds(
        stamp_window,
        st.floats(1e8, 1e9),
        st.lists(st.floats(0.0, 2e6), min_size=1, max_size=18),
        st.floats(0.999, 1.001),
        st.floats(-1e7, 1e7),
    ),
    st.lists(st.tuples(f32, f32), min_size=2, max_size=19),
)


@settings(max_examples=100)
@given(fit_windows)
# signed zeros and subnormals
@example([(-0.0, 0.0), (0.0, 1.0), (-0.0, -0.0)])
@example([(-0.0, -SMALLEST), (SMALLEST, 0.0), (2 * SMALLEST, SMALLEST)])
@example([(SMALLEST, 2.0**-126), (-SMALLEST, -(2.0**-126))])
# values near FLOAT32_MAX: sums and squares overflow, or just fit
@example([(1.0, FLOAT32_MAX), (2.0, -FLOAT32_MAX)])
@example([(2.0**63, 2.0**63), (2.0**63 + 2.0**40, 2.0**63 + 2.0**40)])
def test_float_fit_matches_emu_fit_bit_for_bit(window):
    assert_fits_agree(window)


@pytest.mark.parametrize("window,error", [
    ([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)], "SingularSystemError"),  # one parent stamp
    ([(10.0, 0.0), (0.0, 10.0)], "EstimationError"),  # a negative ratio
    ([(FLOAT32_MAX, 1.0), (FLOAT32_MAX, 2.0)], "PrecisionOverflowError"),
])
def test_float_fit_raises_as_the_emu_fit(window, error):
    assert assert_fits_agree(window) == [error, error]


def test_float_fit_matches_emu_fit_on_seeded_windows():
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        size = int(rng.integers(2, 20))
        if rng.random() < 0.8:
            window = stamp_window(
                rng.uniform(1e8, 1e9), rng.uniform(0.0, 2e6, size - 1).tolist(),
                rng.uniform(0.999, 1.001), rng.uniform(-1e7, 1e7),
            )
        else:
            # every binade, subnormals included, either sign
            bits = rng.integers(0, 0x7F800000, 2 * size, dtype=np.uint32)
            values = bits.view(np.float32).astype(np.float64) * rng.choice([-1.0, 1.0], 2 * size)
            window = list(zip(values[::2].tolist(), values[1::2].tolist()))
        assert_fits_agree(window)


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


@pytest.mark.parametrize("mode", [NEAREST, CHOP])
@pytest.mark.parametrize("estimator", [interpolate_params, cumulative_ratio],
                         ids=lambda f: f.__name__)
def test_empirical_loss_matches_direct_difference(estimator, mode):
    args = (1_000.0, 2_000.0, 500_000.0, 501_000.0)
    loss = empirical_loss(estimator, *pairs(*args), mode=mode)
    table = ROUNDED[mode]
    low = estimator(*pairs(*map(table.number, args)), arithmetic=table)
    exact = estimator(*pairs(*args))
    if estimator is interpolate_params:
        assert loss.eps_alpha == low.ratio - exact.ratio
        assert loss.eps_beta == low.offset - exact.offset
    else:
        assert loss == PrecisionLoss(eps_alpha=low - exact)


def test_empirical_loss_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown rounding mode"):
        empirical_loss(interpolate_params, *pairs(0.0, 0.0, 1.0, 1.0), mode="up")


def test_worst_case_psi_magnitudes_at_tick_scale():
    # near-worst chop loss on the ratio: ~0.119 us of error per simulated
    # second of local time measured in 1 us ticks
    loss = empirical_loss(
        interpolate_params, *pairs(0.0, 0.0, 2**30 + 127.0, 2.0**30), mode=CHOP
    )
    one_second_ticks = 1e6
    assert 0.9 * 0.119 <= abs(psi_error(loss, one_second_ticks)) <= 1.3 * 0.119
    assert 0.9 * 1.19 <= abs(psi_error(loss, 10 * one_second_ticks)) <= 1.3 * 1.19
