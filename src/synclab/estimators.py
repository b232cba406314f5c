"""Clock parameter estimators and timestamp translation.

Timestamp pairs bind a child node's send timestamp (``t_child``, taken at
the SFD of an upward frame, in the child's ticks) to the parent's receive
timestamp (``t_parent``, at the SFD of the same frame, in the parent's
ticks).  All fits produce an affine map in the orientation

    t_child = ratio * t_parent + offset

so the fitted :class:`~synclab.clock.ClockParams` describe the child clock
as a function of parent time, and translating a child-local timestamp toward
the head inverts that map layer by layer.

Each formula is written once, here, over generic numbers.  The fits and the
readout that a node runs, :func:`centered_fit`, :func:`interpolate_params`
and :func:`logical_time`, and the anchored rate :func:`cumulative_ratio`,
take an :class:`Arithmetic`: Python's operators on the numbers themselves
(plain floats or integer ticks give the 64-bit arithmetic), or a table of
rounded float operations such as :data:`~synclab.precision.ROUNDED`, on
which an fp32 node computes from beacon to estimate.  The head and the nodes
fit through one link type, :func:`new_link`, and
:func:`~synclab.precision.empirical_loss` calls these same functions.

The 64-bit least-squares fit is exact up to one final rounding: it solves
the normal equations from exact integer sums of the pairs with correctly
rounded integer division.  An fp64 window link keeps those exact sums from
its first pair, updated in O(1) as pairs arrive and are evicted, and holds a
pair only while a finite window can evict it: a head with an unbounded
window refits in constant time per new pair and holds no pairs.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Sequence

from .clock import ClockParams


class EstimationError(Exception):
    """Base class for estimator contract violations."""


class InsufficientDataError(EstimationError):
    """Not enough timestamp pairs to fit the requested estimator."""


class SingularSystemError(EstimationError):
    """The fit is degenerate (no spread in the regressor timestamps)."""


class TimestampPair(NamedTuple):
    """One synchronization sample: child send stamp and parent receive stamp.

    ``sync_index`` is the child's per-frame sync counter, used for ordering
    and duplicate suppression.  A named tuple, as the head builds one per
    pair it ingests.
    """

    t_child: float
    t_parent: float
    sync_index: int = 0


def _exact(value) -> tuple[int, int] | None:
    """A plain int or finite float as ``(m, k)`` with ``value == m / 2**k``.

    Returns None for any other number (``Fraction``, NaN).
    """
    if isinstance(value, int):
        return value, 0
    if isinstance(value, float) and math.isfinite(value):
        m, d = value.as_integer_ratio()
        return m, d.bit_length() - 1
    return None


class _Sums:
    """Exact sums n, Σx, Σy, Σx², Σxy of parent (x) and child (y) stamps.

    Values are held as integers at a common scale ``2**k`` (squares and
    products at ``2**2k``), so adding and removing a pair is exact and O(1).
    ``k`` only grows: a value that needs a finer scale shifts the sums.
    """

    __slots__ = ("n", "k", "x", "y", "xx", "xy")

    def __init__(self) -> None:
        self.n = self.k = self.x = self.y = self.xx = self.xy = 0

    def _scale(self, x, y) -> tuple[int, int] | None:
        """``x`` and ``y`` as integers at the sums' scale, which first grows
        to hold them; None for a value that is not a plain int or finite
        float."""
        ex, ey = _exact(x), _exact(y)
        if ex is None or ey is None:
            return None
        (x, kx), (y, ky) = ex, ey
        shift = max(kx, ky) - self.k
        if shift > 0:
            self.x <<= shift
            self.y <<= shift
            self.xx <<= 2 * shift
            self.xy <<= 2 * shift
            self.k += shift
        return x << (self.k - kx), y << (self.k - ky)

    def add(self, pair: TimestampPair, evicted: TimestampPair | None = None) -> bool:
        """Add a pair's terms, less those of ``evicted`` (a pair already in
        the sums) when one is given, in one update.

        Returns False, leaving the sums unchanged, for a pair whose
        timestamps are not plain ints or finite floats.
        """
        x, y = pair.t_parent, pair.t_child
        if self.k or type(x) is not int or type(y) is not int:
            scaled = self._scale(x, y)
            if scaled is None:
                return False
            x, y = scaled
        if evicted is None:
            self.n += 1
            self.x += x
            self.y += y
            self.xx += x * x
            self.xy += x * y
            return True
        ox, oy = evicted.t_parent, evicted.t_child
        if self.k or type(ox) is not int or type(oy) is not int:
            ox, oy = self._scale(ox, oy)  # held, so already exact at this scale
        self.x += x - ox
        self.y += y - oy
        self.xx += x * x - ox * ox
        self.xy += x * y - ox * oy
        return True

    def solve(self) -> tuple[float, float]:
        """The least-squares ratio and offset, each correctly rounded.

        ``ratio = (nΣxy - ΣxΣy) / (nΣx² - (Σx)²)`` and ``offset = (ΣyΣx² -
        ΣxΣxy) / (nΣx² - (Σx)²)``, each one int/int true division.  Raises
        :class:`EstimationError` when either overflows a float or the ratio
        is not positive.
        """
        n = self.n
        if n < 2:
            raise InsufficientDataError(f"least squares needs >= 2 pairs, got {n}")
        det = n * self.xx - self.x * self.x
        if det == 0:
            raise SingularSystemError("all parent timestamps coincide")
        try:
            ratio = (n * self.xy - self.x * self.y) / det
            offset = (self.y * self.xx - self.x * self.xy) / (det << self.k)
        except OverflowError:  # a quotient beyond the float range
            raise EstimationError("fitted ratio or offset overflows a float") from None
        if not ratio > 0.0:
            raise EstimationError(f"fitted ratio {ratio!r} is not positive")
        return ratio, offset


class Arithmetic(NamedTuple):
    """The operations a formula is written over: ``add``, ``sub``, ``mul`` and
    ``div`` of two numbers, and ``number``, which turns a count into one."""

    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    number: Callable


OPERATORS = Arithmetic(operator.add, operator.sub, operator.mul, operator.truediv, lambda n: n)
"""Python's operators on the numbers themselves: plain floats round in fp64,
a ``Fraction`` stays exact."""


def centered_fit(xs: Sequence, ys: Sequence, arithmetic: Arithmetic = OPERATORS) -> tuple:
    """Least-squares ``(ratio, offset)`` of ``ys`` on ``xs``, centered on the
    means, one operation at a time in ``arithmetic``, as a node's loop
    computes it: every sum runs left to right.

    Raises :class:`InsufficientDataError` for fewer than two pairs,
    :class:`SingularSystemError` when all ``xs`` coincide and
    :class:`EstimationError` for a ratio that is not positive.
    """
    add, sub, mul, div, number = arithmetic
    n = len(xs)
    if n < 2:
        raise InsufficientDataError(f"least squares needs >= 2 pairs, got {n}")
    count = number(n)
    x_mean = div(reduce(add, xs), count)
    y_mean = div(reduce(add, ys), count)
    dxs = [sub(x, x_mean) for x in xs]
    sxx = reduce(add, [mul(dx, dx) for dx in dxs])
    if float(sxx) == 0.0:
        raise SingularSystemError("all parent timestamps coincide")
    sxy = reduce(add, [mul(dx, sub(y, y_mean)) for dx, y in zip(dxs, ys)])
    ratio = div(sxy, sxx)
    if not float(ratio) > 0.0:
        raise EstimationError(f"fitted ratio {float(ratio)!r} is not positive")
    return ratio, sub(y_mean, mul(ratio, x_mean))


def lsq_fit(pairs: Iterable[TimestampPair]) -> ClockParams:
    """Least-squares affine fit of child timestamps on parent timestamps.

    With plain int or float timestamps (the fp64 head and node paths) the
    ratio and the offset are each the correctly rounded value of the exact
    least-squares solution, solved from exact integer sums.  Any other
    number type, such as ``Fraction``, gets :func:`centered_fit` in its own
    arithmetic, one operation at a time as a node's loop computes it.  Needs
    at least two pairs with distinct parent timestamps.
    """
    pairs = tuple(pairs)
    sums = _Sums()
    if all(sums.add(p) for p in pairs):
        return ClockParams(*sums.solve())
    return ClockParams(*centered_fit([p.t_parent for p in pairs], [p.t_child for p in pairs]))


def cumulative_ratio(
    initial: TimestampPair, latest: TimestampPair, arithmetic: Arithmetic = OPERATORS
):
    """Elapsed-parent over elapsed-child rate between two pairs, one
    operation at a time in ``arithmetic``.

    The long-baseline rate estimator: anchored at the first pair ever seen,
    it converges as the baseline grows.  The returned value is the parent
    rate per child tick; see :func:`cumulative_params` for the translation
    orientation used by head-side schemes.  An int stamp that takes the
    ratio past the float range raises :class:`EstimationError`.
    """
    _, sub, _, div, _ = arithmetic
    try:
        dc = sub(latest.t_child, initial.t_child)
        if float(dc) == 0.0:
            raise SingularSystemError("no elapsed child time between the pairs")
        return div(sub(latest.t_parent, initial.t_parent), dc)
    except OverflowError:  # an int stamp beyond the float range
        raise EstimationError("cumulative ratio overflows a float") from None


def cumulative_params(initial: TimestampPair, latest: TimestampPair) -> ClockParams:
    """Anchored rate estimate as an affine child-on-parent map.

    Equivalent to translating via ``parent = initial.t_parent +
    (child - initial.t_child) * cumulative_ratio`` but expressed in the same
    ``ClockParams`` orientation the other estimators use.  An int stamp
    that takes the ratio or the offset past the float range raises
    :class:`EstimationError`.
    """
    try:
        dp = latest.t_parent - initial.t_parent
        if float(dp) == 0.0:
            raise SingularSystemError("no elapsed parent time between the pairs")
        ratio = (latest.t_child - initial.t_child) / dp
        if not float(ratio) > 0.0:
            raise EstimationError(f"cumulative ratio {float(ratio)!r} is not positive")
        return ClockParams(ratio, initial.t_child - ratio * initial.t_parent)
    except OverflowError:  # an int stamp beyond the float range
        raise EstimationError("cumulative ratio or offset overflows a float") from None


def interpolate_params(
    prev: TimestampPair, cur: TimestampPair, arithmetic: Arithmetic = OPERATORS
) -> ClockParams:
    """Two-point (four-timestamp) linear interpolation between sync samples,
    one operation at a time in ``arithmetic``.

    The exact affine map through two timestamp pairs:

        ratio  = (child_k - child_{k-1}) / (parent_k - parent_{k-1})
        offset = (child_{k-1} * parent_k - parent_{k-1} * child_k)
                 / (parent_k - parent_{k-1})

    Equals the least-squares fit restricted to those two pairs.  An int
    stamp that takes either quotient past the float range raises
    :class:`EstimationError`, as :func:`lsq_fit` does.
    """
    _, sub, mul, div, _ = arithmetic
    try:
        dp = sub(cur.t_parent, prev.t_parent)
        if float(dp) == 0.0:
            raise SingularSystemError("parent timestamps coincide")
        ratio = div(sub(cur.t_child, prev.t_child), dp)
        offset = div(sub(mul(prev.t_child, cur.t_parent), mul(prev.t_parent, cur.t_child)), dp)
    except OverflowError:  # an int stamp beyond the float range
        raise EstimationError("interpolated ratio or offset overflows a float") from None
    if not float(ratio) > 0.0:
        raise EstimationError(f"interpolated ratio {float(ratio)!r} is not positive")
    return ClockParams(ratio, offset)


def logical_time(params: ClockParams, local, arithmetic: Arithmetic = OPERATORS):
    """Affine logical-clock readout: ``ratio * local + offset``, in
    ``arithmetic``.

    With params fitted in the child-on-parent orientation this maps a
    parent-side timestamp to child time; node-side schemes fit the swapped
    orientation and use it to map their own clock to reference time.
    """
    return arithmetic.add(arithmetic.mul(params.ratio, local), params.offset)


def translate_child_to_parent(params: ClockParams, t_child):
    """Invert the affine map: child-local timestamp to parent time."""
    return (t_child - params.offset) / params.ratio


def multihop_to_head(layer_params: Sequence[ClockParams], t_local):
    """Translate a layer-j local timestamp to head time.

    ``layer_params[0]`` links layer 1 to the head, ``layer_params[-1]`` links
    layer j to its parent; the inverse maps compose from the deepest layer
    upward.
    """
    if not layer_params:
        raise EstimationError("no layer parameters to translate through")
    t = t_local
    for params in reversed(layer_params):
        t = translate_child_to_parent(params, t)
    return t


def multihop_from_head(layer_params: Sequence[ClockParams], t_reference):
    """Translate head time to a layer-j local timestamp (downlink direction)."""
    if not layer_params:
        raise EstimationError("no layer parameters to translate through")
    t = t_reference
    for params in layer_params:
        t = logical_time(params, t)
    return t


WINDOW_LSQ = "window-lsq"
CUMULATIVE_RATIO = "cumulative-ratio"
TWO_POINT = "two-point"
ESTIMATOR_METHODS = (WINDOW_LSQ, CUMULATIVE_RATIO, TWO_POINT)


def default_window(si_s: float) -> int:
    """Default regression window size for a sync interval in seconds."""
    if si_s >= 100.0:
        return 2
    if si_s >= 10.0:
        return 5
    return 19


class _Link:
    """One link's estimate, at the head or at a node: the last good fit,
    redone lazily in the link's arithmetic once new pairs have arrived.
    :meth:`push` takes each pair whose sync index is newer than any taken so
    far and hands it to the method's ``_keep``; a subclass per method keeps
    the pairs its ``fit`` reads and nothing else.  ``fit`` returns ``(ratio,
    offset)`` or raises :class:`EstimationError`,
    :class:`InsufficientDataError` while the link has fewer than two pairs."""

    __slots__ = ("dirty", "ratio", "offset", "arithmetic", "newest")

    def __init__(self, arithmetic: Arithmetic) -> None:
        self.dirty = False
        self.ratio = self.offset = self.newest = None
        self.arithmetic = arithmetic

    def push(self, pair: TimestampPair) -> bool:
        """Take a pair; False, leaving the link as it was, for a stale or
        duplicate sync index, so delivery is idempotent."""
        if self.newest is not None and pair.sync_index <= self.newest:
            return False
        self.newest = pair.sync_index
        self.dirty = True
        self._keep(pair)
        return True

    def current(self) -> bool:
        """Refit if pairs arrived since the last fit; False while the link
        has no good fit.  A refit that raises :class:`EstimationError` (say,
        a non-positive ratio from pairs that SFD jitter put out of order) or
        overflows (a square past the single range) is rejected and the last
        good fit kept."""
        if self.dirty:
            self.dirty = False
            try:
                self.ratio, self.offset = self.fit()
            except (EstimationError, ArithmeticError):
                pass
        return self.ratio is not None


class _WindowLink(_Link):
    """window-lsq: the last ``capacity`` pairs (all for None).

    Under :data:`OPERATORS` the link is its exact :class:`_Sums` from its
    first pair, a fit is ``sums.solve()``, and it holds a pair only while a
    finite window can evict it.  A run or a loaded trace hands it only ints
    and finite floats; any other stamp raises ValueError.  On a rounded
    table it holds its pairs and fits them by :func:`centered_fit`."""

    __slots__ = ("pairs", "sums")

    def __init__(self, capacity: int | None, arithmetic: Arithmetic) -> None:
        super().__init__(arithmetic)
        self.sums = _Sums() if arithmetic is OPERATORS else None
        held = capacity is not None or self.sums is None
        self.pairs: deque[TimestampPair] | None = deque(maxlen=capacity) if held else None

    def _keep(self, pair: TimestampPair) -> None:
        pairs = self.pairs
        evicted = pairs[0] if pairs is not None and len(pairs) == pairs.maxlen else None
        if self.sums is not None and not self.sums.add(pair, evicted):
            raise ValueError(f"stamps {pair[:2]} are not ints or finite floats")
        if pairs is not None:
            pairs.append(pair)  # a full deque drops the evicted pair itself

    def fit(self) -> tuple:
        if self.sums is not None:
            return self.sums.solve()
        children, parents, _ = zip(*self.pairs)
        return centered_fit(parents, children, self.arithmetic)


class _AnchoredLink(_Link):
    """cumulative-ratio: the first pair ever and the latest one, in fp64."""

    __slots__ = ("first", "latest")

    def __init__(self, capacity: int | None, arithmetic: Arithmetic) -> None:
        super().__init__(arithmetic)
        self.first = self.latest = None

    def _keep(self, pair: TimestampPair) -> None:
        if self.first is None:
            self.first = pair
        self.latest = pair

    def fit(self) -> tuple[float, float]:
        if self.first is self.latest:
            raise InsufficientDataError("the anchored rate needs 2 pairs, got 1")
        params = cumulative_params(self.first, self.latest)
        return params.ratio, params.offset


class _TwoPointLink(_Link):
    """two-point: the latest two pairs, interpolated in the link's
    arithmetic; it takes no capacity."""

    __slots__ = ("previous", "latest")

    def __init__(self, capacity: int | None, arithmetic: Arithmetic) -> None:
        super().__init__(arithmetic)
        self.previous = self.latest = None

    def _keep(self, pair: TimestampPair) -> None:
        self.previous, self.latest = self.latest, pair

    def fit(self) -> tuple:
        if self.previous is None:
            raise InsufficientDataError("two-point needs 2 pairs, got 1")
        params = interpolate_params(self.previous, self.latest, self.arithmetic)
        return params.ratio, params.offset


_LINKS = {WINDOW_LSQ: _WindowLink, CUMULATIVE_RATIO: _AnchoredLink, TWO_POINT: _TwoPointLink}


def new_link(method: str, window: int | None, arithmetic: Arithmetic = OPERATORS) -> _Link:
    """An empty link of ``method`` fitted in ``arithmetic``, for the head or
    a node; window-lsq keeps the last ``window`` pairs (all for None)."""
    return _LINKS[method](window, arithmetic)


class HeadEstimator:
    """Head-side registry of per-node estimates (one estimate per link layer).

    Keyed by the child node id; in a chain topology node ids coincide with
    layer numbers.  Each link is a :func:`new_link` of the head's method.
    Fits are cached and recomputed lazily after new pairs arrive.  Duplicate
    or stale sync indices leave the state unchanged.
    """

    def __init__(self, method: str = WINDOW_LSQ, window: int | None = 19) -> None:
        if method not in ESTIMATOR_METHODS:
            raise ValueError(f"unknown estimator method {method!r}")
        if window is not None and window < 2:
            raise ValueError(f"head window {window} is below 2")
        self._method = method
        self._window = window
        self._links: dict[int, _Link] = {}

    def ingest(self, node_id: int, pair: TimestampPair) -> bool:
        """Add a pair for a node's link; returns False for duplicates."""
        link = self._links.get(node_id)
        if link is None:
            link = self._links[node_id] = new_link(self._method, self._window)
        return link.push(pair)

    def params_for(self, node_id: int) -> ClockParams | None:
        """Current estimate for a node's link, or None before bootstrap.

        A refit that raises :class:`EstimationError` is rejected and the
        last good fit kept.
        """
        link = self._links.get(node_id)
        if link is None or not link.current():
            return None
        return ClockParams(link.ratio, link.offset)

    def translate_to_reference(self, chain: Sequence[int], t_local) -> float | None:
        """Translate a layer-local timestamp to head time along a chain.

        ``chain`` lists the ancestor node ids from the head-adjacent node
        down to the origin.  Returns None while any layer on the chain is
        still bootstrapping (fewer than two pairs).  Links are refitted
        head-adjacent first, up to the first one still bootstrapping; the
        inverse maps then compose from the origin upward, as
        :func:`multihop_to_head` composes them.
        """
        links = self._links
        for node_id in chain:
            link = links.get(node_id)
            if link is None or not link.current():
                return None
        t = t_local
        for node_id in reversed(chain):
            link = links[node_id]
            t = (t - link.offset) / link.ratio
        return float(t)
