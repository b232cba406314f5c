"""Clock parameter estimators and timestamp translation.

Timestamp pairs bind a child node's send timestamp (``t_child``, taken at
the SFD of an upward frame, in the child's ticks) to the parent's receive
timestamp (``t_parent``, at the SFD of the same frame, in the parent's
ticks).  All fits produce an affine map in the orientation

    t_child = ratio * t_parent + offset

so the fitted :class:`~synclab.clock.ClockParams` describe the child clock
as a function of parent time, and translating a child-local timestamp toward
the head inverts that map layer by layer.

Each formula is written once, here, over generic numbers: plain floats (or
integer ticks) give the 64-bit head-side arithmetic, and timestamps wrapped
as :class:`~synclab.precision.Float32Emu` reproduce the single-precision
node-side arithmetic operation by operation.  The node protocol and
:func:`~synclab.precision.empirical_loss` call these same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .clock import ClockParams


class EstimationError(Exception):
    """Base class for estimator contract violations."""


class InsufficientDataError(EstimationError):
    """Not enough timestamp pairs to fit the requested estimator."""


class SingularSystemError(EstimationError):
    """The fit is degenerate (no spread in the regressor timestamps)."""


@dataclass(frozen=True)
class TimestampPair:
    """One synchronization sample: child send stamp and parent receive stamp.

    ``sync_index`` is the child's per-frame sync counter, used for ordering
    and duplicate suppression.
    """

    t_child: float
    t_parent: float
    sync_index: int = 0


class RegressionWindow:
    """A bounded, ordered collection of timestamp pairs.

    Holds at most ``capacity`` pairs (``None`` = unbounded), evicting the
    oldest first.  Pairs must arrive with strictly increasing ``sync_index``;
    duplicates and stale indices are ignored, so delivery is idempotent.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 2:
            raise ValueError("window capacity must be at least 2 (or None)")
        self._capacity = capacity
        self._pairs: list[TimestampPair] = []

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def pairs(self) -> tuple[TimestampPair, ...]:
        return tuple(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def last_sync_index(self) -> int | None:
        return self._pairs[-1].sync_index if self._pairs else None

    def push(self, pair: TimestampPair) -> bool:
        """Insert a pair; returns False if its sync_index is not new."""
        if self._pairs and pair.sync_index <= self._pairs[-1].sync_index:
            return False
        self._pairs.append(pair)
        if self._capacity is not None and len(self._pairs) > self._capacity:
            del self._pairs[: len(self._pairs) - self._capacity]
        return True


def _pairs_of(window) -> Sequence[TimestampPair]:
    if isinstance(window, RegressionWindow):
        return window.pairs
    return tuple(window)


def _sum(terms: list):
    """Sum as the number type at hand adds.

    Plain ints and floats get the exactly rounded ``math.fsum``; any other
    type (such as :class:`~synclab.precision.Float32Emu`) adds left to right
    in its own arithmetic, one rounding per addition, as a node's loop adds.
    """
    if isinstance(terms[0], (int, float)):
        return math.fsum(terms)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def lsq_fit(window: RegressionWindow | Iterable[TimestampPair]) -> ClockParams:
    """Least-squares affine fit of child timestamps on parent timestamps.

    Computed through centered (mean-subtracted) sums, not a literal
    normal-matrix inverse: exactly rounded sums in fp64, and with
    :class:`~synclab.precision.Float32Emu` timestamps the left-to-right
    sums of a node's single-precision loop.  Needs at least two pairs with
    distinct parent timestamps.
    """
    pairs = _pairs_of(window)
    n = len(pairs)
    if n < 2:
        raise InsufficientDataError(f"least squares needs >= 2 pairs, got {n}")
    xs = [p.t_parent for p in pairs]
    ys = [p.t_child for p in pairs]
    x_mean = _sum(xs) / n
    y_mean = _sum(ys) / n
    dxs = [x - x_mean for x in xs]
    sxx = _sum([dx * dx for dx in dxs])
    if float(sxx) == 0.0:
        raise SingularSystemError("all parent timestamps coincide")
    sxy = _sum([dx * (y - y_mean) for dx, y in zip(dxs, ys)])
    ratio = sxy / sxx
    if not float(ratio) > 0.0:
        raise EstimationError(f"fitted ratio {float(ratio)!r} is not positive")
    return ClockParams(ratio, y_mean - ratio * x_mean)


def cumulative_ratio(initial: TimestampPair, latest: TimestampPair):
    """Elapsed-parent over elapsed-child rate between two pairs.

    The long-baseline rate estimator: anchored at the first pair ever seen,
    it converges as the baseline grows.  The returned value is the parent
    rate per child tick; see :func:`cumulative_params` for the translation
    orientation used by head-side schemes.
    """
    dc = latest.t_child - initial.t_child
    if float(dc) == 0.0:
        raise SingularSystemError("no elapsed child time between the pairs")
    return (latest.t_parent - initial.t_parent) / dc


def cumulative_params(initial: TimestampPair, latest: TimestampPair) -> ClockParams:
    """Anchored rate estimate as an affine child-on-parent map.

    Equivalent to translating via ``parent = initial.t_parent +
    (child - initial.t_child) * cumulative_ratio`` but expressed in the same
    ``ClockParams`` orientation the other estimators use.
    """
    dp = latest.t_parent - initial.t_parent
    if float(dp) == 0.0:
        raise SingularSystemError("no elapsed parent time between the pairs")
    ratio = (latest.t_child - initial.t_child) / dp
    if not float(ratio) > 0.0:
        raise EstimationError(f"cumulative ratio {float(ratio)!r} is not positive")
    return ClockParams(ratio, initial.t_child - ratio * initial.t_parent)


def interpolate_params(prev: TimestampPair, cur: TimestampPair) -> ClockParams:
    """Two-point (four-timestamp) linear interpolation between sync samples.

    The exact affine map through two timestamp pairs:

        ratio  = (child_k - child_{k-1}) / (parent_k - parent_{k-1})
        offset = (child_{k-1} * parent_k - parent_{k-1} * child_k)
                 / (parent_k - parent_{k-1})

    Equals the least-squares fit restricted to those two pairs.
    """
    dp = cur.t_parent - prev.t_parent
    if float(dp) == 0.0:
        raise SingularSystemError("parent timestamps coincide")
    ratio = (cur.t_child - prev.t_child) / dp
    offset = (prev.t_child * cur.t_parent - prev.t_parent * cur.t_child) / dp
    if not float(ratio) > 0.0:
        raise EstimationError(f"interpolated ratio {float(ratio)!r} is not positive")
    return ClockParams(ratio, offset)


def logical_time(params: ClockParams, local):
    """Affine logical-clock readout: ``ratio * local + offset``.

    With params fitted in the child-on-parent orientation this maps a
    parent-side timestamp to child time; node-side schemes fit the swapped
    orientation and use it to map their own clock to reference time.
    """
    return params.ratio * local + params.offset


def rate_corrected_advance(state, local_now, local_at_sync, ratio):
    """Advance a logical clock by rate-corrected elapsed local time.

    ``state + (local_now - local_at_sync) / ratio`` where ``ratio`` is the
    local-per-reference rate estimate: the incremental logical clock used by
    node-side two-way schemes.
    """
    if float(ratio) <= 0.0:
        raise EstimationError("rate must be positive")
    if float(local_now) < float(local_at_sync):
        raise EstimationError("local time ran backwards across the sync point")
    return state + (local_now - local_at_sync) / ratio


def translate_child_to_parent(params: ClockParams, t_child):
    """Invert the affine map: child-local timestamp to parent time."""
    return (t_child - params.offset) / params.ratio


def translate_parent_to_child(params: ClockParams, t_parent):
    """Apply the affine map: parent time to child-local timestamp."""
    return params.ratio * t_parent + params.offset


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
        t = translate_parent_to_child(params, t)
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


class _Stream:
    __slots__ = ("window", "first", "latest", "dirty", "params", "freshness")

    def __init__(self, capacity: int | None) -> None:
        self.window = RegressionWindow(capacity)
        self.first: TimestampPair | None = None
        self.latest: TimestampPair | None = None
        self.dirty = True
        self.params: ClockParams | None = None
        self.freshness: int = -1


class HeadEstimator:
    """Head-side registry of per-node estimates (one estimate per link layer).

    Keyed by the child node id; in a chain topology node ids coincide with
    layer numbers.  Fits are cached and recomputed lazily after new pairs
    arrive.  Duplicate or stale sync indices leave the state unchanged.
    """

    def __init__(self, method: str = WINDOW_LSQ, window: int | None = 19) -> None:
        if method not in ESTIMATOR_METHODS:
            raise ValueError(f"unknown estimator method {method!r}")
        self._method = method
        self._capacity = 2 if method == TWO_POINT else window
        self._streams: dict[int, _Stream] = {}

    @property
    def method(self) -> str:
        return self._method

    @property
    def window(self) -> int | None:
        return self._capacity

    def known_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._streams))

    def ingest(self, node_id: int, pair: TimestampPair) -> bool:
        """Add a pair for a node's link; returns False for duplicates."""
        stream = self._streams.get(node_id)
        if stream is None:
            stream = self._streams[node_id] = _Stream(self._capacity)
        added = stream.window.push(pair)
        if added:
            if stream.first is None:
                stream.first = pair
            stream.latest = pair
            stream.freshness = pair.sync_index
            stream.dirty = True
        return added

    def freshness(self, node_id: int) -> int:
        """Sync index of the newest pair ingested for a node (-1 if none)."""
        stream = self._streams.get(node_id)
        return -1 if stream is None else stream.freshness

    def params_for(self, node_id: int) -> ClockParams | None:
        """Current estimate for a node's link, or None before bootstrap."""
        stream = self._streams.get(node_id)
        if stream is None:
            return None
        if stream.dirty:
            stream.params = self._fit(stream)
            stream.dirty = False
        return stream.params

    def _fit(self, stream: _Stream) -> ClockParams | None:
        if self._method == CUMULATIVE_RATIO:
            if (
                stream.first is None
                or stream.latest is None
                or stream.first.sync_index == stream.latest.sync_index
            ):
                return None
            return cumulative_params(stream.first, stream.latest)
        pairs = stream.window.pairs
        if len(pairs) < 2:
            return None
        if self._method == TWO_POINT:
            return interpolate_params(pairs[-2], pairs[-1])
        return lsq_fit(pairs)

    def chain_params(self, chain: Sequence[int]) -> list[ClockParams] | None:
        """Params along an ancestor chain (head-adjacent first), or None."""
        out: list[ClockParams] = []
        for node_id in chain:
            params = self.params_for(node_id)
            if params is None:
                return None
            out.append(params)
        return out

    def translate_to_reference(self, chain: Sequence[int], t_local) -> float | None:
        """Translate a layer-local timestamp to head time along a chain.

        ``chain`` lists the ancestor node ids from the head-adjacent node
        down to the origin.  Returns None while any layer on the chain is
        still bootstrapping (fewer than two pairs).
        """
        params = self.chain_params(chain)
        if params is None:
            return None
        return float(multihop_to_head(params, t_local))
