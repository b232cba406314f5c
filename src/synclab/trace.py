"""Run traces: what a run hands to analysis, and the file it is saved as.

A :class:`RunTrace` holds everything one run produced.  Its head events are
the exact ordered stream the head saw; :func:`derive_outcomes` folds them
through a head estimator into the run's outcomes, the one translation path
of a live run, a loaded trace and a replay alike.

A saved trace is strict JSON in format :data:`TRACE_FORMAT`: the head
events as the columns they are kept in, and no outcomes, which loading derives.
A trace written before format 1 is converted on load and checked the same
way.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import islice, repeat

from . import protocol
from .clock import MAX_TICK_NS
from .config import ConfigError, RunConfig, canonical_hash
from .estimators import ESTIMATOR_METHODS, HeadEstimator, TimestampPair


@dataclass(slots=True)
class MeasurementOutcome:
    """Per-measurement result: truth, head-side estimate, error."""

    origin: int
    level: int
    seq: int
    true_ns: int
    local_ticks: float
    arrival_ns: int | None
    est_ticks: float | None
    err_s: float | None
    translated: bool
    reason: str | None


_OUTCOME_FIELDS = tuple(f.name for f in fields(MeasurementOutcome))

TRACE_FORMAT = 1
"""The ``format_version`` of a saved trace.  A trace without one is read as
the version-less layout before it: head events as rows, every outcome stored."""

_INT = {int}
_STAMP = {int, float}
# head event kind -> its letter in the saved ``kinds`` string, and the table
# of its fields after the kind: (column, the JSON types its values may take)
_HEAD_EVENTS = {
    "pair": ("p", (
        ("t_ns", _INT), ("origin", _INT), ("layer", _INT),
        ("t_child", _STAMP), ("t_parent", _STAMP), ("sync_index", _INT),
    )),
    "measurement": ("m", (
        ("t_ns", _INT), ("origin", _INT), ("level", _INT), ("seq", _INT),
        ("local_ticks", _STAMP), ("true_ns", _INT), ("est_ticks", {int, float, type(None)}),
    )),
}
_UNDELIVERED = (("origin", _INT), ("seq", _INT), ("true_ns", _INT))


def _columns(rows, table) -> dict[str, list]:
    """Rows of a table's fields as one list per field."""
    columns = list(zip(*rows)) or [()] * len(table)
    return {name: list(column) for (name, _), column in zip(table, columns)}


@dataclass(eq=False)
class HeadEvents:
    """Head events as columns: ``kinds``, one letter per event in order, and
    ``tables``, a column per field of each kind in field order (a run's are
    arrays where its config bounds the values, a loaded trace's JSON lists).
    It reads as the events ``(kind, *fields)``; indexing walks to the event."""

    kinds: str
    tables: dict[str, dict]

    @staticmethod
    def from_rows(rows) -> "HeadEvents":
        """The events of rows ``(kind, *fields)``, in list columns."""
        return HeadEvents("".join([_HEAD_EVENTS[row[0]][0] for row in rows]), {
            kind: _columns([row[1:] for row in rows if row[0] == kind], table)
            for kind, (_, table) in _HEAD_EVENTS.items()})

    @staticmethod
    def empty_tables(ints: str | None, stamps: str | None) -> dict[str, dict]:
        """Empty tables for a run: an int field's column an array of typecode
        ``ints`` and a stamp's of ``stamps``, a list where that is None or the
        field may be null."""
        def column(types):
            code = ints if types is _INT else stamps if types is _STAMP else None
            return array(code) if code else []
        return {kind: {name: column(types) for name, types in table}
                for kind, (_, table) in _HEAD_EVENTS.items()}

    def saved(self, column=list) -> dict:
        """The saved layout, each column passed through ``column``."""
        return {"kinds": self.kinds, **{
            kind: {name: column(values) for name, values in table.items()}
            for kind, table in self.tables.items()}}

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        streams = {letter: zip(repeat(kind), *self.tables[kind].values())
                   for kind, (letter, _) in _HEAD_EVENTS.items()}
        return (next(streams[letter]) for letter in self.kinds)

    def __getitem__(self, i: int) -> tuple:
        return next(islice(self, range(len(self))[i], None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (HeadEvents, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _table(data, table, origins, what: str) -> list[list]:
    """The columns of a saved table in field order, checked: exactly the
    table's columns, of one length, each value of its column's JSON types
    and each float finite (``json`` reads ``1e400`` as ``inf``), and each
    origin a key of ``origins``."""
    names = [name for name, _ in table]
    if type(data) is not dict or data.keys() != set(names):
        raise ValueError(f"{what} are not the columns {names}: {data!r:.80}")
    for name, kinds in table:
        column = data[name]
        if type(column) is not list:
            raise ValueError(f"{what} column {name!r} is not a list: {column!r:.80}")
        types = set(map(type, column))
        if not types <= kinds or float in types and not all(
                math.isfinite(value) for value in column if type(value) is float):
            bad = next(value for value in column if type(value) not in kinds
                       or type(value) is float and not math.isfinite(value))
            raise ValueError(f"{what} column {name!r} holds {bad!r:.80}")
    if len({len(data[name]) for name in names}) > 1:
        raise ValueError(f"{what} columns differ in length")
    unknown = set(data["origin"]) - origins.keys()
    if unknown:
        raise ValueError(f"{what} name origins that are not trace nodes: {sorted(unknown)}")
    return [data[name] for name in names]


def _read_head_events(data, chains, levels) -> HeadEvents:
    """The head events of a saved ``head_events`` object, its lists the
    columns.  Each event's ``layer`` or ``level`` must be its origin's level."""
    if type(data) is not dict or data.keys() != {"kinds", *_HEAD_EVENTS}:
        raise ValueError(f"not 'kinds' and a table per kind: {data!r:.80}")
    kinds = data["kinds"]
    letters = {letter for letter, _ in _HEAD_EVENTS.values()}
    if type(kinds) is not str or not set(kinds) <= letters:
        raise ValueError(f"'kinds' is not a string of {sorted(letters)}: {kinds!r:.80}")
    tables = {}
    for kind, (letter, table) in _HEAD_EVENTS.items():
        columns = _table(data[kind], table, chains, f"{kind} events")
        if list(map(levels.get, columns[1])) != columns[2]:
            raise ValueError(f"{kind} events column {table[2][0]!r} is not "
                             "the levels of their origins")
        if kinds.count(letter) != len(columns[0]):
            raise ValueError(f"'kinds' counts {kinds.count(letter)} {kind} events, "
                             f"the columns hold {len(columns[0])}")
        tables[kind] = {name: column for (name, _), column in zip(table, columns)}
    return HeadEvents(kinds, tables)


def _one_of(allowed):
    """A reader of a value that must be one of ``allowed``."""
    def read(value, _values):
        if value not in allowed:
            raise ValueError(f"{value!r:.80} is not one of {list(allowed)}")
        return value
    return read


def _at_least(low: int, high: int | None = None):
    """A reader of an int, or null, that must be at least ``low`` and, given
    ``high``, at most ``high``."""
    def read(value, _values):
        if value is not None and value < low:
            raise ValueError(f"{value} is below {low}")
        if value is not None and high is not None and value > high:
            raise ValueError(f"{value!r:.80} is above {high}")
        return value
    return read


def _node_id(key: str) -> int:
    """A node id as an object key: only the ``str`` of an int >= 0, so that no
    two keys name one node."""
    if not (key.isdigit() and str(int(key)) == key):
        raise ValueError(f"node id {key!r:.80} is not an int >= 0 as str() writes it")
    return int(key)


def _read_levels(levels, _values) -> dict:
    """Each node's level, an int >= 0; exactly one node, the head, at 0."""
    levels = {_node_id(n): level for n, level in levels.items()}
    if not all(type(level) is int and level >= 0 for level in levels.values()):
        raise ValueError(f"not an int level >= 0 per node: {levels!r:.80}")
    if list(levels.values()).count(0) != 1:
        raise ValueError(f"not exactly one node at level 0: {levels!r:.80}")
    return levels


def _read_chains(chains, values) -> dict:
    """Each sensor's chain of node ids, from the head-adjacent node down to
    the sensor: one node per level, and the parent's chain plus the sensor."""
    levels = values["levels"]
    read = {}
    for n, chain in chains.items():
        if type(chain) is not list or not set(map(type, chain)) <= _INT:
            raise ValueError(f"a chain is a list of node ids, got {chain!r:.80}")
        read[_node_id(n)] = tuple(chain)
    sensors = {n for n, level in levels.items() if level > 0}
    if read.keys() != sensors:
        raise ValueError(f"nodes {sorted(read)} are not the sensor nodes {sorted(sensors)}")
    for n, chain in read.items():
        if (chain[-1:] != (n,) or [levels.get(m) for m in chain] != list(range(1, levels[n] + 1))
                or chain[:-1] != (read[chain[-2]] if len(chain) > 1 else ())):
            raise ValueError(f"{list(chain)} is not the chain from the head to node {n}")
    return read


def _read_radio(radio, _values) -> dict:
    """The radio as saved: exactly :class:`~synclab.protocol.RadioConfig`'s
    fields, with values that pass its checks."""
    names = [f.name for f in fields(protocol.RadioConfig)]
    if radio.keys() != set(names):
        raise ValueError(f"not the fields {names}: {radio!r:.80}")
    protocol.RadioConfig(**radio)
    return radio


def _pair(value, kinds) -> tuple:
    """A saved pair of finite non-negative numbers of the JSON types ``kinds``."""
    if type(value) is not list or len(value) != 2 or not set(map(type, value)) <= kinds:
        raise ValueError(f"not a pair of {sorted(k.__name__ for k in kinds)}: {value!r:.80}")
    if not all(0 <= v < math.inf for v in value):
        raise ValueError(f"not a pair of finite non-negative numbers: {value!r:.80}")
    return value[0], value[1]


def _per_node(read_value):
    """A reader of a table keyed by node id that holds exactly the nodes of
    ``levels``, each value read by ``read_value``."""
    def read(table, values) -> dict:
        nodes = {_node_id(n): value for n, value in table.items()}
        if nodes.keys() != values["levels"].keys():
            raise ValueError(f"nodes {sorted(nodes)} are not the trace nodes "
                             f"{sorted(values['levels'])}")
        return {n: read_value(value) for n, value in nodes.items()}
    return read


def _counts(kinds) -> dict:
    """One node's frame counts: a (tx, rx) pair of ints per frame kind."""
    if type(kinds) is not dict or not kinds.keys() <= set(protocol.KINDS):
        raise ValueError(f"not counts per frame kind of {protocol.KINDS}: {kinds!r:.80}")
    return {kind: _pair(count, _INT) for kind, count in kinds.items()}


# the accounting buckets of hop pairs and of measurement records, in the
# order a run counts them
PAIR_BUCKETS = ("created", "ingested", "duplicates", "lost", "in_flight", "unknown_child")
RECORD_BUCKETS = ("generated", "delivered", "duplicates", "lost", "in_flight")


def _accounting(buckets):
    """A reader of an accounting table: a non-negative int per bucket."""
    def read(table, _values) -> dict:
        counts = table.values()
        if table.keys() != set(buckets) or not all(type(n) is int and n >= 0 for n in counts):
            raise ValueError(f"not a count per bucket of {list(buckets)}: {table!r:.80}")
        return table
    return read


# what the event log may name: a measurement, or a frame kind sent or received
_LOGGED = {"measure", *(f"{side}-{kind}" for side in ("tx", "rx") for kind in protocol.KINDS)}


def _read_event_log(log, values) -> list | None:
    """Each logged event a row ``[t_ns, node, kind]``: an int time within the
    run, a node of ``levels``, and a kind of :data:`_LOGGED`."""
    if log is None:
        return None
    duration, levels = values["duration_ns"], values["levels"]
    for row in log:
        if (type(row) is not list or list(map(type, row)) != [int, int, str]
                or not 0 <= row[0] < duration or row[1] not in levels or row[2] not in _LOGGED):
            raise ValueError(f"not an event [t_ns, node, kind] of the run: {row!r:.80}")
    return [tuple(row) for row in log]


# config key -> {retired value: the value it is read as}
_RETIRED = {"bundling": {"none": "self"}}


def _read_config(config, values) -> RunConfig | None:
    """The run's config, its retired values upgraded, which must parse and
    name the trace's scheme, seed, duration, tick, radio and hop count (its
    deepest level).  Head settings may differ: a replay saves new ones beside
    the run's config."""
    if config is None:
        return None
    config = {**config, **{key: new for key, retired in _RETIRED.items()
                           for old, new in retired.items() if config.get(key) == old}}
    try:
        cfg = RunConfig.from_dict(config)
    except ConfigError as exc:
        raise ValueError(exc) from exc
    ran = {"scheme": cfg.scheme, "seed": cfg.seed, "duration_ns": cfg.duration_ns,
           "tick_ns": cfg.clock.tick_ns, "radio": dataclasses.asdict(cfg.radio_config()),
           "hops": cfg.hops}
    values = {**values, "hops": max(values["levels"].values())}
    differ = [key for key, value in ran.items() if values[key] != value]
    if differ:
        raise ValueError(f"it differs from the trace in {differ}")
    return cfg


@contextmanager
def _reading(key: str):
    """Re-raise a failure to read a trace key as ValueError naming the key."""
    try:
        yield
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValueError(f"trace key {key!r} is malformed: {exc}") from exc


_NULL = type(None)
# trace key, in saved order -> (the JSON types its value may take; its saved
# value from the one in memory; its value in memory from the saved one and
# the keys read before it), None for a value saved as it is; a key that may
# be null may also be left out (the event log and the config stamp)
_TRACE_KEYS = {
    "scheme": ((str,), None, _one_of(protocol.SCHEMES)),
    "seed": ((int,), None, _at_least(0)),
    "duration_ns": ((int,), None, _at_least(1)),
    "tick_ns": ((int, _NULL), None, _at_least(1, MAX_TICK_NS)),
    "head_method": ((str,), None, _one_of(ESTIMATOR_METHODS)),
    "head_window": ((int, _NULL), None, _at_least(2)),
    "radio": ((dict,), dict, _read_radio),
    "levels": ((dict,), lambda v: {str(n): level for n, level in v.items()}, _read_levels),
    "chains": ((dict,), lambda v: {str(n): list(chain) for n, chain in v.items()},
               _read_chains),
    "head_events": ((dict,), HeadEvents.saved,
                    lambda v, read: _read_head_events(v, read["chains"], read["levels"])),
    "node_counts": ((dict,), lambda v: {
        str(n): {k: list(c) for k, c in kinds.items()} for n, kinds in v.items()
    }, _per_node(_counts)),
    "airtime": ((dict,), lambda v: {str(n): list(a) for n, a in v.items()},
                _per_node(lambda a: _pair(a, _STAMP))),
    "pair_accounting": ((dict,), dict, _accounting(PAIR_BUCKETS)),
    "record_accounting": ((dict,), dict, _accounting(RECORD_BUCKETS)),
    "undelivered": ((dict,), lambda v: _columns(v, _UNDELIVERED), lambda v, read: list(
        zip(*_table(v, _UNDELIVERED, read["levels"], "undelivered measurements")))),
    "event_log": ((list, _NULL), lambda v: None if v is None else [list(e) for e in v],
                  _read_event_log),
    "config": ((dict, _NULL), lambda v: None if v is None else v.to_dict(), _read_config),
    "config_hash": ((str, _NULL), None, None),
}

def _upgrade(data: dict) -> dict:
    """A version-less trace in the format-1 layout, to be checked as one.

    Its head events go from rows to columns.  Of its stored outcomes only
    the undelivered ones are kept, as the undelivered table: the rest are
    derived from the head events, as for any trace.  A key that is missing
    or not a list is left as it is, for the check to name.
    """
    data = dict(data)
    events = data.get("head_events")
    if type(events) is list:
        # a row is its kind, then that kind's fields
        lengths = {kind: 1 + len(table) for kind, (_, table) in _HEAD_EVENTS.items()}
        with _reading("head_events"):
            for event in events:
                if type(event) is not list or not event or lengths.get(event[0]) != len(event):
                    raise ValueError(f"not a head event: {event!r:.80}")
            data["head_events"] = HeadEvents.from_rows(events).saved()
    outcomes = data.pop("outcomes", None)
    if type(outcomes) is list:
        with _reading("outcomes"):
            for row in outcomes:
                if type(row) is not dict or row.keys() != set(_OUTCOME_FIELDS):
                    raise ValueError(f"not a measurement outcome: {row!r:.80}")
            data["undelivered"] = _columns([
                (row["origin"], row["seq"], row["true_ns"])
                for row in outcomes if row["reason"] == "undelivered"
            ], _UNDELIVERED)
    return data


@dataclass
class RunTrace:
    """Everything a run produced, sufficient to replay head-side estimation.

    ``head_events`` is the exact ordered stream the head saw: unique
    timestamp pairs and delivered measurement records.  Re-folding it with a
    different estimator or window reproduces what that head would have
    computed from the same radio traffic.  ``undelivered`` lists the
    ``(origin, seq, true_ns)`` of each measurement that never reached the
    head.  ``outcomes`` follow from those two, the scheme and the head
    settings, by :func:`derive_outcomes` when they are first read.
    """

    scheme: str
    seed: int
    duration_ns: int
    tick_ns: int | None
    head_method: str
    head_window: int | None
    radio: dict
    levels: dict[int, int]
    chains: dict[int, tuple[int, ...]]
    head_events: HeadEvents
    node_counts: dict[int, dict[str, tuple[int, int]]]
    airtime: dict[int, tuple[float, float]]
    pair_accounting: dict[str, int]
    record_accounting: dict[str, int]
    undelivered: list[tuple[int, int, int]] = dataclasses.field(default_factory=list)
    event_log: list[tuple] | None = None
    config: RunConfig | None = None

    @functools.cached_property
    def outcomes(self) -> list[MeasurementOutcome]:
        return derive_outcomes(self)

    @property
    def config_hash(self) -> str | None:
        return None if self.config is None else self.config.config_hash()

    def to_dict(self, column=list) -> dict:
        """The trace in the saved layout, format :data:`TRACE_FORMAT`: every
        field, and not the outcomes, which the loaded trace derives.  Each
        head-event column is saved as ``column(the trace's column)``, by
        default a plain list."""
        data = {"format_version": TRACE_FORMAT}
        for key, (_, write, _) in _TRACE_KEYS.items():
            value = getattr(self, key)
            if key == "head_events":
                data[key] = write(value, column)
            else:
                data[key] = value if write is None else write(value)
        return data

    @staticmethod
    def from_dict(data) -> "RunTrace":
        """The trace :meth:`to_dict` wrote, or a version-less one (converted
        first).  Anything else, a value that is not an object holding each
        key in the shape written, raises ValueError naming the key: each
        column of the head events and the undelivered table is checked for
        type and length, each origin must be a node of the trace, and each
        head event's layer or level must be its origin's level.  The seed,
        duration, tick and head settings must be ones a run could have; the
        levels put one node, the head, at 0, and each sensor's chain runs
        from the head to it, one node per level.  The frame counts and
        airtimes hold exactly the trace's nodes, the radio passes
        :class:`~synclab.protocol.RadioConfig`'s checks, and the accounting
        tables hold a count per bucket of :data:`PAIR_BUCKETS` and
        :data:`RECORD_BUCKETS`.  Each event-log row is a time within the run,
        a trace node and a logged kind; a stored config, its retired values
        upgraded, must pass :meth:`~synclab.config.RunConfig.from_dict` and
        agree with the trace's scheme, seed, duration, tick and radio, and a
        stored ``config_hash`` must be the canonical hash of the config as
        stored (before the upgrade)."""
        if type(data) is not dict:
            raise ValueError(f"a trace is a JSON object, got {data!r:.80}")
        if "format_version" not in data:
            data = _upgrade(data)
        elif type(data["format_version"]) is not int or data["format_version"] != TRACE_FORMAT:
            raise ValueError(
                f"trace format_version {data['format_version']!r:.80} is not {TRACE_FORMAT}"
            )
        unknown = sorted(set(data) - set(_TRACE_KEYS) - {"format_version"})
        if unknown:
            raise ValueError(f"unknown trace keys: {unknown}")
        values = {}
        for key, (kinds, _, read) in _TRACE_KEYS.items():
            value = data.get(key)
            if type(value) not in kinds:
                what = f"not {kinds[0].__name__}: {value!r:.80}" if key in data else "missing"
                raise ValueError(f"trace key {key!r} is {what}")
            with _reading(key):
                values[key] = value if read is None else read(value, values)
        stamp, stored = values.pop("config_hash"), data.get("config")
        if stamp is not None and (stored is None or stamp != canonical_hash(stored)):
            raise ValueError(f"trace key 'config_hash' {stamp!r:.80} is not the config's hash")
        return RunTrace(**values)


def error_seconds(est_ticks: float, true_ns: int, tick_ns: int | None) -> float:
    """Head-estimate error in seconds for a tick-valued estimate."""
    est_ns = est_ticks * tick_ns if tick_ns is not None else est_ticks
    return (est_ns - true_ns) / 1e9


def derive_outcomes(trace: RunTrace) -> list[MeasurementOutcome]:
    """A trace's outcomes under its head method and window: one per
    delivered measurement in head-event order, then one per undelivered
    measurement, with no arrival and no local timestamp (NaN).

    Where the scheme's :class:`~synclab.protocol.SchemeRules` leave no
    ``untranslated`` reason, the head events are folded once through a
    fresh estimator: each pair is ingested and each measurement translated,
    or left untranslated while a link on its chain is bootstrapping.  Under
    the other schemes each measurement keeps the sensor's own estimate
    stored in its event, and the scheme's reason.
    """
    reason = protocol.SCHEME_RULES[trace.scheme].untranslated
    estimator = None
    if reason is None:
        estimator = HeadEstimator(trace.head_method, trace.head_window)
        reason = "bootstrap"
    tick_ns = trace.tick_ns
    chains = trace.chains
    tables = trace.head_events.tables
    pairs, measurements = (zip(*tables[kind].values()) for kind in ("pair", "measurement"))
    outcomes = []
    for letter in trace.head_events.kinds:
        if letter == "p":
            _, origin, _, t_child, t_parent, sync_index = next(pairs)
            if estimator is not None:
                estimator.ingest(origin, TimestampPair(t_child, t_parent, sync_index))
            continue
        arrival_ns, origin, level, seq, local_ticks, true_ns, est_ticks = next(measurements)
        if estimator is not None:
            est_ticks = estimator.translate_to_reference(chains[origin], local_ticks)
        translated = est_ticks is not None
        outcomes.append(MeasurementOutcome(
            origin, level, seq, true_ns, local_ticks, arrival_ns, est_ticks,
            error_seconds(est_ticks, true_ns, tick_ns) if translated else None,
            translated, None if translated else reason,
        ))
    levels = trace.levels
    for origin, seq, true_ns in trace.undelivered:
        outcomes.append(MeasurementOutcome(
            origin, levels[origin], seq, true_ns, math.nan, None, None, None, False, "undelivered",
        ))
    return outcomes
