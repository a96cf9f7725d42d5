"""Request-lifecycle spans folded from the raw trace-event stream.

A span pairs the event that *opened* a stage of a request's life with
the event that *closed* it: a scheduler ``REQUEST`` with its
grant/WAIT/abort decision, a ``CERTIFY_ATTEMPT`` with its verdict, a
session admission (or first request) with its commit or restart.  Both
stamps are logical time only — ``(tick, seq)`` pairs from the bus — so
a span stream is a pure function of the event stream and inherits its
byte-determinism: same seed, same bytes, at any ``--jobs`` count.

:class:`SpanCollector` is a trace-bus *sink* with a strict cost split:
its ``write`` is the C-level ``deque.append`` itself — the identical
per-event cost :class:`~repro.obs.bus.RingBufferSink` pays, nothing
else runs on the emission hot path — and the pairing fold plus the
typed :class:`Span` views are computed lazily on *read*.  Reads are
human-rate (an ``inspect`` verb, a ``repro top`` refresh, an offline
export), so re-folding the buffered window there is microseconds that
never touch a request; this split is what keeps the collector inside
the <10% overhead gate ``benchmarks/bench_obs.py`` enforces on the
lock-table baselines, whose per-op work is a dictionary lookup.

A *bounded* collector keeps a raw-event window of four events per
retained span, folds that window on read, and reports the most recent
``capacity`` closed spans; a stage whose opening event has already
left the window is dropped, exactly like an unmatched close.  The
unbounded default (offline analysis, exports) folds every event and is
a pure function of the stream — same seed, same bytes.

Stages:

* ``op`` — one scheduler request, opened by ``REQUEST``, closed by its
  GRANT/WAIT/ABORT decision (a parked request shows as a ``wait`` span
  per retry round);
* ``certify`` — one certification attempt, closed by its verdict;
* ``txn`` — a transaction incarnation, opened by its service admission
  (``ADMIT``) or first request, closed by ``COMMIT`` or ``RESTART``;
* ``event`` — instants (admission, WAL apply, watchdog, faults,
  crashes) rendered as zero-length spans so they keep their place on
  the timeline.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable
from typing import NamedTuple

from repro.obs.events import EventKind

__all__ = [
    "Span",
    "SpanCollector",
    "spans_from_events",
    "spans_jsonl",
    "spans_to_chrome",
]

_REQUEST = EventKind.REQUEST
_GRANT = EventKind.GRANT
_WAIT = EventKind.WAIT
_ABORT = EventKind.ABORT
_ATTEMPT = EventKind.CERTIFY_ATTEMPT
_VERDICT = EventKind.CERTIFY_VERDICT
_COMMIT = EventKind.COMMIT
_RESTART = EventKind.RESTART
_ADMIT = EventKind.ADMIT

#: Stage of a closed span, keyed by its closing event kind.
_CLOSE_STAGE = {
    _GRANT: "op",
    _WAIT: "op",
    _ABORT: "op",
    _VERDICT: "certify",
    _COMMIT: "txn",
    _RESTART: "txn",
}

#: Same tick-to-microseconds mapping the instant-event chrome export
#: uses, so span timelines and event timelines line up when overlaid.
_TICK_US = 1000


class Span(NamedTuple):
    """One closed lifecycle stage, stamped with logical time only.

    Attributes:
        stage: ``"op"`` / ``"certify"`` / ``"txn"`` / ``"event"``.
        outcome: how the stage closed (``"grant"``, ``"wait"``,
            ``"abort"``, ``"ok"``, ``"reject"``, ``"commit"``,
            ``"restart"``, or the instant's kind name).
        tx: the transaction the span concerns, when there is one.
        op: the operation label of ``op``/``certify`` spans.
        protocol: the emitting component's protocol name.
        start_tick / start_seq: logical stamp of the opening event.
        end_tick / end_seq: logical stamp of the closing event.
    """

    stage: str
    outcome: str
    tx: int | None
    op: str | None
    protocol: str
    start_tick: int
    start_seq: int
    end_tick: int
    end_seq: int

    def to_dict(self) -> dict:
        """Plain-data form with a fixed key order (byte-stable JSONL)."""
        payload: dict = {
            "stage": self.stage,
            "outcome": self.outcome,
        }
        if self.tx is not None:
            payload["tx"] = self.tx
        if self.op is not None:
            payload["op"] = self.op
        if self.protocol:
            payload["protocol"] = self.protocol
        payload["start_tick"] = self.start_tick
        payload["start_seq"] = self.start_seq
        payload["end_tick"] = self.end_tick
        payload["end_seq"] = self.end_seq
        return payload

    def to_json_line(self) -> str:
        """The span as one JSONL line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _span_of(pair: tuple[tuple, tuple]) -> Span:
    """The typed span view of one raw ``(open, close)`` event pair."""
    start, end = pair
    kind = end[2]
    if start is end:
        stage = "event"
        outcome = kind.value
    else:
        stage = _CLOSE_STAGE[kind]
        if kind is _VERDICT:
            outcome = "ok" if dict(end[7]).get("ok") else "reject"
        else:
            outcome = kind.value
    return Span(
        stage=stage,
        outcome=outcome,
        tx=end[3],
        op=end[4] if stage in ("op", "certify") else None,
        protocol=end[5],
        start_tick=start[1],
        start_seq=start[0],
        end_tick=end[1],
        end_seq=end[0],
    )


#: Raw-window events retained per closed span a bounded collector
#: reports.  A closed span is two events and the window also has to
#: carry still-open stage starts and instants, so four gives the fold
#: comfortable slack without the window costing real memory.
_WINDOW_PER_SPAN = 4


def _fold(events: Iterable[tuple]) -> tuple[list, dict]:
    """Pair an event window into closed ``(open, close)`` raw pairs.

    Returns the closed pairs in close order plus the still-open
    incarnation starts (``tx -> opening raw tuple``).  Branches are
    ordered by event frequency (request/decision pairs dominate).
    """
    open_op: dict = {}
    open_cert: dict = {}
    txn_start: dict = {}
    closed: list = []
    append = closed.append
    pop_op = open_op.pop
    pop_cert = open_cert.pop
    pop_txn = txn_start.pop
    for raw in events:
        kind = raw[2]
        if kind is _REQUEST:
            tx = raw[3]
            open_op[tx] = raw
            if tx not in txn_start:
                txn_start[tx] = raw
        elif kind is _GRANT or kind is _WAIT or kind is _ABORT:
            start = pop_op(raw[3], None)
            if start is not None:
                append((start, raw))
        elif kind is _ATTEMPT:
            open_cert[raw[3]] = raw
        elif kind is _VERDICT:
            start = pop_cert(raw[3], None)
            if start is not None:
                append((start, raw))
        elif kind is _COMMIT or kind is _RESTART:
            start = pop_txn(raw[3], None)
            if start is not None:
                append((start, raw))
        elif kind is _ADMIT:
            txn_start[raw[3]] = raw
            append((raw, raw))
        else:
            # Watchdogs, faults, crashes, WAL applies: instants.
            append((raw, raw))
    return closed, txn_start


class SpanCollector:
    """A trace-bus sink folding raw events into lifecycle spans.

    The emission-side cost is exactly one C-level ``deque.append`` per
    event — ``write`` *is* the bound append, no Python frame runs on
    the hot path — and the pairing fold happens on read.

    Args:
        capacity: report only the most recent closed spans, buffering
            a raw window of four events per span (``None`` = unbounded,
            the offline-analysis default; the service caps its live
            collector).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("span capacity must be at least 1")
        self._capacity = capacity
        window = None if capacity is None else capacity * _WINDOW_PER_SPAN
        self._raw: deque[tuple] = deque(maxlen=window)
        #: The hot path: the sink's write is the C append itself.
        self.write = self._raw.append

    def _closed_pairs(self) -> list:
        closed, _ = _fold(self._raw)
        if self._capacity is not None:
            return closed[-self._capacity:]
        return closed

    def close(self) -> None:
        """Nothing to release (the collected spans stay readable)."""

    def __len__(self) -> int:
        return len(self._closed_pairs())

    @property
    def spans(self) -> tuple[Span, ...]:
        """The closed spans, in close order (lazy typed views)."""
        return tuple(_span_of(pair) for pair in self._closed_pairs())

    @property
    def open_transactions(self) -> tuple[int, ...]:
        """Transactions with an open incarnation span, ascending."""
        _, txn_start = _fold(self._raw)
        return tuple(sorted(txn_start))

    def text(self) -> str:
        """The closed spans as JSONL (one line per span)."""
        return "".join(
            _span_of(pair).to_json_line() + "\n"
            for pair in self._closed_pairs()
        )


def spans_from_events(events: Iterable[tuple]) -> tuple[Span, ...]:
    """Fold an event stream (raw tuples or :class:`TraceEvent` views —
    the typed view *is* a tuple in raw field order) into spans."""
    collector = SpanCollector()
    for event in events:
        collector.write(event)
    return collector.spans


def spans_to_chrome(spans: Iterable[Span]) -> dict:
    """The spans as a ``chrome://tracing`` object (complete events).

    Every span becomes a ``"ph": "X"`` slice on its transaction's
    track, with logical ticks mapped to microseconds exactly like the
    instant-event export, so the two can be overlaid.
    """
    trace_events = []
    for span in spans:
        start = max(span.start_tick, 0) * _TICK_US + span.start_seq % _TICK_US
        end = max(span.end_tick, 0) * _TICK_US + span.end_seq % _TICK_US
        trace_events.append(
            {
                "name": (
                    f"{span.stage}:{span.op}" if span.op else
                    f"{span.stage}:{span.outcome}"
                ),
                "cat": span.protocol or "repro",
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 1),
                "pid": 1,
                "tid": span.tx if span.tx is not None else 0,
                "args": span.to_dict(),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def spans_jsonl(spans: Iterable[Span]) -> str:
    """The spans as JSONL text (one line per span)."""
    return "".join(span.to_json_line() + "\n" for span in spans)
