"""Helpers of the benchmark: statistics, slicing, host-speed calibration,
and the closed-loop multiplexing client.

Nothing here imports ``repro``; the statistics are plain functions over
lists so the harness tests can pin their rules exactly.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time
from collections.abc import Awaitable, Callable, Sequence

#: Percentile ladder the tail metric climbs (see :func:`tail_percentile`).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
#: Samples a tail percentile must leave strictly beyond it.
TAIL_MIN_BEYOND = 10
#: Iterations of one host-speed calibration sample (about 0.3 ms).
CALIBRATION_LOOP = 1600
#: Seconds one calibration sample takes on the reference host: a 2-core
#: x86-64 VM running CPython 3 with no other load on its cores.
CALIBRATION_REFERENCE_S = 0.0003
#: Seconds between two samples of a :class:`HostSampler`.
SAMPLE_INTERVAL_S = 0.01
#: Samples a window needs before its own are used alone (see
#: :meth:`HostSampler.scale`).
MIN_WINDOW_SAMPLES = 3
#: Longest reply line the client accepts (``metrics`` replies are long).
_LINE_LIMIT = 1 << 24


def rank(percentile: float, n: int) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` samples.

    Integer arithmetic on hundredths of a percent, so ``p99`` of 1000
    samples is rank 990 exactly, with no float rounding past it.
    """
    return max(1, -(-round(percentile * 100) * n // 10000))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[min(rank(percentile, len(sorted_values)), len(sorted_values)) - 1]


def tail_percentile(
    values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> tuple[float, float, int]:
    """The highest ladder percentile with ``min_beyond`` samples past it.

    Returns ``(percentile, value, beyond)``: the chosen percentile, its
    nearest-rank value, and how many samples lie strictly after its rank.
    Falls back to the median when even p50 leaves too few samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for percentile in TAIL_LADDER:
        if n - rank(percentile, n) >= min_beyond:
            chosen = percentile
    return chosen, nearest_rank(ordered, chosen), n - rank(chosen, n)


def tenth_windows(
    commit_times: Sequence[float], start: float, end: float
) -> tuple[tuple[float, float], tuple[float, float], int]:
    """The first and the last tenth of a load phase, as windows.

    ``commit_times`` are the instants commits were acknowledged, in any
    order; ``start``/``end`` bound the load phase.  A tenth is counted in
    commits, not seconds, so that it means the same age on every run:
    with ``n`` commits and ``k = max(1, n // 10)``, the first tenth runs
    from ``start`` to the k-th commit, the last from the (n-k)-th commit
    to ``end``.  Returns both ``(from, to)`` windows and ``k``.
    """
    times = sorted(commit_times)
    n = len(times)
    if n == 0:
        raise ValueError("no commits")
    k = max(1, n // 10)
    last_from = times[n - k - 1] if n > k else start
    return (start, times[k - 1]), (last_from, end), k


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now.

    The loop does the kind of work the checked code does (dict reads and
    writes, integer arithmetic) and none of the repository's code, so its
    time tracks only how fast the host runs Python at this moment.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOP):
        table[i & 255] = table.get((i * 7) & 255, 0) + (i ^ 0x5A)
    return time.perf_counter() - start


def host_scale(samples: Sequence[float]) -> float:
    """Factor that turns a time measured while ``samples`` were taken
    into the time it would take on the reference host."""
    return CALIBRATION_REFERENCE_S / statistics.median(samples)


class HostSampler:
    """Calibration samples taken every :data:`SAMPLE_INTERVAL_S` on a
    background thread, stamped with ``time.monotonic()`` (the clock of
    the asyncio loop, so windows can be bounded by commit times).

    Use as a context manager around the work to be scaled.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = time.monotonic()
            self.samples.append((start, calibrate()))

    def scale(self, start: float, end: float) -> float:
        """:func:`host_scale` over the window ``[start, end]``.

        It uses the samples begun inside the window, or, when fewer than
        :data:`MIN_WINDOW_SAMPLES` were, that many nearest its middle.
        """
        inside = [taken for at, taken in self.samples if start <= at <= end]
        if len(inside) < MIN_WINDOW_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [taken for _at, taken in nearest[:MIN_WINDOW_SAMPLES]]
        return host_scale(inside)


class ServerError(Exception):
    """An ``ok: false`` reply; ``code`` is the wire error code."""

    def __init__(self, reply: dict) -> None:
        super().__init__(f"{reply.get('error')}: {reply.get('message')}")
        self.code = reply.get("error")
        self.reply = reply


class MuxConnection:
    """One NDJSON connection shared by several logical sessions.

    Requests are written as soon as a session issues them (pipelined);
    the server answers a connection's lines in order, so replies are
    matched to waiters by request id.  ``rtt`` collects each verb's
    round-trip seconds, measured from write to matched reply.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, tuple[asyncio.Future, str, float]] = {}
        self._next_id = 1
        self.rtt: dict[str, list[float]] = {}
        self._pump = asyncio.get_running_loop().create_task(self._read_replies())

    @classmethod
    async def open(cls, host: str, port: int) -> "MuxConnection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=_LINE_LIMIT
        )
        return cls(reader, writer)

    async def call(self, do: str, **fields: object) -> dict:
        """One request; raises :class:`ServerError` on ``ok: false``."""
        req_id = self._next_id
        self._next_id += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[req_id] = (future, do, loop.time())
        self._writer.write(
            json.dumps({"do": do, "id": req_id, **fields}).encode() + b"\n"
        )
        reply = await future
        if not reply.get("ok"):
            raise ServerError(reply)
        return reply

    async def _read_replies(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future, do, sent = self._pending.pop(reply["id"])
                self.rtt.setdefault(do, []).append(loop.time() - sent)
                future.set_result(reply)
        finally:
            for future, _do, _sent in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._pump


async def closed_loop(
    connections: Sequence[MuxConnection],
    sessions: int,
    count: int,
    run_one: Callable[[MuxConnection, int], Awaitable[None]],
) -> None:
    """Run ``count`` logical transactions with ``sessions`` closed loops.

    Session ``s`` uses connection ``s % len(connections)`` for its whole
    life and starts logical transaction ``i`` (drawn from one shared
    counter, so the set of programs is the same however the sessions
    interleave) only after its previous one finished.
    """
    next_index = 0

    async def session(slot: int) -> None:
        nonlocal next_index
        conn = connections[slot % len(connections)]
        while next_index < count:
            index = next_index
            next_index += 1
            await run_one(conn, index)

    await asyncio.gather(*(session(slot) for slot in range(sessions)))
