"""The service workloads: a real ``repro serve`` subprocess under a closed loop.

One lifetime covers a whole server life: spawn, seed the tenant and warm
up, replay a fixed count of logical transactions from :data:`SESSIONS`
closed-loop sessions multiplexed over at most ``nproc`` connections, read
the server's health and memory, SIGTERM, and wait for the certified
drain.  The benchmark process and the server share one CPU, and a
background thread samples the host's speed on it throughout, so every
time can be scaled to the reference host.  An untraced run is several
lifetimes (see :func:`end_to_end`).

The untraced run spawns ``python -m repro serve`` exactly as a user
would.  The traced run first repeats the untraced run (its figures are
the overhead baseline and the client/server counters that need no
wrapping), then spawns ``perfbench/launcher.py``, which serves the same
way with the layer ledger installed.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    HostSampler,
    MuxConnection,
    ServerError,
    closed_loop,
    tail_percentile,
    tenth_windows,
)
from repro.service import wire
from workloads import SERVICE_WORKLOADS, Program

TENANT = "bench"
#: Logical sessions kept in flight (each waits for its previous reply).
SESSIONS = 8
#: Upper bound on client connections (the host's core count may lower it).
MAX_CONNECTIONS = 2
#: Protocol aborts one logical transaction may absorb before giving up.
RETRY_BUDGET = 32
#: Server lifetimes per untraced run (see :func:`end_to_end`).
LIFETIMES = {"abs-skew": 5, "rel-bank": 3}
#: Programs replayed on a separate tenant before the load, so one-time
#: lazy work (imports, regex compiles) is set-up, not age-0 cost.
WARMUP = 16
WARMUP_TENANT = "warmup"
#: Logical transactions per lifetime, sized so a run fits its time budget
#: on a 2-core host while both workloads reach the age where costs have
#: grown (and ``rel-bank``'s drain still overruns the server's deadline).
COUNTS = {"abs-skew": 1200, "rel-bank": 330}
#: Seconds a spawned server gets to bind and seed its tenant.
READY_TIMEOUT_S = 30.0
#: Ceilings on one lifetime's load phase and drain (a hung server fails
#: the run instead of stalling it).
LOAD_TIMEOUT_S = 100.0
DRAIN_TIMEOUT_S = 60.0
#: The server's drain grace (``repro serve --drain-timeout`` default).
SERVER_DRAIN_DEADLINE_S = 5.0
#: Power of the host scale applied to service times.  The server mixes
#: interpreter work with kernel networking, which the host's slow phases
#: slow less than they slow the calibration loop: fitted per lifetime,
#: the server's times moved with the samples' to powers of 0.24 to 1.28
#: by metric and workload, 0.78 on mean (see README.md, "Host speed").
SCALE_EXPONENT = 0.75


def share_one_cpu() -> None:
    """Pin this process, and so every server it spawns afterwards, to one
    CPU.

    The calibration samples of :class:`harness.HostSampler` then run on
    the core the server runs on, so they see the speed the server got.
    Client and server already take turns in a closed loop; sharing a core
    costs throughput, the same on every run.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def connection_count() -> int:
    """Client connections: never more than the host has cores."""
    return max(1, min(MAX_CONNECTIONS, os.cpu_count() or 1))


@dataclass
class LoadStats:
    """What the client saw during one load phase."""

    attempted: int = 0
    committed: int = 0
    gave_up: int = 0
    errors: list[str] = field(default_factory=list)
    aborts: int = 0
    verdicts: int = 0
    latencies: list[float] = field(default_factory=list)
    commit_times: list[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    rtt: dict[str, list[float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.gave_up + len(self.errors)


class Server:
    """One spawned server process and its run directory."""

    def __init__(self, command: list[str], run_dir: Path) -> None:
        self.port_file = run_dir / "port"
        self.log = run_dir / "server.log"
        self.port_file.unlink(missing_ok=True)
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                [*command, "--port-file", str(self.port_file)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=_child_env(),
            )
        self.host = ""
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log}")
            if self.port_file.exists():
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    host, port = text.split()
                    self.host, self.port = host, int(port)
                    return
            time.sleep(0.002)
        raise RuntimeError("server did not bind in time")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def drain(self) -> tuple[tuple[float, float], int]:
        """SIGTERM, wait for exit; returns ``((from, to), exit code)``."""
        start = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        return (start, time.monotonic()), code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _child_env() -> dict[str, str]:
    src = str(Path.cwd() / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


async def _seed(
    server: Server, initial: dict[str, int], warmup: list[Program]
) -> None:
    """Create the measured tenant, then warm up on a tenant of its own."""
    conn = await MuxConnection.open(server.host, server.port)
    try:
        for tenant in (TENANT, WARMUP_TENANT):
            await conn.call(
                "tenant", tenant=tenant, protocol="rsgt", objects=initial
            )
        stats = LoadStats()
        for program in warmup:
            await _run_program(conn, program, stats, WARMUP_TENANT)
        if stats.committed != len(warmup):
            raise RuntimeError(f"warm-up failed: {stats.errors[:3]}")
    finally:
        await conn.close()


async def _run_program(
    conn: MuxConnection,
    program: Program,
    stats: LoadStats,
    tenant: str = TENANT,
) -> None:
    """One logical transaction: begin, every op, commit; retry aborts."""
    loop = asyncio.get_running_loop()
    stats.attempted += 1
    first = loop.time()
    aborts = 0
    while aborts <= RETRY_BUDGET:
        try:
            begun = await conn.call(
                "begin", program=program.text, tenant=tenant, cuts=list(program.cuts)
            )
        except ServerError as exc:
            if exc.code == wire.ERR_OVERLOADED:
                await asyncio.sleep(exc.reply.get("retry_after_ms", 50) / 1000.0)
                continue
            stats.errors.append(str(exc))
            return
        txn = begun["txn"]
        try:
            seen: dict[str, int] = {}
            for kind, key, delta in program.ops:
                stats.verdicts += 1
                if kind == "r":
                    reply = await conn.call("read", txn=txn, key=key)
                    seen[key] = reply["value"]
                else:
                    await conn.call("write", txn=txn, key=key, value=seen[key] + delta)
            await conn.call("commit", txn=txn)
        except ServerError as exc:
            if exc.code != wire.ERR_ABORTED:
                stats.errors.append(str(exc))
                return
            aborts += 1
            stats.aborts += 1
            continue
        now = loop.time()
        stats.latencies.append(now - first)
        stats.commit_times.append(now)
        stats.committed += 1
        return
    stats.gave_up += 1


async def _load(server: Server, programs: list[Program]) -> tuple[LoadStats, dict]:
    """The closed-loop load phase, then a ``health`` read."""
    stats = LoadStats()
    conns = [
        await MuxConnection.open(server.host, server.port)
        for _ in range(connection_count())
    ]
    loop = asyncio.get_running_loop()
    try:
        stats.start = loop.time()
        await asyncio.wait_for(
            closed_loop(
                conns,
                SESSIONS,
                len(programs),
                lambda conn, index: _run_program(conn, programs[index], stats),
            ),
            LOAD_TIMEOUT_S,
        )
        stats.end = loop.time()
        health = await conns[0].call("health")
    finally:
        for conn in conns:
            await conn.close()
            for verb, samples in conn.rtt.items():
                stats.rtt.setdefault(verb, []).extend(samples)
    return stats, health


async def _server_metrics(server: Server) -> dict:
    """The server's own ``metrics`` reply (per-verb latency histograms)."""
    conn = await MuxConnection.open(server.host, server.port)
    try:
        reply = await conn.call("metrics")
    finally:
        await conn.close()
    return reply["metrics"]


@dataclass
class Lifetime:
    """Everything one server lifetime measured; see :func:`end_to_end`.

    Windows are ``(from, to)`` instants of ``time.monotonic()``, the
    clock of ``sampler`` and of the load phase.
    """

    setup_window: tuple[float, float]
    stats: LoadStats
    committed_on_server: int
    shed: int
    rss_mb: float
    cpu_s: float
    drain_window: tuple[float, float]
    exit_code: int
    sampler: HostSampler
    server_metrics: dict | None = None
    ledger: dict | None = None

    @property
    def setup_s(self) -> float:
        return self.setup_window[1] - self.setup_window[0]

    @property
    def drain_s(self) -> float:
        """Wall seconds from SIGTERM to exit (not scaled)."""
        return self.drain_window[1] - self.drain_window[0]

    def scale(self, window: tuple[float, float]) -> float:
        """The factor that scales a time measured over ``window``."""
        return self.sampler.scale(*window) ** SCALE_EXPONENT

    def load_scale(self) -> float:
        """The factor for the whole load phase."""
        return self.scale((self.stats.start, self.stats.end))


def server_command(
    seed: int, ledger: Path | None = None, expected_tx: int = 0
) -> list[str]:
    """The server's command line (``--port-file`` is appended later).

    Untraced, it is exactly what a user types.  With a ``ledger`` path it
    is the benchmark's launcher, which writes the layer ledger there.
    """
    if ledger is None:
        return [sys.executable, "-m", "repro", "serve", "--seed", str(seed)]
    return [
        sys.executable,
        str(Path(__file__).with_name("launcher.py")),
        "--seed", str(seed),
        "--ledger", str(ledger),
        "--expected-tx", str(expected_tx),
        "--tenant", TENANT,
    ]


def serve_lifetime(
    workload: str,
    seed: int,
    run_dir: Path,
    *,
    index: int = 0,
    traced: bool = False,
    observe: bool = False,
) -> Lifetime:
    """Run lifetime ``index`` of a run of ``workload`` (see module doc).

    Each lifetime of a run replays inputs of its own, drawn from
    ``seed`` and ``index``, so a run's medians average over several
    draws rather than hang on one.  ``traced`` serves through the ledger
    launcher; ``traced`` or ``observe`` also read the server's
    ``metrics`` verb after the load (outside every timed region).
    """
    if not 0 <= index < 100:
        raise ValueError("a run has at most 100 lifetimes")
    initial, programs = SERVICE_WORKLOADS[workload](
        seed * 100 + index, COUNTS[workload]
    )
    ledger_path = run_dir / "ledger.json"
    command = server_command(
        seed, ledger_path if traced else None, len(programs)
    )
    share_one_cpu()
    with HostSampler() as sampler:
        spawned = time.monotonic()
        server = Server(command, run_dir)
        try:
            server.wait_ready()
            asyncio.run(_seed(server, initial, programs[:WARMUP]))
            setup_window = (spawned, time.monotonic())
            cpu_before = server.cpu_seconds()
            stats, health = asyncio.run(_load(server, programs))
            cpu_s = server.cpu_seconds() - cpu_before
            metrics = None
            if traced or observe:
                metrics = asyncio.run(_server_metrics(server))
            rss_mb = server.peak_rss_mb()
            drain_window, code = server.drain()
        finally:
            server.kill()
    return Lifetime(
        setup_window=setup_window,
        stats=stats,
        committed_on_server=health["tenants"][TENANT]["committed"],
        shed=health["shed"],
        rss_mb=rss_mb,
        cpu_s=cpu_s,
        drain_window=drain_window,
        exit_code=code,
        sampler=sampler,
        server_metrics=metrics,
        ledger=json.loads(ledger_path.read_text()) if traced else None,
    )


def problems(life: Lifetime) -> list[str]:
    """Correctness failures of one lifetime (empty when it is sound)."""
    found = []
    if life.exit_code != 0:
        found.append(f"server exited {life.exit_code}: drain certification failed")
    if life.committed_on_server != life.stats.committed:
        found.append(
            f"client acknowledged {life.stats.committed} commits, "
            f"server health reports {life.committed_on_server}"
        )
    found.extend(life.stats.errors[:5])
    return found


def end_to_end(lives: list[Lifetime]) -> dict[str, float]:
    """The end-to-end metrics of a run, pooled over its lifetimes.

    Every time is scaled toward the reference host by the calibration
    samples of its own window (set-up, the whole load, the first or last
    tenth, or the drain), to :data:`SCALE_EXPONENT`.  Rates and times
    per commit divide the lifetimes' summed time by their summed count,
    latency percentiles are read off their pooled latencies, and
    ``drain_s`` is their mean: a pause that lands in one lifetime's short
    window then weighs as that lifetime's share instead of deciding a
    median.  ``setup_s`` and ``server_rss_mb`` are medians; memory is not
    scaled.
    """
    load_time = early_time = late_time = 0.0
    committed = verdicts = tenths = 0
    latencies: list[float] = []
    for life in lives:
        stats = life.stats
        load_scale = life.load_scale()
        load_time += (stats.end - stats.start) * load_scale
        committed += stats.committed
        verdicts += stats.verdicts
        latencies.extend(latency * load_scale for latency in stats.latencies)
        first, last, k = tenth_windows(stats.commit_times, stats.start, stats.end)
        early_time += (first[1] - first[0]) * life.scale(first)
        late_time += (last[1] - last[0]) * life.scale(last)
        tenths += k
    return {
        "setup_s": statistics.median(
            life.setup_s * life.scale(life.setup_window) for life in lives
        ),
        "tx_per_s": committed / load_time,
        "commit_p50_ms": statistics.median(latencies) * 1000.0,
        "commit_tail_ms": tail_percentile(latencies)[1] * 1000.0,
        "early_ms_per_tx": early_time / tenths * 1000.0,
        "late_ms_per_tx": late_time / tenths * 1000.0,
        "drain_s": statistics.fmean(
            life.drain_s * life.scale(life.drain_window) for life in lives
        ),
        "server_rss_mb": statistics.median(life.rss_mb for life in lives),
        "schedules_per_s": verdicts / load_time,
    }


def details(lives: list[Lifetime]) -> dict:
    """Context printed beside the metrics: tail rank, drain deadline."""
    pooled = [x for life in lives for x in life.stats.latencies]
    pct, _tail, beyond = tail_percentile(pooled)
    drains = [life.drain_s for life in lives]
    attempted = sum(life.stats.attempted for life in lives)
    return {
        "lifetimes": len(lives),
        "committed": sum(life.stats.committed for life in lives),
        "aborts": sum(life.stats.aborts for life in lives),
        "gave_up": sum(life.stats.gave_up for life in lives),
        "errors": sum(len(life.stats.errors) for life in lives),
        "failed_ratio": sum(life.stats.failed for life in lives) / attempted,
        "commit_tail_percentile": pct,
        "commit_tail_samples": len(pooled),
        "commit_tail_beyond": beyond,
        "drain_s": statistics.median(drains),
        "drain_s_each": drains,
        "drain_timeout_s": SERVER_DRAIN_DEADLINE_S,
        "drain_over_deadline": statistics.median(drains) > SERVER_DRAIN_DEADLINE_S,
        "load_scale_each": [life.load_scale() for life in lives],
        "connections": connection_count(),
        "sessions": SESSIONS,
    }
