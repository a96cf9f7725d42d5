"""E18 — service throughput and tail latency under a concurrent fleet.

The hardened transaction service is only worth its robustness budget if
the admission gate, per-session deadlines, and WAL-backed undo keep the
hot path cheap.  This benchmark boots a real :class:`RsrServer` on
loopback and drives a fleet of concurrent NDJSON clients through
begin/read/write/commit sessions, in two regimes:

* **disjoint** — every client owns its object, so the numbers isolate
  pure service overhead (framing, admission, scheduler certification,
  WAL) with no protocol-induced waits or aborts;
* **contended** — the fleet shares 64 objects, so RSGT certification,
  WAIT backoff, and abort-retry all fire on the measured path.

Reported per regime: committed tx/s and commit-latency p50/p99 (begin
request to commit ack, milliseconds).  The run ends with a full drain —
certification of every tenant's committed projection is part of the
timed lifecycle, and the benchmark asserts it passes.

Full mode drives >=1000 concurrent clients and records
``BENCH_service.json``.  Quick mode (``BENCH_QUICK=1``) shrinks the
fleet and skips the tracked JSON.
"""

import asyncio
import os
import time
from pathlib import Path

from benchmarks._report import emit, record_json
from perfbench.harness import nearest_rank
from repro.analysis.tables import format_table
from repro.service import RsrServer, ServiceConfig, ServiceClient, wire
from repro.service.client import ServiceError

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: Machine-readable service-fleet results, tracked across PRs.
BENCH_SERVICE = Path(__file__).resolve().parent.parent / "BENCH_service.json"

CLIENTS = 200 if QUICK else 1000
MAX_SESSIONS = 128 if QUICK else 256
CONTENDED_OBJECTS = 64
CONNECT_WAVE = 128  # connects are staggered to respect the accept backlog
ABORT_RETRIES = 6


async def _one_session(client, tenant, obj, value, latencies):
    """One begin/read/write/commit lifecycle; retries protocol aborts."""
    for _attempt in range(ABORT_RETRIES):
        start = time.perf_counter()
        begun = await client.begin_with_retry(
            f"r[{obj}] w[{obj}]", tenant=tenant, max_sheds=200
        )
        txn = begun["txn"]
        try:
            await client.read(txn, obj)
            await client.write(txn, obj, value)
            await client.commit(txn)
        except ServiceError as exc:
            if exc.code != wire.ERR_ABORTED:
                raise
            continue  # fresh incarnation, new admission ticket
        latencies.append((time.perf_counter() - start) * 1000.0)
        return True
    return False


async def _run_fleet(n_clients, objects_for):
    server = RsrServer(
        ServiceConfig(host="127.0.0.1", port=0, max_sessions=MAX_SESSIONS)
    )
    await server.start()
    latencies = []
    try:
        admin = await ServiceClient.connect(server.host, server.port)
        seen = sorted({objects_for(idx) for idx in range(n_clients)})
        await admin.tenant(
            "bench", protocol="rsgt", objects={obj: 0 for obj in seen}
        )
        await admin.close()

        gate = asyncio.Semaphore(CONNECT_WAVE)

        async def connect(idx):
            async with gate:
                return await ServiceClient.connect(server.host, server.port)

        clients = await asyncio.gather(
            *(connect(idx) for idx in range(n_clients))
        )
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                _one_session(
                    client, "bench", objects_for(idx), idx, latencies
                )
                for idx, client in enumerate(clients)
            )
        )
        wall = time.perf_counter() - start
        await asyncio.gather(*(client.close() for client in clients))
        committed = sum(outcomes)
        shed = server.admission.shed
        # How hard shed clients were pushed back: the server records
        # every retry_after_ms hint it hands out as a distribution.
        hints = server.metrics.histogram("service.retry_after_ms")
        retry_hints = {"count": 0, "min": 0, "max": 0, "p50": 0, "p99": 0}
        if hints is not None and hints.count:
            retry_hints = {
                "count": hints.count,
                "min": hints.min,
                "max": hints.max,
                "p50": hints.percentile(50),
                "p99": hints.percentile(99),
            }
    finally:
        await server.drain("bench-complete")
    assert server.exit_code == 0, "drain certification failed"
    return {
        "clients": n_clients,
        "committed": committed,
        "gave_up": n_clients - committed,
        "shed_begins": shed,
        "retry_after_ms": retry_hints,
        "tx_per_s": round(committed / wall, 1) if wall else 0.0,
        "p50_ms": round(nearest_rank(sorted(latencies), 50), 2),
        "p99_ms": round(nearest_rank(sorted(latencies), 99), 2),
        "wall_s": round(wall, 3),
    }


def test_report_service_fleet(benchmark):
    def compute():
        results = {}
        results["disjoint"] = asyncio.run(
            _run_fleet(CLIENTS, lambda idx: f"x{idx}")
        )
        results["contended"] = asyncio.run(
            _run_fleet(CLIENTS, lambda idx: f"x{idx % CONTENDED_OBJECTS}")
        )
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for regime, stats in results.items():
        # Every client either commits or exhausts its abort retries;
        # lost sessions would mean the service dropped acknowledged
        # work, which is a correctness failure, not a slow run.
        assert stats["committed"] > 0
        assert stats["committed"] + stats["gave_up"] == stats["clients"]
        rows.append(
            [
                regime,
                stats["clients"],
                stats["committed"],
                stats["shed_begins"],
                stats["tx_per_s"],
                stats["p50_ms"],
                stats["p99_ms"],
            ]
        )
    emit(
        f"E18 — live service fleet ({CLIENTS} concurrent clients, "
        f"admission limit {MAX_SESSIONS}, drain-certified)",
        format_table(
            [
                "regime",
                "clients",
                "committed",
                "shed",
                "tx/s",
                "p50 (ms)",
                "p99 (ms)",
            ],
            rows,
        )
        + "".join(
            f"\n{regime}: shed retry_after_ms hints "
            f"count={stats['retry_after_ms']['count']} "
            f"p50={stats['retry_after_ms']['p50']} "
            f"p99={stats['retry_after_ms']['p99']}"
            for regime, stats in results.items()
        ),
    )
    # Disjoint traffic must not give up: there is nothing to abort for.
    assert results["disjoint"]["gave_up"] == 0
    record_json(
        "service_fleet",
        {"max_sessions": MAX_SESSIONS, "by_regime": results},
        path=BENCH_SERVICE,
        quick=QUICK,
    )
