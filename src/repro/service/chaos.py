"""Live chaos: seeded fault plans replayed against a running server.

The offline fault campaigns (:mod:`repro.faults.campaign`) certify the
survivor invariant under a deterministic tick loop.  This harness
certifies the same invariant against the *live* asyncio service, where
interleaving is whatever the network and event loop produce:

* per-transaction faults from a seeded :func:`~repro.faults.plan.
  random_plan` are acted out by the clients themselves — KILL becomes
  an abrupt transport teardown mid-session (no goodbye; the server must
  undo on its own), STALL becomes a client that goes quiet between
  operations, ABORT becomes a voluntary abort followed by a fresh
  session (the service's re-incarnation model);
* store CRASH events fire through the chaos-gated ``crash`` verb once
  the fleet's cumulative granted-op count passes the trigger, exactly
  like the injector's global counter;
* when the dust settles the harness polls the server to quiescence and
  asks it to certify: the committed projection must be relatively
  serializable under ``spec.restricted_to(survivors)`` and the live
  state must equal a fault-free replay of exactly the survivors (plus
  the Theorem 1 witness replay).  It also cross-checks that the
  server's survivor set is precisely the transactions whose commit was
  acknowledged to a client — no lost or phantom commits.

The invariant must hold on *every* interleaving, so non-determinism
here is a feature: each wall-clock run explores a different schedule,
while the workload and fault plan stay pinned by the seed.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.core.transactions import Transaction
from repro.errors import ReproError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, random_plan
from repro.obs.hist import Histogram
from repro.service import wire
from repro.service.client import ServiceClient, ServiceError
from repro.service.tenant import SPEC_PROTOCOLS
from repro.workloads.random_schedules import random_transactions

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (workload + fault plan, all seeded).

    Attributes:
        clients: concurrent client sessions (one transaction template
            each; aborted incarnations retry as fresh sessions).
        seed: master seed for workload, cuts, fault plan, and pacing.
        protocol: tenant protocol under test.
        tenant: tenant namespace the run creates and uses.
        n_objects: object pool size (seeded as ``x0..``, value "init").
        ops_range: inclusive (lo, hi) program length range.
        write_probability: per-op write probability.
        cut_probability: per-breakpoint probability of declaring a cut
            (spec-aware protocols only).
        abort_rate / stall_rate / kill_rate / crash_rate: fault-plan
            rates, as in :func:`~repro.faults.plan.random_plan`.
        crash_at: explicit extra store-crash trigger (global granted-op
            count), on top of whatever the plan draws.
        stall_ms: how long one stalled request goes quiet.
        max_attempts: incarnations per client before giving up.
        deadline_ms: per-session deadline requested from the server.
        settle_timeout_s: how long to poll for quiescence at the end.
    """

    clients: int = 50
    seed: int = 0
    protocol: str = "rsgt"
    tenant: str = "chaos"
    n_objects: int = 8
    ops_range: tuple[int, int] = (2, 5)
    write_probability: float = 0.5
    cut_probability: float = 0.5
    abort_rate: float = 0.05
    stall_rate: float = 0.10
    kill_rate: float = 0.05
    crash_rate: float = 0.0
    crash_at: int | None = None
    stall_ms: int = 5
    max_attempts: int = 4
    deadline_ms: int = 10_000
    settle_timeout_s: float = 5.0


@dataclass
class ChaosReport:
    """What happened, and whether the survivor invariant held."""

    clients: int
    committed: int
    killed: int
    crashes: int
    attempts: int
    shed: int
    certified: bool
    quiesced: bool
    state_ok: bool | None
    witness_ok: bool | None
    survivors_match: bool
    wall_s: float
    tx_per_s: float
    p50_ms: int | None
    p99_ms: int | None
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The survivor invariant, end to end, on this live run."""
        return (
            self.certified
            and self.quiesced
            and self.state_ok is True
            and self.witness_ok is not False
            and self.survivors_match
        )

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "committed": self.committed,
            "killed": self.killed,
            "crashes": self.crashes,
            "attempts": self.attempts,
            "shed": self.shed,
            "certified": self.certified,
            "quiesced": self.quiesced,
            "state_ok": self.state_ok,
            "witness_ok": self.witness_ok,
            "survivors_match": self.survivors_match,
            "wall_s": round(self.wall_s, 3),
            "tx_per_s": round(self.tx_per_s, 1),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "errors": dict(sorted(self.errors.items())),
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"chaos: {self.clients} clients, {self.committed} committed, "
            f"{self.killed} killed, {self.crashes} store crashes, "
            f"{self.shed} shed",
            f"throughput: {self.tx_per_s:.1f} tx/s over {self.wall_s:.2f}s"
            + (
                f" (p50 {self.p50_ms} ms, p99 {self.p99_ms} ms)"
                if self.p50_ms is not None
                else ""
            ),
            f"survivor invariant: certified={self.certified} "
            f"state_ok={self.state_ok} witness_ok={self.witness_ok} "
            f"survivors_match={self.survivors_match} -> "
            + ("OK" if self.ok else "VIOLATED"),
        ]
        if self.errors:
            lines.append(f"client errors: {dict(sorted(self.errors.items()))}")
        return "\n".join(lines)


class _Shared:
    """Fleet-wide state: the global op counter and crash triggers."""

    def __init__(
        self, triggers: list[int], admin: ServiceClient, tenant: str
    ) -> None:
        self.granted = 0
        self.triggers = sorted(triggers)
        self.fired = 0
        self.crashes = 0
        self.admin = admin
        self.tenant = tenant

    async def note_grant(self) -> None:
        self.granted += 1
        while (
            self.fired < len(self.triggers)
            and self.granted >= self.triggers[self.fired]
        ):
            # Claim the trigger before awaiting so a concurrent client
            # cannot double-fire it (the loop is single-threaded).
            self.fired += 1
            try:
                await self.admin.crash(self.tenant)
                self.crashes += 1
            except (ServiceError, ConnectionError):
                pass


class _ClientOutcome:
    __slots__ = (
        "attempts",
        "committed_txn",
        "errors",
        "killed",
        "latency_ms",
    )

    def __init__(self) -> None:
        self.attempts = 0
        self.committed_txn: int | None = None
        self.killed = False
        self.latency_ms: int | None = None
        self.errors: dict[str, int] = {}

    def note_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1


def _pick_cuts(
    template: Transaction, rng: random.Random, probability: float
) -> tuple[int, ...]:
    return tuple(
        cut
        for cut in range(1, len(template))
        if rng.random() < probability
    )


async def _run_client(
    idx: int,
    template: Transaction,
    events: tuple[FaultEvent, ...],
    config: ChaosConfig,
    host: str,
    port: int,
    shared: _Shared,
) -> _ClientOutcome:
    outcome = _ClientOutcome()
    rng = random.Random(config.seed * 1_000_003 + idx)
    program = " ".join(f"{op.op_type.value}[{op.obj}]" for op in template)
    cuts = (
        _pick_cuts(template, rng, config.cut_probability)
        if config.protocol in SPEC_PROTOCOLS
        else ()
    )
    kills = [e for e in events if e.kind is FaultKind.KILL]
    aborts = [e for e in events if e.kind is FaultKind.ABORT]
    stalls = [e for e in events if e.kind is FaultKind.STALL]
    fired: set[FaultEvent] = set()
    requests = 0
    client = await ServiceClient.connect(host, port)
    try:
        for _ in range(config.max_attempts):
            outcome.attempts += 1
            try:
                begun = await client.begin_with_retry(
                    program,
                    tenant=config.tenant,
                    cuts=cuts,
                    deadline_ms=config.deadline_ms,
                )
            except (ServiceError, ConnectionError) as exc:
                if isinstance(exc, ServiceError):
                    outcome.note_error(exc.code)
                    if exc.code == wire.ERR_DRAINING:
                        return outcome
                    continue
                return outcome
            txn = begun["txn"]
            started = time.perf_counter()
            session_dead = False
            for op in template.operations:
                requests += 1
                kill = next(
                    (
                        e
                        for e in kills
                        if e not in fired and requests >= e.at
                    ),
                    None,
                )
                if kill is not None:
                    fired.add(kill)
                    outcome.killed = True
                    client.kill()
                    return outcome
                if any(
                    e.at <= requests < e.at + e.duration for e in stalls
                ):
                    await asyncio.sleep(config.stall_ms / 1000.0)
                fault_abort = next(
                    (
                        e
                        for e in aborts
                        if e not in fired and requests >= e.at
                    ),
                    None,
                )
                if fault_abort is not None:
                    fired.add(fault_abort)
                    try:
                        await client.abort(txn)
                    except (ServiceError, ConnectionError):
                        pass
                    session_dead = True
                    break
                try:
                    if op.is_read:
                        await client.read(txn, op.obj)
                    else:
                        await client.write(
                            txn,
                            op.obj,
                            f"c{idx}.t{txn}.{op.index}",
                        )
                except ServiceError as exc:
                    outcome.note_error(exc.code)
                    session_dead = True
                    break
                except ConnectionError:
                    return outcome
                await shared.note_grant()
            if session_dead:
                await asyncio.sleep(rng.uniform(0, 0.005))
                continue
            try:
                await client.commit(txn)
            except ServiceError as exc:
                outcome.note_error(exc.code)
                await asyncio.sleep(rng.uniform(0, 0.005))
                continue
            except ConnectionError:
                return outcome
            outcome.committed_txn = txn
            outcome.latency_ms = int(
                (time.perf_counter() - started) * 1000
            )
            return outcome
        return outcome
    finally:
        if not outcome.killed:
            await client.close()


async def run_chaos(
    config: ChaosConfig, host: str, port: int
) -> ChaosReport:
    """Act out one seeded chaos run against a live server and certify.

    The server must run with ``chaos=True`` when the plan contains
    store crashes (the ``crash`` verb is gated).
    """
    templates = random_transactions(
        config.clients,
        config.ops_range,
        config.n_objects,
        write_probability=config.write_probability,
        seed=config.seed,
    )
    plan: FaultPlan = random_plan(
        templates,
        config.seed + 1,
        abort_rate=config.abort_rate,
        stall_rate=config.stall_rate,
        kill_rate=config.kill_rate,
        crash_rate=config.crash_rate,
    )
    triggers = [e.at for e in plan.of_kind(FaultKind.CRASH)]
    if config.crash_at is not None:
        triggers.append(config.crash_at)
    admin = await ServiceClient.connect(host, port)
    try:
        await admin.tenant(
            config.tenant,
            config.protocol,
            objects={f"x{i}": "init" for i in range(config.n_objects)},
        )
        shared = _Shared(triggers, admin, config.tenant)
        started = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                _run_client(
                    idx,
                    template,
                    plan.for_tx(template.tx_id),
                    config,
                    host,
                    port,
                    shared,
                )
                for idx, template in enumerate(templates)
            )
        )
        wall = time.perf_counter() - started
        # Killed clients' server-side cleanup (disconnect aborts) races
        # with the gather; poll to quiescence before certifying so the
        # state check actually runs.
        quiesced = False
        settle_until = time.perf_counter() + config.settle_timeout_s
        while time.perf_counter() < settle_until:
            health = await admin.health()
            stats = health["tenants"].get(config.tenant, {})
            if stats.get("open_sessions", 0) == 0:
                quiesced = True
                break
            await asyncio.sleep(0.02)
        certification = await admin.certify(config.tenant)
        cert = certification["certifications"][0]
        health = await admin.health()
    finally:
        await admin.close()

    committed = sorted(
        o.committed_txn for o in outcomes if o.committed_txn is not None
    )
    if len(set(committed)) != len(committed):  # pragma: no cover
        raise ReproError("duplicate commit acknowledgements")
    # Percentiles at the service metrics' power-of-two bucket
    # resolution (upper bound, clamped to the observed maximum).
    latencies = Histogram.from_values(
        o.latency_ms for o in outcomes if o.latency_ms is not None
    )
    errors: dict[str, int] = {}
    for o in outcomes:
        for code, count in o.errors.items():
            errors[code] = errors.get(code, 0) + count
    return ChaosReport(
        clients=config.clients,
        committed=len(committed),
        killed=sum(1 for o in outcomes if o.killed),
        crashes=shared.crashes,
        attempts=sum(o.attempts for o in outcomes),
        shed=health.get("shed", 0),
        certified=bool(cert["certified"]),
        quiesced=quiesced and bool(cert["quiesced"]),
        state_ok=cert["state_ok"],
        witness_ok=cert["witness_ok"],
        survivors_match=list(cert["survivors"]) == committed,
        wall_s=wall,
        tx_per_s=(len(committed) / wall) if wall > 0 else 0.0,
        p50_ms=latencies.percentile(50) if latencies.count else None,
        p99_ms=latencies.percentile(99) if latencies.count else None,
        errors=errors,
    )
