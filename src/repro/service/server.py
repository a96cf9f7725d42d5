"""The asyncio front-end: accept, dispatch, retry, reap, drain.

One :class:`RsrServer` listens on plain TCP, speaks the
:mod:`~repro.service.wire` NDJSON protocol, and orchestrates the
synchronous per-tenant machinery in :mod:`~repro.service.tenant`:

* every scheduler/store mutation happens under the owning tenant's
  ``asyncio.Lock``, so concurrent connections present each scheduler a
  legal single-writer history;
* WAIT outcomes are retried server-side with exponential backoff and
  seeded jitter, bounded by the op deadline, and woken early when the
  waiting session is killed from elsewhere (victim, reaper, crash);
* a reaper task aborts-and-undoes sessions past their deadline even if
  their client went quiet;
* an abrupt disconnect aborts the connection's open sessions — this is
  what makes chaos-harness client kills safe by construction;
* SIGTERM starts a graceful drain: admission closes, in-flight sessions
  get :attr:`~repro.service.config.ServiceConfig.drain_timeout_s` to
  finish, stragglers are aborted-and-undone, the WAL is flushed, every
  tenant is certified, worker pools are torn down, and the process
  exits 0 iff the survivor invariant held everywhere.  The drain report
  records each tenant's certification wall time (``certify_s``) and
  whether SIGTERM-to-certified ran past the grace window
  (``over_deadline``); the ``service.drain.certify_ms`` histogram
  carries the drain's total certification time.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import signal as signal_module
import time
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.obs.bus import RingBufferSink, TraceBus
from repro.obs.events import EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanCollector
from repro.parallel.executor import shutdown_pools
from repro.protocols import PROTOCOL_NAMES
from repro.service import wire
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.session import Session
from repro.service.tenant import RequestRefused, StepResult, Tenant

__all__ = ["RsrServer"]

#: Immediate re-request rounds after a protocol abort that victimised
#: *other* sessions (the requester's own op was not consumed).
_POST_ABORT_RETRIES = 16


class RsrServer:
    """The long-running relative-serializability transaction service.

    Args:
        config: all knobs (see :class:`~repro.service.config.
            ServiceConfig`).
        metrics: shared registry (a fresh one by default).
        trace_capacity: ring-buffer size of the shared trace bus the
            tenant schedulers emit into.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        trace_capacity: int = 4096,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        #: txn id -> owning tenant (kept after close for good errors;
        #: also the flight recorder's ring resolver input).
        self._txn_owner: dict[int, Tenant] = {}
        self.trace_sink = RingBufferSink(trace_capacity)
        #: Live request-lifecycle spans (same capacity as the raw ring).
        self.spans = SpanCollector(trace_capacity)
        #: Last-N events per tenant, auto-dumped on crash/watchdog/
        #: livelock when ``flight_dir`` is configured.
        self.recorder = FlightRecorder(
            self.config.flight_capacity,
            resolve=self._ring_of,
            directory=self.config.flight_dir,
        )
        self.bus = TraceBus(self.trace_sink, self.spans, self.recorder)
        self.admission = AdmissionController(
            self.config.max_sessions,
            self.config.retry_after_base_ms,
            random.Random(self.config.jitter_seed),
        )
        self._backoff_rng = random.Random(self.config.jitter_seed + 1)
        self.tenants: dict[str, Tenant] = {}
        self._next_txn = 1
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._reaper: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._started_at: float | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.exit_code = 0
        self.drain_report: dict | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the reaper; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes + 2,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        self._reaper = asyncio.create_task(self._reap_loop())
        return self.host, self.port

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a graceful drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            loop.add_signal_handler(sig, self.request_drain, sig.name)

    def request_drain(self, cause: str = "drain") -> None:
        """Kick off a drain from sync context (signal handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain(cause)
            )

    async def run(
        self,
        *,
        install_signals: bool = True,
        port_file: str | Path | None = None,
    ) -> int:
        """Start, serve until drained, return the exit code."""
        host, port = await self.start()
        if port_file is not None:
            Path(port_file).write_text(f"{host} {port}\n")
        if install_signals:
            self.install_signal_handlers()
        await self._stopped.wait()
        return self.exit_code

    async def drain(self, cause: str = "drain") -> dict:
        """Graceful shutdown: see the module docstring for the steps."""
        if self._draining:
            await self._stopped.wait()
            return self.drain_report or {}
        self._draining = True
        self.admission.start_drain()
        self.metrics.inc("service.drains")
        loop = asyncio.get_running_loop()
        started = loop.time()
        grace_until = started + self.config.drain_timeout_s
        while loop.time() < grace_until and any(
            tenant.sessions for tenant in self.tenants.values()
        ):
            await asyncio.sleep(0.02)
        forced = 0
        for tenant in self.tenants.values():
            async with tenant.lock:
                for tx_id in sorted(tenant.sessions):
                    session = tenant.sessions.get(tx_id)
                    if session is not None and session.is_open:
                        tenant.abort(session, "draining")
                        self._release_slot(session)
                        forced += 1
                # Flush the WAL: every undo buffer is gone by now, and
                # recover() on a clean store is an (asserted) no-op.
                leftovers = tenant.store.recover()
                if leftovers:  # pragma: no cover - invariant violation
                    raise ReproError(
                        f"drain left live WAL entries for {sorted(leftovers)}"
                    )
        report: dict = {"cause": cause, "forced_aborts": forced, "ok": True}
        flight_dump = self.recorder.dump(f"drain-{cause}")
        if flight_dump is not None:
            report["flight_dump"] = str(flight_dump)
        if self.config.certify_on_drain:
            certs = []
            certify_s = 0.0
            for tenant in self.tenants.values():
                async with tenant.lock:
                    clock = time.perf_counter()
                    cert = tenant.certify()
                    elapsed = time.perf_counter() - clock
                certify_s += elapsed
                certs.append({**cert.to_dict(), "certify_s": elapsed})
                report["ok"] = report["ok"] and cert.ok
            report["certifications"] = certs
            self.metrics.hist(
                "service.drain.certify_ms", int(certify_s * 1000)
            )
        # SIGTERM-to-certified past the grace window: the drain overran
        # the deadline it promises (lingering sessions, or a slow
        # certificate), visible here without a profiler.
        report["over_deadline"] = (
            loop.time() - started > self.config.drain_timeout_s
        )
        self.drain_report = report
        self.exit_code = 0 if report["ok"] else 1
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge lingering connections shut so their handler tasks exit
        # cleanly instead of being cancelled at loop teardown.
        for writer in list(self._connections):
            writer.close()
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
        shutdown_pools()
        self._stopped.set()
        return report

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        owned: list[Session] = []
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: the stream limit tripped mid-line; the
                    # connection is unrecoverable (framing is lost).
                    break
                if not line:
                    break
                if len(line) > self.config.max_line_bytes:
                    response = wire.err(
                        wire.ERR_BAD_REQUEST, "request line too long"
                    )
                else:
                    response = await self._dispatch_line(line, owned)
                try:
                    writer.write(wire.encode(response))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
        finally:
            self._connections.discard(writer)
            await self._abort_owned(owned, "disconnect")
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes, owned: list[Session]) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return wire.err(wire.ERR_BAD_REQUEST, f"bad request line: {exc}")
        req_id = request.get("id")
        verb = request.get("do")
        started = time.perf_counter()
        try:
            return await self._dispatch_verb(request, verb, req_id, owned)
        except RequestRefused as exc:
            return wire.err(exc.code, str(exc), req_id)
        except ReproError as exc:
            return wire.err(wire.ERR_BAD_REQUEST, str(exc), req_id)
        except Exception as exc:  # noqa: BLE001 - one request, one reply
            self.metrics.inc("service.internal_errors")
            return wire.err(
                wire.ERR_INTERNAL, f"{type(exc).__name__}: {exc}", req_id
            )
        finally:
            # Per-verb wall-clock latency distribution (microseconds;
            # wall-clock, so it lives in the histogram section that the
            # deterministic campaign reports never carry).
            if isinstance(verb, str) and verb in wire.VERBS:
                self.metrics.hist(
                    "service.verb_latency_us",
                    int((time.perf_counter() - started) * 1_000_000),
                    verb=verb,
                )

    async def _dispatch_verb(
        self, request: dict, verb: object, req_id: object,
        owned: list[Session],
    ) -> dict:
        if verb == "begin":
            return await self._do_begin(request, owned)
        if verb in ("read", "write", "step"):
            return await self._do_op(request, verb)
        if verb == "commit":
            return await self._do_commit(request)
        if verb == "abort":
            return await self._do_abort(request)
        if verb == "tenant":
            return await self._do_tenant(request)
        if verb == "health":
            return self._do_health(request)
        if verb == "metrics":
            return self._do_metrics(request)
        if verb == "metricsx":
            self._sample_rsg_gauges()
            return wire.ok(req_id, exposition=self.metrics.to_prometheus())
        if verb == "inspect":
            return self._do_inspect(request)
        if verb == "dump":
            return self._do_dump(request)
        if verb == "certify":
            return await self._do_certify(request)
        if verb == "crash":
            return await self._do_crash(request)
        return wire.err(
            wire.ERR_BAD_REQUEST,
            f"unknown verb {verb!r}; expected one of {wire.VERBS}",
            req_id,
        )

    async def _abort_owned(
        self, owned: list[Session], reason: str
    ) -> None:
        """Undo a dead connection's open sessions (kill-safety)."""
        for session in owned:
            if not session.is_open:
                continue
            tenant = self.tenants.get(session.tenant)
            if tenant is None:  # pragma: no cover - tenants never die
                continue
            async with tenant.lock:
                if session.is_open:
                    tenant.abort(session, reason)
                    self._release_slot(session)
                    self.metrics.inc(
                        "service.aborts", tenant=tenant.name, cause=reason
                    )

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def _do_begin(self, request: dict, owned: list[Session]) -> dict:
        req_id = request.get("id")
        if self._draining:
            return wire.err(
                wire.ERR_DRAINING, "server is draining; no new sessions",
                req_id,
            )
        if not self.admission.try_admit():
            self.metrics.inc("service.shed")
            hint = self.admission.retry_after_ms()
            # The hint distribution shows how hard shed clients are
            # being pushed back (BENCH_service.json reports it).
            self.metrics.hist("service.retry_after_ms", hint)
            return wire.err(
                wire.ERR_OVERLOADED,
                f"in-flight session budget ({self.admission.limit}) "
                "exhausted",
                req_id,
                retry_after_ms=hint,
            )
        try:
            tenant = self._tenant_for(request.get("tenant", "default"))
            program = request.get("program")
            if not isinstance(program, str) or not program.strip():
                raise RequestRefused(
                    wire.ERR_BAD_REQUEST,
                    "begin needs a non-empty 'program' string "
                    "(e.g. \"r[x] w[y]\")",
                )
            cuts = self._parse_cuts(request.get("cuts", ()))
            loop = asyncio.get_running_loop()
            now = loop.time()
            budget = self.config.session_timeout_s
            requested = request.get("deadline_ms")
            if requested is not None:
                if not isinstance(requested, (int, float)) or requested <= 0:
                    raise RequestRefused(
                        wire.ERR_BAD_REQUEST,
                        "deadline_ms must be a positive number",
                    )
                budget = min(budget, requested / 1000.0)
            tx_id = self._next_txn
            self._next_txn += 1
            async with tenant.lock:
                session = tenant.new_session(
                    tx_id, program, cuts, now=now, deadline=now + budget
                )
            self._txn_owner[tx_id] = tenant
        except BaseException:
            self.admission.release()
            raise
        owned.append(session)
        self.metrics.inc("service.begins", tenant=tenant.name)
        self.metrics.gauge("service.inflight_peak", self.admission.peak)
        return wire.ok(
            req_id,
            txn=tx_id,
            tenant=tenant.name,
            ops=[op.label for op in session.transaction.operations],
            deadline_ms=int(budget * 1000),
        )

    async def _do_op(self, request: dict, verb: str) -> dict:
        req_id = request.get("id")
        tenant, txn = self._locate(request)
        expect = {"read": "r", "write": "w"}.get(verb)
        obj = request.get("key")
        value = request.get("value")
        loop = asyncio.get_running_loop()
        op_deadline: float | None = None
        attempt = 0
        aborted_rounds = 0
        while True:
            wake = asyncio.Event()
            async with tenant.lock:
                session = tenant.sessions.get(txn)
                if session is None:
                    return self._closed_response(tenant, txn, req_id)
                now = loop.time()
                if op_deadline is None:
                    op_deadline = min(
                        now + self.config.op_timeout_s, session.deadline
                    )
                if now > session.deadline or now > op_deadline:
                    tenant.abort(session, "deadline")
                    self._release_slot(session)
                    self.metrics.inc(
                        "service.aborts", tenant=tenant.name, cause="deadline"
                    )
                    return wire.err(
                        wire.ERR_DEADLINE,
                        "operation deadline expired; session undone",
                        req_id,
                        txn=txn,
                    )
                result = tenant.step(
                    session, value=value, expect=expect, obj=obj
                )
                if result.status == "wait":
                    session.add_waiter(wake)
            if result.status == "granted":
                self.metrics.inc(
                    "service.ops", tenant=tenant.name, kind=result.op_label[0]
                )
                return wire.ok(
                    req_id,
                    txn=txn,
                    op=result.op_label,
                    index=session.cursor - 1,
                    value=result.value,
                    remaining=session.remaining_ops,
                )
            if result.status == "aborted":
                self._account_victims(tenant, result)
                if result.self_aborted:
                    return wire.err(
                        wire.ERR_ABORTED,
                        f"transaction aborted by the {tenant.protocol} "
                        f"protocol ({result.reason or 'conflict'})",
                        req_id,
                        txn=txn,
                        reason=result.reason,
                    )
                aborted_rounds += 1
                if aborted_rounds > _POST_ABORT_RETRIES:
                    return wire.err(
                        wire.ERR_INTERNAL,
                        "operation not granted after repeated victim "
                        "aborts",
                        req_id,
                        txn=txn,
                    )
                continue
            # WAIT: back off (exponentially, jittered) and retry.
            self.metrics.inc("service.wait_retries", tenant=tenant.name)
            base = self.config.wait_retry_initial_ms * (2**attempt)
            capped = min(base, self.config.wait_retry_cap_ms)
            delay = (capped / 2 + self._backoff_rng.uniform(0, capped / 2)) / 1000.0
            attempt += 1
            if loop.time() + delay > op_deadline:
                # Sleeping past the deadline is pointless; expire now.
                async with tenant.lock:
                    session = tenant.sessions.get(txn)
                    if session is not None:
                        session.discard_waiter(wake)
                    if session is not None and session.is_open:
                        tenant.abort(session, "deadline")
                        self._release_slot(session)
                        self.metrics.inc(
                            "service.aborts",
                            tenant=tenant.name,
                            cause="deadline",
                        )
                        return wire.err(
                            wire.ERR_DEADLINE,
                            f"operation still blocked "
                            f"({result.reason or 'wait'}) at its "
                            "deadline; session undone",
                            req_id,
                            txn=txn,
                        )
                continue
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(wake.wait(), timeout=delay)
            session.discard_waiter(wake)

    async def _do_commit(self, request: dict) -> dict:
        req_id = request.get("id")
        tenant, txn = self._locate(request)
        loop = asyncio.get_running_loop()
        async with tenant.lock:
            session = tenant.sessions.get(txn)
            if session is None:
                return self._closed_response(tenant, txn, req_id)
            now = loop.time()
            if now > session.deadline:
                tenant.abort(session, "deadline")
                self._release_slot(session)
                self.metrics.inc(
                    "service.aborts", tenant=tenant.name, cause="deadline"
                )
                return wire.err(
                    wire.ERR_DEADLINE,
                    "session deadline expired before commit; undone",
                    req_id,
                    txn=txn,
                )
            tenant.commit(session)
            self._release_slot(session)
        latency_us = int((now - session.started) * 1_000_000)
        self.metrics.inc("service.commits", tenant=tenant.name)
        self.metrics.observe(
            "service.commit_latency_us", latency_us, tenant=tenant.name
        )
        return wire.ok(req_id, txn=txn, committed=True, latency_us=latency_us)

    async def _do_abort(self, request: dict) -> dict:
        req_id = request.get("id")
        tenant, txn = self._locate(request)
        async with tenant.lock:
            session = tenant.sessions.get(txn)
            if session is None:
                cause = tenant.closed.get(txn)
                if cause == "committed":
                    return wire.err(
                        wire.ERR_BAD_REQUEST,
                        f"txn {txn} already committed; cannot abort",
                        req_id,
                    )
                if cause is not None:
                    return wire.ok(req_id, txn=txn, aborted=True, reason=cause)
                return wire.err(
                    wire.ERR_UNKNOWN_TXN, f"no session for txn {txn}", req_id
                )
            tenant.abort(session, "client-abort")
            self._release_slot(session)
        self.metrics.inc(
            "service.aborts", tenant=tenant.name, cause="client-abort"
        )
        return wire.ok(req_id, txn=txn, aborted=True, reason="client-abort")

    async def _do_tenant(self, request: dict) -> dict:
        req_id = request.get("id")
        name = request.get("tenant")
        if not isinstance(name, str) or not name:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, "tenant needs a non-empty 'tenant' name"
            )
        protocol = request.get("protocol", self.config.default_protocol)
        if protocol not in PROTOCOL_NAMES:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST,
                f"unknown protocol {protocol!r}; expected one of "
                f"{PROTOCOL_NAMES}",
            )
        objects = request.get("objects", {})
        if not isinstance(objects, dict):
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, "'objects' must be a JSON object"
            )
        existing = self.tenants.get(name)
        if existing is not None:
            if existing.protocol != protocol:
                raise RequestRefused(
                    wire.ERR_BAD_REQUEST,
                    f"tenant {name!r} already exists with protocol "
                    f"{existing.protocol!r}",
                )
            return wire.ok(
                req_id, tenant=name, protocol=protocol, existing=True
            )
        self._make_tenant(name, protocol, objects)
        return wire.ok(req_id, tenant=name, protocol=protocol, existing=False)

    def _do_health(self, request: dict) -> dict:
        req_id = request.get("id")
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return wire.ok(
            req_id,
            status="draining" if self._draining else "serving",
            uptime_s=round(uptime, 3),
            inflight=self.admission.inflight,
            inflight_peak=self.admission.peak,
            shed=self.admission.shed,
            tenants={
                name: tenant.stats()
                for name, tenant in sorted(self.tenants.items())
            },
        )

    def _do_metrics(self, request: dict) -> dict:
        req_id = request.get("id")
        name = request.get("tenant")
        if name is None:
            return wire.ok(req_id, metrics=self.metrics.to_dict())
        if not isinstance(name, str) or name not in self.tenants:
            return wire.err(
                wire.ERR_BAD_REQUEST,
                f"no tenant {name!r}; known: {sorted(self.tenants)}",
                req_id,
            )
        return wire.ok(
            req_id,
            tenant=name,
            metrics=self.metrics.filtered(tenant=name).to_dict(),
        )

    def _sample_rsg_gauges(self) -> None:
        """Refresh each certifying tenant's live-window gauges (RSG size,
        retirement and forget counters), so a scrape shows certifier
        state growing with age beside the latency histograms.  Every
        ``rsg_summary`` field becomes ``rsg.<field>{tenant}``; the arc
        census goes out as ``rsg.arcs{kind, tenant}``."""
        for name, tenant in self.tenants.items():
            rsg = tenant.scheduler.snapshot()["rsg"] or {}
            for field, value in rsg.items():
                if field == "arcs":
                    for kind, count in value.items():
                        self.metrics.gauge(
                            "rsg.arcs", count, tenant=name, kind=kind
                        )
                else:
                    self.metrics.gauge(f"rsg.{field}", value, tenant=name)

    def _do_inspect(self, request: dict) -> dict:
        """Live wait-for/donation/RSG introspection (no locks: the whole
        handler is synchronous, so no tenant mutation can interleave)."""
        req_id = request.get("id")
        name = request.get("tenant")
        if name is not None and name not in self.tenants:
            return wire.err(
                wire.ERR_BAD_REQUEST,
                f"no tenant {name!r}; known: {sorted(self.tenants)}",
                req_id,
            )
        targets = (
            {name: self.tenants[name]}
            if name is not None
            else dict(sorted(self.tenants.items()))
        )
        tenants = {}
        for tenant_name, tenant in targets.items():
            snap = tenant.scheduler.snapshot()
            snap["open_sessions"] = sorted(tenant.sessions)
            snap["waiting_sessions"] = sorted(
                tx_id
                for tx_id, session in tenant.sessions.items()
                if session.is_waiting
            )
            tenants[tenant_name] = snap
        return wire.ok(
            req_id,
            status="draining" if self._draining else "serving",
            inflight=self.admission.inflight,
            shed=self.admission.shed,
            open_spans=list(self.spans.open_transactions),
            flight_rings=self.recorder.ring_sizes(),
            tenants=tenants,
        )

    def _do_dump(self, request: dict) -> dict:
        """Flight-recorder dump: always returns the JSONL inline, and
        additionally writes a file when ``flight_dir`` is configured.
        The wire never chooses the path — a remote client must not pick
        filesystem locations for the server."""
        req_id = request.get("id")
        cause = str(request.get("cause", "dump-verb"))
        written = self.recorder.dump(cause)
        fields: dict = {
            "rings": self.recorder.ring_sizes(),
            "dump": self.recorder.dump_text(cause),
        }
        if written is not None:
            fields["path"] = str(written)
        return wire.ok(req_id, **fields)

    async def _do_certify(self, request: dict) -> dict:
        req_id = request.get("id")
        name = request.get("tenant")
        if name is not None and name not in self.tenants:
            return wire.err(
                wire.ERR_BAD_REQUEST, f"no tenant {name!r}", req_id
            )
        targets = (
            [self.tenants[name]] if name is not None
            else list(self.tenants.values())
        )
        certs = []
        all_ok = True
        for tenant in targets:
            async with tenant.lock:
                cert = tenant.certify()
            certs.append(cert.to_dict())
            all_ok = all_ok and cert.ok
        return wire.ok(req_id, certifications=certs, all_ok=all_ok)

    async def _do_crash(self, request: dict) -> dict:
        req_id = request.get("id")
        if not self.config.chaos:
            return wire.err(
                wire.ERR_FORBIDDEN,
                "the crash verb requires the server to run with "
                "chaos=True (repro serve --chaos)",
                req_id,
            )
        name = request.get("tenant", "default")
        tenant = self.tenants.get(name)
        if tenant is None:
            return wire.err(
                wire.ERR_BAD_REQUEST, f"no tenant {name!r}", req_id
            )
        async with tenant.lock:
            closed = tenant.crash()
            for session in closed:
                self._release_slot(session)
        # The CRASH event routes to the tenant's flight-recorder ring
        # and (with a flight_dir) triggers an automatic dump.
        self.bus.emit(
            EventKind.CRASH,
            protocol="store",
            extra=(
                ("aborted", [session.tx_id for session in closed]),
                ("tenant", name),
            ),
        )
        self.metrics.inc("service.crashes", tenant=name)
        for _ in closed:
            self.metrics.inc(
                "service.aborts", tenant=name, cause="store-crash"
            )
        return wire.ok(
            req_id,
            crashed=True,
            tenant=name,
            aborted=[session.tx_id for session in closed],
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _ring_of(self, raw: tuple) -> str:
        """Flight-recorder ring key of one raw event tuple.

        The event's transaction maps to its owning tenant; events
        without one (store crashes, drains) may carry a ``tenant``
        extra; everything else lands in the ``global`` ring.
        """
        tx = raw[3]
        if tx is not None:
            tenant = self._txn_owner.get(tx)
            if tenant is not None:
                return tenant.name
        for key, value in raw[7]:
            if key == "tenant":
                return str(value)
        return "global"

    def _tenant_for(self, name: object) -> Tenant:
        if not isinstance(name, str) or not name:
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, "'tenant' must be a non-empty string"
            )
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self._make_tenant(
                name, self.config.default_protocol, {}
            )
        return tenant

    def _make_tenant(
        self, name: str, protocol: str, objects: dict[str, Any]
    ) -> Tenant:
        tenant = Tenant(
            name,
            protocol,
            objects,
            watchdog_threshold=self.config.watchdog_threshold,
            max_program_ops=self.config.max_program_ops,
        )
        tenant.scheduler.bus = self.bus
        self.tenants[name] = tenant
        self.metrics.inc("service.tenants_created")
        return tenant

    def _locate(self, request: dict) -> tuple[Tenant, int]:
        txn = request.get("txn")
        if not isinstance(txn, int):
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, "'txn' must be an integer"
            )
        tenant = self._txn_owner.get(txn)
        if tenant is None:
            raise RequestRefused(
                wire.ERR_UNKNOWN_TXN, f"no session for txn {txn}"
            )
        return tenant, txn

    def _closed_response(
        self, tenant: Tenant, txn: int, req_id: object
    ) -> dict:
        cause = tenant.closed.get(txn)
        if cause == "committed":
            return wire.err(
                wire.ERR_BAD_REQUEST,
                f"txn {txn} already committed",
                req_id,
                txn=txn,
            )
        if cause == "deadline":
            return wire.err(
                wire.ERR_DEADLINE,
                f"txn {txn} exceeded its deadline and was undone",
                req_id,
                txn=txn,
            )
        if cause is not None:
            return wire.err(
                wire.ERR_ABORTED,
                f"txn {txn} was aborted ({cause})",
                req_id,
                txn=txn,
                reason=cause,
            )
        return wire.err(
            wire.ERR_UNKNOWN_TXN, f"no session for txn {txn}", req_id
        )

    def _parse_cuts(self, raw: object) -> tuple[int, ...]:
        if raw is None:
            return ()
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(c, int) for c in raw
        ):
            raise RequestRefused(
                wire.ERR_BAD_REQUEST, "'cuts' must be a list of integers"
            )
        return tuple(raw)

    def _release_slot(self, session: Session) -> None:
        if not session.slot_released:
            session.slot_released = True
            self.admission.release()

    def _account_victims(self, tenant: Tenant, result: StepResult) -> None:
        for session in result.closed:
            self._release_slot(session)
            self.metrics.inc(
                "service.aborts",
                tenant=tenant.name,
                cause=result.reason or "protocol-abort",
            )

    async def _reap_loop(self) -> None:
        """Expire sessions whose clients went quiet past the deadline."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.reap_interval_s)
            for tenant in list(self.tenants.values()):
                if not tenant.sessions:
                    continue
                async with tenant.lock:
                    now = loop.time()
                    for tx_id in sorted(tenant.sessions):
                        session = tenant.sessions.get(tx_id)
                        if (
                            session is not None
                            and session.is_open
                            and now > session.deadline
                        ):
                            tenant.abort(session, "deadline")
                            self._release_slot(session)
                            self.metrics.inc(
                                "service.aborts",
                                tenant=tenant.name,
                                cause="deadline",
                            )
                            self.metrics.inc(
                                "service.reaped", tenant=tenant.name
                            )
