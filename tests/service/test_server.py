"""End-to-end tests for the asyncio transaction service.

Every scenario runs a real server on a real socket via
``tests.service.util.running_server``, whose teardown drains and
certifies — so each test also exercises the graceful-shutdown path.
"""

import asyncio

import pytest

from repro.service import ServiceClient, wire
from repro.service.client import ServiceError
from tests.service.util import running_server


async def _poll(predicate, timeout=3.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if await predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def _quiesced(client, tenant):
    async def check():
        health = await client.health()
        stats = health["tenants"].get(tenant, {})
        return stats.get("open_sessions", 1) == 0

    return await _poll(check)


class TestHappyPath:
    def test_begin_read_write_commit_certify(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"x": 1})
                begun = await c.begin("r[x] w[y]", tenant="t", cuts=[1])
                txn = begun["txn"]
                assert begun["ops"] == [f"r{txn}[x]", f"w{txn}[y]"]
                read = await c.read(txn, "x")
                assert read["value"] == 1
                assert read["remaining"] == 1
                wrote = await c.write(txn, "y", "forty-two")
                assert wrote["value"] == "forty-two"
                done = await c.commit(txn)
                assert done["committed"] is True
                cert = await c.certify("t")
                assert cert["all_ok"] is True
                record = cert["certifications"][0]
                assert record["survivors"] == [txn]
                assert record["state_ok"] is True
                assert record["witness_ok"] is True
                await c.close()

        asyncio.run(scenario())

    def test_committed_writes_visible_to_later_sessions(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                first = await c.begin("w[x]", tenant="default")
                await c.write(first["txn"], "x", "hello")
                await c.commit(first["txn"])
                second = await c.begin("r[x]", tenant="default")
                read = await c.read(second["txn"], "x")
                assert read["value"] == "hello"
                await c.commit(second["txn"])
                await c.close()

        asyncio.run(scenario())

    def test_step_executes_the_declared_program_blind(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"a": 10})
                begun = await c.begin("r[a] w[b]", tenant="t")
                txn = begun["txn"]
                one = await c.step(txn)
                assert one["op"] == f"r{txn}[a]" and one["value"] == 10
                two = await c.step(txn, value="B")
                assert two["op"] == f"w{txn}[b]" and two["value"] == "B"
                await c.commit(txn)
                await c.close()

        asyncio.run(scenario())


class TestValidation:
    def test_bad_program_is_refused(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                with pytest.raises(ServiceError) as excinfo:
                    await c.begin("frobnicate[x]")
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                # The refused begin must not leak its admission slot.
                assert server.admission.inflight == 0
                await c.close()

        asyncio.run(scenario())

    def test_cuts_on_a_classical_protocol_are_refused(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "2pl")
                with pytest.raises(ServiceError) as excinfo:
                    await c.begin("r[x] w[x]", tenant="t", cuts=[1])
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                await c.close()

        asyncio.run(scenario())

    def test_out_of_range_cuts_are_refused(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                with pytest.raises(ServiceError) as excinfo:
                    await c.begin("r[x] w[x]", cuts=[5])
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                assert server.admission.inflight == 0
                await c.close()

        asyncio.run(scenario())

    def test_ops_must_follow_the_declared_program(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"x": 0})
                begun = await c.begin("r[x] w[y]", tenant="t")
                txn = begun["txn"]
                with pytest.raises(ServiceError) as excinfo:
                    await c.write(txn, "y", 1)  # next op is the read
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                with pytest.raises(ServiceError) as excinfo:
                    await c.read(txn, "z")  # wrong object
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                await c.read(txn, "x")
                await c.write(txn, "y", 1)
                with pytest.raises(ServiceError) as excinfo:
                    await c.step(txn)  # program exhausted
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                await c.commit(txn)
                await c.close()

        asyncio.run(scenario())

    def test_commit_requires_the_whole_program(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                begun = await c.begin("w[x] w[y]")
                await c.write(begun["txn"], "x", 1)
                with pytest.raises(ServiceError) as excinfo:
                    await c.commit(begun["txn"])
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                await c.write(begun["txn"], "y", 2)
                await c.commit(begun["txn"])
                await c.close()

        asyncio.run(scenario())

    def test_unknown_txn_and_post_close_errors(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                with pytest.raises(ServiceError) as excinfo:
                    await c.read(999, "x")
                assert excinfo.value.code == wire.ERR_UNKNOWN_TXN
                begun = await c.begin("w[x]")
                txn = begun["txn"]
                await c.write(txn, "x", 1)
                await c.commit(txn)
                with pytest.raises(ServiceError) as excinfo:
                    await c.write(txn, "x", 2)
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                aborted = await c.begin("w[x]")
                await c.abort(aborted["txn"])
                with pytest.raises(ServiceError) as excinfo:
                    await c.write(aborted["txn"], "x", 3)
                assert excinfo.value.code == wire.ERR_ABORTED
                await c.close()

        asyncio.run(scenario())

    def test_unknown_verb_and_malformed_json(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                import json

                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"] == wire.ERR_BAD_REQUEST
                writer.write(b'{"do": "frobnicate"}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["error"] == wire.ERR_BAD_REQUEST
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_begins_beyond_the_budget_are_shed_with_retry_hint(self):
        async def scenario():
            async with running_server(max_sessions=2) as server:
                c = await ServiceClient.connect(server.host, server.port)
                first = await c.begin("w[x]")
                await c.begin("w[y]")
                with pytest.raises(ServiceError) as excinfo:
                    await c.begin("w[z]")
                assert excinfo.value.code == wire.ERR_OVERLOADED
                assert excinfo.value.retry_after_ms > 0
                assert server.admission.shed == 1
                # Finishing a session reopens the gate.
                await c.write(first["txn"], "x", 1)
                await c.commit(first["txn"])
                third = await c.begin("w[z]")
                assert third["ok"]
                await c.close()

        asyncio.run(scenario())


class TestDeadlines:
    def test_expired_session_is_undone_on_next_request(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"x": 0})
                begun = await c.begin(
                    "w[x] w[x]", tenant="t", deadline_ms=60
                )
                txn = begun["txn"]
                await c.write(txn, "x", "dirty")
                await asyncio.sleep(0.12)
                with pytest.raises(ServiceError) as excinfo:
                    await c.write(txn, "x", "again")
                assert excinfo.value.code == wire.ERR_DEADLINE
                # The dirty write was rolled back through the WAL.
                probe = await c.begin("r[x]", tenant="t")
                read = await c.read(probe["txn"], "x")
                assert read["value"] == 0
                await c.commit(probe["txn"])
                # Both the expired session and the probe freed their
                # admission slots exactly once.
                assert server.admission.inflight == 0
                await c.close()

        asyncio.run(scenario())

    def test_reaper_expires_sessions_of_quiet_clients(self):
        async def scenario():
            async with running_server(reap_interval_s=0.03) as server:
                c = await ServiceClient.connect(server.host, server.port)
                begun = await c.begin("w[x]", deadline_ms=50)
                await c.write(begun["txn"], "x", "dirty")

                async def reaped():
                    health = await c.health()
                    stats = health["tenants"]["default"]
                    return stats["open_sessions"] == 0

                assert await _poll(reaped)
                assert server.admission.inflight == 0
                assert (
                    server.metrics.counter_value(
                        "service.reaped", tenant="default"
                    )
                    == 1
                )
                await c.close()

        asyncio.run(scenario())

    def test_wait_blocked_op_expires_at_its_deadline(self):
        async def scenario():
            async with running_server(op_timeout_s=0.15) as server:
                holder = await ServiceClient.connect(
                    server.host, server.port
                )
                blocked = await ServiceClient.connect(
                    server.host, server.port
                )
                await holder.tenant("t", "2pl", {"x": 0})
                b1 = await holder.begin("w[x]", tenant="t")
                await holder.write(b1["txn"], "x", "held")
                b2 = await blocked.begin("r[x]", tenant="t")
                with pytest.raises(ServiceError) as excinfo:
                    await blocked.read(b2["txn"], "x")
                assert excinfo.value.code == wire.ERR_DEADLINE
                # The blocked session was undone; the holder lives on.
                await holder.commit(b1["txn"])
                await holder.close()
                await blocked.close()

        asyncio.run(scenario())


class TestWaitRetry:
    def test_blocking_protocol_waits_then_proceeds(self):
        async def scenario():
            async with running_server() as server:
                holder = await ServiceClient.connect(
                    server.host, server.port
                )
                waiter = await ServiceClient.connect(
                    server.host, server.port
                )
                await holder.tenant("t", "2pl", {"x": 0})
                b1 = await holder.begin("w[x]", tenant="t")
                await holder.write(b1["txn"], "x", "one")
                b2 = await waiter.begin("r[x]", tenant="t")
                read_task = asyncio.create_task(
                    waiter.read(b2["txn"], "x")
                )
                await asyncio.sleep(0.08)
                assert not read_task.done()  # parked on the write lock
                await holder.commit(b1["txn"])
                read = await read_task
                assert read["value"] == "one"
                await waiter.commit(b2["txn"])
                assert (
                    server.metrics.counter_value(
                        "service.wait_retries", tenant="t"
                    )
                    >= 1
                )
                await holder.close()
                await waiter.close()

        asyncio.run(scenario())


class TestDisconnect:
    def test_abrupt_disconnect_aborts_and_undoes(self):
        async def scenario():
            async with running_server() as server:
                doomed = await ServiceClient.connect(
                    server.host, server.port
                )
                await doomed.tenant("t", "rsgt", {"x": "initial"})
                begun = await doomed.begin("w[x] w[x]", tenant="t")
                await doomed.write(begun["txn"], "x", "dirty")
                doomed.kill()  # no goodbye
                probe = await ServiceClient.connect(
                    server.host, server.port
                )
                assert await _quiesced(probe, "t")
                check = await probe.begin("r[x]", tenant="t")
                read = await probe.read(check["txn"], "x")
                assert read["value"] == "initial"
                await probe.commit(check["txn"])
                assert server.admission.inflight == 0
                await probe.close()

        asyncio.run(scenario())


class TestCrashRecovery:
    def test_crash_verb_is_gated_behind_chaos_mode(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.begin("w[x]")
                with pytest.raises(ServiceError) as excinfo:
                    await c.crash("default")
                assert excinfo.value.code == wire.ERR_FORBIDDEN
                await c.close()

        asyncio.run(scenario())

    def test_crash_rolls_back_inflight_and_spares_unstarted(self):
        async def scenario():
            async with running_server(chaos=True) as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"x": "safe"})
                dirty = await c.begin("w[x] w[x]", tenant="t")
                await c.write(dirty["txn"], "x", "dirty")
                fresh = await c.begin("w[y]", tenant="t")
                crash = await c.crash("t")
                assert crash["aborted"] == [dirty["txn"]]
                with pytest.raises(ServiceError) as excinfo:
                    await c.write(dirty["txn"], "x", "again")
                assert excinfo.value.code == wire.ERR_ABORTED
                assert excinfo.value.response["reason"] == "store-crash"
                # The unstarted session is untouched and can finish.
                await c.write(fresh["txn"], "y", "alive")
                await c.commit(fresh["txn"])
                probe = await c.begin("r[x]", tenant="t")
                read = await c.read(probe["txn"], "x")
                assert read["value"] == "safe"
                await c.commit(probe["txn"])
                cert = await c.certify("t")
                assert cert["all_ok"] is True
                await c.close()

        asyncio.run(scenario())


class TestDrain:
    def test_drain_lets_inflight_finish_and_exits_zero(self):
        async def scenario():
            async with running_server(drain_timeout_s=2.0) as server:
                c = await ServiceClient.connect(server.host, server.port)
                begun = await c.begin("w[x]")
                await c.write(begun["txn"], "x", 1)
                drain_task = asyncio.create_task(server.drain("test"))
                await asyncio.sleep(0.05)
                with pytest.raises(ServiceError) as excinfo:
                    await c.begin("w[y]")
                assert excinfo.value.code == wire.ERR_DRAINING
                await c.commit(begun["txn"])  # inside the grace window
                report = await drain_task
                assert report["ok"] is True
                assert report["forced_aborts"] == 0
                assert server.exit_code == 0
                # The drain reports how long each certificate took and
                # whether SIGTERM-to-certified overran the deadline.
                assert report["over_deadline"] is False
                for record in report["certifications"]:
                    assert 0 <= record["certify_s"] < 2.0
                drained = server.metrics.histogram("service.drain.certify_ms")
                assert drained is not None and drained.count == 1
                assert "service_drain_certify_ms_bucket" in (
                    server.metrics.to_prometheus()
                )
                await c.close()

        asyncio.run(scenario())

    def test_drain_force_aborts_stragglers_and_still_certifies(self):
        async def scenario():
            async with running_server(drain_timeout_s=0.05) as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("t", "rsgt", {"x": 0})
                begun = await c.begin("w[x] w[x]", tenant="t")
                await c.write(begun["txn"], "x", "dirty")
                report = await server.drain("test")
                assert report["forced_aborts"] == 1
                assert report["ok"] is True
                assert server.exit_code == 0
                records = {
                    r["tenant"]: r for r in report["certifications"]
                }
                assert records["t"]["state_ok"] is True
                assert server.tenants["t"].store.snapshot() == {"x": 0}
                assert server.tenants["t"].store.wal_size() == 0

        asyncio.run(scenario())


class TestMultiTenancy:
    def test_tenants_are_isolated_namespaces(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                await c.tenant("blue", "rsgt", {"x": "blue-initial"})
                await c.tenant("green", "2pl", {"x": "green-initial"})
                b = await c.begin("w[x]", tenant="blue")
                await c.write(b["txn"], "x", "blue-write")
                await c.commit(b["txn"])
                g = await c.begin("r[x]", tenant="green")
                read = await c.read(g["txn"], "x")
                assert read["value"] == "green-initial"
                await c.commit(g["txn"])
                cert = await c.certify()
                assert cert["all_ok"] is True
                assert {
                    r["tenant"] for r in cert["certifications"]
                } == {"blue", "green"}
                await c.close()

        asyncio.run(scenario())

    def test_tenant_creation_is_idempotent_but_protocol_sticky(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                first = await c.tenant("t", "sgt")
                assert first["existing"] is False
                again = await c.tenant("t", "sgt")
                assert again["existing"] is True
                with pytest.raises(ServiceError) as excinfo:
                    await c.tenant("t", "2pl")
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                with pytest.raises(ServiceError) as excinfo:
                    await c.tenant("u", "no-such-protocol")
                assert excinfo.value.code == wire.ERR_BAD_REQUEST
                await c.close()

        asyncio.run(scenario())


class TestObservability:
    def test_health_and_metrics_ride_the_registry(self):
        async def scenario():
            async with running_server() as server:
                c = await ServiceClient.connect(server.host, server.port)
                begun = await c.begin("w[x]")
                await c.write(begun["txn"], "x", 1)
                await c.commit(begun["txn"])
                health = await c.health()
                assert health["status"] == "serving"
                assert health["uptime_s"] >= 0
                stats = health["tenants"]["default"]
                assert stats["committed"] == 1
                assert stats["wal_size"] == 0
                metrics = (await c.metrics())["metrics"]
                assert (
                    metrics["counters"]["service.begins{tenant=default}"]
                    == 1
                )
                assert (
                    metrics["counters"]["service.commits{tenant=default}"]
                    == 1
                )
                latency = metrics["observations"][
                    "service.commit_latency_us{tenant=default}"
                ]
                assert latency["count"] == 1 and latency["min"] >= 0
                # The scheduler's trace events land on the shared bus.
                assert len(server.trace_sink.events) > 0
                await c.close()

        asyncio.run(scenario())
