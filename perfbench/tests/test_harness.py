"""Tests of the benchmark harness itself (not of the program it measures)."""

import asyncio
import json
import math
import os
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import harness
import launcher
import run
import service_bench
import workloads

ROOT = Path(__file__).resolve().parents[2]


# -- "highest percentile with >= 10 samples beyond it" ----------------------
@pytest.mark.parametrize(
    ("n", "percentile", "beyond"),
    [
        (1500, 99.0, 15),
        (1000, 99.0, 10),
        (999, 95.0, 49),
        (400, 95.0, 20),
        (100, 90.0, 10),
        (20, 50.0, 10),
        (5, 50.0, 2),
    ],
)
def test_tail_is_highest_ladder_step_with_ten_beyond(n, percentile, beyond):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    chosen, value, left = harness.tail_percentile(values)
    assert (chosen, left) == (percentile, beyond)
    assert value == n - beyond
    assert sum(1 for v in values if v > value) == beyond


def test_tail_never_picks_a_step_with_fewer_than_ten_beyond():
    for n in range(20, 3000, 37):
        chosen, _value, left = harness.tail_percentile([float(i) for i in range(n)])
        assert left >= harness.TAIL_MIN_BEYOND
        for higher in (p for p in harness.TAIL_LADDER if p > chosen):
            beyond = n - math.ceil(Fraction(str(higher)) * n / 100)
            assert beyond < harness.TAIL_MIN_BEYOND


# -- first/last tenth slicing ------------------------------------------------
def _tenth_rates(times, start, end):
    first, last, k = harness.tenth_windows(times, start, end)
    return (first[1] - first[0]) / k, (last[1] - last[0]) / k


def test_tenths_are_counted_in_commits():
    times = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(times)
    first, last, k = harness.tenth_windows(times, 0.0, 100.0)
    assert (first, last, k) == ((0.0, 10.0), (90.0, 100.0), 10)


def test_tenths_see_a_slowdown_with_age():
    # 100 commits: the first 90 one second apart, the last 10 ten apart.
    times = [float(i) for i in range(1, 91)] + [90.0 + 10 * i for i in range(1, 11)]
    early, late = _tenth_rates(times, 0.0, times[-1])
    assert early == pytest.approx(1.0)
    assert late == pytest.approx(10.0)


def test_tenths_of_a_tiny_run_use_one_commit():
    early, late = _tenth_rates([2.0, 3.0, 7.0], 0.0, 7.0)
    assert early == pytest.approx(2.0)
    assert late == pytest.approx(4.0)


# -- host-speed calibration -------------------------------------------------
def test_host_scale_maps_calibration_to_the_reference_host():
    ref = harness.CALIBRATION_REFERENCE_S
    assert harness.host_scale([ref, ref]) == pytest.approx(1.0)
    # A host running at half speed doubles the samples: times halve.
    assert harness.host_scale([2 * ref]) == pytest.approx(0.5)
    assert harness.host_scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert harness.calibrate() > 0


def test_sampler_window_uses_its_own_samples_or_the_nearest():
    ref = harness.CALIBRATION_REFERENCE_S
    sampler = harness.HostSampler()
    sampler.samples = [(float(t), ref * (1 if t < 10 else 2)) for t in range(20)]
    assert sampler.scale(0.0, 9.0) == pytest.approx(1.0)
    assert sampler.scale(10.0, 19.0) == pytest.approx(0.5)
    # Too few samples inside: the three nearest the middle (9, 10, 11).
    assert sampler.scale(10.2, 10.4) == pytest.approx(0.5)
    assert sampler.scale(8.6, 8.8) == pytest.approx(1.0)


def test_sampler_samples_in_the_background():
    with harness.HostSampler() as sampler:
        time.sleep(0.2)
    count = len(sampler.samples)
    assert count >= 3
    time.sleep(0.05)
    assert len(sampler.samples) == count
    starts = [at for at, _taken in sampler.samples]
    assert starts == sorted(starts)


def test_offline_metrics_scale_each_pass_by_its_own_calibration():
    import offline_bench

    # Two passes of 2 schedules; the second ran on a host twice as slow,
    # so its scale of 0.5 brings it back to the first pass's time.
    result = offline_bench.OfflineRun(
        setups=[0.2, 0.1, 0.3],
        latencies=[0.001, 0.003, 0.002, 0.006],
        pass_times=[0.004, 0.008],
        pass_scales=[1.0, 0.5],
        transactions=12,
        rss_mb=30.0,
    )
    metrics = offline_bench.end_to_end(result)
    assert metrics["drain_s"] == pytest.approx(0.004)
    assert metrics["schedules_per_s"] == pytest.approx(500.0)
    assert metrics["tx_per_s"] == pytest.approx(1500.0)
    assert metrics["early_ms_per_tx"] == pytest.approx(2.0)
    assert metrics["late_ms_per_tx"] == pytest.approx(2.0)
    assert metrics["commit_p50_ms"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.2)


# -- closed-loop multiplexing -------------------------------------------------
class _OrderedServer:
    """A loopback NDJSON server that answers each line in order, after a
    short random delay, and records connections and concurrency."""

    def __init__(self):
        self.connections = 0
        self.in_flight = 0
        self.peak = 0

    async def handle(self, reader, writer):
        self.connections += 1
        rng = random.Random(self.connections)
        while line := await reader.readline():
            request = json.loads(line)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            await asyncio.sleep(rng.random() / 1000)
            self.in_flight -= 1
            writer.write(json.dumps({"ok": True, "id": request["id"], "echo": request["n"]}).encode() + b"\n")
            await writer.drain()
        writer.close()


def test_closed_loop_multiplexes_sessions_over_few_connections():
    fake = _OrderedServer()
    done: list[int] = []
    active: set[int] = set()
    peak_active = 0

    async def scenario():
        nonlocal peak_active
        server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        conns = [await harness.MuxConnection.open(host, port) for _ in range(2)]

        async def one(conn, index):
            nonlocal peak_active
            assert index not in active
            active.add(index)
            peak_active = max(peak_active, len(active))
            for step in range(3):
                reply = await conn.call("echo", n=index * 10 + step)
                assert reply["echo"] == index * 10 + step
            active.discard(index)
            done.append(index)

        await harness.closed_loop(conns, 8, 50, one)
        for conn in conns:
            await conn.close()
        server.close()
        await server.wait_closed()
        return conns

    conns = asyncio.run(asyncio.wait_for(scenario(), 30))
    assert sorted(done) == list(range(50))
    assert fake.connections == 2
    # Each of the 8 closed loops has at most one transaction in flight.
    assert peak_active <= 8
    assert fake.peak <= 8
    assert sum(len(v) for conn in conns for v in conn.rtt.values()) == 150


def test_connection_count_never_exceeds_cores():
    assert 1 <= service_bench.connection_count() <= (os.cpu_count() or 1)
    assert service_bench.connection_count() <= service_bench.MAX_CONNECTIONS


# -- the traced launcher leaves the untraced path untouched -------------------
def _target_state():
    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _name, _mode in launcher._targets()
    }


def test_untraced_command_is_the_plain_cli():
    command = service_bench.server_command(7)
    assert command[1:] == ["-m", "repro", "serve", "--seed", "7"]
    assert not any("launcher" in part for part in command)
    traced = service_bench.server_command(7, Path("ledger.json"), 10)
    assert traced[1].endswith("launcher.py")


def test_install_then_uninstall_restores_every_method():
    before = _target_state()
    saved = launcher.install(launcher.Ledger(10))
    try:
        after = _target_state()
        assert all(after[key] is not before[key] for key in before)
    finally:
        launcher.uninstall(saved)
    assert _target_state() == before


def test_launcher_serves_through_the_cli_entry_point(tmp_path, monkeypatch):
    import repro.cli

    calls = []

    def fake_cli(argv):
        calls.append((argv, _target_state() != before))
        return 3

    before = _target_state()
    monkeypatch.setattr(repro.cli, "main", fake_cli)
    port, ledger = tmp_path / "port", tmp_path / "ledger.json"
    code = launcher.main([
        "--port-file", str(port), "--ledger", str(ledger),
        "--expected-tx", "10", "--tenant", "t", "--seed", "7",
    ])
    # The plain ``repro serve`` command line, run with the ledger installed;
    # its exit code passes through, and every method is restored after.
    assert calls == [(["serve", "--seed", "7", "--port-file", str(port)], True)]
    assert code == 3
    assert _target_state() == before
    assert json.loads(ledger.read_text())["committed"] == 0


def test_ledger_buckets_calls_by_age_decile():
    from repro.service.tenant import Tenant

    ledger = launcher.Ledger(4, "t")
    saved = launcher.install(ledger)
    try:
        tenant, other = Tenant("t", "rsgt", {"x": 0}), Tenant("o", "rsgt", {"x": 0})
        for tx_id in range(1, 5):
            for owner in (other, tenant):
                session = owner.new_session(tx_id, "r[x] w[x]", (), now=0.0, deadline=1e9)
                owner.step(session)
                owner.step(session, value=tx_id)
                owner.commit(session)
        assert other.certify().ok
        assert tenant.certify().ok
    finally:
        launcher.uninstall(saved)
    data = ledger.to_dict()
    steps = data["timed"]["tenant.step"]
    # Only tenant "t" is measured.  4 expected commits over 10 deciles:
    # ages 0, 1, 2, 3 land in deciles 0, 2, 5, 7; the drain bucket (last)
    # holds only certification work.
    assert [row[0] for row in steps] == [2, 0, 2, 0, 0, 2, 0, 2, 0, 0, 0]
    assert data["timed"]["tenant.certify"][-1][0] == 1
    assert data["timed"]["rsg.build"][-1][0] == 1
    assert data["committed"] == 4
    assert data["certifier"]["fallback_rebuilds"] == 0
    assert data["gauges"]["scheduler.history_len"][-1] == 8


# -- BENCHMARK.json agrees with the runner -----------------------------------
def test_benchmark_json_matches_runner_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_workload_inputs_depend_only_on_the_seed():
    assert workloads.rel_bank(3, 50) == workloads.rel_bank(3, 50)
    assert workloads.abs_skew(3, 50) != workloads.abs_skew(4, 50)
    _initial, programs = workloads.rel_bank(5, 1000)
    transfers = [p for p in programs if p.cuts]
    assert all(p.cuts == (2,) and len(p.ops) == 4 for p in transfers)
    for block in range(0, 1000, 10):
        audits = [p for p in programs[block:block + 10] if not p.cuts]
        assert len(audits) == 1 and len(audits[0].ops) == workloads.AUDIT_ACCOUNTS


def test_abs_skew_blocks_hold_the_zipf_shares():
    weights = [1.0 / (rank + 1) ** workloads.SKEW for rank in range(workloads.KEYS)]
    hottest = weights[0] / sum(weights) * workloads.SKEW_BLOCK
    hot_keys = set()
    for seed in (1, 2, 3):
        _initial, programs = workloads.abs_skew(seed, 1000)
        assert all(p.ops[0][1] == p.ops[1][1] and not p.cuts for p in programs)
        for block in range(0, 1000, workloads.SKEW_BLOCK):
            counts = Counter(p.ops[0][1] for p in programs[block:block + workloads.SKEW_BLOCK])
            key, most = counts.most_common(1)[0]
            assert abs(most - hottest) <= 1
        hot_keys.add(key)
    # The seed, not the key's name, decides which key is hot.
    assert len(hot_keys) > 1
