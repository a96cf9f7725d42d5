"""E15 — shared-nothing parallel sweeps: scaling, payloads, reduction.

The parallel engine's claims, in the order this module checks them:

* **determinism first** — any job count produces bit-identical
  censuses and batch summaries, because the schedule space is split
  into contiguous lexicographic-rank blocks (each worker entering
  the enumeration at its block-start rank) and results merge in
  block order — a reassociation of the serial fold.
  Asserted here with ``pickle``-level byte equality on every run;
* **flat payloads** — sweep inputs register once with
  :mod:`repro.parallel.registry` and ship once per warm-pool build;
  what crosses the boundary per chunk is a ``(ctx_id, lo, hi)``
  integer tuple.  The payload table below measures pickled bytes per
  chunk against the old object-graph task shape and asserts the
  >= 10x reduction (this is deterministic, so it gates on every host);
* **in-worker reduction** — ``summarize_batch`` folds each chunk
  inside the worker and ships one mergeable summary, so result
  traffic is O(chunks) + 32 bytes/run instead of O(runs) full
  results; the table reports both sizes;
* **scaling** — wall clock by job count, recorded to
  ``BENCH_parallel.json``.  The >= 1.5x floor at 4 workers is asserted
  only when the machine actually has >= 4 cores; on smaller hosts the
  gate prints an explicit SKIPPED notice (never a silent pass) and the
  honest measured numbers — where parallel overhead without parallel
  hardware shows up as speedup < 1 — are still recorded.

Provenance guard: each recorded section carries the host's core
count, and a run on *fewer* cores than the committed baseline refuses
to overwrite it (a laptop smoke run must not clobber a 4-core
measurement).  ``BENCH_OUT_DIR`` (the CI perf-smoke job) routes
results to a scratch directory and bypasses the guard — the tracked
file is never touched in that mode.

Quick mode (``BENCH_QUICK=1``) shrinks the workloads, drops the
4-worker point, and skips writing the tracked JSON.
"""

import json
import os
import pickle
import time
from pathlib import Path

from benchmarks._report import emit, record_json
from repro.analysis.classes import census_exhaustive
from repro.analysis.tables import format_table
from repro.core.transactions import Transaction
from repro.parallel import registry
from repro.parallel.executor import plan_block_count
from repro.sim.batch import SimulationTask, run_batch, summarize_batch
from repro.specs.builders import uniform_spec
from repro.workloads.enumerate import count_interleavings, interleaving_blocks
from repro.workloads.longlived import LongLivedWorkload

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: Machine-readable scaling results, tracked across PRs (repo root).
BENCH_PARALLEL = (
    Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
)

#: Required speedup at 4 workers — asserted only on >=4-core hosts.
SPEEDUP_FLOOR = 1.5
#: Required per-chunk payload shrink vs the old object-graph tasks —
#: deterministic, so asserted on every host.
PAYLOAD_REDUCTION_FLOOR = 10.0
CORES = os.cpu_count() or 1

JOB_COUNTS = (1, 2) if QUICK else (1, 2, 4)

#: Consistency budget used by the census sweeps below.
BUDGET = 200_000


def _census_instance():
    if QUICK:
        txs = [
            Transaction.from_notation(1, "r[x] w[x] r[y]"),
            Transaction.from_notation(2, "w[x] r[y] w[y]"),
            Transaction.from_notation(3, "r[y] w[z]"),
        ]
    else:
        txs = [
            Transaction.from_notation(1, "r[x] w[x] r[y] w[z]"),
            Transaction.from_notation(2, "w[x] r[y] w[y]"),
            Transaction.from_notation(3, "r[y] w[z] r[x]"),
        ]
    return txs, uniform_spec(txs, 1)


def _sim_tasks():
    seeds = range(2) if QUICK else range(6)
    protocols = ("2pl", "sgt", "altruistic", "rel-locking", "rsgt")
    tasks = []
    for seed in seeds:
        bundle = LongLivedWorkload(
            n_objects=6, n_long=1, n_short=8, short_ops=2, seed=seed
        ).build()
        for name in protocols:
            tasks.append(
                SimulationTask(
                    transactions=tuple(bundle.transactions),
                    protocol=name,
                    spec=bundle.spec,
                    roles=dict(bundle.roles),
                    tag=(seed, name),
                )
            )
    return tasks


def _record(section: str, payload: dict) -> None:
    """Record ``payload``, refusing to downgrade a multi-core baseline.

    A run on fewer cores than the committed section's ``cores`` field
    must not overwrite it — the scaling numbers would silently degrade
    from measurements to noise.  ``BENCH_OUT_DIR`` runs write to the
    scratch directory and never touch the tracked file, so the guard
    only applies to direct full-mode runs.
    """
    if not os.environ.get("BENCH_OUT_DIR") and BENCH_PARALLEL.exists():
        try:
            committed = json.loads(BENCH_PARALLEL.read_text()).get(
                section, {}
            )
        except json.JSONDecodeError:
            committed = {}
        baseline_cores = committed.get("cores", 0)
        if baseline_cores > CORES:
            emit(
                f"E15 {section} — NOT RECORDED",
                f"this host has {CORES} core(s) but the committed "
                f"baseline was measured on {baseline_cores}; refusing "
                "to overwrite a multi-core measurement with a "
                "fewer-core run.  Re-measure on a machine with >= "
                f"{baseline_cores} cores to update it.",
            )
            return
    record_json(section, payload, path=BENCH_PARALLEL, quick=QUICK)


def _gate_speedup(label: str, speedups: dict) -> None:
    """Assert the 4-worker floor, or skip LOUDLY on small hosts."""
    if QUICK:
        return
    if CORES >= 4:
        assert speedups["4"] >= SPEEDUP_FLOOR, (
            f"{label}: 4-worker speedup {speedups['4']:.2f}x is below "
            f"the {SPEEDUP_FLOOR}x floor on a {CORES}-core host"
        )
    else:
        emit(
            f"E15 speedup gate ({label}) — SKIPPED",
            f"host has {CORES} core(s), the >= {SPEEDUP_FLOOR}x floor "
            "at 4 workers is asserted only on >= 4-core machines.  "
            "Measured numbers (parallel overhead without parallel "
            "hardware) are still recorded honestly above.",
        )


def _scaling_rows(timings):
    serial = timings["1"]
    rows, speedups = [], {}
    for jobs, elapsed in timings.items():
        speedups[jobs] = serial / elapsed
        rows.append([jobs, f"{elapsed * 1000.0:.0f}", f"{speedups[jobs]:.2f}x"])
    return rows, speedups


def test_report_parallel_census(benchmark):
    """Exhaustive census wall-clock by job count; bytes must match."""
    txs, spec = _census_instance()

    def compute():
        timings, blobs = {}, {}
        for jobs in JOB_COUNTS:
            start = time.perf_counter()
            result = census_exhaustive(txs, spec, jobs=jobs)
            timings[str(jobs)] = time.perf_counter() - start
            blobs[str(jobs)] = pickle.dumps(result)
        return timings, blobs

    timings, blobs = benchmark.pedantic(compute, rounds=1, iterations=1)
    for jobs, blob in blobs.items():
        assert blob == blobs["1"], (
            f"jobs={jobs} census is not byte-identical to serial"
        )

    rows, speedups = _scaling_rows(timings)
    population = count_interleavings(txs)
    emit(
        f"E15a — exhaustive census over {population} interleavings, "
        f"warm pool + flat rank blocks ({CORES} cores)",
        format_table(["jobs", "wall (ms)", "speedup"], rows),
    )
    _record(
        "census_scaling",
        {
            "config": "3 txs (4+3+3 ops), uniform_spec(1), "
                      f"population={population}",
            "cores": CORES,
            "wall_ms": {
                k: round(v * 1000.0, 1) for k, v in timings.items()
            },
            "speedup": {k: round(v, 2) for k, v in speedups.items()},
        },
    )
    _gate_speedup("census", speedups)


def test_report_parallel_simulation_batch(benchmark):
    """In-worker-reduced simulation batch; summaries must match."""
    tasks = _sim_tasks()

    def compute():
        timings, summaries = {}, {}
        for jobs in JOB_COUNTS:
            start = time.perf_counter()
            summary = summarize_batch(tasks, jobs=jobs)
            timings[str(jobs)] = time.perf_counter() - start
            summaries[str(jobs)] = summary
        return timings, summaries

    timings, summaries = benchmark.pedantic(compute, rounds=1, iterations=1)
    serial_bytes = json.dumps(summaries["1"].to_dict(), sort_keys=True)
    for jobs, summary in summaries.items():
        assert json.dumps(summary.to_dict(), sort_keys=True) == (
            serial_bytes
        ), f"jobs={jobs} batch summary differs from serial"
    assert summaries["1"].errors == 0

    rows, speedups = _scaling_rows(timings)
    emit(
        f"E15b — simulation batch, {len(tasks)} runs, in-worker "
        f"reduction (seed x protocol, {CORES} cores)",
        format_table(["jobs", "wall (ms)", "speedup"], rows),
    )
    _record(
        "simulation_batch_scaling",
        {
            "config": "LongLivedWorkload(1 long + 8 shorts), "
                      f"{len(tasks)} tasks, summarize_batch",
            "cores": CORES,
            "wall_ms": {
                k: round(v * 1000.0, 1) for k, v in timings.items()
            },
            "speedup": {k: round(v, 2) for k, v in speedups.items()},
        },
    )
    _gate_speedup("simulation batch", speedups)


def test_report_payload_bytes():
    """Pickled bytes per chunk: flat tuples vs the old object graphs.

    The old engine shipped ``(transactions, spec, lo, hi, budget)`` —
    or a slice of SimulationTask objects — inside *every* chunk task.
    The flat engine registers that context once (``context bytes``
    ship once per pool build) and each chunk is a
    ``(ctx_id, lo, hi)`` tuple.  Deterministic, so the >= 10x floor
    gates on every host.  Also reported: the in-worker-reduction win,
    one pickled BatchSummary vs the full pickled result list.
    """

    def chunk_bytes(payload):
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    # -- census rank sweep ------------------------------------------------
    txs, spec = _census_instance()
    total = count_interleavings(txs)
    blocks = max(2, plan_block_count(total, 4, min_block=1))
    windows = interleaving_blocks(txs, blocks)
    ctx = registry.register((txs, spec, BUDGET))
    census_flat = max(
        chunk_bytes((ctx, lo, hi)) for lo, hi in windows
    )
    census_legacy = max(
        chunk_bytes((txs, spec, lo, hi, BUDGET)) for lo, hi in windows
    )
    census_context = registry.payload_size(ctx)

    # -- simulation batch -------------------------------------------------
    tasks = _sim_tasks()
    sim_ctx = registry.register(tuple(tasks))
    half = len(tasks) // 2
    sim_flat = max(
        chunk_bytes((sim_ctx, 0, half)),
        chunk_bytes((sim_ctx, half, len(tasks))),
    )
    sim_legacy = max(
        chunk_bytes(tuple(tasks[:half])),
        chunk_bytes(tuple(tasks[half:])),
    )
    sim_context = registry.payload_size(sim_ctx)

    # -- in-worker reduction: result traffic ------------------------------
    results = run_batch(tasks, jobs=1)
    summary = summarize_batch(tasks, jobs=1)
    results_bytes = chunk_bytes(results)
    summary_bytes = chunk_bytes(summary)

    census_reduction = census_legacy / census_flat
    sim_reduction = sim_legacy / sim_flat
    emit(
        f"E15c — pickled bytes per chunk task, flat vs object graph "
        f"({CORES} cores)",
        format_table(
            ["sweep", "legacy B/chunk", "flat B/chunk", "reduction",
             "context B (once/pool)"],
            [
                ["census rank block", census_legacy, census_flat,
                 f"{census_reduction:.0f}x", census_context],
                ["simulation window", sim_legacy, sim_flat,
                 f"{sim_reduction:.0f}x", sim_context],
            ],
        )
        + f"\nresult traffic, {len(tasks)}-run batch: "
        f"{results_bytes} B as full results vs {summary_bytes} B as "
        "one in-worker-reduced summary",
    )
    assert census_reduction >= PAYLOAD_REDUCTION_FLOOR, (
        f"census chunk payload only shrank {census_reduction:.1f}x"
    )
    assert sim_reduction >= PAYLOAD_REDUCTION_FLOOR, (
        f"simulation chunk payload only shrank {sim_reduction:.1f}x"
    )
    assert summary_bytes < results_bytes

    _record(
        "payload_bytes",
        {
            "cores": CORES,
            "census": {
                "legacy_chunk_bytes": census_legacy,
                "flat_chunk_bytes": census_flat,
                "reduction": round(census_reduction, 1),
                "context_bytes": census_context,
            },
            "simulation": {
                "legacy_chunk_bytes": sim_legacy,
                "flat_chunk_bytes": sim_flat,
                "reduction": round(sim_reduction, 1),
                "context_bytes": sim_context,
            },
            "result_traffic": {
                "full_results_bytes": results_bytes,
                "summary_bytes": summary_bytes,
            },
        },
    )
