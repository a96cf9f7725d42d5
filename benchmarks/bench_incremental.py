"""E13 — incremental RSG certification vs the seed's copy-and-rescan.

The seed certifier paid O(V+E) per granted operation: copy the whole
graph, add the new arcs, rerun a full DFS.  The incremental engine
(`IncrementalRsg` on a Pearce–Kelly ordered graph) certifies each
operation against the live graph in amortized sub-linear time.  This
module measures the three shapes the claim rests on and records them in
``BENCH_rsg.json`` (machine-readable, tracked across PRs) against the
baselines recorded from the seed revision:

* RSGT protocol simulation scaling as the short-transaction count grows
  (the certifier dominates the sim's cost at the larger sizes);
* offline RSG build + acyclicity test at growing schedule sizes
  (id-space arc masks + lazy graph materialization);
* per-operation feed latency as the history grows.  Its feed turns
  cyclic early (see :func:`test_report_per_op_latency`), so past the
  first window it times ``push_uncertified``, not certification.

Quick mode (``BENCH_QUICK=1``, used by the CI smoke job) drops the
largest configurations and the speedup assertions; the full run asserts
the >=5x improvement at the largest size of each suite.
"""

import gc
import os
import statistics
import time

from benchmarks._report import (
    emit,
    emit_json,
    load_baselines,
    load_preflat,
    record_json,
)
from repro.analysis.tables import format_table
from repro.core.rsg import IncrementalRsg, RelativeSerializationGraph
from repro.protocols import RSGTScheduler
from repro.sim.runner import simulate_bundle
from repro.specs.builders import uniform_spec
from repro.workloads.longlived import LongLivedWorkload
from repro.workloads.random_schedules import (
    random_interleaving,
    random_transactions,
)

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: Required improvement over the seed at the largest configuration.
SPEEDUP_FLOOR = 5.0

RSGT_SIZES = (5, 10) if QUICK else (5, 10, 20, 40)
RSG_SIZES = ((4, 5), (8, 8)) if QUICK else (
    (4, 5), (8, 8), (12, 10), (16, 12), (20, 15)
)


def _longlived(n_short, seed=0):
    return LongLivedWorkload(
        n_objects=6, n_long=1, n_short=n_short, short_ops=2, seed=seed
    ).build()


def _time(fn, repetitions):
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return (time.perf_counter() - start) / repetitions * 1000.0


def test_report_rsgt_scaling(benchmark):
    """RSGT sim wall-clock by short count, vs the seed baselines."""
    baselines = load_baselines()["rsgt_longlived_ms"]

    def compute():
        results = {}
        for n_short in RSGT_SIZES:
            bundle = _longlived(n_short)
            repetitions = 3 if n_short <= 20 else 1

            def run(bundle=bundle):
                result = simulate_bundle(bundle, RSGTScheduler(bundle.spec))
                assert result.committed == len(bundle.transactions)

            results[str(n_short)] = _time(run, repetitions)
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for key, elapsed in results.items():
        seed_ms = baselines.get(key)
        speedup = seed_ms / elapsed if seed_ms else None
        rows.append(
            [key, f"{elapsed:.1f}",
             "-" if seed_ms is None else f"{seed_ms:.1f}",
             "-" if speedup is None else f"{speedup:.1f}x"]
        )
    emit(
        "E13a — RSGT long-lived sim (1 long + N shorts), incremental "
        "certifier vs seed",
        format_table(["shorts", "now (ms)", "seed (ms)", "speedup"], rows),
    )
    largest = str(RSGT_SIZES[-1])
    payload = {
        "config": "LongLivedWorkload(n_objects=6, n_long=1, short_ops=2)",
        "now_ms": {k: round(v, 2) for k, v in results.items()},
        "seed_ms": {k: baselines[k] for k in results if k in baselines},
        "speedup_at_largest": round(
            baselines[largest] / results[largest], 2
        ) if largest in baselines else None,
    }
    if not QUICK:  # quick smoke runs don't overwrite the tracked results
        emit_json("rsgt_longlived", payload)
        assert payload["speedup_at_largest"] >= SPEEDUP_FLOOR


def _instance(n_transactions, ops, seed=0):
    txs = random_transactions(
        n_transactions, ops, n_objects=max(2, n_transactions),
        write_probability=0.3, seed=seed,
    )
    spec = uniform_spec(txs, max(1, ops // 3))
    schedule = random_interleaving(txs, seed=seed + 1)
    return txs, spec, schedule


def test_report_rsg_build_scaling(benchmark):
    """Offline RSG build + acyclicity test, vs the seed baselines."""
    baselines = load_baselines()["rsg_build_ms"]

    def compute():
        results = {}
        for n_tx, ops in RSG_SIZES:
            _txs, spec, schedule = _instance(n_tx, ops)

            def run(spec=spec, schedule=schedule):
                RelativeSerializationGraph(schedule, spec).is_acyclic

            results[f"{n_tx}x{ops}"] = _time(run, repetitions=5)
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for key, elapsed in results.items():
        seed_ms = baselines.get(key)
        speedup = seed_ms / elapsed if seed_ms else None
        rows.append(
            [key, f"{elapsed:.2f}",
             "-" if seed_ms is None else f"{seed_ms:.2f}",
             "-" if speedup is None else f"{speedup:.1f}x"]
        )
    emit(
        "E13b — RSG build + acyclicity (id-space arcs, lazy graph) vs seed",
        format_table(
            ["txs x ops", "now (ms)", "seed (ms)", "speedup"], rows
        ),
    )
    largest = "{}x{}".format(*RSG_SIZES[-1])
    payload = {
        "config": "random_transactions(write_probability=0.3), "
                  "uniform_spec(ops//3), random_interleaving",
        "now_ms": {k: round(v, 3) for k, v in results.items()},
        "seed_ms": {k: baselines[k] for k in results if k in baselines},
        "speedup_at_largest": round(
            baselines[largest] / results[largest], 2
        ) if largest in baselines else None,
    }
    if not QUICK:
        emit_json("rsg_build", payload)
        assert payload["speedup_at_largest"] >= SPEEDUP_FLOOR


#: Latency-feed repetitions for the per-window medians.
LATENCY_REPS = 5 if QUICK else 9

#: Required improvement over the dict-of-sets engine at history >= 200.
FLAT_SPEEDUP_FLOOR = 2.0


def _certified_prefix(txs, spec, operations):
    """How many leading operations of the feed ``try_push`` accepts."""
    engine = IncrementalRsg(spec)
    for tx in txs:
        engine.add_transaction(tx)
    for n, op in enumerate(operations):
        if not engine.try_push(op):
            return n
    return len(operations)


def test_report_per_op_latency(benchmark):
    """Per-operation feed latency as the history grows.

    Measured in windows over one long serial feed: each operation goes
    through ``try_push`` while the prefix is acyclic and through
    ``push_uncertified`` once a push was refused.

    **What the steady windows time.**  This feed (20 txs x 15 ops,
    seed 0) is refused at operation 37 of 300, inside the first window
    of 50.  So every window after the first — every history length the
    gate reads — times ``push_uncertified`` alone: per-object tracker
    updates, with no arc derivation, no Pearce-Kelly insertion and no
    cycle test.  The gate compares that against the dict engine's
    recorded per-op figures (``preflat_rsg.json``, recorded on the same
    feed with the same windows); it does not measure certification
    latency at a long history.  The baselines cannot be re-recorded
    (the dict engine is gone), so the feed stays as it is.

    Methodology: GC is pinned around the timed sections and each window
    reports the **median over LATENCY_REPS independent feeds** — a
    single pass let one collector pause or scheduler blip land in one
    window and print a spurious latency cliff (the recorded 2.94 us
    outlier at history 200 against 1.5-1.9 everywhere around it).  Two
    untimed warmup feeds run first (lazy imports, allocator growth,
    bytecode specialization).

    The first window is reported separately as engine setup rather than
    folded into the latency curve: it absorbs the one-time per-engine
    costs (every transaction's structures are built on its first
    operation, and all of them first appear within the opening window).

    The same configuration runs in quick mode — the feed is milliseconds
    of work — so the >=2x gate against the recorded dict-of-sets
    baselines (history >= 200) holds in CI smoke runs too.
    """
    n_tx, ops = 20, 15
    txs, spec, schedule = _instance(n_tx, ops)
    operations = schedule.operations
    window = max(1, len(operations) // 6)

    def feed(engine):
        for tx in txs:
            engine.add_transaction(tx)

    def one_pass():
        engine = IncrementalRsg(spec)
        feed(engine)
        windows = []
        position = 0
        while position < len(operations):
            chunk = operations[position:position + window]
            start = time.perf_counter()
            for op in chunk:
                if not (engine.acyclic and engine.try_push(op)):
                    engine.push_uncertified(op)
            elapsed = time.perf_counter() - start
            windows.append(
                (position + len(chunk), elapsed / len(chunk) * 1e6)
            )
            position += len(chunk)
        return windows

    def compute():
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                one_pass()
            passes = [one_pass() for _ in range(LATENCY_REPS)]
        finally:
            if gc_was_enabled:
                gc.enable()
        return [
            (
                per_window[0][0],
                statistics.median(us for _, us in per_window),
            )
            for per_window in zip(*passes)
        ]

    windows = benchmark.pedantic(compute, rounds=1, iterations=1)
    setup_window, steady = windows[0], windows[1:]
    certified = _certified_prefix(txs, spec, operations)
    preflat = load_preflat()["per_op_us_by_history"]
    rows = [
        [setup_window[0], f"{setup_window[1]:.2f} (engine setup)", "-"]
    ]
    for length, per_op in steady:
        base = preflat.get(str(length))
        rows.append(
            [
                length,
                f"{per_op:.2f}",
                "-" if base is None else f"{base / per_op:.1f}x",
            ]
        )
    emit(
        "E13c — per-operation feed latency by history length "
        f"(median of {LATENCY_REPS} feeds, GC pinned; try_push certifies "
        f"ops 1-{certified} of {len(operations)}, later ops are "
        "push_uncertified only)",
        format_table(
            ["history length", "us/op (window median)", "vs dict engine"],
            rows,
        )
        + f"\ngate: >= {FLAT_SPEEDUP_FLOOR:.0f}x at history >= 200",
    )
    record_json(
        "per_op_latency",
        {
            "config": f"{n_tx} txs x {ops} ops, window={window}, "
                      f"median of {LATENCY_REPS}",
            "setup_window_us_per_op": round(setup_window[1], 2),
            "us_per_op_by_history": {
                str(length): round(per_op, 2) for length, per_op in steady
            },
        },
        quick=QUICK,
    )
    for length, per_op in steady:
        base = preflat.get(str(length))
        if base is None or length < 200:
            continue
        assert per_op * FLAT_SPEEDUP_FLOOR <= base, (
            f"per-op latency at history {length} is {per_op:.2f} us; "
            f"the flat engine must be >= {FLAT_SPEEDUP_FLOOR:.0f}x "
            f"faster than the dict engine's recorded {base:.2f} us"
        )
