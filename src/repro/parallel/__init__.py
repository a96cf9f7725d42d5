"""Shared-nothing process-level parallel sweep engine.

The schedule-space sweeps (Figure 5 census, acceptance/containment
populations) and the simulation campaigns are the repo's dominant
wall-clock cost and are embarrassingly parallel once partitioned
deterministically.  This package provides:

* :class:`ParallelExecutor` — chunked map over a **warm persistent
  process pool** (workers initialized once per pool with the sweep
  contexts, kept alive across chunks, maps, and batches) with ordered
  reduce, bounded worker-crash retry, and a bit-identical ``jobs=1``
  serial fallback;
* :mod:`repro.parallel.registry` — the process-local context registry:
  sweep inputs (transactions, specs, populations) register once in the
  parent, ship once per pool build through the initializer, and tasks
  are flat ``(ctx_id, lo, hi)`` integer tuples resolved worker-side;
* ranked schedule-space partitioning
  (:func:`census_exhaustive_parallel`) — contiguous lexicographic-rank
  blocks via :func:`repro.workloads.enumerate.interleaving_blocks`,
  each worker entering the enumeration tree at its block-start rank;
* population partitioning (:func:`census_schedules`,
  :func:`check_containments_parallel`) — register the population
  once, split it into contiguous index windows, merge in order.

The batched simulation driver (including the in-worker-reduced
``summarize_batch``) lives in :mod:`repro.sim.batch`.  Everything is
reachable through ``jobs=`` keywords on the serial entry points
(``census``, ``census_exhaustive``, ``check_containments``,
``compare_protocols``) and ``--jobs`` on the CLI.
"""

from repro.parallel import registry
from repro.parallel.executor import (
    ParallelExecutor,
    plan_block_count,
    resolve_jobs,
    shutdown_pools,
)
from repro.parallel.sweeps import (
    census_exhaustive_parallel,
    census_schedules,
    check_containments_parallel,
)

__all__ = [
    "ParallelExecutor",
    "census_exhaustive_parallel",
    "census_schedules",
    "check_containments_parallel",
    "plan_block_count",
    "registry",
    "resolve_jobs",
    "shutdown_pools",
]
