"""Process-local context registry for shared-nothing parallel sweeps.

The old parallel engine shipped pickled object graphs — transaction
lists, specs, whole sorted schedule populations — inside *every* chunk
task, so a 4-worker sweep spent more time serializing than sweeping
(BENCH_parallel.json recorded slowdowns).  This module inverts the
flow:

* the parent **registers** each sweep's shared inputs once
  (:func:`register`), content-addressed by the SHA-256 of their pickle
  so repeated sweeps over the same inputs reuse the same context id;
* the warm worker pool (:mod:`repro.parallel.executor`) ships the
  registered blobs **once per pool build** through the pool
  initializer (:func:`install`), never per task;
* tasks become flat integer tuples — ``(ctx_id, rank_lo, rank_hi)`` —
  that workers resolve against their process-local copy
  (:func:`resolve`).

Everything here is deliberately process-local state plus pure
functions: there is no shared memory, no manager process, and no
channel other than the one-shot initializer blob — the shared-nothing
discipline that keeps parallel results byte-identical to serial ones.

The inline (``jobs=1``) path never pickles anything: :func:`resolve`
falls back to the parent-side payload object directly.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any

__all__ = [
    "clear",
    "install",
    "payload_size",
    "register",
    "resolve",
    "snapshot",
    "version",
]

#: Contexts kept before the oldest is evicted.  Sweeps register their
#: context immediately before mapping tasks that reference it, so only
#: pathological interleavings of 60+ concurrent sweeps could observe an
#: eviction; the cap exists to bound parent memory across long sessions
#: (each population context can hold thousands of schedules).
MAX_CONTEXTS = 64

# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
#: ctx_id -> (payload object, pickled payload).  Insertion-ordered, so
#: eviction drops the oldest context first.
_PARENT: dict[int, tuple[Any, bytes]] = {}
#: content digest -> ctx_id (the dedup index).
_BY_DIGEST: dict[str, int] = {}
_NEXT_ID = 0
#: Bumped whenever the registered context set changes; the warm pool
#: compares it against the version its workers were initialized with
#: and rebuilds (re-shipping the snapshot once) on mismatch.
_VERSION = 0


def register(payload: Any) -> int:
    """Register a sweep context, returning its id.

    Content-addressed: registering an equal-pickling payload again
    returns the existing id without bumping the registry version, so a
    repeated sweep reuses the shipped blob.  The payload must be picklable (it crosses the process
    boundary exactly once, in the pool initializer).
    """
    global _NEXT_ID, _VERSION
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    ctx_id = _BY_DIGEST.get(digest)
    if ctx_id is not None:
        return ctx_id
    ctx_id = _NEXT_ID
    _NEXT_ID += 1
    _PARENT[ctx_id] = (payload, blob)
    _BY_DIGEST[digest] = ctx_id
    if len(_PARENT) > MAX_CONTEXTS:
        oldest = next(iter(_PARENT))
        del _PARENT[oldest]
        for key, value in list(_BY_DIGEST.items()):
            if value == oldest:
                del _BY_DIGEST[key]
    _VERSION += 1
    return ctx_id


def version() -> int:
    """The registry's mutation counter (pool staleness check)."""
    return _VERSION


def payload_size(ctx_id: int) -> int:
    """Pickled byte size of a registered context (bench accounting)."""
    return len(_PARENT[ctx_id][1])


def snapshot() -> bytes:
    """One blob holding every registered context, for the initializer.

    Inner payloads stay as their already-pickled bytes: the snapshot is
    a cheap concatenation, and workers unpickle a context lazily on
    first :func:`resolve`.
    """
    return pickle.dumps(
        (_VERSION, {ctx_id: blob for ctx_id, (_, blob) in _PARENT.items()}),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def clear() -> None:
    """Drop every context (tests; also invalidates warm pools).

    Context ids are never reused (the id counter survives), so a
    worker can never resolve a cleared id to a stale payload.
    """
    global _VERSION, _WORKER_BLOBS
    _PARENT.clear()
    _BY_DIGEST.clear()
    _WORKER_BLOBS = None
    _WORKER_PAYLOADS.clear()
    _VERSION += 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: ctx_id -> pickled payload, installed by the pool initializer.
#: ``None`` distinguishes "never installed" (the inline path) from an
#: installed-but-empty registry.
_WORKER_BLOBS: dict[int, bytes] | None = None
#: ctx_id -> unpickled payload (lazy).
_WORKER_PAYLOADS: dict[int, Any] = {}


def install(blob: bytes) -> None:
    """Pool initializer: adopt the parent's context snapshot.

    Runs once per worker process per pool build.
    """
    global _WORKER_BLOBS
    _, blobs = pickle.loads(blob)
    _WORKER_BLOBS = blobs
    _WORKER_PAYLOADS.clear()


def resolve(ctx_id: int) -> Any:
    """The payload registered under ``ctx_id``.

    In a worker process this unpickles the installed blob on first use
    and caches the object; in the parent (the ``jobs=1`` inline path,
    or a forked child that inherited parent memory before ``install``
    ran) it returns the registered object directly — zero pickling.
    """
    payload = _WORKER_PAYLOADS.get(ctx_id)
    if payload is not None:
        return payload
    if _WORKER_BLOBS is not None and ctx_id in _WORKER_BLOBS:
        payload = pickle.loads(_WORKER_BLOBS[ctx_id])
        _WORKER_PAYLOADS[ctx_id] = payload
        return payload
    entry = _PARENT.get(ctx_id)
    if entry is None:
        raise KeyError(
            f"context {ctx_id} is not installed in this process "
            "(stale pool or evicted context)"
        )
    return entry[0]

