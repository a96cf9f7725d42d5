"""Seeded inputs of the three workloads.

The service workloads are lists of :class:`Program` values the load
generator replays in order; the server only ever sees the generated
program text and cuts.  The offline workload is a corpus of
``(schedule, spec)`` pairs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Keys of ``abs-skew`` and accounts of ``rel-bank``.
KEYS = 64
#: Zipf exponent of the ``abs-skew`` key choice.
SKEW = 0.8
#: Programs per stratified block of ``abs-skew`` keys.
SKEW_BLOCK = 100
#: One ``rel-bank`` program in this many is an audit (the rest transfer).
AUDIT_EVERY = 10
#: Accounts one ``rel-bank`` audit reads.
AUDIT_ACCOUNTS = 8
#: Opening balance of every ``rel-bank`` account.
OPENING_BALANCE = 1000


@dataclass(frozen=True)
class Program:
    """One logical transaction of a service workload.

    ``ops`` lists ``(kind, key, delta)``: a read, or a write of the value
    last read from ``key`` plus ``delta`` (a read-modify-write).
    """

    text: str
    cuts: tuple[int, ...]
    ops: tuple[tuple[str, str, int], ...]


def _render(ops: tuple[tuple[str, str, int], ...]) -> str:
    return " ".join(f"{kind}[{key}]" for kind, key, _delta in ops)


def abs_skew(seed: int, count: int) -> tuple[dict[str, int], list[Program]]:
    """Single-key read-modify-writes ``r[k] w[k]``, no cuts, Zipf keys.

    The key choice is stratified: each block of :data:`SKEW_BLOCK`
    programs draws one key from every ``1/SKEW_BLOCK`` slice of the Zipf
    distribution, in seeded order.  Every block then holds the hot keys
    in the same proportions, so seeds differ in order and in which key
    is hot, not in how much conflict they carry.
    """
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(KEYS)]
    rng.shuffle(keys)
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** SKEW for rank in range(KEYS))
    )
    programs = []
    for block in range(0, count, SKEW_BLOCK):
        size = min(SKEW_BLOCK, count - block)
        points = [
            (slot + rng.random()) / size * cumulative[-1] for slot in range(size)
        ]
        rng.shuffle(points)
        for point in points:
            key = keys[min(bisect.bisect(cumulative, point), KEYS - 1)]
            ops = (("r", key, 0), ("w", key, 1))
            programs.append(Program(_render(ops), (), ops))
    return {key: 0 for key in keys}, programs


def rel_bank(seed: int, count: int) -> tuple[dict[str, int], list[Program]]:
    """Transfers ``r[a] w[a] r[b] w[b]`` cut after the debit, plus audits.

    A transfer exposes one breakpoint (after ``w[a]``) to every other
    transaction; an audit reads :data:`AUDIT_ACCOUNTS` accounts and is
    declared absolute.  Audits cost far more than transfers, and more
    the later they arrive, so the mix is stratified: each block of
    :data:`AUDIT_EVERY` programs holds exactly one audit, at a seeded
    position.  Seeds then differ in which accounts and offsets they
    pick, not in how much audit work they carry.
    """
    rng = random.Random(seed)
    accounts = [f"a{i}" for i in range(KEYS)]
    audits = {
        block + rng.randrange(AUDIT_EVERY)
        for block in range(0, count, AUDIT_EVERY)
    }
    programs = []
    for index in range(count):
        if index in audits:
            ops = tuple(
                ("r", account, 0)
                for account in rng.sample(accounts, AUDIT_ACCOUNTS)
            )
            programs.append(Program(_render(ops), (), ops))
            continue
        debit, credit = rng.sample(accounts, 2)
        amount = rng.randint(1, 100)
        ops = (
            ("r", debit, 0),
            ("w", debit, -amount),
            ("r", credit, 0),
            ("w", credit, amount),
        )
        programs.append(Program(_render(ops), (2,), ops))
    return {account: OPENING_BALANCE for account in accounts}, programs


SERVICE_WORKLOADS = {"abs-skew": abs_skew, "rel-bank": rel_bank}


def offline_corpus(seed: int, size: int) -> list:
    """``size`` random schedules, each with a ``random_spec`` spec.

    Three or four transactions of two to four operations over three to
    five objects, with each admissible cut kept at probability 0.5: about
    half the corpus is relatively serializable, so both the cycle search
    and the witness path carry weight.
    """
    from repro.specs.builders import random_spec
    from repro.workloads.random_schedules import (
        random_interleaving,
        random_transactions,
    )

    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        transactions = random_transactions(
            rng.randint(3, 4),
            (2, 4),
            rng.randint(3, 5),
            write_probability=0.5,
            seed=rng,
        )
        spec = random_spec(transactions, 0.5, seed=rng)
        corpus.append((random_interleaving(transactions, rng), spec))
    return corpus
