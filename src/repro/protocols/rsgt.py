"""Relative serialization graph testing (RSGT) — the paper's protocol.

Section 3 closes by noting the RSG "can be used as the basis for a
concurrency control protocol similar to serialization graph testing".
This scheduler is that protocol:

* transactions declare their programs on admission (the spec is per
  instance, so atomic units and ``PushForward``/``PullBackward`` targets
  are known statically — including F-arc targets that have not executed
  yet);
* the RSG is maintained over *all declared operations* of admitted
  transactions, with D-arcs derived from the dependencies among the
  operations granted so far;
* a request is granted iff appending it keeps the RSG acyclic, and
  aborts the requester otherwise.

Why abort rather than wait: dependencies only grow as the prefix grows
(new operations append at the end and can only add arcs), so a request
that closes a cycle now would close it forever — waiting cannot help.

By Theorem 1 the final committed history is relatively serializable; the
test suite asserts that over many simulated runs, and experiment E10
measures the concurrency gained over 2PL/SGT on long-lived workloads.

The incremental graph machinery lives in
:class:`~repro.protocols.certifier.RsgCertifier`, shared with the
certified locking protocol.
"""

from __future__ import annotations

from repro.core.atomicity import RelativeAtomicitySpec
from repro.core.operations import Operation
from repro.core.transactions import Transaction
from repro.errors import ProtocolError
from repro.graphs.digraph import DiGraph
from repro.obs.bus import TraceBus
from repro.protocols.base import Outcome, Scheduler
from repro.protocols.certifier import RsgCertifier

__all__ = ["RSGTScheduler"]


class RSGTScheduler(Scheduler):
    """Online RSG testing under a relative atomicity specification.

    Args:
        spec: the relative atomicity specification covering every
            transaction that will be admitted.
    """

    name = "rsgt"

    def __init__(self, spec: RelativeAtomicitySpec) -> None:
        super().__init__()
        self._spec = spec
        self._certifier = RsgCertifier(spec)

    @property
    def spec(self) -> RelativeAtomicitySpec:
        """The specification the protocol enforces."""
        return self._spec

    @property
    def _graph(self) -> DiGraph:
        """The current RSG (exposed for tests and diagnostics)."""
        return self._certifier.graph

    def _on_admit(self, transaction: Transaction) -> None:
        if transaction.tx_id not in self._spec.transactions:
            raise ProtocolError(
                f"T{transaction.tx_id} is not covered by the spec"
            )
        if self._spec.transactions[transaction.tx_id] != transaction:
            raise ProtocolError(
                f"declared T{transaction.tx_id} differs from the spec's"
            )
        self._certifier.declare(transaction)

    def _decide(self, op: Operation) -> Outcome:
        if self._certifier.try_certify(op):
            return Outcome.grant()
        return Outcome.abort(
            op.tx, reason=self._certifier.rejection_reason()
        )

    def _on_bus_change(self, bus: TraceBus) -> None:
        self._certifier.bus = bus

    def _rsg_summary(self) -> dict[str, object]:
        return self._certifier.rsg_summary()

    def _on_finish(self, tx_id: int) -> None:
        self._certifier.commit(tx_id)

    def _on_remove(self, tx_id: int) -> None:
        self._certifier.forget(tx_id)

    def _on_discard(self, tx_id: int) -> None:
        self._certifier.undeclare(tx_id)
