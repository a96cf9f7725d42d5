"""Online cycle detection via incremental topological ordering.

The online protocols certify one operation at a time against a graph
that only ever grows at the end of the granted history.  The seed
implementation paid O(V + E) per granted operation: copy the whole RSG,
add the tentative arcs, run a full DFS.  This module replaces that with
the dynamic topological sort of Pearce & Kelly ("A Dynamic Topological
Sort Algorithm for Directed Acyclic Graphs", JEA 2006): the graph
maintains a valid topological order at all times, and inserting an arc
``u -> v`` costs

* O(1) when ``ord(u) < ord(v)`` — the order already proves no cycle
  through the new arc (the overwhelmingly common case here, because
  operations append in roughly topological order);
* otherwise a DFS bounded to the *affected region* — the nodes whose
  order index lies in ``(ord(v), ord(u))`` — followed by a local
  reindexing of just those nodes;
* when the bounded forward search reaches ``u``, the arc closes a cycle:
  the insert is refused, the graph is left untouched, and the witness
  cycle (the discovered path ``v -> ... -> u`` plus the refused arc) is
  reported.

Deleting arcs or nodes never invalidates a topological order, so
removals are O(degree) with no restoration work — which is what makes
the certifier's ``forget`` (restart a victim) cheap.

:class:`FlatPkGraph` runs the algorithm over integer node ids:
adjacency is list-of-int-lists, an arc's kind set is a bitmask in a dict
keyed by the packed int ``(u << 32) | v`` (presence test, dedup, and
labelling collapse into one int-keyed lookup), DFS visit marks live in a
shared ``bytearray``, and released node ids go to a freelist so a steady
certify/forget/re-declare cycle reuses slots instead of growing.  It is
not a :class:`~repro.graphs.digraph.DiGraph`;
:class:`~repro.core.rsg.IncrementalRsg` materializes a labelled
:class:`~repro.graphs.digraph.DiGraph` view from it on demand.
"""

from __future__ import annotations

from repro.errors import GraphError

__all__ = ["FlatBatch", "FlatPkGraph"]


class FlatBatch:
    """Undo record of one successful :meth:`FlatPkGraph.try_add_batch`.

    ``new_edges`` is a flat ``[u0, v0, u1, v1, ...]`` list of the arcs
    the batch structurally created; ``mask_undo`` is a flat
    ``[key0, prev0, ...]`` list of packed edge keys whose kind mask the
    batch widened, with the mask to restore.  Instances are reused by
    the engine's record pool, so hold no other state.
    """

    __slots__ = ("new_edges", "mask_undo")

    def __init__(self, new_edges: list[int], mask_undo: list[int]) -> None:
        self.new_edges = new_edges
        self.mask_undo = mask_undo


class FlatPkGraph:
    """Pearce–Kelly order maintenance over integer node ids.

    The incremental topological-sort algorithm of the module docstring,
    on flat state for the certification hot path:

    * nodes are dense ints handed out by :meth:`acquire_node` (released
      ids go to a freelist and are reused, so a long-running certifier
      that forgets and re-declares transactions stays bounded);
    * adjacency is list-of-``list[int]`` indexed by node id — no
      hashing of vertex objects anywhere on the insert path;
    * an arc and its kind set are one entry in an int-keyed dict:
      ``masks[(u << 32) | v]`` holds the OR of the caller's kind bits,
      so presence check, dedup, and label merging are a single lookup;
    * DFS visit marks are a shared ``bytearray`` cleared via the
      just-visited lists, never reallocated.

    A batch that would close a cycle is rolled back completely, the
    graph is unchanged, and :attr:`last_rejected_cycle` holds the
    witness path as node ids (first == last).
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_masks",
        "_ord",
        "_parent",
        "_free",
        "_seen",
        "_next_index",
        "_last_cycle",
    )

    def __init__(self) -> None:
        self._succ: list[list[int]] = []
        self._pred: list[list[int]] = []
        self._masks: dict[int, int] = {}
        self._ord: list[int] = []
        self._parent: list[int] = []
        self._free: list[int] = []
        self._seen = bytearray()
        self._next_index = 0
        self._last_cycle: list[int] | None = None

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def acquire_node(self) -> int:
        """Allocate a node id (freelist first), at the largest order."""
        free = self._free
        if free:
            nid = free.pop()
            self._ord[nid] = self._next_index
        else:
            nid = len(self._succ)
            self._succ.append([])
            self._pred.append([])
            self._ord.append(self._next_index)
            self._parent.append(-1)
            self._seen.append(0)
        self._next_index += 1
        return nid

    def release_node(self, nid: int) -> None:
        """Return an isolated node id to the freelist for reuse."""
        if self._succ[nid] or self._pred[nid]:
            raise GraphError(
                f"cannot release node {nid}: incident edges remain"
            )
        self._free.append(nid)

    @property
    def node_capacity(self) -> int:
        """Total id slots ever allocated (live + freelisted)."""
        return len(self._succ)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def last_rejected_cycle(self) -> list[int] | None:
        """Witness (node ids, first == last) of the last refused batch."""
        return self._last_cycle

    def edge_mask(self, source: int, target: int) -> int:
        """The arc's kind bitmask, or 0 when the arc is absent."""
        return self._masks.get((source << 32) | target, 0)

    def order_index(self, nid: int) -> int:
        """The node's index in the maintained topological order."""
        return self._ord[nid]

    def edge_items(self):
        """Iterate ``(packed_key, mask)`` pairs of every arc (live view)."""
        return self._masks.items()

    @property
    def edge_count(self) -> int:
        """Number of (collapsed) arcs."""
        return len(self._masks)

    def check_order_invariant(self) -> bool:
        """Whether every arc goes from a lower to a higher order index.

        Diagnostic only: the invariant is maintained by construction.
        """
        ord_ = self._ord
        return all(
            ord_[key >> 32] < ord_[key & 0xFFFFFFFF] for key in self._masks
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def try_add_batch(
        self, buf: list[int], count: int, batch: FlatBatch
    ) -> bool:
        """Insert ``count`` arcs from the flat triple buffer, all or nothing.

        ``buf`` holds ``[u0, v0, bits0, u1, v1, bits1, ...]`` (at least
        ``3 * count`` entries; the caller reuses one buffer across
        pushes).  ``batch`` is the undo record to fill — its lists are
        cleared first, so pooled instances can be passed back in.

        Returns ``True`` with ``batch`` describing what was new, or
        ``False`` when some arc would close a cycle — every arc of the
        batch has then been rolled back and the witness is in
        :attr:`last_rejected_cycle`.
        """
        masks = self._masks
        new_edges = batch.new_edges
        mask_undo = batch.mask_undo
        del new_edges[:]
        del mask_undo[:]
        i = 0
        end = 3 * count
        while i < end:
            u = buf[i]
            v = buf[i + 1]
            bits = buf[i + 2]
            i += 3
            key = (u << 32) | v
            mask = masks.get(key)
            if mask is not None:
                merged = mask | bits
                if merged != mask:
                    masks[key] = merged
                    mask_undo.append(key)
                    mask_undo.append(mask)
                continue
            cycle = self._insert_arc(u, v)
            if cycle is not None:
                self.undo_batch(batch)
                self._last_cycle = cycle
                return False
            masks[key] = bits
            new_edges.append(u)
            new_edges.append(v)
        return True

    def undo_batch(self, batch: FlatBatch) -> None:
        """Remove exactly what ``batch`` added (arcs and widened masks).

        Arc removal never invalidates a topological order, so this is
        O(#new-arcs) with no restoration pass.  Only meaningful for the
        most recent batches touching these arcs (masks are not
        reference counted).
        """
        masks = self._masks
        mask_undo = batch.mask_undo
        # Replay newest-first: an edge widened twice in one batch has two
        # snapshots, and only the oldest is its true pre-batch mask.
        for i in range(len(mask_undo) - 2, -2, -2):
            masks[mask_undo[i]] = mask_undo[i + 1]
        new_edges = batch.new_edges
        for i in range(0, len(new_edges), 2):
            u = new_edges[i]
            v = new_edges[i + 1]
            del masks[(u << 32) | v]
            self._succ[u].remove(v)
            self._pred[v].remove(u)

    def remove_edge(self, source: int, target: int) -> None:
        """Remove one arc (used when releasing a declared transaction)."""
        key = (source << 32) | target
        if key not in self._masks:
            raise GraphError(f"arc {source} -> {target} not in graph")
        del self._masks[key]
        self._succ[source].remove(target)
        self._pred[target].remove(source)

    # ------------------------------------------------------------------
    # Pearce–Kelly internals (int-indexed)
    # ------------------------------------------------------------------
    def _insert_arc(self, source: int, target: int) -> list[int] | None:
        """Structurally add the arc and restore the order.

        Returns ``None`` on success, or the witness cycle (arc not
        added) when the arc closes one.
        """
        if source == target:
            return [source, source]
        ord_ = self._ord
        lower = ord_[target]
        upper = ord_[source]
        succ = self._succ
        pred = self._pred
        if lower > upper:  # already consistent — the common case
            succ[source].append(target)
            pred[target].append(source)
            return None
        seen = self._seen
        parent = self._parent
        forward = [target]
        seen[target] = 1
        stack = [target]
        while stack:
            node = stack.pop()
            for child in succ[node]:
                if child == source:
                    parent[child] = node
                    for visited in forward:
                        seen[visited] = 0
                    return self._witness(source, target)
                if not seen[child] and ord_[child] < upper:
                    seen[child] = 1
                    parent[child] = node
                    forward.append(child)
                    stack.append(child)
        # No cycle: find the nodes reaching source inside the region.
        # Forward (ord < upper, reachable from target) and backward
        # (ord > lower, reaching source) sets are disjoint — overlap
        # would be the cycle just excluded — so the marks are shared.
        backward = [source]
        seen[source] = 1
        stack = [source]
        while stack:
            node = stack.pop()
            for above in pred[node]:
                if not seen[above] and ord_[above] > lower:
                    seen[above] = 1
                    backward.append(above)
                    stack.append(above)
        for visited in forward:
            seen[visited] = 0
        for visited in backward:
            seen[visited] = 0
        # Local reorder: everything that reaches source shifts below
        # everything reachable from target, reusing the same index pool.
        backward.sort(key=ord_.__getitem__)
        forward.sort(key=ord_.__getitem__)
        combined = backward + forward
        pool = sorted(ord_[node] for node in combined)
        for node, index in zip(combined, pool):
            ord_[node] = index
        succ[source].append(target)
        pred[target].append(source)
        return None

    def _witness(self, source: int, target: int) -> list[int]:
        """The cycle closed by ``source -> target``: the discovered path
        ``target -> ... -> source`` plus the refused arc.  Parent links
        were written by the just-finished forward search, so every node
        on the path is fresh."""
        parent = self._parent
        path = [source]
        while path[-1] != target:
            path.append(parent[path[-1]])
        path.reverse()
        path.append(target)
        return path
