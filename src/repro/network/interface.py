"""The traversal protocol every network backend implements.

:class:`NetworkBackend` is the structural contract between the clustering
algorithms and whatever holds the graph: the in-memory
:class:`~repro.network.graph.SpatialNetwork`, the disk-backed
:class:`~repro.storage.netstore.NetworkStore`, and the frozen array backend
:class:`~repro.network.csr.CSRNetwork`.  Algorithms only ever call the
methods below, so swapping backends never changes algorithm code — and,
because the contract pins *iteration order* as well as values, it never
changes algorithm *results* either.

Order is part of the contract
-----------------------------
Two guarantees matter for bit-identical results across backends:

* ``nodes()`` yields node ids in a deterministic order that any derived
  backend must preserve from its source (seeded sweeps, connectivity
  analysis, and per-component orchestration all iterate it).
* ``neighbors(node)`` yields ``(neighbor, weight)`` pairs in a
  deterministic order preserved from the source (the concurrent
  multi-source expansion breaks heap ties with a push-order counter, so
  adjacency order feeds directly into label assignment on exact distance
  ties).

Optional traversal hooks
------------------------
The generic traversals in :mod:`repro.network.dijkstra` look for two
optional attributes:

* ``dijkstra_single_source(source, cutoff)`` — an array-native kernel for
  the plain, untargeted single-source search (the one shape a batch C
  kernel serves without changing semantics).  It is used only when obs,
  faults, budgets and deadlines are all disarmed; every other search runs
  the generic loops over ``neighbors()``.  It must return bit-identical
  distances in settle order, and may be ``None`` to report itself
  unavailable.
* ``check_fresh()`` — called once per search by a backend that can go
  stale (a frozen snapshot of a mutable network), so a search that
  settles without expanding still refuses stale data.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Protocol, runtime_checkable

__all__ = ["NetworkBackend"]


@runtime_checkable
class NetworkBackend(Protocol):
    """Structural protocol of a spatial-network backend.

    ``isinstance`` checks only verify method presence (the ordering
    guarantees documented in the module docstring cannot be expressed in
    the type system but are required all the same).
    """

    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        ...

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""
        ...

    def has_node(self, node: int) -> bool:
        """Whether ``node`` exists in the network."""
        ...

    def nodes(self) -> Iterator[int]:
        """Iterate node ids in the backend's deterministic order."""
        ...

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate canonical ``(u, v, weight)`` triples (``u < v``)."""
        ...

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs in deterministic order.

        Raises :class:`~repro.exceptions.NodeNotFoundError` for an
        unknown node.
        """
        ...

    def edge_weight(self, u: int, v: int) -> float:
        """Weight ``W(u, v)`` of an existing edge.

        Raises :class:`~repro.exceptions.EdgeNotFoundError` when the edge
        is absent.
        """
        ...
