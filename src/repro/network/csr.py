"""Frozen CSR (compressed sparse row) network backend.

:class:`CSRNetwork` freezes a :class:`~repro.network.graph.SpatialNetwork`
(or the disk-backed :class:`~repro.storage.netstore.NetworkStore`) into
flat numpy arrays — int64 ``indptr``/``indices``, float64 ``weights``, and
a node-id ↔ row bijection sorted by node id — and serves the
:class:`~repro.network.interface.NetworkBackend` protocol plus one
optional array kernel.

What runs where
---------------
A plain, untargeted :func:`~repro.network.dijkstra.single_source` runs
scipy's C Dijkstra over the CSR arrays (settle order reconstructed with a
stable argsort over the distance vector).  Every other traversal —
targeted or with paths, the concurrent multi-source expansion, and any
search with obs, faults, budgets or deadlines engaged — runs the generic
loops in :mod:`repro.network.dijkstra` over :meth:`CSRNetwork.neighbors`,
so early termination, ``dijkstra.*`` counters, fault sites, budget
charges and deadline checkpoints are the dict backend's by construction.
Without scipy, :attr:`CSRNetwork.dijkstra_single_source` is ``None``,
``kernel_backend`` reads ``"python"``, and the generic loops run
everything.

Bit-identity contract
---------------------
The dict backend is the oracle: the CSR backend must return the same
distances *to the bit*, settle nodes in the same order, and break ties
identically.  Three facts make that hold:

* ``neighbors()`` yields each row's pairs in the source network's
  insertion order, so the generic loops — including the push-order
  counter that breaks exact distance ties in
  :func:`~repro.network.dijkstra.multi_source` — advance in the same
  sequence on either backend.
* Rows are sorted by node id, so "smaller row" ≡ "smaller node id" — the
  heap tie-break of the dict path (``(distance, node)`` tuples) maps to
  the scipy kernel's lexicographic ``(distance, row)`` settle order.
* IEEE-754 rounding is monotone, so for positive weights the left-fold
  prefix sums along any path are nondecreasing; every correct Dijkstra —
  including scipy's C implementation — computes exactly
  ``min over paths of fl(...fl(fl(0 + w1) + w2)... + wk)``, the same
  value the dict path's ``d + weight`` folds produce.

Staleness
---------
The backend captures the source network's mutation edition at freeze
time; every public access re-checks it (and the generic traversals call
:meth:`CSRNetwork.check_fresh` once per search) and raises
:class:`~repro.exceptions.StaleBackendError` once the source has mutated,
rather than serving distances off arrays that no longer match the graph.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    ParameterError,
    StaleBackendError,
)
from repro.network.graph import normalize_edge

try:  # scipy is an optional accelerator, never a hard dependency
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - exercised where scipy is absent
    _csr_matrix = None
    _scipy_dijkstra = None

__all__ = ["CSRNetwork", "resolve_backend"]


def resolve_backend(network, backend: str | None):
    """Materialise the requested backend over ``network``.

    ``None`` / ``"dict"`` return the network unchanged (the oracle path);
    ``"csr"`` freezes it into a :class:`CSRNetwork` (a no-op when it is
    one already).
    """
    if backend is None or backend == "dict":
        return network
    if backend == "csr":
        return CSRNetwork.freeze(network)
    raise ParameterError(
        f"unknown network backend {backend!r} (expected 'dict' or 'csr')"
    )


class CSRNetwork:
    """A read-only array snapshot of a spatial network.

    Build one with :meth:`freeze`; the constructor is internal.  All
    :class:`~repro.network.interface.NetworkBackend` methods preserve the
    source's iteration orders (``nodes()`` yields the source's node
    order, ``neighbors()`` the source's adjacency order), so any
    algorithm that runs on the source runs bit-identically here.
    """

    def __init__(self, source) -> None:
        if isinstance(source, CSRNetwork):
            raise ParameterError("use CSRNetwork.freeze() to reuse a frozen backend")
        self.name = getattr(source, "name", "network")
        #: The network this backend was frozen from (used by
        #: ``NetworkClusterer`` to accept point sets built on the source).
        self.source_network = source
        self._src_edition = getattr(source, "_edition", None)

        node_order = list(source.nodes())
        ids_sorted = sorted(node_order)
        row_of: dict[int, int] = {nid: r for r, nid in enumerate(ids_sorted)}
        n = len(ids_sorted)

        # Per-row adjacency in *source insertion order* (neighbors()
        # yields these tuples), plus the CSR triplet over id-sorted rows
        # for the scipy kernel.
        nbr_pairs: list[tuple[tuple[int, float], ...]] = [()] * n
        indptr = np.zeros(n + 1, dtype=np.int64)
        cols: list[int] = []
        wts: list[float] = []
        for nid in ids_sorted:
            row = row_of[nid]
            pairs = tuple(source.neighbors(nid))
            nbr_pairs[row] = pairs
            indptr[row + 1] = indptr[row] + len(pairs)
            cols.extend(row_of[v] for v, _ in pairs)
            wts.extend(w for _, w in pairs)

        self._node_order: tuple[int, ...] = tuple(node_order)
        self._ids = np.asarray(ids_sorted, dtype=np.int64)
        self._row_of = row_of
        self._nbr_pairs = nbr_pairs
        self._indptr = indptr
        self._indices = np.asarray(cols, dtype=np.int64)
        self._weights = np.asarray(wts, dtype=np.float64)
        self._num_edges = int(getattr(source, "num_edges", len(cols) // 2))
        self._edge_list: tuple[tuple[int, int, float], ...] = tuple(source.edges())
        self._wmap: dict[tuple[int, int], float] = {
            (u, v): w for u, v, w in self._edge_list
        }
        coords: dict[int, tuple[float, float]] = {}
        if hasattr(source, "has_coords") and hasattr(source, "node_coords"):
            for nid in node_order:
                if source.has_coords(nid):
                    coords[nid] = source.node_coords(nid)
        self._coords = coords
        self._matrix = None
        if _csr_matrix is not None and n > 0:
            self._matrix = _csr_matrix(
                (self._weights, self._indices, indptr), shape=(n, n)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, network) -> "CSRNetwork":
        """Freeze ``network`` into a CSR snapshot (idempotent)."""
        if isinstance(network, CSRNetwork):
            network.check_fresh()
            return network
        return cls(network)

    @property
    def kernel_backend(self) -> str:
        """``"scipy"`` when the C kernel serves untargeted searches, else
        ``"python"`` (the generic loops in :mod:`repro.network.dijkstra`
        serve everything)."""
        return "python" if self._matrix is None else "scipy"

    def check_fresh(self) -> None:
        """Raise :class:`~repro.exceptions.StaleBackendError` once the
        source network has mutated since the freeze."""
        if (
            self._src_edition is not None
            and self.source_network._edition != self._src_edition
        ):
            raise StaleBackendError(
                f"network {self.name!r} mutated after it was frozen; "
                "re-freeze with CSRNetwork.freeze() before querying"
            )

    # ------------------------------------------------------------------
    # NetworkBackend protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_node(self, node: int) -> bool:
        self.check_fresh()
        return node in self._row_of

    def has_edge(self, u: int, v: int) -> bool:
        self.check_fresh()
        if u == v:
            return False
        return normalize_edge(u, v) in self._wmap

    def nodes(self) -> Iterator[int]:
        """Iterate node ids in the *source network's* order."""
        self.check_fresh()
        return iter(self._node_order)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        self.check_fresh()
        return iter(self._edge_list)

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        self.check_fresh()
        try:
            row = self._row_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return iter(self._nbr_pairs[row])

    def degree(self, node: int) -> int:
        self.check_fresh()
        try:
            return len(self._nbr_pairs[self._row_of[node]])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def edge_weight(self, u: int, v: int) -> float:
        self.check_fresh()
        a, b = normalize_edge(u, v)
        try:
            return self._wmap[(a, b)]
        except KeyError:
            raise EdgeNotFoundError(a, b) from None

    def node_coords(self, node: int) -> tuple[float, float]:
        self.check_fresh()
        if node not in self._row_of:
            raise NodeNotFoundError(node)
        try:
            return self._coords[node]
        except KeyError:
            from repro.exceptions import MissingCoordinatesError

            raise MissingCoordinatesError(node) from None

    def has_coords(self, node: int) -> bool:
        return node in self._coords

    def euclidean_node_distance(self, u: int, v: int) -> float:
        ux, uy = self.node_coords(u)
        vx, vy = self.node_coords(v)
        return math.hypot(ux - vx, uy - vy)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self._edge_list)

    def __contains__(self, node: int) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"CSRNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, kernel={self.kernel_backend!r})"
        )

    # ------------------------------------------------------------------
    # The one array kernel: plain untargeted single source
    # ------------------------------------------------------------------
    @property
    def dijkstra_single_source(self):
        """scipy's C Dijkstra behind a plain, untargeted
        :func:`~repro.network.dijkstra.single_source`, or ``None`` when
        scipy is absent (the generic heap loop then runs instead)."""
        return None if self._matrix is None else self._single_source_scipy

    def _single_source_scipy(self, source: int, cutoff: float) -> dict[int, float]:
        """Untargeted expansion via scipy's C Dijkstra.

        The result dict is rebuilt in settle order — ascending
        ``(distance, node id)``, which a stable argsort over the id-sorted
        rows yields directly — so even dict iteration order matches the
        heap loop's.
        """
        row = self._row_of.get(source)
        if row is None:
            raise NodeNotFoundError(source)
        d = _scipy_dijkstra(self._matrix, directed=True, indices=row)
        if cutoff is math.inf or cutoff == math.inf:
            mask = np.isfinite(d)
        else:
            mask = d <= cutoff
            mask[row] = True  # the seed settles even under cutoff < 0
        sel = np.flatnonzero(mask)
        order = sel[np.argsort(d[sel], kind="stable")]
        return dict(zip(self._ids[order].tolist(), d[order].tolist()))
