"""Dijkstra shortest-path primitives over a spatial network.

These are the traversal building blocks the paper's algorithms are assembled
from:

* :func:`single_source` — classic Dijkstra from one node, with optional
  target set and distance cutoff (each adjacency list visited at most once,
  as the paper notes).
* :func:`node_distance` — point-to-point shortest path distance between two
  nodes with early termination.
* :func:`multi_source` — *concurrent expansion* from many labelled seeds
  (Figure 4 of the paper): every reachable node is assigned the label of the
  closest seed together with its distance.  This is the core of
  ``Medoid_Dist_Find`` and of the network-Voronoi construction used by
  Single-Link.
* :func:`all_pairs_node_distances` — the O(|V|^2) precomputation strawman of
  Section 3.2, provided as a baseline.

All functions operate on any object implementing ``neighbors(node)``
returning ``(neighbor, weight)`` pairs — the in-memory
:class:`~repro.network.graph.SpatialNetwork`, the disk-backed store, and
the frozen :class:`~repro.network.csr.CSRNetwork` all qualify, and all run
the loops below.  The one exception is a plain, untargeted
:func:`single_source` on a backend exposing ``dijkstra_single_source``
(the CSR backend's scipy kernel), which must return bit-identical results
(see :mod:`repro.network.interface`).

Two loops per shape
-------------------
Each traversal shape has exactly two loops, chosen on entry by one check
of the obs, fault and deadline flags:

* the *plain* loop — the exact uninstrumented bytecode, so the paper's
  cost curves are never perturbed by the tooling that measures them;
* the *instrumented* twin, taken whenever :mod:`repro.obs` is enabled,
  :mod:`repro.faults` is engaged (fault rules installed or an
  :class:`~repro.faults.OpBudget` active) or a :mod:`repro.resilience`
  deadline is active.  It hits the ``dijkstra.settle`` injection site on
  every settle, charges the active budget (expansions per settle, distance
  computations per edge relaxation), runs the cooperative
  deadline/cancellation checkpoint — raising the typed
  :class:`~repro.exceptions.Interrupted` subclasses
  (:class:`~repro.exceptions.BudgetExceededError`,
  :class:`~repro.exceptions.DeadlineExceeded`,
  :class:`~repro.exceptions.Cancelled`) with the partially computed
  distance map — and, with obs enabled, reports under the ``dijkstra.*``
  namespace: ``runs`` (``multi_source_runs``), ``heap_pushes``,
  ``heap_pops``, ``nodes_settled`` and ``edges_relaxed``.  Each hook is
  inert when its layer is not armed, so the counts are the same whichever
  layer sent the call there.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping

from repro.exceptions import UnreachableError
from repro.faults.core import STATE as _FAULTS, fire as _fault
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.resilience.deadline import STATE as _RES, check as _res_check

__all__ = [
    "single_source",
    "single_source_with_paths",
    "node_distance",
    "multi_source",
    "all_pairs_node_distances",
]


def _check_fresh(network) -> None:
    """Refuse a stale frozen backend once per search, before any settle.

    ``neighbors()`` re-checks on every expansion, but a search may settle
    without expanding (a seed that is its own target, no seeds, every
    seed past the cutoff); this check covers those too.
    """
    check = getattr(network, "check_fresh", None)
    if check is not None:
        check()


def single_source(
    network,
    source: int,
    targets: Iterable[int] | None = None,
    cutoff: float = math.inf,
) -> dict[int, float]:
    """Shortest-path distances from ``source`` to reachable nodes.

    Parameters
    ----------
    network:
        Object with a ``neighbors(node) -> iterable[(node, weight)]`` method.
    source:
        Start node.
    targets:
        If given, the search stops once *all* targets have been settled;
        only then can distances to non-target nodes be partial.
    cutoff:
        Nodes farther than this are not expanded or reported.

    Returns
    -------
    dict mapping node -> distance, containing every settled node.
    """
    _check_fresh(network)
    if _FAULTS.engaged or _RES.engaged or _OBS.enabled:
        return _single_source_instrumented(network, source, targets, cutoff)
    if targets is None:
        kernel = getattr(network, "dijkstra_single_source", None)
        if kernel is not None:
            return kernel(source, cutoff)
    remaining = set(targets) if targets is not None else None
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for nbr, weight in network.neighbors(node):
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                heapq.heappush(heap, (nd, nbr))
    return dist


def _single_source_instrumented(
    network,
    source: int,
    targets: Iterable[int] | None,
    cutoff: float,
) -> dict[int, float]:
    """Instrumented twin of :func:`single_source` (see module docstring)."""
    budget = _FAULTS.budget
    remaining = set(targets) if targets is not None else None
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    pops = 0
    pushes = 1
    relaxed = 0
    while heap:
        d, node = heapq.heappop(heap)
        pops += 1
        if node in dist:
            continue
        _fault("dijkstra.settle")
        if _RES.engaged:
            _res_check("dijkstra.settle", partial=dist)
        if budget is not None:
            budget.spend_expansions(1, partial=dist)
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for nbr, weight in network.neighbors(node):
            relaxed += 1
            if budget is not None:
                budget.spend_distance_computations(1, partial=dist)
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                heapq.heappush(heap, (nd, nbr))
                pushes += 1
    if _OBS.enabled:
        _obs_add("dijkstra.runs")
        _obs_add("dijkstra.heap_pops", pops)
        _obs_add("dijkstra.heap_pushes", pushes)
        _obs_add("dijkstra.edges_relaxed", relaxed)
        _obs_add("dijkstra.nodes_settled", len(dist))
    return dist


def single_source_with_paths(
    network,
    source: int,
    cutoff: float = math.inf,
) -> tuple[dict[int, float], dict[int, int]]:
    """Like :func:`single_source` but also returns a predecessor map.

    The predecessor map sends each settled node (except the source) to the
    previous node on one shortest path from the source.  Twin discipline
    matches :func:`single_source` exactly: the instrumented loop charges
    the budget per settle *and* per relaxed edge and emits the full
    ``dijkstra.*`` counter set.
    """
    _check_fresh(network)
    if _FAULTS.engaged or _RES.engaged or _OBS.enabled:
        return _with_paths_instrumented(network, source, cutoff)
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, source, source)]
    while heap:
        d, node, parent = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        if node != source:
            pred[node] = parent
        for nbr, weight in network.neighbors(node):
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                heapq.heappush(heap, (nd, nbr, node))
    return dist, pred


def _with_paths_instrumented(
    network,
    source: int,
    cutoff: float,
) -> tuple[dict[int, float], dict[int, int]]:
    """Instrumented twin of :func:`single_source_with_paths`."""
    budget = _FAULTS.budget
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, source, source)]
    pops = 0
    pushes = 1
    relaxed = 0
    while heap:
        d, node, parent = heapq.heappop(heap)
        pops += 1
        if node in dist:
            continue
        _fault("dijkstra.settle")
        if _RES.engaged:
            _res_check("dijkstra.settle", partial=dist)
        if budget is not None:
            budget.spend_expansions(1, partial=dist)
        dist[node] = d
        if node != source:
            pred[node] = parent
        for nbr, weight in network.neighbors(node):
            relaxed += 1
            if budget is not None:
                budget.spend_distance_computations(1, partial=dist)
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                heapq.heappush(heap, (nd, nbr, node))
                pushes += 1
    if _OBS.enabled:
        _obs_add("dijkstra.runs")
        _obs_add("dijkstra.heap_pops", pops)
        _obs_add("dijkstra.heap_pushes", pushes)
        _obs_add("dijkstra.edges_relaxed", relaxed)
        _obs_add("dijkstra.nodes_settled", len(dist))
    return dist, pred


def node_distance(network, source: int, target: int) -> float:
    """Network distance ``d(n_i, n_j)`` between two nodes (Definition 3).

    Runs Dijkstra from ``source`` with early termination at ``target``.
    Raises :class:`UnreachableError` when no path exists.
    """
    if source == target:
        return 0.0
    dist = single_source(network, source, targets=(target,))
    try:
        return dist[target]
    except KeyError:
        raise UnreachableError(
            f"node {target} is not reachable from node {source}"
        ) from None


def multi_source(
    network,
    seeds: Mapping[int, Iterable[tuple[float, object]]] | list[tuple[float, int, object]],
    cutoff: float = math.inf,
) -> tuple[dict[int, float], dict[int, object]]:
    """Concurrent Dijkstra expansion from labelled seeds (paper Figure 4).

    ``seeds`` is a list of ``(initial_distance, node, label)`` entries; a
    node may be seeded several times with different labels/distances (e.g.
    the two endpoints of every medoid's edge).  The expansion settles each
    node exactly once, at which moment its nearest label and distance are
    final — this is the property Figure 4's ``Concurrent_Expansion`` relies
    on ("if a node has been dequeued before, it has already been assigned to
    some medoid with a smaller distance").

    Returns ``(dist, label)`` dictionaries over all settled nodes.
    """
    if isinstance(seeds, Mapping):
        entries: list[tuple[float, int, object]] = []
        for node, pairs in seeds.items():
            for d0, lab in pairs:
                entries.append((d0, node, lab))
    else:
        entries = list(seeds)

    _check_fresh(network)
    if _FAULTS.engaged or _RES.engaged or _OBS.enabled:
        return _multi_source_instrumented(network, entries, cutoff)

    dist: dict[int, float] = {}
    label: dict[int, object] = {}
    counter = 0  # tie-breaker so heterogeneous labels never get compared
    heap: list[tuple[float, int, int, object]] = []
    for d0, node, lab in entries:
        if d0 <= cutoff:
            heap.append((d0, counter, node, lab))
            counter += 1
    heapq.heapify(heap)

    while heap:
        d, _, node, lab = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        label[node] = lab
        for nbr, weight in network.neighbors(node):
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                counter += 1
                heapq.heappush(heap, (nd, counter, nbr, lab))
    return dist, label


def _multi_source_instrumented(
    network,
    entries: list[tuple[float, int, object]],
    cutoff: float,
) -> tuple[dict[int, float], dict[int, object]]:
    """Instrumented twin of :func:`multi_source`."""
    budget = _FAULTS.budget
    dist: dict[int, float] = {}
    label: dict[int, object] = {}
    counter = 0
    heap: list[tuple[float, int, int, object]] = []
    for d0, node, lab in entries:
        if d0 <= cutoff:
            heap.append((d0, counter, node, lab))
            counter += 1
    heapq.heapify(heap)
    pops = 0
    pushes = len(heap)
    relaxed = 0

    while heap:
        d, _, node, lab = heapq.heappop(heap)
        pops += 1
        if node in dist:
            continue
        _fault("dijkstra.settle")
        if _RES.engaged:
            _res_check("dijkstra.settle", partial=(dist, label))
        if budget is not None:
            budget.spend_expansions(1, partial=(dist, label))
        dist[node] = d
        label[node] = lab
        for nbr, weight in network.neighbors(node):
            relaxed += 1
            if budget is not None:
                budget.spend_distance_computations(1, partial=(dist, label))
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                counter += 1
                heapq.heappush(heap, (nd, counter, nbr, lab))
                pushes += 1
    if _OBS.enabled:
        _obs_add("dijkstra.multi_source_runs")
        _obs_add("dijkstra.heap_pops", pops)
        _obs_add("dijkstra.heap_pushes", pushes)
        _obs_add("dijkstra.edges_relaxed", relaxed)
        _obs_add("dijkstra.nodes_settled", len(dist))
    return dist, label


def all_pairs_node_distances(network) -> dict[int, dict[int, float]]:
    """All-pairs shortest path distances via repeated Dijkstra.

    This is the O(|V|^2 log |V|) / O(|V|^2) space strawman the paper's
    Section 3.2 argues against for large networks; it is exposed for the
    baseline experiments and for validating the traversal algorithms on
    small networks.
    """
    return {node: single_source(network, node) for node in network.nodes()}
