"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine, over a few seconds to a few minutes, the same
pure-Python loop runs up to a third slower or faster as other tenants come
and go.  That is wider than any useful regression bound.  So each run also
times a fixed reference loop of its own, right before and right after every
timed operation (or request phase), and reports the operation scaled to a
machine on which that loop takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / mean(loop before, loop after)

The raw timings go to standard error beside the scaled ones.

The loop is the benchmark's code, not the program's, so no change to the
program can move it.  It is a Dijkstra over a grid held in dicts, the same
mix of heap, dict and tuple work as the program's traversals, so it slows
down with them when the machine does.  It never runs while an operation of
the program is being timed.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: The loop's median time on a quiet 2-core Xeon VM (Python 3.11).
REFERENCE_S = 0.017
_SIDE = 100


def _grid() -> dict[int, list[tuple[int, float]]]:
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for r in range(_SIDE):
        for c in range(_SIDE):
            node = r * _SIDE + c
            edges = adjacency.setdefault(node, [])
            if c + 1 < _SIDE:
                edges.append((node + 1, 1.0 + (node * 7919 % 13) / 13.0))
            if r + 1 < _SIDE:
                edges.append((node + _SIDE, 1.0 + (node * 104729 % 17) / 17.0))
    for node, edges in list(adjacency.items()):
        for other, weight in edges:
            if other > node:
                adjacency[other].append((node, weight))
    return adjacency


class Calibrator:
    def __init__(self) -> None:
        self._graph = _grid()
        #: every loop time measured, in seconds
        self.samples: list[float] = []

    def _dijkstra(self) -> int:
        graph = self._graph
        dist: dict[int, float] = {}
        heap = [(0.0, 0)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d
            for other, weight in graph[node]:
                if other not in dist:
                    heapq.heappush(heap, (d + weight, other))
        return len(dist)

    def measure(self) -> float:
        """Time the loop once; returns the time in seconds."""
        start = time.perf_counter()
        self._dijkstra()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiply a time measured between two loops by this."""
        return 2 * REFERENCE_S / (before + after)

    def median(self) -> float:
        return statistics.median(self.samples)
