"""Seeded inputs: the SF road-network analogue, its clustered points, and
the request streams the workloads replay.

Everything here is a pure function of ``seed`` (and a scale), so one seed
always yields the same network, points, ε and requests.  The program under
test only ever sees the generated objects.

The recipe mirrors the repository's benchmark suite: the paper's SF network
analogue, three points per node, k = 10 planted clusters spread over about
a fifth of the total edge length, well-separated seed edges, and ε from
``suggest_eps`` (the gap that recovers the planted clusters).
"""

from __future__ import annotations

import random

from repro.datagen import ClusterSpec, generate_clustered_points, load_network, suggest_eps
from repro.datagen.clusters import well_separated_seed_edges

#: Node-count fraction of the paper's SF network that the repository's
#: benchmark suite uses (about 3.6K nodes).
SUITE_SCALE = 1 / 48
POINTS_PER_NODE = 3.0
K = 10
#: kNN requests ask for the 10 nearest objects.
KNN_K = 10


class Inputs:
    """One generated workload: network, points and the clustering ε."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.network = load_network("SF", scale=scale, seed=seed)
        n_points = int(POINTS_PER_NODE * self.network.num_nodes)
        avg_gap = 0.2 * self.network.total_weight() / max(1, n_points)
        # The generator's mean gap is 3 * s_init over its s_init..5*s_init ramp.
        spec = ClusterSpec(
            k=K, s_init=max(avg_gap / 3.0, 1e-9), magnification=5.0,
            outlier_fraction=0.01,
        )
        seed_edges = well_separated_seed_edges(self.network, K, seed=seed + 2)
        self.points = generate_clustered_points(
            self.network, n_points, spec, seed=seed + 1, seed_edges=seed_edges
        )
        self.eps = suggest_eps(spec)

    def sizes(self) -> dict:
        return {
            "nodes": self.network.num_nodes,
            "edges": self.network.num_edges,
            "points": len(self.points),
        }


def request_streams(
    inputs: Inputs,
    *,
    callers: int,
    length: int,
    repeat: float = 0.2,
    mutate: float = 0.0,
) -> list[list[dict]]:
    """One request list per caller, seeded from ``inputs.seed``.

    Queries are 60% range(ε) and 40% kNN(k = 10).  With probability
    ``repeat`` a query re-sends an earlier (op, point) pair of the same
    caller, so a shared distance cache can hit.  With probability
    ``mutate`` a request is a live mutation instead: half insert a point
    on a random edge, half remove a point.  Query anchors and removable
    points are disjoint, and every removable point belongs to one caller
    and is removed at most once, so no request can fail on a point that a
    concurrent caller already removed.
    """
    rng = random.Random(f"e2ebench-requests-{inputs.seed}")
    ids = sorted(inputs.points.point_ids())
    rng.shuffle(ids)
    n_removable = int(len(ids) * 0.2) if mutate > 0 else 0
    anchors = ids[n_removable:]
    removable = ids[:n_removable]
    edges = sorted((u, v, w) for u, v, w in inputs.network.edges())
    streams = []
    for caller in range(callers):
        own_removable = removable[caller::callers]
        used: list[tuple[str, int]] = []
        stream = []
        for i in range(length):
            rid = f"c{caller}-{i}"
            if mutate > 0 and rng.random() < mutate:
                if own_removable and rng.random() < 0.5:
                    mutation = {"kind": "remove_point", "point_id": own_removable.pop()}
                else:
                    u, v, w = rng.choice(edges)
                    mutation = {
                        "kind": "insert_point", "u": u, "v": v,
                        "offset": w * rng.uniform(0.05, 0.95),
                    }
                stream.append({"id": rid, "op": "mutate", "mutation": mutation})
                continue
            if used and rng.random() < repeat:
                op, pid = rng.choice(used)
            else:
                op = "range" if rng.random() < 0.6 else "knn"
                pid = rng.choice(anchors)
                used.append((op, pid))
            request = {"id": rid, "op": op, "point_id": pid}
            if op == "range":
                request["eps"] = inputs.eps
            else:
                request["k"] = KNN_K
            stream.append(request)
        streams.append(stream)
    return streams


def query_key(request: dict) -> tuple:
    """The identity of a query's answer: equal keys, equal results."""
    if request["op"] == "range":
        return ("range", request["point_id"], request["eps"])
    return ("knn", request["point_id"], request["k"])
