"""CSR traversal backend vs the dict-of-dicts oracle.

One measurement: batched single-source shortest-path trees over the SF
workload, dict backend vs :class:`repro.network.CSRNetwork`.  The CSR
backend's acceptance bar is a >= 3x wall-clock speedup while returning
*bit-identical* distance maps (values and settle order) — the same
"same bits, less work" contract as the perf layer.

The timing loop disables :mod:`repro.obs` around the traversals: the
suite-wide conftest enables it for the metrics sidecar, but an enabled
observer routes both backends onto the instrumented python loop, which
would measure instrumentation, not the array kernel.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import obs
from repro.network.csr import CSRNetwork
from repro.network.dijkstra import single_source

from benchmarks._workloads import get_workload

K = 10
N_SOURCES = 60
SPEEDUP_BAR = 3.0


@pytest.mark.benchmark(group="csr-backend")
def bench_csr_single_source_speedup(benchmark):
    """Full shortest-path trees from sampled sources, dict vs CSR."""
    network, points, spec, eps = get_workload("SF", k=K)
    csr = CSRNetwork.freeze(network)
    rng = random.Random(23)
    sources = rng.sample(list(network.nodes()), N_SOURCES)

    def timed(net):
        t0 = time.perf_counter()
        trees = [single_source(net, s) for s in sources]
        return time.perf_counter() - t0, trees

    def run():
        obs.disable()  # measure the plain paths, not the instrumented loop
        try:
            dict_s, dict_trees = timed(network)
            csr_s, csr_trees = timed(csr)
        finally:
            # Hand the sidecar fixture a live observer back, keeping any
            # counters other fixtures accumulated (fresh=True would wipe).
            obs.enable(fresh=False)
        for a, b in zip(dict_trees, csr_trees):
            assert a == b and list(a) == list(b)  # bit-identical, in order
        return {"dict_s": dict_s, "csr_s": csr_s, "speedup": dict_s / csr_s}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "kernel_backend": csr.kernel_backend,
            "n_sources": N_SOURCES,
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "dict_s": round(result["dict_s"], 4),
            "csr_s": round(result["csr_s"], 4),
            "speedup": round(result["speedup"], 2),
        }
    )
    if csr.kernel_backend == "scipy":
        # The acceptance bar: the array kernel is at least 3x faster.
        assert result["speedup"] >= SPEEDUP_BAR
    else:
        # Python-loop fallback (no scipy in the environment): correctness
        # still holds above, but the speed bar does not apply.
        pytest.skip("scipy unavailable; CSR python fallback has no speed bar")
