"""The observability subsystem: spans, counters, traces, zero-overhead path.

Covers the four guarantees repro.obs makes:

* span nesting — parent/child links and timing containment invariants;
* thread isolation — the active span is per-thread via contextvars while
  aggregates land in the shared registry;
* one namespace — storage and traversal instrumentation aggregate into the
  same counter registry;
* zero overhead while disabled — ``span()`` hands out a shared singleton
  and ``add()`` allocates nothing.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import threading

import pytest

from repro import obs
from repro.datagen import grid_city
from repro.network.augmented import AugmentedView
from repro.network.dijkstra import single_source
from repro.network.points import PointSet
from repro.network.queries import range_query
from repro.storage.netstore import NetworkStore


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Span nesting and timing invariants
# ----------------------------------------------------------------------
def test_span_nesting_parent_child_links():
    obs.enable()
    with obs.span("outer") as outer:
        assert obs.current_span() is outer
        assert outer.parent_id is None
        with obs.span("inner") as inner:
            assert obs.current_span() is inner
            assert inner.parent_id == outer.span_id
        assert obs.current_span() is outer
    assert obs.current_span() is None


def test_span_timing_containment():
    """A child span's duration never exceeds its parent's."""
    obs.enable()
    with obs.span("parent") as parent:
        with obs.span("child") as child:
            sum(range(1000))
    assert child.duration_s is not None and parent.duration_s is not None
    assert 0.0 <= child.duration_s <= parent.duration_s
    # Child starts after the parent, ends before the parent ends.
    assert child.start_s >= parent.start_s
    assert child.start_s + child.duration_s <= parent.start_s + parent.duration_s
    snap = obs.snapshot()
    assert snap["spans"]["parent"]["count"] == 1
    assert snap["spans"]["child"]["count"] == 1


def test_span_exception_restores_parent_and_flags_error(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable(trace_path=str(trace))
    with pytest.raises(ValueError):
        with obs.span("outer"):
            with obs.span("failing"):
                raise ValueError("boom")
    assert obs.current_span() is None
    obs.disable()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    by_name = {r["name"]: r for r in records}
    assert by_name["failing"]["error"] is True
    assert "error" not in by_name["outer"] or by_name["outer"]["error"] is True
    assert by_name["failing"]["parent_id"] == by_name["outer"]["span_id"]


def test_trace_jsonl_records_are_well_formed(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable(trace_path=str(trace))
    with obs.span("a", label="x"):
        with obs.span("b"):
            pass
    obs.disable()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["name"] for r in records] == ["b", "a"]  # completion order
    for r in records:
        assert set(r) >= {"name", "span_id", "parent_id", "start_s", "dur_s", "thread"}
        assert r["dur_s"] >= 0.0
        assert r["start_s"] >= 0.0
    assert records[1]["attrs"] == {"label": "x"}


# ----------------------------------------------------------------------
# Thread isolation
# ----------------------------------------------------------------------
def test_threads_have_isolated_span_stacks():
    obs.enable()
    seen: dict[str, object] = {}
    barrier = threading.Barrier(2)

    def worker(tag: str):
        # New threads start with a fresh contextvars context: no inherited
        # active span from the main thread.
        seen[f"{tag}-initial"] = obs.current_span()
        with obs.span(f"{tag}.work") as sp:
            barrier.wait(timeout=5)  # both threads hold their span open
            seen[f"{tag}-active"] = obs.current_span() is sp
            seen[f"{tag}-parent"] = sp.parent_id

    with obs.span("main.outer"):
        threads = [
            threading.Thread(target=worker, args=(t,)) for t in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert seen["t1-initial"] is None and seen["t2-initial"] is None
    assert seen["t1-active"] and seen["t2-active"]
    # Thread spans are roots: the main thread's span is not their parent.
    assert seen["t1-parent"] is None and seen["t2-parent"] is None
    # All three spans still aggregated in the shared registry.
    snap = obs.snapshot()
    assert set(snap["spans"]) == {"main.outer", "t1.work", "t2.work"}


def test_counter_adds_from_threads_all_land():
    obs.enable()

    def worker():
        for _ in range(100):
            obs.add("test.threaded")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    # CPython dict updates are atomic enough under the GIL for counting.
    assert obs.STATE.counters["test.threaded"] == 400


# ----------------------------------------------------------------------
# Counter aggregation across layers
# ----------------------------------------------------------------------
def test_storage_and_traversal_share_one_registry(tmp_path):
    network = grid_city(6, 6, seed=0)
    points = PointSet(network)
    for u, v, w in itertools.islice(network.edges(), 12):
        points.add(u, v, w / 2)
    obs.enable()
    with NetworkStore.build(tmp_path / "net.db", network, points) as store:
        aug = AugmentedView(store, points)
        single_source(network, next(iter(network.nodes())))
        first_pid = next(iter(points)).point_id
        range_query(aug, points.get(first_pid), 2.0)
    counters = obs.snapshot()["counters"]
    # One namespace: traversal, query, and storage counts side by side.
    assert counters["dijkstra.runs"] == 1
    assert counters["dijkstra.heap_pops"] > 0
    assert counters["queries.range_queries"] == 1
    assert counters["storage.physical_reads"] > 0
    assert counters["storage.buffer_misses"] > 0
    # netstore.build was traced as a span in the same state.
    assert obs.snapshot()["spans"]["netstore.build"]["count"] == 1


# ----------------------------------------------------------------------
# Disabled path: zero overhead
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_singleton():
    assert not obs.is_enabled()
    assert obs.span("anything") is obs.NOOP_SPAN
    assert obs.span("other", k=1) is obs.NOOP_SPAN
    with obs.span("x") as sp:
        assert sp is obs.NOOP_SPAN


def test_disabled_add_records_nothing():
    assert not obs.is_enabled()
    obs.add("ghost.counter", 99)
    assert obs.STATE.counters == {}


@pytest.mark.skipif(
    not hasattr(sys, "getallocatedblocks"),
    reason="needs CPython's sys.getallocatedblocks",
)
def test_disabled_path_does_not_allocate():
    """While disabled, span()/add() allocate no objects at all."""
    assert not obs.is_enabled()

    def exercise():
        for _ in range(100):
            with obs.span("hot", attr=1):
                obs.add("hot.counter")

    exercise()  # warm up caches (method/code objects, etc.)
    gc.collect()
    before = sys.getallocatedblocks()
    exercise()
    gc.collect()
    after = sys.getallocatedblocks()
    # Allow a little slack for interpreter-internal noise.
    assert after - before <= 2, f"disabled obs path allocated {after - before} blocks"


def test_enable_fresh_resets_and_accumulating_mode_keeps():
    obs.enable()
    obs.add("x.y", 5)
    obs.disable()
    obs.enable(fresh=False)
    obs.add("x.y", 1)
    assert obs.STATE.counters["x.y"] == 6
    obs.enable()  # fresh=True default
    assert obs.STATE.counters == {}


def test_accumulating_reenable_keeps_epoch_and_span_starts_monotone():
    """enable(fresh=False) must not rebase the epoch: span start_s values
    accumulated across enable/disable cycles stay monotone instead of
    jumping backwards to a new zero."""
    obs.enable()
    first_epoch = obs.STATE.epoch
    assert first_epoch > 0.0
    with obs.span("cycle.one") as s1:
        pass
    obs.disable()
    obs.enable(fresh=False)
    assert obs.STATE.epoch == first_epoch
    with obs.span("cycle.two") as s2:
        pass
    assert s2.start_s >= s1.start_s
    obs.disable()
    # A fresh enable is the one legitimate rebase point.
    obs.enable()
    assert obs.STATE.epoch > first_epoch


def test_counter_increments_survive_heavy_contention():
    """Hammer one counter name from many threads: the read-modify-write in
    add() runs under the state lock, so no increment is ever lost."""
    obs.enable()
    n_threads, n_iters = 8, 2000
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait(10)
        for _ in range(n_iters):
            obs.add("test.contended")
            obs.add("test.valued", 3)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert obs.STATE.counters["test.contended"] == n_threads * n_iters
    assert obs.STATE.counters["test.valued"] == n_threads * n_iters * 3


def test_span_aggregates_survive_heavy_contention():
    """Span count/total fold-in has the same lost-update exposure as
    counters; the lock must cover it too."""
    obs.enable()
    n_threads, n_iters = 8, 500
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait(10)
        for _ in range(n_iters):
            with obs.span("test.contended_span"):
                pass

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert obs.STATE.span_count["test.contended_span"] == n_threads * n_iters


# ----------------------------------------------------------------------
# Request-scoped trace sampling
# ----------------------------------------------------------------------
def test_sampled_scope_gates_trace_export(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable(trace_path=str(trace), sample_requests=True)
    assert not obs.is_sampled()
    with obs.span("outside.work"):
        pass
    with obs.sampled():
        assert obs.is_sampled()
        with obs.span("inside.work"):
            with obs.span("inside.child"):
                pass
    assert not obs.is_sampled()
    obs.disable()
    names = [
        json.loads(line)["name"] for line in trace.read_text().splitlines()
    ]
    # Only spans opened inside the sampled scope reach the trace file...
    assert names == ["inside.child", "inside.work"]
    # ...while the aggregates record everything either way.
    spans = obs.snapshot()["spans"]
    assert spans["outside.work"]["count"] == 1
    assert spans["inside.work"]["count"] == 1


def test_sampling_off_traces_everything(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable(trace_path=str(trace))  # sample_requests defaults off
    with obs.span("plain.work"):
        pass
    obs.disable()
    names = [
        json.loads(line)["name"] for line in trace.read_text().splitlines()
    ]
    assert names == ["plain.work"]
    # disable() must drop the sampling flag along with everything else.
    assert obs.STATE.sampling is False
