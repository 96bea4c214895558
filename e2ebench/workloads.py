"""The benchmark's five workloads.

Every workload runs the same two kinds of operation, so that every
end-to-end metric means something on each of them:

* a *clustering round*: the paper's four algorithms (Table 2's parameters)
  over the workload's network backend and point set, one ``.run()`` each;
* a *request phase*: range(ε) and kNN(k = 10) queries, and on
  ``serve-write`` live mutations, answered by the workload's query path.

What differs is the layer that does the work:

``cluster-dict`` / ``cluster-csr``
    The suite-scale SF analogue in memory, on the dict backend or on the
    frozen CSR backend.  Queries call ``range_query`` / ``knn_query``
    directly, one caller.
``cluster-disk``
    A small network written to a paged ``NetworkStore`` (CCAM order, 4 KB
    pages) and reopened with a cold buffer of a sixth of the store before
    every algorithm run.  Queries run over the store.
``serve-read`` / ``serve-write``
    The suite-scale workload behind a threaded ``QueryService`` with the
    documented flags (8-landmark RLIX index mapped from disk, 16 MB
    distance cache, 2 workers), driven by a closed loop of 2 caller
    threads through the wire path: JSON line, ``parse_request``,
    ``submit``, the future, ``result_response``, JSON encode.
    ``serve-write`` adds a ``LiveSession`` on a write-ahead log, and 10% of
    its requests are point inserts and removals.  The clustering rounds
    run directly over the served network and points while the callers are
    idle.

Each workload checks its own answers; a wrong answer counts as a failed
operation.
"""

from __future__ import annotations

import gc
import json
import os
import random
import threading
import time

from repro.core import EpsLink, NetworkDBSCAN, NetworkKMedoids, SingleLink
from repro.exceptions import Overloaded
from repro.network import AugmentedView, CSRNetwork, knn_query, multi_source, range_query
from repro.perf import DistanceAccelerator, DistanceCache, build_index_file, load_index
from repro.serve import QueryService
from repro.serve.protocol import parse_request, result_response
from repro.serve.service import run_query
from repro.storage import NetworkStore

from inputs import K, KNN_K, SUITE_SCALE, Inputs, query_key, request_streams

ALGORITHMS = ("kmedoids", "epslink", "dbscan", "singlelink")
#: k-medoids stops after this many swap attempts.  Left to converge, the
#: number of attempts swings from about 30 to over 100 between seeds of
#: the same network size, so its time would measure the seed, not the code.
KMEDOIDS_SWAPS = 20
#: Which medoids a swap tries, and so how much of the network it touches,
#: depends on the k-medoids seed; a round averages three seeds' runs.
KMEDOIDS_SEEDS = (0, 1, 2)
#: One clustering round: (algorithm, k-medoids seed) runs in this order.
#: ε-Link, the shortest run by far, also runs three times, so that a burst
#: of machine noise weighs on it no more than on the others.
ROUND = (
    tuple(("kmedoids", k) for k in KMEDOIDS_SEEDS)
    + (("epslink", None),) * 3
    + (("dbscan", None), ("singlelink", None))
)
PAGE_BYTES = 4096
#: Probe sizes for the traced run's per-call layer timings.
PROBE_POINTS = 100
MULTI_SOURCE_REPEATS = 5
#: Requests per caller that the counting pass replays through the service.
COUNT_REQUESTS_PER_CALLER = 60
#: Mutation pairs (insert, then remove) the traced run times without the
#: service in front of the session.
DIRECT_MUTATIONS = 15


def run_algorithm(name: str, network, points, eps: float, backend=None,
                  kmedoids_seed: int | None = None):
    """One Table 2 run: k = 10, ε-Link min_sup = 2, DBSCAN MinPts = 2,
    Single-Link δ = 0.7ε cut at ε."""
    if name == "kmedoids":
        algo = NetworkKMedoids(network, points, k=K, seed=kmedoids_seed,
                               max_swaps=KMEDOIDS_SWAPS, backend=backend)
    elif name == "epslink":
        algo = EpsLink(network, points, eps=eps, min_sup=2, backend=backend)
    elif name == "dbscan":
        algo = NetworkDBSCAN(network, points, eps=eps, min_pts=2, backend=backend)
    else:
        algo = SingleLink(network, points, delta=0.7 * eps, stop_distance=eps,
                          backend=backend)
    return algo.run()


def plain_query(aug, request: dict) -> list:
    """The plain traversal primitives' answer, as the wire encodes it."""
    point = aug.points.get(request["point_id"])
    if request["op"] == "range":
        hits = range_query(aug, point, request["eps"])
    else:
        hits = knn_query(aug, point, request["k"])
    return [[p.point_id, d] for p, d in hits]


def probe_requests(inputs: Inputs) -> list[dict]:
    """A fixed seeded sample of range and kNN requests for per-call timing."""
    rng = random.Random(f"e2ebench-probe-{inputs.seed}")
    ids = rng.sample(sorted(inputs.points.point_ids()), PROBE_POINTS)
    out = []
    for pid in ids:
        out.append({"op": "range", "point_id": pid, "eps": inputs.eps})
        out.append({"op": "knn", "point_id": pid, "k": KNN_K})
    return out


def probe_sources(network, seed: int) -> list[tuple[float, int, int]]:
    rng = random.Random(f"e2ebench-sources-{seed}")
    nodes = rng.sample(sorted(network.nodes()), K)
    return [(0.0, node, label) for label, node in enumerate(nodes)]


class Timings:
    """The end-to-end timings of one run, in seconds."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        #: per round: mean time of one run of the algorithm
        self.algorithm: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
        self.query: list[float] = []
        #: wall time of the request phases
        self.request_wall = 0.0


class Samples:
    """Everything one run measures, merged from every thread."""

    def __init__(self) -> None:
        #: as measured, and scaled by the calibration (see calibrate.py)
        self.raw = Timings()
        self.scaled = Timings()
        self.mutate: list[float] = []
        self.requests_done = 0
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.errors = 0
        self.problems: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def add_phase(s: Samples, latencies: list[float], wall: float, factor: float) -> None:
    """Record one request phase, scaled by its calibration factor."""
    s.raw.query += latencies
    s.scaled.query += [t * factor for t in latencies]
    s.raw.request_wall += wall
    s.scaled.request_wall += wall * factor


def single_link_matches(single_link, eps_link) -> bool:
    """The Single-Link cut at ε is ε-Link's partition, with ε-Link's
    outliers as singleton clusters."""
    clusters = single_link.as_partition()
    singletons = {pid for c in clusters if len(c) == 1 for pid in c}
    rest = {c for c in clusters if len(c) > 1}
    return rest == eps_link.as_partition() and singletons == set(eps_link.outliers())


class Workload:
    """Set-up, measured rounds, output checks and the traced run's probes."""

    name = ""
    scale = SUITE_SCALE

    def __init__(self, seed: int, tracer, calibrator, workdir: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.calibrator = calibrator
        self.workdir = workdir
        self.inputs: Inputs | None = None
        #: first round's result per algorithm: later rounds must repeat it
        self.reference: dict = {}
        #: first answer per query key, and how often the key was asked
        self.answers: dict = {}
        self.asked: dict = {}

    # -- measured operations ----------------------------------------------
    def algorithm_inputs(self):
        """(network, points, backend, store-to-close) for one run."""
        raise NotImplementedError

    def clustering_round(self, s: Samples) -> None:
        span = self.tracer.span
        calibrator = self.calibrator
        results = {}
        #: per algorithm: (time, calibration factor) of each run
        times: dict[str, list[tuple[float, float]]] = {}
        before = calibrator.measure()
        for name, kseed in ROUND:
            network, points, backend, store = self.algorithm_inputs()
            s.attempted += 1
            try:
                with span(f"core.{name}"):
                    start = time.perf_counter()
                    result = run_algorithm(
                        name, network, points, self.inputs.eps, backend, kseed
                    )
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # counted, reported, and the run goes on
                s.fail(f"{name}: {type(exc).__name__}: {exc}")
                result = None
            finally:
                if store is not None:
                    self.on_store_closed(store)
                    store.close()
            after = calibrator.measure()
            if result is not None:
                times.setdefault(name, []).append(
                    (elapsed, calibrator.factor(before, after))
                )
                self.check_repeat((name, kseed), result, s)
                results[name] = result
            before = after
        for name, runs in times.items():
            s.raw.algorithm[name].append(sum(t for t, _ in runs) / len(runs))
            s.scaled.algorithm[name].append(sum(t * f for t, f in runs) / len(runs))
        self.check_round(results, s)

    def on_store_closed(self, store) -> None:
        pass

    def check_repeat(self, run: tuple, result, s: Samples) -> None:
        ref = self.reference.setdefault(run, result)
        if result is not ref and (
            result.assignment != ref.assignment
            or result.stats.get("R") != ref.stats.get("R")
        ):
            s.fail(f"{run}: a repeated run gave another answer")

    def check_round(self, results: dict, s: Samples) -> None:
        el, db, sl = (results.get(n) for n in ("epslink", "dbscan", "singlelink"))
        if el is not None and db is not None and not db.same_clustering(el):
            s.fail("dbscan (MinPts=2) partition differs from eps-link's")
        if el is not None and sl is not None and not single_link_matches(sl, el):
            s.fail("single-link cut at eps differs from eps-link's partition")

    def record_answer(self, request: dict, answer: list, s: Samples) -> None:
        key = query_key(request)
        self.asked[key] = self.asked.get(key, 0) + 1
        first = self.answers.setdefault(key, answer)
        if first is not answer and first != answer:
            s.fail(f"{key}: a repeated query gave another answer")

    def round(self, s: Samples) -> None:
        # Everything alive before the round (the inputs, and what earlier
        # rounds left: cache entries, recorded answers) is frozen out of the
        # collector's view.  Otherwise a full collection, which walks every
        # network and point object, lands in whichever operation crosses
        # the allocation threshold, and costs more with every round run.
        gc.collect()
        gc.freeze()
        self.clustering_round(s)
        self.request_phase(s)

    # -- checks -------------------------------------------------------------
    def check_answers(self, aug, keys, s: Samples) -> None:
        """Compare recorded answers with the plain primitives over ``aug``."""
        for key in keys:
            op, pid, arg = key
            request = {"op": op, "point_id": pid, ("eps" if op == "range" else "k"): arg}
            if plain_query(aug, request) != self.answers[key]:
                s.fail(f"{key}: answer differs from the plain primitive",
                       self.asked[key])

    #: Relative difference allowed between a k-medoids R and the dict
    #: backend's.  Zero: R must be the same float.
    r_tolerance = 0.0

    def check_algorithms_against(self, network, points, s: Samples) -> None:
        """Compare the first round's results with a run over ``network``."""
        for (name, kseed), ref in self.reference.items():
            oracle = run_algorithm(name, network, points, self.inputs.eps,
                                   kmedoids_seed=kseed)
            r, r_ref = oracle.stats.get("R"), ref.stats.get("R")
            if oracle.assignment != ref.assignment or (
                r != r_ref and abs(r - r_ref) > self.r_tolerance * abs(r)
            ):
                s.fail(f"{name} (k-medoids seed {kseed}): differs from the "
                       "dict backend", len(s.raw.algorithm[name]))

    # -- traced run only ----------------------------------------------------
    def probe(self, s: Samples) -> dict:
        """Time calls into each layer's public functions, one span per call,
        over a fixed seeded probe.  Returns samples no span holds."""
        span = self.tracer.span
        network, aug = self.probe_network()
        for request in probe_requests(self.inputs):
            name = "range_query" if request["op"] == "range" else "knn_query"
            with span(f"network.{name}"):
                plain_query(aug, request)
        sources = probe_sources(network, self.seed)
        for _ in range(MULTI_SOURCE_REPEATS):
            with span("network.multi_source"):
                multi_source(network, sources)
        return {}

    def count(self) -> dict:
        """The counting pass: a fresh copy of this workload, set up once,
        runs one clustering round and the probe queries (and on the serve
        workloads replays requests one at a time) with ``repro.obs``
        counting.  Single-threaded, so every count repeats exactly for one
        seed.  Its times are never reported: counting moves traversals onto
        the counted code paths."""
        from repro import obs
        from calibrate import Calibrator
        from tracer import Tracer

        workdir = os.path.join(self.workdir, "count")
        os.makedirs(workdir, exist_ok=True)
        twin = type(self)(self.seed, Tracer(False), Calibrator(), workdir)
        twin.workers = 1
        try:
            twin.setup()
            obs.reset()
            obs.enable()
            try:
                twin.clustering_round(Samples())
                _, aug = twin.probe_network()
                for request in probe_requests(twin.inputs):
                    plain_query(aug, request)
                twin.replay_sequentially()
            finally:
                obs.disable()
            counts = dict(obs.snapshot()["counters"])
            counts.update(twin.layer_counts())
        finally:
            twin.close()
            obs.reset()
        return counts

    def replay_sequentially(self) -> None:
        pass

    def layer_counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# cluster-*: batch clustering plus direct queries on one backend
# ----------------------------------------------------------------------
class ClusterWorkload(Workload):
    scale = SUITE_SCALE
    queries_per_round = 2000

    def setup(self) -> None:
        self.close()
        with self.tracer.span("datagen.generate"):
            self.inputs = Inputs(self.seed, self.scale)
            self.stream = request_streams(self.inputs, callers=1, length=20_000)[0]
        self.position = 0
        self.network, self.points = self.open_backend()
        self.aug = AugmentedView(self.network, self.points)

    def open_backend(self) -> tuple:
        """The network and point set the rounds run on, built from the
        generated inputs."""
        return self.inputs.network, self.inputs.points

    def algorithm_inputs(self):
        return self.network, self.points, None, None

    def request_phase(self, s: Samples) -> None:
        span = self.tracer.span
        aug = self.aug
        latencies = []
        before = self.calibrator.measure()
        phase_start = time.perf_counter()
        for _ in range(self.queries_per_round):
            request = self.stream[self.position % len(self.stream)]
            self.position += 1
            s.attempted += 1
            start = time.perf_counter()
            with span(f"request.{request['op']}"):
                answer = plain_query(aug, request)
            latencies.append(time.perf_counter() - start)
            s.requests_done += 1
            self.record_answer(request, answer, s)
        wall = time.perf_counter() - phase_start
        add_phase(s, latencies, wall,
                  self.calibrator.factor(before, self.calibrator.measure()))

    def check(self, s: Samples) -> None:
        aug = AugmentedView(self.inputs.network, self.inputs.points)
        self.check_answers(aug, sorted(self.answers), s)
        self.check_algorithms_against(self.inputs.network, self.inputs.points, s)

    def probe_network(self) -> tuple:
        return self.network, self.aug


class ClusterDict(ClusterWorkload):
    name = "cluster-dict"

    def check(self, s: Samples) -> None:
        # The dict primitives are the oracle; cross-check a sample of
        # answers against the landmark-guided search, a separate code path
        # held bit-identical to them.
        aug = AugmentedView(self.inputs.network, self.inputs.points)
        accel = DistanceAccelerator(aug, landmarks=8, cache_mb=0)
        for key in sorted(self.answers)[:40]:
            op, pid, arg = key
            point = self.inputs.points.get(pid)
            hits = (accel.range_query(point, arg) if op == "range"
                    else accel.knn_query(point, arg))
            if [[p.point_id, d] for p, d in hits] != self.answers[key]:
                s.fail(f"{key}: differs from the landmark-guided search",
                       self.asked[key])


class ClusterCSR(ClusterWorkload):
    name = "cluster-csr"

    def open_backend(self) -> tuple:
        with self.tracer.span("csr.freeze"):
            return CSRNetwork.freeze(self.inputs.network), self.inputs.points

    def algorithm_inputs(self):
        return self.network, self.points, "csr", None


class ClusterDisk(ClusterWorkload):
    name = "cluster-disk"
    scale = SUITE_SCALE / 8
    queries_per_round = 200
    #: a sixth of the store, so the working set does not fit the buffer
    buffer_bytes = 4 * PAGE_BYTES
    #: The store yields nodes in CCAM order, so k-medoids sums R in another
    #: order than the dict backend and may differ in the last bits; the
    #: assignments must still be identical.
    r_tolerance = 1e-12

    def open_backend(self) -> tuple:
        self.path = os.path.join(self.workdir, "network.store")
        with self.tracer.span("storage.build"):
            NetworkStore.build(self.path, self.inputs.network, self.inputs.points,
                               page_size=PAGE_BYTES,
                               buffer_bytes=self.buffer_bytes).close()
        with self.tracer.span("storage.open"):
            self.store = NetworkStore(self.path, buffer_bytes=self.buffer_bytes)
        self.io = {"buffer_hits": 0, "buffer_misses": 0, "physical_reads": 0}
        return self.store, self.store.points()

    def algorithm_inputs(self):
        with self.tracer.span("storage.open"):
            store = NetworkStore(self.path, buffer_bytes=self.buffer_bytes)
        return store, store.points(), None, store

    def on_store_closed(self, store) -> None:
        for key, value in store.stats().items():
            if key in self.io:
                self.io[key] += value

    def probe(self, s: Samples) -> dict:
        out = super().probe(s)
        span = self.tracer.span
        rng = random.Random(f"e2ebench-storage-{self.seed}")
        nodes = rng.sample(sorted(self.store.nodes()), PROBE_POINTS)
        edges = rng.sample(sorted(self.points.populated_edges()), PROBE_POINTS)
        for node in nodes:
            with span("storage.neighbors"):
                list(self.store.neighbors(node))
        for u, v in edges:
            with span("storage.points_on_edge"):
                self.points.points_on_edge(u, v)
        return out

    def layer_counts(self) -> dict:
        return {f"storage.{k}": v for k, v in self.io.items()}

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            self.store = None


# ----------------------------------------------------------------------
# serve-*: a threaded QueryService under a closed loop of 2 callers
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    scale = SUITE_SCALE
    callers = 2
    workers = 2
    requests_per_caller = 20
    mutate_share = 0.0
    landmarks = 8
    cache_mb = 16.0

    def setup(self) -> None:
        span = self.tracer.span
        self.close()
        with span("datagen.generate"):
            self.inputs = Inputs(self.seed, self.scale)
            self.streams = request_streams(
                self.inputs, callers=self.callers, length=20_000,
                mutate=self.mutate_share,
            )
        self.positions = [0] * self.callers
        self.index_path = os.path.join(self.workdir, "landmarks.rlix")
        with span("perf.index_build"):
            build_index_file(self.index_path, self.inputs.network,
                             num_landmarks=self.landmarks)
        self.session = self.open_session()
        points = self.session.points if self.session else self.inputs.points
        with span("serve.start"):
            self.service = QueryService(
                self.inputs.network, points, workers=self.workers,
                distance_cache_mb=self.cache_mb, index_path=self.index_path,
                session=self.session,
            )
        if self.service.index_source != "mmap":
            raise RuntimeError(
                f"landmark index not mapped: {self.service.index_degrade_reason}"
            )
        #: every request the callers sent, in completion order
        self.sent: list[dict] = []

    def open_session(self):
        return None

    def served_points(self):
        return self.session.points if self.session else self.inputs.points

    def algorithm_inputs(self):
        return self.inputs.network, self.served_points(), None, None

    def request_phase(self, s: Samples) -> None:
        threads = []
        locals_ = [Samples() for _ in range(self.callers)]
        sent = [[] for _ in range(self.callers)]
        for c in range(self.callers):
            threads.append(threading.Thread(
                target=self.caller, args=(c, locals_[c], sent[c]),
                name=f"e2ebench-caller-{c}",
            ))
        before = self.calibrator.measure()
        phase_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - phase_start
        add_phase(s, [q for local in locals_ for q in local.raw.query], wall,
                  self.calibrator.factor(before, self.calibrator.measure()))
        for local, done in zip(locals_, sent):
            s.mutate += local.mutate
            s.requests_done += local.requests_done
            s.attempted += local.attempted
            s.failed += local.failed
            s.shed += local.shed
            s.errors += local.errors
            s.problems += local.problems[: max(0, 20 - len(s.problems))]
            self.sent += done
        for local, done in zip(locals_, sent):
            for request, answer in done:
                if request["op"] != "mutate":
                    self.on_answer(request, answer, s)

    def caller(self, c: int, s: Samples, sent: list) -> None:
        span = self.tracer.span
        service = self.service
        stream = self.streams[c]
        for _ in range(self.requests_per_caller):
            if self.positions[c] >= len(stream):
                return
            wire = json.dumps(stream[self.positions[c]])
            self.positions[c] += 1
            s.attempted += 1
            start = time.perf_counter()
            try:
                with span("serve.request", request=f"s{self.seed}-c{c}-{self.positions[c]}"):
                    with span("protocol.parse"):
                        request = parse_request(wire)
                    with span("serve.submit"):
                        future = service.submit(request)
                    with span("serve.wait"):
                        result = future.result()
                    with span("protocol.encode"):
                        json.dumps(result_response(request, result))
            except Overloaded:
                s.shed += 1
                s.fail("request shed (Overloaded)")
                continue
            except Exception as exc:  # a failed request, counted and reported
                s.errors += 1
                s.fail(f"{request.get('op')}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            s.requests_done += 1
            if request["op"] == "mutate":
                s.mutate.append(elapsed)
                if not (isinstance(result, dict) and result.get("applied")):
                    s.fail(f"mutation not applied: {result}")
            else:
                s.raw.query.append(elapsed)
            sent.append((request, result))

    def probe(self, s: Samples) -> dict:
        out = super().probe(s)
        span = self.tracer.span
        network, aug = self.probe_network()
        for _ in range(3):
            with span("perf.index_load"):
                index = load_index(self.index_path, network)
            index.close()
        index = load_index(self.index_path, network)
        try:
            accel = DistanceAccelerator(aug, landmarks=0, cache_mb=0, index=index)
            for request in probe_requests(self.inputs):
                point = aug.points.get(request["point_id"])
                if request["op"] == "range":
                    with span("perf.range"):
                        accel.range_query(point, request["eps"])
                else:
                    with span("perf.knn"):
                        accel.knn_query(point, request["k"])
            # The requests the callers sent, answered by run_query directly
            # with the service's accelerator set-up and a fresh cache.
            direct = DistanceAccelerator(aug, landmarks=0, cache_mb=0, index=index,
                                         cache=DistanceCache(self.cache_mb))
            for request, _ in self.sent:
                if request["op"] != "mutate":
                    with span("serve.direct"):
                        run_query(request, aug, accel=direct)
        finally:
            index.close()
        return out

    def replay_sequentially(self) -> None:
        """Send the first requests of every caller, interleaved, one at a
        time through the service (counting pass only)."""
        for i in range(COUNT_REQUESTS_PER_CALLER):
            for stream in self.streams:
                self.service.call(parse_request(json.dumps(stream[i])))

    def on_answer(self, request: dict, answer: list, s: Samples) -> None:
        self.record_answer(request, answer, s)

    def check(self, s: Samples) -> None:
        aug = AugmentedView(self.inputs.network, self.inputs.points)
        self.check_answers(aug, sorted(self.answers), s)

    def probe_network(self) -> tuple:
        return self.inputs.network, AugmentedView(self.inputs.network,
                                                  self.served_points())

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.service = None
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None


class ServeRead(ServeWorkload):
    name = "serve-read"


class ServeWrite(ServeWorkload):
    name = "serve-write"
    mutate_share = 0.1

    def open_session(self):
        from repro.live import LiveSession, WriteAheadLog

        self.wal_path = os.path.join(self.workdir, "mutations.rwal")
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        with self.tracer.span("live.open"):
            wal = WriteAheadLog(self.wal_path)
            return LiveSession(self.inputs.network, self.inputs.points,
                               eps=self.inputs.eps, wal=wal)

    def clustering_round(self, s: Samples) -> None:
        # Mutations between rounds change the point set, so only runs
        # within one round repeat each other.
        self.reference = {}
        with self.session.lock:
            super().clustering_round(s)

    def on_answer(self, request: dict, answer: list, s: Samples) -> None:
        # The world moves under these queries; their answers are checked
        # on a quiescent sample after the run instead.
        if not isinstance(answer, list):
            s.fail(f"{query_key(request)}: malformed answer")

    def probe(self, s: Samples) -> dict:
        out = super().probe(s)
        span = self.tracer.span
        rng = random.Random(f"e2ebench-mutate-{self.seed}")
        edges = sorted(self.inputs.network.edges())
        fsync = []
        for _ in range(DIRECT_MUTATIONS):
            u, v, w = rng.choice(edges)
            with span("live.mutate_direct"):
                ack = self.session.mutate({"kind": "insert_point", "u": u, "v": v,
                                           "offset": w * rng.uniform(0.05, 0.95)})
            fsync.append(self.session.stats()["wal"]["last_fsync_s"])
            with span("live.mutate_direct"):
                self.session.mutate({"kind": "remove_point",
                                     "point_id": ack["point_id"]})
            fsync.append(self.session.stats()["wal"]["last_fsync_s"])
        out["fsync"] = fsync
        return out

    def check(self, s: Samples) -> None:
        from repro.live import LiveSession, WriteAheadLog

        live = self.session.snapshot()
        fresh = Inputs(self.seed, self.scale)
        wal = WriteAheadLog(self.wal_path, read_only=True)
        replayed = LiveSession(fresh.network, fresh.points, eps=fresh.eps, wal=wal)
        try:
            replayed.replay_wal()
            if replayed.snapshot() != live:
                s.fail("live snapshot differs from a cold replay of the log",
                       len(s.mutate))
        finally:
            replayed.close()
        # A quiescent sample: the service against the plain primitives over
        # the mutated world.
        aug = AugmentedView(self.inputs.network, self.session.points)
        sample = [r for r in self.streams[0] if r["op"] != "mutate"][:50]
        for request in sample:
            s.attempted += 1
            answer = self.service.call(parse_request(json.dumps(request)))
            if answer != plain_query(aug, request):
                s.fail(f"{query_key(request)}: quiescent answer differs")


WORKLOADS = {
    w.name: w for w in (ClusterDict, ClusterCSR, ClusterDisk, ServeRead, ServeWrite)
}
