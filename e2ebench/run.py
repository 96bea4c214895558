"""End-to-end and per-layer benchmark of the network clustering system.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload cluster-dict --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded around every call into a layer, adds the
per-call layer probes and a separate counting pass, and prints every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a human-readable report
goes to standard error.  See ``e2ebench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: The traced run alternates traced and untraced rounds; it needs both.
MIN_TRACE_ROUNDS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"e2ebench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    import report
    from calibrate import Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS, Samples

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".e2ebench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = Tracer(enabled=bool(args.trace))
    calibrator = Calibrator()
    workload = WORKLOADS[args.workload](args.seed, tracer, calibrator, workdir)
    samples = Samples()
    try:
        for _ in range(SETUP_REPEATS):
            before = calibrator.measure()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            samples.raw.setup.append(elapsed)
            samples.scaled.setup.append(
                elapsed * calibrator.factor(before, calibrator.measure())
            )

        round_walls = {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            tracer.enabled = traced
            start = time.perf_counter()
            workload.round(samples)
            round_walls[traced].append(time.perf_counter() - start)
            rounds += 1
            if time.perf_counter() >= deadline and (
                not args.trace or rounds >= MIN_TRACE_ROUNDS
            ):
                break
        tracer.enabled = bool(args.trace)
        workload.check(samples)

        if args.trace:
            layers = workload.probe(samples)
            counts = workload.count()
            metrics = report.per_layer(workload, samples, round_walls, layers,
                                       counts, calibrator)
            spans_path = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
            tracer.write(spans_path)
            report.print_span_table(tracer, spans_path)
            raw = None
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = report.end_to_end(samples, samples.scaled, peak_rss_mb)
            raw = report.end_to_end(samples, samples.raw, peak_rss_mb)
            print(f"   calibration loop: median {calibrator.median() * 1e3:.2f} ms "
                  f"of {len(calibrator.samples)}", file=sys.stderr)
        report.print_summary(workload, samples, rounds, metrics, raw)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
