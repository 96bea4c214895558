"""Evaluation utilities: clustering quality metrics and instrumentation."""

from repro.eval.counters import Stopwatch
from repro.eval.params import estimate_delta, estimate_eps, knn_distance_sample
from repro.eval.metrics import (
    NOISE,
    adjusted_rand_index,
    confusion_counts,
    medoid_evaluation,
    normalized_mutual_information,
    purity,
)

__all__ = [
    "estimate_delta",
    "estimate_eps",
    "knn_distance_sample",
    "Stopwatch",
    "NOISE",
    "adjusted_rand_index",
    "confusion_counts",
    "medoid_evaluation",
    "normalized_mutual_information",
    "purity",
]
