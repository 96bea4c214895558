"""Instrumentation re-export kept for the ``repro.eval`` namespace.

:class:`Stopwatch` is re-exported from :mod:`repro.obs.timing` unchanged.
Counters and spans live in :mod:`repro.obs`: they are what the CLI's
``--stats`` / ``--trace`` flags and the benchmark metrics sidecars are
built on.
"""

from __future__ import annotations

from repro.obs.timing import Stopwatch

__all__ = ["Stopwatch"]
