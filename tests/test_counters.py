"""Tests for the instrumentation helpers."""

from __future__ import annotations

import pytest

from repro.eval.counters import Stopwatch


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        first = sw.elapsed
        with sw:
            pass
        assert sw.elapsed >= first >= 0.0

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()
        sw.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0
