"""In-memory span recorder for the traced run.

Spans are opened by the benchmark's own code around each call into a
layer's public functions; nothing inside the program is instrumented.  A
span records its name, start, end, parent span and, for a served request,
the request id that all of that request's spans share.  Spans stay in
memory and are written out once, when the run ends.

With tracing off, :meth:`Tracer.span` hands back one shared no-op context
manager, so the untraced runs that give the end-to-end metrics pay a
method call per span and nothing else.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time

_NOOP = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: (span id, parent id, name, start, end, request id)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return _NOOP
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name: str, request: str | None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        sid = next(self._ids)
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent[0] if parent else None, name, start, end, request)
                )

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every finished span called ``name``."""
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def table(self) -> list[dict]:
        """Per span name: count, total and self time (total minus the part
        of the span that its direct children cover)."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        rows: dict[str, dict] = {}
        for sid, _, name, start, end, _ in self.spans:
            row = rows.setdefault(name, {"name": name, "count": 0, "total_s": 0.0,
                                         "self_s": 0.0, "durations": []})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(sid, 0.0)
            row["durations"].append(end - start)
        out = []
        for row in sorted(rows.values(), key=lambda r: -r["self_s"]):
            row["median_us"] = statistics.median(row.pop("durations")) * 1e6
            out.append(row)
        return out

    def write(self, path: str) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "request": request,
                }) + "\n")
