#!/usr/bin/env python3
"""Lint: every literal metric/span name in src/ stays in its namespace.

The observability docs (docs/observability.md) promise a stable metric-name
taxonomy: dotted lowercase names whose first segment is one of the known
subsystem namespaces (``serve.*``, ``perf.cache.*``, ``breaker.*``, ...).
Dashboards, the stats wire op, and the metrics exporter all key on those
names, so a typo'd or off-taxonomy name literal is a silent contract break:
nothing crashes, the series just never shows up where monitoring looks.

This tool walks every ``src/repro/**/*.py`` AST and checks the first
argument of each instrumentation call:

* counter adds — ``add("...")``, ``_obs_add("...")``, ``obs.add("...")``
* spans — ``span("...")``, ``_span("...")``, ``_obs_span("...")``,
  ``obs.span("...")``
* histograms/gauges — ``*.histogram("...")``, ``*.gauge("...")``,
  ``observe("...", v)``

Literal string names must match ``NAME_RE`` and open with an allowed
namespace segment.  f-string names are checked on their literal prefix
(``f"breaker.transitions.{state}"`` validates ``breaker.transitions.``).
Dynamic names with no literal prefix are skipped — they cannot be checked
statically.  Spans may be single-segment (a whole phase, e.g.
``"evaluate"``); counters, histograms, and gauges must carry at least one
dot so the subsystem prefix is explicit.

Exit status: 0 when every checkable name conforms, 1 otherwise (one
``file:line: message`` per violation, ruff-style).  Run by the CI lint job
next to ruff.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: First-segment namespaces a metric or span name may open with.  Extending
#: the taxonomy means adding the namespace here AND documenting it in
#: docs/observability.md — the lint exists to force that second step.
ALLOWED_NAMESPACES = frozenset({
    "augmented",
    "breaker",
    "budget",
    "checkpoint",
    "cluster",
    "dbscan",
    "dijkstra",
    "epslink",
    "evaluate",
    "faults",
    "kmedoids",
    "live",
    "netstore",
    "optics",
    "perf",
    "queries",
    "repair",
    "resilience",
    "retry",
    "serve",
    "singlelink",
    "storage",
    "wal",
})

#: Second segments allowed under ``serve.`` — the serve tier's names are a
#: wire contract (the stats op and dashboards key on them), so this one
#: namespace is pinned a level deeper than the rest.  ``supervisor`` covers
#: the process-supervision counters (``serve.supervisor.worker_deaths``,
#: ``.restarts``, ``.failovers``, ``.quarantined``, ``.degraded``,
#: ``.hangs``).
SERVE_SEGMENTS = frozenset({
    "completed",
    "deadline_exceeded",
    "dequeue",
    "epoch",
    "errors",
    "exec",
    "inflight",
    "latency",
    "queue_depth",
    "queue_wait",
    "request",
    "shed",
    "submitted",
    "supervisor",
    "worker",
    "workers_live",
})

#: Full-name shape: lowercase dotted segments; segments may carry ``_`` and
#: ``-`` (algorithm names like ``eps-link`` appear in span names).
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_-]+)*$")

#: Bare-callable names that record a counter / open a span.
COUNTER_FUNCS = frozenset({"add", "_obs_add"})
SPAN_FUNCS = frozenset({"span", "_span", "_obs_span"})
#: Attribute callables keyed on the attribute name alone: ``obs.add``,
#: ``REGISTRY.histogram``, ``_METRICS.gauge``.
COUNTER_ATTRS = frozenset({"add"})
SPAN_ATTRS = frozenset({"span"})
INSTRUMENT_ATTRS = frozenset({"histogram", "gauge"})
OBSERVE_FUNCS = frozenset({"observe"})


def _call_kind(node: ast.Call) -> str | None:
    """``"counter"`` / ``"span"`` / ``"instrument"`` for instrumentation
    calls, ``None`` for everything else."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in COUNTER_FUNCS or func.id in OBSERVE_FUNCS:
            return "counter"
        if func.id in SPAN_FUNCS:
            return "span"
        return None
    if isinstance(func, ast.Attribute):
        # Only dotted access on a plain name (obs.add, _METRICS.gauge):
        # method calls on arbitrary expressions (results.add, set.add)
        # are not instrumentation.
        if not isinstance(func.value, ast.Name):
            return None
        base = func.value.id
        if func.attr in COUNTER_ATTRS and base == "obs":
            return "counter"
        if func.attr in SPAN_ATTRS and base == "obs":
            return "span"
        if func.attr in INSTRUMENT_ATTRS:
            return "instrument"
    return None


def _literal_name(node: ast.expr) -> tuple[str, bool] | None:
    """``(name_text, is_prefix)`` for a checkable first argument.

    A plain string constant checks in full; an f-string checks its leading
    literal prefix (``is_prefix`` True).  Anything else returns ``None`` —
    not statically checkable.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, True
    return None


def _check_name(
    name: str, *, kind: str, is_prefix: bool
) -> str | None:
    """The violation message for ``name``, or ``None`` when it conforms."""
    text = name.rstrip(".") if is_prefix else name
    if not text:
        return "metric name f-string has no literal namespace prefix"
    if not NAME_RE.match(text):
        return f"metric name {name!r} is not lowercase dotted ([a-z0-9_.-])"
    first = text.split(".", 1)[0]
    if first not in ALLOWED_NAMESPACES:
        return (
            f"metric name {name!r} opens with unknown namespace {first!r} "
            f"(document it in docs/observability.md and add it to "
            f"{Path(__file__).name})"
        )
    if kind != "span" and not is_prefix and "." not in text:
        return (
            f"{kind} name {name!r} needs a dotted subsystem prefix "
            f"(single-segment names are reserved for spans)"
        )
    if first == "serve" and "." in text:
        second = text.split(".")[1]
        if second and second not in SERVE_SEGMENTS:
            return (
                f"metric name {name!r} uses unknown serve.* segment "
                f"{second!r} (document it in docs/observability.md and add "
                f"it to SERVE_SEGMENTS in {Path(__file__).name})"
            )
    return None


def check_file(path: Path) -> list[str]:
    """All violations in one source file, as ``path:line: message``."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:  # pragma: no cover - src must parse to ship
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        kind = _call_kind(node)
        if kind is None:
            continue
        checkable = _literal_name(node.args[0])
        if checkable is None:
            continue
        name, is_prefix = checkable
        message = _check_name(name, kind=kind, is_prefix=is_prefix)
        if message:
            violations.append(f"{path}:{node.lineno}: {message}")
    return violations


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    if not root.exists():
        print(f"{root}: no such directory", file=sys.stderr)
        return 2
    files = sorted(root.rglob("*.py"))
    violations: list[str] = []
    checked = 0
    for path in files:
        checked += 1
        violations.extend(check_file(path))
    for line in violations:
        print(line)
    if violations:
        print(
            f"{len(violations)} metric-name violation(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"metric names OK across {checked} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
