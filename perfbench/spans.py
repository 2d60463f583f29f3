"""Spans around calls into the package's modules, kept in the benchmark.

A ``Tracer`` wraps public functions by replacing the module attributes
through which ``lmax.cli`` and the library look them up at call time, so
the package itself is not modified.  Spans are kept in memory and
written as JSON lines (name, start, end, parent, op) when a process is
done.  Self time is a span's duration minus the part of it that child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager


def _entries_arg(pos):
    return lambda args, kwargs: {"entries": len(args[pos])}


def _n_arg(pos):
    return lambda args, kwargs: {"entries": int(args[pos])}


def _scanned(args, kwargs):
    q = args[1]
    if q.k in (q.a, q.b):
        return {"entries": 0}
    return {"entries": (q.b - q.k) + (q.b - q.a)}


# (module, attribute, span name, attributes taken from the call).  Every
# module that imported a function by name gets its own entry, because that
# module's global is what its callers resolve.  Missing attributes are
# reported as absent, so a later rename does not break the benchmark.
WRAPS = (
    ("lmax.series", "log_rho_array", "walk.log_rho_array", _entries_arg(1)),
    ("lmax", "build", "series.build", _n_arg(1)),
    ("lmax.cli", "build", "series.build", _n_arg(1)),
    ("lmax", "max_pmf_table", "excursion.max_pmf_table", _n_arg(1)),
    ("lmax.cli", "max_pmf_table", "excursion.max_pmf_table", _n_arg(1)),
    ("lmax.excursion", "compensated_cumsum", "numerics.compensated_cumsum", _entries_arg(0)),
    ("lmax", "tail_mass", "excursion.tail_mass", None),
    ("lmax", "hit_before", "first_passage.hit_before", _scanned),
    ("lmax.cli", "hit_before", "first_passage.hit_before", _scanned),
    ("lmax", "return_prob", "first_passage.return_prob", None),
    ("lmax.cli", "return_prob", "first_passage.return_prob", None),
    ("lmax.excursion", "return_prob", "first_passage.return_prob", None),
    ("lmax", "estimate_constant", "asymptotics.estimate_constant", None),
    ("lmax.cli", "estimate_constant", "asymptotics.estimate_constant", None),
    ("lmax", "series_diagnostic", "classify.series_diagnostic", None),
    ("lmax.cli", "series_diagnostic", "classify.series_diagnostic", None),
    ("lmax", "run", "montecarlo.run", None),
    ("lmax.cli", "run", "montecarlo.run", None),
    ("lmax", "compare", "montecarlo.compare", None),
    ("lmax.cli", "compare", "montecarlo.compare", None),
    # Private, but the only kernel boundary; _run_block resolves it per call.
    ("lmax.montecarlo", "_drive", "montecarlo.kernel", _entries_arg(0)),
)


class Tracer:
    """Collects spans for one process; ``op`` tags the operation they belong to."""

    def __init__(self, op=None):
        self.op = op
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._main_top = None
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        main = threading.current_thread() is threading.main_thread()
        # Pool threads have no open span of their own: they work for the
        # span the main thread has open (montecarlo.run with --workers > 1).
        parent = stack[-1] if stack else self._main_top
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rec = {"id": sid, "name": name, "parent": parent, "op": self.op, **attrs}
        stack.append(sid)
        if main:
            self._main_top = sid
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            stack.pop()
            if main:
                self._main_top = stack[-1] if stack else None
            self.spans.append(rec)

    def _wrap(self, fn, name, attr_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attr_fn(args, kwargs) if attr_fn else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def install(self, wraps=WRAPS) -> None:
        """Replace each listed attribute with a span-recording wrapper."""
        made = {}
        self.absent = []
        for module_name, attr, name, attr_fn in wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(fn) not in made:
                made[id(fn)] = self._wrap(fn, name, attr_fn)
            setattr(module, attr, made[id(fn)])
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                f.write(json.dumps(rec) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def load(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, wall and self seconds, summed entries, durations.

    Sibling spans of one name (same op and parent) count by the union of
    their intervals, so kernel calls that overlap on pool threads are not
    counted twice.  Spans are keyed by (op, id) so ids from different
    processes do not mix.
    """
    children: dict[tuple, list] = {}
    groups: dict[tuple, list] = {}
    for s in spans:
        children.setdefault((s["op"], s["parent"]), []).append((s["start"], s["end"]))
        groups.setdefault((s["op"], s["parent"], s["name"]), []).append(s)
    out: dict[str, dict] = {}
    for (op, _, name), members in groups.items():
        lo = min(m["start"] for m in members)
        hi = max(m["end"] for m in members)
        wall = _covered([(m["start"], m["end"]) for m in members], lo, hi)
        kids = [iv for m in members for iv in children.get((op, m["id"]), [])]
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "entries": 0, "durations_s": []})
        agg["calls"] += len(members)
        agg["total_s"] += wall / 1e9
        agg["self_s"] += (wall - _covered(kids, lo, hi)) / 1e9
        agg["entries"] += sum(m.get("entries", 0) for m in members)
        agg["durations_s"].extend((m["end"] - m["start"]) / 1e9 for m in members)
    return out
