"""In-memory spans around the public calls of each shiftprod layer.

A `Tracer` wraps functions of `shiftprod.shifts`, `counting`, `verify` and
`cli` from outside the package: nothing in `src/` knows it is traced.  Each
span is `(id, parent, name, start, end, extra)`; start and end come from
`time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so comparable
across the benchmark's processes.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("counting", "verify", "shifts", "cli")

# (module, attribute, resources): the public calls each layer exposes to the CLI.
# `resources` adds CPU time (self + reaped children) and the growth of the current
# RSS to the span; not `ru_maxrss`, which a child inherits from its parent's peak.
TARGETS = (
    ("shiftprod.shifts", "parse_shift", False),
    ("shiftprod.shifts", "shifted_product", False),
    ("shiftprod.shifts", "minimal_polynomial_for", False),
    ("shiftprod.counting", "count_mean_value", False),
    ("shiftprod.counting", "build_product_table", True),
    ("shiftprod.counting", "ProductTable.mean_value", False),
    ("shiftprod.counting", "diagonal_count_exact", False),
    ("shiftprod.counting", "find_nondiagonal_witnesses", True),
    ("shiftprod.counting", "cancel_common_factors", False),
    ("shiftprod.verify", "verify_witness", False),
    ("shiftprod.verify", "product_difference", False),
    ("shiftprod.verify", "factor_out_minpoly", False),
    ("shiftprod.verify", "norm_identity_check", False),
    ("shiftprod.cli", "main", False),
)


def _rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _TracedJson:
    """Stands in for the `json` module inside `shiftprod.cli`, tracing load and dumps."""

    def __init__(self, tracer: "Tracer"):
        self.load = tracer.wrap("cli.json.load", json.load)
        self.dumps = tracer.wrap("cli.json.dumps", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack = [parent]
        self._prefix = f"{os.getpid()}."
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._prefix}{self._next}"

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    def wrap(self, name: str, fn, resources: bool = False):
        stack = self._stack
        spans = self.spans
        new_id = self._new_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = new_id()
            parent = stack[-1]
            stack.append(sid)
            if resources:
                before = (_cpu_s(), _rss_bytes())
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if resources:
                    extra = {
                        "cpu_s": _cpu_s() - before[0],
                        "rss_growth_bytes": _rss_bytes() - before[1],
                    }
                spans.append((sid, parent, name, start, end, extra))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target in `TARGETS` (the modules must be imported) until exit.

        A name that another shiftprod module imported with `from ... import` is
        rebound there too, so calls through either module are traced.
        """
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for module_name, attr, resources in TARGETS:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                layer = module_name.rsplit(".", 1)[1]
                traced = self.wrap(f"{layer}.{attr}", original, resources)
                replace(owner, leaf, traced)
                if path:
                    continue
                for name, module in list(sys.modules.items()):
                    if (
                        name.startswith("shiftprod.")
                        and module is not owner
                        and module.__dict__.get(leaf) is original
                    ):
                        replace(module, leaf, traced)
            replace(sys.modules["shiftprod.cli"], "json", _TracedJson(self))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def summarize(spans) -> dict:
    """Total seconds and call count per span name, and self seconds per layer.

    A span's self time is its duration minus that of its direct children;
    children of one span never overlap, since each process is single-threaded.
    """
    child_s: dict = defaultdict(float)
    for _sid, parent, _name, start, end, _extra in spans:
        child_s[parent] += end - start
    total_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, name, start, end, _extra in spans:
        total_s[name] += end - start
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += end - start - child_s[sid]
    return {"total_s": total_s, "calls": calls, "self_s": self_s}
