"""Span recording for the traced benchmark run.

A traced op rebinds public names that the calling modules look up at call
time (``riskmdp.cli.relative_value_iteration``, ``riskmdp.solver.bellman_F``,
...) to wrappers that record one span per call: name, layer, start, end,
parent span and op id.  Spans stay in memory until the run ends.  Parents
are tracked per thread; a span opened on a thread that has no open span (a
sweep worker) is parented to the op's root span, so both sweep threads nest
under the command that started them.

A layer's self time is its spans' durations minus the part of each span's
interval that the span's children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    layer: str
    thread: int
    t0: int
    t1: int = 0
    attrs: dict | None = None


class Tracer:
    """Holds the spans of one benchmark run and the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._root: Span | None = None
        self._wrapped: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str, layer: str, attrs: dict | None = None) -> Span:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        root = self._root
        parent = stack[-1].sid if stack else (root.sid if root is not None else None)
        span = Span(next(self._ids), parent, root.op if root is not None else -1, name, layer,
                    threading.get_ident(), time.perf_counter_ns(), attrs=attrs)
        stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.t1 = time.perf_counter_ns()
        self._tls.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; every span opened inside belongs to it."""
        span = self._begin(name, "cli")
        span.op = op_id
        self._root = span
        try:
            yield span
        finally:
            self._end(span)
            self._root = None

    # -- wrappers ------------------------------------------------------------

    def _traced(self, fn, name: str, layer: str, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._begin(name, layer, on_call(args, kwargs) if on_call else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if on_return is not None:
                span.attrs = {**(span.attrs or {}), **on_return(out)}
            return out

        return traced

    def add(self, owner, attr: str, layer: str, on_call=None, on_return=None) -> None:
        """Plan to rebind ``owner.attr`` (a function or cached property).

        A name the program no longer has is recorded in ``absent`` instead of
        failing the run.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            self.absent.append(label)
            return
        name = f"{layer}.{attr}"
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self._traced(original.func, name, layer, on_call, on_return))
            replacement.__set_name__(owner, attr)
        elif callable(original):
            replacement = self._traced(original, name, layer, on_call, on_return)
        else:
            self.absent.append(label)
            return
        self._wrapped.append((owner, attr, original, replacement))

    @contextlib.contextmanager
    def installed(self):
        """Rebind every planned name for the duration of the block."""
        for owner, attr, _, replacement in self._wrapped:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._wrapped):
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                                     "layer": s.layer, "thread": s.thread, "t0_ns": s.t0,
                                     "t1_ns": s.t1, "attrs": s.attrs}) + "\n")

    def op_spans(self, op_id: int) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Length of the union of the children's intervals inside the span."""
    ivs = sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children)
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def profile(spans: list[Span]) -> dict[str, float]:
    """Flat per-op quantities from the spans of one op.

    Keys: ``wall_ns`` (root span), ``layer_self_ns:<layer>``, and per span
    name ``calls:``, ``total_ns:``, ``self_ns:`` plus summed numeric attrs
    ``<attr>:<name>``.  ``cert_calls:<name>`` counts calls made beneath a
    certificates span.
    """
    kids: dict[int, list[Span]] = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    root = next(s for s in spans if s.parent is None or s.parent not in by_id)

    under_cert: dict[int, bool] = {}

    def in_certificates(sid: int | None) -> bool:
        if sid is None or sid not in by_id:
            return False
        if sid not in under_cert:
            s = by_id[sid]
            under_cert[sid] = s.layer == "certificates" or in_certificates(s.parent)
        return under_cert[sid]

    out: Counter = Counter()
    out["wall_ns"] = root.t1 - root.t0
    for s in spans:
        dur = s.t1 - s.t0
        self_ns = dur - _covered_ns(s, kids.get(s.sid, []))
        out[f"layer_self_ns:{s.layer}"] += self_ns
        out[f"calls:{s.name}"] += 1
        out[f"total_ns:{s.name}"] += dur
        out[f"self_ns:{s.name}"] += self_ns
        for k, v in (s.attrs or {}).items():
            out[f"{k}:{s.name}"] += v
        if in_certificates(s.parent):
            out[f"cert_calls:{s.name}"] += 1
    return dict(out)
