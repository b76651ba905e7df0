"""Span recorder and the wrappers the traced run installs from outside.

The benchmark times each layer by replacing, for the traced phase only, the
names through which callers reach a layer's public functions (a module
attribute such as ``pipeline.prepare_and_measure``, or a method on one
transport object) with a wrapper that records a span.  Nothing under
``src/`` is edited; ``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent, op id, thread tag).  Parents are
tracked per thread, so the two protocol endpoints running in two threads
get two separate span trees for the same op.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter

# indices into a span record (a list, so the closing wrapper can fill in
# its end time and the child total without another lookup)
NAME, START, END, PARENT, OP, THREAD, CHILD = range(7)
_ABSENT = object()


class Tracer:
    """In-memory spans plus the per-op counters measured at the same
    wrappers, for every traced unit of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.oracles: list[tuple[int, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_sender: dict[int, str] = {}
        self._installed: list[tuple[object, str, object]] = []

    # -- per-thread context -------------------------------------------------

    def set_context(self, op: int | None, thread: str) -> None:
        self._local.op = op
        self._local.thread = thread
        self._local.stack = []

    def _ctx(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            self.set_context(None, "main")
        return loc

    def set_op(self, op: int | None) -> None:
        self._ctx().op = op

    # -- spans --------------------------------------------------------------

    def span(self, name: str, keep: bool = True):
        return _Span(self, name, keep)

    def wrap(self, name: str, fn, after=None, keep: bool = True):
        """Return `fn` wrapped in a span; `after(tracer, span, args,
        result)` records counters measured at the same boundary."""
        def traced(*args, **kwargs):
            with _Span(self, name, keep) as sp:
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, sp, args, result)
            return result
        return traced

    def add_count(self, op, name: str, value: float) -> None:
        with self._lock:
            self.counts[op][name] += value

    def on_frame_sent(self, op, sender: str, msg_name: str, nbytes: int) -> None:
        with self._lock:
            c = self.counts[op]
            c["protocol.frames_sent"] += 1
            c["protocol.bytes_sent"] += nbytes
            c[f"protocol.frames_sent.{msg_name}"] += 1
            c[f"protocol.bytes_sent.{msg_name}"] += nbytes
            last = self._last_sender.get(op)
            if last is not None and last != sender:
                c["protocol.direction_changes"] += 1
            self._last_sender[op] = sender

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None,
              keep: bool = True) -> None:
        """Replace owner.attr by a traced wrapper until uninstall().  On an
        instance whose class defines the method, uninstall deletes the
        instance attribute again instead of storing a bound method."""
        saved = vars(owner).get(attr, _ABSENT)
        self._installed.append((owner, attr, saved))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after, keep))

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._installed):
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def per_op(self) -> dict:
        """{op: {metric: value}}: `<span>.self_ms` and `<span>.calls` for
        every span of the op (`<span>.<thread>.self_ms` as well on named
        threads), the counters, and the parity queries of the oracles
        built during the op."""
        out = {op: dict(c) for op, c in self.counts.items() if op is not None}
        for op, oracle in self.oracles:
            row = out.setdefault(op, {})
            row["postprocess.parity_queries"] = (
                row.get("postprocess.parity_queries", 0) + oracle.query_count)
        return out

    def unowned_self_ms(self, name: str) -> float:
        """Total self time of spans of `name` that belong to no op."""
        return self.counts[None].get(name + ".self_ms", 0.0)

    def _close(self, rec: list) -> None:
        self_s = rec[END] - rec[START] - rec[CHILD]
        with self._lock:
            c = self.counts[rec[OP]]
            c[rec[NAME] + ".self_ms"] += self_s * 1e3
            c[rec[NAME] + ".calls"] += 1
            if rec[THREAD] != "main":
                c[f"{rec[NAME]}.{rec[THREAD]}.self_ms"] += self_s * 1e3

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": parent, "op": s[OP], "thread": s[THREAD]}))
                fh.write("\n")


class _Span:
    """One span.  Spans made with keep=False (the per-frame wire calls, a
    few thousand per session) feed the per-op totals but are not stored."""

    __slots__ = ("tracer", "name", "keep", "rec")

    def __init__(self, tracer: Tracer, name: str, keep: bool):
        self.tracer = tracer
        self.name = name
        self.keep = keep

    @property
    def op(self):
        return self.rec[OP]

    @property
    def thread(self) -> str:
        return self.rec[THREAD]

    def __enter__(self):
        loc = self.tracer._ctx()
        parent = loc.stack[-1] if loc.stack else None
        self.rec = [self.name, perf_counter(), None, parent, loc.op,
                    loc.thread, 0.0]
        loc.stack.append(self.rec)
        if self.keep:
            self.tracer.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec[END] = perf_counter()
        self.tracer._local.stack.pop()
        if rec[PARENT] is not None:
            rec[PARENT][CHILD] += rec[END] - rec[START]
        self.tracer._close(rec)
        return False


def check_self_sum(tracer: Tracer, root_name: str) -> float:
    """Largest relative gap, over ops, between the sum of the self times of
    an op's spans and the duration of its `root_name` span.  Properly nested
    spans make this zero up to rounding."""
    totals: dict = defaultdict(float)
    roots: dict = {}
    for s in tracer.spans:
        if s[OP] is None:
            continue
        totals[s[OP]] += s[END] - s[START] - s[CHILD]
        if s[NAME] == root_name:
            roots[s[OP]] = s[END] - s[START]
    worst = 0.0
    for op, dur in roots.items():
        worst = max(worst, abs(totals[op] - dur) / dur)
    return worst
