"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the program (class attributes or
single instances) so that every call records a span: name, start, end, the
span that was open on the same thread when it began (its parent), the
thread, and a request id where the caller knows one.  Spans stay in memory
while the workload runs and are written out once at the end.  Wrappers are
installed only for the traced run and removed afterwards, so the untraced
run executes the program unmodified.

A span's *self time* is its duration minus the part of it covered by its
children (:func:`self_times`); summed over a tree, self times add up to the
root's duration, which is how the traced wall time is accounted for.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    rid: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and counters from wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute, what ``vars(owner)`` held before, or None).
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[int]:
        """Record the enclosed block as a span on the current thread."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = self.clock()
        try:
            yield sid
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.current_thread().name, rid)
            )

    def record(
        self, name: str, start: float, end: float, *, thread: str, rid: int | None = None
    ) -> None:
        """Add a span measured elsewhere (e.g. a request's lifetime, which
        crosses threads and so has no place on a thread's stack)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, thread, rid))

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``after(result, *args, **kwargs)`` runs after the call
        (outside the span) to update counters from its result.
        """
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        clock = self.clock
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(sid, span_name, start, end, parent, threading.current_thread().name)
                )
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def count_calls(self, owner: object, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without recording spans."""
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is not None:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("sid\tparent\tthread\trid\tname\tstart\tend\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    f"{s.sid}\t{'' if s.parent is None else s.parent}\t{s.thread}\t"
                    f"{'' if s.rid is None else s.rid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n"
                )


# ---------------------------------------------------------------------- #
def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's coverage."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
        ]
        result[s.sid] = s.duration - _covered(clipped)
    return result


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.sid]
    return dict(totals)


def coverage(spans: Iterable[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of ``spans``."""
    if end <= start:
        raise ValueError("empty window")
    clipped = [(max(s.start, start), min(s.end, end)) for s in spans]
    return _covered(clipped) / (end - start)
