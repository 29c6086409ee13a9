"""In-memory span tracer that instruments a library from the outside.

`Tracer.wrap` replaces a function (on a module or a class) with a wrapper
that records one span per call: id, parent id, name, thread, start and end
in `perf_counter_ns`. `Tracer.count` replaces a function with a wrapper that
only records a counter event against the innermost open span. `restore`
puts every original object back, in reverse order.

Each thread keeps its own span stack. A span opened on a thread whose stack
is empty takes as parent the innermost open span of the thread that created
the tracer, so work a call fans out to a thread pool nests under that call.

Spans stay in memory; `self_times` and `covered` do the arithmetic on them
after the run.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: int          # -1 for a root span
    name: str
    thread: int
    start: int           # perf_counter_ns
    end: int


class Tracer:
    """Records spans and counter events from the functions it wraps."""

    def __init__(self, annotators: Optional[dict[str, Callable]] = None):
        self.records: list[tuple] = []       # raw Span fields, in end order
        self.events: list[tuple[str, int]] = []   # (kind, innermost span id)
        self.labels: dict[int, object] = {}  # span id -> annotator result
        self._annotators = annotators or {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}    # id(original) -> replacement
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named `name` around every call of owner.attr."""
        self._patch(owner, attr, lambda fn: _span_wrapper(self, name, fn))

    def count(self, owner, attr: str, kind: str) -> None:
        """Record a `kind` event, without a span, on every call of owner.attr."""
        self._patch(owner, attr, lambda fn: _count_wrapper(self, kind, fn))

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._set(owner, attr, original, replacement)
        self._wrapped[id(original)] = replacement

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def share(self, namespaces: Iterable) -> None:
        """Point other names bound to a wrapped original at its wrapper.

        `from .linalg import sym` binds `sym` a second time in the importing
        module; those aliases are patched too, so every call is seen.
        """
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                replacement = self._wrapped.get(id(value))
                if replacement is not None and vars(owner)[attr] is value:
                    self._set(owner, attr, value, replacement)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrapped.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original object) for every patch in place."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def spans(self) -> list[Span]:
        return sorted((Span(*r) for r in self.records), key=lambda s: s.sid)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    records = tracer.records
    labels = tracer.labels
    owner_stack = tracer._owner_stack
    next_id = tracer._ids.__next__
    stack_of = tracer._stack
    annotate = tracer._annotators.get(name)
    clock = time.perf_counter_ns
    ident = threading.get_ident

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = stack_of()
        if stack:
            parent = stack[-1]
        else:
            parent = owner_stack[-1] if owner_stack else -1
        sid = next_id()
        if annotate is not None:
            labels[sid] = annotate(*args, **kwargs)
        stack.append(sid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            records.append((sid, parent, name, ident(), start, end))

    return traced


def _count_wrapper(tracer: Tracer, kind: str, fn: Callable) -> Callable:
    events = tracer.events
    stack_of = tracer._stack

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        stack = stack_of()
        events.append((kind, stack[-1] if stack else -1))
        return fn(*args, **kwargs)

    return counted


def wrapper_codes() -> set:
    """Code objects of the wrappers, for checking that none of them ran."""
    probe = Tracer()
    return {_span_wrapper(probe, "probe", len).__code__,
            _count_wrapper(probe, "probe", len).__code__}


# ---------------------------------------------------------------------------
# span arithmetic

def covered(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of `intervals`.

    Children on one thread never overlap, but children on pool threads do,
    so the union is taken rather than the sum.
    """
    total = 0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(s.start, s.end,
                                               children.get(s.sid, ()))
            for s in spans}
