"""In-memory spans around calls into the program, and self time from them.

A span is one call of a wrapped function: its name, start and end on the
perf_counter clock, the index of the span that was open when it started
(-1 for none), the index of the descriptor being processed, and the name
of the exception it raised ("" if it returned). The program is single
threaded, so spans nest: a span's self time is its duration minus the
durations of its direct children.

Wrappers are installed where the calling module looks the name up, so the
program's own files stay untouched: `install` replaces every attribute of
the program's modules that refers to the original function.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    descriptor: int
    error: str


class Tracer:
    """Collects spans, plain call counts, distinct arguments and tallies."""

    def __init__(self) -> None:
        # a slot is None only while its call is still running
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.tallies: Counter[str] = Counter()
        self.descriptor = -1
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        distinct: bool = False,
        tally: Callable[["Tracer", object, bool], None] | None = None,
    ) -> Callable:
        """Record a span per call of fn.

        With `distinct`, the call's arguments are kept so a hit ratio can
        be derived; `tally(tracer, result, first_time)` runs after each
        call that returns.
        """
        spans, stack = self.spans, self._stack
        seen = self.distinct[name] if distinct else None

        @wraps(fn)
        def traced(*args, **kwargs):
            fresh = False
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                fresh = key not in seen
                seen.add(key)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = ""
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.descriptor, error)
            if tally is not None:
                tally(self, result, fresh)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Count calls of fn without a span, for functions called too often
        for a span each."""
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    `spans[k].parent` indexes into `spans`, so the list must be the
    tracer's full list in recording order.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def span_stats(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: calls, self time, total time and raised exceptions."""
    out: dict[str, SpanStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = out.setdefault(s.name, SpanStats())
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += own
        if s.error:
            st.errors[s.error] += 1
    return out


def install(
    package: str,
    module: str,
    attr: str,
    wrapper_for: Callable[[Callable], Callable],
    callers: tuple[str, ...] | None = None,
) -> Callable[[], None]:
    """Replace `module.attr` wherever the package's modules refer to it.

    `attr` may be "Class.method", which patches the class. With
    `callers`, only those modules' references are replaced. Returns a
    function that restores every replaced reference.
    """
    mod = sys.modules[module]
    undo: list[tuple[object, str, object]] = []
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, wrapper_for(orig))
        undo.append((cls, meth, orig))
    else:
        orig = getattr(mod, attr)
        wrapper = wrapper_for(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == package or name.startswith(package + ".")):
                continue
            if callers is not None and name not in callers:
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    undo.append((m, key, orig))

    def restore() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


def write_spans(path, spans: list[Span], descriptor_ids: list[str]) -> None:
    """Write spans as gzipped tab-separated lines, one per span."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tdescriptor\terror\n")
        for s in spans:
            did = descriptor_ids[s.descriptor] if s.descriptor >= 0 else ""
            fh.write(
                f"{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{did}\t{s.error}\n"
            )
