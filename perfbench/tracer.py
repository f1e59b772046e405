"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps public entry points of the program's layers from the
benchmark's own files, by replacing class or module attributes, and
restores every one of them afterwards.  It is only ever installed in the
``--trace 1`` process; untraced runs happen in processes that never import
this module, so a wrapper left behind cannot turn them into traced runs.

Two kinds of wrapper:

* per-hop layers (route selection, replica submit, latency recording — about
  a million calls each on ``fig19_uncached``) only add to a
  ``[calls, total_s, self_s]`` counter;
* coarse layers (a run, ``begin_run``, the control tick, the shard merge)
  also record a span ``(id, parent_id, name, start_s, end_s)``, kept in
  memory and written out when the benchmark ends.

A layer's self time is its total time minus the time of the wrapped calls
made inside it.  Each wrapper costs a roughly fixed time per call, which
:func:`calibrate` measures so that the traced wall time can be checked
against the untraced one.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable


class Tracer:
    """Counters, spans and the attribute patches that feed them."""

    def __init__(self) -> None:
        #: Layer name -> ``[calls, total_s, self_s]``.
        self.counters: dict[str, list] = {}
        #: Coarse spans ``(id, parent_id, name, start_s, end_s)``.
        self.spans: list = []
        #: Heap events seen through the engine's ``on_event`` hook, by kind.
        self.event_counts = [0] * 16
        #: Cache gathers (hits, total) read at each sample tick.
        self.cache_gathers = [0.0, 0.0]
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    def reset(self) -> None:
        """Zero every counter and span, keeping the installed wrappers."""
        for counter in self.counters.values():
            counter[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.event_counts[:] = [0] * len(self.event_counts)
        self.cache_gathers[:] = [0.0, 0.0]

    def on_event(self, now: float, kind: int) -> None:
        """The ``run(on_event=...)`` hook: count heap events by kind."""
        self.event_counts[kind] += 1

    def wrap(self, fn: Callable, name: str, span: bool = False) -> Callable:
        """``fn`` with its calls timed into the ``name`` counter."""
        counter = self.counters.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter
        if not span:

            def traced(*args, **kwargs):
                child_time.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    counter[0] += 1
                    counter[1] += elapsed
                    counter[2] += elapsed - child_time.pop()
                    if child_time:
                        child_time[-1] += elapsed

        else:
            spans = self.spans
            open_spans = self._open_spans

            def traced(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
                child_time.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    open_spans.pop()
                    counter[0] += 1
                    counter[1] += elapsed
                    counter[2] += elapsed - child_time.pop()
                    if child_time:
                        child_time[-1] += elapsed
                    spans[span_id] = (span_id, parent, name, start, end)

        return functools.update_wrapper(traced, fn)

    def patch(
        self,
        owner: object,
        attr: str,
        name: str = "",
        span: bool = False,
        wrapper: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper (undone by :meth:`restore`).

        The wrapper is ``wrapper(original)`` when given, else a timed
        :meth:`wrap` into the ``name`` counter.  An attribute inherited by a
        class is shadowed on that class and deleted again on restore.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else None
        original = getattr(owner, attr)
        replacement = wrapper(original) if wrapper else self.wrap(original, name, span)
        self._patches.append((owner, attr, own, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, own, raw = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def snapshot(self) -> dict:
        """Counters, event counts, cache gathers and spans as JSON-ready data."""
        return {
            "counters": self.counters,
            "events": self.event_counts,
            "cache": self.cache_gathers,
            "spans": self.span_records(),
        }

    def add(self, snapshot: dict) -> None:
        """Add another process's counters, events and cache gathers."""
        for name, values in snapshot["counters"].items():
            counter = self.counters.setdefault(name, [0, 0.0, 0.0])
            for field, value in enumerate(values):
                counter[field] += value
        for kind, count in enumerate(snapshot["events"]):
            self.event_counts[kind] += count
        for field, value in enumerate(snapshot["cache"]):
            self.cache_gathers[field] += value

    def span_records(self) -> list[dict]:
        """Closed spans as records.  In a forked worker, a parent id may
        name a span of the process it was forked from."""
        fields = ("id", "parent", "name", "start_s", "end_s")
        return [dict(zip(fields, span)) for span in self.spans if span is not None]

    def metric(self, name: str, field: int = 2) -> float:
        """One field of a counter (0 calls, 1 total_s, 2 self_s); 0 if unseen."""
        return self.counters.get(name, (0, 0.0, 0.0))[field]


def tracing_cost(snapshot: dict, wrapper_s: float, hook_s: float) -> float:
    """Estimated tracing cost in seconds of one process's snapshot."""
    calls = sum(counter[0] for counter in snapshot["counters"].values())
    return calls * wrapper_s + sum(snapshot["events"]) * hook_s


def calibrate(calls: int = 100_000, trials: int = 5) -> tuple[float, float]:
    """Per-call cost in seconds of a wrapper and of the event hook.

    A wrapper adds its cost to a call the program makes anyway, so it is
    timed against the bare call; the hook is a call the untraced run does not
    make at all, so it is timed against an empty loop.  Returns the medians
    over ``trials``.
    """

    def noop(a, b):
        return None

    probe = Tracer()
    traced = probe.wrap(noop, "calibration")
    hook = probe.on_event
    wrapper_costs = []
    hook_costs = []
    loop = range(calls)
    for _ in range(trials):
        start = time.perf_counter()
        for _ in loop:
            pass
        empty = time.perf_counter() - start
        start = time.perf_counter()
        for _ in loop:
            noop(0.0, 1)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in loop:
            traced(0.0, 1)
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in loop:
            hook(0.0, 1)
        hooked = time.perf_counter() - start
        wrapper_costs.append((wrapped - bare) / calls)
        hook_costs.append((hooked - empty) / calls)
    return statistics.median(wrapper_costs), statistics.median(hook_costs)
