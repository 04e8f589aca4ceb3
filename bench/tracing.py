"""Span recording around the program's public functions, from outside.

The traced run replaces module attributes (``cli.build_groups``,
``ingest.is_frame_empty``, ``frames.read_image`` ...) with wrappers that
record a span per call, then restores them.  Attributes are patched where
the caller looks them up, so nothing inside the package changes.  Spans are
kept in memory: ``(id, name, start, end, parent, stage)``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counts: Counter[str] = Counter()
        self.results: dict[str, list] = {}
        self.stage = ""
        self._stage_span: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a worker thread's outermost span belongs to the running stage
        parent = stack[-1] if stack else self._stage_span
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.stage))

    @contextmanager
    def stage_span(self, stage: str):
        self.stage = stage
        with self.span(f"cli.{stage}") as sid:
            self._stage_span = sid
            try:
                yield
            finally:
                self._stage_span = None

    def wrap(self, module, attr: str, name: str, keep: Callable | None = None, **inject) -> None:
        """Record a span per call of ``module.attr``; ``keep`` stores a
        digest of each result; ``inject`` adds keyword arguments built by
        the given factories (e.g. a fresh ``SchedulerTrace``)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            for key, factory in inject.items():
                if kwargs.get(key) is None:
                    kwargs[key] = factory()
                    self.results.setdefault(f"{name}.{key}", []).append(kwargs[key])
            with self.span(name):
                result = original(*args, **kwargs)
            if keep is not None:
                self.results.setdefault(name, []).append(keep(result))
            return result

        self._patch(module, attr, wrapper)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Record one span per item a generator function yields."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(items, None)
                if item is None:
                    return
                yield item

        self._patch(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls only: for functions too hot for a span each."""
        original = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it its children's union covers."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(sid, [])):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[sid] = (end - start) - covered
        return out

    def durations(self, name: str, stage: str | None = None) -> list[float]:
        return [
            end - start
            for _, n, start, end, _, st in self.spans
            if n == name and (stage is None or st == stage)
        ]
