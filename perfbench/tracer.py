"""Spans around calls into the program's public functions, from outside.

The benchmark never edits the program.  For a traced item it swaps a
layer's public function, wherever a ``repro`` module holds a reference
to it, for a wrapper that records a span, and swaps the original back
afterwards.  The wrapped call does the same work as the unwrapped one.

Spans are kept in memory and written out once, at the end of the run,
as Chrome trace events (loadable in Perfetto).  A span's *self time* is
its duration minus the time its direct children cover; spans nest
strictly because everything traced runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """An in-memory span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        #: ``(name, start, duration, parent index or -1)`` per span.
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: The last value each layer returned (for counts read off results).
        self.results: dict[str, Any] = {}
        self._stack: list[list] = []  # [index, child seconds]
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self.spans[index] = (name, t0 - self._origin, duration, parent)
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result

        return traced

    @contextmanager
    def instrument(self, layers: list[tuple[str, str, str]]) -> Iterator[None]:
        """Wrap each ``(layer name, module, attribute)`` for the block.

        ``attribute`` may be ``Class.method``.  A module-level function
        is replaced in every loaded ``repro`` module (and module-level
        dict) that holds it, so ``from x import f`` bindings and loader
        tables see the wrapper too.
        """
        undo: list[Callable[[], None]] = []
        try:
            for name, module, attr in layers:
                undo.extend(self._patch(name, importlib.import_module(module), attr))
            yield
        finally:
            for restore in reversed(undo):
                restore()

    def _patch(self, name: str, module: Any, attr: str) -> list[Callable[[], None]]:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new: Any = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            setattr(cls, meth, new)
            return [lambda: setattr(cls, meth, raw)]
        original = getattr(module, attr)
        wrapper = self.wrap(name, original)
        undo: list[Callable[[], None]] = []
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append(functools.partial(setattr, mod, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            undo.append(functools.partial(value.__setitem__, k, original))
        return undo

    def write(self, path: str) -> None:
        """Dump every span as Chrome ``X`` events."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": os.getpid(),
                "tid": 0,
                "args": {"parent": parent},
            }
            for name, start, duration, parent in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
