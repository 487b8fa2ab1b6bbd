"""In-memory span tracer that wraps sqztune's public functions from outside.

A wrapped function records one span per call: name, start, end, parent span
and op id.  Start and end are read from the process CPU clock.  Self time is the span's duration minus the time covered by its
child spans.  Spans stay in memory and are written out once, after the run.

A function is wrapped at every module attribute bound to it, not only in the
module that defines it: ``scenarios`` does ``from .timeseries import
simulate_spectrum`` and the optics modules import ``gaussian_core`` names, so
patching only the defining module would lose the child spans.  Methods are
wrapped on the class.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

Measure = Callable[[Counter, tuple, object], None]


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One traced function: its metric prefix and where it is defined."""

    name: str
    owner: object  # defining module, or the class for a method
    attr: str
    measure: Measure | None = None


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op_id = -1
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def _wrap(self, target: Target, fn):
        stat = self.stats.setdefault(target.name, LayerStat())
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.process_time  # the clock the end-to-end op times use

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    (frame[0], -1 if parent is None else parent[0], self.op_id, target.name, start, end)
                )
            if target.measure is not None:
                target.measure(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target]) -> Iterator[None]:
        """Wrap every target at each of its sqztune bindings; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sqztune" or n.startswith("sqztune.")]
        try:
            for target in targets:
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(target, original)
                owners = [target.owner] if isinstance(target.owner, type) else modules
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                            self.patched.append((owner, key, original))
            yield
        finally:
            for owner, key, original in reversed(self.patched):
                setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every patched attribute is the original object again."""
        return all(getattr(owner, key) is original for owner, key, original in self.patched)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
