"""Spans and counters recorded around the calls into each poupard layer.

The wrappers live here, in the benchmark, not in the package: `Tracer.wrap`
replaces a public function at every site it was imported into
(`poupard.verify.build_matrix`, `poupard.delta.build_matrix`, ...), so calls
made inside the package are seen too.  `Tracer.restore` puts the originals
back.

A span is `(name, start, end, parent)`, where `parent` is the index of the
span that was open when this one started (-1 for a root).  Spans are kept in
memory; `write` dumps them at the end of a pass.  The layer of a span is the
part of its name before the first dot.

Self time of a span is its duration minus the durations of its children.
Spans nest strictly (one thread, one call stack), so the self times of all
spans add up to the durations of the root spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

Span = Tuple[str, float, float, int]


def import_sites(fn) -> List[Tuple[object, str]]:
    """Every (module, attribute) of the poupard package bound to `fn`."""
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "poupard" or name.startswith("poupard.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, attr))
    return sites


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, fn, value) -> None:
        for mod, attr in import_sites(fn):
            self.replace(mod, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer(Patcher):
    """Records a span per wrapped call, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def _begin(self) -> Tuple[int, int]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, parent))  # filled in by _end
        self._open.append(index)
        return index, parent

    def _end(self, index: int, parent: int, name: str, start: float) -> None:
        end = self.clock()
        self._open.pop()
        self.spans[index] = (name, start, end, parent)

    def traced(self, name: str, fn, after: Callable | None = None):
        """`fn` wrapped in a span; `after(args, result)` runs once the span is
        closed, so counting work does not inflate it."""

        def wrapper(*args, **kwargs):
            index, parent = self._begin()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, parent, name, start)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_generator(self, name: str, fn, counter: str):
        """A generator function wrapped so that the time spent producing items
        becomes one span per generator (its busy time, not an interval), and
        the items are counted under `counter`."""

        def drain(inner):
            parent = self._open[-1] if self._open else -1
            busy = 0.0
            items = 0
            first = self.clock()
            try:
                while True:
                    start = self.clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += self.clock() - start
                        return
                    busy += self.clock() - start
                    items += 1
                    yield item
            finally:
                self.spans.append((name, first, first + busy, parent))
                self.counts[counter] += items

        def wrapper(*args, **kwargs):
            return drain(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name: str, fn, after: Callable | None = None) -> None:
        """Trace `fn` at every import site in the package."""
        self.replace_everywhere(fn, self.traced(name, fn, after))

    def wrap_method(self, name: str, cls, attr: str, after: Callable | None = None) -> None:
        self.replace(cls, attr, self.traced(name, getattr(cls, attr), after))

    def summary(self) -> Dict[str, object]:
        """Per span name: calls, total and self seconds; per layer: self
        seconds; plus the counters."""
        child_time = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: Dict[str, Dict[str, float]] = {}
        layers: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            layers[name.split(".", 1)[0]] += own
        return {
            "spans": len(self.spans),
            "names": names,
            "layers": dict(layers),
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class CallCounter(Patcher):
    """Counts calls to wrapped methods without timing them."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter = Counter()

    def count_method(self, key: str, cls, attr: str) -> None:
        fn = getattr(cls, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self.replace(cls, attr, wrapper)
