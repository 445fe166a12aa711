"""Spans and counters recorded from outside the library.

A traced pass rebinds module attributes (``wsd.analyze``,
``textutils.decompose`` ...) to timing wrappers, and wraps the objects the
benchmark injects (tagger, verifier, embedding provider) in proxies.  The
library itself is not modified; ``restore`` puts every original back.

Each span records its duration and its *self* time: the duration minus
the time covered by the spans it called.  Self times of all spans
therefore partition the time spent inside traced calls.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(counts, args, result,
        seconds)`` updates counters once the call has returned."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counts = self.counts

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - inner
            if after is not None:
                after(counts, args, result, duration)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def proxy(self, target, **methods):
        """An object whose listed methods are traced; every other attribute
        is read from ``target``.  ``methods`` maps a method name to
        ``(span name, after hook or None)``."""
        return _Proxy(target, {
            method: self.wrap(name, getattr(target, method), after)
            for method, (name, after) in methods.items()
        })

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def covered_seconds(self) -> float:
        """Time inside any traced call: the sum of all self times."""
        return sum(s[2] for s in self.stats.values())


class _Proxy:
    def __init__(self, target, methods):
        self._target = target
        self.__dict__.update(methods)

    def __getattr__(self, attr):
        return getattr(self._target, attr)
