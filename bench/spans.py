"""Spans around the public functions of the doublephase modules.

The benchmark never edits the program to measure it. It replaces a
public function at every module attribute where a caller looks it up
(``studies.solve_dirichlet`` as well as ``variational.solve_dirichlet``)
with a wrapper, runs the workload, and puts the originals back. Private
helpers are never wrapped: later changes are free to delete them.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One call into a layer: name, clock interval, causing span, op id."""

    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    op: int = -1
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; ``op`` is the id of the operation running."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrapper(self, name, annotate=None):
        """Factory turning a function into one that records a span.

        ``annotate(span, args, kwargs, result)`` may add counts read
        from the returned value; it runs after the clock has stopped.
        """

        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = Span(name, parent=self._stack[-1] if self._stack else -1, op=self.op)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.failed = True
                    raise
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                return result

            return traced

        return factory

    def self_times(self):
        """Per span: its duration minus the time its direct children cover.

        Calls are single-threaded and nested, so the children of a span
        never overlap and their durations add up.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for index, span in enumerate(self.spans):
                f.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _owners(owner, attr, original):
    """Every place a caller can look ``attr`` up and find ``original``."""
    if not inspect.ismodule(owner):
        return [owner]
    found = [owner]
    for name, module in list(sys.modules.items()):
        if module is owner or not (name == "doublephase" or name.startswith("doublephase.")):
            continue
        if getattr(module, attr, None) is original:
            found.append(module)
    return found


@contextlib.contextmanager
def patched(targets):
    """Install wrappers for ``(owner, attr, factory)`` targets, then undo.

    ``owner`` is a module (every alias of the function in the package is
    replaced too) or a class (the method is replaced on the class).
    Targets apply in order, so a later factory wraps an earlier wrapper.
    """
    undo = []
    try:
        for owner, attr, factory in targets:
            original = getattr(owner, attr)
            replacement = factory(original)
            for place in _owners(owner, attr, original):
                undo.append((place, attr, original))
                setattr(place, attr, replacement)
        yield
    finally:
        for place, attr, original in reversed(undo):
            setattr(place, attr, original)
