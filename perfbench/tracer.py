"""An in-memory span recorder for the traced run.

The benchmark wraps the public functions of each layer (see
``layers.py``) with :meth:`Tracer.wrap`; each call records one
:class:`Span` with its parent, so self times can be computed afterwards.
Spans stay in memory and are written out once, at the end.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from types import FunctionType


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tag", "attrs")

    def __init__(self, id, parent, name, start, end, tag=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.tag = tag
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans per thread; ``tag`` links spans to one request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_tag(self, tag: str | None) -> None:
        self._local.tag = tag

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[str | None], str],
        attrs: Callable[..., dict] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call.  ``name`` may be a function of
        the parent span's name; ``attrs(*args, **kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(
                next(self._ids),
                parent.id if parent else 0,
                name(parent.name if parent else None) if callable(name) else name,
                0.0,
                0.0,
                getattr(self._local, "tag", None),
                attrs(*args, **kwargs) if attrs else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a root span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def patch_function(tracer: Tracer, module, attr: str, name, attrs=None) -> None:
    """Wrap ``module.attr`` and every ``repro`` module's binding of the same
    function object: ``from x import f`` copies the reference, and so does
    a parameter default such as ``build=build_lattice_godin``."""
    original = getattr(module, attr)
    traced = tracer.wrap(original, name, attrs)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)
            elif isinstance(value, FunctionType) and original in (value.__defaults__ or ()):
                value.__defaults__ = tuple(
                    traced if default is original else default
                    for default in value.__defaults__
                )


def patch_method(tracer: Tracer, cls: type, attr: str, name, attrs=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, attrs)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, attrs))


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }


def within(spans: Iterable[Span], root_ids: Iterable[int]) -> list[Span]:
    """The spans ``root_ids`` name and every span below them."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    wanted = set(root_ids)
    out = [span for span in spans if span.id in wanted]
    todo = list(out)
    while todo:
        kids = children[todo.pop().id]
        out.extend(kids)
        todo.extend(kids)
    return out


def self_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self seconds per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def link_requests(requests: Iterable[dict], spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Map each client request's ``tag`` to the server spans it caused.

    Every span the server recorded while handling the request carries the
    tag the client sent; spans without one (health probes) are ignored.
    A request with no server spans maps to an empty list.
    """
    by_tag: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.tag is not None:
            by_tag[span.tag].append(span)
    return {req["tag"]: by_tag.get(req["tag"], []) for req in requests}
