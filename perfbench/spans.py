"""In-memory spans around calls into the program's public functions.

A :class:`Recorder` replaces a function where its caller looks it up
(a module global or a class attribute) with a wrapper that records one
span per call: ``(id, name, parent, start, end, extra)``.  Parents come
from a per-thread stack, so nested calls on one thread form a tree.
Spans stay in memory; :meth:`Recorder.dump` writes them out once, at
the end.

The solve batcher hands work from the HTTP handler thread to its worker
thread.  :meth:`Recorder.link_batch` carries the request across that
boundary: the ``SolveBatcher.submit`` wrapper registers the problem
object it was given, and the ``solve_many`` wrapper records which
submits each batch served (``extra["members"]``).

:func:`layer_table` turns spans into per-operation self times.  A
span's self time is its duration minus the part of it covered by its
children; a batch counts once for every request that rode in it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (sid, name, parent, start, end, extra)
Span = Tuple[int, str, Optional[int], float, float, Dict[str, Any]]


class Recorder:
    """Collects spans from wrapped functions on every thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._pending: Dict[int, int] = {}  # id(problem) -> submit sid

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **extra: Any):
        """Record one span around the ``with`` body; yields its extras."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end, extra))

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Optional[Callable[..., None]] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``annotate(extra, result, args, token)`` may add fields to the
        span after the call returns; ``token`` is what ``before()``
        returned just before the call (``None`` without ``before``).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as extra:
                token = before() if before is not None else None
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(extra, result, args, token)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_context(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a context-manager factory: the span
        covers entering the context only (the time spent waiting)."""
        original = owner.__dict__[attr]

        @contextmanager
        def wrapper(*args, **kwargs):
            manager = original(*args, **kwargs)
            with self.span(name):
                value = manager.__enter__()
            try:
                yield value
            except BaseException as error:
                if not manager.__exit__(type(error), error, error.__traceback__):
                    raise
            else:
                manager.__exit__(None, None, None)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def link_batch(self, batcher_cls: Any, batcher_module: Any) -> None:
        """Span ``SolveBatcher.submit`` and the ``solve_many`` it calls,
        recording which submits each batch served."""
        submit = batcher_cls.__dict__["submit"]
        solve_many = batcher_module.solve_many
        pending = self._pending

        @functools.wraps(submit)
        def submit_wrapper(batcher, problem, *args, **kwargs):
            with self.span("serve.queue_wait"):
                key = id(problem)
                pending[key] = self.current()
                try:
                    return submit(batcher, problem, *args, **kwargs)
                finally:
                    pending.pop(key, None)

        @functools.wraps(solve_many)
        def solve_many_wrapper(tasks, *args, **kwargs):
            tasks = list(tasks)
            members = [pending.get(id(task[0])) for task in tasks]
            with self.span(
                "runtime.executor.solve_many",
                members=[m for m in members if m is not None],
                size=len(tasks),
            ):
                return solve_many(tasks, *args, **kwargs)

        self._patched.append((batcher_cls, "submit", submit))
        self._patched.append((batcher_module, "solve_many", solve_many))
        batcher_cls.submit = submit_wrapper
        batcher_module.solve_many = solve_many_wrapper

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> List[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            sid, name, parent, start, end, extra = json.loads(line)
            spans.append((sid, name, parent, start, end, extra))
    return spans


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_table(
    spans: List[Span], roots: Iterable[int]
) -> Tuple[Dict[str, float], Dict[str, List[Span]]]:
    """Self time per span name, summed over the trees under ``roots``.

    Returns ``(self_seconds, spans_by_name)`` where a batch tree is
    counted once per root whose ``serve.queue_wait`` rode in it.
    ``spans_by_name`` lists every span counted, with repeats.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[int]] = defaultdict(list)
    for sid, _name, parent, *_ in spans:
        if parent is not None:
            children[parent].append(sid)
    for sid, name, _parent, _s, _e, extra in spans:
        if name == "runtime.executor.solve_many":
            for member in extra.get("members", ()):
                children[member].append(sid)

    self_time: Dict[int, float] = {}
    for sid, _name, _parent, start, end, _extra in spans:
        kids = [(by_id[k][3], by_id[k][4]) for k in children.get(sid, ())]
        self_time[sid] = (end - start) - _covered(start, end, kids)

    totals: Dict[str, float] = defaultdict(float)
    counted: Dict[str, List[Span]] = defaultdict(list)
    for root in roots:
        todo = [root]
        while todo:
            sid = todo.pop()
            span = by_id[sid]
            totals[span[1]] += self_time[sid]
            counted[span[1]].append(span)
            todo.extend(children.get(sid, ()))
    return dict(totals), dict(counted)
