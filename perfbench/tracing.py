"""Spans recorded from outside the program.

:class:`Patcher` replaces public functions and methods of ``repro`` at
run time -- the program's source is never edited -- and restores them.
:class:`Tracer` uses it to record one span per call: name, start, end,
parent span and a unit id (one audit, or one epoch).  Spans stay in
memory until :meth:`Tracer.write` dumps them; :meth:`Tracer.summary`
turns them into per-name inclusive times, per-layer self times and each
unit's wall-clock and unaccounted remainder.

Only the thread that installed the tracer records: the program runs its
serving, auditing and fleet loop on one thread, and the fleet workload's
producer thread must not appear in the program's spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from spec import LAYERS, span_metrics


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: Optional[str] = None


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Replaces functions at run time and puts the originals back."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def patch(self, target: str, make_wrapper: Callable[[Callable], Callable]
              ) -> None:
        """Replace ``target`` by ``make_wrapper(original)``."""
        owner, attr = resolve(target)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if isinstance(owner, type) or not callable(original):
            return
        # ``from x import f`` bound the function under other modules'
        # names too: patch every loaded module of the program, and the
        # benchmark's workloads, that holds it.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not (
                module_name.startswith("repro") or module_name == "workloads"
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class Tracer(Patcher):
    """Wraps the layers' calls and records their spans."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    # -- recording -----------------------------------------------------------

    def _recording(self) -> bool:
        return threading.get_ident() == self._thread

    def open(self, name: str, unit: Optional[str] = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent].unit
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               unit=unit))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, unit: str):
        """A unit's root span (one audit, or the fleet's window)."""
        index = self.open(name, unit)
        try:
            yield
        finally:
            self.close(index)

    def set_unit(self, index: int, unit: str) -> None:
        """Give the just-closed span ``index`` and every span recorded
        inside it ``unit`` (used when only a call's result names it).
        One thread records, so the spans after ``index`` are exactly
        its descendants."""
        for span in self.spans[index:]:
            span.unit = unit

    # -- wrapping ------------------------------------------------------------

    def wrap(self, target: str, name: str,
             unit_of: Optional[Callable[..., Optional[str]]] = None,
             inside: Optional[str] = None) -> None:
        """Record a span named ``name`` around every call of ``target``.
        ``unit_of(args, result)`` may name the call's unit once it returns.
        With ``inside``, only calls made within a span of that name are
        recorded.  A call nested in a span of the same name is not
        recorded again."""
        tracer = self

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                if not tracer._recording():
                    return original(*args, **kwargs)
                open_names = [tracer.spans[i].name for i in tracer._stack]
                if name in open_names or (inside and inside not in open_names):
                    return original(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if unit_of is not None:
                    unit = unit_of(args, result)
                    if unit is not None:
                        tracer.set_unit(index, unit)
                return result
            return wrapper

        self.patch(target, make_wrapper)

    def count(self, target: str, name: str) -> None:
        """Count calls of ``target`` (no span), e.g. ``os:fsync``."""
        calls = self.calls

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self.patch(target, make_wrapper)

    def install_layers(self, unit_hooks: Optional[Dict[str, Callable]] = None
                       ) -> None:
        """Wrap every public call named in the layer table.  App compute
        is recorded during re-execution only; while serving it is part
        of the serve span's self time."""
        unit_hooks = unit_hooks or {}
        for spec in LAYERS.values():
            for name, targets in spec["spans"].items():
                inside = "verifier.reexec_s" if name == "app.cpu_work_s" else None
                for target in targets:
                    self.wrap(target, name, unit_hooks.get(target), inside)
        self.count("os:fsync", "storage.fsyncs")

    # -- analysis ------------------------------------------------------------

    def summary(self, root_name: str) -> Dict[str, object]:
        """Inclusive time and calls per span name, self time per layer,
        and per unit its wall-clock and unaccounted remainder.

        A unit's wall-clock runs from its first span's start to its last
        span's end: one audit cycle, or an epoch from its admission to its
        verdict.  Its unaccounted remainder is the part of that time no
        traced call covers.  The fleet audits epochs interleaved, so the
        same uncovered moment can fall in several epochs' wall-clock."""
        children_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children_time[span.parent] += span.end - span.start
        layer_of = span_metrics()
        inclusive: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        self_time: Dict[str, float] = defaultdict(float)
        roots = {i for i, span in enumerate(self.spans) if span.name == root_name}
        extent: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            if span.unit is not None:
                first_last = extent.setdefault(span.unit, [span.start, span.end])
                first_last[0] = min(first_last[0], span.start)
                first_last[1] = max(first_last[1], span.end)
            if index in roots:
                continue
            duration = span.end - span.start
            inclusive[span.name] += duration
            calls[span.name] += 1
            self_time[layer_of.get(span.name, "other")] += duration - children_time[index]
        # The roots' children do not overlap: one thread records.
        covered = sorted((span.start, span.end) for span in self.spans
                         if span.parent in roots)
        units = {}
        for unit, (first, last) in extent.items():
            inside = sum(max(0.0, min(end, last) - max(start, first))
                         for start, end in covered)
            units[unit] = (last - first, last - first - inside)
        return {
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "self": dict(self_time),
            "units": units,
        }

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines (index, name, start, end, parent,
        unit), times in seconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                row = asdict(span)
                row.update(index=index, start=span.start - t0, end=span.end - t0)
                fh.write(json.dumps(row) + "\n")
