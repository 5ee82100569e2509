"""Outside-in span tracer for the benchmark's traced run.

The traced run wraps public entry points of the ``repro`` layers from
outside — nothing under ``src/`` is edited — and records one span per
call: name, start, end, parent and a few attributes.  Spans live in
memory and are written out once, when the run ends.

A span's parent is the innermost span open on the same thread when it
started, so the spans of one thread form a call tree whose children
never overlap.  Self time is a span's duration minus its children's
durations; summed over a tree it telescopes back to the root's
duration exactly, so whatever no wrapped layer claims shows up as the
self time of the root (the unattributed remainder).
"""

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "thread",
                 "children_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 attrs: Dict[str, object]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.thread = threading.get_ident()
        #: Summed duration of the direct children (filled on close).
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span

    def attr(self, key: str, default=None):
        """``key`` from this span or its nearest ancestor that has it."""
        span = self
        while span is not None:
            if key in span.attrs:
                return span.attrs[key]
            span = span.parent
        return default


def _config_label(machine) -> str:
    """Machine kind plus the paper's SRT variants (ptsq, recovery)."""
    label = machine.kind
    if machine.config.per_thread_store_queues:
        label += "-ptsq"
    if machine.config.recovery_enabled:
        label += "-recovery"
    return label


class Tracer:
    """Span recorder plus the set of wrapped ``repro`` entry points."""

    def __init__(self) -> None:
        # list.append is atomic under the interpreter lock, so threads
        # (serve executor, client and loop threads) share this list.
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        record = Span(name, time.perf_counter(),
                      stack[-1] if stack else None, attrs)
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if record.parent is not None:
                record.parent.children_s += record.duration

    def record(self, name: str, start: float, end: float, **attrs) -> Span:
        """Add a finished root span (work that overlapped other spans
        of its thread, so it cannot nest)."""
        record = Span(name, start, None, attrs)
        record.end = end
        self.spans.append(record)
        return record

    def wrap(self, fn: Callable, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``before(*args)`` gives the
        span's attributes, ``after(result, *args)`` adds more."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with tracer.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    record.attrs.update(after(result, *args, **kwargs))
                return result

        return traced

    # -- installing --------------------------------------------------------
    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, original: Callable, replacement) -> None:
        """Replace ``original`` wherever a ``repro`` module looks it up."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the layer entry points named in perfbench/README.md."""
        # Import every module that looks these names up before the
        # sweep, so each caller's binding is replaced.
        import repro.campaign.engine  # noqa: F401
        import repro.harness.runner  # noqa: F401
        import repro.serve.api  # noqa: F401
        from repro.campaign import worker
        from repro.campaign.store import CampaignStore
        from repro.core import faults, machine
        from repro.isa import executor, generator
        from repro.serve.cache import ResultCache
        from repro.serve.pool import WorkerPool

        if self._restore:
            raise RuntimeError("tracer already installed")
        wrap = self.wrap
        self._patch_function(generator.generate_benchmark, wrap(
            generator.generate_benchmark, "isa.generate",
            before=lambda name, seed=0, **_: {"program": (name, seed)}))
        self._patch_function(machine.make_machine, wrap(
            machine.make_machine, "core.build"))
        self._patch_function(faults.golden_store_stream, wrap(
            faults.golden_store_stream, "core.golden"))
        self._patch_function(faults.classify_outcome, wrap(
            faults.classify_outcome, "core.classify"))
        self._patch_function(worker.execute_task, wrap(
            worker.execute_task, "campaign.task"))
        self._patch_attr(machine.Machine, "warm", wrap(
            machine.Machine.warm, "core.warm"))
        self._patch_attr(machine.Machine, "run", wrap(
            machine.Machine.run, "core.run",
            before=lambda self, *a, **k: {"label": _config_label(self)},
            after=lambda result, *a, **k: {
                "cycles": result.cycles,
                "instrs": sum(t.retired for t in result.threads)}))
        self._patch_attr(executor.FunctionalExecutor, "run", wrap(
            executor.FunctionalExecutor.run, "isa.executor",
            after=lambda result, *a, **k: {"steps": len(result)}))
        self._patch_attr(CampaignStore, "append", wrap(
            CampaignStore.append, "campaign.store"))
        self._patch_attr(ResultCache, "get", wrap(
            ResultCache.get, "serve.cache.get",
            before=lambda self, key: {"key": key},
            after=lambda result, *a: {"hit": result is not None}))
        self._patch_attr(ResultCache, "put", wrap(
            ResultCache.put, "serve.cache.put",
            before=lambda self, spec, result: {"key": spec.cache_key()}))
        self._patch_attr(WorkerPool, "execute", wrap(
            WorkerPool.execute, "serve.pool.execute",
            before=lambda self, spec, cancel=None: {
                "key": spec.cache_key(), "job_type": spec.type}))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s.start for s in self.spans), default=0.0)
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                    "parent": (index[id(span.parent)]
                               if span.parent is not None else None),
                    "thread": span.thread,
                    "attrs": {k: v for k, v in span.attrs.items()
                              if isinstance(v, (str, int, float, bool))},
                }, sort_keys=True) + "\n")
