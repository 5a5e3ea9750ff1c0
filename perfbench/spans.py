"""In-memory span recorder and the instrumentation that feeds it.

The benchmark times the calls into each layer's public functions from its
own code: :func:`instrument` swaps traced wrappers onto the classes and
module names listed in :data:`TARGETS` for the duration of a ``with`` block
and restores the originals afterwards.  Nothing under ``src/`` is edited.

A span carries its name, start and end (``time.perf_counter`` seconds), the
index of its parent span (the innermost open span of the same thread, -1
for a root), the thread id, and the work unit it belongs to: a training
step in the train workloads, a service batch in ``serve_mixed`` (each
served job belongs to exactly one batch).  Spans stay in memory until the
benchmark writes them out at the end of a run.

A span's self time is its duration minus the part of that interval its
child spans cover.  Wrappers are installed for the whole traced run but
record only while :attr:`Tracer.enabled` is set, so the benchmark can
alternate traced and untraced work to measure tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    thread: int
    unit: Optional[str]


class Tracer:
    """Thread-safe span and counter recorder (append-only, in memory)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counter totals by (work unit, name).
        self.counters: Dict[Tuple[Optional[str], str], float] = {}
        self.enabled = False
        self.unit: Optional[str] = None        # current work unit (caller-set)
        #: Workspace arenas seen while tracing (for their held bytes).
        self.arenas: "weakref.WeakSet" = weakref.WeakSet()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_unit(self, unit: str) -> None:
        """Label later spans of the calling thread with ``unit``."""
        self._local.unit = unit

    def _unit(self) -> Optional[str]:
        return getattr(self._local, "unit", None) or self.unit

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), float("nan"),
                    stack[-1] if stack else -1, threading.get_ident(),
                    self._unit())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1.0) -> None:
        key = (self._unit(), name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def totals(self, units: Set[Optional[str]]) -> Dict[str, float]:
        """Counter totals by name over the given work units."""
        out: Dict[str, float] = {}
        for (unit, name), value in self.counters.items():
            if unit in units:
                out[name] = out.get(name, 0.0) + value
        return out


def self_times(spans: List[Span]) -> List[float]:
    """Self seconds of every span: duration minus the union of its
    children's intervals, clipped to the parent's own interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def ms_by_name(spans: List[Span], units: Set[Optional[str]]
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Total self and inclusive milliseconds per span name, over the spans
    of the given work units (``spans`` is the tracer's whole list, which
    the parent indices refer to)."""
    own: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    for span, own_s in zip(spans, self_times(spans)):
        if span.unit in units:
            own[span.name] = own.get(span.name, 0.0) + 1e3 * own_s
            inclusive[span.name] = (inclusive.get(span.name, 0.0)
                                    + 1e3 * (span.end - span.start))
    return own, inclusive


def span_records(spans: List[Span]) -> List[dict]:
    """JSON-ready span list (times relative to the first span)."""
    origin = min((span.start for span in spans), default=0.0)
    own = self_times(spans)
    return [{"name": s.name, "start_ms": 1e3 * (s.start - origin),
             "end_ms": 1e3 * (s.end - origin), "self_ms": 1e3 * t,
             "parent": s.parent, "thread": s.thread, "unit": s.unit}
            for s, t in zip(spans, own)]


# -- instrumentation -----------------------------------------------------------

def _branch_of(name: str) -> str:
    return "density" if name.startswith("density") else "color"


def _traced(tracer: Tracer, fn: Callable, name_of: Callable,
            after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span named ``name_of(args)``; ``after(tracer, args,
    result)`` records counters at the same boundary."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.begin(name_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _fixed(name: str) -> Callable:
    return lambda args: name


def _count_points(branch: str) -> Callable:
    def after(tracer, args, result):
        tracer.count(f"grid.points.{branch}", args[1].shape[0])
    return after


def _count_backward(branch: str) -> Callable:
    def after(tracer, args, result):
        grid = getattr(args[0], f"{branch}_grid")
        tracer.count(f"grid.backward_points.{branch}", args[1].shape[0])
        if grid.last_touched_rows is not None:
            tracer.count(f"grid.touched_rows.{branch}", grid.last_touched_rows)
            tracer.count(f"grid.scatter_updates.{branch}",
                         grid.last_scatter_updates)
            tracer.count(f"grid.backward_calls.{branch}")
    return after


def _count_keep(tracer, args, result):
    tracer.count("occupancy.kept", float(result.sum()))
    tracer.count("occupancy.tested", float(result.size))


def _count_checkpoint_bytes(tracer, args, result):
    try:
        tracer.count("io.checkpoint_bytes", os.path.getsize(args[0]))
    except OSError:
        pass


def _count_arena(tracer: Tracer, fn: Callable) -> Callable:
    """Count workspace-arena requests and misses (no span: the arena is
    asked for buffers hundreds of times a step)."""

    @functools.wraps(fn)
    def wrapper(arena, *args, **kwargs):
        if not tracer.enabled:
            return fn(arena, *args, **kwargs)
        misses = arena.misses
        out = fn(arena, *args, **kwargs)
        tracer.count("workspace.requests")
        tracer.count("workspace.misses", arena.misses - misses)
        tracer.arenas.add(arena)
        return out

    return wrapper


def _set_batch_unit(tracer: Tracer, fn: Callable) -> Callable:
    """Each service batch starts with a residency checkout: label the
    worker thread's later spans with a fresh batch id."""
    counter = itertools.count()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.set_thread_unit(f"batch-{next(counter)}")
        return fn(*args, **kwargs)

    return wrapper


#: (module, attribute path, span name or name function, counter hook).
#: A two-part path is a class method; a one-part path a module-level name
#: (patched in the namespace that calls it).
TARGETS = [
    ("repro.core.decoupled_grid", "DecoupledGridEncoder.encode_density",
     "grid.encode.density", _count_points("density")),
    ("repro.core.decoupled_grid", "DecoupledGridEncoder.encode_color",
     "grid.encode.color", _count_points("color")),
    ("repro.core.decoupled_grid", "DecoupledGridEncoder.backward_density",
     "grid.backward.density", _count_backward("density")),
    ("repro.core.decoupled_grid", "DecoupledGridEncoder.backward_color",
     "grid.backward.color", _count_backward("color")),
    ("repro.nn.mlp", "MLP.forward",
     lambda args: f"mlp.forward.{_branch_of(args[0].name)}", None),
    ("repro.nn.mlp", "MLP.backward",
     lambda args: f"mlp.backward.{_branch_of(args[0].name)}", None),
    ("repro.nerf.volume_rendering", "VolumeRenderer.forward",
     "render.forward", None),
    ("repro.nerf.volume_rendering", "VolumeRenderer.backward",
     "render.backward", None),
    ("repro.training.trainer", "mse_loss", "loss.mse", None),
    ("repro.nerf.scheduling", "UniformScheduler.sample_batch",
     "scheduling.sample_batch", None),
    ("repro.nerf.scheduling", "MortonTileScheduler.sample_batch",
     "scheduling.sample_batch", None),
    ("repro.nerf.scheduling", "OccupancyTileScheduler.sample_batch",
     "scheduling.sample_batch", None),
    ("repro.nerf.pipeline", "RenderPipeline.stage_samples",
     "sampling.stage_samples", None),
    ("repro.nerf.pipeline", "RenderPipeline.stage_cull", "pipeline.cull", None),
    ("repro.nerf.pipeline", "RenderPipeline.stage_gather",
     "pipeline.gather", None),
    ("repro.nerf.pipeline", "RenderPipeline.stage_composite",
     "pipeline.composite", None),
    ("repro.nerf.pipeline", "RenderPipeline.backward_to_points",
     "pipeline.backward_to_points", None),
    ("repro.nerf.occupancy", "OccupancyGrid.filter_samples",
     "occupancy.cull", _count_keep),
    ("repro.nerf.occupancy", "OccupancyGrid.update", "occupancy.update", None),
    ("repro.nn.optim", "Adam.step",
     lambda args: f"optim.step.{_branch_of(args[0].parameters[0].name)}", None),
    ("repro.training.trainer", "Trainer.train_step", "trainer.step", None),
    ("repro.serving.service", "render_coalesced",
     "batching.render_coalesced", None),
    ("repro.serving.residency", "ResidencyManager.checkout",
     "residency.checkout", None),
    ("repro.serving.residency", "save_trainer_checkpoint", "io.save",
     _count_checkpoint_bytes),
    ("repro.serving.residency", "load_trainer_checkpoint", "io.load", None),
]

#: Wrappers that count without recording a span, by (module, path).
COUNTERS = [
    ("repro.utils.workspace", "WorkspaceArena.buffer", _count_arena),
    ("repro.serving.residency", "ResidencyManager.checkout", _set_batch_unit),
]


def _patch(undo: list, module_name: str, path: str,
           wrap: Callable[[Callable], Callable]) -> None:
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    original = owner.__dict__[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, wrap(original))


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install traced wrappers on every target; restore them on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, path, name, after in TARGETS:
            name_of = name if callable(name) else _fixed(name)
            _patch(undo, module_name, path,
                   lambda fn: _traced(tracer, fn, name_of, after))
        for module_name, path, make in COUNTERS:
            _patch(undo, module_name, path, lambda fn: make(tracer, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
