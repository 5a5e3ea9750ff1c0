"""Workspace arena: preallocated, reusable buffers for per-iteration temporaries.

A steady-state training iteration touches the same family of large arrays
every step — corner address/weight planes of the grid engine, MLP
activations, dense sigma/rgb compositing planes, renderer gradients,
optimiser scratch.  Allocating them fresh each iteration costs tens of
megabytes of allocator traffic per step and evicts the cache-resident
working set.  :class:`WorkspaceArena` extends the ``_concat_table`` reuse
trick of the fused grid engine to the whole loop: each call site *names* its
buffer, the arena keeps one growable flat backing allocation per
``(name, dtype)`` and hands back a correctly shaped view.

Semantics
---------
* A buffer named ``n`` is **overwritten by the next request for ``n``** —
  call sites therefore use globally unique names (the owning module's name
  is the prefix) and a buffer is only assumed valid until that site runs
  again.  This matches the natural lifetime of per-iteration temporaries
  (forward caches live exactly until the matching backward).
* Backing allocations only grow (geometrically), so after warm-up — once
  the largest batch shape has been seen — every request is a **hit**:
  zero allocations on the steady-state hot loop.  :attr:`hits` /
  :attr:`misses` make that measurable; the throughput benchmark asserts a
  zero steady-state miss rate and reports the hit rate.
* The arena is **thread-safe**: the model's density and color branches
  request their (disjointly named) buffers from one arena at the same
  time, so the lookup, backing growth and the counters run under a lock
  and :attr:`hits` + :attr:`misses` always equals the number of requests.
* Components accept ``arena=None`` and then allocate fresh arrays exactly
  as before — direct (non-trainer) use keeps allocation semantics
  unchanged.  The :class:`~repro.training.trainer.Trainer` owns one arena
  per run and threads it through the pipeline, model, renderer and
  optimisers.
"""

from __future__ import annotations

import threading
from math import prod
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["WorkspaceArena", "arena_buffer", "arena_zeros"]


class WorkspaceArena:
    """Shape-keyed pool of reusable scratch buffers (one per call-site name).

    ``allocator`` is any object with ``empty(shape, dtype)`` — in practice
    an :class:`~repro.backend.base.ArrayBackend` (see ``make_arena``), so
    backing buffers live on the owning backend's device/dtype domain.  The
    parameter is duck-typed rather than imported to keep this module free
    of backend dependencies; ``None`` keeps plain host allocation.
    """

    def __init__(self, allocator=None) -> None:
        self._backing: Dict[Tuple[str, str], np.ndarray] = {}
        self.allocator = allocator
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    # -- allocation ---------------------------------------------------------
    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        """A writable contiguous array of ``shape``/``dtype`` for site ``name``.

        Contents are **uninitialised** (they hold whatever the site wrote
        last time).  The view aliases the arena's backing store: it is valid
        until the same ``name`` is requested again.
        """
        dt = np.dtype(dtype)
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        size = prod(shape) if shape else 1
        key = (name, dt.str)
        with self._lock:
            backing = self._backing.get(key)
            if backing is None or backing.size < size:
                grown = size if backing is None else max(size, 2 * backing.size)
                if self.allocator is not None:
                    backing = self.allocator.empty((grown,), dt)
                else:
                    backing = np.empty(grown, dtype=dt)
                self._backing[key] = backing
                self.misses += 1
            else:
                self.hits += 1
        return backing[:size].reshape(shape)

    def zeros(self, name: str, shape, dtype) -> np.ndarray:
        """Like :meth:`buffer` but cleared to zero."""
        out = self.buffer(name, shape, dtype)
        out.fill(0)
        return out

    # -- accounting ---------------------------------------------------------
    @property
    def n_buffers(self) -> int:
        return len(self._backing)

    @property
    def total_bytes(self) -> int:
        """Bytes of backing storage currently held by the arena."""
        with self._lock:
            return sum(b.nbytes for b in self._backing.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without allocating (1.0 = steady state)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (backing buffers are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkspaceArena(buffers={self.n_buffers}, "
                f"bytes={self.total_bytes}, hits={self.hits}, "
                f"misses={self.misses})")


def arena_buffer(arena: Optional[WorkspaceArena], name: str, shape,
                 dtype, backend=None) -> np.ndarray:
    """Arena buffer when an arena is attached, fresh allocation otherwise.

    ``backend`` (duck-typed ``empty(shape, dtype)`` provider) supplies the
    arena-less allocation so direct component use stays on the caller's
    backend; ``None`` falls back to host ``np.empty``.
    """
    if arena is None:
        if backend is not None:
            return backend.empty(shape, dtype)
        return np.empty(shape, dtype=dtype)
    return arena.buffer(name, shape, dtype)


def arena_zeros(arena: Optional[WorkspaceArena], name: str, shape,
                dtype, backend=None) -> np.ndarray:
    """Arena zeros when an arena is attached, fresh allocation otherwise."""
    if arena is None:
        if backend is not None:
            return backend.zeros(shape, dtype)
        return np.zeros(shape, dtype=dtype)
    return arena.zeros(name, shape, dtype)
