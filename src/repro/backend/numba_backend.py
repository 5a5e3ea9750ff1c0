"""Optional ``NumbaBackend`` — JIT kernels for the three hottest primitives.

Only registered when numba is importable (``importlib.util.find_spec``
guard — the package never becomes a hard dependency).  The backend JITs the
three primitives profiling shows dominate a training step:

* ``take_out`` — the fused engine's flat address-plane gathers,
* ``scatter_add`` — the dense COO backward scatter,
* ``bincount_add`` — the per-corner segment reduction of the grid backward.

Each kernel is a plain sequential loop (no ``fastmath``, no ``parallel``),
so the accumulation order — and therefore the float result — matches the
numpy reference bit-for-bit on IEEE-conforming builds.  The
``bincount_add`` scratch is per thread, because the model's two branches
run their grid backwards at the same time on one backend instance.
Everything else inherits the reference implementation.
"""

from __future__ import annotations

import importlib.util
import threading

import numpy as np

from repro.backend.numpy_backend import NumpyBackend

__all__ = ["NUMBA_AVAILABLE", "NumbaBackend"]

#: True when numba is importable in this environment.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

NumbaBackend = None

if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba exists
    import numba

    @numba.njit(cache=True)
    def _take_flat(flat, indices, out):
        n = flat.shape[0]
        for i in range(indices.shape[0]):
            idx = indices[i]
            # mode="clip" semantics of the reference gather.
            if idx < 0:
                idx = 0
            elif idx >= n:
                idx = n - 1
            out[i] = flat[idx]
        return out

    @numba.njit(cache=True)
    def _scatter_add_rows(target, rows, values):
        # Sequential scan order: the np.add.at accumulation association.
        for i in range(rows.shape[0]):
            r = rows[i]
            for j in range(values.shape[1]):
                target[r, j] += values[i, j]

    @numba.njit(cache=True)
    def _scatter_add_flat(target, rows, values):
        for i in range(rows.shape[0]):
            target[rows[i]] += values[i]

    @numba.njit(cache=True)
    def _bincount_add(acc, indices, weights, scratch):
        for s in range(scratch.shape[0]):
            scratch[s] = 0.0
        for i in range(indices.shape[0]):
            scratch[indices[i]] += weights[i]
        for s in range(acc.shape[0]):
            acc[s] += scratch[s]

    class NumbaBackend(NumpyBackend):  # type: ignore[no-redef]
        """Reference backend with numba-JITted gather/scatter/segment-sum."""

        name = "numba"

        def __init__(self) -> None:
            self._local = threading.local()

        def take_out(self, flat, indices, out):
            if flat.ndim == 1 and indices.ndim == out.ndim == 1 \
                    and flat.dtype.kind != "c":
                return _take_flat(flat, indices.astype(np.int64, copy=False),
                                  out)
            return np.take(flat, indices, out=out, mode="clip")

        def scatter_add(self, target, rows, values, unique=False):
            if unique:
                target[rows] += values
                return
            rows64 = np.asarray(rows).astype(np.int64, copy=False)
            if target.ndim == 2 and values.ndim == 2:
                _scatter_add_rows(target, rows64, values)
            elif target.ndim == 1 and values.ndim == 1:
                _scatter_add_flat(target, rows64, values)
            else:
                np.add.at(target, rows, values)

        def bincount_add(self, acc, indices, weights, minlength):
            if acc.ndim != 1 or acc.dtype != np.float64:
                acc += np.bincount(indices, weights=weights,
                                   minlength=minlength)
                return
            scratch = getattr(self._local, "bincount", None)
            if scratch is None or scratch.size < minlength:
                scratch = self._local.bincount = np.zeros(minlength,
                                                          dtype=np.float64)
            _bincount_add(acc, indices.astype(np.int64, copy=False),
                          weights.astype(np.float64, copy=False),
                          scratch[:minlength])
