"""``NumpyFusedBackend`` — batched gather/scatter kernels over a private pool.

Proof that the :class:`~repro.backend.base.ArrayBackend` seam is real: a
second in-repo backend whose hot primitives run through **preallocated
out= kernels** instead of allocating fresh results.

* :meth:`bincount_add` — the grid backward's per-corner segment reduction —
  replaces ``acc += np.bincount(...)`` (which allocates a fresh float64
  result every call: 8 corners x levels x steps) with an unbuffered
  ``np.add.at`` into a pooled grow-only **zeroed** scratch followed by
  ``acc += scratch``.
* :meth:`gather` on contiguous ``(T, 2)`` float32 tables writes through the
  complex64 flat view when the caller supplies ``out=``: one flat take
  moves both features per row (the same batching trick the fused engine
  uses for its address planes), instead of numpy's strided axis-0 take.

Pooled scratch is *never handed to callers* — it is fully consumed inside
the primitive invocation — so no call site can observe aliasing between two
primitives.  The pool is **per thread**: one backend instance serves the
model's density and color branches, which run their grid backwards at the
same time (see :mod:`repro.utils.overlap`), and the service's worker
threads, so a shared scratch would mix concurrent segment sums.  Primitives
called without ``out=`` allocate exactly like the reference backend.

Bit-exactness: every override is arithmetic-identical to the
:class:`~repro.backend.numpy_backend.NumpyBackend` reference.  For
:meth:`bincount_add`, both forms accumulate contributions sequentially in
scan order into a zero-initialised buffer and then add the *completed*
per-segment sums to ``acc``, so the float association — and hence the
result — matches bit-for-bit.  (``np.add.at`` directly into the live
``acc`` would *not* be bit-identical: it would interleave individual
contributions with ``acc``'s prior contents under a different
association.)  The complex-view gather copies the same bytes the strided
take would.  Because of this the entire tier-1 suite — frozen-trace
oracles included — passes unchanged under ``REPRO_BACKEND=numpy_fused``,
which the CI backend matrix exercises.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend.numpy_backend import NumpyBackend

__all__ = ["NumpyFusedBackend"]


class NumpyFusedBackend(NumpyBackend):
    """Numpy backend with pooled ``out=`` kernels for the hot primitives."""

    name = "numpy_fused"

    def __init__(self) -> None:
        self._local = threading.local()

    # -- pool ---------------------------------------------------------------
    def _scratch(self, key: str, size: int, dtype) -> np.ndarray:
        """Grow-only 1-D scratch keyed by ``(key, dtype)``, private to the
        calling thread; internal use only."""
        pool: Optional[Dict[Tuple[str, str], np.ndarray]] = getattr(
            self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        dt = np.dtype(dtype)
        size = int(size)
        pool_key = (key, dt.str)
        backing = pool.get(pool_key)
        if backing is None or backing.size < size:
            grown = size if backing is None else max(size, 2 * backing.size)
            backing = pool[pool_key] = np.empty(grown, dtype=dt)
        return backing[:size]

    # -- batched gathers ----------------------------------------------------
    def gather(self, table: np.ndarray, rows: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is not None and rows.ndim == 1:
            flat = self.flat_pair_view(table)
            out_flat = self.flat_pair_view(out)
            if flat is not None and out_flat is not None:
                # Single flat complex64 take: both features per row in one
                # gather, same bytes as the strided axis-0 take.
                np.take(flat, rows, out=out_flat, mode="clip")
                return out
        return np.take(table, rows, axis=0, out=out, mode="clip")

    # -- batched segment sums -----------------------------------------------
    def bincount_add(self, acc: np.ndarray, indices: np.ndarray,
                     weights: np.ndarray, minlength: int) -> None:
        # np.bincount always reduces in float64 regardless of acc's dtype —
        # the scratch must match for `acc += sums` to cast identically.
        scratch = self._scratch("bincount/acc", minlength, np.float64)
        scratch.fill(0)
        np.add.at(scratch, indices, weights)
        # Adding the *completed* per-segment sums preserves the reference
        # `acc += np.bincount(...)` float association bit-exactly.
        acc += scratch.reshape(acc.shape)
