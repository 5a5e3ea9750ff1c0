"""Run two independent pieces of work at the same time: one inline, one helper.

The decoupled radiance field's density and color branches share no
parameters and no workspace buffers, so the model runs the color branch on
a helper thread while the calling thread runs the density branch — the
software counterpart of the accelerator's separate per-branch grid cores.
NumPy's ufuncs, ``take`` and BLAS ``matmul`` release the GIL, so the two
branches really do run on two cores.

The helper threads come from one private, lazily created, process-wide
``ThreadPoolExecutor`` sized to ``os.cpu_count()``; every caller (each
service worker, each trainer) borrows one of its threads per call.

* **Fork safety.** A forked child inherits the executor object but none of
  its threads, so a submit there would wait forever on a worker that does
  not exist.  ``os.register_at_fork`` drops the executor in the child and
  the next call builds a fresh one.
* **Context.** The helper runs in a copy of the caller's
  :mod:`contextvars` context, so context-local state — NumPy 2's
  ``np.errstate`` in particular — applies to both halves of the work.
* **Joining.** :func:`run_overlapped` always waits for the helper before it
  returns or raises, so no helper work outlives the call.
* **Shutdown.** Once the interpreter starts shutting down, the executor
  accepts no new work, yet a non-daemon thread may still be training; its
  calls then run both pieces in turn on the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Tuple, TypeVar

__all__ = ["run_overlapped"]

HelperT = TypeVar("HelperT")
InlineT = TypeVar("InlineT")

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_LOCK = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The process-wide helper pool (created on first use)."""
    global _EXECUTOR
    executor = _EXECUTOR
    if executor is None:
        with _LOCK:
            if _EXECUTOR is None:
                _EXECUTOR = ThreadPoolExecutor(
                    max_workers=os.cpu_count() or 1,
                    thread_name_prefix="repro-overlap")
            executor = _EXECUTOR
    return executor


def _reset_in_child() -> None:
    global _EXECUTOR, _LOCK
    _EXECUTOR = None
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):   # absent where fork is (Windows)
    os.register_at_fork(after_in_child=_reset_in_child)


def run_overlapped(helper: Callable[[], HelperT],
                   inline: Callable[[], InlineT]) -> Tuple[HelperT, InlineT]:
    """Run ``helper`` on a pool thread while ``inline`` runs here.

    Returns ``(helper(), inline())``.  The helper is always joined before
    this returns or raises.  If ``inline`` raises, its exception propagates
    once the helper has finished (a helper exception is then dropped);
    otherwise a helper exception is re-raised here.
    """
    try:
        future = _executor().submit(contextvars.copy_context().run, helper)
    except RuntimeError:
        # concurrent.futures refuses new work once the interpreter starts
        # shutting down, while non-daemon threads may still be running:
        # run the two pieces in turn on this thread instead.
        return helper(), inline()
    try:
        inline_result = inline()
    finally:
        wait((future,))
    return future.result(), inline_result
