"""Tests for the overlapped density/color branches of the radiance field.

``DecoupledRadianceField.query`` and ``.backward`` run the color branch on a
helper thread (``repro.utils.overlap``) while the caller runs the density
branch.  Covered here:

* the helper itself — results, context propagation, joining, fork safety;
* overlap == sequential: the same 20-step trajectories and render when the
  helper pool is swapped for an inline runner (test-only substitution);
* the two branches request disjoint workspace-arena names;
* errors and ``np.errstate`` numerics cross the thread boundary intact.
"""

import contextvars
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from test_pipeline import _params_equal

from repro.core.model import DecoupledRadianceField
from repro.training.metrics import render_view
from repro.training.trainer import Trainer
from repro.utils import overlap
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena


class _InlineExecutor:
    """Runs each submitted call at once on the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:   # delivered through future.result()
            future.set_exception(exc)
        return future


def _query_inputs(n=257, seed=0):
    rng = new_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 3))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return points, dirs


_PROBE = contextvars.ContextVar("probe", default="unset")


def _in_child():
    return overlap.run_overlapped(threading.get_ident, lambda: "inline")[1]


class TestRunOverlapped:
    def test_returns_both_results_and_uses_another_thread(self):
        helper_tid, inline_tid = overlap.run_overlapped(
            threading.get_ident, threading.get_ident)
        assert inline_tid == threading.get_ident()
        assert helper_tid != inline_tid

    def test_helper_sees_caller_context(self):
        token = _PROBE.set("caller")
        try:
            seen, _ = overlap.run_overlapped(_PROBE.get, lambda: None)
        finally:
            _PROBE.reset(token)
        assert seen == "caller"

    def test_helper_exception_reraised(self):
        def boom():
            raise KeyError("helper")
        with pytest.raises(KeyError, match="helper"):
            overlap.run_overlapped(boom, lambda: None)

    def test_inline_exception_waits_for_helper(self):
        done = threading.Event()

        def slow():
            time.sleep(0.2)
            done.set()

        def fail():
            raise ValueError("inline")
        with pytest.raises(ValueError, match="inline"):
            overlap.run_overlapped(slow, fail)
        assert done.is_set()

    def test_thread_outliving_main_still_runs(self):
        """A non-daemon thread querying after the main thread has returned
        (the executor then refuses new work) still gets both results."""
        script = (
            "import threading, time\n"
            "from repro.utils.overlap import run_overlapped\n"
            "def work():\n"
            "    time.sleep(0.2)\n"
            "    print(run_overlapped(lambda: 1, lambda: 2))\n"
            "threading.Thread(target=work).start()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "(1, 2)"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_gets_a_fresh_pool(self):
        overlap.run_overlapped(lambda: None, lambda: None)  # pool is live
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_in_child).get(timeout=60) == "inline"


def _run(config, dataset, n_steps=20):
    model = DecoupledRadianceField(config, seed=0)
    trainer = Trainer(model, dataset, config=config, seed=0)
    losses = [trainer.train_step()["loss"] for _ in range(n_steps)]
    camera = dataset.test_views[0].camera
    rgb, depth = render_view(model, camera, dataset.scene_bound, n_samples=8)
    return losses, model, rgb, depth


_CONFIGS = {
    "dense": {},
    "culled": {"culling_enabled": True, "occupancy_warmup_iterations": 4,
               "sparse_updates": True},
}


class TestOverlapMatchesSequential:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("path", sorted(_CONFIGS))
    def test_trajectory_bit_identical(self, path, dtype, tiny_config,
                                      tiny_dataset, monkeypatch):
        config = dataclasses.replace(tiny_config, compute_dtype=dtype,
                                     **_CONFIGS[path])
        losses, model, rgb, depth = _run(config, tiny_dataset)
        # Reference: the same branches run in turn on the calling thread.
        monkeypatch.setattr(overlap, "_executor", lambda: _InlineExecutor())
        ref_losses, ref_model, ref_rgb, ref_depth = _run(config, tiny_dataset)
        assert losses == ref_losses
        assert _params_equal(model, ref_model)
        assert np.array_equal(rgb, ref_rgb)
        assert np.array_equal(depth, ref_depth)

    def test_branches_request_disjoint_arena_names(self, tiny_config):
        model = DecoupledRadianceField(tiny_config, seed=0)
        arena = WorkspaceArena()
        model.set_arena(arena)
        requests = []
        plain = arena.buffer

        def recording(name, shape, dtype):
            requests.append((threading.get_ident(), name))
            return plain(name, shape, dtype)

        arena.buffer = recording
        points, dirs = _query_inputs()
        sigma, rgb = model.query(points, dirs)
        model.backward(np.ones_like(sigma), np.ones_like(rgb))
        main = threading.get_ident()
        inline = {name for tid, name in requests if tid == main}
        helper = {name for tid, name in requests if tid != main}
        assert inline and helper
        assert not inline & helper
        assert all(name.startswith("color") or name.startswith("sh/")
                   or name == "model/color_in" for name in helper)


class TestHelperErrorsAndNumerics:
    def test_errstate_reaches_color_branch(self, tiny_config, monkeypatch):
        model = DecoupledRadianceField(tiny_config, seed=0)
        forward = model.color_activation.forward

        def divide_by_zero(x):
            np.divide(np.ones(2), np.zeros(2))
            return forward(x)

        monkeypatch.setattr(model.color_activation, "forward", divide_by_zero)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                model.query(*_query_inputs())

    def test_density_error_joins_color_branch(self, tiny_config, monkeypatch):
        model = DecoupledRadianceField(tiny_config, seed=0)
        points, dirs = _query_inputs()
        expected = DecoupledRadianceField(tiny_config, seed=0).query(points,
                                                                     dirs)
        finished = threading.Event()
        color_forward = model.color_activation.forward

        def slow_color(x):
            time.sleep(0.2)
            out = color_forward(x)
            finished.set()
            return out

        def failing_density(x):
            raise RuntimeError("density branch failed")

        with monkeypatch.context() as patch:
            patch.setattr(model.color_activation, "forward", slow_color)
            patch.setattr(model.density_mlp, "forward", failing_density)
            with pytest.raises(RuntimeError, match="density branch failed"):
                model.query(points, dirs)
            assert finished.is_set()
        sigma, rgb = model.query(points, dirs)
        assert np.array_equal(sigma, expected[0])
        assert np.array_equal(rgb, expected[1])
