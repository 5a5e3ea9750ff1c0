"""Tests for the pluggable ``ArrayBackend`` seam.

Four layers of coverage:

* registry behaviour — registration, lookup, the ``REPRO_BACKEND``
  process default, and config-level backend selection;
* per-primitive bit-identity — every registered backend's gather/scatter/
  reduction/ordering/RNG primitives against the raw numpy expressions the
  reference backend is defined by;
* gradcheck of the nn stack parametrized over every registered backend;
* 20-step training differentials — the ``numpy`` backend reproduces the
  frozen pre-backend reference trainer bit-exactly, and every other
  registered backend reproduces the ``numpy`` backend bit-exactly across
  dense/culled, float64/float32 and sparse-update configurations.

The CI backend matrix complements this file by re-running the *entire*
tier-1 suite under each backend via ``REPRO_BACKEND``.
"""

import dataclasses
import threading

import numpy as np
import pytest

from test_pipeline import _params_equal, _reference_dense_run

from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    default_backend_name,
    get_backend,
    materialize,
    register_backend,
    resolve_backend,
)
from repro.backend import registry as backend_registry
from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.io import load_checkpoint, save_trainer_checkpoint
from repro.nn.gradcheck import numerical_gradient
from repro.nn.layers import Linear
from repro.nn.mlp import MLP
from repro.training.trainer import Trainer
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena

#: Captured once: the backends registered in this environment.
BACKENDS = available_backends()
NON_NUMPY = tuple(name for name in BACKENDS if name != "numpy")


@pytest.fixture(params=BACKENDS)
def backend(request) -> ArrayBackend:
    return get_backend(request.param)


class TestRegistry:
    def test_reference_backend_is_first(self):
        assert BACKENDS[0] == "numpy"
        assert "numpy_fused" in BACKENDS

    def test_get_backend_returns_cached_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("no_such_backend")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_third_party_registration_roundtrip(self):
        class TracingBackend(NumpyBackend):
            name = "test_tracing"

        register_backend("test_tracing", TracingBackend)
        try:
            assert "test_tracing" in available_backends()
            assert isinstance(get_backend("test_tracing"), TracingBackend)
            config = Instant3DConfig(backend="test_tracing")
            assert isinstance(config.array_backend, TracingBackend)
        finally:
            backend_registry._FACTORIES.pop("test_tracing", None)
            backend_registry._INSTANCES.pop("test_tracing", None)

    def test_resolve_backend_normalisation(self):
        numpy_backend = get_backend("numpy")
        assert resolve_backend(None) is get_backend(default_backend_name())
        assert resolve_backend("numpy_fused") is get_backend("numpy_fused")
        assert resolve_backend(numpy_backend) is numpy_backend
        with pytest.raises(TypeError):
            resolve_backend(123)

    def test_env_var_selects_process_default(self, monkeypatch):
        monkeypatch.setenv(backend_registry.BACKEND_ENV_VAR, "numpy_fused")
        assert default_backend_name() == "numpy_fused"
        assert resolve_backend(None) is get_backend("numpy_fused")
        assert Instant3DConfig().backend == "numpy_fused"
        monkeypatch.delenv(backend_registry.BACKEND_ENV_VAR)
        assert default_backend_name() == "numpy"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            Instant3DConfig(backend="no_such_backend")


class TestPrimitiveBitIdentity:
    """Each backend primitive vs the numpy expression that defines it."""

    def test_allocation(self, backend):
        e = backend.empty((3, 4), np.float32)
        z = backend.zeros((5,), np.float64)
        assert e.shape == (3, 4) and e.dtype == np.float32
        assert z.shape == (5,) and z.dtype == np.float64
        assert not z.any()
        converted = backend.asarray([1, 2, 3], dtype=np.float32)
        np.testing.assert_array_equal(backend.to_numpy(converted),
                                      np.asarray([1, 2, 3], np.float32))

    def test_make_arena(self, backend):
        arena = backend.make_arena()
        assert isinstance(arena, WorkspaceArena)
        buf = arena.buffer("x", (4, 2), np.float32)
        assert buf.shape == (4, 2) and buf.dtype == np.float32
        assert backend.is_native(buf)

    def test_gather_rows(self, backend):
        rng = new_rng(11)
        table = backend.asarray(rng.normal(size=(32, 2)), np.float32)
        rows = backend.asarray(rng.integers(0, 32, size=50), np.int64)
        expected = backend.to_numpy(table)[backend.to_numpy(rows)]
        np.testing.assert_array_equal(
            backend.to_numpy(backend.gather(table, rows)), expected)
        out = backend.empty((50, 2), np.float32)
        result = backend.gather(table, rows, out=out)
        assert result is out
        np.testing.assert_array_equal(backend.to_numpy(out), expected)

    def test_take_out_flat(self, backend):
        rng = new_rng(12)
        flat = backend.asarray(rng.normal(size=64), np.float32)
        idx = backend.asarray(rng.integers(0, 64, size=40), np.int64)
        out = backend.empty(40, np.float32)
        result = backend.take_out(flat, idx, out)
        assert result is out
        np.testing.assert_array_equal(
            backend.to_numpy(out),
            backend.to_numpy(flat)[backend.to_numpy(idx)])

    def test_scatter_add_accumulates_duplicates(self, backend):
        rng = new_rng(13)
        rows_np = rng.integers(0, 8, size=30)
        values_np = rng.normal(size=(30, 2)).astype(np.float32)
        expected = np.zeros((8, 2), np.float32)
        np.add.at(expected, rows_np, values_np)
        target = backend.zeros((8, 2), np.float32)
        backend.scatter_add(target, backend.asarray(rows_np, np.int64),
                            backend.asarray(values_np, np.float32))
        np.testing.assert_array_equal(backend.to_numpy(target), expected)

    def test_scatter_add_unique_rows(self, backend):
        rows_np = np.array([5, 1, 3], np.int64)
        values_np = np.array([[1.0], [2.0], [3.0]], np.float32)
        expected = np.zeros((6, 1), np.float32)
        expected[rows_np] += values_np
        target = backend.zeros((6, 1), np.float32)
        backend.scatter_add(target, backend.asarray(rows_np, np.int64),
                            backend.asarray(values_np, np.float32), unique=True)
        np.testing.assert_array_equal(backend.to_numpy(target), expected)

    def test_scatter_rows_assignment(self, backend):
        target = backend.zeros((6, 3), np.float64)
        rows = backend.asarray([4, 0, 2], np.int64)
        values = backend.asarray(np.arange(9, dtype=np.float64).reshape(3, 3))
        backend.scatter_rows(target, rows, values)
        expected = np.zeros((6, 3))
        expected[[4, 0, 2]] = np.arange(9, dtype=np.float64).reshape(3, 3)
        np.testing.assert_array_equal(backend.to_numpy(target), expected)

    def test_segment_sum_matches_bincount(self, backend):
        rng = new_rng(14)
        ids_np = rng.integers(0, 16, size=200)
        weights_np = rng.normal(size=200)
        expected = np.bincount(ids_np, weights=weights_np, minlength=16)
        result = backend.segment_sum(backend.asarray(weights_np, np.float64),
                                     backend.asarray(ids_np, np.int64), 16)
        np.testing.assert_array_equal(backend.to_numpy(result), expected)

    @pytest.mark.parametrize("acc_dtype", [np.float32, np.float64])
    def test_bincount_add_bit_identical(self, backend, acc_dtype):
        rng = new_rng(15)
        ids_np = rng.integers(0, 16, size=300)
        weights_np = rng.normal(size=300)
        acc_ref = rng.normal(size=16).astype(acc_dtype)
        acc = backend.asarray(acc_ref.copy(), acc_dtype)
        # The contract: identical to adding numpy's completed per-segment
        # sums (never individual contributions) into the accumulator.
        acc_ref += np.bincount(ids_np, weights=weights_np, minlength=16)
        backend.bincount_add(acc, backend.asarray(ids_np, np.int64),
                             backend.asarray(weights_np, np.float64), 16)
        np.testing.assert_array_equal(backend.to_numpy(acc), acc_ref)

    def test_bincount_add_concurrent_threads(self, backend):
        """Backend scratch is per thread: two threads summing at once on one
        instance get exactly what each gets alone."""
        rng = new_rng(17)
        n_keys, n_calls = 4096, 40
        jobs = [(backend.asarray(rng.integers(0, n_keys, size=20000), np.int64),
                 backend.asarray(rng.normal(size=20000), np.float64))
                for _ in range(2)]

        def run(ids, weights):
            acc = backend.zeros(n_keys, np.float64)
            for _ in range(n_calls):
                backend.bincount_add(acc, ids, weights, n_keys)
            return backend.to_numpy(acc)

        expected = [run(*job) for job in jobs]
        results = [None, None]
        barrier = threading.Barrier(2)

        def worker(index):
            barrier.wait()
            results[index] = run(*jobs[index])

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    def test_matmul_and_einsum(self, backend):
        rng = new_rng(16)
        a_np = rng.normal(size=(5, 3)).astype(np.float32)
        b_np = rng.normal(size=(3, 4)).astype(np.float32)
        a = backend.asarray(a_np, np.float32)
        b = backend.asarray(b_np, np.float32)
        np.testing.assert_array_equal(backend.to_numpy(backend.matmul(a, b)),
                                      np.matmul(a_np, b_np))
        out = backend.empty((5, 4), np.float32)
        assert backend.matmul(a, b, out=out) is out
        np.testing.assert_array_equal(backend.to_numpy(out), np.matmul(a_np, b_np))
        w_np = rng.normal(size=(5, 3, 4)).astype(np.float32)
        w = backend.asarray(w_np, np.float32)
        np.testing.assert_array_equal(
            backend.to_numpy(backend.einsum("ns,nsc->nc", a, w)),
            np.einsum("ns,nsc->nc", a_np, w_np))

    def test_argsort_cumsum_flatnonzero(self, backend):
        rng = new_rng(17)
        perm_np = rng.permutation(64)
        x = backend.asarray(perm_np, np.int64)
        np.testing.assert_array_equal(backend.to_numpy(backend.argsort(x)),
                                      np.argsort(perm_np))
        v_np = rng.normal(size=(4, 6))
        v = backend.asarray(v_np, np.float64)
        np.testing.assert_array_equal(
            backend.to_numpy(backend.cumsum(v, axis=1)), np.cumsum(v_np, axis=1))
        out = backend.empty((4, 6), np.float64)
        backend.cumsum(v, axis=1, out=out)
        np.testing.assert_array_equal(backend.to_numpy(out), np.cumsum(v_np, axis=1))
        mask_np = rng.normal(size=30) > 0.3
        mask = backend.asarray(mask_np, np.bool_)
        np.testing.assert_array_equal(backend.to_numpy(backend.flatnonzero(mask)),
                                      np.flatnonzero(mask_np))

    def test_draw_uniform_shares_rng_stream(self, backend):
        """All backends must consume RNG streams identically to the reference."""
        reference = get_backend("numpy")
        expected = reference.draw_uniform(new_rng(99), np.empty((3, 7)))
        out = backend.empty((3, 7), np.float64)
        result = backend.draw_uniform(new_rng(99), out)
        assert result is out
        np.testing.assert_array_equal(backend.to_numpy(out), expected)
        assert float(backend.to_numpy(out).min()) >= 0.0
        assert float(backend.to_numpy(out).max()) < 1.0

    def test_capability_queries(self, backend):
        f32 = backend.asarray(np.zeros((2, 2)), np.float32)
        f64 = backend.asarray(np.zeros((2, 2)), np.float64)
        assert backend.is_native(f32) and backend.is_native(f64)
        assert backend.is_native_f32(f32)
        assert not backend.is_native_f32(f64)
        assert not backend.is_native_f32([1.0, 2.0])

    def test_flat_pair_view_contract(self, backend):
        pairs = backend.asarray(
            np.arange(8, dtype=np.float32).reshape(4, 2), np.float32)
        view = backend.flat_pair_view(pairs)
        if view is not None:        # capability, not an obligation
            assert view.shape == (4,)
            # Writing through the view must alias the original rows.
            view[1] = view[0]
            np.testing.assert_array_equal(backend.to_numpy(pairs)[1],
                                          backend.to_numpy(pairs)[0])
        # Shapes/dtypes outside the contract must be declined, not mangled.
        assert backend.flat_pair_view(
            backend.asarray(np.zeros((4, 3)), np.float32)) is None
        assert backend.flat_pair_view(
            backend.asarray(np.zeros((4, 2)), np.float64)) is None

    def test_host_roundtrip_and_materialize(self, backend):
        x_np = np.arange(6, dtype=np.float32).reshape(2, 3)
        native = backend.from_numpy(x_np)
        assert backend.is_native(native)
        np.testing.assert_array_equal(backend.to_numpy(native), x_np)
        roundtrip = materialize(native)
        assert isinstance(roundtrip, np.ndarray)
        np.testing.assert_array_equal(roundtrip, x_np)
        assert materialize("not-an-array") == "not-an-array"


class TestGradcheckAcrossBackends:
    """The hand-derived backward passes hold under every registered backend."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_linear_weight_gradient(self, name):
        rng = new_rng(3)
        layer = Linear(3, 2, rng=rng, backend=get_backend(name))
        x = rng.normal(size=(4, 3)).astype(np.float32)
        target = rng.normal(size=(4, 2)).astype(np.float32)

        def loss_for_weights(w):
            saved = layer.weight.data.copy()
            layer.weight.data = w.astype(np.float32)
            out = layer.forward(x)
            layer.weight.data = saved
            return float(np.sum((np.asarray(out) - target) ** 2))

        out = layer.forward(x)
        layer.backward(2.0 * (np.asarray(out) - target))
        numeric = numerical_gradient(loss_for_weights,
                                     layer.weight.data.astype(np.float64))
        np.testing.assert_allclose(layer.weight.grad, numeric,
                                   rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_mlp_input_gradient(self, name):
        rng = new_rng(6)
        mlp = MLP(in_features=3, hidden_features=[8], out_features=2,
                  rng=rng, backend=get_backend(name))
        x = rng.normal(size=(4, 3)).astype(np.float32)

        def loss(xi):
            return float(np.sum(np.asarray(mlp.forward(xi)) ** 2))

        out = mlp.forward(x)
        grad_in = mlp.backward(2.0 * np.asarray(out))
        numeric = numerical_gradient(loss, x.astype(np.float64).copy())
        np.testing.assert_allclose(np.asarray(grad_in), numeric,
                                   rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("name", NON_NUMPY)
    def test_linear_matches_numpy_backend_bitwise(self, name):
        x = new_rng(8).normal(size=(5, 4)).astype(np.float32)
        outputs = []
        for backend_name in ("numpy", name):
            layer = Linear(4, 3, rng=new_rng(2), backend=get_backend(backend_name))
            out = layer.forward(x)
            layer.backward(np.asarray(out))
            outputs.append((np.asarray(out).copy(), layer.weight.grad.copy()))
        np.testing.assert_array_equal(outputs[0][0], outputs[1][0])
        np.testing.assert_array_equal(outputs[0][1], outputs[1][1])


def _train_losses(config, dataset, n_steps=20, seed=0):
    model = DecoupledRadianceField(config, seed=seed)
    trainer = Trainer(model, dataset, config=config, seed=seed)
    return [trainer.train_step()["loss"] for _ in range(n_steps)], model, trainer


class TestTrainingDifferentials:
    """End-to-end 20-step traces across backends (the acceptance criterion)."""

    def test_numpy_backend_matches_frozen_reference(self, tiny_config,
                                                    tiny_dataset):
        """The default backend reproduces the pre-backend trainer bit-exactly."""
        config = dataclasses.replace(tiny_config, backend="numpy")
        ref_model, ref_losses = _reference_dense_run(tiny_dataset, config,
                                                     seed=0, n_steps=20)
        losses, model, _ = _train_losses(config, tiny_dataset)
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    @pytest.mark.parametrize("name", NON_NUMPY)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_backend_matches_numpy_dense(self, name, dtype, tiny_config,
                                         tiny_dataset):
        base = dataclasses.replace(tiny_config, compute_dtype=dtype)
        ref_losses, ref_model, _ = _train_losses(
            dataclasses.replace(base, backend="numpy"), tiny_dataset)
        losses, model, _ = _train_losses(
            dataclasses.replace(base, backend=name), tiny_dataset)
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    @pytest.mark.parametrize("name", NON_NUMPY)
    def test_backend_matches_numpy_culled(self, name, tiny_config,
                                          tiny_dataset):
        """The compaction path (flatnonzero/gather/scatter_rows) agrees too."""
        base = dataclasses.replace(tiny_config, culling_enabled=True,
                                   occupancy_warmup_iterations=4)
        ref_losses, ref_model, _ = _train_losses(
            dataclasses.replace(base, backend="numpy"), tiny_dataset)
        losses, model, _ = _train_losses(
            dataclasses.replace(base, backend=name), tiny_dataset)
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    @pytest.mark.parametrize("name", NON_NUMPY)
    def test_backend_matches_numpy_sparse_updates(self, name, tiny_config,
                                                  tiny_dataset):
        """Lazy-moment sparse optimiser updates agree across backends."""
        base = dataclasses.replace(tiny_config, sparse_updates=True)
        ref_losses, ref_model, _ = _train_losses(
            dataclasses.replace(base, backend="numpy"), tiny_dataset)
        losses, model, _ = _train_losses(
            dataclasses.replace(base, backend=name), tiny_dataset)
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    def test_checkpoint_records_backend(self, tiny_config, tiny_dataset,
                                        tmp_path):
        config = dataclasses.replace(tiny_config, backend=BACKENDS[-1])
        _, _, trainer = _train_losses(config, tiny_dataset, n_steps=2)
        path = save_trainer_checkpoint(tmp_path / "ckpt.npz", trainer)
        checkpoint = load_checkpoint(path, expected_kind="trainer")
        assert checkpoint.metadata["backend"] == BACKENDS[-1]
        # Every array leaf must have been materialised to host numpy.
        def assert_host(node):
            if isinstance(node, dict):
                for value in node.values():
                    assert_host(value)
            elif isinstance(node, list):
                for value in node:
                    assert_host(value)
            elif node is not None and not isinstance(node, (bool, int, float, str)):
                assert isinstance(node, np.ndarray)
        assert_host(checkpoint.payload)
