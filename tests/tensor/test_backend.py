"""Kernel-backend registry: selection precedence, fallback, pickling,
and the torch-device-like mismatch semantics."""

import pickle
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import KernelError
from repro.graph.snapshot import GraphSnapshot
from repro.models import build_model
from repro.tensor import Tensor
from repro.tensor import backend as backend_mod
from repro.tensor.backend import (available_backends, get_backend,
                                  register_backend, registered_backends,
                                  resolve_backend)
from repro.tensor.backend.reference import ReferenceBackend
from repro.tensor.sparse import SparseMatrix, spmm


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    """These tests pin backends explicitly; a leaked env selection
    would silently change what `default` means."""
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


@pytest.fixture
def mirror():
    """A second always-available backend, distinct from reference's
    singleton — lets the mismatch tests run on machines where no
    accelerated backend compiles."""
    class MirrorBackend(ReferenceBackend):
        name = "mirror"

    register_backend(MirrorBackend)
    yield get_backend("mirror")
    backend_mod._REGISTRY.pop("mirror", None)
    backend_mod._INSTANCES.pop("mirror", None)


def _random_sparse(n=6, seed=0, backend=None):
    csr = sp.random(n, n, density=0.4, random_state=seed,
                    dtype=np.float64).tocsr()
    return SparseMatrix(csr, backend=backend)


def _small_snapshot():
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 1], [2, 3]],
                     dtype=np.int64)
    return GraphSnapshot(4, edges)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"reference", "cnative"} <= set(registered_backends())

    def test_reference_always_available(self):
        assert "reference" in available_backends()

    def test_singleton_and_instance_passthrough(self):
        ref = get_backend("reference")
        assert get_backend("reference") is ref
        assert get_backend(None) is ref
        assert get_backend(ref) is ref

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_backend("definitely-not-a-backend")
        with pytest.raises(KernelError):
            _random_sparse(backend="definitely-not-a-backend")

    def test_register_rejects_abstract_name(self):
        from repro.tensor.backend.base import KernelBackend
        with pytest.raises(KernelError):
            register_backend(KernelBackend)

    def test_pickle_ships_only_the_name(self):
        for name in available_backends():
            kb = get_backend(name)
            assert pickle.loads(pickle.dumps(kb)) is kb


class TestPrecedence:
    def test_default_is_reference(self):
        assert resolve_backend() is get_backend("reference")

    def test_env_beats_default(self, monkeypatch, mirror):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "mirror")
        assert resolve_backend() is mirror
        assert _random_sparse().backend is mirror

    def test_kwarg_beats_env(self, monkeypatch, mirror):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "mirror")
        ref = get_backend("reference")
        assert resolve_backend("reference") is ref
        assert resolve_backend(ref) is ref
        assert _random_sparse(backend="reference").backend is ref


class TestFallback:
    def test_unavailable_backend_warns_once_then_reference(self,
                                                           monkeypatch):
        # simulate the C-compiler probe failing regardless of what
        # this machine has installed (graceful degradation)
        from repro.tensor.backend import cnative
        monkeypatch.setattr(cnative, "_load_library", lambda: None)
        backend_mod._reset_for_tests()
        try:
            with pytest.warns(RuntimeWarning,
                              match="'cnative' is unavailable"):
                got = get_backend("cnative")
            assert got is get_backend("reference")
            # second resolution: cached under the requested name, silent
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert get_backend("cnative") is got
            # and the fallback instance still runs the kernel surface
            csr = sp.random(5, 5, density=0.5, random_state=1,
                            dtype=np.float64).tocsr()
            x = np.ones((5, 3))
            np.testing.assert_array_equal(got.spmm(csr, x), csr @ x)
        finally:
            backend_mod._reset_for_tests()


class TestMismatch:
    def test_spmm_kwarg_mismatch_raises(self, mirror):
        s = _random_sparse(backend="reference")
        x = Tensor(np.ones((6, 2)))
        with pytest.raises(KernelError, match="mirror"):
            spmm(s, x, backend="mirror")
        # matching explicit kwarg is fine
        spmm(s, x, backend="reference")

    def test_with_backend_converts_and_shares_structure(self, mirror):
        s = _random_sparse(backend="reference")
        s.transposed_csr()  # populate the shared transpose cache
        s2 = s.with_backend("mirror")
        assert s2.backend is mirror
        assert s2.csr is s.csr
        assert s2.transpose_builds == 1  # cache travelled with the copy
        out = spmm(s2, Tensor(np.ones((6, 2))), backend="mirror")
        np.testing.assert_array_equal(out.data, s.csr @ np.ones((6, 2)))

    def test_exec_tier_workers_run_the_tier_backend(self, mirror):
        """Every worker engine of a tier built with ``kernel_backend=``
        runs that backend, and its own maintainer is pinned to it."""
        from repro.exec import ExecRouter
        model = build_model("cdgcn", in_features=2, seed=0)
        router = ExecRouter(model, _small_snapshot(), backend="simulated",
                            num_shards=2, replicas=2,
                            kernel_backend="mirror")
        engines = [t.service.engine for ch in router.channels
                   for t in ch.replicas]
        router.close()
        assert len(engines) == 4
        for engine in engines:
            assert engine.kernel_backend is mirror
            assert engine.maintainer.backend is mirror
