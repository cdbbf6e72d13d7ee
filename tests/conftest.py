from collections import Counter

import numpy as np
import pytest

from pirep import correspondence
from pirep import numerics as nx
from pirep.correspondence import FdCorrespondence, FdCStarAlgebra, StarRepresentation
from pirep.numerics import DEFAULT_TOL


def rng_for(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream: same convention as the verification harness."""
    return np.random.Generator(np.random.Philox(key=(int(master_seed) << 64) | int(index)))


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_with_spectrum(rng, rows, cols, values) -> np.ndarray:
    """Random matrix with the prescribed singular values."""
    k = min(rows, cols)
    u, _, _ = np.linalg.svd(crandn(rng, rows, k), full_matrices=False)
    w, _, _ = np.linalg.svd(crandn(rng, cols, k), full_matrices=False)
    s = np.zeros(k)
    s[: len(values)] = values[:k]
    return u @ (s[:, None] * w.conj().T)


def penrose_residuals(m, pinv) -> dict:
    """Spectral-norm residuals of the four Moore-Penrose identities."""
    a = nx.as_matrix(m)
    x = nx.as_matrix(pinv)
    ax = a @ x
    xa = x @ a
    return {
        "AXA": nx.opnorm(a @ xa - a),
        "XAX": nx.opnorm(x @ ax - x),
        "AX_selfadjoint": nx.opnorm(ax - nx.herm(ax)),
        "XA_selfadjoint": nx.opnorm(xa - nx.herm(xa)),
    }


def assert_verdicts_match_classify(rep):
    """The verdict-only paths give the verdicts of the six-way diagnostic."""
    report = rep.classify()
    assert rep.is_partial_isometric() == report.is_partial_isometric
    assert nx.is_contraction(rep.tilde, rep.tol) == report.is_contractive


def _corr_key(c):
    return c.algebra.block_sizes, c.gram.tobytes(), c.left_action.tobytes(), c.right_action.tobytes()


def count_space_builds(monkeypatch) -> Counter:
    """Count interior_tensor and tensor_product calls by the content of
    their inputs.  Only the correspondence memos call them, through the
    module's own bindings, so patching those sees every build."""
    builds = Counter()
    real_interior, real_product = correspondence.interior_tensor, correspondence.tensor_product

    def interior_tensor(e, sigma, tol=DEFAULT_TOL):
        builds[("interior_tensor", _corr_key(e), sigma.multiplicities, tol)] += 1
        return real_interior(e, sigma, tol)

    def tensor_product(e, f):
        builds[("tensor_product", _corr_key(e), _corr_key(f))] += 1
        return real_product(e, f)

    monkeypatch.setattr(correspondence, "interior_tensor", interior_tensor)
    monkeypatch.setattr(correspondence, "tensor_product", tensor_product)
    return builds


def count_sigma_work(monkeypatch) -> dict:
    """Count FdCStarAlgebra.basis and StarRepresentation.apply calls."""
    counts = {"basis": 0, "apply": 0}
    real_basis, real_apply = FdCStarAlgebra.basis, StarRepresentation.apply

    def basis(self):
        counts["basis"] += 1
        return real_basis(self)

    def apply(self, a):
        counts["apply"] += 1
        return real_apply(self, a)

    monkeypatch.setattr(FdCStarAlgebra, "basis", basis)
    monkeypatch.setattr(StarRepresentation, "apply", apply)
    return counts


def empty_correspondence(algebra: FdCStarAlgebra) -> FdCorrespondence:
    """The zero module over the algebra."""
    k, n = algebra.matrix_size, algebra.dim
    action = np.zeros((n, 0, 0))
    return FdCorrespondence(algebra, np.zeros((0, 0, k, k)), action, action)


@pytest.fixture
def tol():
    return DEFAULT_TOL


def _admit(nbytes, what):
    if nbytes > nx.DENSE_BYTES:
        raise AssertionError(f"{what} allocated {nbytes} bytes past the budget {nx.DENSE_BYTES}")


def _nbytes(shape, dtype) -> int:
    return int(np.prod(shape)) * np.dtype(dtype).itemsize


class _BudgetedLinalg:
    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def svd(self, a, full_matrices=True, compute_uv=True, **kwargs):
        r, c = np.shape(a)[-2:]
        if compute_uv:
            _admit(_nbytes((max(r, c),) * 2 if full_matrices else (r, c), np.result_type(a)), "svd")
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def eigh(self, a, *args, **kwargs):
        _admit(_nbytes(np.shape(a), np.result_type(a)), "eigh")
        return np.linalg.eigh(a, *args, **kwargs)


class _BudgetedNumpy:
    """numpy whose allocators fail past ``numerics.DENSE_BYTES``: a site
    that checks its bytes only after allocating shows up as an
    AssertionError instead of a ResourceLimit."""

    linalg = _BudgetedLinalg()

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float, **kwargs):
        _admit(_nbytes(shape, dtype), "zeros")
        return np.zeros(shape, dtype, **kwargs)

    def eye(self, n, m=None, k=0, dtype=float, **kwargs):
        _admit(_nbytes((n, n if m is None else m), dtype), "eye")
        return np.eye(n, m, k, dtype, **kwargs)

    def kron(self, a, b):
        _admit(np.size(a) * np.size(b) * np.result_type(a, b).itemsize, "kron")
        return np.kron(a, b)

    def hstack(self, arrays, **kwargs):
        arrays = list(arrays)
        _admit(sum(np.size(x) for x in arrays) * np.result_type(*arrays).itemsize, "hstack")
        return np.hstack(arrays, **kwargs)


def dense_budget(monkeypatch, nbytes: int, *modules) -> None:
    """Lower the dense byte budget to ``nbytes`` and make the numpy of each
    given module refuse any array past it."""
    monkeypatch.setattr(nx, "DENSE_BYTES", nbytes)
    for module in modules:
        monkeypatch.setattr(module, "np", _BudgetedNumpy())
