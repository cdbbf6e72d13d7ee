from collections import Counter

import numpy as np
import pytest

from pirep import correspondence
from pirep import numerics as nx
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


@pytest.fixture
def tol():
    return DEFAULT_TOL
