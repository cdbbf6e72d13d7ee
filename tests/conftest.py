import math
from collections import Counter

import numpy as np
import pytest

from pirep import correspondence
from pirep import harness as hz
from pirep import numerics as nx
from pirep import shifts
from pirep.correspondence import SCALARS, FdCorrespondence, FdCStarAlgebra, StarRepresentation, scalar_correspondence
from pirep.covrep import rep_from_tilde
from pirep.errors import InvalidCorrespondence
from pirep.numerics import DEFAULT_TOL, Subspace


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


def from_coords(alg: FdCStarAlgebra, v) -> np.ndarray:
    """The algebra element with the given matrix-unit coordinates."""
    return np.tensordot(np.asarray(v, dtype=np.complex128), alg.basis(), axes=1)


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
    """Count FdCStarAlgebra.basis calls, StarRepresentation.apply calls
    ("apply_calls") and the algebra elements sigma is applied to ("apply":
    one per call on an element, the product of the leading dimensions per
    call on a stack)."""
    counts = {"basis": 0, "apply": 0, "apply_calls": 0}
    real_basis, real_apply = FdCStarAlgebra.basis, StarRepresentation.apply

    def basis(self):
        counts["basis"] += 1
        return real_basis(self)

    def apply(self, a):
        counts["apply_calls"] += 1
        counts["apply"] += math.prod(np.shape(a)[:-2])
        return real_apply(self, a)

    monkeypatch.setattr(FdCStarAlgebra, "basis", basis)
    monkeypatch.setattr(StarRepresentation, "apply", apply)
    return counts


# ---------------------------------------------------------------------------
# per-entry oracles: sigma, interior_tensor and tensor_product evaluated one
# algebra element at a time, as the package did before it acted on stacks
# ---------------------------------------------------------------------------


def kron_apply(sigma: StarRepresentation, a) -> np.ndarray:
    """sigma(a) for one element, one np.kron per block."""
    a = nx.as_matrix(a)
    alg = sigma.algebra
    out = np.zeros((sigma.h_dim, sigma.h_dim), dtype=np.complex128)
    at = 0
    for i, m in enumerate(sigma.multiplicities):
        if m == 0:
            continue
        b = np.kron(alg.block(a, i), np.eye(m))
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


def left_by_entries(e: FdCorrespondence, a) -> np.ndarray:
    """phi(a) for one element: its coordinates contracted with the left action."""
    return np.tensordot(e.algebra.coords(a), e.left_action, axes=(0, 0))


def induced_action_by_entries(space, u) -> np.ndarray:
    """phi(u) (x) I_H on the coordinates of ``space``, for one element."""
    formal = np.kron(left_by_entries(space.corr, u), nx.eye(space.h_dim))
    return formal if space.embed is None else space.embed @ formal @ space.lift


def interior_tensor_by_entries(e: FdCorrespondence, sigma: StarRepresentation, tol=DEFAULT_TOL):
    """(dim, embed, lift) of E (x)_sigma H from one sigma per Gram entry;
    embed and lift are None on the identity-coordinate path."""
    n, d = e.module_dim, sigma.h_dim
    if e.algebra.is_scalar and np.array_equal(e.gram, np.eye(n).reshape(n, n, 1, 1)):
        return n * d, None, None
    blocks = np.zeros((n, n, d, d), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            blocks[a, b] = kron_apply(sigma, e.gram[a, b])
    big = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    big = (big + nx.herm(big)) / 2.0
    if big.size == 0:
        return 0, np.zeros((0, 0)), np.zeros((0, 0))
    w, v = np.linalg.eigh(big)
    top = float(w[-1])
    if w[0] < -10.0 * tol.eq_rel * max(1.0, top):
        raise InvalidCorrespondence("interior tensor gram is not positive")
    keep = w > tol.rank_rel * max(top, 0.0) * (n * d)
    lam, basis = w[keep], v[:, keep]
    return int(lam.size), np.sqrt(lam)[:, None] * nx.herm(basis), basis / np.sqrt(lam)[None, :]


def tensor_product_by_entries(e: FdCorrespondence, f: FdCorrespondence):
    """(gram, left_action, right_action) of E (x) F, one Gram block and one
    kron per entry."""
    ne, nf = e.module_dim, f.module_dim
    k = e.algebra.matrix_size
    gram = np.zeros((ne * nf, ne * nf, k, k), dtype=np.complex128)
    for a in range(ne):
        for b in range(ne):
            acted = np.tensordot(e.algebra.coords(e.gram[a, b]), f.left_action, axes=(0, 0))
            block = np.einsum("cxij,xd->cdij", f.gram, acted)
            gram[a * nf : (a + 1) * nf, b * nf : (b + 1) * nf] = block
    left = np.stack([np.kron(e.left_action[t], np.eye(nf)) for t in range(e.algebra.dim)])
    right = np.stack([np.kron(np.eye(ne), f.right_action[t]) for t in range(f.algebra.dim)])
    return gram, left, right


# ---------------------------------------------------------------------------
# kernel-frame oracles: statements decided on full kernel frames, with no
# caller in the package; tests compare with them or assert them directly
# ---------------------------------------------------------------------------


def range_invariance_by_kernels(rep, m: int) -> bool:
    """(I_{E^(m-1)} (x) tilde tilde*) N(tilde_{m-1}) <= N(tilde_{m-1}),
    decided on the kernel itself; powers.range_invariance_condition decides
    the equivalent inclusion on the cokernel."""
    final = rep.tilde @ nx.herm(rep.tilde)
    amp = rep.amplified(final, m - 1, 0, 0)
    kernel = rep.kernel_subspace(m - 1)
    return nx.is_subset(nx.image(amp, kernel, rep.tol), kernel, rep.tol)


def chain_inclusion_check(spec, k: int, tol) -> bool:
    """V_i(N(V_i^(k+1))^perp) <= N(V_i^k)^perp for every direction i,
    evaluated on the truncated matrices with the source restricted to the
    faithful window W_{k+1}."""
    window = shifts._faithful_window(spec, k + 1)
    for v in shifts.shift_matrices(spec):
        p_k = np.linalg.matrix_power(v, k)
        p_k1 = p_k @ v
        sources = [m for m in window if np.linalg.norm(p_k1[:, m]) > tol.incl_abs]
        if not sources:
            continue
        f = nx.kernel_frame(p_k, tol)
        moved = v[:, sources]
        if not nx.norm_within(f @ (nx.herm(f) @ moved), tol.incl_abs):
            return False
    return True


def adjoint_regularity_check(rep, n_max: int) -> bool:
    """For regular representations: N(I_{E^(x n)} (x) T*) <= R(tilde_n*)
    for n <= n_max."""
    for n in range(1, n_max + 1):
        amp = rep.amplified(nx.herm(rep.tilde), n, 0, 1)
        kernel = Subspace.kernel(amp, rep.tol)
        if not nx.is_subset(kernel, rep.cokernel_subspace(n), rep.tol):
            return False
    return True


# ---------------------------------------------------------------------------
# dense-amplification oracles: the subspace iterations by their definition,
# each step the span of X(I (x) P) through the space(1) x space(1)
# amplification of the projector P onto the current subspace
# ---------------------------------------------------------------------------


def iterated_range_by_amplification(rep, x=None) -> Subspace:
    """The fixed point of S -> X(E (x) S) that powers.iterated_range computes."""
    x = rep.tilde if x is None else x
    current = Subspace.whole(rep.h_dim)
    for _ in range(rep.h_dim + 1):
        nxt = Subspace.span(x @ rep.amplified(current.projector(), 1, 0, 0), rep.tol)
        if nxt.dim == current.dim:
            return nxt
        current = nxt
    return current


def generated_subspace_by_amplification(rep, x, w: Subspace) -> Subspace:
    """[W]_X as wold.generated_invariant_subspace computes it."""
    total = layer = w
    for _ in range(rep.h_dim):
        layer = Subspace.span(x @ rep.amplified(layer.projector(), 1, 0, 0), rep.tol)
        grown = Subspace.span(np.hstack([total.frame, layer.frame]), rep.tol)
        if grown.dim == total.dim:
            return total
        total = grown
    return total


def subspace_iteration_reps(tol) -> list:
    """Representations for the oracle comparisons: random scalar
    contractions, shift (+) unitary models, the regular fixtures, and, in
    quotient coordinates, two-block draws and scalar reps over a generic
    complex Gram (whose kept eigenvalues are not 1)."""
    rng = rng_for(94)
    reps = []
    for _ in range(8):
        d, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        tilde = crandn(rng, d, n * d)
        reps.append(rep_from_tilde(scalar_correspondence(n), StarRepresentation(SCALARS, [d]), tilde / nx.opnorm(tilde), tol))
    for q, u_dim in ((3, 2), (6, 3), (12, 4)):
        reps.append(hz.shift_plus_unitary_fixture(rng, tol, q=q, u_dim=u_dim))
    for index in range(6):
        reps.append(hz.regular_fixture(rng, tol, want_pi=bool(index % 2)))
    config = hz.TrialConfig(algebra_shape="two_block")
    for index in range(8):
        corr, sigma = hz.draw_setting(hz.rng_stream(95, index), config)
        draw = hz.random_pi_rep if index % 2 else hz.random_contractive_rep
        reps.append(draw(corr, sigma, hz.rng_stream(96, index), tol))
    for n, d in ((2, 3), (3, 2)):
        g = crandn(rng, n, n)
        g = (g @ nx.herm(g) + 0.5 * np.eye(n)).reshape(n, n, 1, 1)
        act = np.eye(n, dtype=np.complex128).reshape(1, n, n)
        corr = FdCorrespondence(SCALARS, g, act, act.copy())
        for draw in (hz.random_pi_rep, hz.random_contractive_rep):
            reps.append(draw(corr, StarRepresentation(SCALARS, [d]), rng, tol))
    return reps


# ---------------------------------------------------------------------------
# dense oracles: the numerics primitives and the lift power on the whole
# array, with no exactly-zero row or column dropped
# ---------------------------------------------------------------------------


def dense_opnorm(m) -> float:
    a = nx.as_matrix(m)
    return 0.0 if a.size == 0 else float(np.linalg.norm(a, 2))


def dense_range_frame(m, tol=DEFAULT_TOL, scale_floor: float = 0.0) -> np.ndarray:
    a = nx.as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : int(np.sum(s > nx.rank_threshold(s, a.shape, tol, scale_floor)))]


def dense_kernel_frame(m, tol=DEFAULT_TOL, scale_floor: float = 0.0) -> np.ndarray:
    a = nx.as_matrix(m)
    if a.size == 0:
        return nx.eye(a.shape[1]) if a.shape[0] == 0 else np.zeros((a.shape[1], 0), dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return nx.herm(vh)[:, int(np.sum(s > nx.rank_threshold(s, a.shape, tol, scale_floor))) :]


def dense_pseudoinverse(m, tol=DEFAULT_TOL) -> np.ndarray:
    a = nx.as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return nx._pinv_from_svd(u, s, vh, nx.rank_threshold(s, a.shape, tol))


def dense_frames_and_pinv(m, tol=DEFAULT_TOL) -> tuple:
    """The frames of R(A) and R(A*) and the pseudoinverse, from one SVD."""
    a = nx.as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cut = nx.rank_threshold(s, a.shape, tol)
    r = int(np.sum(s > cut))
    return u[:, :r], nx.herm(vh[:r]), nx._pinv_from_svd(u, s, vh, cut)


def dense_pi_residual(m) -> float:
    """||M M* M - M|| of the whole matrix."""
    a = nx.as_matrix(m)
    return dense_opnorm(a @ nx.herm(a) @ a - a)


def dense_pi_verdict(m, tol=DEFAULT_TOL) -> bool:
    scale = dense_opnorm(m)
    return scale <= tol.rank_rel or dense_pi_residual(m) <= tol.eq_rel * scale


def dense_image(m, s: Subspace, tol=DEFAULT_TOL) -> Subspace:
    return Subspace(dense_range_frame(nx.as_matrix(m) @ s.frame, tol, 1.0))


def dense_tilde_power(rep, m: int) -> np.ndarray:
    """T_m of a representation in identity coordinates, each block of
    T_{m-1} times the whole lift."""
    t, d = rep.tilde, rep.h_dim
    for _ in range(m - 1):
        t = np.hstack([t[:, j * d : (j + 1) * d] @ rep.tilde for j in range(t.shape[1] // d)])
    return t


def planted_zero_lines(rng, shape, core_shape, values) -> np.ndarray:
    """A matrix of ``shape`` that is zero outside a random ``core_shape``
    submatrix with the given singular values."""
    out = np.zeros(shape, dtype=np.complex128)
    rows = np.sort(rng.choice(shape[0], core_shape[0], replace=False))
    cols = np.sort(rng.choice(shape[1], core_shape[1], replace=False))
    out[np.ix_(rows, cols)] = random_with_spectrum(rng, *core_shape, values)
    return out


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
