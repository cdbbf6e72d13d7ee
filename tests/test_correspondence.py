import numpy as np
import pytest

from pirep import correspondence
from pirep import numerics as nx
from pirep.correspondence import (
    SCALARS,
    FdCStarAlgebra,
    StarRepresentation,
    algebra_correspondence,
    amplify,
    diagonal_correspondence,
    interior_tensor,
    plain_space,
    scalar_correspondence,
    tensor_power,
    tensor_product,
)
from pirep.errors import DimensionMismatch, IntertwinerError, InvalidCorrespondence, ResourceLimit

from conftest import crandn, dense_budget, rng_for


TWO_BLOCK = FdCStarAlgebra([1, 1])


def two_block_fixture():
    """A = C (+) C, E two-dimensional with gram diag(1(+)0, 0(+)1)."""
    return diagonal_correspondence(TWO_BLOCK, left_tags=[0, 1], right_tags=[0, 1])


# ---------------------------------------------------------------------------
# algebras and representations
# ---------------------------------------------------------------------------


def test_algebra_basics():
    alg = FdCStarAlgebra([2, 1])
    assert alg.matrix_size == 3
    assert alg.dim == 5
    basis = alg.basis()
    assert len(basis) == 5
    ident = alg.identity()
    np.testing.assert_allclose(alg.from_coords(alg.coords(ident)), ident)
    assert alg.off_block_mass(ident) == 0.0
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    assert alg.off_block_mass(bad) > 0.5


def test_algebra_rejects_bad_sizes():
    with pytest.raises(InvalidCorrespondence):
        FdCStarAlgebra([])
    with pytest.raises(InvalidCorrespondence):
        FdCStarAlgebra([0, 2])


def test_star_representation_is_unital_homomorphism(tol):
    alg = FdCStarAlgebra([2, 1])
    sigma = StarRepresentation(alg, [2, 3])
    assert sigma.h_dim == 2 * 2 + 1 * 3
    rng = rng_for(5)
    for _ in range(5):
        a = alg.from_coords(crandn(rng, alg.dim))
        b = alg.from_coords(crandn(rng, alg.dim))
        np.testing.assert_allclose(
            sigma.apply(a) @ sigma.apply(b), sigma.apply(a @ b), atol=1e-12
        )
        np.testing.assert_allclose(sigma.apply(a).conj().T, sigma.apply(a.conj().T), atol=1e-12)
    np.testing.assert_allclose(sigma.apply(alg.identity()), np.eye(sigma.h_dim), atol=1e-14)


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------


def test_scalar_correspondence_validates(tol):
    scalar_correspondence(3).validate(tol)


def test_algebra_correspondence_validates(tol):
    algebra_correspondence(FdCStarAlgebra([2, 1])).validate(tol)


def test_diagonal_correspondence_validates(tol):
    two_block_fixture().validate(tol)


def test_is_full():
    assert scalar_correspondence(4).is_full()
    assert two_block_fixture().is_full()
    one_sided = diagonal_correspondence(TWO_BLOCK, left_tags=[0, 0], right_tags=[0, 0])
    assert not one_sided.is_full()
    # oracle: rank of the vectorized gram entries
    rows = np.array(
        [TWO_BLOCK.coords(one_sided.gram[a, b]) for a in range(2) for b in range(2)]
    )
    assert np.linalg.matrix_rank(rows) == 1 < TWO_BLOCK.dim


def test_random_full_check_matches_bruteforce(tol):
    # oracle: numpy rank of the stacked coefficient matrix
    rng = rng_for(9)
    alg = FdCStarAlgebra([1, 1])
    e = algebra_correspondence(alg)
    rows = np.array([alg.coords(e.gram[a, b]) for a in range(e.module_dim) for b in range(e.module_dim)])
    assert (np.linalg.matrix_rank(rows) == alg.dim) == e.is_full(tol)


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------


def test_tensor_power_zero_is_algebra(tol):
    e = scalar_correspondence(2)
    e0 = tensor_power(e, 0)
    assert e0.module_dim == SCALARS.dim == 1
    np.testing.assert_allclose(e0.gram[0, 0], [[1.0]])
    alg = FdCStarAlgebra([2])
    ealg = tensor_power(algebra_correspondence(alg), 0)
    assert ealg.module_dim == alg.dim
    for a, u in enumerate(alg.basis()):
        for b, v in enumerate(alg.basis()):
            np.testing.assert_allclose(ealg.gram[a, b], u.conj().T @ v, atol=1e-14)


def test_tensor_power_scalar_cube(tol):
    e = scalar_correspondence(2)
    e3 = tensor_power(e, 3)
    assert e3.module_dim == 8
    np.testing.assert_allclose(
        e3.gram_as_block_matrix(), np.eye(8), atol=1e-14
    )


def test_tensor_power_two_block_matches_bruteforce(tol):
    # oracle: direct recursive expansion of <xi (x) eta, xi' (x) eta'>
    e = two_block_fixture()
    e2 = tensor_product(e, e)
    e2.validate(tol)
    n = e.module_dim
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    inner = e.gram[a, c]  # <xi_a, xi_c> in A
                    acted = e.left(inner)  # phi(<xi_a, xi_c>) on coordinates
                    expected = sum(
                        acted[x, d] * e.gram[b, x] for x in range(n)
                    )
                    got = e2.gram[a * n + b, c * n + d]
                    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# interior tensor product
# ---------------------------------------------------------------------------


def test_interior_tensor_scalar_is_kronecker(tol):
    e = scalar_correspondence(3)
    sigma = StarRepresentation(SCALARS, [4])
    space = interior_tensor(e, sigma, tol)
    assert space.dim == 12
    assert space.embed is None  # identity coordinates, no permutation
    xi = np.array([0.0, 1.0, 0.0])
    h = np.array([1.0, 0.0, 0.0, 0.0])
    coords = space.coords_of_simple(xi, h)
    expected = np.zeros(12)
    expected[1 * 4 + 0] = 1.0
    np.testing.assert_allclose(coords, expected, atol=1e-14)


def test_interior_tensor_of_algebra_module_has_h_dim(tol):
    alg = FdCStarAlgebra([2, 1])
    e = algebra_correspondence(alg)
    sigma = StarRepresentation(alg, [1, 2])
    space = interior_tensor(e, sigma, tol)
    assert space.dim == sigma.h_dim
    # inner products agree with <sigma(a) h, sigma(b) g>
    rng = rng_for(12)
    for _ in range(5):
        a = alg.from_coords(crandn(rng, alg.dim))
        b = alg.from_coords(crandn(rng, alg.dim))
        h = crandn(rng, sigma.h_dim)
        g = crandn(rng, sigma.h_dim)
        lhs = np.vdot(
            space.coords_of_simple(alg.coords(a), h),
            space.coords_of_simple(alg.coords(b), g),
        )
        rhs = np.vdot(sigma.apply(a) @ h, sigma.apply(b) @ g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_interior_tensor_two_block_dim_is_gram_rank(tol):
    # frozen via the rank of the scalar gram: multiplicities (2, 1) give 3
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    space = interior_tensor(e, sigma, tol)
    assert space.dim == 3


def test_interior_tensor_inner_product_invariant(tol):
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    space = interior_tensor(e, sigma, tol)
    n, d = e.module_dim, sigma.h_dim
    for a in range(n):
        for b in range(n):
            for j in range(d):
                for l in range(d):
                    xi = np.zeros(n); xi[a] = 1.0
                    eta = np.zeros(n); eta[b] = 1.0
                    h = np.zeros(d); h[j] = 1.0
                    g = np.zeros(d); g[l] = 1.0
                    lhs = np.vdot(space.coords_of_simple(xi, h), space.coords_of_simple(eta, g))
                    rhs = (sigma.apply(e.gram[a, b]) @ g)[j]
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_interior_tensor_associativity_dimensions(tol):
    # oracle: iterate the one-step construction E (x) (previous space) by
    # hand, carrying the induced action, and compare dimensions with the
    # direct construction over E^(x m)
    def iterate_once(e, dim, act):
        n = e.module_dim
        blocks = np.zeros((n, n, dim, dim), dtype=complex)
        for a in range(n):
            for b in range(n):
                blocks[a, b] = act(e.gram[a, b])
        big = blocks.transpose(0, 2, 1, 3).reshape(n * dim, n * dim)
        big = (big + big.conj().T) / 2.0
        w, v = np.linalg.eigh(big)
        keep = w > 1e-9 * max(w.max(initial=0.0), 1.0)
        lam, basis = w[keep], v[:, keep]
        embed = np.sqrt(lam)[:, None] * basis.conj().T
        lift = basis / np.sqrt(lam)[None, :]

        def new_act(u, e=e, dim=dim, embed=embed, lift=lift):
            return embed @ np.kron(e.left(u), np.eye(dim)) @ lift

        return int(lam.size), new_act

    for fixture in (scalar_correspondence(2), two_block_fixture()):
        sigma = (
            StarRepresentation(SCALARS, [3])
            if fixture.algebra.is_scalar
            else StarRepresentation(TWO_BLOCK, [2, 1])
        )
        for m in range(1, 4):
            direct = interior_tensor(tensor_power(fixture, m), sigma, tol).dim
            dim, act = sigma.h_dim, sigma.apply
            for _ in range(m):
                dim, act = iterate_once(fixture, dim, act)
            assert direct == dim, (type(fixture), m)


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------


def amplify_over(f, x, dom, cod, sigma, tol):
    """I_F (x) X with the big spaces F (x) dom and F (x) cod built here;
    returns (matrix, big_dom, big_cod)."""

    def big(side):
        return interior_tensor(f if side.corr is None else tensor_product(f, side.corr), sigma, tol)

    big_dom, big_cod = big(dom), big(cod)
    return amplify(x, dom, cod, big_dom, big_cod, tol), big_dom, big_cod


def test_amplify_scalar_is_kron(tol):
    sigma = StarRepresentation(SCALARS, [2])
    e = scalar_correspondence(2)
    f = scalar_correspondence(2)
    x = crandn(rng_for(21), 2, 4)  # maps E (x) H -> H
    dom = interior_tensor(e, sigma, tol)
    cod = plain_space(sigma)
    got, big_dom, big_cod = amplify_over(f, x, dom, cod, sigma, tol)
    np.testing.assert_allclose(got, np.kron(np.eye(2), x), atol=1e-14)
    assert big_dom.dim == 8 and big_cod.dim == 4


def test_amplify_identity_is_identity(tol):
    sigma = StarRepresentation(SCALARS, [3])
    e = scalar_correspondence(2)
    space = interior_tensor(e, sigma, tol)
    got, _, _ = amplify_over(e, np.eye(space.dim), space, space, sigma, tol)
    np.testing.assert_allclose(got, np.eye(2 * space.dim), atol=1e-14)


def test_amplify_covariance_required_on_block_algebra(tol):
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    space = interior_tensor(e, sigma, tol)
    rng = rng_for(33)
    bad = crandn(rng, sigma.h_dim, space.dim)  # generic: not an intertwiner
    with pytest.raises(IntertwinerError):
        amplify_over(e, bad, space, plain_space(sigma), sigma, tol)


def test_amplify_block_case_matches_basis_chase(tol):
    # oracle: evaluate I_F (x) X on every simple tensor basis vector and
    # compare through the associativity identification
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    d = sigma.h_dim
    space_e = interior_tensor(e, sigma, tol)
    rng = rng_for(5)

    # build a covariant X : E (x) H -> H by projecting a random matrix onto
    # the intertwiner space
    rows = []
    for u in TWO_BLOCK.basis():
        act = space_e.induced_action(u)
        sig = sigma.apply(u)
        rows.append(np.kron(act.T, np.eye(d)) - np.kron(np.eye(space_e.dim), sig))
    constraint = np.vstack(rows)
    kernel = nx.kernel_frame(constraint, tol)
    coeff = crandn(rng, kernel.shape[1])
    x = (kernel @ coeff).reshape(space_e.dim, d).T.copy()
    # sanity: X intertwines
    for u in TWO_BLOCK.basis():
        assert nx.opnorm(x @ space_e.induced_action(u) - sigma.apply(u) @ x) < 1e-10

    got, big_dom, big_cod = amplify_over(e, x, space_e, plain_space(sigma), sigma, tol)
    n = e.module_dim
    for a in range(n):
        for b in range(n):
            for j in range(d):
                xi = np.zeros(n); xi[a] = 1.0
                eta = np.zeros(n); eta[b] = 1.0
                h = np.zeros(d); h[j] = 1.0
                # domain side: (xi (x) eta) (x) h in (F (x) E) (x) H coords
                pair = np.kron(xi, eta)
                dom_coords = big_dom.coords_of_simple(pair, h)
                # codomain side: xi (x) X(eta (x) h)
                xh = x @ space_e.coords_of_simple(eta, h)
                cod_coords = big_cod.coords_of_simple(xi, xh)
                np.testing.assert_allclose(got @ dom_coords, cod_coords, atol=1e-10)


def test_amplify_respects_composition_and_adjoints(tol):
    sigma = StarRepresentation(SCALARS, [3])
    e = scalar_correspondence(2)
    f = scalar_correspondence(2)
    rng = rng_for(44)
    space = interior_tensor(e, sigma, tol)
    x = crandn(rng, 3, space.dim)
    y = crandn(rng, space.dim, 3)
    ix, _, _ = amplify_over(f, x, space, plain_space(sigma), sigma, tol)
    iy, _, _ = amplify_over(f, y, plain_space(sigma), space, sigma, tol)
    ixy, _, _ = amplify_over(f, x @ y, plain_space(sigma), plain_space(sigma), sigma, tol)
    np.testing.assert_allclose(ix @ iy, ixy, atol=1e-12)
    ixh, _, _ = amplify_over(f, x.conj().T, plain_space(sigma), space, sigma, tol)
    np.testing.assert_allclose(ix.conj().T, ixh, atol=1e-12)


def test_amplify_shape_mismatch(tol):
    sigma = StarRepresentation(SCALARS, [2])
    e = scalar_correspondence(2)
    space = interior_tensor(e, sigma, tol)
    with pytest.raises(DimensionMismatch):
        amplify_over(e, np.zeros((3, 3)), space, plain_space(sigma), sigma, tol)


# ---------------------------------------------------------------------------
# the dense byte budget, checked from shapes before allocating
# ---------------------------------------------------------------------------


def test_star_representation_checks_its_bytes(monkeypatch):
    # sigma(a) is h x h: h = 4 fits 256 bytes, h = 5 needs 400
    dense_budget(monkeypatch, 16 * 4**2, correspondence, nx)
    StarRepresentation(TWO_BLOCK, [2, 2]).apply(np.eye(2))
    with pytest.raises(ResourceLimit, match="H of dimension 5 needs 400 bytes, over the budget 256"):
        StarRepresentation(TWO_BLOCK, [3, 2])


def test_tensor_product_checks_its_gram(monkeypatch):
    # the Gram of E (x) F has (N_E N_F K)^2 entries: 6^2 fit, 7^2 do not
    e1, e2, e3, e7 = (scalar_correspondence(n) for n in (1, 2, 3, 7))
    e = two_block_fixture()
    dense_budget(monkeypatch, 16 * 6**2, correspondence, nx)
    assert tensor_product(e2, e3).module_dim == 6
    with pytest.raises(ResourceLimit, match="module dimension 7 needs 784 bytes"):
        tensor_product(e7, e1)
    # K = 2 for the two-block algebra: (2 * 2 * 2)^2 entries
    with pytest.raises(ResourceLimit, match="module dimension 4 needs 1024 bytes"):
        tensor_product(e, e)


def test_interior_tensor_checks_its_gram(monkeypatch, tol):
    # the non-standard Gram and its eigh are (N d)^2: N = 2 with d = 2 fits,
    # d = 3 does not; the standard path builds no Gram
    e = two_block_fixture()
    small, large = StarRepresentation(TWO_BLOCK, [1, 1]), StarRepresentation(TWO_BLOCK, [2, 1])
    dense_budget(monkeypatch, 16 * 4**2, correspondence, nx)
    interior_tensor(e, small, tol)
    with pytest.raises(ResourceLimit, match="formal dimension 6 needs 576 bytes"):
        interior_tensor(e, large, tol)
    assert interior_tensor(scalar_correspondence(3), StarRepresentation(SCALARS, [4]), tol).dim == 12


def test_amplify_checks_its_bytes(monkeypatch, tol):
    # I_E (x) I over E (x)_sigma H with dim H = 3 is 12 x 12 in formal coordinates
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    space = interior_tensor(e, sigma, tol)
    big = interior_tensor(tensor_product(e, e), sigma, tol)
    x = np.eye(space.dim)
    dense_budget(monkeypatch, 16 * 12**2, correspondence, nx)
    assert amplify(x, space, space, big, big, tol).shape == (big.dim, big.dim)
    dense_budget(monkeypatch, 16 * 12**2 - 1, correspondence, nx)
    with pytest.raises(ResourceLimit, match="an amplification needs 2304 bytes"):
        amplify(x, space, space, big, big, tol)
