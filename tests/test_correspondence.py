import tracemalloc

import numpy as np
import pytest

from pirep import correspondence
from pirep import numerics as nx
from pirep.correspondence import (
    SCALARS,
    FdCorrespondence,
    FdCStarAlgebra,
    StarRepresentation,
    algebra_correspondence,
    amplify,
    diagonal_correspondence,
    interior_tensor,
    intertwining_residual,
    plain_space,
    scalar_correspondence,
    tensor_power,
    tensor_product,
)
from pirep.errors import DimensionMismatch, IntertwinerError, InvalidCorrespondence, NumericFailure, ResourceLimit

from conftest import (
    count_sigma_work,
    crandn,
    dense_budget,
    empty_correspondence,
    from_coords,
    induced_action_by_entries,
    interior_tensor_by_entries,
    kron_apply,
    rng_for,
    tensor_product_by_entries,
)


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
    np.testing.assert_allclose(from_coords(alg, alg.coords(ident)), ident)


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
        a = from_coords(alg, crandn(rng, alg.dim))
        b = from_coords(alg, crandn(rng, alg.dim))
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


def test_constructors_refuse_bad_arguments_before_sharing():
    # a tag is a block index and a dimension a nonnegative integer; anything
    # else is a typed refusal, never a negative index or a numpy error
    for left, right in (([-1], [0]), ([0], [2]), ([True], [0]), ([0], [0.0]), ([0, 1], [1])):
        with pytest.raises(DimensionMismatch):
            diagonal_correspondence(TWO_BLOCK, left, right)
    for n in (-1, 2.5, True, "2"):
        with pytest.raises(DimensionMismatch):
            scalar_correspondence(n)
    with pytest.raises(InvalidCorrespondence, match="1x1 tagged blocks"):
        diagonal_correspondence(FdCStarAlgebra([2, 1]), [0], [1])
    # nothing refused was stored, and numpy integers name the same structure
    assert correspondence._CONSTRUCTED == {}
    assert scalar_correspondence(np.int64(2)) is scalar_correspondence(2)
    tags = np.array([0, 1])
    assert diagonal_correspondence(TWO_BLOCK, tags, tags[::-1]) is diagonal_correspondence(TWO_BLOCK, [0, 1], [1, 0])


def test_is_full(tol):
    assert scalar_correspondence(4).is_full(tol)
    assert two_block_fixture().is_full(tol)
    one_sided = diagonal_correspondence(TWO_BLOCK, left_tags=[0, 0], right_tags=[0, 0])
    assert not one_sided.is_full(tol)
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
        a = from_coords(alg, crandn(rng, alg.dim))
        b = from_coords(alg, crandn(rng, alg.dim))
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
# sigma and the module actions on stacks, against the per-entry oracles
# ---------------------------------------------------------------------------


def random_correspondence(alg, n, rng):
    """Generic complex structure data over ``alg``: the positive Gram
    <xi_a, xi_b> = x_a* x_b of random elements x_a, and random actions (so
    not a valid correspondence, which tensor_product and interior_tensor
    do not need)."""
    xs = np.stack([from_coords(alg, crandn(rng, alg.dim)) for _ in range(n)])
    gram = np.conj(xs.transpose(0, 2, 1))[:, None] @ xs[None, :]
    return FdCorrespondence(alg, gram, crandn(rng, alg.dim, n, n), crandn(rng, alg.dim, n, n))


def test_stacked_sigma_is_kron_bit_for_bit():
    # every matrix of sigma(stack) has the bytes of the per-element kron,
    # signed zeros included
    rng = rng_for(60)
    for alg, mults in ((FdCStarAlgebra([2, 1]), [2, 3]), (TWO_BLOCK, [0, 3]), (TWO_BLOCK, [2, 0])):
        sigma = StarRepresentation(alg, mults)
        stack = crandn(rng, 4, 3, alg.matrix_size, alg.matrix_size)
        stack[0, 0] = -0.0
        stack[1, 2, 0, 0] = complex(-0.0, 0.0)
        got = sigma.apply(stack)
        assert got.shape == (4, 3, sigma.h_dim, sigma.h_dim)
        for idx in np.ndindex(4, 3):
            want = kron_apply(sigma, stack[idx])
            assert got[idx].tobytes() == want.tobytes(), (mults, idx)
        assert sigma.apply(stack[2, 1]).tobytes() == kron_apply(sigma, stack[2, 1]).tobytes()


def _power_family(e, top):
    """E, E (x) E, ..., E^(x top) through the memos."""
    return [tensor_power(e, m) for m in range(1, top + 1)]


def _interior_cases():
    rng = rng_for(61)
    two = FdCStarAlgebra([2, 1])
    yield _power_family(scalar_correspondence(3), 2), StarRepresentation(SCALARS, [2])
    yield [random_correspondence(SCALARS, 3, rng)], StarRepresentation(SCALARS, [3])
    yield _power_family(two_block_fixture(), 3), StarRepresentation(TWO_BLOCK, [2, 1])
    yield _power_family(two_block_fixture(), 2), StarRepresentation(TWO_BLOCK, [0, 3])
    yield _power_family(algebra_correspondence(two), 2), StarRepresentation(two, [1, 2])
    # random actions are no *-homomorphism, so the powers of these would
    # have no positive Gram
    yield [random_correspondence(two, 3, rng)], StarRepresentation(two, [2, 1])
    yield [random_correspondence(TWO_BLOCK, 3, rng)], StarRepresentation(TWO_BLOCK, [1, 2])


def test_interior_tensor_and_induced_actions_match_the_per_entry_oracle(tol):
    for family, sigma in _interior_cases():
        for e in family:
            space = interior_tensor(e, sigma, tol)
            dim, embed, lift = interior_tensor_by_entries(e, sigma, tol)
            assert space.dim == dim
            if embed is None:
                assert space.embed is None and space.lift is None
            else:
                assert np.array_equal(space.embed, embed) and np.array_equal(space.lift, lift)
            basis = e.algebra.basis()
            actions = space.induced_action(basis)
            assert actions.shape == (e.algebra.dim, space.dim, space.dim)
            for t, u in enumerate(basis):
                assert np.array_equal(actions[t], induced_action_by_entries(space, u)), (e.module_dim, t)


def _product_cases():
    rng = rng_for(62)
    two, three = FdCStarAlgebra([2, 1]), FdCStarAlgebra([1, 1, 1])
    yield scalar_correspondence(2), scalar_correspondence(3)
    for e in (two_block_fixture(), algebra_correspondence(two), algebra_correspondence(TWO_BLOCK)):
        yield e, e
        yield e.tensor(e), e
    for alg in (TWO_BLOCK, two, three):
        e, f = random_correspondence(alg, 3, rng), random_correspondence(alg, 2, rng)
        yield e, f
        yield tensor_product(e, f), e


def test_tensor_product_matches_the_per_entry_oracle():
    for e, f in _product_cases():
        ef = tensor_product(e, f)
        gram, left, right = tensor_product_by_entries(e, f)
        assert np.array_equal(ef.gram, gram), (e.algebra, e.module_dim, f.module_dim)
        assert np.array_equal(ef.left_action, left)
        assert np.array_equal(ef.right_action, right)


def test_tensor_product_over_scalars_is_within_one_rounding_per_product():
    # over the scalar algebra with a generic complex Gram, the per-entry
    # phi_F(<xi_a, xi_b>) is numpy's scalar-times-vector path, which rounds
    # a complex product differently from the stacked product.  Each side
    # rounds c * L within sqrt(5) u |c| |L|, and the Gram contraction
    # sum_x g_x (c L_x) then rounds within (nf - 1 + sqrt(5)) u per term on
    # each side, so the sides differ by at most (2 nf + 8) u S with
    # S = sum_x |g_x| |c| |L_x|.  The action stacks stay exact.
    u = 2.0**-53
    rng = rng_for(63)
    for ne, nf in ((1, 1), (2, 3), (4, 2), (3, 5)):
        e, f = random_correspondence(SCALARS, ne, rng), random_correspondence(SCALARS, nf, rng)
        ef = tensor_product(e, f)
        gram, left, right = tensor_product_by_entries(e, f)
        assert np.array_equal(ef.left_action, left) and np.array_equal(ef.right_action, right)
        c = np.abs(e.gram[:, :, 0, 0])
        g = np.abs(f.gram[:, :, 0, 0])
        s = np.einsum("cx,ab,xd->acbd", g, c, np.abs(f.left_action[0])).reshape(ne * nf, ne * nf)
        assert np.all(np.abs(ef.gram[..., 0, 0] - gram[..., 0, 0]) <= (2 * nf + 8) * u * s), (ne, nf)


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------


def amplify_over(f, x, dom, cod, sigma, tol):
    """I_F (x) X with the big spaces F (x) dom and F (x) cod built here;
    returns (its dense matrix, big_dom, big_cod)."""

    def big(side):
        return interior_tensor(f if side.corr is None else tensor_product(f, side.corr), sigma, tol)

    big_dom, big_cod = big(dom), big(cod)
    return amplify(x, dom, cod, big_dom, big_cod, tol).to_dense(), big_dom, big_cod


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
    assert amplify(x, space, space, big, big, tol).to_dense().shape == (big.dim, big.dim)
    dense_budget(monkeypatch, 16 * 12**2 - 1, correspondence, nx)
    with pytest.raises(ResourceLimit, match="an amplification needs 2304 bytes"):
        amplify(x, space, space, big, big, tol).to_dense()


def test_stacks_are_refused_before_they_are_built(monkeypatch, tol):
    # multiplicities (60, 60): H has dimension 120 and E (x)_sigma H formal
    # dimension 240.  One sigma(a) and the interior Gram fit the budget; the
    # induced actions of the two matrix units and sigma of five elements do
    # not, and each is refused from its shape before anything is allocated
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [60, 60])
    space = interior_tensor(e, sigma, tol)
    budget = 16 * 240**2
    dense_budget(monkeypatch, budget, correspondence, nx)
    assert sigma.apply(TWO_BLOCK.basis()).shape == (2, 120, 120)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="2 elements on formal dimension 240 needs 1843200 bytes"):
            space.induced_action(TWO_BLOCK.basis())
        with pytest.raises(ResourceLimit, match="sigma of 5 elements on H of dimension 120 needs 1152000 bytes"):
            sigma.apply(np.zeros((5, 2, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget // 8


def test_interior_tensor_applies_sigma_once_to_the_whole_gram(monkeypatch, tol):
    e = tensor_product(two_block_fixture(), two_block_fixture())
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    counts = count_sigma_work(monkeypatch)
    interior_tensor(e, sigma, tol)
    assert counts == {"basis": 0, "apply": e.module_dim**2, "apply_calls": 1}


def test_empty_module_validates_without_work(monkeypatch, tol):
    # every axiom holds vacuously on a zero module, so none is evaluated:
    # no basis matrices for the 80 blocks, no N^2 pairs of them
    e = empty_correspondence(FdCStarAlgebra([1] * 80))
    counts = count_sigma_work(monkeypatch)
    assert e.validate(tol) is e
    assert counts == {"basis": 0, "apply": 0, "apply_calls": 0}


def test_intertwining_residual_is_the_worst_matrix_unit(tol):
    e = two_block_fixture()
    sigma = StarRepresentation(TWO_BLOCK, [2, 1])
    space, h = interior_tensor(e, sigma, tol), plain_space(sigma)
    x = crandn(rng_for(34), sigma.h_dim, space.dim)  # generic: not an intertwiner
    brute = max(
        nx.opnorm(x @ space.induced_action(u) - sigma.apply(u) @ x) for u in TWO_BLOCK.basis()
    )
    assert intertwining_residual(x, space, h) == brute > 0.1
    empty_space = interior_tensor(empty_correspondence(TWO_BLOCK), sigma, tol)
    assert intertwining_residual(np.zeros((sigma.h_dim, 0)), empty_space, h) == 0.0
    # the scalar algebra: every operator intertwines
    scalar = StarRepresentation(SCALARS, [2])
    scalar_space = interior_tensor(scalar_correspondence(2), scalar, tol)
    assert intertwining_residual(crandn(rng_for(35), 2, 4), scalar_space, plain_space(scalar)) == 0.0


@pytest.mark.parametrize("lapack", ["svd", "eigvalsh", "eigh"])
def test_lapack_failures_are_numeric_failures(monkeypatch, lapack, tol):
    # is_full takes an SVD, validate an eigvalsh, and the non-standard
    # interior tensor an eigh; a call that does not converge is typed
    e, sigma = two_block_fixture(), StarRepresentation(TWO_BLOCK, [1, 1])
    run = {
        "svd": lambda: e.is_full(tol),
        "eigvalsh": lambda: e.validate(tol),
        "eigh": lambda: interior_tensor(e, sigma, tol),
    }[lapack]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(NumericFailure, match="did not converge"):
        run()
