import numpy as np
import pytest
import scipy.sparse

from mpiga.errors import IndefiniteSystemError, NumericalError, ParameterError
from mpiga.linalg import gram_pencil_max, kernel_split, solve_spd, sum_blocks, triplets_to_csr

from oracles import jacobi_generalized_max


def test_solve_identity():
    b = np.arange(1.0, 6.0)
    x = solve_spd(scipy.sparse.identity(5, format="csr"), b)
    assert np.allclose(x, b)


def test_solve_diagonal():
    n = 8
    K = scipy.sparse.diags(np.arange(1.0, n + 1.0)).tocsr()
    b = np.ones(n)
    x = solve_spd(K, b)
    assert np.allclose(x, 1.0 / np.arange(1.0, n + 1.0))


def test_solve_random_spd_residual():
    rng = np.random.RandomState(11)
    A = rng.rand(50, 50)
    K = A.T @ A + np.eye(50)
    b = rng.rand(50)
    x = solve_spd(scipy.sparse.csr_matrix(K), b)
    assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_indefinite_raises():
    K = scipy.sparse.diags([1.0, -1.0, 2.0]).tocsr()
    with pytest.raises(IndefiniteSystemError) as info:
        solve_spd(K, np.ones(3))
    assert info.value.nonpositive_pivots == 1


def laplacian_5pt(m):
    """Five-point Dirichlet Laplacian on an m x m grid and its eigenvalues."""
    T = scipy.sparse.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    eye = scipy.sparse.identity(m)
    lam1 = 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
    return (scipy.sparse.kron(T, eye) + scipy.sparse.kron(eye, T)).tocsr(), np.add.outer(lam1, lam1)


def test_pivot_inertia_witness_at_3600_dofs():
    # the non-positive pivots count the eigenvalues below the shift exactly
    K, lam = laplacian_5pt(60)
    b = np.ones(K.shape[0])
    x = solve_spd(K, b)
    assert np.linalg.norm(K @ x - b) <= 1e-10 * abs(K).max() * np.linalg.norm(x)
    shift = 0.05  # strictly between the 11th and 12th eigenvalue
    below = int(np.sum(lam < shift))
    assert below == 11 and np.min(np.abs(lam - shift)) > 1e-3
    with pytest.raises(IndefiniteSystemError) as info:
        solve_spd(K - shift * scipy.sparse.identity(K.shape[0], format="csr"), b)
    assert info.value.nonpositive_pivots == below


def test_row_pivoting_is_no_witness():
    K = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(IndefiniteSystemError):
        solve_spd(K, np.ones(2))


def test_triplets_to_csr_blocks():
    # a stack of two blocks; the second is padded with -1, whose entries drop out
    ids = np.array([[0, 2], [1, -1]])
    triplets = [sum_blocks(ids, np.array([[[2.0, 1.0], [1.0, 3.0]], [[5.0, 7.0], [7.0, 9.0]]]))]
    K = triplets_to_csr(triplets, 4).toarray()
    assert K[0, 2] == 1.0 and K[2, 0] == 1.0 and K[1, 1] == 5.0
    assert K[2, 2] == 3.0 and np.count_nonzero(K) == 5
    assert np.array_equal(K, K.T)


def _dense_reference(dim, stacks):
    """Dense sum of block stacks by np.add.at, and the pattern of coupled pairs."""
    ref = np.zeros((dim, dim))
    pattern = np.zeros((dim, dim), dtype=bool)
    for ids, blocks in stacks:
        for row, block in zip(ids, blocks):
            keep = row >= 0
            at = np.ix_(row[keep], row[keep])
            np.add.at(ref, at, block[np.ix_(keep, keep)])
            pattern[at] = True
    return ref, pattern


def _random_stack(rng, dim, nb, nd):
    ids = rng.integers(-1, dim, size=(nb, nd))  # repeats within and across blocks, -1 padding
    blocks = rng.standard_normal((nb, nd, nd))
    return ids, blocks + blocks.swapaxes(1, 2)


def test_triplets_to_csr_matches_dense_reference():
    rng = np.random.default_rng(7)
    dim = 12
    # the pair (10, 11) and both diagonal entries are coupled but sum to exactly 0.0
    cancel = np.array([[10, 11], [11, 10], [-1, 10]]), np.array(
        [[[0.0, 1.5], [1.5, 0.0]], [[0.0, -1.5], [-1.5, 0.0]], [[4.0, 2.0], [2.0, 0.0]]]
    )
    padding = np.full((2, 2), -1), np.ones((2, 2, 2))
    stacks = [_random_stack(rng, 10, 6, 4), cancel, padding, _random_stack(rng, 10, 3, 5)]
    triplets = [sum_blocks(ids, blocks) for ids, blocks in stacks]
    # one triplet per distinct coupled pair of each stack
    counts = [np.count_nonzero(_dense_reference(dim, [s])[1]) for s in stacks]
    assert [len(vals) for _, _, vals in triplets] == counts
    K = triplets_to_csr(triplets, dim)
    assert triplets == []
    ref, pattern = _dense_reference(dim, stacks)
    got = np.zeros_like(pattern)
    got[np.repeat(np.arange(dim), np.diff(K.indptr)), K.indices] = True
    assert np.array_equal(got, pattern) and K.nnz == np.count_nonzero(pattern)
    assert np.abs(K.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
    assert K[10, 11] == 0.0 and K[11, 11] == 0.0


def test_non_finite_entries_are_refused():
    triplets = [sum_blocks(np.array([[0, 1]]), np.array([[[1.0, np.inf], [np.inf, 1.0]]]))]
    with pytest.raises(ParameterError):
        triplets_to_csr(triplets, 2)
    with pytest.raises(ParameterError):
        solve_spd(scipy.sparse.diags([1.0, np.nan]), np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_is_refused(bad):
    # a non-finite load would otherwise solve to non-finite coefficients
    # without an error: its residual compares False with any bound
    b = np.ones(3)
    b[1] = bad
    with pytest.raises(ParameterError):
        solve_spd(scipy.sparse.identity(3, format="csr"), b)


@pytest.mark.parametrize(
    "K,b",
    [
        # the solution overflows to +-inf and its residual is NaN
        (1e-200 * np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([1e150, -1e150])),
        # the solution overflows to inf, and so do its residual and scale
        (np.diag([1e-300, 1.0]), np.array([1e10, 1.0])),
    ],
)
def test_non_finite_solution_raises(K, b):
    # finite, symmetric and with positive pivots, yet no finite solution
    with pytest.raises(NumericalError):
        solve_spd(scipy.sparse.csr_matrix(K), b)


def test_gram_pencil_max_diagonal():
    R = np.diag([np.sqrt(2.0), np.sqrt(8.0)])
    B = scipy.sparse.diags([1.0, 2.0]).tocsr()
    assert abs(gram_pencil_max(R, B) - 4.0) <= 1e-7


def test_generalized_vs_jacobi_oracle():
    rng = np.random.RandomState(9)
    for n in (8, 20, 40):
        M = rng.randn(n, n)
        A = M.T @ M
        N = rng.randn(n, n)
        B = N.T @ N + n * np.eye(n)
        lam = gram_pencil_max(M, scipy.sparse.csr_matrix(B))
        ref = jacobi_generalized_max(A, B)
        assert abs(lam - ref) <= 1e-8 * max(1.0, abs(ref))


def test_nullspace_zero_matrix():
    basis, compl = kernel_split(np.zeros((3, 3)), 1e-10)
    assert basis.shape == (3, 3) and compl.shape == (3, 0)


def test_nullspace_projection():
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis, _ = kernel_split(M, 1e-10)
    assert basis.shape == (3, 1)
    assert abs(abs(basis[2, 0]) - 1.0) <= 1e-12


def test_nullspace_random_rank2():
    rng = np.random.RandomState(21)
    U = rng.randn(4, 2)
    V = rng.randn(2, 6)
    M = U @ V
    basis, compl = kernel_split(M, 1e-8)
    assert basis.shape == (6, 4) and compl.shape == (6, 2)
    assert np.abs(M @ basis).max() <= 1e-10
    Q = np.hstack([basis, compl])
    assert np.abs(Q.T @ Q - np.eye(6)).max() <= 1e-12


def test_nullspace_tol_validation():
    with pytest.raises(ParameterError):
        kernel_split(np.eye(2), 2.0)


def test_kernel_split_signs_are_reproducible():
    # rank 3 on 4 columns with distinct singular values: the kernel is one
    # line and every basis column is fixed up to the sign convention
    rng = np.random.RandomState(5)
    U, _ = np.linalg.qr(rng.randn(5, 5))
    V, _ = np.linalg.qr(rng.randn(4, 4))
    M = U[:, :4] @ np.diag([3.0, 2.0, 1.0, 0.0]) @ V.T
    kernel, compl = kernel_split(M, 1e-10)
    assert kernel.shape == (4, 1) and compl.shape == (4, 3)
    for variant in (-M, M[[3, 0, 4, 2, 1]]):
        k2, c2 = kernel_split(variant, 1e-10)
        assert np.abs(k2 - kernel).max() <= 1e-12
        assert np.abs(c2 - compl).max() <= 1e-12
    for Q in (kernel, compl):
        assert np.all(Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])] > 0.0)


def test_kernel_split_bases_depend_on_the_kernel_only():
    # three zero singular values: any rotation of the null singular vectors
    # is an SVD, so the bases must come from the kernel, not from the SVD
    rng = np.random.RandomState(7)
    U, _ = np.linalg.qr(rng.randn(8, 8))
    V, _ = np.linalg.qr(rng.randn(6, 6))
    M = U[:, :6] @ np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]) @ V.T
    kernel, compl = kernel_split(M, 1e-10)
    assert kernel.shape == (6, 3) and compl.shape == (6, 3)
    assert np.abs(M @ kernel).max() <= 1e-12
    Q = np.hstack([kernel, compl])
    assert np.abs(Q.T @ Q - np.eye(6)).max() <= 1e-12
    perturbed = M * (1.0 + 1e-15 * rng.randn(*M.shape))
    for variant in (perturbed, M[rng.permutation(8)], -M):
        k2, c2 = kernel_split(variant, 1e-10)
        assert np.abs(k2 - kernel).max() <= 1e-12
        assert np.abs(c2 - compl).max() <= 1e-12
