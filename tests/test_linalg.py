import numpy as np
import pytest
import scipy.sparse

from mpiga.errors import IndefiniteSystemError, ParameterError
from mpiga.linalg import SparseSymMatrix, eigen_extreme, kernel_split, solve_spd

from oracles import jacobi_eigenvalues, jacobi_generalized_max


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
    with pytest.raises(IndefiniteSystemError):
        solve_spd(K, np.ones(3))


def test_sparse_sym_matrix_blocks():
    M = SparseSymMatrix(4)
    # a stack of two blocks; the second is padded with -1, whose entries drop out
    ids = np.array([[0, 2], [1, -1]])
    M.add_blocks(ids, np.array([[[2.0, 1.0], [1.0, 3.0]], [[5.0, 7.0], [7.0, 9.0]]]))
    K = M.todense()
    assert K[0, 2] == 1.0 and K[2, 0] == 1.0 and K[1, 1] == 5.0
    assert K[2, 2] == 3.0 and np.count_nonzero(K) == 5
    assert M.symmetry_gap() == 0.0


def test_eigen_extreme_diagonal():
    A = scipy.sparse.diags([1.0, 2.0, 3.0]).tocsr()
    lam, _ = eigen_extreme(A, which="max")
    assert abs(lam - 3.0) <= 1e-8
    lam, _ = eigen_extreme(A, which="min")
    assert abs(lam - 1.0) <= 1e-8


def test_eigen_extreme_generalized():
    A = scipy.sparse.diags([2.0, 8.0]).tocsr()
    B = scipy.sparse.diags([1.0, 2.0]).tocsr()
    lam, _ = eigen_extreme(A, B, which="max")
    assert abs(lam - 4.0) <= 1e-7


def test_eigen_extreme_vs_jacobi_oracle():
    rng = np.random.RandomState(5)
    for n in (6, 17, 30):
        for _ in range(4):
            M = rng.randn(n, n)
            A = 0.5 * (M + M.T)
            ref = jacobi_eigenvalues(A)
            lam, _ = eigen_extreme(scipy.sparse.csr_matrix(A), which="max")
            # power iteration tracks the largest-magnitude eigenvalue branch
            target = ref[-1] if abs(ref[-1]) >= abs(ref[0]) else None
            if target is not None:
                assert abs(lam - target) <= 1e-8 * max(1.0, abs(target))


def test_generalized_vs_jacobi_oracle():
    rng = np.random.RandomState(9)
    for n in (8, 20, 40):
        M = rng.randn(n, n)
        A = M.T @ M
        N = rng.randn(n, n)
        B = N.T @ N + n * np.eye(n)
        lam, _ = eigen_extreme(scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(B))
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
