"""Minimal numerical linear algebra for the solver: element blocks summed to
triplets and merged into CSR matrices, one symmetric sparse factorization
whose pivots witness definiteness (shared by the SPD solve and the low-rank
Gram pencil), and a rank-revealing kernel split."""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import IndefiniteSystemError, NumericalError, ParameterError


def sum_blocks(ids, blocks):
    """A stack of dense square blocks (nb, nd, nd) at the ids (nb, nd) as
    one (row, col, sum) triplet per pair of ids that some block couples,
    row-major; sums run in stack order and entries at id -1 are dropped."""
    uniq, local = np.unique(ids, return_inverse=True)
    local = local.reshape(ids.shape)
    m = len(uniq)
    keys = (local[:, :, None] * m + local[:, None, :]).ravel()  # local (row, col) pairs
    sums = np.bincount(keys, weights=blocks.ravel(), minlength=m * m)
    coupled = np.zeros((m, m), dtype=bool)
    coupled.ravel()[keys] = True
    if m and uniq[0] < 0:  # the padding id sorts first
        coupled[0] = coupled[:, 0] = False
    pairs = np.flatnonzero(coupled)
    rows, cols = np.divmod(pairs, m)
    return uniq[rows], uniq[cols], sums[pairs]


def triplets_to_csr(triplets, dim):
    """The dim x dim CSR matrix that sums a list of (row, col, value)
    triplets, such as the :func:`sum_blocks` of each band; entries whose
    sum is 0.0 stay in the pattern, and non-finite entries raise
    :class:`ParameterError`.

    The list is emptied: each part (rows, columns, values) is merged in
    turn and its band arrays freed, so at most one part is held twice.
    """
    # ids in scipy's index type for this size, so the conversion copies none
    index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    parts = [list(part) for part in zip(*triplets)] or [[], [], []]
    triplets.clear()
    for part, dtype in zip(parts, (index, index, float)):
        part[:] = [np.concatenate(part or [np.zeros(0, dtype)], dtype=dtype)]
    (rows,), (cols,), (vals,) = parts
    return _finite(scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))


def _finite(csr):
    if not np.all(np.isfinite(csr.data)):
        raise ParameterError("non-finite entries in assembled matrix")
    return csr


def _regularized(B):
    """B + eps I with eps = 1e-12 trace(B)/dim, as a CSC matrix."""
    Bc = scipy.sparse.csr_matrix(B)
    n = Bc.shape[0]
    eps = 1e-12 * Bc.diagonal().sum() / n
    return (Bc + eps * scipy.sparse.identity(n, format="csr")).tocsc()


def _factor_spd(A):
    """Sparse LU of a symmetric matrix, accepted only as a witness of SPD.

    SuperLU's symmetric mode orders A + A^T by minimum degree and takes the
    diagonal pivots, so the factorization is P A P^T = L U with
    ``perm_r == perm_c``.  For symmetric A, U = D L^T, and by Sylvester's law
    of inertia the signs of the U pivots count the eigenvalues of A of each
    sign.  Raises :class:`IndefiniteSystemError` on a non-positive pivot, on
    a row permutation (its pivots witness nothing) or on exact singularity.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            A.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise IndefiniteSystemError(f"sparse factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise IndefiniteSystemError("sparse factorization pivoted off the diagonal")
    count = int(np.count_nonzero(~(lu.U.diagonal() > 0.0)))  # NaN pivots count too
    if count:
        raise IndefiniteSystemError(
            f"{count} non-positive pivots in the symmetric factorization", nonpositive_pivots=count
        )
    return lu


def solve_spd(K, b, residual_tol=1e-10):
    """Solve K x = b for a symmetric positive definite scipy sparse K.

    One symmetric sparse factorization serves every size; its pivot signs
    witness definiteness (:class:`IndefiniteSystemError` otherwise), and a
    solution or backward error that is not finite, or a backward error
    above ``residual_tol``, raises :class:`NumericalError`.  Non-finite
    entries of K or b raise :class:`ParameterError`.
    """
    b = np.asarray(b, dtype=float)
    A = _finite(scipy.sparse.csr_matrix(K))
    n = A.shape[0]
    if b.shape[0] != n:
        raise ParameterError(f"rhs length {b.shape[0]} does not match matrix size {n}")
    if not np.all(np.isfinite(b)):
        raise ParameterError("non-finite entries in right-hand side")
    x = _factor_spd(A).solve(b)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite solution")

    # backward-stable residual scale: |b| alone undersells ill-conditioned
    # but perfectly solvable systems (extreme penalty weights)
    scale = max(np.linalg.norm(b), abs(A).max() * np.linalg.norm(x), 1e-300)
    res = np.linalg.norm(A @ x - b)
    if not res <= residual_tol * scale:  # a NaN residual fails too
        raise NumericalError(
            f"solver residual {res / scale:.3e} above tolerance {residual_tol:.1e}"
        )
    return x


def gram_pencil_max(R, B):
    """Largest eigenvalue of A x = lambda B x for a low-rank Gram matrix A = R^T R.

    ``R`` is a dense (m, n) array with m much smaller than n and B is
    symmetric positive semidefinite, regularized as B + eps I with
    eps = 1e-12 trace(B)/dim.  The nonzero eigenvalues of the pencil are
    those of the m x m matrix R B^-1 R^T, so one symmetric sparse
    factorization of B and one dense symmetric eigen-solve give the answer
    directly.
    """
    lu = _factor_spd(_regularized(B))
    S = R @ lu.solve(R.T)
    return scipy.linalg.eigvalsh(0.5 * (S + S.T))[-1]


def _projector_basis(P, k):
    """An orthonormal basis (n, k) of the range of an orthogonal projector P
    of rank k that depends on P alone: the k columns J that QR with column
    pivoting picks, taken in ascending order, orthonormalized symmetrically
    as P[:, J] P[J, J]^(-1/2) (Loewdin)."""
    J = np.sort(scipy.linalg.qr(P, mode="r", pivoting=True)[1][:k])
    w, U = np.linalg.eigh(P[np.ix_(J, J)])
    return P[:, J] @ (U / np.sqrt(w)) @ U.T


def kernel_split(M, rel_tol):
    """Orthonormal bases ``(kernel, complement)`` of the numerical kernel of a
    dense matrix and of its orthogonal complement.

    Kernel columns v satisfy ||M v|| <= rel_tol * sigma_max * ||v||.  A
    singular value factorization gives the rank and the kernel projector P,
    and each basis is a function of its projector (P, or I - P) alone, so
    round-off in M that rotates the singular vectors inside a repeated or
    null singular value leaves both bases unchanged.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rel_tol * s.max(initial=0.0)))
    ncols = M.shape[1]
    P = vt[rank:].T @ vt[rank:]
    return _projector_basis(P, ncols - rank), _projector_basis(np.eye(ncols) - P, rank)
