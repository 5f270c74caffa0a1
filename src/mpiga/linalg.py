"""Minimal numerical linear algebra for the solver: sparse symmetric storage,
one symmetric sparse factorization whose pivots witness definiteness (shared
by the SPD solve and the low-rank Gram pencil), and a rank-revealing kernel
split."""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import IndefiniteSystemError, NumericalError, ParameterError


class SparseSymMatrix:
    """Triplet-accumulated symmetric sparse matrix, compacted to CSR on demand.

    Assembly routines add full symmetric element blocks, so both triangles
    receive bit-identical contributions.
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = []
        self._cols = []
        self._vals = []
        self._csr = None

    def add_blocks(self, ids, blocks):
        """Accumulate a stack of dense square blocks (nb, nd, nd) at the ids
        (nb, nd); entries whose row or column id is -1 are dropped."""
        rows = np.broadcast_to(ids[:, :, None], blocks.shape)
        cols = np.broadcast_to(ids[:, None, :], blocks.shape)
        keep = (rows >= 0) & (cols >= 0)
        self._rows.append(rows[keep])
        self._cols.append(cols[keep])
        self._vals.append(blocks[keep])
        self._csr = None

    def copy(self):
        """A matrix holding the same triplets, open to further blocks.

        Triplet arrays are never modified in place, so the copy shares them.
        """
        out = SparseSymMatrix(self.dim)
        out._rows, out._cols, out._vals = list(self._rows), list(self._cols), list(self._vals)
        return out

    @classmethod
    def from_sparse(cls, A):
        """Wrap an existing scipy sparse matrix (kept as triplets)."""
        coo = scipy.sparse.coo_matrix(A)
        out = cls(coo.shape[0])
        out._rows.append(coo.row)
        out._cols.append(coo.col)
        out._vals.append(coo.data)
        return out

    def tocsr(self):
        if self._csr is None:
            if self._rows:
                rows = np.concatenate([np.atleast_1d(x) for x in self._rows])
                cols = np.concatenate([np.atleast_1d(x) for x in self._cols])
                vals = np.concatenate([np.atleast_1d(x) for x in self._vals])
            else:
                rows = cols = vals = np.zeros(0)
            self._csr = scipy.sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.dim, self.dim)
            )
            if not np.all(np.isfinite(self._csr.data)):
                raise ParameterError("non-finite entries in assembled matrix")
        return self._csr

    def todense(self):
        return self.tocsr().toarray()

    def symmetry_gap(self):
        """max|K - K^T| / max|K| (0 for exactly symmetric assembly)."""
        K = self.tocsr()
        gap = abs(K - K.T).max()
        scale = abs(K).max()
        return gap / scale if scale > 0 else 0.0


def _as_csr(K):
    if isinstance(K, SparseSymMatrix):
        return K.tocsr()
    return scipy.sparse.csr_matrix(K)


def _regularized(B):
    """B + eps I with eps = 1e-12 trace(B)/dim, as a CSC matrix."""
    Bc = _as_csr(B)
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
    """Solve K x = b for symmetric positive definite K.

    One symmetric sparse factorization serves every size; its pivot signs
    witness definiteness (:class:`IndefiniteSystemError` otherwise), and a
    backward error above ``residual_tol`` raises :class:`NumericalError`.
    """
    b = np.asarray(b, dtype=float)
    A = _as_csr(K)
    n = A.shape[0]
    if b.shape[0] != n:
        raise ParameterError(f"rhs length {b.shape[0]} does not match matrix size {n}")
    x = _factor_spd(A).solve(b)

    # backward-stable residual scale: |b| alone undersells ill-conditioned
    # but perfectly solvable systems (extreme penalty weights)
    scale = max(np.linalg.norm(b), abs(A).max() * np.linalg.norm(x), 1e-300)
    res = np.linalg.norm(A @ x - b)
    if res > residual_tol * scale:
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


def kernel_split(M, rel_tol):
    """Orthonormal bases ``(kernel, complement)`` of the numerical kernel of a
    dense matrix and of its orthogonal complement.

    Kernel columns v satisfy ||M v|| <= rel_tol * sigma_max * ||v||; both
    bases come from one full singular value factorization.  Singular
    vectors have arbitrary signs, so each column is signed to make its
    largest-magnitude entry (the first of equal ones) positive.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    ncols = M.shape[1]
    if smax == 0.0:
        return np.eye(ncols), np.zeros((ncols, 0))
    rank = int(np.sum(s > rel_tol * smax))
    lead = vt[np.arange(ncols), np.argmax(np.abs(vt), axis=1)]
    vt = vt * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    return vt[rank:].T, vt[:rank].T
