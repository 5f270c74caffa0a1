"""Minimal numerical linear algebra for the solver: sparse symmetric storage,
one symmetric sparse factorization whose pivots witness definiteness (shared
by the SPD solve and the low-rank Gram pencil), and a rank-revealing kernel
split."""

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


class SparseSymMatrix:
    """Symmetric sparse matrix accumulated from stacks of dense element blocks.

    Each :meth:`add_blocks` call sums its stack's duplicates at once and
    keeps one triplet per distinct coupled (row, col) pair; :meth:`tocsr`
    merges those triplets into a compacted CSR matrix once and frees them.
    Assembly routines add full symmetric element blocks, so both triangles
    receive bit-identical contributions.
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = []
        self._cols = []
        self._vals = []
        self._csr = None  # the compacted matrix
        # triplet ids in scipy's index type for this size, so compaction converts none
        self._index = np.int32 if dim <= np.iinfo(np.int32).max else np.int64

    def add_blocks(self, ids, blocks):
        """Accumulate a stack of dense square blocks (nb, nd, nd) at the ids
        (nb, nd); entries whose row or column id is -1 are dropped.

        The stack is summed in stack order into one triplet per pair of
        ids that some block couples (:func:`sum_blocks`), kept even where
        the sum is 0.0, so the sparsity pattern is that of the blocks.
        """
        if self._csr is not None:
            raise ParameterError("blocks added to a compacted matrix")
        rows, cols, vals = sum_blocks(ids, blocks)
        self._rows.append(rows.astype(self._index))
        self._cols.append(cols.astype(self._index))
        self._vals.append(vals)

    @property
    def pending(self):
        """Number of triplets not yet merged into the compacted matrix."""
        return sum(len(v) for v in self._vals)

    @classmethod
    def from_sparse(cls, A):
        """Wrap an existing scipy sparse matrix as the compacted matrix;
        non-finite entries raise :class:`ParameterError`."""
        out = cls(A.shape[0])
        out._csr = _finite(scipy.sparse.csr_matrix(A))
        return out

    def tocsr(self):
        """The compacted CSR matrix; the triplets are merged into it and freed
        on the first call."""
        if self._csr is None:
            parts = self._rows, self._cols, self._vals
            for part, dtype in zip(parts, (self._index, self._index, float)):
                # merged one list at a time, so at most one array is held twice
                part[:] = [np.concatenate(part or [np.zeros(0, dtype)])]
            self._csr = _finite(scipy.sparse.csr_matrix(
                (self._vals[0], (self._rows[0], self._cols[0])), shape=(self.dim, self.dim)
            ))
            for part in parts:
                part.clear()
        return self._csr

    def todense(self):
        return self.tocsr().toarray()

    def symmetry_gap(self):
        """max|K - K^T| / max|K| (0 for exactly symmetric assembly)."""
        K = self.tocsr()
        gap = abs(K - K.T).max()
        scale = abs(K).max()
        return gap / scale if scale > 0 else 0.0


def _finite(csr):
    if not np.all(np.isfinite(csr.data)):
        raise ParameterError("non-finite entries in assembled matrix")
    return csr


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
