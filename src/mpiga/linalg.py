"""Minimal numerical linear algebra for the solver: sparse symmetric storage,
SPD solves, generalized eigen-extremes by power iteration, the leading
eigenvalue of a low-rank Gram pencil, and a rank-revealing kernel split."""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import IndefiniteSystemError, NumericalError, ParameterError

_DENSE_CUTOFF = 2600  # dense Cholesky below this size gives exact pivot-based SPD detection


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


def _jacobi_cg(K, b, tol=1e-12, maxiter=None):
    """Jacobi-preconditioned CG with negative-curvature detection."""
    n = len(b)
    maxiter = maxiter if maxiter is not None else 50 * n
    d = K.diagonal().copy()
    if np.any(d <= 0.0):
        raise IndefiniteSystemError("non-positive diagonal entry in CG preconditioner")
    x = np.zeros(n)
    r = b - K @ x
    z = r / d
    p = z.copy()
    rz = r @ z
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x
    for _ in range(maxiter):
        Kp = K @ p
        curv = p @ Kp
        if curv <= 0.0:
            raise IndefiniteSystemError("negative curvature encountered in CG")
        a = rz / curv
        x += a * p
        r -= a * Kp
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        z = r / d
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IndefiniteSystemError("CG stagnated before reaching tolerance")


def solve_spd(K, b, residual_tol=1e-10):
    """Solve K x = b for symmetric positive definite K.

    Small systems use a dense Cholesky factorization, whose failure is the
    exact non-positive-pivot witness; larger systems use a sparse LU solve
    with a residual check and a Jacobi-preconditioned CG fallback.  Raises
    :class:`IndefiniteSystemError` when K is detected not to be SPD.
    """
    b = np.asarray(b, dtype=float)
    A = _as_csr(K)
    n = A.shape[0]
    if b.shape[0] != n:
        raise ParameterError(f"rhs length {b.shape[0]} does not match matrix size {n}")
    if n <= _DENSE_CUTOFF:
        try:
            c = scipy.linalg.cho_factor(A.toarray(), check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise IndefiniteSystemError(f"dense Cholesky failed: {exc}") from exc
        x = scipy.linalg.cho_solve(c, b, check_finite=False)
    else:
        # partial pivoting permutes rows, so U-diagonal signs carry no inertia
        # information here; indefiniteness on this path surfaces through the
        # CG fallback's curvature test
        try:
            lu = scipy.sparse.linalg.splu(A.tocsc())
            x = lu.solve(b)
            x += lu.solve(b - A @ x)  # one step of iterative refinement
        except RuntimeError:
            x = _jacobi_cg(A, b)

    # backward-stable residual scale: |b| alone undersells ill-conditioned
    # but perfectly solvable systems (extreme penalty weights)
    def _scale(x):
        return max(np.linalg.norm(b), abs(A).max() * np.linalg.norm(x), 1e-300)

    res = np.linalg.norm(A @ x - b)
    if res > residual_tol * _scale(x):
        x = _jacobi_cg(A, b)
        res = np.linalg.norm(A @ x - b)
        if res > residual_tol * _scale(x):
            raise NumericalError(
                f"solver residual {res / _scale(x):.3e} above tolerance {residual_tol:.1e}"
            )
    return x


def _start_block(n, m):
    # deterministic, not aligned with coordinate axes
    i = np.arange(1, n + 1, dtype=float)[:, None]
    k = np.arange(1, m + 1, dtype=float)[None, :]
    V = np.sin(i * k) + 0.5 * np.cos(3.0 * i + k) + 1e-3 * i * k / n
    q, _ = np.linalg.qr(V)
    return q


def _block_power(op, A_mat, B_mat, n, which, tol, maxiter, block=6):
    """Subspace (block power) iteration on ``op``; returns the extreme Ritz pair.

    ``op`` maps an (n, m) block to its image; the Ritz values of the
    pencil (A, B) on the converged subspace give the extreme eigenvalue.
    A small block keeps clustered or symmetric-degenerate leading
    eigenvalues from stalling the iteration.
    """
    m = min(block, n)
    V = _start_block(n, m)
    history = []
    best = None  # (residual, lam, v)
    for it in range(maxiter):
        W = op(V)
        V, _ = np.linalg.qr(W)
        AV = A_mat @ V
        BV = B_mat @ V if B_mat is not None else V
        Ar = V.T @ AV
        Br = V.T @ BV
        try:
            ev, Y = scipy.linalg.eigh(Ar, Br)
        except scipy.linalg.LinAlgError:
            ev, Y = np.linalg.eigh(np.linalg.solve(Br, Ar))
        idx = -1 if which == "max" else 0
        lam = ev[idx]
        v = V @ Y[:, idx]
        v /= np.linalg.norm(v)
        Av = A_mat @ v
        Bv = B_mat @ v if B_mat is not None else v
        resid = np.linalg.norm(Av - lam * Bv) / max(np.linalg.norm(Av), 1e-300)
        if best is None or resid < best[0]:
            best = (resid, lam, v)
        if resid <= tol:
            return lam, v
        history.append(lam)
        # a regularized singular pencil floors the vector residual near the
        # solve noise; accept once the Ritz value itself has stabilized
        if it >= 80 and it % 20 == 0:
            window = np.asarray(history[-40:])
            spread = window.max() - window.min()
            if best[0] <= 1e-4 and spread <= 1e-6 * max(abs(lam), 1e-300):
                return best[1], best[2]
    raise NumericalError("power iteration did not converge")


def eigen_extreme(A, B=None, which="max", tol=1e-8, maxiter=10000):
    """Extreme eigenvalue of A x = lambda B x by (shifted/inverse) power iteration.

    A must be symmetric; B symmetric positive semidefinite (regularized
    internally as B + eps I with eps = 1e-12 trace(B)/dim) or None for the
    standard problem.  Returns ``(lam, vec)`` with the Rayleigh-quotient
    residual ||A v - lam B v|| <= tol ||A v||.  A small deterministic
    subspace is iterated so clustered extremes converge as well.
    """
    A = _as_csr(A)
    n = A.shape[0]
    if which not in ("max", "min"):
        raise ParameterError(f"which must be 'max' or 'min', got {which!r}")

    if B is not None:
        Breg = _regularized(B)
        lu = scipy.sparse.linalg.splu(Breg)
        if which == "min":
            raise ParameterError("generalized minimum mode is not supported")
        return _block_power(lambda V: lu.solve(A @ V), A, Breg.tocsr(), n, "max", tol, maxiter)

    if which == "max":
        return _block_power(lambda V: A @ V, A, None, n, "max", tol, maxiter)

    # minimum eigenvalue: inverse iteration targets the eigenvalue nearest zero,
    # with a spectral-shift fallback when the matrix is numerically singular
    try:
        lu = scipy.sparse.linalg.splu(A.tocsc())
        return _block_power(lambda V: lu.solve(V), A, None, n, "min", tol, maxiter)
    except RuntimeError:
        smax, _ = eigen_extreme(A, None, "max", tol, maxiter)
        shift = abs(smax) * 1.000001 + 1e-300
        S = (shift * scipy.sparse.identity(n, format="csr") - A).tocsr()
        mu, v = eigen_extreme(S, None, "max", tol, maxiter)
        return shift - mu, v


def gram_pencil_max(R, B):
    """Largest eigenvalue of A x = lambda B x for a low-rank Gram matrix A = R^T R.

    ``R`` is a dense (m, n) array with m much smaller than n and B is
    symmetric positive semidefinite, regularized as in
    :func:`eigen_extreme`.  The nonzero eigenvalues of the pencil are those
    of the m x m matrix R B^-1 R^T, so one sparse factorization of B and
    one dense symmetric eigen-solve give the answer directly.
    """
    lu = scipy.sparse.linalg.splu(_regularized(B))
    S = R @ lu.solve(R.T)
    return scipy.linalg.eigvalsh(0.5 * (S + S.T))[-1]


def kernel_split(M, rel_tol):
    """Orthonormal bases ``(kernel, complement)`` of the numerical kernel of a
    dense matrix and of its orthogonal complement.

    Kernel columns v satisfy ||M v|| <= rel_tol * sigma_max * ||v||; both
    bases come from one full singular value factorization.
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
    return vt[rank:].T, vt[:rank].T
