"""Univariate and tensor-product B-spline spaces on uniform open knot vectors.

A univariate space is determined by a degree ``p``, an inter-element
regularity ``r`` (all interior knots carry multiplicity ``p - r``) and a
number of elements ``n`` on the unit interval, so the mesh size is
``h = 1/n`` and the dimension is ``N = p + 1 + (p - r)(n - 1)``.

Coefficient vectors are plain numpy arrays of length ``space.dim`` indexed
like the basis.  Basis evaluation uses the Cox--de Boor recursion in the
derivative form of Piegl & Tiller (algorithm A2.3); evaluation at a knot
returns the right limit, except at ``x = 1`` where the left limit is used,
so functions are defined on the closed interval.
"""

import functools

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from .errors import DomainError, ParameterError

#: Derivative orders of a bivariate 2-jet, in evaluation order.
JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
#: Per jet slot, the derivative order in u and in v (rows of univariate tables).
_SLOT_U = [a for a, _ in JET_ORDERS]
_SLOT_V = [b for _, b in JET_ORDERS]


@functools.cache
def gauss_legendre(npts):
    """Gauss--Legendre nodes and weights on [0, 1], computed once per point
    count and shared by every caller, so both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class KnotVector:
    """Uniform open knot vector on [0, 1].

    Parameters
    ----------
    p : int
        Polynomial degree, ``p >= 1``.
    r : int
        Regularity at interior knots, ``0 <= r <= p - 1``.
    n : int
        Number of elements, ``n >= 1``.
    """

    def __init__(self, p, r, n):
        if p < 1 or r < 0 or r > p - 1 or n < 1:
            raise ParameterError(
                f"invalid B-spline parameters p={p}, r={r}, n={n}; "
                "need p >= 1, 0 <= r <= p-1, n >= 1"
            )
        self.p = p
        self.r = r
        self.n = n
        self.h = 1.0 / n
        self.dim = p + 1 + (p - r) * (n - 1)
        knots = [0.0] * (p + 1)
        for i in range(1, n):
            knots.extend([i * self.h] * (p - r))
        knots.extend([1.0] * (p + 1))
        self.knots = np.asarray(knots)

    def __repr__(self):
        return f"KnotVector(p={self.p}, r={self.r}, n={self.n})"

    def spans_of(self, xs):
        """Per point x, the span index i with knots[i] <= x < knots[i+1]
        (points on element boundaries go right; at x = 1 the last nonempty
        span).  Raises :class:`DomainError` outside [0, 1]."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise DomainError("evaluation points outside [0, 1]")
        elems = np.clip((xs * self.n).astype(int), 0, self.n - 1)
        return self.p + (self.p - self.r) * elems


def _basis_tables(knots, p, spans, xs, max_deriv):
    """Derivative tables of the p+1 active basis functions at many points.

    Vectorized divided-difference recursion (points along the leading
    axis); rows of order above p are zero.  Shape (m, max_deriv+1, p+1).
    """
    m = len(xs)
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    ndu = np.empty((m, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    for j in range(1, p + 1):
        left[:, j] = xs - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - xs
        saved = np.zeros(m)
        for rr in range(j):
            ndu[:, j, rr] = right[:, rr + 1] + left[:, j - rr]
            temp = ndu[:, rr, j - 1] / ndu[:, j, rr]
            ndu[:, rr, j] = saved + right[:, rr + 1] * temp
            saved = left[:, j - rr] * temp
        ndu[:, j, j] = saved

    nders = min(max_deriv, p)
    ders = np.zeros((m, max_deriv + 1, p + 1))
    ders[:, 0, :] = ndu[:, :, p]

    a = np.empty((m, 2, p + 1))
    for rr in range(p + 1):
        s1, s2 = 0, 1
        a[:, 0, 0] = 1.0
        for k in range(1, nders + 1):
            d = np.zeros(m)
            rk = rr - k
            pk = p - k
            if rr >= k:
                a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                d = a[:, s2, 0] * ndu[:, rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if rr - 1 <= pk else p - rr
            for j in range(j1, j2 + 1):
                a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                d += a[:, s2, j] * ndu[:, rk + j, pk]
            if rr <= pk:
                a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, rr]
                d += a[:, s2, k] * ndu[:, rr, pk]
            ders[:, k, rr] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, nders + 1):
        ders[:, k, :] *= fac
        fac *= p - k
    return ders


class SplineSpace:
    """Univariate spline space S(p, r, h) spanned by B-splines b_0 .. b_{N-1}."""

    _MEMO_SLOTS = 512  # evaluation-table cache entries (points repeat per element)

    def __init__(self, p, r, n):
        self.kv = KnotVector(p, r, n)
        self.p = p
        self.r = r
        self.n = n
        self.h = self.kv.h
        self.dim = self.kv.dim
        self._memo = {}

    def __repr__(self):
        return f"SplineSpace(p={self.p}, r={self.r}, n={self.n})"

    def eval_many(self, xs, max_deriv=0):
        """Nonzero basis values and derivatives at many points.

        Returns
        -------
        first : ndarray of shape (m,)
            Per point, the index of the first possibly-nonzero basis function.
        tables : ndarray of shape (m, max_deriv + 1, p + 1)
            Row k of a point's table holds the k-th derivatives of
            b_first .. b_{first+p}; all other basis functions vanish
            identically there.

        Results are memoized per point set; the returned arrays are
        read-only views into the cache.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        key = (xs.tobytes(), max_deriv)
        hit = self._memo.get(key)
        if hit is None:
            spans = self.kv.spans_of(xs)
            tables = _basis_tables(self.kv.knots, self.p, spans, xs, max_deriv)
            first = spans - self.p
            first.flags.writeable = False
            tables.flags.writeable = False
            if len(self._memo) >= self._MEMO_SLOTS:
                self._memo.clear()
            hit = self._memo[key] = (first, tables)
        return hit

    def eval_columns(self, js, xs, max_deriv=0):
        """Values/derivatives of the basis functions b_j, j in ``js``, at many
        points: shape (len(js), m, d+1), zero where b_j vanishes."""
        first, tables = self.eval_many(xs, max_deriv)
        col = np.asarray(js)[:, None] - first
        rows, pts = np.nonzero((col >= 0) & (col <= self.p))
        out = np.zeros((len(col), len(first), max_deriv + 1))
        out[rows, pts] = tables[pts, :, col[rows, pts]]
        return out

    def eval_spline(self, coeffs, xs, max_deriv=0):
        """Evaluate a spline with the given coefficient vector: shape (m, d+1)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ParameterError(
                f"coefficient length {coeffs.shape} does not match space dimension {self.dim}"
            )
        first, tables = self.eval_many(xs, max_deriv)
        windows = coeffs[first[:, None] + np.arange(self.p + 1)]
        return np.einsum("mdp,mp->md", tables, windows)

    def element_first_basis(self, e):
        """Index of the first basis function supported on element e."""
        return e * (self.p - self.r)

    def basis_support(self, i):
        """Inclusive element range (e0, e1) on which basis i is supported
        (elementwise for an array of indices)."""
        step = self.p - self.r
        e0 = np.maximum(0, -(-(np.asarray(i) - self.p) // step))  # ceil((i - p)/step)
        e1 = np.minimum(self.n - 1, np.asarray(i) // step)
        return e0, e1


def l2_project(space, f):
    """L2-orthogonal projection of scalar functions onto a spline space.

    The mass matrix is integrated with a per-element Gauss rule exact for
    degree-2p polynomials (p+1 points) and solved with a banded Cholesky
    factorization.

    Parameters
    ----------
    space : SplineSpace
    f : callable
        Vectorized function of the parameter, called once on all
        quadrature nodes; it returns one value per node, or a row of k
        values per node to project k functions at once.

    Returns
    -------
    ndarray
        Coefficient vector of length ``space.dim``, or (space.dim, k)
        coefficients, one column per function.
    """
    p, n, h = space.p, space.n, space.h
    xg, wg = gauss_legendre(p + 1)
    xs = ((np.arange(n)[:, None] + xg) * h).ravel()
    fx = np.asarray(f(xs), dtype=float)
    values = fx.reshape(n, p + 1, -1)
    # every node lies inside its element: per element, its p+1 basis functions
    vals = space.eval_many(xs, 0)[1][:, 0].reshape(n, p + 1, p + 1)
    w = wg * h
    emass = np.einsum("q,eqi,eqj->eij", w, vals, vals)
    eload = np.einsum("eqi,eqk->eik", vals, w[:, None] * values)
    idx = space.element_first_basis(np.arange(n))[:, None] + np.arange(p + 1)
    band = np.zeros((p + 1, space.dim))  # lower form for solveh_banded
    for d in range(p + 1):  # band[d, i0 + a] holds the element entries (a, a + d)
        np.add.at(band[d], idx[:, : p + 1 - d], np.diagonal(emass, d, axis1=1, axis2=2))
    rhs = np.zeros((space.dim, values.shape[-1]))
    np.add.at(rhs, idx, eload)
    try:
        coeffs = solveh_banded(band, rhs, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by construction
        raise ParameterError(f"singular mass matrix for {space}") from exc
    return coeffs[:, 0] if fx.ndim == 1 else coeffs


def interpolate(space, f):
    """Spline interpolation of scalar functions at the Greville abscissae
    of a space.

    ``f`` is called once on all dim abscissae and returns one value per
    point, or a row of k values per point to interpolate k functions at
    once.  The collocation matrix has bandwidth p on either side of its
    diagonal and is solved as a banded system.

    Returns
    -------
    ndarray
        Coefficient vector of length ``space.dim``, or (space.dim, k)
        coefficients, one column per function.
    """
    p, knots = space.p, space.kv.knots
    xs = np.array([knots[i + 1 : i + p + 1].mean() for i in range(space.dim)])
    first, tables = space.eval_many(xs, 0)
    rows = np.repeat(np.arange(space.dim), p + 1)
    cols = (first[:, None] + np.arange(p + 1)).ravel()
    band = np.zeros((2 * p + 1, space.dim))  # band[p + i - j, j] holds entry (i, j)
    band[p + rows - cols, cols] = tables[:, 0].ravel()
    return solve_banded((p, p), band, np.asarray(f(xs), dtype=float))


class TensorSplineSpace:
    """Tensor product of two univariate spline spaces on the unit square."""

    def __init__(self, space_u, space_v):
        self.space_u = space_u
        self.space_v = space_v
        self.dim = space_u.dim * space_v.dim

    def __repr__(self):
        return f"TensorSplineSpace({self.space_u!r}, {self.space_v!r})"

    def shape(self):
        return self.space_u.dim, self.space_v.dim
