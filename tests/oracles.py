"""Independent reference implementations used as test oracles.

These deliberately avoid the library's algorithms: basis functions come
from the textbook two-term recursion, derivatives from its recursive
derivative identity, jets from central finite differences, and
eigenvalues from cyclic Jacobi rotations.  The per-point geometry jets
and the per-element volume loops at the end are the straightforward
forms of the library's batched kernels: one point pair, one element and
one tensor jet slot at a time, with edge and vertex functions from the
library's per-element evaluation.
"""

import numpy as np

from mpiga.assembly import _Assembler
from mpiga.bspline import JET_ORDERS, gauss_legendre
from mpiga.geometry import physical_jet


def naive_bspline(knots, p, i, x):
    """Cox-de Boor two-term recursion for a single basis function value."""
    if p == 0:
        last = knots[i + 1] == knots[-1]
        if knots[i] <= x < knots[i + 1] or (last and x == knots[i + 1] and knots[i] < knots[i + 1]):
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + p] - knots[i]
    if den > 0.0:
        left = (x - knots[i]) / den * naive_bspline(knots, p - 1, i, x)
    right = 0.0
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + p + 1] - x) / den * naive_bspline(knots, p - 1, i + 1, x)
    return left + right


def naive_bspline_deriv(knots, p, i, x, order):
    """Derivatives via the recursive derivative identity on naive values."""
    if order == 0:
        return naive_bspline(knots, p, i, x)
    if p == 0:
        return 0.0
    out = 0.0
    den = knots[i + p] - knots[i]
    if den > 0.0:
        out += p / den * naive_bspline_deriv(knots, p - 1, i, x, order - 1)
    den = knots[i + p + 1] - knots[i + 1]
    if den > 0.0:
        out -= p / den * naive_bspline_deriv(knots, p - 1, i + 1, x, order - 1)
    return out


def fd_gradient(f, x, y, step=1e-6):
    return (
        (f(x + step, y) - f(x - step, y)) / (2 * step),
        (f(x, y + step) - f(x, y - step)) / (2 * step),
    )


def fd_bilaplacian(f, x, y, step=1e-3):
    """Fourth-order finite-difference bilaplacian (Richardson-extrapolated
    nested 5-point Laplacians)."""

    def d4(s):
        def lap(xx, yy):
            return (
                f(xx + s, yy) + f(xx - s, yy) + f(xx, yy + s) + f(xx, yy - s)
                - 4.0 * f(xx, yy)
            ) / s ** 2

        return (
            lap(x + s, y) + lap(x - s, y) + lap(x, y + s) + lap(x, y - s) - 4.0 * lap(x, y)
        ) / s ** 2

    return (4.0 * d4(step / 2.0) - d4(step)) / 3.0


def jacobi_eigenvalues(A, sweeps=100, tol=1e-14):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(sum(A[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol * max(np.abs(np.diag(A)).max(), 1e-300):
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(A[i, j]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[i, j], A[j, j] - A[i, i])
                c, s = np.cos(theta), np.sin(theta)
                rows = A[[i, j], :].copy()
                A[i, :] = c * rows[0] - s * rows[1]
                A[j, :] = s * rows[0] + c * rows[1]
                cols = A[:, [i, j]].copy()
                A[:, i] = c * cols[:, 0] - s * cols[:, 1]
                A[:, j] = s * cols[:, 0] + c * cols[:, 1]
    return np.sort(np.diag(A))


def jacobi_generalized_max(A, B):
    """Largest eigenvalue of A x = lambda B x via Cholesky reduction + Jacobi."""
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, np.linalg.solve(L, np.asarray(A, dtype=float).T).T)
    return jacobi_eigenvalues(C)[-1]


def sampled_nullspace(columns_fn, n_cols, samples, rel_tol=1e-8):
    """Brute-force nullspace of a sampled constraint map (SVD on a tall matrix)."""
    M = np.column_stack([columns_fn(q) for q in range(n_cols)])
    _, s, vt = np.linalg.svd(M)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return np.eye(n_cols)
    rank = int(np.sum(s > rel_tol * smax))
    return vt[rank:].T


def per_point_jet_grid(patch, us, vs):
    """Geometry jets (point, jac, hess) on a tensor grid, one point pair at a time."""
    su, sv = patch.space.space_u, patch.space.space_v
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    fu, tu = su.eval_many(us, 2)
    fv, tv = sv.eval_many(vs, 2)
    nu, nv = len(us), len(vs)
    jets = np.zeros((nu, nv, 6, 2))
    for qu in range(nu):
        cw = patch.control[fu[qu] : fu[qu] + su.p + 1]
        partial = np.einsum("di,ijc->djc", tu[qu], cw)
        for qv in range(nv):
            pw = partial[:, fv[qv] : fv[qv] + sv.p + 1]
            for slot, (a, b) in enumerate(JET_ORDERS):
                jets[qu, qv, slot] = tv[qv][b] @ pw[a]
    point = jets[:, :, 0, :]
    jac = np.stack([jets[:, :, 1, :], jets[:, :, 2, :]], axis=-1)
    hess = np.empty((nu, nv, 2, 2, 2))
    hess[..., 0, 0] = jets[:, :, 3, :]
    hess[..., 0, 1] = jets[:, :, 4, :]
    hess[..., 1, 0] = jets[:, :, 4, :]
    hess[..., 1, 1] = jets[:, :, 5, :]
    return point, jac, hess


def _element_dof_jets(asm, k, elem, u_pts, v_pts):
    """Parametric jets of the dofs on one element: tensor window slot by
    slot, edge and vertex functions from the library's per-element path."""
    tensor_fids, others = asm.view.element_table(k)
    first_u, U = asm.sol.eval_many(u_pts, 2)
    first_v, V = asm.sol.eval_many(v_pts, 2)
    p1 = asm.sol.p + 1
    window = tensor_fids[first_u[0] : first_u[0] + p1, first_v[0] : first_v[0] + p1].ravel()
    tensor = np.empty((p1 * p1, len(u_pts), len(v_pts), 6))
    for slot, (a, b) in enumerate(JET_ORDERS):
        prod = np.einsum("qi,rj->ijqr", U[:, a, :], V[:, b, :])
        tensor[..., slot] = prod.reshape(p1 * p1, len(u_pts), len(v_pts))
    fids_o, jets_o = asm._other_jets(others, elem, u_pts, v_pts)
    keep = window >= 0
    return np.concatenate([window[keep], fids_o]).astype(int), np.concatenate([tensor[keep], jets_o])


def _per_element(asm):
    """Yields (ids, phys (nd, Q, 6), w (Q,), point (Q, 2)) per element."""
    h = asm.sol.h
    nodes, weights = gauss_legendre(asm.nq)
    wq = np.outer(weights, weights).ravel() * h * h
    for k, patch in enumerate(asm.topology.patches):
        for eu in range(asm.n):
            u_pts = (eu + nodes) * h
            for ev in range(asm.n):
                v_pts = (ev + nodes) * h
                ids, jets = _element_dof_jets(asm, k, (eu, ev), u_pts, v_pts)
                point, jac, hess = per_point_jet_grid(patch, u_pts, v_pts)
                det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
                Q = len(u_pts) * len(v_pts)
                phys = physical_jet(
                    jets.reshape(len(ids), Q, 6), jac.reshape(Q, 2, 2), hess.reshape(Q, 2, 2, 2)
                )
                yield ids, phys, wq * det.ravel(), point.reshape(Q, 2)


def per_element_reference(view, f, coeffs, exact_jets, quad_scale=1):
    """Dense stiffness K, load F and broken H2 Gram G of the view's dofs, and
    (L2, H1, H2, jumps) of ``coeffs`` against each of ``exact_jets`` (None
    compares against zero), summed one element at a time."""
    asm = _Assembler(view, quad_scale)
    K = np.zeros((view.n_total, view.n_total))
    F = np.zeros(view.n_total)
    G = np.zeros((view.n_total, view.n_total))
    acc = np.zeros((len(exact_jets), 3))
    for ids, phys, w, point in _per_element(asm):
        lap = phys[:, :, 3] + phys[:, :, 5]
        K[np.ix_(ids, ids)] += np.einsum("aq,q,bq->ab", lap, w, lap)
        F[ids] += phys[:, :, 0] @ (w * f(point[:, 0], point[:, 1]))
        G[np.ix_(ids, ids)] += np.einsum("aqs,q,bqs->ab", phys, w, phys)
        for row, exact in enumerate(exact_jets):
            err = np.einsum("a,aqs->qs", coeffs[ids], phys)
            if exact is not None:
                err = err - exact(point[:, 0], point[:, 1])
            acc[row, 0] += w @ err[:, 0] ** 2
            acc[row, 1] += w @ (err[:, 1] ** 2 + err[:, 2] ** 2)
            acc[row, 2] += w @ (err[:, 3] ** 2 + err[:, 4] ** 2 + err[:, 5] ** 2)
    jumps = []
    for idx in range(len(asm.topology.interfaces)):
        total = 0.0
        for fids, jump, _avg, w in asm.interface_edge_rows(idx):
            if len(fids) == 0:
                continue
            total += w @ (coeffs[fids] @ jump) ** 2
        jumps.append(np.sqrt(total))
    norms = [
        (np.sqrt(a[0]), np.sqrt(a[0] + a[1]), np.sqrt(a.sum()), jumps) for a in acc
    ]
    return K, F, G, norms
