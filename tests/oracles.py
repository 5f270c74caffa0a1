"""Independent reference implementations used as test oracles.

These deliberately avoid the library's algorithms: basis functions come
from the textbook two-term recursion, derivatives from its recursive
derivative identity, jets from central finite differences, and
eigenvalues from cyclic Jacobi rotations, and physical jets from the
closed-form chain rule.  The per-point geometry jets and the per-element
and per-span loops at the end are the straightforward forms of the
library's batched kernels: one point pair, one element or edge span and
one tensor jet slot at a time.  The window-gather geometry jets evaluate
each point from its own gathered control window, the reference for the
separable ``Patch.jet_grid``.  An approx-C1 dof is
evaluated from its sparse row over a patch's primitives: the row of the
global dof (``GlobalC1Space.patch_rows``), weighted through the
boundary-condition transform of a constrained view, summed one column at
a time.  Each column -- a tensor B-spline or a single edge function -- is
written out from its basis functions and gluing data, never through the
library's separable evaluator or its element extraction.  The vertex
layer's reference is its unbatched form: per (vertex, incident patch) pair
its 18 family columns read alone at the corner point and each 6 x 6 family
system solved alone, and per boundary vertex its boundary edges sampled in
their orientation away from the vertex.
"""

import numpy as np

from mpiga.bspline import JET_ORDERS, gauss_legendre
from mpiga.c1space import ConstrainedC1Space, constraint_rows
from mpiga.errors import GeometryError
from mpiga.geometry import _CORNER_FLIP, _CORNER_SIDES, _CORNER_UV, EdgeFrame, SideMap, physical_jet
from mpiga.linalg import kernel_split


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


def eval_geometry(patch, u, v):
    """Point, Jacobian and component Hessians of the geometry map at (u, v)."""
    point, jac, hess = patch.jet_at(u, v)
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0.0:
        raise GeometryError(f"non-positive Jacobian determinant {det:.3e} at ({u}, {v})")
    return point, jac, hess


def canonical_edge(patch, side, reverse=False):
    """Edge frame for a side, as if it were the u=0 side of the patch."""
    return EdgeFrame(patch, side, reverse)


def exact_normal_derivative(frame, d_trans, d_tang, ts):
    """Unit outward normal derivative from canonical-frame derivatives.

    ``d_trans`` and ``d_tang`` are the transversal and tangential
    parametric derivatives of the pulled-back function at edge points
    ``ts``.  Uses the frame's own outward normal, so the result is the
    physical derivative n . grad(phi) regardless of tangent speed.
    """
    g = frame.geom(ts)
    alpha = -g["tau"] * np.einsum("mc,mc->m", g["n_out"], g["d_in"])
    if np.abs(alpha).min() == 0.0:
        raise GeometryError("singular gluing data: alpha vanishes on the edge")
    beta = np.einsum("mc,mc->m", g["d_in"], g["t0"]) / g["tau"]
    return -(g["tau"] / alpha) * (np.asarray(d_trans) - beta * np.asarray(d_tang))


def closed_form_physical_jet(jets, jac, hess):
    """Physical 2-jets (value, dx, dy, dxx, dxy, dyy) from parametric ones by
    the chain rule written out slot by slot: the gradient solves
    J^T g = grad_uv and the Hessian is J^{-T} (H_uv - g_x H_x - g_y H_y) J^{-1}."""
    jets = np.asarray(jets, dtype=float)
    xu, xv = jac[..., 0, 0], jac[..., 0, 1]
    yu, yv = jac[..., 1, 0], jac[..., 1, 1]
    det = xu * yv - xv * yu
    fu, fv = jets[..., 1], jets[..., 2]
    gx = (yv * fu - yu * fv) / det
    gy = (xu * fv - xv * fu) / det
    muu = jets[..., 3] - gx * hess[..., 0, 0, 0] - gy * hess[..., 1, 0, 0]
    muv = jets[..., 4] - gx * hess[..., 0, 0, 1] - gy * hess[..., 1, 0, 1]
    mvv = jets[..., 5] - gx * hess[..., 0, 1, 1] - gy * hess[..., 1, 1, 1]
    p11, p12 = yv / det, -yu / det
    p21, p22 = -xv / det, xu / det
    out = np.empty(np.broadcast_shapes(jets.shape, det.shape + (6,)))
    out[..., 0] = jets[..., 0]
    out[..., 1] = gx
    out[..., 2] = gy
    out[..., 3] = p11 * p11 * muu + 2.0 * p11 * p12 * muv + p12 * p12 * mvv
    out[..., 4] = p11 * p21 * muu + (p11 * p22 + p12 * p21) * muv + p12 * p22 * mvv
    out[..., 5] = p21 * p21 * muu + 2.0 * p21 * p22 * muv + p22 * p22 * mvv
    return out


def _split_jets(jets):
    """(point, jac, hess) of geometry jets (nu, nv, 6, 2) in jet-slot order."""
    point = jets[:, :, 0, :]
    jac = np.stack([jets[:, :, 1, :], jets[:, :, 2, :]], axis=-1)
    hess = np.empty(jets.shape[:2] + (2, 2, 2))
    hess[..., 0, 0] = jets[:, :, 3, :]
    hess[..., 0, 1] = jets[:, :, 4, :]
    hess[..., 1, 0] = jets[:, :, 4, :]
    hess[..., 1, 1] = jets[:, :, 5, :]
    return point, jac, hess


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
    return _split_jets(jets)


def gather_jet_grid(patch, us, vs):
    """Geometry jets (point, jac, hess) on a tensor grid from per-point
    windows: the u-windows of all points are gathered from the control net
    and contracted, then the v-windows gathered from the partial sums and
    contracted once per jet slot."""
    su, sv = patch.space.space_u, patch.space.space_v
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    fu, tu = su.eval_many(us, 2)
    fv, tv = sv.eval_many(vs, 2)
    cu = patch.control[fu[:, None] + np.arange(su.p + 1)]  # (nu, pu+1, Nv, 2)
    partial = np.einsum("udi,uijc->udjc", tu, cu)  # (nu, 3, Nv, 2)
    pw = partial[:, :, fv[:, None] + np.arange(sv.p + 1)]  # (nu, 3, nv, pv+1, 2)
    jets = np.empty((len(us), len(vs), 6, 2))
    for slot, (a, b) in enumerate(JET_ORDERS):
        jets[:, :, slot, :] = np.einsum("uvjc,vj->uvc", pw[:, a], tv[:, b])
    return _split_jets(jets)


def edge_jet_to_patch(side_map, jet):
    """Reorder and sign (..., 6) jets from (sigma, t) to (u, v) derivatives."""
    gs = -1.0 if side_map.trans_flip else 1.0
    gt = -1.0 if side_map.t_flip else 1.0
    out = np.empty_like(jet)
    out[..., 0] = jet[..., 0]
    out[..., 4] = gs * gt * jet[..., 4]
    if side_map.trans_axis == 0:
        out[..., 1], out[..., 2] = gs * jet[..., 1], gt * jet[..., 2]
        out[..., 3], out[..., 5] = jet[..., 3], jet[..., 5]
    else:
        out[..., 1], out[..., 2] = gt * jet[..., 2], gs * jet[..., 1]
        out[..., 3], out[..., 5] = jet[..., 5], jet[..., 3]
    return out


def edge_function_jets(shape, kind, j, u_pts, v_pts):
    """Parametric jets (nu, nv, 6) of the single edge function ``j`` of one
    kind of an edge shape, written out from its basis functions and gluing
    data: T_j (b1 + b2) + beta T_j' (h/p) b2 for a trace function and
    alpha W_j (h/p) b2 for a transversal one."""
    u_pts = np.asarray(u_pts, dtype=float)
    v_pts = np.asarray(v_pts, dtype=float)
    smap = shape.map
    sig, ts = (u_pts, v_pts) if smap.trans_axis == 0 else (v_pts, u_pts)
    sig = 1.0 - sig if smap.trans_flip else sig
    ts = 1.0 - ts if smap.t_flip else ts
    b1, b2 = shape.sol.eval_columns([0, 1], sig, 2)
    nt = len(ts)
    if kind == "trace":
        A = shape.splus.eval_columns([j], ts, 3)[0]  # (nt, 4)
        g = shape.gluing.eval_beta(ts, 2)
        C = np.stack(
            [
                g[:, 0] * A[:, 1],
                g[:, 1] * A[:, 1] + g[:, 0] * A[:, 2],
                g[:, 2] * A[:, 1] + 2.0 * g[:, 1] * A[:, 2] + g[:, 0] * A[:, 3],
            ],
            axis=1,
        )
        Arow = A[:, :3]
    else:
        Wj = shape.sminus.eval_columns([j], ts, 2)[0]  # (nt, 3)
        g = shape.gluing.eval_alpha(ts, 2)
        C = np.stack(
            [
                g[:, 0] * Wj[:, 0],
                g[:, 1] * Wj[:, 0] + g[:, 0] * Wj[:, 1],
                g[:, 2] * Wj[:, 0] + 2.0 * g[:, 1] * Wj[:, 1] + g[:, 0] * Wj[:, 2],
            ],
            axis=1,
        )
        Arow = np.zeros((nt, 3))
    C = C * shape.scale
    st = np.empty((len(sig), nt, 6))
    for slot, a, b in ((0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 2, 0), (4, 1, 1), (5, 0, 2)):
        st[:, :, slot] = np.outer(b1[:, a] + b2[:, a], Arow[:, b]) + np.outer(b2[:, a], C[:, b])
    uv = edge_jet_to_patch(smap, st)
    return uv if smap.trans_axis == 0 else uv.transpose(1, 0, 2)


def primitive_jets(prims, cols, u_pts, v_pts):
    """Parametric jets (len(cols), nu, nv, 6) of patch primitive columns,
    one column at a time."""
    u_pts = np.atleast_1d(np.asarray(u_pts, dtype=float))
    v_pts = np.atleast_1d(np.asarray(v_pts, dtype=float))
    out = np.empty((len(cols), len(u_pts), len(v_pts), 6))
    starts = [first for _, first in prims.shapes] + [prims.n_cols]
    for i, col in enumerate(cols):
        if col < prims.N * prims.N:
            iu, iv = divmod(int(col), prims.N)
            U = prims.sol.eval_columns([iu], u_pts, 2)[0]
            V = prims.sol.eval_columns([iv], v_pts, 2)[0]
            for slot, (a, b) in enumerate(JET_ORDERS):
                out[i, :, :, slot] = np.outer(U[:, a], V[:, b])
            continue
        s = np.searchsorted(starts, col, side="right") - 1
        shape, first = prims.shapes[s]
        j = col - first
        kind = "trace" if j < shape.splus.dim else "transversal"
        if kind == "transversal":
            j -= shape.splus.dim
        out[i] = edge_function_jets(shape, kind, j, u_pts, v_pts)
    return out


def expand_reference(prims, W, u_pts, v_pts):
    """Jets (m, nu, nv, 6) of the combinations in the rows of a dense
    (m, n_cols) weight array: the weighted sum of every column's jets."""
    cols = np.flatnonzero(np.any(W != 0.0, axis=0))
    return np.tensordot(W[:, cols], primitive_jets(prims, cols, u_pts, v_pts), axes=1)


def row_jets(prims, row, u_pts, v_pts, memo=None):
    """Parametric jets (nu, nv, 6) of a sparse (1, n_cols) row of weights
    over a patch's primitives on a tensor grid, summed one column at a
    time.  ``memo`` caches the column jets of one grid by column."""
    memo = {} if memo is None else memo
    new = [col for col in row.indices if col not in memo]
    memo.update(zip(new, primitive_jets(prims, new, u_pts, v_pts)))
    out = np.zeros((len(u_pts), len(v_pts), 6))
    for col, w in zip(row.indices, row.data):
        out += w * memo[col]
    return out


def column_box(prims, col):
    """Inclusive element box (eu0, eu1, ev0, ev1) holding a primitive's support."""
    sol = prims.sol
    if col < prims.N * prims.N:
        iu, iv = divmod(int(col), prims.N)
        return sol.basis_support(iu) + sol.basis_support(iv)
    starts = [first for _, first in prims.shapes]
    shape, first = prims.shapes[np.searchsorted(starts, col, side="right") - 1]
    space, j = shape.splus, col - first
    if j >= shape.splus.dim:
        space, j = shape.sminus, j - shape.splus.dim
    t0, t1 = space.basis_support(j)
    # b1 + b2 and b2 vanish beyond two elements off the edge
    n = sol.n
    a = shape.map.elements_to_patch(0, t0, n)
    b = shape.map.elements_to_patch(min(1, n - 1), t1, n)
    return min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])


def row_box(prims, row):
    """Inclusive element box holding the support of a sparse row."""
    boxes = np.array([column_box(prims, col) for col in row.indices])
    return boxes[:, 0].min(), boxes[:, 1].max(), boxes[:, 2].min(), boxes[:, 3].max()


def view_rows(view, k):
    """Sparse (n_total, n_cols) rows of every dof of a constrained view on
    patch k: the boundary-condition transform applied to the global rows."""
    return (view.transform @ view.space.patch_rows[k]).tocsr()


class _Reference:
    """Dof jets of a space view one element (or edge span) at a time.

    C0 views evaluate the tensor window slot by slot; approx-C1 views
    evaluate every dof from its sparse row, column by column.
    """

    def __init__(self, view, quad_scale):
        self.view = view
        self.c1 = isinstance(view, ConstrainedC1Space)
        self.sol = view.space.sol if self.c1 else view.sol
        self.topology = view.space.topology if self.c1 else view.topology
        self.n, self.h, p = self.sol.n, self.sol.h, self.sol.p
        self.nq = quad_scale * (p + 2)
        self.edge_nq = quad_scale * (2 * p + 1)
        self.rows = {}  # patch -> [(fid, row, box)]
        if self.c1:
            for k, prims in enumerate(view.space.primitives):
                rows = view_rows(view, k)
                for fid in range(view.n_total):
                    if rows.indptr[fid + 1] > rows.indptr[fid]:
                        self.rows.setdefault(k, []).append((fid, rows[fid], row_box(prims, rows[fid])))

    def dof_jets(self, k, elem, u_pts, v_pts):
        """(ids, parametric jets (nd, nu, nv, 6)) of the dofs on one element."""
        if self.c1:
            memo = {}
            prims = self.view.space.primitives[k]
            ids, jets = [], []
            for fid, row, (a0, a1, b0, b1) in self.rows.get(k, ()):
                if a0 <= elem[0] <= a1 and b0 <= elem[1] <= b1:
                    ids.append(fid)
                    jets.append(row_jets(prims, row, u_pts, v_pts, memo))
            return np.asarray(ids, dtype=int), np.array(jets).reshape(-1, len(u_pts), len(v_pts), 6)
        first_u, U = self.sol.eval_many(u_pts, 2)
        first_v, V = self.sol.eval_many(v_pts, 2)
        p1 = self.sol.p + 1
        fids = self.view.patch_fids[k]
        window = fids[first_u[0] : first_u[0] + p1, first_v[0] : first_v[0] + p1].ravel()
        tensor = np.empty((p1 * p1, len(u_pts), len(v_pts), 6))
        for slot, (a, b) in enumerate(JET_ORDERS):
            prod = np.einsum("qi,rj->ijqr", U[:, a, :], V[:, b, :])
            tensor[..., slot] = prod.reshape(p1 * p1, len(u_pts), len(v_pts))
        keep = window >= 0
        return window[keep], tensor[keep]

    def elements(self):
        """Yields (ids, phys (nd, Q, 6), w (Q,), point (Q, 2)) per element."""
        nodes, weights = gauss_legendre(self.nq)
        wq = np.outer(weights, weights).ravel() * self.h * self.h
        for k, patch in enumerate(self.topology.patches):
            for eu in range(self.n):
                u_pts = (eu + nodes) * self.h
                for ev in range(self.n):
                    v_pts = (ev + nodes) * self.h
                    ids, jets = self.dof_jets(k, (eu, ev), u_pts, v_pts)
                    point, jac, hess = per_point_jet_grid(patch, u_pts, v_pts)
                    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
                    Q = len(u_pts) * len(v_pts)
                    phys = closed_form_physical_jet(
                        jets.reshape(len(ids), Q, 6), jac.reshape(Q, 2, 2), hess.reshape(Q, 2, 2, 2)
                    )
                    yield ids, phys, wq * det.ravel(), point.reshape(Q, 2)

    def span(self, k, side_map, et):
        """(ids, physical jets (nd, edge_nq, 6)) at the Gauss points of one
        edge span of a patch side, in the order of the side map's parameter."""
        nodes, _ = gauss_legendre(self.edge_nq)
        ts = (et + nodes) * self.h
        u, v = side_map.to_patch(np.zeros_like(ts), ts)
        grid = [u, v]
        axis = side_map.trans_axis
        grid[axis] = grid[axis][:1]
        ids, jets = self.dof_jets(k, side_map.elements_to_patch(0, et, self.n), *grid)
        patch = self.topology.patches[k]
        _, jac, hess = (np.take(a, 0, axis=axis) for a in per_point_jet_grid(patch, *grid))
        return ids, closed_form_physical_jet(np.take(jets, 0, axis=axis + 1), jac, hess)


def interface_rows_reference(view, quad_scale=1):
    """Per interface, dense (n_total, n * edge_nq) jump and average rows,
    the (n * edge_nq,) weights and the largest one-sided normal
    derivative, one edge span at a time.

    Jumps of approx-C1 dofs cancel one-sided normal derivatives down to
    the coupling error, so their rounding is relative to the last value.
    """
    ref = _Reference(view, quad_scale)
    nodes, weights = gauss_legendre(ref.edge_nq)
    out = []
    for itf in ref.topology.interfaces:
        m = ref.n * ref.edge_nq
        jump, avg = np.zeros((view.n_total, m)), np.zeros((view.n_total, m))
        frame = EdgeFrame(ref.topology.patches[itf.k], itf.side_k, False)
        ts = (np.arange(ref.n)[:, None] + nodes).ravel() * ref.h
        g = frame.geom(ts)
        side_max = 0.0
        for et in range(ref.n):
            cols = slice(et * ref.edge_nq, (et + 1) * ref.edge_nq)
            for k, side_map, sign in (
                (itf.k, SideMap(itf.side_k, False), -1.0),
                (itf.l, SideMap(itf.side_l, itf.reverse), 1.0),
            ):
                ids, phys = ref.span(k, side_map, et)
                dn = np.einsum("mc,amc->am", g["n_out"][cols], phys[:, :, 1:3])
                jump[ids, cols] += sign * dn
                avg[ids, cols] += 0.5 * (phys[:, :, 3] + phys[:, :, 5])
                side_max = max(side_max, np.abs(dn).max(initial=0.0))
        out.append((jump, avg, np.tile(weights, ref.n) * ref.h * g["tau"], side_max))
    return out


def boundary_load_reference(view, g2, bc_tags, quad_scale=1):
    """(g2, dn psi) over the 'gl' boundary edges, one edge span at a time."""
    ref = _Reference(view, quad_scale)
    nodes, weights = gauss_legendre(ref.edge_nq)
    F = np.zeros(view.n_total)
    for (k, side), tag in bc_tags.items():
        if tag != "gl":
            continue
        frame = EdgeFrame(ref.topology.patches[k], side, False)
        for et in range(ref.n):
            g = frame.geom((et + nodes) * ref.h)
            ids, phys = ref.span(k, frame.map, et)
            dn = np.einsum("mc,amc->am", g["n_out"], phys[:, :, 1:3])
            F[ids] += dn @ (weights * ref.h * g["tau"] * g2(g["point"][:, 0], g["point"][:, 1]))
    return F


def per_element_reference(view, f, coeffs, exact_jets, quad_scale=1):
    """Dense stiffness K, load F and broken H2 Gram G of the view's dofs, and
    (L2, H1, H2, jumps) of ``coeffs`` against each of ``exact_jets`` (None
    compares against zero), summed one element at a time."""
    ref = _Reference(view, quad_scale)
    K = np.zeros((view.n_total, view.n_total))
    F = np.zeros(view.n_total)
    G = np.zeros((view.n_total, view.n_total))
    acc = np.zeros((len(exact_jets), 3))
    for ids, phys, w, point in ref.elements():
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
    jumps = [
        np.sqrt(w @ (coeffs @ jump) ** 2)
        for jump, _avg, w, _side_max in interface_rows_reference(view, quad_scale)
    ]
    norms = [
        (np.sqrt(a[0]), np.sqrt(a[0] + a[1]), np.sqrt(a.sum()), jumps) for a in acc
    ]
    return K, F, G, norms


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def c0_numbering_reference(topology, N, bc_tags=None):
    """Per patch, the (N, N) dof ids of the C0 space, -1 where eliminated,
    numbered one coefficient at a time through a union-find: interface
    coefficients are joined pairwise, every class is named by its smallest
    (patch, i, j), and ids follow the first appearance of a kept class."""

    def side_line(side, layer):
        lines = SideMap(side).elements_to_patch(layer, np.arange(N), N)
        return list(zip(*(a.tolist() for a in np.broadcast_arrays(*lines))))

    uf = _UnionFind()
    for itf in topology.interfaces:
        line_k = side_line(itf.side_k, 0)
        line_l = side_line(itf.side_l, 0)
        if itf.reverse:
            line_l = line_l[::-1]
        for a, b in zip(line_k, line_l):
            uf.union((itf.k,) + a, (itf.l,) + b)
    eliminated = set()
    for (k, side), tag in (bc_tags or {}).items():
        for layer in (0, 1) if tag == "gn" else (0,):
            for ij in side_line(side, layer):
                eliminated.add(uf.find((k,) + ij))
    ids = {}
    patch_fids = []
    for k in range(len(topology.patches)):
        grid = -np.ones((N, N), dtype=int)
        for i in range(N):
            for j in range(N):
                root = uf.find((k, i, j))
                if root in eliminated:
                    continue
                if root not in ids:
                    ids[root] = len(ids)
                grid[i, j] = ids[root]
        patch_fids.append(grid)
    return patch_fids


def vertex_gids(space, vidx):
    """The six global vertex dofs of a vertex, in jet-slot order."""
    return [g for g, lab in enumerate(space.labels) if lab[:2] == ("vertex", vidx)]


def per_pair_vertex_rows(space):
    """Dense (6, n_cols) vertex rows of every (vertex, incident patch) pair
    of a built space, ``{(vertex, patch): rows}``, one pair at a time: the
    pair's 18 family columns (two edge families, then the corner family)
    evaluated at its corner alone, and each family's 6 x 6 system solved
    alone, combined as first edge + second edge - corner."""
    N = space.sol.dim
    out = {}
    for vidx, vertex in enumerate(space.topology.vertices):
        for k, corner in vertex.incident:
            bottom, left = space._corner_columns(k, corner)
            fu, fv = _CORNER_FLIP[corner]

            def ten(a, b):
                return (N - 1 - a if fu else a) * N + (N - 1 - b if fv else b)

            def edge_family(first, tensor):
                trace, trans = first["trace"], first["transversal"]
                return [trace, trace + 1, trace + 2, trans, trans + 1, tensor]

            cols = (edge_family(bottom, ten(0, 2)) + edge_family(left, ten(2, 0))
                    + [ten(0, 0), ten(0, 1), ten(0, 2), ten(1, 0), ten(1, 1), ten(2, 0)])
            u0, v0 = _CORNER_UV[corner]
            _, jac, hess = space.topology.patches[k].jet_at(u0, v0)
            prims = space.primitives[k]
            phys = physical_jet(prims.expand(prims.X[cols], [u0], [v0])[:, 0, 0], jac, hess)
            c0, c1, c2 = (np.linalg.solve(M, np.eye(6)) for M in phys.reshape(3, 6, 6).swapaxes(1, 2))
            rows = np.zeros((prims.n_cols, 6))
            np.add.at(rows, cols, np.concatenate([c0, c1, -c2]))
            out[(vidx, k)] = rows.T
    return out


def per_vertex_kernel(view, vidx):
    """Kernel basis (6, .) of the boundary constraints of one boundary
    vertex's six dofs, each of its boundary edges sampled alone on a frame
    running away from the vertex."""
    space, topo = view.space, view.space.topology
    gids = sorted(vertex_gids(space, vidx))
    ts = np.linspace(0.0, min(1.0, 3 * space.h), ConstrainedC1Space.EDGE_SAMPLES)
    rows = []
    for k, corner in topo.vertices[vidx].incident:
        for side, t_flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner]):
            if topo.is_boundary_edge(k, side):
                frame = EdgeFrame(topo.patches[k], side, t_flip)
                W = space.patch_rows[k][gids] @ space.primitives[k].X
                rows.append(constraint_rows(space.families, W, frame, ts, view.bc[(k, side)])[0])
    return kernel_split(np.vstack(rows), ConstrainedC1Space.KERNEL_TOL)[0]
