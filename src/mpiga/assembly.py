"""Galerkin assembly for the biharmonic problem on multi-patch geometries.

Two discrete forms are assembled over element-wise Gauss quadrature:

* the conforming-in-spirit form (Delta phi, Delta psi) over the
  approximately C1 space, with no interface terms, and
* the symmetric interior penalty (Nitsche) form over the C0 space,
  which adds consistency terms coupling the normal-derivative jump with
  the Laplacian average and a penalty (eta/h) jump-jump term per
  interface.

Every form is assembled over the patch primitives of the space view
(tensor B-splines and edge functions, numbered in one range across
patches) and mapped to dofs once through the view's extraction matrices,
as E M E^T and E F.  The volume rule uses (p+2)^2 points per element and
interfaces use 2p+1 points per edge span; jumps are oriented as (higher
side) minus (lower side) with the interface normal taken outward from
the lower-indexed patch.
"""

import numpy as np
import scipy.sparse

from .bspline import _SLOT_U, _SLOT_V, gauss_legendre
from .c1space import ConstrainedC1Space, GridJets, PatchExtraction, PatchPrimitives
from .errors import ParameterError
from .geometry import EdgeFrame, SideMap, interface_frames, laplacian_rows, physical_jet, pullback
from .linalg import SparseSymMatrix, gram_pencil_max, solve_spd

__all__ = [
    "AssembledSystem",
    "C0Space",
    "ErrorReport",
    "NitscheForm",
    "assemble_approx_c1",
    "assemble_nitsche",
    "broken_gram",
    "error_norms",
    "estimate_stability_constant",
    "manufactured_jet",
    "manufactured_laplacian",
    "manufactured_rhs",
    "physical_jet",
    "stacked_error_norms",
]


# ---------------------------------------------------------------------------
# manufactured solution (cos(4 pi x) - 1)(cos(4 pi y) - 1)

_W = 4.0 * np.pi


def _cosfactors(s):
    c = np.cos(_W * s)
    sn = np.sin(_W * s)
    a0 = c - 1.0
    a1 = -_W * sn
    a2 = -_W ** 2 * c
    a3 = _W ** 3 * sn
    a4 = _W ** 4 * c
    return a0, a1, a2, a3, a4


def manufactured_jet(x, y):
    """Physical 2-jet (value, dx, dy, dxx, dxy, dyy) of the reference solution."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a0, a1, a2, _, _ = _cosfactors(x)
    b0, b1, b2, _, _ = _cosfactors(y)
    return np.stack(
        [a0 * b0, a1 * b0, a0 * b1, a2 * b0, a1 * b1, a0 * b2], axis=-1
    )


def manufactured_laplacian(x, y):
    a0, _, a2, _, _ = _cosfactors(np.asarray(x, dtype=float))
    b0, _, b2, _, _ = _cosfactors(np.asarray(y, dtype=float))
    return a2 * b0 + a0 * b2


def manufactured_rhs(x, y):
    """Bilaplacian of the reference solution."""
    a0, _, a2, _, a4 = _cosfactors(np.asarray(x, dtype=float))
    b0, _, b2, _, b4 = _cosfactors(np.asarray(y, dtype=float))
    return a4 * b0 + 2.0 * a2 * b2 + a0 * b4


def _at_points(fn, point):
    """``fn(x, y)`` on all points of an (..., 2) array at once, reshaped back."""
    x, y = point[..., 0].ravel(), point[..., 1].ravel()
    out = np.asarray(fn(x, y), dtype=float)
    if out.ndim == 0:
        out = np.full(x.shape, out)
    return out.reshape(point.shape[:-1] + out.shape[1:])


# ---------------------------------------------------------------------------
# C0 multi-patch space for the Nitsche discretization


class C0Space:
    """C0-coupled multi-patch tensor spline space with optional boundary conditions.

    Coefficients along interfaces are identified one-to-one (reversed
    when the interface reverses orientation).  'gl' edges eliminate the
    trace layer, 'gn' edges eliminate the first two layers; ``bc_tags``
    of None keeps every dof (used for the stability eigenproblem).  A tag
    on an edge that is not a boundary edge raises :class:`ParameterError`.
    """

    def __init__(self, topology, p, r, n, bc_tags=None):
        from .bspline import SplineSpace  # local to avoid cluttering module top

        if bc_tags is not None:
            topology.check_bc_tags(bc_tags)
        self.topology = topology
        self.p, self.r, self.n = p, r, n
        self.sol = SplineSpace(p, r, n)
        N = self.sol.dim

        # (patch, i, j) coefficients as flat indices k N^2 + i N + j
        index = np.arange(len(topology.patches) * N * N).reshape(-1, N, N)

        def side_line(k, side, layer):
            """Flat indices of the coefficient line at depth ``layer`` from a side."""
            return index[k][SideMap(side).elements_to_patch(layer, np.arange(N), N)]

        # interface coefficients identified pairwise; each class is named by
        # its smallest index, which is also where it first appears
        ends = [[np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]]
        for itf in topology.interfaces:
            line_l = side_line(itf.l, itf.side_l, 0)
            ends[0].append(side_line(itf.k, itf.side_k, 0))
            ends[1].append(line_l[::-1] if itf.reverse else line_l)
        a, b = map(np.concatenate, ends)
        # smallest-label propagation: every label stays a member of its
        # class and only decreases, so the fixed point is the class minimum
        root = index.ravel()
        while True:
            low = root.copy()
            np.minimum.at(low, a, root[b])
            np.minimum.at(low, b, root[a])
            low = low[low]
            if np.array_equal(low, root):
                break
            root = low

        eliminated = np.zeros(index.size, dtype=bool)
        if bc_tags is not None:
            for (k, side), tag in bc_tags.items():
                for layer in (0, 1) if tag == "gn" else (0,):
                    eliminated[root[side_line(k, side, layer)]] = True
        kept = (root == index.ravel()) & ~eliminated  # class representatives, in order
        ids = np.where(eliminated[root], -1, (np.cumsum(kept) - 1)[root])
        self.patch_fids = list(ids.reshape(index.shape))
        self.n_free = int(kept.sum())
        self.n_total = self.n_free
        self.primitives = PatchPrimitives(self.sol)
        self._tables = []
        for fids in self.patch_fids:
            cols = np.flatnonzero(fids.ravel() >= 0)
            unit = scipy.sparse.csr_matrix(
                (np.ones(len(cols)), (fids.ravel()[cols], cols)), shape=(self.n_total, N * N)
            )
            self._tables.append(PatchExtraction(self.primitives, unit, n))

    def element_table(self, patch_index):
        """The :class:`~mpiga.c1space.PatchExtraction` of one patch: unit
        rows over its tensor B-splines."""
        return self._tables[patch_index]


# ---------------------------------------------------------------------------
# generic element evaluation over a space view


class _Assembler:
    """Shared element machinery over a space view (C1 or C0).

    Forms are assembled over the primitives of all patches in one range:
    column c of patch k has id c plus the column count of the patches
    before it.  ``E`` (n_total,
    n_prims), the view's extraction matrices side by side, maps a
    primitive matrix M to dofs as E M E^T (:meth:`to_dofs`) and a
    primitive load F as E F.
    """

    def __init__(self, view, quad_scale=1):
        self.view = view
        self.sol, self.topology = view.sol, view.topology
        self.n = self.sol.n
        p = self.sol.p
        self.nq = quad_scale * (p + 2)
        self.nodes, self.weights = gauss_legendre(self.nq)
        self.edge_nq = quad_scale * (2 * p + 1)
        self.enodes, self.eweights = gauss_legendre(self.edge_nq)
        self.tables = [view.element_table(k) for k in range(len(self.topology.patches))]
        sizes = [ext.prims.n_cols for ext in self.tables]
        self.n_prims = sum(sizes)
        self.E = scipy.sparse.hstack([ext.matrix for ext in self.tables], format="csr")
        self.ids = []  # per patch, the id of every column some dof uses, -1 elsewhere
        for ext, offset in zip(self.tables, np.cumsum([0] + sizes[:-1])):
            ids = -np.ones(ext.prims.n_cols, dtype=int)
            used = np.unique(ext.matrix.indices)
            ids[used] = offset + used
            self.ids.append(ids)

    def to_dofs(self, M):
        """The dof matrix E M E^T of a primitive :class:`SparseSymMatrix`,
        with sorted indices; entries that sum to exactly zero are not
        stored."""
        A = self.E @ M.tocsr() @ self.E.T.tocsr()
        A.sort_indices()
        return SparseSymMatrix.from_sparse(A)

    def edge_table(self, patch_index, u_pts, v_pts):
        """The edge primitives some dof of one patch uses, on a tensor grid
        of points: a :class:`~mpiga.c1space.GridJets` with one unit row per
        column of the extraction's ``cols``, or None when there are none."""
        ext = self.tables[patch_index]
        if not len(ext.cols):
            return None
        return GridJets(ext.prims, ext.prims.selection(ext.cols), u_pts, v_pts)

    def cells(self, patch_index, eu, ev, u, v, op, edges):
        """Primitive ids and operator values on some cells of one patch.

        Cell c is the element (eu[c], ev[c]) with a tensor grid of points
        inside it.  ``u`` and ``v`` are the grid's point indices and their
        :meth:`~mpiga.bspline.SplineSpace.eval_many` tables (two
        derivatives) along each axis: one axis has indices (nc, mq) and
        tables (nc, mq, 3, p+1) per cell, the other (mq,) and (mq, 3, p+1)
        shared by every cell.  The indices number the points of ``edges``,
        the patch's :meth:`edge_table`.  ``op`` (nc, Q, m, 6) holds, at
        each of the Q = mu * mv points (u-major), m rows that act on a
        parametric 2-jet (value, du, dv, duu, duv, dvv), for example the
        :func:`~mpiga.geometry.laplacian_rows` or rows of the
        :func:`~mpiga.geometry.pullback` map, times a weight.
        Returns primitive ids (nc, nd) and values (nc, nd, m, Q), every row
        applied to every primitive's jet: the (p+1)^2 tensor window
        (u-major) first, with id -1 where no dof uses the column, then the
        edge primitives that reach the cell (``cells`` of the
        extraction), padded with -1.  Values of ids -1 are meaningless.

        No jet is formed: the rows are multiplied into the per-cell axis
        table first, and the shared axis table contracts the jet slots in
        one matrix product per shared point.  Edge primitives gather their
        jets on each cell they reach from the table
        (:meth:`~mpiga.c1space.GridJets.pairs`) and the rows are applied
        to them.
        """
        nc, N, p1, step = len(eu), self.sol.dim, self.sol.p + 1, self.sol.p - self.sol.r
        (u_idx, u_tab), (v_idx, v_tab) = u, v
        ext, prim_ids = self.tables[patch_index], self.ids[patch_index]
        wu, wv = ((e * step)[:, None] + np.arange(p1) for e in (eu, ev))
        ids = prim_ids[(wu * N)[:, :, None] + wv[:, None, :]].reshape(nc, p1 * p1)
        mu, mv, m = u_tab.shape[-3], v_tab.shape[-3], op.shape[2]
        grid_op = op.reshape(nc, mu, mv, m, 6)
        if u_tab.ndim == 3:  # u shared: (qu, slot, cell, qv, row, iv) -> (cell, iu, iv, row, qu, qv)
            shared, per_cell = u_tab[:, _SLOT_U], v_tab[:, :, _SLOT_V]
            grid_op, order = grid_op.transpose(1, 4, 0, 2, 3), (2, 1, 5, 4, 0, 3)
        else:  # v shared: (qv, slot, cell, qu, row, iu) -> (cell, iu, iv, row, qu, qv)
            shared, per_cell = v_tab[:, _SLOT_V], u_tab[:, :, _SLOT_U]
            grid_op, order = grid_op.transpose(2, 4, 0, 1, 3), (2, 5, 1, 4, 3, 0)
        factor = grid_op[..., None] * per_cell.transpose(2, 0, 1, 3)[:, :, :, None, :]
        vals = shared.swapaxes(1, 2) @ factor.reshape(factor.shape[:2] + (-1,))
        vals = vals.reshape(factor.shape[:1] + (p1,) + factor.shape[2:]).transpose(order)
        vals = vals.reshape(nc, p1 * p1, m, mu * mv)
        pad = len(ext.cols)
        pos = ext.cells[eu, ev]
        ne = int(np.count_nonzero(pos < pad, axis=1).max(initial=0))
        if not ne:
            return ids, vals
        pos = pos[:, :ne]
        hit = np.flatnonzero(pos[:, 0] < pad)
        cell, e = np.nonzero(pos[hit] < pad)
        u_win, v_win = (
            idx[hit[cell]] if idx.ndim == 2 else np.broadcast_to(idx, (len(cell), len(idx)))
            for idx in (u_idx, v_idx)
        )
        jets = np.zeros((len(hit), mu * mv, ne, 6))
        jets[cell, :, e] = edges.pairs(pos[hit[cell], e], u_win, v_win).reshape(len(cell), mu * mv, 6)
        # per hit cell and point, (primitive, slot) @ (slot, row), then
        # (hit cell, primitive, m, Q) with zeros at padding
        edge_vals = np.zeros((nc, ne, m, mu * mv))
        edge_vals[hit] = (jets @ op[hit].swapaxes(2, 3)).transpose(0, 2, 3, 1)
        edge_ids = np.append(prim_ids[ext.cols], -1)[pos]
        return np.concatenate([ids, edge_ids], axis=1), np.concatenate([vals, edge_vals], axis=1)

    # -- volume form ----------------------------------------------------

    def element_rows(self, patch_index, operator):
        """Operator values of the primitives of one patch, one element row at a time.

        The geometry jets of the patch's whole Gauss grid come from one
        :meth:`~mpiga.geometry.Patch.jet_grid` call, and each row reads its
        slice.  For the row of elements (eu, 0..n-1), ``operator(jac, hess,
        w, point)`` receives the geometry Jacobians (n, Q, 2, 2) and
        Hessians (n, Q, 2, 2, 2), the quadrature weights times det J (n, Q)
        and the quadrature points (n, Q, 2), with the Q = nq^2 points of an
        element ordered u-major, and returns operator rows (n, Q, m, 6)
        acting on parametric 2-jets.  Yields the primitive ids (n, nd) and
        values (n, nd, m, Q) of :meth:`cells` for them.
        """
        n, nq = self.n, self.nq
        Q = nq * nq
        pts = (np.arange(n)[:, None] + self.nodes).ravel() * self.sol.h
        _, tables = self.sol.eval_many(pts, 2)
        per_cell = np.arange(n * nq).reshape(n, nq), tables.reshape(n, nq, 3, -1)
        edges = self.edge_table(patch_index, pts, pts)
        geometry = self.topology.patches[patch_index].jet_grid(pts, pts)
        ev = np.arange(n)
        wq = np.outer(self.weights, self.weights).ravel() * self.sol.h ** 2
        for eu in range(n):
            row = per_cell[0][eu], per_cell[1][eu]
            # the row's nq x (n nq) slice of the grid, regrouped per element
            point, jac, hess = (
                a[row[0]].reshape(nq, n, nq, *a.shape[2:]).swapaxes(0, 1).reshape(n, Q, *a.shape[2:])
                for a in geometry
            )
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            op = operator(jac, hess, wq * det, point)
            yield self.cells(patch_index, np.full(n, eu), ev, row, per_cell, op, edges)

    def volume_system(self, f=None):
        """Stiffness (Delta, Delta) and load (f, psi) over all primitives.

        The element rows act with two operator rows per point: sqrt(w)
        times the :func:`~mpiga.geometry.laplacian_rows` for the stiffness,
        and w f on the value slot for the load (values are the same in
        parametric and physical jets).
        """
        def operator(jac, hess, w, point):
            lap = laplacian_rows(jac, hess) * np.sqrt(w)[..., None]
            if f is None:
                return lap[:, :, None]
            load = np.zeros_like(lap)
            load[..., 0] = w * _at_points(f, point)
            return np.stack([lap, load], axis=2)

        K = SparseSymMatrix(self.n_prims)
        F = np.zeros(self.n_prims)
        for k in range(len(self.topology.patches)):
            for ids, vals in self.element_rows(k, operator):
                lap = vals[:, :, 0]
                K.add_blocks(ids, lap @ lap.swapaxes(1, 2))
                if f is not None:
                    keep = ids >= 0
                    np.add.at(F, ids[keep], vals[:, :, 1].sum(axis=-1)[keep])
        return K, F

    # -- edge lines ----------------------------------------------------------

    def side_line(self, patch_index, side_map):
        """Primitives on a patch side and their physical jets along the whole side.

        The edge_nq Gauss points of span s of the side map's edge
        parameter lie in one patch element.  Returns ``(ids, phys, geom)``:
        primitive ids (n, nd) of :meth:`cells`, physical jets (n, nd, edge_nq, 6)
        at the points of each span in the order of the side map's
        parameter, and the :meth:`~mpiga.geometry.EdgeFrame.geom`
        quantities at all n * edge_nq points.  Jets of padded ids are
        meaningless and must be masked out.
        """
        n, nq = self.n, self.edge_nq
        frame = EdgeFrame(self.topology.patches[patch_index], side_map.side, side_map.t_flip)
        ts = (np.arange(n)[:, None] + self.enodes).ravel() * self.sol.h
        us, vs, axis = frame.line(ts)
        # each span's points along the side; the one point across it is shared
        grid = []
        for pts in (us, vs):
            _, tab = self.sol.eval_many(pts, 2)
            idx = np.arange(len(pts))
            grid.append((idx, tab) if len(pts) == 1 else (idx.reshape(n, nq), tab.reshape(n, nq, 3, -1)))
        eu, ev = np.broadcast_arrays(*side_map.elements_to_patch(0, np.arange(n), n))
        geom = frame.geom(ts)
        pull = pullback(geom["jac"].reshape(n, nq, 2, 2), geom["hess"].reshape(n, nq, 2, 2, 2))
        ids, phys = self.cells(patch_index, eu, ev, *grid, pull, self.edge_table(patch_index, us, vs))
        return ids, phys.swapaxes(2, 3), geom

    def boundary_moment_load(self, F, g2, bc_tags):
        """Add (g2, dn psi) over 'gl' boundary edges to a primitive load vector."""
        if g2 is None:
            return
        n, nq = self.n, self.edge_nq
        for (k, side), tag in bc_tags.items():
            if tag != "gl":
                continue
            ids, phys, g = self.side_line(k, SideMap(side, False))
            dn = np.einsum("sqc,saqc->saq", g["n_out"].reshape(n, nq, 2), phys[..., 1:3])
            w = np.tile(self.eweights, n) * self.sol.h * g["tau"]
            wg = (w * g2(g["point"][:, 0], g["point"][:, 1])).reshape(n, nq)
            keep = ids >= 0
            np.add.at(F, ids[keep], np.einsum("saq,sq->sa", dn, wg)[keep])

    # -- interface machinery ---------------------------------------------

    def interface_edge_rows(self, iface_index):
        """Normal-derivative jump and Laplacian average rows of an interface.

        Returns ``(ids, jump, avg, w)`` over the n edge spans: the
        primitives of both sides per span (n, nd), disjoint between the
        sides and padded with -1, their jump and average rows (n, nd,
        edge_nq), zero at padding, and the weights (n, edge_nq) including
        the arc-length factor.  The jump is (higher side) minus (lower
        side) of the normal derivative along the interface normal and the
        average is the mean Laplacian.
        """
        itf = self.topology.interfaces[iface_index]
        ids_k, phys_k, g = self.side_line(itf.k, SideMap(itf.side_k, False))
        ids_l, phys_l, _ = self.side_line(itf.l, SideMap(itf.side_l, itf.reverse))
        n, nq = self.n, self.edge_nq
        ids = np.concatenate([ids_k, ids_l], axis=1)
        phys = np.concatenate([phys_k, phys_l], axis=1)
        sign = np.repeat([-1.0, 1.0], [ids_k.shape[1], ids_l.shape[1]])
        jump = sign[:, None] * np.einsum("sqc,saqc->saq", g["n_out"].reshape(n, nq, 2), phys[..., 1:3])
        avg = 0.5 * (phys[..., 3] + phys[..., 5])
        jump[ids < 0] = avg[ids < 0] = 0.0
        w = self.eweights * self.sol.h * g["tau"].reshape(n, nq)
        return ids, jump, avg, w


class ErrorReport:
    """Broken-norm errors and per-interface normal-derivative jump norms."""

    def __init__(self, h, n_dofs, l2, h1, h2, jumps):
        self.h = h
        self.n_dofs = n_dofs
        self.l2 = l2
        self.h1 = h1
        self.h2 = h2
        self.jumps = list(jumps)

    @property
    def jump_max(self):
        return max(self.jumps) if self.jumps else 0.0

    def __repr__(self):
        return (
            f"ErrorReport(h={self.h:.4g}, dofs={self.n_dofs}, L2={self.l2:.3e}, "
            f"H1={self.h1:.3e}, H2={self.h2:.3e}, jump={self.jump_max:.3e})"
        )


class AssembledSystem:
    """Reduced linear system over the free dofs of a space view."""

    def __init__(self, view, matrix, load, method, eta=None, boundary_values=None):
        self.view = view
        self.matrix = matrix
        self.load = load
        self.method = method
        self.eta = eta
        self.boundary_values = boundary_values

    @property
    def n_free(self):
        return self.view.n_free

    def solve(self):
        """Free-dof solve; returns the full coefficient vector (free + boundary)."""
        x = solve_spd(self.matrix, self.load)
        if self.boundary_values is not None and len(self.boundary_values):
            return np.concatenate([x, self.boundary_values])
        return x

    def symmetry_gap(self):
        return self.matrix.symmetry_gap()


def _lift_boundary_data(asm, g0, g1, bc_tags):
    """Least-squares boundary coefficients matching (g0, g1) on the boundary."""
    view = asm.view
    nb = view.n_total - view.n_free
    if nb == 0:
        return np.zeros(0)
    if g0 is None and g1 is None:
        return np.zeros(nb)
    rows, targets = [], []
    ts = np.linspace(0.0, 1.0, 4 * (view.sol.dim + 2))
    for (k, side), tag in bc_tags.items():
        ext = asm.tables[k]
        frame = EdgeFrame(asm.topology.patches[k], side)
        A, g = ext.prims.constraint_rows(ext.matrix[view.n_free :], frame, ts, tag)
        rows.append(A)
        x, y = g["point"].T
        for data in (g0, g1) if tag == "gn" else (g0,):
            targets.append(np.zeros(len(ts)) if data is None else np.asarray(data(x, y)))
    A = np.vstack(rows)
    b = np.concatenate(targets)
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    return coeffs


def broken_gram(view, quad_scale=1):
    """Gram matrix of all view dofs in the broken H2 inner product."""
    asm = _Assembler(view, quad_scale)
    G = SparseSymMatrix(asm.n_prims)
    for k in range(len(asm.topology.patches)):
        rows = asm.element_rows(k, lambda jac, hess, w, _: pullback(jac, hess) * np.sqrt(w)[..., None, None])
        for ids, phys in rows:
            phys = phys.reshape(ids.shape + (-1,))
            G.add_blocks(ids, phys @ phys.swapaxes(1, 2))
    return asm.to_dofs(G)


def assemble_approx_c1(view, f, g2=None, bc_tags=None, g0=None, g1=None, quad_scale=1):
    """Assemble the interface-term-free form over the approximately C1 space.

    ``view`` is a :class:`~mpiga.c1space.ConstrainedC1Space`; ``bc_tags``
    defaults to the view's stored tags.  Inhomogeneous essential data
    (g0, g1) is lifted onto the boundary dofs by least squares.
    """
    if not isinstance(view, ConstrainedC1Space):
        raise ParameterError("assemble_approx_c1 expects a constrained C1 space view")
    bc_tags = view.bc if bc_tags is None else bc_tags
    asm = _Assembler(view, quad_scale)
    K, F = asm.volume_system(f)
    asm.boundary_moment_load(F, g2, bc_tags)
    Kc = asm.to_dofs(K).tocsr()
    nf = view.n_free
    bvals = _lift_boundary_data(asm, g0, g1, bc_tags)
    load = (asm.E @ F)[:nf]
    if len(bvals):
        load = load - Kc[:nf, nf:] @ bvals
    red = SparseSymMatrix.from_sparse(Kc[:nf, :nf])
    return AssembledSystem(view, red, load, "approx-c1", boundary_values=bvals)


class NitscheForm:
    """The eta-independent part of the symmetric interior penalty form.

    Assembles, over the primitives of the C0 space view, the volume
    stiffness plus the symmetric consistency blocks ({Lap u}, [dn v]) +
    ({Lap v}, [dn u]) of every interface edge span and maps their sum to
    dofs once as ``base``, and the load with the boundary moment term.
    Per interface it keeps the penalty ([dn u], [dn v]), with the jump
    orientation of :meth:`_Assembler.interface_edge_rows`, mapped to dofs
    the same way.  :meth:`system` adds the weighted penalties for one
    choice of the stability weights.
    """

    def __init__(self, view, f, g2=None, bc_tags=None, quad_scale=1):
        asm = _Assembler(view, quad_scale)
        self.view = view
        K, F = asm.volume_system(f)
        if bc_tags:
            asm.boundary_moment_load(F, g2, bc_tags)
        self.penalties = []
        for idx in range(len(view.topology.interfaces)):
            ids, jump, avg, w = asm.interface_edge_rows(idx)
            jw = jump * w[:, None, :]
            consistency = jw @ avg.swapaxes(1, 2)
            # integrating Lap^2 u * v by parts patch-wise leaves
            # +{Lap u}[dn v] with this jump orientation
            K.add_blocks(ids, consistency + consistency.swapaxes(1, 2))
            penalty = SparseSymMatrix(asm.n_prims)
            penalty.add_blocks(ids, jw @ jump.swapaxes(1, 2))
            self.penalties.append(asm.to_dofs(penalty).tocsr())
        self.base = asm.to_dofs(K).tocsr()
        self.load = asm.E @ F

    def system(self, eta):
        """The assembled system for the stability weights ``eta``.

        ``eta`` is a positive finite scalar applied to every interface or a
        mapping from interface index to the per-interface weight; the
        penalty term scales it by 1/h of the current mesh.  The matrix is
        base + sum_i (eta_i / h) P_i, so equal weights give a bit-identical
        matrix.
        """
        if eta is None:
            raise ParameterError("Nitsche assembly requires a stability parameter eta")
        if np.isscalar(eta):
            eta = {i: float(eta) for i in range(len(self.penalties))}
        if not all(np.isfinite(val) and val > 0.0 for val in eta.values()):
            raise ParameterError(f"stability parameters eta must be positive and finite, got {eta}")
        h = self.view.sol.h
        # the penalties couple interface dofs only: summed first, they meet
        # the whole base in one addition
        penalty = sum(eta[idx] / h * P for idx, P in enumerate(self.penalties))
        K = self.base + penalty if self.penalties else self.base
        return AssembledSystem(self.view, SparseSymMatrix.from_sparse(K), self.load, "nitsche", eta=eta)


def assemble_nitsche(view, f, g2=None, bc_tags=None, eta=None, g0=None, g1=None, quad_scale=1):
    """Assemble the symmetric interior penalty form over the C0 space.

    Per interface the form adds ({Lap u}, [dn v]) + ({Lap v}, [dn u]) +
    (eta/h) ([dn u], [dn v]) to the volume term; this is
    :class:`NitscheForm` followed by :meth:`NitscheForm.system`.
    """
    if g0 is not None or g1 is not None:
        raise ParameterError("inhomogeneous essential data is not supported for Nitsche runs")
    return NitscheForm(view, f, g2, bc_tags, quad_scale).system(eta)


def estimate_stability_constant(topology, iface_index, p, r, n):
    """Largest generalized eigenvalue bounding the interface Laplacian average.

    Assembles, over the two patches of the interface alone, the broken
    volume Gram matrix B of the Laplacian and the interface Gram matrix
    A = R^T R of the Laplacian average, where R stacks one row sqrt(w) avg
    per interface quadrature point, and returns the leading eigenvalue of
    the pencil (A, B) from the small dense matrix R B^-1 R^T.
    """
    space = C0Space(topology.interface_pair(iface_index), p, r, n, bc_tags=None)
    asm = _Assembler(space)
    B, _ = asm.volume_system(None)
    ids, _jump, avg, w = asm.interface_edge_rows(0)
    span, pos = np.nonzero(ids >= 0)
    R = np.zeros((asm.n * asm.edge_nq, asm.n_prims))
    R[span[:, None] * asm.edge_nq + np.arange(asm.edge_nq), ids[span, pos][:, None]] = (
        avg * np.sqrt(w)[:, None, :]
    )[span, pos]
    return gram_pencil_max((asm.E @ R.T).T, asm.to_dofs(B))


def error_norms(view, coeffs, exact_jet=None, quad_scale=1):
    """Broken L2/H1/H2 errors of a discrete function against an exact jet.

    ``coeffs`` is the full coefficient vector over the view's dofs;
    ``exact_jet(x, y)`` returns (..., 6) physical jets (None compares
    against zero).  Also returns the normal-derivative jump norm of the
    discrete function per interface.  This is :func:`stacked_error_norms`
    of a one-vector stack.
    """
    return stacked_error_norms(view, np.asarray(coeffs, dtype=float)[None], exact_jet, quad_scale)[0]


def _sums(x):
    """Sum over all but the first axis, each entry's block in C order.

    Numpy's summation order follows memory layout; summing C-ordered
    blocks of the same shape makes a function's norms independent of the
    stack it is in.
    """
    return np.ascontiguousarray(x).reshape(len(x), -1).sum(axis=1)


#: (function, quadrature point) pairs per band of element rows in the error norms
_BAND_SIZE = 2048


def stacked_error_norms(view, stack, exact_jet=None, quad_scale=1):
    """:func:`error_norms` of every row of an (m, dofs) coefficient stack.

    Each row is evaluated as one function per patch: its restriction to
    the patch's primitives (the row times the patch's extraction) is
    multiplied out from univariate tables (:class:`~mpiga.c1space.GridJets`),
    so no dof is evaluated on its own.  The geometry jets of a patch's
    whole Gauss grid come from one :meth:`~mpiga.geometry.Patch.jet_grid`
    call; each band of element rows slices them, and its w det J, pullback
    and exact jet are computed once for all m functions.  Jumps come from
    the same evaluator on each side of every interface line.  Every step
    treats the rows alone, so a function's report does not depend on the
    stack it is in.
    Returns one :class:`ErrorReport` per row.
    """
    asm = _Assembler(view, quad_scale)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != view.n_total:
        raise ParameterError(
            f"coefficient length {stack.shape[-1]} does not match dof count {view.n_total}"
        )
    n, nq, h = asm.n, asm.nq, asm.sol.h
    patches = asm.topology.patches
    combos = [(ext.prims, stack @ ext.matrix) for ext in asm.tables]
    pts = ((np.arange(n)[:, None] + asm.nodes) * h).ravel()
    wq = np.outer(np.tile(asm.weights, n), np.tile(asm.weights, n)) * h ** 2
    band = nq * max(1, _BAND_SIZE // (len(stack) * nq * len(pts)))  # u points per band
    acc = np.zeros((3, len(stack)))  # L2^2, H1-semi^2, H2-semi^2 per function
    for patch, (prims, rows) in zip(patches, combos):
        grid = GridJets(prims, rows, pts, pts)
        geometry = patch.jet_grid(pts, pts)
        for start in range(0, len(pts), band):
            sel = slice(start, start + band)
            point, jac, hess = (a[sel] for a in geometry)
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            w = wq[sel] * det
            err = physical_jet(grid.jets(sel), jac, hess)
            if exact_jet is not None:
                err -= _at_points(exact_jet, point)
            sq = err * err
            acc[0] += _sums(w * sq[..., 0])
            acc[1] += _sums(w * (sq[..., 1] + sq[..., 2]))
            acc[2] += _sums(w * (sq[..., 3] + sq[..., 4] + sq[..., 5]))
    jumps = []
    ts = ((np.arange(n)[:, None] + asm.enodes) * h).ravel()
    for itf in asm.topology.interfaces:
        dn = []  # normal derivative along the lower side's normal, per side
        for k, frame in zip((itf.k, itf.l), interface_frames(asm.topology, itf)):
            prims, rows = combos[k]
            phys, geom = prims.line_jets(rows, frame, ts)
            if k == itf.k:
                normal, w = geom["n_out"], np.tile(asm.eweights, n) * h * geom["tau"]
            dn.append(normal[:, 0] * phys[..., 1] + normal[:, 1] * phys[..., 2])
        jumps.append(np.sqrt(_sums(w * (dn[1] - dn[0]) ** 2)))
    l2 = np.sqrt(acc[0])
    h1 = np.sqrt(acc[0] + acc[1])
    h2 = np.sqrt(acc.sum(axis=0))
    return [
        ErrorReport(asm.sol.h, view.n_free, l2[i], h1[i], h2[i], [jm[i] for jm in jumps])
        for i in range(len(stack))
    ]
