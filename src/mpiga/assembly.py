"""Galerkin assembly for the biharmonic problem on multi-patch geometries.

Two discrete forms are assembled over element-wise Gauss quadrature:

* the conforming-in-spirit form (Delta phi, Delta psi) over the
  approximately C1 space, with no interface terms, and
* the symmetric interior penalty (Nitsche) form over the C0 space,
  which adds consistency terms coupling the normal-derivative jump with
  the Laplacian average and a penalty (eta/h) jump-jump term per
  interface.

Every form is assembled over the patch primitives of the space view
(the columns of its tensor families: tensor B-splines and, on an
approximately C1 view, the strip family of each patch side, numbered in
one range across patches) and mapped to dofs once through the view's
extraction matrix, as E M E^T and E F.  The volume rule uses (p+2)^2
points per element and interfaces use 2p+1 points per edge span; jumps
are oriented as (higher side) minus (lower side) with the interface
normal taken outward from the lower-indexed patch.
"""

import numpy as np
import scipy.sparse

from .bspline import _SLOT_U, _SLOT_V, gauss_legendre
from .c1space import ConstrainedC1Space, GridJets, TensorFamily, constraint_rows
from .errors import ParameterError
from .geometry import EdgeFrame, SideMap, laplacian_rows, physical_jet
from .linalg import gram_pencil_max, solve_spd, sum_blocks, triplets_to_csr

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
    "stability_constants",
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
    of None or {} keeps every dof (used for the stability eigenproblem),
    other tags must cover exactly the boundary edges, and ``bc`` keeps
    them for the forms over the view.
    ``E`` (n_total, patches x N^2) writes every dof over the tensor family
    (``families``) of each patch, with unit entries from ``patch_fids``.
    """

    def __init__(self, topology, p, r, n, bc_tags=None):
        from .bspline import SplineSpace  # local to avoid cluttering module top

        self.bc = dict(bc_tags or {})
        if self.bc:
            topology.check_bc_tags(self.bc)
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
        for (k, side), tag in self.bc.items():
            for layer in (0, 1) if tag == "gn" else (0,):
                eliminated[root[side_line(k, side, layer)]] = True
        kept = (root == index.ravel()) & ~eliminated  # class representatives, in order
        ids = np.where(eliminated[root], -1, (np.cumsum(kept) - 1)[root])
        self.patch_fids = list(ids.reshape(index.shape))
        self.n_free = int(kept.sum())
        self.n_total = self.n_free
        self.families = [TensorFamily(0, self.sol, self.sol)]
        cols = np.flatnonzero(ids >= 0)
        self.E = scipy.sparse.csr_matrix((np.ones(len(cols)), (ids[cols], cols)), shape=(self.n_total, ids.size))


# ---------------------------------------------------------------------------
# generic element evaluation over a space view

def _to_dofs(E, M):
    """E M E^T as a CSR matrix with sorted indices and no exact zeros."""
    A = E @ M @ E.T.tocsr()
    A.sort_indices()
    return A


#: (cell, primitive, quadrature point) entries per band of element rows in
#: the element kernels: a whole patch of an approx-C1 view at p=3, n=8
#: (64 cells x 26 primitives, the tensor window and two strip windows of a
#: corner cell, x 25 points); the kernels' temporaries grow with the band,
#: and larger bands raised the peak memory of C0 forms
_CELL_BAND_SIZE = 49152


class _Assembler:
    """Shared element machinery over a space view (C1 or C0).

    Forms are assembled over the primitives of all patches in one range,
    the columns of the view's extraction matrix ``E`` (n_total, n_prims):
    every patch has the view's ``families``, ``n_basis`` columns in all,
    and column c of patch k has id k n_basis + c, as int32, scipy's
    sparse index type, so that triplets merge without a copy.  ``E`` maps
    a primitive matrix M to dofs as E M E^T (:meth:`to_dofs`) and a
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
        self.pts = (np.arange(self.n)[:, None] + self.nodes).ravel() * self.sol.h  # Gauss grid, per axis
        self.E, self.families = view.E, view.families
        self.n_prims = self.E.shape[1]
        self.n_basis = self.n_prims // len(self.topology.patches)
        # per patch, the id of every column some dof uses, -1 elsewhere
        self.ids = np.full((len(self.topology.patches), self.n_basis), -1, dtype=np.int32)
        self.ids.flat[self.E.indices] = self.E.indices

    def to_dofs(self, triplets):
        """:func:`_to_dofs` of the sum of a list of triplets, which it empties."""
        return _to_dofs(self.E, triplets_to_csr(triplets, self.n_prims))

    def cells(self, patch_index, eu, ev, u, v, op):
        """Primitive ids and operator values on some cells of one patch.

        Cell c is the element (eu[c], ev[c]) with a tensor grid of points
        inside it.  ``u`` and ``v`` are (points, indices) per axis: the
        grid's points and, per cell, the indices of its points among them,
        (nc, mu) and (nc, mv); an index array that every cell shares may
        come in as a read-only ``np.broadcast_to`` view.  ``op`` (nc, Q,
        m, 6) holds, at each of the Q = mu * mv points (u-major), m rows
        that act on a parametric 2-jet (value, du, dv, duu, duv, dvv), for
        example the :func:`~mpiga.geometry.laplacian_rows` or rows of the
        :func:`~mpiga.geometry.physical_jet` of the unit jets, times a weight.
        Returns primitive ids (nc, nd) and values (nc, nd, m, Q), every row
        applied to every primitive's jet: per family of the patch that
        reaches the cell (:class:`~mpiga.c1space.TensorFamily`), its
        window, u-major, one after another; the (p+1)^2 tensor window
        comes first.  Ids are -1 where no dof uses the column and at the
        padding; their values are meaningless.

        No jet is formed: per family, the rows are multiplied into the v
        table first, and the u table contracts the jet slots in one matrix
        product per cell and u point, (wu, 6) @ (6, mv * m * wv) for
        windows of wu and wv factors.
        """
        nc, mu, mv, m = len(eu), u[1].shape[1], v[1].shape[1], op.shape[2]
        prim_ids = self.ids[patch_index]
        # per cell and u point: (slot, qv, row) of the operator
        grid_op = op.reshape(nc, mu, mv, m, 6).transpose(0, 1, 4, 2, 3)[..., None]
        windows = [fam.windows(eu, ev, u, v) for fam in self.families if fam.reach[eu, ev].any()]
        # each cell holds the windows of the families that reach it, one after another
        start, end = [], np.zeros(nc, dtype=int)
        for hit, cols, _, _ in windows:
            start.append(end[hit])
            end[hit] += cols.shape[1]
        ids = np.full((nc, end.max()), -1, dtype=prim_ids.dtype)
        vals = np.zeros((nc, end.max(), m, mu, mv))
        for (hit, cols, u_tab, v_tab), first in zip(windows, start):
            nh, wu, wv = len(hit), u_tab.shape[3], v_tab.shape[3]
            slots = first[:, None] + np.arange(wu * wv)
            ids[hit[:, None], slots] = prim_ids[cols]
            v_slots = v_tab[:, :, _SLOT_V].transpose(0, 2, 1, 3)[:, None, :, :, None, :]
            prod = u_tab[:, :, _SLOT_U].swapaxes(2, 3) @ (grid_op[hit] * v_slots).reshape(nh, mu, 6, -1)
            # (cell, u point, iu, v point, row, iv) to (cell, iu, iv, row, u point, v point)
            vals[hit[:, None, None], slots.reshape(nh, wu, wv)] = (
                prod.reshape(nh, mu, wu, mv, m, wv).transpose(0, 2, 5, 4, 1, 3)
            )
        return ids, vals.reshape(nc, -1, m, mu * mv)

    # -- volume form ----------------------------------------------------

    def bands(self, patch_index):
        """The geometry of one patch's Gauss grid, one band of element rows
        at a time.

        The grid has nq points per element and axis (:attr:`pts` on both
        axes), and its geometry jets come from one
        :meth:`~mpiga.geometry.Patch.jet_grid` call.  A band is the cells
        (eu, 0..n-1) of consecutive element rows eu, as many rows as keep
        the volume form's (cell, primitive, point) entries within
        :data:`_CELL_BAND_SIZE` (at least one row), so the bands depend on
        the view alone.  Yields per band the slice of its u points and, on
        the band's (u points, v points) grid, the quadrature points
        (nu, nv, 2), geometry Jacobians (nu, nv, 2, 2) and Hessians
        (nu, nv, 2, 2, 2), and the quadrature weights times det J (nu, nv).
        """
        n, nq = self.n, self.nq
        geometry = self.topology.patches[patch_index].jet_grid(self.pts, self.pts)
        wq = np.outer(np.tile(self.weights, n), np.tile(self.weights, n)) * self.sol.h ** 2
        # the widest cell: the windows of every family that reaches it
        nd = sum(fam.width * fam.reach for fam in self.families).max()
        rows = max(1, _CELL_BAND_SIZE // (n * nd * nq * nq))
        for start in range(0, n, rows):
            sel = slice(start * nq, min(start + rows, n) * nq)
            point, jac, hess = (a[sel] for a in geometry)
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            yield sel, point, jac, hess, wq[sel] * det

    def element_rows(self, patch_index, operator):
        """Operator values of the primitives of one patch, one band of
        :meth:`bands` at a time.

        For the nc cells of a band, u-major, ``operator(jac, hess, w,
        point)`` receives the band's geometry regrouped per element: the
        Jacobians (nc, Q, 2, 2) and Hessians (nc, Q, 2, 2, 2), the
        quadrature weights times det J (nc, Q) and the quadrature points
        (nc, Q, 2), with the Q = nq^2 points of an element ordered u-major,
        and returns operator rows (nc, Q, m, 6) acting on parametric
        2-jets.  Yields the primitive ids (nc, nd) and values (nc, nd, m,
        Q) of :meth:`cells` for them.
        """
        n, nq = self.n, self.nq
        idx = np.arange(n * nq).reshape(n, nq)
        for sel, *geometry in self.bands(patch_index):
            nb = (sel.stop - sel.start) // nq
            eu, ev = np.divmod(np.arange(sel.start // nq * n, sel.stop // nq * n), n)
            # the band's (nb nq) x (n nq) grid, regrouped per element
            point, jac, hess, w = (
                a.reshape(nb, nq, n, nq, *a.shape[2:]).swapaxes(1, 2).reshape(nb * n, nq * nq, *a.shape[2:])
                for a in geometry
            )
            op = operator(jac, hess, w, point)
            del geometry, point, jac, hess, w  # the band's geometry, before its cells are computed
            yield self.cells(patch_index, eu, ev, (self.pts, idx[eu]), (self.pts, idx[ev]), op)
            del op  # before the next band is computed

    def volume_system(self, f=None):
        """Stiffness (Delta, Delta) and load (f, psi) over all primitives:
        the stiffness as a list of :func:`~mpiga.linalg.sum_blocks`
        triplets, one per band, and the load as a vector.

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

        K = []
        F = np.zeros(self.n_prims)
        for k in range(len(self.topology.patches)):
            for ids, vals in self.element_rows(k, operator):
                lap = vals[:, :, 0]
                K.append(sum_blocks(ids, lap @ lap.swapaxes(1, 2)))
                if f is not None:
                    keep = ids >= 0
                    np.add.at(F, ids[keep], vals[:, :, 1].sum(axis=-1)[keep])
                del ids, vals, lap  # before the next band is computed
        return K, F

    # -- edge lines ----------------------------------------------------------

    def side_line(self, patch_index, side_map, normal=None):
        """Primitives on a patch side and their normal derivative and
        Laplacian along the whole side.

        The edge_nq Gauss points of span s of the side map's edge
        parameter lie in one patch element.  Returns ``(ids, rows, geom)``:
        primitive ids (n, nd) of :meth:`cells`, rows (n, nd, 2, edge_nq)
        of the derivative along ``normal`` (n * edge_nq, 2), by default
        the side's outward normal, and of the Laplacian at the points of
        each span in the order of the side map's parameter, and the
        :meth:`~mpiga.geometry.EdgeFrame.geom` quantities at all
        n * edge_nq points.  Rows of padded ids are meaningless and must
        be masked out.
        """
        n, nq = self.n, self.edge_nq
        frame = EdgeFrame(self.topology.patches[patch_index], side_map.side, side_map.t_flip)
        ts = (np.arange(n)[:, None] + self.enodes).ravel() * self.sol.h
        us, vs, axis = frame.line(ts)
        # each span's points along the side; every span shares the one point across it
        grid = [
            (pts, np.broadcast_to(0, (n, 1)) if len(pts) == 1 else np.arange(n * nq).reshape(n, nq))
            for pts in (us, vs)
        ]
        eu, ev = np.broadcast_arrays(*side_map.elements_to_patch(0, np.arange(n), n))
        geom = frame.geom(ts)
        normal = geom["n_out"] if normal is None else normal
        unit = physical_jet(np.eye(6)[:, None], geom["jac"], geom["hess"])  # (slot, point, physical slot)
        op = np.stack([np.einsum("qc,sqc->qs", normal, unit[..., 1:3]), (unit[..., 3] + unit[..., 5]).T], axis=1)
        ids, vals = self.cells(patch_index, eu, ev, *grid, op.reshape(n, nq, 2, 6))
        return ids, vals, geom

    def boundary_moment_load(self, F, g2, bc_tags):
        """Add (g2, dn psi) over 'gl' boundary edges to a primitive load vector."""
        if g2 is None:
            return
        n, nq = self.n, self.edge_nq
        for (k, side), tag in bc_tags.items():
            if tag != "gl":
                continue
            ids, rows, g = self.side_line(k, SideMap(side, False))
            w = np.tile(self.eweights, n) * self.sol.h * g["tau"]
            wg = (w * g2(g["point"][:, 0], g["point"][:, 1])).reshape(n, nq)
            keep = ids >= 0
            np.add.at(F, ids[keep], np.einsum("saq,sq->sa", rows[:, :, 0], wg)[keep])

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
        ids_k, rows_k, g = self.side_line(itf.k, SideMap(itf.side_k, False))
        ids_l, rows_l, _ = self.side_line(itf.l, SideMap(itf.side_l, itf.reverse), g["n_out"])
        ids = np.concatenate([ids_k, ids_l], axis=1)
        rows = np.concatenate([rows_k, rows_l], axis=1)
        sign = np.repeat([-1.0, 1.0], [ids_k.shape[1], ids_l.shape[1]])
        jump = sign[:, None] * rows[:, :, 0]
        avg = 0.5 * rows[:, :, 1]
        jump[ids < 0] = avg[ids < 0] = 0.0
        w = self.eweights * self.sol.h * g["tau"].reshape(self.n, self.edge_nq)
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
    """Reduced linear system over the free dofs of a space view; ``matrix``
    is a scipy CSR matrix with sorted indices."""

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
        """max|K - K^T| / max|K| (0 for exactly symmetric assembly)."""
        K = self.matrix
        scale = abs(K).max()
        return abs(K - K.T).max() / scale if scale > 0 else 0.0


def _view_tags(view, bc_tags):
    """The view's boundary tags ``bc``, which a ``bc_tags`` argument must repeat."""
    if bc_tags is not None and dict(bc_tags) != view.bc:
        raise ParameterError(f"bc_tags {bc_tags} differ from the tags the view was built with, {view.bc}")
    return view.bc


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
    E, nb = view.E[view.n_free :], asm.n_basis
    for (k, side), tag in bc_tags.items():
        frame = EdgeFrame(asm.topology.patches[k], side)
        A, g = constraint_rows(view.families, E[:, k * nb : (k + 1) * nb], frame, ts, tag)
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
    G = []

    def operator(jac, hess, w, _):  # row i, slot j: slot i of the physical jet of unit jet j
        return np.moveaxis(physical_jet(np.eye(6)[:, None, None], jac, hess), 0, -1) * np.sqrt(w)[..., None, None]

    for k in range(len(asm.topology.patches)):
        for ids, phys in asm.element_rows(k, operator):
            phys = phys.reshape(ids.shape + (-1,))
            G.append(sum_blocks(ids, phys @ phys.swapaxes(1, 2)))
            del ids, phys  # before the next band is computed
    return asm.to_dofs(G)


def assemble_approx_c1(view, f, g2=None, bc_tags=None, g0=None, g1=None, quad_scale=1):
    """Assemble the interface-term-free form over the approximately C1 space.

    ``view`` is a :class:`~mpiga.c1space.ConstrainedC1Space`, whose tags
    ``bc`` a ``bc_tags`` argument must repeat.  Inhomogeneous essential
    data (g0, g1) is lifted onto the boundary dofs by least squares.
    """
    if not isinstance(view, ConstrainedC1Space):
        raise ParameterError("assemble_approx_c1 expects a constrained C1 space view")
    bc_tags = _view_tags(view, bc_tags)
    asm = _Assembler(view, quad_scale)
    K, F = asm.volume_system(f)
    asm.boundary_moment_load(F, g2, bc_tags)
    Kc = asm.to_dofs(K)
    nf = view.n_free
    bvals = _lift_boundary_data(asm, g0, g1, bc_tags)
    load = (asm.E @ F)[:nf]
    if len(bvals):
        load = load - Kc[:nf, nf:] @ bvals
    return AssembledSystem(view, Kc[:nf, :nf], load, "approx-c1", boundary_values=bvals)


class NitscheForm:
    """The eta-independent part of the symmetric interior penalty form.

    Assembles, over the primitives of the C0 space view, the volume
    stiffness plus the symmetric consistency blocks ({Lap u}, [dn v]) +
    ({Lap v}, [dn u]) of every interface edge span and maps their sum to
    dofs once as ``base``, and the load with the boundary moment term.
    Per interface it keeps the penalty ([dn u], [dn v]), with the jump
    orientation of :meth:`_Assembler.interface_edge_rows`, mapped to dofs
    the same way.  :meth:`system` adds the weighted penalties for one
    choice of the stability weights.  The moment load covers the view's
    'gl' edges (``bc``), which a ``bc_tags`` argument must repeat.
    """

    def __init__(self, view, f, g2=None, bc_tags=None, quad_scale=1):
        bc_tags = _view_tags(view, bc_tags)
        asm = _Assembler(view, quad_scale)
        self.view = view
        K, F = asm.volume_system(f)
        asm.boundary_moment_load(F, g2, bc_tags)
        self.penalties = []
        for idx in range(len(view.topology.interfaces)):
            ids, jump, avg, w = asm.interface_edge_rows(idx)
            jw = jump * w[:, None, :]
            consistency = jw @ avg.swapaxes(1, 2)
            # integrating Lap^2 u * v by parts patch-wise leaves
            # +{Lap u}[dn v] with this jump orientation
            K.append(sum_blocks(ids, consistency + consistency.swapaxes(1, 2)))
            self.penalties.append(asm.to_dofs([sum_blocks(ids, jw @ jump.swapaxes(1, 2))]))
        self.base = asm.to_dofs(K)
        self.load = asm.E @ F

    def system(self, eta):
        """The assembled system for the stability weights ``eta``.

        ``eta`` is a positive finite scalar applied to every interface or a
        mapping from each interface index to its weight, with no other
        keys; the penalty term scales it by 1/h of the current mesh.  The
        matrix is base + sum_i (eta_i / h) P_i, so equal weights give a
        bit-identical matrix.
        """
        if eta is None:
            raise ParameterError("Nitsche assembly requires a stability parameter eta")
        indices = range(len(self.penalties))
        if np.isscalar(eta):
            eta = {i: float(eta) for i in indices}
        missing, stray = [i for i in indices if i not in eta], [i for i in eta if i not in indices]
        if missing or stray:
            raise ParameterError(f"eta must map exactly the interfaces {indices}: missing {missing}, stray {stray}")
        if not all(np.isfinite(val) and val > 0.0 for val in eta.values()):
            raise ParameterError(f"stability parameters eta must be positive and finite, got {eta}")
        h = self.view.sol.h
        # the penalties couple interface dofs only: summed first, they meet
        # the whole base in one addition
        penalty = sum(eta[idx] / h * P for idx, P in enumerate(self.penalties))
        K = self.base + penalty if self.penalties else self.base
        return AssembledSystem(self.view, K, self.load, "nitsche", eta=eta)


def assemble_nitsche(view, f, g2=None, bc_tags=None, eta=None, g0=None, g1=None, quad_scale=1):
    """Assemble the symmetric interior penalty form over the C0 space.

    Per interface the form adds ({Lap u}, [dn v]) + ({Lap v}, [dn u]) +
    (eta/h) ([dn u], [dn v]) to the volume term; this is
    :class:`NitscheForm` followed by :meth:`NitscheForm.system`.
    """
    if g0 is not None or g1 is not None:
        raise ParameterError("inhomogeneous essential data is not supported for Nitsche runs")
    return NitscheForm(view, f, g2, bc_tags, quad_scale).system(eta)


def _interface_extraction(E, n_basis, itf):
    """The columns of patches k and l in the ``E`` of a C0 view without
    tags, and the two-patch space's extraction over them: the rows that
    reach them, numbered by first column as that space numbers its dofs."""
    cols = np.r_[itf.k * n_basis : (itf.k + 1) * n_basis, itf.l * n_basis : (itf.l + 1) * n_basis]
    _, first, dof = np.unique(E.tocsc().indices[cols], return_index=True, return_inverse=True)
    dof = np.argsort(np.argsort(first))[dof]  # every column has one row
    return cols, scipy.sparse.csr_matrix((np.ones(len(cols)), (dof, np.arange(len(cols)))))


def stability_constants(topology, p, r, n):
    """Per interface, the largest eigenvalue of the pencil (A, B) of
    :func:`~mpiga.linalg.gram_pencil_max`: B is the broken Laplacian Gram
    matrix over its two patches, A = R^T R with a row sqrt(w) {Lap} per
    interface quadrature point.  One C0 view without tags assembles each
    patch's Gram once; :func:`_interface_extraction` maps it per interface.
    Raises :class:`ParameterError` if two patches share more than one side."""
    if not topology.interfaces:
        return []
    asm = _Assembler(C0Space(topology, p, r, n))
    G = triplets_to_csr(asm.volume_system(None)[0], asm.n_prims)  # every patch's Gram, once
    nq = asm.edge_nq
    constants = []
    for idx, itf in enumerate(topology.interfaces):
        cols, E = _interface_extraction(asm.E, asm.n_basis, itf)
        if E.shape[0] != 2 * asm.n_basis - asm.sol.dim:  # 2 N^2 - N
            raise ParameterError("interface patch pair does not reduce to a single interface")
        ids, _jump, avg, w = asm.interface_edge_rows(idx)
        span, pos = np.nonzero(ids >= 0)
        R = np.zeros((asm.n * nq, asm.n_prims))
        R[span[:, None] * nq + np.arange(nq), ids[span, pos][:, None]] = (avg * np.sqrt(w)[:, None])[span, pos]
        constants.append(gram_pencil_max((E @ R[:, cols].T).T, _to_dofs(E, G[cols][:, cols])))
    return constants


def estimate_stability_constant(topology, iface_index, p, r, n):
    """One entry of :func:`stability_constants`, at the cost of all."""
    return stability_constants(topology, p, r, n)[iface_index]


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


def stacked_error_norms(view, stack, exact_jet=None, quad_scale=1):
    """:func:`error_norms` of every row of an (m, dofs) coefficient stack.

    Each row is mapped once to its primitive coefficients (``stack @ E``).
    On each patch their slice is multiplied out from univariate tables
    (:class:`~mpiga.c1space.GridJets`), so no dof is evaluated on its own,
    over the Gauss grid and the element-row bands of
    :meth:`_Assembler.bands`, the volume form's, whose w det J and exact
    jet serve all m functions.  Each interface's jump applies the jump
    rows of :meth:`_Assembler.interface_edge_rows`, those of the Nitsche
    penalty, to the same coefficients, so its square is the penalty's
    quadratic form.  Every step treats the rows alone and no band depends
    on m, so a function's report does not depend on the stack it is in:
    it is :func:`error_norms` of that row bit for bit, and the factor-1.0
    row of a one-interface :func:`~mpiga.experiments.run_eta_sweep` is
    :func:`~mpiga.experiments.solve_level`'s report.
    Returns one :class:`ErrorReport` per row.
    """
    asm = _Assembler(view, quad_scale)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != view.n_total:
        raise ParameterError(
            f"coefficient length {stack.shape[-1]} does not match dof count {view.n_total}"
        )
    coeffs = stack @ asm.E  # (m, primitives of all patches)
    acc = np.zeros((3, len(stack)))  # L2^2, H1-semi^2, H2-semi^2 per function
    for k, patch_coeffs in enumerate(coeffs.reshape(len(stack), -1, asm.n_basis).swapaxes(0, 1)):
        grid = GridJets(asm.families, patch_coeffs, asm.pts, asm.pts)
        for sel, point, jac, hess, w in asm.bands(k):
            err = physical_jet(grid.jets(sel), jac, hess)
            if exact_jet is not None:
                err -= _at_points(exact_jet, point)
            sq = np.square(err, out=err)
            acc[0] += _sums(w * sq[..., 0])
            acc[1] += _sums(w * (sq[..., 1] + sq[..., 2]))
            acc[2] += _sums(w * (sq[..., 3] + sq[..., 4] + sq[..., 5]))
    jumps = []
    for idx in range(len(asm.topology.interfaces)):
        ids, jump, _, w = asm.interface_edge_rows(idx)
        dn = (coeffs[:, ids][:, :, None] @ jump)[:, :, 0]  # (m, spans, edge_nq); jump is 0 at padding
        jumps.append(np.sqrt(_sums(w * dn ** 2)))
    l2 = np.sqrt(acc[0])
    h1 = np.sqrt(acc[0] + acc[1])
    h2 = np.sqrt(acc.sum(axis=0))
    return [
        ErrorReport(asm.sol.h, view.n_free, l2[i], h1[i], h2[i], [jm[i] for jm in jumps])
        for i in range(len(stack))
    ]
