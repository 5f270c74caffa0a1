"""Galerkin assembly for the biharmonic problem on multi-patch geometries.

Two discrete forms are assembled over element-wise Gauss quadrature:

* the conforming-in-spirit form (Delta phi, Delta psi) over the
  approximately C1 space, with no interface terms, and
* the symmetric interior penalty (Nitsche) form over the C0 space,
  which adds consistency terms coupling the normal-derivative jump with
  the Laplacian average and a penalty (eta/h) jump-jump term per
  interface.

The volume rule uses (p+2)^2 points per element and interfaces use
2p+1 points per edge span; jumps are oriented as (higher side) minus
(lower side) with the interface normal taken outward from the
lower-indexed patch.
"""

import numpy as np

from .bspline import JET_ORDERS, gauss_legendre
from .c1space import ConstrainedC1Space
from .errors import ParameterError
from .geometry import EdgeFrame, SideMap, detect_topology, physical_jet
from .linalg import SparseSymMatrix, gram_pencil_max, solve_spd

__all__ = [
    "AssembledSystem",
    "C0Space",
    "ErrorReport",
    "assemble_approx_c1",
    "assemble_nitsche",
    "broken_gram",
    "error_norms",
    "estimate_stability_constant",
    "manufactured_jet",
    "manufactured_laplacian",
    "manufactured_rhs",
    "physical_jet",
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
    """``fn(x, y)`` on the flattened points of an (..., 2) array, reshaped back."""
    x, y = point[..., 0].ravel(), point[..., 1].ravel()
    out = np.asarray(fn(x, y), dtype=float)
    if out.ndim == 0:
        out = np.full(x.shape, out)
    return out.reshape(point.shape[:-1] + out.shape[1:])


# ---------------------------------------------------------------------------
# C0 multi-patch space for the Nitsche discretization


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


def _side_line(side, layer, N):
    """Tensor indices of the coefficient line at the given depth from a side."""
    rng = np.arange(N)
    if side == 1:
        return [(i, layer) for i in rng]
    if side == 2:
        return [(N - 1 - layer, j) for j in rng]
    if side == 3:
        return [(i, N - 1 - layer) for i in rng]
    if side == 4:
        return [(layer, j) for j in rng]
    raise ParameterError(f"invalid side {side}")


class C0Space:
    """C0-coupled multi-patch tensor spline space with optional boundary conditions.

    Coefficients along interfaces are identified one-to-one (reversed
    when the interface reverses orientation).  'gl' edges eliminate the
    trace layer, 'gn' edges eliminate the first two layers; ``bc_tags``
    of None keeps every dof (used for the stability eigenproblem).
    """

    def __init__(self, topology, p, r, n, bc_tags=None):
        from .bspline import SplineSpace  # local to avoid cluttering module top

        self.topology = topology
        self.p, self.r, self.n = p, r, n
        self.sol = SplineSpace(p, r, n)
        N = self.sol.dim
        uf = _UnionFind()
        for itf in topology.interfaces:
            line_k = _side_line(itf.side_k, 0, N)
            line_l = _side_line(itf.side_l, 0, N)
            if itf.reverse:
                line_l = line_l[::-1]
            for a, b in zip(line_k, line_l):
                uf.union((itf.k,) + a, (itf.l,) + b)

        eliminated = set()
        if bc_tags is not None:
            for (k, side), tag in bc_tags.items():
                layers = (0, 1) if tag == "gn" else (0,)
                for layer in layers:
                    for ij in _side_line(side, layer, N):
                        eliminated.add(uf.find((k,) + ij))

        ids = {}
        self.patch_fids = []
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
            self.patch_fids.append(grid)
        self.n_free = len(ids)
        self.n_total = self.n_free

    def element_table(self, patch_index):
        return self.patch_fids[patch_index], None


# ---------------------------------------------------------------------------
# generic element evaluation over a space view


_SLOT_U = [a for a, _ in JET_ORDERS]
_SLOT_V = [b for _, b in JET_ORDERS]


def _window_jets(tab_u, tab_v):
    """Jets of the (p+1)^2 tensor window from univariate derivative tables.

    ``tab_u`` is (nu, 3, p+1) and ``tab_v`` is (..., nv, 3, p+1); returns
    (..., p+1, p+1, nu, nv, 6), the window index of u first.
    """
    return np.einsum("qsi,...rsj->...ijqrs", tab_u[:, _SLOT_U], tab_v[..., _SLOT_V, :])


class _Assembler:
    """Shared element machinery over a space view (C1 or C0)."""

    def __init__(self, view, quad_scale=1):
        self.view = view
        self.sol = view.sol if hasattr(view, "sol") else view.space.sol
        self.topology = view.topology if hasattr(view, "topology") else view.space.topology
        self.n = self.sol.n
        p = self.sol.p
        self.nq = quad_scale * (p + 2)
        self.nodes, self.weights = gauss_legendre(self.nq)
        self.edge_nq = quad_scale * (2 * p + 1)
        self.enodes, self.eweights = gauss_legendre(self.edge_nq)

    @staticmethod
    def _extracted(row, cells, window_jets, edge_jets):
        """Extracted dofs on some cells of one element row: (fids, jets).

        ``cells`` indexes the row's cells; ``window_jets`` (nc, (p+1)^2,
        ...) are the cells' tensor-window jets and ``edge_jets`` (nc,
        len(row.cols), ...) the jets of the row's edge primitives on them.
        Returns dof ids (nc, nd) padded with -1 and jets (nc, nd, ...).
        """
        nc = len(cells)
        edge = np.concatenate([edge_jets, np.zeros_like(edge_jets[:, :1])], axis=1)
        prim = np.concatenate([window_jets, edge[np.arange(nc)[:, None], row.pos[cells]]], axis=1)
        jets = row.blocks[cells] @ prim.reshape(nc, prim.shape[1], -1)
        return row.fids[cells], jets.reshape((nc, -1) + prim.shape[2:])

    def element_jets(self, patch_index, elem, u_pts, v_pts):
        """All dof jets on a point grid inside one patch element.

        Returns (fids, jets) with jets of shape (nd, nu, nv, 6).
        """
        tensor_fids, ext = self.view.element_table(patch_index)
        first_u, tab_u = self.sol.eval_many(u_pts, 2)
        first_v, tab_v = self.sol.eval_many(v_pts, 2)
        p1 = self.sol.p + 1
        window = tensor_fids[first_u[0] : first_u[0] + p1, first_v[0] : first_v[0] + p1].ravel()
        mask = window >= 0
        jets_t = _window_jets(tab_u, tab_v).reshape(p1 * p1, len(u_pts), len(v_pts), 6)
        fids, jets = list(window[mask]), [jets_t[mask]]
        row = ext.rows.get(elem[0]) if ext is not None else None
        if row is not None and elem[1] in row.evs:
            cell = np.flatnonzero(row.evs == elem[1])
            used = row.pos[cell[0]][row.pos[cell[0]] < len(row.cols)]
            edge = np.zeros((1, len(row.cols), len(u_pts), len(v_pts), 6))
            edge[0, used] = ext.prims.jets(row.cols[used], u_pts, v_pts)
            ids, ej = self._extracted(row, cell, jets_t[None], edge)
            keep = ids[0] >= 0
            fids += list(ids[0][keep])
            jets.append(ej[0][keep])
        return fids, np.concatenate(jets, axis=0)

    # -- volume form ----------------------------------------------------

    def element_rows(self, patch_index):
        """Volume quadrature data of one patch, one element row at a time.

        For the row of elements (eu, 0..n-1) yields ``(ids, phys, w,
        point)``: dof ids (n, nd) padded with -1, physical jets (n, nd,
        Q, 6), quadrature weights times det J (n, Q) and quadrature points
        (n, Q, 2), with the Q = nq^2 points of an element ordered u-major.
        Jets of padded ids are meaningless and must be masked out.
        """
        n, nq, p1 = self.n, self.nq, self.sol.p + 1
        Q = nq * nq
        patch = self.topology.patches[patch_index]
        tensor_fids, ext = self.view.element_table(patch_index)
        pts = (np.arange(n)[:, None] + self.nodes).ravel() * self.sol.h
        first, tables = self.sol.eval_many(pts, 2)
        window = first[::nq, None] + np.arange(p1)  # (n, p1) basis indices per element
        tables = tables.reshape(n, nq, 3, p1)
        wq = np.outer(self.weights, self.weights).ravel() * self.sol.h ** 2
        for eu in range(n):
            u_pts = pts[eu * nq : (eu + 1) * nq]
            ids = tensor_fids[window[eu][None, :, None], window[:, None, :]].reshape(n, p1 * p1)
            jets = _window_jets(tables[eu], tables).reshape(n, p1 * p1, Q, 6)
            row = ext.rows.get(eu) if ext is not None else None
            if row is not None:
                # the row's edge primitives on the points of its cells, regrouped per cell
                nc = len(row.evs)
                v_cells = pts.reshape(n, nq)[row.evs].ravel()
                edge = ext.prims.jets(row.cols, u_pts, v_cells).reshape(-1, nq, nc, nq, 6)
                edge = edge.transpose(2, 0, 1, 3, 4).reshape(nc, -1, Q, 6)
                fids, ej = self._extracted(row, np.arange(nc), jets[row.evs], edge)
                width = fids.shape[1]
                ids = np.concatenate([ids, -np.ones((n, width), dtype=int)], axis=1)
                jets = np.concatenate([jets, np.zeros((n, width, Q, 6))], axis=1)
                ids[row.evs, p1 * p1 :] = fids
                jets[row.evs, p1 * p1 :] = ej
            # geometry on the row's nq x (n nq) grid, regrouped per element
            point, jac, hess = (
                a.reshape(nq, n, nq, *a.shape[2:]).swapaxes(0, 1).reshape(n, Q, *a.shape[2:])
                for a in patch.jet_grid(u_pts, pts)
            )
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            phys = physical_jet(jets, jac[:, None], hess[:, None])
            yield ids, phys, wq * det, point

    def volume_system(self, f=None):
        """Stiffness (Delta, Delta) and load (f, psi) over all dofs."""
        view = self.view
        K = SparseSymMatrix(view.n_total)
        F = np.zeros(view.n_total)
        for k in range(len(self.topology.patches)):
            for ids, phys, w, point in self.element_rows(k):
                lap = (phys[..., 3] + phys[..., 5]) * np.sqrt(w)[:, None, :]
                K.add_blocks(ids, lap @ lap.swapaxes(1, 2))
                if f is not None:
                    fx = _at_points(f, point)
                    keep = ids >= 0
                    np.add.at(F, ids[keep], np.einsum("eaq,eq->ea", phys[..., 0], w * fx)[keep])
        return K, F

    # -- edge spans ----------------------------------------------------------

    def side_span(self, patch_index, side_map, et):
        """Dofs on span ``et`` of a patch side and their physical jets there.

        Returns (fids, phys) with phys of shape (nd, edge_nq, 6) at the
        Gauss points of the span in the order of the side map's edge
        parameter; phys is None when no dof lives on the span.
        """
        ts = (et + self.enodes) * self.sol.h
        order = slice(None, None, -1) if side_map.t_flip else slice(None)
        axis = side_map.trans_axis  # grid axis pinned to the side
        grid = [pts[order] for pts in side_map.to_patch(np.zeros_like(ts), ts)]
        grid[axis] = grid[axis][:1]
        elem = side_map.elements_to_patch(0, et, self.n)
        fids, jets = self.element_jets(patch_index, elem, *grid)
        if not fids:
            return fids, None
        _, jac, hess = (
            np.take(a, 0, axis=axis)[order]
            for a in self.topology.patches[patch_index].jet_grid(*grid)
        )
        return fids, physical_jet(np.take(jets, 0, axis=axis + 1)[:, order], jac, hess)

    def boundary_moment_load(self, F, g2, bc_tags):
        """Add (g2, dn psi) over 'gl' boundary edges to the load vector."""
        for (k, side), tag in bc_tags.items():
            if tag != "gl" or g2 is None:
                continue
            frame = EdgeFrame(self.topology.patches[k], side, False)
            for et in range(self.n):
                fids, phys = self.side_span(k, frame.map, et)
                if not fids:
                    continue
                g = frame.geom((et + self.enodes) * self.sol.h)
                dn = np.einsum("mc,amc->am", g["n_out"], phys[:, :, 1:3])
                vals = g2(g["point"][:, 0], g["point"][:, 1])
                w = self.eweights * self.sol.h * g["tau"]
                F[np.asarray(fids)] += dn @ (w * vals)

    # -- interface machinery ---------------------------------------------

    def interface_edge_rows(self, iface_index):
        """Per-span normal-derivative and Laplacian rows on both interface sides.

        Yields (fids, jump_rows, avg_rows, weights) per edge span, where
        rows have shape (nd, edge_nq), the jump is (higher side) minus
        (lower side) of the normal derivative along the interface normal
        and the average is the mean Laplacian; weights include the
        arc-length factor.
        """
        topo = self.topology
        itf = topo.interfaces[iface_index]
        frame_k = EdgeFrame(topo.patches[itf.k], itf.side_k, False)
        sides = (
            (itf.k, SideMap(itf.side_k, False), -1.0),
            (itf.l, SideMap(itf.side_l, itf.reverse), +1.0),
        )
        h = self.sol.h
        for et in range(self.n):
            ts = (et + self.enodes) * h
            g = frame_k.geom(ts)
            normal = g["n_out"]
            w = self.eweights * h * g["tau"]
            gather = {}
            for kk, sm, sign in sides:
                fids, phys = self.side_span(kk, sm, et)
                if not fids:
                    continue
                dn = np.einsum("mc,amc->am", normal, phys[:, :, 1:3])
                lap = phys[:, :, 3] + phys[:, :, 5]
                for row, fid in enumerate(fids):
                    slot = gather.setdefault(
                        fid,
                        [np.zeros(self.edge_nq), np.zeros(self.edge_nq)],
                    )
                    slot[0] += sign * dn[row]
                    slot[1] += 0.5 * lap[row]
            fids = sorted(gather)
            jump = np.array([gather[f][0] for f in fids])
            avg = np.array([gather[f][1] for f in fids])
            yield np.asarray(fids, dtype=int), jump, avg, w


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
    topo = asm.topology
    rows, targets = [], []
    ts = np.linspace(0.0, 1.0, 4 * (view.space.sol.dim + 2))
    for (k, side), tag in bc_tags.items():
        frame = EdgeFrame(topo.patches[k], side, False)
        us, vs, axis = frame.line(ts)
        _, jac, hess = frame.line_jets(ts)
        g = frame.geom(ts)
        _, ext = view.element_table(k)
        jets = np.take(ext.prims.expand(ext.matrix[view.n_free :], us, vs), 0, axis=axis + 1)
        phys = physical_jet(jets, jac, hess)  # (nb, m, 6)
        rows.append(phys[:, :, 0].T)
        targets.append(
            np.zeros(len(ts)) if g0 is None else np.asarray(g0(g["point"][:, 0], g["point"][:, 1]))
        )
        if tag == "gn":
            rows.append(np.einsum("mc,bmc->mb", g["n_out"], phys[:, :, 1:3]))
            targets.append(
                np.zeros(len(ts)) if g1 is None else np.asarray(g1(g["point"][:, 0], g["point"][:, 1]))
            )
    A = np.vstack(rows)
    b = np.concatenate(targets)
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    return coeffs


def broken_gram(view, quad_scale=1):
    """Gram matrix of all view dofs in the broken H2 inner product."""
    asm = _Assembler(view, quad_scale)
    G = SparseSymMatrix(view.n_total)
    for k in range(len(asm.topology.patches)):
        for ids, phys, w, _point in asm.element_rows(k):
            jets = (phys * np.sqrt(w)[:, None, :, None]).reshape(ids.shape + (-1,))
            G.add_blocks(ids, jets @ jets.swapaxes(1, 2))
    return G


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
    Kc = K.tocsr()
    nf = view.n_free
    bvals = _lift_boundary_data(asm, g0, g1, bc_tags)
    load = F[:nf]
    if len(bvals):
        load = load - Kc[:nf, nf:] @ bvals
    red = SparseSymMatrix.from_sparse(Kc[:nf, :nf])
    return AssembledSystem(view, red, load, "approx-c1", boundary_values=bvals)


def assemble_nitsche(view, f, g2=None, bc_tags=None, eta=None, g0=None, g1=None, quad_scale=1):
    """Assemble the symmetric interior penalty form over the C0 space.

    Per interface the form adds ({Lap u}, [dn v]) + ({Lap v}, [dn u]) +
    (eta/h) ([dn u], [dn v]) to the volume term, which is consistent with
    the jump orientation of :meth:`_Assembler.interface_edge_rows`.
    ``eta`` is a positive scalar applied to every interface or a mapping
    from interface index to the per-interface stability weight; the
    penalty term scales it by 1/h of the current mesh.
    """
    if eta is None:
        raise ParameterError("Nitsche assembly requires a stability parameter eta")
    if np.isscalar(eta):
        eta = {i: float(eta) for i in range(len(view.topology.interfaces))}
    if any(val <= 0.0 for val in eta.values()):
        raise ParameterError("stability parameters must be positive")
    if g0 is not None or g1 is not None:
        raise ParameterError("inhomogeneous essential data is not supported for Nitsche runs")
    asm = _Assembler(view, quad_scale)
    K, F = asm.volume_system(f)
    if bc_tags:
        asm.boundary_moment_load(F, g2, bc_tags)
    h = view.sol.h
    for idx in range(len(view.topology.interfaces)):
        scale = eta[idx] / h
        for fids, jump, avg, w in asm.interface_edge_rows(idx):
            if len(fids) == 0:
                continue
            consistency = np.einsum("aq,q,bq->ab", jump, w, avg)
            penalty = np.einsum("aq,q,bq->ab", jump, w, jump)
            # integrating Lap^2 u * v by parts patch-wise leaves
            # +{Lap u}[dn v] with this jump orientation
            block = consistency + consistency.T + scale * penalty
            K.add_block(fids, fids, block)
    return AssembledSystem(view, K, F, "nitsche", eta=eta)


def estimate_stability_constant(topology, iface_index, p, r, n):
    """Largest generalized eigenvalue bounding the interface Laplacian average.

    Assembles, over the two patches of the interface alone, the broken
    volume Gram matrix B of the Laplacian and the interface Gram matrix
    A = R^T R of the Laplacian average, where R stacks one row sqrt(w) avg
    per interface quadrature point, and returns the leading eigenvalue of
    the pencil (A, B) from the small dense matrix R B^-1 R^T.
    """
    itf = topology.interfaces[iface_index]
    sub = detect_topology([topology.patches[itf.k], topology.patches[itf.l]])
    if len(sub.interfaces) != 1:
        raise ParameterError("interface patch pair does not reduce to a single interface")
    space = C0Space(sub, p, r, n, bc_tags=None)
    asm = _Assembler(space)
    B, _ = asm.volume_system(None)
    R = np.zeros((asm.n * asm.edge_nq, space.n_total))
    for span, (fids, _jump, avg, w) in enumerate(asm.interface_edge_rows(0)):
        rows = span * asm.edge_nq + np.arange(asm.edge_nq)
        R[rows[:, None], fids] = (avg * np.sqrt(w)).T
    return gram_pencil_max(R, B)


def error_norms(view, coeffs, exact_jet=None, quad_scale=1):
    """Broken L2/H1/H2 errors of a discrete function against an exact jet.

    ``coeffs`` is the full coefficient vector over the view's dofs;
    ``exact_jet(x, y)`` returns (..., 6) physical jets (None compares
    against zero).  Also returns the normal-derivative jump norm of the
    discrete function per interface.
    """
    asm = _Assembler(view, quad_scale)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != view.n_total:
        raise ParameterError(
            f"coefficient length {coeffs.shape[0]} does not match dof count {view.n_total}"
        )
    acc = np.zeros(3)  # L2^2, H1-semi^2, H2-semi^2
    for k in range(len(asm.topology.patches)):
        for ids, phys, w, point in asm.element_rows(k):
            c = np.where(ids >= 0, coeffs[ids], 0.0)
            err = np.einsum("ea,eaqs->eqs", c, phys)
            if exact_jet is not None:
                err = err - _at_points(exact_jet, point)
            sq = err * err
            acc[0] += np.sum(w * sq[..., 0])
            acc[1] += np.sum(w * (sq[..., 1] + sq[..., 2]))
            acc[2] += np.sum(w * (sq[..., 3] + sq[..., 4] + sq[..., 5]))
    jumps = []
    for idx in range(len(asm.topology.interfaces)):
        total = 0.0
        for fids, jump, _avg, w in asm.interface_edge_rows(idx):
            if len(fids) == 0:
                continue
            j = coeffs[fids] @ jump
            total += w @ j ** 2
        jumps.append(np.sqrt(total))
    l2 = np.sqrt(acc[0])
    h1 = np.sqrt(acc[0] + acc[1])
    h2 = np.sqrt(acc.sum())
    return ErrorReport(asm.sol.h, view.n_free, l2, h1, h2, jumps)
