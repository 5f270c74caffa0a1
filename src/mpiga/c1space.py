"""Construction of the approximately C1-smooth multi-patch spline space.

Patch-local building blocks
---------------------------
*Interior* functions are plain tensor B-splines whose value and gradient
vanish on the patch boundary (indices 2..N-3 in each direction,
0-based).

*Edge* functions realize a first-order expansion transversal to an edge.
In edge coordinates (sigma across, t along) with solution-space basis
functions b1, b2 in sigma,

    f(sigma, t) = T(t) (b1 + b2)(sigma)
                + (alpha(t) W(t) + beta(t) T'(t)) (h/p) b2(sigma),

where T is a trace coefficient spline from S(p, p-1, h), W a transversal
coefficient spline from S(p-1, p-2, h), and alpha, beta are the
(projected, signed) gluing data of the edge side.  On the edge the
function's trace is T and its scaled transversal derivative along the
shared interface normal is -W, identically on both sides of an
interface, so matching coefficient indices couple into one global
function that is C0 and approximately C1.

*Vertex* functions prescribe a full physical second-order jet at a patch
corner.  For each incident patch three six-dimensional interpolation
problems are solved (one per family: the two edge families of the
corner and a tensor corner family) and combined as
``first edge + second edge - corner``; the six jet unit vectors give six
global functions per vertex, coupled across all incident patches.

Boundary conditions remove whole edge blocks (clamped edges drop trace
and transversal functions, simply-supported edges drop only traces) and
restrict boundary-vertex blocks to the numerical kernel of value /
normal-derivative constraints sampled on the boundary edges within the
support of the vertex functions.

Extraction
----------
Every dof restricted to a patch is a fixed linear combination of
patch-local primitives: tensor B-splines and single edge functions
(:class:`PatchPrimitives`).  The global space stores these combinations
as one sparse matrix per patch, a row per global dof over the patch's
primitive columns: interior and edge dofs are unit rows, and the six
vertex rows of an incident patch hold the three family solutions summed
column by column.  A constrained space applies one sparse transform
(boundary partition and boundary-vertex kernels) to those rows, giving
one extraction matrix E_k per patch (:class:`PatchExtraction`, which also
lists per element the edge primitives that reach it).  Assembly works on
the primitives alone and maps every form to dofs once, as E M E^T and
E F.

Any rows of weights over the primitives -- unit rows for assembly,
vertex families and kernel samples, the boundary lift, or a whole
discrete function for the error norms -- are evaluated by one separable
evaluator (:class:`GridJets`): a tensor spline from basis-table products
plus, per edge shape, A(t) (b1 + b2)(sigma) + C(t) b2(sigma), so a
function costs O(points) rather than O(dofs x points).  Assembly builds
one such table of the used edge primitives per patch (or per edge
line): the univariate factors are evaluated once there, and each cell
gathers the jets of only the primitives that reach it
(:meth:`GridJets.pairs`).
"""

import numpy as np
import scipy.sparse

from .bspline import _SLOT_U, _SLOT_V, JET_ORDERS, SplineSpace, l2_project
from .errors import (
    DegenerateVertexError,
    IllConditionedInterfaceError,
    ParameterError,
)
from .geometry import (
    _CORNER_FLIP,
    _CORNER_SIDES,
    _CORNER_UV,
    EdgeFrame,
    SideMap,
    gluing_data,
    physical_jet,
)
from .linalg import kernel_split

class GluingFunctions:
    """Projected gluing data splines of one edge side, in a fixed orientation."""

    def __init__(self, space, alpha, beta):
        self.space = space
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)

    @classmethod
    def artificial(cls, space):
        """Boundary-edge data: alpha = 1, beta = 0 (exact in any spline space)."""
        return cls(space, np.ones(space.dim), np.zeros(space.dim))

    def eval_alpha(self, ts, max_deriv=0):
        return self.space.eval_spline(self.alpha, ts, max_deriv)

    def eval_beta(self, ts, max_deriv=0):
        return self.space.eval_spline(self.beta, ts, max_deriv)

    def reversed(self):
        """Same data as functions of the reversed edge parameter."""
        return GluingFunctions(self.space, self.alpha[::-1].copy(), -self.beta[::-1].copy())


def approximate_gluing_data(topology, iface, p, n):
    """Project the exact gluing data of an interface onto S(p-1, p-2, h).

    Returns the pair of :class:`GluingFunctions` for the lower- and
    higher-indexed side, both as functions of the shared interface
    parameter.  Raises :class:`IllConditionedInterfaceError` if a
    projected transversal factor changes sign.
    """
    itf = topology.interfaces[iface] if isinstance(iface, int) else iface
    space = SplineSpace(p - 1, p - 2, n)
    out = []
    for side in (itf.k, itf.l):
        coeffs = l2_project(space, lambda t: np.column_stack(gluing_data(topology, itf, side, t)))
        gf = GluingFunctions(space, coeffs[:, 0], coeffs[:, 1])
        probe = gf.eval_alpha(np.linspace(0.0, 1.0, 20 * n + 1))[:, 0]
        if probe.max() * probe.min() <= 0.0:
            raise IllConditionedInterfaceError(
                f"projected gluing factor changes sign on interface {itf} (side {side})"
            )
        out.append(gf)
    return tuple(out)


class EdgeShape:
    """Edge-expansion factors of one patch side in one tangent orientation.

    The edge functions of the side, weighted by trace coefficients c over
    S(p, p-1, h) and transversal coefficients d over S(p-1, p-2, h), sum
    to A(t) (b1 + b2)(sigma) + C(t) b2(sigma) with A = T and
    C = (alpha W + beta T') h/p, where T = sum_j c_j T_j and
    W = sum_j d_j W_j.
    """

    def __init__(self, patch_index, side_map, gluing, sol, splus, sminus):
        self.patch_index = patch_index
        self.map = side_map
        self.gluing = gluing
        self.sol = sol
        self.splus = splus
        self.sminus = sminus
        self.scale = sol.h / sol.p

    def carriers(self, sig):
        """b1 + b2 and b2 at transversal points: two (3, len(sig)) tables,
        derivative order first."""
        b1, b2 = self.sol.eval_columns([0, 1], sig, 2)
        return np.ascontiguousarray((b1 + b2).T), np.ascontiguousarray(b2.T)

    def along(self, trace, transversal, ts):
        """The factors A and C of (m, splus.dim) trace and (m, sminus.dim)
        transversal coefficient rows at edge parameters: two (3, m,
        len(ts)) arrays, derivative order first."""
        ts = np.asarray(ts, dtype=float)
        T = self.splus.eval_splines(trace, ts, 3)
        W = self.sminus.eval_splines(transversal, ts, 2)
        bt = self.gluing.eval_beta(ts, 2).T
        at = self.gluing.eval_alpha(ts, 2).T
        C = np.empty(W.shape)
        C[0] = bt[0] * T[1] + at[0] * W[0]
        C[1] = (bt[1] * T[1] + bt[0] * T[2]) + (at[1] * W[0] + at[0] * W[1])
        C[2] = (bt[2] * T[1] + 2.0 * bt[1] * T[2] + bt[0] * T[3]) + (
            at[2] * W[0] + 2.0 * at[1] * W[1] + at[0] * W[2]
        )
        C *= self.scale
        return T[:3], C

    def element_boxes(self, kind):
        """Inclusive patch element boxes (eu0, eu1, ev0, ev1) of every
        coefficient index of one kind: (dim, 4)."""
        n = self.sol.n
        space = self.splus if kind == "trace" else self.sminus
        out = np.empty((space.dim, 4), dtype=int)
        for j in range(space.dim):
            t0, t1 = space.basis_support(j)
            # b1 and b2 live on the first two element layers off the edge
            a = self.map.elements_to_patch(0, t0, n)
            b = self.map.elements_to_patch(min(1, n - 1), t1, n)
            out[j] = min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])
        return out


class PatchPrimitives:
    """The patch-local functions every dof on one patch is made of.

    Column ``iu * N + iv`` is the tensor B-spline (iu, iv) of the N x N
    solution space; after those, each edge shape on the patch owns one
    column per trace coefficient and then one per transversal
    coefficient.  A dof restricted to the patch is a sparse row of
    weights over these columns; a C0 view uses the tensor columns alone.
    Rows of weights are evaluated by :class:`GridJets`, in separable
    form: a row restricted to the patch is one tensor spline plus, per
    edge shape, one A(t) (b1 + b2)(sigma) + C(t) b2(sigma) (see
    :class:`EdgeShape`).
    """

    def __init__(self, sol):
        self.sol = sol
        self.N = sol.dim
        self.shapes = []  # (shape, first column); trace columns, then transversal
        self._edge_boxes = []
        self.n_cols = self.N * self.N

    def add_shape(self, shape):
        """Append the columns of an edge shape; returns the first column of
        each kind, ``{"trace": c, "transversal": c'}``."""
        first = {}
        self.shapes.append((shape, self.n_cols))
        for kind, space in (("trace", shape.splus), ("transversal", shape.sminus)):
            first[kind] = self.n_cols
            self._edge_boxes.append(shape.element_boxes(kind))
            self.n_cols += space.dim
        return first

    def edge_boxes(self):
        """Inclusive element boxes (eu0, eu1, ev0, ev1) of the edge columns,
        column N * N first."""
        return np.concatenate(self._edge_boxes or [np.zeros((0, 4), dtype=int)])

    def selection(self, cols):
        """Unit rows picking the given columns: (len(cols), n_cols)."""
        out = np.zeros((len(cols), self.n_cols))
        out[np.arange(len(cols)), cols] = 1.0
        return out

    def expand(self, W, u_pts, v_pts):
        """Parametric jets of the combinations in the rows of an (m, n_cols)
        weight matrix on a tensor grid: (m, nu, nv, 6)."""
        return GridJets(self, W, u_pts, v_pts).jets()

    def line_jets(self, W, frame, ts):
        """Physical jets (m, len(ts), 6) of the rows of an (m, n_cols) weight
        matrix at the parameters ``ts`` of an :class:`EdgeFrame` of this
        patch, and the frame's :meth:`~EdgeFrame.geom` there."""
        us, vs, axis = frame.line(ts)
        geom = frame.geom(ts)
        jets = np.take(self.expand(W, us, vs), 0, axis=axis + 1)
        return physical_jet(jets, geom["jac"], geom["hess"]), geom

    def constraint_rows(self, W, frame, ts, tag):
        """Boundary constraint samples of weight rows along an edge frame:
        values (len(ts), m), then on a 'gn' edge outward normal
        derivatives; and the frame's geometry."""
        phys, geom = self.line_jets(W, frame, ts)
        rows = [phys[:, :, 0].T]
        if tag == "gn":
            rows.append(np.einsum("mc,qmc->mq", geom["n_out"], phys[:, :, 1:3]))
        return np.vstack(rows), geom


def _run(idx):
    """A slice for ascending consecutive indices, else the indices."""
    if len(idx) and idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    return idx


def _column_block(W, first, count):
    """The rows of a dense weight array with weights in columns first ..
    first+count-1, and those rows' weights there."""
    block = W[:, first : first + count]
    rows = _run(np.flatnonzero(block.any(axis=1)))
    return rows, block[rows]


class GridJets:
    """Jets of patch combinations on a tensor grid, kept in separable form.

    All univariate and coefficient work is done once here: the basis
    tables of both axes with the tensor coefficients contracted along v,
    and per edge shape its transversal carriers and the combined edge
    factors A and C of every row (:meth:`EdgeShape.along`).  :meth:`jets`
    multiplies them out on any band of u points, and :meth:`pairs` on a
    window of grid points per row.  Each row is computed alone (matrix
    products run over rows as a batch), so a row's jets do not depend on
    the other rows, and a unit row reproduces its primitive exactly.
    """

    def __init__(self, prims, W, u_pts, v_pts):
        u_pts = np.atleast_1d(np.asarray(u_pts, dtype=float))
        v_pts = np.atleast_1d(np.asarray(v_pts, dtype=float))
        # C order: BLAS sums the rows of a transposed stack in another order
        W = W.toarray() if scipy.sparse.issparse(W) else np.ascontiguousarray(W, dtype=float)
        self.m, self.nu, self.nv = W.shape[0], len(u_pts), len(v_pts)
        N = prims.N
        self.tensor = None
        rows, coeffs = _column_block(W, 0, N * N)
        if len(coeffs):
            U, V = (
                np.ascontiguousarray(prims.sol.eval_columns(np.arange(N), pts, 2).transpose(2, 1, 0))
                for pts in (u_pts, v_pts)
            )  # (3, points, N)
            # per row, its coefficient grid times the v tables: (rows, 3, N, nv)
            self.tensor = rows, U, coeffs.reshape(-1, 1, N, N) @ V.swapaxes(1, 2)
        self.edges = []
        for shape, first in prims.shapes:
            n_trace = shape.splus.dim
            rows, block = _column_block(W, first, n_trace + shape.sminus.dim)
            if not len(block):
                continue
            smap = shape.map
            sig, ts = (u_pts, v_pts) if smap.trans_axis == 0 else (v_pts, u_pts)
            B, D = shape.carriers(1.0 - sig if smap.trans_flip else sig)
            if not (B.any() or D.any()):  # the grid lies beyond two elements off the side
                continue
            A, C = shape.along(block[:, :n_trace], block[:, n_trace:], 1.0 - ts if smap.t_flip else ts)
            self.edges.append((rows, smap, B, D, A, C))

    def jets(self, sel=slice(None)):
        """Parametric jets (m, nu', nv, 6) on the u points ``sel`` (a slice)."""
        nu = len(range(self.nu)[sel])
        out = np.zeros((self.m, nu, self.nv, 6))
        if self.tensor is not None:
            rows, U, G = self.tensor
            for slot, (a, b) in enumerate(JET_ORDERS):
                out[rows, :, :, slot] = U[a, sel] @ G[:, b]
        for rows, smap, B, D, A, C in self.edges:
            if smap.trans_axis == 0:  # sigma runs along u
                B, D = B[:, sel], D[:, sel]
            else:
                A, C = A[:, :, sel], C[:, :, sel]
            near = np.flatnonzero(B.any(axis=0) | D.any(axis=0))  # b1, b2 vanish past two elements
            if not len(near):
                continue
            B, D = B[:, near, None], D[:, near, None]
            A, C = A[:, :, None], C[:, :, None]
            near = _run(near)
            both = not isinstance(rows, slice) and not isinstance(near, slice)
            index = (rows[:, None], near) if both else (rows, near)
            for (a, b), (dest, sign) in zip(JET_ORDERS, smap.jet_slots()):
                # the destination slot as (rows, sigma, t)
                target = out[..., dest] if smap.trans_axis == 0 else out[..., dest].swapaxes(1, 2)
                target[index] += sign * (B[a] * A[b] + D[a] * C[b])
        return out

    def pairs(self, rows, iu, iv):
        """Parametric jets (P, mu, mv, 6) of row ``rows[i]`` on the grid
        points ``iu[i]`` x ``iv[i]``, for (P,) rows without tensor weights
        and (P, mu) u and (P, mv) v point indices.

        Each pair gathers its window from the univariate tables and
        multiplies it out as :meth:`jets` does, so a pair equals the
        matching entries of :meth:`jets` bit for bit.
        """
        if self.tensor is not None:
            raise ParameterError("window pairs take rows over edge primitives only")
        out = np.zeros((len(rows), iu.shape[1], iv.shape[1], 6))
        for erows, smap, B, D, A, C in self.edges:
            local = np.full(self.m, -1)
            local[erows] = np.arange(A.shape[1])
            mine = np.flatnonzero(local[rows] >= 0)
            if not len(mine):
                continue
            r = local[rows[mine]][:, None]
            sig, t = (iu[mine], iv[mine]) if smap.trans_axis == 0 else (iv[mine], iu[mine])
            dest, sign = np.array(smap.jet_slots()).T
            # per (sigma, t) slot: (slot, pair, sigma point, t point)
            Bs, Ds = (X[:, sig][_SLOT_U, :, :, None] for X in (B, D))
            As, Cs = (X[:, r, t][_SLOT_V, :, None] for X in (A, C))
            val = (sign[:, None, None, None] * (Bs * As + Ds * Cs))[np.argsort(dest)]
            out[mine] += val.transpose(1, 2, 3, 0) if smap.trans_axis == 0 else val.transpose(1, 3, 2, 0)
        return out


def interior_indices(sol):
    """0-based tensor indices of the patch interior block."""
    if sol.p < 2 or sol.r < 1:
        raise ParameterError(
            f"interior space requires p >= 2 and 1 <= r <= p-1, got p={sol.p}, r={sol.r}"
        )
    rng = range(2, sol.dim - 2)
    return [(i, j) for i in rng for j in rng]


def edge_dof_indices(splus, sminus):
    """Retained coefficient indices of an edge block.

    The first and last three trace functions and the first and last two
    transversal functions carry second-order data at an edge endpoint
    and move to the vertex blocks; the rest stay on the edge.
    """
    trace = list(range(3, splus.dim - 3))
    trans = list(range(2, sminus.dim - 2))
    return trace, trans


class GlobalC1Space:
    """Coupled global basis: interior, interface, boundary-edge, vertex blocks.

    ``patch_rows[k]`` is a CSR matrix (n_dofs, primitives[k].n_cols): row
    g writes global dof g restricted to patch k over the patch's
    primitives, and is empty where the dof does not reach the patch.
    Interior and edge dofs are unit rows; an interface dof has a row on
    both of its patches, a vertex dof on every patch incident to the
    vertex.
    """

    def __init__(self, topology, p, r, n):
        if p < 2 or not 1 <= r <= p - 1:
            raise ParameterError(f"need p >= 2 and 1 <= r <= p-1, got p={p}, r={r}")
        self.topology = topology
        self.p, self.r, self.n = p, r, n
        self.sol = SplineSpace(p, r, n)
        self.splus = SplineSpace(p, p - 1, n)
        self.sminus = SplineSpace(p - 1, p - 2, n)
        if self.sol.dim < 6 or self.splus.dim < 6 or self.sminus.dim < 4:
            raise ParameterError(
                f"mesh too coarse for the vertex construction at p={p}, r={r}, n={n}"
            )
        self.h = self.sol.h

        # projected gluing data per interface, shared-parameter orientation
        self.iface_gluing = [
            approximate_gluing_data(topology, i, p, n)
            for i in range(len(topology.interfaces))
        ]
        self._first_cols = {}
        self.primitives = [
            PatchPrimitives(self.sol) for _ in topology.patches
        ]
        self.labels = []
        self.patch_rows = []
        for prims, triplets in zip(self.primitives, self._build()):
            rows, cols, vals = (np.array(t) for t in triplets)
            keep = vals != 0.0
            # a tensor B-spline in an edge and in the corner family is one
            # column: its two weights are summed here
            self.patch_rows.append(scipy.sparse.csr_matrix(
                (vals[keep], (rows[keep], cols[keep])), shape=(self.n_dofs, prims.n_cols)
            ))

    # -- construction -------------------------------------------------

    def _edge_columns(self, patch_index, side_map, gluing):
        """The first trace and transversal column of the edge shape of a
        (patch, side, tangent orientation), made on first use.

        The gluing data of a side in a given orientation is unique, so edge
        and vertex functions of one orientation share the shape.
        """
        key = (patch_index, side_map.side, side_map.t_flip)
        if key not in self._first_cols:
            shape = EdgeShape(patch_index, side_map, gluing, self.sol, self.splus, self.sminus)
            self._first_cols[key] = self.primitives[patch_index].add_shape(shape)
        return self._first_cols[key]

    def _side_gluing(self, patch_index, side):
        """Stored gluing functions and tangent flip of a (patch, side) edge."""
        topo = self.topology
        idx = topo.interface_index(patch_index, side)
        if idx is None:
            return GluingFunctions.artificial(self.sminus), False
        itf = topo.interfaces[idx]
        gk, gl = self.iface_gluing[idx]
        if patch_index == itf.k:
            return gk, False
        return gl, itf.reverse

    def _build(self):
        """Number the global dofs (``labels``); returns per patch the
        (dofs, columns, weights) triplet lists of their rows."""
        topo = self.topology
        N = self.sol.dim
        trace_ids, trans_ids = edge_dof_indices(self.splus, self.sminus)
        unit = [1.0]
        triplets = [([], [], []) for _ in topo.patches]

        def add(label, entries):  # entries: (patch, columns, weights)
            for k, cols, weights in entries:
                rows, all_cols, vals = triplets[k]
                rows += [len(self.labels)] * len(cols)
                all_cols += list(cols)
                vals += list(weights)
            self.labels.append(label)

        for k in range(len(topo.patches)):
            for (i, j) in interior_indices(self.sol):
                add(("interior", k, i, j), [(k, [i * N + j], unit)])

        for idx, itf in enumerate(topo.interfaces):
            gk, gl = self.iface_gluing[idx]
            first_k = self._edge_columns(itf.k, SideMap(itf.side_k, False), gk)
            first_l = self._edge_columns(itf.l, SideMap(itf.side_l, itf.reverse), gl)
            for kind, ids in (("trace", trace_ids), ("transversal", trans_ids)):
                for j in ids:
                    add(
                        ("iface", idx, kind, j),
                        [(itf.k, [first_k[kind] + j], unit), (itf.l, [first_l[kind] + j], unit)],
                    )

        for bidx, (k, side) in enumerate(topo.boundary_edges):
            first = self._edge_columns(
                k, SideMap(side, False), GluingFunctions.artificial(self.sminus)
            )
            for kind, ids in (("trace", trace_ids), ("transversal", trans_ids)):
                for j in ids:
                    add(("bedge", bidx, kind, j), [(k, [first[kind] + j], unit)])

        for vidx, vertex in enumerate(topo.vertices):
            per_patch = self._vertex_dofs(vidx, vertex)
            for q in range(6):
                add(("vertex", vidx, q), [(k, cols, w[:, q]) for k, cols, w in per_patch])
        return triplets

    def _vertex_anchored_gluing(self, patch_index, side, va_flip):
        gf, stored_flip = self._side_gluing(patch_index, side)
        return gf if stored_flip == bool(va_flip) else gf.reversed()

    def _vertex_dofs(self, vidx, vertex):
        """Per incident patch k of a vertex, ``(k, cols, weights)``: the 18
        family columns (first edge, second edge, corner) and their (18, 6)
        weights in the six vertex dofs, ``c0, c1, -c2`` stacked."""
        out = []
        N = self.sol.dim
        for (k, corner) in vertex.incident:
            fu, fv = _CORNER_FLIP[corner]
            bottom_side, left_side = _CORNER_SIDES[corner]
            bottom = self._edge_columns(
                k, SideMap(bottom_side, t_flip=fu), self._vertex_anchored_gluing(k, bottom_side, fu)
            )
            left = self._edge_columns(
                k, SideMap(left_side, t_flip=fv), self._vertex_anchored_gluing(k, left_side, fv)
            )

            def ten(a, b):
                iu = N - 1 - a if fu else a
                iv = N - 1 - b if fv else b
                return iu * N + iv

            def edge_family(first, tensor):
                trace, trans = first["trace"], first["transversal"]
                return [trace, trace + 1, trace + 2, trans, trans + 1, tensor]

            cols = np.array(
                edge_family(bottom, ten(0, 2))
                + edge_family(left, ten(2, 0))
                + [ten(0, 0), ten(0, 1), ten(0, 2), ten(1, 0), ten(1, 1), ten(2, 0)]
            )

            u0, v0 = _CORNER_UV[corner]
            patch = self.topology.patches[k]
            _, jac, hess = patch.jet_at(u0, v0)
            prims = self.primitives[k]
            # the 18 family primitives at the corner, in one grid
            phys = physical_jet(prims.expand(prims.selection(cols), [u0], [v0])[:, 0, 0], jac, hess)

            coeffs = []
            for M in phys.reshape(3, 6, 6).swapaxes(1, 2):
                try:
                    coeffs.append(np.linalg.solve(M, np.eye(6)))
                except np.linalg.LinAlgError as exc:
                    raise DegenerateVertexError(
                        f"singular corner interpolation at vertex {vidx}, patch {k}",
                        patch=k,
                        vertex=vidx,
                    ) from exc
            c0, c1, c2 = coeffs
            out.append((k, cols, np.concatenate([c0, c1, -c2])))
        return out

    # -- queries -------------------------------------------------------

    @property
    def n_dofs(self):
        return len(self.labels)

    def dof_counts(self):
        counts = {}
        for lab in self.labels:
            counts[lab[0]] = counts.get(lab[0], 0) + 1
        return counts


def build_c1_space(topology, p, r, n):
    """Construct the coupled global space over a detected topology."""
    return GlobalC1Space(topology, p, r, n)


def _box_cells(boxes, n):
    """(box index, cell eu * n + ev) of every element in inclusive boxes
    (eu0, eu1, ev0, ev1), ordered by cell and then box index."""
    ku = (boxes[:, 1] - boxes[:, 0]).max() + 1
    kv = (boxes[:, 3] - boxes[:, 2]).max() + 1
    du, dv = np.divmod(np.arange(ku * kv), kv)
    eu = boxes[:, :1] + du
    ev = boxes[:, 2:3] + dv
    idx, off = np.nonzero((eu <= boxes[:, 1:2]) & (ev <= boxes[:, 3:4]))
    cell = eu[idx, off] * n + ev[idx, off]
    order = np.lexsort((idx, cell))
    return idx[order], cell[order]


class PatchExtraction:
    """Every dof of a space view on one patch as a sparse row over the
    patch primitives.

    ``matrix`` E_k (n_total, n_cols) holds row g for dof g restricted to
    the patch, with sorted indices.  ``cols`` holds the edge primitive
    columns that some dof uses, ascending, and ``cells`` (n, n, ne) gives
    per element (eu, ev) the positions in ``cols`` of the edge primitives
    whose support box holds it, ascending and padded with ``len(cols)``.
    """

    def __init__(self, prims, matrix, n):
        self.prims = prims
        self.matrix = scipy.sparse.csr_matrix(matrix)
        self.matrix.sort_indices()
        first = prims.N * prims.N
        self.cols = np.unique(self.matrix.indices[self.matrix.indices >= first])
        cells = np.full((n * n, 0), len(self.cols))
        if len(self.cols):
            idx, cell = _box_cells(prims.edge_boxes()[self.cols - first], n)
            count = np.bincount(cell, minlength=n * n)
            cells = np.full((n * n, count.max()), len(self.cols))
            # entries come ordered by cell: each one's rank within its cell
            cells[cell, np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)] = idx
        self.cells = cells.reshape(n, n, cells.shape[1])


class ConstrainedC1Space:
    """Global space with boundary conditions applied.

    Final dofs are ordered free first, then boundary; boundary-vertex
    blocks are recombined into numerical-kernel (free) and complement
    (boundary) combinations.  ``transform`` (n_total, space.n_dofs) writes
    every final dof over the global dofs, and ``labels`` names them.
    """

    KERNEL_TOL = 1e-8
    EDGE_SAMPLES = 25

    def __init__(self, space, bc_tags):
        self.space = space
        self.bc = dict(bc_tags)
        space.topology.check_bc_tags(self.bc)
        missing = [e for e in space.topology.boundary_edges if e not in self.bc]
        if missing:
            raise ParameterError(f"boundary edges without condition tag: {missing}")
        self.sol, self.topology = space.sol, space.topology
        self._partition()
        self._tables = [
            PatchExtraction(prims, self.transform @ rows, space.n)
            for prims, rows in zip(space.primitives, space.patch_rows)
        ]

    def _partition(self):
        space = self.space
        topo = space.topology
        free, bound = [], []  # (label, global dofs, weights)
        vertex_groups = {}
        for gid, lab in enumerate(space.labels):
            kind = lab[0]
            if kind == "vertex":
                vertex_groups.setdefault(lab[1], []).append(gid)
            elif kind == "bedge" and (self.bc[topo.boundary_edges[lab[1]]] == "gn" or lab[2] == "trace"):
                bound.append((lab, [gid], [1.0]))
            else:
                free.append((lab, [gid], [1.0]))

        for vidx in sorted(vertex_groups):
            gids = sorted(vertex_groups[vidx])
            vertex = topo.vertices[vidx]
            if vertex.kind == "inner":
                free += [(space.labels[g], [g], [1.0]) for g in gids]
                continue
            kernel, compl = self._vertex_kernel(vertex, gids)
            free += [(("vertex", vidx, "free", c), gids, kernel[:, c]) for c in range(kernel.shape[1])]
            bound += [(("vertex", vidx, "bnd", c), gids, compl[:, c]) for c in range(compl.shape[1])]

        self.n_free = len(free)
        dofs = free + bound
        self.labels = [lab for lab, _, _ in dofs]
        rows = np.repeat(np.arange(len(dofs)), [len(g) for _, g, _ in dofs])
        cols = np.concatenate([g for _, g, _ in dofs])
        vals = np.concatenate([w for _, _, w in dofs])
        keep = vals != 0.0
        self.transform = scipy.sparse.csr_matrix(
            (vals[keep], (rows[keep], cols[keep])), shape=(len(dofs), space.n_dofs)
        )

    def _vertex_kernel(self, vertex, gids):
        """Kernel and complement bases (6, .) of the value (and, on 'gn'
        edges, normal-derivative) constraints of the six vertex dofs
        ``gids``, sampled on the vertex's boundary edges.  Only the kernel
        is defined, so its bases depend on its projector alone
        (:func:`kernel_split`) and round-off in the samples does not
        rotate the free vertex dofs."""
        space, topo = self.space, self.space.topology
        # vertex functions (trace 0..2, transversal 0..1, tensor indices up
        # to 2 from the corner) vanish beyond 3 elements from the vertex, so
        # the samples run from the vertex (t = 0) across those elements only:
        # spread over a whole edge, too few of them fall inside the support
        # on fine meshes and the constraint matrix loses rank
        ts = np.linspace(0.0, min(1.0, 3 * space.h), self.EDGE_SAMPLES)
        edges, rows = [], []
        for (k, corner) in vertex.incident:
            for side, t_flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner]):
                if topo.is_boundary_edge(k, side) and (k, side, t_flip) not in edges:
                    edges.append((k, side, t_flip))
                    frame = EdgeFrame(topo.patches[k], side, t_flip)
                    W = space.patch_rows[k][gids]
                    rows.append(space.primitives[k].constraint_rows(W, frame, ts, self.bc[(k, side)])[0])
        return kernel_split(np.vstack(rows), self.KERNEL_TOL)

    # -- assembly support ----------------------------------------------

    @property
    def n_total(self):
        return len(self.labels)

    def element_table(self, patch_index):
        """The :class:`PatchExtraction` of one patch: every dof over the
        patch primitives."""
        return self._tables[patch_index]


def homogeneous_subspace(space, bc_tags):
    """Partition the global space into free and boundary dofs under the tags."""
    return ConstrainedC1Space(space, bc_tags)
