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
"""

import numpy as np

from .bspline import SplineSpace, l2_project
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

_VERTEX_JET_SLOTS = 6  # value, d/dx, d/dy, d2/dxx, d2/dxy, d2/dyy


class GluingFunctions:
    """Projected gluing data splines of one edge side, in a fixed orientation."""

    def __init__(self, space, alpha, beta):
        self.space = space
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self._memo = {}

    @classmethod
    def artificial(cls, space):
        """Boundary-edge data: alpha = 1, beta = 0 (exact in any spline space)."""
        return cls(space, np.ones(space.dim), np.zeros(space.dim))

    def _eval(self, which, coeffs, ts, max_deriv):
        key = (which, ts.tobytes(), max_deriv)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) > 256:
                self._memo.clear()
            hit = self._memo[key] = self.space.eval_spline(coeffs, ts, max_deriv)
        return hit

    def eval_alpha(self, ts, max_deriv=0):
        return self._eval("a", self.alpha, np.asarray(ts, dtype=float), max_deriv)

    def eval_beta(self, ts, max_deriv=0):
        return self._eval("b", self.beta, np.asarray(ts, dtype=float), max_deriv)

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
        ca = l2_project(space, lambda t: gluing_data(topology, itf, side, t)[0])
        cb = l2_project(space, lambda t: gluing_data(topology, itf, side, t)[1])
        gf = GluingFunctions(space, ca, cb)
        probe = gf.eval_alpha(np.linspace(0.0, 1.0, 20 * n + 1))[:, 0]
        if probe.max() * probe.min() <= 0.0:
            raise IllConditionedInterfaceError(
                f"projected gluing factor changes sign on interface {itf} (side {side})"
            )
        out.append(gf)
    return tuple(out)


class EdgeShape:
    """Edge-expansion evaluator for one patch side in one tangent orientation."""

    def __init__(self, patch_index, side_map, gluing, sol, splus, sminus):
        self.patch_index = patch_index
        self.map = side_map
        self.gluing = gluing
        self.sol = sol
        self.splus = splus
        self.sminus = sminus
        self.scale = sol.h / sol.p
        self._tt_memo = {}

    def _transversal_tables(self, sig):
        key = sig.tobytes()
        hit = self._tt_memo.get(key)
        if hit is None:
            if len(self._tt_memo) > 256:
                self._tt_memo.clear()
            b1 = self.sol.eval_one(0, sig, 2)
            b2 = self.sol.eval_one(1, sig, 2)
            hit = self._tt_memo[key] = (b1 + b2, b2)  # (trace blend, derivative carrier)
        return hit

    def _window_columns(self, space, js, first, tables):
        """Per-basis-function tables at many points: (len(js), m, nd)."""
        m, nd = tables.shape[0], tables.shape[1]
        out = np.zeros((len(js), m, nd))
        for row, j in enumerate(js):
            cols = j - first
            inside = (cols >= 0) & (cols <= space.p)
            if inside.any():
                out[row, inside] = tables[inside, :, cols[inside]]
        return out

    def jet_st_batch(self, kind, js, sig, ts):
        """Parametric jets of many edge functions on a (sigma, t) grid.

        Returns shape (len(js), len(sig), len(ts), 6).
        """
        B, D = self._transversal_tables(np.asarray(sig, dtype=float))
        ts = np.asarray(ts, dtype=float)
        nt = len(ts)
        nj = len(js)
        if kind == "trace":
            first, tables = self.splus.eval_many(ts, 3)
            A = self._window_columns(self.splus, js, first, tables)  # (nj, nt, 4)
            bt = self.gluing.eval_beta(ts, 2)
            C = np.empty((nj, nt, 3))
            C[:, :, 0] = bt[:, 0] * A[:, :, 1]
            C[:, :, 1] = bt[:, 1] * A[:, :, 1] + bt[:, 0] * A[:, :, 2]
            C[:, :, 2] = (
                bt[:, 2] * A[:, :, 1]
                + 2.0 * bt[:, 1] * A[:, :, 2]
                + bt[:, 0] * A[:, :, 3]
            )
            Arow = A[:, :, :3]
        elif kind == "transversal":
            first, tables = self.sminus.eval_many(ts, 2)
            W = self._window_columns(self.sminus, js, first, tables)  # (nj, nt, 3)
            at = self.gluing.eval_alpha(ts, 2)
            C = np.empty((nj, nt, 3))
            C[:, :, 0] = at[:, 0] * W[:, :, 0]
            C[:, :, 1] = at[:, 1] * W[:, :, 0] + at[:, 0] * W[:, :, 1]
            C[:, :, 2] = (
                at[:, 2] * W[:, :, 0]
                + 2.0 * at[:, 1] * W[:, :, 1]
                + at[:, 0] * W[:, :, 2]
            )
            Arow = np.zeros((nj, nt, 3))
        else:
            raise ParameterError(f"unknown edge function kind {kind!r}")
        C *= self.scale

        jets = np.empty((nj, len(B), nt, 6))
        pairs = ((0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 2, 0), (4, 1, 1), (5, 0, 2))
        for slot, a, b in pairs:
            jets[:, :, :, slot] = (
                B[None, :, a, None] * Arow[:, None, :, b]
                + D[None, :, a, None] * C[:, None, :, b]
            )
        return jets

    def jet_batch(self, kind, js, u_pts, v_pts):
        """Jets of many edge functions in patch coordinates: (nj, nu, nv, 6)."""
        u_pts = np.asarray(u_pts, dtype=float)
        v_pts = np.asarray(v_pts, dtype=float)
        if self.map.trans_axis == 0:
            sig = 1.0 - u_pts if self.map.trans_flip else u_pts
            ts = 1.0 - v_pts if self.map.t_flip else v_pts
            jst = self.jet_st_batch(kind, js, sig, ts)
        else:
            sig = 1.0 - v_pts if self.map.trans_flip else v_pts
            ts = 1.0 - u_pts if self.map.t_flip else u_pts
            jst = self.jet_st_batch(kind, js, sig, ts).transpose(0, 2, 1, 3)
        return self.map.jet_to_patch(jst)

    def jet_grid(self, kind, j, u_pts, v_pts):
        """Jets of a single edge function in patch coordinates."""
        return self.jet_batch(kind, [j], u_pts, v_pts)[0]


class TensorEval:
    """A single tensor-product B-spline of the solution space on one patch."""

    def __init__(self, sol, iu, iv):
        self.sol = sol
        self.iu = iu
        self.iv = iv

    def jet_grid(self, u_pts, v_pts):
        U = self.sol.eval_one(self.iu, u_pts, 2)
        V = self.sol.eval_one(self.iv, v_pts, 2)
        jets = np.empty((len(U), len(V), 6))
        jets[:, :, 0] = np.outer(U[:, 0], V[:, 0])
        jets[:, :, 1] = np.outer(U[:, 1], V[:, 0])
        jets[:, :, 2] = np.outer(U[:, 0], V[:, 1])
        jets[:, :, 3] = np.outer(U[:, 2], V[:, 0])
        jets[:, :, 4] = np.outer(U[:, 1], V[:, 1])
        jets[:, :, 5] = np.outer(U[:, 0], V[:, 2])
        return jets

    def support_box(self):
        eu = self.sol.basis_support(self.iu)
        ev = self.sol.basis_support(self.iv)
        return eu[0], eu[1], ev[0], ev[1]


class EdgeEval:
    """One edge function (trace or transversal coefficient) on one patch."""

    def __init__(self, shape, kind, j):
        self.shape = shape
        self.kind = kind
        self.j = j

    def jet_grid(self, u_pts, v_pts):
        return self.shape.jet_grid(self.kind, self.j, u_pts, v_pts)

    def support_box(self):
        n = self.shape.sol.n
        sig_range = (0, min(1, n - 1))
        space = self.shape.splus if self.kind == "trace" else self.shape.sminus
        t_range = space.basis_support(self.j)
        a = self.shape.map.elements_to_patch(sig_range[0], t_range[0], n)
        b = self.shape.map.elements_to_patch(sig_range[1], t_range[1], n)
        return (
            min(a[0], b[0]),
            max(a[0], b[0]),
            min(a[1], b[1]),
            max(a[1], b[1]),
        )


class ComboEval:
    """Weighted combination of evaluators (vertex functions, kernel combos)."""

    def __init__(self, pieces):
        self.pieces = [(float(w), ev) for w, ev in pieces if w != 0.0]

    def jet_grid(self, u_pts, v_pts):
        out = np.zeros((len(u_pts), len(v_pts), 6))
        for w, ev in self.pieces:
            out += w * ev.jet_grid(u_pts, v_pts)
        return out

    def support_box(self):
        boxes = [ev.support_box() for _, ev in self.pieces]
        if not boxes:
            return (0, -1, 0, -1)
        return (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )


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

    Each degree of freedom is a list of ``(patch index, evaluator)``
    pairs; interface dofs span two patches, vertex dofs span all patches
    incident to the vertex.
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
        self._shapes = {}
        self.labels = []
        self.supports = []
        self._build()

    # -- construction -------------------------------------------------

    def _edge_shape(self, patch_index, side_map, gluing):
        key = (patch_index, side_map.side, side_map.t_flip)
        if key not in self._shapes:
            self._shapes[key] = EdgeShape(
                patch_index, side_map, gluing, self.sol, self.splus, self.sminus
            )
        return self._shapes[key]

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

    def _add_dof(self, label, supports):
        self.labels.append(label)
        self.supports.append(supports)

    def _build(self):
        topo = self.topology
        trace_ids, trans_ids = edge_dof_indices(self.splus, self.sminus)

        for k in range(len(topo.patches)):
            for (i, j) in interior_indices(self.sol):
                self._add_dof(("interior", k, i, j), [(k, TensorEval(self.sol, i, j))])

        for idx, itf in enumerate(topo.interfaces):
            gk, gl = self.iface_gluing[idx]
            shape_k = self._edge_shape(itf.k, SideMap(itf.side_k, False), gk)
            shape_l = self._edge_shape(itf.l, SideMap(itf.side_l, itf.reverse), gl)
            for kind, ids in (("trace", trace_ids), ("transversal", trans_ids)):
                for j in ids:
                    self._add_dof(
                        ("iface", idx, kind, j),
                        [
                            (itf.k, EdgeEval(shape_k, kind, j)),
                            (itf.l, EdgeEval(shape_l, kind, j)),
                        ],
                    )

        for bidx, (k, side) in enumerate(topo.boundary_edges):
            shape = self._edge_shape(
                k, SideMap(side, False), GluingFunctions.artificial(self.sminus)
            )
            for kind, ids in (("trace", trace_ids), ("transversal", trans_ids)):
                for j in ids:
                    self._add_dof(("bedge", bidx, kind, j), [(k, EdgeEval(shape, kind, j))])

        for vidx, vertex in enumerate(topo.vertices):
            for q, supports in enumerate(self._vertex_dofs(vidx, vertex)):
                self._add_dof(("vertex", vidx, q), supports)

    def _vertex_anchored_gluing(self, patch_index, side, va_flip):
        gf, stored_flip = self._side_gluing(patch_index, side)
        return gf if stored_flip == bool(va_flip) else gf.reversed()

    def _vertex_dofs(self, vidx, vertex):
        """Six global vertex dofs, each a list of (patch, ComboEval)."""
        per_patch = {}
        for (k, corner) in vertex.incident:
            fu, fv = _CORNER_FLIP[corner]
            bottom_side, left_side = _CORNER_SIDES[corner]
            bmap = SideMap(bottom_side, t_flip=fu)
            lmap = SideMap(left_side, t_flip=fv)
            bshape = EdgeShape(
                k, bmap, self._vertex_anchored_gluing(k, bottom_side, fu),
                self.sol, self.splus, self.sminus,
            )
            lshape = EdgeShape(
                k, lmap, self._vertex_anchored_gluing(k, left_side, fv),
                self.sol, self.splus, self.sminus,
            )

            N = self.sol.dim

            def ten(a, b):
                iu = N - 1 - a if fu else a
                iv = N - 1 - b if fv else b
                return TensorEval(self.sol, iu, iv)

            fam_edge0 = [
                EdgeEval(bshape, "trace", 0),
                EdgeEval(bshape, "trace", 1),
                EdgeEval(bshape, "trace", 2),
                EdgeEval(bshape, "transversal", 0),
                EdgeEval(bshape, "transversal", 1),
                ten(0, 2),
            ]
            fam_edge1 = [
                EdgeEval(lshape, "trace", 0),
                EdgeEval(lshape, "trace", 1),
                EdgeEval(lshape, "trace", 2),
                EdgeEval(lshape, "transversal", 0),
                EdgeEval(lshape, "transversal", 1),
                ten(2, 0),
            ]
            fam_corner = [ten(0, 0), ten(0, 1), ten(0, 2), ten(1, 0), ten(1, 1), ten(2, 0)]

            u0, v0 = _CORNER_UV[corner]
            patch = self.topology.patches[k]
            _, jac, hess = patch.jet_at(u0, v0)

            def jet_matrix(family):
                M = np.empty((_VERTEX_JET_SLOTS, 6))
                for a, ev in enumerate(family):
                    par = ev.jet_grid(np.array([u0]), np.array([v0]))[0, 0]
                    M[:, a] = physical_jet(par, jac, hess)
                return M

            coeffs = []
            for fam in (fam_edge0, fam_edge1, fam_corner):
                M = jet_matrix(fam)
                try:
                    coeffs.append(np.linalg.solve(M, np.eye(6)))
                except np.linalg.LinAlgError as exc:
                    raise DegenerateVertexError(
                        f"singular corner interpolation at vertex {vidx}, patch {k}",
                        patch=k,
                        vertex=vidx,
                    ) from exc
            c0, c1, c2 = coeffs

            combos = []
            for q in range(6):
                pieces = (
                    [(c0[a, q], fam_edge0[a]) for a in range(6)]
                    + [(c1[a, q], fam_edge1[a]) for a in range(6)]
                    + [(-c2[a, q], fam_corner[a]) for a in range(6)]
                )
                combos.append(ComboEval(pieces))
            per_patch[k] = combos

        return [
            [(k, per_patch[k][q]) for (k, _corner) in vertex.incident]
            for q in range(6)
        ]

    # -- queries -------------------------------------------------------

    @property
    def n_dofs(self):
        return len(self.labels)

    def block_ids(self, kind):
        return [i for i, lab in enumerate(self.labels) if lab[0] == kind]

    def dof_counts(self):
        counts = {}
        for lab in self.labels:
            counts[lab[0]] = counts.get(lab[0], 0) + 1
        return counts


def build_c1_space(topology, p, r, n):
    """Construct the coupled global space over a detected topology."""
    return GlobalC1Space(topology, p, r, n)


def _kernel_split(M, rel_tol):
    """(kernel, complement) orthonormal bases of a small dense matrix."""
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return np.eye(M.shape[1]), np.zeros((M.shape[1], 0))
    rank = int(np.sum(s > rel_tol * smax))
    return vt[rank:].T, vt[:rank].T


class ConstrainedC1Space:
    """Global space with boundary conditions applied.

    Final dofs are ordered free first, then boundary; boundary-vertex
    blocks are recombined into numerical-kernel (free) and complement
    (boundary) combinations.
    """

    KERNEL_TOL = 1e-8
    EDGE_SAMPLES = 25

    def __init__(self, space, bc_tags):
        self.space = space
        self.bc = dict(bc_tags)
        missing = [e for e in space.topology.boundary_edges if e not in self.bc]
        if missing:
            raise ParameterError(f"boundary edges without condition tag: {missing}")
        bad = {v for v in self.bc.values() if v not in ("gn", "gl")}
        if bad:
            raise ParameterError(f"unknown boundary tags {bad}; use 'gn' or 'gl'")
        self.dofs = []  # (label, supports)
        self.n_free = 0
        self._tables = {}
        self._partition()

    def _partition(self):
        space = self.space
        topo = space.topology
        free, bound = [], []
        vertex_groups = {}
        for gid, lab in enumerate(space.labels):
            kind = lab[0]
            if kind == "vertex":
                vertex_groups.setdefault(lab[1], []).append(gid)
                continue
            if kind in ("interior", "iface"):
                free.append((lab, space.supports[gid]))
            else:  # boundary edge blocks
                _, bidx, fkind, _j = lab
                tag = self.bc[topo.boundary_edges[bidx]]
                if tag == "gn" or fkind == "trace":
                    bound.append((lab, space.supports[gid]))
                else:
                    free.append((lab, space.supports[gid]))

        for vidx in sorted(vertex_groups):
            gids = sorted(vertex_groups[vidx])
            vertex = topo.vertices[vidx]
            supports = [space.supports[g] for g in gids]
            if vertex.kind == "inner":
                for q, g in enumerate(gids):
                    free.append((space.labels[g], space.supports[g]))
                continue
            kernel, compl = self._vertex_kernel(vertex, supports)
            for col in range(kernel.shape[1]):
                free.append(
                    ((("vertex", vidx, "free", col)), self._combine(vertex, supports, kernel[:, col]))
                )
            for col in range(compl.shape[1]):
                bound.append(
                    ((("vertex", vidx, "bnd", col)), self._combine(vertex, supports, compl[:, col]))
                )

        self.n_free = len(free)
        self.dofs = free + bound

    @staticmethod
    def _combine(vertex, supports, weights):
        out = []
        for pos, (k, _corner) in enumerate(vertex.incident):
            pieces = [(weights[q], supports[q][pos][1]) for q in range(6)]
            out.append((k, ComboEval(pieces)))
        return out

    def _vertex_kernel(self, vertex, supports):
        topo = self.space.topology
        edges = []
        for (k, corner) in vertex.incident:
            for side, t_flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner]):
                if topo.is_boundary_edge(k, side) and (k, side, t_flip) not in edges:
                    edges.append((k, side, t_flip))
        # vertex functions (trace 0..2, transversal 0..1, tensor indices up
        # to 2 from the corner) vanish beyond 3 elements from the vertex, so
        # the samples run from the vertex (t = 0) across those elements only:
        # spread over a whole edge, too few of them fall inside the support
        # on fine meshes and the constraint matrix loses rank
        ts = np.linspace(0.0, min(1.0, 3 * self.space.h), self.EDGE_SAMPLES)
        rows = []
        for (k, side, t_flip) in edges:
            tag = self.bc[(k, side)]
            frame = EdgeFrame(topo.patches[k], side, t_flip)
            us, vs, axis = frame.line(ts)
            _, jac, hess = frame.line_jets(ts)
            g = frame.geom(ts)
            pos = [p for p, (kk, _c) in enumerate(vertex.incident) if kk == k][0]
            jets = np.stack(
                [np.take(supports[q][pos][1].jet_grid(us, vs), 0, axis=axis) for q in range(6)]
            )
            phys = physical_jet(jets, jac, hess)  # (6, m, 6)
            rows.append(phys[:, :, 0].T)
            if tag == "gn":
                rows.append(np.einsum("mc,qmc->mq", g["n_out"], phys[:, :, 1:3]))
        M = np.vstack(rows) if rows else np.zeros((1, 6))
        return _kernel_split(M, self.KERNEL_TOL)

    # -- assembly support ----------------------------------------------

    @property
    def n_total(self):
        return len(self.dofs)

    def element_table(self, patch_index):
        """Per-element dof lists on one patch.

        Returns ``(tensor_fids, others)`` where ``tensor_fids`` is an
        (N, N) int array mapping solution-space tensor indices to final
        dof ids (-1 when absent) and ``others`` maps element (eu, ev) to
        a list of (fid, evaluator) pairs for edge and vertex functions.
        """
        if patch_index in self._tables:
            return self._tables[patch_index]
        N = self.space.sol.dim
        n = self.space.n
        tensor_fids = -np.ones((N, N), dtype=int)
        others = {}
        for fid, (_lab, supports) in enumerate(self.dofs):
            for (k, ev) in supports:
                if k != patch_index:
                    continue
                if isinstance(ev, TensorEval):
                    tensor_fids[ev.iu, ev.iv] = fid
                else:
                    eu0, eu1, ev0, ev1 = ev.support_box()
                    for eu in range(max(eu0, 0), min(eu1, n - 1) + 1):
                        for evv in range(max(ev0, 0), min(ev1, n - 1) + 1):
                            others.setdefault((eu, evv), []).append((fid, ev))
        self._tables[patch_index] = (tensor_fids, others)
        return self._tables[patch_index]

    def free_labels(self):
        return [lab for lab, _ in self.dofs[: self.n_free]]

    def boundary_labels(self):
        return [lab for lab, _ in self.dofs[self.n_free :]]


def homogeneous_subspace(space, bc_tags):
    """Partition the global space into free and boundary dofs under the tags."""
    return ConstrainedC1Space(space, bc_tags)
