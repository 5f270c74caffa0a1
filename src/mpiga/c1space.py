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

Primitives
----------
Dofs are numbered and defined over the paper's columns: the tensor
B-splines and, per edge shape, its single edge functions.  They are
evaluated over tensor families only (:class:`TensorFamily`): the N x N
tensor B-splines and, per patch side, one strip family, the B-splines of
the strip space S(2p-2, p-2, h) along the side times b2 across it.  T
lies in the solution space, so T (b1 + b2) is a tensor combination, and
the transversal factor (alpha W + beta T') h/p, a product of splines of
S(p-1, p-2, h), lies in the strip space.  One sparse change of basis per
patch (:attr:`PatchPrimitives.X`) writes every column over the families;
its weights interpolate the factors at Greville abscissae, one banded
solve per target space for every edge shape (:func:`edge_factors`), up
to round-off (exactly for T where r = p-1).  At p = 3 the strip space is
only C1: where an edge shape runs against the patch's direction, a
second derivative at an interior knot is the other one-sided limit than
the product rule of the factors gives; no quadrature point or sample
lies there.

Extraction
----------
Every dof restricted to a patch is a fixed linear combination of the
columns.  The global space stores these combinations as one sparse
matrix per patch, a row per global dof over the patch's columns:
interior and edge dofs are unit rows, and the six vertex rows of an
incident patch hold the three family solutions summed column by column;
every edge shape is added first, so each patch's change of basis is
formed once, before the vertex solves read it.  The vertex layer is one
pass per build: each patch's corner columns are read from one 2 x 2 grid,
and the 6 x 6 systems of every (vertex, patch, family) are solved as one
stack.  A constrained space applies one sparse transform (boundary
partition and boundary-vertex kernels) to those rows and the change of
basis after them, giving one extraction matrix E over the family columns
of all patches side by side (:attr:`ConstrainedC1Space.E`).  The kernels'
constraints are sampled once per boundary edge, for the vertices at both
of its ends.  Assembly works on the family columns alone and maps every
form to dofs once, as E M E^T and E F.

Any rows of weights over the family columns -- vertex families and
kernel samples, the boundary lift, or a whole discrete function for the
error norms -- are evaluated by one separable evaluator
(:class:`GridJets`): per family, basis-table products U C V^T, so a
function costs O(points) rather than O(dofs x points).  The assembly
kernels evaluate the same families on each cell from the windows of
their univariate tables.
"""

import numpy as np
import scipy.sparse

from .bspline import JET_ORDERS, SplineSpace, interpolate, l2_project
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
    interface_frames,
    physical_jet,
    side_gluing,
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
    frame_k, frame_l = interface_frames(topology, itf)

    def both_sides(t):  # (alpha, beta) of the k side, then of the l side
        gk = frame_k.geom(t)
        sides = side_gluing(gk, gk["d_in"]) + side_gluing(gk, frame_l.geom(t)["d_in"])
        return np.column_stack(sides)

    coeffs = l2_project(space, both_sides)
    out = []
    for side, (alpha, beta) in zip((itf.k, itf.l), (coeffs[:, :2].T, coeffs[:, 2:].T)):
        gf = GluingFunctions(space, alpha, beta)
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

    def __init__(self, side_map, gluing, sol, splus, sminus):
        self.map = side_map
        self.gluing = gluing
        self.sol = sol
        self.splus = splus
        self.sminus = sminus
        self.scale = sol.h / sol.p


def _support_mask(space, factors, flip):
    """(factors.dim, space.dim): where the support of a B-spline of
    ``space`` lies inside that of a B-spline of ``factors``, taken along
    the reversed parameter when ``flip`` (both spaces are symmetric, so
    this reverses the factors).  A spline that vanishes on an element has
    zero coefficients on every B-spline active there (local linear
    independence), so an interpolant's entries outside the mask are set to
    exact zeros."""
    lo, hi = factors.basis_support(np.arange(factors.dim))
    a, b = space.basis_support(np.arange(space.dim))
    return ((a >= lo[:, None]) & (b <= hi[:, None]))[:: -1 if flip else 1]


def edge_factors(shapes, sol, splus, sminus, strip):
    """The factors of every edge function of some edge shapes as splines
    of the patch coordinate along their sides, by interpolation at the
    Greville abscissae: one banded solve per target space for all shapes
    and orientations (the solve treats each right-hand side alone).

    Returns the trace blocks T_j over the solution space (splus.dim,
    sol.dim) per tangent orientation, ``{t_flip: block}``, and per shape
    the rows beta T_j' h/p, then alpha W_j h/p, over the strip space
    (len(shapes), splus.dim + sminus.dim, strip.dim).  Where the solution
    space is S(p, p-1, h) the trace blocks are exact: the identity,
    reversed against the patch's direction.
    """
    flips = (False, True)

    def bsplines(space, x, order, flip):  # (len(x), dim) derivatives of every B-spline in t
        return space.eval_columns(np.arange(space.dim), 1.0 - x if flip else x, order)[:, :, order].T

    if sol.r == splus.r:
        trace = {flip: np.eye(sol.dim)[:: -1 if flip else 1] for flip in flips}
    else:
        both = interpolate(sol, lambda x: np.hstack([bsplines(splus, x, 0, flip) for flip in flips])).T
        trace = {flip: np.where(_support_mask(sol, splus, flip), block, 0.0)
                 for flip, block in zip(flips, np.split(both, 2))}

    def rhs(x):
        tables = {flip: (bsplines(splus, x, 1, flip), bsplines(sminus, x, 0, flip)) for flip in flips}
        cols = []
        for shape in shapes:
            t, (d_trace, trans) = 1.0 - x if shape.map.t_flip else x, tables[shape.map.t_flip]
            cols += [shape.scale * shape.gluing.eval_beta(t)[:, :1] * d_trace,
                     shape.scale * shape.gluing.eval_alpha(t)[:, :1] * trans]
        return np.hstack(cols)

    factors = interpolate(strip, rhs).T.reshape(len(shapes), -1, strip.dim)
    keep = {flip: np.vstack([_support_mask(strip, f, flip) for f in (splus, sminus)]) for flip in flips}
    factors[~np.array([keep[shape.map.t_flip] for shape in shapes])] = 0.0
    return trace, factors


class TensorFamily:
    """Patch columns that are tensor products of two univariate factor sets.

    An axis is a :class:`~mpiga.bspline.SplineSpace` (all of its
    B-splines) or a pair (space, j) (its one B-spline j).  With ``shape``
    (nu, nv) factors per axis, column ``first + i * nv + j`` is the i-th u
    factor times the j-th v factor.  ``reach`` (n, n) marks the elements
    where some column is nonzero, and ``width`` is the number of columns
    nonzero on one of them.
    """

    def __init__(self, first, u, v):
        self.first = first
        self.axes = [axis if isinstance(axis, tuple) else (axis, None) for axis in (u, v)]
        self.shape = tuple(space.dim if j is None else 1 for space, j in self.axes)
        self.count = self.shape[0] * self.shape[1]
        self.width = int(np.prod([space.p + 1 if j is None else 1 for space, j in self.axes]))
        masks = []
        for space, j in self.axes:
            e0, e1 = (0, space.n - 1) if j is None else space.basis_support(j)
            masks.append((np.arange(space.n) >= e0) & (np.arange(space.n) <= e1))
        self.reach = np.outer(*masks)

    def windows(self, eu, ev, u, v):
        """The columns that reach some cells, from per-cell windows.

        Cell c is the element (eu[c], ev[c]); ``u`` and ``v`` are (points,
        indices (nc, m)) of its grid points per axis.  Returns the cells
        the family reaches (nh,), the column of each window entry (nh,
        width), u-major, and per axis the tables (nh, m, 3, w) of the
        window's factors (two derivatives) at the cells' points.
        """
        hit = np.flatnonzero(self.reach[eu, ev])
        cols, tabs = [], []
        for (space, j), e, (pts, idx) in zip(self.axes, (eu[hit], ev[hit]), (u, v)):
            tab = space.eval_many(pts, 2)[1][idx[hit]]
            first = space.element_first_basis(e)
            if j is None:
                cols.append(first[:, None] + np.arange(space.p + 1))
            else:
                tab = np.take_along_axis(tab, (j - first)[:, None, None, None], axis=3)
                cols.append(np.zeros((len(hit), 1), dtype=int))
            tabs.append(tab)
        ids = self.first + cols[0][:, :, None] * self.shape[1] + cols[1][:, None, :]
        return hit, ids.reshape(len(hit), self.width), tabs[0], tabs[1]


class PatchPrimitives:
    """The patch-local functions every dof on one patch is made of.

    Dofs are written over definition columns: column ``iu * N + iv`` is
    the tensor B-spline (iu, iv) of the N x N solution space; after those,
    each edge shape on the patch owns one column per trace coefficient and
    then one per transversal coefficient (``n_cols`` in all).  They are
    evaluated over the ``n_basis`` columns of ``families``, one list for
    every patch of a space: the tensor family first, at the same columns,
    and on an approximately C1 space one strip family per side
    (``strips``), the strip space along the side times b2 across it.
    ``X`` (n_cols, n_basis) writes every definition column over them: the
    trace function j of an edge shape as (b1 + b2) T_j on the two tensor
    lines next to the side plus beta T_j' h/p on the strip, and the
    transversal function j as alpha W_j h/p on the strip.  Rows of weights
    over the basis columns are evaluated by :class:`GridJets`.
    :meth:`write_X` forms ``X`` once every shape is added.
    """

    def __init__(self, sol, families):
        self.sol = sol
        self.N = sol.dim
        self.shapes = []  # (shape, first column); trace columns, then transversal
        self.n_cols = self.N * self.N
        self.families = families
        self.strips = dict(zip((1, 2, 3, 4), self.families[1:]))
        self.X = scipy.sparse.eye(self.n_cols, self.n_basis, format="csr")

    @property
    def n_basis(self):
        return self.families[-1].first + self.families[-1].count

    def add_shape(self, shape):
        """Append the columns of an edge shape; returns the first column of
        each kind, ``{"trace": c, "transversal": c'}``."""
        self.shapes.append((shape, self.n_cols))
        first = {"trace": self.n_cols, "transversal": self.n_cols + shape.splus.dim}
        self.n_cols += shape.splus.dim + shape.sminus.dim
        return first

    def write_X(self, trace, factors):
        """Form ``X`` once every shape is added, from the trace blocks per
        tangent orientation and each shape's factor rows over its strip
        (those of :func:`edge_factors`)."""
        N = self.N
        parts = [(np.arange(N * N), np.arange(N * N), np.ones(N * N))]
        for (shape, first), block in zip(self.shapes, factors):
            tr = trace[shape.map.t_flip]
            i, j = np.nonzero(tr)
            for layer in (0, 1):  # b1 and b2 across the side
                iu, iv = SideMap(shape.map.side).elements_to_patch(layer, j, N)
                parts.append((first + i, iu * N + iv, tr[i, j]))
            i, j = np.nonzero(block)
            parts.append((first + i, self.strips[shape.map.side].first + j, block[i, j]))
        rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
        self.X = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.n_cols, self.n_basis))

    def expand(self, W, u_pts, v_pts):
        """Parametric jets of the combinations in the rows of an (m, n_basis)
        weight matrix on a tensor grid: (m, nu, nv, 6)."""
        return GridJets(self.families, W, u_pts, v_pts).jets()


def constraint_rows(families, W, frame, ts, tag):
    """Boundary constraint samples of the rows of an (m, n_basis) weight
    matrix over the columns of ``families`` at the parameters ``ts`` of an
    :class:`EdgeFrame` of their patch: values (len(ts), m), then on a 'gn'
    edge outward normal derivatives; and the frame's
    :meth:`~EdgeFrame.geom` there."""
    us, vs, axis = frame.line(ts)
    geom = frame.geom(ts)
    jets = np.take(GridJets(families, W, us, vs).jets(), 0, axis=axis + 1)
    phys = physical_jet(jets, geom["jac"], geom["hess"])
    rows = [phys[:, :, 0].T]
    if tag == "gn":
        rows.append(np.einsum("mc,qmc->mq", geom["n_out"], phys[:, :, 1:3]))
    return np.vstack(rows), geom


class GridJets:
    """Jets of patch combinations on a tensor grid, kept in separable form.

    The rows of ``W`` weigh the columns of a patch's ``families``.  All
    univariate and coefficient work is done once here: per axis, every
    B-spline of each spline space is tabulated once, and per family, the
    tables of its factors, sliced from those, with the family's
    coefficients contracted along v.  :meth:`jets` multiplies them out on
    any band of u points.  Each row is computed alone (matrix products run
    over rows as a batch), so a row's jets do not depend on the other rows.
    """

    def __init__(self, families, W, u_pts, v_pts):
        pts = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (u_pts, v_pts)]
        # C order: BLAS sums the rows of a transposed stack in another order
        W = W.toarray() if scipy.sparse.issparse(W) else np.ascontiguousarray(W, dtype=float)
        self.m, self.nu, self.nv = W.shape[0], len(pts[0]), len(pts[1])
        self.terms = []
        tables = {}  # (axis, space): derivatives up to two of every B-spline, (3, points, dim)

        def factors(axis, space, j):  # a family's factors on one axis: every B-spline, or j alone
            if (axis, space) not in tables:
                tab = space.eval_columns(np.arange(space.dim), pts[axis], 2).transpose(2, 1, 0)
                tables[axis, space] = np.ascontiguousarray(tab)
            table = tables[axis, space]
            return table if j is None else np.ascontiguousarray(table[:, :, j : j + 1])

        for fam in families:
            coeffs = W[:, fam.first : fam.first + fam.count]
            if coeffs.any():
                U, V = (factors(axis, *fam.axes[axis]) for axis in (0, 1))
                # per row, its coefficient grid times the v tables: (m, 3, nu', nv)
                self.terms.append((U, coeffs.reshape(-1, 1, *fam.shape) @ V.swapaxes(1, 2)))

    def jets(self, sel=slice(None)):
        """Parametric jets (m, nu', nv, 6) on the u points ``sel`` (a slice)."""
        out = np.zeros((self.m, len(range(self.nu)[sel]), self.nv, 6))
        for U, G in self.terms:
            for slot, (a, b) in enumerate(JET_ORDERS):
                out[..., slot] += U[a, sel] @ G[:, b]
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


def _family_columns(N, corner, bottom, left):
    """The 18 definition columns of the vertex families at a patch corner:
    per edge of the corner (``bottom``, ``left``: the first columns of its
    edge shape) traces 0..2, transversals 0..1 and the tensor B-spline two
    layers along the edge, then the corner's tensor B-splines (a, b) with
    a + b <= 2, indices counted from the corner."""
    fu, fv = _CORNER_FLIP[corner]

    def ten(a, b):
        iu = N - 1 - a if fu else a
        iv = N - 1 - b if fv else b
        return iu * N + iv

    def edge_family(first, tensor):
        trace, trans = first["trace"], first["transversal"]
        return [trace, trace + 1, trace + 2, trans, trans + 1, tensor]

    return (
        edge_family(bottom, ten(0, 2))
        + edge_family(left, ten(2, 0))
        + [ten(0, 0), ten(0, 1), ten(0, 2), ten(1, 0), ten(1, 1), ten(2, 0)]
    )


class GlobalC1Space:
    """Coupled global basis: interior, interface, boundary-edge, vertex blocks.

    ``patch_rows[k]`` is a CSR matrix (n_dofs, primitives[k].n_cols): row
    g writes global dof g restricted to patch k over the patch's
    definition columns, and is empty where the dof does not reach the
    patch.  ``primitives[k].X`` writes those columns over ``families``,
    the tensor family and one strip family per side, built once and
    shared by every patch.
    Interior and edge dofs are unit rows; an interface dof has a row on
    both of its patches, a vertex dof on every patch incident to the
    vertex.  ``vertex_condition`` (pairs, 3) is the 2-norm condition
    number of the corner system of each (vertex, incident patch) pair and
    family (first edge, second edge, corner), the pairs in the order of
    ``topology.vertices`` and their incidences.
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
        self.strip = SplineSpace(2 * p - 2, p - 2, n)  # one table cache for every patch side
        self.families = [TensorFamily(0, self.sol, self.sol)]
        for side in (1, 2, 3, 4):
            smap = SideMap(side)
            across = (self.sol, self.sol.dim - 2 if smap.trans_flip else 1)
            axes = (across, self.strip) if smap.trans_axis == 0 else (self.strip, across)
            self.families.append(TensorFamily(self.families[-1].first + self.families[-1].count, *axes))
        self.primitives = [PatchPrimitives(self.sol, self.families) for _ in topology.patches]
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
            shape = EdgeShape(side_map, gluing, self.sol, self.splus, self.sminus)
            self._first_cols[key] = self.primitives[patch_index].add_shape(shape)
        return self._first_cols[key]

    def _corner_columns(self, patch_index, corner):
        """The first columns of the edge shapes of the two sides of a patch
        corner, each running away from the corner; their gluing data is
        the side's, reversed where it was stored the other way round."""
        out = []
        for side, flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner]):
            idx = self.topology.interface_index(patch_index, side)
            gf, stored = GluingFunctions.artificial(self.sminus), False
            if idx is not None:
                itf = self.topology.interfaces[idx]
                other = patch_index != itf.k  # the l side, stored in the k side's parameter
                gf, stored = self.iface_gluing[idx][other], other and itf.reverse
            gf = gf if stored == flip else gf.reversed()
            out.append(self._edge_columns(patch_index, SideMap(side, flip), gf))
        return out

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

        # every edge shape first: each patch's X is formed once, before the vertex solves read it
        corners = [self._corner_columns(k, corner) for vx in topo.vertices for k, corner in vx.incident]
        counts = np.cumsum([len(prims.shapes) for prims in self.primitives])[:-1]
        shapes = [shape for prims in self.primitives for shape, _ in prims.shapes]
        trace, factors = edge_factors(shapes, self.sol, self.splus, self.sminus, self.strip)
        for prims, block in zip(self.primitives, np.split(factors, counts)):
            prims.write_X(trace, block)
        for vidx, per_patch in enumerate(self._vertex_dofs(corners)):
            for q in range(6):
                add(("vertex", vidx, q), [(k, cols, w[:, q]) for k, cols, w in per_patch])
        return triplets

    def _vertex_dofs(self, corners):
        """Per vertex, per incident patch k, ``(k, cols, weights)``: the 18
        family columns (first edge, second edge, corner) and their (18, 6)
        weights in the six vertex dofs, ``c0, c1, -c2`` stacked; ``corners``
        holds the :meth:`_corner_columns` of every (vertex, incident patch)
        pair, the pairs in the order of the vertices and their incidences.

        All pairs are done at once: a patch's corners are read from one
        2 x 2 grid of its columns, and the 6 x 6 systems of all pairs and
        families are solved as one stack, whose 2-norm condition numbers
        are kept as ``vertex_condition``.
        """
        topo = self.topology
        pairs = [(vidx, k, corner) for vidx, vx in enumerate(topo.vertices) for k, corner in vx.incident]
        cols = np.array([_family_columns(self.sol.dim, corner, *first)
                         for (_, _, corner), first in zip(pairs, corners)])
        jets = np.empty((len(pairs), 18, 6))
        jac, hess = np.empty((len(pairs), 1, 2, 2)), np.empty((len(pairs), 1, 2, 2, 2))
        for k, prims in enumerate(self.primitives):
            mine = [i for i, (_, kk, _) in enumerate(pairs) if kk == k]
            union, inverse = np.unique(cols[mine], return_inverse=True)
            grid = prims.expand(prims.X[union], [0.0, 1.0], [0.0, 1.0])
            _, grid_jac, grid_hess = topo.patches[k].jet_grid([0.0, 1.0], [0.0, 1.0])
            for i, idx in zip(mine, inverse.reshape(len(mine), -1)):
                iu, iv = (int(x) for x in _CORNER_UV[pairs[i][2]])
                jets[i], jac[i, 0], hess[i, 0] = grid[idx, iu, iv], grid_jac[iu, iv], grid_hess[iu, iv]
        # per pair and family, the six jet slots (rows) of its six columns
        M = physical_jet(jets, jac, hess).reshape(-1, 3, 6, 6).swapaxes(2, 3)
        try:
            coeffs = np.linalg.solve(M, np.eye(6))
        except np.linalg.LinAlgError as exc:
            for (vidx, k, _), systems in zip(pairs, M):  # the first pair LAPACK finds singular
                try:
                    np.linalg.solve(systems, np.eye(6))
                except np.linalg.LinAlgError:
                    raise DegenerateVertexError(
                        f"singular corner interpolation at vertex {vidx}, patch {k}",
                        patch=k,
                        vertex=vidx,
                    ) from exc
            raise
        self.vertex_condition = np.linalg.cond(M)
        weights = np.concatenate([coeffs[:, 0], coeffs[:, 1], -coeffs[:, 2]], axis=1)
        out = [[] for _ in topo.vertices]
        for (vidx, k, _), c, w in zip(pairs, cols, weights):
            out[vidx].append((k, c, w))
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


class ConstrainedC1Space:
    """Global space with boundary conditions applied.

    Final dofs are ordered free first, then boundary; boundary-vertex
    blocks are recombined into numerical-kernel (free) and complement
    (boundary) combinations.  ``transform`` (n_total, space.n_dofs) writes
    every final dof over the global dofs, and ``labels`` names them.
    ``E`` (n_total, patches x n_basis), CSR with sorted indices, writes
    every final dof over the ``families`` columns of each patch, side by
    side.
    The constraints are sampled once per boundary edge, on its unflipped
    frame, for the vertex dofs of both of its ends; the samples are split
    per vertex and each boundary vertex takes one :func:`kernel_split`.
    """

    KERNEL_TOL = 1e-8
    EDGE_SAMPLES = 25

    def __init__(self, space, bc_tags):
        self.space = space
        self.bc = dict(bc_tags)
        space.topology.check_bc_tags(self.bc)
        self.sol, self.topology = space.sol, space.topology
        self._partition()
        self.families = space.families
        blocks = [self.transform @ rows @ prims.X for prims, rows in zip(space.primitives, space.patch_rows)]
        self.E = scipy.sparse.hstack(blocks, format="csr")
        self.E.sort_indices()

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

        samples = self._edge_samples(vertex_groups)
        for vidx in sorted(vertex_groups):
            gids = sorted(vertex_groups[vidx])
            vertex = topo.vertices[vidx]
            if vertex.kind == "inner":
                free += [(space.labels[g], [g], [1.0]) for g in gids]
                continue
            # only the kernel is defined, so its bases depend on its
            # projector alone and round-off in the samples does not rotate
            # the free vertex dofs
            kernel, compl = kernel_split(np.vstack(samples[vidx]), self.KERNEL_TOL)
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

    def _edge_samples(self, vertex_groups):
        """Per boundary vertex, the value (and, on 'gn' edges, normal-
        derivative) constraint samples (., 6) of its six vertex dofs on
        each of its boundary edges, in the order of its incident corners;
        ``vertex_groups`` maps a vertex to its dofs.

        Each boundary edge is sampled once, on its unflipped frame, for the
        rows of both of its end vertices: the vertex at t = 0 reads the
        samples at ``ts``, the one at t = 1 those at ``1 - ts`` (the points
        its own reversed frame would form; the outward normal does not
        depend on the orientation).
        """
        space, topo = self.space, self.space.topology
        # vertex functions (trace 0..2, transversal 0..1, tensor indices up
        # to 2 from the corner) vanish beyond 3 elements from the vertex, so
        # the samples run from the vertex across those elements only:
        # spread over a whole edge, too few of them fall inside the support
        # on fine meshes and the constraint matrix loses rank
        ts = np.linspace(0.0, min(1.0, 3 * space.h), self.EDGE_SAMPLES)
        end_vertex = {(k, side, t_flip): vidx
                      for vidx, vertex in enumerate(topo.vertices) for k, corner in vertex.incident
                      for side, t_flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner])}
        blocks = {}
        for k, side in topo.boundary_edges:
            ends = [end_vertex[(k, side, t_flip)] for t_flip in (False, True)]
            gids = [g for vidx in ends for g in sorted(vertex_groups[vidx])]
            W = space.patch_rows[k][gids] @ space.primitives[k].X
            frame = EdgeFrame(topo.patches[k], side)
            rows, _ = constraint_rows(
                space.families, W, frame, np.concatenate([ts, 1.0 - ts]), self.bc[(k, side)]
            )
            # (constraint kind, end of the points, sample, end of the dofs, dof)
            rows = rows.reshape(-1, 2, len(ts), 2, 6)
            for end, t_flip in enumerate((False, True)):
                blocks[(k, side, t_flip)] = rows[:, end, :, end].reshape(-1, 6)
        return {
            vidx: [blocks[(k, side, t_flip)]
                   for k, corner in vertex.incident
                   for side, t_flip in zip(_CORNER_SIDES[corner], _CORNER_FLIP[corner])
                   if (k, side, t_flip) in blocks]
            for vidx, vertex in enumerate(topo.vertices) if vertex.kind != "inner"
        }

    @property
    def n_total(self):
        return len(self.labels)


def homogeneous_subspace(space, bc_tags):
    """Partition the global space into free and boundary dofs under the tags."""
    return ConstrainedC1Space(space, bc_tags)
