"""Planar multi-patch geometry: patches, topology, edge frames, gluing data.

A patch is a tensor-product spline map from the unit square into the
plane with a positively oriented Jacobian.  Patch sides are numbered
1..4: side 1 is v=0, side 2 is u=1, side 3 is v=1, side 4 is u=0; the
natural edge parameter runs along the increasing coordinate.  Corners
are numbered 1..4 at (0,0), (1,0), (1,1), (0,1).

Two patch edges form an interface when their geometry control polygons
coincide (possibly with reversed orientation).  The shared interface
parameter is fixed to the natural direction of the lower-indexed patch,
and the interface normal is that patch's outward unit normal.  The
gluing data of one side relates the side's inward transversal derivative
to the interface frame,

    alpha = -tau * (n . D_in),      beta = (D_in . t0) / tau,

with tangent speed ``tau``, unit tangent ``t0`` and interface normal
``n``.  ``alpha`` is positive on the lower-indexed side and negative on
the other side; this sign carries the orientation so that edge
coefficients couple identically across the interface.
"""

import numpy as np

from .bspline import _SLOT_U, _SLOT_V, SplineSpace, TensorSplineSpace
from .errors import ConformityError, GeometryError, NonManifoldError, ParameterError

#: side -> (transversal axis: 0 for u / 1 for v, transversal flipped?)
_SIDE_TRANS = {1: (1, False), 2: (0, True), 3: (1, True), 4: (0, False)}

#: corner -> parametric coordinates
_CORNER_UV = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}

#: corner -> (corner-local axis flipped?) for u and v
_CORNER_FLIP = {1: (False, False), 2: (True, False), 3: (True, True), 4: (False, True)}

#: corner -> (side of its "bottom" edge, side of its "left" edge)
_CORNER_SIDES = {1: (1, 4), 2: (1, 2), 3: (3, 2), 4: (3, 4)}


class SideMap:
    """Affine index map between edge coordinates (sigma, t) and patch (u, v).

    ``sigma`` is the transversal coordinate (0 on the edge, growing into
    the patch); ``t`` is the edge parameter, optionally reversed against
    the patch's natural direction.
    """

    def __init__(self, side, t_flip=False):
        self.side = side
        self.t_flip = bool(t_flip)
        self.trans_axis, self.trans_flip = _SIDE_TRANS[side]
        self.tang_axis = 1 - self.trans_axis

    def to_patch(self, sigma, t):
        sigma = np.asarray(sigma, dtype=float)
        t = np.asarray(t, dtype=float)
        a = 1.0 - sigma if self.trans_flip else sigma
        b = 1.0 - t if self.t_flip else t
        if self.trans_axis == 0:
            return a, b
        return b, a

    def elements_to_patch(self, e_sigma, e_t, n):
        """Map edge-coordinate element indices to patch element indices."""
        ea = n - 1 - e_sigma if self.trans_flip else e_sigma
        eb = n - 1 - e_t if self.t_flip else e_t
        return (ea, eb) if self.trans_axis == 0 else (eb, ea)


class Patch:
    """Tensor-product spline geometry map with a 2D control net.

    Parameters
    ----------
    space : TensorSplineSpace
        Geometry space (independent of any solution space).
    control : array of shape (Nu, Nv, 2)
        Control points, first index along u, second along v.
    """

    def __init__(self, space, control):
        control = np.asarray(control, dtype=float)
        if control.shape != (space.space_u.dim, space.space_v.dim, 2):
            raise GeometryError(
                f"control net shape {control.shape} does not match geometry space "
                f"{space.shape()} x 2"
            )
        if not np.isfinite(control).all():
            raise GeometryError("control points must be finite")
        self.space = space
        self.control = control

    @classmethod
    def from_degrees(cls, degree_u, degree_v, n_u, n_v, control):
        su = SplineSpace(degree_u, degree_u - 1, n_u) if n_u > 1 else SplineSpace(degree_u, max(degree_u - 1, 0), 1)
        sv = SplineSpace(degree_v, degree_v - 1, n_v) if n_v > 1 else SplineSpace(degree_v, max(degree_v - 1, 0), 1)
        return cls(TensorSplineSpace(su, sv), control)

    def bbox(self):
        pts = self.control.reshape(-1, 2)
        return pts.min(axis=0), pts.max(axis=0)

    def jet_grid(self, us, vs):
        """Geometry jets on a tensor grid.

        ``us`` and ``vs`` may be in any order and may repeat; every point
        is evaluated from its own knot span.  The jets are separable: with
        the dense collocation tables B_u[a] (nu, Nu) and B_v[b] (nv, Nv) of
        the a-th and b-th derivatives of every univariate geometry
        B-spline, derivative (a, b) of component c is B_u[a] C_c B_v[b]^T
        for the control net C_c of that component.

        Returns
        -------
        point : (nu, nv, 2)
        jac : (nu, nv, 2, 2) with jac[..., c, a] the a-derivative of component c
        hess : (nu, nv, 2, 2, 2) with hess[..., c, a, b] second derivatives
        """
        su, sv = self.space.space_u, self.space.space_v
        bu = su.eval_columns(np.arange(su.dim), us, 2).transpose(2, 1, 0)  # (3, nu, Nu)
        bv = sv.eval_columns(np.arange(sv.dim), vs, 2).transpose(2, 0, 1)  # (3, Nv, nv)
        # einsum adds the products in index order, as a sum over one point's
        # knot-span window does.  The second-derivative sums cancel, and
        # a BLAS product, summing in another order, moved them by up to
        # 2e-14 of their size on the built-in patches.
        left = np.einsum("aun,nmc->acum", bu, self.control)  # (3, 2, nu, Nv)
        jets = np.einsum("scum,smv->scuv", left[_SLOT_U], bv[_SLOT_V])  # (6, 2, nu, nv)
        jac = jets[[1, 2]].transpose(2, 3, 1, 0)
        hess = jets[[3, 4, 4, 5]].reshape(2, 2, 2, *jets.shape[2:]).transpose(3, 4, 2, 0, 1)
        return jets[0].transpose(1, 2, 0), jac, hess

    def jet_at(self, u, v):
        point, jac, hess = self.jet_grid([u], [v])
        return point[0, 0], jac[0, 0], hess[0, 0]

    def corner_point(self, corner):
        u, v = _CORNER_UV[corner]
        return self.jet_grid([u], [v])[0][0, 0]

    def edge_control(self, side):
        """Control points along a side in the natural edge order."""
        if side == 1:
            return self.control[:, 0, :]
        if side == 2:
            return self.control[-1, :, :]
        if side == 3:
            return self.control[:, -1, :]
        if side == 4:
            return self.control[0, :, :]
        raise GeometryError(f"invalid side {side}")

    def check_regularity(self, samples=12, floor=0.0):
        """Sample det(J) on a grid; raise if it is not strictly positive."""
        xs = np.linspace(0.0, 1.0, samples)
        _, jac, _ = self.jet_grid(xs, xs)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        if not det.min() > floor:
            raise GeometryError(
                f"non-positive Jacobian determinant (min {det.min():.3e}) on sampled grid"
            )
        return det.min()


class InterfaceRecord:
    """A conforming interface between patch ``k`` (side ``side_k``) and ``l``."""

    def __init__(self, k, side_k, l, side_l, reverse):
        self.k = k
        self.side_k = side_k
        self.l = l
        self.side_l = side_l
        self.reverse = bool(reverse)

    def __repr__(self):
        arrow = "~" if self.reverse else "="
        return f"Interface({self.k}:{self.side_k} {arrow} {self.l}:{self.side_l})"


class VertexRecord:
    """A unique multi-patch vertex with its incident patch corners."""

    def __init__(self, kind, incident, position):
        self.kind = kind  # 'corner' | 'boundary' | 'inner'
        self.incident = incident  # ordered list of (patch index, corner 1..4)
        self.position = np.asarray(position, dtype=float)

    @property
    def valence(self):
        return len(self.incident)

    def __repr__(self):
        return f"Vertex({self.kind}, valence={self.valence}, at {self.position})"


class Topology:
    """Patches plus detected interfaces, boundary edges and vertices."""

    def __init__(self, patches, interfaces, boundary_edges, vertices, tol):
        self.patches = patches
        self.interfaces = interfaces
        self.boundary_edges = boundary_edges  # list of (patch, side)
        self.vertices = vertices
        self.tol = tol
        self._iface_of_side = {}
        for idx, itf in enumerate(interfaces):
            self._iface_of_side[(itf.k, itf.side_k)] = idx
            self._iface_of_side[(itf.l, itf.side_l)] = idx
        self._boundary_set = set(boundary_edges)

    def interface_index(self, patch, side):
        return self._iface_of_side.get((patch, side))

    def is_boundary_edge(self, patch, side):
        return (patch, side) in self._boundary_set

    def check_bc_tags(self, bc_tags):
        """Raise :class:`ParameterError` unless the keys of a boundary
        condition mapping are exactly the boundary edges (patch, side) and
        every tag is 'gn' or 'gl'."""
        stray = [e for e in bc_tags if e not in self._boundary_set]
        if stray:
            raise ParameterError(f"boundary condition tags on edges that are not boundary edges: {stray}")
        missing = [e for e in self.boundary_edges if e not in bc_tags]
        if missing:
            raise ParameterError(f"boundary edges without condition tag: {missing}")
        bad = {v for v in bc_tags.values() if v not in ("gn", "gl")}
        if bad:
            raise ParameterError(f"unknown boundary tags {bad}; use 'gn' or 'gl'")


def _domain_tolerance(patches, tol):
    lo = np.min([p.bbox()[0] for p in patches], axis=0)
    hi = np.max([p.bbox()[1] for p in patches], axis=0)
    diag = float(np.linalg.norm(hi - lo))
    return (1e-9 * diag if tol is None else tol), diag


def _polyline_distance(points, poly):
    """Distance from each point to a sampled polyline (min over segments)."""
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = np.einsum("sc,sc->s", ab, ab)
    denom[denom == 0.0] = 1.0
    out = np.empty(len(points))
    for i, x in enumerate(points):
        tproj = np.clip(np.einsum("sc,sc->s", x - a, ab) / denom, 0.0, 1.0)
        foot = a + tproj[:, None] * ab
        out[i] = np.linalg.norm(foot - x, axis=1).min()
    return out


def detect_topology(patches, tol=None):
    """Match patch edges into interfaces and classify vertices.

    Edges are matched iff their control point sequences coincide up to
    orientation within ``tol`` (default 1e-9 times the bounding-box
    diagonal).  Raises :class:`NonManifoldError` when an edge matches
    more than one partner and :class:`ConformityError` for partially
    overlapping, non-matching edges.
    """
    patches = list(patches)
    tol, _ = _domain_tolerance(patches, tol)
    for p in patches:
        p.check_regularity()

    sides = [(k, s) for k in range(len(patches)) for s in (1, 2, 3, 4)]
    controls = {ks: patches[ks[0]].edge_control(ks[1]) for ks in sides}

    def edges_match(ca, cb):
        if ca.shape != cb.shape:
            return None
        if np.abs(ca - cb).max() <= tol:
            return False
        if np.abs(ca - cb[::-1]).max() <= tol:
            return True
        return None

    partners = {ks: [] for ks in sides}
    for i, ksa in enumerate(sides):
        for ksb in sides[i + 1 :]:
            if ksa[0] == ksb[0]:
                continue  # self-gluing is out of scope
            rev = edges_match(controls[ksa], controls[ksb])
            if rev is not None:
                partners[ksa].append((ksb, rev))
                partners[ksb].append((ksa, rev))

    interfaces, boundary = [], []
    for ks in sides:
        found = partners[ks]
        if len(found) > 1:
            raise NonManifoldError(f"edge {ks} matches more than one other edge: {found}")
        if not found:
            boundary.append(ks)
        else:
            (other, rev) = found[0]
            if ks < other:
                interfaces.append(InterfaceRecord(ks[0], ks[1], other[0], other[1], rev))

    # partial-overlap guard: unmatched edge pairs must not share interior arcs
    probe = np.linspace(0.1, 0.9, 9)
    dense = np.linspace(0.0, 1.0, 201)
    for i, ksa in enumerate(sides):
        if partners[ksa]:
            continue
        fa = EdgeFrame(patches[ksa[0]], ksa[1], False)
        pa = fa.points_physical(probe)
        for ksb in sides[i + 1 :]:
            if ksa[0] == ksb[0] or partners[ksb]:
                continue
            fb = EdgeFrame(patches[ksb[0]], ksb[1], False)
            dist = _polyline_distance(pa, fb.points_physical(dense))
            if (dist <= 10.0 * tol).sum() >= 2:
                raise ConformityError(
                    f"edges {ksa} and {ksb} overlap without matching parametrizations"
                )

    # vertices: group patch corners by position
    corner_pts = {}
    for k in range(len(patches)):
        for c in (1, 2, 3, 4):
            corner_pts[(k, c)] = patches[k].corner_point(c)
    groups = []
    for key, pt in sorted(corner_pts.items()):
        for grp in groups:
            if np.linalg.norm(grp["pos"] - pt) <= tol:
                grp["members"].append(key)
                break
        else:
            groups.append({"pos": pt, "members": [key]})

    bnd_set = set(boundary)
    vertices = []
    for grp in groups:
        members = sorted(grp["members"])
        on_boundary = any(
            (k, s) in bnd_set for (k, c) in members for s in _CORNER_SIDES[c]
        )
        if not on_boundary:
            kind = "inner"
        elif len(members) == 1:
            kind = "corner"
        else:
            kind = "boundary"
        vertices.append(VertexRecord(kind, members, grp["pos"]))

    return Topology(patches, interfaces, boundary, vertices, tol)


class EdgeFrame:
    """Evaluators along one canonicalized patch edge.

    The edge parameter ``t`` traverses the edge, reversed against the
    patch's natural direction when ``t_flip`` is set; the transversal
    direction points into the patch.
    """

    def __init__(self, patch, side, t_flip=False):
        self.patch = patch
        self.side = side
        self.map = SideMap(side, t_flip)

    def points(self, ts):
        """Parametric (u, v) points on the edge."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        u, v = self.map.to_patch(np.zeros_like(ts), ts)
        return u, v

    def line(self, ts):
        """Tensor-grid arguments ``(us, vs)`` holding the edge points, and the
        grid axis of length one to drop from results evaluated on them."""
        u, v = self.points(ts)
        if self.map.trans_axis == 0:
            return u[:1], v, 0
        return u, v[:1], 1

    def line_jets(self, ts):
        """Geometry point, Jacobian and Hessians at the edge points.

        Shapes (m, 2), (m, 2, 2) and (m, 2, 2, 2), from one grid evaluation
        along the edge line.
        """
        us, vs, axis = self.line(ts)
        return tuple(np.take(a, 0, axis=axis) for a in self.patch.jet_grid(us, vs))

    def points_physical(self, ts):
        return self.line_jets(ts)[0]

    def geom(self, ts):
        """Edge frame quantities at the given parameters, from one
        :meth:`line_jets` evaluation.

        Returns a dict with ``point``, ``tangent`` (dF/dt), ``tau``,
        ``t0``, ``d_in`` (inward transversal derivative of F), ``n_out``
        (unit outward normal) and the geometry's ``jac`` and ``hess`` at
        the edge points.
        """
        point, jac, hess = self.line_jets(ts)
        sgn_t = -1.0 if self.map.t_flip else 1.0
        sgn_s = -1.0 if self.map.trans_flip else 1.0
        tangent = sgn_t * jac[:, :, self.map.tang_axis]
        d_in = sgn_s * jac[:, :, self.map.trans_axis]
        tau = np.linalg.norm(tangent, axis=1)
        if tau.min() <= 0.0:
            raise GeometryError(f"zero tangent speed on side {self.side}")
        t0 = tangent / tau[:, None]
        # rotate the unit tangent; pick the sign pointing away from the patch
        rot = np.stack([-t0[:, 1], t0[:, 0]], axis=1)
        sign = np.where(np.einsum("mc,mc->m", rot, d_in) < 0.0, 1.0, -1.0)
        n_out = rot * sign[:, None]
        return {
            "point": point,
            "tangent": tangent,
            "tau": tau,
            "t0": t0,
            "d_in": d_in,
            "n_out": n_out,
            "jac": jac,
            "hess": hess,
        }


def interface_frames(topology, iface):
    """Edge frames of both interface sides sharing the interface parameter."""
    itf = topology.interfaces[iface] if isinstance(iface, int) else iface
    frame_k = EdgeFrame(topology.patches[itf.k], itf.side_k, False)
    frame_l = EdgeFrame(topology.patches[itf.l], itf.side_l, itf.reverse)
    return frame_k, frame_l


def gluing_data(topology, iface, side, ts):
    """Signed gluing data (alpha, beta) of one interface side.

    ``side`` is the patch index (either end of the interface).  The
    normal is anchored at the lower-indexed patch, making ``alpha``
    positive there and negative on the opposite side; ``beta`` is the
    tangential shear ratio.  For a regular pair neither function changes
    sign along the interface.
    """
    itf = topology.interfaces[iface] if isinstance(iface, int) else iface
    frame_k, frame_l = interface_frames(topology, itf)
    gk = frame_k.geom(ts)
    if side == itf.k:
        d_in = gk["d_in"]
    elif side == itf.l:
        d_in = frame_l.geom(ts)["d_in"]
    else:
        raise KeyError(f"patch {side} not part of {itf}")
    return side_gluing(gk, d_in)


def side_gluing(geom_k, d_in):
    """Gluing data (alpha, beta) of an interface side from the
    :meth:`EdgeFrame.geom` of the lower-indexed side and the inward
    transversal derivative ``d_in`` of the side, at the same interface
    parameters (see :func:`gluing_data`)."""
    tau, t0, n = geom_k["tau"], geom_k["t0"], geom_k["n_out"]
    alpha = -tau * np.einsum("mc,mc->m", n, d_in)
    beta = np.einsum("mc,mc->m", d_in, t0) / tau
    return alpha, beta


def _inverse_transpose(jac):
    """P = J^{-T} (..., 2, 2) of Jacobians (..., 2, 2), so that the physical
    gradient is P grad_uv.  Raises :class:`GeometryError` where det J is
    not positive."""
    xu, xv = jac[..., 0, 0], jac[..., 0, 1]
    yu, yv = jac[..., 1, 0], jac[..., 1, 1]
    det = xu * yv - xv * yu
    if not np.all(det > 0.0):
        raise GeometryError(
            f"non-positive Jacobian determinant (min {np.min(det):.3e}) in jet transform"
        )
    P = np.empty(jac.shape)
    P[..., 0, 0], P[..., 0, 1] = yv / det, -yu / det
    P[..., 1, 0], P[..., 1, 1] = -xv / det, xu / det
    return P


def laplacian_rows(jac, hess):
    """Per-point row of the physical Laplacian acting on parametric 2-jets.

    Returns L of shape (..., 6) with L . (value, du, dv, duu, duv, dvv) =
    dxx + dyy, slots 3 and 5 of :func:`physical_jet` written out as rows:
    with P = J^{-T}, the second-derivative slots hold
    s = (sum_i P_i0^2, 2 sum_i P_i0 P_i1, sum_i P_i1^2) and the gradient
    slots -(sum_slot s H_c) P, where H_c holds the (uu, uv, vv) second
    derivatives of geometry component c.  The value entry is zero.  Raises
    :class:`GeometryError` where det J is not positive.
    """
    jac = np.asarray(jac, dtype=float)
    hess = np.asarray(hess, dtype=float)
    P = _inverse_transpose(jac)
    p11, p12, p21, p22 = P[..., 0, 0], P[..., 0, 1], P[..., 1, 0], P[..., 1, 1]
    out = np.zeros(jac.shape[:-2] + (6,))
    s_uu, s_uv, s_vv = p11 * p11 + p21 * p21, 2.0 * (p11 * p12 + p21 * p22), p12 * p12 + p22 * p22
    out[..., 3], out[..., 4], out[..., 5] = s_uu, s_uv, s_vv
    # sum over the slots of s times the Hessian of each component
    sh_x = s_uu * hess[..., 0, 0, 0] + s_uv * hess[..., 0, 0, 1] + s_vv * hess[..., 0, 1, 1]
    sh_y = s_uu * hess[..., 1, 0, 0] + s_uv * hess[..., 1, 0, 1] + s_vv * hess[..., 1, 1, 1]
    out[..., 1] = -(sh_x * p11 + sh_y * p21)
    out[..., 2] = -(sh_x * p12 + sh_y * p22)
    return out


def physical_jet(jets, jac, hess):
    """Transform parametric 2-jets into physical-space 2-jets.

    ``jets`` has shape (..., 6) in the order (value, du, dv, duu, duv,
    dvv); ``jac`` (..., 2, 2) and ``hess`` (..., 2, 2, 2) broadcast
    against its leading axes.  Returns (..., 6) jets (value, dx, dy, dxx,
    dxy, dyy) by the chain rule: g = P grad_uv with P = J^{-T}, and the
    second derivatives P (H_uv - g_x H_x - g_y H_y) P^T with the Hessians
    H_x, H_y of the geometry components.  Raises :class:`GeometryError`
    where det J is not positive.
    """
    jets = np.asarray(jets, dtype=float)
    hess = np.asarray(hess, dtype=float)
    P = _inverse_transpose(np.asarray(jac, dtype=float))
    p11, p12, p21, p22 = P[..., 0, 0], P[..., 0, 1], P[..., 1, 0], P[..., 1, 1]
    gx = p11 * jets[..., 1] + p12 * jets[..., 2]
    gy = p21 * jets[..., 1] + p22 * jets[..., 2]
    muu = jets[..., 3] - gx * hess[..., 0, 0, 0] - gy * hess[..., 1, 0, 0]
    muv = jets[..., 4] - gx * hess[..., 0, 0, 1] - gy * hess[..., 1, 0, 1]
    mvv = jets[..., 5] - gx * hess[..., 0, 1, 1] - gy * hess[..., 1, 1, 1]
    out = np.empty(muu.shape + (6,))
    out[..., 0], out[..., 1], out[..., 2] = jets[..., 0], gx, gy
    out[..., 3] = p11 * p11 * muu + 2.0 * p11 * p12 * muv + p12 * p12 * mvv
    out[..., 4] = p11 * p21 * muu + (p11 * p22 + p12 * p21) * muv + p12 * p22 * mvv
    out[..., 5] = p21 * p21 * muu + 2.0 * p21 * p22 * muv + p22 * p22 * mvv
    return out


def patch_to_dict(patch):
    """Serializable description of a patch (see the geometry JSON schema)."""
    su, sv = patch.space.space_u, patch.space.space_v
    nu, nv = su.dim, sv.dim
    return {
        "degree_u": su.p,
        "degree_v": sv.p,
        "knots_u": list(map(float, su.kv.knots)),
        "knots_v": list(map(float, sv.kv.knots)),
        "control_points": [
            [float(patch.control[i, j, 0]), float(patch.control[i, j, 1])]
            for i in range(nu)
            for j in range(nv)
        ],
    }


def _space_from_knots(degree, knots):
    try:
        knots = np.asarray(knots, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"knot vector is not a list of numbers: {exc}") from exc
    if knots.ndim != 1 or len(knots) < 2 or knots[0] != 0.0 or knots[-1] != 1.0:
        raise GeometryError("knot vectors must span [0, 1]")
    interior = np.unique(knots[(knots > 0.0) & (knots < 1.0)])
    n = len(interior) + 1
    r = degree - np.count_nonzero(np.isclose(knots, interior[0])) if n > 1 else max(degree - 1, 0)
    space = SplineSpace(degree, r, n)
    if len(space.kv.knots) != len(knots) or not np.abs(space.kv.knots - knots).max() <= 1e-12:
        raise GeometryError("only uniform open knot vectors are supported")
    return space


def patch_from_dict(data):
    """Inverse of :func:`patch_to_dict`, with schema validation."""
    try:
        du, dv = int(data["degree_u"]), int(data["degree_v"])
        ku, kv = data["knots_u"], data["knots_v"]
        cps = np.asarray(data["control_points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed patch record: {exc}") from exc
    su = _space_from_knots(du, ku)
    sv = _space_from_knots(dv, kv)
    if cps.ndim != 2 or cps.shape[1] != 2 or cps.shape[0] != su.dim * sv.dim:
        raise GeometryError(
            f"control_points must be {su.dim * sv.dim} rows of [x, y], got {cps.shape}"
        )
    control = cps.reshape(su.dim, sv.dim, 2)
    return Patch(TensorSplineSpace(su, sv), control)
