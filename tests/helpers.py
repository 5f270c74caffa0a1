"""Shared evaluation helpers for dof-level checks, and queries that only
tests make of splines, topologies and spaces."""

import numpy as np

from mpiga.bspline import JET_ORDERS
from mpiga.errors import ParameterError
from mpiga.geometry import EdgeFrame, SideMap, physical_jet

from oracles import row_jets

CORNER_UV = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}


def greville(space):
    """Greville abscissae (knot averages) of a univariate spline space."""
    k = space.kv.knots
    return np.array([k[i + 1 : i + space.p + 1].mean() for i in range(space.dim)])


def eval_jet(tspace, coeffs, u, v, max_deriv=2):
    """Jet of the tensor spline sum_ij c_ij b_i(u) b_j(v) at scalar (u, v).

    Returns the 6-slot jet (value, du, dv, duu, duv, dvv); entries of
    total order above ``max_deriv`` are zero.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != tspace.shape():
        raise ParameterError(f"coefficient shape {coeffs.shape} does not match {tspace.shape()}")
    du = min(max_deriv, 2)
    (fu,), (tu,) = tspace.space_u.eval_many([u], du)
    (fv,), (tv,) = tspace.space_v.eval_many([v], du)
    block = coeffs[fu : fu + tspace.space_u.p + 1, fv : fv + tspace.space_v.p + 1]
    jet = np.zeros(6)
    for slot, (a, b) in enumerate(JET_ORDERS):
        if a + b <= max_deriv:
            jet[slot] = tu[a] @ block @ tv[b]
    return jet


def conformity_gap(topology, samples=200):
    """Largest pointwise geometry mismatch across all interfaces."""
    ts = np.linspace(0.0, 1.0, samples)
    worst = 0.0
    for itf in topology.interfaces:
        fk = EdgeFrame(topology.patches[itf.k], itf.side_k, False)
        fl = EdgeFrame(topology.patches[itf.l], itf.side_l, itf.reverse)
        gap = np.linalg.norm(fk.points_physical(ts) - fl.points_physical(ts), axis=1)
        worst = max(worst, gap.max())
    return worst


def block_ids(space, kind):
    """Global dof ids of one block kind of a :class:`GlobalC1Space`."""
    return [i for i, lab in enumerate(space.labels) if lab[0] == kind]


def free_labels(view):
    """Labels of the free dofs of a :class:`ConstrainedC1Space`."""
    return view.labels[: view.n_free]


def dof_patches(space, gid):
    """The patches on which global dof ``gid`` has a nonzero row."""
    return {k for k, rows in enumerate(space.patch_rows) if rows.indptr[gid + 1] > rows.indptr[gid]}


def row_jets_at(prims, row, us, vs):
    """Parametric jets (m, 6) of a sparse row over a patch's primitives at
    paired point lists ``us``, ``vs``; evaluation exploits a constant
    coordinate (edge samples) when present."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    if np.ptp(us) == 0.0:
        return row_jets(prims, row, us[:1], vs)[0]
    if np.ptp(vs) == 0.0:
        return row_jets(prims, row, us, vs[:1])[:, 0]
    return np.array([row_jets(prims, row, [u], [v])[0, 0] for u, v in zip(us, vs)])


def dof_jet_on_patch(space, gid, k, us, vs):
    """Parametric jets of one global dof restricted to one patch, from its
    sparse row, at paired point lists (see :func:`row_jets_at`)."""
    return row_jets_at(space.primitives[k], space.patch_rows[k][gid], us, vs)


def physical_dof_jet(space, topo, gid, k, us, vs):
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    out = dof_jet_on_patch(space, gid, k, us, vs)
    patch = topo.patches[k]
    if np.ptp(us) == 0.0:
        _, jac, hess = patch.jet_grid(us[:1], vs)
        return physical_jet(out, jac[0], hess[0])
    if np.ptp(vs) == 0.0:
        _, jac, hess = patch.jet_grid(us, vs[:1])
        return physical_jet(out, jac[:, 0], hess[:, 0])
    for m in range(len(us)):
        _, jac, hess = patch.jet_at(us[m], vs[m])
        out[m] = physical_jet(out[m], jac, hess)
    return out


def two_side_edge_data(space, topo, iface_idx, gid, ts):
    """(trace, matched transversal derivative) from both interface sides."""
    itf = topo.interfaces[iface_idx]
    maps = {itf.k: SideMap(itf.side_k, False), itf.l: SideMap(itf.side_l, itf.reverse)}
    out = {}
    for pos, kk in enumerate((itf.k, itf.l)):
        sm = maps[kk]
        u, v = EdgeFrame(topo.patches[kk], sm.side, sm.t_flip).points(ts)
        jet = dof_jet_on_patch(space, gid, kk, u, v)
        gs = -1.0 if sm.trans_flip else 1.0
        gt = -1.0 if sm.t_flip else 1.0
        if sm.trans_axis == 0:
            dsig, dt = gs * jet[:, 1], gt * jet[:, 2]
        else:
            dsig, dt = gs * jet[:, 2], gt * jet[:, 1]
        g = space.iface_gluing[iface_idx][pos]
        a = g.eval_alpha(ts)[:, 0]
        b = g.eval_beta(ts)[:, 0]
        out[kk] = (jet[:, 0], -(dsig - b * dt) / a)
    return out[itf.k], out[itf.l]


def normal_jump(space, topo, iface_idx, gid, ts):
    """Jump of the true unit-normal derivative across an interface."""
    itf = topo.interfaces[iface_idx]
    frame_k = EdgeFrame(topo.patches[itf.k], itf.side_k, False)
    frame_l = EdgeFrame(topo.patches[itf.l], itf.side_l, itf.reverse)
    normal = frame_k.geom(ts)["n_out"]
    uk, vk = frame_k.points(ts)
    ul, vl = frame_l.points(ts)
    jk = physical_dof_jet(space, topo, gid, itf.k, uk, vk)
    jl = physical_dof_jet(space, topo, gid, itf.l, ul, vl)
    return np.einsum("mc,mc->m", normal, jl[:, 1:3] - jk[:, 1:3])


