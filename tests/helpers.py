"""Shared evaluation helpers for dof-level checks."""

import numpy as np

from mpiga.geometry import EdgeFrame, SideMap, physical_jet

from oracles import piece_jets

CORNER_UV = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}


def dof_jet_on_patch(space, gid, k, us, vs):
    """Parametric jets of one global dof restricted to one patch.

    ``us`` and ``vs`` are paired point lists; evaluation exploits a
    constant coordinate (edge samples) when present.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    out = np.zeros((len(us), 6))
    const_u = np.ptp(us) == 0.0
    const_v = np.ptp(vs) == 0.0
    for (kk, ev) in space.supports[gid]:
        if kk != k:
            continue
        if const_u:
            out += piece_jets(ev, us[:1], vs)[0]
        elif const_v:
            out += piece_jets(ev, us, vs[:1])[:, 0]
        else:
            for m in range(len(us)):
                out[m] += piece_jets(ev, us[m : m + 1], vs[m : m + 1])[0, 0]
    return out


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


