import numpy as np
import pytest

from mpiga.bspline import SplineSpace, TensorSplineSpace
from mpiga.errors import ConformityError, GeometryError, NonManifoldError
from mpiga.geometry import (
    Patch,
    detect_topology,
    gluing_data,
    interface_frames,
    patch_from_dict,
    patch_to_dict,
    physical_jet,
)

from helpers import conformity_gap
from oracles import canonical_edge, eval_geometry, exact_normal_derivative, fd_gradient


def bilinear(c00, c10, c11, c01):
    sp = SplineSpace(1, 0, 1)
    ctrl = np.empty((2, 2, 2))
    ctrl[0, 0], ctrl[1, 0], ctrl[1, 1], ctrl[0, 1] = c00, c10, c11, c01
    return Patch(TensorSplineSpace(sp, sp), ctrl)


def unit_square(x0=0.0, y0=0.0, w=1.0, h=1.0):
    return bilinear((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h))


def bicubic_wavy():
    """Curved single patch used for finite-difference and oracle checks."""
    sp = SplineSpace(3, 2, 1)
    u = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    ctrl = np.empty((4, 4, 2))
    for i in range(4):
        for j in range(4):
            ctrl[i, j] = (
                u[i] + 0.08 * np.sin(np.pi * u[j]),
                u[j] + 0.06 * u[i] * (1 - u[i]),
            )
    return Patch(TensorSplineSpace(sp, sp), ctrl)


# -- topology ---------------------------------------------------------------


def test_single_patch_topology(topo1):
    assert len(topo1.interfaces) == 0
    assert len(topo1.boundary_edges) == 4
    assert len(topo1.vertices) == 4
    assert all(v.kind == "corner" for v in topo1.vertices)


def test_two_patch_topology():
    topo = detect_topology([unit_square(0, 0), unit_square(1, 0)])
    assert len(topo.interfaces) == 1
    assert len(topo.boundary_edges) == 6
    assert len(topo.vertices) == 6
    kinds = sorted(v.kind for v in topo.vertices)
    assert kinds.count("boundary") == 2
    assert kinds.count("corner") == 4


def test_six_patch_golden_counts(topo6):
    assert len(topo6.interfaces) == 7
    assert len(topo6.boundary_edges) == 10
    inner = sorted(v.valence for v in topo6.vertices if v.kind == "inner")
    assert inner == [3, 4]


def test_non_manifold_edge():
    a = unit_square(0, 0)
    b = unit_square(1, 0)
    c = unit_square(1, 0)  # duplicates b: a's right edge matches two partners
    with pytest.raises(NonManifoldError):
        detect_topology([a, b, c])


def test_partial_overlap_is_conformity_error():
    a = unit_square(0, 0)
    b = bilinear((1, 0), (2, 0), (2, 0.5), (1, 0.5))  # half-height neighbour
    with pytest.raises(ConformityError):
        detect_topology([a, b])


def test_topology_determinism_under_permutation(topo6):
    perm = [3, 1, 5, 0, 4, 2]
    topo_p = detect_topology([topo6.patches[k] for k in perm])
    assert len(topo_p.interfaces) == len(topo6.interfaces)
    assert len(topo_p.boundary_edges) == len(topo6.boundary_edges)
    assert sorted(v.valence for v in topo_p.vertices) == sorted(
        v.valence for v in topo6.vertices
    )
    assert sorted(v.kind for v in topo_p.vertices) == sorted(v.kind for v in topo6.vertices)
    assert all(itf.k < itf.l for itf in topo_p.interfaces)


def test_conformity_gap(topo6, topo6c):
    for topo in (topo6, topo6c):
        assert conformity_gap(topo) <= 1e-10 * np.sqrt(2.0)


# -- geometry evaluation ----------------------------------------------------


def test_eval_geometry_identity():
    pt, jac, hess = eval_geometry(unit_square(), 0.3, 0.7)
    assert np.allclose(pt, [0.3, 0.7])
    assert np.allclose(jac, np.eye(2))
    assert np.abs(hess).max() == 0.0


def test_eval_geometry_affine():
    A = np.array([[2.0, 0.5], [0.3, 1.5]])
    b = np.array([0.1, -0.2])
    sp = SplineSpace(1, 0, 1)
    ctrl = np.empty((2, 2, 2))
    for i, u in enumerate((0.0, 1.0)):
        for j, v in enumerate((0.0, 1.0)):
            ctrl[i, j] = A @ (u, v) + b
    patch = Patch(TensorSplineSpace(sp, sp), ctrl)
    for uv in [(0.1, 0.9), (0.5, 0.5)]:
        _, jac, hess = eval_geometry(patch, *uv)
        assert np.abs(jac - A).max() <= 1e-14
        assert np.abs(hess).max() <= 1e-13


def test_eval_geometry_jacobian_vs_fd():
    patch = bicubic_wavy()
    step = 1e-6
    for (u, v) in [(0.3, 0.4), (0.72, 0.18)]:
        _, jac, _ = eval_geometry(patch, u, v)
        for comp in range(2):
            gx, gy = fd_gradient(
                lambda uu, vv, c=comp: patch.jet_at(uu, vv)[0][c], u, v, step
            )
            assert abs(jac[comp, 0] - gx) <= 1e-6 * max(1.0, abs(gx))
            assert abs(jac[comp, 1] - gy) <= 1e-6 * max(1.0, abs(gy))


def test_degenerate_patch_rejected():
    bad = bilinear((0, 0), (1, 0), (1, 0), (0, 0))  # collapsed top edge
    with pytest.raises(GeometryError):
        bad.check_regularity()


# -- edge frames and gluing data ---------------------------------------------


def test_canonical_edge_identity_sides():
    patch = unit_square()
    ts = np.linspace(0, 1, 7)
    g4 = canonical_edge(patch, 4).geom(ts)
    assert np.allclose(g4["tangent"], [0.0, 1.0])
    assert np.allclose(g4["tau"], 1.0)
    assert np.allclose(g4["d_in"], [1.0, 0.0])
    assert np.allclose(g4["n_out"], [-1.0, 0.0])
    g2 = canonical_edge(patch, 2).geom(ts)
    assert np.allclose(g2["d_in"], [-1.0, 0.0])  # transversal points inward (-x)
    assert np.allclose(g2["n_out"], [1.0, 0.0])


def test_reversed_interface_frames_agree():
    a = unit_square(0, 0)
    # neighbour parametrized with reversed edge direction
    b = bilinear((2, 1), (1, 1), (1, 0), (2, 0))
    topo = detect_topology([a, b])
    itf = topo.interfaces[0]
    assert itf.reverse
    fk, fl = interface_frames(topo, 0)
    ts = np.linspace(0, 1, 100)
    assert np.abs(fk.points_physical(ts) - fl.points_physical(ts)).max() <= 1e-12


def test_gluing_data_axis_aligned():
    topo = detect_topology([unit_square(0, 0), unit_square(1, 0)])
    itf = topo.interfaces[0]
    ts = np.linspace(0, 1, 9)
    ak, bk = gluing_data(topo, 0, itf.k, ts)
    al, bl = gluing_data(topo, 0, itf.l, ts)
    assert np.allclose(np.abs(ak), 1.0) and np.allclose(np.abs(al), 1.0)
    assert ak[0] * al[0] < 0  # opposite signs across the interface
    assert np.abs(bk).max() <= 1e-14 and np.abs(bl).max() <= 1e-14


def test_gluing_data_shear_closed_form():
    c = 0.7
    patch = bilinear((0, 0), (1, 0), (1 + c, 1), (c, 1))  # F = (u + c v, v)
    frame = canonical_edge(patch, 4)
    ts = np.linspace(0, 1, 11)
    g = frame.geom(ts)
    alpha = -g["tau"] * np.einsum("mc,mc->m", g["n_out"], g["d_in"])
    beta = np.einsum("mc,mc->m", g["d_in"], g["t0"]) / g["tau"]
    assert np.abs(alpha - 1.0).max() <= 1e-13
    assert np.abs(beta - c / (1 + c * c)).max() <= 1e-13


def test_gluing_data_sign_constant_on_curved_interface(topo2c):
    itf = topo2c.interfaces[0]
    ts = np.linspace(0, 1, 200)
    for side in (itf.k, itf.l):
        alpha, _ = gluing_data(topo2c, 0, side, ts)
        assert alpha.max() * alpha.min() > 0.0


def test_exact_normal_derivative_identity():
    patch = unit_square()
    frame = canonical_edge(patch, 4)
    ts = np.linspace(0, 1, 5)
    # f(u,v) = u: transversal derivative 1, tangential 0
    nd = exact_normal_derivative(frame, np.ones(5), np.zeros(5), ts)
    assert np.allclose(nd, -1.0)
    # f(u,v) = v: tangential function
    nd = exact_normal_derivative(frame, np.zeros(5), np.ones(5), ts)
    assert np.abs(nd).max() <= 1e-14


def test_exact_normal_derivative_curved_oracle():
    patch = bicubic_wavy()
    frame = canonical_edge(patch, 4)
    ts = np.linspace(0.05, 0.95, 7)
    g = frame.geom(ts)

    def phi(x, y):
        return x * x + y * y

    # parametric derivatives of the pulled-back f = phi o F on the edge
    dsig = np.empty(len(ts))
    dtan = np.empty(len(ts))
    grad_phys = np.empty((len(ts), 2))
    for m, t in enumerate(ts):
        u, v = frame.points([t])
        _, jac, _ = patch.jet_at(u[0], v[0])
        gp = np.array([2 * g["point"][m, 0], 2 * g["point"][m, 1]])
        grad_phys[m] = gp
        grad_uv = jac.T @ gp
        dsig[m], dtan[m] = grad_uv[0], grad_uv[1]
    nd = exact_normal_derivative(frame, dsig, dtan, ts)
    ref = np.einsum("mc,mc->m", g["n_out"], grad_phys)
    assert np.abs(nd - ref).max() <= 1e-10


def test_normal_consistency_across_interfaces(topo6c):
    ts = np.linspace(0, 1, 50)
    for idx, itf in enumerate(topo6c.interfaces):
        fk, fl = interface_frames(topo6c, idx)
        nk = fk.geom(ts)["n_out"]
        nl = fl.geom(ts)["n_out"]
        assert np.abs(nk + nl).max() <= 1e-10


def test_c1_function_check(topo6c):
    # for a globally smooth function the outward normal derivatives are opposite
    ts = np.linspace(0, 1, 60)

    def grad_phi(x, y):
        return np.stack([2 * x + y, x - 3 * y * y], axis=-1)

    for idx, itf in enumerate(topo6c.interfaces):
        fk, fl = interface_frames(topo6c, idx)
        vals = []
        for frame, kk in ((fk, itf.k), (fl, itf.l)):
            g = frame.geom(ts)
            u, v = frame.points(ts)
            sm = frame.map
            gs = -1.0 if sm.trans_flip else 1.0
            gt = -1.0 if sm.t_flip else 1.0
            dsig = np.empty(len(ts))
            dtan = np.empty(len(ts))
            for m in range(len(ts)):
                _, jac, _ = topo6c.patches[kk].jet_at(u[m], v[m])
                guv = jac.T @ grad_phi(*g["point"][m])
                dsig[m] = gs * guv[sm.trans_axis]
                dtan[m] = gt * guv[sm.tang_axis]
            vals.append(exact_normal_derivative(frame, dsig, dtan, ts))
        assert np.abs(vals[0] + vals[1]).max() <= 1e-10


def test_g1_graph_relation(topo6c):
    # alpha_k D_in_l - alpha_l D_in_k + (alpha_l beta_k - alpha_k beta_l) t = 0
    ts = np.linspace(0, 1, 40)
    for idx, itf in enumerate(topo6c.interfaces):
        fk, fl = interface_frames(topo6c, idx)
        gk, gl = fk.geom(ts), fl.geom(ts)
        ak, bk = gluing_data(topo6c, idx, itf.k, ts)
        al, bl = gluing_data(topo6c, idx, itf.l, ts)
        resid = (
            ak[:, None] * gl["d_in"]
            - al[:, None] * gk["d_in"]
            + (al * bk - ak * bl)[:, None] * gk["tangent"]
        )
        scale = np.abs(gk["tangent"]).max()
        assert np.abs(resid).max() <= 1e-9 * scale


# -- physical jets -----------------------------------------------------------


def test_physical_jet_identity():
    jets = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    jac = np.eye(2)
    hess = np.zeros((2, 2, 2))
    out = physical_jet(jets, jac, hess)
    assert np.allclose(out, jets)


def test_physical_jet_affine():
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    jac = A
    hess = np.zeros((2, 2, 2))
    jets = np.array([0.7, 1.0, -2.0, 0.3, 0.9, -1.1])
    out = physical_jet(jets, jac, hess)
    Ainv = np.linalg.inv(A)
    g = Ainv.T @ jets[1:3]
    H = np.array([[jets[3], jets[4]], [jets[4], jets[5]]])
    Hp = Ainv.T @ H @ Ainv
    assert np.allclose(out[1:3], g)
    assert np.allclose([out[3], out[4], out[5]], [Hp[0, 0], Hp[0, 1], Hp[1, 1]])


def test_patch_dict_roundtrip(topo2c):
    patch = topo2c.patches[0]
    rec = patch_to_dict(patch)
    back = patch_from_dict(rec)
    assert np.abs(back.control - patch.control).max() == 0.0
