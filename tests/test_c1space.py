import numpy as np
import pytest

from mpiga import c1space
from mpiga.bspline import SplineSpace, gauss_legendre
from mpiga.c1space import (
    ConstrainedC1Space,
    GluingFunctions,
    approximate_gluing_data,
    build_c1_space,
    constraint_rows,
    edge_dof_indices,
    homogeneous_subspace,
    interior_indices,
)
from mpiga.errors import DegenerateVertexError, ParameterError
from mpiga.fixtures import BUILTIN_NAMES, builtin_geometry
from mpiga.geometry import _CORNER_SIDES, EdgeFrame, SideMap, gluing_data, physical_jet
from mpiga.linalg import kernel_split

from oracles import (
    per_pair_vertex_rows,
    per_vertex_kernel,
    sampled_nullspace,
    vertex_gids,
    view_rows,
)

from helpers import (
    CORNER_UV,
    block_ids,
    dof_jet_on_patch,
    dof_patches,
    free_labels,
    normal_jump,
    physical_dof_jet,
    row_jets_at,
    two_side_edge_data,
)

# -- approximated gluing data -------------------------------------------------


def test_gluing_projection_axis_aligned():
    from mpiga.geometry import detect_topology
    from mpiga.bspline import TensorSplineSpace
    from mpiga.geometry import Patch

    def sq(x0):
        sp = SplineSpace(1, 0, 1)
        c = np.empty((2, 2, 2))
        for i, u in enumerate((0.0, 1.0)):
            for j, v in enumerate((0.0, 1.0)):
                c[i, j] = (x0 + u, v)
        return Patch(TensorSplineSpace(sp, sp), c)

    topo = detect_topology([sq(0.0), sq(1.0)])
    gk, gl = approximate_gluing_data(topo, 0, 3, 4)
    assert np.abs(np.abs(gk.alpha) - 1.0).max() <= 1e-12
    assert np.abs(np.abs(gl.alpha) - 1.0).max() <= 1e-12
    assert np.abs(gk.beta).max() <= 1e-12 and np.abs(gl.beta).max() <= 1e-12


def test_gluing_projection_exact_for_linear_data(topo6):
    # bilinear patches have gluing data in the projection space already
    ts = np.linspace(0, 1, 57)
    for idx, itf in enumerate(topo6.interfaces):
        gk, gl = approximate_gluing_data(topo6, idx, 3, 4)
        for side, gf in ((itf.k, gk), (itf.l, gl)):
            a_exact, b_exact = gluing_data(topo6, idx, side, ts)
            assert np.abs(gf.eval_alpha(ts)[:, 0] - a_exact).max() <= 1e-12
            assert np.abs(gf.eval_beta(ts)[:, 0] - b_exact).max() <= 1e-12


def test_gluing_projection_rate(topo2c):
    # the rational shear ratio is projected at rate h^(ptilde+1)
    itf = topo2c.interfaces[0]
    p = 3
    xg, wg = gauss_legendre(10)
    errs = []
    for n in (4, 8, 16, 32):
        gk, _ = approximate_gluing_data(topo2c, 0, p, n)
        err2 = 0.0
        for e in range(n):
            ts = (e + xg) / n
            _, b_exact = gluing_data(topo2c, 0, itf.k, ts)
            diff = gk.eval_beta(ts)[:, 0] - b_exact
            err2 += (wg / n) @ diff ** 2
        errs.append(np.sqrt(err2))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert rates[-1] >= p - 1 + 1 - 0.3  # target ptilde + 1 = p


def test_gluing_reversal_consistency():
    space = SplineSpace(2, 1, 4)
    rng = np.random.RandomState(4)
    gf = GluingFunctions(space, rng.rand(space.dim) + 1.0, rng.rand(space.dim))
    rev = gf.reversed()
    ts = np.linspace(0, 1, 17)
    assert np.abs(rev.eval_alpha(ts)[:, 0] - gf.eval_alpha(1 - ts)[:, 0]).max() <= 1e-13
    assert np.abs(rev.eval_beta(ts)[:, 0] + gf.eval_beta(1 - ts)[:, 0]).max() <= 1e-13


# -- local spaces --------------------------------------------------------------


def test_interior_counts_paper_example():
    assert len(interior_indices(SplineSpace(3, 2, 4))) == 9


def test_interior_empty_on_single_element():
    assert len(interior_indices(SplineSpace(2, 1, 1))) == 0


def test_interior_requires_smoothness():
    with pytest.raises(ParameterError):
        interior_indices(SplineSpace(3, 0, 4))


def test_interior_dofs_vanish_on_boundary(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    ts = np.linspace(0, 1, 25)
    edges = [(ts, np.zeros_like(ts)), (ts, np.ones_like(ts)),
             (np.zeros_like(ts), ts), (np.ones_like(ts), ts)]
    for gid in block_ids(space, "interior"):
        for us, vs in edges:
            jets = dof_jet_on_patch(space, gid, 0, us, vs)
            assert np.abs(jets[:, :3]).max() <= 1e-13


def test_edge_dof_counts():
    trace, trans = edge_dof_indices(SplineSpace(3, 2, 4), SplineSpace(2, 1, 4))
    assert (len(trace), len(trans)) == (1, 2)
    trace, trans = edge_dof_indices(SplineSpace(3, 2, 8), SplineSpace(2, 1, 8))
    assert (len(trace), len(trans)) == (5, 6)


def test_edge_dofs_vanish_at_endpoints(topo2c):
    space = build_c1_space(topo2c, 3, 2, 4)
    itf = topo2c.interfaces[0]
    frame = EdgeFrame(topo2c.patches[itf.k], itf.side_k, False)
    for gid in block_ids(space, "iface"):
        for t_end in (0.0, 1.0):
            u, v = frame.points([t_end])
            jet = physical_dof_jet(space, topo2c, gid, itf.k, u, v)[0]
            assert np.abs(jet).max() <= 1e-11


def test_edge_function_identities(topo2c):
    # trace equals the trace coefficient function; matched transversal
    # derivative equals minus the transversal coefficient function
    space = build_c1_space(topo2c, 3, 2, 4)
    ts = np.linspace(0, 1, 50)
    for gid in block_ids(space, "iface"):
        _, _, kind, j = space.labels[gid]
        (tr_k, nd_k), (tr_l, nd_l) = two_side_edge_data(space, topo2c, 0, gid, ts)
        if kind == "trace":
            ref = space.splus.eval_columns([j], ts, 0)[0, :, 0]
            assert np.abs(tr_k - ref).max() <= 1e-12
            assert np.abs(nd_k).max() <= 1e-10
        else:
            ref = space.sminus.eval_columns([j], ts, 0)[0, :, 0]
            assert np.abs(tr_k).max() <= 1e-12
            assert np.abs(nd_k + ref).max() <= 1e-10


def test_edge_function_axis_aligned_closed_form():
    from mpiga.geometry import detect_topology, Patch
    from mpiga.bspline import TensorSplineSpace

    def sq(x0):
        sp = SplineSpace(1, 0, 1)
        c = np.empty((2, 2, 2))
        for i, u in enumerate((0.0, 1.0)):
            for j, v in enumerate((0.0, 1.0)):
                c[i, j] = (x0 + u, v)
        return Patch(TensorSplineSpace(sp, sp), c)

    topo = detect_topology([sq(0.0), sq(1.0)])
    p, n = 3, 4
    space = build_c1_space(topo, p, p - 1, n)
    itf = topo.interfaces[0]
    sol = space.sol
    h = sol.h
    gid = [g for g in block_ids(space, "iface") if space.labels[g][2] == "transversal"][0]
    j = space.labels[gid][3]
    # on the lower-indexed side (alpha = +1): f = w_j(t) (h/p) b2(sigma)
    sm = SideMap(itf.side_k, False)
    rng = np.random.RandomState(0)
    for _ in range(20):
        sig, t = rng.rand(), rng.rand()
        u, v = sm.to_patch(sig, t)
        val = dof_jet_on_patch(space, gid, itf.k, [float(u)], [float(v)])[0, 0]
        w_j = space.sminus.eval_columns([j], [t], 0)[0, 0, 0]
        ref = w_j * (h / p) * sol.eval_columns([1], [sig], 0)[0, 0, 0]
        assert abs(val - ref) <= 1e-13


# -- vertex spaces --------------------------------------------------------------


def test_vertex_block_is_always_six(topo6, topo6c, topo2c):
    for topo in (topo6, topo6c, topo2c):
        space = build_c1_space(topo, 3, 2, 4)
        counts = {}
        for lab in space.labels:
            if lab[0] == "vertex":
                counts[lab[1]] = counts.get(lab[1], 0) + 1
        assert set(counts.values()) == {6}
        assert len(counts) == len(topo.vertices)


# round-off bound of a reproduced vertex jet: its summed terms reach about
# 1.2e5 at p=3 and 2.6e5 at p=4 (n=4), and the error stays near 2e-16 of them
VERTEX_JET_TOL = {3: 1e-11, 4: 1e-10}


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vertex_jet_reproduction(name, p):
    # vertex dof q has the q-th physical unit jet at the vertex on every
    # incident patch, summed from its sparse rows
    topo = builtin_geometry(name)
    space = build_c1_space(topo, p, p - 1, 4)
    for vidx, vertex in enumerate(topo.vertices):
        gids = [g for g, lab in enumerate(space.labels)
                if lab[0] == "vertex" and lab[1] == vidx]
        assert len(gids) == 6
        for q, gid in enumerate(gids):
            target = np.zeros(6)
            target[q] = 1.0
            assert dof_patches(space, gid) == {k for k, _ in vertex.incident}
            for (k, corner) in vertex.incident:
                u0, v0 = CORNER_UV[corner]
                jet = physical_dof_jet(space, topo, gid, k, [u0], [v0])[0]
                assert np.abs(jet - target).max() <= VERTEX_JET_TOL[p]


def test_identity_patch_vertex_value_dof(topo1):
    # value-slot vertex function: value 1, zero gradient and Hessian at the corner
    space = build_c1_space(topo1, 3, 2, 4)
    gid = [g for g, lab in enumerate(space.labels)
           if lab[0] == "vertex" and lab[2] == 0][0]
    vidx = space.labels[gid][1]
    (k, corner) = topo1.vertices[vidx].incident[0]
    u0, v0 = CORNER_UV[corner]
    jet = physical_dof_jet(space, topo1, gid, k, [u0], [v0])[0]
    assert np.abs(jet - np.array([1, 0, 0, 0, 0, 0])).max() <= 1e-11


# -- global coupling ------------------------------------------------------------


def test_single_patch_block_structure(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    counts = space.dof_counts()
    assert counts == {"interior": 9, "bedge": 12, "vertex": 24}
    assert all(dof_patches(space, gid) == {0} for gid in range(space.n_dofs))


def test_interface_block_counts_two_squares():
    from mpiga.geometry import detect_topology, Patch
    from mpiga.bspline import TensorSplineSpace

    def sq(x0):
        sp = SplineSpace(1, 0, 1)
        c = np.empty((2, 2, 2))
        for i, u in enumerate((0.0, 1.0)):
            for j, v in enumerate((0.0, 1.0)):
                c[i, j] = (x0 + u, v)
        return Patch(TensorSplineSpace(sp, sp), c)

    topo = detect_topology([sq(0.0), sq(1.0)])
    space = build_c1_space(topo, 3, 2, 4)
    iface_ids = block_ids(space, "iface")
    assert len(iface_ids) == 3
    for gid in iface_ids:
        assert dof_patches(space, gid) == {0, 1}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_interior_and_edge_rows_are_unit_rows(name):
    # interior and edge dofs are single primitives: one entry 1.0 per row,
    # at the tensor column iu * N + iv for an interior dof
    topo = builtin_geometry(name)
    space = build_c1_space(topo, 3, 2, 4)
    N = space.sol.dim
    for k, rows in enumerate(space.patch_rows):
        for gid, lab in enumerate(space.labels):
            row = rows[gid]
            if lab[0] == "vertex" or not row.nnz:
                continue
            assert row.nnz == 1 and row.data[0] == 1.0, (k, lab)
            if lab[0] == "interior":
                assert lab[1] == k and row.indices[0] == lab[2] * N + lab[3]
            else:
                assert row.indices[0] >= N * N, (k, lab)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_interface_dofs_live_on_their_two_patches(name):
    topo = builtin_geometry(name)
    space = build_c1_space(topo, 3, 2, 4)
    for gid, lab in enumerate(space.labels):
        if lab[0] == "iface":
            itf = topo.interfaces[lab[1]]
            assert dof_patches(space, gid) == {itf.k, itf.l}, lab
        elif lab[0] == "interior":
            assert dof_patches(space, gid) == {lab[1]}, lab
        elif lab[0] == "bedge":
            assert dof_patches(space, gid) == {topo.boundary_edges[lab[1]][0]}, lab


@pytest.mark.parametrize("fixture", ["topo6", "topo2c", "topo6c"])
def test_coupling_conditions_all_interfaces(fixture, request):
    topo = request.getfixturevalue(fixture)
    space = build_c1_space(topo, 3, 2, 4)
    ts = np.linspace(0, 1, 100)
    for idx, itf in enumerate(topo.interfaces):
        for gid in range(space.n_dofs):
            kinds = dof_patches(space, gid)
            if itf.k not in kinds and itf.l not in kinds:
                continue
            (tr_k, nd_k), (tr_l, nd_l) = two_side_edge_data(space, topo, idx, gid, ts)
            assert np.abs(tr_k - tr_l).max() <= 1e-12
            if space.labels[gid][0] != "vertex":
                assert np.abs(nd_k - nd_l).max() <= 1e-11


def test_exact_c1_on_bilinear_fixture(topo6):
    # linear gluing data projects exactly: every basis function is C1
    space = build_c1_space(topo6, 3, 2, 4)
    ts = np.linspace(0, 1, 100)
    xg, wg = gauss_legendre(7)
    for idx, itf in enumerate(topo6.interfaces):
        frame = EdgeFrame(topo6.patches[itf.k], itf.side_k, False)
        tau = frame.geom(ts)["tau"]
        for gid in range(space.n_dofs):
            kinds = dof_patches(space, gid)
            if itf.k not in kinds and itf.l not in kinds:
                continue
            jump = normal_jump(space, topo6, idx, gid, ts)
            l2 = np.sqrt(np.trapezoid(jump ** 2 * tau, ts))
            assert l2 <= 1e-10


def test_vertex_coupling_residual_decays(topo2c):
    # with inexact gluing data the vertex blocks satisfy the matched
    # transversal condition only up to the projection error
    worst = []
    for n in (4, 8):
        space = build_c1_space(topo2c, 3, 2, n)
        ts = np.linspace(0, 1, 60)
        w = 0.0
        for gid in block_ids(space, "vertex"):
            kinds = dof_patches(space, gid)
            if not kinds.issuperset({0, 1}):
                continue
            (_, nd_k), (_, nd_l) = two_side_edge_data(space, topo2c, 0, gid, ts)
            w = max(w, np.abs(nd_k - nd_l).max())
        worst.append(w)
    assert worst[1] <= 0.25 * worst[0]


def test_true_jump_decay_random_coefficients(topo2c):
    # Eq.-(17)-style decay for a fixed random function of unit broken-H2 norm
    from mpiga.assembly import error_norms

    rng = np.random.RandomState(17)
    norms = []
    for n in (4, 8, 16):
        space = build_c1_space(topo2c, 3, 2, n)
        view = homogeneous_subspace(space, {e: "gl" for e in topo2c.boundary_edges})
        coeffs = rng.rand(view.n_total) - 0.5
        rep = error_norms(view, coeffs, None)
        norms.append(rep.jump_max / rep.h2)
    rates = [np.log2(a / b) for a, b in zip(norms, norms[1:])]
    assert rates[-1] >= 3 - 0.3  # ptilde + 1 = 3 for p = 3


# -- boundary conditions ---------------------------------------------------------


def test_inner_vertex_free(topo6):
    space = build_c1_space(topo6, 3, 2, 4)
    view = homogeneous_subspace(space, {e: "gn" for e in topo6.boundary_edges})
    free_vertex = [lab for lab in free_labels(view) if lab[0] == "vertex"]
    inner = [i for i, v in enumerate(topo6.vertices) if v.kind == "inner"]
    for vidx in inner:
        assert sum(1 for lab in free_vertex if lab[1] == vidx) == 6


def test_clamped_square_reduces_to_interior(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, {e: "gn" for e in topo1.boundary_edges})
    assert view.n_free == 9
    assert all(lab[0] == "interior" for lab in free_labels(view))


def test_simply_supported_keeps_transversal_dofs(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, {e: "gl" for e in topo1.boundary_edges})
    kinds = {}
    for lab in free_labels(view):
        kinds[lab[0]] = kinds.get(lab[0], 0) + 1
    assert kinds["interior"] == 9
    assert kinds["bedge"] == 8  # two transversal dofs per edge stay free
    assert kinds["vertex"] == 4  # one kernel combination per corner


def test_corner_kernel_vs_sampling_oracle(topo1):
    # simply-supported corner: kernel of the sampled value constraints
    space = build_c1_space(topo1, 3, 2, 4)
    tags = {e: "gl" for e in topo1.boundary_edges}
    view = homogeneous_subspace(space, tags)
    vidx = 0
    vertex = topo1.vertices[vidx]
    gids = [g for g, lab in enumerate(space.labels)
            if lab[0] == "vertex" and lab[1] == vidx]
    (k, corner) = vertex.incident[0]
    samples = []
    for side in _CORNER_SIDES[corner]:
        fr = EdgeFrame(topo1.patches[k], side, False)
        ts = np.linspace(0, 1, 40)
        u, v = fr.points(ts)
        samples.append((u, v))

    def column(q):
        vals = []
        for u, v in samples:
            vals.append(dof_jet_on_patch(space, gids[q], k, u, v)[:, 0])
        return np.concatenate(vals)

    oracle = sampled_nullspace(column, 6, None)
    kernel_dofs = [lab for lab in free_labels(view)
                   if lab[0] == "vertex" and lab[1] == vidx]
    assert len(kernel_dofs) == oracle.shape[1] == 1


# free combinations per boundary vertex where the boundary is straight:
# 'gn' fixes value and gradient along each boundary line, 'gl' the value
FREE_VERTEX_COMBOS = {"gn": {"corner": 0, "boundary": 1}, "gl": {"corner": 1, "boundary": 3}}


def boundary_edge_jets(topo, prims, k, row, side, ts):
    """Physical jets of a sparse row over patch k's primitives along a
    patch side, and the outward normal."""
    frame = EdgeFrame(topo.patches[k], side, False)
    u, v = frame.points(ts)
    jets = row_jets_at(prims, row, u, v)
    if np.ptp(u) == 0.0:
        _, jac, hess = topo.patches[k].jet_grid(u[:1], v)
        jac, hess = jac[0], hess[0]
    else:
        _, jac, hess = topo.patches[k].jet_grid(u, v[:1])
        jac, hess = jac[:, 0], hess[:, 0]
    return physical_jet(jets, jac, hess), frame.geom(ts)["n_out"]


@pytest.mark.parametrize(
    "fixture,p,bc,n",
    [("topo2c", 4, "gl", 32), ("topo2c", 4, "gl", 64), ("topo6", 3, "gn", 64)],
)
def test_boundary_vertex_kernel_fine_mesh(fixture, p, bc, n, request):
    # the vertex functions are supported within a few elements of the
    # vertex, so the kernel must not depend on how many edge samples
    # fall inside that support
    topo = request.getfixturevalue(fixture)
    view = homogeneous_subspace(build_c1_space(topo, p, p - 1, n),
                                {e: bc for e in topo.boundary_edges})
    free = {}
    for fid, lab in enumerate(free_labels(view)):
        if lab[0] == "vertex" and topo.vertices[lab[1]].kind != "inner":
            free.setdefault(lab[1], []).append(fid)
    rows = [view_rows(view, k) for k in range(len(topo.patches))]
    ts = np.linspace(0.0, 1.0, 401)
    for vidx, vertex in enumerate(topo.vertices):
        if vertex.kind == "inner":
            continue
        fids = free.get(vidx, [])
        assert len(fids) == FREE_VERTEX_COMBOS[bc][vertex.kind], (vidx, vertex.kind)
        for fid in fids:
            for k, corner in vertex.incident:
                for side in _CORNER_SIDES[corner]:
                    if not topo.is_boundary_edge(k, side):
                        continue
                    prims = view.space.primitives[k]
                    phys, normal = boundary_edge_jets(topo, prims, k, rows[k][fid], side, ts)
                    assert np.abs(phys[:, 0]).max() <= 1e-12
                    if bc == "gn":
                        dn = np.einsum("mc,mc->m", normal, phys[:, 1:3])
                        assert np.abs(dn).max() <= 1e-12


@pytest.mark.parametrize("bc", ["gn", "gl"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vertex_kernel_bases_stable_under_sample_round_off(name, bc, monkeypatch):
    # only the kernel of the sampled constraints is defined: round-off in
    # the samples must not rotate the free vertex dofs
    topo = builtin_geometry(name)
    samples = []

    def capture(M, rel_tol):
        samples.append((M, rel_tol))
        return kernel_split(M, rel_tol)

    monkeypatch.setattr(c1space, "kernel_split", capture)
    homogeneous_subspace(build_c1_space(topo, 3, 2, 8), {e: bc for e in topo.boundary_edges})
    assert len(samples) == sum(vertex.kind != "inner" for vertex in topo.vertices)
    rng = np.random.RandomState(3)
    for M, rel_tol in samples:
        kernel, compl = kernel_split(M, rel_tol)
        k2, c2 = kernel_split(M * (1.0 + 1e-15 * rng.randn(*M.shape)), rel_tol)
        assert np.abs(k2 - kernel).max(initial=0.0) <= 1e-12
        assert np.abs(c2 - compl).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vertex_layer_matches_per_pair_path(name, p):
    # one corner grid per patch, one stacked solve and each boundary edge
    # sampled once, against one pair, one solve and one edge frame at a
    # time; kernels are compared by their projectors, which alone are
    # defined
    topo = builtin_geometry(name)
    space = build_c1_space(topo, p, p - 1, 8)
    for (vidx, k), expected in per_pair_vertex_rows(space).items():
        rows = space.patch_rows[k][vertex_gids(space, vidx)].toarray()
        assert np.abs(rows - expected).max() <= 1e-13 * np.abs(expected).max(), (vidx, k)
    edges = topo.boundary_edges
    for bc in ({e: "gn" for e in edges}, {e: "gl" for e in edges},
               {e: ("gn", "gl")[i % 2] for i, e in enumerate(edges)}):
        view = homogeneous_subspace(space, bc)
        for vidx, vertex in enumerate(topo.vertices):
            if vertex.kind == "inner":
                continue
            fids = [f for f, lab in enumerate(view.labels) if lab[:3] == ("vertex", vidx, "free")]
            kernel = view.transform[fids][:, vertex_gids(space, vidx)].toarray().T
            expected = per_vertex_kernel(view, vidx)
            assert kernel.shape == expected.shape, (vidx, bc)
            assert np.abs(kernel @ kernel.T - expected @ expected.T).max() <= 1e-12, (vidx, bc)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vertex_condition_per_pair_and_family(name):
    topo = builtin_geometry(name)
    space = build_c1_space(topo, 3, 2, 8)
    cond = space.vertex_condition
    assert cond.shape == (sum(len(vertex.incident) for vertex in topo.vertices), 3)
    assert np.isfinite(cond).all() and (cond >= 1.0).all()


def test_degenerate_vertex_named_through_stacked_solve(topo6, monkeypatch):
    # the corner family of one (vertex, patch) pair loses its dyy row; the
    # stacked solve fails and the error names that pair, not the first
    pairs = [(v, k, c) for v, vertex in enumerate(topo6.vertices) for k, c in vertex.incident]
    vidx = next(v for v, vertex in enumerate(topo6.vertices) if vertex.kind == "inner")
    k, corner = topo6.vertices[vidx].incident[-1]
    target = pairs.index((vidx, k, corner))
    assert target > 0
    jet = c1space.physical_jet

    def degenerate(jets, jac, hess):
        out = jet(jets, jac, hess)
        if out.shape == (len(pairs), 18, 6):  # the corner jets of every pair
            out[target, 12:, 5] = 0.0
        return out

    monkeypatch.setattr(c1space, "physical_jet", degenerate)
    with pytest.raises(DegenerateVertexError) as info:
        build_c1_space(topo6, 3, 2, 8)
    assert (info.value.patch, info.value.vertex) == (k, vidx)


@pytest.mark.parametrize("tag", ["gn", "gl"])
def test_constraint_rows_match_column_sums(topo6c, tag):
    # the one boundary sampler against rows summed column by column, for
    # the six dofs of a vertex of the edge and two dofs of the edge itself
    space = build_c1_space(topo6c, 3, 2, 8)
    bidx = 0 if tag == "gn" else len(topo6c.boundary_edges) - 1
    k, side = topo6c.boundary_edges[bidx]
    vidx = next(
        v for v, vertex in enumerate(topo6c.vertices)
        if any(kk == k and side in _CORNER_SIDES[corner] for kk, corner in vertex.incident)
    )
    gids = [g for g, lab in enumerate(space.labels) if lab[0] == "vertex" and lab[1] == vidx]
    trace, trans = edge_dof_indices(space.splus, space.sminus)
    gids += [space.labels.index(("bedge", bidx, "trace", trace[0]))]
    gids += [space.labels.index(("bedge", bidx, "transversal", trans[0]))]
    prims, rows = space.primitives[k], space.patch_rows[k]
    ts = np.linspace(0.0, 1.0, 41)
    A, _ = constraint_rows(prims.families, rows[gids] @ prims.X, EdgeFrame(topo6c.patches[k], side), ts, tag)
    assert A.shape == ((2 if tag == "gn" else 1) * len(ts), len(gids))
    for col, gid in enumerate(gids):
        phys, normal = boundary_edge_jets(topo6c, prims, k, rows[gid], side, ts)
        expected = [phys[:, 0]] + ([np.einsum("mc,mc->m", normal, phys[:, 1:3])] if tag == "gn" else [])
        assert np.abs(A[:, col] - np.concatenate(expected)).max() <= 1e-12, space.labels[gid]


def test_missing_bc_tag_rejected(topo1):
    from mpiga.assembly import C0Space

    space = build_c1_space(topo1, 3, 2, 4)
    with pytest.raises(ParameterError, match="without condition tag"):
        ConstrainedC1Space(space, {topo1.boundary_edges[0]: "gn"})
    with pytest.raises(ParameterError, match="without condition tag"):
        C0Space(topo1, 3, 2, 4, {topo1.boundary_edges[0]: "gn"})


@pytest.mark.parametrize("stray", ["interface", "no-such-side", "no-such-patch"])
def test_bc_tag_off_the_boundary_rejected(stray):
    # a tag on an interface side or on a side that does not exist is
    # rejected by both space views, not ignored or half applied
    from mpiga.assembly import C0Space

    topo = builtin_geometry("square-2-bicubic")
    itf = topo.interfaces[0]
    edge = {"interface": (itf.k, itf.side_k), "no-such-side": (0, 7), "no-such-patch": (5, 1)}[stray]
    tags = {e: "gl" for e in topo.boundary_edges}
    tags[edge] = "gn"
    space = build_c1_space(topo, 3, 2, 4)
    with pytest.raises(ParameterError, match="not boundary edges"):
        homogeneous_subspace(space, tags)
    with pytest.raises(ParameterError, match="not boundary edges"):
        C0Space(topo, 3, 2, 4, tags)
    with pytest.raises(ParameterError, match="not boundary edges"):
        C0Space(topo, 3, 2, 4, {edge: "gl"})


def test_unknown_bc_tag_value_rejected(topo1):
    from mpiga.assembly import C0Space

    tags = {e: "gl" for e in topo1.boundary_edges}
    tags[topo1.boundary_edges[0]] = "clamped"
    with pytest.raises(ParameterError, match="unknown boundary tags"):
        homogeneous_subspace(build_c1_space(topo1, 3, 2, 4), tags)
    with pytest.raises(ParameterError, match="unknown boundary tags"):
        C0Space(topo1, 3, 2, 4, tags)


def test_mesh_too_coarse_rejected(topo1):
    with pytest.raises(ParameterError):
        build_c1_space(topo1, 3, 2, 2)


# -- change of basis ----------------------------------------------------------


ONE_PASS_CASES = [(name, n, r) for name in ("square-1", "square-6-bilinear") for n in (8, 16) for r in (2, 1)]


@pytest.mark.parametrize("name,n,r", ONE_PASS_CASES, ids=[f"{a}-n{b}-r{c}" for a, b, c in ONE_PASS_CASES])
def test_change_of_basis_built_in_one_pass(name, n, r, monkeypatch):
    """One Greville interpolation per target space (the strip space, and
    the solution space where it is not S(p, p-1, h)), whatever the number
    of patches and edge shapes, and each patch's X formed once."""
    targets, formed = [], []
    interpolate, write_X = c1space.interpolate, c1space.PatchPrimitives.write_X

    def counted_interpolate(space, f):
        targets.append(space)
        return interpolate(space, f)

    def counted_write_X(prims, *args):
        formed.append(prims)
        write_X(prims, *args)

    monkeypatch.setattr(c1space, "interpolate", counted_interpolate)
    monkeypatch.setattr(c1space.PatchPrimitives, "write_X", counted_write_X)
    space = build_c1_space(builtin_geometry(name), 3, r, n)
    assert targets == ([space.strip] if r == 2 else [space.sol, space.strip])
    assert len(formed) == len(space.primitives)
    assert all(a is b for a, b in zip(formed, space.primitives))
    for prims in space.primitives:
        assert prims.X.shape == (prims.n_cols, prims.n_basis)


def _interpolated_alone(shape, strip):
    """The trace block over the solution space and the beta, then alpha,
    rows over the strip space of one edge shape, one interpolation per
    factor, with the entries of B-splines whose support does not lie
    inside the factor's zeroed."""
    flip = shape.map.t_flip

    def bsplines(space, x, order):
        return space.eval_columns(np.arange(space.dim), 1.0 - x if flip else x, order)[:, :, order].T

    def glue(coeff, x):
        return shape.scale * coeff(1.0 - x if flip else x)[:, :1]

    def alone(space, factors, f):
        coeffs = c1space.interpolate(space, f).T
        for j in range(factors.dim):
            lo, hi = factors.basis_support(j)
            lo, hi = (space.n - 1 - hi, space.n - 1 - lo) if flip else (lo, hi)
            for i in range(space.dim):
                a, b = space.basis_support(i)
                if a < lo or b > hi:
                    coeffs[j, i] = 0.0
        return coeffs

    splus, sminus, gluing = shape.splus, shape.sminus, shape.gluing
    trace = alone(shape.sol, splus, lambda x: bsplines(splus, x, 0))
    beta = alone(strip, splus, lambda x: glue(gluing.eval_beta, x) * bsplines(splus, x, 1))
    alpha = alone(strip, sminus, lambda x: glue(gluing.eval_alpha, x) * bsplines(sminus, x, 0))
    return trace, np.vstack([beta, alpha])


ALONE_CASES = [
    (name, p, r) for name in ("square-6-bilinear", "square-2-bicubic") for p in (3, 4) for r in (p - 1, p - 2)
]


@pytest.mark.parametrize("name,p,r", ALONE_CASES, ids=[f"{a}-p{b}-r{c}" for a, b, c in ALONE_CASES])
def test_batched_factors_match_each_shape_interpolated_alone(name, p, r):
    """Every edge shape's rows of X equal that shape interpolated alone,
    bit for bit: its beta and alpha rows on its strip, and its trace rows
    on the two tensor lines next to its side (exact unit weights at
    r = p-1, where the trace lies in the solution space).  Nothing else
    is written in those rows.  Both tangent orientations occur."""
    space = build_c1_space(builtin_geometry(name), p, r, 6)
    N, flips = space.sol.dim, set()
    for prims in space.primitives:
        X = prims.X.toarray()
        for shape, first in prims.shapes:
            flips.add(shape.map.t_flip)
            trace, factors = _interpolated_alone(shape, space.strip)
            if r == p - 1:
                trace = np.eye(N)[:: -1 if shape.map.t_flip else 1]
            rows = X[first : first + len(factors)].copy()
            strip = prims.strips[shape.map.side]
            assert np.array_equal(rows[:, strip.first : strip.first + strip.count], factors)
            rows[:, strip.first : strip.first + strip.count] = 0.0
            for layer in (0, 1):
                iu, iv = SideMap(shape.map.side).elements_to_patch(layer, np.arange(N), N)
                assert np.array_equal(rows[: len(trace), iu * N + iv], trace)
                rows[: len(trace), iu * N + iv] = 0.0
            assert not rows.any()
    assert flips == {False, True}


def test_strip_rows_store_only_splines_inside_the_factor_support(topo6):
    """Each beta and alpha row of X stores only strip B-splines whose
    support lies inside the support of the row's factor T_j' or W_j: the
    factor times the gluing data vanishes on every other element, and a
    spline that vanishes on an element has zero coefficients on every
    B-spline active there (local linear independence)."""
    space = build_c1_space(topo6, 3, 2, 8)
    n, stored = space.sol.n, 0
    a, b = space.strip.basis_support(np.arange(space.strip.dim))
    for prims in space.primitives:
        X = prims.X.tocsr()
        for shape, first in prims.shapes:
            strip = prims.strips[shape.map.side]
            factors = [(f, j) for f in (shape.splus, shape.sminus) for j in range(f.dim)]
            for row, (f, j) in enumerate(factors, start=first):
                lo, hi = f.basis_support(j)
                lo, hi = (n - 1 - hi, n - 1 - lo) if shape.map.t_flip else (lo, hi)
                cols = X.indices[X.indptr[row] : X.indptr[row + 1]] - strip.first
                cols = cols[(cols >= 0) & (cols < strip.count)]
                assert np.all((a[cols] >= lo) & (b[cols] <= hi))
                stored += len(cols)
    assert stored > 0


def test_exact_trace_blocks_hold_no_round_off(topo6):
    """At r = p-1 the tensor part of X holds unit weights only: the unit
    rows of the tensor B-splines and each trace function's two unit
    weights, with no interpolation round-off beside them."""
    for prims in build_c1_space(topo6, 3, 2, 8).primitives:
        tensor = prims.X[:, : prims.N ** 2]
        assert np.all(tensor.data == 1.0)
        for shape, first in prims.shapes:
            assert tensor[first : first + shape.splus.dim].getnnz(axis=1).tolist() == [2] * shape.splus.dim
