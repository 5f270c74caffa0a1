"""Batched geometry jets, element-row volume kernels, whole-line edge rows
and the separable evaluator of patch combinations against the per-point,
per-element, per-span and per-column reference loops in ``oracles``,
which evaluate approx-C1 dofs piece by piece."""

import weakref

import numpy as np
import pytest

from mpiga import assembly, c1space
from mpiga.assembly import (
    C0Space,
    _Assembler,
    assemble_approx_c1,
    broken_gram,
    error_norms,
    manufactured_jet,
    manufactured_laplacian,
    manufactured_rhs,
    stacked_error_norms,
)
from mpiga.bspline import JET_ORDERS, gauss_legendre
from mpiga.c1space import EdgeShape, PatchPrimitives, build_c1_space, homogeneous_subspace
from mpiga.fixtures import BUILTIN_NAMES, builtin_geometry
from mpiga.geometry import _CORNER_FLIP, _CORNER_SIDES, Patch, SideMap

from oracles import (
    _Reference,
    boundary_load_reference,
    edge_function_jets,
    expand_reference,
    gather_jet_grid,
    interface_rows_reference,
    per_element_reference,
    per_point_jet_grid,
    primitive_jets,
)

RTOL = 1e-12
P, N = 3, 4


def rel_gap(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def make_view(name, kind, n=N, p=P, r=None):
    topo = builtin_geometry(name)
    tags = {e: kind.split("-")[-1] for e in topo.boundary_edges}
    r = p - 1 if r is None else r
    if kind == "c0":
        return C0Space(topo, p, r, n)
    if kind.startswith("c0-"):
        return C0Space(topo, p, r, n, tags)
    return homogeneous_subspace(build_c1_space(topo, p, r, n), tags)


CASES = [(name, kind, 1, N, P) for name in BUILTIN_NAMES for kind in ("c0", "c0-gn", "c1-gn", "c1-gl")]
CASES += [("square-2-bicubic", "c0-gl", 2, N, P), ("square-2-bicubic", "c1-gn", 2, N, P)]
# the boundary moment load of a C0 'gl' view at the volume rule's own
# quadrature, on a curved interface and on a reversed one ((2, side 3) and
# (5, side 3) of square-6-bilinear)
CASES += [("square-2-bicubic", "c0-gl", 1, N, P), ("square-6-bilinear", "c0-gl", 1, N, P)]
# at n=4 the three-element vertex supports cover almost every element; at
# n=8 the restriction of dofs to elements and the combinations at inner
# vertices (valence 3 and 4) are exercised, and edge lines hold 8 spans
CASES += [("square-6-bilinear", "c1-gn", 1, 8, P), ("square-6-bilinear", "c1-gl", 1, 8, P)]
# curved interfaces: gluing data that is not linear along the edges
CASES += [("square-6-bicubic", "c1-gl", 1, 8, P)]
CASES += [("square-6-bilinear", "c0-gl", 1, 8, P)]
# p=4, the degree of the Nitsche benchmark: a (p+1)^2 = 25 tensor window,
# 6 or 12 points per axis, and approx-C1 extraction rows at n=8
CASES += [("square-6-bilinear", "c0-gn", q, N, 4) for q in (1, 2)]
CASES += [("square-6-bilinear", "c1-gn", 1, 8, 4)]
CASES = [case + (case[4] - 1,) for case in CASES]
# r = p-2: the trace splines T_j of S(p, p-1) enter the solution space S(p, r)
# by interpolation, and b2 reaches one element layer off a side
CASES += [("square-6-bicubic", kind, 1, 8, P, P - 2) for kind in ("c1-gn", "c1-gl")]


def case_id(case):
    name, kind, quad_scale, n, p, r = case
    return (
        f"{name}-{kind}-{quad_scale}" + ("" if n == N else f"-n{n}") + ("" if p == P else f"-p{p}")
        + ("" if r == p - 1 else f"-r{r}")
    )


@pytest.mark.parametrize("name,kind,quad_scale,n,p,r", CASES, ids=[case_id(c) for c in CASES])
def test_volume_kernels_match_per_element_loops(name, kind, quad_scale, n, p, r):
    view = make_view(name, kind, n, p, r)
    coeffs = np.random.default_rng(7).standard_normal(view.n_total)
    exact_jets = (None, manufactured_jet)
    K_ref, F_ref, G_ref, norms_ref = per_element_reference(
        view, manufactured_rhs, coeffs, exact_jets, quad_scale
    )
    asm = _Assembler(view, quad_scale)
    K, F = asm.volume_system(manufactured_rhs)
    assert rel_gap(asm.to_dofs(K).toarray(), K_ref) <= RTOL
    assert rel_gap(asm.E @ F, F_ref) <= RTOL
    assert rel_gap(broken_gram(view, quad_scale).toarray(), G_ref) <= RTOL
    for exact, (l2, h1, h2, jumps) in zip(exact_jets, norms_ref):
        report = error_norms(view, coeffs, exact, quad_scale)
        got = [report.l2, report.h1, report.h2] + report.jumps
        assert rel_gap(got, [l2, h1, h2] + jumps) <= RTOL


@pytest.mark.parametrize("name,kind,quad_scale,n,p,r", CASES, ids=[case_id(c) for c in CASES])
def test_edge_span_rows_match_per_span_loops(name, kind, quad_scale, n, p, r):
    view = make_view(name, kind, n, p, r)
    asm = _Assembler(view, quad_scale)
    refs = interface_rows_reference(view, quad_scale)
    for idx, (jump_ref, avg_ref, w_ref, side_max) in enumerate(refs):
        jump, avg = (np.zeros((asm.n_prims, jump_ref.shape[1])) for _ in range(2))
        ids, j, a, w = asm.interface_edge_rows(idx)
        for span, pids in enumerate(ids):
            keep = pids >= 0
            # every primitive once per span; padding carries zero rows
            assert len(np.unique(pids[keep])) == keep.sum()
            assert not np.any(j[span, ~keep]) and not np.any(a[span, ~keep])
            cols = slice(span * asm.edge_nq, (span + 1) * asm.edge_nq)
            jump[pids[keep], cols], avg[pids[keep], cols] = j[span, keep], a[span, keep]
        # the rows of the dofs, through the extraction
        jump, avg, w = asm.E @ jump, asm.E @ avg, w.ravel()
        # jumps of approx-C1 dofs are differences of nearly equal sides
        assert np.abs(jump - jump_ref).max() <= RTOL * side_max
        assert rel_gap(avg, avg_ref) <= RTOL
        assert rel_gap(w, w_ref) <= RTOL
    if kind.endswith("gl"):
        tags = {e: "gl" for e in asm.topology.boundary_edges}
        F_ref = boundary_load_reference(view, manufactured_laplacian, tags, quad_scale)
        F = np.zeros(asm.n_prims)
        asm.boundary_moment_load(F, manufactured_laplacian, tags)
        assert np.abs(F_ref).max() > 0.0
        assert rel_gap(asm.E @ F, F_ref) <= RTOL


SIDE_CASES = [
    (name, kind) for name in ("square-6-bilinear", "square-2-bicubic")
    for kind in ("c0", "c0-gn", "c1-gn", "c1-gl")
]


@pytest.mark.parametrize("name,kind", SIDE_CASES, ids=[f"{n}-{k}" for n, k in SIDE_CASES])
def test_side_lines_match_per_span_loops(name, kind):
    """Every patch side in both tangent orientations, interface and boundary
    sides alike: the outward normal derivative and the Laplacian rows
    against those of the per-span reference jets."""
    view = make_view(name, kind)
    asm = _Assembler(view)
    ref = _Reference(view, 1)
    nq = asm.edge_nq
    for k in range(len(asm.topology.patches)):
        for side in (1, 2, 3, 4):
            for t_flip in (False, True):
                side_map = SideMap(side, t_flip)
                ids, rows, geom = asm.side_line(k, side_map)
                assert rows.shape == ids.shape + (2, nq)
                normal = geom["n_out"].reshape(N, nq, 2)
                for span in range(N):
                    got = np.zeros((asm.n_prims, 2 * nq))
                    keep = ids[span] >= 0
                    np.add.at(got, ids[span, keep], rows[span, keep].reshape(-1, 2 * nq))
                    got = (asm.E @ got).reshape(view.n_total, 2, nq)
                    ref_ids, phys = ref.span(k, side_map, span)
                    want = np.zeros_like(got)
                    np.add.at(want[:, 0], ref_ids, np.einsum("qc,aqc->aq", normal[span], phys[..., 1:3]))
                    np.add.at(want[:, 1], ref_ids, phys[..., 3] + phys[..., 5])
                    # no kept dof of a clamped side has a normal derivative on it
                    assert np.abs(want[:, 1]).max() > 0.0
                    for row in (0, 1):
                        assert np.abs(got[:, row] - want[:, row]).max() <= RTOL * np.abs(want[:, row]).max()


def multi_element_patch():
    """A curved bicubic-by-quadratic patch with 3 x 2 geometry elements."""
    rng = np.random.default_rng(3)
    du, dv, nu, nv = 3, 2, 3, 2
    Nu, Nv = du + nu, dv + nv
    gu, gv = np.meshgrid(np.linspace(0, 1, Nu), np.linspace(0, 1, Nv), indexing="ij")
    control = np.stack([gu + 0.2 * gv ** 2, gv + 0.1 * np.sin(3 * gu)], axis=-1)
    control[1:-1, 1:-1] += 0.02 * rng.standard_normal((Nu - 2, Nv - 2, 2))
    return Patch.from_degrees(du, dv, nu, nv, control)


def test_jet_grid_unsorted_repeated_points_multi_element():
    patch = multi_element_patch()
    assert patch.space.space_u.n == 3 and patch.space.space_v.n == 2
    us = np.array([0.9, 0.1, 1.0, 0.5, 0.1, 0.0, 2.0 / 3.0, 0.37])
    vs = np.array([0.75, 0.5, 0.0, 0.75, 1.0, 0.2])
    for got, ref in zip(patch.jet_grid(us, vs), per_point_jet_grid(patch, us, vs)):
        assert got.shape == ref.shape
        assert rel_gap(got, ref) <= RTOL


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "multi-element"])
def test_separable_jet_grid_matches_window_gather(name):
    """The separable jets against per-point window gathers, on unsorted and
    repeated points that include 0, 1 and every interior geometry knot."""
    patches = [multi_element_patch()] if name == "multi-element" else builtin_geometry(name).patches
    rng = np.random.default_rng(7)
    for patch in patches:
        axes = []
        for space in (patch.space.space_u, patch.space.space_v):
            knots = np.arange(space.n + 1) / space.n
            pts = np.concatenate([knots, knots[1:-1], rng.uniform(0.0, 1.0, 9)])
            axes.append(rng.permutation(pts))
        for got, ref in zip(patch.jet_grid(*axes), gather_jet_grid(patch, *axes)):
            assert got.shape == ref.shape
            assert rel_gap(got, ref) <= 1e-14


def evaluation_grids(n, p=P):
    """An element-row grid, an edge line across each parameter direction
    and a single corner point, as (u points, v points)."""
    nodes, _ = gauss_legendre(p + 2)
    line = ((np.arange(n)[:, None] + nodes) / n).ravel()
    return [
        ((1 + nodes) / n, line),
        (np.array([0.0]), line[::-1].copy()),
        (line, np.array([1.0])),
        (np.array([1.0]), np.array([0.0])),
    ]


EVAL_CASES = [
    (name, kind, n, P - 1)
    for name in ("square-6-bilinear", "square-2-bicubic")
    for kind in ("c1-gn", "c1-gl", "c0")
    for n in (4, 8)
]
EVAL_CASES += [("square-6-bicubic", kind, 8, P - 2) for kind in ("c1-gn", "c1-gl")]
EVAL_IDS = [f"{a}-{b}-n{c}" + ("" if d == P - 1 else f"-r{d}") for a, b, c, d in EVAL_CASES]


@pytest.mark.parametrize("name,kind,n,r", EVAL_CASES, ids=EVAL_IDS)
def test_grid_jets_match_per_column_expand(name, kind, n, r):
    """Random dense weight rows over the definition columns of every patch,
    written over the family columns by the change of basis, against the
    sum of every column's jets; unit rows of tensor columns reproduce the
    columns' jets bit for bit."""
    view = make_view(name, kind, n, r=r)
    rng = np.random.default_rng(11)
    for prims in [PatchPrimitives(view.sol, view.families)] if kind == "c0" else view.space.primitives:
        W = rng.standard_normal((3, prims.n_cols))
        for u, v in evaluation_grids(n):
            want = expand_reference(prims, W, u, v)
            grid = c1space.GridJets(prims.families, W @ prims.X, u, v)
            assert rel_gap(grid.jets(), want) <= RTOL
            band = slice(len(u) // 3, len(u) // 3 + 5)
            assert rel_gap(grid.jets(band), want[:, band]) <= RTOL
        cols = np.sort(rng.choice(prims.N ** 2, size=40, replace=False))
        u, v = evaluation_grids(n)[0]
        unit = prims.expand(prims.X[cols], u, v)
        assert np.array_equal(unit, primitive_jets(prims, cols, u, v))


BASIS_CASES = [(name, p, r) for name in BUILTIN_NAMES for p in (3, 4) for r in (p - 1, p - 2)]


@pytest.mark.parametrize("name,p,r", BASIS_CASES, ids=[f"{a}-p{b}-r{c}" for a, b, c in BASIS_CASES])
def test_change_of_basis_reproduces_edge_functions(name, p, r):
    """Every definition column of every edge shape, evaluated through its
    row of the change of basis over the tensor and strip families, against
    the edge function written out from T, W and the gluing data, per jet
    slot on the Gauss grid of the volume rule and on two side lines,
    relative to the slot's largest value on the volume grid."""
    n = 6
    nodes, _ = gauss_legendre(p + 2)
    vol = ((np.arange(n)[:, None] + nodes) / n).ravel()
    grids = [(vol, vol), (np.array([0.0]), vol), (vol, np.array([1.0]))]
    for prims in build_c1_space(builtin_geometry(name), p, r, n).primitives:
        assert len(prims.families) == 5
        for shape, first in prims.shapes:
            for kind, cols in (
                ("trace", range(shape.splus.dim)),
                ("transversal", range(shape.splus.dim, shape.splus.dim + shape.sminus.dim)),
            ):
                scale = {}
                for u, v in grids:
                    got = c1space.GridJets(prims.families, prims.X[first + np.array(cols)], u, v).jets()
                    for j, col in enumerate(cols):
                        want = edge_function_jets(shape, kind, col - cols[0], u, v)
                        scale.setdefault(j, np.abs(want).max(axis=(0, 1)))
                        assert np.all(np.abs(got[j] - want).max(axis=(0, 1)) <= RTOL * scale[j])


@pytest.mark.parametrize("name,p,r", BASIS_CASES, ids=[f"{a}-p{b}-r{c}" for a, b, c in BASIS_CASES])
def test_edge_columns_read_from_the_far_end_are_the_reversed_shape(name, p, r):
    """Where a side is read from its t = 1 end -- the five edge columns
    (traces 0..2, transversals 0..1, counted from the corner) of a vertex
    family at a corner where the side starts there, and the l side's
    columns of a reversed interface -- the columns, evaluated through the
    change of basis, are the edge functions written out for the side in
    the reversed parameter with its gluing data reversed: B-splines on a
    uniform open knot vector are symmetric.  Per jet slot, relative to
    its largest value on the volume grid."""
    n = 6
    nodes, _ = gauss_legendre(p + 2)
    vol = ((np.arange(n)[:, None] + nodes) / n).ravel()
    grids = [(vol, vol), (np.array([0.0]), vol), (vol, np.array([1.0]))]
    space = build_c1_space(builtin_geometry(name), p, r, n)
    topo = space.topology
    checks = []  # (patch, side, columns, (kind, index in the reversed parameter), its gluing data)
    corner_funcs = [("trace", 0), ("trace", 1), ("trace", 2), ("transversal", 0), ("transversal", 1)]
    for vertex in topo.vertices:
        for k, corner in vertex.incident:
            cols = c1space._family_columns(space.primitives[k], corner)
            for family, side, from_end in zip((cols[:5], cols[6:11]), _CORNER_SIDES[corner], _CORNER_FLIP[corner]):
                if from_end:
                    own = next(shape for shape, _ in space.primitives[k].shapes if shape.map.side == side)
                    checks.append((k, side, family, corner_funcs, own.gluing.reversed()))
    n_corners = len(checks)
    for idx, itf in enumerate(topo.interfaces):
        if itf.reverse:
            dofs = [(g, lab[2:]) for g, lab in enumerate(space.labels) if lab[:2] == ("iface", idx)]
            cols = [space.patch_rows[itf.l][g].indices for g, _ in dofs]
            assert all(len(c) == 1 for c in cols)
            # the l side's data in the shared parameter: its own, reversed
            checks.append((itf.l, itf.side_l, [c[0] for c in cols], [f for _, f in dofs], space.iface_gluing[idx][1]))
    assert n_corners > 0
    assert len(checks) > n_corners or not any(itf.reverse for itf in topo.interfaces)
    for k, side, cols, funcs, gluing in checks:
        prims = space.primitives[k]
        flipped = EdgeShape(SideMap(side, True), gluing, space.sol, space.splus, space.sminus)
        scale = {}
        for u, v in grids:
            got = c1space.GridJets(prims.families, prims.X[cols], u, v).jets()
            for i, (kind, j) in enumerate(funcs):
                want = edge_function_jets(flipped, kind, j, u, v)
                scale.setdefault(i, np.abs(want).max(axis=(0, 1)))
                assert np.all(np.abs(got[i] - want).max(axis=(0, 1)) <= RTOL * scale[i]), (k, side, kind, j)


PAIR_CASES = [(name, n) for name in BUILTIN_NAMES for n in (4, 8)]


@pytest.mark.parametrize("name,n", PAIR_CASES, ids=[f"{a}-n{b}" for a, b in PAIR_CASES])
def test_window_pairs_match_per_column_primitives(name, n):
    """Every family column of every patch, gathered in the per-cell windows
    of its family, equals its jets from a unit row bit for bit: on every
    cell of the volume grid (element rows), and on every span of a side
    line along each parameter direction.  A column outside a cell's
    windows vanishes on the cell."""
    nodes, _ = gauss_legendre(P + 2)
    vol = ((np.arange(n)[:, None] + nodes) / n).ravel()
    cells = np.arange(len(vol)).reshape(n, -1)
    nodes, _ = gauss_legendre(2 * P + 1)
    line = ((np.arange(n)[:, None] + nodes) / n).ravel()
    spans, across = np.arange(len(line)).reshape(n, -1), np.zeros((n, 1), dtype=int)
    eu, ev = np.divmod(np.arange(n * n), n)
    first, last = np.zeros(n, dtype=int), np.full(n, n - 1)
    grids = [  # (u points, v points, u windows, v windows, u elements, v elements)
        (vol, vol, cells[eu], cells[ev], eu, ev),
        (np.array([0.0]), line[::-1].copy(), across, spans, first, n - 1 - np.arange(n)),
        (line, np.array([1.0]), spans, across, np.arange(n), last),
    ]
    for prims in build_c1_space(builtin_geometry(name), P, P - 1, n).primitives:
        for u, v, u_win, v_win, cu, cv in grids:
            want = prims.expand(np.eye(prims.n_basis), u, v)
            for fam in prims.families:
                hit, cols, U, V = fam.windows(cu, cv, (u, u_win), (v, v_win))
                for h, c in enumerate(hit):
                    # (iu, iv, u point, v point) per jet slot
                    got = np.stack([U[h, :, a].T[:, None, :, None] * V[h, :, b].T[:, None] for a, b in JET_ORDERS], -1)
                    local = want[:, u_win[c]][:, :, v_win[c]]
                    assert np.array_equal(got.reshape(local[cols[h]].shape), local[cols[h]])
                outside = np.ones((len(cu), prims.n_basis), dtype=bool)
                outside[hit[:, None], cols] = False
                outside[:, : fam.first] = outside[:, fam.first + fam.count :] = False
                for c in range(len(cu)):
                    assert not np.any(want[outside[c]][:, u_win[c]][:, :, v_win[c]])


def test_grid_jets_built_once_per_patch_and_side_line(monkeypatch):
    """Vertex families take one grid per patch, on its 2 x 2 corner grid;
    the approx-C1 volume form and the side lines take none, as the cell
    kernel evaluates every family from the windows of its univariate
    tables."""
    built = []
    init = c1space.GridJets.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(c1space.GridJets, "__init__", counting_init)
    topo = builtin_geometry("square-6-bilinear")
    space = build_c1_space(topo, P, P - 1, 8)
    assert len(built) == len(topo.patches)
    for tag, g2 in (("gn", None), ("gl", manufactured_laplacian)):
        view = homogeneous_subspace(space, {e: tag for e in topo.boundary_edges})
        built.clear()
        assemble_approx_c1(view, manufactured_rhs, g2=g2)
        assert not built


@pytest.mark.parametrize("tag", ["gn", "gl"])
def test_boundary_edges_sampled_once_per_partition(tag, monkeypatch):
    """A boundary-condition partition evaluates each boundary edge once,
    for the vertex dofs of both of its ends, on one grid."""
    topo = builtin_geometry("square-6-bilinear")
    space = build_c1_space(topo, P, P - 1, 8)
    frames, built = [], []
    geom, init = c1space.EdgeFrame.geom, c1space.GridJets.__init__

    def counting_geom(self, ts):
        frames.append((self.patch, self.side))
        return geom(self, ts)

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(c1space.EdgeFrame, "geom", counting_geom)
    monkeypatch.setattr(c1space.GridJets, "__init__", counting_init)
    homogeneous_subspace(space, {e: tag for e in topo.boundary_edges})
    assert len(topo.boundary_edges) == 10
    assert sorted((topo.patches.index(patch), side) for patch, side in frames) == sorted(topo.boundary_edges)
    assert len(built) == len(topo.boundary_edges)


def test_geometry_jets_evaluated_once_per_patch(monkeypatch):
    """The volume form evaluates each patch's geometry once, and the error
    norms once per patch plus once per interface side line, under a
    budget of one element row per band."""
    calls = []
    jet_grid = Patch.jet_grid

    def counting_jet_grid(self, us, vs):
        calls.append(self)
        return jet_grid(self, us, vs)

    topo = builtin_geometry("square-6-bilinear")
    views = [
        C0Space(topo, P, P - 1, 8, {e: "gn" for e in topo.boundary_edges}),
        make_view("square-6-bilinear", "c1-gn", 8),
    ]
    monkeypatch.setattr(Patch, "jet_grid", counting_jet_grid)
    monkeypatch.setattr(assembly, "_CELL_BAND_SIZE", 1)
    for view in views:
        calls.clear()
        _Assembler(view).volume_system(manufactured_rhs)
        assert 0 < len(calls) <= len(topo.patches)
        calls.clear()
        stack = np.random.default_rng(5).standard_normal((3, view.n_total))
        stacked_error_norms(view, stack, manufactured_jet)
        assert 0 < len(calls) <= len(topo.patches) + 2 * len(topo.interfaces)


@pytest.mark.parametrize("kind", ["c0-gn", "c1-gn"])
def test_element_bands_do_not_change_forms(kind, monkeypatch):
    """Stiffness, load and broken Gram assembled one element row per band
    and one whole patch per band agree to round-off."""
    view = make_view("square-6-bicubic", kind, 8)
    forms = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(assembly, "_CELL_BAND_SIZE", budget)
        asm = _Assembler(view)
        K, F = asm.volume_system(manufactured_rhs)
        forms.append((asm.to_dofs(K).toarray(), asm.E @ F, broken_gram(view).toarray()))
    for rows, patches in zip(*forms):
        assert rel_gap(rows, patches) <= 1e-14


@pytest.mark.parametrize("kind", ["c0-gn", "c1-gn"])
def test_views_own_their_extraction(kind):
    """A space view builds its extraction matrix once, a CSR matrix with
    sorted indices and the patches' columns side by side over one family
    list, and the assembler reads both as they are."""
    view = make_view("square-6-bilinear", kind, 8)
    asm = _Assembler(view)
    assert asm.E is view.E and asm.families is view.families
    n_basis = view.families[-1].first + view.families[-1].count
    assert view.E.format == "csr" and view.E.has_sorted_indices
    assert view.E.shape == (view.n_total, len(view.topology.patches) * n_basis)
    E = view.E
    assert all(np.all(np.diff(E.indices[a:b]) > 0) for a, b in zip(E.indptr[:-1], E.indptr[1:]))
    if kind.startswith("c1"):
        assert all(prims.families is view.families for prims in view.space.primitives)


def test_element_bands_cover_each_patch_once(monkeypatch):
    """The volume form calls the cell kernel once per patch on the
    approx-C1 view of the c1-converge benchmark; under a budget of three
    element rows, several bands per patch cover every cell exactly once."""
    calls = []
    cells = _Assembler.cells

    def counting_cells(self, patch_index, eu, ev, *args):
        calls.append((patch_index, eu * self.n + ev))
        return cells(self, patch_index, eu, ev, *args)

    monkeypatch.setattr(_Assembler, "cells", counting_cells)
    view = make_view("square-6-bilinear", "c1-gn", 8)
    asm = _Assembler(view)
    n_patches = len(asm.topology.patches)
    asm.volume_system(manufactured_rhs)
    assert [k for k, _ in calls] == list(range(n_patches))
    # the widest cell, in a patch corner: the tensor window and two strips
    tensor, strip = asm.families[:2]
    nd = tensor.width + 2 * strip.width
    monkeypatch.setattr(assembly, "_CELL_BAND_SIZE", 3 * asm.n * nd * asm.nq ** 2)
    calls.clear()
    asm.volume_system(manufactured_rhs)
    for k in range(n_patches):
        bands = [cell for patch, cell in calls if patch == k]
        assert len(bands) == 3
        assert np.array_equal(np.sort(np.concatenate(bands)), np.arange(asm.n * asm.n))


def test_each_band_released_before_the_next(monkeypatch):
    """The volume form and the broken Gram drop a band's operator rows,
    ids and values before the cell kernel computes the next band, so at
    most one band of values is alive at a time."""
    alive = []
    cells = _Assembler.cells

    def tracking_cells(self, *args):
        assert all(ref() is None for ref in alive)
        out = cells(self, *args)
        alive[:] = [weakref.ref(a) for a in (args[-1],) + out]
        return out

    monkeypatch.setattr(_Assembler, "cells", tracking_cells)
    view = make_view("square-6-bilinear", "c1-gn", 8)
    _Assembler(view).volume_system(manufactured_rhs)
    broken_gram(view)
