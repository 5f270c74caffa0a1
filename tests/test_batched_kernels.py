"""Batched geometry jets, element-row volume kernels, whole-line edge rows
and the separable evaluator of patch combinations against the per-point,
per-element, per-span and per-column reference loops in ``oracles``,
which evaluate approx-C1 dofs piece by piece."""

import numpy as np
import pytest

from mpiga import c1space
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
from mpiga.bspline import gauss_legendre
from mpiga.c1space import build_c1_space, homogeneous_subspace
from mpiga.fixtures import BUILTIN_NAMES, builtin_geometry
from mpiga.geometry import Patch, SideMap

from oracles import (
    _Reference,
    boundary_load_reference,
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


def make_view(name, kind, n=N, p=P):
    topo = builtin_geometry(name)
    tags = {e: kind.split("-")[-1] for e in topo.boundary_edges}
    if kind == "c0":
        return C0Space(topo, p, p - 1, n)
    if kind.startswith("c0-"):
        return C0Space(topo, p, p - 1, n, tags)
    return homogeneous_subspace(build_c1_space(topo, p, p - 1, n), tags)


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


def case_id(case):
    name, kind, quad_scale, n, p = case
    return f"{name}-{kind}-{quad_scale}" + ("" if n == N else f"-n{n}") + ("" if p == P else f"-p{p}")


@pytest.mark.parametrize("name,kind,quad_scale,n,p", CASES, ids=[case_id(c) for c in CASES])
def test_volume_kernels_match_per_element_loops(name, kind, quad_scale, n, p):
    view = make_view(name, kind, n, p)
    coeffs = np.random.default_rng(7).standard_normal(view.n_total)
    exact_jets = (None, manufactured_jet)
    K_ref, F_ref, G_ref, norms_ref = per_element_reference(
        view, manufactured_rhs, coeffs, exact_jets, quad_scale
    )
    asm = _Assembler(view, quad_scale)
    K, F = asm.volume_system(manufactured_rhs)
    assert rel_gap(asm.to_dofs(K).todense(), K_ref) <= RTOL
    assert rel_gap(asm.E @ F, F_ref) <= RTOL
    assert rel_gap(broken_gram(view, quad_scale).todense(), G_ref) <= RTOL
    for exact, (l2, h1, h2, jumps) in zip(exact_jets, norms_ref):
        report = error_norms(view, coeffs, exact, quad_scale)
        got = [report.l2, report.h1, report.h2] + report.jumps
        assert rel_gap(got, [l2, h1, h2] + jumps) <= RTOL


@pytest.mark.parametrize("name,kind,quad_scale,n,p", CASES, ids=[case_id(c) for c in CASES])
def test_edge_span_rows_match_per_span_loops(name, kind, quad_scale, n, p):
    view = make_view(name, kind, n, p)
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
    sides alike, against the per-span reference."""
    view = make_view(name, kind)
    asm = _Assembler(view)
    ref = _Reference(view, 1)
    for k in range(len(asm.topology.patches)):
        for side in (1, 2, 3, 4):
            for t_flip in (False, True):
                side_map = SideMap(side, t_flip)
                ids, phys, _geom = asm.side_line(k, side_map)
                for span in range(N):
                    got = np.zeros((asm.n_prims, asm.edge_nq * 6))
                    keep = ids[span] >= 0
                    np.add.at(got, ids[span, keep], phys[span, keep].reshape(-1, asm.edge_nq * 6))
                    got = (asm.E @ got).reshape(view.n_total, asm.edge_nq, 6)
                    want = np.zeros_like(got)
                    ref_ids, ref_phys = ref.span(k, side_map, span)
                    np.add.at(want, ref_ids, ref_phys)
                    assert np.abs(want).max() > 0.0
                    assert rel_gap(got, want) <= RTOL


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
    (name, kind, n)
    for name in ("square-6-bilinear", "square-2-bicubic")
    for kind in ("c1-gn", "c1-gl", "c0")
    for n in (4, 8)
]


@pytest.mark.parametrize("name,kind,n", EVAL_CASES, ids=[f"{a}-{b}-n{c}" for a, b, c in EVAL_CASES])
def test_grid_jets_match_per_column_expand(name, kind, n):
    """Random dense weight rows on every patch, against the sum of every
    column's jets; unit rows reproduce the columns' jets bit for bit."""
    view = make_view(name, kind, n)
    rng = np.random.default_rng(11)
    for prims in [view.primitives] if kind == "c0" else view.space.primitives:
        W = rng.standard_normal((3, prims.n_cols))
        for u, v in evaluation_grids(n):
            want = expand_reference(prims, W, u, v)
            grid = c1space.GridJets(prims, W, u, v)
            assert rel_gap(grid.jets(), want) <= RTOL
            band = slice(len(u) // 3, len(u) // 3 + 5)
            assert rel_gap(grid.jets(band), want[:, band]) <= RTOL
        cols = np.sort(rng.choice(prims.n_cols, size=min(40, prims.n_cols), replace=False))
        u, v = evaluation_grids(n)[0]
        unit = prims.expand(prims.selection(cols), u, v)
        assert np.array_equal(unit, primitive_jets(prims, cols, u, v))


PAIR_CASES = [(name, n) for name in BUILTIN_NAMES for n in (4, 8)]


@pytest.mark.parametrize("name,n", PAIR_CASES, ids=[f"{a}-n{b}" for a, b in PAIR_CASES])
def test_window_pairs_match_per_column_primitives(name, n):
    """Every edge column of every patch, gathered as per-pair windows from
    one table, equals its per-column jets bit for bit: on every cell of the
    volume grid (element rows), and on every span of a side line along
    each parameter direction."""
    nodes, _ = gauss_legendre(P + 2)
    vol = ((np.arange(n)[:, None] + nodes) / n).ravel()
    cells = np.arange(len(vol)).reshape(n, -1)
    nodes, _ = gauss_legendre(2 * P + 1)
    line = ((np.arange(n)[:, None] + nodes) / n).ravel()
    spans, across = np.arange(len(line)).reshape(n, -1), np.zeros((n, 1), dtype=int)
    eu, ev = np.divmod(np.arange(n * n), n)
    grids = [  # (u points, v points, u windows, v windows)
        (vol, vol, cells[eu], cells[ev]),
        (np.array([0.0]), line[::-1].copy(), across, spans),
        (line, np.array([1.0]), spans, across),
    ]
    for prims in build_c1_space(builtin_geometry(name), P, P - 1, n).primitives:
        cols = np.arange(prims.N ** 2, prims.n_cols)
        for u, v, u_win, v_win in grids:
            want = primitive_jets(prims, cols, u, v)
            rows = np.repeat(np.arange(len(cols)), len(u_win))
            iu, iv = np.tile(u_win, (len(cols), 1)), np.tile(v_win, (len(cols), 1))
            got = c1space.GridJets(prims, prims.selection(cols), u, v).pairs(rows, iu, iv)
            assert np.array_equal(got, want[rows[:, None, None], iu[:, :, None], iv[:, None, :]])


def test_grid_jets_built_once_per_patch_and_side_line(monkeypatch):
    """Vertex families take one grid per (vertex, incident patch); the
    approx-C1 volume form one table per patch, and each side line one."""
    built = []
    init = c1space.GridJets.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(c1space.GridJets, "__init__", counting_init)
    topo = builtin_geometry("square-6-bilinear")
    space = build_c1_space(topo, P, P - 1, 8)
    assert len(built) == sum(len(vertex.incident) for vertex in topo.vertices)
    for tag, g2, side_lines in (("gn", None, 0), ("gl", manufactured_laplacian, len(topo.boundary_edges))):
        view = homogeneous_subspace(space, {e: tag for e in topo.boundary_edges})
        built.clear()
        assemble_approx_c1(view, manufactured_rhs, g2=g2)
        assert 0 < len(built) <= len(topo.patches) + side_lines


def test_geometry_jets_evaluated_once_per_patch(monkeypatch):
    """The volume form evaluates each patch's geometry once, and the error
    norms once per patch plus once per interface side line, on a stack
    whose element rows span several bands."""
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
    for view in views:
        calls.clear()
        _Assembler(view).volume_system(manufactured_rhs)
        assert 0 < len(calls) <= len(topo.patches)
        calls.clear()
        stack = np.random.default_rng(5).standard_normal((3, view.n_total))
        stacked_error_norms(view, stack, manufactured_jet)
        assert 0 < len(calls) <= len(topo.patches) + 2 * len(topo.interfaces)
