import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mpiga.assembly import (
    C0Space,
    NitscheForm,
    _Assembler,
    assemble_approx_c1,
    assemble_nitsche,
    broken_gram,
    error_norms,
    _interface_extraction,
    estimate_stability_constant,
    manufactured_jet,
    manufactured_laplacian,
    manufactured_rhs,
    physical_jet,
    stability_constants,
    stacked_error_norms,
)
from mpiga.bspline import SplineSpace, TensorSplineSpace
from mpiga.c1space import build_c1_space, homogeneous_subspace
from mpiga.errors import GeometryError, IndefiniteSystemError, ParameterError
from mpiga.fixtures import BUILTIN_NAMES, builtin_geometry
from mpiga.geometry import (
    InterfaceRecord,
    Patch,
    Topology,
    detect_topology,
    laplacian_rows,
)
from mpiga.linalg import sum_blocks

from helpers import eval_jet, greville
from oracles import c0_numbering_reference, closed_form_physical_jet, fd_bilaplacian


def scaled_squares(s=1.0):
    sp = SplineSpace(1, 0, 1)

    def sq(x0):
        c = np.empty((2, 2, 2))
        for i, u in enumerate((0.0, 1.0)):
            for j, v in enumerate((0.0, 1.0)):
                c[i, j] = (s * (x0 + u), s * v)
        return Patch(TensorSplineSpace(sp, sp), c)

    return detect_topology([sq(0.0), sq(1.0)])


def gn_tags(topo):
    return {e: "gn" for e in topo.boundary_edges}


def gl_tags(topo):
    return {e: "gl" for e in topo.boundary_edges}


# -- physical jets -------------------------------------------------------------


def curved_bicubic():
    """One curved bicubic patch and its control net."""
    sp = SplineSpace(3, 2, 1)
    u = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    ctrl = np.empty((4, 4, 2))
    for i in range(4):
        for j in range(4):
            ctrl[i, j] = (u[i] + 0.07 * np.sin(np.pi * u[j]), u[j] + 0.05 * u[i] * (1 - u[i]))
    return Patch(TensorSplineSpace(sp, sp), ctrl), sp, ctrl


def test_physical_jet_curved_symbolic_oracle():
    # pull x^3 y back through a curved bicubic map and transform forward again
    patch, sp, ctrl = curved_bicubic()

    def exact(x, y):
        return np.array([x ** 3 * y, 3 * x * x * y, x ** 3, 6 * x * y, 3 * x * x, 0.0])

    step = 1e-5
    for (uu, vv) in [(0.31, 0.42), (0.68, 0.77)]:
        pt, jac, hess = patch.jet_at(uu, vv)

        def f(a, b):
            q = patch.jet_at(a, b)[0]
            return q[0] ** 3 * q[1]

        jets = np.array(
            [
                f(uu, vv),
                (f(uu + step, vv) - f(uu - step, vv)) / (2 * step),
                (f(uu, vv + step) - f(uu, vv - step)) / (2 * step),
                (f(uu + step, vv) - 2 * f(uu, vv) + f(uu - step, vv)) / step ** 2,
                (
                    f(uu + step, vv + step)
                    - f(uu + step, vv - step)
                    - f(uu - step, vv + step)
                    + f(uu - step, vv - step)
                )
                / (4 * step * step),
                (f(uu, vv + step) - 2 * f(uu, vv) + f(uu, vv - step)) / step ** 2,
            ]
        )
        out = physical_jet(jets, jac, hess)
        ref = exact(*pt)
        assert np.abs(out - ref).max() <= 1e-4  # jets come from finite differences

    # exact parametric jets give the symbolic target to solver precision
    grev = greville(sp)
    coeffs_x = ctrl[..., 0]
    coeffs_y = ctrl[..., 1]
    ts = TensorSplineSpace(sp, sp)
    # represent f = x(u,v)^3 y(u,v) exactly is degree 12: instead verify via
    # the gradient chain on the geometry components themselves
    for (uu, vv) in [(0.31, 0.42)]:
        pt, jac, hess = patch.jet_at(uu, vv)
        jx = eval_jet(ts, coeffs_x, uu, vv)
        out = physical_jet(jx, jac, hess)
        # the x-component has physical jet (x, 1, 0, 0, 0, 0)
        assert np.abs(out - np.array([pt[0], 1, 0, 0, 0, 0])).max() <= 1e-9


def test_physical_jet_matches_closed_form_chain_rule():
    patch, _, _ = curved_bicubic()
    xs = np.linspace(0.05, 0.95, 7)
    _, jac, hess = patch.jet_grid(xs, xs)
    jets = np.random.default_rng(5).standard_normal((3, 7, 7, 6))
    got = physical_jet(jets, jac, hess)
    ref = closed_form_physical_jet(jets, jac, hess)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_physical_jet_allocates_no_per_point_map():
    # the chain rule runs slot by slot: its peak stays below four outputs,
    # where a 6 x 6 map per point alone would take six
    patch, _, _ = curved_bicubic()
    xs = np.linspace(0.01, 0.99, 64)
    _, jac, hess = patch.jet_grid(xs, xs)
    jac, hess = jac.reshape(4096, 2, 2), hess.reshape(4096, 2, 2, 2)
    jets = np.random.default_rng(8).standard_normal((1, 4096, 6))
    physical_jet(jets, jac, hess)  # warm up numpy's own allocations
    tracemalloc.start()
    try:
        out = physical_jet(jets, jac, hess)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.nbytes


def test_laplacian_rows_match_physical_jet():
    patch, _, _ = curved_bicubic()
    xs = np.linspace(0.05, 0.95, 7)
    _, jac, hess = patch.jet_grid(xs, xs)
    unit = physical_jet(np.eye(6)[:, None, None], jac, hess)  # (slot, 7, 7, physical slot)
    want = np.moveaxis(unit[..., 3] + unit[..., 5], 0, -1)
    got = laplacian_rows(jac, hess)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    jets = np.random.default_rng(6).standard_normal((3, 7, 7, 6))
    lap = physical_jet(jets, jac, hess)
    lap = lap[..., 3] + lap[..., 5]
    assert np.abs((got * jets).sum(axis=-1) - lap).max() <= 1e-13 * np.abs(lap).max()
    folded = folded_topology().patches[0]
    _, jac, hess = folded.jet_grid(xs, xs)
    with pytest.raises(GeometryError):
        laplacian_rows(jac, hess)


def folded_topology():
    """Two bilinear patches glued along x = 1 (patch 0 side 2 to patch 1
    side 4).  Patch 0 pulls its corner (1, 1) in to (0.2, 0.2), so det J =
    1 - 0.8 (u + v) changes sign inside it and on its sides 2 and 3; the
    topology is built directly because detection rejects the fold."""
    sp = SplineSpace(1, 0, 1)
    folded = Patch(TensorSplineSpace(sp, sp), [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.2, 0.2]]])
    right = Patch(TensorSplineSpace(sp, sp), [[[1.0, 0.0], [0.2, 0.2]], [[2.0, 0.0], [2.0, 1.0]]])
    boundary = [(0, 1), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3)]
    return Topology([folded, right], [InterfaceRecord(0, 2, 1, 4, False)], boundary, [], 1e-9)


def test_folded_geometry_raises_in_volume_and_edge_kernels():
    topo = folded_topology()
    with pytest.raises(GeometryError):
        topo.patches[0].check_regularity()
    assert topo.patches[1].check_regularity() > 0.0
    space = C0Space(topo, 3, 2, 4, {e: "gl" for e in topo.boundary_edges})
    asm = _Assembler(space)
    with pytest.raises(GeometryError):
        asm.volume_system(manufactured_rhs)
    with pytest.raises(GeometryError):
        asm.interface_edge_rows(0)
    with pytest.raises(GeometryError):
        asm.boundary_moment_load(np.zeros(asm.n_prims), manufactured_laplacian, {(0, 3): "gl"})


# -- manufactured solution -------------------------------------------------------


def test_manufactured_values():
    jet = manufactured_jet(0.0, 0.0)
    assert np.abs(jet[:3]).max() == 0.0
    assert np.isclose(manufactured_jet(0.125, 0.125)[0], 1.0)


def test_manufactured_bilaplacian_vs_fd():
    # step 4e-3 balances truncation against the 1/step^4 roundoff
    # amplification of a fourth-derivative stencil in double precision
    rng = np.random.RandomState(2)
    pts = rng.rand(100, 2) * 0.9 + 0.05

    def phi(x, y):
        return (np.cos(4 * np.pi * x) - 1.0) * (np.cos(4 * np.pi * y) - 1.0)

    for x, y in pts:
        ref = fd_bilaplacian(phi, x, y, step=4e-3)
        val = manufactured_rhs(x, y)
        assert abs(val - ref) <= 1e-5 * max(1.0, abs(ref))


def test_zero_solution_error_is_solution_norm(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, gn_tags(topo1))
    rep = error_norms(view, np.zeros(view.n_total), manufactured_jet, quad_scale=3)
    assert abs(rep.l2 - 1.5) <= 1e-9  # ||phi||_L2 = 3/2 exactly


# -- assembly -------------------------------------------------------------------


def test_zero_load_zero_solution(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, gn_tags(topo1))
    system = assemble_approx_c1(view, lambda x, y: np.zeros_like(x))
    x = system.solve()
    assert np.abs(x).max() <= 1e-14
    assert np.abs(system.load).max() == 0.0


def test_galerkin_exactness_polynomial(topo1):
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, gn_tags(topo1))

    def exact(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        return np.stack(
            [x * x * y * y, 2 * x * y * y, 2 * x * x * y, 2 * y * y, 4 * x * y, 2 * x * x],
            axis=-1,
        )

    def g0(x, y):
        return np.asarray(x) ** 2 * np.asarray(y) ** 2

    def g1(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        out = np.where(np.isclose(y, 0.0), -2 * x * x * y, np.zeros_like(x))
        out = np.where(np.isclose(y, 1.0), 2 * x * x * y, out)
        out = np.where(np.isclose(x, 0.0), -2 * x * y * y, out)
        out = np.where(np.isclose(x, 1.0), 2 * x * y * y, out)
        return out

    system = assemble_approx_c1(view, lambda x, y: np.full_like(np.asarray(x), 8.0), g0=g0, g1=g1)
    coeffs = system.solve()
    rep = error_norms(view, coeffs, exact)
    assert rep.h2 <= 1e-9


def test_stiffness_symmetry(topo2c):
    space = build_c1_space(topo2c, 3, 2, 4)
    view = homogeneous_subspace(space, gl_tags(topo2c))
    system = assemble_approx_c1(view, manufactured_rhs, g2=manufactured_laplacian)
    assert system.symmetry_gap() <= 1e-12
    c0 = C0Space(topo2c, 3, 2, 4, gl_tags(topo2c))
    sysn = assemble_nitsche(c0, manufactured_rhs, g2=manufactured_laplacian,
                            bc_tags=gl_tags(topo2c), eta=10.0)
    assert sysn.symmetry_gap() <= 1e-12


def test_solver_residual_bound(topo2c):
    space = build_c1_space(topo2c, 3, 2, 8)
    view = homogeneous_subspace(space, gl_tags(topo2c))
    system = assemble_approx_c1(view, manufactured_rhs, g2=manufactured_laplacian)
    x = system.solve()[: view.n_free]
    K = system.matrix
    res = np.linalg.norm(K @ x - system.load)
    assert res <= 1e-10 * max(np.linalg.norm(system.load), abs(K).max() * np.linalg.norm(x))


def test_nitsche_terms_vanish_for_smooth_function():
    topo = scaled_squares()
    space = C0Space(topo, 3, 2, 4, bc_tags=None)
    asm = _Assembler(space)
    # coefficients of the global function x (Greville abscissae of the union)
    coeffs = np.zeros(space.n_total)
    sol = space.sol
    grev = greville(sol)
    for k in range(2):
        fid = space.patch_fids[k]
        for i in range(sol.dim):
            for j in range(sol.dim):
                coeffs[fid[i, j]] = grev[i] + k  # x-coordinate on [0,2]
    ids, jump, _avg, _w = asm.interface_edge_rows(0)
    weights = asm.E.T @ coeffs  # the function over the primitives
    jumps = np.einsum("sa,saq->sq", np.where(ids >= 0, weights[ids], 0.0), jump)
    assert np.abs(jumps).max() <= 1e-11


def test_nitsche_single_patch_equals_plain_form(topo1):
    space = build_c1_space(topo1, 3, 2, 8)
    view = homogeneous_subspace(space, gn_tags(topo1))
    s1 = assemble_approx_c1(view, manufactured_rhs)
    c0 = C0Space(topo1, 3, 2, 8, gn_tags(topo1))
    s2 = assemble_nitsche(c0, manufactured_rhs, eta=1.0)
    K1 = np.sort(s1.matrix.toarray().ravel())
    K2 = np.sort(s2.matrix.toarray().ravel())
    assert K1.shape == K2.shape
    assert np.abs(K1 - K2).max() <= 1e-12 * max(1.0, np.abs(K1).max())


def test_nitsche_requires_positive_eta(topo2c):
    view = C0Space(topo2c, 3, 2, 4, gl_tags(topo2c))
    with pytest.raises(ParameterError):
        assemble_nitsche(view, manufactured_rhs, eta=-1.0)
    with pytest.raises(ParameterError):
        assemble_nitsche(view, manufactured_rhs, eta=None)
    form = NitscheForm(view, manufactured_rhs)
    for eta in (float("nan"), float("inf"), 0.0):
        for weights in (eta, {0: eta}):
            with pytest.raises(ParameterError, match="eta"):
                form.system(weights)


def test_nitsche_eta_mapping_names_every_interface():
    """A per-interface eta mapping gives a weight to every interface and to
    no other index; the error names the missing and the stray indices."""
    topo = builtin_geometry("square-6-bilinear")
    form = NitscheForm(C0Space(topo, 3, 2, 4, gn_tags(topo)), manufactured_rhs)
    assert len(topo.interfaces) == 7
    with pytest.raises(ParameterError, match=r"missing \[1, 2, 3, 4, 5, 6\], stray \[\]"):
        form.system({0: 1.0})
    with pytest.raises(ParameterError, match=r"missing \[\], stray \[7, 8\]"):
        form.system({i: 1.0 for i in range(9)})
    assert form.system({i: 1.0 for i in range(7)}).matrix.shape == form.base.shape


def test_nitsche_coercive_at_reference_eta():
    topo = scaled_squares()
    c = estimate_stability_constant(topo, 0, 3, 2, 4)
    view = C0Space(topo, 3, 2, 4, gn_tags(topo))
    system = assemble_nitsche(view, manufactured_rhs, bc_tags=gn_tags(topo), eta=4.0 * c / 0.25)
    lam = scipy.linalg.eigh(system.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0])
    assert lam[0] > 0.0


def test_nitsche_indefinite_at_tiny_eta():
    topo = scaled_squares()
    c = estimate_stability_constant(topo, 0, 3, 2, 4)
    view = C0Space(topo, 3, 2, 4, gn_tags(topo))
    system = assemble_nitsche(view, manufactured_rhs, bc_tags=gn_tags(topo),
                              eta=1e-3 * 0.25 * c)
    w = np.linalg.eigvalsh(system.matrix.toarray())
    assert w[0] < 0.0


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_c0_numbering_matches_union_find(name):
    # the sparse-graph numbering against the coefficient-by-coefficient
    # union-find: the dof order sets the fill of the sparse factorization
    topo = builtin_geometry(name)
    edges = sorted(topo.boundary_edges)
    tag_sets = [None, {}, gl_tags(topo), gn_tags(topo)]
    tag_sets.append({e: ("gl", "gn")[i % 2] for i, e in enumerate(edges)})
    for p, r in ((2, 1), (3, 2), (4, 3), (3, 0)):
        for tags in tag_sets:
            space = C0Space(topo, p, r, 4, tags)
            ref = c0_numbering_reference(topo, space.sol.dim, tags)
            assert len(space.patch_fids) == len(ref)
            for got, want in zip(space.patch_fids, ref):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert space.n_free == space.n_total == 1 + max(g.max() for g in ref)


def _laplacian_row(jac, hess, w, _point):
    """sqrt(w) times the physical Laplacian row, slots 3 and 5 of the
    physical jets of the six unit jets, one row per point."""
    unit = physical_jet(np.eye(6)[:, None, None], jac, hess)
    return np.moveaxis((unit[..., 3] + unit[..., 5]) * np.sqrt(w), 0, -1)[:, :, None]


def _volume_stacks(asm):
    """The (primitive ids, Laplacian Gram blocks) stacks of the volume
    stiffness, row by row."""
    for k in range(len(asm.topology.patches)):
        for ids, vals in asm.element_rows(k, _laplacian_row):
            lap = vals[:, :, 0]
            yield ids, lap @ lap.swapaxes(1, 2)


def _interface_stacks(asm):
    """Per interface, the primitive ids and the consistency and penalty
    blocks of its spans."""
    for idx in range(len(asm.topology.interfaces)):
        ids, jump, avg, w = asm.interface_edge_rows(idx)
        jw = jump * w[:, None, :]
        consistency = jw @ avg.swapaxes(1, 2)
        yield ids, consistency + consistency.swapaxes(1, 2), jw @ jump.swapaxes(1, 2)


def _dense_add(K, ids, blocks):
    for row, block in zip(ids, blocks):
        keep = row >= 0
        np.add.at(K, np.ix_(row[keep], row[keep]), block[np.ix_(keep, keep)])


def test_nitsche_system_shares_pattern_across_eta(topo2c):
    view = C0Space(topo2c, 3, 2, 4, gl_tags(topo2c))
    form = NitscheForm(view, manufactured_rhs, g2=manufactured_laplacian, bc_tags=gl_tags(topo2c))
    asm = _Assembler(view)
    V = np.zeros((asm.n_prims, asm.n_prims))
    S, P = np.zeros_like(V), np.zeros_like(V)
    for ids, blocks in _volume_stacks(asm):
        _dense_add(V, ids, blocks)
    for ids, sym, penalty in _interface_stacks(asm):
        _dense_add(S, ids, sym)
        _dense_add(P, ids, penalty)
    E = asm.E.toarray()
    h = view.sol.h
    matrices = []
    for eta in (3.0, 250.0):
        K = form.system(eta).matrix
        ref = E @ (V + S + eta / h * P) @ E.T
        assert np.abs(K.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
        matrices.append(K)
    assert np.array_equal(matrices[0].indices, matrices[1].indices)
    assert np.array_equal(matrices[0].indptr, matrices[1].indptr)


def test_nitsche_system_matches_triplet_merge(topo6):
    # system(eta) adds the mapped penalties to the mapped base; merging all
    # weighted blocks as triplets over the primitives and mapping them to
    # dofs once gives the same matrix
    view = C0Space(topo6, 4, 3, 4, gn_tags(topo6))
    form = NitscheForm(view, manufactured_rhs, bc_tags=gn_tags(topo6))
    asm = _Assembler(view)
    stacks = list(_interface_stacks(asm))
    h = view.sol.h
    for eta in (7.0, {i: 10.0 ** i for i in range(len(stacks))}):
        weights = eta if isinstance(eta, dict) else dict.fromkeys(range(len(stacks)), eta)
        merged = [sum_blocks(ids, blocks) for ids, blocks in _volume_stacks(asm)]
        for idx, (ids, sym, penalty) in enumerate(stacks):
            merged.append(sum_blocks(ids, sym + weights[idx] / h * penalty))
        want, got = asm.to_dofs(merged), form.system(eta).matrix
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()


def _coupled_pairs(ids):
    keys = [np.add.outer(row[row >= 0] * (ids.max() + 1), row[row >= 0]).ravel() for row in ids]
    return len(np.unique(np.concatenate(keys)))


def test_assembly_stores_one_triplet_per_coupled_pair(topo6):
    # the memory of an assembled matrix before the merge is one triplet
    # per distinct coupled pair of each block stack, and none after it
    views = [
        C0Space(topo6, 3, 2, 4, gn_tags(topo6)),
        homogeneous_subspace(build_c1_space(topo6, 3, 2, 4), gn_tags(topo6)),
    ]
    for view in views:
        asm = _Assembler(view)
        K, _ = asm.volume_system(None)
        assert [len(vals) for _, _, vals in K] == [_coupled_pairs(ids) for ids, _ in _volume_stacks(asm)]
        asm.to_dofs(K)
        assert K == []
    for ids, sym, _ in _interface_stacks(_Assembler(views[0])):
        assert len(sum_blocks(ids, sym)[2]) == _coupled_pairs(ids)


@pytest.mark.parametrize(
    "name,bc,p,n", [("square-6-bilinear", "gn", 4, 8), ("square-2-bicubic", "gl", 3, 16)]
)
def test_assembled_matrices_store_no_zeros(name, bc, p, n):
    # forms are mapped to dofs once as E M E^T, which keeps no entry that
    # sums to exactly zero: the C0 primitives whose interface jump and
    # average vanish, and the primitives no kept dof uses, leave none
    topo = builtin_geometry(name)
    tags = {e: bc for e in topo.boundary_edges}
    g2 = manufactured_laplacian if bc == "gl" else None
    view = homogeneous_subspace(build_c1_space(topo, p, p - 1, n), tags)
    c0 = C0Space(topo, p, p - 1, n, tags)
    for system in (
        assemble_approx_c1(view, manufactured_rhs, g2=g2),
        assemble_nitsche(c0, manufactured_rhs, g2=g2, bc_tags=tags, eta=10.0),
    ):
        K = system.matrix
        assert scipy.sparse.issparse(K) and K.format == "csr" and K.has_sorted_indices
        assert (K.data != 0).all()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_pivot_count_is_negative_eigenvalue_count(n):
    # Sylvester's law of inertia: the symmetric factorization's non-positive
    # pivots count the negative eigenvalues of the unstable Nitsche system
    topo = builtin_geometry("square-2-bicubic")
    tags = gl_tags(topo)
    h = 1.0 / n
    c = estimate_stability_constant(topo, 0, 3, 2, n)
    view = C0Space(topo, 3, 2, n, tags)
    system = assemble_nitsche(view, manufactured_rhs, bc_tags=tags, eta=1e-3 * h * c)
    negative = int(np.sum(np.linalg.eigvalsh(system.matrix.toarray()) < 0.0))
    with pytest.raises(IndefiniteSystemError) as info:
        system.solve()
    assert negative > 0 and info.value.nonpositive_pivots == negative


def bubble_jet(x, y):
    """Physical 2-jet of u = x(1-x)y(1-y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a0, a1, a2 = x * (1 - x), 1 - 2 * x, np.full_like(x, -2.0)
    b0, b1, b2 = y * (1 - y), 1 - 2 * y, np.full_like(y, -2.0)
    return np.stack([a0 * b0, a1 * b0, a0 * b1, a2 * b0, a1 * b1, a0 * b2], axis=-1)


def test_multipatch_patch_test_both_methods(topo6):
    # u = x(1-x)y(1-y) pulls back to degree-4 polynomials on the bilinear
    # patches, so it lies in both p=4 spaces and a consistent form
    # reproduces it at every stability weight; an inconsistent Nitsche
    # form misses it by an error that scales like 1/eta
    p, n = 4, 4
    tags = gl_tags(topo6)

    def lap(x, y):
        return -2 * np.asarray(y) * (1 - np.asarray(y)) - 2 * np.asarray(x) * (1 - np.asarray(x))

    def rhs(x, y):
        return np.full_like(np.asarray(x, dtype=float), 8.0)

    view = homogeneous_subspace(build_c1_space(topo6, p, p - 1, n), tags)
    system = assemble_approx_c1(view, rhs, g2=lap)
    assert error_norms(view, system.solve(), bubble_jet).h2 <= 1e-8

    view = C0Space(topo6, p, p - 1, n, tags)
    ref = {i: 4.0 * c * n for i, c in enumerate(stability_constants(topo6, p, p - 1, n))}
    for mult in (1.0, 10.0, 100.0):
        eta = {i: mult * val for i, val in ref.items()}
        system = assemble_nitsche(view, rhs, g2=lap, bc_tags=tags, eta=eta)
        assert error_norms(view, system.solve(), bubble_jet).h2 <= 1e-8, mult


# On the curved fixture the volume Gram B has near-null directions, so
# B_reg = B + 1e-12 tr(B)/dim I has condition ~1e13 and backward-stable
# dense algorithms (generalized eigh drivers, Cholesky or LU low-rank
# forms) already disagree by 3e-8 to 7e-8 relative there: the bound is
# that spread, not the 1e-10 that holds on the flat pair.
@pytest.mark.parametrize(
    "fixture,n,rtol", [("scaled_squares", 4, 1e-10), ("square-2-bicubic", 8, 1e-6)]
)
def test_stability_constant_matches_dense_pencil(fixture, n, rtol):
    topo = scaled_squares() if fixture == "scaled_squares" else builtin_geometry(fixture)
    p = 3
    asm = _Assembler(C0Space(topo, p, p - 1, n))
    B, _ = asm.volume_system(None)
    A = np.zeros((asm.n_prims, asm.n_prims))
    ids, _jump, avg, w = asm.interface_edge_rows(0)
    for pids, rows, ws in zip(ids, avg, w):
        keep = pids >= 0
        A[np.ix_(pids[keep], pids[keep])] += np.einsum("aq,q,bq->ab", rows[keep], ws, rows[keep])
    E = asm.E.toarray()
    A, B = E @ A @ E.T, asm.to_dofs(B).toarray()
    B_reg = B + 1e-12 * np.trace(B) / B.shape[0] * np.eye(B.shape[0])
    lam = scipy.linalg.eigh(A, B_reg, eigvals_only=True)[-1]
    c = estimate_stability_constant(topo, 0, p, p - 1, n)
    assert abs(c - lam) <= rtol * lam


def test_stability_constant_rejects_pair_with_two_interfaces():
    topo = scaled_squares()
    itf = topo.interfaces[0]
    twice = Topology(
        topo.patches,
        [itf, InterfaceRecord(itf.k, 1, itf.l, 1, False)],
        [],
        [],
        topo.tol,
    )
    with pytest.raises(ParameterError):
        estimate_stability_constant(twice, 0, 3, 2, 4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_interface_extraction_is_the_pair_view(name):
    # each interface's restriction of the whole view's extraction is the
    # extraction of the C0 view over its two patches alone
    topo = builtin_geometry(name)
    asm = _Assembler(C0Space(topo, 3, 2, 4))
    for itf in topo.interfaces:
        pair = Topology(
            [topo.patches[itf.k], topo.patches[itf.l]],
            [InterfaceRecord(0, itf.side_k, 1, itf.side_l, itf.reverse)],
            [],
            [],
            topo.tol,
        )
        want = C0Space(pair, 3, 2, 4).E
        cols, got = _interface_extraction(asm.E, asm.n_basis, itf)
        assert np.array_equal(cols, np.r_[itf.k * asm.n_basis : (itf.k + 1) * asm.n_basis,
                                          itf.l * asm.n_basis : (itf.l + 1) * asm.n_basis])
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_stability_parameters_assemble_each_patch_once(monkeypatch):
    from mpiga.experiments import ExperimentConfig, stability_parameters

    calls = []
    element_rows = _Assembler.element_rows

    def counting(self, patch_index, operator):
        calls.append(patch_index)
        return element_rows(self, patch_index, operator)

    monkeypatch.setattr(_Assembler, "element_rows", counting)
    cfg = ExperimentConfig(geometry="square-6-bilinear", method="nitsche", p=3, h0=0.25)
    assert len(stability_parameters(cfg)) == 7
    assert sorted(calls) == list(range(6))


@pytest.mark.parametrize("p,n", [(3, 4), (4, 8)])
def test_stability_constants_match_per_interface_entry(p, n):
    for name in BUILTIN_NAMES:
        topo = builtin_geometry(name)
        want = [estimate_stability_constant(topo, i, p, p - 1, n) for i in range(len(topo.interfaces))]
        assert stability_constants(topo, p, p - 1, n) == want, name


def test_stability_constants_without_interfaces(topo1):
    assert stability_constants(topo1, 3, 2, 4) == []


def test_forms_read_the_views_boundary_tags(topo2c):
    # the moment load of a 'gl' view's edges does not depend on whether
    # the caller repeats the tags, and tags that differ are rejected
    view = C0Space(topo2c, 3, 2, 8, gl_tags(topo2c))
    implicit = NitscheForm(view, manufactured_rhs, g2=manufactured_laplacian)
    explicit = NitscheForm(view, manufactured_rhs, g2=manufactured_laplacian, bc_tags=gl_tags(topo2c))
    assert np.array_equal(implicit.load, explicit.load)
    assert not np.array_equal(implicit.load, NitscheForm(view, manufactured_rhs).load)
    for tags in (gn_tags(topo2c), {}):
        with pytest.raises(ParameterError, match="differ"):
            NitscheForm(view, manufactured_rhs, g2=manufactured_laplacian, bc_tags=tags)
        with pytest.raises(ParameterError, match="differ"):
            assemble_nitsche(view, manufactured_rhs, bc_tags=tags, eta=1.0)
    c1 = homogeneous_subspace(build_c1_space(topo2c, 3, 2, 8), gl_tags(topo2c))
    with pytest.raises(ParameterError, match="differ"):
        assemble_approx_c1(c1, manufactured_rhs, g2=manufactured_laplacian, bc_tags=gn_tags(topo2c))


def test_stability_constant_scaling():
    c1 = estimate_stability_constant(scaled_squares(1.0), 0, 3, 2, 4)
    c2 = estimate_stability_constant(scaled_squares(2.0), 0, 3, 2, 4)
    assert c1 > 0.0
    assert abs(c2 - 0.5 * c1) <= 1e-4 * c1


def test_quadrature_sufficiency(topo1):
    # doubling quadrature points leaves assembled entries unchanged when
    # the integrands are polynomial (identity geometry)
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, gn_tags(topo1))
    K1 = assemble_approx_c1(view, None).matrix.toarray()
    K2 = assemble_approx_c1(view, None, quad_scale=2).matrix.toarray()
    scale = np.abs(K1).max()
    assert np.abs(K1 - K2).max() <= 1e-10 * scale


def test_gram_full_rank_small(topo2c):
    space = build_c1_space(topo2c, 3, 2, 4)
    view = homogeneous_subspace(space, gl_tags(topo2c))
    G = broken_gram(view).toarray()
    s = np.linalg.svd(G, compute_uv=False)
    assert s[-1] > 1e-10 * s[0]


def test_error_norms_exact_solution_is_zero(topo1):
    # represent x^2 y^2 exactly and compare against its own jet
    space = build_c1_space(topo1, 3, 2, 4)
    view = homogeneous_subspace(space, gn_tags(topo1))

    def exact(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        return np.stack(
            [x * x * y * y, 2 * x * y * y, 2 * x * x * y, 2 * y * y, 4 * x * y, 2 * x * x],
            axis=-1,
        )

    def g1(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        out = np.where(np.isclose(y, 0.0), -2 * x * x * y, np.zeros_like(x))
        out = np.where(np.isclose(y, 1.0), 2 * x * x * y, out)
        out = np.where(np.isclose(x, 0.0), -2 * x * y * y, out)
        out = np.where(np.isclose(x, 1.0), 2 * x * y * y, out)
        return out

    system = assemble_approx_c1(
        view,
        lambda x, y: np.full_like(np.asarray(x), 8.0),
        g0=lambda x, y: np.asarray(x) ** 2 * np.asarray(y) ** 2,
        g1=g1,
    )
    coeffs = system.solve()
    rep = error_norms(view, coeffs, exact)
    assert rep.h2 <= 1e-10 * 137.0  # scale of the solution's H2 norm


@pytest.mark.parametrize("kind", ["c0", "approx-c1"])
def test_stacked_error_norms_match_single_calls(topo6, kind):
    """A function's norms do not depend on the stack it is in, also where
    the stack of a Nitsche sweep (8 rows) meets element rows of several
    bands (n = 16)."""
    tags = gn_tags(topo6)
    for n, m in ((4, 3), (16, 8)):
        if kind == "c0":
            view = C0Space(topo6, 3, 2, n, tags)
        else:
            view = homogeneous_subspace(build_c1_space(topo6, 3, 2, n), tags)
        stack = np.random.RandomState(3).randn(m, view.n_total)
        for exact in (None, manufactured_jet):
            reports = stacked_error_norms(view, stack, exact)
            assert len(reports) == m
            for coeffs, rep in zip(stack, reports):
                ref = error_norms(view, coeffs, exact)
                got = [rep.l2, rep.h1, rep.h2] + rep.jumps
                want = [ref.l2, ref.h1, ref.h2] + ref.jumps
                assert len(got) == len(want) == 3 + len(topo6.interfaces)
                assert got == want
    with pytest.raises(ParameterError):
        error_norms(view, stack[0, :-1])
    with pytest.raises(ParameterError):
        stacked_error_norms(view, stack[:, :-1])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("p", [3, 4])
def test_jumps_are_the_penalty_quadratic_form(name, p):
    """The jump norm the error report prints is the quantity the Nitsche
    penalty integrates: jumps[i]^2 = x P_i x for random coefficients (a
    near-C1 solve would cancel in the quadratic form)."""
    topo = builtin_geometry(name)
    view = C0Space(topo, p, p - 1, 8, gn_tags(topo))
    form = NitscheForm(view, manufactured_rhs)
    stack = np.random.default_rng(11).standard_normal((3, view.n_total))
    for x, rep in zip(stack, stacked_error_norms(view, stack)):
        assert len(rep.jumps) == len(form.penalties) == len(topo.interfaces)
        for jump, P in zip(rep.jumps, form.penalties):
            quad = x @ (P @ x)
            assert abs(jump ** 2 - quad) <= 1e-12 * quad
