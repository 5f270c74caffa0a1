"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Convergence studies run n = 4, 8, 16, 32, 64 and are shared across
criteria through a session cache.  The rate bands of criteria 1 and 2
are checked on the finest refinement step (32 -> 64).  The reference
solution (cos 4 pi x - 1)(cos 4 pi y - 1) is pre-asymptotic on the
coarser levels: rates measured step by step fall toward the optimal
order from above (square-6-bilinear, p=4, L2: 6.83, 5.71, 5.18 over
8->16, 16->32, 32->64), so a fit that includes a coarser step measures
the approach to the asymptote, not the order the method promises.
Criterion 7 gates on h = 1/8, 1/16, 1/32 for the same reason: h = 1/4
does not resolve the curved interface.
"""

import time

import numpy as np
import scipy.linalg

from mpiga.assembly import (
    C0Space,
    assemble_nitsche,
    broken_gram,
    error_norms,
    estimate_stability_constant,
    manufactured_laplacian,
    manufactured_rhs,
    physical_jet,
)
from mpiga.bspline import SplineSpace, TensorSplineSpace
from mpiga.c1space import build_c1_space, edge_dof_indices, homogeneous_subspace, interior_indices
from mpiga.errors import IndefiniteSystemError
from mpiga.experiments import (
    ExperimentConfig,
    fit_rate,
    run_convergence,
    run_eta_sweep,
    stability_parameters,
)
from mpiga.fixtures import builtin_geometry, default_bc
from mpiga.geometry import EdgeFrame
from mpiga.linalg import gram_pencil_max

from helpers import dof_patches, eval_jet, normal_jump
from oracles import (
    fd_bilaplacian,
    jacobi_generalized_max,
    naive_bspline_deriv,
)

LEVELS = (4, 8, 16, 32, 64)
FIXTURES = ("square-6-bilinear", "square-2-bicubic")
DEGREES = (3, 4)

_CACHE = {}


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def conv_run(geometry, p, method):
    """Cached convergence study: (reports, eta map, wall time)."""
    key = (geometry, p, method)
    if key not in _CACHE:
        t0 = time.time()
        cfg = ExperimentConfig(geometry=geometry, method=method, p=p, levels=LEVELS)
        cfg.resolve()
        etas = stability_parameters(cfg) if method == "nitsche" else None
        results, _ = run_convergence(cfg, etas=etas)
        reports = [rep for _, rep, status in results if rep is not None]
        assert len(reports) == len(LEVELS), f"solver failure in {key}"
        _CACHE[key] = (reports, etas, time.time() - t0)
    return _CACHE[key]


def rate_bands(p):
    return {
        "l2": (p + 1 - 0.4, p + 1 + 0.4),
        "h1": (p - 0.3, p + 0.4),
        "h2": (p - 1 - 0.3, p - 1 + 0.4),
    }


def measured_rates(reports):
    """Rates of the finest refinement step."""
    return {
        "l2": fit_rate(reports, lambda r: r.l2, levels=2),
        "h1": fit_rate(reports, lambda r: r.h1, levels=2),
        "h2": fit_rate(reports, lambda r: r.h2, levels=2),
    }


def check_bands(tag, reports, p, lines):
    bands = rate_bands(p)
    rates = measured_rates(reports)
    ok = True
    for norm in ("h2", "h1", "l2"):
        lo, hi = bands[norm]
        val = rates[norm]
        inside = lo <= val <= hi
        ok &= inside
        side = "" if inside else (" (above)" if val > hi else " (below)")
        lines.append(f"{tag} {norm.upper()} rate {val:.2f} in [{lo:.1f},{hi:.1f}]{side}")
    return ok


def test_criterion_1_optimal_convergence():
    ok = True
    lines = []
    times = []
    for geometry in FIXTURES:
        for p in DEGREES:
            reports, _, elapsed = conv_run(geometry, p, "approx-c1")
            ok &= check_bands(f"{geometry} p={p}", reports, p, lines)
            ok &= elapsed <= 600.0
            times.append(elapsed)
    detail = "; ".join(lines) + f"; per-run wall times {[f'{t:.0f}s' for t in times]} <= 600s"
    assert report(1, ok, detail)


def test_criterion_2_nitsche_parity():
    ok = True
    lines = []
    for geometry in FIXTURES:
        for p in DEGREES:
            ra, _, _ = conv_run(geometry, p, "approx-c1")
            rn, _, _ = conv_run(geometry, p, "nitsche")
            ok &= check_bands(f"{geometry} p={p} (nitsche)", rn, p, lines)
            worst = max(
                max(b.h1 / a.h1, a.h1 / b.h1, b.h2 / a.h2, a.h2 / b.h2)
                for a, b in zip(ra, rn)
            )
            within = worst <= 5.0
            ok &= within
            lines.append(f"{geometry} p={p} parity factor {worst:.2f} <= 5")
    assert report(2, ok, "; ".join(lines))


def test_criterion_3_exact_c1_case():
    topo = builtin_geometry("square-6-bilinear")
    worst_basis = 0.0
    ts = np.linspace(0.0, 1.0, 100)
    for n in (4, 8):
        space = build_c1_space(topo, 3, 2, n)
        for idx, itf in enumerate(topo.interfaces):
            frame = EdgeFrame(topo.patches[itf.k], itf.side_k, False)
            tau = frame.geom(ts)["tau"]
            for gid in range(space.n_dofs):
                kinds = dof_patches(space, gid)
                if itf.k not in kinds and itf.l not in kinds:
                    continue
                jump = normal_jump(space, topo, idx, gid, ts)
                l2 = np.sqrt(np.trapezoid(jump ** 2 * tau, ts))
                worst_basis = max(worst_basis, l2)
    reports, _, _ = conv_run("square-6-bilinear", 3, "approx-c1")
    worst_solution = max(max(r.jumps) for r in reports)
    ok = worst_basis <= 1e-10 and worst_solution <= 1e-10
    assert report(
        3, ok, f"basis jump {worst_basis:.2e} <= 1e-10, solution jump {worst_solution:.2e} <= 1e-10"
    )


def test_criterion_4_jump_decay():
    reports, _, _ = conv_run("square-2-bicubic", 3, "approx-c1")
    rate = fit_rate(reports, lambda r: r.jump_max)
    ok = rate >= 2.7
    assert report(4, ok, f"solution jump rate {rate:.2f} >= 2.7 (target 3)")


def test_criterion_5_coercivity_threshold():
    topo = builtin_geometry("square-2-bicubic")
    tags = {e: default_bc("square-2-bicubic") for e in topo.boundary_edges}
    ok = True
    lines = []
    for n in (4, 8):
        h = 1.0 / n
        c = estimate_stability_constant(topo, 0, 3, 2, n)
        view = C0Space(topo, 3, 2, n, tags)
        stable = assemble_nitsche(
            view, manufactured_rhs, g2=manufactured_laplacian, bc_tags=tags, eta=32.0 * h * c
        )
        lam = scipy.linalg.eigh(
            stable.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        spd = lam > 0.0
        ok &= spd
        x = stable.solve()
        e_stable = error_norms(view, x, None)
        unstable = assemble_nitsche(
            view, manufactured_rhs, g2=manufactured_laplacian, bc_tags=tags, eta=1e-3 * h * c
        )
        try:
            xb = unstable.solve()
            from mpiga.assembly import manufactured_jet

            e_bad = error_norms(view, xb, manufactured_jet)
            e_ref = error_norms(view, x, manufactured_jet)
            witness = e_bad.h2 >= 10.0 * e_ref.h2
            note = f"error blow-up {e_bad.h2 / e_ref.h2:.1f}x"
        except IndefiniteSystemError:
            witness = True
            note = "indefiniteness detected"
        ok &= witness
        lines.append(f"n={n}: min eig {lam:.3e} > 0 ({spd}); small-eta witness: {note}")
    assert report(5, ok, "; ".join(lines))


def test_criterion_6_eta_sweep_shape():
    cfg = ExperimentConfig(
        geometry="square-2-bicubic", method="nitsche", p=3, levels=LEVELS, h0=1.0 / 16.0
    )
    cfg.resolve()
    sweep, _ = run_eta_sweep(cfg, factors=(1.0, 1e4))
    by_fac = {fac: rep for fac, rep, status in sweep if rep is not None}
    assert 1.0 in by_fac and 1e4 in by_fac, "sweep rows missing"
    locking = by_fac[1e4].h2 / by_fac[1.0].h2
    reports, _, _ = conv_run("square-2-bicubic", 3, "nitsche")
    ref = [r for r in reports if r.h == 1.0 / 16.0][0]
    match = abs(by_fac[1.0].h2 - ref.h2) <= 1e-12 * ref.h2
    ok = locking >= 3.0 and match
    assert report(
        6,
        ok,
        f"locking factor {locking:.2f} >= 3; reference-eta row matches convergence "
        f"run to {abs(by_fac[1.0].h2 - ref.h2) / ref.h2:.1e}",
    )


def test_criterion_7_stability_constant_scaling():
    # h = 1/4 does not resolve the curved interface (h*c = 7.17 there,
    # against 5.0 on the straight two-square interface at every h), so it
    # is reported but not gated
    topo = builtin_geometry("square-2-bicubic")
    coarse = estimate_stability_constant(topo, 0, 3, 2, 4) / 4
    vals = []
    for n in (8, 16, 32):
        c = estimate_stability_constant(topo, 0, 3, 2, n)
        vals.append(c / n)
    vals = np.array(vals)
    variation = (vals.max() - vals.min()) / vals.min()
    ok = variation < 0.25
    assert report(
        7,
        ok,
        f"h*c at h=1/8,1/16,1/32 = {np.array2string(vals, precision=3)}, "
        f"variation {variation:.1%} < 25% (h=1/4, not gated: {coarse:.3f})",
    )


def test_criterion_8_oracle_suites():
    t0 = time.time()
    ok = True
    notes = []

    # B-spline evaluation against the naive recursion
    sp = SplineSpace(3, 2, 4)
    worst = 0.0
    for x in (0.3, 0.61, 0.87):
        (first,), (table,) = sp.eval_many([x], 2)
        for col in range(sp.p + 1):
            for d in range(3):
                ref = naive_bspline_deriv(sp.kv.knots, sp.p, first + col, x, d)
                worst = max(worst, abs(table[d, col] - ref))
    ok &= worst <= 1e-13
    notes.append(f"basis vs naive {worst:.1e}")

    # derivative rows against finite differences
    step = 1e-6
    worst = 0.0
    for x in (0.23, 0.52):
        lo = sp.eval_many([x - step], 2)[1][0]
        hi = sp.eval_many([x + step], 2)[1][0]
        mid = sp.eval_many([x], 2)[1][0]
        for k in (1, 2):
            fd = (hi[k - 1] - lo[k - 1]) / (2 * step)
            worst = max(worst, np.abs(mid[k] - fd).max() / max(np.abs(mid[k]).max(), 1.0))
    ok &= worst <= 1e-5
    notes.append(f"derivs vs fd {worst:.1e}")

    # physical jets against a symbolic target on curved geometry
    spg = SplineSpace(3, 2, 1)
    u = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    ctrl = np.empty((4, 4, 2))
    for i in range(4):
        for j in range(4):
            ctrl[i, j] = (u[i] + 0.07 * np.sin(np.pi * u[j]), u[j] + 0.05 * u[i] * (1 - u[i]))
    from mpiga.geometry import Patch

    patch = Patch(TensorSplineSpace(spg, spg), ctrl)
    ts = TensorSplineSpace(spg, spg)
    pt, jac, hess = patch.jet_at(0.31, 0.42)
    out = physical_jet(eval_jet(ts, ctrl[..., 0], 0.31, 0.42), jac, hess)
    worst = np.abs(out - np.array([pt[0], 1, 0, 0, 0, 0])).max()
    ok &= worst <= 1e-9
    notes.append(f"physical jet {worst:.1e}")

    # generalized eigenvalue against the dense Jacobi oracle
    rng = np.random.RandomState(12)
    worst = 0.0
    for n in (12, 25, 40):
        M = rng.randn(n, n)
        A = M.T @ M
        N = rng.randn(n, n)
        B = N.T @ N + n * np.eye(n)
        import scipy.sparse

        lam = gram_pencil_max(M, scipy.sparse.csr_matrix(B))
        ref = jacobi_generalized_max(A, B)
        worst = max(worst, abs(lam - ref) / max(abs(ref), 1.0))
    ok &= worst <= 1e-8
    notes.append(f"gen-eigen vs jacobi {worst:.1e}")

    # manufactured bilaplacian against finite differences
    def phi(x, y):
        return (np.cos(4 * np.pi * x) - 1.0) * (np.cos(4 * np.pi * y) - 1.0)

    worst = 0.0
    for x, y in rng.rand(40, 2) * 0.9 + 0.05:
        ref = fd_bilaplacian(phi, x, y, step=4e-3)
        worst = max(worst, abs(manufactured_rhs(x, y) - ref) / max(1.0, abs(ref)))
    ok &= worst <= 1e-5
    notes.append(f"bilaplacian vs fd {worst:.1e}")

    elapsed = time.time() - t0
    ok &= elapsed <= 120.0
    notes.append(f"runtime {elapsed:.1f}s <= 120s")
    assert report(8, ok, "; ".join(notes))


def test_criterion_9_space_integrity():
    ok = True
    lines = []
    for geometry in FIXTURES:
        topo = builtin_geometry(geometry)
        tags = {e: default_bc(geometry) for e in topo.boundary_edges}
        for n in (4, 8):
            space = build_c1_space(topo, 3, 2, n)
            view = homogeneous_subspace(space, tags)
            G = broken_gram(view).toarray()
            s = np.linalg.svd(G, compute_uv=False)
            full = s[-1] > 1e-10 * s[0]
            ok &= full
            lines.append(f"{geometry} n={n}: gram rank ratio {s[-1] / s[0]:.1e}")
        counts = {}
        for lab in space.labels:
            if lab[0] == "vertex":
                counts[lab[1]] = counts.get(lab[1], 0) + 1
        six = set(counts.values()) == {6}
        ok &= six
        lines.append(f"{geometry}: vertex blocks all 6 ({six})")
    # reference dof counts for p=3, n=4
    n_interior = len(interior_indices(SplineSpace(3, 2, 4)))
    trace, trans = edge_dof_indices(SplineSpace(3, 2, 4), SplineSpace(2, 1, 4))
    per_edge = len(trace) + len(trans)
    counts_ok = n_interior == 9 and per_edge == 3
    ok &= counts_ok
    lines.append(f"p=3 n=4 counts: interior {n_interior} (9), per edge {per_edge} (3), per vertex 6")
    assert report(9, ok, "; ".join(lines))


def test_convergence_driver_examples():
    """Module-level driver examples: final-step rates on the bilinear fixture."""
    reports, _, _ = conv_run("square-6-bilinear", 3, "approx-c1")
    final_h2 = np.log2(reports[-2].h2 / reports[-1].h2)
    final_l2 = np.log2(reports[-2].l2 / reports[-1].l2)
    assert 1.8 <= final_h2 <= 2.3
    # empirically calibrated band: the oscillatory solution still
    # superconverges at n=32, so only the optimality floor is asserted
    assert final_l2 >= 3.7
    ra, _, _ = conv_run("square-6-bilinear", 3, "approx-c1")
    rn, _, _ = conv_run("square-6-bilinear", 3, "nitsche")
    for a, b in zip(ra, rn):
        assert b.h2 <= 5.0 * a.h2 and a.h2 <= 5.0 * b.h2
