import numpy as np
import pytest

from mpiga.bspline import (
    KnotVector,
    SplineSpace,
    TensorSplineSpace,
    gauss_legendre,
    interpolate,
    l2_project,
)
from mpiga.errors import DomainError, ParameterError

from helpers import eval_jet, greville
from oracles import naive_bspline, naive_bspline_deriv


def test_uniform_open_knot_vector_paper_example():
    kv = KnotVector(3, 2, 4)
    assert np.allclose(kv.knots, [0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1])
    assert kv.dim == 7


def test_knot_vector_single_element():
    kv = KnotVector(1, 0, 1)
    assert np.allclose(kv.knots, [0, 0, 1, 1])
    assert kv.dim == 2


def test_knot_vector_counts():
    kv = KnotVector(4, 3, 8)
    assert kv.dim == 12
    assert len(kv.knots) == 17
    interior = kv.knots[(kv.knots > 0) & (kv.knots < 1)]
    assert np.allclose(interior, np.arange(1, 8) / 8.0)


@pytest.mark.parametrize("p,r,n", [(0, 0, 1), (3, 3, 4), (3, -1, 4), (2, 1, 0)])
def test_invalid_parameters(p, r, n):
    with pytest.raises(ParameterError):
        KnotVector(p, r, n)


def test_hat_functions():
    sp = SplineSpace(1, 0, 1)
    (first,), (table,) = sp.eval_many([0.5], 1)
    assert first == 0
    assert np.allclose(table[0], [0.5, 0.5])
    assert np.allclose(table[1], [-1.0, 1.0])


def test_domain_error():
    sp = SplineSpace(2, 1, 2)
    with pytest.raises(DomainError):
        sp.eval_many([1.5])


def test_partition_of_unity():
    rng = np.random.RandomState(7)
    for p, r, n in [(2, 1, 3), (3, 2, 4), (4, 3, 5), (5, 4, 2), (3, 1, 4)]:
        sp = SplineSpace(p, r, n)
        xs = rng.rand(1000)
        _, tables = sp.eval_many(xs, 0)
        assert np.abs(tables[:, 0, :].sum(axis=1) - 1.0).max() <= 1e-13


def test_local_support():
    sp = SplineSpace(3, 2, 4)
    xs = np.linspace(0, 1, 201)
    kn = sp.kv.knots
    for i in range(sp.dim):
        vals = sp.eval_columns([i], xs, 0)[0, :, 0]
        outside = (xs < kn[i]) | (xs > kn[i + sp.p + 1])
        if outside.any():
            assert np.abs(vals[outside]).max() == 0.0


def test_matches_naive_recursion():
    sp = SplineSpace(3, 2, 4)
    kn = sp.kv.knots
    for x in (0.3, 0.11, 0.77, 0.5):
        (first,), (table,) = sp.eval_many([x], 2)
        for col in range(sp.p + 1):
            i = first + col
            for d in range(3):
                ref = naive_bspline_deriv(kn, sp.p, i, x, d)
                assert abs(table[d, col] - ref) <= 1e-13 * max(1.0, abs(ref))


def test_derivative_rows_match_finite_differences():
    sp = SplineSpace(4, 3, 5)
    step = 1e-6
    for x in (0.13, 0.37, 0.81):
        for i in range(sp.dim):
            lo = sp.eval_columns([i], [x - step], 2)[0]
            hi = sp.eval_columns([i], [x + step], 2)[0]
            mid = sp.eval_columns([i], [x], 2)[0]
            for k in (1, 2):
                fd = (hi[0, k - 1] - lo[0, k - 1]) / (2 * step)
                scale = max(abs(mid[0, k]), 1.0)
                assert abs(mid[0, k] - fd) <= 1e-5 * scale


@pytest.mark.parametrize("p,r,n", [(2, 1, 5), (3, 2, 4), (3, 1, 4), (4, 2, 3), (5, 4, 6)])
def test_dimension_formula(p, r, n):
    sp = SplineSpace(p, r, n)
    assert sp.dim == p + 1 + (p - r) * (n - 1)
    assert len(sp.kv.knots) == sp.dim + p + 1


def test_interior_smoothness():
    # exact one-sided derivative limits agree up to order r at interior knots
    from mpiga.bspline import _basis_tables

    for p, r in [(3, 2), (4, 2), (3, 1)]:
        sp = SplineSpace(p, r, 4)
        kn = sp.kv.knots
        for e in (1, 2, 3):
            x = e * sp.h
            (span_right,) = sp.kv.spans_of([x])
            span_left = span_right - (p - r)
            right = _basis_tables(kn, p, np.array([span_right]), np.array([x]), r)[0]
            left = _basis_tables(kn, p, np.array([span_left]), np.array([x]), r)[0]
            # align columns: both windows cover basis indices span-p .. span
            full_r = np.zeros((r + 1, sp.dim))
            full_l = np.zeros((r + 1, sp.dim))
            full_r[:, span_right - p : span_right + 1] = right
            full_l[:, span_left - p : span_left + 1] = left
            assert np.abs(full_r - full_l).max() <= 1e-10


def test_endpoint_derivative_value():
    sp = SplineSpace(3, 2, 4)
    _, (table,) = sp.eval_many([0.0], 1)
    assert np.isclose(table[1, 0], -sp.p / sp.h)
    assert np.isclose(table[1, 1], sp.p / sp.h)


def test_l2_project_reproduces_member():
    sp = SplineSpace(3, 2, 4)
    coeffs = np.linspace(-1.0, 2.0, sp.dim)
    proj = l2_project(sp, lambda x: sp.eval_spline(coeffs, x, 0)[:, 0])
    assert np.abs(proj - coeffs).max() <= 1e-12
    xs = np.linspace(0, 1, 50)
    vals = sp.eval_spline(proj, xs, 0)[:, 0]
    ref = sp.eval_spline(coeffs, xs, 0)[:, 0]
    assert np.abs(vals - ref).max() <= 1e-12


def test_l2_project_columns_match_single_projections():
    sp = SplineSpace(3, 2, 5)
    both = l2_project(sp, lambda x: np.column_stack([np.sin(3 * x), np.exp(x)]))
    assert both.shape == (sp.dim, 2)
    assert np.array_equal(both[:, 0], l2_project(sp, lambda x: np.sin(3 * x)))
    assert np.array_equal(both[:, 1], l2_project(sp, np.exp))


@pytest.mark.parametrize("p,r,n", [(3, 2, 4), (2, 0, 5), (4, 1, 8), (6, 2, 8)])
def test_interpolate_reproduces_member_and_matches_at_greville_points(p, r, n):
    # the strip spaces S(2p-2, p-2) of p = 2, 3 and 4 among them
    sp = SplineSpace(p, r, n)
    coeffs = np.random.default_rng(p + n).standard_normal((sp.dim, 2))
    got = interpolate(sp, lambda x: np.column_stack([sp.eval_spline(c, x)[:, 0] for c in coeffs.T]))
    assert got.shape == coeffs.shape
    assert np.abs(got - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
    xs = greville(sp)
    vals = sp.eval_spline(interpolate(sp, np.exp), xs)[:, 0]
    assert np.abs(vals - np.exp(xs)).max() <= 1e-13


def test_l2_project_constant():
    sp = SplineSpace(4, 3, 6)
    proj = l2_project(sp, lambda x: np.ones_like(x))
    assert np.abs(proj - 1.0).max() <= 1e-12


def test_l2_projection_rate():
    # projection of sin(2 pi x) onto S(2,1,h) converges at rate h^3
    errs = []
    for n in (4, 8, 16, 32):
        sp = SplineSpace(2, 1, n)
        proj = l2_project(sp, lambda x: np.sin(2 * np.pi * x))
        xg, wg = gauss_legendre(6)
        err2 = 0.0
        for e in range(n):
            xs = (e + xg) * sp.h
            diff = sp.eval_spline(proj, xs, 0)[:, 0] - np.sin(2 * np.pi * xs)
            err2 += (wg * sp.h) @ diff ** 2
        errs.append(np.sqrt(err2))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert rates[-1] > 2.7


def test_tensor_eval_constant_and_linear():
    sp = SplineSpace(3, 2, 4)
    ts = TensorSplineSpace(sp, sp)
    ones = np.ones((sp.dim, sp.dim))
    jet = eval_jet(ts, ones, 0.3, 0.8, 2)
    assert np.isclose(jet[0], 1.0)
    assert np.abs(jet[1:]).max() <= 1e-12

    grev = greville(sp)
    lin = np.outer(grev, np.ones(sp.dim))
    jet = eval_jet(ts, lin, 0.37, 0.68, 2)
    assert np.isclose(jet[0], 0.37)
    assert np.isclose(jet[1], 1.0)
    assert abs(jet[2]) <= 1e-12


def test_tensor_eval_derivative_vs_fd():
    rng = np.random.RandomState(3)
    sp = SplineSpace(3, 2, 4)
    ts = TensorSplineSpace(sp, sp)
    coeffs = rng.rand(sp.dim, sp.dim)
    step = 1e-6
    for (u, v) in [(0.31, 0.63), (0.12, 0.87)]:
        jet = eval_jet(ts, coeffs, u, v, 1)
        fd = (
            eval_jet(ts, coeffs, u + step, v, 0)[0]
            - eval_jet(ts, coeffs, u - step, v, 0)[0]
        ) / (2 * step)
        assert abs(jet[1] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_tensor_eval_shape_mismatch():
    sp = SplineSpace(2, 1, 2)
    ts = TensorSplineSpace(sp, sp)
    with pytest.raises(ParameterError):
        eval_jet(ts, np.ones((3, 3)), 0.5, 0.5)
