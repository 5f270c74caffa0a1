"""Batched geometry jets and element-row volume kernels against the
per-point and per-element reference loops in ``oracles``."""

import numpy as np
import pytest

from mpiga.assembly import (
    C0Space,
    _Assembler,
    broken_gram,
    error_norms,
    manufactured_jet,
    manufactured_rhs,
)
from mpiga.c1space import build_c1_space, homogeneous_subspace
from mpiga.fixtures import BUILTIN_NAMES, builtin_geometry
from mpiga.geometry import Patch

from oracles import per_element_reference, per_point_jet_grid

RTOL = 1e-12
P, N = 3, 4


def rel_gap(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def make_view(name, kind):
    topo = builtin_geometry(name)
    tags = {e: kind.split("-")[-1] for e in topo.boundary_edges}
    if kind == "c0":
        return C0Space(topo, P, P - 1, N)
    if kind.startswith("c0-"):
        return C0Space(topo, P, P - 1, N, tags)
    return homogeneous_subspace(build_c1_space(topo, P, P - 1, N), tags)


CASES = [(name, kind, 1) for name in BUILTIN_NAMES for kind in ("c0", "c0-gn", "c1-gn", "c1-gl")]
CASES += [("square-2-bicubic", "c0-gl", 2), ("square-2-bicubic", "c1-gn", 2)]


@pytest.mark.parametrize("name,kind,quad_scale", CASES)
def test_volume_kernels_match_per_element_loops(name, kind, quad_scale):
    view = make_view(name, kind)
    coeffs = np.random.default_rng(7).standard_normal(view.n_total)
    exact_jets = (None, manufactured_jet)
    K_ref, F_ref, G_ref, norms_ref = per_element_reference(
        view, manufactured_rhs, coeffs, exact_jets, quad_scale
    )
    K, F = _Assembler(view, quad_scale).volume_system(manufactured_rhs)
    assert rel_gap(K.todense(), K_ref) <= RTOL
    assert rel_gap(F, F_ref) <= RTOL
    assert rel_gap(broken_gram(view, quad_scale).todense(), G_ref) <= RTOL
    for exact, (l2, h1, h2, jumps) in zip(exact_jets, norms_ref):
        report = error_norms(view, coeffs, exact, quad_scale)
        got = [report.l2, report.h1, report.h2] + report.jumps
        assert rel_gap(got, [l2, h1, h2] + jumps) <= RTOL


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
