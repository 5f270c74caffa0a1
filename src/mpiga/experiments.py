"""Experiment drivers: single solves, convergence studies, stability-parameter
sweeps and normal-derivative jump studies, with CSV reports.

All drivers solve the biharmonic problem with the oscillatory reference
solution (cos(4 pi x) - 1)(cos(4 pi y) - 1), whose essential boundary
data vanishes on the unit-square fixtures.  Nitsche runs freeze the
per-interface stability weight at a coarse mesh h0 as

    eta = mult * c / h0,

with c the interface stability constant from the generalized
eigenproblem at h0 and mult defaulting to 4.
"""

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    C0Space,
    NitscheForm,
    assemble_approx_c1,
    error_norms,
    manufactured_jet,
    manufactured_laplacian,
    manufactured_rhs,
    stability_constants,
    stacked_error_norms,
)
from .c1space import build_c1_space, homogeneous_subspace
from .errors import IndefiniteSystemError, NumericalError, ParameterError
from .fixtures import BUILTIN_NAMES, builtin_geometry, default_bc, load_geometry

METHODS = ("approx-c1", "nitsche")
# jump norms at or below this are round-off (README "Command line")
JUMP_ROUND_OFF = 1e-12


@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment drivers."""

    geometry: str = "square-6-bilinear"
    method: str = "approx-c1"
    p: int = 3
    r: int = -1  # -1 means maximum regularity p-1
    levels: tuple = (4, 8, 16, 32)
    bc: str = ""  # '' means the fixture default; else 'gn' or 'gl'
    eta_mult: float = 4.0
    h0: float = 1.0 / 16.0
    out: str = ""
    topology: object = field(default=None, repr=False)

    def resolve(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; use one of {METHODS}")
        if self.r < 0:
            self.r = self.p - 1
        if not 1 <= self.r <= self.p - 1:
            raise ParameterError(f"regularity r={self.r} invalid for degree p={self.p}")
        if len(self.levels) == 0:
            raise ParameterError("no refinement levels given")
        if list(self.levels) != sorted(set(self.levels)):
            raise ParameterError("refinement levels must be strictly increasing")
        if self.levels[0] < 1:
            raise ParameterError(f"refinement level {self.levels[0]} is not a positive element count")
        if not (math.isfinite(self.h0) and self.h0 > 0.0):
            raise ParameterError(f"h0={self.h0} is not a positive finite mesh size")
        if not (math.isfinite(self.eta_mult) and self.eta_mult > 0.0):
            raise ParameterError(f"eta_mult={self.eta_mult} is not a positive finite stability multiplier")
        if self.topology is None:
            if self.geometry in BUILTIN_NAMES:
                self.topology = builtin_geometry(self.geometry)
            else:
                self.topology = load_geometry(self.geometry)
        if not self.bc:
            self.bc = default_bc(self.geometry) if self.geometry in BUILTIN_NAMES else "gn"
        if self.bc not in ("gn", "gl"):
            raise ParameterError(f"unknown boundary tag {self.bc!r}; use 'gn' or 'gl'")
        n0 = round(1.0 / self.h0)
        if abs(n0 * self.h0 - 1.0) > 1e-12 or n0 < 1:
            raise ParameterError(f"h0={self.h0} is not the reciprocal of an element count")
        if self.out and os.path.isdir(self.out):
            raise ParameterError(f"output path {self.out!r} is a directory")
        if self.out and not os.path.isdir(os.path.dirname(os.path.abspath(self.out))):
            raise ParameterError(f"the directory of output path {self.out!r} does not exist")
        return self

    def bc_tags(self):
        return {edge: self.bc for edge in self.topology.boundary_edges}


def stability_parameters(config):
    """Frozen per-interface Nitsche weights eta = mult * c(h0) / h0."""
    config.resolve()
    constants = stability_constants(config.topology, config.p, config.r, round(1.0 / config.h0))
    return {idx: config.eta_mult * c / config.h0 for idx, c in enumerate(constants)}


def _moment_data(config):
    """Boundary moment data g2 of the reference problem ('gl' edges only)."""
    return manufactured_laplacian if config.bc == "gl" else None


def _nitsche_form(config, n):
    """The eta-independent Nitsche form of the reference problem at level n."""
    view = C0Space(config.topology, config.p, config.r, n, config.bc_tags())
    return NitscheForm(view, manufactured_rhs, g2=_moment_data(config))


def solve_level(config, n, eta=None):
    """Build, assemble and solve one refinement level.

    Returns ``(report, system, view, coeffs)``; Nitsche runs use the
    supplied per-interface ``eta`` mapping (or a scalar).
    """
    config.resolve()
    if config.method == "approx-c1":
        space = build_c1_space(config.topology, config.p, config.r, n)
        view = homogeneous_subspace(space, config.bc_tags())
        system = assemble_approx_c1(view, manufactured_rhs, g2=_moment_data(config))
    else:
        if eta is None:
            eta = stability_parameters(config)
        system = _nitsche_form(config, n).system(eta)
        view = system.view
    coeffs = system.solve()
    report = error_norms(view, coeffs, manufactured_jet)
    return report, system, view, coeffs


def _fmt(x):
    return f"{x:.5e}"


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def expected_dof_count(view):
    """Independent block-sum dof accounting for an approx-C1 view.

    Interior + per-interface edge + per-boundary-edge + six per vertex,
    minus the boundary-eliminated dofs.
    """
    space = view.space
    topo = space.topology
    n_int = space.sol.dim - 4
    per_edge = (space.splus.dim - 6) + (space.sminus.dim - 4)
    total = (
        len(topo.patches) * n_int * n_int
        + (len(topo.interfaces) + len(topo.boundary_edges)) * per_edge
        + 6 * len(topo.vertices)
    )
    return total - (view.n_total - view.n_free)


def run_convergence(config, etas=None):
    """Convergence study over the configured levels; returns (rows, csv text).

    Row schema: n, h, dofs, L2, H1, H2, per-interface jump norms, then
    observed rates between consecutive levels.  A failed solve (for
    Nitsche with an unstable weight) is recorded and the run continues.
    """
    config.resolve()
    if config.method == "nitsche" and etas is None:
        etas = stability_parameters(config)
    n_ifaces = len(config.topology.interfaces)
    results = []
    for n in config.levels:
        try:
            report, system, view, coeffs = solve_level(config, n, eta=etas)
            if config.method == "approx-c1":
                if expected_dof_count(view) != view.n_free:
                    raise NumericalError("dof accounting mismatch")
            results.append((n, report, "ok"))
        except (IndefiniteSystemError, NumericalError) as exc:
            results.append((n, None, f"failed: {exc}"))
    header = (
        ["n", "h", "dofs", "l2", "h1", "h2"]
        + [f"jump_{i}" for i in range(n_ifaces)]
        + ["rate_l2", "rate_h1", "rate_h2", "status"]
    )
    rows = []
    prev = None
    for n, rep, status in results:
        if rep is None:
            rows.append([n, _fmt(1.0 / n)] + [""] * (4 + n_ifaces + 3) + [status])
            continue
        rates = ["", "", ""]
        if prev is not None:
            ratio = np.log2(prev[0].h / rep.h)
            rates = [
                _fmt(np.log2(prev[0].l2 / rep.l2) / ratio),
                _fmt(np.log2(prev[0].h1 / rep.h1) / ratio),
                _fmt(np.log2(prev[0].h2 / rep.h2) / ratio),
            ]
        rows.append(
            [n, _fmt(rep.h), rep.n_dofs, _fmt(rep.l2), _fmt(rep.h1), _fmt(rep.h2)]
            + [_fmt(j) for j in rep.jumps]
            + rates
            + [status]
        )
        prev = (rep, n)
    text = _write_csv(config.out, header, rows)
    return results, text


def fit_rate(reports, select, levels=3):
    """Least-squares convergence order over the finest ``levels`` reports."""
    pts = [(np.log2(r.h), np.log2(select(r))) for r in reports[-levels:]]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xs -= xs.mean()
    ys -= ys.mean()
    return float(xs @ ys / (xs @ xs))


def run_eta_sweep(config, factors=None, n=None):
    """Errors versus the (single, global) stability weight at fixed mesh size.

    Sweeps multiplicatively around the frozen reference weight.  The view
    and the eta-independent form are assembled once; each factor adds its
    penalty and solves, and one stacked pass computes the error norms of
    every solution.  Each factor's system is the one :func:`solve_level`
    builds for that weight bit for bit, so factor 1.0 reproduces the
    convergence-study system, and a function's norms do not depend on the
    stack they are computed in, so on a one-interface geometry (one
    frozen weight) factor 1.0's report is :func:`solve_level`'s bit for
    bit.  A factor whose system is indefinite or fails to solve is
    recorded and the sweep continues.
    """
    config.resolve()
    if config.method != "nitsche":
        raise ParameterError("the stability sweep applies to the Nitsche method")
    if factors is None:
        factors = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)
    n = n if n is not None else round(1.0 / config.h0)
    etas = stability_parameters(config)
    if not etas:
        raise ParameterError("the geometry has no interfaces to stabilize")
    base = max(etas.values())
    form = _nitsche_form(config, n)
    outcomes = []  # per factor, the coefficient vector or the solver's exception
    for fac in factors:
        try:
            outcomes.append(form.system(fac * base).solve())
        except (IndefiniteSystemError, NumericalError) as exc:
            outcomes.append(exc)
    solved = [out for out in outcomes if not isinstance(out, Exception)]
    reports = iter(stacked_error_norms(form.view, np.array(solved), manufactured_jet) if solved else ())
    rows = []
    results = []
    for fac, out in zip(factors, outcomes):
        eta_val = fac * base
        if isinstance(out, Exception):
            rows.append([_fmt(eta_val), _fmt(fac), "", "", "", "indefinite"])
            results.append((fac, None, f"indefinite: {out}"))
            continue
        report = next(reports)
        rows.append(
            [_fmt(eta_val), _fmt(fac), _fmt(report.l2), _fmt(report.h1), _fmt(report.h2), "ok"]
        )
        results.append((fac, report, "ok"))
    text = _write_csv(config.out, ["eta", "factor", "l2", "h1", "h2", "status"], rows)
    return results, text


def run_jump_study(config):
    """Normal-derivative jump norms of the approx-C1 solution per level.

    ``rate_max`` is left empty where either level's largest jump is
    round-off (at most :data:`JUMP_ROUND_OFF`), as on exactly-C1 fixtures.
    """
    config.resolve()
    if config.method != "approx-c1":
        raise ParameterError("the jump study applies to the approx-c1 method")
    n_ifaces = len(config.topology.interfaces)
    reports = []
    for n in config.levels:
        report, *_ = solve_level(config, n)
        reports.append((n, report))
    header = ["n", "h"] + [f"jump_{i}" for i in range(n_ifaces)] + ["rate_max"]
    rows = []
    prev = None
    for n, rep in reports:
        rate = ""
        if prev is not None and min(prev.jump_max, rep.jump_max) > JUMP_ROUND_OFF:
            rate = _fmt(np.log2(prev.jump_max / rep.jump_max) / np.log2(prev.h / rep.h))
        rows.append([n, _fmt(rep.h)] + [_fmt(j) for j in rep.jumps] + [rate])
        prev = rep
    text = _write_csv(config.out, header, rows)
    return reports, text


def run_solve(config, n=None):
    """Solve a single level and report the errors (CSV with one data row)."""
    config.resolve()
    n = n if n is not None else config.levels[-1]
    report, system, view, coeffs = solve_level(config, n)
    header = ["n", "h", "dofs", "l2", "h1", "h2", "jump_max"]
    rows = [
        [n, _fmt(report.h), report.n_dofs, _fmt(report.l2), _fmt(report.h1),
         _fmt(report.h2), _fmt(report.jump_max)]
    ]
    text = _write_csv(config.out, header, rows)
    return report, text
