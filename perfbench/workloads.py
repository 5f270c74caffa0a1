"""The benchmark's workloads, the operation each one times, and its gate.

Each workload is one process running one operation at a time in a
closed loop: the next operation starts when the previous one returns.
Every operation solves the biharmonic reference problem with exact
solution (cos 4 pi x - 1)(cos 4 pi y - 1) through a public driver of
``mpiga.experiments``.  Import this module only after
``env.pin_blas_threads`` has run.
"""

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from mpiga import experiments
from mpiga.assembly import (
    C0Space,
    assemble_approx_c1,
    assemble_nitsche,
    error_norms,
    estimate_stability_constant,
    manufactured_jet,
    manufactured_laplacian,
    manufactured_rhs,
)
from mpiga.c1space import ConstrainedC1Space, build_c1_space, homogeneous_subspace
from mpiga.errors import IndefiniteSystemError
from mpiga.experiments import ExperimentConfig
from mpiga.fixtures import builtin_geometry

import checks

WARM_UP_N = 4
# the stability-weight factors of run_eta_sweep's default sweep
SWEEP_DEFAULTS = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # 'converge' (run_convergence), 'solve' (solve_level) or 'sweep' (run_eta_sweep)
    geometry: str
    method: str
    p: int
    bc: str
    h0: float
    levels: tuple
    reference: dict = field(default=None)  # level -> (L2, H1, H2) the errors must reproduce
    exact_c1: bool = False  # approx-C1 space is exactly C1: jumps must be round-off

    def build_topology(self):
        return builtin_geometry(self.geometry)

    def config(self, topology):
        return ExperimentConfig(
            geometry=self.geometry,
            method=self.method,
            p=self.p,
            bc=self.bc,
            h0=self.h0,
            levels=self.levels,
            topology=topology,
        ).resolve()

    def warm_up(self, topology):
        """A coarse Nitsche solve on the workload's geometry and degree.

        It pays what a process pays once (lazy imports, first calls into
        BLAS and LAPACK) for every workload alike; a coarse
        approx-C1 solve would add seconds of per-vertex work that is not
        a one-time cost.
        """
        config = ExperimentConfig(
            geometry=self.geometry,
            method="nitsche",
            p=self.p,
            bc=self.bc,
            h0=1.0 / WARM_UP_N,
            levels=(WARM_UP_N,),
            topology=topology,
        ).resolve()
        experiments.solve_level(config, WARM_UP_N)

    def factors(self, seed):
        """Sweep factors drawn from ``seed``; None for the other drivers.

        The reference factor 1.0 is always present.  Each other factor is
        drawn log-uniformly between its default and one decade closer to
        1.0, so the sweep stays inside the default range 1e-3..1e4.
        """
        if self.driver != "sweep":
            return None
        rng = random.Random(seed)
        out = []
        for default in SWEEP_DEFAULTS:
            if default == 1.0:
                out.append(1.0)
            else:
                toward_one = 1.0 if default < 1.0 else -1.0
                out.append(default * 10.0 ** (toward_one * rng.random()))
        return tuple(out)


# Sizes are chosen so that one operation takes a few seconds on one core
# and a run holds several of them; README.md gives the layer shares.
WORKLOADS = {
    w.name: w
    for w in (
        # approx-C1 convergence study: c1space and per-element evaluation
        # dominate, the solve is small and no eigenproblem is solved.  One
        # level: a coarser one repeats the same n-independent vertex work.
        Workload(
            "c1-converge", "converge", "square-6-bilinear", "approx-c1", 3, "gn", 1.0 / 16.0,
            (8,), reference=checks.APPROX_C1_REFERENCE, exact_c1=True,
        ),
        # one Nitsche solve with its 7 stability eigenproblems and a
        # sparse LU solve (3977 dofs, above the dense-Cholesky cutoff)
        Workload("nitsche-solve", "solve", "square-6-bilinear", "nitsche", 4, "gn", 1.0 / 8.0, (24,)),
        # 8 Nitsche solves of one mesh that differ only in eta: repeated
        # assembly and error norms, dense-Cholesky solves, one eigenproblem
        Workload("nitsche-sweep", "sweep", "square-2-bicubic", "nitsche", 3, "gl", 1.0 / 16.0, (16,)),
    )
}


@dataclass
class Outcome:
    """What one operation returned."""

    rows: list  # (level or sweep factor, ErrorReport or None, status)
    text: str  # the driver's CSV; '' for a single solve
    systems: list = field(default_factory=list)  # (label, system, coeffs) of the solves the benchmark holds


def run_op(workload, config, factors):
    """One operation, through the drivers as ``mpiga.experiments`` holds them."""
    n = workload.levels[-1]
    if workload.driver == "converge":
        results, text = experiments.run_convergence(config)
        return Outcome(list(results), text)
    if workload.driver == "sweep":
        results, text = experiments.run_eta_sweep(config, factors=factors, n=n)
        return Outcome(list(results), text)
    report, system, _view, coeffs = experiments.solve_level(config, n)
    return Outcome([(n, report, "ok")], "", [(n, system, coeffs)])


def solved_dofs(outcome):
    """Free dofs of every solve in the operation that returned a solution."""
    return sum(report.n_dofs for _, report, _ in outcome.rows if report is not None)


def finest_report(workload, outcome):
    """Errors a user reads off the operation: finest level, or the factor-1.0 row."""
    if workload.driver == "sweep":
        return next(report for fac, report, _ in outcome.rows if fac == 1.0)
    return outcome.rows[-1][1]


def gate(workload, outcome):
    """Correctness problems of one operation's outcome (empty when it passed)."""
    problems = []
    for label, report, status in outcome.rows:
        tag = f"{workload.name} {label}"
        if report is None:
            # an unstable sweep weight is an expected outcome, counted as
            # linalg.indefinite; the reference weight must always solve
            if workload.driver != "sweep" or label == 1.0:
                problems.append(f"{tag}: {status}")
            continue
        problems += checks.check_finite(tag, report)
        if workload.reference is not None:
            if label in workload.reference:
                problems += checks.check_reference(tag, report, workload.reference[label])
            else:
                problems.append(f"{tag}: no reference errors recorded for this level")
        if workload.exact_c1:
            problems += checks.check_exact_c1(tag, report)
    for label, system, coeffs in outcome.systems:
        problems += checks.check_residual(f"{workload.name} {label}", system, coeffs)
    return problems


def same_outcome(a, b):
    """Problems if two outcomes differ in any report bit, status or CSV byte."""
    if [(lab, st) for lab, _, st in a.rows] != [(lab, st) for lab, _, st in b.rows]:
        return ["row labels or statuses differ"]
    problems = [
        f"level {lab}: error report differs"
        for (lab, ra, _), (_, rb, _) in zip(a.rows, b.rows)
        if (ra is None) != (rb is None) or (ra is not None and not checks.bit_identical(ra, rb))
    ]
    if a.text != b.text:
        problems.append("driver CSV differs")
    return problems


class TracedCalls:
    """Copies of ``solve_level`` and ``stability_parameters`` with a span per call.

    Each call into a package module is wrapped in a span named after the
    layer.  ``installed`` routes the drivers in ``mpiga.experiments``
    through these copies (the drivers look both names up when called), so
    the traced operation runs the unchanged driver code, whose own work
    (dof accounting, rates, CSV) is the driver span's self time.  The
    benchmark requires every traced error report to be bit-identical to
    the untraced one, which shows the copies compute what the originals do.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.solves = []  # (n, p, view, system, coeffs) of the current operation
        self.indefinite = 0

    def reset(self):
        self.solves = []
        self.indefinite = 0

    def stability_parameters(self, config):
        with self.tracer.span("assembly.stability"):
            config.resolve()
            n0 = round(1.0 / config.h0)
            etas = {}
            for idx in range(len(config.topology.interfaces)):
                with self.tracer.span("assembly.stability_iface"):
                    c = estimate_stability_constant(config.topology, idx, config.p, config.r, n0)
                etas[idx] = config.eta_mult * c / config.h0
        return etas

    def solve_level(self, config, n, eta=None):
        span = self.tracer.span
        config.resolve()
        topo = config.topology
        tags = config.bc_tags()
        g2 = manufactured_laplacian if config.bc == "gl" else None
        if config.method == "approx-c1":
            with span("c1space.build"):
                space = build_c1_space(topo, config.p, config.r, n)
            with span("c1space.bc_partition"):
                view = homogeneous_subspace(space, tags)
            with span("assembly.assemble"):
                system = assemble_approx_c1(view, manufactured_rhs, g2=g2)
        else:
            if eta is None:
                eta = self.stability_parameters(config)
            with span("assembly.assemble"):
                view = C0Space(topo, config.p, config.r, n, tags)
                system = assemble_nitsche(view, manufactured_rhs, g2=g2, bc_tags=tags, eta=eta)
        try:
            with span("linalg.solve"):
                coeffs = system.solve()
        except IndefiniteSystemError:
            self.indefinite += 1
            raise
        with span("assembly.error_norms"):
            report = error_norms(view, coeffs, manufactured_jet)
        self.solves.append((n, config.p, view, system, coeffs))
        return report, system, view, coeffs

    @contextmanager
    def installed(self):
        saved = experiments.solve_level, experiments.stability_parameters
        experiments.solve_level = self.solve_level
        experiments.stability_parameters = self.stability_parameters
        try:
            yield
        finally:
            experiments.solve_level, experiments.stability_parameters = saved

    def counts(self, topology):
        """Work-size counts of the current operation, summed over its solves."""
        out = dict.fromkeys(COUNT_METRICS, 0)
        out["geometry.patches"] = len(topology.patches)
        out["geometry.interfaces"] = len(topology.interfaces)
        out["geometry.vertices"] = len(topology.vertices)
        out["linalg.indefinite"] = self.indefinite
        out["linalg.residual_rel"] = 0.0
        for n, p, view, system, coeffs in self.solves:
            elements = len(topology.patches) * n * n
            out["assembly.elements"] += elements
            out["assembly.quad_points"] += elements * (p + 2) ** 2  # volume rule, computed
            K = system.matrix.tocsr()
            out["linalg.n"] += K.shape[0]
            out["linalg.nnz"] += K.nnz
            out["linalg.residual_rel"] = max(
                out["linalg.residual_rel"], checks.residual_rel(system, coeffs)
            )
            if isinstance(view, ConstrainedC1Space):
                dof_counts = view.space.dof_counts()
                out["c1space.dofs_interior"] += dof_counts.get("interior", 0)
                out["c1space.dofs_edge"] += dof_counts.get("iface", 0) + dof_counts.get("bedge", 0)
                out["c1space.dofs_vertex"] += dof_counts.get("vertex", 0)
                out["c1space.dofs_free"] += view.n_free
        return out


# per-layer counts: name -> unit
COUNT_METRICS = {
    "geometry.patches": "count",
    "geometry.interfaces": "count",
    "geometry.vertices": "count",
    "c1space.dofs_interior": "count",
    "c1space.dofs_edge": "count",
    "c1space.dofs_vertex": "count",
    "c1space.dofs_free": "count",
    "assembly.elements": "count",
    "assembly.quad_points": "count",
    "linalg.n": "count",
    "linalg.nnz": "count",
    "linalg.residual_rel": "1",
    "linalg.indefinite": "count",
}
