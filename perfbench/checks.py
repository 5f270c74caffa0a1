"""Per-operation correctness gate.

Every check returns a list of problems (empty when the operation
passed); none of them runs inside a timed region.
"""

import math

import numpy as np

# Broken (L2, H1, H2) errors of the approx-C1 solve of the reference
# problem on square-6-bilinear, p=3, clamped ('gn') boundary, by level n.
APPROX_C1_REFERENCE = {
    8: (0.029411222096549387, 0.5924930281170367, 21.945206830506045),
}
REFERENCE_RTOL = 1e-9
# square-6-bilinear has linear gluing data, so the approx-C1 space is
# exactly C1 there and normal-derivative jumps are round-off.
EXACT_C1_JUMP_MAX = 1e-10
RESIDUAL_MAX = 1e-8


def report_fields(report):
    return (report.h, report.n_dofs, report.l2, report.h1, report.h2, *report.jumps)


def bit_identical(a, b):
    """True when two error reports hold the same bits in every field."""
    fa, fb = report_fields(a), report_fields(b)
    return len(fa) == len(fb) and all(
        np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()
        for x, y in zip(fa, fb)
    )


def check_finite(label, report):
    if all(math.isfinite(float(x)) for x in report_fields(report)):
        return []
    return [f"{label}: non-finite error report {report!r}"]


def check_reference(label, report, reference):
    problems = []
    for name, got, want in zip(("L2", "H1", "H2"), (report.l2, report.h1, report.h2), reference):
        if not abs(got - want) <= REFERENCE_RTOL * abs(want):
            problems.append(f"{label}: {name} {got!r} differs from reference {want!r}")
    return problems


def check_exact_c1(label, report):
    if report.jump_max <= EXACT_C1_JUMP_MAX:
        return []
    return [f"{label}: jump {report.jump_max:.3e} above {EXACT_C1_JUMP_MAX:.0e} on an exactly C1 space"]


def residual_rel(system, coeffs):
    """Normwise backward error of the free-dof solve, from the assembled system.

    ||K x - F|| / (||K|| ||x|| + ||F||) in the infinity norm: unlike
    ||K x - F|| / ||F||, it stays at round-off for a backward-stable solve
    of an ill-conditioned system (large stability weights).
    """
    x = np.asarray(coeffs, dtype=float)[: system.n_free]
    K = system.matrix.tocsr()
    load = np.asarray(system.load, dtype=float)
    k_norm = float(abs(K).sum(axis=1).max())
    scale = k_norm * np.abs(x).max() + np.abs(load).max()
    return float(np.abs(K @ x - load).max() / scale)


def check_residual(label, system, coeffs):
    res = residual_rel(system, coeffs)
    if res <= RESIDUAL_MAX:
        return []
    return [f"{label}: backward error {res:.3e} above {RESIDUAL_MAX:.0e}"]
