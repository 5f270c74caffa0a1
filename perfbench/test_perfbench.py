"""Tests of the benchmark harness itself (not of the package).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402

env.pin_blas_threads()
env.import_mpiga()

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mpiga.assembly import ErrorReport  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_times_subtract_children_and_add_up(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "time", clock)
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.span("experiments.converge"):
        clock.now += 1.0
        with tracer.span("assembly.assemble"):
            clock.now += 2.0
            with tracer.span("linalg.solve"):
                clock.now += 0.5
        with tracer.span("assembly.assemble"):
            clock.now += 3.0
        clock.now += 0.25
    tracer.op = 1
    with tracer.span("experiments.converge"):
        clock.now += 7.0

    selfs = tracing.self_times(tracer.spans, op=0)
    assert selfs == {"experiments.converge": 1.25, "assembly.assemble": 5.0, "linalg.solve": 0.5}
    assert sum(selfs.values()) == tracer.spans[0].duration == 6.75
    assert tracing.self_times(tracer.spans, op=1) == {"experiments.converge": 7.0}
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, -1]


def test_calibrated_scales_each_call_by_the_loops_around_it(monkeypatch):
    loops = iter([0.3, 0.15, 0.45])
    monkeypatch.setattr(speed, "loop_seconds", lambda: next(loops))
    calls = speed.Calibrated()
    calls.add(2.0)
    calls.add(1.0)
    assert calls.raw == [2.0, 1.0]
    assert calls.loops == [0.3, 0.15, 0.45]
    assert calls.scaled == pytest.approx(
        [2.0 * speed.REFERENCE_S / 0.225, 1.0 * speed.REFERENCE_S / 0.3]
    )


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("linalg.solve"):
            raise ValueError("indefinite")
    assert tracer.spans[0].duration >= 0.0
    with tracer.span("assembly.error_norms"):
        pass
    assert tracer.spans[1].parent == -1


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json_and_are_valid():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert end_to_end.keys() == run.END_TO_END.keys()
    assert {name: m["unit"] for name, m in end_to_end.items()} == run.END_TO_END
    printed_layers = {**dict.fromkeys(run.LAYER_SPANS, "s"), **dict.fromkeys(run.TRACE_WALLS, "s"),
                      **workloads.COUNT_METRICS}
    assert {name: m["unit"] for name, m in per_layer.items()} == printed_layers
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in list(end_to_end.values()) + list(per_layer.values()):
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in end_to_end.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_sweep_factors_follow_the_seed():
    sweep = workloads.WORKLOADS["nitsche-sweep"]
    a, b = sweep.factors(3), sweep.factors(4)
    assert a == sweep.factors(3) and a != b
    for factors in (a, b):
        assert 1.0 in factors and list(factors) == sorted(factors)
        for got, default in zip(factors, workloads.SWEEP_DEFAULTS):
            low, high = sorted((default, default * (10.0 if default < 1.0 else 0.1)))
            assert low <= got <= high
    assert workloads.WORKLOADS["nitsche-solve"].factors(3) is None


def _small_nitsche_solve():
    from mpiga.experiments import ExperimentConfig, solve_level

    config = ExperimentConfig(geometry="square-2-bicubic", method="nitsche", h0=0.25, levels=(4,))

    report, system, view, coeffs = solve_level(config, 4)
    return SimpleNamespace(report=report, system=system, view=view, coeffs=coeffs)


def test_gate_rejects_a_perturbed_coefficient_vector():
    solve = _small_nitsche_solve()
    workload = workloads.WORKLOADS["nitsche-solve"]
    good = workloads.Outcome([(4, solve.report, "ok")], "", [(4, solve.system, solve.coeffs)])
    assert workloads.gate(workload, good) == []

    perturbed = solve.coeffs.copy()
    # correct solves reach a backward error near 1e-17; this change of one
    # coefficient by 0.1 % raises it to about 5e-8
    perturbed[np.argmax(np.abs(perturbed))] *= 1.0 + 1e-3
    bad = workloads.Outcome([(4, solve.report, "ok")], "", [(4, solve.system, perturbed)])
    problems = workloads.gate(workload, bad)
    assert len(problems) == 1 and "backward error" in problems[0]


def test_gate_pins_approx_c1_errors_and_jumps():
    workload = workloads.WORKLOADS["c1-converge"]
    l2, h1, h2 = checks.APPROX_C1_REFERENCE[8]

    def outcome(**fields):
        values = dict(h=0.125, n_dofs=389, l2=l2, h1=h1, h2=h2, jumps=[1e-13] * 7)
        values.update(fields)
        return workloads.Outcome([(8, ErrorReport(**values), "ok")], "")

    assert workloads.gate(workload, outcome()) == []
    assert len(workloads.gate(workload, outcome(h2=h2 * (1.0 + 1e-8)))) == 1
    assert len(workloads.gate(workload, outcome(jumps=[1e-13] * 6 + [1e-9]))) == 1
    assert len(workloads.gate(workload, outcome(l2=float("nan")))) == 2
    missing = workloads.Outcome([(16, None, "failed: indefinite")], "")
    assert workloads.gate(workload, missing) == ["c1-converge 16: failed: indefinite"]


def test_sweep_gate_counts_unstable_weights_but_requires_the_reference_row():
    workload = workloads.WORKLOADS["nitsche-sweep"]
    solve = _small_nitsche_solve()
    rows = [(1e-3, None, "indefinite: x"), (1.0, solve.report, "ok")]
    assert workloads.gate(workload, workloads.Outcome(rows, "")) == []
    rows = [(1.0, None, "indefinite: x")]
    assert len(workloads.gate(workload, workloads.Outcome(rows, ""))) == 1


def test_same_outcome_compares_every_bit():
    solve = _small_nitsche_solve()
    r = solve.report
    twin = ErrorReport(r.h, r.n_dofs, r.l2, r.h1, r.h2, r.jumps)
    nudged = ErrorReport(r.h, r.n_dofs, np.nextafter(r.l2, 1.0), r.h1, r.h2, r.jumps)
    a = workloads.Outcome([(4, r, "ok")], "csv")
    assert workloads.same_outcome(a, workloads.Outcome([(4, twin, "ok")], "csv")) == []
    assert workloads.same_outcome(a, workloads.Outcome([(4, nudged, "ok")], "csv")) != []
    assert workloads.same_outcome(a, workloads.Outcome([(4, twin, "ok")], "csv2")) != []
