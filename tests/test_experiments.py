import numpy as np
import pytest

from mpiga.assembly import NitscheForm
from mpiga.cli import main
from mpiga.errors import IndefiniteSystemError, NumericalError, ParameterError
from mpiga.experiments import (
    ExperimentConfig,
    expected_dof_count,
    run_convergence,
    run_eta_sweep,
    run_jump_study,
    run_solve,
    solve_level,
    stability_parameters,
)


def small_config(**kw):
    base = dict(geometry="square-2-bicubic", method="approx-c1", p=3, levels=(4, 8))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(method="dg").resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(levels=(8, 4)).resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(p=3, r=3).resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(h0=0.3).resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(bc="dirichlet").resolve()
    with pytest.raises(ParameterError):
        ExperimentConfig(levels=(0, 4)).resolve()


def test_determinism_bitwise(topo2c):
    texts = []
    for _ in range(2):
        cfg = small_config(levels=(4,))
        cfg.topology = topo2c
        _, text = run_convergence(cfg)
        texts.append(text)
    assert texts[0] == texts[1]


def test_csv_schema(topo2c):
    cfg = small_config(levels=(4,))
    cfg.topology = topo2c
    _, text = run_convergence(cfg)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:6] == ["n", "h", "dofs", "l2", "h1", "h2"]
    cell = lines[1].split(",")[3]
    mantissa, exponent = cell.split("e")
    assert len(mantissa.replace("-", "").replace(".", "")) == 6  # six significant digits


def test_dof_accounting(topo6):
    cfg = small_config(geometry="square-6-bilinear", levels=(4,))
    cfg.topology = topo6
    cfg.resolve()
    _, _, view, _ = solve_level(cfg, 4)
    assert expected_dof_count(view) == view.n_free


def test_method_sanity_single_patch(topo1):
    cfg_a = small_config(geometry="square-1", method="approx-c1", bc="gn", levels=(8,))
    cfg_a.topology = topo1
    rep_a, sys_a, _, _ = solve_level(cfg_a, 8)
    cfg_n = small_config(geometry="square-1", method="nitsche", bc="gn", levels=(8,))
    cfg_n.topology = topo1
    rep_n, sys_n, _, _ = solve_level(cfg_n, 8, eta=1.0)
    assert abs(rep_a.h2 - rep_n.h2) <= 1e-12 * rep_a.h2
    Ka = np.sort(sys_a.matrix.toarray().ravel())
    Kn = np.sort(sys_n.matrix.toarray().ravel())
    assert np.abs(Ka - Kn).max() <= 1e-12 * np.abs(Ka).max()


def test_eta_sweep_reference_factor_matches_convergence(topo2c):
    h0 = 1.0 / 8.0
    cfg = small_config(method="nitsche", h0=h0, levels=(8,))
    cfg.topology = topo2c
    results, _ = run_convergence(cfg)
    ref = results[0][1]
    cfg2 = small_config(method="nitsche", h0=h0, levels=(8,))
    cfg2.topology = topo2c
    sweep, _ = run_eta_sweep(cfg2, factors=(1.0,))
    fac, rep, status = sweep[0]
    assert status == "ok"
    assert abs(rep.h2 - ref.h2) <= 1e-12 * ref.h2
    assert abs(rep.l2 - ref.l2) <= 1e-12 * max(ref.l2, 1e-300)


def test_eta_sweep_matches_per_factor_solves(topo2c, monkeypatch):
    # oracle: one full solve_level per factor; the sweep assembles once
    cfg = small_config(method="nitsche", h0=1.0 / 8.0, levels=(8,))
    cfg.topology = topo2c
    base = max(stability_parameters(cfg).values())
    factors = (1e-3, 1.0, 1e2)  # 1e-3 gives an indefinite system on this mesh
    systems = []
    form_system = NitscheForm.system

    def recording(self, eta):
        systems.append(form_system(self, eta))
        return systems[-1]

    monkeypatch.setattr(NitscheForm, "system", recording)
    sweep, _ = run_eta_sweep(cfg, factors=factors, n=8)
    monkeypatch.undo()
    assert [fac for fac, _, _ in sweep] == list(factors)
    statuses = []
    for (fac, rep, status), system in zip(sweep, systems):
        try:
            ref, ref_system, _, _ = solve_level(cfg, 8, eta=fac * base)
        except (IndefiniteSystemError, NumericalError):
            statuses.append("failed")
            assert rep is None and status.startswith("indefinite")
            continue
        statuses.append("ok")
        assert status == "ok"
        for a, b in zip([rep.l2, rep.h1, rep.h2] + rep.jumps, [ref.l2, ref.h1, ref.h2] + ref.jumps):
            assert abs(a - b) <= 1e-12 * abs(b)
        if fac == 1.0:
            K, K_ref = system.matrix, ref_system.matrix
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(K, attr), getattr(K_ref, attr))
    assert statuses == ["failed", "ok", "ok"]


def test_eta_sweep_extremes(topo2c):
    # locking requires the resolved regime; h0 = 1/16 is the reference scale
    cfg = small_config(method="nitsche", h0=1.0 / 16.0)
    cfg.topology = topo2c
    # the small-weight witness sits at the weight 1e-3 * c(h0) * h0 that
    # coercivity theory calls unstable, written as a factor of the sweep's
    # reference weight eta_mult * c(h0) / h0
    small = 1e-3 * cfg.h0 ** 2 / cfg.eta_mult
    sweep, _ = run_eta_sweep(cfg, factors=(small, 1.0, 1e4))
    by_fac = {fac: (rep, status) for fac, rep, status in sweep}
    rep_ref, _ = by_fac[1.0]
    rep_big, status_big = by_fac[1e4]
    assert status_big == "ok"
    assert rep_big.h2 >= 3.0 * rep_ref.h2  # over-penalization locks
    rep_small, status_small = by_fac[small]
    assert status_small != "ok" or rep_small.h2 >= 10.0 * rep_ref.h2


def test_jump_study_rates(topo2c):
    cfg = small_config(levels=(4, 8, 16))
    cfg.topology = topo2c
    reports, text = run_jump_study(cfg)
    jumps = [rep.jump_max for _, rep in reports]
    assert jumps[0] > jumps[1] > jumps[2]
    assert "rate_max" in text.split("\n")[0]


def test_jump_rate_is_empty_between_round_off_jumps(topo6):
    # square-6-bilinear has linear gluing data: the space is exactly C1 and
    # its jumps are round-off, so a rate between them would be noise
    cfg = small_config(geometry="square-6-bilinear")
    cfg.topology = topo6
    reports, text = run_jump_study(cfg)
    assert all(rep.jump_max <= 1e-12 for _, rep in reports)
    assert [row.split(",")[-1] for row in text.splitlines()[1:]] == ["", ""]


def test_jump_study_requires_approx_c1(topo2c):
    cfg = small_config(method="nitsche")
    cfg.topology = topo2c
    with pytest.raises(ParameterError):
        run_jump_study(cfg)


def test_run_solve_csv(topo1, tmp_path):
    out = tmp_path / "solve.csv"
    cfg = small_config(geometry="square-1", levels=(4,), out=str(out))
    cfg.topology = topo1
    rep, text = run_solve(cfg)
    assert out.read_text() == text
    assert rep.n_dofs > 0


# -- CLI ------------------------------------------------------------------------


def test_cli_success(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main([
        "solve", "--geometry", "square-1", "--p", "3", "--levels", "4",
        "--out", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_cli_sweep_eta_deterministic(capsys):
    argv = ["sweep-eta", "--geometry", "square-2-bicubic", "--p", "3", "--h0", "0.125"]
    texts = []
    for _ in range(2):
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].split("\n")[0] == "eta,factor,l2,h1,h2,status"


def test_cli_config_error(capsys):
    assert main(["solve", "--geometry", "hexagon-9", "--levels", "4"]) == 2
    assert main(["converge", "--levels", "8,4"]) == 2
    assert main(["solve", "--geometry", "/nonexistent/path.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--h0", "0"],
        ["solve", "--h0", "nan"],
        ["solve", "--levels", ","],
        ["converge", "--levels", ","],
    ],
    ids=["h0-zero", "h0-nan", "solve-no-levels", "converge-no-levels"],
)
def test_cli_rejects_bad_mesh_configuration(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error")


@pytest.mark.parametrize("mult", ["nan", "inf", "0", "-1"])
def test_cli_rejects_bad_eta_multiplier(mult, capsys):
    assert main(["solve", "--method", "nitsche", "--levels", "4", "--eta-mult", mult]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "eta" in err


@pytest.mark.parametrize(
    "case", ["out-directory", "out-missing-parent", "level-zero", "level-negative"]
)
def test_cli_rejects_bad_output_and_levels_before_solving(case, tmp_path, monkeypatch, capsys):
    """A directory as output path, an output path in a missing directory
    and levels below 1 exit 2 before any level is assembled."""
    import mpiga.experiments as experiments

    reached = []
    monkeypatch.setattr(experiments, "solve_level", lambda *args, **kw: reached.append(args))
    argv = {
        "out-directory": ["--levels", "4", "--out", str(tmp_path)],
        "out-missing-parent": ["--levels", "4", "--out", str(tmp_path / "missing" / "solve.csv")],
        "level-zero": ["--levels", "0"],
        "level-negative": ["--levels=-4,8"],
    }[case]
    for method in ("approx-c1", "nitsche"):
        assert main(["solve", "--method", method, *argv]) == 2
        assert capsys.readouterr().err.startswith("configuration error")
    assert not reached


def test_cli_numerical_error(monkeypatch):
    import mpiga.cli as cli

    def boom(config):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "run_solve", boom)
    assert cli.main(["solve", "--geometry", "square-1", "--levels", "4"]) == 3


def test_cli_stdout(capsys):
    code = main(["solve", "--geometry", "square-1", "--levels", "4"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,h,dofs")
