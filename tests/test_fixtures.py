import json

import numpy as np
import pytest

from mpiga.cli import main
from mpiga.errors import ConformityError, GeometryError, ParameterError
from mpiga.fixtures import (
    BUILTIN_NAMES,
    builtin_geometry,
    default_bc,
    load_geometry,
    save_geometry,
)


def test_builtin_names_resolve():
    for name in BUILTIN_NAMES:
        topo = builtin_geometry(name)
        assert len(topo.patches) >= 1


def test_unknown_name():
    with pytest.raises(ParameterError):
        builtin_geometry("triangle-7")


def test_square1_trivial(topo1):
    assert len(topo1.patches) == 1
    assert len(topo1.interfaces) == 0


def test_default_bc_roles():
    assert default_bc("square-6-bilinear") == "gn"
    assert default_bc("square-1") == "gn"
    assert default_bc("square-2-bicubic") == "gl"
    assert default_bc("square-6-bicubic") == "gl"


def test_bilinear_fixture_has_linear_gluing(topo6):
    # exact data lies in the projection space, so projections reproduce it
    from mpiga.c1space import approximate_gluing_data
    from mpiga.geometry import gluing_data

    ts = np.linspace(0, 1, 77)
    for idx, itf in enumerate(topo6.interfaces):
        gk, gl = approximate_gluing_data(topo6, idx, 3, 4)
        for side, gf in ((itf.k, gk), (itf.l, gl)):
            a, b = gluing_data(topo6, idx, side, ts)
            assert np.abs(gf.eval_alpha(ts)[:, 0] - a).max() <= 1e-12
            assert np.abs(gf.eval_beta(ts)[:, 0] - b).max() <= 1e-12


def test_bicubic_fixture_jump_visible_and_decaying(topo2c):
    from mpiga.experiments import ExperimentConfig, solve_level

    cfg = ExperimentConfig(geometry="square-2-bicubic", method="approx-c1", p=3)
    cfg.topology = topo2c
    cfg.resolve()
    jumps = []
    for n in (4, 8):
        rep, *_ = solve_level(cfg, n)
        jumps.append(rep.jump_max)
    assert jumps[0] > 1e-8
    assert jumps[1] < jumps[0]


def test_geometry_roundtrip(tmp_path, topo2c):
    path = tmp_path / "geo.json"
    save_geometry(topo2c, path)
    back = load_geometry(path)
    assert len(back.patches) == len(topo2c.patches)
    for a, b in zip(back.patches, topo2c.patches):
        assert np.abs(a.control - b.control).max() == 0.0
    assert len(back.interfaces) == len(topo2c.interfaces)


def test_load_rejects_partial_interface(tmp_path):
    data = {
        "patches": [
            {
                "degree_u": 1, "degree_v": 1,
                "knots_u": [0, 0, 1, 1], "knots_v": [0, 0, 1, 1],
                "control_points": [[0, 0], [0, 1], [1, 0], [1, 1]],
            },
            {
                "degree_u": 1, "degree_v": 1,
                "knots_u": [0, 0, 1, 1], "knots_v": [0, 0, 1, 1],
                "control_points": [[1, 0], [1, 0.5], [2, 0], [2, 0.5]],
            },
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConformityError):
        load_geometry(path)


def test_load_rejects_degenerate_patch(tmp_path):
    data = {
        "patches": [
            {
                "degree_u": 1, "degree_v": 1,
                "knots_u": [0, 0, 1, 1], "knots_v": [0, 0, 1, 1],
                # repeated control column collapses the map
                "control_points": [[0, 0], [0, 1], [0, 0], [0, 1]],
            }
        ]
    }
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GeometryError):
        load_geometry(path)


def test_load_rejects_schema_violations(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GeometryError):
        load_geometry(path)
    path.write_text(json.dumps({"patches": [{"degree_u": 1}]}))
    with pytest.raises(GeometryError):
        load_geometry(path)
    path.write_text(json.dumps({"nope": []}))
    with pytest.raises(GeometryError):
        load_geometry(path)


UNIT_PATCH = {
    "degree_u": 1, "degree_v": 1,
    "knots_u": [0, 0, 1, 1], "knots_v": [0, 0, 1, 1],
    "control_points": [[0, 0], [0, 1], [1, 0], [1, 1]],
}


@pytest.mark.parametrize(
    "data",
    [
        {"patches": 5},
        {"patches": [dict(UNIT_PATCH, knots_u=[])]},
        {"patches": [dict(UNIT_PATCH, knots_u=["a"])]},
        # knot vectors without an interior knot in (0, 1) are checked too
        {"patches": [dict(UNIT_PATCH, knots_u=[0, 5, 1])]},
        {"patches": [dict(UNIT_PATCH, degree_u=3, knots_u=[0, 0, 0, float("nan"), 1, 1, 1, 1],
                          control_points=[[i / 3, j] for i in range(4) for j in range(2)])]},
    ],
    ids=["patches-not-a-list", "empty-knots", "non-numeric-knots", "knot-outside-unit-interval", "nan-knot"],
)
def test_malformed_geometry_is_a_configuration_error(tmp_path, data):
    # README "Exit codes": a configuration error exits with 2, not a traceback
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GeometryError):
        load_geometry(path)
    assert main(["solve", "--geometry", str(path), "--levels", "4"]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_control_point_is_a_configuration_error(tmp_path, topo2c, value):
    path = tmp_path / "non-finite.json"
    save_geometry(topo2c, path)
    data = json.loads(path.read_text())
    data["patches"][1]["control_points"][5][0] = value
    path.write_text(json.dumps(data))
    with pytest.raises(GeometryError, match="finite"):
        load_geometry(path)
    assert main(["solve", "--geometry", str(path), "--levels", "4"]) == 2


def test_fixture_regularity(topo6c):
    for patch in topo6c.patches:
        assert patch.check_regularity() > 0.0
