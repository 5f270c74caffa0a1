"""Built-in model geometries and geometry-file I/O.

All fixtures parametrize the unit square:

``square-1``
    A single identity patch.
``square-6-bilinear``
    Six bilinear quads with slanted interior edges, one inner vertex of
    valence 3 and one of valence 4.  All gluing data is linear, so the
    coupled space is exactly C1.
``square-2-bicubic``
    Two bicubic patches separated by a curved interface whose x-offset
    follows a cubic approximation of 0.1 sin(pi y); the tangential shear
    ratio is rational, so the coupled space is only approximately C1.
``square-6-bicubic``
    The six-patch layout with all interior edges curved (cubic Coons
    patches).

The geometry file format is JSON::

    {"patches": [{"degree_u": int, "degree_v": int,
                  "knots_u": [...], "knots_v": [...],
                  "control_points": [[x, y], ...]}, ...]}

with row-major control points (the v index varies fastest) and all knot
vectors spanning [0, 1].
"""

import json

import numpy as np

from .bspline import SplineSpace, TensorSplineSpace
from .errors import GeometryError, ParameterError
from .geometry import Patch, detect_topology, patch_from_dict, patch_to_dict

BUILTIN_NAMES = ("square-1", "square-6-bilinear", "square-2-bicubic", "square-6-bicubic")

# six-quad layout of the unit square: two inner vertices (valences 4 and 3),
# seven interfaces, ten boundary edges
_LAYOUT_POINTS = {
    "c1": (0.0, 1.0),
    "c2": (1.0, 0.0),
    "c3": (1.0, 1.0),
    "c4": (0.0, 0.0),
    "W": (0.55, 1.0),
    "V1": (0.3, 0.0),
    "V2": (0.0, 0.33),
    "V3": (0.6, 0.0),
    "V4": (0.0, 0.66),
    "V": (0.85, 0.0),
    "Q": (0.5, 0.55),
    "P": (0.3, 0.35),
}

# counter-clockwise corner cycles (F(0,0), F(1,0), F(1,1), F(0,1))
_LAYOUT_QUADS = (
    ("c4", "V1", "P", "V2"),
    ("V1", "V3", "Q", "P"),
    ("V3", "V", "W", "Q"),
    ("V", "c2", "c3", "W"),
    ("V2", "P", "Q", "V4"),
    ("c1", "V4", "Q", "W"),
)

_LAYOUT_BOUNDARY = {
    ("c4", "V1"), ("V1", "V3"), ("V3", "V"), ("V", "c2"),  # bottom
    ("c2", "c3"),  # right
    ("c3", "W"), ("W", "c1"),  # top
    ("c1", "V4"), ("V4", "V2"), ("V2", "c4"),  # left
}


def _bilinear_patch(a, b, c, d):
    sp = SplineSpace(1, 0, 1)
    ctrl = np.empty((2, 2, 2))
    ctrl[0, 0], ctrl[1, 0], ctrl[1, 1], ctrl[0, 1] = a, b, c, d
    return Patch(TensorSplineSpace(sp, sp), ctrl)


def _cubic_line(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.array([a, a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0, b])


def _cubic_arc(a, b, bulge):
    """Cubic edge curve bulging sideways by ``bulge`` times the edge length."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    d = b - a
    normal = np.array([-d[1], d[0]])
    off = bulge * normal
    return np.array([a, a + d / 3.0 + off, a + 2.0 * d / 3.0 + off, b])


def _coons_bicubic(bottom, right, top, left):
    """Bicubic control net from four cubic edge curves (discrete Coons patch).

    ``bottom`` and ``top`` run along u, ``left`` and ``right`` along v;
    corner points must match.
    """
    u = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    v = u
    ctrl = np.empty((4, 4, 2))
    c00, c10, c01, c11 = bottom[0], bottom[3], top[0], top[3]
    for i in range(4):
        for j in range(4):
            ruled_v = (1.0 - v[j]) * bottom[i] + v[j] * top[i]
            ruled_u = (1.0 - u[i]) * left[j] + u[i] * right[j]
            bil = (
                (1.0 - u[i]) * (1.0 - v[j]) * c00
                + u[i] * (1.0 - v[j]) * c10
                + (1.0 - u[i]) * v[j] * c01
                + u[i] * v[j] * c11
            )
            ctrl[i, j] = ruled_v + ruled_u - bil
    sp = SplineSpace(3, 2, 1)
    return Patch(TensorSplineSpace(sp, sp), ctrl)


def _six_patch(curved):
    pts = {k: np.asarray(p, float) for k, p in _LAYOUT_POINTS.items()}
    curves = {}

    def edge_curve(na, nb):
        key = (na, nb) if na < nb else (nb, na)
        if key not in curves:
            straight = key in _LAYOUT_BOUNDARY or (key[::-1] in _LAYOUT_BOUNDARY)
            if curved and not straight:
                curves[key] = _cubic_arc(pts[key[0]], pts[key[1]], 0.07)
            else:
                curves[key] = _cubic_line(pts[key[0]], pts[key[1]])
        cur = curves[key]
        return cur if (na, nb) == key else cur[::-1]

    patches = []
    for (a, b, c, d) in _LAYOUT_QUADS:
        if curved:
            patches.append(
                _coons_bicubic(
                    edge_curve(a, b), edge_curve(b, c), edge_curve(d, c), edge_curve(a, d)
                )
            )
        else:
            patches.append(_bilinear_patch(pts[a], pts[b], pts[c], pts[d]))
    return patches


def _two_patch_bicubic():
    # interface x = 1/2 + offset(y), offset the cubic Bezier (0, 2/15, 2/15, 0),
    # a control-polygon approximation of 0.1 sin(pi y)
    xs = np.array([0.5, 0.5 + 2.0 / 15.0, 0.5 + 2.0 / 15.0, 0.5])
    u = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    left = np.empty((4, 4, 2))
    right = np.empty((4, 4, 2))
    for i in range(4):
        for j in range(4):
            left[i, j] = (u[i] * xs[j], u[j])
            right[i, j] = (xs[j] + u[i] * (1.0 - xs[j]), u[j])
    sp = SplineSpace(3, 2, 1)
    return [
        Patch(TensorSplineSpace(sp, sp), left),
        Patch(TensorSplineSpace(sp, sp), right),
    ]


def builtin_geometry(name):
    """Construct a built-in multi-patch geometry and detect its topology."""
    if name == "square-1":
        patches = [_bilinear_patch((0, 0), (1, 0), (1, 1), (0, 1))]
    elif name == "square-6-bilinear":
        patches = _six_patch(curved=False)
    elif name == "square-2-bicubic":
        patches = _two_patch_bicubic()
    elif name == "square-6-bicubic":
        patches = _six_patch(curved=True)
    else:
        raise ParameterError(
            f"unknown geometry {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return detect_topology(patches)


def default_bc(name):
    """Boundary-condition role of a fixture: clamped for the exactly-C1 ones."""
    return "gn" if name in ("square-1", "square-6-bilinear") else "gl"


def save_geometry(topology, path):
    data = {"patches": [patch_to_dict(p) for p in topology.patches]}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def load_geometry(path):
    """Load and validate a geometry JSON file; returns the detected topology."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or not isinstance(data.get("patches"), list):
        raise GeometryError(f"{path}: expected an object with a 'patches' array")
    patches = []
    for idx, rec in enumerate(data["patches"]):
        try:
            patches.append(patch_from_dict(rec))
        except GeometryError as exc:
            raise GeometryError(f"{path}: patch {idx}: {exc}") from exc
    if not patches:
        raise GeometryError(f"{path}: no patches")
    return detect_topology(patches)
