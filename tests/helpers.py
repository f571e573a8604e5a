"""Shared builders for the test suite."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fieldreg
from fieldreg import CovarianceBank, ImageDims, NoiseConfig, standard_soccer_template
from fieldreg.errors import PointAtInfinity
from fieldreg.geometry import EPS_T, dlt_homography
from numpy_polygons import ensure_ccw

TEMPLATE = standard_soccer_template()
DIMS = ImageDims(1280, 720)

# OpenBLAS picks its kernels for the CPU at load time, and NumPy picks SIMD
# loops for sqrt, cumsum and searchsorted; a test taking kernel_env runs a
# fresh process under an older core type, or NumPy's pre-AVX2 baseline, and
# expects the same bytes.  Builds without dynamic dispatch ignore the
# variables and compare as usual.
KERNEL_ENVS = pytest.mark.parametrize("kernel_env", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
], ids=["Prescott", "Haswell", "numpy-no-AVX2"])


def run_python(args, kernel_env):
    """Python with args in a fresh process under kernel_env, where fieldreg's
    source and the test modules are importable."""
    src = str(pathlib.Path(fieldreg.__file__).resolve().parent.parent)
    path = [src, str(pathlib.Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **kernel_env, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def pooled_bank(init_homography=1e-2 * np.eye(8), homography_process=1e-6 * np.eye(8)):
    """Bank with pooled entries only; the 8x8 matrices default to small noise."""
    return CovarianceBank(keypoint_process_pooled=np.zeros((2, 2)), measurement_pooled=np.eye(2),
                          homography_process=homography_process, init_homography=init_homography)


def uniform_noise(n, process, measurement):
    """NoiseConfig with the same 2x2 blocks for every keypoint."""
    return NoiseConfig(np.tile(np.asarray(process, dtype=float), (n, 1, 1)),
                       np.tile(np.asarray(measurement, dtype=float), (n, 1, 1)))


def view_homography(rng=None, dims=DIMS, template=TEMPLATE, jitter_px=0.0):
    """Field-to-image homography with a broadcast-style perspective.

    Maps the field rectangle onto a convex trapezoid well inside the image.
    With jitter_px > 0 the trapezoid corners move by uniform +-jitter_px
    (keep it under ~40 to preserve convexity and visibility).
    """
    w, h = float(dims.width_px), float(dims.height_px)
    quad = np.array([
        [0.17 * w, 0.18 * h],
        [0.83 * w, 0.18 * h],
        [0.97 * w, 0.92 * h],
        [0.03 * w, 0.92 * h],
    ])
    if jitter_px:
        if rng is None:
            raise ValueError("jitter needs an rng")
        quad = quad + rng.uniform(-jitter_px, jitter_px, size=(4, 2))
    return dlt_homography(template.corners(), quad)


def random_homography(rng, spread=0.3):
    """Well-conditioned random homography with O(1) entries, h33 = 1."""
    while True:
        H = np.eye(3) + rng.uniform(-spread, spread, size=(3, 3))
        H[2, 2] = 1.0
        if abs(np.linalg.det(H)) > 0.1:
            return H


def points_in_convex_polygon(points, vertices):
    """Boolean mask of points inside (or on) a convex polygon."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    v = ensure_ccw(vertices)
    e = np.roll(v, -1, axis=0) - v
    rel_x = P[:, None, 0] - v[None, :, 0]
    rel_y = P[:, None, 1] - v[None, :, 1]
    cross = e[None, :, 0] * rel_y - e[None, :, 1] * rel_x
    return np.all(cross >= 0.0, axis=1)


def normalize_homogeneous(point):
    """Euclidean image (x/t, y/t) of a homogeneous vector (x, y, t).

    Raises PointAtInfinity when |t| <= EPS_T.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected a homogeneous (x, y, t) vector, got shape {p.shape}")
    t = p[2]
    if abs(t) <= EPS_T:
        raise PointAtInfinity(f"homogeneous scale {t} has magnitude <= {EPS_T}")
    return p[:2] / t


def fd_jacobian(f, x, step=1e-6):
    """Central-difference Jacobian of f: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(f(x))
    J = np.zeros((y0.size, x.size))
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * step)
    return J
