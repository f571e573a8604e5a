"""Reference covariance values for running without a calibration pass.

Measured on broadcast soccer footage with a keypoint detector at 1280x720:
a pooled image-keypoint process covariance and measurement covariance
(pixels^2), the homography process covariance, and the covariance of the
robust initial homography estimate (both 8x8, column-stacked parameter
order, h33 excluded).  The published precision of the two 8x8 tables leaves
them slightly indefinite (rounded-to-zero diagonals next to nonzero
off-diagonals), so bank assembly pushes them through repair_psd.
"""

import numpy as np

from .calibration import CovarianceBank, repair_psd

DEFAULT_KEYPOINT_PROCESS = np.array([
    [4.95, -0.06],
    [-0.06, 0.95],
])

DEFAULT_MEASUREMENT = np.array([
    [20.81, -0.01],
    [-0.01, 14.56],
])

DEFAULT_HOMOGRAPHY_PROCESS = np.array([
    [3.35, 0.05, 0.00, 1.58, 0.27, 0.00, -373.0, 12.77],
    [0.05, 0.01, 0.00, 0.02, 0.00, 0.00, -4.66, -0.08],
    [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, -0.10, 0.00],
    [1.58, 0.02, 0.00, 0.77, 0.13, 0.00, -179.0, 6.45],
    [0.27, 0.00, 0.00, 0.13, 0.03, 0.00, -30.11, 0.94],
    [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.05, 0.00],
    [-373.0, -4.66, -0.10, -179.0, -30.11, 0.05, 41943.0, -1458.0],
    [12.77, -0.08, 0.00, 6.45, 0.94, 0.00, -1458.0, 81.31],
])

DEFAULT_INIT_HOMOGRAPHY = np.array([
    [254.0, 1.76, 0.06, 123.0, 22.81, -0.03, -28795.0, 947.0],
    [1.76, 0.25, 0.00, 0.54, 0.05, 0.00, -163.0, -1.17],
    [0.06, 0.00, 0.00, 0.03, 0.01, 0.00, -6.51, 0.21],
    [123.0, 0.54, 0.03, 60.23, 11.22, -0.02, -14023.0, 472.0],
    [22.81, 0.05, 0.01, 11.22, 2.18, 0.00, -2605.0, 87.42],
    [-0.03, 0.00, 0.00, -0.02, 0.00, 0.00, 3.85, -0.12],
    [-28795.0, -163.0, -6.51, -14023.0, -2605.0, 3.85, 3280363.0, -108856.0],
    [947.0, -1.17, 0.21, 472.0, 87.42, -0.12, -108856.0, 4186.0],
])


def default_covariance_bank():
    """A bank holding only the pooled reference values (no per-keypoint entries)."""
    return CovarianceBank(
        keypoint_process_pooled=repair_psd(DEFAULT_KEYPOINT_PROCESS),
        measurement_pooled=repair_psd(DEFAULT_MEASUREMENT),
        homography_process=repair_psd(DEFAULT_HOMOGRAPHY_PROCESS),
        init_homography=repair_psd(DEFAULT_INIT_HOMOGRAPHY),
    )
