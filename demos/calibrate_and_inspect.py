"""Recover noise covariances from data where the true ones are known.

Simulates a batch of annotated sequences with a chosen measurement
covariance, runs the calibration pass, and prints the recovered pooled
matrix next to the injected one.  The resulting covariance bank is exactly
what the filtering stage consumes.

    python3 demos/calibrate_and_inspect.py
"""

import numpy as np

from fieldreg import (
    ImageDims,
    SimConfig,
    SimNoise,
    dlt_homography,
    generate_sequence,
    pan_motion_script,
    run_calibrate,
    standard_soccer_template,
)

TRUE_MEASUREMENT = np.array([[6.0, 1.2], [1.2, 3.0]])
N_SEQUENCES = 12
N_FRAMES = 120


def main():
    template = standard_soccer_template()
    dims = ImageDims(1280, 720)
    quad = np.array([[210.0, 130.0], [1070.0, 130.0], [1245.0, 660.0], [35.0, 660.0]])
    view = dlt_homography(template.corners(), quad)

    sequences = [generate_sequence(SimConfig(
        template=template, dims=dims, n_frames=N_FRAMES,
        initial_homography=view, motions=pan_motion_script(N_FRAMES),
        noise=SimNoise(measurement=TRUE_MEASUREMENT), seed=100 + seq))
        for seq in range(N_SEQUENCES)]

    bank = run_calibrate(sequences, template)
    n_total = int(sum(bank.measurement_counts.values()))
    print(f"calibrated from {n_total} measurement residuals "
          f"across {len(bank.measurement)} keypoints\n")

    print("injected measurement covariance (px^2):")
    print(np.array2string(TRUE_MEASUREMENT, precision=3))
    print("\nrecovered pooled covariance (px^2):")
    print(np.array2string(bank.measurement_pooled, precision=3))
    rel = (np.abs(np.diag(bank.measurement_pooled) - np.diag(TRUE_MEASUREMENT))
           / np.diag(TRUE_MEASUREMENT))
    print(f"\ndiagonal relative error: {rel[0]:.1%}, {rel[1]:.1%}")

    noise = bank.noise_for(template)
    print(f"\nbank materializes per-keypoint noise blocks of shape "
          f"{noise.measurement.shape}")
    spread = [float(np.trace(b)) for b in noise.measurement]
    print(f"trace spread across keypoints: {min(spread):.2f} .. {max(spread):.2f} px^2")
    print(f"initial-homography covariance calibrated from "
          f"{bank.init_homography_samples} robust fits")


if __name__ == "__main__":
    main()
