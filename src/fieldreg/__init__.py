"""Two-stage Bayesian homography tracking for sports-field registration.

A linear Kalman filter smooths detected field keypoints in image space under
inter-frame global motion; an extended Kalman filter fuses the smoothed
keypoints into the 8 free homography parameters.  Ships with robust
initialization, covariance calibration from annotated footage, registration
metrics, a synthetic sequence generator, file formats and a CLI.
"""

from .calibration import (
    CovarianceBank,
    calibrate_bank,
    estimate_homography_process_cov,
    estimate_init_homography_cov,
    estimate_keypoint_process_cov,
    estimate_measurement_cov,
    repair_psd,
)
from .defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_INIT_HOMOGRAPHY,
    DEFAULT_KEYPOINT_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from .errors import (
    DegenerateConfiguration,
    DegenerateHomography,
    DegenerateProjection,
    DimensionMismatch,
    EmptyVisibleRegion,
    FieldRegError,
    FormatError,
    FrameMismatch,
    InsufficientPoints,
    NoConsensus,
    NoInitializableFrame,
    NoMatchedKeypoints,
    NoSamples,
    NumericalDegeneracy,
    PointAtInfinity,
    SingularInnovation,
    SingularMatrix,
    UnknownKeypointId,
)
from .field import FieldTemplate, ImageDims, standard_soccer_template
from .geometry import (
    RansacParams,
    apply_homography,
    dlt_homography,
    homography_from_params,
    homography_params,
    invert_homography,
    normalize_homography,
    ransac_homography,
)
from .homography_filter import (
    HomographyFilterState,
    ekf_init,
    ekf_predict,
    ekf_update,
    measurement_jacobian,
)
from .keypoint_filter import (
    KeypointFilterState,
    MeasurementFrame,
    NoiseConfig,
    init_keypoint_state,
    lkf_predict,
    lkf_update,
)
from .metrics import (
    average_precision,
    iou_entire,
    iou_entire_image,
    iou_part,
    nrmse,
    precision_recall,
    projection_error,
    reprojection_error,
)
from .motion import AffineSimilarity, estimate_global_motion
from .pipeline import (
    FilterOptions,
    FrameEstimate,
    FrameMetrics,
    MetricsReport,
    iter_filter,
    run_calibrate,
    run_evaluate,
    run_filter,
    run_ransac_baseline,
)
from .seqio import (
    SequenceFrame,
    SequenceHeader,
    TrainingRecord,
    iter_sequence,
    read_bank,
    read_estimates,
    read_report,
    read_sequence,
    read_template,
    write_bank,
    write_estimates,
    write_report,
    write_sequence,
    write_template,
)
from .simulator import (
    SimConfig,
    SimNoise,
    generate_sequence,
    matched_bank,
    pan_motion_script,
    visible_keypoints,
)

__version__ = "0.1.0"
