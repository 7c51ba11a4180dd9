"""Around-the-corner localization from single-photon flight-time histograms."""

from .acquisition import (
    AcquisitionParams,
    AliasingError,
    TransientHistogram,
    calibration_offset_s,
    expected_counts,
    expected_signal_rate,
    simulate_background,
    simulate_histogram,
)
from .geometry import SPEED_OF_LIGHT, HiddenObject, Point3, Scene, path_length, tof
from .localization import (
    AmbiguousAssociationError,
    EmptyIntersectionError,
    GridSpec,
    InfeasibleTimeError,
    ProbabilityMap,
    TooManyTargetsError,
    TrackEstimate,
    associate_and_localize,
    backproject,
    localize,
)
from .processing import (
    DegenerateFitError,
    NonConvergenceError,
    PeakEstimate,
    TimeWindow,
    apply_offset,
    crop,
    detect_peaks,
    fit_gaussian_mixture,
    fit_peaks,
    subtract_background,
)
from .studies import (
    PipelineError,
    ScenarioResult,
    SweepConfig,
    SweepResult,
    SweepRow,
    auto_time_window,
    corner_scene,
    reconstruct_from_histograms,
    run_baseline_sweep,
    run_scenario,
    run_two_person,
    simulate_scene,
)

__version__ = "0.1.0"
