"""Robust ellipsoid fitting from unorganized 3D points.

The package combines a cheap far-field distance (built on the family of
concentric surfaces swept out by scaling an ellipsoid's semiaxes) with the
near-field Sampson distance, and uses the blend both to score candidate
models inside an adaptive sample-consensus loop and to drive a weighted
least-squares refit cascade whenever the best candidate improves.
"""

__version__ = "0.1.0"

from .bench import (CSV_COLUMNS, ErrorTriple, ExperimentGrid, GridVariant,
                    ResidualTriple, fitting_errors, grid_from_json, load_grid,
                    read_report, residuals, run_grid)
from .consensus import (FitConfig, FitReport, classify, fit, local_optimize,
                        model_score, point_energy, required_iterations,
                        sample_minimal)
from .distances import (ALGEBRAIC, AXIAL, METRIC_KINDS, ORTHOGONAL, SAMPSON,
                        MetricKind, algebraic_distance, axial_distance, cas,
                        cas_distance, evaluate_metric, orthogonal_distance,
                        sampson_distance, scaling_factor)
from .errors import (CasfitError, ConvergenceFailure, DegenerateQuadric,
                     InsufficientSupport, NoModelFound, NotAnEllipsoid,
                     ParseError, RankDeficient, TooFewPoints)
from .leastsq import gaussian_weights, lls_fit, wls_fit
from .quadric import (EllipsoidGeometry, EllipsoidModel, coeffs_to_matrix,
                      decompose, design_matrix, geometry_to_coeffs,
                      matrix_to_coeffs, normalize_coeffs, validate_ellipsoid)
from .synth import (DatasetSpec, Instance, downsample, load_points,
                    make_instance, random_ellipsoid, random_rotation,
                    sample_surface, save_points)

__all__ = [
    "__version__",
    # quadric representations
    "EllipsoidGeometry", "EllipsoidModel", "normalize_coeffs",
    "coeffs_to_matrix", "matrix_to_coeffs", "design_matrix",
    "decompose", "geometry_to_coeffs", "validate_ellipsoid",
    # distances
    "MetricKind", "METRIC_KINDS", "ALGEBRAIC", "SAMPSON", "ORTHOGONAL",
    "AXIAL", "cas", "algebraic_distance", "scaling_factor", "axial_distance",
    "sampson_distance", "orthogonal_distance", "cas_distance", "evaluate_metric",
    # least squares
    "lls_fit", "wls_fit", "gaussian_weights",
    # consensus engine
    "FitConfig", "FitReport", "fit", "local_optimize", "model_score",
    "point_energy", "required_iterations", "classify", "sample_minimal",
    # synthetic data
    "DatasetSpec", "Instance", "random_ellipsoid", "random_rotation",
    "sample_surface", "make_instance", "downsample", "load_points", "save_points",
    # benchmarks
    "ErrorTriple", "ResidualTriple", "fitting_errors", "residuals",
    "GridVariant", "ExperimentGrid", "grid_from_json", "load_grid",
    "run_grid", "read_report", "CSV_COLUMNS",
    # errors
    "CasfitError", "NotAnEllipsoid", "DegenerateQuadric", "RankDeficient",
    "InsufficientSupport", "ConvergenceFailure", "TooFewPoints",
    "NoModelFound", "ParseError",
]
