"""formred: height reduction of integer binary forms.

Reduce integer binary forms to small-height equivalents by the Julia
quadratic, by the hyperbolic centroid of the roots, by shift descent and by
scaling scans; regenerate the n-gon form databases and their head-to-head
statistics.
"""

from .errors import ConvergenceError, DomainError
from .forms import (BinaryForm, UnimodularMatrix, UpperRootSet, content,
                    from_upper_roots, height, primitive, roots_upper, shift,
                    transform)
from .quad import (QuadraticForm, enumerate_reduced, q_discriminant,
                   q_is_positive_definite, q_is_reduced, q_reduce,
                   q_transform, q_zero_map)
from .hyper import (UhpPoint, center_of_mass, centroid_from_factors, dist_h,
                    hyperbolic_centroid, mobius, nint, psi,
                    reduce_to_fundamental, right_action)
from .julia import (JuliaResult, JuliaWeights, minimize_theta0, q_of_weights,
                    theta0)
from .reduce import (ReductionReport, minimize, reduce_com, reduce_hyperbolic,
                     reduce_julia, scale_search, shift_descent, shift_direction)
from .dbgen import (CompareStats, LatticeConfig, NGonRecord, build_record,
                    compare_stats, enumerate_ngons, gauss_estimate,
                    generate_records, julia_vs_com_report, lattice_points,
                    max_distance, read_db, stats_json_dict, write_db)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm", "CompareStats", "ConvergenceError",
    "DomainError", "JuliaResult", "JuliaWeights", "LatticeConfig",
    "NGonRecord", "QuadraticForm", "ReductionReport", "UhpPoint",
    "UnimodularMatrix", "UpperRootSet", "build_record", "center_of_mass",
    "centroid_from_factors", "compare_stats", "content",
    "dist_h", "enumerate_ngons", "enumerate_reduced", "from_upper_roots",
    "gauss_estimate", "generate_records", "height", "hyperbolic_centroid",
    "julia_vs_com_report", "lattice_points", "max_distance", "minimize",
    "minimize_theta0", "mobius", "nint", "primitive", "psi", "q_discriminant",
    "q_is_positive_definite", "q_is_reduced", "q_of_weights", "q_reduce",
    "q_transform", "q_zero_map", "read_db", "reduce_com", "reduce_hyperbolic",
    "reduce_julia", "reduce_to_fundamental", "right_action", "roots_upper",
    "scale_search", "shift", "shift_descent", "shift_direction",
    "stats_json_dict", "theta0", "transform", "write_db",
]
