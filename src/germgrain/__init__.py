"""Simulation and verification laboratory for planar Boolean models.

Simulates stationary Poisson germ-grain processes with convex grains,
measures the intrinsic volumes of the occupied set exactly, evaluates the
closed-form mean-value / covariance / central-limit theory, and confirms
theory against Monte Carlo at desk scale.
"""

__version__ = "0.1.0"

# Public names by module, each imported on first access (PEP 562) like a submodule.
_EXPORTS = {
    "cells": "TooManyGrainsError intersect_convex",
    "cltstats": "NormalityReport ReplicateBatch clt_experiment ks_to_normal multivariate_check "
                "normality_report run_batch run_batches wasserstein_to_normal",
    "covariance": "AnisotropyError AssemblyError CovMatrix RhoTable covariogram_functions "
                  "p_polynomial phi_star rho_0i rho_11 rho_12 rho_22 sigma_matrix sigma_volume",
    "geometry": "AlignedRect ConvexPolygon DegenerateShapeError Disk Grains IntrinsicVolumes2D "
                "PlacedGrain Window boundary_covariogram circumradius covariogram "
                "intrinsic_volumes minkowski_sum_area rotate_shape shape_from_record "
                "shape_to_record steiner_area",
    "moments": "DensityVector EstimationError ball_densities_3d density_general "
               "estimate_densities invert_intensity invert_intensity_se local_mean_value "
               "miles_densities_2d mixed_moment_direct volume_fraction",
    "model": "GrainDistribution GrainMoments ModelConfig ParamLaw fixed_disk unit_squares",
    "process": "EdgeEffectError GermGrainSample empirical_capacity read_sample sample "
               "theory_capacity write_sample",
    "union": "FunctionalVector ReplicateError arrangement_measure edge_corrected_measure "
             "inclusion_exclusion_measure pixel_measure rasterize segment_coverage write_pgm",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS or name in ("quadrature", "rng"):
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS, "quadrature", "rng"})
