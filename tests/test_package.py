import importlib
import json
import os
import subprocess
import sys

import pytest

import germgrain

# The package's public names by module: those it exported when its __init__
# imported every module, and run_batches.
EXPORTED = {
    "cells": ["TooManyGrainsError", "intersect_convex"],
    "cltstats": ["NormalityReport", "ReplicateBatch", "clt_experiment", "ks_to_normal",
                 "multivariate_check", "normality_report", "run_batch", "run_batches",
                 "wasserstein_to_normal"],
    "covariance": ["AnisotropyError", "AssemblyError", "CovMatrix", "RhoTable",
                   "covariogram_functions", "p_polynomial", "phi_star", "rho_0i", "rho_11",
                   "rho_12", "rho_22", "sigma_matrix", "sigma_volume"],
    "geometry": ["AlignedRect", "ConvexPolygon", "DegenerateShapeError", "Disk", "Grains",
                 "IntrinsicVolumes2D", "PlacedGrain", "Window", "boundary_covariogram",
                 "circumradius", "covariogram", "intrinsic_volumes", "minkowski_sum_area",
                 "rotate_shape", "shape_from_record", "shape_to_record", "steiner_area"],
    "moments": ["DensityVector", "EstimationError", "ball_densities_3d", "density_general",
                "estimate_densities", "invert_intensity", "invert_intensity_se",
                "local_mean_value", "miles_densities_2d", "mixed_moment_direct",
                "volume_fraction"],
    "model": ["GrainDistribution", "GrainMoments", "ModelConfig", "ParamLaw", "fixed_disk",
              "unit_squares"],
    "process": ["EdgeEffectError", "GermGrainSample", "empirical_capacity", "read_sample",
                "sample", "theory_capacity", "write_sample"],
    "union": ["FunctionalVector", "ReplicateError", "arrangement_measure",
              "edge_corrected_measure", "inclusion_exclusion_measure", "pixel_measure",
              "rasterize", "segment_coverage", "write_pgm"],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_public_name_is_its_modules_object(module, name):
    own = getattr(importlib.import_module(f"germgrain.{module}"), name)
    assert getattr(germgrain, name) is own
    ns = {}
    exec(f"from germgrain import {name}", ns)
    assert ns[name] is own


def test_all_lists_the_exported_names():
    assert sorted(germgrain.__all__) == sorted(name for _, name in PAIRS)
    assert len(germgrain.__all__) == len(PAIRS)


@pytest.mark.parametrize("module", [*EXPORTED, "quadrature", "rng"])
def test_submodules_are_attributes(module):
    assert getattr(germgrain, module) is importlib.import_module(f"germgrain.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        germgrain.no_such_name
    assert not hasattr(germgrain, "GAUSS_LEGENDRE_24")
    with pytest.raises(ImportError):
        exec("from germgrain import no_such_name", {})


def test_dir_lists_public_names_without_loading_them():
    src = os.path.dirname(os.path.dirname(germgrain.__file__))
    code = ("import json, sys, germgrain\n"
            "names = dir(germgrain)\n"
            "print(json.dumps([names, sorted(m for m in sys.modules if m.startswith('germgrain'))]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    names, loaded = json.loads(out.stdout)
    assert set(germgrain.__all__) <= set(names)
    assert {*EXPORTED, "quadrature", "rng", "__version__"} <= set(names)
    assert names == sorted(names)
    assert loaded == ["germgrain"]


def test_python_m_germgrain_runs_the_cli():
    src = os.path.dirname(os.path.dirname(germgrain.__file__))
    out = subprocess.run([sys.executable, "-m", "germgrain", "--version"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == germgrain.__version__
