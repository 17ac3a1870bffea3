import importlib
import runpy
from pathlib import Path

import perturbproj

PUBLIC_NAMES = {
    # mechanism
    "PrivacyParams", "RandomStream", "calibrate_sigma", "sample_gaussian",
    "sample_symmetric_gaussian",
    # projections
    "ConvexSet", "DualNewtonResult", "EigenFailure", "EntryClip", "FrobeniusBall",
    "ProjectionConvergenceError", "PsdTrace", "UnsupportedSetError", "project_simplex",
    "solve_psd_diag_box",
    # engine
    "perturb_and_project", "perturb_symmetric",
    # similarity
    "MODE_EXACT", "MODE_PRACTICAL", "SimilarityRelease", "UnitVectorSet", "gram",
    "gram_sensitivity", "read_vectors_csv", "release_cosine_exact",
    "release_cosine_practical", "write_release_csv",
    # marginals
    "BinaryDataset", "MarginalRelease", "ParityQuery", "RecordError", "answer_parity_query",
    "avg_query_sq_error", "load_tensor", "parity_tensor", "read_dataset_csv",
    "release_even_k", "release_gaussian_only", "release_threshold_baseline", "save_release",
    # bench
    "complexity_box_closed_form", "complexity_monte_carlo", "fit_power_law",
    "scaling_experiment_cosine", "scaling_experiment_marginals", "stability_experiment",
    "__version__",
}

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_api_is_exactly_these_names_and_each_resolves():
    assert len(perturbproj.__all__) == len(set(perturbproj.__all__)) == 47
    assert set(perturbproj.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(perturbproj, name)


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench's tracer rebinds each (module, name) row of TARGETS by getattr,
    # so a name moved out of its module would break every traced run
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [(module, name) for module, name, *_ in targets
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"tracer rows that do not resolve: {missing}"
