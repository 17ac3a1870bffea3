import perturbproj

PUBLIC_NAMES = {
    # mechanism
    "PrivacyParams", "RandomStream", "calibrate_sigma", "sample_gaussian",
    "sample_symmetric_gaussian",
    # projections
    "TOL_PROJ", "ConvexSet", "DiagClip", "DualNewtonResult", "EigenFailure", "EntryClip",
    "FrobeniusBall", "ProjectionConvergenceError", "PsdCone", "PsdTrace",
    "UnsupportedSetError", "project_simplex", "solve_psd_diag_box",
    # engine
    "DykstraConvergenceWarning", "averaged_projection_step", "dykstra_reference",
    "perturb_and_alternately_project", "perturb_and_project", "perturb_symmetric",
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


def test_public_api_is_exactly_these_names_and_each_resolves():
    assert len(perturbproj.__all__) == len(set(perturbproj.__all__))
    assert set(perturbproj.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(perturbproj, name)
