import importlib
import runpy
from pathlib import Path

import numpy as np

import perturbproj
import perturbproj.cli as cli

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


# The span names each traced operation must record. perfbench's per-layer
# metrics are sums over these names, so a call site that moves out of its
# TARGETS row would otherwise read as a layer taking no time.
LAYERS = {
    "similarity-exact": {"cli.main", "similarity.read", "similarity.gram", "mechanism.calibrate",
                         "mechanism.sample", "similarity.release", "projections.eigh",
                         "similarity.write"},
    "marginals-threshold": {"cli.main", "marginals.read", "marginals.release",
                            "marginals.parity", "mechanism.calibrate", "mechanism.sample",
                            "marginals.save"},
    "marginals-even-flatten": {"cli.main", "marginals.read", "marginals.release",
                               "marginals.parity", "engine.project_once", "mechanism.calibrate",
                               "mechanism.sample", "projections.eigh", "marginals.save"},
}


def test_the_benchmark_tracer_records_every_layer_of_each_release(tmp_path):
    tracing = runpy.run_path(str(TRACING))
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 4))
    vectors, records = tmp_path / "vectors.csv", tmp_path / "records.csv"
    np.savetxt(vectors, g / np.linalg.norm(g, axis=1, keepdims=True), delimiter=",", fmt="%.17g")
    np.savetxt(records, (rng.random((40, 5)) < 0.3).astype(int), delimiter=",", fmt="%d")
    runs = {
        "similarity-exact": ["similarity", "--mode", "exact", "--input", str(vectors)],
        "marginals-threshold": ["marginals", "--mode", "threshold", "--order", "3",
                                "--sparsity", "5", "--input", str(records)],
        "marginals-even-flatten": ["marginals", "--mode", "even-flatten", "--order", "2",
                                   "--input", str(records)],
    }
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        for op, (name, argv) in enumerate(runs.items()):
            out = tmp_path / (name + (".csv" if name.startswith("similarity") else ".bin"))
            with tracer.operation(op):
                assert cli.main(argv + ["--epsilon", "1", "--delta", "1e-6", "--seed", "1",
                                        "--out", str(out)]) == 0
    finally:
        tracer.restore()
    fired = [{span.name for span in tracer.spans if span.op == op} for op in range(len(runs))]
    assert dict(zip(runs, fired)) == LAYERS
    never = {name for _, _, name, _ in tracing["TARGETS"]} - set().union(*fired)
    assert never == {"engine.alternate", "engine.dykstra"}
