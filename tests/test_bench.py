import json
import math

import numpy as np
import pytest

from perturbproj.bench import (
    complexity_box_closed_form,
    complexity_monte_carlo,
    fit_power_law,
    scaling_experiment_cosine,
    scaling_experiment_marginals,
    stability_experiment,
)
from perturbproj.mechanism import PrivacyParams, RandomStream
from perturbproj.projections import EntryClip, FrobeniusBall, PsdCone, PsdTrace, UnsupportedSetError

NORMAL = PrivacyParams(1.0, 1e-6)
HUGE_EPS = PrivacyParams(1e9, 1e-6)


def test_closed_form_values():
    root = math.sqrt(2.0 / math.pi)
    assert complexity_box_closed_form(1) == pytest.approx(root, rel=1e-15)
    assert complexity_box_closed_form(4) == pytest.approx(4 * root, rel=1e-15)
    assert complexity_box_closed_form(4, "matrix") == pytest.approx(10 * root, rel=1e-15)
    with pytest.raises(ValueError):
        complexity_box_closed_form(0)
    with pytest.raises(ValueError):
        complexity_box_closed_form(3, "tensor")
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 2\.5$"):
        complexity_box_closed_form(2.5, "matrix")


def test_box_monte_carlo_matches_closed_form():
    est = complexity_monte_carlo(EntryClip(1.0), 4, 20_000, RandomStream(0), "vector")
    target = complexity_box_closed_form(4)
    assert abs(est["value"] - target) <= 3 * est["std_error"]
    est_m = complexity_monte_carlo(EntryClip(1.0), 4, 20_000, RandomStream(1), "matrix")
    target_m = complexity_box_closed_form(4, "matrix")
    assert abs(est_m["value"] - target_m) <= 3 * est_m["std_error"]


def test_frobenius_monte_carlo_matches_chi_mean():
    est = complexity_monte_carlo(FrobeniusBall(1.0), 4, 20_000, RandomStream(2), "matrix")
    chi_mean = math.sqrt(2.0) * math.gamma(17.0 / 2.0) / math.gamma(8.0)
    assert chi_mean == pytest.approx(3.938, abs=5e-4)
    assert abs(est["value"] - chi_mean) <= 3 * est["std_error"]


def test_psd_trace_monte_carlo_spectral_scale():
    est = complexity_monte_carlo(PsdTrace(1.0), 200, 20, RandomStream(3), "matrix")
    assert 1.6 <= est["value"] / math.sqrt(200) <= 2.2


def test_complexity_unsupported_set():
    with pytest.raises(UnsupportedSetError):
        complexity_monte_carlo(PsdCone(), 4, 10, RandomStream(0), "matrix")
    with pytest.raises(UnsupportedSetError):
        complexity_monte_carlo(PsdTrace(1.0), 4, 10, RandomStream(0), "vector")


@pytest.mark.parametrize("set_", [EntryClip(1.0), FrobeniusBall(1.0), PsdTrace(1.0)],
                         ids=["box", "frobenius", "psd-trace"])
@pytest.mark.parametrize("ambient", ["tensor", "sym-matrix"])
def test_complexity_refuses_an_unknown_ambient_for_every_set(set_, ambient):
    with pytest.raises(ValueError, match="ambient must be 'vector' or 'matrix'"):
        complexity_monte_carlo(set_, 4, 10, RandomStream(0), ambient)


def test_complexity_and_stability_refuse_counts_that_are_not_integers():
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 2, got 3\.0$"):
        complexity_monte_carlo(EntryClip(1.0), 4, 3.0, RandomStream(0))
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 4\.0$"):
        complexity_monte_carlo(EntryClip(1.0), 4.0, 3, RandomStream(0))
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 2, got 3\.0$"):
        stability_experiment(EntryClip(1.0), np.zeros(2), 3.0, RandomStream(0))
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 2, got 1$"):
        complexity_monte_carlo(EntryClip(1.0), 4, 1, RandomStream(0))
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 2, got 1$"):
        stability_experiment(EntryClip(1.0), np.zeros(2), 1, RandomStream(0))


def test_stability_refuses_an_anchor_that_is_not_a_vector_or_square_matrix():
    with pytest.raises(ValueError,
                       match=r"^anchor must be a vector or square matrix, got shape \(2, 3\)$"):
        stability_experiment(EntryClip(1.0), np.zeros((2, 3)), 3, RandomStream(0))


def test_stability_refuses_a_set_that_is_not_a_box():
    with pytest.raises(UnsupportedSetError):
        stability_experiment(PsdCone(), np.zeros((2, 2)), 3, RandomStream(0))


def test_stability_bound_is_the_scaled_box_closed_form():
    for ambient, anchor in (("vector", np.zeros(5)), ("matrix", np.zeros((5, 5)))):
        report = stability_experiment(EntryClip(2.5), anchor, 3, RandomStream(0))
        assert (report["ambient"], report["n"]) == (ambient, 5)
        assert report["stability_bound"] == (4 / 3) * 2.5 * complexity_box_closed_form(5, ambient)


def test_stability_unit_box_example():
    res = stability_experiment(EntryClip(1.0), np.zeros(1), 10_000, RandomStream(4))
    bound = (4.0 / 3.0) * complexity_box_closed_form(1)
    assert res["estimate"] <= bound + 3 * res["std_error"]


def test_stability_saturated_box_is_zero():
    anchor = np.full((3, 3), 100.0)
    res = stability_experiment(EntryClip(1.0), anchor, 2_000, RandomStream(5))
    assert res["estimate"] == 0.0


def test_stability_bound_on_boxes():
    for n in (4, 8):
        for ambient in ("vector", "matrix"):
            rng = np.random.default_rng(n)
            shape = (n,) if ambient == "vector" else (n, n)
            anchors = [np.zeros(shape), rng.standard_normal(shape)]
            if ambient == "matrix":
                anchors[1] = (anchors[1] + anchors[1].T) / 2
            bound = (4.0 / 3.0) * complexity_box_closed_form(n, ambient)
            for j, anchor in enumerate(anchors):
                res = stability_experiment(EntryClip(1.0), anchor, 2_000,
                                           RandomStream(60 + n + j))
                assert res["estimate"] <= bound + 3 * res["std_error"]


def test_fit_power_law():
    exp, r2 = fit_power_law([(32, 3 * 32**1.5), (64, 3 * 64**1.5)])
    assert exp == pytest.approx(1.5, abs=1e-9)
    assert r2 == pytest.approx(1.0)
    exp, r2 = fit_power_law([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
    assert exp == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0
    exp, r2 = fit_power_law([(1, 1), (2, 4), (4, 16)])
    assert exp == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fit_power_law([(1, 1)])
    with pytest.raises(ValueError):
        fit_power_law([(2, 1), (2, 3)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 0.0), (2, 1.0)])


def test_cosine_scaling_report_shape():
    report, per_trial = scaling_experiment_cosine([4, 8], NORMAL, 1.0, 3, RandomStream(6))
    assert report["experiment"] == "cosine-scaling"
    assert [p["n"] for p in report["points"]] == [4, 8]
    assert all(p["mse"] > 0 and p["std_error"] >= 0 for p in report["points"])
    assert report["fitted_exponent"] is not None
    assert report["seed"] == 6
    assert report["wall_time_s"] is None
    assert "baseline_exponent" in report
    json.dumps(report)  # artifact must be serializable
    rows = [r for r in per_trial if r[2] == "perturb-project"]
    assert len(rows) == 6


def test_cosine_scaling_deterministic_across_threads():
    # BLAS thread counts are varied across processes by acceptance check 10;
    # in one process this is a rerun check
    a = scaling_experiment_cosine([4, 8], NORMAL, 1.0, 3, RandomStream(7))
    b = scaling_experiment_cosine([4, 8], NORMAL, 1.0, 3, RandomStream(7))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cosine_scaling_validation():
    with pytest.raises(ValueError):
        scaling_experiment_cosine([8, 4], NORMAL, 1.0, 3, RandomStream(0))
    with pytest.raises(ValueError, match="strictly ascending"):
        scaling_experiment_cosine([4, 4], NORMAL, 1.0, 3, RandomStream(0))
    with pytest.raises(ValueError):
        scaling_experiment_cosine([8192], NORMAL, 1.0, 3, RandomStream(0))
    with pytest.raises(ValueError):
        scaling_experiment_cosine([4], NORMAL, 1.0, 1, RandomStream(0))
    with pytest.raises(ValueError, match=r"^each size must be an integer >= 1, got 4\.7$"):
        scaling_experiment_cosine([4.7, 8], NORMAL, 1.0, 3, RandomStream(0))
    with pytest.raises(ValueError, match="^need at least one size$"):
        scaling_experiment_cosine([], NORMAL, 1.0, 3, RandomStream(0))


def test_marginal_scaling_even_dominates_gaussian():
    report, _ = scaling_experiment_marginals([8, 16, 32], 2, 100, NORMAL, 5, RandomStream(8))
    for p in report["points"]:
        assert p["mse"] <= p["gaussian_mse"]
    assert "threshold_mse" not in report["points"][0]


def test_marginal_scaling_threshold_error_shrinks():
    report, _ = scaling_experiment_marginals([16, 32, 64], 2, 50, NORMAL, 5,
                                             RandomStream(9), sparsity=1)
    errs = [p["threshold_mse"] for p in report["points"]]
    assert errs[0] > errs[1] > errs[2]


def test_marginal_scaling_zero_noise():
    report, _ = scaling_experiment_marginals([4, 8], 2, 20, HUGE_EPS, 3,
                                             RandomStream(10), sparsity=1)
    for p in report["points"]:
        assert p["mse"] <= 1e-12
        assert p["gaussian_mse"] <= 1e-12
        assert p["threshold_mse"] <= 1e-12


def test_marginal_scaling_validation():
    with pytest.raises(ValueError):
        scaling_experiment_marginals([4], 3, 10, NORMAL, 3, RandomStream(0))
    with pytest.raises(ValueError):
        scaling_experiment_marginals([2000], 4, 10, NORMAL, 3, RandomStream(0))
