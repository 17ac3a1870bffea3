"""End-to-end release checks for the library's headline behaviors.

Each test exercises one behavior at full scale, prints a single
[PASS]/[FAIL] line with the measured numbers (visible under pytest -s or in
the captured output of a failure), and then asserts. The checks cover noise
calibration, projection correctness, projected-noise stability, convergence
of the averaged projection iteration, utility scaling of both release
families, the sparse-search and parity oracles, and byte-level CLI
determinism.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import perturbproj
from perturbproj import (
    BinaryDataset,
    EntryClip,
    FrobeniusBall,
    PrivacyParams,
    PsdTrace,
    RandomStream,
    avg_query_sq_error,
    calibrate_sigma,
    complexity_box_closed_form,
    parity_tensor,
    project_simplex,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
    scaling_experiment_cosine,
    stability_experiment,
)
from perturbproj.engine import averaged_projection_step, dykstra_reference
from reference import TOL_PROJ, DiagClip, PsdCone, SearchBudget, sparse_injective_norm_oracle


def _line(num: int, ok: bool, label: str, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {num:02d} {label}: {detail}", flush=True)


def _sym(rng, n: int, scale: float = 3.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2.0


def test_noise_scale_matches_closed_form_on_grid():
    started = time.perf_counter()
    eps_grid = np.logspace(-2.0, 2.0, 5)
    delta_grid = np.logspace(-12.0, -2.0, 5)
    sens_grid = (0.5, 1.0, 2.0, 10.0)
    worst = 0.0
    count = 0
    for eps, delta, sens in itertools.product(eps_grid, delta_grid, sens_grid):
        expected = sens * math.sqrt(2.0 * math.log(2.0 / delta)) / eps
        got = calibrate_sigma(PrivacyParams(float(eps), float(delta)), float(sens))
        worst = max(worst, abs(got - expected) / expected)
        count += 1
    elapsed = time.perf_counter() - started
    ok = count == 100 and worst <= 1e-12 and elapsed < 1.0
    _line(1, ok, "noise scale matches the closed form",
          f"{count} grid points, worst relative error {worst:.3e}, {elapsed:.2f}s")
    assert count == 100
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_projection_properties_hold_on_random_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(20260)
    matrix_sets = (PsdCone(), EntryClip(1.0), FrobeniusBall(2.0),
                   PsdTrace(1.0), DiagClip(0.0, 1.0))
    n = 6
    per_kind = 500
    checked = 0
    for set_ in matrix_sets:
        for _ in range(per_kind):
            x = _sym(rng, n)
            y = _sym(rng, n)
            px, py = set_.project(x), set_.project(y)
            assert np.linalg.norm(set_.project(px) - px) <= TOL_PROJ * (1 + np.linalg.norm(px))
            assert set_.residual(px) <= TOL_PROJ * (1 + np.linalg.norm(px))
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-10) + 1e-12
            z = set_.project(_sym(rng, n))
            gap = float(np.sum((x - px) * (z - px)))
            assert gap <= TOL_PROJ * (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(z))
            checked += 1
    for _ in range(per_kind):
        v = rng.standard_normal(n) * 3.0
        w = rng.standard_normal(n) * 3.0
        pv, pw = project_simplex(v, 1.0), project_simplex(w, 1.0)
        assert np.linalg.norm(project_simplex(pv, 1.0) - pv) <= TOL_PROJ * (1 + np.linalg.norm(pv))
        assert pv.min() >= -TOL_PROJ and pv.sum() <= 1.0 + TOL_PROJ
        assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) * (1 + 1e-10) + 1e-12
        z = project_simplex(rng.standard_normal(n) * 3.0, 1.0)
        gap = float(np.dot(v - pv, z - pv))
        assert gap <= TOL_PROJ * (1 + np.linalg.norm(v)) * (1 + np.linalg.norm(z))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == per_kind * 6 and elapsed < 60.0
    _line(2, ok, "idempotence, non-expansiveness, and optimality hold",
          f"{checked} instances across 6 projection kinds, {elapsed:.1f}s")
    assert checked == per_kind * 6
    assert elapsed < 60.0


def test_projected_noise_spread_stays_under_width_statistic():
    started = time.perf_counter()
    rng = np.random.default_rng(30303)
    box = EntryClip(1.0)
    trials = 10_000
    rows = []
    all_ok = True
    for n in (4, 8):
        for ambient in ("vector", "matrix"):
            anchors = {
                "zero": np.zeros(n) if ambient == "vector" else np.zeros((n, n)),
                "random": (rng.standard_normal(n) if ambient == "vector"
                           else _sym(rng, n, scale=1.0)),
            }
            for name, anchor in anchors.items():
                res = stability_experiment(box, anchor, trials,
                                           RandomStream(300 + 10 * n))
                bound = (4.0 / 3.0) * complexity_box_closed_form(n, ambient)
                slack = bound + 3.0 * res["std_error"]
                all_ok = all_ok and res["estimate"] <= slack
                rows.append((n, ambient, name, res["estimate"], slack))
    elapsed = time.perf_counter() - started
    worst = max(r[3] / r[4] for r in rows)
    ok = all_ok and elapsed < 120.0
    _line(3, ok, "projected noise spread stays under the width statistic",
          f"{len(rows)} box settings at {trials} trials, worst estimate/bound "
          f"ratio {worst:.3f}, {elapsed:.1f}s")
    for n, ambient, name, estimate, slack in rows:
        assert estimate <= slack, (n, ambient, name, estimate, slack)
    assert elapsed < 120.0


def test_averaged_iteration_drifts_toward_nearest_feasible_point():
    started = time.perf_counter()
    sets = (PsdCone(), EntryClip(1.0))
    rng = np.random.default_rng(40404)
    t_grid = np.arange(5, 51)
    slopes = []
    ratios = []
    for _ in range(100):
        a = _sym(rng, 8, scale=1.0)
        ref = dykstra_reference(a, sets)
        d0 = float(np.linalg.norm(a - ref))
        assert d0 > 1e-6
        x = a.copy()
        dist = np.empty(51)
        for t in range(1, 51):
            x = averaged_projection_step(x, sets)
            dist[t] = float(np.linalg.norm(x - ref))
        slopes.append(float(np.polyfit(t_grid, np.log(dist[t_grid]), 1)[0]))
        ratios.append(dist[50] / d0)
    slopes = np.array(slopes)
    ratios = np.array(ratios)
    elapsed = time.perf_counter() - started
    slope_ok = bool(np.all(slopes < 0.0))
    close_ok = bool(np.all(ratios <= 1e-3))
    ok = slope_ok and close_ok and elapsed < 120.0
    _line(4, ok, "averaged iteration drifts toward the nearest feasible point",
          f"100 instances: slopes all negative = {slope_ok} (median "
          f"{np.median(slopes):.4f}, max {slopes.max():.4f}); distance at t=50 "
          f"<= 1e-3 of start on {int(np.sum(ratios <= 1e-3))}/100 (median ratio "
          f"{np.median(ratios):.2e}, min {ratios.min():.2e}), {elapsed:.1f}s")
    if not close_ok:
        print(f"     the averaged iterates settle at a feasible point that is "
              f"not the nearest one, so the distance to the nearest-point "
              f"reference levels off near {np.median(ratios):.2e} of its "
              f"starting value instead of shrinking geometrically to zero",
              flush=True)
        print(f"     distance-ratio quantiles at t=50: "
              f"10% {np.quantile(ratios, 0.1):.2e}, 50% {np.median(ratios):.2e}, "
              f"90% {np.quantile(ratios, 0.9):.2e}", flush=True)
    assert slope_ok
    assert elapsed < 120.0
    assert close_ok


def test_cosine_release_error_grows_slower_than_clip_baseline():
    started = time.perf_counter()
    params = PrivacyParams(1.0, 1e-6)
    report, _ = scaling_experiment_cosine((16, 32, 64, 128), params, 1.0, trials=30,
                                          stream=RandomStream(505))
    exponent = report["fitted_exponent"]
    baseline = report["baseline_exponent"]
    dominated = all(p["mse"] <= p["baseline_mse"] for p in report["points"])
    elapsed = time.perf_counter() - started
    ok = (1.2 <= exponent <= 1.8 and 1.7 <= baseline <= 2.3 and dominated
          and elapsed < 600.0)
    _line(5, ok, "cosine release error grows slower than the clip baseline",
          f"release exponent {exponent:.3f} in [1.2, 1.8], baseline exponent "
          f"{baseline:.3f} in [1.7, 2.3], release below baseline at every "
          f"size = {dominated}, {elapsed:.1f}s")
    assert 1.2 <= exponent <= 1.8
    assert 1.7 <= baseline <= 2.3
    assert dominated
    assert elapsed < 600.0


def test_even_order_release_beats_plain_gaussian_on_paired_runs():
    started = time.perf_counter()
    params = PrivacyParams(1.0, 1e-6)
    m = 100
    seeds = 50
    win_counts = {}
    worst_eig = 0.0
    worst_trace = 0.0
    for n in (8, 16, 32):
        wins = 0
        for s in range(seeds):
            data_rng = RandomStream(6000 + s).shifted(n).generator()
            data = BinaryDataset((data_rng.random((m, n)) < 0.5).astype(float))
            truth = parity_tensor(data, 2)
            noise = RandomStream(7000 + s).shifted(n)
            even = release_even_k(data, 2, params, noise)
            plain = release_gaussian_only(data, 2, params, noise)
            if avg_query_sq_error(even, truth) <= avg_query_sq_error(plain, truth):
                wins += 1
            pre = even.tensor / (float(m) * float(n))
            eigs = np.linalg.eigvalsh((pre + pre.T) / 2.0)
            worst_eig = min(worst_eig, float(eigs[0]))
            worst_trace = max(worst_trace, float(np.trace(pre)))
        win_counts[n] = wins
    elapsed = time.perf_counter() - started
    feasible = worst_eig >= -1e-6 and worst_trace <= 1.0 + 1e-6
    ok = (all(w >= int(0.9 * seeds) for w in win_counts.values()) and feasible
          and elapsed < 600.0)
    _line(6, ok, "projected pair release beats plain noise on paired runs",
          f"wins/{seeds} by size {win_counts}, most negative eigenvalue "
          f"{worst_eig:.2e}, largest pre-rescale trace {worst_trace:.6f}, "
          f"{elapsed:.1f}s")
    for n, wins in win_counts.items():
        assert wins >= int(0.9 * seeds), (n, wins)
    assert worst_eig >= -1e-6
    assert worst_trace <= 1.0 + 1e-6
    assert elapsed < 600.0


def test_sparse_search_stays_below_entrywise_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(70707)
    budget = SearchBudget()
    worst_gap = -np.inf
    checked = 0
    exhaustive_all = True
    for i in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.choice((2, 3)))
        t = min(int(rng.choice((1, 2, 3))), n)
        a = rng.standard_normal((n,) * k)
        got = sparse_injective_norm_oracle(a, t, budget, stream=RandomStream(i))
        bound = float(np.max(np.abs(a))) * t ** (k / 2.0)
        exhaustive_all = exhaustive_all and got.exhaustive
        worst_gap = max(worst_gap, float(got) - bound)
        assert float(got) <= bound + 1e-6, (i, n, k, t, float(got), bound)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and worst_gap <= 1e-6 and exhaustive_all and elapsed < 300.0
    _line(7, ok, "sparse search stays below the entrywise bound",
          f"{checked} tensors, worst value minus bound {worst_gap:.2e}, all "
          f"support searches exhaustive = {exhaustive_all}, {elapsed:.1f}s")
    assert checked == 200
    assert exhaustive_all
    assert elapsed < 300.0


def test_parity_counts_match_direct_record_counting():
    started = time.perf_counter()
    rng = np.random.default_rng(80808)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 21))
        k = int(rng.integers(1, 4))
        records = (rng.random((m, n)) < 0.5).astype(float)
        counts = None
        if rng.random() < 0.5:
            counts = rng.integers(1, 4, size=m)
        data = BinaryDataset(records, counts=counts)
        tensor = parity_tensor(data, k)
        brute = np.zeros((n,) * k)
        for idx in np.ndindex(*((n,) * k)):
            total = 0
            for r in range(m):
                if all(records[r, j] == 1.0 for j in idx):
                    total += int(data.counts[r])
            brute[idx] = float(total)
        assert np.array_equal(tensor, brute), (n, m, k)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 100 and elapsed < 60.0
    _line(8, ok, "parity counts match direct record counting",
          f"{checked} datasets, exact integer agreement on every entry, "
          f"{elapsed:.1f}s")
    assert checked == 100
    assert elapsed < 60.0


def test_one_sparse_threshold_release_pulls_ahead_as_features_grow():
    started = time.perf_counter()
    params = PrivacyParams(1.0, 1e-6)
    m = 50
    seeds = 50
    medians = []
    ratio_at_largest = None
    for n in (16, 32, 64):
        t_errs = np.empty(seeds)
        g_errs = np.empty(seeds)
        for s in range(seeds):
            data_rng = RandomStream(9000 + s).shifted(n).generator()
            rows = np.zeros((m, n))
            rows[np.arange(m), data_rng.integers(0, n, size=m)] = 1.0
            data = BinaryDataset(rows, sparsity=1)
            truth = parity_tensor(data, 2)
            noise = RandomStream(9500 + s).shifted(n)
            thresh = release_threshold_baseline(data, 2, params, noise)
            plain = release_gaussian_only(data, 2, params, noise)
            t_errs[s] = avg_query_sq_error(thresh, truth)
            g_errs[s] = avg_query_sq_error(plain, truth)
        medians.append(float(np.median(t_errs)))
        if n == 64:
            ratio_at_largest = float(np.median(g_errs / t_errs))
    elapsed = time.perf_counter() - started
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and ratio_at_largest >= 5.0 and elapsed < 300.0
    _line(9, ok, "thresholded sparse release pulls ahead as features grow",
          f"median errors {medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f} "
          f"= {decreasing}, median paired advantage at n=64 is "
          f"{ratio_at_largest:.1f}x (need >= 5x), {elapsed:.1f}s")
    assert decreasing
    assert ratio_at_largest >= 5.0
    assert elapsed < 300.0


def test_cli_outputs_are_byte_identical_across_threads_and_reruns(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(101010)
    g = rng.standard_normal((6, 4))
    vectors = tmp_path / "vectors.csv"
    np.savetxt(vectors, g / np.linalg.norm(g, axis=1, keepdims=True),
               delimiter=",", fmt="%.17g")
    dataset = tmp_path / "dataset.csv"
    np.savetxt(dataset, (rng.random((10, 5)) < 0.5).astype(int),
               delimiter=",", fmt="%d")

    invocations = [
        ("similarity", ["similarity", "--input", str(vectors), "--epsilon", "1",
                        "--delta", "1e-6", "--seed", "11", "--mode", "exact",
                        "--out", "{d}/sim.csv"],
         ["sim.csv", "sim.json"]),
        ("marginals-even", ["marginals", "--input", str(dataset), "--epsilon", "1",
                            "--delta", "1e-6", "--order", "2", "--mode",
                            "even-flatten", "--seed", "12", "--out", "{d}/even.bin"],
         ["even.bin", "even.json"]),
        ("marginals-gaussian", ["marginals", "--input", str(dataset), "--epsilon",
                                "1", "--delta", "1e-6", "--order", "2", "--mode",
                                "gaussian", "--seed", "13", "--out", "{d}/plain.bin"],
         ["plain.bin", "plain.json"]),
        ("cosine-scaling", ["bench", "cosine-scaling", "--sizes", "4,8",
                            "--trials", "2", "--seed", "14", "--out", "{d}/cs.json",
                            "--per-trial-csv", "{d}/cs_trials.csv"],
         ["cs.json", "cs_trials.csv"]),
        ("marginal-scaling", ["bench", "marginal-scaling", "--sizes", "4,8",
                              "--order", "2", "--m", "10", "--trials", "2",
                              "--sparsity", "1", "--seed", "15",
                              "--out", "{d}/ms.json"],
         ["ms.json"]),
        ("stability", ["bench", "stability", "--n", "4", "--trials", "500",
                       "--seed", "16", "--out", "{d}/st.json"],
         ["st.json"]),
        ("complexity", ["bench", "complexity", "--set", "psd-trace", "--ambient",
                        "matrix", "--n", "6", "--trials", "300", "--seed", "17",
                        "--out", "{d}/cx.json"],
         ["cx.json"]),
    ]

    # BLAS and OpenMP thread counts are read once, at numpy's import in each
    # process; each subprocess imports the package these tests imported
    source = str(Path(perturbproj.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    runs = (("threads1", "1"), ("threads4", "4"), ("rerun1", "1"))
    compared = 0
    for name, args, artifacts in invocations:
        blobs = {}
        for run_name, threads in runs:
            outdir = tmp_path / f"{name}-{run_name}"
            outdir.mkdir()
            argv = [arg.replace("{d}", str(outdir)) for arg in args]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "perturbproj.cli", *argv],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (name, run_name, proc.stderr)
            blobs[run_name] = [(outdir / f).read_bytes() for f in artifacts]
        for run_name, _ in runs[1:]:
            assert blobs[run_name] == blobs["threads1"], (name, run_name)
            compared += len(artifacts)
    elapsed = time.perf_counter() - started
    ok = compared == 22 and elapsed < 120.0
    _line(10, ok, "command-line outputs are byte-identical across thread "
          "counts and reruns",
          f"{len(invocations)} invocations x 3 runs, {compared} artifact "
          f"comparisons all byte-equal, {elapsed:.1f}s")
    assert compared == 22
    assert elapsed < 120.0
