import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import perturbproj.cli as cli
from perturbproj.marginals import load_tensor, read_dataset_csv, release_gaussian_only
from perturbproj.mechanism import PrivacyParams, RandomStream, audit_record, calibrate_sigma
from perturbproj.projections import EigenFailure


@pytest.fixture
def vectors_csv(tmp_path):
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 5))
    path = tmp_path / "v.csv"
    np.savetxt(path, g / np.linalg.norm(g, axis=1, keepdims=True), delimiter=",", fmt="%.17g")
    return path


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "d.csv"
    np.savetxt(path, (rng.random((12, 4)) < 0.5).astype(int), delimiter=",", fmt="%d")
    return path


def test_similarity_happy_path(tmp_path, vectors_csv):
    out = tmp_path / "x.csv"
    code = cli.main([
        "similarity", "--input", str(vectors_csv), "--epsilon", "1", "--delta", "1e-6",
        "--sensitivity", "1", "--mode", "practical",
        "--seed", "7", "--out", str(out)])
    assert code == 0
    matrix = np.loadtxt(out, delimiter=",")
    assert matrix.shape == (8, 8)
    meta = json.loads(out.with_suffix(".json").read_text())
    for key in ("epsilon", "delta", "sensitivity", "sigma", "seed", "method"):
        assert key in meta
    assert meta["method"] == "PRACTICAL"
    assert meta["sigma"] == pytest.approx(5.386772268905419, rel=1e-12)
    assert meta["solver"] == "shrink-then-clip"
    assert meta["residuals"] == [0.0, 0.0]
    assert "iterations" not in meta and "kkt_residual" not in meta


def test_similarity_rerun_is_byte_identical(tmp_path, vectors_csv):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                         "--delta", "1e-6", "--seed", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()


def test_similarity_exact_sidecar_records_solver_facts(tmp_path, vectors_csv):
    out = tmp_path / "x.csv"
    assert cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--seed", "3", "--out", str(out)]) == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["method"] == "EXACT_SET"
    assert meta["solver"] == "dual-newton"
    assert isinstance(meta["iterations"], int) and meta["iterations"] >= 1
    assert 0.0 <= meta["kkt_residual"] <= 1e-12 * 100
    assert "wall_time_s" not in meta


@pytest.mark.parametrize("mode", ["exact", "practical"])
def test_similarity_exact_rejects_iters(tmp_path, vectors_csv, capsys, mode):
    out = tmp_path / "x.csv"
    code = cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", mode, "--iters", "40",
                     "--out", str(out)])
    assert code == 2
    assert "--iters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,source,message", [
    (["similarity", "--out", "{tmp}/sim.json"], "in.csv",
     "--out and the .json sidecar of --out name the same file"),
    (["similarity", "--out", "{tmp}/in.csv"], "in.csv", "--input and --out name the same file"),
    (["marginals", "--out", "{tmp}/marg.json"], "in.csv",
     "--out and the .json sidecar of --out name the same file"),
    (["marginals", "--out", "{tmp}/./in.csv"], "in.csv", "--input and --out name the same file"),
    (["marginals", "--out", "{tmp}/in.bin"], "in.json",
     "--input and the .json sidecar of --out name the same file"),
    (["bench", "cosine-scaling", "--sizes", "4,8", "--trials", "3", "--out", "{tmp}/rep.json",
      "--per-trial-csv", "{tmp}/./rep.json"], None,
     "--out and --per-trial-csv name the same file"),
], ids=["similarity-sidecar", "similarity-input", "marginals-sidecar", "marginals-input",
        "marginals-input-is-sidecar", "bench-per-trial-csv"])
def test_files_that_would_overwrite_each_other_are_refused(tmp_path, capsys, argv, source,
                                                            message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if source is not None:
        # a valid input of either kind: unit rows of 0/1
        (tmp_path / source).write_text("1,0\n0,1\n")
        argv += ["--input", str(tmp_path / source), "--epsilon", "1", "--delta", "1e-6"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if source is None else [source])
    if source is not None:
        assert (tmp_path / source).read_text() == "1,0\n0,1\n"


def test_similarity_bad_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    # a finite row whose norm overflows float64 is refused as any other, without a warning
    for text, message in [("1,0\n0.5,0\n", "error: line 2: row norm 0.5 not within 1e-06 of 1"),
                          ("1e200,0\n0,1\n", "error: line 1: row norm inf not within 1e-06 of 1")]:
        path.write_text(text)
        code = cli.main(["similarity", "--input", str(path), "--epsilon", "1",
                         "--delta", "1e-6", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


@pytest.mark.parametrize("argv", [
    ["similarity", "--mode", "practical", "--input", "{v}", "--out", "{d}/x.csv"],
    ["similarity", "--mode", "exact", "--input", "{v}", "--out", "{d}/x.csv"],
    ["marginals", "--input", "{m}", "--out", "{d}/x.bin"],
    ["bench", "cosine-scaling", "--sizes", "4,8", "--trials", "3", "--out", "{d}/x.json"],
], ids=["practical", "exact", "marginals", "bench"])
def test_infinite_epsilon_exits_2_before_writing(tmp_path, vectors_csv, dataset_csv, argv):
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = [a.format(v=vectors_csv, m=dataset_csv, d=outdir) for a in argv]
    assert cli.main([*argv, "--epsilon", "inf", "--delta", "1e-6", "--seed", "1"]) == 2
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("mode", ["exact", "practical"])
def test_sigma_that_underflows_to_0_exits_2_before_writing(tmp_path, capsys, vectors_csv, mode):
    # sigma = 1e-300 * sqrt(2 ln(2e6)) / 1e300 is 0.0 in float64: a release with no noise
    out = tmp_path / "x.csv"
    code = cli.main(["similarity", "--input", str(vectors_csv), "--mode", mode,
                     "--epsilon", "1e300", "--sensitivity", "1e-300", "--delta", "1e-6",
                     "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "error: sigma must be finite and positive, got 0.0" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("mode", ["exact", "practical"])
def test_cosine_size_guard_exits_2_before_the_gram_matrix(tmp_path, capsys, mode):
    # 12 000 vectors: one n x n float64 matrix alone is 1.1 GB
    g = np.random.default_rng(2).standard_normal((12_000, 2))
    path = tmp_path / "big.csv"
    np.savetxt(path, g / np.linalg.norm(g, axis=1, keepdims=True), delimiter=",", fmt="%.17g")
    out = tmp_path / "x.csv"
    code = cli.main(["similarity", "--input", str(path), "--epsilon", "1", "--delta", "1e-6",
                     "--mode", mode, "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "size guard" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()
    vectors = cli.read_vectors_csv(path)
    release = cli.release_cosine_exact if mode == "exact" else cli.release_cosine_practical
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size guard"):
            release(vectors, PrivacyParams(1.0, 1e-6), 1.0, RandomStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("flags", [
    ["--epsilon", "0", "--delta", "1e-6"],
    ["--epsilon", "-2", "--delta", "1e-6"],
    ["--epsilon", "1", "--delta", "1"],
    ["--epsilon", "1", "--delta", "0"],
])
def test_privacy_flags_rejected_before_reading_input(tmp_path, flags):
    # the input path does not exist: validation must fail first
    code = cli.main(["similarity", "--input", str(tmp_path / "missing.csv"),
                     *flags, "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("command,flags,message", [
    ("similarity", ["--sensitivity", "inf"], "sensitivity must be finite and positive, got inf"),
    ("similarity", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("marginals", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("marginals", ["--order", "0"], "--order must be an integer >= 1, got 0"),
    ("marginals", ["--mode", "gaussian", "--sparsity", "0"],
     "--sparsity must be an integer >= 1, got 0"),
], ids=["similarity-infinite-sensitivity", "similarity-negative-seed", "marginals-negative-seed",
        "marginals-order-0", "marginals-sparsity-0"])
def test_privacy_record_flags_refused_before_reading_input(tmp_path, capsys, command, flags,
                                                           message):
    code = cli.main([command, "--input", str(tmp_path / "missing.csv"), "--epsilon", "1",
                     "--delta", "1e-6", *flags, "--out", str(tmp_path / "x.out")])
    assert code == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_both_release_families_publish_the_same_audit_record(tmp_path, vectors_csv,
                                                             dataset_csv):
    flags = ["--epsilon", "2", "--delta", "1e-5", "--seed", "7"]
    sim_out, mar_out = tmp_path / "sim.csv", tmp_path / "mar.bin"
    assert cli.main(["similarity", "--input", str(vectors_csv), "--sensitivity", "3",
                     *flags, "--out", str(sim_out)]) == 0
    assert cli.main(["marginals", "--input", str(dataset_csv), "--mode", "gaussian",
                     *flags, "--out", str(mar_out)]) == 0
    sim_params = PrivacyParams(2.0, 1e-5)
    marginal = release_gaussian_only(read_dataset_csv(dataset_csv), 2,
                                     PrivacyParams(2.0, 1e-5), RandomStream(7))
    expected = [
        (sim_out, audit_record(sim_params, 3.0, calibrate_sigma(sim_params, 3.0),
                               RandomStream(7), "EXACT_SET")),
        (mar_out, marginal.record),
    ]
    for out, record in expected:
        meta = json.loads(out.with_suffix(".json").read_text())
        assert {key: meta[key] for key in record} == record
    assert expected[0][1]["sigma"] != expected[1][1]["sigma"]


SIMILARITY_KEYS = {"delta", "epsilon", "method", "residuals", "seed", "sensitivity", "sigma",
                   "solver"}
MARGINAL_KEYS = {"delta", "epsilon", "method", "order", "scale", "seed", "sensitivity", "side",
                 "sigma", "stream_index"}


@pytest.mark.parametrize("command,flags,keys", [
    ("similarity", ["--mode", "exact"], SIMILARITY_KEYS | {"iterations", "kkt_residual"}),
    ("similarity", ["--mode", "practical"], SIMILARITY_KEYS),
    ("marginals", ["--mode", "threshold", "--sparsity", "4"], MARGINAL_KEYS),
    ("marginals", ["--mode", "gaussian"], MARGINAL_KEYS),
    ("marginals", ["--mode", "even-flatten"], MARGINAL_KEYS),
])
def test_every_release_sidecar_has_exactly_its_keys(tmp_path, vectors_csv, dataset_csv, command,
                                                    flags, keys):
    data = vectors_csv if command == "similarity" else dataset_csv
    out = tmp_path / "release.out"
    assert cli.main([command, "--input", str(data), "--epsilon", "1", "--delta", "1e-6",
                     *flags, "--out", str(out)]) == 0
    assert set(json.loads(out.with_suffix(".json").read_text())) == keys


def test_similarity_missing_input_is_validation_error(tmp_path):
    code = cli.main(["similarity", "--input", str(tmp_path / "nope.csv"),
                     "--epsilon", "1", "--delta", "1e-6", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, vectors_csv, monkeypatch):
    def boom(*args, **kwargs):
        raise EigenFailure("eigensolver did not converge")

    monkeypatch.setattr(cli, "release_cosine_exact", boom)
    code = cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--out", str(tmp_path / "x.csv")])
    assert code == 3

    def boom2(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(cli, "release_cosine_exact", boom2)
    code = cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_similarity_non_finite_sidecar_value_exits_2_before_writing(tmp_path, vectors_csv,
                                                                     monkeypatch):
    real = cli.release_cosine_exact

    def non_finite_sigma(*args, **kwargs):
        release = real(*args, **kwargs)
        release.record["sigma"] = float("inf")
        return release

    monkeypatch.setattr(cli, "release_cosine_exact", non_finite_sigma)
    out = tmp_path / "x.csv"
    assert cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--out", str(out)]) == 2
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_marginals_zero_noise_two_record_example(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("1,0\n1,1\n")
    out = tmp_path / "t.bin"
    code = cli.main(["marginals", "--input", str(path), "--epsilon", "1e12",
                     "--delta", "1e-6", "--order", "2", "--mode", "even-flatten",
                     "--out", str(out)])
    assert code == 0
    tensor = np.frombuffer(out.read_bytes(), dtype="<f8").reshape(2, 2)
    assert np.allclose(tensor, np.array([[2.0, 1.0], [1.0, 1.0]]), atol=1e-5)
    meta = json.loads(out.with_suffix(".json").read_text())
    for key in ("order", "side", "scale", "method", "epsilon", "delta", "seed"):
        assert key in meta


@pytest.mark.parametrize("argv", [
    ["similarity", "--mode", "practical", "--epsilon", "1e300", "--sensitivity", "1e-5"],
    ["marginals", "--mode", "gaussian", "--epsilon", "1e300", "--order", "2"],
])
def test_noise_too_small_to_change_the_statistic_is_refused(tmp_path, vectors_csv, dataset_csv,
                                                            capsys, argv):
    # sigma is about 5e-305 and 9e-299: adding the noise left the statistic
    # bit for bit unchanged
    source = vectors_csv if argv[0] == "similarity" else dataset_csv
    out = tmp_path / "r.out"
    code = cli.main(argv + ["--input", str(source), "--delta", "1e-6", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.match(r"error: noise of scale sigma=\S+ is below the float64 resolution of a "
                    r"statistic with entries up to", err)
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_marginals_even_flatten_at_an_epsilon_of_1e_minus_17_exits_0(tmp_path):
    # sigma is near 1e17 here, so the psd trace projection's simplex step sees
    # eigenvalues past 2^53 times its budget
    path = tmp_path / "coins.csv"
    rows = np.random.default_rng(3).random((300, 10)) < 0.5
    np.savetxt(path, rows.astype(int), delimiter=",", fmt="%d")
    out = tmp_path / "t.bin"
    assert cli.main(["marginals", "--input", str(path), "--epsilon", "1e-17", "--delta", "1e-6",
                     "--order", "2", "--mode", "even-flatten", "--out", str(out)]) == 0
    tensor, _ = load_tensor(out)
    # the noise dwarfs the statistic, so the trace cap m * n^(k/2) is reached
    assert np.trace(tensor) == pytest.approx(300 * 10, rel=1e-12)


@pytest.mark.parametrize("mode", ["even-flatten", "gaussian"])
def test_marginals_noise_that_overflows_in_counts_exits_2(tmp_path, capsys, mode):
    # both releases noise T in counts at sensitivity 2 n^{k/2} = 24: sigma is about 1.3e308
    path = tmp_path / "records.csv"
    rows = np.random.default_rng(4).random((300, 12)) < 0.3
    np.savetxt(path, rows.astype(int), delimiter=",", fmt="%d")
    out = tmp_path / "t.bin"
    assert cli.main(["marginals", "--input", str(path), "--epsilon", "1e-306", "--delta", "1e-6",
                     "--order", "2", "--mode", mode, "--out", str(out)]) == 2
    assert re.fullmatch(r"error: noise of scale sigma=1\.29283e\+308 overflows float64\n",
                        capsys.readouterr().err)
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_marginals_odd_order_even_flatten_exits_2(dataset_csv, tmp_path, capsys):
    code = cli.main(["marginals", "--input", str(dataset_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--order", "3", "--mode", "even-flatten",
                     "--out", str(tmp_path / "t.bin")])
    assert code == 2
    assert "even" in capsys.readouterr().err


def test_marginals_threshold_needs_sparsity(dataset_csv, tmp_path):
    code = cli.main(["marginals", "--input", str(dataset_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "threshold",
                     "--out", str(tmp_path / "t.bin")])
    assert code == 2


def test_marginals_sparsity_violation_exits_2(dataset_csv, tmp_path, capsys):
    code = cli.main(["marginals", "--input", str(dataset_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "threshold", "--sparsity", "1",
                     "--out", str(tmp_path / "t.bin")])
    assert code == 2
    assert "sparsity" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["inf", "nan"])
def test_marginals_non_finite_count_names_line(tmp_path, capsys, count):
    path = tmp_path / "c.csv"
    path.write_text(f"1,0,2\n0,1,{count}\n")
    out = tmp_path / "t.bin"
    code = cli.main(["marginals", "--input", str(path), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "gaussian", "--count-column",
                     "--out", str(out)])
    assert code == 2
    assert "line 2: count must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows,line", [
    (["1,0,1e19"], 1),
    (["1,0,2", f"0,1,{2**52 + 1}", f"1,1,{2**52 + 1}"], 3),
], ids=["1e19", "two-halves"])
def test_marginals_count_total_above_2_pow_53_names_line(tmp_path, capsys, rows, line):
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "t.bin"
    code = cli.main(["marginals", "--input", str(path), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "gaussian", "--count-column",
                     "--out", str(out)])
    assert code == 2
    assert f"line {line}: counts add up to more than 2^53" in capsys.readouterr().err
    assert not out.exists()


def test_marginals_count_of_2_pow_53_is_accepted(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(f"1,0,{2**53}\n")
    out = tmp_path / "t.bin"
    code = cli.main(["marginals", "--input", str(path), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "gaussian", "--count-column",
                     "--order", "1", "--seed", "1", "--out", str(out)])
    assert code == 0 and out.exists()


def test_practical_release_at_huge_sensitivity_is_not_all_zero(tmp_path, vectors_csv):
    # the noise's sum of squares overflows float64; the shrink must still
    # leave entries of order 1 for the clip
    out = tmp_path / "x.csv"
    code = cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "practical", "--sensitivity", "1e300",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    matrix = np.loadtxt(out, delimiter=",")
    assert np.max(np.abs(matrix)) == 1.0
    assert np.count_nonzero(matrix) > 0


@pytest.mark.parametrize("argv", [
    ["marginals", "--mode", "gaussian", "--epsilon", "1e-320"],
    ["marginals", "--mode", "threshold", "--sparsity", "4", "--epsilon", "1e-320"],
    ["marginals", "--mode", "even-flatten", "--epsilon", "1e-320"],
    ["similarity", "--mode", "practical", "--epsilon", "1", "--sensitivity", "1e308"],
    ["similarity", "--mode", "exact", "--epsilon", "1", "--sensitivity", "1e308"],
], ids=["gaussian", "threshold", "even-flatten", "practical", "exact"])
def test_infinite_noise_exits_2_before_writing(tmp_path, vectors_csv, dataset_csv, argv):
    source = vectors_csv if argv[0] == "similarity" else dataset_csv
    out = tmp_path / "out.bin"
    code = cli.main([*argv, "--input", str(source), "--delta", "1e-6", "--seed", "1",
                     "--out", str(out)])
    assert code == 2
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_marginals_gaussian_mode(dataset_csv, tmp_path):
    out = tmp_path / "g.bin"
    code = cli.main(["marginals", "--input", str(dataset_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "gaussian", "--seed", "5",
                     "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["method"] == "GAUSSIAN_ONLY"


def test_bench_stability_reports_bound(tmp_path):
    out = tmp_path / "st.json"
    code = cli.main(["bench", "stability", "--n", "4", "--trials", "500",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "stability"
    assert payload["within_bound"] is True
    assert payload["wall_time_s"] is None
    assert payload["estimate"] <= payload["stability_bound"] + 3 * payload["std_error"]


def test_bench_cosine_scaling(tmp_path):
    out = tmp_path / "cs.json"
    per = tmp_path / "per.csv"
    code = cli.main(["bench", "cosine-scaling", "--sizes", "4,8", "--trials", "3",
                     "--seed", "1", "--out", str(out), "--per-trial-csv", str(per)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fitted_exponent"] is not None
    assert payload["wall_time_s"] is None
    lines = per.read_text().splitlines()
    assert lines[0] == "n,trial,method,error"
    assert len(lines) == 1 + 2 * 2 * 3


@pytest.mark.parametrize("set_,bound,old_flag", [
    ("box", "2", None), ("frobenius", "50", "--radius"), ("psd-trace", "3", "--trace"),
], ids=["box", "frobenius", "psd-trace"])
def test_bench_complexity_scales_with_bound_alone(tmp_path, capsys, set_, bound, old_flag):
    argv = ["bench", "complexity", "--set", set_, "--n", "4", "--trials", "20", "--seed", "3"]
    reports = []
    for value in ("1", bound):
        out = tmp_path / f"c{value}.json"
        assert cli.main([*argv, "--bound", value, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    unit, scaled = reports
    assert scaled["value"] == pytest.approx(float(bound) * unit["value"], rel=1e-12)
    if set_ == "box":
        assert scaled["closed_form"] == pytest.approx(float(bound) * unit["closed_form"],
                                                      rel=1e-12)
    else:  # --bound is the only size flag; a per-set one is refused before anything is written
        assert cli.main([*argv, old_flag, bound, "--out", str(tmp_path / "old.json")]) == 2
        assert f"unrecognized arguments: {old_flag}" in capsys.readouterr().err
        assert not (tmp_path / "old.json").exists()


def test_bench_unknown_experiment_exits_2(capsys):
    assert cli.main(["bench", "nonsense"]) == 2
    capsys.readouterr()


def test_bench_stdout_when_no_out(capsys):
    code = cli.main(["bench", "complexity", "--set", "box", "--ambient", "vector",
                     "--n", "4", "--trials", "200", "--seed", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form"] == pytest.approx(complexity_closed(4), rel=1e-12)


def complexity_closed(n):
    from perturbproj.bench import complexity_box_closed_form

    return complexity_box_closed_form(n)


def test_complexity_is_only_a_bench_experiment(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert cli.main(["complexity", "--set", "frobenius", "--n", "4",
                     "--trials", "300", "--seed", "2", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("experiment", [
    ["cosine-scaling", "--sizes", "4,8"],
    ["marginal-scaling", "--sizes", "4,8", "--sparsity", "1"],
    ["stability"],
    ["complexity"],
], ids=lambda argv: argv[0])
def test_bench_refuses_nonpositive_sensitivity(tmp_path, capsys, experiment):
    out = tmp_path / "b.json"
    assert cli.main(["bench", *experiment, "--trials", "3", "--sensitivity", "0",
                     "--out", str(out)]) == 2
    assert not out.exists()
    if experiment[0] != "cosine-scaling":  # the only experiment that reads it
        assert "unrecognized arguments: --sensitivity" in capsys.readouterr().err


# a valid value for each flag that some bench experiment reads
BENCH_FLAGS = {
    "--trials": "3", "--seed": "1", "--out": "o.json", "--sizes": "4,8",
    "--per-trial-csv": "p.csv", "--epsilon": "1", "--delta": "1e-6", "--sensitivity": "1",
    "--order": "2", "--m": "10", "--sparsity": "1", "--n": "3", "--ambient": "vector",
    "--bound": "1", "--set": "box",
}
BENCH_COMMON = ["--trials", "--seed", "--out"]
BENCH_ROWS = {
    "cosine-scaling": BENCH_COMMON + ["--sizes", "--per-trial-csv", "--epsilon", "--delta",
                                      "--sensitivity"],
    "marginal-scaling": BENCH_COMMON + ["--sizes", "--per-trial-csv", "--epsilon", "--delta",
                                        "--order", "--m", "--sparsity"],
    "stability": BENCH_COMMON + ["--n", "--ambient", "--bound"],
    "complexity": BENCH_COMMON + ["--n", "--ambient", "--set", "--bound"],
}


@pytest.mark.parametrize("experiment", sorted(BENCH_ROWS))
def test_bench_experiment_accepts_only_its_own_flags(tmp_path, capsys, experiment):
    row = BENCH_ROWS[experiment]
    assert cli.main(["bench", experiment, "--help"]) == 0
    listed = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
    assert listed == set(row)  # argparse's own "-h, --help" line starts with -h
    required = ["--sizes", "4,8"] if "--sizes" in row else []
    out = tmp_path / "b.json"
    for flag in sorted(set(BENCH_FLAGS) - set(row)):
        argv = ["bench", experiment, *required, "--trials", "3", flag, BENCH_FLAGS[flag],
                "--out", str(out)]
        assert cli.main(argv) == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_abbreviated_flags_are_refused(tmp_path, vectors_csv, capsys):
    out = tmp_path / "o.csv"
    full = ["similarity", "--input", str(vectors_csv), "--epsilon", "1", "--delta", "1e-6",
            "--out", str(out)]
    for i, flag in [(1, "--inp"), (3, "--eps"), (5, "--del"), (7, "--ou")]:
        argv = full[:i] + [flag] + full[i + 1:]
        assert cli.main(argv) == 2, flag
        assert not out.exists() and not out.with_suffix(".json").exists()
    assert cli.main(["bench", "stability", "--tri", "3", "--out", str(tmp_path / "b.json")]) == 2
    assert "--tri" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.csv"]


@pytest.mark.parametrize("argv,message", [
    (["stability", "--bound", "inf"], "bound must be finite and positive, got inf"),
    (["complexity", "--bound", "inf"], "bound must be finite and positive, got inf"),
    (["complexity", "--set", "frobenius", "--bound", "inf"],
     "radius must be finite and positive, got inf"),
    (["complexity", "--set", "psd-trace", "--bound", "nan"],
     "trace_bound must be finite and positive, got nan"),
    # finite scales whose closed-form bound or sampled suprema overflow to inf
    (["stability", "--bound", "1e308"],
     "bound 1e+308 makes the stability bound overflow float64"),
    (["complexity", "--bound", "1e308"], "a trial's supremum overflows float64"),
    (["complexity", "--set", "frobenius", "--bound", "1e308"],
     "a trial's supremum overflows float64"),
], ids=["stability-inf", "complexity-box-inf", "complexity-frobenius-inf",
        "complexity-psd-trace-nan", "stability-bound-overflows", "complexity-box-overflows",
        "complexity-frobenius-overflows"])
def test_bench_non_finite_values_exit_2_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "b.json"
    assert cli.main(["bench", *argv, "--n", "3", "--trials", "3", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    # finite trials whose spread squares past float64
    (["complexity", "--set", "box", "--ambient", "vector", "--n", "4", "--trials", "5",
      "--bound", "1e200"], "the mean or standard error of the trials overflows float64"),
    (["marginal-scaling", "--sizes", "4,8", "--m", "20", "--trials", "2", "--epsilon", "1e-150",
      "--per-trial-csv", "{d}/p.csv"],
     "the mean or standard error of the trials overflows float64"),
    # a trial's squared error itself overflows: an inf error, refused by the same check
    (["marginal-scaling", "--sizes", "4,8", "--m", "20", "--trials", "2", "--epsilon", "1e-160",
      "--seed", "9"], "the mean or standard error of the trials overflows float64"),
    # the side is checked before the size guard and before any array is allocated
    (["stability", "--n", "-5", "--trials", "3"], "n must be an integer >= 1, got -5"),
    (["complexity", "--n", "-3", "--ambient", "vector", "--trials", "3"],
     "n must be an integer >= 1, got -3"),
], ids=["complexity-std-error-overflows", "marginal-scaling-std-error-overflows",
        "marginal-scaling-squared-error-overflows", "stability-negative-n",
        "complexity-negative-n"])
def test_bench_refusal_prints_one_error_line_and_writes_nothing(tmp_path, capsys, argv, message):
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["bench", *argv, "--out", str(tmp_path / "b.json")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


BENCH_REPORT_KEYS = {
    "cosine-scaling": "baseline_exponent baseline_fit_r2 config experiment fit_r2 "
                      "fitted_exponent points seed wall_time_s",
    "marginal-scaling": "config experiment fit_r2 fitted_exponent gaussian_exponent "
                        "gaussian_fit_r2 points seed wall_time_s",
    "stability": "ambient estimate experiment n seed set_kind stability_bound std_error "
                 "trials wall_time_s within_bound",
    "complexity": "ambient closed_form experiment n seed set_kind std_error trials value "
                  "wall_time_s",
}


@pytest.mark.parametrize("argv,extra", [
    (["cosine-scaling", "--sizes", "4,8"], ""),
    (["marginal-scaling", "--sizes", "4,8", "--m", "20"], ""),
    (["marginal-scaling", "--sizes", "4,8", "--m", "20", "--sparsity", "1"],
     "threshold_exponent threshold_fit_r2"),
    (["stability", "--n", "3"], ""),
    (["complexity", "--n", "3"], ""),
], ids=["cosine-scaling", "marginal-scaling", "marginal-scaling-sparsity", "stability",
        "complexity"])
def test_every_bench_report_has_exactly_its_keys(tmp_path, argv, extra):
    out = tmp_path / "b.json"
    assert cli.main(["bench", *argv, "--trials", "3", "--seed", "9", "--out", str(out)]) == 0
    keys = set(BENCH_REPORT_KEYS[argv[0]].split()) | set(extra.split())
    assert set(json.loads(out.read_text())) == keys


@pytest.mark.parametrize("argv", [
    ["stability", "--ambient", "matrix"],
    ["complexity", "--set", "box"],
    ["complexity", "--set", "frobenius"],
    ["complexity", "--set", "psd-trace"],
], ids=["stability", "complexity-box", "complexity-frobenius", "complexity-psd-trace"])
def test_bench_size_guard_exits_2_before_any_trial_array(tmp_path, capsys, monkeypatch, argv):
    # 10^5 x 10^5 float64 is 74.5 GiB: the experiments must never be reached
    def unreachable(*args, **kwargs):
        raise AssertionError("the trial ran past the size guard")

    monkeypatch.setattr(cli, "stability_experiment", unreachable)
    monkeypatch.setattr(cli, "complexity_monte_carlo", unreachable)
    out = tmp_path / "b.json"
    assert cli.main(["bench", *argv, "--n", "100000", "--trials", "2", "--out", str(out)]) == 2
    assert "size guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_deterministic_across_thread_env(tmp_path):
    # BLAS thread counts are varied across processes by acceptance check 10;
    # in one process this is a rerun check
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"r{run}.json"
        assert cli.main(["bench", "marginal-scaling", "--sizes", "4,8", "--order", "2",
                         "--m", "20", "--trials", "3", "--seed", "9",
                         "--sparsity", "1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reused_parser_matches_a_fresh_one(tmp_path, vectors_csv, dataset_csv, capsys):
    privacy = ["--epsilon", "1", "--delta", "1e-6", "--seed", "3"]
    commands = [
        ["similarity", "--input", str(vectors_csv), *privacy, "--out", "{d}/s.csv"],
        ["marginals", "--input", str(dataset_csv), *privacy, "--out", "{d}/m.bin"],
        ["bench", "stability", "--n", "3", "--trials", "20", "--seed", "1",
         "--out", "{d}/b.json"],
        ["similarity", "--epsilon", "1"],
        ["marginals", "--help"],
    ]
    seen = {}
    for run in ("fresh", "reused"):
        outdir = tmp_path / run
        outdir.mkdir()
        codes = []
        for argv in commands:
            if run == "fresh":
                cli._build_parser.cache_clear()
            codes.append(cli.main([arg.replace("{d}", str(outdir)) for arg in argv]))
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        seen[run] = (codes, files, capsys.readouterr().out)
    assert seen["fresh"][0] == [0, 0, 0, 2, 0]
    assert len(seen["fresh"][1]) == 5 and "--count-column" in seen["fresh"][2]
    assert seen["reused"] == seen["fresh"]


@pytest.mark.parametrize("sizes,message", [
    ("4,x", "--sizes must be comma-separated integers, got '4,x'"),
    (",", "--sizes must name at least one size"),
])
def test_bench_refuses_sizes_that_name_no_integer_list(tmp_path, capsys, sizes, message):
    out = tmp_path / "cs.json"
    assert cli.main(["bench", "cosine-scaling", "--sizes", sizes, "--trials", "3",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_marginal_scaling_refuses_sparsity_above_the_smallest_size(tmp_path, capsys):
    # each record draws `sparsity` distinct features, so no size may be smaller
    out, per = tmp_path / "ms.json", tmp_path / "per.csv"
    argv = ["bench", "marginal-scaling", "--sizes", "4,8", "--order", "2", "--m", "20",
            "--trials", "2", "--out", str(out), "--per-trial-csv", str(per)]
    assert cli.main([*argv, "--sparsity", "6"]) == 2
    assert "sparsity must lie in [1, 4], the smallest size, got 6" in capsys.readouterr().err
    assert not out.exists() and not per.exists()
    assert cli.main([*argv, "--sparsity", "4"]) == 0
    assert json.loads(out.read_text())["config"]["sparsity"] == 4
