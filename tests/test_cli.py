import json

import numpy as np
import pytest

import perturbproj.cli as cli
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
        "--sensitivity", "1", "--mode", "practical", "--iters", "40",
        "--seed", "7", "--out", str(out)])
    assert code == 0
    matrix = np.loadtxt(out, delimiter=",")
    assert matrix.shape == (8, 8)
    meta = json.loads(out.with_suffix(".json").read_text())
    for key in ("epsilon", "delta", "sensitivity", "sigma", "seed", "method"):
        assert key in meta
    assert meta["method"] == "PRACTICAL"
    assert meta["sigma"] == pytest.approx(5.386772268905419, rel=1e-12)


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


def test_similarity_exact_rejects_iters(tmp_path, vectors_csv, capsys):
    out = tmp_path / "x.csv"
    code = cli.main(["similarity", "--input", str(vectors_csv), "--epsilon", "1",
                     "--delta", "1e-6", "--mode", "exact", "--iters", "40",
                     "--out", str(out)])
    assert code == 2
    assert "--iters" in capsys.readouterr().err
    assert not out.exists()


def test_similarity_bad_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0.5,0\n")
    code = cli.main(["similarity", "--input", str(path), "--epsilon", "1",
                     "--delta", "1e-6", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


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


def test_marginals_zero_noise_two_record_example(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("1,0\n1,1\n")
    out = tmp_path / "t.bin"
    code = cli.main(["marginals", "--input", str(path), "--epsilon", "1e12",
                     "--delta", "1e-6", "--order", "2", "--mode", "even-flatten",
                     "--out", str(out), "--report-error"])
    assert code == 0
    tensor = np.frombuffer(out.read_bytes(), dtype="<f8").reshape(2, 2)
    assert np.allclose(tensor, np.array([[2.0, 1.0], [1.0, 1.0]]), atol=1e-5)
    captured = capsys.readouterr().out
    assert "average query-wise squared error" in captured
    meta = json.loads(out.with_suffix(".json").read_text())
    for key in ("order", "side", "scale", "method", "epsilon", "delta", "seed"):
        assert key in meta


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


def test_complexity_alias_matches_bench(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["bench", "complexity", "--set", "frobenius", "--n", "4",
                     "--trials", "300", "--seed", "2", "--out", str(a)]) == 0
    assert cli.main(["complexity", "--set", "frobenius", "--n", "4",
                     "--trials", "300", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_deterministic_across_thread_env(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("PP_THREADS", threads)
        out = tmp_path / f"r{threads}.json"
        assert cli.main(["bench", "marginal-scaling", "--sizes", "4,8", "--order", "2",
                         "--m", "20", "--trials", "3", "--seed", "9",
                         "--sparsity", "1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_invalid_pp_threads_is_validation_error(tmp_path, monkeypatch, vectors_csv):
    monkeypatch.setenv("PP_THREADS", "zero")
    code = cli.main(["bench", "cosine-scaling", "--sizes", "4", "--trials", "2",
                     "--seed", "0", "--out", str(tmp_path / "x.json")])
    assert code == 2
