import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from perturbproj.engine import (
    dykstra_reference,
    perturb_and_alternately_project,
    perturb_and_project,
)
from perturbproj.marginals import RecordError
from perturbproj.mechanism import PrivacyParams, RandomStream, sample_symmetric_gaussian
from perturbproj.projections import EntryClip, FrobeniusBall, PsdTrace
from perturbproj.similarity import (
    MODE_EXACT,
    MODE_PRACTICAL,
    PRACTICAL_COPIES,
    UnitVectorSet,
    _guard_release,
    gram,
    gram_sensitivity,
    read_vectors_csv,
    release_cosine_exact,
    release_cosine_practical,
    write_release_csv,
)
from reference import DiagClip, PsdCone

NORMAL = PrivacyParams(1.0, 1e-6)
HUGE_EPS = PrivacyParams(1e9, 1e-6)


def _unit_rows(rng, n, m=None):
    g = rng.standard_normal((n, m or n))
    return UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))


def test_unit_vector_set_validation():
    UnitVectorSet(np.eye(3))
    with pytest.raises(RecordError, match="^record 2: row norm 0.5 not within 1e-06 of 1$"):
        UnitVectorSet(np.array([[1.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        UnitVectorSet(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        UnitVectorSet(np.empty((0, 3)))
    with pytest.raises(RecordError, match="^record 1: non-finite value$"):
        UnitVectorSet(np.array([[np.inf, 0.0]]))
    # the first refused row is named, whichever rule refuses it
    with pytest.raises(RecordError, match="^record 1: row norm 2 not within 1e-06 of 1$"):
        UnitVectorSet(np.array([[2.0, 0.0], [1.0, 0.0], [np.nan, 0.0]]))
    # a finite row whose norm overflows float64 is refused, not warned about
    with pytest.raises(RecordError, match="^record 1: row norm inf not within 1e-06 of 1$") as big:
        UnitVectorSet(np.array([[1e200, 0.0], [1.0, 0.0]]))
    assert big.value.record == 0
    vs = UnitVectorSet(np.eye(2, 5))
    assert vs.count == 2 and vs.dim == 5


def test_gram_examples():
    assert np.array_equal(gram(UnitVectorSet(np.eye(2))), np.eye(2))
    assert np.array_equal(gram(UnitVectorSet(np.array([[0.0, 1.0]]))), np.array([[1.0]]))
    r = math.sqrt(0.5)
    vs = UnitVectorSet(np.array([[1.0, 0.0], [r, r]]))
    assert gram(vs)[0, 1] == pytest.approx(r, abs=1e-12)


def test_gram_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(0)
    vs = _unit_rows(rng, 40, 17)
    a = gram(vs)
    assert np.array_equal(a, a.T)
    assert np.abs(a.diagonal() - 1.0).max() <= 2e-6


def test_gram_sensitivity():
    v = UnitVectorSet(np.eye(2))
    assert gram_sensitivity(v, v) == 0.0
    single_a = UnitVectorSet(np.array([[1.0, 0.0]]))
    single_b = UnitVectorSet(np.array([[0.0, 1.0]]))
    assert gram_sensitivity(single_a, single_b) == pytest.approx(0.0, abs=1e-12)
    # swapping one of two rows flips two off-diagonal entries and one diagonal
    # stays: difference [[0,-1],[-1,0]] has Frobenius norm sqrt(2)
    both = UnitVectorSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert gram_sensitivity(v, both) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        gram_sensitivity(v, single_a)


@pytest.mark.parametrize("n", [2, 3, 8, 128])
def test_gram_sensitivity_of_arbitrary_unit_vectors_is_two_root_two_n_minus_one(n):
    # negating the last of n equal unit vectors flips its 2(n-1) off-diagonal
    # Gram entries from 1 to -1, the most a swap can move them; the diagonal stays
    rows = np.tile(np.array([0.6, 0.8]), (n, 1))
    flipped = rows.copy()
    flipped[-1] *= -1.0
    got = gram_sensitivity(UnitVectorSet(rows), UnitVectorSet(flipped))
    assert got == pytest.approx(2.0 * math.sqrt(2.0 * (n - 1)), rel=1e-12)


def test_read_vectors_csv(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("a,b\n1,0\n\n0,1\n")
    vs = read_vectors_csv(path, header=True)
    assert vs.count == 2 and vs.dim == 2

    path.write_text("1,0\nx,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_vectors_csv(path)

    path.write_text("1,0\n0,1,0\n")
    with pytest.raises(ValueError, match="line 2: expected 2"):
        read_vectors_csv(path)

    path.write_text("0.5,0\n")
    with pytest.raises(ValueError, match="line 1.*norm"):
        read_vectors_csv(path)

    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no vector rows"):
        read_vectors_csv(path)


@pytest.mark.parametrize("text,want", [
    ("2,0\n1,0\nnan,0\n", "line 1: row norm 2 not within 1e-06 of 1"),
    ("1,0\nnan,2\n0.5,0\n", "line 2: non-finite value"),
    ("1,0\n0,1\n0.6,0.8\n0,1.5\n", "line 4: row norm 1.5 not within 1e-06 of 1"),
], ids=["norm-before-nan", "nan-and-norm-in-one-row", "last-row"])
def test_read_vectors_csv_names_the_line_of_the_row_the_type_refuses(tmp_path, text, want):
    path = tmp_path / "v.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as read:
        read_vectors_csv(path)
    assert str(read.value) == want
    rows = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
    with pytest.raises(RecordError) as typed:
        UnitVectorSet(rows)
    assert str(typed.value) == want.replace("line", "record", 1)


def test_read_vectors_csv_parses_like_float_and_names_lines(tmp_path):
    rng = np.random.default_rng(4)
    g = rng.standard_normal((50, 7))
    path = tmp_path / "v.csv"
    np.savetxt(path, g / np.linalg.norm(g, axis=1, keepdims=True), delimiter=",", fmt="%.17g")
    lines = path.read_text().splitlines()
    expected = np.array([[float(c) for c in line.split(",")] for line in lines])
    assert np.array_equal(read_vectors_csv(path).rows, expected)

    # blank lines count toward the line numbers the checks report
    path.write_text("1,0\n\n0,1\n0,nan\n0.6,0.8\n")
    with pytest.raises(ValueError, match="line 4: non-finite value"):
        read_vectors_csv(path)
    path.write_text("1,0\n\n0,1\n0.5,0.5\n0,inf\n")
    with pytest.raises(ValueError, match="line 4: row norm 0.707107 not within"):
        read_vectors_csv(path)
    path.write_text("1,0\n0,x\n0,1,0\n")
    with pytest.raises(ValueError, match="line 2: could not parse row as decimal floats"):
        read_vectors_csv(path)


def test_release_exact_zero_noise_returns_gram():
    vs = UnitVectorSet(np.eye(4))
    rel = release_cosine_exact(vs, HUGE_EPS, 1.0, RandomStream(1))
    assert np.allclose(rel.matrix, np.eye(4), atol=1e-6)
    assert rel.record["method"] == MODE_EXACT


def test_release_exact_feasibility():
    rng = np.random.default_rng(2)
    vs = _unit_rows(rng, 12)
    rel = release_cosine_exact(vs, NORMAL, 1.0, RandomStream(3))
    eigs = np.linalg.eigvalsh((rel.matrix + rel.matrix.T) / 2)
    assert eigs.min() >= -1e-6
    assert rel.matrix.diagonal().max() <= 1.0 + 1e-6
    assert max(rel.record["residuals"]) <= 1e-7
    assert rel.record["sigma"] == pytest.approx(5.386772268905419, rel=1e-12)


def test_release_exact_is_the_projection_of_the_noisy_matrix(monkeypatch):
    import perturbproj.engine as engine

    draws = []

    def tracked(n, sigma, stream):
        w = sample_symmetric_gaussian(n, sigma, stream)
        draws.append(w)
        return w

    monkeypatch.setattr(engine, "sample_symmetric_gaussian", tracked)
    rng = np.random.default_rng(13)
    vs = _unit_rows(rng, 10)
    rel = release_cosine_exact(vs, NORMAL, 1.0, RandomStream(14))
    assert len(draws) == 1
    noisy = gram(vs) + draws[0]
    ref = dykstra_reference(noisy, (PsdCone(), DiagClip(0.0, 1.0)))
    assert np.max(np.abs(rel.matrix - ref)) <= 1e-9 * max(1.0, float(np.max(np.abs(noisy))))
    assert rel.matrix.diagonal().max() <= 1.0
    assert rel.record["solver"] == "dual-newton"
    assert rel.record["iterations"] >= 1
    assert rel.record["kkt_residual"] <= 1e-12 * float(np.max(np.abs(noisy)))


def test_release_practical_zero_noise_returns_gram():
    rng = np.random.default_rng(4)
    vs = _unit_rows(rng, 6)
    rel = release_cosine_practical(vs, HUGE_EPS, 1.0, RandomStream(5))
    assert np.allclose(rel.matrix, gram(vs), atol=1e-6)
    assert rel.record["method"] == MODE_PRACTICAL


def test_release_practical_entries_within_reported_residual():
    rng = np.random.default_rng(6)
    vs = _unit_rows(rng, 16)
    rel = release_cosine_practical(vs, NORMAL, 1.0, RandomStream(7))
    rho = rel.record["residuals"][1]
    assert np.abs(rel.matrix).max() <= 1.0 + rho + 1e-12
    assert rho <= 1e-6


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [8, 32, 64])
def test_practical_is_one_shrink_then_clip_never_worse_than_averaged_steps(
        monkeypatch, n, eps):
    # paired on the noise stream against the averaged alternation between the
    # same two sets, run for ceil(12 log2 n) steps
    import perturbproj.engine as engine

    draws = []

    def tracked(side, sigma, stream):
        draws.append(side)
        return sample_symmetric_gaussian(side, sigma, stream)

    monkeypatch.setattr(engine, "sample_symmetric_gaussian", tracked)
    params = PrivacyParams(eps, 1e-6)
    sets = (FrobeniusBall(float(n)), EntryClip(1.0))
    steps = math.ceil(12 * math.log2(n))
    for s in range(20):
        rng = np.random.default_rng(60_000 + s)
        vs = _unit_rows(rng, n)
        truth = gram(vs)
        noise = RandomStream(70_000 + s)
        draws.clear()
        rel = release_cosine_practical(vs, params, 1.0, noise)
        assert draws == [n]
        ref, _ = perturb_and_alternately_project(truth, sets, params, 1.0, noise, steps)
        assert np.sum((rel.matrix - truth) ** 2) <= np.sum((ref - truth) ** 2)
        assert np.abs(rel.matrix).max() <= 1.0
        assert rel.record["residuals"] == [0.0, 0.0]
        assert rel.record["solver"] == "shrink-then-clip"
        assert "iterations" not in rel.record and "kkt_residual" not in rel.record


def test_release_single_noise_draw(monkeypatch):
    import perturbproj.engine as engine

    calls = []

    def tracked(n, sigma, stream):
        calls.append(n)
        return sample_symmetric_gaussian(n, sigma, stream)

    monkeypatch.setattr(engine, "sample_symmetric_gaussian", tracked)
    rng = np.random.default_rng(8)
    vs = _unit_rows(rng, 6)
    release_cosine_exact(vs, NORMAL, 1.0, RandomStream(9))
    assert len(calls) == 1
    release_cosine_practical(vs, NORMAL, 1.0, RandomStream(9))
    assert len(calls) == 2


def test_practical_error_within_factor_three_of_exact():
    # Frobenius-distance ratio, median over 50 paired seeds at n=64
    n = 64
    ratios = []
    for s in range(50):
        rng = np.random.default_rng(10_000 + s)
        vs = _unit_rows(rng, n)
        truth = gram(vs)
        noise = RandomStream(20_000 + s)
        exact = release_cosine_exact(vs, NORMAL, 1.0, noise)
        practical = release_cosine_practical(vs, NORMAL, 1.0, noise)
        err_exact = float(np.linalg.norm(exact.matrix - truth))
        err_practical = float(np.linalg.norm(practical.matrix - truth))
        ratios.append(err_practical / err_exact)
    assert float(np.median(ratios)) <= 3.0


def test_exact_beats_clip_only_baseline():
    n = 32
    wins = 0
    for s in range(50):
        rng = np.random.default_rng(30_000 + s)
        vs = _unit_rows(rng, n)
        truth = gram(vs)
        noise = RandomStream(40_000 + s)
        exact = release_cosine_exact(vs, NORMAL, 1.0, noise)
        baseline, _ = perturb_and_project(truth, EntryClip(1.0), NORMAL, 1.0, noise)
        if np.sum((exact.matrix - truth) ** 2) < np.sum((baseline - truth) ** 2):
            wins += 1
    assert wins >= 45


def test_holder_chain_sanity():
    # mirrored unit noise: spectral norm near 2*sqrt(n), and the sup of
    # <X, W> over psd matrices with trace <= n never exceeds n * ||W||_spec
    for n in (64, 128):
        spectral, trace_sup = [], []
        for i in range(20):
            w = sample_symmetric_gaussian(n, 1.0, RandomStream(50_000 + i))
            eigs = np.linalg.eigvalsh(w)
            spectral.append(max(abs(eigs[0]), abs(eigs[-1])))
            trace_sup.append(n * max(eigs[-1], 0.0))
        mean_spec = float(np.mean(spectral))
        assert 1.8 <= mean_spec / math.sqrt(n) <= 2.2
        assert float(np.mean(trace_sup)) <= n * mean_spec + 1e-9


def test_write_release_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    vs = _unit_rows(rng, 5)
    rel = release_cosine_practical(vs, NORMAL, 1.0, RandomStream(12))
    out = tmp_path / "x.csv"
    write_release_csv(rel, out)
    back = np.loadtxt(out, delimiter=",")
    assert np.array_equal(back, rel.matrix)


def test_write_release_csv_bytes_equal_savetxt(tmp_path):
    rng = np.random.default_rng(13)
    g = rng.standard_normal((6, 6))
    sym = (g + g.T) / 2.0
    sym[0, 1] = sym[1, 0] = -0.0
    sym[2, 3] = sym[3, 2] = 1e-300
    sym[4, 4] = 0.1
    signed_zero = sym.copy()
    signed_zero[0, 5], signed_zero[5, 0] = -0.0, 0.0  # equal, but not bit for bit
    skew = sym.copy()
    skew[1, 4] += 1e-3
    vs = _unit_rows(rng, 9)
    released = [release(vs, NORMAL, 1.0, RandomStream(14)).matrix
                for release in (release_cosine_exact, release_cosine_practical)]
    for i, m in enumerate([sym, signed_zero, skew, np.array([[0.5]])] + released):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_release_csv(SimpleNamespace(matrix=m, record={}), got)
        np.savetxt(want, m, delimiter=",", fmt="%.17g")
        assert got.read_bytes() == want.read_bytes(), i


def test_write_release_csv_peaks_below_three_matrices(tmp_path):
    # a symmetric matrix keeps a string only until its second write: about n^2/4 at once
    n = 300
    g = np.random.default_rng(15).standard_normal((n, n))
    m = (g + g.T) / 2.0
    tracemalloc.start()
    try:
        write_release_csv(SimpleNamespace(matrix=m, record={}), tmp_path / "x.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * n


def test_practical_size_guard_admits_up_to_6192_vectors():
    # 8 * (7 n^2 + 2 n) bytes fit in MAX_RELEASE_BYTES = 2^31 up to n = 6192
    _guard_release(5000, 2, PRACTICAL_COPIES)
    _guard_release(6192, 2, PRACTICAL_COPIES)
    with pytest.raises(ValueError, match="size guard"):
        _guard_release(6193, 2, PRACTICAL_COPIES)


def test_write_release_csv_refuses_a_path_its_sidecar_would_overwrite(tmp_path):
    rel = release_cosine_practical(UnitVectorSet(np.eye(3)), NORMAL, 1.0, RandomStream(1))
    with pytest.raises(ValueError, match="overwritten by its .json sidecar"):
        write_release_csv(rel, tmp_path / "x.json")
    assert list(tmp_path.iterdir()) == []
