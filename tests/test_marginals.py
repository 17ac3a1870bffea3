import csv
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import perturbproj.cli as cli
import perturbproj.marginals as marginals
from perturbproj.engine import perturb_and_project
from perturbproj.marginals import (
    MAX_RELEASE_BYTES,
    BinaryDataset,
    ParityQuery,
    RecordError,
    answer_parity_query,
    avg_query_sq_error,
    load_tensor,
    parity_tensor,
    read_dataset_csv,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
    save_release,
)
from perturbproj.mechanism import (
    PrivacyParams,
    RandomStream,
    calibrate_sigma,
    sample_gaussian,
)
from perturbproj.projections import PsdTrace
import reference
from reference import SearchBudget, sparse_injective_norm_oracle

NORMAL = PrivacyParams(1.0, 1e-6)
HUGE_EPS = PrivacyParams(1e9, 1e-6)


def _random_data(rng, n, m, p=0.5):
    return BinaryDataset((rng.random((m, n)) < p).astype(float))


def _brute_count(data, idx):
    total = 0
    for row, c in zip(data.records, data.counts):
        if all(row[i] == 1.0 for i in idx):
            total += int(c)
    return total


def test_binary_dataset_validation():
    # 0.5, 2 and NaN are refused before the records are cast to uint8
    for bad in (0.5, 2.0, np.nan):
        with pytest.raises(RecordError, match="^record 1: features must be 0 or 1$"):
            BinaryDataset(np.array([[0.0, bad]]))
    assert BinaryDataset(np.array([[0.0, 1.0]])).records.dtype == np.uint8
    with pytest.raises(ValueError):
        BinaryDataset(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        BinaryDataset(np.eye(2), counts=np.array([1]))
    with pytest.raises(ValueError):
        BinaryDataset(np.eye(2), counts=np.array([1, 0]))
    with pytest.raises(RecordError, match="^record 1: count must be a positive integer, got inf$"):
        BinaryDataset(np.eye(2), counts=np.array([np.inf, 1.0]))
    with pytest.raises(RecordError, match="^record 1: 2 ones, more than the declared sparsity 1$"):
        BinaryDataset(np.array([[1.0, 1.0]]), sparsity=1)
    d = BinaryDataset(np.eye(3), counts=np.array([2, 1, 4]))
    assert d.size == 7 and d.n_features == 3
    empty = BinaryDataset(np.empty((0, 4)))
    assert empty.size == 0


def test_binary_dataset_sparsity_accepts_integral_types_but_not_bool():
    data = BinaryDataset(np.eye(3), sparsity=np.int64(2))
    assert data.sparsity == 2 and type(data.sparsity) is int and data.max_ones == 2
    with pytest.raises(RecordError, match="^record 1: 3 ones, more than the declared sparsity 2$"):
        BinaryDataset(np.ones((1, 3)), sparsity=np.int64(2))
    for bad in (True, False, np.True_, 2.0, "2", 0, -1):
        with pytest.raises(ValueError, match="^sparsity must be an integer >= 1, got "):
            BinaryDataset(np.eye(3), sparsity=bad)


def test_binary_dataset_counts_ones_per_record():
    data = BinaryDataset(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                         counts=np.array([2, 1, 4]))
    assert data.weights.dtype == np.intp and data.weights.tolist() == [2, 0, 3]


def test_parity_query_validation():
    q = ParityQuery((3, 1))
    assert q.alpha == (1, 3)
    with pytest.raises(ValueError):
        ParityQuery((1, 1))
    with pytest.raises(ValueError):
        ParityQuery((0, 2))
    with pytest.raises(ValueError):
        ParityQuery(())


def test_parity_query_refuses_non_integral_indices():
    assert ParityQuery((2.0, np.int64(1))).alpha == (1, 2)
    for bad in ((1.7, 2.9), (1, 2.5), (float("nan"),), (float("inf"), 1), (True, 2),
                (1, np.True_), ("2",), (b"2", 1)):
        with pytest.raises(ValueError, match="integers"):
            ParityQuery(bad)


def test_parity_tensor_matches_brute_force():
    # k >= 3 builds in blocks of n records: m up to 3n + 2 leaves a partial
    # last block, and random counts weight each record
    rng = np.random.default_rng(0)
    for trial in range(32):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3 * n + 3))
        k = trial % 4 + 1
        records = (rng.random((m, n)) < 0.5).astype(float)
        data = BinaryDataset(records, counts=rng.integers(1, 10, size=m))
        tensor = parity_tensor(data, k)
        for idx in itertools.product(range(n), repeat=k):
            assert tensor[idx] == _brute_count(data, idx)


def _brute_tensor(data, k):
    n = data.n_features
    out = np.zeros((n,) * k)
    for idx in itertools.product(range(n), repeat=k):
        out[idx] = _brute_count(data, idx)
    return out


@pytest.mark.parametrize("light_cost", [0.0, 4.0, math.inf], ids=["scatter", "mixed", "gemm"])
def test_parity_tensor_builders_match_brute_force(monkeypatch, light_cost):
    # LIGHT_COST 0 scatters every record and inf sends every record through the
    # GEMM; 4 splits records of different weights between the two. Weights run
    # from 0 to n, so rows with no ones are in every case, and 3n + 2 records
    # leave a partial last block on both sides (scatter blocks hold
    # n^k // (2 w^k) records, GEMM blocks n at k >= 3).
    monkeypatch.setattr(marginals, "LIGHT_COST", light_cost)
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 4):
        n = 5 if k < 4 else 4
        m = 3 * n + 2
        weights = np.resize(np.arange(n + 1), m)
        records = (np.argsort(rng.random((m, n)), axis=1) < weights[:, None]).astype(float)
        data = BinaryDataset(records, counts=rng.integers(1, 10, size=m))
        assert np.array_equal(parity_tensor(data, k), _brute_tensor(data, k))


def test_parity_tensor_is_bit_identical_under_any_split(monkeypatch):
    rng = np.random.default_rng(12)
    n, m = 24, 500
    sparse = (np.argsort(rng.random((m, n)), axis=1) < rng.integers(0, 5, size=m)[:, None])
    dense = rng.random((m, n)) < 0.4
    for records in (sparse, dense, np.vstack([sparse, dense])):
        data = BinaryDataset(records.astype(float), counts=rng.integers(1, 10, size=len(records)))
        for k in (1, 2, 3):
            built = {}
            for light_cost in (0.0, marginals.LIGHT_COST, math.inf):
                monkeypatch.setattr(marginals, "LIGHT_COST", light_cost)
                built[light_cost] = parity_tensor(data, k)
            first, *rest = built.values()
            assert all(np.array_equal(first, other) for other in rest)


def test_parity_tensor_permutation_symmetry():
    rng = np.random.default_rng(1)
    data = _random_data(rng, 5, 12)
    t = parity_tensor(data, 3)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(t, t.transpose(perm))


def test_parity_tensor_size_guard():
    with pytest.raises(ValueError, match="size guard"):
        parity_tensor(BinaryDataset(np.zeros((1, 200))), 4)
    for k in (0, 2.0, True):
        with pytest.raises(ValueError, match=f"^order k must be an integer >= 1, got {k!r}$"):
            parity_tensor(BinaryDataset(np.eye(3)), k)


def test_even_k_size_guard_counts_bytes_before_allocating():
    # 100^4 entries pass an entry-count cap of 10^8 but need gigabytes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size guard"):
            release_even_k(BinaryDataset(np.zeros((1, 100))), 4, NORMAL, RandomStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_answer_parity_query():
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    t = parity_tensor(data, 2)
    assert answer_parity_query(t, ParityQuery((1,))) == 2.0
    assert answer_parity_query(t, (1, 2)) == 1.0
    assert answer_parity_query(t, (2,)) == 1.0
    with pytest.raises(ValueError, match="out of range"):
        answer_parity_query(t, (3,))
    with pytest.raises(ValueError):
        answer_parity_query(t, (1, 2, 2))
    plain = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert answer_parity_query(plain, (1,)) == 2.0 and answer_parity_query(plain, (1, 2)) == 1.0
    with pytest.raises(ValueError, match="^query has 3 indices, tensor order is 2$"):
        answer_parity_query(np.zeros((3, 3)), (1, 2, 3))
    for shape in ((2, 3), (2, 2, 3), ()):
        with pytest.raises(ValueError, match="cubical"):
            answer_parity_query(np.zeros(shape), (1,))


def test_swap_sensitivity_bounds():
    # exhaustive single-record swaps over a small universe
    n, k = 3, 2
    universe = [np.array(bits, dtype=float) for bits in itertools.product((0.0, 1.0), repeat=n)]
    rng = np.random.default_rng(2)
    base = _random_data(rng, n, 5)
    for e, e_new in itertools.product(universe, repeat=2):
        rec_a = np.vstack([base.records, e[None, :]])
        rec_b = np.vstack([base.records, e_new[None, :]])
        da, db = BinaryDataset(rec_a), BinaryDataset(rec_b)
        raw_gap = np.linalg.norm(parity_tensor(da, k) - parity_tensor(db, k))
        assert raw_gap <= 2.0 * n ** (k / 2.0) + 1e-9
        rel_a = release_even_k(da, k, HUGE_EPS, RandomStream(0))
        rel_b = release_even_k(db, k, HUGE_EPS, RandomStream(0))
        m = da.size
        norm_gap = np.linalg.norm(rel_a.tensor - rel_b.tensor) / (m * n)
        assert norm_gap <= 2.0 / m + 1e-6


def test_release_even_k_zero_noise_exact():
    rng = np.random.default_rng(3)
    data = _random_data(rng, 5, 15)
    truth = parity_tensor(data, 2)
    rel = release_even_k(data, 2, HUGE_EPS, RandomStream(4))
    assert np.allclose(rel.tensor, truth, atol=1e-6)
    rel4 = release_even_k(data, 4, HUGE_EPS, RandomStream(5))
    assert np.allclose(rel4.tensor, parity_tensor(data, 4), atol=1e-5)


@pytest.mark.parametrize("k", [2, 4])
def test_even_k_flattening_is_exactly_symmetric_psd_with_trace_at_most_one(monkeypatch, k):
    captured = []

    def capture(a, set_, params, sensitivity, stream):
        captured.append((a, set_))
        return perturb_and_project(a, set_, params, sensitivity, stream)

    monkeypatch.setattr(marginals, "perturb_and_project", capture)
    rng = np.random.default_rng(9)
    records = (rng.random((23, 5)) < 0.5).astype(float)
    data = BinaryDataset(records, counts=rng.integers(1, 10, size=23))
    release_even_k(data, k, NORMAL, RandomStream(0))
    ((mat, set_),) = captured
    side = 5 ** (k // 2)
    bound = float(data.size * side)
    # raw counts: the flattening of T itself, not a rescaled copy
    assert np.array_equal(mat, parity_tensor(data, k).reshape(side, side))
    assert np.array_equal(mat, mat.T)
    assert np.linalg.eigvalsh(mat).min() >= -1e-12 * bound
    assert np.trace(mat) <= bound
    assert set_ == PsdTrace(bound)


@pytest.mark.parametrize("k", [2, 4])
def test_release_even_k_runs_one_eigh(monkeypatch, k):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    data = _random_data(np.random.default_rng(2), 4, 12)
    release_even_k(data, k, NORMAL, RandomStream(3))
    assert calls == [(4 ** (k // 2),) * 2]


def test_release_even_k_feasible_pre_rescale():
    rng = np.random.default_rng(6)
    data = _random_data(rng, 6, 30)
    rel = release_even_k(data, 2, NORMAL, RandomStream(7))
    m, n = data.size, data.n_features
    flattened = rel.tensor / (m * n)
    eigs = np.linalg.eigvalsh((flattened + flattened.T) / 2)
    assert eigs.min() >= -1e-8
    assert eigs.sum() <= 1.0 + 1e-8
    assert rel.record["sensitivity"] == pytest.approx(2.0 * n, rel=1e-12)
    assert rel.record["sigma"] == pytest.approx(
        calibrate_sigma(PrivacyParams(rel.record["epsilon"], rel.record["delta"]),
                        rel.record["sensitivity"]), rel=1e-12)


def test_release_even_k_rejects_odd_order():
    data = BinaryDataset(np.eye(3))
    with pytest.raises(ValueError, match="even"):
        release_even_k(data, 3, NORMAL, RandomStream(0))


def test_release_even_k_refuses_a_dataset_without_records():
    with pytest.raises(ValueError, match="^dataset must contain at least one record$"):
        release_even_k(BinaryDataset(np.zeros((0, 4))), 2, NORMAL, RandomStream(0))


def test_release_even_k_deterministic():
    rng = np.random.default_rng(8)
    data = _random_data(rng, 4, 10)
    a = release_even_k(data, 2, NORMAL, RandomStream(9))
    b = release_even_k(data, 2, NORMAL, RandomStream(9))
    assert np.array_equal(a.tensor, b.tensor)


def test_threshold_baseline():
    rng = np.random.default_rng(10)
    rows = np.zeros((20, 8))
    for i in range(20):
        rows[i, rng.integers(0, 8)] = 1.0
    data = BinaryDataset(rows, sparsity=1)
    rel = release_threshold_baseline(data, 2, NORMAL, RandomStream(11))
    assert np.count_nonzero(rel.tensor) <= data.size * 1
    assert rel.record["sigma"] == pytest.approx(
        2.0 * calibrate_sigma(PrivacyParams(1.0, 1e-6), 1.0), rel=1e-12)
    # zero noise keeps exactly the true nonzeros
    exact = release_threshold_baseline(data, 2, HUGE_EPS, RandomStream(12))
    assert np.allclose(exact.tensor, parity_tensor(data, 2), atol=1e-6)
    with pytest.raises(ValueError, match="needs a dataset with a declared sparsity"):
        release_threshold_baseline(BinaryDataset(np.ones((2, 3))), 2, NORMAL, RandomStream(0))
    with pytest.raises(ValueError, match="^record 1: 3 ones, more than the declared sparsity 1$"):
        BinaryDataset(np.ones((2, 3)), sparsity=1)


def test_baselines_equal_parity_plus_noise_byte_for_byte():
    # the releases add the draw into their own T; the bytes must be those of
    # the plain sum of the parity tensor and the same stream's draw
    from perturbproj.marginals import _threshold_keep

    rng = np.random.default_rng(15)
    n, t = 10, 3
    records = np.argsort(rng.random((40, n)), axis=1) < rng.integers(0, t + 1, size=40)[:, None]
    counts = rng.integers(1, 5, size=40)
    data = BinaryDataset(records, counts=counts)
    sparse = BinaryDataset(records, counts=counts, sparsity=t)
    for k in (1, 2, 3):
        stream = RandomStream(16, k)
        parity = parity_tensor(data, k)
        rel = release_threshold_baseline(sparse, k, NORMAL, stream)
        noise = sample_gaussian(n**k, rel.record["sigma"], stream)
        old = _threshold_keep(parity.ravel() + noise, data.size * t**k)
        assert rel.tensor.tobytes() == old.tobytes()
        rel = release_gaussian_only(data, k, NORMAL, stream)
        old = parity + sample_gaussian((n,) * k, rel.record["sigma"], stream)
        assert rel.tensor.tobytes() == old.tobytes()


def test_threshold_tie_break_keeps_first_flat_indices():
    from perturbproj.marginals import _threshold_keep

    flat = np.array([1.0, -1.0, 1.0, 0.5])
    kept = _threshold_keep(flat, 2)
    assert np.array_equal(kept, np.array([1.0, -1.0, 0.0, 0.0]))


def test_threshold_keep_matches_stable_argsort_rule():
    from perturbproj.marginals import _threshold_keep

    def stable_argsort_keep(flat, keep):
        if keep >= flat.size:
            return flat.copy()
        kept = np.argsort(-np.abs(flat), kind="stable")[:keep]
        out = np.zeros_like(flat)
        out[kept] = flat[kept]
        return out

    rng = np.random.default_rng(21)
    for trial in range(200):
        size = int(rng.integers(1, 80))
        if trial % 4 == 0:
            flat = rng.standard_normal(size)
        else:  # few distinct magnitudes of both signs: many ties
            flat = rng.integers(-3, 4, size) * 0.5
        # the same entries with every other zero negative: a kept -0.0 keeps
        # its sign bit, a dropped one becomes +0.0
        signed = flat.copy()
        signed[(flat == 0) & (np.arange(size) % 2 == 0)] = -0.0
        # one place more than the nonzeros puts the cut at exactly 0 when there are zeros
        zero_cut = np.count_nonzero(flat) + 1
        for keep in (1, size - 1, size, size + 3, int(rng.integers(1, size + 1)), 0, zero_cut):
            for values in (flat, signed):
                got = _threshold_keep(values, keep)
                want = stable_argsort_keep(values, keep)
                assert got.tobytes() == want.tobytes(), (values, keep)


@pytest.mark.parametrize("release", [release_gaussian_only, release_threshold_baseline])
def test_baseline_size_guard_counts_the_parity_build_peak(release):
    # 420^3 float64 entries: four of them, the parity build's peak, pass 2 GiB
    # and three would not
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size guard"):
            release(BinaryDataset(np.zeros((1, 420)), sparsity=1), 3, NORMAL, RandomStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gaussian_only_sensitivity():
    rng = np.random.default_rng(13)
    dense = _random_data(rng, 4, 10)
    rel = release_gaussian_only(dense, 2, NORMAL, RandomStream(14))
    assert rel.record["sensitivity"] == pytest.approx(2.0 * 4.0, rel=1e-12)
    rows = np.zeros((5, 6))
    rows[:, 0] = 1.0
    sparse = BinaryDataset(rows, sparsity=2)
    rel2 = release_gaussian_only(sparse, 2, NORMAL, RandomStream(15))
    assert rel2.record["sensitivity"] == pytest.approx(2.0 * 2.0, rel=1e-12)


@pytest.mark.parametrize("k", [2, 4])
def test_even_k_records_the_gaussian_baselines_sensitivity_and_sigma_in_counts(k):
    # both noise T in counts; with no declared sparsity, a swap moves it by 2 n^{k/2}
    data = _random_data(np.random.default_rng(17), 5, 12)
    even = release_even_k(data, k, NORMAL, RandomStream(1)).record
    baseline = release_gaussian_only(data, k, NORMAL, RandomStream(1)).record
    assert even["sensitivity"] == baseline["sensitivity"] == 2.0 * 5 ** (k // 2)
    assert even["sigma"] == baseline["sigma"]


@pytest.mark.parametrize("release", [release_gaussian_only, release_threshold_baseline])
def test_baselines_cap_declared_sparsity_at_n(release):
    # no record over n features has more than n ones, so a declared t above
    # n must give the sigma (and the bytes) of t = n
    n = 8
    rows = np.eye(n)[:5]
    for k in (1, 2, 3):
        at_n = release(BinaryDataset(rows, sparsity=n), k, NORMAL, RandomStream(k))
        over = release(BinaryDataset(rows, sparsity=n + 5), k, NORMAL, RandomStream(k))
        assert over.record == at_n.record
        assert over.tensor.tobytes() == at_n.tensor.tobytes()


def test_oracle_matrix_cases():
    rng = np.random.default_rng(16)
    g = rng.standard_normal((6, 6))
    a = (g + g.T) / 2
    full = sparse_injective_norm_oracle(a, 6, stream=RandomStream(0))
    assert full.exhaustive
    assert full.value == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-6)
    single = sparse_injective_norm_oracle(a, 1, stream=RandomStream(0))
    assert single.value == pytest.approx(float(np.diag(a).max()), abs=1e-10)


def test_oracle_monotone_in_sparsity():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 6, 6))
    vals = [sparse_injective_norm_oracle(a, t, stream=RandomStream(1)).value for t in (1, 2, 3)]
    assert vals[0] <= vals[1] + 1e-8 and vals[1] <= vals[2] + 1e-8


def test_oracle_odd_order_brute_force():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((4, 4, 4))
    res = sparse_injective_norm_oracle(a, 2, SearchBudget(restarts=8), RandomStream(2))
    sym = np.zeros_like(a)
    for perm in itertools.permutations(range(3)):
        sym += a.transpose(perm)
    sym /= 6.0
    best = -np.inf
    for sup in itertools.combinations(range(4), 2):
        idx = np.array(sup)
        sub = sym[np.ix_(idx, idx, idx)]
        for theta in np.linspace(0.0, 2.0 * math.pi, 4001):
            x = np.array([math.cos(theta), math.sin(theta)])
            best = max(best, float(np.einsum("abc,a,b,c->", sub, x, x, x)))
    assert res.value == pytest.approx(best, abs=1e-4)


def test_oracle_sparse_norm_bound():
    rng = np.random.default_rng(19)
    for i in range(30):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 4))
        t = min(int(rng.integers(1, 4)), n)
        a = rng.standard_normal((n,) * k)
        res = sparse_injective_norm_oracle(a, t, stream=RandomStream(100 + i))
        assert res.value <= float(np.abs(a).max()) * t ** (k / 2.0) + 1e-6


def test_oracle_non_exhaustive_budget():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    res = sparse_injective_norm_oracle(a, 5, SearchBudget(max_supports=50), RandomStream(3))
    assert not res.exhaustive
    assert res.supports_searched == 50
    assert res.value <= float(np.linalg.eigvalsh(a)[-1]) + 1e-8


def _contract(sub, x, times):
    for _ in range(times):
        sub = np.tensordot(sub, x, axes=([sub.ndim - 1], [0]))
    return sub


def _loop_oracle(a, t, budget, stream):
    """The oracle as one power iteration per support and per start: the reference."""
    k, n = a.ndim, a.shape[0]
    sym = reference._symmetrize_tensor(a)
    rng = stream.generator()
    exhaustive = math.comb(n, t) <= budget.max_supports
    if exhaustive:
        supports = [np.array(sup) for sup in itertools.combinations(range(n), t)]
    else:  # drawn lazily, so each support's starts follow its choice in the stream
        supports = (np.sort(rng.choice(n, size=t, replace=False))
                    for _ in range(budget.max_supports))
    best = -np.inf
    for sup in supports:
        sub = sym[np.ix_(*[sup] * k)]
        alpha = 1.0 + (k - 1) * t ** (k / 2.0) * float(np.max(np.abs(sub)))
        starts = [np.ones(t) / math.sqrt(t)]
        for _ in range(budget.restarts - 1 if t > 1 else 0):
            g = rng.standard_normal(t)
            starts.append(g / np.linalg.norm(g))
        for x in starts:
            for _ in range(reference.POWER_MAX_ITER):
                y = _contract(sub, x, k - 1) + alpha * x
                x, last = y / np.linalg.norm(y), x
                if np.linalg.norm(x - last) < reference.POWER_TOL:
                    break
            val = float(_contract(sub, x, k))
            best = max(best, val, val * (-1.0) ** k)
    return best, exhaustive, math.comb(n, t) if exhaustive else budget.max_supports


@pytest.mark.parametrize("shape,t,budget", [
    ((7, 7), 3, SearchBudget()),
    ((6, 6, 6), 2, SearchBudget(restarts=3)),
    ((9, 9, 9), 3, SearchBudget(max_supports=12)),
    ((10, 10), 1, SearchBudget(max_supports=6)),
    ((5,) * 4, 3, SearchBudget(max_supports=7, restarts=2)),
    ((4, 4), 2, SearchBudget(max_supports=1, restarts=1)),
])
def test_oracle_matches_the_per_support_loop(shape, t, budget):
    # same starts from the same stream, so the values agree to rounding
    a = np.random.default_rng(len(shape) * 10 + t).standard_normal(shape)
    res = sparse_injective_norm_oracle(a, t, budget, RandomStream(t))
    value, exhaustive, searched = _loop_oracle(a, t, budget, RandomStream(t))
    assert (res.exhaustive, res.supports_searched) == (exhaustive, searched)
    assert res.value == pytest.approx(value, abs=1e-12)


def test_oracle_first_order_is_the_norm_of_the_t_largest_entries():
    rng = np.random.default_rng(22)
    a = rng.standard_normal(7)
    top = np.sort(a * a)[::-1]
    for t in range(1, 8):
        res = sparse_injective_norm_oracle(a, t, stream=RandomStream(t))
        assert res.exhaustive
        assert res.value == pytest.approx(math.sqrt(top[:t].sum()), abs=1e-9)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_oracle_second_order_is_the_best_support_eigenvalue(n):
    rng = np.random.default_rng(23 + n)
    a = rng.standard_normal((n, n))
    sym = (a + a.T) / 2
    for t in range(1, n + 1):
        best = max(float(np.linalg.eigvalsh(sym[np.ix_(sup, sup)])[-1])
                   for sup in itertools.combinations(range(n), t))
        res = sparse_injective_norm_oracle(a, t, stream=RandomStream(t))
        assert res.exhaustive and res.supports_searched == math.comb(n, t)
        assert res.value == pytest.approx(best, abs=1e-9)


def test_oracle_fourth_order_brute_force():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((4, 4, 4, 4))
    res = sparse_injective_norm_oracle(a, 2, SearchBudget(restarts=8), RandomStream(5))
    best = -np.inf
    for sup in itertools.combinations(range(4), 2):
        sub = a[np.ix_(*[np.array(sup)] * 4)]
        for theta in np.linspace(0.0, math.pi, 4001):
            x = np.array([math.cos(theta), math.sin(theta)])
            best = max(best, float(np.einsum("abcd,a,b,c,d->", sub, x, x, x, x)))
    assert res.value == pytest.approx(best, abs=1e-4)


@pytest.mark.parametrize("field,value", [
    ("max_supports", 0), ("max_supports", -3), ("max_supports", 2.5), ("max_supports", True),
    ("restarts", 0), ("restarts", -4), ("restarts", 1.0), ("restarts", True),
])
def test_search_budget_refuses_anything_but_positive_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        SearchBudget(**{field: value})
    budget = SearchBudget(**{field: np.int64(5)})
    assert getattr(budget, field) == 5 and type(getattr(budget, field)) is int


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        sparse_injective_norm_oracle(np.zeros((2, 3)), 1)
    with pytest.raises(ValueError):
        sparse_injective_norm_oracle(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError, match=r"^sparsity t must be an integer >= 1, got 2\.0$"):
        sparse_injective_norm_oracle(np.zeros((3, 3)), 2.0)


def test_avg_query_sq_error():
    t1 = np.zeros((2, 2))
    t2 = np.full((2, 2), 2.0)
    assert avg_query_sq_error(t2, t1) == pytest.approx(4.0)
    t3 = np.zeros((3, 3))
    with pytest.raises(ValueError):
        avg_query_sq_error(t3, t1)


def test_save_and_load_release(tmp_path):
    rng = np.random.default_rng(21)
    data = _random_data(rng, 4, 8)
    rel = release_even_k(data, 2, NORMAL, RandomStream(22, 5))
    path = tmp_path / "release.bin"
    sidecar = save_release(rel, path)
    meta = json.loads(sidecar.read_text())
    assert set(meta) == {"delta", "epsilon", "method", "order", "seed", "sensitivity", "side",
                         "sigma"}
    assert meta["method"] == "EVEN_FLATTEN"
    assert meta["seed"] == 22 and (meta["order"], meta["side"]) == (2, 4)
    tensor, meta2 = load_tensor(path)
    assert np.array_equal(tensor, rel.tensor)
    assert meta2 == meta
    # wire format: little-endian float64, lexicographic entry order
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    assert np.array_equal(raw, rel.tensor.ravel(order="C"))


def test_save_release_refuses_a_path_its_sidecar_would_overwrite(tmp_path):
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    release = release_gaussian_only(data, 2, NORMAL, RandomStream(3))
    with pytest.raises(ValueError, match="overwritten by its .json sidecar"):
        save_release(release, tmp_path / "release.json")
    assert list(tmp_path.iterdir()) == []


def test_save_release_refuses_a_non_finite_sidecar_value_before_writing(tmp_path):
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    release = release_gaussian_only(data, 2, NORMAL, RandomStream(3))
    release.record["sigma"] = math.inf
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_release(release, tmp_path / "release.bin")
    assert list(tmp_path.iterdir()) == []


def test_load_tensor_reads_a_sidecar_that_also_holds_scale_and_stream_index(tmp_path):
    # earlier releases also wrote "scale" (always 1.0) and "stream_index": both are ignored
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    path = tmp_path / "release.bin"
    release = release_gaussian_only(data, 2, NORMAL, RandomStream(3))
    sidecar = save_release(release, path)
    meta = dict(json.loads(sidecar.read_text()), scale=1.0, stream_index=0)
    sidecar.write_text(json.dumps(meta))
    tensor, meta2 = load_tensor(path)
    assert np.array_equal(tensor, release.tensor)
    assert meta2 == meta


def test_load_tensor_refuses_an_order_or_side_that_is_not_an_integer(tmp_path):
    data = BinaryDataset(np.eye(4))
    path = tmp_path / "release.bin"
    sidecar = save_release(release_gaussian_only(data, 2, NORMAL, RandomStream(3)), path)
    meta = json.loads(sidecar.read_text())
    # int() would truncate both, and 16^1 entries match the 4x4 release's
    sidecar.write_text(json.dumps(dict(meta, order=1.5, side=16.9)))
    with pytest.raises(ValueError, match=r"^order must be an integer >= 1, got 1\.5$"):
        load_tensor(path)
    sidecar.write_text(json.dumps(dict(meta, order=1, side=16.9)))
    with pytest.raises(ValueError, match=r"^side must be an integer >= 1, got 16\.9$"):
        load_tensor(path)


@pytest.mark.parametrize("key", ["order", "side"])
def test_load_tensor_names_a_key_the_sidecar_lacks(tmp_path, key):
    data = BinaryDataset(np.eye(4))
    path = tmp_path / "release.bin"
    sidecar = save_release(release_gaussian_only(data, 2, NORMAL, RandomStream(3)), path)
    meta = json.loads(sidecar.read_text())
    del meta[key]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"^sidecar has no '{key}'$"):
        load_tensor(path)
    # a sidecar that is not a JSON object has no keys to look up
    for text, kind in (("null", "NoneType"), ("123", "int"), ('"order side"', "str"),
                       (f'["{key}"]', "list")):
        sidecar.write_text(text)
        with pytest.raises(ValueError, match=f"^sidecar must be a JSON object, not {kind}$"):
            load_tensor(path)


def test_load_tensor_refuses_a_file_truncated_by_one_entry(tmp_path):
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    path = tmp_path / "release.bin"
    save_release(release_gaussian_only(data, 2, NORMAL, RandomStream(3)), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"holds 24 bytes, not 8 \* side\^order = 8 \* 2\^2$"):
        load_tensor(path)


def test_load_tensor_names_a_file_whose_length_is_not_a_whole_number_of_entries(tmp_path):
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    path = tmp_path / "release.bin"
    save_release(release_gaussian_only(data, 2, NORMAL, RandomStream(3)), path)
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(ValueError) as err:
        load_tensor(path)
    assert str(err.value) == f"{path} holds 35 bytes, not 8 * side^order = 8 * 2^2"


def test_load_tensor_refuses_a_side_to_the_order_past_the_size_guard_before_reading(tmp_path):
    data = BinaryDataset(np.array([[1.0, 0.0], [1.0, 1.0]]))
    path = tmp_path / "release.bin"
    sidecar = save_release(release_gaussian_only(data, 2, NORMAL, RandomStream(3)), path)
    meta = json.loads(sidecar.read_text())
    # 3^(10^9) would take minutes to compute; the bound is checked through logarithms first
    started = time.perf_counter()
    for side, order in [(3, 10**9), (2, 29)]:
        sidecar.write_text(json.dumps(dict(meta, order=order, side=side)))
        with pytest.raises(ValueError) as err:
            load_tensor(path)
        assert str(err.value) == (f"sidecar side^order = {side}^{order} float64 entries would "
                                  f"pass the size guard of {MAX_RELEASE_BYTES >> 20} MiB")
    assert time.perf_counter() - started < 1.0
    # 2^28 entries are exactly at the bound: the byte length is checked as before
    for side, order in [(2, 28), (1, 10**9)]:
        sidecar.write_text(json.dumps(dict(meta, order=order, side=side)))
        with pytest.raises(ValueError) as err:
            load_tensor(path)
        assert str(err.value) == (f"{path} holds 32 bytes, not 8 * side^order = "
                                  f"8 * {side}^{order}")


def test_read_dataset_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,f2,f3\n1,0,1\n0,1,0\n")
    d = read_dataset_csv(path, header=True)
    assert d.records.shape == (2, 3)

    path.write_text("1,0\n1,2\n")
    with pytest.raises(ValueError, match="line 2.*0 or 1"):
        read_dataset_csv(path)

    path.write_text("1,0\n1\n")
    with pytest.raises(ValueError, match="line 2: expected 2"):
        read_dataset_csv(path)

    path.write_text("1,0,3\n0,1,2\n")
    d2 = read_dataset_csv(path, count_column=True)
    assert d2.counts.tolist() == [3, 2] and d2.size == 5

    path.write_text("1,0,0\n")
    with pytest.raises(ValueError, match="count must be a positive integer"):
        read_dataset_csv(path, count_column=True)

    path.write_text("")
    with pytest.raises(ValueError, match="no records"):
        read_dataset_csv(path)

    path.write_text("1,1\n")
    with pytest.raises(ValueError, match="sparsity"):
        read_dataset_csv(path, sparsity=1)


def _csv_float_rows(path, header, count_column=False):
    """The row-by-row csv.reader + float() parse that read_dataset_csv replaced;
    returns (records, counts), counts None without a count column."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if (header and lineno == 1) or all(not c.strip() for c in cells):
                continue
            vals = [float(c) for c in cells]
            features = vals[:-1] if count_column else vals
            if ((rows and len(vals) != len(rows[0])) or not features
                    or any(v not in (0.0, 1.0) for v in features)
                    or (count_column and not (vals[-1] >= 1 and vals[-1] == int(vals[-1])))):
                raise ValueError(f"line {lineno}")
            rows.append(vals)
    rows = np.array(rows)
    return (rows[:, :-1], rows[:, -1]) if count_column else (rows, None)


@pytest.mark.parametrize("text,header,count_column", [
    ("#1,0\n0,1\n", False, False),
    ('"1","0"\n0,1\n', False, False),
    (" 1 , 0\n0 ,1 \n", False, False),
    ("1\t,0\n\t0,1\t\n", False, False),
    ("1\t0\n0\t1\n", False, False),
    ("1,0\r\n0,1\r\n", False, False),
    ("1,0\n,\n ,, \n\n0,1\n", False, False),
    ("a,b\n1,0\n0,1\n", True, False),
    ("a,b\n1,0\n0,1\n", False, False),
    ("1_0,0\n", False, False),
    ("\ufeff1,0\n0,1\n", False, False),
    ("\ufeffa,b\n1,0\n", True, False),
    ("1,0,\n0,1,\n", False, False),
    ("1,0\n0,1,\n", False, False),
    ("1,0\n0,1\n0,1,1\n", False, False),
    # inputs at the edge of the 0/1 byte grid, which is decoded without loadtxt
    ("1,0,1\n0,1,1\n", False, False),
    ("a,b,c\n1,0,1\n0,1,1\n", True, False),
    ("a\rb\n1,0\n", True, False),
    ("1,0\n0,1", False, False),
    ("1,0\r\n0,1\n", False, False),
    ("1,0\n\n0,1\n", False, False),
    ("1,0\n0,2\n", False, False),
    ("1,0,\n", False, False),
    ("1,0,1\n0,1,1\n", False, True),
    ("1,0,3\n0,1,1\n", False, True),
    ("1\n0\n1\n", False, False),
    ("1\n", False, False),
], ids=["hash", "quoted", "spaces", "tabs", "tab-separated", "crlf", "comma-only", "header",
        "no-header", "underscore", "bom", "bom-header", "trailing-commas", "trailing-comma",
        "wide-row", "grid", "grid-header", "cr-in-header", "no-final-newline", "one-crlf",
        "blank-middle", "two-cell", "grid-trailing-comma", "grid-count-column",
        "count-column", "width-1", "one-cell"])
def test_read_dataset_csv_matches_row_by_row_parse(tmp_path, capsys, text, header, count_column):
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    try:
        expected, counts = _csv_float_rows(path, header, count_column)
    except ValueError:
        expected = None
    if expected is not None:
        data = read_dataset_csv(path, header=header, count_column=count_column)
        assert np.array_equal(data.records, expected)
        assert np.array_equal(data.counts, np.ones(len(expected)) if counts is None else counts)
        return
    with pytest.raises(ValueError, match=r"^line \d+: "):
        read_dataset_csv(path, header=header, count_column=count_column)
    out = tmp_path / "t.bin"
    argv = ["marginals", "--input", str(path), "--epsilon", "1", "--delta", "1e-6",
            "--mode", "gaussian", "--out", str(out)]
    assert cli.main(argv + ["--header"] * header + ["--count-column"] * count_column) == 2
    assert "error: line " in capsys.readouterr().err
    assert not out.exists()


def test_clean_grid_is_decoded_without_loadtxt(tmp_path, monkeypatch):
    def no_loadtxt(lines):
        raise AssertionError("np.loadtxt ran on a 0/1 grid")

    monkeypatch.setattr(marginals, "_parse_numeric_lines", no_loadtxt)
    rng = np.random.default_rng(14)
    records = (rng.random((50, 9)) < 0.3).astype(np.uint8)
    text = "".join(",".join(map(str, row)) + "\n" for row in records)
    path = tmp_path / "d.csv"
    for header in ("", "f1,f2,f3,f4,f5,f6,f7,f8,f9\n"):
        path.write_text(header + text)
        data = read_dataset_csv(path, header=bool(header), sparsity=9)
        assert data.records.dtype == np.uint8 and np.array_equal(data.records, records)
    path.write_text(text.replace("1", "1.0", 1))  # one float cell: parsed, not decoded
    with pytest.raises(AssertionError, match="grid"):
        read_dataset_csv(path)


def test_read_dataset_csv_names_the_line_over_the_declared_sparsity(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c,d\n1,0,0,0\n1,1,1,0\n0,1,1,0\n")
    with monkeypatch.context() as m:  # a grid, decoded from its bytes
        m.setattr(marginals, "_parse_numeric_lines", None)
        with pytest.raises(ValueError, match="^line 3: 3 ones, more than the declared sparsity 2$"):
            read_dataset_csv(path, header=True, sparsity=2)
    path.write_text("a,b,c,d\n1,0,0,0\n\n1,1,1,0\n")  # a blank line: parsed
    with pytest.raises(ValueError, match="^line 4: 3 ones, more than the declared sparsity 2$"):
        read_dataset_csv(path, header=True, sparsity=2)


def test_read_dataset_csv_names_first_bad_row_across_checks(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0,1\n0,1,0\n1,2,1\n0,1,x\n")
    with pytest.raises(ValueError, match="line 4: could not parse"):
        read_dataset_csv(path, count_column=True)
    path.write_text("1,0,1\n0,1,1.5\n2,1,1\n")
    with pytest.raises(ValueError, match="line 2: count must be a positive integer, got 1.5"):
        read_dataset_csv(path, count_column=True)
    path.write_text("1,0,1\n0,2,1\n1,1,0\n")
    with pytest.raises(ValueError, match="line 2: features must be 0 or 1"):
        read_dataset_csv(path, count_column=True)
    path.write_text("1\n")
    with pytest.raises(ValueError, match="line 1: need at least one feature"):
        read_dataset_csv(path, count_column=True)
    path.write_text("1,0,0,1\n1,1,0,1\n1,2,0,1\n")  # over the sparsity on line 2, not 0/1 on 3
    with pytest.raises(ValueError, match="^line 2: 2 ones, more than the declared sparsity 1$"):
        read_dataset_csv(path, count_column=True, sparsity=1)


TOTAL = "counts add up to more than 2^53, past which float64 counts are not exact"


@pytest.mark.parametrize("text,count_column,sparsity,want", [
    ("1,0,inf\n0,1,1\n", True, None, "line 1: count must be a positive integer, got inf"),
    ("1,0,2\n0,1,1e19\n", True, None, f"line 2: {TOTAL}"),
    ("2,1,0\n", True, None, "line 1: count must be a positive integer, got 0"),
    ("2,0,1e19\n", True, None, f"line 1: {TOTAL}"),
    ("1,1,2,1\n", True, 1, "line 1: features must be 0 or 1"),
    ("1,0\n1,1\n", False, 1, "line 2: 2 ones, more than the declared sparsity 1"),
], ids=["inf-count", "total", "count-before-feature", "total-before-feature",
        "feature-before-sparsity", "grid-sparsity"])
def test_read_dataset_csv_names_the_line_of_the_record_the_type_refuses(
        tmp_path, text, count_column, sparsity, want):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as read:
        read_dataset_csv(path, count_column=count_column, sparsity=sparsity)
    assert str(read.value) == want
    values = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()])
    records, counts = (values[:, :-1], values[:, -1]) if count_column else (values, None)
    with pytest.raises(RecordError) as typed:
        BinaryDataset(records, counts, sparsity)
    assert str(typed.value) == want.replace("line", "record", 1)


def test_counts_may_total_at_most_2_pow_53(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(f"1,0,{2**53}\n")
    assert read_dataset_csv(path, count_column=True).counts.tolist() == [2**53]
    path.write_text(f"0,0,1\n1,0,{2**52 + 1}\n0,1,{2**52 + 1}\n")
    with pytest.raises(ValueError, match="line 3: counts add up to more than 2\\^53"):
        read_dataset_csv(path, count_column=True)
    path.write_text("1,0,2\n0,1,1e19\n")
    with pytest.raises(ValueError, match="line 2: counts add up to more than 2\\^53"):
        read_dataset_csv(path, count_column=True)
    with pytest.raises(ValueError, match="^record 2: counts add up to more than 2\\^53"):
        BinaryDataset(np.eye(2), counts=np.array([2**52 + 1, 2**52 + 1]))
    with pytest.raises(ValueError, match="^record 1: counts add up to more than 2\\^53"):
        BinaryDataset(np.eye(2), counts=np.array([1e19, 1.0]))
    stored = BinaryDataset(np.eye(2), counts=np.array([2**53 - 3, 2], dtype=np.int64)).counts
    assert stored.dtype == np.int64 and stored.tolist() == [2**53 - 3, 2]


@pytest.mark.parametrize("counts,record", [([2**64, 1], 1), ([1, 2**64], 2),
                                           ([2**53 + 1, 2**64], 1)])
def test_counts_past_64_bits_are_refused_by_the_total_rule(counts, record):
    # numpy holds such a list as Python objects; 2^53 + 1 must not round to 2^53 on the way
    with pytest.raises(RecordError, match=f"^record {record}: {re.escape(TOTAL)}$"):
        BinaryDataset(np.ones((2, 3)), counts=counts)
