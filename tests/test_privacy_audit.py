"""Each release's sensitivity bounds what one record can change.

For every pair of binary records over n <= 5 features, two datasets that share
every other record and differ in that one are built, and the l2 distance of
the statistic a release noises is taken over the coordinates its draw noises:
for the even-k release the upper triangle, diagonal included, of its
n^{k/2} x n^{k/2} matrix T; for the Gaussian and threshold baselines all n^k
entries of T. It must not exceed the sensitivity the release records. The
even-k release is held to the ratio it has, sqrt((N^2 + N) / 2) / (2N) for
N = n^{k/2} (all ones swapped for all zeros), and so to at least 1/3: a
statistic in other units than the recorded sensitivity's would miss it.

For the cosine releases, swapping one of n unit vectors changes the Gram
matrix by at most 2 sqrt(2(n-1)) in Frobenius norm and its strict upper
triangle (the diagonal is always 1) by at most 2 sqrt(n-1); a pair of vector
sets attains both, and a seeded random search stays within them.
"""

import itertools
import math

import numpy as np
import pytest

from perturbproj.marginals import (
    BinaryDataset,
    parity_tensor,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
)
from perturbproj.mechanism import PrivacyParams, RandomStream
from perturbproj.similarity import UnitVectorSet, gram, gram_sensitivity

PARAMS = PrivacyParams(1.0, 1e-6)


def _records(n: int, t: int) -> np.ndarray:
    """Every binary record over n features with at most t ones."""
    rows = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
    return rows[rows.sum(axis=1) <= t]


def _even_k_statistic(data: BinaryDataset, k: int) -> np.ndarray:
    side = data.n_features ** (k // 2)
    matrix = parity_tensor(data, k).reshape(side, side)
    return matrix[np.triu_indices(side)]


def _baseline_statistic(data: BinaryDataset, k: int) -> np.ndarray:
    return parity_tensor(data, k).ravel()


def _audit(release, statistic, k: int, n: int, t: int, sparsity) -> float:
    """Largest change of the statistic over one swapped record, over the recorded sensitivity."""
    records = _records(n, t)
    shared = records[-2:]  # the records every dataset keeps
    datasets = [BinaryDataset(np.vstack([shared, row]), sparsity=sparsity) for row in records]
    stats = np.array([statistic(data, k) for data in datasets])
    change = float(np.max(np.linalg.norm(stats[:, None, :] - stats[None, :, :], axis=2)))
    sensitivity = release(datasets[0], k, PARAMS, RandomStream(0)).record["sensitivity"]
    return change / sensitivity


@pytest.mark.parametrize("k", [2, 4])
def test_even_k_change_stays_within_the_recorded_sensitivity(k):
    for n in range(1, 6):
        ratio = _audit(release_even_k, _even_k_statistic, k, n, n, None)
        side = n ** (k // 2)
        attained = math.sqrt((side * side + side) / 2.0) / (2.0 * side)
        assert abs(ratio - attained) <= 1e-12, f"n={n}: change {ratio!r} of the sensitivity"
        assert 1.0 / 3.0 <= ratio <= 1.0, f"n={n}: change {ratio:.4f} of the sensitivity"


@pytest.mark.parametrize("release", [release_gaussian_only, release_threshold_baseline])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_baseline_change_stays_within_the_recorded_sensitivity(release, k):
    for n in range(1, 6):
        for t in range(1, n + 1):
            ratio = _audit(release, _baseline_statistic, k, n, t, t)
            assert ratio <= 1.0, f"n={n}, t={t}: change {ratio:.4f} of the sensitivity"


def _upper_change(a: UnitVectorSet, b: UnitVectorSet) -> float:
    """l2 change of the strict upper triangle of the Gram matrix."""
    upper = np.triu_indices(a.count, 1)
    return float(np.linalg.norm(gram(a)[upper] - gram(b)[upper]))


@pytest.mark.parametrize("n", [2, 3, 8, 128])
def test_cosine_bounds_are_attained_by_one_negated_vector(n):
    # n - 1 copies of one unit vector, the last swapped for its negative: every
    # off-diagonal entry of the last row and column moves from 1 to -1
    rows = np.tile(np.array([0.6, 0.8, 0.0]), (n, 1))
    swapped = rows.copy()
    swapped[-1] = -swapped[-1]
    a, b = UnitVectorSet(rows), UnitVectorSet(swapped)
    assert abs(gram_sensitivity(a, b) - 2.0 * math.sqrt(2.0 * (n - 1))) <= 1e-12
    assert abs(_upper_change(a, b) - 2.0 * math.sqrt(n - 1)) <= 1e-12


def test_cosine_change_of_a_random_swap_stays_within_both_bounds():
    rng = np.random.default_rng(2024)

    def unit(shape):
        g = rng.standard_normal(shape)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    for trial in range(300):
        n, dim = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        rows = unit((n, dim))
        swapped = rows.copy()
        swapped[rng.integers(n)] = unit(dim)
        a, b = UnitVectorSet(rows), UnitVectorSet(swapped)
        assert gram_sensitivity(a, b) <= 2.0 * math.sqrt(2.0 * (n - 1)) + 1e-12, trial
        assert _upper_change(a, b) <= 2.0 * math.sqrt(n - 1) + 1e-12, trial
