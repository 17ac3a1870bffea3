"""Each marginal release's recorded sensitivity bounds what one record can change.

For every pair of binary records over n <= 5 features, two datasets that share
every other record and differ in that one are built, and the l2 distance of
the statistic a release noises is taken over the coordinates its draw noises:
for the even-k release the upper triangle, diagonal included, of its
n^{k/2} x n^{k/2} matrix T / (m n^{k/2}); for the Gaussian and threshold
baselines all n^k entries of T. It must not exceed the sensitivity the
release records.
"""

import itertools

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

PARAMS = PrivacyParams(1.0, 1e-6)


def _records(n: int, t: int) -> np.ndarray:
    """Every binary record over n features with at most t ones."""
    rows = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
    return rows[rows.sum(axis=1) <= t]


def _even_k_statistic(data: BinaryDataset, k: int) -> np.ndarray:
    side = data.n_features ** (k // 2)
    matrix = parity_tensor(data, k).reshape(side, side) / (float(data.size) * float(side))
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
        assert ratio <= 1.0, f"n={n}: change {ratio:.4f} of the sensitivity"


@pytest.mark.parametrize("release", [release_gaussian_only, release_threshold_baseline])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_baseline_change_stays_within_the_recorded_sensitivity(release, k):
    for n in range(1, 6):
        for t in range(1, n + 1):
            ratio = _audit(release, _baseline_statistic, k, n, t, t)
            assert ratio <= 1.0, f"n={n}, t={t}: change {ratio:.4f} of the sensitivity"
