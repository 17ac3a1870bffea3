import math
import re
from pathlib import Path

import numpy as np
import pytest

import perturbproj
from perturbproj.mechanism import (
    PrivacyParams,
    RandomStream,
    calibrate_sigma,
    finite_positive,
    RESOLUTION_BITS,
    integer_at_least,
    refuse_unresolved_noise,
    sample_gaussian,
    sample_symmetric_gaussian,
)


def test_calibrate_sigma_known_values():
    # delta = 2/e^2 makes ln(2/delta) = 2, so sigma = sqrt(4) = 2
    assert calibrate_sigma(PrivacyParams(1.0, 2.0 / math.e**2), 1.0) == pytest.approx(2.0, rel=1e-15)
    assert calibrate_sigma(PrivacyParams(2.0, 2.0 / math.e**2), 1.0) == pytest.approx(1.0, rel=1e-15)
    assert calibrate_sigma(PrivacyParams(1.0, 0.05), 3.0) == pytest.approx(
        3.0 * math.sqrt(2.0 * math.log(40.0)), rel=1e-15)
    # frozen reference for the workhorse setting
    assert calibrate_sigma(PrivacyParams(1.0, 1e-6), 1.0) == pytest.approx(
        5.386772268905419, rel=1e-12)


def test_calibrate_sigma_monotonicity():
    eps_grid = np.linspace(0.1, 5.0, 25)
    sigmas = [calibrate_sigma(PrivacyParams(e, 1e-6), 1.0) for e in eps_grid]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    sens_grid = np.linspace(0.5, 4.0, 25)
    sigmas = [calibrate_sigma(PrivacyParams(1.0, 1e-6), s) for s in sens_grid]
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))


@pytest.mark.parametrize("eps,delta,sens", [
    (0.0, 0.5, 1.0), (-1.0, 0.5, 1.0), (1.0, 0.0, 1.0),
    (1.0, 1.0, 1.0), (1.0, 1.5, 1.0), (1.0, 0.5, 0.0), (1.0, 0.5, -2.0),
    (math.inf, 0.5, 1.0), (math.nan, 0.5, 1.0), (1.0, 0.5, math.inf), (1.0, 0.5, math.nan),
])
def test_privacy_params_rejects_bad_values(eps, delta, sens):
    with pytest.raises(ValueError):
        calibrate_sigma(PrivacyParams(eps, delta), sens)


@pytest.mark.parametrize("bad", [0.5, math.nan, True, -1], ids=["half", "nan", "bool", "negative"])
def test_random_stream_refuses_what_is_not_a_nonnegative_integer(bad):
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {bad!r}$"):
        RandomStream(bad)
    with pytest.raises(ValueError, match=f"^stream_index must be an integer >= 0, got {bad!r}$"):
        RandomStream(0, bad)


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, np.float64(3.0), "3", None, 1, np.int64(0)])
def test_integer_at_least_refuses_bools_floats_strings_and_small_values(bad):
    message = f"^k must be an integer >= 2, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        integer_at_least("k", bad, 2)


def test_integer_at_least_returns_python_and_numpy_integers_as_int():
    for value in (2, 7, np.int64(7), np.uint8(7), np.int32(2)):
        got = integer_at_least("k", value, 2)
        assert got == value and type(got) is int


@pytest.mark.parametrize("bad", [0, -1.5, math.inf, -math.inf, math.nan])
def test_finite_positive_refuses_what_is_not_finite_and_positive(bad):
    message = f"^scale must be finite and positive, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        finite_positive("scale", bad)
    assert finite_positive("scale", 1e-300) == 1e-300 and finite_positive("scale", 3) == 3


def test_integer_and_scale_rules_are_written_only_in_mechanism():
    # every module checks its integers and scales through the two functions above
    for path in sorted(Path(perturbproj.__file__).parent.glob("*.py")):
        if path.name == "mechanism.py":
            continue
        text = path.read_text()
        for rule in ("operator.index", "must be an integer", "must be finite and positive"):
            assert rule not in text, f"{path.name} writes its own rule: {rule!r}"


def test_random_stream_stores_numpy_integers_as_int():
    stream = RandomStream(np.int64(7), np.uint8(2))
    assert stream == RandomStream(7, 2)
    assert type(stream.seed) is int and type(stream.stream_index) is int


def test_random_stream_reproducible():
    a = sample_gaussian(64, 1.0, RandomStream(7, 3))
    b = sample_gaussian(64, 1.0, RandomStream(7, 3))
    assert np.array_equal(a, b)
    c = sample_gaussian(64, 1.0, RandomStream(7, 4))
    assert not np.array_equal(a, c)


def test_random_stream_draws_from_philox():
    # a release publishes long runs of raw generator output (every zero-count
    # entry is sigma*z); Philox, unlike PCG64 or SFC64, resists recovering its state
    assert isinstance(RandomStream(5).generator().bit_generator, np.random.Philox)


def test_random_stream_shifted():
    s = RandomStream(11, 2)
    assert s.shifted(3) == RandomStream(11, 5)
    assert s.shifted(0) == s
    with pytest.raises(ValueError):
        RandomStream(1, -1)


@pytest.mark.parametrize("sigma", [0.0, -0.5, math.inf, math.nan])
def test_samplers_refuse_a_sigma_that_is_not_finite_and_positive(sigma):
    # sigma = 0 would release the statistic itself, with no noise at all
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        sample_gaussian(4, sigma, RandomStream(0))
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        sample_symmetric_gaussian(2, sigma, RandomStream(0))


def test_symmetric_gaussian_names_a_bad_side_before_a_bad_sigma():
    with pytest.raises(ValueError, match="matrix side must be an integer >= 1"):
        sample_symmetric_gaussian(0, 0.0, RandomStream(0))


def test_noise_must_be_finite():
    # a finite sigma whose scaled draws overflow float64
    with pytest.raises(ValueError, match="overflows"):
        sample_gaussian(100, 1e308, RandomStream(0))
    with pytest.raises(ValueError, match="overflows"):
        sample_symmetric_gaussian(20, 1e308, RandomStream(0))


def test_noise_below_the_statistics_resolution_is_refused_from_the_edge_on():
    # at sigma = 1, gamma = 2^-RESOLUTION_BITS and sums from 2^53 gamma on are
    # refused; just below sigma = 1 gamma halves, and so does the edge
    edge = 2.0 ** (53 - RESOLUTION_BITS)
    noise = np.array([0.5, -0.25])
    refuse_unresolved_noise(np.array([edge - 1.0, 0.0]), noise, 1.0)
    refuse_unresolved_noise(np.array([np.inf, -np.inf, edge - 1.0]), noise, 1.0)
    below_one = float(np.nextafter(1.0, 0.0))
    refuse_unresolved_noise(np.array([edge / 2 - 1.0]), noise, below_one)
    for statistic, sigma in [(np.array([0.0, -(edge - 0.5)]), 1.0),
                             (np.array([np.inf, edge - 0.5]), 1.0),
                             (np.array([edge / 2 - 0.5]), below_one)]:
        with pytest.raises(ValueError, match=r"^noise of scale sigma=1 is below the float64 "
                                             r"resolution of a statistic with entries up to "):
            refuse_unresolved_noise(statistic, noise, sigma)


def test_sample_gaussian_moments():
    out = sample_gaussian(10**5, 2.0, RandomStream(7))
    assert abs(float(out.mean())) < 0.05
    assert abs(float(out.std()) - 2.0) < 0.05


def test_sample_gaussian_shape_tuple():
    out = sample_gaussian((3, 4, 2), 1.0, RandomStream(5))
    assert out.shape == (3, 4, 2)


def test_symmetric_gaussian_exact_symmetry():
    w = sample_symmetric_gaussian(15, 1.0, RandomStream(2))
    assert np.array_equal(w, w.T)


def test_symmetric_gaussian_spectral_norm_scale():
    # mirrored unit-variance symmetric noise has spectral norm near 2*sqrt(n)
    n = 200
    norms = [
        float(np.linalg.norm(
            sample_symmetric_gaussian(n, 1.0, RandomStream(3, i)), ord=2))
        for i in range(20)
    ]
    mean = float(np.mean(norms))
    target = 2.0 * math.sqrt(n)
    assert abs(mean - target) <= 0.15 * target


def test_symmetric_gaussian_entry_variance():
    n = 60
    w = sample_symmetric_gaussian(n, 1.5, RandomStream(9))
    upper = w[np.triu_indices(n)]
    assert abs(float(upper.std()) - 1.5) < 0.1


def test_symmetric_gaussian_matches_triu_indices_construction():
    for n in (1, 2, 5, 64, 300):
        stream = RandomStream(4, n)
        rows, cols = np.triu_indices(n)
        ref = np.zeros((n, n))
        ref[rows, cols] = stream.generator().standard_normal(rows.size) * 1.7
        ref[cols, rows] = ref[rows, cols]
        w = sample_symmetric_gaussian(n, 1.7, stream)
        assert w.tobytes() == ref.tobytes()
