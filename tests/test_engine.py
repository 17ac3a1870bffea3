import tracemalloc

import numpy as np
import pytest

import perturbproj.engine as engine
from perturbproj.engine import (
    DykstraConvergenceWarning,
    averaged_projection_step,
    dykstra_reference,
    perturb_and_alternately_project,
    perturb_and_project,
    perturb_symmetric,
)
from perturbproj.marginals import BinaryDataset, parity_tensor, release_even_k
from perturbproj.mechanism import PrivacyParams, RandomStream, sample_symmetric_gaussian
from perturbproj.projections import EntryClip, FrobeniusBall, PsdTrace
from perturbproj.similarity import (UnitVectorSet, gram, release_cosine_exact,
                                    release_cosine_practical)
from reference import TOL_PROJ, DiagClip, PsdCone

HUGE_EPS = PrivacyParams(1e9, 1e-6)
NORMAL = PrivacyParams(1.0, 1e-6)


def _sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2


def test_iterations_validation():
    for iterations in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="iterations must be an integer >= 1"):
            perturb_and_alternately_project(np.eye(2), (PsdCone(),), NORMAL, 1.0,
                                            RandomStream(0), iterations)


def test_perturb_symmetric_returns_a_plus_w():
    a = _sym(np.random.default_rng(8), 4)
    noisy, sigma = perturb_symmetric(a, NORMAL, 1.0, RandomStream(8))
    w = sample_symmetric_gaussian(4, sigma, RandomStream(8))
    assert np.array_equal(noisy, a + w)


def test_perturb_symmetric_peaks_at_two_matrices_and_leaves_its_argument_unchanged():
    # the draw's array is the only n x n float64 array allocated; a is added into it
    n = 400
    a = _sym(np.random.default_rng(14), n)
    before = a.tobytes()
    tracemalloc.start()
    try:
        noisy, sigma = perturb_symmetric(a, NORMAL, 1.0, RandomStream(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n, peak / (8 * n * n)
    assert a.tobytes() == before
    w = sample_symmetric_gaussian(n, sigma, RandomStream(15))
    assert noisy.tobytes() == (a + w).tobytes()


def test_perturb_and_project_zero_noise_limit():
    a = np.diag([2.0, 0.0])
    point, _ = perturb_and_project(a, PsdTrace(1.0), HUGE_EPS, 1.0, RandomStream(0))
    assert np.allclose(point, np.diag([1.0, 0.0]), atol=1e-6)
    feasible = np.diag([0.4, 0.3])
    point, _ = perturb_and_project(feasible, PsdTrace(1.0), HUGE_EPS, 1.0, RandomStream(1))
    assert np.allclose(point, feasible, atol=1e-6)


def test_perturb_and_project_output_in_set():
    rng = np.random.default_rng(4)
    for i in range(10):
        a = _sym(rng, 6, scale=2.0)
        point, sigma = perturb_and_project(a, PsdCone(), NORMAL, 1.0, RandomStream(100 + i))
        assert PsdCone().residual(point) <= TOL_PROJ * (1 + np.linalg.norm(point))
        assert sigma == pytest.approx(5.386772268905419, rel=1e-12)
        assert np.array_equal(point, point.T)


def test_perturb_and_project_deterministic():
    a = np.diag([1.0, -1.0, 0.5])
    p1, _ = perturb_and_project(a, EntryClip(1.0), NORMAL, 1.0, RandomStream(42))
    p2, _ = perturb_and_project(a, EntryClip(1.0), NORMAL, 1.0, RandomStream(42))
    assert np.array_equal(p1, p2)


def test_single_noise_draw_per_release(monkeypatch):
    calls = []

    def tracked(n, sigma, stream):
        calls.append(n)
        return sample_symmetric_gaussian(n, sigma, stream)

    monkeypatch.setattr(engine, "sample_symmetric_gaussian", tracked)
    a = np.diag([1.0, -1.0, 0.0])
    perturb_and_project(a, PsdCone(), NORMAL, 1.0, RandomStream(3))
    assert len(calls) == 1
    perturb_and_alternately_project(a, (PsdCone(), EntryClip(1.0)), NORMAL, 1.0,
                                    RandomStream(4), 25)
    assert len(calls) == 2


def test_rejects_asymmetric_and_non_square():
    with pytest.raises(ValueError):
        perturb_and_project(np.array([[1.0, 2.0], [0.0, 1.0]]), PsdCone(), NORMAL, 1.0,
                            RandomStream(0))
    with pytest.raises(ValueError):
        perturb_and_project(np.ones((2, 3)), PsdCone(), NORMAL, 1.0, RandomStream(0))


def test_averaged_step_examples():
    x = np.diag([2.0, -2.0])
    stepped = averaged_projection_step(x, (PsdCone(), EntryClip(1.0)))
    assert np.allclose(stepped, np.diag([1.5, -0.5]), atol=1e-12)
    member = np.diag([0.5, 0.25])
    assert np.allclose(averaged_projection_step(member, (PsdCone(), EntryClip(1.0))), member)
    single = averaged_projection_step(np.diag([3.0, -1.0]), (EntryClip(1.0),))
    assert np.allclose(single, np.diag([1.0, -1.0]))


def test_alternating_zero_noise_fixed_point():
    a = np.diag([0.5, 0.25])
    point, _ = perturb_and_alternately_project(
        a, (PsdCone(), EntryClip(1.0)), HUGE_EPS, 1.0, RandomStream(5), 40)
    assert np.allclose(point, a, atol=1e-6)


def test_alternating_reaches_diagonal_reference():
    # diag(2,-2) projects onto the intersection at diag(1,0); the averaged
    # iteration converges there because the instance is diagonal
    a = np.diag([2.0, -2.0])
    point, _ = perturb_and_alternately_project(
        a, (PsdCone(), EntryClip(1.0)), HUGE_EPS, 1.0, RandomStream(6), 200)
    assert np.linalg.norm(point - np.diag([1.0, 0.0])) <= 1e-3
    ref = dykstra_reference(a, (PsdCone(), EntryClip(1.0)))
    assert np.allclose(ref, np.diag([1.0, 0.0]), atol=1e-8)


def test_alternating_max_residual_non_increasing():
    sets = (PsdCone(), EntryClip(1.0))
    for s in range(100):
        rng = np.random.default_rng(s)
        x, _ = perturb_symmetric(_sym(rng, 8), NORMAL, 1.0, RandomStream(10_000 + s))
        profile = [max(st.residual(x) for st in sets)]
        for _ in range(40):
            x = averaged_projection_step(x, sets)
            profile.append(max(st.residual(x) for st in sets))
        for before, after in zip(profile, profile[1:]):
            assert after <= before + 1e-9


def test_alternating_deterministic():
    a = np.diag([1.0, 0.3, -0.5])
    sets = (PsdCone(), EntryClip(1.0))
    p1, _ = perturb_and_alternately_project(a, sets, NORMAL, 1.0, RandomStream(77), 30)
    p2, _ = perturb_and_alternately_project(a, sets, NORMAL, 1.0, RandomStream(77), 30)
    assert np.array_equal(p1, p2)


def test_dykstra_member_is_fixed():
    member = np.diag([0.5, 0.25])
    out = dykstra_reference(member, (PsdCone(), EntryClip(1.0)))
    assert np.allclose(out, member, atol=1e-10)


def test_dykstra_single_set_is_closed_form():
    a = np.diag([2.0, -3.0])
    assert np.allclose(dykstra_reference(a, (EntryClip(1.0),)),
                       EntryClip(1.0).project(a), atol=1e-10)
    with pytest.raises(ValueError, match="^need at least one set$"):
        dykstra_reference(np.eye(2), [])


def test_dykstra_variational_certificate():
    # Dykstra's limit is the nearest intersection point: check the projection
    # inequality <a - p, z - p> <= 0 against random feasible points z
    rng = np.random.default_rng(9)
    sets = (PsdCone(), DiagClip(0.0, 1.0))
    a = _sym(rng, 6, scale=2.0)
    p = dykstra_reference(a, sets)
    assert max(s.residual(p) for s in sets) <= 1e-7
    for _ in range(40):
        g = rng.standard_normal((6, 6))
        z = g @ g.T
        top = float(z.diagonal().max())
        if top > 1.0:
            z = z / top  # psd stays psd under positive scaling, diagonal <= 1
        gap = float(np.sum((a - p) * (z - p)))
        assert gap <= 1e-6 * (1 + np.linalg.norm(a)) * (1 + np.linalg.norm(z))


def test_dykstra_warns_when_iteration_capped():
    rng = np.random.default_rng(10)
    a = _sym(rng, 6, scale=3.0)
    with pytest.warns(DykstraConvergenceWarning):
        dykstra_reference(a, (PsdCone(), EntryClip(1.0)), max_iter=3)


def test_alternating_error_to_reference_shrinks():
    # distance to the exact intersection projection trends down in t
    sets = (PsdCone(), EntryClip(1.0))
    slopes = []
    for s in range(10):
        rng = np.random.default_rng(500 + s)
        start = _sym(rng, 8)
        ref = dykstra_reference(start, sets)
        x = start.copy()
        dists = {}
        for t in range(1, 51):
            x = averaged_projection_step(x, sets)
            if t % 5 == 0:
                dists[t] = float(np.linalg.norm(x - ref))
        ts = np.array(sorted(dists))
        logs = np.log([dists[t] for t in ts])
        slope = np.polyfit(ts, logs, 1)[0]
        slopes.append(slope)
    assert all(s < 0 for s in slopes)


def test_perturb_symmetric_accepts_only_a_finite_matrix_symmetric_bit_for_bit():
    # a differing bit between a and a^T is refused, -0.0 against 0.0 and a 5e-9
    # gap included, and so is a NaN or infinite entry; an accepted a gets a + W,
    # which is (a + a^T) / 2 + W bit for bit
    base = _sym(np.random.default_rng(12), 4)

    def with_entries(*entries):
        a = base.copy()
        for (i, j), value in entries:
            a[i, j] = value
        return a

    accepted = {
        "exact": base,
        "minus-zero-pair": with_entries(((0, 1), -0.0), ((1, 0), -0.0)),
    }
    asymmetric = {
        "5e-9-gap": with_entries(((0, 1), base[0, 1] + 5e-9)),
        "1e-6-gap": with_entries(((0, 1), base[0, 1] + 1e-6)),
        "signed-zeros": with_entries(((0, 1), -0.0), ((1, 0), 0.0)),
        "inf-against-minus-inf": with_entries(((0, 1), np.inf), ((1, 0), -np.inf)),
        "inf-against-finite": with_entries(((0, 1), np.inf)),
    }
    non_finite = {
        "nan-diagonal": with_entries(((2, 2), np.nan)),
        "nan-pair": with_entries(((0, 1), np.nan), ((1, 0), np.nan)),
        "inf-pair": with_entries(((0, 1), np.inf), ((1, 0), np.inf)),
        "inf-diagonal": with_entries(((3, 3), -np.inf)),
    }
    for name, a in accepted.items():
        noisy, sigma = perturb_symmetric(a, NORMAL, 1.0, RandomStream(3))
        w = sample_symmetric_gaussian(4, sigma, RandomStream(3))
        assert noisy.tobytes() == (a + w).tobytes() == ((a + a.T) / 2.0 + w).tobytes(), name
    for name, a in asymmetric.items():
        with pytest.raises(ValueError, match="^matrix must be symmetric bit for bit$"):
            perturb_symmetric(a, NORMAL, 1.0, RandomStream(3))
    for name, a in non_finite.items():
        with pytest.raises(ValueError, match="^the statistic has a non-finite entry"):
            perturb_symmetric(a, NORMAL, 1.0, RandomStream(3))


def _finite_and_symmetric_bit_for_bit(m: np.ndarray) -> bool:
    return bool(np.isfinite(m).all()) and m.tobytes() == np.ascontiguousarray(m.T).tobytes()


@pytest.mark.parametrize("n", [1, 5, 40])
def test_gram_and_both_cosine_releases_are_finite_and_symmetric_bit_for_bit(n):
    # the noise draw refuses, and write_release_csv writes one triangle of, any other matrix
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, 7))
    vectors = UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))
    assert _finite_and_symmetric_bit_for_bit(gram(vectors))
    for epsilon in (0.1, 1.0, 10.0):
        for release in (release_cosine_exact, release_cosine_practical):
            matrix = release(vectors, PrivacyParams(epsilon, 1e-6), 2.0, RandomStream(n)).matrix
            assert _finite_and_symmetric_bit_for_bit(matrix), (release.__name__, epsilon)


@pytest.mark.parametrize("k, n", [(2, 12), (4, 6)])
def test_even_k_flattening_and_release_are_finite_and_symmetric_bit_for_bit(k, n):
    rng = np.random.default_rng(k)
    data = BinaryDataset((rng.random((50, n)) < 0.3).astype(np.uint8),
                         counts=rng.integers(1, 5, size=50))
    side = n ** (k // 2)
    flat = parity_tensor(data, k).reshape(side, side) / (float(data.size) * float(side))
    assert _finite_and_symmetric_bit_for_bit(flat)
    tensor = release_even_k(data, k, NORMAL, RandomStream(k)).tensor
    assert _finite_and_symmetric_bit_for_bit(tensor.reshape(side, side))
