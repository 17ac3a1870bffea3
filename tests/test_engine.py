import math

import numpy as np
import pytest

import perturbproj.engine as engine
from perturbproj.engine import (
    DykstraConvergenceWarning,
    EngineConfig,
    averaged_projection_step,
    default_iterations,
    dykstra_reference,
    perturb_and_alternately_project,
    perturb_and_project,
)
from perturbproj.mechanism import NoiseSpec, PrivacyParams, RandomStream, sample_symmetric_gaussian
from perturbproj.projections import (
    TOL_PROJ,
    DiagClip,
    EntryClip,
    FrobeniusBall,
    PsdCone,
    PsdTrace,
)

HUGE_EPS = PrivacyParams(1e9, 1e-6, 1.0)
NORMAL = PrivacyParams(1.0, 1e-6, 1.0)


def _sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2


def test_default_iterations():
    assert default_iterations(1) == 1
    assert default_iterations(2) == 12
    assert default_iterations(64) == 72
    assert default_iterations(100) == math.ceil(12 * math.log2(100))


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(iterations=0, stream=RandomStream(0))


def test_perturb_and_project_zero_noise_limit():
    a = np.diag([2.0, 0.0])
    out = perturb_and_project(a, PsdTrace(1.0), HUGE_EPS, RandomStream(0))
    assert np.allclose(out.point, np.diag([1.0, 0.0]), atol=1e-6)
    feasible = np.diag([0.4, 0.3])
    out = perturb_and_project(feasible, PsdTrace(1.0), HUGE_EPS, RandomStream(1))
    assert np.allclose(out.point, feasible, atol=1e-6)


def test_perturb_and_project_output_in_set():
    rng = np.random.default_rng(4)
    for i in range(10):
        a = _sym(rng, 6, scale=2.0)
        out = perturb_and_project(a, PsdCone(), NORMAL, RandomStream(100 + i))
        assert out.final_residuals[0] <= TOL_PROJ * (1 + np.linalg.norm(out.point))
        assert out.sigma_used == pytest.approx(5.386772268905419, rel=1e-12)
        assert np.array_equal(out.point, out.point.T)


def test_perturb_and_project_deterministic():
    a = np.diag([1.0, -1.0, 0.5])
    o1 = perturb_and_project(a, EntryClip(1.0), NORMAL, RandomStream(42))
    o2 = perturb_and_project(a, EntryClip(1.0), NORMAL, RandomStream(42))
    assert np.array_equal(o1.point, o2.point)


def test_single_noise_draw_per_release(monkeypatch):
    calls = []

    def tracked(n, spec, stream):
        calls.append(n)
        return sample_symmetric_gaussian(n, spec, stream)

    monkeypatch.setattr(engine, "sample_symmetric_gaussian", tracked)
    a = np.diag([1.0, -1.0, 0.0])
    perturb_and_project(a, PsdCone(), NORMAL, RandomStream(3))
    assert len(calls) == 1
    perturb_and_alternately_project(
        a, (PsdCone(), EntryClip(1.0)), NORMAL,
        EngineConfig(iterations=25, stream=RandomStream(4)))
    assert len(calls) == 2


def test_rejects_asymmetric_and_non_square():
    with pytest.raises(ValueError):
        perturb_and_project(np.array([[1.0, 2.0], [0.0, 1.0]]), PsdCone(), NORMAL, RandomStream(0))
    with pytest.raises(ValueError):
        perturb_and_project(np.ones((2, 3)), PsdCone(), NORMAL, RandomStream(0))


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
    out = perturb_and_alternately_project(
        a, (PsdCone(), EntryClip(1.0)), HUGE_EPS,
        EngineConfig(iterations=40, stream=RandomStream(5)))
    assert np.allclose(out.point, a, atol=1e-6)


def test_alternating_reaches_diagonal_reference():
    # diag(2,-2) projects onto the intersection at diag(1,0); the averaged
    # iteration converges there because the instance is diagonal
    a = np.diag([2.0, -2.0])
    out = perturb_and_alternately_project(
        a, (PsdCone(), EntryClip(1.0)), HUGE_EPS,
        EngineConfig(iterations=200, stream=RandomStream(6)))
    assert np.linalg.norm(out.point - np.diag([1.0, 0.0])) <= 1e-3
    ref = dykstra_reference(a, (PsdCone(), EntryClip(1.0)))
    assert np.allclose(ref, np.diag([1.0, 0.0]), atol=1e-8)


def test_alternating_max_residual_non_increasing():
    sets = (PsdCone(), EntryClip(1.0))
    for s in range(100):
        rng = np.random.default_rng(s)
        cfg = EngineConfig(iterations=40, stream=RandomStream(10_000 + s),
                           record_trajectory=True)
        out = perturb_and_alternately_project(_sym(rng, 8), sets, NORMAL, cfg)
        profile = [max(st.residual(x) for st in sets) for x in out.trajectory]
        for before, after in zip(profile, profile[1:]):
            assert after <= before + 1e-9


def test_trajectory_recording():
    cfg = EngineConfig(iterations=7, stream=RandomStream(8), record_trajectory=True)
    out = perturb_and_alternately_project(
        np.zeros((4, 4)), (PsdCone(), EntryClip(1.0)), NORMAL, cfg)
    assert len(out.trajectory) == 8
    w = sample_symmetric_gaussian(4, NoiseSpec(out.sigma_used), RandomStream(8))
    assert np.array_equal(out.trajectory[0], w)
    no_traj = perturb_and_alternately_project(
        np.zeros((4, 4)), (PsdCone(),), NORMAL,
        EngineConfig(iterations=3, stream=RandomStream(8)))
    assert no_traj.trajectory is None


def test_alternating_deterministic():
    a = np.diag([1.0, 0.3, -0.5])
    cfg = EngineConfig(iterations=30, stream=RandomStream(77))
    o1 = perturb_and_alternately_project(a, (PsdCone(), EntryClip(1.0)), NORMAL, cfg)
    o2 = perturb_and_alternately_project(a, (PsdCone(), EntryClip(1.0)), NORMAL, cfg)
    assert np.array_equal(o1.point, o2.point)


def test_dykstra_member_is_fixed():
    member = np.diag([0.5, 0.25])
    out = dykstra_reference(member, (PsdCone(), EntryClip(1.0)))
    assert np.allclose(out, member, atol=1e-10)


def test_dykstra_single_set_is_closed_form():
    a = np.diag([2.0, -3.0])
    assert np.allclose(dykstra_reference(a, (EntryClip(1.0),)),
                       EntryClip(1.0).project(a), atol=1e-10)


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
