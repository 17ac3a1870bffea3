import numpy as np
import pytest

from perturbproj import projections
from perturbproj.engine import dykstra_reference
from perturbproj.mechanism import (
    PrivacyParams,
    RandomStream,
    calibrate_sigma,
    sample_symmetric_gaussian,
)
from perturbproj.projections import (
    EigenFailure,
    EntryClip,
    FrobeniusBall,
    ProjectionConvergenceError,
    PsdTrace,
    project_simplex,
    psd_residual,
    solve_psd_diag_box,
    symmetric_matrix,
    _generalized_hessian,
    unit_diag_residual,
)
from perturbproj.similarity import UnitVectorSet, gram
from reference import TOL_PROJ, DiagClip, PsdCone, PsdDiagBox, symmetrize


def _sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return (g + g.T) / 2


def test_project_psd_examples():
    assert np.allclose(PsdCone().project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(PsdCone().project(flip), np.full((2, 2), 0.5), atol=1e-12)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 5))
    psd = g @ g.T
    assert np.linalg.norm(PsdCone().project(psd) - psd) <= TOL_PROJ * (1 + np.linalg.norm(psd))


def test_project_entry_clip_examples():
    m = np.array([[2.5, 0.0], [0.0, -3.0]])
    assert np.array_equal(EntryClip(1.0).project(m), np.array([[1.0, 0.0], [0.0, -1.0]]))
    inside = np.array([[0.3, -0.2], [-0.2, 0.9]])
    assert np.array_equal(EntryClip(1.0).project(inside), inside)
    assert np.array_equal(EntryClip(0.5).project(np.ones((2, 2))), np.full((2, 2), 0.5))


def test_project_frobenius_ball_examples():
    m = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert np.allclose(FrobeniusBall(1.0).project(m), m / 2.0)
    assert np.array_equal(FrobeniusBall(1.0).project(np.zeros((3, 3))), np.zeros((3, 3)))
    small = np.array([[0.9, 0.0], [0.0, 0.0]])
    assert np.array_equal(FrobeniusBall(1.0).project(small), small)
    # a sum of squares past float64's range still shrinks onto the sphere
    huge = np.full((3, 3), 1e300)
    assert np.allclose(FrobeniusBall(3.0).project(huge), np.ones((3, 3)), rtol=1e-12)


def test_project_simplex_examples():
    assert np.allclose(project_simplex(np.array([0.5, 0.3]), 1.0), [0.5, 0.3])
    assert np.allclose(project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(project_simplex(np.array([1.0, 1.0, -1.0]), 1.0), [0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="^budget must be positive, got 0.0$"):
        project_simplex(np.ones(3), 0.0)


# Each vector with its projection onto {x >= 0, sum(x) <= 1}. max(v) - 1 rounds
# to max(v) here, so thresholding v itself would cut every entry to 0.
PAST_2_POW_53 = {(1e16, 5e15, -1e16): [1.0, 0.0, 0.0], (1e17, 3e16, 2e16): [1.0, 0.0, 0.0],
                 (1e16, 1e16): [0.5, 0.5]}


@pytest.mark.parametrize("v", list(PAST_2_POW_53))
def test_project_simplex_is_feasible_past_2_pow_53_times_the_budget(v):
    assert np.array_equal(project_simplex(np.array(v), 1.0), PAST_2_POW_53[v])


def test_project_simplex_against_grid_search():
    # brute-force the nearest point of {x >= 0, sum <= 1} on a fine 3-d grid
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 61)
    pts = np.array([(a, b, c) for a in grid for b in grid for c in grid
                    if a + b + c <= 1.0 + 1e-12])
    for _ in range(10):
        v = rng.standard_normal(3) * 1.5
        ours = project_simplex(v, 1.0)
        best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
        assert np.linalg.norm(ours - best) <= 0.05  # grid resolution
        assert ours.min() >= 0 and ours.sum() <= 1 + 1e-12


def test_project_psd_trace_examples():
    assert np.allclose(PsdTrace(1.0).project(np.diag([0.5, 0.25])), np.diag([0.5, 0.25]))
    assert np.allclose(PsdTrace(1.0).project(np.diag([2.0, 0.0])), np.diag([1.0, 0.0]))
    assert np.allclose(PsdTrace(1.0).project(np.diag([1.0, 1.0, -1.0])),
                       np.diag([0.5, 0.5, 0.0]), atol=1e-12)


def test_residual_examples():
    assert PsdCone().residual(np.diag([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    assert EntryClip(1.0).residual(np.array([[2.0, 0.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(2)
    member = PsdCone().project(_sym(rng, 4))
    assert PsdCone().residual(member) <= TOL_PROJ


def test_psd_residual_from_eigenvalues_matches_distance_to_projection(monkeypatch):
    rng = np.random.default_rng(3)
    cases, asymmetric = [], []
    for n in (1, 2, 5, 17, 40):
        for scale in (1e-3, 1.0, 1e4):
            cases.append(_sym(rng, n, scale))
            (cases if n == 1 else asymmetric).append(rng.standard_normal((n, n)) * scale)
    asymmetric.append(PsdCone().project(_sym(rng, 6)) + np.triu(np.ones((6, 6)), 1))
    expected = [float(np.linalg.norm(m - PsdCone().project(m))) for m in cases]

    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("the psd residual needs eigenvalues only")

    monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
    for m, old in zip(cases, expected):
        assert abs(PsdCone().residual(m) - old) <= 1e-12 * float(np.linalg.norm(m))
    for m in asymmetric:
        with pytest.raises(ValueError, match="^matrix must be symmetric bit for bit$"):
            psd_residual(m)


@pytest.mark.parametrize("project", [PsdTrace(1.0).project, solve_psd_diag_box, psd_residual],
                         ids=["psd-trace", "psd-diag-box", "psd-residual"])
def test_matrix_projections_refuse_a_matrix_not_square_and_symmetric_bit_for_bit(project):
    for m in (np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \("):
            project(m)
    for m in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.0, -0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="^matrix must be symmetric bit for bit$"):
            project(m)


def test_unit_diag_residual_matches_the_distance_to_the_diagonal_clip():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8, 17, 40):
        for _ in range(200):
            m = 0.5 + rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 4.0)
            want = DiagClip(0.0, 1.0).residual(m)
            assert abs(unit_diag_residual(m) - want) <= 1e-12 * want


ALL_SETS = [
    PsdCone(),
    EntryClip(1.0),
    EntryClip(0.3),
    FrobeniusBall(1.0),
    FrobeniusBall(4.0),
    PsdTrace(1.0),
    PsdTrace(2.5),
    DiagClip(0.0, 1.0),
    PsdDiagBox(),
]


def _feasible_point(set_, rng, n):
    """A random member, built so it is strictly inside or on the boundary."""
    x = _sym(rng, n, scale=2.0)
    return set_.project(x)


@pytest.mark.parametrize("set_", ALL_SETS, ids=lambda s: f"{s.kind}")
def test_projection_property_suite(set_):
    rng = np.random.default_rng(hash(set_.kind) % 2**32)
    n = 6
    for _ in range(50):
        x = _sym(rng, n, scale=3.0)
        y = _sym(rng, n, scale=3.0)
        px, py = set_.project(x), set_.project(y)
        # idempotence
        assert np.linalg.norm(set_.project(px) - px) <= TOL_PROJ * (1 + np.linalg.norm(px))
        # membership of the image
        assert set_.residual(px) <= TOL_PROJ * (1 + np.linalg.norm(px))
        # non-expansiveness
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1 + 1e-10) + 1e-12
        # variational inequality against a random member
        z = _feasible_point(set_, rng, n)
        gap = float(np.sum((x - px) * (z - px)))
        assert gap <= TOL_PROJ * (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(z))
        # symmetry is preserved exactly
        assert np.array_equal(px, px.T)


def test_diag_clip_touches_only_diagonal():
    rng = np.random.default_rng(3)
    x = _sym(rng, 5, scale=3.0)
    p = DiagClip(0.0, 1.0).project(x)
    off = ~np.eye(5, dtype=bool)
    assert np.array_equal(p[off], x[off])
    assert p.diagonal().min() >= 0.0 and p.diagonal().max() <= 1.0


def test_entry_clip_works_on_vectors():
    v = np.array([2.0, -0.5, -7.0])
    assert np.array_equal(EntryClip(1.0).project(v), np.array([1.0, -0.5, -1.0]))


def test_frobenius_ball_works_on_vectors():
    v = np.array([3.0, 4.0])
    assert np.allclose(FrobeniusBall(1.0).project(v), v / 5.0)


def test_eigen_failure_on_non_finite():
    with pytest.raises((EigenFailure, ValueError)):
        PsdCone().project(np.full((3, 3), np.nan))


def test_set_parameter_validation():
    for bad in (EntryClip, FrobeniusBall, PsdTrace):
        with pytest.raises(ValueError):
            bad(0.0)
        with pytest.raises(ValueError):
            bad(-1.0)
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite and positive"):
                bad(value)
    with pytest.raises(ValueError):
        DiagClip(1.0, 0.0)


def _noisy_gram(n, epsilon, seed):
    """Gram matrix of n random unit vectors plus the noise of one release."""
    g = np.random.default_rng(seed).standard_normal((n, 3))
    v = g / np.linalg.norm(g, axis=1, keepdims=True)
    sigma = calibrate_sigma(PrivacyParams(epsilon, 1e-6), 1.0)
    return v @ v.T + sample_symmetric_gaussian(n, sigma, RandomStream(seed + 100))


# Dykstra from the noisy matrix is the reference; at n=32 and small epsilon it
# needs tens of seconds per input, so those cases are left out.
NEWTON_CASES = ([(n, eps) for n in (1, 2, 8, 32) for eps in (1e12, 10.0, 1.0)]
                + [(n, eps) for n in (1, 2, 8) for eps in (0.1, 0.01)])


@pytest.mark.parametrize("n,epsilon", NEWTON_CASES)
def test_psd_diag_box_matches_dykstra_from_the_noisy_matrix(n, epsilon):
    for seed in range(2):
        a = symmetrize(_noisy_gram(n, epsilon, seed))
        scale = max(1.0, float(np.max(np.abs(a))))
        x = PsdDiagBox().project(a)
        ref = dykstra_reference(a, (PsdCone(), DiagClip(0.0, 1.0)))
        assert np.max(np.abs(x - ref)) <= 1e-9 * scale
        assert np.array_equal(x, x.T)
        assert x.diagonal().max() <= 1.0
        assert np.linalg.eigvalsh(x)[0] >= -1e-10 * scale


def test_psd_diag_box_returns_a_member_unchanged():
    rng = np.random.default_rng(5)
    for rank in (3, 6):  # rank 3: eigh puts round-off below zero
        g = rng.standard_normal((6, rank))
        member = g @ g.T
        member = member / member.diagonal().max()
        assert np.array_equal(PsdDiagBox().project(member), member)
    solved = solve_psd_diag_box(np.eye(3))
    assert np.array_equal(solved.point, np.eye(3))
    assert solved.iterations == 0 and solved.kkt_residual == 0.0


def test_psd_diag_box_iteration_cap_raises_eigen_failure_subclass(monkeypatch):
    assert issubclass(ProjectionConvergenceError, EigenFailure)
    a = symmetrize(_noisy_gram(8, 0.01, 0))
    monkeypatch.setattr(projections, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ProjectionConvergenceError, match="KKT residual"):
        solve_psd_diag_box(a)


def _dense_hessian(lam, q, free, d):
    """diag(Q_f (Omega o Q_f^T Diag(d) Q_f) Q_f^T) with the full n x n Omega."""
    pos = np.maximum(lam, 0.0)
    gap = lam[:, None] - lam[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        omega = (pos[:, None] - pos[None, :]) / gap
    ties = gap == 0.0
    omega[ties] = np.broadcast_to(lam[:, None] > 0.0, gap.shape)[ties]
    qf = q[free]
    return np.diagonal(qf @ (omega * ((qf.T * d) @ qf)) @ qf.T)


@pytest.mark.parametrize("r", [0, 1, 8, 15, 16])
def test_low_rank_hessian_matches_the_dense_formula(r):
    n = 16
    rng = np.random.default_rng(r)
    a = _sym(rng, n)
    lam = np.linalg.eigvalsh(a)
    # shift so exactly r eigenvalues stay positive
    shift = np.concatenate([[lam[0] - 1.0], (lam[1:] + lam[:-1]) / 2.0, [lam[-1] + 1.0]])[n - r]
    lam, q = np.linalg.eigh(a - shift * np.eye(n))
    assert np.count_nonzero(lam > 0) == r
    for free in [np.ones(n, dtype=bool)] + [rng.random(n) < p for p in (0.3, 0.6, 0.9)]:
        free[rng.integers(n)] = True
        hessian, diag_v = _generalized_hessian(lam, q, free)
        d = rng.standard_normal(int(free.sum()))
        want = _dense_hessian(lam, q, free, d)
        assert np.linalg.norm(hessian(d) - want) <= 1e-12 * np.linalg.norm(want)
        unit = np.eye(free.sum())
        want_diag = np.array([_dense_hessian(lam, q, free, e)[i] for i, e in enumerate(unit)])
        assert np.linalg.norm(diag_v - want_diag) <= 1e-12 * np.linalg.norm(want_diag)


@pytest.mark.parametrize("n,epsilon,iterations", [(64, 0.1, 10), (128, 1.0, 8)])
def test_psd_diag_box_iteration_count_is_pinned(n, epsilon, iterations):
    solved = solve_psd_diag_box(symmetrize(_noisy_gram(n, epsilon, 0)))
    assert solved.iterations == iterations


def _product(case):
    """The output of one case and the bound its diagonal must stay under."""
    kind, arg = case.rsplit("-", 1)
    rng = np.random.default_rng(6)
    if kind == "gram":
        g = rng.standard_normal((40, 16))
        rows = g / np.linalg.norm(g, axis=1, keepdims=True)
        if arg == "fortran":
            rows = np.asfortranarray(rows)
        elif arg == "strided":  # every other row and column of a larger array
            wide = np.zeros((80, 32))
            wide[::2, ::2] = rows
            rows = wide[::2, ::2]
            assert not (rows.flags.c_contiguous or rows.flags.f_contiguous)
        return gram(UnitVectorSet(rows)), np.inf
    if kind == "psd-diag-box":
        return solve_psd_diag_box(_noisy_gram(int(arg), 1.0, 2)).point, 1.0
    if arg == "r0":  # negative definite: every eigenvalue projects to 0
        g = rng.standard_normal((6, 6))
        return PsdTrace(1.0).project(-(g @ g.T) - np.eye(6)), np.inf
    if arg == "r1":
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        return PsdTrace(1.0).project(symmetrize((q * [3.0, -1, -1, -1, -1, -1]) @ q.T)), np.inf
    side = int(arg)  # about half the eigenvalues kept at side 300
    return PsdTrace(1.0).project(_sym(rng, side) / (10 * side) + 0.5 / side), np.inf


# Each output is one product B B^T, whose bit symmetry rests on numpy computing a
# matrix times its own transpose as one symmetric rank-k update (or, for a strided
# operand, the same dot products in the same order).
@pytest.mark.parametrize("case", ["gram-c", "gram-fortran", "gram-strided", "psd-trace-r0",
                                  "psd-trace-r1", "psd-trace-1", "psd-trace-300",
                                  "psd-diag-box-1", "psd-diag-box-8", "psd-diag-box-128"])
def test_product_outputs_are_symmetric_bit_for_bit_with_a_nonnegative_diagonal(case):
    point, upper = _product(case)
    symmetric_matrix(point)
    assert 0.0 <= point.diagonal().min() and point.diagonal().max() <= upper
    if case == "psd-trace-r0":
        assert not point.any()
    if case == "psd-trace-r1":
        assert np.linalg.matrix_rank(point) == 1
