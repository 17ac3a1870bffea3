"""Euclidean projections onto the structured convex sets used by the releases.

Every set here is one a release projects onto; each exposes project() and
residual(), the Frobenius distance to the projected point. Projections are
idempotent, nonexpansive, and preserve symmetry of symmetric inputs. Every set
has a closed form; the projection onto {X psd, diag(X) <= 1} has none and is
solved by a dual Newton method that certifies its own convergence
(solve_psd_diag_box), with psd_residual and unit_diag_residual for its parts.
The matrix projections (PsdTrace, solve_psd_diag_box, psd_residual) project a
matrix that passes symmetric_matrix as it is, and refuse any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mechanism import finite_positive

# Dual Newton solver for {X psd, diag(X) <= 1}: the KKT residual it must reach, relative
# to max(1, max |A|); its iteration cap; the shift added to the generalized
# Hessian, whose eigenvalues lie in [0, 1]; the Armijo constant and the
# round-off slack of the line search, relative to |theta|. Without the slack
# the search stalls near KKT 1e-7 when theta's decrease drops below round-off.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
NEWTON_SHIFT = 1e-10
ARMIJO_SIGMA = 1e-4
ARMIJO_SLACK = 1e-13
ARMIJO_MAX_HALVINGS = 60


class EigenFailure(RuntimeError):
    """Eigendecomposition failed even after the jittered retry."""


class ProjectionConvergenceError(EigenFailure):
    """An iterative projection hit its cap before its convergence test held."""


class UnsupportedSetError(ValueError):
    """The requested operation needs a closed-form set and got something else."""


def symmetric_matrix(a) -> np.ndarray:
    """a as a float64 array, refused unless it is square and symmetric bit for bit
    (-0.0 against 0.0 is refused): a matrix release noises and writes its upper triangle."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a.view(np.int64), a.T.view(np.int64)):
        raise ValueError("matrix must be symmetric bit for bit")
    return a


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Nearest symmetric matrix, the average with the transpose."""
    return (m + m.T) / 2.0


def _eigh_sym(s: np.ndarray, vectors: bool = True):
    # s is a symmetric float64 matrix, used as it is; retry once with a tiny
    # diagonal jitter before giving up. Without vectors only the eigenvalues
    # are computed (eigvalsh).
    eig = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        return eig(s)
    except np.linalg.LinAlgError:
        try:
            return eig(s + 1e-12 * np.eye(s.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigendecomposition failed for shape {s.shape}") from exc


def project_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Project a vector onto {x : x >= 0, sum(x) <= budget}.

    If clipping negatives already lands inside the budget that clip is the
    projection; otherwise the optimum sits on the face sum(x) == budget and is
    the usual sort-and-threshold simplex projection.
    """
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget!r}")
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    if clipped.sum() <= budget:
        return clipped
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u)
    # >=, not >: past u_1 ~ 2^53 * budget, u_1 - budget rounds to u_1 and a strict
    # test fails even at j = 1; equality (u_j = theta) gives the same theta.
    rho = np.nonzero(u * np.arange(1, v.size + 1) >= (cssv - budget))[0][-1]
    theta = (cssv[rho] - budget) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class DualNewtonResult:
    """Projection onto {X psd, diag(X) <= 1} with the solver's own convergence facts."""

    point: np.ndarray
    iterations: int
    kkt_residual: float


def _divided_differences(lam: np.ndarray) -> np.ndarray:
    """Block Omega[:k, k:] of the divided differences of max(., 0), lam ascending.

    Omega[i, j] = (lam_i+ - lam_j+) / (lam_i - lam_j) is 1 between two positive
    eigenvalues, 0 between two nonpositive ones (equal pairs included), and
    lam_pos / (lam_pos - lam_neg) between one of each; only that mixed k x r
    block, lam[:k] <= 0 < lam[k:], is built.
    """
    k = int(np.searchsorted(lam, 0.0, side="right"))
    pos = lam[k:]
    return pos[None, :] / (pos[None, :] - lam[:k, None])


def _generalized_hessian(lam: np.ndarray, q: np.ndarray, free: np.ndarray):
    """The map d -> V d and the diagonal of V on the free rows, Q_f = q[free].

    V d = diag(Q_f (Omega o Q_f^T Diag(d) Q_f) Q_f^T). Omega is 0 where both
    eigenvalues are nonpositive and 1 where both are positive, so with
    Q = [Q_a Q_b] split at k, only the columns M = Q_f^T D Q_b,f meet a
    nonzero Omega: V d = rowsum((Q_b,f M_b + 2 Q_a,f (Omega_ab o M_a)) o Q_b,f),
    two GEMMs of n n_f r each (Zhao, Sun & Toh, SIOPT 2010), and
    diag V = s^2 + 2 rowsum((Q_a,f^2 Omega_ab) o Q_b,f^2) with s the row sums
    of Q_b,f^2.
    """
    omega2 = 2.0 * _divided_differences(lam)
    k = omega2.shape[0]
    qf = q[free]
    qbf = qf[:, k:]

    def apply(d):
        inner = qf.T @ (d[:, None] * qbf)
        inner[:k] *= omega2
        return np.einsum("ij,ij->i", qf @ inner, qbf)

    qbf2 = qbf * qbf
    sb = np.sum(qbf2, axis=1)
    return apply, sb * sb + np.einsum("ij,ij->i", (qf[:, :k] ** 2) @ omega2, qbf2)


def _conjugate_gradient(apply, rhs, precond, tol):
    """Preconditioned CG for a positive definite apply(); stops at ||r|| <= tol."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / precond
    p = z.copy()
    rz = float(r @ z)
    for _ in range(rhs.size):
        ap = apply(p)
        pap = float(p @ ap)
        if not pap > 0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= tol:
            break
        z = r / precond
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x


def solve_psd_diag_box(m: np.ndarray) -> DualNewtonResult:
    """Nearest matrix to m in {X psd, diag(X) <= 1}, by Newton's method on the dual.

    The dual variable is y >= 0 with X(y) = (A - Diag y)+, A = m; it
    minimizes theta(y) = 1/2 ||X(y)||^2 + sum(y), whose gradient is
    1 - diag X(y). Each iteration is a projected semismooth Newton step:
    coordinates pinned at y_i = 0 by a positive gradient move along the
    gradient, the others solve (V + NEWTON_SHIFT I) d = -gradient by
    diagonally preconditioned CG, where V d = diag(Q (Omega o Q^T Diag(d) Q) Q^T)
    is the generalized Hessian from the divided differences Omega of
    A - Diag y = Q Lambda Q^T (Qi & Sun, SIMAX 2006; Malick, SIMAX 2004).
    A product costs O(n n_f r) for n_f free coordinates and r positive
    eigenvalues (_generalized_hessian). An Armijo search along the projected
    arc max(y + alpha d, 0) keeps theta decreasing up to round-off, and every
    trial point costs one eigh, reused when accepted.

    The solver stops when the KKT residual ||min(y, 1 - diag X)||_inf is at
    most NEWTON_TOL * max(1, max |A|), then maps X to S X S with
    S = diag(min(1, X_ii^(-1/2))): that keeps X psd, makes diag(X) <= 1 hold
    exactly, and moves X by no more than the certified tolerance allows. A
    member of the set, psd up to that tolerance, is returned unchanged, as a
    copy. m must pass symmetric_matrix. Raises ProjectionConvergenceError when
    the test does not hold within NEWTON_MAX_ITER iterations.
    """
    a = symmetric_matrix(m)
    n = a.shape[0]
    tol = NEWTON_TOL * max(1.0, float(np.max(np.abs(a))))
    lam, q = _eigh_sym(a)
    # psd up to the tolerance, so rank-deficient members whose eigh shows
    # round-off below zero count too
    if lam[0] >= -tol and float(np.max(np.diagonal(a))) <= 1.0:
        return DualNewtonResult(point=a.copy(), iterations=0, kkt_residual=0.0)

    y = np.zeros(n)
    theta = 0.5 * float(np.sum(np.maximum(lam, 0.0) ** 2))
    iterations = 0
    while True:
        # Only the r = n - k positive eigenpairs, Q_b = q[:, k:], enter X(y).
        k = int(np.searchsorted(lam, 0.0, side="right"))
        qb, lam_b = q[:, k:], lam[k:]
        grad = 1.0 - (qb * qb) @ lam_b
        kkt = float(np.max(np.abs(np.minimum(y, grad))))
        if kkt <= tol:
            break
        if iterations == NEWTON_MAX_ITER:
            raise ProjectionConvergenceError(
                f"dual Newton projection stopped at KKT residual {kkt:.3g} after "
                f"{NEWTON_MAX_ITER} iterations (tolerance {tol:.3g})")
        iterations += 1

        pinned = (y <= kkt) & (grad > 0.0)
        free = ~pinned
        hessian, diag_v = _generalized_hessian(lam, q, free)
        rhs = -grad[free]
        step = np.where(pinned, -grad, 0.0)
        step[free] = _conjugate_gradient(lambda d: hessian(d) + NEWTON_SHIFT * d, rhs,
                                         diag_v + NEWTON_SHIFT,
                                         min(0.1, kkt) * float(np.linalg.norm(rhs)))

        # Where X(y) has an empty row the Hessian is flat and the step is
        # about 1/NEWTON_SHIFT long; no coordinate of y needs to move further
        # than the spectral radius of A - Diag y, so start the search there.
        longest = float(np.max(np.abs(step)))
        reach = float(np.max(np.abs(lam)))
        alpha = min(1.0, reach / longest) if longest > 0.0 else 1.0
        for _ in range(ARMIJO_MAX_HALVINGS):
            y_next = np.maximum(y + alpha * step, 0.0)
            shifted = a.copy()
            shifted[np.diag_indices(n)] -= y_next
            lam_next, q_next = _eigh_sym(shifted)
            theta_next = (0.5 * float(np.sum(np.maximum(lam_next, 0.0) ** 2))
                          + float(np.sum(y_next)))
            bound = (theta + ARMIJO_SIGMA * float(grad @ (y_next - y))
                     + ARMIJO_SLACK * abs(theta))
            if theta_next <= bound:
                break
            alpha *= 0.5
        else:
            raise ProjectionConvergenceError(
                f"dual Newton line search found no decrease at KKT residual {kkt:.3g}")
        y, lam, q, theta = y_next, lam_next, q_next, theta_next

    x = symmetrize((qb * lam_b) @ qb.T)
    s = 1.0 / np.sqrt(np.maximum(np.diagonal(x), 1.0))
    x *= np.outer(s, s)
    np.fill_diagonal(x, np.minimum(np.diagonal(x), 1.0))
    return DualNewtonResult(point=x, iterations=iterations, kkt_residual=kkt)


def psd_residual(m: np.ndarray) -> float:
    """Frobenius distance from m, which must pass symmetric_matrix, to the psd
    cone: the norm of m's negative eigenvalues."""
    negative = np.minimum(_eigh_sym(symmetric_matrix(m), vectors=False), 0.0)
    return float(np.linalg.norm(negative))


def unit_diag_residual(m: np.ndarray) -> float:
    """Frobenius distance from m to {X : diag(X) in [0, 1]}, off-diagonals free:
    only the diagonal moves."""
    d = np.diagonal(np.asarray(m, dtype=float))
    return float(np.linalg.norm(d - np.clip(d, 0.0, 1.0)))


@dataclass(frozen=True)
class ConvexSet:
    """Base descriptor; subclasses define kind and the closed-form projection."""

    def project(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def residual(self, m: np.ndarray) -> float:
        """Frobenius distance from m to its projection onto this set."""
        return float(np.linalg.norm(np.asarray(m, dtype=float) - self.project(m)))


@dataclass(frozen=True)
class EntryClip(ConvexSet):
    """All arrays with every entry in [-bound, bound]."""

    bound: float = 1.0
    kind: str = field(default="entry-clip", init=False)

    def __post_init__(self):
        finite_positive("bound", self.bound)

    def project(self, m):
        return np.clip(np.asarray(m, dtype=float), -self.bound, self.bound)


@dataclass(frozen=True)
class FrobeniusBall(ConvexSet):
    """All arrays with Frobenius norm at most radius."""

    radius: float = 1.0
    kind: str = field(default="frobenius-ball", init=False)

    def __post_init__(self):
        finite_positive("radius", self.radius)

    def project(self, m):
        """Scale radially onto the ball when outside, else copy through.

        When the sum of squares overflows, the norm is taken of m / max|m| and
        the shrink applied to that, so entries of order 1e300 still shrink to
        order 1 instead of to 0.
        """
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore"):  # an overflow is handled below
            norm = float(np.linalg.norm(m))
        if norm <= self.radius:
            return m.copy()
        if np.isinf(norm):
            m = m / np.max(np.abs(m))
            norm = float(np.linalg.norm(m))
        return m * (self.radius / norm)


@dataclass(frozen=True)
class PsdTrace(ConvexSet):
    """Positive semidefinite matrices with trace at most trace_bound."""

    trace_bound: float = 1.0
    kind: str = field(default="psd-trace", init=False)

    def __post_init__(self):
        finite_positive("trace_bound", self.trace_bound)

    def project(self, m):
        """Project the eigenvalues of m, which must pass symmetric_matrix, onto
        the trace-budget simplex."""
        vals, vecs = _eigh_sym(symmetric_matrix(m))
        vals = project_simplex(vals, self.trace_bound)
        return symmetrize((vecs * vals) @ vecs.T)
