"""Euclidean projections onto the structured convex sets used by the releases.

Every set here exposes project() and residual(). Projections are idempotent,
nonexpansive, and preserve symmetry of symmetric inputs; residuals are
Frobenius distances to the projected point, so residual(m) == 0 (up to
TOL_PROJ) exactly when m is already in the set. All sets but PsdDiagBox have
a closed form; PsdDiagBox is solved by a dual Newton method that certifies
its own convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL_PROJ = 1e-8

# Dual Newton solver for PsdDiagBox: the KKT residual it must reach, relative
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


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Nearest symmetric matrix, the average with the transpose."""
    return (m + m.T) / 2.0


def _eigh_sym(m: np.ndarray):
    # Symmetrize first so eigh sees an exactly Hermitian input; retry once
    # with a tiny diagonal jitter before giving up.
    s = symmetrize(np.asarray(m, dtype=float))
    try:
        return np.linalg.eigh(s)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.eigh(s + 1e-12 * np.eye(s.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigendecomposition failed for shape {s.shape}") from exc


def project_psd(m: np.ndarray) -> np.ndarray:
    """Zero out negative eigenvalues; nearest positive semidefinite matrix."""
    vals, vecs = _eigh_sym(m)
    vals = np.maximum(vals, 0.0)
    return symmetrize((vecs * vals) @ vecs.T)


def project_entry_clip(m: np.ndarray, bound: float) -> np.ndarray:
    """Clip every entry to [-bound, bound]."""
    return np.clip(m, -bound, bound)


def project_frobenius_ball(m: np.ndarray, radius: float) -> np.ndarray:
    """Scale radially onto the Frobenius ball when outside, else copy through."""
    norm = float(np.linalg.norm(m))
    if norm <= radius:
        return np.array(m, dtype=float, copy=True)
    return np.asarray(m, dtype=float) * (radius / norm)


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
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (cssv - budget))[0][-1]
    theta = (cssv[rho] - budget) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_psd_trace(m: np.ndarray, trace_bound: float) -> np.ndarray:
    """Nearest matrix in {X : X psd, trace(X) <= trace_bound}.

    Reduces to projecting the eigenvalue vector onto the nonnegative
    trace-budget simplex.
    """
    vals, vecs = _eigh_sym(m)
    vals = project_simplex(vals, trace_bound)
    return symmetrize((vecs * vals) @ vecs.T)


def project_diag_clip(m: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clip only the diagonal entries to [lo, hi]; off-diagonals pass through."""
    out = np.array(m, dtype=float, copy=True)
    np.fill_diagonal(out, np.clip(np.diagonal(m), lo, hi))
    return out


@dataclass(frozen=True)
class DualNewtonResult:
    """Projection onto PsdDiagBox with the solver's own convergence facts."""

    point: np.ndarray
    iterations: int
    kkt_residual: float


def _divided_differences(lam: np.ndarray) -> np.ndarray:
    """Matrix Omega of divided differences of max(., 0) at ascending eigenvalues.

    Omega[i, j] = (lam_i+ - lam_j+) / (lam_i - lam_j): 1 between two positive
    eigenvalues, 0 between two nonpositive ones (equal pairs included), and
    lam_pos / (lam_pos - lam_neg) between one of each.
    """
    n = lam.size
    k = int(np.searchsorted(lam, 0.0, side="right"))  # lam[:k] <= 0 < lam[k:]
    omega = np.zeros((n, n))
    omega[k:, k:] = 1.0
    if 0 < k < n:
        pos = lam[k:]
        block = pos[None, :] / (pos[None, :] - lam[:k, None])
        omega[:k, k:] = block
        omega[k:, :k] = block.T
    return omega


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


def solve_psd_diag_box(m: np.ndarray, max_iter: int = NEWTON_MAX_ITER) -> DualNewtonResult:
    """Nearest matrix to m in {X psd, diag(X) <= 1}, by Newton's method on the dual.

    The dual variable is y >= 0 with X(y) = (A - Diag y)+, A = sym(m); it
    minimizes theta(y) = 1/2 ||X(y)||^2 + sum(y), whose gradient is
    1 - diag X(y). Each iteration is a projected semismooth Newton step:
    coordinates pinned at y_i = 0 by a positive gradient move along the
    gradient, the others solve (V + NEWTON_SHIFT I) d = -gradient by
    diagonally preconditioned CG, where V d = diag(Q (Omega o Q^T Diag(d) Q) Q^T)
    is the generalized Hessian from the divided differences Omega of
    A - Diag y = Q Lambda Q^T (Qi & Sun, SIMAX 2006; Malick, SIMAX 2004), two
    GEMMs per product. An Armijo search along the projected arc
    max(y + alpha d, 0) keeps theta decreasing up to round-off, and every
    trial point costs one eigh, reused when accepted.

    The solver stops when the KKT residual ||min(y, 1 - diag X)||_inf is at
    most NEWTON_TOL * max(1, max |A|), then maps X to S X S with
    S = diag(min(1, X_ii^(-1/2))): that keeps X psd, makes diag(X) <= 1 hold
    exactly, and moves X by no more than the certified tolerance allows. A
    member of the set, psd up to that tolerance, is returned unchanged.
    Raises ProjectionConvergenceError when the test does not hold within
    max_iter iterations.
    """
    a = symmetrize(np.asarray(m, dtype=float))
    n = a.shape[0]
    tol = NEWTON_TOL * max(1.0, float(np.max(np.abs(a))))
    lam, q = _eigh_sym(a)
    # psd up to the tolerance, so rank-deficient members whose eigh shows
    # round-off below zero count too
    if lam[0] >= -tol and float(np.max(np.diagonal(a))) <= 1.0:
        return DualNewtonResult(point=a, iterations=0, kkt_residual=0.0)

    y = np.zeros(n)
    theta = 0.5 * float(np.sum(np.maximum(lam, 0.0) ** 2))
    iterations = 0
    while True:
        lam_pos = np.maximum(lam, 0.0)
        q2 = q * q
        grad = 1.0 - q2 @ lam_pos
        kkt = float(np.max(np.abs(np.minimum(y, grad))))
        if kkt <= tol:
            break
        if iterations == max_iter:
            raise ProjectionConvergenceError(
                f"dual Newton projection stopped at KKT residual {kkt:.3g} after "
                f"{max_iter} iterations (tolerance {tol:.3g})")
        iterations += 1

        pinned = (y <= kkt) & (grad > 0.0)
        free = ~pinned
        omega = _divided_differences(lam)
        qf = q[free]

        def hessian(d, qf=qf, omega=omega):
            inner = (qf.T * d) @ qf
            inner *= omega
            return np.einsum("ij,ij->i", qf @ inner, qf) + NEWTON_SHIFT * d

        precond = np.einsum("ij,ij->i", q2[free] @ omega, q2[free]) + NEWTON_SHIFT
        rhs = -grad[free]
        step = np.where(pinned, -grad, 0.0)
        step[free] = _conjugate_gradient(hessian, rhs, precond,
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

    x = symmetrize((q * lam_pos) @ q.T)
    s = 1.0 / np.sqrt(np.maximum(np.diagonal(x), 1.0))
    x *= np.outer(s, s)
    np.fill_diagonal(x, np.minimum(np.diagonal(x), 1.0))
    return DualNewtonResult(point=x, iterations=iterations, kkt_residual=kkt)


@dataclass(frozen=True)
class ConvexSet:
    """Base descriptor; subclasses define kind and the closed-form projection."""

    def project(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def residual(self, m: np.ndarray) -> float:
        """Frobenius distance from m to its projection onto this set."""
        return float(np.linalg.norm(np.asarray(m, dtype=float) - self.project(m)))


@dataclass(frozen=True)
class PsdCone(ConvexSet):
    kind: str = field(default="psd-cone", init=False)

    def project(self, m):
        return project_psd(m)


@dataclass(frozen=True)
class EntryClip(ConvexSet):
    """All arrays with every entry in [-bound, bound]."""

    bound: float = 1.0
    kind: str = field(default="entry-clip", init=False)

    def __post_init__(self):
        if not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound!r}")

    def project(self, m):
        return project_entry_clip(np.asarray(m, dtype=float), self.bound)


@dataclass(frozen=True)
class FrobeniusBall(ConvexSet):
    radius: float = 1.0
    kind: str = field(default="frobenius-ball", init=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")

    def project(self, m):
        return project_frobenius_ball(m, self.radius)


@dataclass(frozen=True)
class PsdTrace(ConvexSet):
    """Positive semidefinite matrices with trace at most trace_bound."""

    trace_bound: float = 1.0
    kind: str = field(default="psd-trace", init=False)

    def __post_init__(self):
        if not self.trace_bound > 0:
            raise ValueError(f"trace_bound must be positive, got {self.trace_bound!r}")

    def project(self, m):
        return project_psd_trace(m, self.trace_bound)


@dataclass(frozen=True)
class DiagClip(ConvexSet):
    """Matrices whose diagonal entries lie in [lo, hi]; off-diagonals free."""

    lo: float = 0.0
    hi: float = 1.0
    kind: str = field(default="diag-clip", init=False)

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got ({self.lo!r}, {self.hi!r})")

    def project(self, m):
        return project_diag_clip(m, self.lo, self.hi)


@dataclass(frozen=True)
class PsdDiagBox(ConvexSet):
    """Positive semidefinite matrices with every diagonal entry at most 1.

    No closed form: project() runs the certified dual Newton solver,
    solve_psd_diag_box.
    """

    kind: str = field(default="psd-diag-box", init=False)

    def project(self, m):
        return solve_psd_diag_box(m).point
