"""Euclidean projections onto the structured convex sets used by the releases.

Every closed-form set here exposes project() and residual(). Projections are
idempotent, nonexpansive, and preserve symmetry of symmetric inputs; residuals
are Frobenius distances to the projected point, so residual(m) == 0 (up to
TOL_PROJ) exactly when m is already in the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL_PROJ = 1e-8


class EigenFailure(RuntimeError):
    """Eigendecomposition failed even after the jittered retry."""


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
