"""Reference code that only the tests use, kept outside the package.

The sparse injective-norm oracle searches max <A, x^{(x)k}> over t-sparse
unit vectors; acceptance 07 and the marginal tests check the releases and
the entrywise bound against it. PsdCone and DiagClip are the two sets whose
intersection the exact cosine release projects onto, for the projection
tests and the alternating-projection references; PsdDiagBox wraps
solve_psd_diag_box as a ConvexSet, so the projection tests can run it beside
the closed-form sets. Each measures its residual as ConvexSet does, the
distance to its own projection. TOL_PROJ is the tests' tolerance for a
projection's idempotence, residual and variational inequality. symmetrize is
sym(m), the matrix PsdCone projects in place of m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from perturbproj.marginals import _cube
from perturbproj.mechanism import RandomStream, integer_at_least
from perturbproj.projections import ConvexSet, _eigh_sym, solve_psd_diag_box

TOL_PROJ = 1e-8

# Per-start iteration cap and step tolerance of the sparse-norm power iteration.
POWER_MAX_ITER = 500
POWER_TOL = 1e-8


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the sparse-norm search: supports searched at most, and starts
    per support (the uniform one and restarts - 1 Gaussian ones)."""

    max_supports: int = 10**4
    restarts: int = 5

    def __post_init__(self):
        for name in ("max_supports", "restarts"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))


@dataclass(frozen=True)
class OracleResult:
    """Best value found; exhaustive means every support was searched."""

    value: float
    exhaustive: bool
    supports_searched: int

    def __float__(self):
        return self.value


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Nearest symmetric matrix, the average with the transpose."""
    return (m + m.T) / 2.0


def _symmetrize_tensor(a: np.ndarray) -> np.ndarray:
    k = a.ndim
    if k == 1:
        return a
    total = np.zeros_like(a)
    perms = list(itertools.permutations(range(k)))
    for p in perms:
        total += a.transpose(p)
    return total / len(perms)


def _tensor_apply(a: np.ndarray, x: np.ndarray, times: int) -> np.ndarray:
    """Contract the last axis of a (supports, 1 or starts, t, ..., t) with each
    (support, start) row of x (supports, starts, t), `times` times."""
    out = a
    for _ in range(times):
        out = np.einsum("sr...i,sri->sr...", out, x)
    return out


def sparse_injective_norm_oracle(a, t: int, budget: SearchBudget = SearchBudget(),
                                 stream: RandomStream = RandomStream(0)) -> OracleResult:
    """Search max <A, x^{(x)k}> over unit vectors with at most t nonzeros.

    Exhausts all size-t supports when C(n, t) fits the budget, otherwise
    samples supports from the stream and flags the result non-exhaustive.
    Each support runs a shifted power iteration from the uniform unit vector
    and restarts - 1 Gaussian starts (none at t = 1), every (support, start)
    row of a block of max(n^k // (t^{k-1} max(t, starts)), 1) supports at
    once, so neither a block's sub-tensors (t^k entries each) nor its first
    contraction (t^{k-1} per start) holds more than the input's n^k entries
    unless one support's already do; a row stops once its step is below
    POWER_TOL or its norm is 0, or else at the cap of POWER_MAX_ITER steps.
    The value is a lower bound on the true maximum. The stream is read in a
    per-support loop's order: all starts as one (supports, restarts - 1, t)
    draw when exhaustive, else each sampled support's features, then its starts.
    """
    values = np.asarray(a, dtype=float)
    k, n = _cube(values)
    t = integer_at_least("sparsity t", t, 1)
    if t > n:
        raise ValueError(f"sparsity t must be in [1, {n}], got {t!r}")
    sym = _symmetrize_tensor(values)
    rng = stream.generator()
    total = math.comb(n, t)
    exhaustive = total <= budget.max_supports
    searched = total if exhaustive else budget.max_supports
    draws = (searched, budget.restarts - 1 if t > 1 else 0, t)
    if exhaustive:
        supports = np.array(list(itertools.combinations(range(n), t)))
        gauss = rng.standard_normal(draws)
    else:
        supports, gauss = np.empty((searched, t), dtype=np.intp), np.empty(draws)
        for s in range(searched):
            supports[s] = np.sort(rng.choice(n, size=t, replace=False))
            gauss[s] = rng.standard_normal(draws[1:])
    starts = np.concatenate([np.full((searched, 1, t), 1.0 / math.sqrt(t)),
                             gauss / np.linalg.norm(gauss, axis=2, keepdims=True)], axis=1)
    best = -np.inf
    step = max(n**k // (t ** (k - 1) * max(t, starts.shape[1])), 1)
    for lo in range(0, searched, step):
        idx = supports[lo:lo + step]
        # (block, 1, t, ..., t): every support's sub-tensor, shared by its starts
        sub = sym[tuple(idx.reshape((len(idx), 1) + (1,) * j + (t,) + (1,) * (k - 1 - j))
                        for j in range(k))]
        # shift large enough to make the iteration monotone ascent
        alpha = 1.0 + (k - 1) * t ** (k / 2.0) * np.abs(sub).reshape(len(idx), -1).max(axis=1)
        x = starts[lo:lo + step]
        moving = np.ones(x.shape[:2], dtype=bool)
        for _ in range(POWER_MAX_ITER):
            y = _tensor_apply(sub, x, k - 1) + alpha[:, None, None] * x
            nrm = np.linalg.norm(y, axis=2, keepdims=True)
            moving &= nrm[..., 0] != 0.0
            x_new = np.divide(y, nrm, out=x.copy(), where=moving[..., None])
            moving &= np.linalg.norm(x_new - x, axis=2) >= POWER_TOL
            x = x_new
            if not moving.any():
                break
        val = _tensor_apply(sub, x, k)
        best = max(best, float(np.maximum(val, val * (-1.0) ** k).max()))  # odd k: flip x
    return OracleResult(value=best, exhaustive=exhaustive, supports_searched=searched)


@dataclass(frozen=True)
class PsdDiagBox(ConvexSet):
    """Positive semidefinite matrices with every diagonal entry at most 1.

    No closed form: project() runs the certified dual Newton solver,
    solve_psd_diag_box.
    """

    kind: str = field(default="psd-diag-box", init=False)

    def project(self, m):
        return solve_psd_diag_box(m).point


@dataclass(frozen=True)
class PsdCone(ConvexSet):
    """Positive semidefinite matrices."""

    kind: str = field(default="psd-cone", init=False)

    def project(self, m):
        """Zero out the negative eigenvalues of sym(m)."""
        vals, vecs = _eigh_sym(symmetrize(np.asarray(m, dtype=float)))
        vals = np.maximum(vals, 0.0)
        return symmetrize((vecs * vals) @ vecs.T)


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
        out = np.array(m, dtype=float, copy=True)
        np.fill_diagonal(out, np.clip(np.diagonal(m), self.lo, self.hi))
        return out
