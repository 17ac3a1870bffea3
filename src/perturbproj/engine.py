"""Release engines: perturb once, then project onto the target set.

Noise is injected exactly once per release, at the start; everything after
the single draw is deterministic post-processing, so the privacy guarantee of
the calibrated Gaussian draw carries through unchanged. Every helper that
draws returns the pair (matrix, sigma); none measures distances to the sets,
which a caller gets from the set's own residual when it needs one.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .mechanism import PrivacyParams, RandomStream, calibrate_sigma, integer_at_least
from .mechanism import refuse_unresolved_noise, sample_symmetric_gaussian
from .projections import ConvexSet

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 100_000


class DykstraConvergenceWarning(RuntimeWarning):
    """Dykstra hit the iteration cap before the per-cycle change fell below tol."""


def perturb_symmetric(a: np.ndarray, params: PrivacyParams, sensitivity: float,
                      stream: RandomStream) -> tuple:
    """The one noise draw of a matrix release: returns (sym(a) + W, sigma).

    Checks that a is square and symmetric, calibrates sigma from params and
    the l2 sensitivity of a, and adds a symmetric Gaussian matrix W drawn once
    from stream; a sigma too small to change a is refused.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-8, rtol=0.0):
        raise ValueError("input matrix must be symmetric")
    sigma = calibrate_sigma(params, sensitivity)
    w = sample_symmetric_gaussian(a.shape[0], sigma, stream)
    refuse_unresolved_noise(a, w, sigma)
    return (a + a.T) / 2.0 + w, sigma


def _member_sets(sets) -> tuple:
    sets = tuple(sets)
    if len(sets) < 1:
        raise ValueError("need at least one set")
    return sets


def perturb_and_project(a: np.ndarray, set_: ConvexSet, params: PrivacyParams,
                        sensitivity: float, stream: RandomStream) -> tuple:
    """One calibrated symmetric noise draw, then one projection: returns (point, sigma)."""
    noisy, sigma = perturb_symmetric(a, params, sensitivity, stream)
    return set_.project(noisy), sigma


def averaged_projection_step(x: np.ndarray, sets: Sequence[ConvexSet]) -> np.ndarray:
    """Uniform average of the projections of x onto each set, in listed order."""
    sets = _member_sets(sets)
    total = sets[0].project(x)
    for s in sets[1:]:
        total = total + s.project(x)
    return total / float(len(sets))


def perturb_and_alternately_project(a: np.ndarray, sets, params: PrivacyParams,
                                    sensitivity: float, stream: RandomStream,
                                    iterations: int) -> tuple:
    """One noise draw, then `iterations` averaged projection steps: (point, sigma).

    The iteration is deterministic given the noisy starting point, so the
    single draw at the start is the only randomness consumed.
    """
    iterations = integer_at_least("iterations", iterations, 1)
    sets = _member_sets(sets)
    x, sigma = perturb_symmetric(a, params, sensitivity, stream)
    for _ in range(iterations):
        x = averaged_projection_step(x, sets)
    return x, sigma


def dykstra_reference(a: np.ndarray, sets, max_iter: int = DYKSTRA_MAX_ITER,
                      tol: float = DYKSTRA_TOL) -> np.ndarray:
    """Euclidean projection of a onto the intersection of the sets.

    Cyclic Dykstra iteration with one correction term per set. Unlike plain
    alternating projections this converges to the nearest point of the
    intersection, which is why it serves as the reference oracle. Hitting the
    iteration cap is reported with a warning, not an error, and the last
    iterate is returned.
    """
    sets = _member_sets(sets)
    x = np.array(a, dtype=float, copy=True)
    corrections = [np.zeros_like(x) for _ in sets]
    for _ in range(max_iter):
        x_prev = x
        for i, s in enumerate(sets):
            shifted = x + corrections[i]
            y = s.project(shifted)
            corrections[i] = shifted - y
            x = y
        if float(np.linalg.norm(x - x_prev)) < tol:
            return x
    warnings.warn(
        f"Dykstra did not reach per-cycle change below {tol:g} within {max_iter} cycles",
        DykstraConvergenceWarning,
    )
    return x
