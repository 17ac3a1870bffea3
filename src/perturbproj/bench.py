"""Benchmark harness: complexity estimates, stability checks, error scaling.

Monte Carlo conventions used throughout, chosen once so closed forms and
estimates agree:

- entry-clip boxes count independent coordinates: n for vectors, n(n+1)/2 for
  symmetric matrices (upper triangle with diagonal), and the sup of <X, W>
  over the box is bound * sum |w_i| over those coordinates;
- the Frobenius ball draws all n^2 matrix entries i.i.d. and its sup is
  radius * ||W||_F (for vectors, radius * ||w||_2);
- the psd trace ball draws mirrored symmetric noise and its sup is
  trace_bound * max(lambda_max(W), 0).

Every trial owns the sub-stream shifted by its index, so reports are byte
deterministic whatever the trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import perturb_and_project
from .marginals import (
    EVEN_K_COPIES,
    BinaryDataset,
    _guard_size,
    avg_query_sq_error,
    parity_tensor,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
)
from .mechanism import (PrivacyParams, RandomStream, integer_at_least, sample_gaussian,
                        sample_symmetric_gaussian)
from .projections import ConvexSet, EntryClip, FrobeniusBall, PsdTrace, UnsupportedSetError
from .similarity import EXACT_COPIES, UnitVectorSet, _guard_release, gram, release_cosine_exact

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Peak of one stability or complexity trial through the CLI in float64 arrays of
# n (vector) or n^2 (matrix) entries: ru_maxrss less the RSS after an n=4 run
# (2-vCPU x86-64, OpenBLAS 0.3.31). Stability holds the projected anchor, the
# projected noisy point, their difference and its square: 3.13-3.88 at
# n=1500-3500 (its zero anchor is never written); psd-trace 2.14-2.89, box and
# Frobenius 1-2.
TRIAL_COPIES = 4


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte Carlo estimate of E sup_{X in S} <X, W> with its standard error."""

    set_kind: str
    value: float
    std_error: float
    trials: int
    n: int
    ambient: str

    def __post_init__(self):
        integer_at_least("trials", self.trials, 2)
        if not self.std_error >= 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")


@dataclass(frozen=True)
class StabilityResult:
    """Monte Carlo estimate of E ||P(A+W) - P(A)||^2 under unit noise."""

    estimate: float
    std_error: float
    trials: int


@dataclass
class ScalingReport:
    """Error-vs-size experiment output with a log-log power-law fit.

    points are sorted by n. fitted_exponent and fit_r2 are None when any mean
    error is zero (nothing to fit on a log scale). per_trial keeps the raw
    (n, trial, method, error) rows for optional CSV export and stays out of
    the JSON dict, whose wall_time_s is always null so reports are byte-stable.
    """

    experiment: str
    config: dict
    points: list
    fitted_exponent: Optional[float]
    fit_r2: Optional[float]
    seed: int
    extras: dict = field(default_factory=dict)
    per_trial: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "config": self.config,
            "points": self.points,
            "fitted_exponent": self.fitted_exponent,
            "fit_r2": self.fit_r2,
            "seed": self.seed,
            "wall_time_s": None,
        }
        out.update(self.extras)
        return out


def _mean_se(values: np.ndarray) -> tuple:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _box_coords(n: int, ambient: str) -> int:
    """Independent coordinates of the box: n for "vector", n(n+1)/2 for
    "matrix" (a symmetric matrix's upper triangle)."""
    if ambient == "vector":
        return n
    if ambient == "matrix":
        return n * (n + 1) // 2
    raise ValueError(f"ambient must be 'vector' or 'matrix', got {ambient!r}")


def complexity_box_closed_form(n: int, ambient: str = "vector") -> float:
    """Exact E sup over the unit entry-clip box: (#coordinates) * E|g|,
    with the coordinates counted by _box_coords."""
    return _box_coords(integer_at_least("n", n, 1), ambient) * ROOT_2_OVER_PI


def complexity_monte_carlo(set_: ConvexSet, n: int, trials: int, stream: RandomStream,
                           ambient: str = "vector") -> ComplexityEstimate:
    """Sample-mean estimate of E sup_{X in S} <X, W> for sets with a closed-form sup.

    Supported: entry-clip boxes (sup = bound * sum |w| over independent
    coordinates), Frobenius balls (radius * ||W||_F over all n^2 entries), and
    psd trace balls (trace_bound * max(lambda_max, 0) of mirrored symmetric
    noise). Anything else raises UnsupportedSetError, and an ambient other
    than "vector" or "matrix" raises ValueError for every set.
    """
    n = integer_at_least("n", n, 1)
    trials = integer_at_least("trials", trials, 2)
    d = _box_coords(n, ambient)  # refuses an unknown ambient

    if isinstance(set_, EntryClip):
        def one(j: int) -> float:
            w = sample_gaussian(d, 1.0, stream.shifted(j))
            return set_.bound * float(np.abs(w).sum())

    elif isinstance(set_, FrobeniusBall):
        shape = (n,) if ambient == "vector" else (n, n)

        def one(j: int) -> float:
            w = sample_gaussian(shape, 1.0, stream.shifted(j))
            return set_.radius * float(np.linalg.norm(w))

    elif isinstance(set_, PsdTrace):
        if ambient == "vector":
            raise UnsupportedSetError("psd trace ball needs a matrix ambient")

        def one(j: int) -> float:
            w = sample_symmetric_gaussian(n, 1.0, stream.shifted(j))
            top = float(np.linalg.eigvalsh(w)[-1])
            return set_.trace_bound * max(top, 0.0)

    else:
        raise UnsupportedSetError(
            f"no closed-form support function for set kind {getattr(set_, 'kind', type(set_).__name__)!r}"
        )

    sups = np.array([one(j) for j in range(trials)])
    if not np.isfinite(sups).all():
        raise ValueError(f"a trial's supremum overflows float64: the {set_.kind} set's "
                         "scale is too large")
    mean, se = _mean_se(sups)
    return ComplexityEstimate(set_kind=set_.kind, value=mean, std_error=se,
                              trials=trials, n=n, ambient=ambient)


def stability_experiment(set_: ConvexSet, anchor: np.ndarray, trials: int,
                         stream: RandomStream) -> StabilityResult:
    """Monte Carlo E ||P(anchor + W) - P(anchor)||^2 with unit-variance W.

    Vector anchors get i.i.d. noise and squared l2 distance; square matrix
    anchors get mirrored symmetric noise and squared Frobenius distance.
    """
    anchor = np.asarray(anchor, dtype=float)
    trials = integer_at_least("trials", trials, 2)
    base = set_.project(anchor)
    if anchor.ndim == 1:
        def draw(j: int) -> np.ndarray:
            return sample_gaussian(anchor.shape[0], 1.0, stream.shifted(j))
    elif anchor.ndim == 2 and anchor.shape[0] == anchor.shape[1]:
        def draw(j: int) -> np.ndarray:
            return sample_symmetric_gaussian(anchor.shape[0], 1.0, stream.shifted(j))
    else:
        raise ValueError(f"anchor must be a vector or square matrix, got shape {anchor.shape}")

    def one(j: int) -> float:
        moved = set_.project(anchor + draw(j))
        return float(np.sum((moved - base) ** 2))

    sq = np.array([one(j) for j in range(trials)])
    mean, se = _mean_se(sq)
    return StabilityResult(estimate=mean, std_error=se, trials=trials)


def fit_power_law(points: Sequence) -> tuple:
    """Least-squares slope of ln y on ln x; returns (exponent, r_squared).

    Constant y fits exponent 0 with r_squared 1 by convention (zero total
    variation). All-equal x is degenerate and raises.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need >= 2 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("power-law fit needs strictly positive x and y")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.all(lx == lx[0]):
        raise ValueError("degenerate fit: all x values are equal")
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def _fit_or_none(points: Sequence) -> tuple:
    try:
        return fit_power_law(points)
    except ValueError:
        return None, None


def _check_sizes(sizes: Sequence[int]) -> list:
    sizes = [integer_at_least("each size", s, 1) for s in sizes]
    if not sizes:
        raise ValueError("need at least one size")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {sizes}")
    return sizes


def _paired_scaling(experiment: str, sizes: list, trials: int, stream: RandomStream,
                    methods: Sequence[tuple], trial: Callable, config: dict) -> ScalingReport:
    """Run trial(n, data_rng, noise) for every size and trial, one error per method.

    Trial j at the si-th size takes its data from sub-stream 2(si*trials + j)
    and its noise from the next one, which every method shares. methods lists
    (name, prefix) pairs: each point gets `{prefix}mse` and `{prefix}std_error`
    per method, the first method's fit becomes fitted_exponent and fit_r2,
    and the others' go to the extras as `{prefix}exponent` and `{prefix}fit_r2`.
    """
    points, per_trial = [], []
    for si, n in enumerate(sizes):
        bases = [2 * (si * trials + j) for j in range(trials)]
        rows = [trial(n, stream.shifted(b).generator(), stream.shifted(b + 1)) for b in bases]
        point = {"n": n, "trials": trials}
        for i, (name, prefix) in enumerate(methods):
            errors = [float(r[i]) for r in rows]
            point[f"{prefix}mse"], point[f"{prefix}std_error"] = _mean_se(errors)
            per_trial.extend((n, j, name, e) for j, e in enumerate(errors))
        points.append(point)

    fits = [_fit_or_none([(p["n"], p[f"{prefix}mse"]) for p in points]) for _, prefix in methods]
    extras = {}
    for (_, prefix), (exponent, r2) in zip(methods[1:], fits[1:]):
        extras.update({f"{prefix}exponent": exponent, f"{prefix}fit_r2": r2})
    return ScalingReport(
        experiment=experiment,
        config=config,
        points=points,
        fitted_exponent=fits[0][0],
        fit_r2=fits[0][1],
        seed=stream.seed,
        extras=extras,
        per_trial=per_trial,
    )


def scaling_experiment_cosine(sizes: Sequence[int], params: PrivacyParams, trials: int,
                              stream: RandomStream) -> ScalingReport:
    """Squared-error scaling of the cosine release vs a clip-only baseline.

    Per trial: rows i.i.d. uniform on the sphere (normalized Gaussians), and
    the baseline reuses the exact release's noise stream so the comparison is
    paired draw for draw. Errors are squared Frobenius distances to the clean
    Gram matrix, averaged over trials per size; the fit is on the release
    curve. The largest size must pass the exact release's size guard.
    """
    sizes = _check_sizes(sizes)
    _guard_release(sizes[-1], sizes[-1], EXACT_COPIES)
    trials = integer_at_least("trials", trials, 2)

    def trial(n: int, data_rng, noise: RandomStream) -> tuple:
        g = data_rng.standard_normal((n, n))
        vectors = UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))
        truth = gram(vectors)
        released = release_cosine_exact(vectors, params, noise)
        clip_only, _ = perturb_and_project(truth, EntryClip(1.0), params, noise)
        return (float(np.sum((released.matrix - truth) ** 2)),
                float(np.sum((clip_only - truth) ** 2)))

    return _paired_scaling(
        "cosine-scaling", sizes, trials, stream,
        [("perturb-project", ""), ("clip-only", "baseline_")], trial,
        {"sizes": sizes, "trials": trials, "epsilon": params.epsilon,
         "delta": params.delta, "sensitivity": params.sensitivity})


def _random_dataset(rng, n: int, m: int, sparsity: Optional[int]) -> BinaryDataset:
    if sparsity is None:
        return BinaryDataset((rng.random((m, n)) < 0.5).astype(float))
    rows = np.zeros((m, n))
    for i in range(m):
        rows[i, rng.choice(n, size=sparsity, replace=False)] = 1.0
    return BinaryDataset(rows, sparsity=sparsity)


def scaling_experiment_marginals(sizes: Sequence[int], k: int, m: int, params: PrivacyParams,
                                 trials: int, stream: RandomStream,
                                 sparsity: Optional[int] = None) -> ScalingReport:
    """Paired error scaling of the even-k release against the baselines.

    Each trial draws one dataset (features i.i.d. fair coins, or uniform
    sparsity-sized supports when sparsity is set) and scores every method on
    it with the same noise sub-stream; errors are average query-wise squared
    errors against the clean tensor. The threshold baseline joins only when
    sparsity is declared. The fit is on the even-k curve.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"order k must be even and >= 2, got {k!r}")
    sizes = _check_sizes(sizes)
    m = integer_at_least("m", m, 1)
    for n in sizes:
        _guard_size(n, k, m, copies=EVEN_K_COPIES)  # the even-k release, the largest path
    trials = integer_at_least("trials", trials, 2)
    sparsity = None if sparsity is None else integer_at_least("sparsity", sparsity, 1)
    if sparsity is not None and sparsity > sizes[0]:
        raise ValueError(f"sparsity must lie in [1, {sizes[0]}], the smallest size, "
                         f"got {sparsity!r}")
    methods = [("even-flatten", ""), ("gaussian-only", "gaussian_")]
    if sparsity is not None:
        methods.append(("threshold", "threshold_"))

    def trial(n: int, data_rng, noise: RandomStream) -> tuple:
        data = _random_dataset(data_rng, n, m, sparsity)
        truth = parity_tensor(data, k)
        errs = [
            avg_query_sq_error(release_even_k(data, k, params, noise), truth),
            avg_query_sq_error(release_gaussian_only(data, k, params, noise), truth),
        ]
        if sparsity is not None:
            errs.append(avg_query_sq_error(
                release_threshold_baseline(data, k, params, noise), truth))
        return tuple(errs)

    return _paired_scaling(
        "marginal-scaling", sizes, trials, stream, methods, trial,
        {"sizes": sizes, "order": k, "m": m, "trials": trials,
         "epsilon": params.epsilon, "delta": params.delta, "sparsity": sparsity})
