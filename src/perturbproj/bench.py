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
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import perturb_and_project
from .marginals import (
    BinaryDataset,
    _guard_size,
    avg_query_sq_error,
    parity_tensor,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
)
from .mechanism import NoiseSpec, PrivacyParams, RandomStream, sample_gaussian, sample_symmetric_gaussian
from .projections import ConvexSet, EntryClip, FrobeniusBall, PsdTrace, UnsupportedSetError
from .similarity import UnitVectorSet, gram, release_cosine_exact

# The exact release's dual Newton solver holds about eight n x n float64
# matrices at its peak: 66 MiB over the input at n = 1024.
MAX_COSINE_SIZE = 1024

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")
        if not self.std_error >= 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error!r}")


@dataclass(frozen=True)
class StabilityResult:
    """Monte Carlo estimate of E ||P(A+W) - P(A)||^2 under unit noise."""

    estimate: float
    std_error: float
    trials: int

    def __float__(self):
        return self.estimate


@dataclass
class ScalingReport:
    """Error-vs-size experiment output with a log-log power-law fit.

    points are sorted by n. fitted_exponent and fit_r2 are None when any mean
    error is zero (nothing to fit on a log scale). per_trial keeps the raw
    (n, trial, method, error) rows for optional CSV export and stays out of
    the JSON dict.
    """

    experiment: str
    config: dict
    points: list
    fitted_exponent: Optional[float]
    fit_r2: Optional[float]
    seed: int
    wall_time_s: Optional[float]
    extras: dict = field(default_factory=dict)
    per_trial: list = field(default_factory=list)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "experiment": self.experiment,
            "config": self.config,
            "points": self.points,
            "fitted_exponent": self.fitted_exponent,
            "fit_r2": self.fit_r2,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s if include_wall_time else None,
        }
        out.update(self.extras)
        return out


def _mean_se(values: np.ndarray) -> tuple:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def complexity_box_closed_form(n: int, kind: str = "vector") -> float:
    """Exact E sup over the unit entry-clip box: (#coordinates) * E|g|.

    kind "vector" counts n coordinates; "sym-matrix" counts the n(n+1)/2
    independent entries of a symmetric matrix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if kind == "vector":
        coords = n
    elif kind == "sym-matrix":
        coords = n * (n + 1) // 2
    else:
        raise ValueError(f"kind must be 'vector' or 'sym-matrix', got {kind!r}")
    return coords * ROOT_2_OVER_PI


def _box_coords(n: int, ambient: str) -> int:
    if ambient == "vector":
        return n
    if ambient in ("matrix", "sym-matrix"):
        return n * (n + 1) // 2
    raise ValueError(f"ambient must be 'vector' or 'matrix', got {ambient!r}")


def complexity_monte_carlo(set_: ConvexSet, n: int, trials: int, stream: RandomStream,
                           ambient: str = "vector") -> ComplexityEstimate:
    """Sample-mean estimate of E sup_{X in S} <X, W> for sets with a closed-form sup.

    Supported: entry-clip boxes (sup = bound * sum |w| over independent
    coordinates), Frobenius balls (radius * ||W||_F over all n^2 entries), and
    psd trace balls (trace_bound * max(lambda_max, 0) of mirrored symmetric
    noise). Anything else raises UnsupportedSetError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials!r}")

    if isinstance(set_, EntryClip):
        d = _box_coords(n, ambient)

        def one(j: int) -> float:
            w = sample_gaussian(d, NoiseSpec(1.0), stream.shifted(j))
            return set_.bound * float(np.abs(w).sum())

    elif isinstance(set_, FrobeniusBall):
        shape = (n,) if ambient == "vector" else (n, n)

        def one(j: int) -> float:
            w = sample_gaussian(shape, NoiseSpec(1.0), stream.shifted(j))
            return set_.radius * float(np.linalg.norm(w))

    elif isinstance(set_, PsdTrace):
        if ambient == "vector":
            raise UnsupportedSetError("psd trace ball needs a matrix ambient")

        def one(j: int) -> float:
            w = sample_symmetric_gaussian(n, NoiseSpec(1.0), stream.shifted(j))
            top = float(np.linalg.eigvalsh(w)[-1])
            return set_.trace_bound * max(top, 0.0)

    else:
        raise UnsupportedSetError(
            f"no closed-form support function for set kind {getattr(set_, 'kind', type(set_).__name__)!r}"
        )

    sups = np.array([one(j) for j in range(trials)])
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
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials!r}")
    base = set_.project(anchor)
    if anchor.ndim == 1:
        def draw(j: int) -> np.ndarray:
            return sample_gaussian(anchor.shape[0], NoiseSpec(1.0), stream.shifted(j))
    elif anchor.ndim == 2 and anchor.shape[0] == anchor.shape[1]:
        def draw(j: int) -> np.ndarray:
            return sample_symmetric_gaussian(anchor.shape[0], NoiseSpec(1.0), stream.shifted(j))
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


def _check_sizes(sizes: Sequence[int], cap: Optional[int] = None) -> list:
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one size")
    if any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be >= 1, got {sizes}")
    if sizes != sorted(sizes):
        raise ValueError(f"sizes must be ascending, got {sizes}")
    if cap is not None and sizes[-1] > cap:
        raise ValueError(f"sizes must be <= {cap}, got {sizes[-1]}")
    return sizes


def scaling_experiment_cosine(sizes: Sequence[int], params: PrivacyParams, trials: int,
                              stream: RandomStream) -> ScalingReport:
    """Squared-error scaling of the cosine release vs a clip-only baseline.

    Per trial: rows i.i.d. uniform on the sphere (normalized Gaussians), one
    sub-stream for the data and the next for the noise, and the baseline
    reuses the exact release's noise stream so the comparison is paired draw
    for draw. Errors are squared Frobenius distances to the clean Gram matrix,
    averaged over trials per size; the fit is on the release curve.
    """
    sizes = _check_sizes(sizes, cap=MAX_COSINE_SIZE)
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials!r}")
    started = time.perf_counter()
    points, per_trial = [], []
    for si, n in enumerate(sizes):

        def one(j: int, n=n, si=si) -> tuple:
            base = 2 * (si * trials + j)
            data_rng = stream.shifted(base).generator()
            noise = stream.shifted(base + 1)
            g = data_rng.standard_normal((n, n))
            vectors = UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))
            truth = gram(vectors)
            released = release_cosine_exact(vectors, params, noise)
            clip_only = perturb_and_project(truth, EntryClip(1.0), params, noise)
            return (float(np.sum((released.matrix - truth) ** 2)),
                    float(np.sum((clip_only.point - truth) ** 2)))

        rows = [one(j) for j in range(trials)]
        err = np.array([r[0] for r in rows])
        base_err = np.array([r[1] for r in rows])
        mse, se = _mean_se(err)
        b_mse, b_se = _mean_se(base_err)
        points.append({"n": n, "mse": mse, "std_error": se, "trials": trials,
                       "baseline_mse": b_mse, "baseline_std_error": b_se})
        per_trial.extend((n, j, "perturb-project", float(e)) for j, e in enumerate(err))
        per_trial.extend((n, j, "clip-only", float(e)) for j, e in enumerate(base_err))

    exponent, r2 = _fit_or_none([(p["n"], p["mse"]) for p in points])
    b_exp, b_r2 = _fit_or_none([(p["n"], p["baseline_mse"]) for p in points])
    return ScalingReport(
        experiment="cosine-scaling",
        config={"sizes": sizes, "trials": trials, "epsilon": params.epsilon,
                "delta": params.delta, "sensitivity": params.sensitivity},
        points=points,
        fitted_exponent=exponent,
        fit_r2=r2,
        seed=stream.seed,
        wall_time_s=time.perf_counter() - started,
        extras={"baseline_exponent": b_exp, "baseline_fit_r2": b_r2},
        per_trial=per_trial,
    )


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
    for n in sizes:
        _guard_size(n, k, m, copies=10)  # the even-k release, the largest path
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials!r}")
    if sparsity is not None and not (1 <= sparsity):
        raise ValueError(f"sparsity must be >= 1, got {sparsity!r}")
    started = time.perf_counter()
    methods = ["even-flatten", "gaussian-only"] + (["threshold"] if sparsity is not None else [])
    points, per_trial = [], []
    for si, n in enumerate(sizes):

        def one(j: int, n=n, si=si) -> tuple:
            base = 2 * (si * trials + j)
            data_rng = stream.shifted(base).generator()
            noise = stream.shifted(base + 1)
            data = _random_dataset(data_rng, n, m, sparsity)
            truth = parity_tensor(data, k)
            errs = [
                avg_query_sq_error(release_even_k(data, k, params, noise), truth),
                avg_query_sq_error(release_gaussian_only(data, k, params, noise), truth),
            ]
            if sparsity is not None:
                errs.append(avg_query_sq_error(
                    release_threshold_baseline(data, k, sparsity, params, noise), truth))
            return tuple(errs)

        rows = [one(j) for j in range(trials)]
        cols = [np.array([r[i] for r in rows]) for i in range(len(methods))]
        mse, se = _mean_se(cols[0])
        g_mse, g_se = _mean_se(cols[1])
        point = {"n": n, "mse": mse, "std_error": se, "trials": trials,
                 "gaussian_mse": g_mse, "gaussian_std_error": g_se}
        if sparsity is not None:
            t_mse, t_se = _mean_se(cols[2])
            point.update({"threshold_mse": t_mse, "threshold_std_error": t_se})
        points.append(point)
        for name, col in zip(methods, cols):
            per_trial.extend((n, j, name, float(e)) for j, e in enumerate(col))

    exponent, r2 = _fit_or_none([(p["n"], p["mse"]) for p in points])
    g_exp, g_r2 = _fit_or_none([(p["n"], p["gaussian_mse"]) for p in points])
    extras = {"gaussian_exponent": g_exp, "gaussian_fit_r2": g_r2}
    if sparsity is not None:
        t_exp, t_r2 = _fit_or_none([(p["n"], p["threshold_mse"]) for p in points])
        extras.update({"threshold_exponent": t_exp, "threshold_fit_r2": t_r2})
    return ScalingReport(
        experiment="marginal-scaling",
        config={"sizes": sizes, "order": k, "m": m, "trials": trials,
                "epsilon": params.epsilon, "delta": params.delta,
                "sparsity": sparsity},
        points=points,
        fitted_exponent=exponent,
        fit_r2=r2,
        seed=stream.seed,
        wall_time_s=time.perf_counter() - started,
        extras=extras,
        per_trial=per_trial,
    )
