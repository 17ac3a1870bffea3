"""Benchmark harness: complexity estimates, stability checks, error scaling.

Each experiment returns the JSON report that `perturbproj bench` writes, and
the two scaling experiments also return their per-trial error rows. Reports
hold no timing, so they are byte-stable; the CLI prints the wall time to
stderr.

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
from .mechanism import (PrivacyParams, RandomStream, finite_positive, integer_at_least,
                        sample_gaussian, sample_symmetric_gaussian)
from .projections import ConvexSet, EntryClip, FrobeniusBall, PsdTrace, UnsupportedSetError
from .similarity import EXACT_COPIES, UnitVectorSet, _guard_release, gram, release_cosine_exact

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Peak of one stability or complexity trial through the CLI in float64 arrays of
# n (vector) or n^2 (matrix) entries: VmHWM less the RSS after an n=4 run
# (2-vCPU x86-64, OpenBLAS 0.3.31). Stability holds the projected anchor, the
# projected noisy point, their difference and its square: 3.01-3.07 at
# n=1000-2000 (its zero anchor is never written); psd-trace 2.06-2.11, box and
# Frobenius 1-2.
TRIAL_COPIES = 4


def _mean_se(values: np.ndarray) -> tuple:
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        mean, se = float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ValueError("the mean or standard error of the trials overflows float64")
    return mean, se


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
                           ambient: str = "vector") -> dict:
    """The `bench complexity` report: a sample-mean estimate of E sup_{X in S} <X, W>.

    Supported: entry-clip boxes (sup = bound * sum |w| over independent
    coordinates), Frobenius balls (radius * ||W||_F over all n^2 entries), and
    psd trace balls (trace_bound * max(lambda_max, 0) of mirrored symmetric
    noise). Anything else raises UnsupportedSetError, and an ambient other
    than "vector" or "matrix" raises ValueError for every set. The report's
    value and std_error are the estimate and its standard error; closed_form
    is the box's exact value and None for the other sets.
    """
    n = integer_at_least("n", n, 1)
    trials = integer_at_least("trials", trials, 2)
    d = _box_coords(n, ambient)  # refuses an unknown ambient
    closed_form = None

    if isinstance(set_, EntryClip):
        closed_form = set_.bound * complexity_box_closed_form(n, ambient)

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
        raise UnsupportedSetError("no closed-form support function for set kind "
                                  f"{getattr(set_, 'kind', type(set_).__name__)!r}")

    sups = np.array([one(j) for j in range(trials)])
    if not np.isfinite(sups).all():
        raise ValueError(f"a trial's supremum overflows float64: the {set_.kind} set's "
                         "scale is too large")
    value, std_error = _mean_se(sups)
    return {"experiment": "complexity", "set_kind": set_.kind, "ambient": ambient, "n": n,
            "trials": trials, "value": value, "std_error": std_error,
            "closed_form": closed_form, "seed": stream.seed}


def stability_experiment(box: EntryClip, anchor: np.ndarray, trials: int,
                         stream: RandomStream) -> dict:
    """The `bench stability` report: Monte Carlo E ||P(anchor + W) - P(anchor)||^2
    for the projection P onto an entry-clip box, with unit-variance W.

    Vector anchors get i.i.d. noise and squared l2 distance; square matrix
    anchors get mirrored symmetric noise and squared Frobenius distance. The
    report's stability_bound is (4/3) * bound * the unit box's closed-form
    complexity, and within_bound says whether the estimate lies within three
    standard errors of it. Any set other than a box raises UnsupportedSetError.
    """
    if not isinstance(box, EntryClip):
        raise UnsupportedSetError("no closed-form stability bound for set kind "
                                  f"{getattr(box, 'kind', type(box).__name__)!r}")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.ndim == 1:
        ambient, draw = "vector", sample_gaussian
    elif anchor.ndim == 2 and anchor.shape[0] == anchor.shape[1]:
        ambient, draw = "matrix", sample_symmetric_gaussian
    else:
        raise ValueError(f"anchor must be a vector or square matrix, got shape {anchor.shape}")
    n = anchor.shape[0]
    stability_bound = (4.0 / 3.0) * box.bound * complexity_box_closed_form(n, ambient)
    if not math.isfinite(stability_bound):
        raise ValueError(f"bound {box.bound:g} makes the stability bound overflow float64")
    trials = integer_at_least("trials", trials, 2)
    base = box.project(anchor)

    def one(j: int) -> float:
        moved = box.project(anchor + draw(n, 1.0, stream.shifted(j)))
        return float(np.sum((moved - base) ** 2))

    estimate, std_error = _mean_se(np.array([one(j) for j in range(trials)]))
    return {"experiment": "stability", "set_kind": box.kind, "ambient": ambient, "n": n,
            "trials": trials, "estimate": estimate, "std_error": std_error,
            "stability_bound": stability_bound,
            "within_bound": bool(estimate <= stability_bound + 3 * std_error),
            "seed": stream.seed}


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
                    methods: Sequence[tuple], trial: Callable, config: dict) -> tuple:
    """Run trial(n, data_rng, noise) for every size and trial, one error per method.

    Trial j at the si-th size takes its data from sub-stream 2(si*trials + j)
    and its noise from the next one, which every method shares. methods lists
    (name, prefix) pairs: each point gets `{prefix}mse` and `{prefix}std_error`
    per method, the first method's fit becomes fitted_exponent and fit_r2,
    and the others' become `{prefix}exponent` and `{prefix}fit_r2`. A fit is
    None when any mean error is zero (nothing to fit on a log scale).

    Returns (report, per_trial): the JSON report, its points sorted by n, and
    the (n, trial, method, error) rows that `--per-trial-csv` writes.
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
    report = {"experiment": experiment, "config": config, "points": points,
              "fitted_exponent": fits[0][0], "fit_r2": fits[0][1], "seed": stream.seed}
    for (_, prefix), (exponent, r2) in zip(methods[1:], fits[1:]):
        report.update({f"{prefix}exponent": exponent, f"{prefix}fit_r2": r2})
    return report, per_trial


def scaling_experiment_cosine(sizes: Sequence[int], params: PrivacyParams, sensitivity: float,
                              trials: int, stream: RandomStream) -> tuple:
    """Squared-error scaling of the cosine release vs a clip-only baseline.

    Per trial: rows i.i.d. uniform on the sphere (normalized Gaussians), and
    the baseline reuses the exact release's noise stream so the comparison is
    paired draw for draw; both are calibrated to the caller's sensitivity,
    which is checked first. Errors are squared Frobenius distances to the
    clean Gram matrix, averaged over trials per size; the fit is on the
    release curve. The largest size must pass the exact release's size guard.
    Returns the `bench cosine-scaling` report and its per-trial rows.
    """
    sensitivity = finite_positive("sensitivity", sensitivity)
    sizes = _check_sizes(sizes)
    _guard_release(sizes[-1], sizes[-1], EXACT_COPIES)
    trials = integer_at_least("trials", trials, 2)

    def trial(n: int, data_rng, noise: RandomStream) -> tuple:
        g = data_rng.standard_normal((n, n))
        vectors = UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))
        truth = gram(vectors)
        released = release_cosine_exact(vectors, params, sensitivity, noise)
        clip_only, _ = perturb_and_project(truth, EntryClip(1.0), params, sensitivity, noise)
        return (float(np.sum((released.matrix - truth) ** 2)),
                float(np.sum((clip_only - truth) ** 2)))

    return _paired_scaling(
        "cosine-scaling", sizes, trials, stream,
        [("perturb-project", ""), ("clip-only", "baseline_")], trial,
        {"sizes": sizes, "trials": trials, "epsilon": params.epsilon,
         "delta": params.delta, "sensitivity": sensitivity})


def _random_dataset(rng, n: int, m: int, sparsity: Optional[int]) -> BinaryDataset:
    if sparsity is None:
        return BinaryDataset((rng.random((m, n)) < 0.5).astype(float))
    rows = np.zeros((m, n))
    for i in range(m):
        rows[i, rng.choice(n, size=sparsity, replace=False)] = 1.0
    return BinaryDataset(rows, sparsity=sparsity)


def scaling_experiment_marginals(sizes: Sequence[int], k: int, m: int, params: PrivacyParams,
                                 trials: int, stream: RandomStream,
                                 sparsity: Optional[int] = None) -> tuple:
    """Paired error scaling of the even-k release against the baselines.

    Each trial draws one dataset (features i.i.d. fair coins, or uniform
    sparsity-sized supports when sparsity is set) and scores every method on
    it with the same noise sub-stream; errors are average query-wise squared
    errors against the clean tensor. The threshold baseline joins only when
    sparsity is declared. The fit is on the even-k curve. Returns the
    `bench marginal-scaling` report and its per-trial rows.
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
