"""Private pairwise cosine-similarity release.

The clean statistic is the Gram matrix of a set of unit vectors. Both release
modes draw calibrated symmetric noise once and then map the noisy matrix into
a structured set. The exact mode takes the one Euclidean projection onto
{X psd, diag(X) <= 1} that the paper's error bound is stated for, computed by
a dual Newton solver that certifies its KKT residual. The practical mode runs
averaged alternating projections toward the cheaper {Frobenius norm <= n}
intersected with {entries in [-1,1]}.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

# dykstra_reference is unused here; perfbench/tracing.py rebinds it by this name.
from .engine import (EngineConfig, dykstra_reference, perturb_and_alternately_project,
                     perturb_symmetric)
from .mechanism import PrivacyParams
from .projections import DiagClip, EntryClip, FrobeniusBall, PsdCone, solve_psd_diag_box

ROW_NORM_TOL = 1e-6

MODE_EXACT = "EXACT_SET"
MODE_PRACTICAL = "PRACTICAL"

SOLVER_EXACT = "dual-newton"
SOLVER_PRACTICAL = "averaged-projections"


@dataclass(frozen=True)
class UnitVectorSet:
    """n vectors of dimension m, one per row, each with unit l2 norm.

    Rows whose norm is off by more than 1e-6 are rejected outright; silently
    normalizing would change the statistic the caller's privacy analysis was
    done for.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a nonempty 2-d array, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows must be finite")
        norms = np.linalg.norm(rows, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > ROW_NORM_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"row {i + 1} has norm {norms[i]:.6g}, not within {ROW_NORM_TOL:g} of 1"
            )
        object.__setattr__(self, "rows", rows)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass
class SimilarityRelease:
    """Released similarity matrix plus the run metadata a sidecar records.

    iterations counts the solver's own iterations; kkt_residual is the dual
    Newton solver's final KKT residual and is None in practical mode.
    """

    matrix: np.ndarray
    params: PrivacyParams
    mode: str
    iterations: int
    sigma: float
    residuals: tuple
    solver: str
    kkt_residual: Optional[float] = None
    trajectory: Optional[list] = None


def read_vectors_csv(path, header: bool = False) -> UnitVectorSet:
    """Parse one vector per CSV row; errors carry 1-based file line numbers."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not cells or all(c.strip() == "" for c in cells):
                continue
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse row as decimal floats")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(f"line {lineno}: expected {width} values, got {len(vals)}")
            if not all(np.isfinite(vals)):
                raise ValueError(f"line {lineno}: non-finite value")
            norm = float(np.linalg.norm(vals))
            if abs(norm - 1.0) > ROW_NORM_TOL:
                raise ValueError(
                    f"line {lineno}: row norm {norm:.6g} not within {ROW_NORM_TOL:g} of 1"
                )
            rows.append(vals)
    if not rows:
        raise ValueError("no vector rows found in input")
    return UnitVectorSet(np.array(rows, dtype=float))


def gram(vectors: UnitVectorSet) -> np.ndarray:
    """Pairwise inner products V V^T, symmetrized exactly."""
    g = vectors.rows @ vectors.rows.T
    return (g + g.T) / 2.0


def gram_sensitivity(a: UnitVectorSet, b: UnitVectorSet) -> float:
    """Frobenius distance of the two Gram matrices.

    This unsquared distance is the quantity a caller must upper-bound by
    params.sensitivity when the two vector sets are meant to be adjacent.
    """
    if a.rows.shape != b.rows.shape:
        raise ValueError(f"shape mismatch: {a.rows.shape} vs {b.rows.shape}")
    return float(np.linalg.norm(gram(a) - gram(b)))


def release_cosine_exact(vectors: UnitVectorSet, params: PrivacyParams,
                         config: EngineConfig) -> SimilarityRelease:
    """The Euclidean projection of the noisy Gram matrix onto {X psd, diag(X) <= 1}.

    One noise draw from config.stream, then one call of the dual Newton
    solver (solve_psd_diag_box), which stops on its own KKT test; so
    config.iterations and config.record_trajectory are not read. The release
    records the solver's iteration count and final KKT residual, and the
    distances to the psd cone and to {diag(X) in [0, 1]}; diag(X) <= 1 holds
    exactly.
    """
    noisy, sigma = perturb_symmetric(gram(vectors), params, config.stream)
    solved = solve_psd_diag_box(noisy)
    point = solved.point
    return SimilarityRelease(
        matrix=point,
        params=params,
        mode=MODE_EXACT,
        iterations=solved.iterations,
        sigma=sigma,
        residuals=(PsdCone().residual(point), DiagClip(0.0, 1.0).residual(point)),
        solver=SOLVER_EXACT,
        kkt_residual=solved.kkt_residual,
    )


def release_cosine_practical(vectors: UnitVectorSet, params: PrivacyParams,
                             config: EngineConfig) -> SimilarityRelease:
    """Noisy Gram matrix mapped toward {||X||_F <= n} intersected with {|X_ij| <= 1}.

    Pure averaged alternation with weight 1/2 per set and no polish; the
    reported entry-clip residual rho bounds how far any entry can sit outside
    [-1, 1]. One noise draw, inside the engine.
    """
    sets = (FrobeniusBall(float(vectors.count)), EntryClip(1.0))
    out = perturb_and_alternately_project(gram(vectors), sets, params, config)
    return SimilarityRelease(
        matrix=out.point,
        params=params,
        mode=MODE_PRACTICAL,
        iterations=out.iterations_used,
        sigma=out.sigma_used,
        residuals=out.final_residuals,
        solver=SOLVER_PRACTICAL,
        trajectory=out.trajectory,
    )


def write_release_csv(release: SimilarityRelease, path) -> None:
    np.savetxt(path, release.matrix, delimiter=",", fmt="%.17g")
