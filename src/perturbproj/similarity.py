"""Private pairwise cosine-similarity release.

The clean statistic is the Gram matrix of a set of unit vectors. Both release
modes draw calibrated symmetric noise once from a RandomStream and then map
the noisy matrix into a structured set in one step. The exact mode takes the
one Euclidean projection onto {X psd, diag(X) <= 1} that the paper's error
bound is stated for, computed by a dual Newton solver that certifies its KKT
residual. The practical mode shrinks the noisy matrix radially to Frobenius
norm n and then clips every entry to [-1, 1]; no eigendecomposition. Both
fail with the marginal releases' size guard before building the Gram matrix
when their peak would pass MAX_RELEASE_BYTES. The sensitivity both take is
the caller's promise, a bound on gram_sensitivity between adjacent vector
sets: swapping one of n arbitrary unit vectors needs 2*sqrt(2(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# dykstra_reference and perturb_and_alternately_project are unused here;
# perfbench/tracing.py rebinds both by these names.
from .engine import dykstra_reference, perturb_and_alternately_project, perturb_symmetric
from .marginals import RecordError, _first, _guard_bytes, _raise_first, _read_numeric_csv
from .mechanism import PrivacyParams, RandomStream, audit_record, write_with_sidecar
from .projections import (EntryClip, FrobeniusBall, psd_residual, solve_psd_diag_box,
                          symmetric_matrix, unit_diag_residual)

ROW_NORM_TOL = 1e-6

MODE_EXACT = "EXACT_SET"
MODE_PRACTICAL = "PRACTICAL"

SOLVER_EXACT = "dual-newton"
SOLVER_PRACTICAL = "shrink-then-clip"

# Peak of a release through cli.main, read and file included, in float64 n x n
# matrices (VmHWM less the RSS after an 8-vector warm-up, 16-d vectors, 2-vCPU
# x86-64, OpenBLAS 0.3.31) at n = 1000/2000: exact 9.18-10.17/9.78 (eigh's
# workspace), practical 5.04/5.05 (the writer holds n^2/4 strings at most).
EXACT_COPIES = 11
PRACTICAL_COPIES = 6


@dataclass(frozen=True)
class UnitVectorSet:
    """n vectors of dimension m, one per row, each with unit l2 norm.

    The first row that is not finite, or whose norm is off by more than
    ROW_NORM_TOL, is refused with a RecordError; silently normalizing would
    change the statistic the caller's privacy analysis was done for.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"rows must be a nonempty 2-d array, got shape {rows.shape}")
        with np.errstate(over="ignore"):  # a norm past float64 is inf, refused below
            norms = np.linalg.norm(rows, axis=1)
        _raise_first([(_first(~np.isfinite(rows).all(axis=1)), lambda i: "non-finite value"),
                      (_first(np.abs(norms - 1.0) > ROW_NORM_TOL),
                       lambda i: f"row norm {norms[i]:.6g} not within {ROW_NORM_TOL:g} of 1")],
                     len(rows))
        object.__setattr__(self, "rows", rows)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass
class SimilarityRelease:
    """Released similarity matrix plus its sidecar record.

    The record is the release's audit_record plus its solver and residuals;
    the exact mode adds the dual Newton solver's iteration count and final
    KKT residual, which the practical mode, one closed-form step, has not.
    """

    matrix: np.ndarray
    record: dict


def read_vectors_csv(path, header: bool = False) -> UnitVectorSet:
    """Parse one vector per CSV row; errors, UnitVectorSet's too, carry 1-based file lines."""
    values, linenos = _read_numeric_csv(path, header)
    if not len(values):
        raise ValueError("no vector rows found in input")
    try:
        return UnitVectorSet(values)
    except RecordError as err:
        raise ValueError(f"line {linenos[err.record]}: {err.reason}") from None


def _guard_release(n: int, dim: int, copies: int) -> None:
    """Size guard: `copies` float64 n x n matrices plus n vectors of length dim."""
    _guard_bytes(8 * (copies * n * n + n * dim), f"a release of {n} vectors")


def gram(vectors: UnitVectorSet) -> np.ndarray:
    """Pairwise inner products V V^T, which numpy returns symmetric bit for bit."""
    return vectors.rows @ vectors.rows.T


def gram_sensitivity(a: UnitVectorSet, b: UnitVectorSet) -> float:
    """Frobenius distance of the two Gram matrices.

    This unsquared distance is the quantity a caller must upper-bound by the
    sensitivity it passes to a release when the two vector sets are meant to
    be adjacent.
    """
    if a.rows.shape != b.rows.shape:
        raise ValueError(f"shape mismatch: {a.rows.shape} vs {b.rows.shape}")
    return float(np.linalg.norm(gram(a) - gram(b)))


def release_cosine_exact(vectors: UnitVectorSet, params: PrivacyParams, sensitivity: float,
                         stream: RandomStream) -> SimilarityRelease:
    """The Euclidean projection of the noisy Gram matrix onto {X psd, diag(X) <= 1}.

    One noise draw from stream, then one call of the dual Newton solver
    (solve_psd_diag_box), which stops on its own KKT test. The release
    records the solver's iteration count and final KKT residual, and the
    distances to the psd cone and to {diag(X) in [0, 1]}; diag(X) <= 1 holds
    exactly.
    """
    _guard_release(vectors.count, vectors.dim, EXACT_COPIES)
    noisy, sigma = perturb_symmetric(gram(vectors), params, sensitivity, stream)
    solved = solve_psd_diag_box(noisy)
    point = solved.point
    record = audit_record(params, sensitivity, sigma, stream, MODE_EXACT)
    record.update(solver=SOLVER_EXACT,
                  residuals=[psd_residual(point), unit_diag_residual(point)],
                  iterations=solved.iterations, kkt_residual=solved.kkt_residual)
    return SimilarityRelease(point, record)


def release_cosine_practical(vectors: UnitVectorSet, params: PrivacyParams, sensitivity: float,
                             stream: RandomStream) -> SimilarityRelease:
    """Noisy Gram matrix shrunk to Frobenius norm n, then clipped to [-1, 1].

    One noise draw from stream, one radial shrink onto {||X||_F <= n} and one
    entry clip. Every entry of the output lies in [-1, 1], and therefore
    ||X||_F <= n too, so both reported residuals (Frobenius ball, entry box)
    are 0. The shrink is what makes this better than a plain clip: it pulls
    every entry toward 0 by the same factor before clipping, which on paired
    draws never gave a larger squared error than the averaged alternating
    projections between the two sets (perturb_and_alternately_project).
    """
    _guard_release(vectors.count, vectors.dim, PRACTICAL_COPIES)
    ball, box = FrobeniusBall(float(vectors.count)), EntryClip(1.0)
    noisy, sigma = perturb_symmetric(gram(vectors), params, sensitivity, stream)
    point = box.project(ball.project(noisy))
    record = audit_record(params, sensitivity, sigma, stream, MODE_PRACTICAL)
    record.update(solver=SOLVER_PRACTICAL,
                  residuals=[ball.residual(point), box.residual(point)])
    return SimilarityRelease(point, record)


def write_release_csv(release: SimilarityRelease, path) -> Path:
    """Write the matrix as CSV, the same bytes as np.savetxt(fmt="%.17g"), then its record.

    The matrix must pass symmetric_matrix, checked before any file is opened.
    Row i formats its entries from column i on and takes the ones before from
    the rows above, each string dropped after its second write: at most about
    n^2/4 are held at once. The record goes to the .json sidecar through
    write_with_sidecar, which refuses a .json path; returns the sidecar path.
    """
    m = symmetric_matrix(release.matrix)

    def write_rows(path):
        pending = []  # pending[j] is row j's unwritten strings, the next one last
        with open(path, "w") as fh:
            for i, row in enumerate(m):
                own = ["%.17g" % v for v in row[i:].tolist()]
                fh.write(",".join([strings.pop() for strings in pending] + own) + "\n")
                pending.append(own[:0:-1])

    return write_with_sidecar(path, release.record, write_rows)
