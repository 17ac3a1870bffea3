"""The benchmark's workloads: inputs, CLI arguments, output checks, errors.

Each workload writes its inputs from a seeded generator, builds the argument
list of one ``perturbproj.cli.main`` call per release seed, and judges the
files that call leaves behind. Checks and clean references use numpy and the
stdlib only, never the package under test: the Gram matrix is one einsum over
the generated vectors and the parity counts one matrix product over the
generated records.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

EPSILON = 1.0
DELTA = 1e-6
PRIVACY_ARGS = ["--epsilon", repr(EPSILON), "--delta", repr(DELTA)]

# Feasibility tolerances on the released outputs.
SYM_TOL = 1e-9       # max |X - X^T|, relative to max(1, max |X|)
PSD_TOL = 1e-6       # smallest eigenvalue >= -PSD_TOL * max(1, max |X|)
BOX_TOL = 1e-9       # diag(X) <= 1 + BOX_TOL


def _write_csv(path: Path, rows: np.ndarray, fmt: str) -> None:
    np.savetxt(path, rows, delimiter=",", fmt=fmt)


def _check_sidecar(path: Path, problems: list) -> None:
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"sidecar unreadable: {exc}")
        return
    if meta.get("epsilon") != EPSILON or meta.get("delta") != DELTA:
        problems.append(f"sidecar epsilon/delta {meta.get('epsilon')}/{meta.get('delta')}")
    sigma = meta.get("sigma")
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
        problems.append(f"sidecar sigma {sigma!r} is not finite and > 0")


def _check_symmetric_matrix(x: np.ndarray, side: int, problems: list) -> bool:
    if x.shape != (side, side):
        problems.append(f"shape {x.shape}, expected {(side, side)}")
        return False
    if not np.all(np.isfinite(x)):
        problems.append("non-finite entries")
        return False
    scale = max(1.0, float(np.max(np.abs(x))))
    asym = float(np.max(np.abs(x - x.T)))
    if asym > SYM_TOL * scale:
        problems.append(f"asymmetric by {asym:.3g}")
        return False
    lam = float(np.linalg.eigvalsh((x + x.T) / 2.0)[0])
    if lam < -PSD_TOL * scale:
        problems.append(f"not psd: smallest eigenvalue {lam:.3g}")
    return True


def _read_tensor(path: Path, size: int, problems: list):
    try:
        flat = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        problems.append(f"output unreadable: {exc}")
        return None
    if flat.size != size:
        problems.append(f"{flat.size} entries, expected {size}")
        return None
    if not np.all(np.isfinite(flat)):
        problems.append("non-finite entries")
        return None
    return flat


def _sq_error(released: np.ndarray, truth: np.ndarray) -> float:
    diff = released - truth
    return float(np.mean(diff * diff))


class CosineExact:
    """``similarity --mode exact`` on n unit vectors of dimension dim."""

    name = "cosine-exact"

    def __init__(self, n: int = 128, dim: int = 64):
        self.n, self.dim = n, dim

    def generate(self, rng: np.random.Generator, workdir: Path) -> None:
        g = rng.standard_normal((self.n, self.dim))
        vectors = g / np.linalg.norm(g, axis=1, keepdims=True)
        self.input = workdir / "vectors.csv"
        _write_csv(self.input, vectors, "%.17g")  # round-trips float64 exactly
        self.truth = np.einsum("id,jd->ij", vectors, vectors)

    def argv(self, seed: int, out: Path) -> list:
        return ["similarity", "--input", str(self.input), *PRIVACY_ARGS,
                "--mode", "exact", "--seed", str(seed), "--out", str(out)]

    def artifacts(self, out: Path) -> list:
        return [out, out.with_suffix(".json")]

    def load(self, out: Path, problems: list):
        try:
            x = np.loadtxt(out, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"output unreadable: {exc}")
            return None
        if not _check_symmetric_matrix(x, self.n, problems):
            return None
        d = np.diagonal(x)
        if float(d.max()) > 1.0 + BOX_TOL:
            problems.append(f"diagonal entry {float(d.max()):.6g} > 1")
        _check_sidecar(out.with_suffix(".json"), problems)
        return x

    def error(self, x) -> float:
        return _sq_error(x, self.truth)


class MarginalsThreshold:
    """``marginals --mode threshold --order 3`` on records with exactly t ones."""

    name = "marginals-threshold"

    def __init__(self, n: int = 64, m: int = 2000, t: int = 4):
        self.n, self.m, self.t = n, m, t

    def generate(self, rng: np.random.Generator, workdir: Path) -> None:
        ones = np.argsort(rng.random((self.m, self.n)), axis=1)[:, : self.t]
        records = np.zeros((self.m, self.n), dtype=bool)
        np.put_along_axis(records, ones, True, axis=1)
        self.input = workdir / "records.csv"
        _write_csv(self.input, records.astype(np.uint8), "%d")
        # Parity counts T[i,j,l] = sum_r x_ri x_rj x_rl as one product of the
        # pairwise products with the records, in record blocks so the
        # reference does not set the process's peak memory.
        x = records.astype(np.float64)
        truth = np.zeros((self.n * self.n, self.n))
        for lo in range(0, self.m, 256):
            block = x[lo: lo + 256]
            pairs = (block[:, :, None] * block[:, None, :]).reshape(len(block), -1)
            truth += pairs.T @ block
        self.truth = truth.reshape(-1)

    def argv(self, seed: int, out: Path) -> list:
        return ["marginals", "--input", str(self.input), *PRIVACY_ARGS,
                "--order", "3", "--mode", "threshold", "--sparsity", str(self.t),
                "--seed", str(seed), "--out", str(out)]

    def artifacts(self, out: Path) -> list:
        return [out, out.with_suffix(".json")]

    def load(self, out: Path, problems: list):
        flat = _read_tensor(out, self.n ** 3, problems)
        if flat is None:
            return None
        # The noise is entrywise and independent, so the odd-order output is
        # not symmetric; feasibility is the sparsity of the thresholded tensor.
        limit = self.m * self.t ** 3
        nonzeros = int(np.count_nonzero(flat))
        if nonzeros > limit:
            problems.append(f"{nonzeros} nonzeros > m * t^k = {limit}")
        _check_sidecar(out.with_suffix(".json"), problems)
        return flat

    def error(self, flat) -> float:
        return _sq_error(flat, self.truth)


WORKLOADS = {w.name: w for w in (CosineExact, MarginalsThreshold)}
