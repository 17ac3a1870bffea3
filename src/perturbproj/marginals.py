"""Private k-way marginal release over binary datasets.

Every release starts from the order-k parity tensor T = sum_e m(e) * e^{(x)k},
whose entry at a multi-index alpha counts records with all features of alpha
set. Even k reshapes T / (m * n^{k/2}) into its n^{k/2} x n^{k/2} matrix,
perturbs it once, and projects onto the psd trace ball; the baselines add
entrywise noise to T, with optional thresholding for sparse records. Feature
indices in queries are 1-based.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .engine import perturb_and_project
from .mechanism import NoiseSpec, PrivacyParams, RandomStream, calibrate_sigma, sample_gaussian
from .projections import PsdTrace

MAX_RELEASE_BYTES = 2**31

METHOD_EVEN = "EVEN_FLATTEN"
METHOD_THRESHOLD = "THRESHOLD_BASELINE"
METHOD_GAUSSIAN = "GAUSSIAN_ONLY"


@dataclass(frozen=True)
class BinaryDataset:
    """Binary records with multiplicities; adjacency means one record swapped.

    records holds one row per distinct (or repeated, both fine) record, counts
    the multiplicity of each row. A declared sparsity t promises every record
    has at most t ones and is validated here.
    """

    records: np.ndarray
    counts: Optional[np.ndarray] = None
    sparsity: Optional[int] = None

    def __post_init__(self):
        records = np.asarray(self.records, dtype=float)
        if records.ndim != 2 or records.shape[1] < 1:
            raise ValueError(f"records must be 2-d with >= 1 feature, got shape {records.shape}")
        if not np.all(np.isin(records, (0.0, 1.0))):
            raise ValueError("records must be 0/1 valued")
        if self.counts is None:
            counts = np.ones(records.shape[0], dtype=np.int64)
        else:
            counts = np.asarray(self.counts)
            if counts.shape != (records.shape[0],):
                raise ValueError("counts must have one entry per record row")
            if not np.all(counts == np.floor(counts)) or np.any(counts < 1):
                raise ValueError("counts must be integers >= 1")
            counts = counts.astype(np.int64)
        if self.sparsity is not None:
            if not (isinstance(self.sparsity, int) and self.sparsity >= 1):
                raise ValueError(f"sparsity must be a positive integer, got {self.sparsity!r}")
            weights = records.sum(axis=1)
            bad = np.nonzero(weights > self.sparsity)[0]
            if bad.size:
                raise ValueError(
                    f"record {int(bad[0]) + 1} has {int(weights[bad[0]])} ones, "
                    f"more than the declared sparsity {self.sparsity}"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "counts", counts)

    @property
    def n_features(self) -> int:
        return self.records.shape[1]

    @property
    def size(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ParityQuery:
    """Subset of 1-based feature indices whose conjunction is counted."""

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(int(i) for i in self.alpha)
        if len(alpha) < 1:
            raise ValueError("query needs at least one feature index")
        if len(set(alpha)) != len(alpha):
            raise ValueError(f"feature indices must be distinct, got {alpha}")
        if min(alpha) < 1:
            raise ValueError(f"feature indices are 1-based, got {alpha}")
        object.__setattr__(self, "alpha", tuple(sorted(alpha)))


@dataclass(frozen=True)
class MarginalTensor:
    """Order-k tensor over n features; values carry the applied scale.

    values is the dense (n,)*k array; flat lexicographic (C) order is the wire
    format. scale is the multiplier already applied to raw counts, so raw
    entries are values / scale.
    """

    order: int
    side: int
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.side,) * self.order
        if values.shape != expected:
            if values.size == self.side**self.order and values.ndim == 1:
                values = values.reshape(expected)
            else:
                raise ValueError(f"values shape {values.shape} does not match {expected}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "values", values)

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel(order="C")

    def raw(self) -> np.ndarray:
        """Values in raw-count units (scale undone)."""
        return self.values if self.scale == 1.0 else self.values / self.scale


@dataclass
class MarginalRelease:
    """Released tensor in raw-count units plus the audit record."""

    tensor: MarginalTensor
    params: PrivacyParams
    method: str
    sigma: float
    stream: RandomStream
    residuals: tuple = ()


def _guard_size(n: int, k: int, rows: int, copies: int) -> None:
    """Fail before allocating if a release's peak would pass MAX_RELEASE_BYTES.

    The peak is `copies` (measured per path) float64 n^k arrays plus the records.
    """
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k!r}")
    need = 8 * (copies * n**k + rows * n)
    if need > MAX_RELEASE_BYTES:
        raise ValueError(
            f"order {k} over {n} features needs about {need >> 20} MiB, "
            f"over the size guard of {MAX_RELEASE_BYTES >> 20} MiB"
        )


def parity_tensor(data: BinaryDataset, k: int) -> MarginalTensor:
    """T = sum over records of multiplicity * e^{(x)k}, in raw counts.

    Entry at multi-index alpha is the number of records whose features at all
    positions of alpha equal 1 (repeats in alpha collapse since e_i^2 = e_i).
    Built as one GEMM per block of records: the row-wise (k-1)-fold Kronecker
    power of the block against the count-weighted block, exact in float64
    below 2^53. Blocks of n records keep that slab no larger than T; at
    k <= 2 the slab is the records themselves, so one block covers them all.
    """
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=4)  # T, slab, GEMM product
    x = data.records
    counts = data.counts.astype(float)
    if k == 1:
        return MarginalTensor(order=1, side=n, values=counts @ x, scale=1.0)
    step = n if k >= 3 else max(len(x), 1)
    t = np.zeros((n ** (k - 1), n))
    for lo in range(0, len(x), step):
        block = x[lo:lo + step]
        slab = block
        for _ in range(k - 2):
            slab = (slab[:, :, None] * block[:, None, :]).reshape(len(block), -1)
        t += slab.T @ (counts[lo:lo + step, None] * block)
    return MarginalTensor(order=k, side=n, values=t.reshape((n,) * k), scale=1.0)


def answer_parity_query(tensor: MarginalTensor, query: Union[ParityQuery, tuple]) -> float:
    """Tensor entry at the query's indices, padded and rescaled to raw counts.

    A shorter query is answered by repeating its last index up to order k,
    valid on parity tensors of binary data because e_i^2 = e_i.
    """
    if not isinstance(query, ParityQuery):
        query = ParityQuery(tuple(query))
    alpha = query.alpha
    if len(alpha) > tensor.order:
        raise ValueError(f"query has {len(alpha)} indices, tensor order is {tensor.order}")
    if max(alpha) > tensor.side:
        raise ValueError(f"feature index {max(alpha)} out of range [1, {tensor.side}]")
    idx = tuple(i - 1 for i in alpha)
    idx = idx + (idx[-1],) * (tensor.order - len(idx))
    return float(tensor.values[idx]) / tensor.scale


def release_even_k(data: BinaryDataset, k: int, params: PrivacyParams,
                   stream: RandomStream) -> MarginalRelease:
    """Even-k release: reshape T / (m*n^{k/2}), perturb once, project, rescale.

    The flattening is T / (m*n^{k/2}) reshaped to its n^{k/2} square matrix:
    exactly symmetric (T[a, b] and T[b, a] are one integer), psd, trace <= 1.
    It has l2 sensitivity 2/m under a record swap, so the single symmetric
    draw uses sigma = (2/m)*sqrt(2 ln(2/delta))/epsilon; projection onto
    {M psd, tr M <= 1} restores feasibility, and the output is rescaled by
    m*n^{k/2} back to raw-count units.
    """
    if k % 2 != 0:
        raise ValueError(
            "release_even_k supports even k only; use release_threshold_baseline "
            "or release_gaussian_only for odd orders"
        )
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=10)  # matrix, noise, eigh buffers
    m = data.size
    if m < 1:
        raise ValueError("dataset must contain at least one record")
    side = n ** (k // 2)
    back = float(m) * float(side)
    release_params = PrivacyParams(params.epsilon, params.delta, 2.0 / m)
    out = perturb_and_project(parity_tensor(data, k).values.reshape(side, side) / back,
                              PsdTrace(1.0), release_params, stream)
    values = (out.point * back).reshape((n,) * k)
    return MarginalRelease(
        tensor=MarginalTensor(order=k, side=n, values=values, scale=1.0),
        params=release_params,
        method=METHOD_EVEN,
        sigma=out.sigma_used,
        stream=stream,
        residuals=out.final_residuals,
    )


def _threshold_keep(flat: np.ndarray, keep: int) -> np.ndarray:
    """Zero all but the `keep` largest-magnitude entries.

    A partition finds the cut, the keep-th largest magnitude. Every entry
    above it is kept, and the remaining places go to the entries at the cut
    in ascending flat index, so ties keep the lexicographically smaller index.
    """
    if keep >= flat.size:
        return flat.copy()
    if keep <= 0:
        return np.zeros_like(flat)
    mag = np.abs(flat)
    cut = np.partition(mag, flat.size - keep)[flat.size - keep]
    above = mag > cut
    out = np.where(above, flat, 0.0)
    ties = np.flatnonzero(mag == cut)[:keep - np.count_nonzero(above)]
    out[ties] = flat[ties]
    return out


def release_threshold_baseline(data: BinaryDataset, k: int, t: int, params: PrivacyParams,
                               stream: RandomStream) -> MarginalRelease:
    """Raw tensor plus entrywise noise, keeping only the m*t^k largest entries.

    A t-sparse dataset has at most m*t^k true nonzeros, so thresholding at
    that count removes pure-noise entries. A record swap moves the raw tensor
    by at most 2*t^{k/2} in l2, which sets the noise scale.
    """
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=6)  # T, noise, sort buffers
    if not (isinstance(t, int) and t >= 1):
        raise ValueError(f"sparsity t must be a positive integer, got {t!r}")
    weights = data.records.sum(axis=1)
    bad = np.nonzero(weights > t)[0]
    if bad.size:
        raise ValueError(
            f"dataset is not {t}-sparse: record {int(bad[0]) + 1} has "
            f"{int(weights[bad[0]])} ones"
        )
    release_params = PrivacyParams(params.epsilon, params.delta, 2.0 * t ** (k / 2.0))
    sigma = calibrate_sigma(release_params)
    truth = parity_tensor(data, k)
    noisy = truth.values.ravel(order="C") + sample_gaussian(
        n**k, NoiseSpec(sigma), stream)
    kept = _threshold_keep(noisy, data.size * t**k)
    return MarginalRelease(
        tensor=MarginalTensor(order=k, side=n, values=kept.reshape((n,) * k), scale=1.0),
        params=release_params,
        method=METHOD_THRESHOLD,
        sigma=sigma,
        stream=stream,
    )


def release_gaussian_only(data: BinaryDataset, k: int, params: PrivacyParams,
                          stream: RandomStream) -> MarginalRelease:
    """Raw tensor plus entrywise calibrated noise, nothing else.

    Sensitivity uses t_eff = declared sparsity when present, else n, since
    ||e^{(x)k}||_2 = ||e||_2^k <= t_eff^{k/2} and a swap doubles it.
    """
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=4)  # parity build, then T + noise
    t_eff = data.sparsity if data.sparsity is not None else n
    release_params = PrivacyParams(params.epsilon, params.delta, 2.0 * t_eff ** (k / 2.0))
    sigma = calibrate_sigma(release_params)
    truth = parity_tensor(data, k)
    noisy = truth.values + sample_gaussian((n,) * k, NoiseSpec(sigma), stream)
    return MarginalRelease(
        tensor=MarginalTensor(order=k, side=n, values=noisy, scale=1.0),
        params=release_params,
        method=METHOD_GAUSSIAN,
        sigma=sigma,
        stream=stream,
    )


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the sparse-norm search."""

    max_supports: int = 10**4
    restarts: int = 5
    max_iter: int = 500
    tol: float = 1e-8


@dataclass(frozen=True)
class OracleResult:
    """Best value found; exhaustive means every support was searched."""

    value: float
    exhaustive: bool
    supports_searched: int

    def __float__(self):
        return self.value


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
    out = a
    for _ in range(times):
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return out


def _support_max(sub: np.ndarray, k: int, budget: SearchBudget, rng) -> float:
    """max <sub, x^{(x)k}> over unit x, by shifted power iteration with restarts."""
    dim = sub.shape[0]
    if dim == 1:
        v = float(sub.reshape(-1)[0])
        return max(v, v * (-1.0) ** k)
    # shift large enough to make the iteration monotone ascent
    alpha = 1.0 + (k - 1) * dim ** (k / 2.0) * float(np.max(np.abs(sub)))
    starts = [np.ones(dim) / math.sqrt(dim)]
    for _ in range(max(0, budget.restarts - 1)):
        g = rng.standard_normal(dim)
        starts.append(g / np.linalg.norm(g))
    best = -np.inf
    for x in starts:
        for _ in range(budget.max_iter):
            y = _tensor_apply(sub, x, k - 1) + alpha * x
            nrm = float(np.linalg.norm(y))
            if nrm == 0.0:
                break
            x_new = y / nrm
            if float(np.linalg.norm(x_new - x)) < budget.tol:
                x = x_new
                break
            x = x_new
        val = float(_tensor_apply(sub, x, k))
        val = max(val, val * (-1.0) ** k)  # odd k: flipping x flips the sign
        best = max(best, val)
    return best


def sparse_injective_norm_oracle(a, t: int, budget: SearchBudget = SearchBudget(),
                                 stream: RandomStream = RandomStream(0)) -> OracleResult:
    """Search max <A, x^{(x)k}> over unit vectors with at most t nonzeros.

    Exhausts all size-t supports when C(n, t) fits the budget, otherwise
    samples supports from the stream and flags the result non-exhaustive.
    Per-support values come from shifted power iteration with restarts, so the
    result is a lower bound on the true maximum (tight up to iteration
    tolerance on exhaustive runs).
    """
    values = a.values if isinstance(a, MarginalTensor) else np.asarray(a, dtype=float)
    k = values.ndim
    n = values.shape[0]
    if values.shape != (n,) * k:
        raise ValueError(f"tensor must be cubical, got shape {values.shape}")
    if not (1 <= t <= n):
        raise ValueError(f"sparsity t must be in [1, {n}], got {t!r}")
    sym = _symmetrize_tensor(values)
    rng = stream.generator()
    total = math.comb(n, t)
    exhaustive = total <= budget.max_supports
    if exhaustive:
        supports = itertools.combinations(range(n), t)
        searched = total
    else:
        supports = (tuple(np.sort(rng.choice(n, size=t, replace=False)))
                    for _ in range(budget.max_supports))
        searched = budget.max_supports
    best = -np.inf
    for sup in supports:
        idx = np.array(sup)
        sub = sym[np.ix_(*([idx] * k))]
        best = max(best, _support_max(sub, k, budget, rng))
    return OracleResult(value=best, exhaustive=exhaustive, supports_searched=searched)


def avg_query_sq_error(released: Union[MarginalRelease, MarginalTensor],
                       truth: MarginalTensor) -> float:
    """Mean squared entry difference over all n^k multi-indices, raw units."""
    rel = released.tensor if isinstance(released, MarginalRelease) else released
    if (rel.order, rel.side) != (truth.order, truth.side):
        raise ValueError(
            f"shape mismatch: ({rel.order}, {rel.side}) vs ({truth.order}, {truth.side})"
        )
    diff = rel.raw() - truth.raw()
    return float(np.mean(diff * diff))


def read_dataset_csv(path, header: bool = False, count_column: bool = False,
                     sparsity: Optional[int] = None) -> BinaryDataset:
    """Parse 0/1 records, one per CSV row; errors carry 1-based line numbers.

    With count_column the last column is a positive integer multiplicity.
    """
    rows, counts = [], []
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
                raise ValueError(f"line {lineno}: could not parse row as numbers")
            if width is None:
                width = len(vals)
                if count_column and width < 2:
                    raise ValueError(f"line {lineno}: need at least one feature besides the count")
            elif len(vals) != width:
                raise ValueError(f"line {lineno}: expected {width} values, got {len(vals)}")
            if count_column:
                c = vals[-1]
                if not math.isfinite(c) or c != int(c) or c < 1:
                    raise ValueError(f"line {lineno}: count must be a positive integer, got {c:g}")
                counts.append(int(c))
                vals = vals[:-1]
            if any(v not in (0.0, 1.0) for v in vals):
                raise ValueError(f"line {lineno}: features must be 0 or 1")
            rows.append(vals)
    if not rows:
        raise ValueError("no records found in input")
    return BinaryDataset(
        records=np.array(rows, dtype=float),
        counts=np.array(counts, dtype=np.int64) if count_column else None,
        sparsity=sparsity,
    )


def save_release(release: MarginalRelease, path) -> Path:
    """Write the flat little-endian float64 tensor plus its JSON sidecar.

    Returns the sidecar path. Sidecar keys cover the wire metadata (order,
    side, scale, method) and the audit record (epsilon, delta, sensitivity,
    sigma, seed, stream_index).
    """
    path = Path(path)
    path.write_bytes(release.tensor.flat.astype("<f8").tobytes())
    sidecar = path.with_suffix(".json")
    meta = {
        "order": release.tensor.order,
        "side": release.tensor.side,
        "scale": release.tensor.scale,
        "method": release.method,
        "epsilon": release.params.epsilon,
        "delta": release.params.delta,
        "sensitivity": release.params.sensitivity,
        "sigma": release.sigma,
        "seed": release.stream.seed,
        "stream_index": release.stream.stream_index,
    }
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return sidecar


def load_tensor(path) -> tuple:
    """Read a released tensor back; returns (MarginalTensor, sidecar dict)."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    flat = np.frombuffer(path.read_bytes(), dtype="<f8")
    tensor = MarginalTensor(order=int(meta["order"]), side=int(meta["side"]),
                            values=flat.copy(), scale=float(meta["scale"]))
    return tensor, meta
