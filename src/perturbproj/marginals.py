"""Private k-way marginal release over binary datasets.

Every release starts from the order-k parity tensor T = sum_e m(e) * e^{(x)k},
whose entry at a multi-index alpha counts records with all features of alpha
set. Every release draws noise once and takes at most one step after it.
Even k reshapes T into its n^{k/2} x n^{k/2} matrix, perturbs it once, and
projects onto the psd ball of trace m * n^{k/2} (one eigendecomposition). The
Gaussian baseline adds entrywise noise to T; the threshold baseline keeps its
m*t^k largest entries, t being the declared sparsity capped at n. T and
every release are plain float64 arrays of shape (n,)*k, whose flat C order is
the wire format (save_release, load_tensor). Feature indices in queries are
1-based.

Both statistic layers cost what the data costs. A CSV input that is a grid of
single 0/1 cells is decoded from its bytes; any other input is parsed by one
np.loadtxt call. Records are stored one byte per cell (uint8). T is built by
scattering each sparse record's own w^k support entries and by blocked GEMM
for the dense ones (parity_tensor). Record multiplicities may add up to at
most 2^53, where float64 sums of integers stop being exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .engine import perturb_and_project
from .mechanism import (PrivacyParams, RandomStream, audit_record, calibrate_sigma,
                        integer_at_least, refuse_unresolved_noise, sample_gaussian,
                        write_with_sidecar)
from .projections import PsdTrace

MAX_RELEASE_BYTES = 2**31

# Every entry of T is at most the total multiplicity, and float64 sums of
# integers are exact up to 2^53; a larger total would round the counts.
MAX_COUNT_TOTAL = 2**53

# A record with w ones goes to the scatter builder when
# LIGHT_COST * (w^k + SCAN_COST * n) <= n^k: one scattered entry costs about
# LIGHT_COST GEMM multiply-adds, and scanning one of the record's n features
# for its support about SCAN_COST scattered entries. Timing each builder alone
# on 2000 uint8 records of fixed weight (2-vCPU x86-64, OpenBLAS 0.3.31) gave
# 7-16 ns per scattered entry and 5 ns per scanned feature, against
# 0.06-0.27 ns per multiply-add; the equal-cost n^k / w^k was about 120-150 at
# k=3 (n=64, 128), above 80-105 at k=4 (n=24, 32), and at k=2 about 256 for
# n=256 and above 1000 for n=64, where the scan term dominates.
LIGHT_COST = 125.0
SCAN_COST = 0.7

# Peak of the even-k release through the CLI in float64 n^k arrays: VmHWM
# less the RSS after a 4-feature warm-up release (about 8 MiB of BLAS/LAPACK
# buffers and code, not growing with n^k). Measured (2-vCPU x86-64, OpenBLAS
# 0.3.31) on m=2000 records with 30% ones, their parse included: 7.05 at n=30,
# k=4, 6.45 at n=40, k=4, 5.38 at n=1200, k=2 and 4.27 at n=400, k=2.
EVEN_K_COPIES = 8

# Peak of the parity build in float64 n^k arrays: ru_maxrss less the RSS after
# a 4-feature warm-up release and the dataset, in fresh processes (2-vCPU
# x86-64, OpenBLAS 0.3.31). The GEMM's T, slab and product peak at 3.86 on 400
# records with 40% ones at n=160, k=3 (4.01 at n=120, 3.62 at n=200, 3.47 at
# n=240: about 30 MiB of BLAS buffers is the part above three, a share that
# shrinks as T grows; at the 2 GiB guard T is 512 MiB).
# The scatter's running sum, half-T index and weights and one bincount peak at
# 3.13 at n=200, k=3 on 260 000 4-sparse records, also when a seventh of them
# have 3 ones. The baselines draw their noise after the build, and T with the
# noise, or T with the threshold keep's magnitudes, masks and tie index, is
# less: both baselines peak at the build, on the same inputs. The threshold
# baseline on 130 000 4-sparse records at n=200, k=3 peaks at 3.36, two-lane
# draw included (tests/test_size_guards.py checks this and the n=160 GEMM).
PARITY_COPIES = 4

METHOD_EVEN = "EVEN_FLATTEN"
METHOD_THRESHOLD = "THRESHOLD_BASELINE"
METHOD_GAUSSIAN = "GAUSSIAN_ONLY"


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _first_total_over(counts: np.ndarray) -> int:
    """First index at which the running total of counts (all >= 1) passes 2^53.

    The int64 running sum covers only the counts before the first one above
    2^53, so it cannot wrap; len(counts) when the limit is never passed.
    """
    single = _first(counts > MAX_COUNT_TOTAL)
    total = np.cumsum(counts[:single].astype(np.int64))
    return min(single, _first(total > MAX_COUNT_TOTAL))


class RecordError(ValueError):
    """Record `record` (0-based) of an input lies outside the domain its
    release's guarantee covers, for `reason`. UnitVectorSet and BinaryDataset
    raise it for the first refused record; the CSV readers turn it into
    "line N: reason"."""

    def __init__(self, record: int, reason: str):
        super().__init__(f"record {record + 1}: {reason}")
        self.record, self.reason = record, reason


def _raise_first(checks: list, records: int) -> None:
    """Raise RecordError for the first record refused by checks, pairs (first
    refused record, else `records`; its reason there); ties go to the first pair."""
    record, reason = min(checks, key=lambda check: check[0])
    if record < records:
        raise RecordError(record, reason(record))


@dataclass(frozen=True)
class BinaryDataset:
    """Binary records with multiplicities; adjacency means one record swapped.

    records holds one row per distinct (or repeated, both fine) record, stored
    as uint8, counts the multiplicity of each row, and weights the number of
    ones in each row, counted once here for every later check and build. A
    declared sparsity t promises every record has at most t ones. Every
    per-record rule is checked here: within a record, its count is checked
    first, then the running total, then its features, then its ones.
    """

    records: np.ndarray
    counts: Optional[np.ndarray] = None
    sparsity: Optional[int] = None
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        records = np.asarray(self.records)
        if records.ndim != 2 or records.shape[1] < 1:
            raise ValueError(f"records must be 2-d with >= 1 feature, got shape {records.shape}")
        checks = []
        if self.counts is None:  # the all-ones default, which no count check can refuse
            counts = np.ones(len(records), np.int64)
        else:
            counts = np.asarray(self.counts)
            if counts.shape != (len(records),):
                raise ValueError("counts must have one entry per record row")
            if counts.dtype == object:  # Python ints past 64 bits: a finite count past 2^53,
                # which the total rule refuses at any size, becomes 2^54, so each converts exactly
                counts = np.array([2 * MAX_COUNT_TOTAL if MAX_COUNT_TOTAL < c < math.inf else c
                                   for c in counts.tolist()], dtype=float)
            bad_count = _first(~(np.isfinite(counts) & (counts == np.floor(counts))
                                 & (counts >= 1)))
            checks += [
                (bad_count, lambda i: f"count must be a positive integer, got {counts[i]:g}"),
                (_first_total_over(counts[:bad_count]),
                 lambda i: "counts add up to more than 2^53, past which float64 counts are "
                           "not exact"),
            ]
        sparsity = None if self.sparsity is None else integer_at_least("sparsity", self.sparsity, 1)
        binary = (records == 0) | (records == 1)
        # the row-wise all only when some cell fails: 12x the flat one on 64-feature rows
        checks.append((len(records) if binary.all() else _first(~binary.all(axis=1)),
                       lambda i: "features must be 0 or 1"))
        # cast only the records before the first refused one: 0.5, 2 or NaN is never truncated
        cast = np.ascontiguousarray(records[:min(c[0] for c in checks)], dtype=np.uint8)
        weights = cast.sum(axis=1, dtype=np.intp)
        if sparsity is not None:
            checks.append((_first(weights > sparsity),
                           lambda i: f"{weights[i]} ones, more than the declared sparsity "
                                     f"{sparsity}"))
        _raise_first(checks, len(records))
        object.__setattr__(self, "records", cast)
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))
        object.__setattr__(self, "sparsity", sparsity)
        object.__setattr__(self, "weights", weights)

    @property
    def n_features(self) -> int:
        return self.records.shape[1]

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    @property
    def max_ones(self) -> int:
        """The declared sparsity capped at n (no record has more ones), else n."""
        return min(self.sparsity or self.n_features, self.n_features)


@dataclass(frozen=True)
class ParityQuery:
    """Subset of 1-based feature indices whose conjunction is counted."""

    alpha: tuple

    def __post_init__(self):
        given = tuple(self.alpha)
        if not all(isinstance(i, (float, np.floating)) and float(i).is_integer()
                   or isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in given):
            raise ValueError(f"feature indices must be integers, got {given}")
        alpha = tuple(int(i) for i in given)
        if len(alpha) < 1:
            raise ValueError("query needs at least one feature index")
        if len(set(alpha)) != len(alpha):
            raise ValueError(f"feature indices must be distinct, got {alpha}")
        if min(alpha) < 1:
            raise ValueError(f"feature indices are 1-based, got {alpha}")
        object.__setattr__(self, "alpha", tuple(sorted(alpha)))


@dataclass
class MarginalRelease:
    """Released tensor, a float64 (n,)*k array in raw-count units, plus its sidecar
    record, the audit_record."""

    tensor: np.ndarray
    record: dict


def _cube(values: np.ndarray) -> tuple:
    """(k, n) of an order-k tensor over n features; any shape but (n,)*k, k >= 1, is refused."""
    shape = np.shape(values)
    if not shape or shape != (shape[0],) * len(shape):
        raise ValueError(f"tensor must be cubical, got shape {shape}")
    return len(shape), shape[0]


def _guard_bytes(need: int, what: str) -> None:
    """Fail before allocating if `what` would peak above MAX_RELEASE_BYTES."""
    if need > MAX_RELEASE_BYTES:
        raise ValueError(f"{what} needs about {need >> 20} MiB, "
                         f"over the size guard of {MAX_RELEASE_BYTES >> 20} MiB")


def _guard_size(n: int, k: int, rows: int, copies: int) -> None:
    """The size guard of a marginal release.

    The peak is `copies` (measured per path) float64 n^k arrays plus the
    records, one byte per cell.
    """
    integer_at_least("order k", k, 1)
    _guard_bytes(8 * copies * n**k + rows * n, f"order {k} over {n} features")


def _scatter_parity(x: np.ndarray, counts: np.ndarray, weights: np.ndarray, light: int,
                    k: int) -> np.ndarray:
    """The flat (C-order) n^k sum of counts_r * x_r^{(x)k} over every record
    whose number of ones, weights[r], is between 1 and light.

    For a block of records with w ones, the flat indices of its 0/1 cells
    modulo n give the (records, w) support matrix, the k-fold index product
    of each row gives its w^k flat indices, and one count-weighted bincount
    adds them all. A block holds at most n^k // (2 w^k) records, so its index
    array and its weights are each at most half of T. The first block's
    bincount becomes the sum; zeros when no record is light.
    """
    n = x.shape[1]
    size = n**k
    flat = None
    present = np.bincount(weights, minlength=light + 1)[:light + 1]
    for w in np.flatnonzero(present[1:]) + 1:
        members = np.flatnonzero(weights == w)
        step = max(size // (2 * w**k), 1)
        for lo in range(0, len(members), step):
            block = members[lo:lo + step]
            support = (np.flatnonzero(x[block].view(bool)) % n).reshape(len(block), w)
            index = support
            for _ in range(k - 1):
                index = ((index * n)[:, :, None] + support[:, None, :]).reshape(len(block), -1)
            part = np.bincount(index.ravel(), weights=np.repeat(counts[block], w**k),
                               minlength=size)
            if flat is None:
                flat = part
            else:
                flat += part
            del part  # else it stays alive beside the next block's index, weights and bincount
    return np.zeros(size) if flat is None else flat


def _gemm_parity(x: np.ndarray, counts: np.ndarray, rows: Optional[np.ndarray], k: int,
                 t: np.ndarray) -> None:
    """Add counts_r * x_r^{(x)k} to t, viewed as (n^{k-1}, n), for the records
    in rows (all records when rows is None).

    One GEMM per block of records: the row-wise (k-1)-fold Kronecker power of
    the block against the count-weighted block. Only the block is copied out
    of x, as float64. At k >= 3 blocks of n records keep the slab no larger
    than T; at k <= 2 the slab is the block itself, and blocks of at most
    2^16 cells keep its float64 copy small (converting all records at once
    made the k=2 build about 2x slower at n=64, m=2000).
    """
    n = x.shape[1]
    total = len(x) if rows is None else len(rows)
    step = n if k >= 3 else max(2**16 // n, 1)
    for lo in range(0, total, step):
        pick = slice(lo, lo + step) if rows is None else rows[lo:lo + step]
        block = x[pick].astype(float)
        if k == 1:
            t += counts[pick] @ block
            continue
        slab = block
        for _ in range(k - 2):
            slab = (slab[:, :, None] * block[:, None, :]).reshape(len(block), -1)
        t += slab.T @ (counts[pick, None] * block)


def parity_tensor(data: BinaryDataset, k: int) -> np.ndarray:
    """T = sum over records of multiplicity * e^{(x)k}, in raw counts, shape (n,)*k.

    Entry at multi-index alpha is the number of records whose features at all
    positions of alpha equal 1 (repeats in alpha collapse since e_i^2 = e_i).
    A record with w ones touches only w^k entries. It is light when
    LIGHT_COST * (w^k + SCAN_COST * n) <= n^k and is then scattered from its
    own support (_scatter_parity); all other records go through the blocked
    GEMM (_gemm_parity). Both builders add exact integers in float64 (the counts
    total at most 2^53), so T is bit-identical however the records split.
    """
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=PARITY_COPIES)
    x = data.records
    counts = data.counts.astype(float)
    # records with at most `light` ones are light; -1 when none is
    light = max((w for w in range(n + 1) if LIGHT_COST * (w**k + SCAN_COST * n) <= n**k),
                default=-1)
    t = _scatter_parity(x, counts, data.weights, light, k).reshape(n ** (k - 1), n)
    heavy = data.weights > light
    _gemm_parity(x, counts, None if heavy.all() else np.flatnonzero(heavy), k, t)
    return t.reshape((n,) * k)


def answer_parity_query(tensor: np.ndarray, query: Union[ParityQuery, tuple]) -> float:
    """Entry of the (n,)*k tensor at the query's indices, padded to order k.

    A shorter query is answered by repeating its last index up to order k,
    valid on parity tensors of binary data because e_i^2 = e_i.
    """
    k, n = _cube(tensor)
    if not isinstance(query, ParityQuery):
        query = ParityQuery(tuple(query))
    alpha = query.alpha
    if len(alpha) > k:
        raise ValueError(f"query has {len(alpha)} indices, tensor order is {k}")
    if max(alpha) > n:
        raise ValueError(f"feature index {max(alpha)} out of range [1, {n}]")
    idx = tuple(i - 1 for i in alpha)
    idx = idx + (idx[-1],) * (k - len(idx))
    return float(tensor[idx])


def release_even_k(data: BinaryDataset, k: int, params: PrivacyParams,
                   stream: RandomStream) -> MarginalRelease:
    """Even-k release: reshape T, perturb once, project, all in raw counts.

    T reshaped to its n^{k/2} square matrix is exactly symmetric (T[a, b] and
    T[b, a] are one integer), psd, of trace <= m*n^{k/2} and l2 sensitivity
    2*n^{k/2} under a record swap, which calibrates the one symmetric draw;
    projection onto {M psd, tr M <= m*n^{k/2}} restores feasibility.
    """
    if k % 2 != 0:
        raise ValueError(
            "release_even_k supports even k only; use release_threshold_baseline "
            "or release_gaussian_only for odd orders"
        )
    n = data.n_features
    _guard_size(n, k, len(data.records), copies=EVEN_K_COPIES)
    m = data.size
    if m < 1:
        raise ValueError("dataset must contain at least one record")
    side = n ** (k // 2)
    sensitivity = 2.0 * side
    point, sigma = perturb_and_project(parity_tensor(data, k).reshape(side, side),
                                       PsdTrace(float(m * side)), params, sensitivity, stream)
    return MarginalRelease(point.reshape((n,) * k),
                           audit_record(params, sensitivity, sigma, stream, METHOD_EVEN))


def _threshold_keep(flat: np.ndarray, keep: int) -> np.ndarray:
    """Zero all but the `keep` largest-magnitude entries.

    A partition finds the cut, the keep-th largest magnitude. Every entry
    above it is kept, and the remaining places go to the entries at the cut
    in ascending flat index, so ties keep the lexicographically smaller index.
    One magnitude buffer serves the partition, the comparisons and the output,
    which is the bits of flat AND-ed with a 0 / -1 mask: a dropped entry is
    +0.0 and a kept one keeps its exact bits, -0.0 included, without a masked
    select.
    """
    if keep >= flat.size:
        return flat.copy()
    if keep <= 0:
        return np.zeros_like(flat)
    mag = np.abs(flat)
    mag.partition(flat.size - keep)
    cut = mag[flat.size - keep]
    np.abs(flat, out=mag)  # the partition reordered it
    kept = mag > cut
    ties = np.flatnonzero(mag == cut)[:keep - np.count_nonzero(kept)]
    kept[ties] = True
    np.bitwise_and(flat.view(np.int64), np.negative(kept.view(np.int8)), out=mag.view(np.int64))
    return mag


def release_gaussian_only(data: BinaryDataset, k: int, params: PrivacyParams,
                          stream: RandomStream) -> MarginalRelease:
    """Raw tensor plus entrywise calibrated noise, nothing else.

    Sensitivity uses t = data.max_ones (the declared sparsity capped at n,
    else n), since ||e^{(x)k}||_2 = ||e||_2^k <= t^{k/2} and a swap doubles it.
    The noise is drawn after T is built, so the release peaks in the build
    and parity_tensor's size guard covers it. A sigma too small to change T
    is refused.
    """
    n = data.n_features
    sensitivity = 2.0 * data.max_ones ** (k / 2.0)
    sigma = calibrate_sigma(params, sensitivity)
    noisy = parity_tensor(data, k)
    noise = sample_gaussian((n,) * k, sigma, stream)
    refuse_unresolved_noise(noisy, noise, sigma)
    noisy += noise
    return MarginalRelease(noisy, audit_record(params, sensitivity, sigma, stream,
                                               METHOD_GAUSSIAN))


def release_threshold_baseline(data: BinaryDataset, k: int, params: PrivacyParams,
                               stream: RandomStream) -> MarginalRelease:
    """The Gaussian baseline, then only its m*t^k largest entries kept.

    t is data.max_ones, and a dataset must declare it: a t-sparse dataset has
    at most m*t^k true nonzeros, so the keep removes pure-noise entries. The
    keep peaks below the parity build, whose size guard covers both.
    """
    if data.sparsity is None:
        raise ValueError("the threshold baseline needs a dataset with a declared sparsity")
    release = release_gaussian_only(data, k, params, stream)
    kept = _threshold_keep(release.tensor.ravel(), data.size * data.max_ones**k)
    return MarginalRelease(kept.reshape(release.tensor.shape),
                           dict(release.record, method=METHOD_THRESHOLD))


def avg_query_sq_error(released: Union[MarginalRelease, np.ndarray], truth: np.ndarray) -> float:
    """Mean squared entry difference over all n^k multi-indices, raw units.

    A square past float64 makes the mean inf, without a warning.
    """
    rel = released.tensor if isinstance(released, MarginalRelease) else released
    if rel.shape != truth.shape:
        raise ValueError(f"shape mismatch: {rel.shape} vs {truth.shape}")
    diff = rel - truth
    with np.errstate(over="ignore"):
        return float(np.mean(diff * diff))


def _parse_numeric_lines(lines: list) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", ndmin=2, quotechar='"', comments=None)


def _is_blank(line: str) -> bool:
    """True when every CSV cell of the line is whitespace (blank or comma-only)."""
    if '"' in line:
        return all(not cell.strip() for cell in next(csv.reader([line])))
    return not line.replace(",", "").strip()


def _read_numeric_csv(path, header: bool) -> tuple:
    """Parse a comma-separated file of decimal floats; returns (values, linenos).

    The header (line 1, when asked) and lines whose cells are all whitespace
    are dropped; linenos[i] is the 1-based file line of values[i]. All kept
    lines are parsed by one np.loadtxt call (comments=None, so a '#' is a
    parse error, not a comment). Only when that fails are the lines parsed
    one by one, to name the first that does not parse or has the wrong width.
    """
    with open(path) as fh:
        text = fh.read()
    lines, linenos = [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if (header and lineno == 1) or _is_blank(line):
            continue
        lines.append(line)
        linenos.append(lineno)
    if not lines:
        return np.empty((0, 0)), np.empty(0, dtype=np.int64)
    try:
        values = _parse_numeric_lines(lines)
    except ValueError:
        width = None
        for line, lineno in zip(lines, linenos):
            try:
                row = _parse_numeric_lines([line])
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse row as decimal floats") from None
            if width is None:
                width = row.shape[1]
            elif row.shape[1] != width:
                raise ValueError(f"line {lineno}: expected {width} values, got {row.shape[1]}")
        raise
    return values, np.array(linenos)


def _read_grid(path, header: bool) -> Optional[np.ndarray]:
    """The (rows, width) uint8 cells of a file that is a grid of 0/1, else None.

    Each line of a grid (after the header, when asked) is `width` single-byte
    cells 0 or 1 joined by ',' and ended by '\n'. On such a file
    _read_numeric_csv gives the same values, on consecutive lines, so the
    bytes are decoded in place of parsing. Any other byte, such as a float, a
    quote, a space, a CR, a blank line or a last line without '\n', gives None.
    """
    data = Path(path).read_bytes()
    if header:
        end = data.find(b"\n") + 1
        # a text-mode read would split a header at '\r' and decode other bytes
        if not end or b"\r" in data[:end] or not data[:end].isascii():
            return None
        data = data[end:]
    line = data.find(b"\n") + 1  # bytes per line, 2 * width
    if line < 2 or line % 2 or len(data) % line:
        return None
    grid = np.frombuffer(data, dtype=np.uint8).reshape(-1, line)
    joins = np.full(line // 2, ord(","), dtype=np.uint8)
    joins[-1] = ord("\n")
    if not (grid[:, 1::2] == joins).all():
        return None
    cells = grid[:, ::2] - ord("0")  # uint8, so bytes below '0' wrap above 1
    return cells if cells.max() <= 1 else None


def read_dataset_csv(path, header: bool = False, count_column: bool = False,
                     sparsity: Optional[int] = None) -> BinaryDataset:
    """Parse 0/1 records, one per CSV row; errors carry 1-based line numbers.

    With count_column the last column is a positive integer multiplicity; the
    multiplicities may add up to at most 2^53 (MAX_COUNT_TOTAL). A file that
    is a grid of single 0/1 cells is decoded from its bytes (_read_grid);
    every other file, and every file with a count column, is parsed by
    _read_numeric_csv. BinaryDataset checks every record; the first one it
    refuses is named by its file line.
    """
    grid = None if count_column else _read_grid(path, header)
    if grid is not None:
        records, counts = grid, None
    else:
        values, linenos = _read_numeric_csv(path, header)
        if not len(values):
            raise ValueError("no records found in input")
        if count_column and values.shape[1] < 2:
            raise ValueError(f"line {linenos[0]}: need at least one feature besides the count")
        records, counts = (values[:, :-1], values[:, -1]) if count_column else (values, None)
    try:
        return BinaryDataset(records=records, counts=counts, sparsity=sparsity)
    except RecordError as err:
        line = err.record + 1 + header if grid is not None else linenos[err.record]
        raise ValueError(f"line {line}: {err.reason}") from None


def save_release(release: MarginalRelease, path) -> Path:
    """Write the (n,)*k tensor as flat C-order little-endian float64, plus its JSON sidecar.

    Returns the sidecar path, path with its suffix replaced by .json, so a
    path that already ends in .json is refused (write_with_sidecar), as is a
    tensor that is not cubical. The sidecar is the release's record plus the
    wire format: order k and side n, read from the tensor's shape.
    """
    order, side = _cube(release.tensor)
    record = dict(release.record, order=order, side=side)
    return write_with_sidecar(path, record, lambda out: out.write_bytes(
        np.ascontiguousarray(release.tensor.ravel(), dtype="<f8")))


def load_tensor(path) -> tuple:
    """Read a released tensor back; returns (the (side,)*order array, sidecar dict).

    Only the sidecar's "order" and "side" are read; its other keys are
    returned as they are. A side^order past MAX_RELEASE_BYTES / 8 entries is
    refused (compared through logarithms, before side**order is computed or
    a byte read), as is a file that is not 8 * side^order bytes long.
    """
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar must be a JSON object, not {type(meta).__name__}")
    for key in ("order", "side"):
        if key not in meta:
            raise ValueError(f"sidecar has no {key!r}")
    order = integer_at_least("order", meta["order"], 1)
    side = integer_at_least("side", meta["side"], 1)
    # a power that passes the logarithms is at most about the bound, cheap to compare exactly
    entries = MAX_RELEASE_BYTES // 8
    if order * math.log(side) > math.log(entries) + 1e-9 or side**order > entries:
        raise ValueError(f"sidecar side^order = {side}^{order} float64 entries would pass "
                         f"the size guard of {MAX_RELEASE_BYTES >> 20} MiB")
    raw = path.read_bytes()
    if len(raw) != 8 * side**order:
        raise ValueError(f"{path} holds {len(raw)} bytes, not 8 * side^order = 8 * {side}^{order}")
    return np.frombuffer(raw, dtype="<f8").reshape((side,) * order).astype(float), meta
