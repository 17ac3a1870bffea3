"""The size guards' copy counts against the peaks of the releases they guard.

Each release runs in a fresh process after a tiny warm-up release of the same
kind, so BLAS buffers and imported code are already in the RSS it starts from.
Its peak is the high-water RSS less that RSS, in float64 arrays of n^k entries
(n x n for a cosine release and a matrix bench trial). A constant must cover
every peak measured for its paths and lie within 1.5 copies of the largest, so
that it cannot be left high. The inputs are built before that RSS is read and
peak below the release, so the high-water mark is the release's own (the
exact cosine and even-k releases run through cli.main, their CSV parse
included, and so does the bench trial). It is
read as VmHWM, not ru_maxrss: Linux starts a child's ru_maxrss at the RSS of
the process that spawned it, which in a long test session can pass the peak
of a small release.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import perturbproj
from perturbproj.bench import TRIAL_COPIES
from perturbproj.marginals import EVEN_K_COPIES, PARITY_COPIES
from perturbproj.similarity import EXACT_COPIES, PRACTICAL_COPIES

PEAK = """
import sys
import tempfile

import numpy as np

from perturbproj import (BinaryDataset, PrivacyParams, RandomStream, UnitVectorSet,
                         parity_tensor, release_cosine_practical, release_threshold_baseline,
                         write_release_csv)
from perturbproj.cli import main

path, n, k = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(0)
params = PrivacyParams(1.0, 1e-6)


def unit_rows(count):
    g = rng.standard_normal((count, 16))
    return UnitVectorSet(g / np.linalg.norm(g, axis=1, keepdims=True))


def records(m, features):
    return BinaryDataset((rng.random((m, features)) < 0.3).astype(float))


def records_csv(name, m, features):
    # the bytes of a 0/1 grid with 30% ones, as np.savetxt(fmt="%d") writes it
    cells = np.full((m, 2 * features), ord(","), dtype=np.uint8)
    cells[:, ::2] = (rng.random((m, features)) < 0.3) + ord("0")
    cells[:, -1] = ord("\\n")
    with open(name, "wb") as fh:
        fh.write(cells.tobytes())
    return name


def cli(*argv):
    assert main(list(argv)) == 0


def sparse_records(m, features, ones):
    # up to `ones` ones per row, set in uint8: no float m x n array to outgrow the release
    x = np.zeros((m, features), dtype=np.uint8)
    x[np.arange(m)[:, None], rng.integers(0, features, size=(m, ones))] = 1
    return BinaryDataset(x, sparsity=ones)


def status(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":")) * 1024


if path == "exact":  # as the CLI runs it: read the vectors, release, write the CSV file
    out = tempfile.TemporaryDirectory()
    small, big = out.name + "/small.csv", out.name + "/big.csv"
    np.savetxt(small, unit_rows(8).rows, fmt="%.17g", delimiter=",")
    np.savetxt(big, unit_rows(n).rows, fmt="%.17g", delimiter=",")

    release = lambda name: cli("similarity", "--mode", "exact", "--input", name, "--epsilon",
                               "1", "--delta", "1e-6", "--out", out.name + "/x.csv")
elif path == "practical":  # as the CLI runs it: the release, then its CSV file
    small, big = unit_rows(8), unit_rows(n)
    out = tempfile.TemporaryDirectory()
    release = lambda data: write_release_csv(
        release_cosine_practical(data, params, 1.0, RandomStream(1)), out.name + "/x.csv")
elif path == "stability":  # a bench trial as the CLI runs it, its zero anchor included
    out = tempfile.TemporaryDirectory()
    small, big = 4, n
    release = lambda side: cli("bench", "stability", "--ambient", "matrix", "--n", str(side),
                               "--trials", "2", "--seed", "1", "--out", out.name + "/st.json")
elif path == "even":  # as the CLI runs it: read the records, release, write the tensor file
    out = tempfile.TemporaryDirectory()
    small = records_csv(out.name + "/small.csv", 50, 4)
    big = records_csv(out.name + "/big.csv", 2000, n)
    release = lambda name: cli("marginals", "--mode", "even-flatten", "--order", str(k),
                               "--input", name, "--epsilon", "1", "--delta", "1e-6",
                               "--out", out.name + "/x.bin")
elif path == "parity":  # 30% ones: every record goes through the GEMM
    small, big = records(50, 4), records(400, n)
    release = lambda data: parity_tensor(data, k)
else:  # the scatter builds T in about two blocks, then the two-lane draw and the keep
    small, big = sparse_records(50, 4, 2), sparse_records(130_000, n, 4)
    release = lambda data: release_threshold_baseline(data, k, params, RandomStream(1))
release(small)
before = status("VmRSS")
release(big)
print((status("VmHWM") - before) / (8 * n**k))
"""


def _peak(path: str, n: int, k: int) -> float:
    source = str(Path(perturbproj.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK, path, str(n), str(k)],
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the RSS from /proc")
@pytest.mark.parametrize("copies,runs", [
    (EXACT_COPIES, [("exact", 1000, 2)]),
    (EVEN_K_COPIES, [("even", 30, 4), ("even", 1200, 2)]),
    (PARITY_COPIES, [("parity", 160, 3), ("threshold", 200, 3)]),
    (PRACTICAL_COPIES, [("practical", 600, 2), ("practical", 1000, 2)]),
    (TRIAL_COPIES, [("stability", 1500, 2)]),
], ids=["exact-cosine", "even-k", "parity", "practical-cosine", "bench-trial"])
def test_size_guard_copies_cover_the_measured_peak_by_at_most_one_and_a_half(copies, runs):
    peaks = [_peak(*run) for run in runs]
    assert max(peaks) <= copies, peaks
    assert max(peaks) >= copies - 1.5, peaks
