"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Every workload runs plain and traced and must emit exactly the metrics that
BENCHMARK.json names, with their units; an infeasible release must count as
a failed operation; a directory without the sources must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cosine-exact": lambda: workloads.CosineExact(n=8, dim=4),
    "marginals-threshold": lambda: workloads.MarginalsThreshold(n=6, m=50, t=2),
}


def _run(name, trace, tmp_path):
    run._use_checkout_source()
    return run.Run(TINY[name](), seed=3, seconds=0.0, trace=trace, workdir=tmp_path).execute()


def test_every_workload_has_a_tiny_size():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result = _run(name, bool(trace), tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 * run.TRACED_OPS if trace else run.MIN_OPS)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])
    json.dumps(result, allow_nan=False)


def test_infeasible_release_counts_as_failed(tmp_path, monkeypatch):
    run._use_checkout_source()
    import perturbproj.cli as cli

    release = cli.release_cosine_exact

    def diagonal_above_one(*args, **kwargs):
        out = release(*args, **kwargs)
        out.matrix = out.matrix + 0.5 * np.eye(out.matrix.shape[0])
        return out

    monkeypatch.setattr(cli, "release_cosine_exact", diagonal_above_one)
    result = _run("cosine-exact", False, tmp_path)
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_OPS
    assert result["failed"] == run.MIN_OPS
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_self_time_subtracts_direct_children_only():
    span = tracing.Span
    spans = [span(1, "cli.main", 0.0, 10.0, 0, 1),
             span(2, "marginals.release", 1.0, 7.0, 1, 1),
             span(3, "marginals.parity", 2.0, 6.0, 2, 1),
             span(4, "marginals.save", 7.0, 9.0, 1, 1)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 2.0)
    assert selfs[2] == pytest.approx(6.0 - 4.0)
    assert selfs[3] == pytest.approx(4.0)


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cosine-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
