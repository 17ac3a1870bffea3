"""Release benchmark for perturbproj: one closed-loop client driving the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload cosine-exact --seed 1 --seconds 50 --trace 0

Each operation is one in-process ``perturbproj.cli.main(argv)`` call with a
fresh release ``--seed`` derived from the workload seed; the next operation
starts only after the previous one returns and its output has been checked.
The last line of stdout is the JSON result. With ``--trace 0`` it carries the
end-to-end metrics; with ``--trace 1`` every operation runs twice on the same
release seed, once plain and once with the tracer's wrappers installed, and
the result carries the per-layer metrics and the tracing overhead.

Set-up time is the import of ``perturbproj.cli`` plus the first operation in a
fresh process: the median over SETUP_PROBES child processes, each of which
reruns this process's untimed first release, whose output they must match
byte for byte. The program is imported from the checkout's ``src``
directory; without it the run exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The first operations of every run use the same release seeds whatever the
# speed: error.mse averages the first MIN_OPS plain ones and the per-layer
# metrics the first TRACED_OPS traced ones, so both repeat exactly.
MIN_OPS = 8
TRACED_OPS = 3
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
THREAD_VARS = ("PP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _use_checkout_source() -> None:
    if not (SRC / "perturbproj" / "cli.py").is_file():
        sys.exit(f"error: no perturbproj sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def release_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _timed_setup(argv: list):
    """Import the CLI and run one operation; returns (cli module, seconds, rc)."""
    started = time.perf_counter()
    import perturbproj.cli as cli
    rc = cli.main(argv)
    return cli, time.perf_counter() - started, rc


def _probe(argv: list) -> None:
    """Fresh-process set-up sample: prints {"setup_s", "rc"} as one line."""
    _use_checkout_source()
    _, seconds, rc = _timed_setup(argv)
    print(json.dumps({"setup_s": seconds, "rc": rc}))


def _read_all(paths) -> list:
    out = []
    for p in paths:
        try:
            out.append(p.read_bytes())
        except OSError:
            out.append(None)
    return out


class Run:
    """One benchmark run of one workload; ``execute`` returns the result dict."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.w, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _op(self, cli, i: int, tag: str, tracer=None):
        """One checked operation; returns (seconds, loaded output or None)."""
        out = self.workdir / f"{tag}{i}.out"
        argv = self.w.argv(release_seed(self.seed, i), out)
        started = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.operation(i):
                rc = cli.main(argv)
        seconds = time.perf_counter() - started
        problems = [] if rc == 0 else [f"exit code {rc}"]
        loaded = self.w.load(out, problems) if rc == 0 else None
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{tag} op {i}: " + "; ".join(problems))
            loaded = None
        for p in self.w.artifacts(out):
            p.unlink(missing_ok=True)
        return seconds, loaded

    def _traced_op(self, cli, i: int, tracer, traced: list) -> None:
        tracer.install()
        try:
            seconds, _ = self._op(cli, i, "traced", tracer)
        finally:
            tracer.restore()
        traced.append(seconds)

    def _setup(self):
        # The in-process first release warms caches for the timed loop, so
        # only the probes' cold processes give set-up samples.
        out = self.workdir / "setup.out"
        argv = self.w.argv(release_seed(self.seed, 0), out)
        cli, _, rc = _timed_setup(argv)
        samples = []
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0:
            self.w.load(out, problems)
        reference = _read_all(self.w.artifacts(out))
        for k in range(SETUP_PROBES):
            probe_out = self.workdir / f"probe{k}.out"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--probe",
                 json.dumps(self.w.argv(release_seed(self.seed, 0), probe_out))],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            try:
                sample = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
            samples.append(sample["setup_s"])
            if sample["rc"] != 0 or _read_all(self.w.artifacts(probe_out)) != reference:
                problems.append(f"rerun {k} of the first release differs from it")
        self.problems.extend(f"set-up: {p}" for p in problems)
        return cli, statistics.median(samples), not problems

    def execute(self) -> dict:
        self.w.generate(np.random.default_rng(self.seed), self.workdir)
        cli, setup_s, setup_ok = self._setup()
        tracer = Tracer() if self.trace else None
        plain, traced, errors = [], [], []
        i = 0
        fixed = TRACED_OPS if tracer is not None else MIN_OPS
        started = time.perf_counter()
        while time.perf_counter() - started < self.seconds or i < fixed:
            i += 1
            # In a traced run the plain and traced copies of an operation
            # take turns going first, so warm caches favour neither side.
            traced_first = tracer is not None and i % 2 == 0
            if traced_first:
                self._traced_op(cli, i, tracer, traced)
            seconds, loaded = self._op(cli, i, "op")
            plain.append(seconds)
            if i <= MIN_OPS and loaded is not None:
                errors.append(self.w.error(loaded))
            if tracer is not None and not traced_first:
                self._traced_op(cli, i, tracer, traced)
        loop_s = time.perf_counter() - started

        ok = self.attempted - self.failed
        correct = setup_ok and self.failed == 0 and len(errors) == min(i, MIN_OPS)
        if tracer is None:
            metrics = {
                "op_s.p50": (statistics.median(plain), "s"),
                "releases_per_s": (ok / loop_s, "1/s"),
                "error.mse": (statistics.fmean(errors) if errors else float("nan"), "sq/entry"),
                "ok_frac": (ok / self.attempted, "ratio"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MiB"),
            }
        else:
            metrics = self._layer_metrics(tracer, plain, traced)
        return {
            "correct": bool(correct),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def _layer_metrics(self, tracer, plain, traced) -> dict:
        per_op = {}
        for s in tracer.spans:
            if s.op <= TRACED_OPS:
                per_op.setdefault(s.op, []).append(s)
        rows = [layer_metrics(spans) for _, spans in sorted(per_op.items())]
        metrics = {k: (statistics.fmean(r[k] for r in rows), unit(k)) for k in rows[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{self.w.name}-seed{self.seed}.json",
                    {"workload": self.w.name, "seed": self.seed,
                     "environment": environment()})
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is not None:
        _probe(json.loads(args.probe))
        return 0
    _use_checkout_source()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload](), args.seed, args.seconds,
                  bool(args.trace), workdir)
        result = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
