"""Command-line front end: releases, benchmarks, and their file formats.

Exit codes: 0 success, 2 parse or validation failure, 3 numerical failure.
All randomness flows from --seed, artifacts are byte-identical across reruns
(wall-clock time goes to stderr, never into files), and every sidecar is
the record its release carries.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bench import (
    TRIAL_COPIES,
    complexity_monte_carlo,
    scaling_experiment_cosine,
    scaling_experiment_marginals,
    stability_experiment,
)
from .marginals import (
    _guard_bytes,
    read_dataset_csv,
    release_even_k,
    release_gaussian_only,
    release_threshold_baseline,
    save_release,
)
from .mechanism import PrivacyParams, RandomStream, finite_positive, integer_at_least, json_text
from .projections import EigenFailure, EntryClip, FrobeniusBall, PsdTrace
from .similarity import (
    read_vectors_csv,
    release_cosine_exact,
    release_cosine_practical,
    write_release_csv,
)

# the sets `bench complexity --set` can name, each built from its one size --bound
_BENCH_SETS = {"box": EntryClip, "frobenius": FrobeniusBall, "psd-trace": PsdTrace}


def _parse_sizes(text: str) -> list:
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise ValueError("--sizes must name at least one size")
    return sizes


def _write_json(payload: dict, out) -> None:
    text = json_text(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _refuse_shared_files(*named) -> None:
    """Raise when two of the (name, path) pairs name one file; None paths are skipped.

    Runs before any input is read, so a refused run reads and writes nothing.
    """
    seen = {}
    for name, path in named:
        if path is None:
            continue
        key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {name} name the same file {path}")
        seen[key] = name


def _refuse_shared_release_files(args) -> None:
    """The input, the release (--out) and its .json sidecar must be three files."""
    _refuse_shared_files(("--input", args.input), ("--out", args.out),
                         ("the .json sidecar of --out", Path(args.out).with_suffix(".json")))


def run_similarity(args) -> int:
    _refuse_shared_release_files(args)
    params = PrivacyParams(args.epsilon, args.delta)
    sensitivity = finite_positive("sensitivity", args.sensitivity)  # before the input is read
    stream = RandomStream(args.seed)
    vectors = read_vectors_csv(args.input, header=args.header)
    release_cosine = release_cosine_exact if args.mode == "exact" else release_cosine_practical
    write_release_csv(release_cosine(vectors, params, sensitivity, stream), args.out)
    return 0


def run_marginals(args) -> int:
    _refuse_shared_release_files(args)
    params = PrivacyParams(args.epsilon, args.delta)
    stream = RandomStream(args.seed)
    k = integer_at_least("--order", args.order, 1)
    if args.mode == "even-flatten" and k % 2 != 0:
        raise ValueError(
            f"--mode even-flatten needs an even --order, got {k}; "
            "use --mode threshold or --mode gaussian for odd orders"
        )
    if args.mode == "threshold" and args.sparsity is None:
        raise ValueError("--mode threshold needs --sparsity to be declared")
    if args.sparsity is not None:
        integer_at_least("--sparsity", args.sparsity, 1)
    data = read_dataset_csv(args.input, header=args.header,
                            count_column=args.count_column, sparsity=args.sparsity)
    if args.mode == "even-flatten":
        release = release_even_k(data, k, params, stream)
    elif args.mode == "threshold":
        release = release_threshold_baseline(data, k, params, stream)
    else:
        release = release_gaussian_only(data, k, params, stream)
    save_release(release, args.out)
    return 0


def _write_per_trial(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("n,trial,method,error\n")
        for n, trial, method, error in rows:
            fh.write(f"{n},{trial},{method},{error:.17g}\n")


def run_bench(args) -> int:
    per_trial = None
    if args.experiment in ("cosine-scaling", "marginal-scaling"):
        _refuse_shared_files(("--out", args.out), ("--per-trial-csv", args.per_trial_csv))
        params = PrivacyParams(args.epsilon, args.delta)
    else:
        n = integer_at_least("n", args.n, 1)
        shape = (n,) if args.ambient == "vector" else (n, n)
        # before the stability anchor or any trial array is allocated
        _guard_bytes(8 * TRIAL_COPIES * math.prod(shape),
                     f"a {args.experiment} trial at --n {args.n}")
    stream = RandomStream(args.seed)
    started = time.perf_counter()

    if args.experiment == "cosine-scaling":
        report, per_trial = scaling_experiment_cosine(_parse_sizes(args.sizes), params,
                                                      args.sensitivity, args.trials, stream)
    elif args.experiment == "marginal-scaling":
        report, per_trial = scaling_experiment_marginals(_parse_sizes(args.sizes), args.order,
                                                         args.m, params, args.trials, stream,
                                                         sparsity=args.sparsity)
    elif args.experiment == "stability":
        report = stability_experiment(EntryClip(args.bound), np.zeros(shape), args.trials,
                                      stream)
    else:
        report = complexity_monte_carlo(_BENCH_SETS[args.set](args.bound), n, args.trials,
                                        stream, ambient=args.ambient)

    _write_json(report, args.out)
    if per_trial is not None and args.per_trial_csv:
        _write_per_trial(per_trial, args.per_trial_csv)
    print(f"{args.experiment} completed in {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return 0


def _add_privacy_flags(p, required: bool) -> None:
    p.add_argument("--epsilon", type=float, required=required,
                   default=None if required else 1.0, help="privacy budget, finite and > 0")
    p.add_argument("--delta", type=float, required=required,
                   default=None if required else 1e-6, help="failure probability, in (0, 1)")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="perturbproj", allow_abbrev=False,
        description="Differentially private matrix and marginal releases by "
                    "calibrated noise plus convex projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("similarity", help="release private pairwise cosine similarities",
                         allow_abbrev=False)
    sim.add_argument("--input", required=True, help="CSV of unit-norm row vectors")
    _add_privacy_flags(sim, required=True)
    sim.add_argument("--sensitivity", type=float, default=1.0)
    sim.add_argument("--mode", choices=["exact", "practical"], default="exact")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="released matrix CSV path")
    sim.add_argument("--header", action="store_true", help="skip the first input line")

    mar = sub.add_parser("marginals", help="release private k-way marginal tensors",
                         allow_abbrev=False)
    mar.add_argument("--input", required=True, help="CSV of 0/1 records")
    _add_privacy_flags(mar, required=True)
    mar.add_argument("--order", type=int, default=2, help="tensor order k")
    mar.add_argument("--mode", choices=["even-flatten", "threshold", "gaussian"],
                     default="even-flatten")
    mar.add_argument("--sparsity", type=int, default=None,
                     help="declared max ones per record")
    mar.add_argument("--seed", type=int, default=0)
    mar.add_argument("--out", required=True, help="released tensor binary path")
    mar.add_argument("--header", action="store_true", help="skip the first input line")
    mar.add_argument("--count-column", action="store_true",
                     help="treat the last column as a record multiplicity")

    ben = sub.add_parser("bench", help="run a benchmark experiment", allow_abbrev=False)
    experiments = ben.add_subparsers(dest="experiment", required=True)
    cosine, marginal, stability, complexity = (
        experiments.add_parser(name, allow_abbrev=False)
        for name in ("cosine-scaling", "marginal-scaling", "stability", "complexity"))
    for p in (cosine, marginal, stability, complexity):
        p.add_argument("--trials", type=int, default=30)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    for p in (cosine, marginal):
        p.add_argument("--sizes", required=True, help="comma-separated problem sizes, ascending")
        p.add_argument("--per-trial-csv", default=None,
                       help="also write raw per-trial errors as CSV")
        _add_privacy_flags(p, required=False)
    cosine.add_argument("--sensitivity", type=float, default=1.0)
    marginal.add_argument("--order", type=int, default=2, help="marginal order k")
    marginal.add_argument("--m", type=int, default=100, help="record count for marginal scaling")
    marginal.add_argument("--sparsity", type=int, default=None)
    for p in (stability, complexity):
        p.add_argument("--n", type=int, default=4, help="side length for stability/complexity")
        p.add_argument("--ambient", choices=["vector", "matrix"], default="matrix")
    stability.add_argument("--bound", type=float, default=1.0, help="entry bound of the box")
    complexity.add_argument("--bound", type=float, default=1.0,
                            help="size of --set: the box's entry bound, the ball's radius "
                                 "or the psd set's trace cap")
    complexity.add_argument("--set", choices=_BENCH_SETS, default="box")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "similarity":
            return run_similarity(args)
        if args.command == "marginals":
            return run_marginals(args)
        return run_bench(args)
    except (EigenFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
