"""Spans around calls into perturbproj's modules, recorded from outside.

The tracer never edits the package: it rebinds names in the calling module
(``perturbproj.cli.read_vectors_csv`` is the name ``cli`` calls), so every
call that crosses a module boundary passes through a wrapper that records a
span (name, start, end, parent, op id) plus a few counts. Spans stay in
memory until ``dump`` writes them out. A span is only recorded while an
operation is open, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict = field(default_factory=dict)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _shape_size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def _after_read(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[0] if args else kwargs["path"])}


def _after_write_csv(args, kwargs, result) -> dict:
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _after_save(args, kwargs, result) -> dict:
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    return {"bytes": _file_bytes(path) + _file_bytes(result)}


def _after_sample(args, kwargs, result) -> dict:
    return {"draws": _shape_size(args[0])}


def _after_sample_symmetric(args, kwargs, result) -> dict:
    n = int(args[0])
    return {"draws": n * (n + 1) // 2}


# (module, attribute it is called through, span name, counts taken after the call)
TARGETS = (
    ("perturbproj.cli", "read_vectors_csv", "similarity.read", _after_read),
    ("perturbproj.cli", "release_cosine_exact", "similarity.release", None),
    ("perturbproj.cli", "write_release_csv", "similarity.write", _after_write_csv),
    ("perturbproj.similarity", "gram", "similarity.gram", None),
    ("perturbproj.similarity", "perturb_and_alternately_project", "engine.alternate", None),
    ("perturbproj.similarity", "dykstra_reference", "engine.dykstra", None),
    ("perturbproj.marginals", "perturb_and_project", "engine.project_once", None),
    ("perturbproj.engine", "calibrate_sigma", "mechanism.calibrate", None),
    ("perturbproj.marginals", "calibrate_sigma", "mechanism.calibrate", None),
    ("perturbproj.engine", "sample_symmetric_gaussian", "mechanism.sample",
     _after_sample_symmetric),
    ("perturbproj.marginals", "sample_gaussian", "mechanism.sample", _after_sample),
    ("perturbproj.cli", "read_dataset_csv", "marginals.read", _after_read),
    ("perturbproj.cli", "release_even_k", "marginals.release", None),
    ("perturbproj.cli", "release_threshold_baseline", "marginals.release", None),
    ("perturbproj.marginals", "parity_tensor", "marginals.parity", None),
    ("perturbproj.cli", "save_release", "marginals.save", _after_save),
    ("numpy.linalg", "eigh", "projections.eigh", None),
)


class Tracer:
    """In-memory span recorder; ``install`` wraps TARGETS, ``restore`` unwraps."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = []
        self._saved = []
        self._op = None

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counts dict for the caller to fill."""
        op = self._op
        if op is None:
            yield {}
            return
        parent = self._stack[-1] if self._stack else 0
        sid = next(self._ids)
        counts = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op, counts))

    @contextmanager
    def operation(self, op: int):
        """Open operation ``op``; spans recorded inside it carry its id."""
        self._op = op
        try:
            with self.span("cli.main"):
                yield
        finally:
            self._op = None

    def _wrap(self, fn, name, after):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if after is not None and self._op is not None:
                    counts.update(after(args, kwargs, result))
                return result
        return traced

    def install(self) -> None:
        for module, attr, name, after in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, after))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def dump(self, path, header: dict) -> None:
        payload = dict(header, spans=[asdict(s) for s in self.spans])
        Path(path).write_text(json.dumps(payload) + "\n")


UNITS = {
    "projections.eigh_calls": "count",
    "mechanism.draws": "count",
    "mechanism.calibrate_calls": "count",
    "marginals.bytes_in": "bytes",
    "marginals.bytes_out": "bytes",
    "similarity.bytes_in": "bytes",
    "similarity.bytes_out": "bytes",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def self_times(spans) -> dict:
    """Span id -> its length minus the lengths of its children.

    Every traced call runs on the operation's own thread, so the children of
    a span follow one another and never overlap.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans) -> dict:
    """Per-layer totals for the spans of one operation."""
    selfs = self_times(spans)

    def total(name, self_time=False):
        return sum(selfs[s.id] if self_time else s.end - s.start
                   for s in spans if s.name == name)

    def count(name, key=None):
        return sum(1 if key is None else s.counts.get(key, 0)
                   for s in spans if s.name == name)

    return {
        "projections.eigh_calls": count("projections.eigh"),
        "projections.eigh_s": total("projections.eigh"),
        "engine.alternate_self_s": total("engine.alternate", True),
        "engine.dykstra_self_s": total("engine.dykstra", True),
        "engine.project_once_self_s": total("engine.project_once", True),
        "marginals.read_s": total("marginals.read"),
        "marginals.release_self_s": total("marginals.release", True),
        "marginals.bytes_in": count("marginals.read", "bytes"),
        "marginals.parity_s": total("marginals.parity"),
        "marginals.save_s": total("marginals.save"),
        "marginals.bytes_out": count("marginals.save", "bytes"),
        "mechanism.sample_s": total("mechanism.sample"),
        "mechanism.draws": count("mechanism.sample", "draws"),
        "mechanism.calibrate_calls": count("mechanism.calibrate"),
        "similarity.read_s": total("similarity.read"),
        "similarity.gram_s": total("similarity.gram"),
        "similarity.write_s": total("similarity.write"),
        "similarity.bytes_in": count("similarity.read", "bytes"),
        "similarity.bytes_out": count("similarity.write", "bytes"),
        "cli.self_s": total("cli.main", True),
    }
