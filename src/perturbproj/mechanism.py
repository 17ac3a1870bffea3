"""Gaussian noise calibration, reproducible sampling and the privacy record.

Sampling is a pure function of its arguments: the same (seed, stream_index)
always reproduces the same draw, bit for bit, on every platform and thread
count. Anything that needs two independent draws must use two streams.
Every release's sidecar record starts from audit_record, and every release
file and its sidecar are written by write_with_sidecar. Every noise draw a
release adds is checked by refuse_unresolved_noise first.
Every integer parameter of the package is checked by integer_at_least, and
every scale (epsilon, sensitivity, sigma, a set's bound) by finite_positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# A noisy statistic is held to gamma, the largest power of two <= sigma * 2^-RESOLUTION_BITS;
# a value above 2 refuses the Gaussian release at epsilon 1 of counts at 2^53 (sigma 10.8).
RESOLUTION_BITS = 2


def integer_at_least(name: str, value, least: int) -> int:
    """value as an int when it is a Python or numpy integer, not a bool, and >= least."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def finite_positive(name: str, value):
    """value when it is finite and greater than 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget (epsilon, delta)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        finite_positive("epsilon", self.epsilon)
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie strictly inside (0, 1), got {self.delta!r}")


@dataclass(frozen=True)
class RandomStream:
    """Counter-style handle on a random substream.

    Distinct stream_index values give statistically independent streams under
    the same seed, so parallel trials can each carry their own stream and
    produce results that do not depend on scheduling.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 0))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(ss))

    def shifted(self, offset: int) -> "RandomStream":
        """Stream with the same seed and stream_index moved by offset."""
        return RandomStream(self.seed, self.stream_index + offset)


def audit_record(params: PrivacyParams, sensitivity: float, sigma: float, stream: RandomStream,
                 method: str) -> dict:
    """The privacy record of one release: its budget, sensitivity, noise scale, seed and method."""
    return {"epsilon": params.epsilon, "delta": params.delta, "sensitivity": sensitivity,
            "sigma": sigma, "seed": stream.seed, "method": method}


def json_text(record: dict) -> str:
    """Strict JSON (RFC 8259), keys sorted, ending in a newline; a non-finite value raises."""
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_with_sidecar(path, record: dict, write) -> Path:
    """Call write(path), then write record as JSON to path's .json sidecar; return the sidecar.

    A path that is its own sidecar (it ends in .json) is refused, and the
    record is serialized first, so a refused or non-finite record writes nothing.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if sidecar == path:
        raise ValueError(f"release path {path} would be overwritten by its .json sidecar")
    text = json_text(record)
    write(path)
    sidecar.write_text(text)
    return sidecar


def calibrate_sigma(params: PrivacyParams, sensitivity: float) -> float:
    """Noise scale sensitivity * sqrt(2 * ln(2/delta)) / epsilon.

    This is the standard Gaussian mechanism calibration: adding N(0, sigma^2)
    per coordinate to a statistic with l2 sensitivity `sensitivity`, which
    must be finite and positive, satisfies (epsilon, delta) differential privacy.
    """
    finite_positive("sensitivity", sensitivity)
    return sensitivity * math.sqrt(2.0 * math.log(2.0 / params.delta)) / params.epsilon


def refuse_unresolved_noise(statistic: np.ndarray, noise: np.ndarray, sigma: float) -> None:
    """Refuse when max|statistic| + max|noise| >= 2^53 * gamma, past which float64 cannot hold
    their sum to gamma; infinite entries, which no noise changes, are left out."""
    gamma = math.ldexp(1.0, math.frexp(sigma)[1] - 1 - RESOLUTION_BITS)
    top = max(float(statistic.max()), -float(statistic.min()))  # max|x| without a copy
    if top == math.inf:
        top = float(np.max(np.abs(statistic), where=np.isfinite(statistic), initial=0.0))
    if top + max(float(noise.max()), -float(noise.min())) >= 2.0**53 * gamma:
        raise ValueError(f"noise of scale sigma={sigma:g} is below the float64 resolution of "
                         f"a statistic with entries up to {top:g}")


def sample_gaussian(shape, sigma: float, stream: RandomStream) -> np.ndarray:
    """iid N(0, sigma^2) array of the given shape; refuses a draw that overflowed to inf."""
    finite_positive("sigma", sigma)
    draw = stream.generator().standard_normal(shape)
    with np.errstate(over="ignore"):  # reported below as an error instead
        draw *= sigma
    if not np.all(np.isfinite(draw)):
        raise ValueError(f"noise of scale sigma={sigma:g} overflows float64")
    return draw


def sample_symmetric_gaussian(n: int, sigma: float, stream: RandomStream) -> np.ndarray:
    """Symmetric n x n noise: iid N(0, sigma^2) on i <= j, mirrored below.

    Every independent coordinate (diagonal included) has standard deviation
    sigma, which is what the l2 calibration over the upper-triangle
    coordinates of a symmetric statistic requires. The draws fill the upper
    triangle row by row.
    """
    n = integer_at_least("matrix side", n, 1)
    upper = sample_gaussian(n * (n + 1) // 2, sigma, stream)
    w = np.zeros((n, n))
    w[np.triu(np.ones((n, n), dtype=bool))] = upper
    w += np.triu(w, 1).T
    return w
