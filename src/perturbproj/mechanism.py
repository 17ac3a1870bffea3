"""Gaussian noise calibration, reproducible sampling and the privacy record.

Sampling is a pure function of its arguments: the same (seed, stream_index)
always reproduces the same draw, bit for bit, on every platform and thread
count. Anything that needs two independent draws must use two streams.
An entrywise draw of SPLIT_DRAW_MIN entries or more comes from the stream's
two fixed Philox lanes, one half each, filled at the same time on two
threads; the lane count never changes, so neither do the bytes.
Every release's sidecar record starts from audit_record, and every release
file and its sidecar are written by write_with_sidecar. Every noise draw a
release adds is checked by refuse_unresolved_noise first.
Every integer parameter of the package is checked by integer_at_least, and
every scale (epsilon, sensitivity, sigma, a set's bound) by finite_positive.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# A noisy statistic is held to gamma, the largest power of two <= sigma * 2^-RESOLUTION_BITS;
# a value above 2 refuses the Gaussian release at epsilon 1 of counts at 2^53 (sigma 10.8).
RESOLUTION_BITS = 2

# An entrywise draw of at least this many normals is split over RandomStream.lanes.
# Back to back in a warm process (2-vCPU x86-64, numpy 2.4.6, median of 300),
# one lane against two took 68 vs 129 us at 2^12 normals, 202 vs 137 us at
# 2^14, 602 vs 366 us at 2^16 and 2.34 vs 1.25 ms at 2^18. Draws spaced out
# between other work wait longer for the idle core: split at every size, the
# test suite took 23.5 s instead of 16.8 s (its box Monte Carlo check 0.5 -> 3.0 s).
SPLIT_DRAW_MIN = 2**16


def integer_at_least(name: str, value, least: int) -> int:
    """value as an int when it is a Python or numpy integer, not a bool, and >= least."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def finite_positive(name: str, value):
    """value when it is a real number (not a bool, a string or None), finite and above 0."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget (epsilon, delta)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        finite_positive("epsilon", self.epsilon)
        if not (isinstance(self.delta, numbers.Real) and 0 < self.delta < 1):  # no bool passes
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

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def lanes(self) -> tuple:
        """Two Philox generators spawned from this stream's seed sequence.

        They are independent of each other, of generator() and of every other
        stream_index, and depend on (seed, stream_index) alone.
        """
        return tuple(np.random.Generator(np.random.Philox(child))
                     for child in self._seed_sequence().spawn(2))

    def shifted(self, offset: int) -> "RandomStream":
        """Stream with the same seed and stream_index moved by offset."""
        return RandomStream(self.seed, self.stream_index + offset)


def audit_record(params: PrivacyParams, sensitivity: float, sigma: float, stream: RandomStream,
                 method: str) -> dict:
    """One release's privacy record: budget, sensitivity, sigma (as JSON floats), seed, method."""
    return {"epsilon": float(params.epsilon), "delta": float(params.delta),
            "sensitivity": float(sensitivity), "sigma": float(sigma), "seed": stream.seed,
            "method": method}


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
    """Refuse a statistic with a NaN or inf entry (the Gaussian mechanism covers finite ones),
    or with max|statistic| + max|noise| >= 2^53 * gamma: float64 cannot hold the sum to gamma."""
    gamma = math.ldexp(1.0, math.frexp(sigma)[1] - 1 - RESOLUTION_BITS)
    top = max(float(statistic.max()), -float(statistic.min()))  # max|x| without a copy
    if not math.isfinite(top):  # NaN or inf exactly when an entry is
        raise ValueError("the statistic has a non-finite entry, which no noise can privatize")
    if top + max(float(noise.max()), -float(noise.min())) >= 2.0**53 * gamma:
        raise ValueError(f"noise of scale sigma={sigma:g} is below the float64 resolution of "
                         f"a statistic with entries up to {top:g}")


def _draw(out: np.ndarray, sigma: float, lane: np.random.Generator) -> np.ndarray:
    """Fill out with lane's standard normals times sigma; an overflow is left as inf."""
    lane.standard_normal(out=out)
    with np.errstate(over="ignore"):  # refused by _finite instead
        out *= sigma
    return out


def _finite(draw: np.ndarray, sigma: float) -> np.ndarray:
    if not np.all(np.isfinite(draw)):
        raise ValueError(f"noise of scale sigma={sigma:g} overflows float64")
    return draw


def _draw_two_lanes(flat: np.ndarray, sigma: float, stream: RandomStream) -> None:
    """_draw flat[:size // 2] from lanes()[0] on this thread and the rest from
    lanes()[1] on a helper thread, at once; an error in the helper is raised here."""
    first, second = stream.lanes()
    half = flat.size // 2
    errors = []

    def helper():
        try:
            _draw(flat[half:], sigma, second)
        except BaseException as err:
            errors.append(err)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        _draw(flat[:half], sigma, first)
    finally:
        thread.join()
    if errors:
        raise errors[0]


def sample_gaussian(shape, sigma: float, stream: RandomStream) -> np.ndarray:
    """iid N(0, sigma^2) array of the given shape; refuses a draw that overflowed to inf.

    Below SPLIT_DRAW_MIN entries the draw is stream.generator()'s
    standard_normal(shape) * sigma. From SPLIT_DRAW_MIN on, the flat C-order
    array's first size // 2 entries come from stream.lanes()[0] and the rest
    from stream.lanes()[1], drawn at once on two threads; the bytes depend on
    the seed and stream_index alone.
    """
    finite_positive("sigma", sigma)
    draw = np.empty(shape)
    if draw.size < SPLIT_DRAW_MIN:
        _draw(draw, sigma, stream.generator())
    else:
        _draw_two_lanes(draw.reshape(-1), sigma, stream)
    return _finite(draw, sigma)


def sample_symmetric_gaussian(n: int, sigma: float, stream: RandomStream) -> np.ndarray:
    """Symmetric n x n noise: iid N(0, sigma^2) on i <= j, mirrored below.

    Every independent coordinate (diagonal included) has standard deviation
    sigma, which is what the l2 calibration over the upper-triangle
    coordinates of a symmetric statistic requires. The draws, from stream.generator()
    alone at every n, fill the upper triangle row by row and, through w.T, the lower.
    """
    n = integer_at_least("matrix side", n, 1)
    finite_positive("sigma", sigma)
    w = np.empty((n, n))  # first: the draws' buffer, freed on return, lies above it in the heap
    upper = _finite(_draw(np.empty(n * (n + 1) // 2), sigma, stream.generator()), sigma)
    mask = np.triu(np.ones((n, n), dtype=bool))
    w[mask] = w.T[mask] = upper
    return w
