"""Seeded randomness: labelled substreams, triangular sampling, stochastic matrices.

Every random draw in a run comes from a substream keyed by (master seed,
consumer label, period).  Consumers therefore never perturb each other:
changing how many draws one consumer makes in some period leaves every
other consumer's draws, and the same consumer's draws in other periods,
bit-identical.  Runs sharing a master seed share their payment and lending
shocks period by period even when scenario switches alter how many
interbank decisions get taken along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .config import ScenarioConfig

# Label order is part of the determinism contract: append only.
STREAM_LABELS = (
    "assignment",
    "cash_matrix",
    "wire_matrix",
    "repayment_ratio",
    "absorption",
    "interbank_decision",
    "matching",
    "rates",
    "target_ratio",
)

_LABEL_INDEX = {label: i for i, label in enumerate(STREAM_LABELS)}


class RngStreams:
    """Factory of independent, reproducible generators for one run."""

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ConfigError("seed: must be a non-negative integer")
        self.seed = seed

    def stream(self, label: str, period: int = 0) -> np.random.Generator:
        """Fresh generator for (label, period); identical keys give identical draws."""
        try:
            idx = _LABEL_INDEX[label]
        except KeyError:
            raise ConfigError(f"unknown stream label {label!r}") from None
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(idx, int(period)))
        return np.random.Generator(np.random.PCG64(ss))

    def subseed(self, label: str) -> int:
        """Stable 64-bit key for the label, for keyed (stateless) draws."""
        try:
            idx = _LABEL_INDEX[label]
        except KeyError:
            raise ConfigError(f"unknown stream label {label!r}") from None
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(idx,))
        return int(ss.generate_state(2, dtype=np.uint64)[1])


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (Steele, Lea & Flood, OOPSLA 2014) on uint64
    arrays, whose arithmetic wraps mod 2**64.  Arrays, not NumPy scalars:
    scalar uint64 arithmetic warns when it wraps."""
    z = z + 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def keyed_threshold_draw(subseed: int, *fields):
    """Uniform draws on (0, 1] identified by integer keys.

    A draw depends only on (subseed, fields), never on how many other
    draws were made, so an object keeps its own randomness no matter what
    else a scenario changes around it.  Runs that share a seed then stay
    comparable object by object across scenario variants.  Fields may be
    integer arrays, which broadcast into one draw per key; all-scalar
    fields give one Python float.
    """
    state = _mix64(np.full(1, subseed, dtype=np.uint64))
    for field in fields:
        state = _mix64(state ^ np.asarray(field).astype(np.uint64))
    draws = 1.0 - state / 2.0**64
    return draws if any(np.ndim(f) for f in fields) else float(draws[0])


@dataclass(frozen=True)
class TriangularParams:
    """Parameters (lower, peak, upper) of a triangular distribution."""

    lower: float
    peak: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.peak <= self.upper):
            raise ConfigError(
                "triangular parameters must satisfy lower <= peak <= upper, "
                f"got ({self.lower}, {self.peak}, {self.upper})"
            )

    @classmethod
    def point(cls, value: float) -> "TriangularParams":
        return cls(value, value, value)

    @property
    def mean(self) -> float:
        return (self.lower + self.peak + self.upper) / 3.0


def sample_triangular(params: TriangularParams, rng: np.random.Generator, size=None):
    """Inverse-CDF triangular sampling, one uniform per draw.

    A degenerate law (lower == upper) is a point mass and consumes no draws,
    so switching a law off does not shift any other consumer's randomness.
    """
    a, c, b = params.lower, params.peak, params.upper
    if a == b:
        return a if size is None else np.full(size, float(a))
    u = rng.random(size)
    span = b - a
    fc = (c - a) / span
    left = a + np.sqrt(u * span * (c - a))
    right = b - np.sqrt((1.0 - u) * span * (b - c))
    out = np.where(u < fc, left, right)
    return float(out) if size is None else out


def random_row_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n nonnegative matrix whose rows each sum to one."""
    m = rng.random((n, n))
    m /= m.sum(axis=1, keepdims=True)
    return m


def uniform_matrix(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n x m matrix of i.i.d. uniform draws on [0, 1)."""
    return rng.random((n, m))


@dataclass(frozen=True)
class RateSet:
    """One period's rates, applied to end-of-period stocks by the equity accrual."""

    r_a1: np.ndarray
    r_a2: np.ndarray
    r_a3: float
    r_l1: np.ndarray
    r_l2: np.ndarray
    r_l3: float
    r_l5: float


def draw_period_rates(config: ScenarioConfig, rng: np.random.Generator) -> RateSet:
    """Draw one period's rates from the laws ``r_A1``, ``r_A2``, ``r_L1``,
    ``r_L2`` and ``r_interbank``.

    Deposit and retail-loan rates are drawn per bank.  A single interbank
    rate per period serves both the lending and the borrowing side, so the
    two legs of every interbank position accrue at the same rate; the
    guarantee fee sits the fixed punitive spread ``l5_spread`` above it.
    """
    r_a1 = sample_triangular(config.r_A1, rng, config.B)
    r_a2 = sample_triangular(config.r_A2, rng, config.B)
    r_l1 = sample_triangular(config.r_L1, rng, config.B)
    r_l2 = sample_triangular(config.r_L2, rng, config.B)
    r_ib = float(sample_triangular(config.r_interbank, rng))
    return RateSet(
        r_a1=np.asarray(r_a1, dtype=float),
        r_a2=np.asarray(r_a2, dtype=float),
        r_a3=r_ib,
        r_l1=np.asarray(r_l1, dtype=float),
        r_l2=np.asarray(r_l2, dtype=float),
        r_l3=r_ib,
        r_l5=r_ib + config.l5_spread,
    )
