"""Fixed-point codec for range-table entries.

Distance bounds are stored as unsigned b-bit codes.  A code c decodes to
(c / 2**(total_bits - magnitude_bits)) ** (1 / beta); beta <= 1 spreads
the codes over a wide dynamic range.  The decode table of every code is
the codec: a lower bound encodes to the largest code that decodes to at
most the bound, an upper bound to the smallest code that decodes above
it, so the decoded interval always contains the true one: an upper code
of max_code decodes to +inf.  Queries therefore stay exact, only pruning
power is lost.  No arithmetic is ever done in the coded domain, codes are
decoded back to floats when consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class FixedPointParams:
    """Code layout: total_bits per value, magnitude_bits of integer part."""

    total_bits: int = 8
    magnitude_bits: int = 2
    beta: float = 0.2

    def __post_init__(self):
        if not 1 <= self.magnitude_bits <= self.total_bits <= 16:
            raise ConfigError(
                f"need 1 <= magnitude_bits <= total_bits <= 16, got "
                f"magnitude_bits={self.magnitude_bits}, total_bits={self.total_bits}"
            )
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def scale(self) -> int:
        return 1 << (self.total_bits - self.magnitude_bits)

    @property
    def max_code(self) -> int:
        return (1 << self.total_bits) - 1

    @property
    def value_bytes(self) -> float:
        """Accounting width of one stored value, in bytes."""
        return self.total_bits / 8.0


def params_for_integer_range(max_value: float, total_bits: int = 8) -> FixedPointParams:
    """Identity-transform params whose representable range covers max_value.

    The natural choice for small-range integer metrics: beta = 1 and just
    enough magnitude bits that decode(max_code) >= max_value.
    """
    if max_value < 0:
        raise ConfigError("max_value must be non-negative")
    mag = 1
    while mag < total_bits and ((1 << total_bits) - 1) / (1 << (total_bits - mag)) < max_value:
        mag += 1
    return FixedPointParams(total_bits=total_bits, magnitude_bits=mag, beta=1.0)


def encode_interval(lo, hi, params: FixedPointParams):
    """Encode [lo, hi] as codes by lookup in decode_lut(params).

    The lo code is the largest code that decodes to <= lo; the hi code is
    the smallest code that decodes to > hi, clamped to max_code, which
    decodes to +inf as an upper bound (see decoded_floats).  lo and hi are
    float arrays; the codes are integer arrays of the same shape.
    """
    lut = decode_lut(params)
    return (np.searchsorted(lut, lo, "right") - 1,
            np.minimum(np.searchsorted(lut, hi, "right"), params.max_code))


@lru_cache(maxsize=32)
def decode_lut(params: FixedPointParams) -> np.ndarray:
    """All 2**total_bits decoded values; lets queries decode by lookup."""
    codes = np.arange(params.max_code + 1, dtype=np.float64)
    return (codes / params.scale) ** (1.0 / params.beta)


@lru_cache(maxsize=64)
def decoded_floats(params: FixedPointParams, upper: bool = False) -> np.ndarray:
    """decode_lut(params) as an object array of Python floats, so that
    every table decoded with params shares the same 2**total_bits float
    objects; with upper, for upper bounds, max_code decodes to +inf."""
    values = decode_lut(params).tolist()
    if upper:
        values[-1] = math.inf
    floats = np.empty(len(values), dtype=object)
    floats[:] = values
    floats.flags.writeable = False
    return floats
