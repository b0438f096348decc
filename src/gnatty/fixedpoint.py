"""Fixed-point codec for range-table entries.

Distance bounds are stored as unsigned b-bit codes: the value is first put
through a power transform x**beta (beta <= 1 pulls a wide dynamic range
towards 1), then scaled by 2**(total_bits - magnitude_bits) and truncated.
Lower bounds round down and upper bounds round up so the decoded interval
always contains the true one; queries therefore stay exact, only pruning
power is lost.  No arithmetic is ever done in the coded domain, codes are
decoded back to floats when consulted.
"""

from __future__ import annotations

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
    enough magnitude bits that max_value decodes without saturating.
    """
    if max_value < 0:
        raise ConfigError("max_value must be non-negative")
    mag = 1
    while mag < total_bits and ((1 << total_bits) - 1) / (1 << (total_bits - mag)) < max_value:
        mag += 1
    return FixedPointParams(total_bits=total_bits, magnitude_bits=mag, beta=1.0)


def encode_interval(lo: float, hi: float, params: FixedPointParams) -> tuple[int, int]:
    """Encode [lo, hi] as codes, rounding lo down and hi up.

    The power transform and the scaling round in floating point, so a
    truncated code can decode one ulp past the value it came from; each
    code is then stepped until its decode_lut value lies on the safe side
    (lo code decodes <= lo, hi code decodes >= hi).  Codes are clamped to
    [0, 2**total_bits - 1]; use hi_saturates() to detect an upper bound
    that no longer dominates the true value.
    """
    scale = params.scale
    max_code = params.max_code
    lut = decode_lut(params)
    lo_code = min(max(int(lo**params.beta * scale), 0), max_code)  # truncation = round down
    hi_code = min(max(int(hi**params.beta * scale) + 1, 0), max_code)
    while lo_code > 0 and lut[lo_code] > lo:
        lo_code -= 1
    while hi_code < max_code and lut[hi_code] < hi:
        hi_code += 1
    return lo_code, hi_code


def hi_saturates(hi: float, params: FixedPointParams) -> bool:
    """True when the rounded-up code for hi exceeds the representable range,
    or when even the largest code decodes below hi."""
    return (int(hi**params.beta * params.scale) + 1 > params.max_code
            or decode_lut(params)[params.max_code] < hi)


def decode_code(code: int, params: FixedPointParams) -> float:
    """Map a code back to a float: (code / scale) ** (1 / beta)."""
    if not 0 <= code <= params.max_code:
        raise ConfigError(f"code {code} out of range for {params.total_bits}-bit codec")
    return (code / params.scale) ** (1.0 / params.beta)


@lru_cache(maxsize=32)
def decode_lut(params: FixedPointParams) -> np.ndarray:
    """All 2**total_bits decoded values; lets queries decode by lookup."""
    codes = np.arange(params.max_code + 1, dtype=np.float64)
    return (codes / params.scale) ** (1.0 / params.beta)
