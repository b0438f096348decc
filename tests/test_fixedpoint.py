import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gnatty import (ConfigError, FixedPointParams, RangeTable, encode_table,
                    params_for_integer_range)
from gnatty.fixedpoint import decode_lut, decoded_floats, encode_interval

Q28 = FixedPointParams(total_bits=8, magnitude_bits=2, beta=1 / 5)


def one_row_table(lo, hi):
    """A one-row table whose row is center 0's and whose children are all
    filled: lo holds the m - 1 lower bounds off the row's own column, hi
    all m upper bounds."""
    return RangeTable(np.array([lo], dtype=float).reshape(1, -1), np.array([hi], dtype=float),
                      [0], np.ones(len(hi), dtype=bool))


def encode_one(lo, hi, params=Q28):
    """The codes of the single interval [lo, hi], as a pair of ints."""
    lo_codes, hi_codes = encode_interval(np.array([lo]), np.array([hi]), params)
    return int(lo_codes[0]), int(hi_codes[0])


def test_params_validation():
    with pytest.raises(ConfigError):
        FixedPointParams(total_bits=8, magnitude_bits=0)
    with pytest.raises(ConfigError):
        FixedPointParams(total_bits=17, magnitude_bits=2)
    with pytest.raises(ConfigError):
        FixedPointParams(total_bits=8, magnitude_bits=9)
    with pytest.raises(ConfigError):
        FixedPointParams(beta=0.0)
    assert Q28.scale == 64 and Q28.max_code == 255
    assert Q28.value_bytes == 1.0


def test_encode_examples():
    assert encode_one(0.0, 0.0) == (0, 1)
    assert encode_one(1.0, 1.0) == (64, 65)
    assert encode_one(32.0, 32.0) == (128, 129)


def test_decode_examples():
    lut = decode_lut(Q28)
    assert lut[0] == 0.0
    assert lut[128] == pytest.approx(32.0)
    assert len(lut) == Q28.max_code + 1  # no code above max_code decodes


@given(st.floats(min_value=0.0, max_value=900.0, allow_nan=False))
def test_roundtrip_brackets_value(x):
    # 900 < decode(254) ~ 982 for Q2.8 with beta=1/5, so hi never gets max_code
    lo_code, hi_code = encode_one(x, x)
    lut = decode_lut(Q28)
    assert lut[lo_code] <= x <= lut[hi_code]


@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_codes_ordered(a, b):
    lo, hi = min(a, b), max(a, b)
    lo_code, hi_code = encode_one(lo, hi)
    assert 0 <= lo_code < hi_code <= Q28.max_code


def test_saturation_detection():
    # below decode(max_code - 1) the hi code decodes above hi ...
    lut = decode_lut(Q28)
    _, hi_code = encode_one(900.0, 900.0)
    assert hi_code < Q28.max_code and lut[hi_code] > 900.0
    # ... from it on the hi code is max_code, which decodes to +inf as an
    # upper bound; from decode(max_code) on no code decodes above hi
    assert encode_one(lut[-2], lut[-2])[1] == Q28.max_code
    top = lut[Q28.max_code]
    for hi in (top, 2000.0):
        assert encode_one(hi, hi) == (Q28.max_code, Q28.max_code)
    assert top < 2000.0  # why max_code must decode to +inf
    assert decoded_floats(Q28, upper=True)[Q28.max_code] == math.inf


def test_decode_lut_matches_scalar():
    lut = decode_lut(Q28)
    assert len(lut) == 256
    for code in (0, 1, 7, 64, 128, 255):
        assert lut[code] == (code / Q28.scale) ** (1 / Q28.beta)


def test_params_for_integer_range():
    params = params_for_integer_range(12)
    assert params.beta == 1.0
    lut = decode_lut(params)
    assert lut[params.max_code] >= 12
    lo, hi = encode_one(12.0, 12.0, params)
    assert lut[lo] <= 12.0 <= lut[hi]
    # exact integers survive the round trip un-widened on the lower side
    assert lut[lo] == 12.0


LAYOUTS = [
    Q28,
    FixedPointParams(total_bits=8, magnitude_bits=2, beta=0.5),
    FixedPointParams(total_bits=8, magnitude_bits=3, beta=1.0),
    FixedPointParams(total_bits=8, magnitude_bits=8, beta=1 / 3),
    FixedPointParams(total_bits=4, magnitude_bits=1, beta=0.7),
    FixedPointParams(total_bits=12, magnitude_bits=4, beta=0.2),
]


@pytest.mark.parametrize("params", LAYOUTS)
def test_every_code_boundary_rounds_outward(params):
    # each code's decoded value and the two ulps on either side of it: the
    # spots where a code one step on the wrong side would show
    lut = decode_lut(params)
    xs = []
    for v in lut.tolist():
        below = math.nextafter(v, -math.inf)
        above = math.nextafter(v, math.inf)
        xs += [math.nextafter(below, -math.inf), below, v, above, math.nextafter(above, math.inf)]
    xs = np.array([x for x in xs if x >= 0])
    lo_codes, hi_codes = encode_interval(xs, xs, params)
    for x, lo_code, hi_code in zip(xs.tolist(), lo_codes.tolist(), hi_codes.tolist()):
        # lo: the largest code that decodes to <= x
        assert lo_code == np.flatnonzero(lut <= x).max(), (x, lo_code)
        greater = np.flatnonzero(lut > x)
        if greater.size:
            # hi: the smallest code that decodes to > x
            assert hi_code == greater.min(), (x, hi_code)
        else:
            # no such code: max_code, which decodes to +inf as an upper bound
            assert hi_code == params.max_code
            table = encode_table(one_row_table([], [x]), params)
            assert table.full()[1][0, 0] == params.max_code
            assert table.decoded_bounds()[1] == [[math.inf]]
    # below decode(max_code - 1) every hi code decodes to a finite bound
    fits = xs[xs < lut[-2]]
    assert (encode_table(one_row_table(fits[1:], fits), params).full()[1] < params.max_code).all()


@pytest.mark.parametrize("params", LAYOUTS)
def test_decoded_bounds_match_numpy_decode(params):
    # the decoded rows are made from shared Python floats; they must equal
    # the numpy decode, +inf for hi codes of max_code, bit for bit
    # rows of centers 0, 3 and 6, whose own lower bounds are 0; child 2 is
    # empty, so its column holds one distance: lo = hi
    lut = decode_lut(params)
    rng = np.random.default_rng(params.total_bits)
    top = float(lut[-1])
    rows, filled = [0, 3, 6], np.arange(7) != 2
    own = np.zeros((3, 7), dtype=bool)
    own[range(3), rows] = True
    for scale in (top / 4, top * 2):  # only the second one reaches max_code
        lo = np.where(own, 0.0, rng.uniform(0.0, scale, size=(3, 7)))
        hi = lo + rng.uniform(0.0, scale, size=(3, 7))
        hi[:, 2] = lo[:, 2]
        table = encode_table(RangeTable(lo[~own].reshape(3, 6), hi[:, filled], rows, filled),
                             params)
        assert table.lo.dtype == params.code_dtype and table.hi.dtype == params.code_dtype
        full_lo, full_hi = table.full()
        # the derived codes are those of the full interval table
        assert [c.tolist() for c in encode_interval(lo, hi, params)] == \
            [full_lo.tolist(), full_hi.tolist()]
        assert (full_hi == params.max_code).any() == (scale > top)
        expected_hi = np.where(full_hi == params.max_code, np.inf, lut[full_hi])
        got_lo, got_hi = table.decoded_bounds()
        assert got_lo == lut[full_lo].tolist()
        assert got_hi == expected_hi.tolist()
        assert all(type(x) is float for row in got_lo + got_hi for x in row)
        assert got_lo[0][1] is decoded_floats(params)[full_lo[0, 1]]
        assert [x.hex() for row in got_hi for x in row] == \
            [x.hex() for x in expected_hi.ravel().tolist()]
    assert decoded_floats(params) is decoded_floats(params)
    assert decoded_floats(params, upper=True)[-1] == math.inf
