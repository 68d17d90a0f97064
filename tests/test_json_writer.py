"""The CLI's one-pass JSON writer against the standard library's encoder."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import json_text

from epistab.cli import _emit


def _from_bits(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


def _floats(exponents):
    """Finite floats with a biased exponent field drawn from ``exponents``."""
    return st.builds(_from_bits, st.integers(0, 1), exponents, st.integers(0, 2**52 - 1))


FLOATS = st.one_of(
    _floats(st.integers(0, 2046)),                    # every finite float
    _floats(st.just(0)),                              # ±0.0 and the subnormals
    _floats(st.integers(1023 + 36, 1023 + 56)),       # 6.9e10 to 1.4e17
    st.floats(1e11, 1e17),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e12, 999999999999.5,
                     9.9999999999995e15, 1e16, 1.7976931348623157e308, 0.0001, 1e-5]),
)

SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(),
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.none(),
    st.text(),
)

TREES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=8), children, max_size=5)),
    max_leaves=25,
)


def _written(obj):
    buf = io.StringIO()
    _emit(obj, buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(TREES)
def test_writer_matches_the_standard_library_byte_for_byte(obj):
    assert _written(obj) == json_text(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=60))
def test_each_float_is_the_repr_of_its_12_digit_value(values):
    assert _written(values) == json_text(values)


@pytest.mark.parametrize("low, high", [(0, 2047), (0, 1), (1023 + 36, 1023 + 57)])
def test_seeded_bit_patterns(low, high):
    # biased exponent fields in [low, high): all finite floats, ±0.0 and the
    # subnormals, and 6.9e10 to 1.4e17
    rng = np.random.default_rng(low)
    bits = (rng.integers(low, high, 20000, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2**52, 20000, dtype=np.uint64)
            | rng.integers(0, 2, 20000, dtype=np.uint64) << np.uint64(63))
    values = bits.view(np.float64).tolist()
    assert _written(values) == json_text(values)


def test_writer_examples():
    assert _written({"b": [1.0, 2, None], "a": {}, "c": [], "\u00e9": (True, "\u2603")}) == (
        '{\n  "a": {},\n  "b": [\n    1.0,\n    2,\n    null\n  ],\n  "c": [],\n'
        '  "\\u00e9": [\n    true,\n    "\\u2603"\n  ]\n}\n')
    assert _written([1e12, 1e16, 5e-324, -0.0, 0.1 + 0.2, 123456789012345.0]) == (
        "[\n  1000000000000.0,\n  1e+16,\n  5e-324,\n  -0.0,\n  0.3,\n  123456789012000.0\n]\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@settings(max_examples=10, deadline=None)
@given(prefix=st.lists(TREES, max_size=3))
def test_a_non_finite_value_raises_and_writes_nothing(bad, prefix):
    buf = io.StringIO()
    with pytest.raises(ArithmeticError, match="non-finite value"):
        _emit({"ok": prefix, "z": [1.0, {"x": bad}]}, buf)
    assert buf.getvalue() == ""
