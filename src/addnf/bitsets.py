"""Big-integer bitmask helpers.

Index sets over a fixed range(n) are represented as Python ints with bit i
standing for element i; intersection/union/complement become &, |, ^.
"""
from __future__ import annotations

import itertools
import sys

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as 0/1 bytes


def zero_bit_pattern(count: int, bit_exp: int, stride: int = 1) -> int:
    """Mask over range(count) of the integers whose bit ``bit_exp`` is 0.

    With ``stride`` > 1, integer i owns bits ``i*stride ..`` and only the
    lowest of them is set.  ``count`` must be a power of two with
    ``2**bit_exp < count`` or equal halves; built by repeated doubling, so
    cost is logarithmic in count.
    """
    half = 1 << bit_exp
    x = ((1 << (half * stride)) - 1) // ((1 << stride) - 1)
    span = half << 1
    while span < count:
        x |= x << (span * stride)
        span <<= 1
    return x


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending.

    One pass over the binary digits, lowest first: clearing one bit at a
    time would copy the whole int per bit, quadratic in its width.
    """
    return itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGITS))


def too_long_to_print(n: int) -> bool:
    """Whether ``str(n)`` would pass the interpreter's digit limit
    (``sys.get_int_max_str_digits()``) and raise ValueError."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and n >= 10 ** limit
