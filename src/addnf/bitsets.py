"""Big-integer bitmask helpers.

Index sets over a fixed range(n) are represented as Python ints with bit i
standing for element i; intersection/union/complement become &, |, ^.
"""
from __future__ import annotations

import sys


def zero_bit_pattern(count: int, bit_exp: int) -> int:
    """Mask over range(count) of the integers whose bit ``bit_exp`` is 0.

    ``count`` must be a power of two with ``2**bit_exp < count`` or equal
    halves; built by repeated doubling, so cost is logarithmic in count.
    """
    half = 1 << bit_exp
    x = (1 << half) - 1
    span = half << 1
    while span < count:
        x |= x << span
        span <<= 1
    return x


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def too_long_to_print(n: int) -> bool:
    """Whether ``str(n)`` would pass the interpreter's digit limit
    (``sys.get_int_max_str_digits()``) and raise ValueError."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and n >= 10 ** limit


def int_text(n: int) -> str:
    """``n`` in decimal, or its power-of-two floor when that is too long."""
    if too_long_to_print(n):
        return f"2**{n.bit_length() - 1} or more"
    return str(n)


def bit_count(mask: int) -> int:
    return bin(mask).count("1")
