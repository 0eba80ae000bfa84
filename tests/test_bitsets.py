import random
import time

import pytest

from addnf.bitsets import iter_bits


def _reference(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _sparse():
    rng = random.Random(1)
    return sum(1 << rng.randrange(5000) for _ in range(40))


def _dense():
    rng = random.Random(2)
    return sum(1 << i for i in range(3000) if rng.random() < 0.9)


@pytest.mark.parametrize("mask", [0, 1, 0b1011_0110, 1 << 100000, _sparse(), _dense()],
                         ids=["zero", "one", "byte", "one-high-bit", "sparse", "dense"])
def test_iter_bits_lists_the_set_bits_ascending(mask):
    assert list(iter_bits(mask)) == _reference(mask)


def test_iter_bits_is_linear_in_the_mask_width():
    # Copying the int once per set bit would take seconds on this mask.
    mask = (1 << 262144) - 1
    t0 = time.perf_counter()
    bits = list(iter_bits(mask))
    elapsed = time.perf_counter() - t0
    assert bits == list(range(262144))
    assert elapsed < 1.0, f"{elapsed:.2f}s"
