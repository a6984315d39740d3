"""PRNG tests against frozen vectors from an independent C reference.

The splitmix64 and xoshiro256** vectors below were generated by compiling
the published reference C implementations separately and recording their
outputs, so these tests would catch a transcription error in the Python
port rather than merely confirming it against itself.
"""

import numpy as np
import pytest

from risknet.rng import (
    STREAM_DROPOUT,
    STREAM_EPOCH,
    Xoshiro256StarStar,
    bulk_generator,
    derive_seed,
    shuffled_indices,
    splitmix64_sequence,
)

SPLITMIX_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
]

SPLITMIX_SEED42 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
]

# outputs for raw state (1, 2, 3, 4)
XOSHIRO_STATE_1234 = [
    11520,
    0,
    1509978240,
    1215971899390074240,
    1216172134540287360,
    607988272756665600,
]

# generator seeded with 7 (state expanded via splitmix64)
XOSHIRO_SEED7_STATE = (
    7191089600892374487,
    309689372594955804,
    16616101746815609346,
    10753165928301472203,
)
XOSHIRO_SEED7_OUT = [
    12923355070828475994,
    5142052590334782674,
    15488392906492639638,
    18098058644649177664,
    18278145976438096664,
    16099837482234907721,
]


def test_splitmix64_seed0():
    assert splitmix64_sequence(0, 5) == SPLITMIX_SEED0


def test_splitmix64_seed42():
    assert splitmix64_sequence(42, 5) == SPLITMIX_SEED42


def test_xoshiro_raw_state_vector():
    g = Xoshiro256StarStar(0)
    g._s = [1, 2, 3, 4]
    assert [g.next_u64() for _ in range(6)] == XOSHIRO_STATE_1234


def test_xoshiro_seeding_via_splitmix():
    g = Xoshiro256StarStar(7)
    assert tuple(g._s) == XOSHIRO_SEED7_STATE
    assert [g.next_u64() for _ in range(6)] == XOSHIRO_SEED7_OUT


def test_outputs_stay_in_64_bits():
    g = Xoshiro256StarStar(12345)
    for _ in range(1000):
        v = g.next_u64()
        assert 0 <= v < 2**64


def test_below_range_and_determinism():
    g1 = Xoshiro256StarStar(9)
    g2 = Xoshiro256StarStar(9)
    a = [g1.below(10) for _ in range(500)]
    b = [g2.below(10) for _ in range(500)]
    assert a == b
    assert set(a) == set(range(10))


def test_below_rejects_nonpositive():
    g = Xoshiro256StarStar(1)
    with pytest.raises(ValueError):
        g.below(0)


def test_shuffle_is_permutation():
    items = list(range(100))
    g = Xoshiro256StarStar(11)
    g.shuffle(items)
    assert sorted(items) == list(range(100))
    assert items != list(range(100))


def test_shuffled_indices_deterministic():
    assert shuffled_indices(50, 4) == shuffled_indices(50, 4)
    assert shuffled_indices(50, 4) != shuffled_indices(50, 5)


def test_derive_seed_separates_streams():
    base = 7
    seen = {derive_seed(base, tag, i) for tag in (STREAM_EPOCH, STREAM_DROPOUT) for i in range(100)}
    assert len(seen) == 200
    assert derive_seed(base, STREAM_EPOCH, 3) == derive_seed(base, STREAM_EPOCH, 3)


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_bulk_generator_deterministic():
    a = bulk_generator(5, 1, 2).random(16)
    b = bulk_generator(5, 1, 2).random(16)
    c = bulk_generator(5, 1, 3).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
