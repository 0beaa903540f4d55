import numpy as np
from hypothesis import given, strategies as st

from fairselect.seeding import make_rng, seed_sequence


@given(st.integers(0, 2**64), st.lists(st.integers(0, 2**32), max_size=3))
def test_a_seed_sequence_without_a_key_draws_what_its_copy_draws(entropy, key):
    ss = seed_sequence(entropy, *key)
    copy = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key)
    assert np.array_equal(make_rng(ss).integers(0, 2**63, size=8),
                          make_rng(copy).integers(0, 2**63, size=8))
    assert make_rng(ss).random() == make_rng(copy).random()

