import numpy as np
import pytest

from lpseq.rng import keyed_generator, trial_streams

LABELS = ("cell", "", "fig2a|p=1.5|r=1.0|d=100|est=mle", "fig2b|p=1.3|r=1.0|d=7017|est=mle")


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_trial_streams_match_keyed_generators(seed):
    for label in LABELS:
        stream = trial_streams(seed, label)
        # out of order, repeated, and the last counter word
        for trial in (5, 0, 2**64 - 1, 3, 5, 1):
            for d in (1, 7, 1000):
                got = np.empty(d)
                stream(trial).standard_normal(out=got)
                want = keyed_generator(seed, label, trial).standard_normal(d)
                assert got.tobytes() == want.tobytes(), (seed, label, trial, d)


def test_trial_stream_discards_a_partial_buffer():
    # a 32-bit draw leaves half a word buffered; the next trial starts fresh
    stream = trial_streams(3, "cell")
    stream(4).integers(0, 10, size=3, dtype=np.uint32)
    stream(9).random(5)
    for trial in (4, 9):
        assert (stream(trial).standard_normal(9).tobytes()
                == keyed_generator(3, "cell", trial).standard_normal(9).tobytes())
