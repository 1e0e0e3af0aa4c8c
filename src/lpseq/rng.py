"""Counter-based random streams keyed on (seed, cell, trial).

Every draw site derives its Philox stream from the experiment seed, a stable
string label for the cell, and the trial index: the first two are the key,
the trial the counter's third word, giving each trial 2**64 blocks of
headroom.  Streams never share state, so results do not depend on execution
order and any cell or trial can be regenerated in isolation.
:func:`keyed_generator` builds one generator per trial; :func:`trial_streams`
reuses one per (seed, label) pair, rewinding it to each trial's counter,
which gives the same draws without building a generator per trial.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError, is_integer

_MASK64 = (1 << 64) - 1


def check_seed(seed) -> None:
    """Raise ``InvalidParameterError`` unless ``seed`` is an integer in ``[0, 2**64)``.

    That is the range of the Philox key word it becomes; a seed outside it
    would alias one inside.
    """
    if not (is_integer(seed) and 0 <= seed <= _MASK64):
        raise InvalidParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def label_key(label: str) -> int:
    """Stable 64-bit key for a cell label."""
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")


def keyed_generator(seed: int, label: str, trial: int = 0) -> np.random.Generator:
    """Philox generator for one (seed, label, trial) triple; ``seed`` as :func:`check_seed` requires."""
    check_seed(seed)
    key = np.array([seed, label_key(label)], dtype=np.uint64)
    counter = np.array([0, 0, trial & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def trial_streams(seed: int, label: str):
    """``stream(trial)``: ``keyed_generator(seed, label, trial)``'s draws from one reused generator.

    Each call resets the one Philox generator of ``(seed, label)`` to the
    trial's counter ``[0, 0, trial, 0]`` with an empty buffer, its state when
    built by :func:`keyed_generator`, and returns it; draws taken from an
    earlier call's generator end there.
    """
    rng = keyed_generator(seed, label)
    bit_generator = rng.bit_generator
    state = bit_generator.state  # a fresh generator's: buffer_pos 4, has_uint32 0
    counter = state["state"]["counter"]

    def stream(trial: int) -> np.random.Generator:
        counter[2] = trial & _MASK64
        bit_generator.state = state
        return rng

    return stream
