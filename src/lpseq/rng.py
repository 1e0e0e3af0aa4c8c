"""Counter-based random streams keyed on (seed, cell, trial).

Every draw site derives its own Philox generator from the experiment seed, a
stable string label for the cell, and the trial index.  Streams never share
state, so results do not depend on execution order and any cell or trial can
be regenerated in isolation.  Trials are separated in the counter's third
word, giving each one 2**64 blocks of headroom.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1


def check_seed(seed) -> None:
    """Raise ``InvalidParameterError`` unless ``seed`` is an integer in ``[0, 2**64)``.

    That is the range of the Philox key word it becomes; a seed outside it
    would alias one inside.
    """
    if (isinstance(seed, bool) or not isinstance(seed, (int, numbers.Integral))
            or not 0 <= seed <= _MASK64):
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
