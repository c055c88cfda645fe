"""Counter-based random streams.

All randomized code in this package draws from Philox generators keyed by
(seed, stream), so results are reproducible and independent streams can be
handed to parallel trajectories without coordination.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream `index` of the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(index))))
