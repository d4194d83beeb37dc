"""Reference implementation of ``ChannelModel.gain_matrix``: one gather per
player, which the package keeps for models whose players have different
gain tables, while players sharing one table take a single ``np.take``.
Tests compare the package against it bit for bit, and ``engine_oracle``
gathers its gains through it rather than through the code it checks.
"""

from __future__ import annotations

import numpy as np


def gain_matrix_oracle(model, idx) -> np.ndarray:
    """The gains of an (..., K) array of per-player state indices."""
    idx = np.asarray(idx)
    out = np.empty(idx.shape, dtype=float)
    for i, g in enumerate(model.gains):
        out[..., i] = g[idx[..., i]]
    return out
