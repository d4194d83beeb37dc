"""Reference implementation of ``ChannelModel.gain_matrix``: one gather per
player, which the package keeps for models whose players have different
gain tables, while players sharing one table take a single ``np.take``.
Tests compare the package against it bit for bit, and ``engine_oracle``
gathers its gains through it rather than through the code it checks.

``FixedUniforms`` stands in for a generator, so that a test can hand a
sampler the uniforms that sit on its edges.
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


class FixedUniforms:
    """Stands in for a generator whose ``random`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u.reshape(size).copy()  # a fresh array, as a generator gives
