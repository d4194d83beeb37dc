"""Reference implementation of the min-max floor's per-state utilities.

``punished_utilities_oracle`` is the closed form ``analysis`` used before
the floor became each player's ``oneshot.best_response`` to opponents at
their caps, scored by ``oneshot.utility``: its own interference sums, the
free and capped utilities written out, and an unbounded opponent cap
mapped to 0.  Tests compare ``minmax_levels`` against it to 1e-15
relative.
"""

from __future__ import annotations

import numpy as np

from powergame.oneshot import GameParams


def punished_utilities_oracle(params: GameParams, gains: np.ndarray) -> np.ndarray:
    """Best utility each player can reach while everyone else jams at the cap.

    Utility falls in the interference, so the opponents' minimizing play is
    the cap; the inner maximum is the usual best response in closed form.
    An unbounded opponent cap drives the level to 0.  ``gains`` has shape
    (S, K); returns (S, K).
    """
    bs = params.beta_star
    k = params.n_players
    received_cap = params.p_max * gains  # may contain inf
    interference = np.zeros_like(gains)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        interference[:, i] = received_cap[:, others].sum(axis=1)
    noise_plus = interference + params.sigma2
    want = bs * noise_plus / gains
    capped = want > params.p_max
    with np.errstate(invalid="ignore", divide="ignore"):
        u_free = params.rates * params.eff.value(bs) * gains / (bs * noise_plus)
        u_free = np.where(np.isfinite(u_free), u_free, 0.0)
        if np.any(capped):
            sinr_cap = np.where(
                np.isfinite(noise_plus), received_cap / noise_plus, 0.0
            )
            u_cap = params.rates * np.asarray(params.eff.value(sinr_cap)) / params.p_max
            u_cap = np.where(np.isfinite(u_cap), u_cap, 0.0)
            return np.where(capped, u_cap, u_free)
    return u_free
