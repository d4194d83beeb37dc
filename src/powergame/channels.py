"""Finite channel-gain state spaces and their stochastic evolution.

A channel model is a per-player finite set of gain values together with a
transition law over the joint state (one gain index per player).  Three
law families are supported:

* ``IIDProductLaw``   -- fresh independent draws per player each stage;
* ``IIDJointLaw``     -- fresh draws of the joint state from one vector;
* ``MarkovJointLaw``  -- a row-stochastic matrix over joint states.

Irreducibility here means every transition probability is strictly
positive, which i.i.d. laws with full support satisfy automatically.
Joint states are tuples of per-player indices; flat indices enumerate
them in row-major (lexicographic) order, which is also the order used by
the model file format.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError, ReducibleLawError

_ROW_SUM_TOL = 1e-12
_JOINT_CAP = 1 << 17  # largest joint space materialized exactly

MODEL_FILE_FORMAT = "powergame-channel-model-v3"


def _check_probs(vec, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ModelError(f"{what} must be a non-empty vector")
    if not (np.all(vec >= 0) and abs(vec.sum() - 1.0) <= _ROW_SUM_TOL):  # NaN fails
        raise ModelError(f"{what} must be nonnegative and sum to 1")
    return vec


class IIDProductLaw:
    """Independent per-player categorical draws, fresh each stage."""

    def __init__(self, per_player_probs):
        self.probs = tuple(
            _check_probs(p, f"player {i} probability vector")
            for i, p in enumerate(per_player_probs)
        )
        if any(np.any(p <= 0) for p in self.probs):
            raise ReducibleLawError("i.i.d. law needs full support to be irreducible")
        self.dims = tuple(p.size for p in self.probs)
        self._cums = [np.cumsum(p) for p in self.probs]
        for c in self._cums:
            c[-1] = 1.0
        # a uniform law over n = 2^m bins has cumulative values exactly j/n,
        # so floor(u * n) is the index searchsorted finds, bit for bit
        bins = [p.size for p in self.probs]
        exact = all(n & (n - 1) == 0 and np.all(p == 1.0 / n) for n, p in zip(bins, self.probs))
        self._dyadic_bins = np.array(bins, dtype=float) if exact else None

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        u = rng.random((horizon, len(self.dims)))
        if self._dyadic_bins is not None:
            u *= self._dyadic_bins
            idx = u.astype(np.int64)
        else:
            idx = np.empty(u.shape, dtype=np.int64)
            for i, cum in enumerate(self._cums):
                idx[:, i] = np.searchsorted(cum, u[:, i], side="right")
        if initial is not None:
            idx[0] = np.asarray(initial, dtype=np.int64)
        return idx

    def stationary_joint(self) -> np.ndarray:
        if math.prod(self.dims) > _JOINT_CAP:
            raise ModelError(
                f"joint state space has {math.prod(self.dims)} states; too large to enumerate"
            )
        mu = self.probs[0]
        for p in self.probs[1:]:
            mu = np.outer(mu, p).ravel()
        return mu


class IIDJointLaw:
    """Fresh draws of the whole joint state from a single distribution."""

    def __init__(self, mu, dims):
        self.dims = tuple(int(d) for d in dims)
        self.mu = _check_probs(mu, "joint state distribution")
        if self.mu.size != math.prod(self.dims):
            raise ModelError("joint distribution length does not match the state space")
        if np.any(self.mu <= 0):
            raise ReducibleLawError("i.i.d. law needs full support to be irreducible")
        self._cum = np.cumsum(self.mu)
        self._cum[-1] = 1.0

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        flat = np.searchsorted(self._cum, rng.random(horizon), side="right")
        idx = _unravel(flat, self.dims)
        if initial is not None:
            idx[0] = np.asarray(initial, dtype=np.int64)
        return idx

    def stationary_joint(self) -> np.ndarray:
        return self.mu.copy()


class MarkovJointLaw:
    """Row-stochastic transition matrix over the joint state space."""

    def __init__(self, matrix, dims, require_irreducible: bool = True):
        self.dims = tuple(int(d) for d in dims)
        matrix = np.asarray(matrix, dtype=float)
        size = math.prod(self.dims)
        if matrix.shape != (size, size):
            raise ModelError(
                f"transition matrix shape {matrix.shape} does not match "
                f"{size} joint states"
            )
        if not (np.all(matrix >= 0)
                and np.all(np.abs(matrix.sum(axis=1) - 1.0) <= _ROW_SUM_TOL)):  # NaN fails
            raise ModelError("transition matrix rows must be nonnegative and sum to 1")
        if require_irreducible:
            _require_irreducible(matrix)
        self.matrix = matrix
        self._cum = np.cumsum(matrix, axis=1)
        self._cum[:, -1] = 1.0
        # zero-copy views of the rows: stepping the chain bisects one of
        # them per stage without a numpy call
        self._rows = [memoryview(row) for row in self._cum]

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        # bisect_right takes the same midpoints as searchsorted(side="right"),
        # so even a row whose sums pass 1.0 before its last entry maps every
        # uniform to the same state
        u = rng.random(horizon)
        if initial is None:
            state = int(np.searchsorted(self._start_cum, u[0], side="right"))
        else:
            state = int(np.ravel_multi_index(tuple(initial), self.dims))
        flat = [state]
        rows = self._rows
        for x in u[1:].tolist():
            state = bisect_right(rows[state], x)
            flat.append(state)
        return _unravel(np.array(flat, dtype=np.int64), self.dims)

    @cached_property
    def _start_cum(self) -> np.ndarray:
        """Cumulative stationary distribution, from which paths start."""
        cum = np.cumsum(self.stationary_joint())
        cum[-1] = 1.0
        return cum

    def stationary_joint(self) -> np.ndarray:
        _require_irreducible(self.matrix)
        n = self.matrix.shape[0]
        a = self.matrix.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        mu = np.linalg.solve(a, b)
        residual = float(np.max(np.abs(mu @ self.matrix - mu)))
        if residual > 1e-10 or np.any(mu < -1e-12):
            raise ModelError(f"stationary distribution solve failed, residual {residual}")
        mu = np.clip(mu, 0.0, None)
        return mu / mu.sum()


def _unravel(flat, dims) -> np.ndarray:
    """(..., K) per-player indices of row-major flat joint-state indices."""
    return np.stack(np.unravel_index(flat, dims), axis=-1).astype(np.int64)


def _require_irreducible(matrix: np.ndarray) -> None:
    if np.any(matrix <= 0):
        raise ReducibleLawError(
            "transition law has zero entries; irreducibility (all transition "
            "probabilities positive) is required"
        )


@dataclass(frozen=True)
class TwoStateSpec:
    """Each player's gain is eta_min or eta_max, i.i.d. per player and stage;
    p_high is the probability of eta_max."""

    eta_min: float
    eta_max: float
    p_high: float = 0.5

    def __post_init__(self):
        if not (0 < self.eta_min <= self.eta_max):
            raise ModelError("need 0 < eta_min <= eta_max")
        if not (0 < self.p_high < 1):
            raise ModelError("p_high must be in (0, 1)")


@dataclass(frozen=True)
class TruncatedRayleighSpec:
    """Gain eta = x**2 with x Rayleigh(scale), conditioned on
    eta in [eta_min, eta_max], quantized into ``bins`` equal-probability
    cells represented by their conditional means; i.i.d. per player/stage.
    """

    scale: float = 1.0
    eta_min: float = 0.1
    eta_max: float = 10.0
    bins: int = 16

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ModelError("scale must be positive and finite")
        if not (0 <= self.eta_min < self.eta_max):
            raise ModelError("need 0 <= eta_min < eta_max")
        if self.bins < 2:
            raise ModelError("bins must be >= 2")


@dataclass(frozen=True)
class ExplicitSpec:
    """Fully specified model: per-player gain values plus either a joint
    i.i.d. distribution ``mu`` or a joint transition matrix."""

    gains: tuple
    mu: tuple | None = None
    transition: tuple | None = None

    def __post_init__(self):
        if (self.mu is None) == (self.transition is None):
            raise ModelError("give exactly one of mu or transition")


@dataclass(frozen=True, eq=False)
class ChannelModel:
    gains: tuple  # per-player np.ndarray of gain values
    law: IIDProductLaw | IIDJointLaw | MarkovJointLaw

    def __post_init__(self):
        gains = tuple(np.asarray(g, dtype=float) for g in self.gains)
        if len(gains) != self.n_players:
            raise ModelError("gain sets and law disagree on the player count")
        for i, g in enumerate(gains):
            if g.size != self.law.dims[i]:
                raise ModelError(f"player {i} gain set does not match the law dimension")
            if not np.all((g > 0) & (g < np.inf)):
                raise ModelError("all gains must be strictly positive and finite")
        object.__setattr__(self, "gains", gains)

    @property
    def n_players(self) -> int:
        return len(self.law.dims)

    @property
    def joint_size(self) -> int:
        return math.prod(self.law.dims)

    @property
    def sup_gain(self) -> float:
        return float(max(g.max() for g in self.gains))

    def gain_matrix(self, idx: np.ndarray) -> np.ndarray:
        """Map an (..., K) index array to the corresponding gains."""
        idx = np.asarray(idx)
        out = np.empty(idx.shape, dtype=float)
        for i, g in enumerate(self.gains):
            out[..., i] = g[idx[..., i]]
        return out

    def joint_states(self) -> np.ndarray:
        """(S, K) matrix of all joint index tuples in row-major order."""
        if self.joint_size > _JOINT_CAP:
            raise ModelError(
                f"joint state space has {self.joint_size} states; too large to enumerate"
            )
        return _unravel(np.arange(self.joint_size), self.law.dims)

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        if initial is not None:
            initial = tuple(int(v) for v in initial)
            if len(initial) != self.n_players or any(
                not 0 <= v < d for v, d in zip(initial, self.law.dims)
            ):
                raise ValueError(f"invalid initial state {initial}")
        return self.law.sample_path(int(horizon), rng, initial)


def _rayleigh_gain_bins(spec: TruncatedRayleighSpec) -> np.ndarray:
    # eta = x^2 with x Rayleigh(s) is exponential with rate 1/(2 s^2);
    # equal-probability bins of the truncated exponential, conditional means.
    rate = 1.0 / (2.0 * spec.scale**2)
    s_lo = math.exp(-rate * spec.eta_min)
    s_hi = math.exp(-rate * spec.eta_max) if math.isfinite(spec.eta_max) else 0.0
    mass = s_lo - s_hi
    if mass < 1e-6:
        raise ModelError(
            f"truncation interval [{spec.eta_min}, {spec.eta_max}] carries "
            f"probability {mass:.3g} < 1e-6"
        )
    qs = s_lo - (np.arange(spec.bins + 1) / spec.bins) * mass  # survival at edges
    with np.errstate(divide="ignore"):
        edges = np.where(qs > 0, -np.log(np.where(qs > 0, qs, 1.0)) / rate, np.inf)
    # conditional mean of Exp(rate) over [a, b]:
    #   ((a + 1/rate) e^{-rate a} - (b + 1/rate) e^{-rate b}) / (e^{-rate a} - e^{-rate b})
    def weighted(edge, q):
        with np.errstate(invalid="ignore"):
            return np.where(q > 0, (edge + 1.0 / rate) * q, 0.0)

    means = (weighted(edges[:-1], qs[:-1]) - weighted(edges[1:], qs[1:])) / (mass / spec.bins)
    return means


def build_model(spec, n_players: int) -> ChannelModel:
    """Instantiate a channel model for ``n_players`` transmitters."""
    if n_players < 1:
        raise ModelError("n_players must be >= 1")
    if isinstance(spec, TwoStateSpec):
        gains = [np.array([spec.eta_min, spec.eta_max])] * n_players
        probs = [np.array([1.0 - spec.p_high, spec.p_high])] * n_players
        return ChannelModel(tuple(gains), IIDProductLaw(probs))
    if isinstance(spec, TruncatedRayleighSpec):
        bins = _rayleigh_gain_bins(spec)
        gains = [bins.copy() for _ in range(n_players)]
        probs = [np.full(spec.bins, 1.0 / spec.bins) for _ in range(n_players)]
        return ChannelModel(tuple(gains), IIDProductLaw(probs))
    if isinstance(spec, ExplicitSpec):
        gains = tuple(np.asarray(g, dtype=float) for g in spec.gains)
        if len(gains) != n_players:
            raise ModelError(
                f"explicit spec has {len(gains)} gain sets but n_players={n_players}"
            )
        dims = [g.size for g in gains]
        if spec.mu is not None:
            law = IIDJointLaw(np.asarray(spec.mu, dtype=float), dims)
        else:
            law = MarkovJointLaw(np.asarray(spec.transition, dtype=float), dims)
        return ChannelModel(gains, law)
    raise ModelError(f"unknown channel spec {type(spec).__name__}")


def stationary_distribution(law) -> np.ndarray:
    """Stationary distribution over joint states (row-major order)."""
    return law.stationary_joint()


def _content_sha256(gains, law_bytes: bytes) -> str:
    """sha256 over the little-endian float64 bytes of the per-player state
    counts, every gain, and the law's ``mu`` or ``transition`` entries
    (``law_bytes``, as a model file stores them)."""
    digest = hashlib.sha256(np.array([len(g) for g in gains], dtype="<f8").tobytes())
    for g in gains:
        digest.update(np.asarray(g, dtype="<f8").tobytes())
    digest.update(law_bytes)
    return digest.hexdigest()


def save_model(model: ChannelModel, path) -> None:
    """Write a model to the documented JSON file format.

    The file stores per-player gain values as JSON number lists, plus
    either ``mu`` (i.i.d.) or a row-major ``transition`` matrix over joint
    states as a base64 string of its little-endian float64 bytes, and a
    sha256 of that content that the loader verifies.  The output depends
    only on the model, so saving one model twice gives identical bytes.
    """
    law = model.law
    if isinstance(law, (IIDProductLaw, IIDJointLaw)):
        key, values = "mu", law.stationary_joint()
    elif isinstance(law, MarkovJointLaw):
        key, values = "transition", law.matrix
    else:
        raise ModelError(f"cannot serialize law {type(law).__name__}")
    law_bytes = np.ascontiguousarray(values, dtype="<f8").tobytes()
    doc = {
        "format": MODEL_FILE_FORMAT,
        "gains": [g.tolist() for g in model.gains],
        key: base64.b64encode(law_bytes).decode("ascii"),
        "content_sha256": _content_sha256(model.gains, law_bytes),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_model(path) -> ChannelModel:
    """Load a model written by ``save_model`` (or by hand, same schema).

    Only the current format is read.  Before the law is built, the loader
    checks in turn the format, the gain lists, that the law payload is a
    base64 string holding 8 bytes per ``mu`` entry (size S, the product of
    the gain-list lengths) or per ``transition`` entry (S x S), and the
    content sha256 over the decoded bytes.  Any failure raises
    ``ModelError`` naming what is wrong.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: top level must be a JSON object, "
                         f"not {type(doc).__name__}")
    fmt = doc.get("format")
    if fmt != MODEL_FILE_FORMAT:
        raise ModelError(f"{path}: unknown format {fmt!r}")
    gains = doc.get("gains")
    if not (isinstance(gains, list) and gains
            and all(isinstance(g, list) and g and all(map(_is_number, g)) for g in gains)):
        raise ModelError(f"{path}: gains must be a non-empty list of non-empty "
                         "lists of numbers")
    try:
        gains = tuple(np.array(g, dtype=float) for g in gains)
    except OverflowError as exc:
        raise ModelError(f"{path}: gains hold a number too large for float64") from exc
    if ("mu" in doc) == ("transition" in doc):
        raise ModelError(f"{path}: give exactly one of mu or transition")
    key = "mu" if "mu" in doc else "transition"
    payload = doc[key]
    if not isinstance(payload, str):
        raise ModelError(f"{path}: {key} must be a base64 string, "
                         f"not {type(payload).__name__}")
    try:
        law_bytes = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ModelError(f"{path}: {key} is not valid base64 ({exc})") from exc
    size = math.prod(g.size for g in gains)
    count = size if key == "mu" else size * size
    if len(law_bytes) != 8 * count:
        raise ModelError(f"{path}: {key} holds {len(law_bytes)} bytes, expected "
                         f"{8 * count} ({count} float64 entries for {size} joint states)")
    if doc.get("content_sha256") != _content_sha256(gains, law_bytes):
        raise ModelError(f"{path}: content checksum missing or mismatched")
    values = np.frombuffer(law_bytes, dtype="<f8").astype(float)
    if key == "transition":
        values = values.reshape(size, size)
    return build_model(ExplicitSpec(gains, **{key: values}), len(gains))
