"""Finite channel-gain state spaces and their stochastic evolution.

A channel model is a per-player finite set of gain values together with a
transition law over the joint state (one gain index per player).  Three
law families are supported:

* ``IIDProductLaw``   -- fresh independent draws per player each stage;
* ``IIDJointLaw``     -- fresh draws of the joint state from one vector;
* ``MarkovJointLaw``  -- a row-stochastic matrix over joint states.

Every law must be irreducible in the strict sense: every transition
probability positive, which for an i.i.d. law means full support.
Joint states are tuples of per-player indices; flat indices enumerate
them in row-major (lexicographic) order, which is also the order used by
the model file format.  Every law draws a path both ways: ``sample_flat``
gives flat indices and ``sample_path`` an (N, K) array of per-player
indices.  The joint laws draw flat indices, and their ``sample_path``
unravels them; the product law draws per player and flattens that.
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


def _check_count(name: str, value, low: int) -> None:
    """Refuse a non-integer (a float, a bool or a string; numpy integers
    pass) or a value below ``low`` where an integer input enters a draw or
    a run: the package's one integer rule, so nothing is silently clipped."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def _probabilities(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a float array of ``shape`` whose rows (last axis) are
    probability vectors with every entry positive.

    A wrong or empty shape, or a negative, NaN or non-normalized entry,
    raises ``ModelError``; a zero entry raises ``ReducibleLawError``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ModelError(f"{what} has shape {values.shape}, expected {shape}")
    if values.size == 0:  # np.all over no rows would pass it
        raise ModelError(f"{what} has shape {shape}, with no states")
    if not (np.all(values >= 0)
            and np.all(np.abs(values.sum(axis=-1) - 1.0) <= _ROW_SUM_TOL)):  # NaN fails
        raise ModelError(f"{what} must be nonnegative and sum to 1")
    if not np.all(values > 0):
        raise ReducibleLawError(f"{what} has zero entries; irreducibility (every "
                                "transition probability positive) is required")
    return values


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the last one pinned to 1.0.

    Rounding can leave a row's total just below 1; pinned, every uniform
    draw in [0, 1) is below the last entry, so a right-side search of the
    row always returns a state index.
    """
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _enumerable_size(dims) -> int:
    """The joint state count, refused above ``_JOINT_CAP``."""
    size = math.prod(dims)
    if size > _JOINT_CAP:
        raise ModelError(f"joint state space has {size} states; too large to enumerate")
    return size


class IIDProductLaw:
    """Independent per-player categorical draws, fresh each stage."""

    def __init__(self, per_player_probs):
        self.probs = tuple(
            _probabilities(p, (np.size(p),), f"player {i} probability vector")
            for i, p in enumerate(per_player_probs)
        )
        self.dims = tuple(p.size for p in self.probs)
        self._cums = [_cdf(p) for p in self.probs]
        # a uniform law over n = 2^m bins has cumulative values exactly j/n,
        # so floor(u * n) is the index searchsorted finds, bit for bit; one
        # scalar scales every column when all players have the same n
        bins = [p.size for p in self.probs]
        exact = all(n & (n - 1) == 0 and np.all(p == 1.0 / n) for n, p in zip(bins, self.probs))
        self._dyadic_bins = None
        if exact:
            self._dyadic_bins = float(bins[0]) if len(set(bins)) == 1 else np.array(bins, float)

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

    def sample_flat(self, horizon: int, rng, initial=None) -> np.ndarray:
        """``sample_path`` as row-major flat joint-state indices."""
        return np.ravel_multi_index(self.sample_path(horizon, rng, initial).T, self.dims)

    def stationary_joint(self) -> np.ndarray:
        _enumerable_size(self.dims)
        mu = self.probs[0]
        for p in self.probs[1:]:
            mu = np.outer(mu, p).ravel()
        return mu


class _JointLaw:
    """A law drawn natively as flat joint-state indices (``sample_flat``);
    its per-player path unravels that draw."""

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        return _unravel(self.sample_flat(horizon, rng, initial), self.dims)


class IIDJointLaw(_JointLaw):
    """Fresh draws of the whole joint state from a single distribution."""

    def __init__(self, mu, dims):
        self.dims = tuple(int(d) for d in dims)
        self.mu = _probabilities(mu, (math.prod(self.dims),), "joint state distribution")
        self._cum = _cdf(self.mu)

    def sample_flat(self, horizon: int, rng, initial=None) -> np.ndarray:
        flat = np.searchsorted(self._cum, rng.random(horizon), side="right")
        if initial is not None:
            flat[0] = np.ravel_multi_index(tuple(initial), self.dims)
        return flat

    def stationary_joint(self) -> np.ndarray:
        return self.mu.copy()


class MarkovJointLaw(_JointLaw):
    """Row-stochastic transition matrix over the joint state space.

    The tables that paths are drawn with are built on the first draw, so a
    law that is loaded and never sampled builds none.
    """

    def __init__(self, matrix, dims):
        self.dims = tuple(int(d) for d in dims)
        size = math.prod(self.dims)
        self.matrix = _probabilities(matrix, (size, size), "transition matrix")

    def sample_flat(self, horizon: int, rng, initial=None) -> np.ndarray:
        # A uniform x in bucket k = floor(x * G) lies in [k/G, (k+1)/G), so
        # the state row s maps it to, the first j with cum[s, j] > x, is one
        # of lo = guide[s][k] .. hi = guide[s][k + 1].  That test is monotone
        # in j for every x < 1 (the only entries out of order, sums past 1.0
        # and the pinned last 1.0, lie above every uniform), so bisecting
        # [lo, hi) gives the index a search of the whole row would give (hi
        # when every entry there is <= x, and lo at once when lo == hi), and
        # a seed maps to the same path.
        u = rng.random(horizon)
        if initial is None:
            state = int(np.searchsorted(self._start_cum, u[0], side="right"))
        else:
            state = int(np.ravel_multi_index(tuple(initial), self.dims))
        flat = [state]
        rows, guides = self._rows, self._guides
        steps = u[1:]
        buckets = len(guides[0]) - 1  # G
        for x, k in zip(steps.tolist(), (steps * buckets).astype(np.int64).tolist()):
            guide = guides[state]
            state = bisect_right(rows[state], x, guide[k], guide[k + 1])
            flat.append(state)
        return np.fromiter(flat, np.int64, horizon)

    @cached_property
    def _cum(self) -> np.ndarray:
        return _cdf(self.matrix)

    @cached_property
    def _rows(self) -> list:
        # zero-copy views of the rows: a step bisects one of them without a
        # numpy call
        return [memoryview(row) for row in self._cum]

    @cached_property
    def _guides(self) -> list:
        """Row views of the (S, G + 1) int32 guide over G buckets, G the
        power of two at or above the state count S: ``guide[s][k]`` is
        #{j : cum[s, j] <= k/G} for k < G, and S - 1 for k = G.

        x * G and k/G are exact, and cum[s, j] <= k/G exactly when
        k >= ceil(cum[s, j] * G), so one ``bincount`` of those slots and
        its running sum build every row at once.  S * (G + 1) * 4 bytes is
        at most the cumulative matrix's S * S * 8, since G < 2S.  The slots
        are computed in one S x S buffer.
        """
        cum = self._cum
        size = cum.shape[0]
        buckets = 1 << (size - 1).bit_length()
        slots = np.multiply(cum, buckets)
        np.ceil(slots, out=slots)
        np.minimum(slots, buckets, out=slots)  # past 1.0: the last slot
        slots += (buckets + 1) * np.arange(size)[:, None]
        counts = np.bincount(slots.astype(np.intp).ravel(), minlength=size * (buckets + 1))
        guide = np.cumsum(counts.reshape(size, buckets + 1), axis=1, dtype=np.int32)
        guide[:, -1] = size - 1
        return [memoryview(row) for row in guide]

    @cached_property
    def _start_cum(self) -> np.ndarray:
        """Cumulative stationary distribution, from which paths start."""
        return _cdf(self.stationary_joint())

    def stationary_joint(self) -> np.ndarray:
        # solve (P^T - I) mu = 0 with the last equation replaced by sum(mu) = 1;
        # the system is the transpose of P - I built in place, a Fortran-order
        # view with the same values as a C-order copy of P^T - I
        n = self.matrix.shape[0]
        a = self.matrix.copy()
        a.flat[::n + 1] -= 1.0
        a = a.T
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


@dataclass(frozen=True, eq=False)
class ChannelModel:
    gains: tuple  # per-player np.ndarray of gain values
    law: IIDProductLaw | IIDJointLaw | MarkovJointLaw

    def __post_init__(self):
        if self.n_players < 1:
            raise ModelError("a channel model needs at least one player")
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

    @cached_property
    def _shared_gains(self) -> np.ndarray | None:
        """The gain table every player has (both built-in specs), or None."""
        first = self.gains[0]
        return first if all(np.array_equal(g, first) for g in self.gains[1:]) else None

    def gain_matrix(self, idx: np.ndarray) -> np.ndarray:
        """Map an (..., K) index array to the corresponding gains."""
        idx = np.asarray(idx)
        if idx.shape[-1:] != (self.n_players,):
            raise ValueError(f"expected {self.n_players} state indices per row, got shape "
                             f"{idx.shape}")
        shared = self._shared_gains
        if shared is not None and idx.dtype.kind in "iu":
            return shared.take(idx)  # one gather instead of one per player
        out = np.empty(idx.shape, dtype=float)
        for i, g in enumerate(self.gains):
            out[..., i] = g[idx[..., i]]
        return out

    def joint_states(self) -> np.ndarray:
        """(S, K) matrix of all joint index tuples in row-major order."""
        return _unravel(np.arange(_enumerable_size(self.law.dims)), self.law.dims)

    def sample_path(self, horizon: int, rng, initial=None) -> np.ndarray:
        """(horizon, K) per-player state indices of a path drawn from ``rng``;
        ``initial``, if given, is the first state (K integer indices)."""
        horizon, initial = self._draw_args(horizon, initial)
        return self.law.sample_path(horizon, rng, initial)

    def sample_flat(self, horizon: int, rng, initial=None) -> np.ndarray:
        """``sample_path`` as row-major flat joint-state indices: the same
        stream, the same checks and errors."""
        horizon, initial = self._draw_args(horizon, initial)
        return self.law.sample_flat(horizon, rng, initial)

    def _draw_args(self, horizon, initial) -> tuple:
        """``(horizon, initial)`` checked: ``ValueError`` for a horizon that
        is not an integer of at least one, and for an initial state that is
        not K integer indices in range (a float or a bool is not an index)."""
        _check_count("horizon", horizon, 1)
        if initial is not None:
            try:
                values = tuple(initial)
            except TypeError:  # not a sequence at all
                values = ()
            if len(values) != self.n_players or any(
                isinstance(v, bool) or not isinstance(v, (int, np.integer))
                or not 0 <= v < d for v, d in zip(values, self.law.dims)
            ):
                raise ValueError(f"invalid initial state {initial!r}")
            initial = tuple(int(v) for v in values)
        return int(horizon), initial


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


def _is_number(value, kind=float) -> bool:
    """Whether ``value`` is a JSON number (an integer when ``kind`` is int);
    JSON booleans are not, although Python counts them as integers."""
    return isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)


def load_model(path) -> ChannelModel:
    """Load a model written by ``save_model`` (or by hand, same schema).

    Only the current format is read.  Before the law is built, the loader
    checks in turn the format, the gain lists, that the law payload is a
    base64 string holding 8 bytes per ``mu`` entry (size S, the product of
    the gain-list lengths) or per ``transition`` entry (S x S), and the
    content sha256 over the decoded bytes.  Any failure, a file that is
    not UTF-8 JSON included, raises ``ModelError`` naming what is wrong.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
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
    dims = [g.size for g in gains]
    if key == "mu":
        return ChannelModel(gains, IIDJointLaw(values, dims))
    return ChannelModel(gains, MarkovJointLaw(values.reshape(size, size), dims))
