"""Domain types and pure evaluation of the signal-model quantities.

Everything here is linear-scale: SINRs, powers, channel gains.  dB shows up
only at the I/O boundary (harness / CLI).  All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

_ZERO_TOL_REL = 1e-10  # of the power cap: a link with less power is inactive


def _as_float_tuple(values, name: str, length: int) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in np.atleast_1d(np.asarray(values, dtype=float)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: expected numeric values") from exc
    if len(out) == 1 and length > 1:
        out = out * length
    if len(out) != length:
        raise ValueError(f"{name}: expected {length} values, got {len(out)}")
    return out


@dataclass(frozen=True)
class NetworkConfig:
    """Static network description: counts, bandwidth, per-RRH caps, noise."""

    n_rrh: int
    n_users: int
    n_antennas: int
    bandwidth_hz: float
    power_cap_w: tuple[float, ...]
    fronthaul_cap_bps: tuple[float, ...]
    noise_power_w: float

    def __post_init__(self):
        if self.n_rrh < 1 or self.n_users < 1 or self.n_antennas < 1:
            raise ValueError("n_rrh, n_users and n_antennas must all be >= 1")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        if not self.noise_power_w > 0:
            raise ValueError("noise_power_w must be > 0")
        object.__setattr__(self, "power_cap_w",
                           _as_float_tuple(self.power_cap_w, "power_cap_w", self.n_rrh))
        object.__setattr__(self, "fronthaul_cap_bps",
                           _as_float_tuple(self.fronthaul_cap_bps, "fronthaul_cap_bps", self.n_rrh))
        if any(p <= 0 for p in self.power_cap_w):
            raise ValueError("power_cap_w entries must be > 0")
        if not all(t >= 0 for t in self.fronthaul_cap_bps):  # NaN fails too
            raise ValueError("fronthaul_cap_bps entries must be >= 0")


@dataclass
class ChannelState:
    """Channels h[k, n] (M-vectors, linear scale); the noise is the network's."""

    h: np.ndarray  # complex128, shape (K, N, M)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.h.ndim != 3:
            raise ValueError("h must have shape (n_users, n_rrh, n_antennas)")
        if not np.isfinite(self.h.view(float)).all():
            raise ValueError("channel entries must be finite")

    @property
    def n_users(self) -> int:
        return self.h.shape[0]

    @property
    def n_rrh(self) -> int:
        return self.h.shape[1]

    @property
    def n_antennas(self) -> int:
        return self.h.shape[2]


@dataclass
class BeamformerSet:
    """Beamformers w[k, n] (M-vectors, amplitude in sqrt-watts)."""

    w: np.ndarray  # complex128, shape (K, N, M)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.complex128)
        if self.w.ndim != 3:
            raise ValueError("w must have shape (n_users, n_rrh, n_antennas)")
        if not np.isfinite(self.w.view(float)).all():
            raise ValueError("beamformer entries must be finite")

    @classmethod
    def zeros(cls, n_users: int, n_rrh: int, n_antennas: int) -> "BeamformerSet":
        return cls(np.zeros((n_users, n_rrh, n_antennas), dtype=np.complex128))


@dataclass(frozen=True)
class AssociationMap:
    """Per-RRH served-user sets Omega_n (set semantics, user indices)."""

    omega: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega",
                           tuple(frozenset(int(k) for k in users) for users in self.omega))
        for users in self.omega:
            if any(k < 0 for k in users):
                raise ValueError("user indices must be nonnegative")

    @classmethod
    def full(cls, n_rrh: int, n_users: int) -> "AssociationMap":
        return cls(tuple(frozenset(range(n_users)) for _ in range(n_rrh)))

    @classmethod
    def from_indicator(cls, alpha: np.ndarray) -> "AssociationMap":
        alpha = np.asarray(alpha)
        return cls(tuple(frozenset(np.flatnonzero(alpha[:, n]).tolist())
                         for n in range(alpha.shape[1])))

    @property
    def n_rrh(self) -> int:
        return len(self.omega)

    def validate(self, n_users: int) -> None:
        for n, users in enumerate(self.omega):
            bad = [k for k in users if k >= n_users]
            if bad:
                raise ValueError(f"omega[{n}] contains invalid user indices {bad}")

    def indicator(self, n_users: int) -> np.ndarray:
        alpha = np.zeros((n_users, self.n_rrh), dtype=int)
        for n, users in enumerate(self.omega):
            for k in users:
                alpha[k, n] = 1
        return alpha

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(users) for users in self.omega)

    def serving_rrhs(self, k: int) -> tuple[int, ...]:
        return tuple(n for n, users in enumerate(self.omega) if k in users)

    def unserved_users(self, n_users: int) -> tuple[int, ...]:
        served = set()
        for users in self.omega:
            served |= users
        return tuple(k for k in range(n_users) if k not in served)

    def remove_link(self, k: int, n: int) -> "AssociationMap":
        if k not in self.omega[n]:
            raise ValueError(f"link ({k}, {n}) is not active")
        new = list(self.omega)
        new[n] = frozenset(u for u in new[n] if u != k)
        return AssociationMap(tuple(new))


def _json_number(value):
    """value for strict JSON: None when it is unsolved or not finite."""
    return value if value is None or math.isfinite(value) else None


@dataclass
class IterationRecord:
    """One row of an algorithm trace.  gamma1 is None at a bench2 step whose
    max-min was never solved: gamma is None too at a skipped step, and is
    gamma2 at the stop step, where the fronthaul binds."""

    t: int
    gamma1: Optional[float]
    gamma2: float  # math.inf when every Omega_n is empty
    gamma: Optional[float]
    removed_user: Optional[int]
    removed_rrh: Optional[int]
    omega_sizes: tuple[int, ...]

    def to_row(self) -> dict:
        """The record for strict JSON: None for an unsolved or infinite value."""
        return {**asdict(self), "omega_sizes": list(self.omega_sizes),
                **{k: _json_number(getattr(self, k)) for k in ("gamma1", "gamma2", "gamma")}}


@dataclass
class SolveReport:
    """Per-iteration trace plus the final solution of one scheme run.

    The final beamformers and their association are solved when first read,
    by the callable the runner stores in `_read`, and then kept; a sweep
    that reports only final_gamma never solves them."""

    scheme_label: str
    iterations: list[IterationRecord] = field(default_factory=list)
    final_gamma: float = 0.0
    _read: Optional[Callable[[], tuple]] = field(default=None, init=False, repr=False,
                                                 compare=False)

    @cached_property
    def _final(self) -> tuple:
        """(beamformers, association) of the answer, (None, None) without one."""
        return (None, None) if self._read is None else self._read()

    @property
    def final_beamformers(self) -> Optional[BeamformerSet]:
        return self._final[0]

    @property
    def final_association(self) -> Optional[AssociationMap]:
        return self._final[1]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme_label,
            "final_gamma": _json_number(self.final_gamma),
            "final_omega": [sorted(users) for users in self.final_association.omega]
            if self.final_association is not None else None,
            "iterations": [rec.to_row() for rec in self.iterations],
        }


# ---------------------------------------------------------------------------
# pure operations
# ---------------------------------------------------------------------------

def aggregate_gains(ch: ChannelState, bf: BeamformerSet) -> np.ndarray:
    """Matrix A with A[k, j] = sum_n h[k,n]^H w[j,n] (complex, K x K)."""
    if ch.h.shape != bf.w.shape:
        raise ValueError(f"channel shape {ch.h.shape} != beamformer shape {bf.w.shape}")
    return np.einsum("knm,jnm->kj", ch.h.conj(), bf.w)


def compute_all_sinrs(ch: ChannelState, bf: BeamformerSet, noise_power_w: float) -> np.ndarray:
    """Per-user SINRs for a full beamformer set (vector of length K)."""
    A = aggregate_gains(ch, bf)
    p = np.abs(A) ** 2
    sig = p.diagonal()
    interf = p.sum(axis=1) - sig
    return sig / (interf + noise_power_w)


def achievable_rate(gamma: float, bandwidth_hz: float):
    """Shannon rate B*log2(1+gamma) in bit/s; accepts scalars or arrays."""
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("gamma must be nonnegative")
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth_hz must be > 0")
    rate = bandwidth_hz * np.log2(1.0 + gamma)
    return float(rate) if rate.ndim == 0 else rate


def association_indicator(bf: BeamformerSet, power_cap_w: Sequence[float]) -> np.ndarray:
    """Binary K x N matrix: link active iff ||w||^2 > _ZERO_TOL_REL * cap."""
    caps = np.asarray(power_cap_w, dtype=float)
    if caps.shape != (bf.w.shape[1],):
        raise ValueError("power_cap_w length must equal n_rrh")
    norms = np.sum(np.abs(bf.w) ** 2, axis=2)  # (K, N)
    return (norms > _ZERO_TOL_REL * caps[None, :]).astype(int)


def fronthaul_load(assoc: AssociationMap, per_user_rates: Sequence[float]) -> np.ndarray:
    """Per-RRH fronthaul load: sum of served users' rates, in bit/s."""
    rates = np.asarray(per_user_rates, dtype=float)
    if (rates < 0).any():
        raise ValueError("rates must be nonnegative")
    return np.array([sum(rates[k] for k in sorted(users)) for users in assoc.omega])


def per_rrh_power(bf: BeamformerSet) -> np.ndarray:
    """Transmit power per RRH: sum_k ||w[k,n]||^2."""
    return np.sum(np.abs(bf.w) ** 2, axis=(0, 2))


# ---------------------------------------------------------------------------
# channel-state file format (JSON, interleaved re/im)
# ---------------------------------------------------------------------------

# every key a channel-state file may hold; the first four are required
_CHANNEL_KEYS = ("n_rrh", "n_users", "n_antennas", "h", "rrh_pos", "user_pos")


def save_channel_state(ch: ChannelState, path, positions=None) -> None:
    """Write a channel-state file: h as a K x N x M x 2 nested array, and
    positions = (RRH positions (N, 2), user positions (K, 2)) in metres as
    `rrh_pos` and `user_pos` when given."""
    stacked = np.stack([ch.h.real, ch.h.imag], axis=-1)
    doc = {
        "n_rrh": ch.n_rrh,
        "n_users": ch.n_users,
        "n_antennas": ch.n_antennas,
        "h": stacked.tolist(),
    }
    if positions is not None:
        doc["rrh_pos"], doc["user_pos"] = (np.asarray(p, dtype=float).tolist()
                                           for p in positions)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_channel_state(path):
    """(ChannelState, positions) of a channel-state file: positions is
    (RRH positions (N, 2), user positions (K, 2)), or None when the file
    holds none."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:  # missing, a directory, no permission, ...
        raise ValueError(f"channel-state file {path} cannot be read: {exc.strerror}")
    if not isinstance(doc, dict):
        raise ValueError(f"channel-state file {path} must hold a JSON object, "
                         f"not {type(doc).__name__}")
    unknown = sorted(set(doc).difference(_CHANNEL_KEYS))
    if unknown:
        why = "; the noise power comes from the config" if "noise_power_w" in unknown else ""
        raise ValueError(f"channel-state file {path} has unknown fields {unknown}{why}")
    for key in _CHANNEL_KEYS[:4]:
        if key not in doc:
            raise ValueError(f"channel-state file missing field '{key}'")
    for key in ("n_rrh", "n_users", "n_antennas"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{key}: must be a positive integer, got {value!r}")
    try:
        arr = np.asarray(doc["h"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("h: must be a nested list of numbers") from None
    expected = (doc["n_users"], doc["n_rrh"], doc["n_antennas"], 2)
    if arr.shape != expected:
        raise ValueError(f"h: has shape {arr.shape}, expected {expected}")
    ch = ChannelState(arr[..., 0] + 1j * arr[..., 1])
    if "rrh_pos" not in doc and "user_pos" not in doc:
        return ch, None
    positions = []
    for key, count in (("rrh_pos", doc["n_rrh"]), ("user_pos", doc["n_users"])):
        try:
            pos = np.asarray(doc.get(key), dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{key}: must be a nested list of numbers") from None
        if pos.shape != (count, 2) or not np.isfinite(pos).all():
            raise ValueError(f"{key}: must be {count} finite (x, y) pairs")
        positions.append(pos)
    return ch, tuple(positions)
