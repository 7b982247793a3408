"""Seeded generation of disk topologies and Rayleigh-faded channels.

Randomness comes from numpy's Philox counter-based generator, keyed by a
64-bit seed, so that identical (config, seed) pairs reproduce bit-identical
draws on any platform.  Per-trial sub-seeds are derived by XORing the base
seed with a splitmix64 hash of the trial index, which keeps trial streams
independent and embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cran_maxmin.model import ChannelState

_MASK64 = (1 << 64) - 1


def splitmix64(v: int) -> int:
    """One round of the splitmix64 mixer (Steele et al. constants)."""
    z = (v + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(seed: int, index: int) -> int:
    """Sub-seed for one trial: seed XOR hash(trial index)."""
    return (int(seed) ^ splitmix64(int(index))) & _MASK64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


@dataclass
class Topology:
    """RRH and user positions inside a disk centered at the origin."""

    rrh_pos: np.ndarray   # (N, 2) meters
    user_pos: np.ndarray  # (K, 2) meters

    def __post_init__(self):
        self.rrh_pos = np.asarray(self.rrh_pos, dtype=float).reshape(-1, 2)
        self.user_pos = np.asarray(self.user_pos, dtype=float).reshape(-1, 2)

    def distances(self) -> np.ndarray:
        """Pairwise user-RRH distances, shape (K, N)."""
        diff = self.user_pos[:, None, :] - self.rrh_pos[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])


def _uniform_disk(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    # area-uniform: radius grows like sqrt(u)
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * np.pi * rng.random(count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def generate_topology(n_rrh: int, n_users: int, radius_m: float, rng_seed: int) -> Topology:
    """Draw RRH positions first, then user positions, uniformly in the disk
    of radius_m, from one Philox stream."""
    rng = _rng(rng_seed)
    rrh = _uniform_disk(rng, n_rrh, radius_m)
    users = _uniform_disk(rng, n_users, radius_m)
    return Topology(rrh, users)


def pathloss_db(distance_m, a_db: float, b: float, min_distance_m: float) -> np.ndarray:
    """a + b*log10(d) in dB, with d clamped at the minimum-distance guard."""
    d = np.maximum(np.asarray(distance_m, dtype=float), min_distance_m)
    return a_db + b * np.log10(d)


def generate_channels(loss_db: np.ndarray, n_antennas: int, rng_seed: int) -> ChannelState:
    """Rayleigh fading on top of a (K, N) path loss in dB.

    h[k, n] = sqrt(10^(-loss_db[k, n]/10)) * g with g an M-vector of
    independent standard circular complex Gaussians (unit power per antenna).
    """
    amp = np.power(10.0, -np.asarray(loss_db, dtype=float) / 20.0)
    k, n = amp.shape
    raw = _rng(rng_seed).standard_normal((k, n, n_antennas, 2))
    g = (raw[..., 0] + 1j * raw[..., 1]) / math.sqrt(2.0)
    return ChannelState(amp[:, :, None] * g)


def noise_power(psd_dbm_hz: float, noise_figure_db: float, bandwidth_hz: float) -> float:
    """AWGN power in watts over the given bandwidth, including noise figure."""
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth_hz must be > 0")
    dbm = psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)
