"""Topology and channel generation: determinism, the path-loss/noise model,
and Monte-Carlo statistics of the fading law."""

import math

import numpy as np
import pytest

from cran_maxmin.channels import (
    Topology,
    generate_channels,
    generate_topology,
    noise_power,
    pathloss_db,
    splitmix64,
    trial_seed,
)
from cran_maxmin.harness import PATHLOSS_A_DB, PATHLOSS_B, RADIUS_M, ExperimentConfig

CFG = ExperimentConfig()  # the default minimum distance


def _pathloss(distance_m):
    return pathloss_db(distance_m, PATHLOSS_A_DB, PATHLOSS_B, CFG.min_distance_m)


def _channels(topo, n_antennas, rng_seed):
    return generate_channels(_pathloss(topo.distances()), n_antennas, rng_seed)


class TestDeterminism:
    def test_topology_reproducible(self):
        a = generate_topology(3, 10, RADIUS_M, 42)
        b = generate_topology(3, 10, RADIUS_M, 42)
        np.testing.assert_array_equal(a.rrh_pos, b.rrh_pos)
        np.testing.assert_array_equal(a.user_pos, b.user_pos)

    def test_channels_reproducible(self):
        topo = generate_topology(2, 4, RADIUS_M, 1)
        a = _channels(topo, 3, 7)
        b = _channels(topo, 3, 7)
        np.testing.assert_array_equal(a.h, b.h)

    def test_different_seeds_differ(self):
        a = generate_topology(2, 4, RADIUS_M, 1)
        b = generate_topology(2, 4, RADIUS_M, 2)
        assert not np.array_equal(a.user_pos, b.user_pos)

    def test_trial_seed_mixing(self):
        seeds = {trial_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert trial_seed(123, 5) == trial_seed(123, 5)
        assert splitmix64(0) != 0


class TestTopology:
    def test_empty_user_list(self):
        topo = generate_topology(2, 0, RADIUS_M, 3)
        assert topo.user_pos.shape == (0, 2)

    def test_all_points_inside_disk(self):
        topo = generate_topology(20, 200, 500, 11)
        assert (np.linalg.norm(topo.user_pos, axis=1) <= 500 + 1e-9).all()
        assert (np.linalg.norm(topo.rrh_pos, axis=1) <= 500 + 1e-9).all()

    def test_area_uniform_mean_distance(self):
        # mean distance from center of a uniform draw on a disk is 2R/3
        topo = generate_topology(1, 10_000, 500, 2024)
        mean = np.linalg.norm(topo.user_pos, axis=1).mean()
        assert abs(mean - 2.0 / 3.0 * 500) < 5.0

    def test_distances_shape(self):
        topo = Topology(np.zeros((2, 2)), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(topo.distances(), [[5.0, 5.0]])


class TestPathloss:
    def test_reference_distance(self):
        assert _pathloss(1.0) == pytest.approx(30.6)

    def test_ten_meters(self):
        # 30.6 + 36.7*log10(10) = 67.3 dB
        assert _pathloss(10.0) == pytest.approx(67.3)

    def test_minimum_distance_guard(self):
        assert _pathloss(0.001) == pytest.approx(30.6)

    def test_fading_mean_power_at_one_meter(self):
        # E||h||^2 = M * 10^(-3.06) at d = 1 m; one draw with 10^5 entries
        topo = Topology(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        M = 100_000
        ch = _channels(topo, M, 77)
        mean_gain = np.mean(np.abs(ch.h[0, 0]) ** 2)
        assert mean_gain == pytest.approx(10 ** (-3.06), rel=0.02)

    def test_decay_with_distance(self):
        # gains drop by 10^(-3.67) per decade of distance
        topo = Topology(np.array([[0.0, 0.0]]),
                        np.array([[10.0, 0.0], [100.0, 0.0]]))
        ch = _channels(topo, 100_000, 78)
        g10 = np.mean(np.abs(ch.h[0, 0]) ** 2)
        g100 = np.mean(np.abs(ch.h[1, 0]) ** 2)
        assert g100 / g10 == pytest.approx(10 ** (-3.67), rel=0.05)

    def test_entries_uncorrelated(self):
        topo = Topology(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        ch = _channels(topo, 200_000, 79)
        g = ch.h[0, 0]
        pairs = [(g.real[0::2], g.real[1::2]),
                 (g.imag[0::2], g.imag[1::2]),
                 (g.real, g.imag)]
        for a, b in pairs:
            rho = np.corrcoef(a, b)[0, 1]
            assert abs(rho) < 0.02


class TestNoisePower:
    def test_paper_operating_point(self):
        # -169 dBm/Hz + 10 log10(10 MHz) + 7 dB = -92 dBm = 10^-12.2 W
        got = noise_power(-169.0, 7.0, 10e6)
        assert got == pytest.approx(6.309573444801942e-13, rel=1e-12)

    def test_dbm_reference(self):
        assert noise_power(0.0, 0.0, 1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_direct_conversion(self):
        assert noise_power(-169.0, 0.0, 1.0) == pytest.approx(10 ** (-19.9), rel=1e-12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_power(-169.0, 7.0, 0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(min_distance_m=0.0)
