"""Signal-model operations: worked examples, independent re-evaluation, and
structural properties."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cran_maxmin.model import (
    AssociationMap,
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    SolveReport,
    achievable_rate,
    association_indicator,
    compute_all_sinrs,
    fronthaul_load,
    load_channel_state,
    per_rrh_power,
    save_channel_state,
)


def _sinr_by_hand(h, w, sigma2, k):
    """Term-by-term evaluation with plain Python loops."""
    K, N, M = h.shape
    sig = 0j
    for n in range(N):
        for m in range(M):
            sig += h[k, n, m].conjugate() * w[k, n, m]
    interf = 0.0
    for j in range(K):
        if j == k:
            continue
        term = 0j
        for n in range(N):
            for m in range(M):
                term += h[k, n, m].conjugate() * w[j, n, m]
        interf += abs(term) ** 2
    return abs(sig) ** 2 / (interf + sigma2)


class TestComputeSinr:
    def test_single_user_no_interference(self):
        ch = ChannelState(np.ones((1, 1, 1)))
        bf = BeamformerSet(2.0 * np.ones((1, 1, 1)))
        assert compute_all_sinrs(ch, bf, 1.0)[0] == pytest.approx(4.0)

    def test_two_user_symmetric(self):
        ch = ChannelState(np.ones((2, 1, 1)))
        bf = BeamformerSet(np.ones((2, 1, 1)))
        assert compute_all_sinrs(ch, bf, 1.0)[0] == pytest.approx(0.5)
        assert compute_all_sinrs(ch, bf, 1.0)[1] == pytest.approx(0.5)

    def test_matches_term_by_term_evaluation(self, rng):
        h = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        w = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        ch, bf = ChannelState(h), BeamformerSet(w)
        for k in range(2):
            assert compute_all_sinrs(ch, bf, 0.7)[k] == pytest.approx(
                _sinr_by_hand(h, w, 0.7, k), rel=1e-12)

    def test_dimension_mismatch_raises(self):
        ch = ChannelState(np.ones((2, 1, 1)))
        bf = BeamformerSet(np.ones((2, 2, 1)))
        with pytest.raises(ValueError):
            compute_all_sinrs(ch, bf, 1.0)

    @given(st.floats(0.1, 10), st.floats(0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_scale_consistency(self, mag, phase):
        # scaling channels by c and noise by |c|^2 leaves every SINR unchanged
        rng = np.random.default_rng(99)
        h = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        c = mag * np.exp(1j * phase)
        base = compute_all_sinrs(ChannelState(h), BeamformerSet(w), 1.3)
        scaled = compute_all_sinrs(ChannelState(c * h), BeamformerSet(w), 1.3 * mag ** 2)
        np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_single_user_closed_form(self, rng):
        h = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        w = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        expected = abs(np.sum(h.conj() * w)) ** 2 / 2.1
        assert compute_all_sinrs(ChannelState(h), BeamformerSet(w), 2.1)[0] == \
            pytest.approx(expected, rel=1e-12)


class TestAchievableRate:
    def test_zero_sinr(self):
        assert achievable_rate(0.0, 1e7) == 0.0

    def test_unit_sinr(self):
        assert achievable_rate(1.0, 1e7) == pytest.approx(1e7)

    def test_sinr_three(self):
        assert achievable_rate(3.0, 1e7) == pytest.approx(2e7)

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(-0.5, 1e7)

    def test_vectorized(self):
        np.testing.assert_allclose(achievable_rate(np.array([0.0, 1.0, 3.0]), 1e7),
                                   [0.0, 1e7, 2e7])


class TestAssociationIndicator:
    def test_all_zero(self):
        bf = BeamformerSet.zeros(2, 2, 2)
        assert association_indicator(bf, [1.0, 1.0]).sum() == 0

    def test_single_active_link(self):
        bf = BeamformerSet.zeros(2, 2, 2)
        bf.w[0, 0, 0] = 1.0  # ||w||^2 = cap
        alpha = association_indicator(bf, [1.0, 1.0])
        assert alpha[0, 0] == 1 and alpha.sum() == 1

    def test_below_threshold_is_inactive(self):
        bf = BeamformerSet.zeros(1, 1, 1)
        bf.w[0, 0, 0] = math.sqrt(1e-15)
        assert association_indicator(bf, [1.0])[0, 0] == 0


class TestFronthaulLoad:
    def test_empty_set(self):
        assoc = AssociationMap((frozenset(), frozenset([0])))
        loads = fronthaul_load(assoc, [5e6])
        assert loads[0] == 0.0 and loads[1] == 5e6

    def test_sum(self):
        assoc = AssociationMap((frozenset([0, 1]),))
        assert fronthaul_load(assoc, [5e6, 5e6])[0] == pytest.approx(1e7)

    def test_common_sinr_closed_form(self):
        # equal rates collapse the load to B * |Omega_n| * log2(1 + gamma)
        gamma, B = 0.75, 1e7
        rates = [achievable_rate(gamma, B)] * 4
        assoc = AssociationMap((frozenset([0, 1, 2]), frozenset([3])))
        loads = fronthaul_load(assoc, rates)
        assert loads[0] == pytest.approx(B * 3 * math.log2(1 + gamma), rel=1e-12)
        assert loads[1] == pytest.approx(B * 1 * math.log2(1 + gamma), rel=1e-12)

    def test_additive_over_disjoint_sets(self):
        rates = [1e6, 2e6, 3e6, 4e6]
        a = AssociationMap((frozenset([0, 1]),))
        b = AssociationMap((frozenset([2]),))
        union = AssociationMap((frozenset([0, 1, 2]),))
        assert fronthaul_load(union, rates)[0] == pytest.approx(
            fronthaul_load(a, rates)[0] + fronthaul_load(b, rates)[0])


class TestPerRrhPower:
    def test_zeros(self):
        assert per_rrh_power(BeamformerSet.zeros(2, 3, 2)).tolist() == [0, 0, 0]

    def test_single_entry(self):
        bf = BeamformerSet.zeros(1, 2, 1)
        bf.w[0, 0, 0] = math.sqrt(0.5)
        np.testing.assert_allclose(per_rrh_power(bf), [0.5, 0.0])

    def test_matches_elementwise_sum(self, rng):
        w = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        expected = [sum(abs(w[k, n, m]) ** 2 for k in range(3) for m in range(4))
                    for n in range(2)]
        np.testing.assert_allclose(per_rrh_power(BeamformerSet(w)), expected,
                                   rtol=1e-12)


class TestTypes:
    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, 1, 1, 1e7, (1.0,), (1e6,), 1e-12)
        with pytest.raises(ValueError):
            NetworkConfig(1, 1, 1, -1e7, (1.0,), (1e6,), 1e-12)
        with pytest.raises(ValueError):
            NetworkConfig(1, 1, 1, 1e7, (0.0,), (1e6,), 1e-12)
        with pytest.raises(ValueError):
            NetworkConfig(1, 1, 1, 1e7, (1.0,), (-1.0,), 1e-12)
        with pytest.raises(ValueError):
            NetworkConfig(2, 1, 1, 1e7, (1.0, 1.0, 1.0), (1e6, 1e6), 1e-12)

    def test_network_config_broadcasts_scalars(self):
        cfg = NetworkConfig(3, 2, 1, 1e7, (2.0,), (1e6,), 1e-12)
        assert cfg.power_cap_w == (2.0, 2.0, 2.0)
        assert cfg.fronthaul_cap_bps == (1e6, 1e6, 1e6)

    def test_association_map(self):
        a = AssociationMap.full(2, 3)
        assert a.sizes() == (3, 3)
        assert a.serving_rrhs(1) == (0, 1)
        b = a.remove_link(1, 0)
        assert b.sizes() == (2, 3)
        assert b.serving_rrhs(1) == (1,)
        assert a.sizes() == (3, 3)  # immutable
        with pytest.raises(ValueError):
            b.remove_link(1, 0)
        ind = a.indicator(3)
        assert ind.shape == (3, 2) and ind.sum() == 6
        assert AssociationMap.from_indicator(ind).omega == a.omega
        assert AssociationMap((frozenset([0]), frozenset())).unserved_users(2) == (1,)

    def test_solve_report_takes_no_reader(self):
        # the final solution's reader is set by the scheme runner, not passed in
        report = SolveReport("alg1", final_gamma=1.0)
        assert report.final_beamformers is None and report.final_association is None
        with pytest.raises(TypeError):
            SolveReport("alg1", _read=lambda: (None, None))

    def test_channel_state_rejects_nonfinite(self):
        h = np.ones((1, 1, 1), complex)
        h[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelState(h)


class TestChannelFile:
    def test_roundtrip(self, tmp_path, rng):
        h = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        ch = ChannelState(h)
        path = tmp_path / "chan.json"
        save_channel_state(ch, path)
        back, _ = load_channel_state(path)
        np.testing.assert_array_equal(back.h, ch.h)

    def test_interleaved_layout(self, tmp_path):
        ch = ChannelState(np.array([[[1.5 - 2.5j]]]))
        path = tmp_path / "chan.json"
        save_channel_state(ch, path)
        doc = json.loads(path.read_text())
        assert doc["h"][0][0][0] == [1.5, -2.5]
        assert doc["n_users"] == 1 and doc["n_rrh"] == 1 and doc["n_antennas"] == 1

    def test_positions_roundtrip(self, tmp_path, rng):
        ch = ChannelState(np.ones((3, 2, 1), complex))
        rrh, users = rng.standard_normal((2, 2)), rng.standard_normal((3, 2))
        path = tmp_path / "chan.json"
        save_channel_state(ch, path, positions=(rrh, users))
        back, positions = load_channel_state(path)
        np.testing.assert_array_equal(back.h, ch.h)
        assert positions[0].tobytes() == rrh.tobytes()
        assert positions[1].tobytes() == users.tobytes()

    def test_file_without_positions_has_none(self, tmp_path):
        path = tmp_path / "chan.json"
        save_channel_state(ChannelState(np.ones((3, 2, 1), complex)), path)
        assert "rrh_pos" not in json.loads(path.read_text())
        assert load_channel_state(path)[1] is None

    @pytest.mark.parametrize("field,value", [
        ("rrh_pos", None), ("rrh_pos", [[0.0, 1.0]]), ("user_pos", [[0.0, 1.0]] * 2),
        ("user_pos", [["a", 1.0]] * 3), ("rrh_pos", [[0.0, float("nan")]] * 2)])
    def test_bad_positions_are_named(self, tmp_path, field, value):
        path = tmp_path / "chan.json"
        save_channel_state(ChannelState(np.ones((3, 2, 1), complex)), path,
                           positions=(np.zeros((2, 2)), np.zeros((3, 2))))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            load_channel_state(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_rrh": 1, "n_users": 1, "n_antennas": 1}')
        with pytest.raises(ValueError, match="missing field 'h'"):
            load_channel_state(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n_rrh": 2, "n_users": 1, "n_antennas": 1, "h": [[[[1.0, 0.0]]]]}))
        with pytest.raises(ValueError, match="shape"):
            load_channel_state(path)

    @pytest.mark.parametrize("field,value", [
        ("n_users", "3"), ("n_users", 0), ("n_users", 3.0), ("n_rrh", None),
        ("n_rrh", True), ("n_antennas", -2)])
    def test_bad_number_field_is_named(self, tmp_path, field, value):
        path = tmp_path / "chan.json"
        save_channel_state(ChannelState(np.ones((3, 1, 2), complex)), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            load_channel_state(path)

    def test_entries_of_h_that_are_not_numbers_are_named(self, tmp_path):
        path = tmp_path / "chan.json"
        save_channel_state(ChannelState(np.ones((1, 1, 1), complex)), path)
        doc = json.loads(path.read_text())
        doc["h"] = [[[["one", 0.0]]]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^h: "):
            load_channel_state(path)
