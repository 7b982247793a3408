"""Conic-solver contracts: feasibility classification, the max-min search,
power minimization, and the optimality properties the schemes rely on."""

import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin import association, beamforming, harness, socp
from cran_maxmin.association import nearest_rrh_association
from cran_maxmin.beamforming import (
    SolverIndeterminate,
    SolverStats,
    SolverTolerances,
    check_feasible,
    max_min_value,
    mrt_gamma_upper_bound,
    per_user_gamma_upper_bound,
    solve_max_min,
    solve_power_min,
)
from cran_maxmin.harness import ExperimentConfig, draw_trial
from cran_maxmin.model import (
    AssociationMap,
    ChannelState,
    compute_all_sinrs,
    per_rrh_power,
)

TOL = SolverTolerances()


def mrt_bound(ch, caps, sigma2):
    return mrt_gamma_upper_bound(ch, caps, sigma2)


class TestCheckFeasible:
    def test_zero_target_always_feasible(self):
        ch = random_channels(0, 2, 2, 2)
        out = check_feasible(ch, AssociationMap.full(2, 2), 0.0, [1.0, 1.0], 1.0)
        assert out.status == "feasible"
        assert np.all(out.beamformers.w == 0)

    def test_single_user_mrt_bound_brackets(self):
        for seed in range(4):
            ch = random_channels(seed, 1, 2, 2)
            assoc = AssociationMap.full(2, 1)
            caps = [0.8, 1.5]
            bound = mrt_bound(ch, caps, 1.3)
            assert check_feasible(ch, assoc, bound * 0.98, caps, 1.3).status == "feasible"
            assert check_feasible(ch, assoc, bound * 1.02, caps, 1.3).status == "infeasible"

    def test_unserved_user_infeasible(self):
        ch = random_channels(1, 2, 2, 2)
        assoc = AssociationMap((frozenset([0]), frozenset([0])))  # user 1 unserved
        out = check_feasible(ch, assoc, 0.5, [1.0, 1.0], 1.0)
        assert out.status == "infeasible"

    def test_negative_target_rejected(self):
        ch = random_channels(2, 1, 1, 1)
        with pytest.raises(ValueError):
            check_feasible(ch, AssociationMap.full(1, 1), -0.1, [1.0], 1.0)

    def test_dimension_mismatch_rejected(self):
        ch = random_channels(3, 2, 2, 2)
        with pytest.raises(ValueError):
            check_feasible(ch, AssociationMap.full(3, 2), 0.5, [1.0] * 3, 1.0)
        with pytest.raises(ValueError):
            check_feasible(ch, AssociationMap.full(2, 2), 0.5, [1.0] * 3, 1.0)

    def test_feasible_point_meets_query(self):
        ch = random_channels(4, 3, 2, 2)
        assoc = AssociationMap((frozenset([0, 1, 2]), frozenset([1, 2])))
        caps = [1.0, 0.7]
        gamma = 0.3
        out = check_feasible(ch, assoc, gamma, caps, 0.6)
        assert out.status == "feasible"
        bf = out.beamformers
        sinr = compute_all_sinrs(ch, bf, 0.6)
        assert (sinr >= gamma * (1 - 1e-6)).all()
        assert (per_rrh_power(bf) <= np.array(caps) * (1 + 1e-6)).all()
        # eliminated links are exactly zero; aggregate gains are real
        assert np.all(bf.w[0, 1] == 0)
        sig = np.einsum("knm,knm->k", ch.h.conj(), bf.w)
        assert np.all(np.abs(sig.imag) <= 1e-9 * np.abs(sig.real))

    def test_monotone_feasibility(self):
        # any target above a feasible one being feasible implies the lower
        # one is too; probe a ladder of targets
        ch = random_channels(5, 3, 2, 2)
        assoc = AssociationMap.full(2, 3)
        caps = [1.0, 1.0]
        gamma_star, _ = solve_max_min(ch, assoc, caps, 1.0, TOL)
        ladder = gamma_star * np.array([0.2, 0.5, 0.9, 0.99, 1.05, 1.5, 3.0])
        results = [check_feasible(ch, assoc, g, caps, 1.0).status for g in ladder]
        # once infeasible, stays infeasible
        seen_infeasible = False
        for status in results:
            if status == "infeasible":
                seen_infeasible = True
            elif seen_infeasible:
                pytest.fail(f"feasibility not monotone: {results}")


class TestSolveMaxMin:
    def test_single_user_closed_form(self):
        for seed in range(5):
            ch = random_channels(10 + seed, 1, 2, 2)
            caps = [0.5, 2.0]
            bound = mrt_bound(ch, caps, 0.9)
            gamma, bf = solve_max_min(ch, AssociationMap.full(2, 1), caps, 0.9, TOL)
            assert gamma == pytest.approx(bound, rel=1e-3)
            sinr = compute_all_sinrs(ch, bf, 0.9)
            assert sinr[0] == pytest.approx(gamma, rel=1e-4)

    def test_zero_channels(self):
        ch = ChannelState(np.zeros((2, 1, 1), complex))
        gamma, bf = solve_max_min(ch, AssociationMap.full(1, 2), [1.0], 1.0, TOL)
        assert gamma == 0.0 and np.all(bf.w == 0)

    def test_orthogonal_two_user_hand_instance(self):
        # two users on orthogonal channels of one 2-antenna RRH with power 2:
        # each gets unit power on its own direction, zero interference
        h = np.zeros((2, 1, 2), complex)
        h[0, 0] = [1.0, 0.0]
        h[1, 0] = [0.0, 1.0]
        ch = ChannelState(h)
        gamma, bf = solve_max_min(ch, AssociationMap.full(1, 2), [2.0], 1.0, TOL)
        assert gamma == pytest.approx(1.0, rel=2e-4)
        np.testing.assert_allclose(compute_all_sinrs(ch, bf, 1.0), [1.0, 1.0],
                                   rtol=1e-4)

    def test_unserved_user_returns_zero(self):
        ch = random_channels(20, 2, 2, 2)
        assoc = AssociationMap((frozenset([0]), frozenset()))
        gamma, bf = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        assert gamma == 0.0 and np.all(bf.w == 0)

    def test_equal_sinr_at_optimum(self):
        for seed in range(4):
            ch = random_channels(30 + seed, 4, 2, 2)
            gamma, bf = solve_max_min(ch, AssociationMap.full(2, 4),
                                      [1.0, 1.5], 0.5, TOL)
            sinr = compute_all_sinrs(ch, bf, 0.5)
            assert (sinr.max() - sinr.min()) <= 1e-3 * gamma

    def test_power_caps_respected(self):
        ch = random_channels(40, 4, 2, 2)
        caps = [0.6, 1.1]
        gamma, bf = solve_max_min(ch, AssociationMap.full(2, 4), caps, 1.0, TOL)
        assert (per_rrh_power(bf) <= np.array(caps) * (1 + 1e-6)).all()

    def test_bisection_bracketing(self):
        for seed in range(4):
            ch = random_channels(50 + seed, 3, 2, 2)
            assoc = AssociationMap.full(2, 3)
            caps = [1.0, 1.0]
            gamma, _ = solve_max_min(ch, assoc, caps, 1.0, TOL)
            r = TOL.bisection_rel_tol
            assert check_feasible(ch, assoc, gamma * (1 - 5 * r), caps, 1.0,
                                  TOL).status == "feasible"
            assert check_feasible(ch, assoc, gamma * (1 + 5 * r), caps, 1.0,
                                  TOL).status == "infeasible"

    def test_removing_link_never_helps(self):
        for seed in range(3):
            ch = random_channels(60 + seed, 3, 2, 2)
            caps = [1.0, 1.0]
            full = AssociationMap.full(2, 3)
            g_full, _ = solve_max_min(ch, full, caps, 1.0, TOL)
            for (k, n) in [(0, 0), (2, 1)]:
                g_sub, _ = solve_max_min(ch, full.remove_link(k, n), caps, 1.0, TOL)
                assert g_sub <= g_full * (1 + 1e-3)

    def test_zero_forced_links_stay_zero(self):
        ch = random_channels(70, 3, 2, 2)
        assoc = AssociationMap((frozenset([0, 1]), frozenset([1, 2])))
        gamma, bf = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        assert gamma > 0
        assert np.all(bf.w[2, 0] == 0) and np.all(bf.w[0, 1] == 0)

    def test_upper_hint_matches_default(self):
        ch = random_channels(80, 3, 2, 2)
        assoc = AssociationMap.full(2, 3)
        g0, _ = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        g1, _ = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL,
                              gamma_upper_hint=g0 * 4.0)
        assert g1 == pytest.approx(g0, rel=3 * TOL.bisection_rel_tol)


def reference_bisection(ch, assoc, caps, sigma2):
    """Plain bisection on the probe verdict from [0, MRT bound] to the same
    final bracket, hi - lo <= bisection_rel_tol * lo."""
    prob = beamforming._BeamProblem(ch, assoc, caps, sigma2)
    lo, hi = 0.0, mrt_gamma_upper_bound(ch, caps, sigma2)
    for _ in range(beamforming._MAX_PROBES):
        if hi - lo <= TOL.bisection_rel_tol * lo:
            break
        mid = 0.5 * (lo + hi)
        status = prob.probe(mid, TOL).status
        assert status != "indeterminate"
        if status == "feasible":
            lo = mid
        else:
            hi = mid
    return lo


def _root_finder_cases():
    """(name, channels, association, caps, noise power, hint association):
    the optimum at the hint association, when given, is the upper hint."""
    cases = []
    for seed in (100, 101):
        ch = random_channels(seed, 4, 2, 2)
        full = AssociationMap.full(2, 4)
        cases.append((f"random{seed}-full", ch, full, (1.0, 1.0), 1.0, None))
        cases.append((f"random{seed}-pruned", ch,
                      full.remove_link(0, 0).remove_link(3, 1), (1.0, 1.0), 1.0, None))
    for seed in (3, 4):
        topo, ch, sigma2 = desk_instance(seed)
        cases.append((f"desk{seed}-full", ch, AssociationMap.full(3, 6),
                      (1.0,) * 3, sigma2, None))
        cases.append((f"desk{seed}-nearest", ch, nearest_rrh_association(ch, topo),
                      (1.0,) * 3, sigma2, None))
    # the MRT bound is 3e4 times the optimum here
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "desk.json")
    _, ch = draw_trial(cfg, 1)
    cases.append(("desk-config-trial1-full", ch, AssociationMap.full(3, 6),
                  cfg.power_caps_w(), cfg.noise_power_w(), None))
    # user 0 hears nothing from RRH 1, so link (0, 1) carries no power and
    # the full association's optimum, the hint, is also the pruned one's
    ch = random_channels(102, 3, 2, 2)
    ch.h[0, 1] = 0.0
    full = AssociationMap.full(2, 3)
    cases.append(("hint-equals-optimum", ch, full.remove_link(0, 1), (1.0, 1.0), 1.0,
                  full))
    return cases


ROOT_FINDER_CASES = _root_finder_cases()


def _hint(case):
    _, ch, _, caps, sigma2, hint_assoc = case
    if hint_assoc is None:
        return None
    return solve_max_min(ch, hint_assoc, caps, sigma2, TOL)[0]


def _counting_probes(monkeypatch):
    calls = []
    probe = beamforming._BeamProblem.probe

    def counted(self, gamma, tol):
        calls.append(gamma)
        return probe(self, gamma, tol)

    monkeypatch.setattr(beamforming._BeamProblem, "probe", counted)
    return calls


class TestMarginRootFinder:
    @pytest.mark.parametrize("case", ROOT_FINDER_CASES, ids=lambda c: c[0])
    def test_matches_reference_bisection(self, case):
        _, ch, assoc, caps, sigma2, _ = case
        gamma, bf = solve_max_min(ch, assoc, caps, sigma2, TOL,
                                  gamma_upper_hint=_hint(case))
        ref = reference_bisection(ch, assoc, caps, sigma2)
        assert ref > 0
        assert abs(gamma - ref) <= 2 * TOL.bisection_rel_tol * ref
        assert (compute_all_sinrs(ch, bf, sigma2) >= gamma * (1 - 1e-6)).all()

    @pytest.mark.parametrize("case", ROOT_FINDER_CASES, ids=lambda c: c[0])
    def test_at_most_ten_probes(self, case, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = case
        hint = _hint(case)
        calls = _counting_probes(monkeypatch)
        solve_max_min(ch, assoc, caps, sigma2, TOL, gamma_upper_hint=hint)
        assert 0 < len(calls) <= 10

    def test_hint_at_the_optimum_is_not_exceeded(self):
        ch = random_channels(103, 3, 2, 2)
        assoc = AssociationMap.full(2, 3)
        g0, _ = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        g1, bf = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL, gamma_upper_hint=g0)
        assert g0 * (1 - 2 * TOL.bisection_rel_tol) <= g1 <= g0
        assert (compute_all_sinrs(ch, bf, 1.0) >= g1 * (1 - 1e-6)).all()

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_probe_cap(self, cap, monkeypatch):
        ch = random_channels(104, 4, 2, 2)
        assoc = AssociationMap.full(2, 4)
        g_star = reference_bisection(ch, assoc, [1.0, 1.0], 1.0)
        calls = _counting_probes(monkeypatch)
        monkeypatch.setattr(beamforming, "_MAX_PROBES", cap)
        gamma, bf = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        assert 0 < len(calls) <= cap
        assert 0.0 <= gamma <= g_star * (1 + 2 * TOL.bisection_rel_tol)
        if gamma > 0:
            assert (compute_all_sinrs(ch, bf, 1.0) >= gamma * (1 - 1e-6)).all()
        else:
            assert np.all(bf.w == 0)

    @pytest.mark.parametrize("case", ROOT_FINDER_CASES, ids=lambda c: c[0])
    def test_at_most_seven_probes_none_at_zero(self, case, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = case
        hint = _hint(case)
        calls = _counting_probes(monkeypatch)
        max_min_value(ch, assoc, caps, sigma2, TOL, gamma_upper_hint=hint)
        assert 0 < len(calls) <= 7
        assert 0.0 not in calls

    def test_total_probes(self, monkeypatch):
        hints = [_hint(case) for case in ROOT_FINDER_CASES]
        calls = _counting_probes(monkeypatch)
        for (_, ch, assoc, caps, sigma2, _), hint in zip(ROOT_FINDER_CASES, hints):
            max_min_value(ch, assoc, caps, sigma2, TOL, gamma_upper_hint=hint)
        assert len(calls) <= 65

    @pytest.mark.parametrize("slope", [None, math.nan])
    @pytest.mark.parametrize("case", ROOT_FINDER_CASES, ids=lambda c: c[0])
    def test_no_slope_falls_back_to_the_midpoint(self, case, slope, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = case
        hint = _hint(case)
        probe = beamforming._BeamProblem.probe

        def slopeless(self, gamma, tol):
            out = probe(self, gamma, tol)
            out.solver_stats.slope = slope
            return out

        monkeypatch.setattr(beamforming._BeamProblem, "probe", slopeless)
        gamma, _ = max_min_value(ch, assoc, caps, sigma2, TOL, gamma_upper_hint=hint)
        ref = reference_bisection(ch, assoc, caps, sigma2)
        assert abs(gamma - ref) <= 2 * TOL.bisection_rel_tol * ref


def _counting_solves(monkeypatch):
    """(start point, IPM iterations) of every cone solve, in order."""
    calls = []
    solve = beamforming.solve_socp

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs.get("start"), res.iterations))
        return res

    monkeypatch.setattr(beamforming, "solve_socp", counted)
    return calls


class TestWarmStarts:
    """A probe near the last optimal one starts from its solution."""

    def test_warm_searches_agree_with_cold_ones_in_fewer_iterations(self, monkeypatch):
        hints = [_hint(case) for case in ROOT_FINDER_CASES]
        calls = _counting_solves(monkeypatch)
        runs = []
        for gate in (beamforming._WARM_GATE, -1.0):  # -1: no probe is near enough
            monkeypatch.setattr(beamforming, "_WARM_GATE", gate)
            del calls[:]
            values = [max_min_value(ch, assoc, caps, sigma2, TOL, gamma_upper_hint=hint)[0]
                      for (_, ch, assoc, caps, sigma2, _), hint
                      in zip(ROOT_FINDER_CASES, hints)]
            runs.append((values, sum(it for _, it in calls),
                         sum(start is not None for start, _ in calls)))
        (warm, warm_iters, warm_starts), (cold, cold_iters, cold_starts) = runs
        assert cold_starts == 0 < warm_starts
        for w, c in zip(warm, cold):
            assert abs(w - c) <= 2 * TOL.bisection_rel_tol * c
        assert warm_iters < cold_iters

    def test_far_probes_start_cold(self, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = ROOT_FINDER_CASES[0]
        prob = beamforming._BeamProblem(ch, assoc, caps, sigma2)
        calls = _counting_solves(monkeypatch)
        gamma = 0.1 * per_user_gamma_upper_bound(ch, assoc, caps, sigma2)
        for target in (gamma, 1.1 * gamma, 2.0 * gamma, 1.9 * gamma):
            prob.probe(target, TOL)
        assert [start is not None for start, _ in calls] == [False, True, False, True]

    def test_check_feasible_starts_cold(self, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = ROOT_FINDER_CASES[0]
        gamma = max_min_value(ch, assoc, caps, sigma2, TOL)[0]
        calls = _counting_solves(monkeypatch)
        outs = [check_feasible(ch, assoc, g, caps, sigma2, TOL)
                for g in (gamma, 1.01 * gamma, gamma, 0.99 * gamma)]
        assert [start for start, _ in calls] == [None] * 4
        assert outs[0].solver_stats == outs[2].solver_stats
        assert outs[0].beamformers.w.tobytes() == outs[2].beamformers.w.tobytes()


class TestLowerHint:
    """A value the association reaches starts the search from below."""

    CASE = ROOT_FINDER_CASES[0]

    def _search(self, monkeypatch, **hints):
        _, ch, assoc, caps, sigma2, _ = self.CASE
        calls = _counting_probes(monkeypatch)
        gamma, bf = max_min_value(ch, assoc, caps, sigma2, TOL, **hints)
        monkeypatch.undo()
        return gamma, bf, calls

    def test_first_probe_is_the_lower_hint(self, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = self.CASE
        g_star = reference_bisection(ch, assoc, caps, sigma2)
        for lower in (0.9 * g_star, 1.5 * g_star):  # feasible, then infeasible
            gamma, bf, calls = self._search(monkeypatch, gamma_lower_hint=lower)
            assert calls[0] == lower
            assert abs(gamma - g_star) <= 2 * TOL.bisection_rel_tol * g_star
            assert (compute_all_sinrs(ch, bf, sigma2) >= gamma * (1 - 1e-6)).all()

    @pytest.mark.parametrize("share", [1.0, 2.0, 0.0, -1.0, math.nan])
    def test_a_lower_hint_outside_the_bracket_is_ignored(self, share, monkeypatch):
        _, ch, assoc, caps, sigma2, _ = self.CASE
        upper = 2.0 * reference_bisection(ch, assoc, caps, sigma2)
        plain, _, plain_calls = self._search(monkeypatch, gamma_upper_hint=upper)
        gamma, _, calls = self._search(monkeypatch, gamma_upper_hint=upper,
                                       gamma_lower_hint=share * upper)
        assert calls == plain_calls and calls[0] == upper
        assert gamma == plain


def _slope_cases():
    """(channels, association, caps, noise power): a desk draw, small enough
    for the dense Newton path, and a paper-profile draw, on the block path."""
    _, desk, sigma2 = desk_instance(5)
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "paper.json")
    _, paper = draw_trial(cfg, 0)
    return {"desk5-full": (desk, AssociationMap.full(3, 6), (1.0,) * 3, sigma2),
            "paper-trial0-full": (paper, AssociationMap.full(5, 15),
                                  cfg.power_caps_w(), cfg.noise_power_w())}


class TestProbeSlope:
    @pytest.mark.parametrize("name", ["desk5-full", "paper-trial0-full"])
    def test_slope_matches_finite_difference(self, name):
        ch, assoc, caps, sigma2 = _slope_cases()[name]
        g_star, _ = max_min_value(ch, assoc, caps, sigma2, TOL)
        prob = beamforming._BeamProblem(ch, assoc, caps, sigma2)

        def margin(t):
            return prob.probe(t * t, TOL).solver_stats.margin

        for share in (0.5, 1.0, 2.0):
            t = math.sqrt(share * g_star)
            slope = prob.probe(t * t, TOL).solver_stats.slope
            step = 1e-5 * t
            fd = (margin(t + step) - margin(t - step)) / (2 * step)
            assert slope == pytest.approx(fd, rel=1e-3)

    def test_no_slope_at_zero_target(self):
        _, ch, sigma2 = desk_instance(5)
        prob = beamforming._BeamProblem(ch, AssociationMap.full(3, 6), (1.0,) * 3, sigma2)
        stats = prob.probe(0.0, TOL).solver_stats
        assert stats.status == "optimal"
        assert stats.slope is None


class TestPerUserBound:
    @pytest.mark.parametrize("case", ROOT_FINDER_CASES, ids=lambda c: c[0])
    def test_bounds_the_max_min_value(self, case):
        _, ch, assoc, caps, sigma2, _ = case
        bound = per_user_gamma_upper_bound(ch, assoc, caps, sigma2)
        gamma, _ = max_min_value(ch, assoc, caps, sigma2, TOL)
        assert gamma <= bound <= mrt_gamma_upper_bound(ch, caps, sigma2)

    def test_one_user_is_the_mrt_closed_form(self):
        ch = random_channels(90, 1, 3, 2)
        caps = (1.0, 0.5, 2.0)
        full = AssociationMap.full(3, 1)
        assert per_user_gamma_upper_bound(ch, full, caps, 1.0) == \
            mrt_gamma_upper_bound(ch, caps, 1.0)
        # served by RRHs 0 and 2 only: MRT on those two links is optimal
        pruned = full.remove_link(0, 1)
        closed = (math.sqrt(1.0) * np.linalg.norm(ch.h[0, 0])
                  + math.sqrt(2.0) * np.linalg.norm(ch.h[0, 2])) ** 2
        bound = per_user_gamma_upper_bound(ch, pruned, caps, 1.0)
        assert bound == pytest.approx(closed, rel=1e-12)
        gamma, _ = solve_max_min(ch, pruned, caps, 1.0, TOL)
        assert gamma == pytest.approx(bound, rel=2 * TOL.bisection_rel_tol)

    def test_zero_with_an_unserved_user(self):
        ch = random_channels(91, 3, 2, 2)
        assoc = AssociationMap((frozenset({0, 1}), frozenset({1})))
        assert per_user_gamma_upper_bound(ch, assoc, (1.0, 1.0), 1.0) == 0.0


class TestPowerMinFallback:
    def test_failed_power_min_logs_one_warning(self, monkeypatch, caplog):
        ch = random_channels(105, 3, 2, 2)
        assoc = AssociationMap.full(2, 3)
        with caplog.at_level(logging.WARNING, logger="cran_maxmin.beamforming"):
            g0, _ = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        assert not caplog.records

        failures = iter([
            SolverIndeterminate("stalled", SolverStats("indeterminate", 25, None,
                                                       3e-6, 0.0)),
            SolverIndeterminate("stalled", SolverStats("indeterminate", 100, None,
                                                       2e-2, 0.0)),
        ])

        def failing(self, gamma):
            raise next(failures)

        monkeypatch.setattr(beamforming._BeamProblem, "solve_power_min", failing)
        with caplog.at_level(logging.WARNING, logger="cran_maxmin.beamforming"):
            gamma, bf = solve_max_min(ch, assoc, [1.0, 1.0], 1.0, TOL)
        assert gamma == g0
        assert (compute_all_sinrs(ch, bf, 1.0) >= gamma * (1 - 1e-6)).all()
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name == "cran_maxmin.beamforming"
        message = record.getMessage()
        assert repr(gamma) in message
        assert "indeterminate, indeterminate" in message
        assert str([sorted(s) for s in assoc.omega]) in message


# desk trials 7 and 11, and a bench1 association of each whose tightening
# power-min stalls at gamma (dual residual rising over its last iterations)
STALLED_TIGHTENINGS = {
    7: [[0, 1, 2, 5], [0, 1, 2, 4, 5], [0, 2, 3, 4, 5]],
    11: [[0, 2, 3, 4, 5], [1, 2, 3, 4, 5], [0, 2, 3, 5]],
}


@pytest.mark.parametrize("trial", sorted(STALLED_TIGHTENINGS))
def test_stalled_tightening_is_retried_not_relaxed(monkeypatch, caplog, trial):
    # whole trials, since a lone run_algorithm1 does not share the sweep's
    # cache and may not reach the same gamma.  No solve may end "optimal"
    # outside the strict test; the stalled tightening ends indeterminate and
    # its retry at gamma (1 - 1e-6) tightens the beamformers
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "desk.json")
    results, tightened = [], {}
    solve, tighten = beamforming.solve_socp, association.tighten_max_min

    def recorded_solve(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    def recorded_tighten(ch, assoc, gamma, *args):
        bf = tighten(ch, assoc, gamma, *args)
        tightened[assoc.omega] = (ch, gamma, bf)
        return bf

    monkeypatch.setattr(beamforming, "solve_socp", recorded_solve)
    monkeypatch.setattr(association, "tighten_max_min", recorded_tighten)
    with caplog.at_level(logging.WARNING):
        harness._run_trial(cfg, trial)
    assert not caplog.records
    for res in results:
        if res.status == "optimal":
            assert res.pres <= socp._FEASTOL and res.dres <= socp._FEASTOL
            assert res.s @ res.z <= socp._ABSTOL or res.relgap <= socp._RELTOL
    ch, gamma, bf = tightened[tuple(map(frozenset, STALLED_TIGHTENINGS[trial]))]
    caps = np.asarray(cfg.power_caps_w())
    assert (compute_all_sinrs(ch, bf, cfg.noise_power_w()) >= gamma * (1 - 2e-6)).all()
    assert (per_rrh_power(bf) <= caps * (1 + 1e-9)).all()


class TestSolvePowerMin:
    def test_zero_target_zero_power(self):
        ch = random_channels(90, 2, 2, 2)
        bf = solve_power_min(ch, AssociationMap.full(2, 2), 0.0, [1.0, 1.0], 1.0)
        assert np.all(bf.w == 0)

    def test_single_user_closed_form(self):
        # with slack caps the optimum beam is matched filtering over the
        # stacked channel: total power = gamma * sigma^2 / ||h||^2
        ch = random_channels(91, 1, 2, 3)
        total_gain = float(np.sum(np.abs(ch.h) ** 2))
        gamma = 0.7
        bf = solve_power_min(ch, AssociationMap.full(2, 1), gamma,
                             [5.0, 5.0], 1.4)
        assert per_rrh_power(bf).sum() == pytest.approx(gamma * 1.4 / total_gain,
                                                        rel=1e-5)

    def test_power_strictly_below_full_budget(self):
        ch = random_channels(92, 1, 2, 2)
        caps = [1.0, 1.0]
        bound = mrt_bound(ch, caps, 1.0)
        bf = solve_power_min(ch, AssociationMap.full(2, 1), 0.25 * bound, caps, 1.0)
        assert per_rrh_power(bf).sum() < 0.9 * sum(caps)

    def test_all_targets_met_tightly(self):
        for seed in range(3):
            ch = random_channels(93 + seed, 4, 2, 2)
            assoc = AssociationMap.full(2, 4)
            g_star, _ = solve_max_min(ch, assoc, [1.0, 1.0], 0.8, TOL)
            target = 0.7 * g_star
            bf = solve_power_min(ch, assoc, target, [1.0, 1.0], 0.8)
            sinr = compute_all_sinrs(ch, bf, 0.8)
            assert (sinr >= target * (1 - 1e-5)).all()
            assert (sinr.max() - sinr.min()) <= 1e-3 * target

    def test_infeasible_target_raises(self):
        # the solver certifies no infeasibility, so the power-min ends
        # indeterminate; the 1 x 1 optimum is 1, and 1.01 times a max-min
        # value is beyond it
        ch = ChannelState(np.ones((1, 1, 1), complex))
        with pytest.raises(SolverIndeterminate):
            solve_power_min(ch, AssociationMap.full(1, 1), 5.0, [1.0], 1.0)
        ch = random_channels(93, 4, 2, 2)
        assoc = AssociationMap.full(2, 4)
        g_star, _ = max_min_value(ch, assoc, [1.0, 1.0], 0.8, TOL)
        with pytest.raises(SolverIndeterminate):
            solve_power_min(ch, assoc, 1.01 * g_star, [1.0, 1.0], 0.8)

    def test_unserved_user_raises(self):
        ch = random_channels(94, 2, 1, 1)
        with pytest.raises(ValueError):
            solve_power_min(ch, AssociationMap((frozenset([0]),)), 0.5, [1.0], 1.0)

    def test_negative_target_rejected(self):
        ch = random_channels(95, 1, 1, 1)
        with pytest.raises(ValueError):
            solve_power_min(ch, AssociationMap.full(1, 1), -1.0, [1.0], 1.0)

    def test_builds_no_margin_template(self, monkeypatch):
        built = []
        build = beamforming._BeamProblem._build

        def recorded(self, margin):
            built.append(margin)
            return build(self, margin)

        monkeypatch.setattr(beamforming._BeamProblem, "_build", recorded)
        ch = random_channels(96, 3, 2, 2)
        solve_power_min(ch, AssociationMap.full(2, 3), 0.1, [1.0, 1.0], 1.0)
        assert built == [False]


class TestTrivialCases:
    """Every entry point checks its inputs before any trivial exit (a zero
    target, a user no RRH serves) and takes that exit without a cone solve."""

    CH = random_channels(97, 2, 2, 2)
    FULL = AssociationMap.full(2, 2)
    UNSERVED = AssociationMap((frozenset([0]), frozenset([0])))  # user 1 unserved
    CALLS = {
        "check_feasible": lambda assoc, gamma, caps: check_feasible(
            TestTrivialCases.CH, assoc, gamma, caps, 1.0),
        "max_min_value": lambda assoc, gamma, caps: max_min_value(
            TestTrivialCases.CH, assoc, caps, 1.0),
        "solve_max_min": lambda assoc, gamma, caps: solve_max_min(
            TestTrivialCases.CH, assoc, caps, 1.0),
        "solve_power_min": lambda assoc, gamma, caps: solve_power_min(
            TestTrivialCases.CH, assoc, gamma, caps, 1.0),
    }

    @pytest.fixture(autouse=True)
    def no_cone_solve(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a trivial case ran a cone solve")

        monkeypatch.setattr(beamforming, "solve_socp", fail)

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("assoc, gamma", [(FULL, 0.0), (UNSERVED, 0.5)],
                             ids=["zero_target", "unserved_user"])
    @pytest.mark.parametrize("bad", ["cap_count", "cap_sign", "rrh_count", "user_index"])
    def test_bad_input_raises_before_the_trivial_exit(self, name, assoc, gamma, bad):
        caps = {"cap_count": [1.0], "cap_sign": [1.0, 0.0]}.get(bad, [1.0, 1.0])
        if bad == "rrh_count":
            assoc = AssociationMap(assoc.omega + (frozenset(),))
        elif bad == "user_index":
            assoc = AssociationMap((assoc.omega[0] | {2}, assoc.omega[1]))
        with pytest.raises(ValueError):
            self.CALLS[name](assoc, gamma, caps)

    def test_trivial_results(self):
        caps = [1.0, 1.0]
        out = self.CALLS["check_feasible"](self.FULL, 0.0, caps)
        assert out.status == "feasible" and not out.beamformers.w.any()
        assert out.solver_stats == SolverStats("optimal", 0, 0.0, 0.0, 0.0)
        out = self.CALLS["check_feasible"](self.UNSERVED, 0.5, caps)
        assert out.status == "infeasible" and out.beamformers is None
        assert out.solver_stats.margin == -math.inf
        for name in ("max_min_value", "solve_max_min"):
            gamma, bf = self.CALLS[name](self.UNSERVED, None, caps)
            assert gamma == 0.0 and bf.w.shape == (2, 2, 2) and not bf.w.any()
        bf = self.CALLS["solve_power_min"](self.FULL, 0.0, caps)
        assert bf.w.shape == (2, 2, 2) and not bf.w.any()
        with pytest.raises(ValueError, match="unserved"):
            self.CALLS["solve_power_min"](self.UNSERVED, 0.5, caps)

    def test_the_problem_decides_trivial_targets_itself(self):
        tol = SolverTolerances()
        full = beamforming._BeamProblem(self.CH, self.FULL, [1.0, 1.0], 1.0)
        out = full.probe(0.0, tol)
        assert out.status == "feasible" and not out.beamformers.w.any()
        assert out.solver_stats.slope is None
        assert not full.solve_power_min(0.0).w.any()
        unserved = beamforming._BeamProblem(self.CH, self.UNSERVED, [1.0, 1.0], 1.0)
        assert unserved.probe(0.5, tol).status == "infeasible"
        with pytest.raises(ValueError, match="unserved"):
            unserved.solve_power_min(0.5)
        for call in (lambda: full.probe(-1.0, tol), lambda: full.solve_power_min(-1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                call()


def test_user_with_a_zero_channel_gets_a_zero_value():
    # that user's SINR cone has no entry outside the margin column, so its
    # rows keep the scale they have
    h = random_channels(3, 3, 2, 2).h.copy()
    h[1] = 0.0
    gamma, _ = max_min_value(ChannelState(h), AssociationMap.full(2, 3), [1.0, 1.0], 1.0)
    assert 0.0 <= gamma < 1e-12


def test_user_next_to_an_rrh_is_decided():
    # configs/paper.json with seed 9, trial 0: 1 m guard, nearest user 1.3 m
    # from an RRH.  The probe at 1e-5 of the MRT bound once ended
    # indeterminate; its target is far above the full association's
    # interference-free bound, so infeasible is right without the solver
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "paper.json")
    cfg = replace(cfg, seed=9)
    _, ch = draw_trial(cfg, 0)
    caps, noise = cfg.power_caps_w(), cfg.noise_power_w()
    full = AssociationMap.full(5, 15)
    gamma = 1e-5 * mrt_gamma_upper_bound(ch, caps, noise)
    assert gamma > 1000.0 * per_user_gamma_upper_bound(ch, full, caps, noise)
    out = check_feasible(ch, full, gamma, caps, noise, cfg.tolerances())
    assert out.status == "infeasible"


@pytest.mark.parametrize("seed, trial", [(7, 1), (9, 0), (9, 1), (13, 3), (25, 4), (37, 0)])
def test_paper_draws_with_a_user_near_an_rrh_decide(seed, trial):
    # configs/paper.json draws whose full-association max-min stalled at its
    # first probe before each cone's rows were scaled to unit size (6 of the
    # 200 draws of seeds 1-40, trials 0-4); the probe's beamformers at the
    # value are checked with model.py alone
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "paper.json")
    _, ch = draw_trial(replace(cfg, seed=seed), trial)
    caps, noise = cfg.power_caps_w(), cfg.noise_power_w()
    gamma, bf = max_min_value(ch, AssociationMap.full(5, 15), caps, noise)
    assert gamma > 0.0
    assert (compute_all_sinrs(ch, bf, noise) >= gamma * (1 - 1e-6)).all()
    assert (per_rrh_power(bf) <= np.asarray(caps) * (1 + 1e-6)).all()


def test_tolerances_validation():
    with pytest.raises(ValueError):
        SolverTolerances(bisection_rel_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("bisection_rel_tol", 0),
    ("cone_feas_tol", math.nan),
    ("bisection_rel_tol", math.nan),
])
def test_bad_tolerance_names_its_field(field, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        SolverTolerances(**{field: value})
