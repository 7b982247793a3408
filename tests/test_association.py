"""Selection criteria, the closed-form fronthaul optimum, and the four
scheme runners with their trace-level properties."""

import gc
import math
import weakref

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin import association, beamforming
from cran_maxmin.association import (
    SolveCache,
    benchmark1_select,
    bottleneck_rrhs,
    candidate_links,
    fronthaul_cap,
    nearest_rrh_association,
    run_algorithm1,
    run_benchmark2,
    run_benchmark3,
    select_removal,
)
from cran_maxmin.beamforming import SolverIndeterminate, SolverStats, \
    SolverTolerances, mrt_gamma_upper_bound, solve_max_min
from cran_maxmin.model import (
    AssociationMap,
    BeamformerSet,
    NetworkConfig,
    achievable_rate,
    compute_all_sinrs,
    fronthaul_load,
    per_rrh_power,
)
from cran_maxmin.oracle import solve_fixed_association

TOL = SolverTolerances()


def _netcfg(ch, sigma2, fronthaul, caps=None):
    caps = caps if caps is not None else (1.0,) * ch.n_rrh
    return NetworkConfig(ch.n_rrh, ch.n_users, ch.n_antennas, 10e6,
                         caps, fronthaul, sigma2)


class TestFronthaulCap:
    def test_single_user_single_rrh(self):
        a = AssociationMap((frozenset([0]),))
        assert fronthaul_cap(a, [10e6], 10e6) == pytest.approx(1.0, rel=1e-12)

    def test_two_users(self):
        a = AssociationMap((frozenset([0, 1]),))
        assert fronthaul_cap(a, [10e6], 10e6) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_min_over_rrhs(self):
        # caps 1 and 0.5 in units of B|Omega|: min(2-1, 2^0.5-1)
        a = AssociationMap((frozenset([0]), frozenset([1, 2])))
        assert fronthaul_cap(a, [10e6, 10e6], 10e6) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_all_empty_is_vacuous(self):
        a = AssociationMap((frozenset(), frozenset()))
        assert fronthaul_cap(a, [1e6, 1e6], 1e6) == math.inf

    def test_huge_cap_no_overflow(self):
        a = AssociationMap((frozenset([0]),))
        assert fronthaul_cap(a, [1e15], 1e6) == math.inf


class TestBottleneck:
    def test_uniform_full_tie(self):
        a = AssociationMap((frozenset([0]), frozenset([1])))
        assert bottleneck_rrhs(a, [5e6, 5e6]) == {0, 1}

    def test_loaded_rrh_wins(self):
        a = AssociationMap((frozenset([0, 1]), frozenset([2])))
        assert bottleneck_rrhs(a, [10e6, 10e6]) == {0}

    def test_empty_rrh_excluded(self):
        a = AssociationMap((frozenset(), frozenset([0])))
        assert bottleneck_rrhs(a, [1.0, 1e9]) == {1}

    def test_all_empty_raises(self):
        with pytest.raises(ValueError):
            bottleneck_rrhs(AssociationMap((frozenset(),)), [1e6])


class TestCandidateLinks:
    def test_guard_protects_last_link(self):
        a = AssociationMap((frozenset([0, 1]), frozenset([0])))
        # user 1 is served only by RRH 0
        assert candidate_links({0}, a) == {(0, 0)}

    def test_empty_psi(self):
        a = AssociationMap.full(2, 2)
        assert candidate_links(set(), a) == set()


def _residual_score_by_hand(h, w, sigma2, phi):
    K, N, M = h.shape
    scores = {}
    for (kk, nn) in phi:
        num = 0.0
        for n in range(N):
            if n == nn:
                continue
            num += abs(sum(h[kk, n, m].conjugate() * w[kk, n, m]
                           for m in range(M))) ** 2
        den = sigma2
        for j in range(K):
            if j == kk:
                continue
            den += abs(sum(h[kk, n, m].conjugate() * w[j, n, m]
                           for n in range(N) for m in range(M))) ** 2
        scores[(kk, nn)] = num / den
    return scores


def _leakage_score_by_hand(h, w, phi):
    K, N, M = h.shape
    scores = {}
    for (kk, nn) in phi:
        scores[(kk, nn)] = sum(
            abs(sum(h[j, nn, m].conjugate() * w[kk, nn, m] for m in range(M))) ** 2
            for j in range(K) if j != kk)
    return scores


class TestSelectRemoval:
    def test_singleton_candidate(self, rng):
        ch = random_channels(0, 2, 2, 2)
        bf = BeamformerSet(rng.standard_normal((2, 2, 2))
                           + 1j * rng.standard_normal((2, 2, 2)))
        choice = select_removal(ch, bf, {(1, 0)}, 1.0)
        assert (choice.user, choice.rrh) == (1, 0)

    def test_weak_own_link_removed_first(self):
        # user 0 receives almost nothing through RRH 0, so dropping (0, 0)
        # barely reduces its residual power
        h = np.zeros((2, 2, 1), complex)
        h[0, 0, 0] = 1e-6
        h[0, 1, 0] = 1.0
        h[1, 0, 0] = 1.0
        h[1, 1, 0] = 1.0
        w = np.ones((2, 2, 1), complex)
        from cran_maxmin.model import ChannelState
        ch = ChannelState(h)
        choice = select_removal(ch, BeamformerSet(w), {(0, 0), (0, 1)}, 1.0)
        assert (choice.user, choice.rrh) == (0, 0)

    def test_matches_hand_evaluation(self, rng):
        h = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        from cran_maxmin.model import ChannelState
        ch = ChannelState(h)
        phi = {(0, 0), (1, 0), (2, 1), (1, 1)}
        expected = _residual_score_by_hand(h, w, 0.9, phi)
        choice = select_removal(ch, BeamformerSet(w), phi, 0.9)
        best = max(expected, key=lambda p: (expected[p], [-p[0], -p[1]]))
        assert (choice.user, choice.rrh) == best
        assert choice.score == pytest.approx(expected[best], rel=1e-10)

    def test_empty_phi_raises(self):
        ch = random_channels(1, 2, 2, 2)
        with pytest.raises(ValueError):
            select_removal(ch, BeamformerSet.zeros(2, 2, 2), set(), 1.0)


class TestBenchmark1Select:
    def test_singleton_candidate(self, rng):
        ch = random_channels(2, 2, 2, 2)
        bf = BeamformerSet(rng.standard_normal((2, 2, 2))
                           + 1j * rng.standard_normal((2, 2, 2)))
        choice = benchmark1_select(ch, bf, {(0, 1)})
        assert (choice.user, choice.rrh) == (0, 1)

    def test_zero_interference_tie_breaks_lexicographically(self):
        # orthogonal rank-1 instance: every leakage score is zero
        h = np.zeros((2, 1, 2), complex)
        h[0, 0] = [1.0, 0.0]
        h[1, 0] = [0.0, 1.0]
        w = np.zeros((2, 1, 2), complex)
        w[0, 0] = [1.0, 0.0]
        w[1, 0] = [0.0, 1.0]
        from cran_maxmin.model import ChannelState
        ch = ChannelState(h)
        choice = benchmark1_select(ch, BeamformerSet(w), {(1, 0), (0, 0)})
        assert (choice.user, choice.rrh) == (0, 0)
        assert choice.score == 0.0

    def test_matches_hand_evaluation(self, rng):
        h = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        from cran_maxmin.model import ChannelState
        ch = ChannelState(h)
        phi = {(0, 0), (2, 0), (1, 1)}
        expected = _leakage_score_by_hand(h, w, phi)
        choice = benchmark1_select(ch, BeamformerSet(w), phi)
        best = max(expected, key=lambda p: (expected[p], [-p[0], -p[1]]))
        assert (choice.user, choice.rrh) == best
        assert choice.score == pytest.approx(expected[best], rel=1e-10)


class TestRunAlgorithm1:
    def test_unconstrained_stops_immediately(self):
        ch = random_channels(5, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        report = run_algorithm1(ch, cfg, TOL)
        assert len(report.iterations) == 1
        rec = report.iterations[0]
        assert rec.gamma2 > rec.gamma1
        assert report.final_gamma == pytest.approx(rec.gamma1)
        assert report.final_association.sizes() == (3, 3)

    def test_single_link_fronthaul_bound(self):
        # one user, one RRH, tight fronthaul: the guard keeps the only link,
        # and the answer is the fronthaul closed form
        ch = random_channels(6, 1, 1, 2)
        bound = mrt_gamma_upper_bound(ch, [1.0], 1e-3)
        t_bar = 10e6 * math.log2(1.0 + bound / 4.0)  # binds below the MRT value
        cfg = _netcfg(ch, 1e-3, (t_bar,))
        report = run_algorithm1(ch, cfg, TOL)
        assert report.final_gamma == pytest.approx(2 ** (t_bar / 10e6) - 1, rel=1e-6)
        assert len(report.iterations) == 1  # guard empties the candidate set

    def test_combination_rule_exact(self):
        _, ch, sigma2 = desk_instance(3)
        cfg = _netcfg(ch, sigma2, (10e6,) * 3)
        report = run_algorithm1(ch, cfg, TOL)
        for rec in report.iterations:
            assert rec.gamma == min(rec.gamma1, rec.gamma2)

    def test_one_link_removed_per_iteration(self):
        _, ch, sigma2 = desk_instance(4)
        cfg = _netcfg(ch, sigma2, (10e6,) * 3)
        report = run_algorithm1(ch, cfg, TOL)
        sizes = [sum(r.omega_sizes) for r in report.iterations]
        for a, b in zip(sizes, sizes[1:]):
            assert b == a - 1

    def test_monotone_trace_and_termination(self):
        for seed in range(3):
            _, ch, sigma2 = desk_instance(10 + seed)
            cfg = _netcfg(ch, sigma2, (8e6,) * 3)
            report = run_algorithm1(ch, cfg, TOL)
            n, k = cfg.n_rrh, cfg.n_users
            assert len(report.iterations) <= n * k
            g1 = [r.gamma1 for r in report.iterations]
            g2 = [r.gamma2 for r in report.iterations]
            g = [r.gamma for r in report.iterations]
            assert all(b >= a for a, b in zip(g2, g2[1:]))
            assert all(b <= a * (1 + 1e-3) for a, b in zip(g1, g1[1:]))
            assert all(b >= a * (1 - 1e-3) for a, b in zip(g[:-1], g[1:-1]))
            assert report.final_gamma == pytest.approx(max(g))

    def test_final_answer_feasible(self):
        _, ch, sigma2 = desk_instance(20)
        cfg = _netcfg(ch, sigma2, (10e6,) * 3)
        report = run_algorithm1(ch, cfg, TOL)
        bf = report.final_beamformers
        assert (per_rrh_power(bf) <= np.array(cfg.power_cap_w) * (1 + 1e-6)).all()
        rates = achievable_rate(compute_all_sinrs(ch, bf, sigma2), cfg.bandwidth_hz)
        loads = fronthaul_load(report.final_association, rates)
        assert (loads <= np.array(cfg.fronthaul_cap_bps) * (1 + 1e-6)).all()

    def test_selector_validation(self):
        ch = random_channels(7, 1, 1, 1)
        with pytest.raises(ValueError):
            run_algorithm1(ch, _netcfg(ch, 1.0, (1e6,)), TOL, selector="strongest")


class TestBenchmark2:
    def test_single_rrh_single_evaluation(self):
        ch = random_channels(30, 3, 1, 2)
        cfg = _netcfg(ch, 1.0, (1e12,), caps=(1.0,))
        report = run_benchmark2(ch, cfg, TOL)
        assert len(report.iterations) == 1
        assert report.final_association.sizes() == (3,)

    def test_unconstrained_reaches_full_cooperation(self):
        ch = random_channels(31, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        report = run_benchmark2(ch, cfg, TOL)
        g_full, _ = solve_max_min(ch, AssociationMap.full(2, 3), cfg.power_cap_w,
                                  1.0, TOL)
        assert report.final_gamma == pytest.approx(g_full, rel=1e-3)
        assert report.final_association.sizes() == (3, 3)

    def test_trace_matches_hand_stepping(self):
        import numpy as np
        from cran_maxmin.model import ChannelState
        h = np.zeros((2, 2, 1), complex)
        h[0, 0, 0] = 2.0    # user 0 nearest RRH 0
        h[0, 1, 0] = 0.5
        h[1, 0, 0] = 0.3
        h[1, 1, 0] = 1.0    # user 1 nearest RRH 1
        ch = ChannelState(h)
        cfg = _netcfg(ch, 0.2, (9e6, 9e6))
        report = run_benchmark2(ch, cfg, TOL)
        # independent stepping: activations in norm order (0,1) then (1,0)
        steps = [AssociationMap((frozenset([0]), frozenset([1]))),
                 AssociationMap((frozenset([0]), frozenset([0, 1]))),
                 AssociationMap((frozenset([0, 1]), frozenset([0, 1])))]
        expected = []
        for assoc in steps:
            g, _ = solve_fixed_association(ch, assoc, cfg, TOL)
            expected.append(g)
            if len(expected) > 1 and expected[-1] < expected[-2]:
                break
        got = [r.gamma for r in report.iterations]
        assert got == pytest.approx(expected, rel=2e-3)
        activated = [(r.removed_user, r.removed_rrh) for r in report.iterations]
        assert activated[0] == (None, None)
        if len(activated) > 1:
            assert activated[1] == (0, 1)
        best = max(expected)
        assert report.final_gamma == pytest.approx(best, rel=2e-3)

    def test_stops_on_decrease_reports_previous(self):
        for seed in range(3):
            _, ch, sigma2 = desk_instance(40 + seed)
            cfg = _netcfg(ch, sigma2, (6e6,) * 3)
            report = run_benchmark2(ch, cfg, TOL)
            gammas = [r.gamma for r in report.iterations]
            assert all(b >= a for a, b in zip(gammas[:-1], gammas[1:-1]))
            assert report.final_gamma == pytest.approx(max(gammas))

    def test_solver_noise_is_not_a_drop(self):
        # separately solved values differ by up to 2 bisection_rel_tol: a
        # 1e-5 relative dip continues, a 3e-4 one stops the activation
        ch = random_channels(32, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        gammas = iter([1.0, 1.0 - 1e-5, 1.1, 1.1 * (1 - 3e-4), 2.0])

        class StubCache:
            def evaluate(self, assoc, cfg, gamma_upper_hint=None, gamma_lower_hint=None):
                g = next(gammas)
                return g, math.inf, g, lambda: BeamformerSet.zeros(3, 2, 2)

        report = run_benchmark2(ch, cfg, TOL, cache=StubCache())
        assert [r.gamma for r in report.iterations] == \
            [1.0, 1.0 - 1e-5, 1.1, 1.1 * (1 - 3e-4)]
        assert report.final_gamma == 1.1

    def test_each_search_starts_from_the_last_gamma1(self):
        # an activation adds a link, so the last wireless value is one the
        # new association reaches: it is the next evaluation's lower hint
        ch = random_channels(33, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        gamma1s = iter([1.0, 1.2, 1.5, 1.4])
        hints = []

        class StubCache:
            def evaluate(self, assoc, cfg, gamma_upper_hint=None, gamma_lower_hint=None):
                hints.append((gamma_upper_hint, gamma_lower_hint))
                g = next(gamma1s)
                # the fronthaul binds, so gamma differs from gamma1
                return g, 0.5 * g, 0.5 * g, lambda: BeamformerSet.zeros(3, 2, 2)

        report = run_benchmark2(ch, cfg, TOL, cache=StubCache())
        assert len(report.iterations) == 4
        assert hints == [(None, None), (None, 1.0), (None, 1.2), (None, 1.5)]

    def test_lower_start_keeps_the_path_and_the_values(self):
        class HintlessCache(SolveCache):
            def evaluate(self, assoc, cfg, gamma_upper_hint=None, gamma_lower_hint=None):
                return super().evaluate(assoc, cfg)

        for seed in range(3):
            _, ch, sigma2 = desk_instance(40 + seed)
            cfg = _netcfg(ch, sigma2, (6e6,) * 3)
            warm = run_benchmark2(ch, cfg, TOL)
            cold = run_benchmark2(ch, cfg, TOL,
                                  cache=HintlessCache(ch, cfg.power_cap_w, sigma2, TOL))
            assert [r.omega_sizes for r in warm.iterations] == \
                [r.omega_sizes for r in cold.iterations]
            for a, b in zip(warm.iterations, cold.iterations):
                assert a.gamma1 == pytest.approx(b.gamma1, rel=2 * TOL.bisection_rel_tol)


class TestBenchmark3:
    def test_single_rrh_equals_full_association(self):
        ch = random_channels(50, 3, 1, 2)
        cfg = _netcfg(ch, 1.0, (1e12,), caps=(1.0,))
        report = run_benchmark3(ch, cfg, TOL)
        g_full, _ = solve_max_min(ch, AssociationMap.full(1, 3), (1.0,), 1.0, TOL)
        assert report.final_gamma == pytest.approx(g_full, rel=1e-3)

    def test_mirror_instance_splits_users(self):
        import numpy as np
        from cran_maxmin.channels import Topology
        from cran_maxmin.model import ChannelState
        topo = Topology(np.array([[-100.0, 0.0], [100.0, 0.0]]),
                        np.array([[-50.0, 0.0], [50.0, 0.0]]))
        assoc = nearest_rrh_association(random_channels(0, 2, 2, 1), topo)
        assert assoc.omega == (frozenset([0]), frozenset([1]))

    def test_nearest_by_channel_norm_without_topology(self):
        h = np.zeros((2, 2, 1), complex)
        h[0, 0, 0] = 2.0
        h[0, 1, 0] = 1.0
        h[1, 0, 0] = 0.1
        h[1, 1, 0] = 3.0
        from cran_maxmin.model import ChannelState
        assoc = nearest_rrh_association(ChannelState(h))
        assert assoc.omega == (frozenset([0]), frozenset([1]))

    def test_dominated_by_full_cooperation(self):
        for seed in range(3):
            _, ch, sigma2 = desk_instance(60 + seed)
            cfg = _netcfg(ch, sigma2, (1e12,) * 3)
            report = run_benchmark3(ch, cfg, TOL)
            g_full, _ = solve_max_min(ch, AssociationMap.full(3, 6),
                                      cfg.power_cap_w, sigma2, TOL)
            assert report.final_gamma <= g_full * (1 + 1e-3)


class TestSolveCache:
    def test_cache_returns_identical_objects(self):
        ch = random_channels(70, 3, 2, 2)
        cache = SolveCache(ch, (1.0, 1.0), 1.0, TOL)
        assoc = AssociationMap.full(2, 3)
        g1, bf1 = cache.max_min(assoc)
        g2, bf2 = cache.max_min(assoc)
        assert g1 == g2 and bf1 is bf2

    def test_cached_runs_match_uncached(self):
        _, ch, sigma2 = desk_instance(71)
        cfg = _netcfg(ch, sigma2, (10e6,) * 3)
        cache = SolveCache(ch, cfg.power_cap_w, sigma2, TOL)
        a = run_algorithm1(ch, cfg, TOL, cache=cache)
        b = run_algorithm1(ch, cfg, TOL)
        assert a.final_gamma == b.final_gamma
        assert [r.gamma for r in a.iterations] == [r.gamma for r in b.iterations]

    def test_evaluate_combination_rule(self):
        ch = random_channels(72, 3, 2, 2)
        assoc = AssociationMap.full(2, 3)
        cache = SolveCache(ch, (1.0, 1.0), 1.0, TOL)
        g1, bf1 = cache.max_min(assoc)
        loose = _netcfg(ch, 1.0, (1e12, 1e12))
        gamma1, gamma2, gamma, read = cache.evaluate(assoc, loose)
        assert (gamma1, gamma2, gamma) == (g1, math.inf, g1) and read() is bf1
        tight = _netcfg(ch, 1.0, (1e6, 1e6))
        gamma1, gamma2, gamma, read = cache.evaluate(assoc, tight)
        assert gamma2 < gamma1 == g1 and gamma == gamma2
        assert read() is cache.power_min(assoc, gamma2)


def _count_power_mins(monkeypatch, fail_at=None):
    """Record the target of every power-min solve; one at target fail_at
    stalls instead of solving."""
    calls = []
    original = beamforming._BeamProblem.solve_power_min

    def counted(self, gamma):
        calls.append(gamma)
        if gamma == fail_at:
            raise SolverIndeterminate("power-min stalled",
                                      SolverStats("stalled", 24, None, 1e-5, 0.0))
        return original(self, gamma)

    monkeypatch.setattr(beamforming._BeamProblem, "solve_power_min", counted)
    return calls


class TestDeferredBeamformers:
    """Values are solved when scored, beamformers only when read."""

    @staticmethod
    def _binding(seed=3):
        _, ch, sigma2 = desk_instance(seed)
        return ch, _netcfg(ch, sigma2, (2e6,) * 3)

    def test_bench3_solves_one_power_min(self, monkeypatch):
        ch, cfg = self._binding()
        calls = _count_power_mins(monkeypatch)
        report = run_benchmark3(ch, cfg, TOL)
        [rec] = report.iterations
        assert rec.gamma2 < rec.gamma1
        # the fronthaul side's power-min only; the max-min is not tightened
        assert calls == [rec.gamma2]

    def test_value_solve_keeps_no_template(self, monkeypatch):
        problems = []
        init = beamforming._BeamProblem.__init__

        def recorded(self, *args):
            init(self, *args)
            problems.append(weakref.ref(self))

        monkeypatch.setattr(beamforming._BeamProblem, "__init__", recorded)
        ch, cfg = self._binding()
        cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, TOL)
        assoc = nearest_rrh_association(ch)
        _, _, _, read = cache.evaluate(assoc, cfg)
        gc.collect()
        assert len(problems) == 1 and problems[0]() is None
        read()
        gc.collect()
        assert len(problems) == 2 and all(p() is None for p in problems)

    @pytest.mark.parametrize("runner", [run_algorithm1, run_benchmark3])
    def test_failed_read_keeps_partial_report(self, runner, monkeypatch):
        ch, cfg = self._binding()
        clean = runner(ch, cfg, TOL)
        best = max(clean.iterations, key=lambda r: r.gamma)
        assert best.gamma2 < best.gamma1  # the answer is a power-min at gamma2
        calls = _count_power_mins(monkeypatch, fail_at=best.gamma2)
        with pytest.raises(SolverIndeterminate) as err:
            runner(ch, cfg, TOL)
        report = err.value.partial_report
        assert calls[-1] == best.gamma2  # the final read, after every record
        assert report is not None and report.scheme_label == clean.scheme_label
        assert [(r.gamma1, r.gamma2, r.gamma) for r in report.iterations] == \
            [(r.gamma1, r.gamma2, r.gamma) for r in clean.iterations]


class TestSolveCacheFailures:
    """A failed max-min value is remembered under its exact request."""

    @staticmethod
    def _failing_solve(monkeypatch):
        calls = []

        def solve(ch, assoc, power_cap_w, noise_power_w, tol, gamma_upper_hint=None,
                  gamma_lower_hint=None):
            calls.append(gamma_upper_hint)
            raise SolverIndeterminate("probe stalled",
                                      SolverStats("stalled", 19, None, 4.56e-6, 0.0))

        monkeypatch.setattr(association, "max_min_value", solve)
        return calls

    def test_repeat_request_is_not_re_solved(self, monkeypatch):
        calls = self._failing_solve(monkeypatch)
        cache = SolveCache(random_channels(73, 3, 2, 2), (1.0, 1.0), 1.0, TOL)
        assoc = AssociationMap.full(2, 3)
        with pytest.raises(SolverIndeterminate) as first:
            cache.max_min(assoc)
        with pytest.raises(SolverIndeterminate) as second:
            cache.max_min(assoc)
        assert len(calls) == 1
        assert second.value is not first.value
        assert str(second.value) == str(first.value)
        assert second.value.stats is first.value.stats

    def test_other_hint_still_solves(self, monkeypatch):
        calls = self._failing_solve(monkeypatch)
        cache = SolveCache(random_channels(74, 3, 2, 2), (1.0, 1.0), 1.0, TOL)
        assoc = AssociationMap.full(2, 3)
        for hint in (None, 5.0, None, 5.0, 6.0):
            with pytest.raises(SolverIndeterminate):
                cache.value(assoc, hint)
        assert calls == [None, 5.0, 6.0]

    def test_other_lower_hint_still_solves(self, monkeypatch):
        calls = self._failing_solve(monkeypatch)
        cache = SolveCache(random_channels(74, 3, 2, 2), (1.0, 1.0), 1.0, TOL)
        assoc = AssociationMap.full(2, 3)
        for lower in (None, 0.5, None, 0.5, 0.7):
            with pytest.raises(SolverIndeterminate):
                cache.value(assoc, 5.0, lower)
        assert len(calls) == 3

    def test_each_run_keeps_its_own_partial_report(self, monkeypatch):
        self._failing_solve(monkeypatch)
        ch = random_channels(75, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (10e6, 10e6))
        cache = SolveCache(ch, cfg.power_cap_w, 1.0, TOL)
        reports = []
        for runner in (run_benchmark3, run_benchmark2, run_benchmark3):
            with pytest.raises(SolverIndeterminate) as err:
                runner(ch, cfg, TOL, cache=cache)
            reports.append(err.value.partial_report)
        assert [r.scheme_label for r in reports] == ["bench3", "bench2", "bench3"]
        assert len({id(r) for r in reports}) == 3
