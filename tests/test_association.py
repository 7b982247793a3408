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
    IterationRecord,
    NetworkConfig,
    SolveReport,
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


def _walk_benchmark2(ch, cfg, tol, topology=None, cache=None) -> SolveReport:
    """bench2 as a linear walk, the reference `run_benchmark2` must agree
    with: one max-min per activation step, each search started from the
    last gamma1, until gamma falls below (1 - 2 bisection_rel_tol) times the
    previous step's.  The report's final_gamma is the pre-drop step's."""
    report = SolveReport(scheme_label="bench2")
    if cache is None:
        cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    assoc = nearest_rrh_association(ch, topology)
    norms = np.linalg.norm(ch.h, axis=2) ** 2
    prev_gamma, gamma1, activated = -math.inf, None, None
    for t in range(1, cfg.n_rrh * cfg.n_users + 2):
        gamma1, gamma2, gamma_t, _ = cache.evaluate(assoc, cfg, gamma_lower_hint=gamma1)
        report.iterations.append(IterationRecord(
            t, gamma1, gamma2, gamma_t,
            activated.user if activated else None,
            activated.rrh if activated else None,
            assoc.sizes()))
        if gamma_t < prev_gamma * (1.0 - 2.0 * tol.bisection_rel_tol):
            break
        report.final_gamma = prev_gamma = gamma_t
        inactive = {(k, n): norms[k, n]
                    for k in range(cfg.n_users) for n in range(cfg.n_rrh)
                    if k not in assoc.omega[n]}
        if not inactive:
            break
        activated = association._argmax_link(inactive)
        omega = list(assoc.omega)
        omega[activated.rrh] = omega[activated.rrh] | {activated.user}
        assoc = AssociationMap(tuple(omega))
    return report


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
            # a step the bisection skipped has no gamma
            gammas = [r.gamma for r in report.iterations if r.gamma is not None]
            assert all(b >= a for a, b in zip(gammas[:-1], gammas[1:-1]))
            assert report.final_gamma == pytest.approx(max(gammas))

    @staticmethod
    def _stubbed(monkeypatch, ch, gamma1s, gamma2s, hints=None, stalls=()):
        """A cache whose step i (the path's i-th association) has wireless
        value gamma1s[i] and fronthaul value gamma2s[i]; it records the
        (step, upper hint, lower hint) of every evaluation and stalls at
        the steps in `stalls`."""
        def step(assoc):
            return sum(assoc.sizes()) - ch.n_users

        monkeypatch.setattr(association, "fronthaul_cap",
                            lambda assoc, caps, bw: gamma2s[step(assoc)])

        class StubCache:
            def evaluate(self, assoc, cfg, gamma_upper_hint=None, gamma_lower_hint=None):
                i = step(assoc)
                if hints is not None:
                    hints.append((i, gamma_upper_hint, gamma_lower_hint))
                if i in stalls:
                    raise SolverIndeterminate(f"step {i} stalled")
                g = min(gamma1s[i], gamma2s[i])
                return gamma1s[i], gamma2s[i], g, lambda: BeamformerSet.zeros(*ch.h.shape)

        return StubCache()

    @pytest.mark.parametrize("dip, drop", [(1e-5, False), (2 * TOL.bisection_rel_tol, False),
                                           (3e-4, True)])
    def test_solver_noise_is_not_a_drop(self, monkeypatch, dip, drop):
        # separately solved values differ by up to 2 bisection_rel_tol: a
        # gamma2 that lands that close below the previous gamma continues,
        # a 3e-4 relative dip stops the activation.  4 users on 2 RRHs make
        # a 5-step path; gamma2 falls at steps 1 and 4 only.
        ch = random_channels(32, 4, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        low = 1.0 - 1e-5
        gamma1s = [1.0, 1.1, 1.2, 1.3, 1.4]
        gamma2s = [math.inf, low, low, low, low * (1.0 - dip)]
        for runner in (_walk_benchmark2, run_benchmark2):
            cache = self._stubbed(monkeypatch, ch, gamma1s, gamma2s)
            report = runner(ch, cfg, TOL, cache=cache)
            assert len(report.iterations) == 5
            assert report.iterations[-1].gamma == low * (1.0 - dip)
            assert report.final_gamma == (low if drop else low * (1.0 - dip))
        # the bisection tests the fall at step 1 on the start's value, and the
        # one at step 4 only when it is wider than 2 tol, on step 3's value;
        # else it solves the path's end.  It never solves step 1 or 2.
        assert [r.gamma for r in report.iterations] == \
            [1.0, None, None, low if drop else None, low * (1.0 - dip)]
        assert report.iterations[-1].gamma1 == (None if drop else 1.4)

    def test_each_search_starts_from_the_nearest_solved_gamma1s(self, monkeypatch):
        # an activation adds a link, so a solved gamma1 bounds every later
        # step's value from below and every earlier step's from above
        # (with hint_headroom for the solver's noise).  3 users on 3 RRHs
        # make a 7-step path; gamma2 falls at steps 2, 4 and 6, and the
        # first drop is at step 4.
        ch = random_channels(33, 3, 3, 2)
        cfg = _netcfg(ch, 1.0, (1e12,) * 3)
        gamma1s = [1.0, 1.2, 1.5, 1.6, 1.7, 1.8, 1.9]
        gamma2s = [math.inf, math.inf, 1.4, 1.4, 1.0, 1.0, 0.5]
        hints = []
        cache = self._stubbed(monkeypatch, ch, gamma1s, gamma2s, hints)
        report = run_benchmark2(ch, cfg, TOL, cache=cache)
        up = TOL.hint_headroom
        # the start cold, then the test at step 4 (it solves step 3), then
        # the one at step 2 (it solves step 1)
        assert hints == [(0, None, None), (3, None, 1.0), (1, 1.6 * up, 1.0)]
        assert len(report.iterations) == 5 and report.final_gamma == 1.4
        assert [r.gamma for r in report.iterations] == [1.0, 1.2, None, 1.4, 1.0]

    @pytest.mark.parametrize("gamma2s", [
        [math.inf, math.inf, 1.4, 1.4, 1.0, 1.0, 0.5],
        [math.inf, 2.0, 2.0 * (1.0 - 1e-5), 1.3, 1.3 * (1.0 - 1e-5), 1.3 * (1.0 - 2e-5), 1.0]],
        ids=["wide-falls", "small-falls-too"])
    def test_only_falls_that_can_drop_are_solved_for(self, monkeypatch, gamma2s):
        # with F falls of gamma2 wider than 2 bisection_rel_tol, bench2 solves
        # the start, one step per bisection test and perhaps the path's end,
        # and it solves no step only to test a fall within 2 tol.  The first
        # stub has 3 such falls; the second adds 3 small ones after the first
        # and second of its 3 wide falls.  Both drop first at step 3 or 4.
        ch = random_channels(33, 3, 3, 2)
        cfg = _netcfg(ch, 1.0, (1e12,) * 3)
        gamma1s = [1.0, 1.2, 1.5, 1.6, 1.7, 1.8, 1.9]
        keep = 1.0 - 2.0 * TOL.bisection_rel_tol
        falls = [i for i in range(1, 7) if gamma2s[i] < keep * gamma2s[i - 1]]
        hints = []
        report = run_benchmark2(ch, cfg, TOL,
                                cache=self._stubbed(monkeypatch, ch, gamma1s, gamma2s, hints))
        solved = [i for i, _, _ in hints]
        assert len(solved) <= 2 + math.ceil(math.log2(len(falls) + 1))
        assert set(solved) <= {0, 6} | {i - 1 for i in falls}
        walk = _walk_benchmark2(ch, cfg, TOL,
                                cache=self._stubbed(monkeypatch, ch, gamma1s, gamma2s))
        assert [r.gamma2 for r in report.iterations] == [r.gamma2 for r in walk.iterations]
        assert report.final_gamma == walk.final_gamma

    @pytest.mark.parametrize("dip, drop", [(1e-5, False), (3e-4, True)])
    def test_the_walk_stops_on_a_gamma1_dip(self, monkeypatch, dip, drop):
        # the walk tests every step: a dip of gamma1 alone beyond 2
        # bisection_rel_tol stops it.  run_benchmark2 takes gamma1 to be
        # monotone within the tolerance and tests only the steps where
        # gamma2 falls; here it never does, so it solves the start and the
        # last step only and runs to the path's end.
        ch = random_channels(32, 4, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        gamma1s = [1.0, 1.0 - 1e-5, 1.1, 1.1 * (1.0 - dip), 2.0]
        gamma2s = [math.inf] * 5
        walk = _walk_benchmark2(ch, cfg, TOL,
                                cache=self._stubbed(monkeypatch, ch, gamma1s, gamma2s))
        assert [r.gamma for r in walk.iterations] == gamma1s[:4 if drop else 5]
        assert walk.final_gamma == (1.1 if drop else 2.0)
        report = run_benchmark2(ch, cfg, TOL,
                                cache=self._stubbed(monkeypatch, ch, gamma1s, gamma2s))
        assert [r.gamma for r in report.iterations] == [1.0, None, None, None, 2.0]
        assert report.final_gamma == 2.0

    def test_a_small_fall_after_a_drop_is_skipped(self, monkeypatch):
        # unequal capacities can cut gamma2 by less than 2 bisection_rel_tol
        # (step 4 here), so the drop test is false there after it was true at
        # step 2.  A bisection over the falls 2, 4, 6 would test step 4 first
        # and stop at step 6; over the falls 2 and 6 that can drop, the first
        # drop is step 2, as in the walk.
        ch = random_channels(33, 3, 3, 2)
        cfg = _netcfg(ch, 1.0, (1e12,) * 3)
        small = 0.8 * (1.0 - 1e-5)
        gamma1s = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
        gamma2s = [math.inf, math.inf, 0.8, 0.8, small, small, 0.4]
        for runner in (_walk_benchmark2, run_benchmark2):
            report = runner(ch, cfg, TOL,
                            cache=self._stubbed(monkeypatch, ch, gamma1s, gamma2s))
            assert [r.gamma for r in report.iterations] == [1.0, 1.1, 0.8]
            assert report.final_gamma == 1.1

    @pytest.mark.parametrize("stall, fails", [(3, False), (1, True), (2, False)])
    def test_a_stall_fails_only_at_a_step_the_walk_solves(self, monkeypatch, stall, fails):
        # the first drop is at step 2; the bisection's first test, of the
        # fall at step 4, solves step 3, which the walk never reaches.  A
        # stall there sends the search back to test the falls before step 4
        # in order; a stall at step 1, which the walk solves, fails the run.
        # The stop step 2 is never solved, so a stall there changes nothing.
        ch = random_channels(33, 3, 3, 2)
        cfg = _netcfg(ch, 1.0, (1e12,) * 3)
        gamma1s = [1.0, 1.2, 1.5, 1.6, 1.7, 1.8, 1.9]
        gamma2s = [math.inf, math.inf, 1.1, 1.1, 0.9, 0.9, 0.5]
        hints = []
        cache = self._stubbed(monkeypatch, ch, gamma1s, gamma2s, hints, stalls=(stall,))
        if fails:
            with pytest.raises(SolverIndeterminate) as err:
                run_benchmark2(ch, cfg, TOL, cache=cache)
            assert [r.t for r in err.value.partial_report.iterations] == \
                list(range(1, stall + 1))
            assert err.value.partial_report.iterations[0].gamma == 1.0
        else:
            report = run_benchmark2(ch, cfg, TOL, cache=cache)
            assert [r.gamma for r in report.iterations] == [1.0, 1.2, 1.1]
            assert report.final_gamma == 1.2
        assert [i for i, _, _ in hints][:2] == [0, 3]

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


    @pytest.mark.parametrize("seed", [40, 41, 42])
    @pytest.mark.parametrize("fronthaul", [2e6, 6e6, 20e6, 40e6, 1e12, (6e6, 6.05e6, 6.1e6),
                                           (6e6, 12e6, 18e6), (4e6, 8e6, 8.001e6)])
    def test_bisection_agrees_with_the_walk(self, seed, fronthaul):
        # the fronthaul binds below 40 Mb/s on these draws; at 1e12 it never
        # does.  With per-RRH capacities the bound's fall can be small where
        # the binding RRH changes (seed 41 at (4, 8, 8.001) Mb/s has one).
        _, ch, sigma2 = desk_instance(seed)
        caps = fronthaul if isinstance(fronthaul, tuple) else (fronthaul,) * 3
        cfg = _netcfg(ch, sigma2, caps)
        got = run_benchmark2(ch, cfg, TOL)
        ref = _walk_benchmark2(ch, cfg, TOL)
        # the same stop step and iteration count
        assert len(got.iterations) == len(ref.iterations)
        assert [(r.removed_user, r.removed_rrh, r.omega_sizes, r.gamma2)
                for r in got.iterations] == \
            [(r.removed_user, r.removed_rrh, r.omega_sizes, r.gamma2) for r in ref.iterations]
        assert got.final_gamma == pytest.approx(ref.final_gamma, rel=2e-4)
        for a, b in zip(got.iterations, ref.iterations):
            if a.gamma1 is not None:
                assert a.gamma1 == pytest.approx(b.gamma1, rel=2e-4)
                assert a.gamma == min(a.gamma1, a.gamma2)

    def test_the_walk_cases_include_drops_and_skips(self):
        # so that the agreement above covers a stop before the path's end
        # and steps the bisection never solves
        stops, skips = 0, 0
        for seed, fronthaul in ((40, 6e6), (41, 40e6), (42, 1e12)):
            _, ch, sigma2 = desk_instance(seed)
            cfg = _netcfg(ch, sigma2, (fronthaul,) * 3)
            report = run_benchmark2(ch, cfg, TOL)
            path = association._activation_path(ch, cfg)
            stops += len(report.iterations) < len(path)
            skips += sum(r.gamma1 is None for r in report.iterations)
        assert stops == 2 and skips > 0

    def test_unequal_capacities_make_a_fall_too_small_to_bisect(self):
        # so that the agreement above covers a small fall, which bench2 skips
        _, ch, sigma2 = desk_instance(41)
        cfg = _netcfg(ch, sigma2, (4e6, 8e6, 8.001e6))
        bound = [association.fronthaul_cap(assoc, cfg.fronthaul_cap_bps, cfg.bandwidth_hz)
                 for assoc, _ in association._activation_path(ch, cfg)]
        keep = 1.0 - 2.0 * TOL.bisection_rel_tol
        assert any(keep * a <= b < a for a, b in zip(bound, bound[1:]))


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
        assert calls == []  # the answer is not solved until it is read
        first = report.final_beamformers
        # the fronthaul side's power-min only; the max-min is not tightened
        assert calls == [rec.gamma2]
        # it is kept: a second read, or the association, solves nothing more
        assert report.final_beamformers is first
        assert report.final_association == nearest_rrh_association(ch)
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
    def test_failed_read_raises_on_first_access(self, runner, monkeypatch):
        ch, cfg = self._binding()
        clean = runner(ch, cfg, TOL)
        best = max(clean.iterations, key=lambda r: r.gamma)
        assert best.gamma2 < best.gamma1  # the answer is a power-min at gamma2
        calls = _count_power_mins(monkeypatch, fail_at=best.gamma2)
        report = runner(ch, cfg, TOL)
        # the run solves only its link selections' tightenings, at gamma1
        assert calls == [r.gamma1 for r in report.iterations if r.removed_user is not None]
        assert [(r.gamma1, r.gamma2, r.gamma) for r in report.iterations] == \
            [(r.gamma1, r.gamma2, r.gamma) for r in clean.iterations]
        before = list(calls)
        with pytest.raises(SolverIndeterminate):
            report.final_beamformers
        assert calls == before + [best.gamma2]


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
