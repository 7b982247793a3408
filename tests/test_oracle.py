"""Exact oracle: consistency with the fixed-association rule, dominance over
the heuristic schemes, and equality with the full 2^(N*K) enumeration."""

import functools
import sys

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin import beamforming, oracle
from cran_maxmin.association import SolveCache, fronthaul_cap, run_algorithm1
from cran_maxmin.beamforming import (
    SolverTolerances,
    per_user_gamma_upper_bound,
    solve_max_min,
)
from cran_maxmin.model import (
    AssociationMap,
    NetworkConfig,
    achievable_rate,
    compute_all_sinrs,
    fronthaul_load,
    per_rrh_power,
)
from cran_maxmin.oracle import _mask_to_association, exhaustive_best, solve_fixed_association

TOL = SolverTolerances()
HEADROOM = 1.0 + 10.0 * TOL.bisection_rel_tol


def reference_values(ch, cfg):
    """(hint, [(association, gamma) of every mask in order]), scored as the
    full enumeration scores them: one SolveCache, and the full association's
    value with headroom as every max-min's upper hint."""
    cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, TOL)
    hint = cache.value(AssociationMap.full(cfg.n_rrh, cfg.n_users)) * HEADROOM
    out = []
    for mask in range(1 << cfg.n_rrh * cfg.n_users):
        assoc = _mask_to_association(mask, cfg.n_users, cfg.n_rrh)
        out.append((assoc, cache.evaluate(assoc, cfg, hint)[2]))
    return hint, out


def reference_best(values, n_users):
    """The 2^(N*K) enumeration: the first maximizer in mask order among the
    associations that serve every user."""
    best_gamma, best_assoc = -1.0, None
    for assoc, gamma in values:
        if assoc.unserved_users(n_users):
            continue
        if gamma > best_gamma:
            best_gamma, best_assoc = gamma, assoc
    return best_gamma, best_assoc


def _desk(seed, n_rrh, n_users, caps, fronthaul):
    _, ch, sigma2 = desk_instance(seed, n_rrh=n_rrh, n_users=n_users, n_antennas=2)
    return ch, NetworkConfig(n_rrh, n_users, 2, 10e6, caps, fronthaul, sigma2)


def _unit(seed, n_users, n_rrh, caps, fronthaul):
    ch = random_channels(seed, n_users, n_rrh, 1)
    return ch, NetworkConfig(n_rrh, n_users, 1, 10e6, caps, fronthaul, 1.0)


# name -> (channels, NetworkConfig); shapes are users x RRHs x antennas
INSTANCES = {f"desk{3000 + i}": functools.partial(_desk, 3000 + i, 2, 3, (1.0, 1.0), 8e6)
             for i in range(30)}  # acceptance criterion 4's draws
INSTANCES.update({
    "4x3x1": functools.partial(_unit, 11, 4, 3, (1.0,) * 3, 10e6),
    "3x4x1-caps": functools.partial(_unit, 12, 3, 4, (1.0, 0.5, 2.0, 1.0), 10e6),
    "5x2x2-caps": functools.partial(_desk, 13, 2, 5, (0.3, 3.0), 8e6),
    "3x3x2-caps": functools.partial(_desk, 14, 3, 3, (0.3, 1.0, 3.0), 8e6),
    "desk3000-no-fronthaul": functools.partial(_desk, 3000, 2, 3, (1.0, 1.0), 1e12),
})
ONE_PER_SHAPE = ["desk3000", "4x3x1", "3x4x1-caps", "5x2x2-caps", "3x3x2-caps"]


@functools.lru_cache(maxsize=None)
def _reference(name):
    ch, cfg = INSTANCES[name]()
    return (ch, cfg) + reference_values(ch, cfg)


def _netcfg(ch, sigma2, fronthaul):
    return NetworkConfig(ch.n_rrh, ch.n_users, ch.n_antennas, 10e6,
                         (1.0,) * ch.n_rrh, fronthaul, sigma2)


class TestSolveFixedAssociation:
    def test_unconstrained_equals_max_min(self):
        ch = random_channels(0, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        assoc = AssociationMap.full(2, 3)
        gamma, _ = solve_fixed_association(ch, assoc, cfg, TOL)
        g1, _ = solve_max_min(ch, assoc, cfg.power_cap_w, 1.0, TOL)
        assert gamma == g1

    def test_single_user_tight_fronthaul(self):
        ch = random_channels(1, 1, 1, 2)
        t_bar = 3e6
        cfg = _netcfg(ch, 1e-4, (t_bar,))
        gamma, _ = solve_fixed_association(ch, AssociationMap.full(1, 1), cfg, TOL)
        assert gamma == pytest.approx(2 ** (t_bar / 10e6) - 1, rel=1e-9)

    def test_beamformers_satisfy_both_constraint_families(self):
        _, ch, sigma2 = desk_instance(2, n_rrh=2, n_users=3)
        cfg = _netcfg(ch, sigma2, (8e6, 8e6))
        assoc = AssociationMap.full(2, 3)
        gamma, bf = solve_fixed_association(ch, assoc, cfg, TOL)
        assert (per_rrh_power(bf) <= np.array(cfg.power_cap_w) * (1 + 1e-6)).all()
        sinr = compute_all_sinrs(ch, bf, sigma2)
        rates = achievable_rate(sinr, cfg.bandwidth_hz)
        loads = fronthaul_load(assoc, rates)
        assert (loads <= np.array(cfg.fronthaul_cap_bps) * (1 + 1e-6)).all()
        assert sinr.min() >= gamma * (1 - 1e-4)


class TestExhaustiveBest:
    def test_one_user_one_rrh(self):
        ch = random_channels(3, 1, 1, 1)
        cfg = _netcfg(ch, 1.0, (5e6,))
        gamma, assoc = exhaustive_best(ch, cfg, TOL)
        g_serve, _ = solve_fixed_association(ch, AssociationMap.full(1, 1), cfg, TOL)
        assert assoc.omega == (frozenset([0]),)
        assert gamma == pytest.approx(g_serve, rel=1e-9)

    def test_unconstrained_full_association_is_optimal(self):
        ch = random_channels(4, 3, 2, 2)
        cfg = _netcfg(ch, 1.0, (1e12, 1e12))
        gamma, _ = exhaustive_best(ch, cfg, TOL)
        g_full, _ = solve_max_min(ch, AssociationMap.full(2, 3),
                                  cfg.power_cap_w, 1.0, TOL)
        assert gamma == pytest.approx(g_full, rel=1e-3)

    def test_dominates_algorithm1(self):
        for seed in range(2):
            _, ch, sigma2 = desk_instance(5 + seed, n_rrh=2, n_users=3)
            cfg = _netcfg(ch, sigma2, (8e6, 8e6))
            gamma_opt, _ = exhaustive_best(ch, cfg, TOL)
            report = run_algorithm1(ch, cfg, TOL)
            assert report.final_gamma <= gamma_opt * (1 + 1e-3)

    def test_size_cap_enforced(self):
        ch = random_channels(6, 4, 4, 1)
        cfg = _netcfg(ch, 1.0, (1e6,) * 4)
        with pytest.raises(ValueError, match="12"):
            exhaustive_best(ch, cfg, TOL)

    def test_each_association_solved_once(self, monkeypatch):
        # the full association is solved first, for the hint; no association
        # twice; and the bounds spare some of the 3^3 = 27 that serve every user
        calls = []
        original = beamforming.max_min_value

        def counting(*args, **kwargs):
            calls.append(args[1].omega)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("cran_maxmin") and \
                    getattr(module, "max_min_value", None) is original:
                monkeypatch.setattr(module, "max_min_value", counting)
        _, ch, sigma2 = desk_instance(5, n_rrh=2, n_users=3)
        exhaustive_best(ch, _netcfg(ch, sigma2, (8e6, 8e6)), TOL)
        assert len(set(calls)) == len(calls)
        assert calls[0] == AssociationMap.full(2, 3).omega
        assert len(calls) < 27

    def test_search_solves_no_power_min(self, monkeypatch):
        # the search compares values only, so no association's beamformers
        # are tightened and no binding side's power-min runs
        calls = []
        original = beamforming._BeamProblem.solve_power_min

        def counting(self, gamma):
            calls.append(gamma)
            return original(self, gamma)

        monkeypatch.setattr(beamforming._BeamProblem, "solve_power_min", counting)
        _, ch, sigma2 = desk_instance(5, n_rrh=2, n_users=3)
        exhaustive_best(ch, _netcfg(ch, sigma2, (8e6, 8e6)), TOL)
        assert calls == []


class TestEqualsEnumeration:
    """The best-first search returns the enumeration's (gamma, association)
    bit for bit: both solve each association with the same hint, and no
    pruned association's value can reach the best one."""

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_all_served(self, name):
        ch, cfg, _, values = _reference(name)
        assert exhaustive_best(ch, cfg, TOL) == reference_best(values, cfg.n_users)

    @pytest.mark.parametrize("name", ONE_PER_SHAPE)
    def test_every_value_within_its_bounds(self, name):
        ch, cfg, hint, values = _reference(name)
        for assoc, gamma in values:
            assert gamma <= hint
            assert gamma <= fronthaul_cap(assoc, cfg.fronthaul_cap_bps, cfg.bandwidth_hz)
            assert gamma <= HEADROOM * per_user_gamma_upper_bound(
                ch, assoc, cfg.power_cap_w, cfg.noise_power_w)

    def test_tie_keeps_the_first_maximizer_in_mask_order(self):
        # at 8 Mb/s seven associations share the binding fronthaul value here
        ch, cfg, _, values = _reference("desk3014")
        gamma, assoc = exhaustive_best(ch, cfg, TOL)
        ties = [a for a, g in values if g == gamma and not a.unserved_users(cfg.n_users)]
        assert len(ties) >= 2
        assert assoc == ties[0]

    def test_tie_met_against_mask_order_keeps_the_first_maximizer(self, monkeypatch):
        # every association scores 1e-6, and a patched fronthaul bound that
        # grows with the link count makes the search meet the ties from the
        # full association down; the first serving mask in order still wins
        monkeypatch.setattr(SolveCache, "value",
                            lambda self, assoc, hint=None, lower=None: 1e-6)
        monkeypatch.setattr(oracle, "fronthaul_cap",
                            lambda assoc, caps, bw: 1e-6 * (1 + 1e-5 * sum(assoc.sizes())))
        ch = random_channels(8, 3, 2, 1)
        gamma, assoc = exhaustive_best(ch, _netcfg(ch, 1.0, (1e12, 1e12)), TOL)
        assert gamma == 1e-6
        # mask 0b010101: RRH 0 serves every user
        assert assoc == AssociationMap((frozenset({0, 1, 2}), frozenset()))
