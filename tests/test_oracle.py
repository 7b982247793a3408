"""Exhaustive-search oracle: consistency with the fixed-association rule and
dominance over the heuristic schemes."""

import math
import sys

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin import beamforming
from cran_maxmin.association import fronthaul_cap, run_algorithm1
from cran_maxmin.beamforming import SolverTolerances, solve_max_min
from cran_maxmin.model import (
    AssociationMap,
    NetworkConfig,
    achievable_rate,
    compute_all_sinrs,
    fronthaul_load,
    per_rrh_power,
)
from cran_maxmin.oracle import exhaustive_best, solve_fixed_association

TOL = SolverTolerances()


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
        ch = random_channels(1, 1, 1, 2, noise_power_w=1e-4)
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

    def test_unserved_maps_admitted_when_flag_off(self):
        ch = random_channels(7, 1, 1, 1)
        cfg = _netcfg(ch, 1.0, (5e6,))
        g_on, a_on = exhaustive_best(ch, cfg, TOL, require_all_served=True)
        g_off, a_off = exhaustive_best(ch, cfg, TOL, require_all_served=False)
        # the unserved map scores zero, so the optimum is unchanged
        assert g_on == pytest.approx(g_off, rel=1e-9)
        assert a_on.omega == a_off.omega

    def test_each_association_solved_once(self, monkeypatch):
        # 2 RRHs x 3 users: 3^3 = 27 associations serve every user, the full
        # one included, so 27 max-min values and no second one for the bound
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
        assert len(calls) == 27
        assert len(set(calls)) == 27

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
