"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Expensive artifacts (instance batches, the desk-scale sweep) are
shared across criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin.association import fronthaul_cap, run_algorithm1
from cran_maxmin.beamforming import (
    SolverTolerances,
    check_feasible,
    mrt_gamma_upper_bound,
    solve_max_min,
)
from cran_maxmin.cli import cli_main
from cran_maxmin.harness import ExperimentConfig, run_sweep, write_csv
from cran_maxmin.model import AssociationMap, NetworkConfig, compute_all_sinrs
from cran_maxmin.oracle import exhaustive_best

TOL = SolverTolerances()
DESK = dict(n_rrh=3, n_users=6, n_antennas=2)
BINDING_T = 10e6  # bits/s; binds the desk profile (full-association loads ~24 Mb/s)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _desk_netcfg(ch, sigma2, t_bps):
    return NetworkConfig(ch.n_rrh, ch.n_users, ch.n_antennas, 10e6,
                         (1.0,) * ch.n_rrh, (t_bps,) * ch.n_rrh, sigma2)


@pytest.fixture(scope="module")
def unconstrained_solves():
    out = []
    for i in range(50):
        _, ch, sigma2 = desk_instance(1000 + i, **DESK)
        assoc = AssociationMap.full(ch.n_rrh, ch.n_users)
        caps = (1.0,) * ch.n_rrh
        gamma, bf = solve_max_min(ch, assoc, caps, sigma2, TOL)
        out.append((ch, assoc, caps, sigma2, gamma, bf))
    return out


@pytest.fixture(scope="module")
def constrained_reports():
    out = []
    for i in range(50):
        _, ch, sigma2 = desk_instance(2000 + i, **DESK)
        cfg = _desk_netcfg(ch, sigma2, BINDING_T)
        out.append((ch, cfg, run_algorithm1(ch, cfg, TOL)))
    return out


@pytest.fixture(scope="module")
def oracle_runs():
    out = []
    for i in range(30):
        _, ch, sigma2 = desk_instance(3000 + i, n_rrh=2, n_users=3, n_antennas=2)
        cfg = NetworkConfig(2, 3, 2, 10e6, (1.0, 1.0), (8e6, 8e6), sigma2)
        gamma_opt, _ = exhaustive_best(ch, cfg, TOL)
        report = run_algorithm1(ch, cfg, TOL)
        out.append((gamma_opt, report))
    return out


@pytest.fixture(scope="module")
def desk_sweep():
    cfg = ExperimentConfig(trials=20, seed=11, **DESK)
    rows, aggregates = run_sweep(cfg, workers=2)
    return cfg, rows, aggregates


def test_criterion_1_equal_sinr_optimality(unconstrained_solves):
    worst = 0.0
    for ch, _, _, sigma2, gamma, bf in unconstrained_solves:
        assert gamma > 0
        sinr = compute_all_sinrs(ch, bf, sigma2)
        worst = max(worst, float(sinr.max() - sinr.min()) / gamma)
    _report(1, "max-min beamformers balance every user's SINR", worst <= 1e-3,
            f"worst relative spread {worst:.2e} over 50 instances")


def test_criterion_2_combination_rule(constrained_reports, oracle_runs):
    traces = [rep for _, _, rep in constrained_reports]
    traces += [rep for _, rep in oracle_runs]
    checked = 0
    ok = True
    for rep in traces:
        for rec in rep.iterations:
            ok = ok and (rec.gamma == min(rec.gamma1, rec.gamma2))
            checked += 1
    _report(2, "per-iteration value equals min(wireless, fronthaul) exactly",
            ok, f"{checked} iterations across {len(traces)} traces")


def test_criterion_3_convergence(constrained_reports):
    ok = True
    detail = ""
    for ch, cfg, rep in constrained_reports:
        g1 = [r.gamma1 for r in rep.iterations]
        g2 = [r.gamma2 for r in rep.iterations]
        if not all(b >= a for a, b in zip(g2, g2[1:])):
            ok, detail = False, "fronthaul bound decreased"
        if not all(b <= a * (1 + 1e-3) for a, b in zip(g1, g1[1:])):
            ok, detail = False, "wireless bound increased"
        if len(rep.iterations) > cfg.n_rrh * cfg.n_users:
            ok, detail = False, "iteration bound exceeded"
    removals = [len(r.iterations) - 1 for _, _, r in constrained_reports]
    _report(3, "monotone bounds and termination within N*K iterations", ok,
            detail or f"50 runs, removals min/mean/max "
            f"{min(removals)}/{np.mean(removals):.1f}/{max(removals)}")


def test_criterion_4_oracle_dominance(oracle_runs):
    ok = True
    gaps = []
    for gamma_opt, rep in oracle_runs:
        ok = ok and rep.final_gamma <= gamma_opt * (1 + 1e-3)
        gaps.append(max(0.0, 1.0 - rep.final_gamma / gamma_opt))
    _report(4, "pruning never beats the exhaustive optimum", ok,
            f"mean optimality gap {100 * np.mean(gaps):.2f}%, "
            f"max {100 * max(gaps):.2f}% over 30 instances")


def test_criterion_5_sweep_reproduces_qualitative_figure(desk_sweep):
    cfg, rows, aggregates = desk_sweep
    sweep = cfg.fronthaul_sweep_bps
    mean = {(a["fronthaul_bps"], a["scheme"]): a["gamma_linear"]
            for a in aggregates}

    # (a) every scheme's mean is non-decreasing in the fronthaul capacity
    mono_ok = all(
        mean[(t2, s)] >= mean[(t1, s)] - 1e-12
        for s in cfg.schemes for t1, t2 in zip(sweep, sweep[1:]))

    # (b) at the largest capacity the cooperative schemes coincide and beat
    # the nearest-RRH cellular baseline
    big = sweep[-1]
    coop = [mean[(big, s)] for s in ("alg1", "bench1", "bench2")]
    agree_ok = (max(coop) - min(coop)) <= 0.01 * min(coop)
    beats_ok = all(v > mean[(big, "bench3")] for v in coop)

    # (c) averaged over the binding region (capacities where at least half
    # the trials pruned a link), the proposed selection wins on the mean
    def removals(t, scheme):
        return sum(1 for r in rows if r["fronthaul_bps"] == t
                   and r["scheme"] == scheme and r["iterations"] > 1)
    binding = [t for t in sweep if removals(t, "alg1") >= cfg.trials / 2]
    alg1_avg = np.mean([mean[(t, "alg1")] for t in binding])
    b1_avg = np.mean([mean[(t, "bench1")] for t in binding])
    b2_avg = np.mean([mean[(t, "bench2")] for t in binding])
    best_ok = bool(binding) and alg1_avg >= b1_avg - 1e-12 and alg1_avg >= b2_avg - 1e-12

    _report(5, "desk-scale sweep reproduces the qualitative comparison",
            mono_ok and agree_ok and beats_ok and best_ok,
            f"binding region {[t / 1e6 for t in binding]} MHz*b/s; "
            f"binding means alg1/b1/b2 = {alg1_avg:.4f}/{b1_avg:.4f}/{b2_avg:.4f}; "
            f"largest-T coop {min(coop):.4f}..{max(coop):.4f} vs "
            f"cellular {mean[(big, 'bench3')]:.4f}")


def test_criterion_6_single_user_closed_form():
    rng = np.random.default_rng(64)
    worst = 0.0
    for i in range(20):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ch = random_channels(4000 + i, 1, n, m)
        caps = tuple(float(c) for c in rng.uniform(0.3, 2.0, n))
        bound = mrt_gamma_upper_bound(ch, caps, 0.8)
        gamma, _ = solve_max_min(ch, AssociationMap.full(n, 1), caps, 0.8, TOL)
        worst = max(worst, abs(gamma - bound) / bound)
    _report(6, "single-user value matches the matched-filter closed form",
            worst <= 1e-3, f"worst relative error {worst:.2e} over 20 draws")


def test_criterion_7_fronthaul_closed_form():
    cases = [
        (AssociationMap((frozenset([0]),)), [10e6], 10e6, 1.0),
        (AssociationMap((frozenset([0, 1]),)), [10e6], 10e6, math.sqrt(2.0) - 1.0),
        (AssociationMap((frozenset([0]), frozenset([1, 2]))), [10e6, 10e6], 10e6,
         math.sqrt(2.0) - 1.0),
    ]
    worst = 0.0
    for assoc, caps, bw, expected in cases:
        got = fronthaul_cap(assoc, caps, bw)
        worst = max(worst, abs(got - expected) / expected)
    _report(7, "fronthaul optimum reproduces hand-evaluated values",
            worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_8_bisection_bracketing(unconstrained_solves, constrained_reports):
    r = TOL.bisection_rel_tol
    checked, ok = 0, True
    for ch, assoc, caps, sigma2, gamma, _ in unconstrained_solves:
        lo = check_feasible(ch, assoc, gamma * (1 - 5 * r), caps, sigma2, TOL)
        hi = check_feasible(ch, assoc, gamma * (1 + 5 * r), caps, sigma2, TOL)
        ok = ok and lo.status == "feasible" and hi.status == "infeasible"
        checked += 1
    # also exercise pruned associations from the constrained runs
    for ch, cfg, rep in constrained_reports[:10]:
        assoc = rep.final_association
        gamma, _ = solve_max_min(ch, assoc, cfg.power_cap_w, cfg.noise_power_w, TOL)
        if gamma == 0.0:
            continue
        lo = check_feasible(ch, assoc, gamma * (1 - 5 * r), cfg.power_cap_w,
                            cfg.noise_power_w, TOL)
        hi = check_feasible(ch, assoc, gamma * (1 + 5 * r), cfg.power_cap_w,
                            cfg.noise_power_w, TOL)
        ok = ok and lo.status == "feasible" and hi.status == "infeasible"
        checked += 1
    _report(8, "bisection output brackets the feasibility boundary", ok,
            f"{checked} results bracketed at +/-5x relative tolerance")


def test_criterion_9_sweep_determinism(tmp_path):
    import json
    config = dict(n_rrh=2, n_users=3, n_antennas=2,
                  fronthaul_sweep_bps=[8e6, 200e6], trials=2, seed=5,
                  schemes=["alg1", "bench3"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    _report(9, "identical config and seed give byte-identical CSV",
            code1 == 0 and code2 == 0 and same,
            f"{len(out1.read_bytes())} bytes compared")
