"""Shows that no check in checks.py passes by default: each one accepts a
valid output of the program and rejects a deliberately corrupted copy.

Runs inside every benchmark run (after the timed part), and on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys


def _case(failures: list, label: str, got: list, expect: str | None) -> None:
    """expect None: the output is valid and must pass; otherwise the check
    must fail and name `expect` in one of its reasons."""
    if expect is None and got:
        failures.append(f"selftest {label}: valid output rejected: {got}")
    elif expect is not None and not any(expect in g for g in got):
        failures.append(f"selftest {label}: corruption not caught (got {got})")


def run() -> list[str]:
    import numpy as np

    import checks
    from cran_maxmin.association import fronthaul_cap, nearest_rrh_association
    from cran_maxmin.harness import ExperimentConfig, draw_trial
    from cran_maxmin.model import AssociationMap, BeamformerSet, per_rrh_power
    from cran_maxmin.oracle import solve_fixed_association

    failures: list[str] = []
    # a fixed 2 RRH x 3 user x 2 antenna draw whose nearest-RRH association
    # (2 users and 1) is fronthaul-bound at 2 Mb/s
    cfg = ExperimentConfig(n_rrh=2, n_users=3, n_antennas=2, seed=3, trials=1)
    _, ch = draw_trial(cfg, 0)
    net = cfg.network_config(2e6)
    assoc = nearest_rrh_association(ch)
    gamma, bf = solve_fixed_association(ch, assoc, net, cfg.tolerances())
    if gamma != fronthaul_cap(assoc, net.fronthaul_cap_bps, net.bandwidth_hz):
        failures.append("selftest: fixture is not fronthaul-bound")

    _case(failures, "certificate", checks.certify(ch, net, gamma, bf, assoc), None)
    _case(failures, "gamma +1%", checks.certify(ch, net, 1.01 * gamma, bf, assoc), "sinr")
    worst = np.max(per_rrh_power(bf) / np.asarray(net.power_cap_w))
    hot = BeamformerSet(bf.w * np.sqrt(1.01 / worst))
    _case(failures, "power past cap", checks.certify(ch, net, gamma, hot, assoc), "power")
    full = AssociationMap.full(net.n_rrh, net.n_users)
    _case(failures, "links added", checks.certify(ch, net, gamma, bf, full), "fronthaul")

    _case(failures, "bytes", checks.same_bytes("rows", b"1.0\n", b"1.0\n"), None)
    _case(failures, "bytes flipped",
          checks.same_bytes("rows", repr(gamma).encode(),
                            repr(float(np.nextafter(gamma, 1.0))).encode()), "differ")
    _case(failures, "monotone", checks.nondecreasing("bench3", [1.0, 1.0, 2.0]), None)
    _case(failures, "monotone swapped",
          checks.nondecreasing("bench3", [1.0, 2.0, 1.0]), "decreases")

    rows = [{"trial": 2, "scheme": "bench3", "status": "indeterminate"},
            {"trial": 0, "scheme": "alg1", "status": "ok"}]
    named = {(2, "bench3")}
    _case(failures, "named failures", checks.only_named_failures(rows, named), None)
    extra = rows + [{"trial": 1, "scheme": "alg1", "status": "indeterminate"}]
    _case(failures, "unnamed failure", checks.only_named_failures(extra, named),
          "unexpected")

    _case(failures, "verdicts",
          checks.verdicts_monotone("probe", ["feasible", "infeasible"]), None)
    _case(failures, "verdicts reordered",
          checks.verdicts_monotone("probe", ["infeasible", "feasible"]), "feasible above")
    floor = checks.zero_forcing_floor(ch, net.power_cap_w, net.noise_power_w)
    if not floor > 0:
        failures.append("selftest: zero-forcing floor is not positive")
    _case(failures, "floor", checks.infeasible_above_floor(
        "probe", 2.0 * floor, "infeasible", floor), None)
    _case(failures, "infeasible below floor", checks.infeasible_above_floor(
        "probe", 0.5 * floor, "infeasible", floor), "zero-forcing")

    _case(failures, "dominance", checks.dominates("oracle", gamma, gamma), None)
    _case(failures, "dominance broken",
          checks.dominates("oracle", gamma * (1 - 3 * checks.EPS), gamma), "below")
    _case(failures, "close", checks.close("gamma", gamma, gamma * (1 + checks.EPS)), None)
    _case(failures, "not close", checks.close("gamma", gamma, 1.01 * gamma), "differ")
    return failures


if __name__ == "__main__":
    import run as bench  # sets the thread limits and the import path

    bench.load_program()
    problems = run()
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)
