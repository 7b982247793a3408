"""Correctness checks on the program's outputs.

Every check returns a list of failure strings (empty when it passes).  The
checks recompute what they judge with the evaluators in `cran_maxmin.model`
or test a property the method guarantees; none compares against a stored
copy of earlier output.  `selftest.py` feeds each one a corrupted output to
show that it rejects it.

EPS is the solver's bisection tolerance: every gamma the program returns is
the feasible end of a bracket no wider than EPS relative, so a certificate
may lose that much.  Two values that come from separate bisections may each
sit EPS below the optimum, so comparisons between them allow 2 * EPS.
"""

from __future__ import annotations

import numpy as np

from cran_maxmin.beamforming import SolverTolerances
from cran_maxmin.model import (
    AssociationMap,
    BeamformerSet,
    achievable_rate,
    association_indicator,
    compute_all_sinrs,
    fronthaul_load,
    per_rrh_power,
)

EPS = SolverTolerances().bisection_rel_tol


def certify(ch, netcfg, gamma: float, bf: BeamformerSet, assoc: AssociationMap,
            eps: float = EPS, fronthaul: bool = True) -> list[str]:
    """SINR >= gamma(1-eps) at every user, per-RRH power <= cap(1+eps), and
    the fronthaul load of rate(gamma) per served link <= T(1+eps).  The load
    counts every link the association names or the beamformers use."""
    out = []
    sinr = compute_all_sinrs(ch, bf, netcfg.noise_power_w)
    if (sinr < gamma * (1.0 - eps)).any():
        out.append(f"sinr: min {sinr.min():.9g} below gamma {gamma:.9g}")
    caps = np.asarray(netcfg.power_cap_w)
    power = per_rrh_power(bf)
    if (power > caps * (1.0 + eps)).any():
        out.append(f"power: {power.tolist()} above caps {caps.tolist()}")
    if fronthaul:
        used = association_indicator(bf, netcfg.power_cap_w) | assoc.indicator(ch.n_users)
        links = AssociationMap.from_indicator(used)
        rate = achievable_rate(gamma, netcfg.bandwidth_hz)
        load = fronthaul_load(links, [rate] * ch.n_users)
        limit = np.asarray(netcfg.fronthaul_cap_bps)
        if (load > limit * (1.0 + eps)).any():
            out.append(f"fronthaul: load {load.tolist()} above {limit.tolist()}")
    return out


def same_bytes(label: str, reference: bytes, other: bytes) -> list[str]:
    return [] if reference == other else [f"{label}: output bytes differ"]


def nondecreasing(label: str, values) -> list[str]:
    values = list(values)
    if any(b < a for a, b in zip(values, values[1:])):
        return [f"{label}: decreases along {values}"]
    return []


def only_named_failures(rows, named: set) -> list[str]:
    """Rows that failed must be among the named (trial, scheme) pairs."""
    bad = sorted({(r["trial"], r["scheme"]) for r in rows
                  if r["status"] != "ok"} - named)
    return [f"unexpected failed rows: {bad}"] if bad else []


def verdicts_monotone(label: str, verdicts) -> list[str]:
    """Verdicts ordered by increasing gamma: once infeasible, never feasible."""
    seen_infeasible = False
    for v in verdicts:
        if v == "feasible" and seen_infeasible:
            return [f"{label}: feasible above an infeasible target {list(verdicts)}"]
        seen_infeasible |= v == "infeasible"
    return []


def zero_forcing_floor(ch, power_cap_w, noise_power_w: float) -> float:
    """Common SINR of zero-forcing beamformers scaled to the tightest power
    cap, as the model evaluates it; every target below it is feasible on the
    full association.  0.0 when zero forcing is not possible (K > N*M)."""
    K, N, M = ch.h.shape
    if K > N * M:
        return 0.0
    H = ch.h.conj().reshape(K, N * M)
    W = np.linalg.pinv(H)  # (N*M, K), H @ W = I
    w = np.ascontiguousarray(W.T).reshape(K, N, M)
    scale = np.sqrt(np.min(np.asarray(power_cap_w) / per_rrh_power(BeamformerSet(w))))
    bf = BeamformerSet(w * scale)
    if (per_rrh_power(bf) > np.asarray(power_cap_w) * (1.0 + EPS)).any():
        return 0.0
    return float(compute_all_sinrs(ch, bf, noise_power_w).min())


def infeasible_above_floor(label: str, gamma: float, verdict: str,
                           floor: float) -> list[str]:
    if verdict == "infeasible" and gamma <= floor * (1.0 - EPS):
        return [f"{label}: infeasible at {gamma:.6g}, below the zero-forcing "
                f"floor {floor:.6g}"]
    return []


def dominates(label: str, best: float, other: float) -> list[str]:
    """An exhaustive optimum is at least any scheme's value."""
    if best < other * (1.0 - 2 * EPS):
        return [f"{label}: optimum {best:.9g} below a scheme's {other:.9g}"]
    return []


def close(label: str, a: float, b: float) -> list[str]:
    if abs(a - b) > 2 * EPS * max(abs(a), abs(b)):
        return [f"{label}: {a:.9g} and {b:.9g} differ"]
    return []
