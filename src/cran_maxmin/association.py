"""Iterative link-removal association (with both selection criteria) and the
greedy / nearest-RRH benchmark schemes.

All schemes return a SolveReport whose per-iteration records carry
(gamma1, gamma2, gamma) so trace-level properties (combination rule,
monotonicity, iteration bound) can be asserted after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from cran_maxmin.beamforming import (
    SolverIndeterminate,
    SolverTolerances,
    max_min_value,
    solve_power_min,
    tighten_max_min,
)
from cran_maxmin.model import (
    AssociationMap,
    BeamformerSet,
    ChannelState,
    IterationRecord,
    NetworkConfig,
    SolveReport,
    aggregate_gains,
    association_indicator,
)

_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class LinkChoice:
    """A (user, RRH) pair selected for removal/activation plus its score."""

    user: int
    rrh: int
    score: float


class SolveCache:
    """Memoizes the expensive per-association solves for one channel draw.

    Distinct schemes and fronthaul capacities revisit the same associations
    (a common-capacity sweep leaves the removal path capacity-independent),
    so a sweep shares one cache per trial.  Hits return the exact floats of
    the first computation, which keeps sweeps bit-reproducible.

    The schemes score a candidate association by its value alone, so a
    max-min is split in two: `value` runs the root-finder and keeps gamma1
    with the feasibility probe's beamformers, and the power-min that
    tightens them runs when `max_min` first reads them.  An entry holds
    beamformers, never a cone template.  A value solve that failed is
    remembered under its exact request (association and both hints) and
    raised again without re-solving; the solve is deterministic.
    """

    def __init__(self, ch: ChannelState, power_cap_w, noise_power_w: float,
                 tol: SolverTolerances):
        self.ch = ch
        self.power_cap_w = power_cap_w
        self.noise_power_w = noise_power_w
        self.tol = tol
        self._value = {}  # omega -> (gamma1, probe beamformers at gamma1)
        self._max_min = {}  # omega -> tightened beamformers
        self._power_min = {}
        self._failed = {}  # (omega, upper hint, lower hint) -> (message, stats)

    def value(self, assoc: AssociationMap, gamma_upper_hint=None,
              gamma_lower_hint=None) -> float:
        """The wireless max-min value gamma1 of assoc; no power-min runs.
        The hints start the search as in `max_min_value`; a hit returns the
        first computation whatever hints it was asked with."""
        key = assoc.omega
        if key not in self._value:
            request = (key, gamma_upper_hint, gamma_lower_hint)
            failure = self._failed.get(request)
            if failure is not None:
                # a fresh exception, so a runner's partial_report stays its own
                raise SolverIndeterminate(*failure)
            try:
                self._value[key] = max_min_value(
                    self.ch, assoc, self.power_cap_w, self.noise_power_w,
                    self.tol, gamma_upper_hint=gamma_upper_hint,
                    gamma_lower_hint=gamma_lower_hint)
            except SolverIndeterminate as exc:
                self._failed[request] = (str(exc), exc.stats)
                raise
        return self._value[key][0]

    def max_min(self, assoc: AssociationMap):
        """(gamma1, tightened max-min beamformers), as `solve_max_min`."""
        gamma1 = self.value(assoc)
        key = assoc.omega
        if key not in self._max_min:
            self._max_min[key] = tighten_max_min(
                self.ch, assoc, *self._value[key], self.power_cap_w,
                self.noise_power_w)
        return gamma1, self._max_min[key]

    def power_min(self, assoc: AssociationMap, gamma: float):
        key = (assoc.omega, gamma)
        if key not in self._power_min:
            self._power_min[key] = solve_power_min(
                self.ch, assoc, gamma, self.power_cap_w, self.noise_power_w)
        return self._power_min[key]

    def evaluate(self, assoc: AssociationMap, cfg: NetworkConfig,
                 gamma_upper_hint=None, gamma_lower_hint=None):
        """Value of a fixed association, the combination rule every scheme
        is scored by: gamma = min(gamma1, gamma2) of the wireless max-min
        gamma1 and the fronthaul closed form gamma2.  The beamformers come
        from the binding side: the max-min ones when gamma1 <= gamma2,
        otherwise a power-min at gamma2.  They are not solved here:
        `read()` solves them on its first call, memoized.

        Returns (gamma1, gamma2, gamma, read).
        """
        gamma1 = self.value(assoc, gamma_upper_hint, gamma_lower_hint)
        gamma2 = fronthaul_cap(assoc, cfg.fronthaul_cap_bps, cfg.bandwidth_hz)
        if gamma1 <= gamma2:
            return gamma1, gamma2, gamma1, lambda: self.max_min(assoc)[1]
        return gamma1, gamma2, gamma2, lambda: self.power_min(assoc, gamma2)


def fronthaul_cap(assoc: AssociationMap, fronthaul_cap_bps: Sequence[float],
                  bandwidth_hz: float) -> float:
    """Largest common SINR the fronthaul alone allows:
    min over loaded RRHs of 2^(T_n / (B * |Omega_n|)) - 1.

    Returns +inf when every serving set is empty (constraint vacuous).
    """
    caps = np.asarray(fronthaul_cap_bps, dtype=float)
    best = math.inf
    for n, users in enumerate(assoc.omega):
        if users:
            expo = float(caps[n]) / (bandwidth_hz * len(users))
            term = math.inf if expo >= 1024.0 else 2.0 ** expo - 1.0
            best = min(best, term)
    return float(best)


def bottleneck_rrhs(assoc: AssociationMap, fronthaul_cap_bps: Sequence[float]) -> set:
    """RRHs minimizing T_n / |Omega_n| among those with nonempty serving sets."""
    caps = np.asarray(fronthaul_cap_bps, dtype=float)
    ratios = {n: caps[n] / len(users) for n, users in enumerate(assoc.omega) if users}
    if not ratios:
        raise ValueError("every serving set is empty")
    lo = min(ratios.values())
    thresh = lo + _TIE_REL_TOL * max(abs(lo), 1e-300)
    return {n for n, v in ratios.items() if v <= thresh}


def candidate_links(psi: set, assoc: AssociationMap) -> set:
    """Active links at bottleneck RRHs, except each user's last link."""
    return {(k, n) for n in psi for k in assoc.omega[n]
            if len(assoc.serving_rrhs(k)) > 1}


def _argmax_link(scores: dict) -> LinkChoice:
    best = max(scores.values())
    thresh = best - _TIE_REL_TOL * max(abs(best), 1e-300)
    k, n = min(pair for pair, v in scores.items() if v >= thresh)
    return LinkChoice(k, n, scores[(k, n)])


def select_removal(ch: ChannelState, bf1: BeamformerSet, phi: set,
                   noise_power_w: float) -> LinkChoice:
    """Pick the link whose removal leaves its user the largest incoherent
    per-link signal sum over interference plus noise: argmax over (k, n) in
    phi of
    (sum_{n' != n} |h_kn'^H w_kn'|^2) / (interference at k + sigma^2).
    Each remaining link's power is summed on its own, so this is not user
    k's SINR with w_kn set to zero, whose numerator is the coherent
    |sum_{n' != n} h_kn'^H w_kn'|^2; the two agree only when those terms
    are in phase.
    """
    if not phi:
        raise ValueError("candidate link set is empty")
    A = aggregate_gains(ch, bf1)
    interf = (np.abs(A) ** 2).sum(axis=1) - np.abs(A.diagonal()) ** 2
    own = np.abs(np.einsum("knm,knm->kn", ch.h.conj(), bf1.w)) ** 2  # per-link signal
    own_total = own.sum(axis=1)
    scores = {(k, n): (own_total[k] - own[k, n]) / (interf[k] + noise_power_w)
              for (k, n) in phi}
    return _argmax_link(scores)


def benchmark1_select(ch: ChannelState, bf1: BeamformerSet, phi: set) -> LinkChoice:
    """Pick the link generating the most interference at the other users:
    argmax over (k, n) in phi of sum_{j != k} |h_jn^H w_kn|^2.
    """
    if not phi:
        raise ValueError("candidate link set is empty")
    # U[j, k, n] = h_jn^H w_kn
    U = np.abs(np.einsum("jnm,knm->jkn", ch.h.conj(), bf1.w)) ** 2
    totals = U.sum(axis=0)  # over j, shape (K, N)
    scores = {(k, n): totals[k, n] - U[k, k, n] for (k, n) in phi}
    return _argmax_link(scores)


# ---------------------------------------------------------------------------
# scheme runners
# ---------------------------------------------------------------------------

def _finish(report: SolveReport, gamma: float, read, cfg: NetworkConfig) -> SolveReport:
    """A scheme run's answer: gamma now; read()'s beamformers and their
    association when `SolveReport` is first asked for them."""
    def final():
        bf = read()
        return bf, AssociationMap.from_indicator(association_indicator(bf, cfg.power_cap_w))

    report.final_gamma, report._read = gamma, final
    return report


def run_algorithm1(ch: ChannelState, cfg: NetworkConfig,
                   tol: SolverTolerances = SolverTolerances(),
                   selector: str = "residual",
                   cache: Optional[SolveCache] = None) -> SolveReport:
    """Iterative link removal: start from full association, prune one link at
    the fronthaul bottleneck per iteration until the wireless optimum fits
    the fronthaul, then keep the better of the last two iterates.

    selector "residual" removes the link whose user keeps the largest
    incoherent sum of its other links' signal powers over its interference
    plus noise (`select_removal`; the proposed criterion); "leakage" drops
    the link generating the most interference instead (benchmark scheme 1).
    """
    if selector not in ("residual", "leakage"):
        raise ValueError("selector must be 'residual' or 'leakage'")
    label = "alg1" if selector == "residual" else "bench1"
    if cache is None:
        cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    report = SolveReport(scheme_label=label)
    assoc = AssociationMap.full(cfg.n_rrh, cfg.n_users)
    best_gamma, best_read = -math.inf, None
    hint = None

    try:
        for t in range(1, cfg.n_rrh * cfg.n_users + 2):
            gamma1, gamma2, gamma_t, read_t = cache.evaluate(assoc, cfg, hint)
            # removing links never improves the wireless optimum, so the
            # previous value (with tolerance headroom) bounds this one
            hint = gamma1 * tol.hint_headroom
            rec = IterationRecord(t, gamma1, gamma2, gamma_t, None, None,
                                  assoc.sizes())
            report.iterations.append(rec)
            if gamma_t >= best_gamma:
                best_gamma, best_read = gamma_t, read_t

            if gamma1 <= gamma2:
                break
            psi = bottleneck_rrhs(assoc, cfg.fronthaul_cap_bps)
            phi = candidate_links(psi, assoc)
            if not phi:
                break
            # the value is a hit; the tightening power-min runs on first read
            _, bf1 = cache.max_min(assoc)
            if selector == "residual":
                choice = select_removal(ch, bf1, phi, cfg.noise_power_w)
            else:
                choice = benchmark1_select(ch, bf1, phi)
            rec.removed_user, rec.removed_rrh = choice.user, choice.rrh
            assoc = assoc.remove_link(choice.user, choice.rrh)
        # the first iteration always sets best_read
        return _finish(report, max(best_gamma, 0.0), best_read, cfg)
    except SolverIndeterminate as exc:
        exc.partial_report = report
        raise


def nearest_rrh_association(ch: ChannelState, topology=None) -> AssociationMap:
    """Each user on its nearest RRH: geometric distance when a topology is
    given, otherwise the largest channel norm as proxy."""
    if topology is not None:
        metric = -topology.distances()  # (K, N), larger is better
    else:
        metric = np.linalg.norm(ch.h, axis=2) ** 2
    omega = [set() for _ in range(ch.n_rrh)]
    for k in range(ch.n_users):
        omega[int(np.argmax(metric[k]))].add(k)
    return AssociationMap(tuple(frozenset(s) for s in omega))


def _activation_path(ch: ChannelState, cfg: NetworkConfig, topology=None) -> list:
    """bench2's associations in order, each with the link that made it (None
    for the first): each user on its nearest RRH, then one strongest
    inactive link per step until every link is active.  No solve is needed."""
    assoc = nearest_rrh_association(ch, topology)
    norms = np.linalg.norm(ch.h, axis=2) ** 2
    inactive = {(k, n): norms[k, n] for k in range(cfg.n_users) for n in range(cfg.n_rrh)
                if k not in assoc.omega[n]}
    path = [(assoc, None)]
    while inactive:
        link = _argmax_link(inactive)
        del inactive[(link.user, link.rrh)]
        omega = list(assoc.omega)
        omega[link.rrh] = omega[link.rrh] | {link.user}
        assoc = AssociationMap(tuple(omega))
        path.append((assoc, link))
    return path


def run_benchmark2(ch: ChannelState, cfg: NetworkConfig,
                   tol: SolverTolerances = SolverTolerances(),
                   topology=None,
                   cache: Optional[SolveCache] = None) -> SolveReport:
    """Channel-based greedy activation: start from nearest-RRH association,
    activate the strongest inactive link per step (`_activation_path`), stop
    at the first drop of the max-min SINR and report the pre-drop iterate.
    A dip of at most 2 bisection_rel_tol, the noise between two separate
    solves, is not a drop.

    The first drop is found by bisection, not by walking the path.  Each
    step adds a link, so gamma1 does not fall (beyond the tolerance), and
    step i drops only if gamma2[i] < (1 - 2 tol) gamma[i - 1]: only a fall
    of gamma2 by more than 2 tol can, and over those falls the test is false
    and then true.  A test solves step i - 1 alone; the start is solved
    first, with no hints, and every later search starts from the nearest
    solved gamma1 before it and is bounded by the nearest one after it.
    When a solve stalls past the next untested fall, the falls before it are
    tested in order, so a run fails only at a step the walk would solve
    too.  A skipped step is recorded with gamma1 and gamma None, the stop
    step with gamma1 None and gamma2 as its gamma.  A gamma1 dip of more
    than 2 tol, which the walk would take for a drop, is not looked for.
    """
    report = SolveReport(scheme_label="bench2")
    if cache is None:
        cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    path = _activation_path(ch, cfg, topology)
    gamma2 = [fronthaul_cap(assoc, cfg.fronthaul_cap_bps, cfg.bandwidth_hz)
              for assoc, _ in path]
    solved = {}  # step index -> (gamma1, gamma, read)
    keep = 1.0 - 2.0 * tol.bisection_rel_tol

    def records(n):
        out = []
        for i, (assoc, link) in enumerate(path[:n]):
            gamma1, gamma = solved.get(i, (None, None))[:2]
            out.append(IterationRecord(i + 1, gamma1, gamma2[i], gamma,
                                       link.user if link else None,
                                       link.rrh if link else None, assoc.sizes()))
        return out

    def solve(i):
        if i not in solved:
            lower = max((j for j in solved if j < i), default=None)
            upper = min((j for j in solved if j > i), default=None)
            try:
                gamma1, _, gamma, read = cache.evaluate(
                    path[i][0], cfg,
                    None if upper is None else solved[upper][0] * tol.hint_headroom,
                    None if lower is None else solved[lower][0])
            except SolverIndeterminate as exc:
                report.iterations = records(i)
                exc.partial_report = report
                raise
            solved[i] = (gamma1, gamma, read)
        return solved[i]

    solve(0)
    falls = [i for i in range(1, len(path)) if gamma2[i] < keep * gamma2[i - 1]]
    scan_to = -1  # falls up to falls[scan_to] are tested in order, after a stall
    lo, hi = -1, len(falls)  # the test is false at falls[lo], true at falls[hi]
    while hi - lo > 1:
        mid = lo + 1 if lo + 1 <= scan_to else (lo + hi) // 2
        try:
            dropped = gamma2[falls[mid]] < keep * solve(falls[mid] - 1)[1]
        except SolverIndeterminate:
            if mid == lo + 1:
                raise
            # the walk solves this step only if no fall before it drops:
            # test those in order, so a stall comes from a step it solves
            scan_to = mid
            continue
        lo, hi = (lo, mid) if dropped else (mid, hi)
    stop = falls[hi] if hi < len(falls) else None
    if stop is not None:  # its test solved stop - 1; gamma2 binds where it drops
        solved[stop] = (None, gamma2[stop], None)
    _, gamma, read = solve(len(path) - 1 if stop is None else stop - 1)
    report.iterations = records(len(path) if stop is None else stop + 1)
    return _finish(report, gamma, read, cfg)


def run_benchmark3(ch: ChannelState, cfg: NetworkConfig,
                   tol: SolverTolerances = SolverTolerances(),
                   topology=None,
                   cache: Optional[SolveCache] = None) -> SolveReport:
    """Conventional cellular: fixed nearest-RRH association, one evaluation."""
    report = SolveReport(scheme_label="bench3")
    if cache is None:
        cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    assoc = nearest_rrh_association(ch, topology)
    try:
        gamma1, gamma2, gamma_t, read_t = cache.evaluate(assoc, cfg)
        report.iterations.append(IterationRecord(1, gamma1, gamma2, gamma_t,
                                                 None, None, assoc.sizes()))
        return _finish(report, gamma_t, read_t, cfg)
    except SolverIndeterminate as exc:
        exc.partial_report = report
        raise
