"""Exact optimum on tiny instances: a best-first search over associations.

Every user-RRH association (of the 2^(N*K)) that serves every user is a
candidate, scored with the min(wireless, fronthaul) combination rule of
`SolveCache.evaluate`.  Three upper bounds that need no solve order the
candidates and prune them:

- the search's starting point: every max-min starts from the full
  association's value times `SolverTolerances.hint_headroom`, so none
  returns more;
- the fronthaul closed form gamma2, which caps gamma exactly;
- the per-user interference-free SNR (`per_user_gamma_upper_bound`), with
  the same headroom for the root-finder's tolerance.

Candidates are solved in descending order of their bound, and the search
stops at the first one whose bound is below the best value found.  Every
solve gets the same upper hint, so each value solved equals the one a full
enumeration would compute, and the search returns the enumeration's answer
bit for bit.  The search reads values only, so it runs no power-min solve;
`solve_fixed_association` solves the beamformers of the one association it
is asked about.
"""

from __future__ import annotations

from typing import Tuple

from cran_maxmin.association import SolveCache, fronthaul_cap
from cran_maxmin.beamforming import SolverTolerances, per_user_gamma_upper_bound
from cran_maxmin.model import AssociationMap, BeamformerSet, ChannelState, NetworkConfig

MAX_ORACLE_LINKS = 12


def solve_fixed_association(ch: ChannelState, assoc: AssociationMap,
                            cfg: NetworkConfig,
                            tol: SolverTolerances = SolverTolerances()
                            ) -> Tuple[float, BeamformerSet]:
    """Optimal common SINR of one fixed association: the smaller of the
    wireless max-min value and the fronthaul closed form, with beamformers
    from the binding side."""
    cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    _, _, gamma, read = cache.evaluate(assoc, cfg)
    return gamma, read()


def _mask_to_association(mask: int, n_users: int, n_rrh: int) -> AssociationMap:
    # bit i of the mask is the row-major pair (k, n) = (i // N, i % N)
    omega = [set() for _ in range(n_rrh)]
    for i in range(n_users * n_rrh):
        if mask >> i & 1:
            omega[i % n_rrh].add(i // n_rrh)
    return AssociationMap(tuple(frozenset(s) for s in omega))


def exhaustive_best(ch: ChannelState, cfg: NetworkConfig,
                    tol: SolverTolerances = SolverTolerances()
                    ) -> Tuple[float, AssociationMap]:
    """Best association that serves every user, over all 2^(N*K) of them,
    by best-first search.

    Ties keep the first maximizer in row-major mask order, as a full
    enumeration would.  Refuses instances with more than MAX_ORACLE_LINKS
    links.
    """
    links = cfg.n_rrh * cfg.n_users
    if links > MAX_ORACLE_LINKS:
        raise ValueError(
            f"oracle refuses N*K = {links} > {MAX_ORACLE_LINKS} links")
    cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    # the full association bounds every subset's wireless optimum
    full_gamma = cache.value(AssociationMap.full(cfg.n_rrh, cfg.n_users))
    hint = full_gamma * tol.hint_headroom
    candidates = []
    for mask in range(1 << links):
        assoc = _mask_to_association(mask, cfg.n_users, cfg.n_rrh)
        if assoc.unserved_users(cfg.n_users):
            continue
        bound = min(hint,
                    fronthaul_cap(assoc, cfg.fronthaul_cap_bps, cfg.bandwidth_hz),
                    tol.hint_headroom * per_user_gamma_upper_bound(
                        ch, assoc, cfg.power_cap_w, cfg.noise_power_w))
        candidates.append((bound, mask, assoc))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    best_gamma, best_mask, best_assoc = -1.0, -1, None
    for bound, mask, assoc in candidates:
        if bound < best_gamma:
            break  # no later candidate can reach the best value
        _, _, gamma, _ = cache.evaluate(assoc, cfg, hint)
        # tied values mostly share their bound and so arrive in mask order;
        # the mask test keeps the enumeration's choice when they do not
        if gamma > best_gamma or (gamma == best_gamma and mask < best_mask):
            best_gamma, best_mask, best_assoc = gamma, mask, assoc
    return best_gamma, best_assoc
