"""Brute-force ground truth on tiny instances.

Enumerates every user-RRH association (2^(N*K) of them), scores each fixed
association with the min(wireless, fronthaul) combination rule of
`SolveCache.evaluate`, and keeps the best.  Deliberately transparent: no
pruning beyond skipping maps that leave a user unserved.  The search reads
values only, so it runs no power-min solve; `solve_fixed_association`
solves the beamformers of the one association it is asked about.
"""

from __future__ import annotations

from typing import Tuple

from cran_maxmin.association import SolveCache
from cran_maxmin.beamforming import SolverTolerances
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
                    tol: SolverTolerances = SolverTolerances(),
                    require_all_served: bool = True
                    ) -> Tuple[float, AssociationMap]:
    """Best association over the full 2^(N*K) enumeration.

    Ties keep the first maximizer in row-major mask order.  Refuses
    instances with more than MAX_ORACLE_LINKS links.
    """
    links = cfg.n_rrh * cfg.n_users
    if links > MAX_ORACLE_LINKS:
        raise ValueError(
            f"oracle refuses N*K = {links} > {MAX_ORACLE_LINKS} links")
    cache = SolveCache(ch, cfg.power_cap_w, cfg.noise_power_w, tol)
    # the full association bounds every subset's wireless optimum
    full_gamma = cache.value(AssociationMap.full(cfg.n_rrh, cfg.n_users))
    hint = full_gamma * (1.0 + 10.0 * tol.bisection_rel_tol)
    best_gamma, best_assoc = -1.0, None
    for mask in range(1 << links):
        assoc = _mask_to_association(mask, cfg.n_users, cfg.n_rrh)
        if require_all_served and assoc.unserved_users(cfg.n_users):
            continue
        _, _, gamma, _ = cache.evaluate(assoc, cfg, hint)
        if gamma > best_gamma:
            best_gamma, best_assoc = gamma, assoc
    return best_gamma, best_assoc
