"""SINR-target feasibility, max-min SINR search, and power minimization.

The feasibility question "do beamformers exist meeting SINR target gamma at
every user, under per-RRH power caps and a fixed user association" is posed
as a second-order cone program over the real embedding of the complex
beamformers (each complex M-vector becomes 2M reals).  Zero-forced links
(user not in the RRH's serving set) are eliminated from the variable vector,
not constrained to zero.

Feasibility is decided through a margin reformulation: maximize the common
slack s subject to every cone constraint holding with margin s; the query is
feasible iff the optimal margin clears -cone_feas_tol.  This always leaves a
strictly feasible, bounded program, so the interior-point engine never has
to certify infeasibility on a knife edge.  The max-min search takes
Newton steps on the margin's value, not just its sign, with the slope that
each probe's optimal dual gives for free.  Its value and the power-min
that tightens its beamformers are separate steps, so a caller that needs
only the value pays for no power-min.

Channels are normalized by the noise amplitude before building the cones
(SINRs are invariant under h -> h/sigma, sigma -> 1), which keeps every
coefficient within a few orders of magnitude of unity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from cran_maxmin.model import AssociationMap, BeamformerSet, ChannelState
from cran_maxmin.socp import ConeSpec, CooMatrix, NewtonLayout, solve_socp

_log = logging.getLogger(__name__)

# A probe starts from the last optimal probe of its problem when its target
# is within this relative distance of that probe's; farther away, the old
# optimum is a worse start than the standard one.
_WARM_GATE = 0.2

# A max-min search makes at most this many feasibility probes.
_MAX_PROBES = 60


class SolverIndeterminate(RuntimeError):
    """The cone solver stalled before reaching any certificate."""

    partial_report = None  # a scheme runner's trace so far, set as it re-raises

    def __init__(self, message: str, stats: "SolverStats | None" = None):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class SolverTolerances:
    """The solver's accuracy; the defaults are the program's.

    bisection_rel_tol: a max-min search stops once its bracket [lo feasible,
    hi infeasible] has hi - lo <= bisection_rel_tol * lo.  cone_feas_tol: a
    probe is feasible iff its optimal margin is at least -cone_feas_tol."""

    bisection_rel_tol: float = 1e-4
    cone_feas_tol: float = 1e-7

    def __post_init__(self):
        for name in ("bisection_rel_tol", "cone_feas_tol"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name}: must be > 0")

    @property
    def hint_headroom(self) -> float:
        """Factor that turns a max-min value into an upper hint for a search
        whose optimum it bounds.  A value may sit up to bisection_rel_tol
        below its optimum, and two separate solves of one optimum differ by
        up to 2 bisection_rel_tol; 10 times the tolerance clears both."""
        return 1.0 + 10.0 * self.bisection_rel_tol


@dataclass
class SolverStats:
    """One cone solve.  margin is a probe's optimal margin; slope, for a
    probe solved to optimality, is its derivative in t = sqrt(gamma), read
    off the optimal (s, z) by the envelope theorem, and None otherwise."""

    status: str
    iterations: int
    margin: Optional[float]
    pres: float
    dres: float
    slope: Optional[float] = None


@dataclass
class FeasibilityOutcome:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    beamformers: Optional[BeamformerSet]
    solver_stats: SolverStats


def mrt_gamma_upper_bound(ch: ChannelState, power_cap_w, noise_power_w: float) -> float:
    """Interference-free upper bound max_k (sum_n sqrt(P_n)*||h_kn||)^2 / sigma^2."""
    caps = np.sqrt(np.asarray(power_cap_w, dtype=float))
    norms = np.linalg.norm(ch.h, axis=2)  # (K, N)
    return float(np.max((norms @ caps) ** 2) / noise_power_w)


def per_user_gamma_upper_bound(ch: ChannelState, assoc: AssociationMap, power_cap_w,
                               noise_power_w: float) -> float:
    """Interference-free upper bound of one association's common SINR:
    min_k (sum_{n in S_k} sqrt(P_n)*||h_kn||)^2 / sigma^2, with S_k user k's
    serving RRHs; 0 when a user is unserved."""
    caps = np.sqrt(np.asarray(power_cap_w, dtype=float))
    norms = np.linalg.norm(ch.h, axis=2) * assoc.indicator(ch.n_users)  # (K, N)
    return float(np.min((norms @ caps) ** 2) / noise_power_w)


class _Template(NamedTuple):
    """One cone program at gamma = 1.  G's entries flagged in scaled (those
    on the interference rows, tail_rows) and h's noise_rows scale with
    sqrt(gamma).  layout is the Newton-system structure of G's pattern,
    which every instance shares."""

    G: CooMatrix
    scaled: np.ndarray
    h: np.ndarray
    tail_rows: np.ndarray
    noise_rows: np.ndarray
    spec: ConeSpec
    layout: NewtonLayout


class _BeamProblem:
    """Cone-program templates for one (channels, association, caps) triple.

    The interference rows scale with sqrt(gamma), everything else is fixed,
    so a max-min search reuses one template across all its probes.  A
    template's G is built straight into sorted COO form (`CooMatrix`),
    vectorized over the links, and each probe scales only its flagged
    entries: no dense G is formed, copied or scanned.  Each public
    operation builds a problem first, which checks its inputs and decides
    its trivial targets (`_trivial`).
    """

    def __init__(self, ch: ChannelState, assoc: AssociationMap, power_cap_w,
                 noise_power_w: float):
        caps = np.asarray(power_cap_w, dtype=float)
        if assoc.n_rrh != ch.n_rrh:
            raise ValueError(f"association has {assoc.n_rrh} RRHs, channels have {ch.n_rrh}")
        assoc.validate(ch.n_users)
        if caps.shape != (ch.n_rrh,):
            raise ValueError(f"power_cap_w must have length {ch.n_rrh}")
        if (caps <= 0).any():
            raise ValueError("power caps must be positive")
        self.K, self.N, self.M = ch.h.shape
        self.ch = ch
        self.hs = ch.h / math.sqrt(noise_power_w)
        self.caps = caps
        self.unserved = bool(assoc.unserved_users(self.K))
        # the links (user pk[p], RRH pn[p]), row-major; link p owns columns
        # 1 + 2M p .. 2M (p + 1): its beamformer's real, then imaginary parts
        self.pk, self.pn = np.nonzero(assoc.indicator(self.K))
        self.nx = 1 + 2 * self.M * len(self.pk)
        self._margin = None  # templates are built on demand
        self._power = None
        self._warm = None  # (gamma, (x, s, z)) of the last optimal probe

    # -- template construction --------------------------------------------
    def _build(self, margin: bool) -> _Template:
        """The margin (or power) program at gamma = 1; one lexsort orders its COO entries."""
        K, N, nx = self.K, self.N, self.nx
        pk, pn = self.pk, self.pn
        width = 2 * self.M
        span = np.arange(width)
        pcol = 1 + width * np.arange(len(pk))[:, None] + span  # (P, 2M)
        linked = np.zeros((K, N), dtype=np.intp)
        linked[pk, pn] = 1
        parts = []  # (rows, cols, vals) of each block of entries

        def add(rows, cols, vals):
            parts.append([a.ravel() for a in np.broadcast_arrays(rows, cols, vals)])

        # SINR cones, one per user k: its head row 2Kk (own signal, plus the
        # margin), two interference rows per other user j, 2Kk + 1 + 2 * (j's
        # rank among the users other than k) and + 1, and the noise row
        slot = np.array([[0 if j == k else 1 + 2 * (j - (j > k)) for j in range(K)]
                         for k in range(K)], dtype=np.intp)[:, pk]  # (K, P)
        users = np.arange(K)[:, None]
        row = 2 * K * users + slot
        hv = self.hs[:, pn]  # (K, P, M): user k's channel from pair p's RRH
        add(row[:, :, None], pcol, np.concatenate((-hv.real, -hv.imag), axis=2))
        cross = np.nonzero(slot)
        add(row[cross][:, None] + 1, pcol[cross[1]],
            np.concatenate((hv.imag, -hv.real), axis=2)[cross])

        # power cones, one per serving RRH: head sqrt(cap) plus the margin,
        # -I on its links; pair (k, n) is the pos-th link of RRH n, by user
        served = linked.sum(axis=0)
        active = np.flatnonzero(served)  # a power cone per serving RRH
        size = width * served
        size[active] += 1
        start = 2 * K * K + np.cumsum(size) - size
        pos = (np.cumsum(linked, axis=0) - 1)[pk, pn]
        add((start[pn] + 1 + width * pos)[:, None] + span, pcol, -1.0)
        dims = [2 * K] * K + size[active].tolist()
        nrows = 2 * K * K + int(size.sum())

        if margin:
            add(np.concatenate((2 * K * np.arange(K), start[active])), 0, 1.0)
        else:
            diag = np.arange(nx)  # total-power cone: (head, 0) and -I below it
            add(nrows + diag, diag, -1.0)
            dims.append(nx)
            nrows += nx

        rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
        order = np.lexsort((cols, rows))
        order = order[vals[order] != 0.0]
        row = rows[order]
        h = np.zeros(nrows)
        noise_rows = 2 * K * np.arange(K) + 2 * K - 1
        h[noise_rows] = 1.0  # scaled noise amplitude; times sqrt(gamma) per probe
        h[start[active]] = np.sqrt(self.caps[active])
        tail_rows = (2 * K * users + np.arange(1, 2 * K - 1)).ravel()
        on_tail = np.zeros(nrows, dtype=bool)
        on_tail[tail_rows] = True
        G, spec = CooMatrix(row, cols[order], vals[order], (nrows, nx)), ConeSpec(dims)
        return _Template(G, on_tail[row], h, tail_rows, noise_rows, spec,
                         NewtonLayout(G, spec))

    def _instantiate(self, template: _Template, gamma: float):
        """(G, h, spec) at SINR target gamma: the interference entries and the
        noise amplitude times sqrt(gamma).  G keeps the template's own row
        and col arrays, so an entry that becomes 0 stays an explicit zero."""
        G, sq = template.G, math.sqrt(gamma)
        val = G.val.copy()
        val[template.scaled] *= sq
        h = template.h.copy()
        h[template.noise_rows] *= sq
        return G._replace(val=val), h, template.spec

    def _solve(self, template: _Template, gamma: float, c: np.ndarray, start=None):
        """solve_socp on the template at gamma, with the template's Newton layout."""
        G, h, spec = self._instantiate(template, gamma)
        return solve_socp(c, G, h, spec, template.layout, start=start)

    def zeros(self) -> BeamformerSet:
        return BeamformerSet.zeros(self.K, self.N, self.M)

    def unpack(self, x: np.ndarray) -> BeamformerSet:
        w = np.zeros((self.K, self.N, self.M), dtype=np.complex128)
        seg = x[1:].reshape(-1, 2, self.M)  # per link: real, imaginary parts
        w[self.pk, self.pn] = seg[:, 0] + 1j * seg[:, 1]
        # rotate each user's stack so the aggregate gain is real nonnegative
        sig = np.einsum("knm,knm->k", self.ch.h.conj(), w)
        for k in range(self.K):
            mag = abs(sig[k])
            if mag > 0.0:
                w[k] *= sig[k].conjugate() / mag
        return BeamformerSet(w)

    # -- solves -------------------------------------------------------------
    def _trivial(self, gamma: float) -> Optional[FeasibilityOutcome]:
        """The verdict at SINR target gamma when it takes no cone solve, else
        None: zero beamformers meet gamma = 0, and a positive target with an
        unserved user is infeasible.  gamma < 0 is refused."""
        if gamma < 0:
            raise ValueError("gamma_target must be nonnegative")
        if gamma == 0.0:
            return FeasibilityOutcome("feasible", self.zeros(),
                                      SolverStats("optimal", 0, 0.0, 0.0, 0.0))
        if self.unserved:
            return FeasibilityOutcome("infeasible", None,
                                      SolverStats("optimal", 0, -math.inf, 0.0, 0.0))
        return None

    def probe(self, gamma: float, tol: SolverTolerances) -> FeasibilityOutcome:
        """Feasibility verdict at SINR target gamma: `_trivial`'s, else from
        the optimal margin (feasible iff it clears -cone_feas_tol), else
        indeterminate.  The solve starts from the last optimal probe's
        solution when gamma is within _WARM_GATE of its target, else cold."""
        trivial = self._trivial(gamma)
        if trivial is not None:
            return trivial
        if self._margin is None:
            self._margin = self._build(margin=True)
        c = np.zeros(self.nx)
        c[0] = -1.0
        start = None
        if self._warm is not None and abs(gamma / self._warm[0] - 1.0) <= _WARM_GATE:
            start = self._warm[1]
        res = self._solve(self._margin, gamma, c, start)
        if res.status == "optimal":
            self._warm = (gamma, (res.x, res.s, res.z))
        margin = -res.obj if res.obj is not None else None
        stats = SolverStats(res.status, res.iterations, margin, res.pres, res.dres)
        if res.status != "optimal":
            return FeasibilityOutcome("indeterminate", None, stats)
        # d(margin)/dt = z'(dh/dt - dG/dt x) by the envelope theorem; G x = -s on tails
        tail, noise = self._margin.tail_rows, self._margin.noise_rows
        stats.slope = float(res.z[noise].sum() + res.z[tail] @ res.s[tail] / math.sqrt(gamma))
        if margin >= -tol.cone_feas_tol:
            return FeasibilityOutcome("feasible", self.unpack(res.x), stats)
        return FeasibilityOutcome("infeasible", None, stats)

    def solve_power_min(self, gamma: float):
        """Minimum-power beamformers at SINR target gamma; an infeasible one raises ValueError."""
        trivial = self._trivial(gamma)
        if trivial is not None:
            if trivial.beamformers is None:
                raise ValueError("positive SINR target with an unserved user is infeasible")
            return trivial.beamformers
        if self._power is None:
            self._power = self._build(margin=False)
        c = np.zeros(self.nx)
        c[0] = 1.0
        res = self._solve(self._power, gamma, c)
        stats = SolverStats(res.status, res.iterations, None, res.pres, res.dres)
        if res.status == "primal_infeasible":
            raise ValueError(f"SINR target {gamma} is infeasible for this association")
        if res.status != "optimal":
            raise SolverIndeterminate(
                f"power minimization did not converge (status {res.status})", stats)
        return self.unpack(res.x)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def check_feasible(ch: ChannelState, assoc: AssociationMap, gamma_target: float,
                   power_cap_w, noise_power_w: float,
                   tol: SolverTolerances = SolverTolerances()) -> FeasibilityOutcome:
    """Whether SINR target gamma_target is achievable at every user (`_BeamProblem.probe`)."""
    return _BeamProblem(ch, assoc, power_cap_w, noise_power_w).probe(gamma_target, tol)


def _max_min_bracket(prob: _BeamProblem, gamma_ub: float, tol: SolverTolerances,
                     gamma_lb: Optional[float] = None):
    """Shrink the bracket [lo feasible, hi infeasible] around the max-min
    optimum until hi - lo <= bisection_rel_tol * lo, with at most
    _MAX_PROBES probes.  Returns (lo, beamformers at lo).

    f = margin + cone_feas_tol is >= 0 exactly at the feasible targets and
    falls smoothly in t = sqrt(gamma).  The first probe is at gamma_lb when
    0 < gamma_lb < gamma_ub, else at gamma_ub (if feasible, the search ends
    there); a lower start that proves infeasible is an upper end like any
    other infeasible probe.  Each later probe is a Newton step in t
    from the last probe, with the slope from its dual (`SolverStats`), to a
    root r probed at r(1 + 0.45 tol) after a feasible probe and r(1 - 0.45
    tol) after an infeasible one: a probe on the root still closes the
    bracket, and lo ends about tol/2 below the boundary, where the
    tightening power-min is well posed.  A step without a negative slope,
    or one that leaves the bracket, falls back to the midpoint.
    """
    lo, hi, gamma, bf_lo = 0.0, gamma_ub, gamma_ub, None
    if gamma_lb is not None and 0.0 < gamma_lb < gamma_ub:
        gamma = gamma_lb
    for _ in range(_MAX_PROBES):
        if hi - lo <= tol.bisection_rel_tol * lo:
            break
        out = prob.probe(gamma, tol)
        stats = out.solver_stats
        if out.status == "indeterminate":
            raise SolverIndeterminate(
                f"feasibility probe at gamma={gamma} did not converge", stats)
        if out.status == "feasible":
            lo, bf_lo, side = gamma, out.beamformers, 1
        else:
            hi, side = gamma, -1
        # a slope that is not negative makes t NaN, which falls back to the midpoint
        slope = stats.slope if stats.slope is not None and stats.slope < 0.0 else math.nan
        t = math.sqrt(gamma) - (stats.margin + tol.cone_feas_tol) / slope
        gamma = t * t * (1.0 + 0.45 * tol.bisection_rel_tol * side)
        if not (t > 0.0 and lo < gamma < hi):
            gamma = 0.5 * (lo + hi)
    return lo, bf_lo


def max_min_value(ch: ChannelState, assoc: AssociationMap, power_cap_w,
                  noise_power_w: float,
                  tol: SolverTolerances = SolverTolerances(),
                  gamma_upper_hint: Optional[float] = None,
                  gamma_lower_hint: Optional[float] = None):
    """The value of the max-min: the largest common SINR achievable over the
    wireless links.

    A safeguarded Newton search on the probe margin (see `_max_min_bracket`)
    narrows [lo, hi] from [0, upper bound] until hi - lo <=
    bisection_rel_tol * lo; _MAX_PROBES caps its probes.
    Returns (lo, the feasibility probe's beamformers at lo), zero
    beamformers when lo is 0.  No power-min runs and no template outlives
    the call.

    gamma_upper_hint, when given, must be a valid upper bound on the optimum
    (e.g. the value at a superset association); it shrinks the initial
    bracket below the interference-free bound.  gamma_lower_hint, when given,
    should be a value the association can reach (e.g. the value at a subset
    association); the search probes it first, and ignores it unless it lies
    strictly between 0 and the upper bound.
    """
    prob = _BeamProblem(ch, assoc, power_cap_w, noise_power_w)
    gamma_ub = mrt_gamma_upper_bound(ch, power_cap_w, noise_power_w)
    if gamma_upper_hint is not None:
        gamma_ub = min(gamma_ub, float(gamma_upper_hint))
    if prob.unserved or gamma_ub <= 0.0:
        return 0.0, prob.zeros()
    lo, bf_lo = _max_min_bracket(prob, gamma_ub, tol, gamma_lower_hint)
    if lo == 0.0:
        return 0.0, prob.zeros()
    return lo, bf_lo


def tighten_max_min(ch: ChannelState, assoc: AssociationMap, gamma: float,
                    probe_bf: BeamformerSet, power_cap_w,
                    noise_power_w: float) -> BeamformerSet:
    """The max-min beamformers at value gamma, from `max_min_value`'s
    (gamma, probe_bf): a power-minimization solve at gamma, so every user
    sits exactly at the common SINR.  If that solve fails at gamma and at
    gamma (1 - 1e-6), probe_bf is returned and a WARNING is logged.  Only
    the power template is built, and none at gamma = 0.
    """
    prob = _BeamProblem(ch, assoc, power_cap_w, noise_power_w)
    statuses = []
    for target in (gamma, gamma * (1.0 - 1e-6)):
        try:
            return prob.solve_power_min(target)
        except ValueError:
            statuses.append("primal_infeasible")
        except SolverIndeterminate as exc:
            statuses.append(exc.stats.status)
    _log.warning("power-min at gamma=%r failed (%s), association %s: "
                 "keeping the feasibility probe's beamformers",
                 gamma, ", ".join(statuses), [sorted(s) for s in assoc.omega])
    return probe_bf


def solve_max_min(ch: ChannelState, assoc: AssociationMap, power_cap_w,
                  noise_power_w: float,
                  tol: SolverTolerances = SolverTolerances(),
                  gamma_upper_hint: Optional[float] = None):
    """Largest common SINR achievable over the wireless links, with
    tightened beamformers: the value of `max_min_value`, then
    `tighten_max_min` at that value.  Returns (gamma, beamformers).
    """
    gamma, probe_bf = max_min_value(ch, assoc, power_cap_w, noise_power_w, tol,
                                    gamma_upper_hint)
    return gamma, tighten_max_min(ch, assoc, gamma, probe_bf, power_cap_w,
                                  noise_power_w)


def solve_power_min(ch: ChannelState, assoc: AssociationMap, gamma_target: float,
                    power_cap_w, noise_power_w: float) -> BeamformerSet:
    """Beamformers meeting SINR target gamma_target with minimum total power
    (`_BeamProblem.solve_power_min`).  The caller must pass a feasible
    target; an infeasible one raises ValueError (contract violation)."""
    return _BeamProblem(ch, assoc, power_cap_w, noise_power_w).solve_power_min(gamma_target)
