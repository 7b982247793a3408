"""The max-min value is unchanged by the problem's exact symmetries.

Each test maps the full association of a desk trial (`configs/desk.json`,
trials 0-9) through one transform drawn by Hypothesis and compares
`max_min_value` with the untransformed value.  None of it trusts the cone
solver: each transform maps the problem onto one with the same optimum.

- Permuting users, permuting RRHs together with their power caps, a phase
  on each user's channels, a unitary on each RRH's antennas, and
  (h, sigma^2) -> (c h, c^2 sigma^2) map the cone program onto itself up to
  rounding, so the search takes the same path: bound 1e-6 relative.
- (P, sigma^2) -> (c P, c sigma^2) leaves the optimum unchanged, but it
  scales the power-cone heads by sqrt(c) and not the SINR heads, so the
  margin search takes another path and each value lands elsewhere within
  the search's width: bound 2 bisection_rel_tol.

Trial 2's first probe, at the MRT bound, is on the edge of a stall.  It
stalls when P and sigma^2 are scaled down (most c of 0.3 and below), under
13 of the 720 user permutations and under about 1 in 70 random phase
draws; the fixed draws here miss the last two.  The strict xfails
`test_power_scaled_down_stalls_on_trial_2` and
`test_a_user_swap_stalls_on_trial_2` keep it in view.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cran_maxmin.beamforming import SolverIndeterminate, SolverTolerances, max_min_value
from cran_maxmin.harness import ExperimentConfig, draw_trial
from cran_maxmin.model import AssociationMap, ChannelState

DESK = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent / "configs" / "desk.json")
K, N, M = DESK.n_users, DESK.n_rrh, DESK.n_antennas
FULL = AssociationMap.full(N, K)
EXACT = 1e-6
SEARCH = 2 * SolverTolerances().bisection_rel_tol

trials = st.integers(0, 9)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
angles = st.floats(0.0, 2.0 * np.pi)
checked = settings(max_examples=20, deadline=None, derandomize=True)


@lru_cache(maxsize=None)
def instance(trial):
    """(h, caps, noise power, max-min value) of a desk trial's full association."""
    _, ch = draw_trial(DESK, trial)
    caps, noise = np.array(DESK.power_caps_w()), DESK.noise_power_w()
    return ch.h, caps, noise, max_min_value(ch, FULL, caps, noise)[0]


def moved(trial, h, caps, noise):
    """Relative move of the full association's value under a transform."""
    value = instance(trial)[3]
    assert value > 0.0
    return abs(max_min_value(ChannelState(h), FULL, caps, noise)[0] / value - 1.0)


def unitary(draw):
    """An M x M unitary: the Q of a QR factorization of a drawn matrix."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * M * M, max_size=2 * M * M))
    A = np.array(entries).view(complex).reshape(M, M)
    assume(abs(np.linalg.det(A)) > 1e-3)
    return np.linalg.qr(A)[0]


@checked
@given(trials, st.permutations(range(K)))
def test_user_permutation(trial, perm):
    h, caps, noise, _ = instance(trial)
    assert moved(trial, h[list(perm)], caps, noise) <= EXACT


@checked
@given(trials, st.permutations(range(N)))
def test_rrh_permutation_with_its_caps(trial, perm):
    h, caps, noise, _ = instance(trial)
    perm = list(perm)
    assert moved(trial, h[:, perm], caps[perm], noise) <= EXACT


@checked
@given(trials, st.lists(angles, min_size=K, max_size=K))
def test_phase_per_user(trial, theta):
    h, caps, noise, _ = instance(trial)
    assert moved(trial, h * np.exp(1j * np.array(theta))[:, None, None], caps, noise) <= EXACT


@checked
@given(trials, st.data())
def test_unitary_per_rrh(trial, data):
    h, caps, noise, _ = instance(trial)
    U = np.array([unitary(data.draw) for _ in range(N)])
    assert moved(trial, np.einsum("nij,knj->kni", U, h), caps, noise) <= EXACT


@checked
@given(trials, scales)
def test_channel_and_noise_amplitude_scaling(trial, c):
    h, caps, noise, _ = instance(trial)
    assert moved(trial, c * h, caps, c * c * noise) <= EXACT


@checked
@given(trials, scales)
def test_power_and_noise_scaling(trial, c):
    assume(not (trial == 2 and c < 1.0))  # the stall below
    h, caps, noise, _ = instance(trial)
    assert moved(trial, h, c * caps, c * noise) <= SEARCH


@pytest.mark.xfail(raises=SolverIndeterminate, strict=True,
                   reason="the first probe, at the MRT bound, stalls (ROADMAP item 1)")
def test_power_scaled_down_stalls_on_trial_2():
    # a user of trial 2 is 6.6 m from an RRH, and its link gains span 82 dB;
    # at c = 0.1 the probe at gamma = 3.7e6 ends indeterminate, at c = 1
    # the max-min solves
    h, caps, noise, _ = instance(2)
    assert moved(2, h, 0.1 * caps, 0.1 * noise) <= SEARCH


@pytest.mark.xfail(raises=SolverIndeterminate, strict=True,
                   reason="the first probe, at the MRT bound, stalls (ROADMAP item 1)")
def test_a_user_swap_stalls_on_trial_2():
    # swapping users 2 and 3 changes only the rounding of the cone program
    h, caps, noise, _ = instance(2)
    assert moved(2, h[[0, 1, 3, 2, 4, 5]], caps, noise) <= EXACT
