"""The cone solver's structured Newton solve (block-diagonal tail Gram plus
low-rank cone-head terms) against a dense G' W^-2 G reference, on the
beamforming templates and their hard cases, the per-user blocks it forms
from the templates' `UserBlocks`, and the steps the solver takes from its
solves."""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from test_socp import interior_point
from cran_maxmin import beamforming, socp
from cran_maxmin.association import nearest_rrh_association
from cran_maxmin.beamforming import _BeamProblem, max_min_value, solve_max_min
from cran_maxmin.harness import ExperimentConfig, draw_trial
from cran_maxmin.model import AssociationMap, ChannelState


def dense_scaling(scal, power):
    """Block-diagonal W^2 (power 1) or W^-2 (power -1), built cone by cone
    from W^2 = eta^2 (2 w w' - J) and W^-2 = eta^-2 (2 Jw w'J - J)."""
    spec = scal.spec
    out = np.zeros((spec.m, spec.m))
    for i, (start, d) in enumerate(zip(spec.heads, spec.dims)):
        J = -np.eye(d)
        J[0, 0] = 1.0
        w = scal.w[start:start + d]
        if power < 0:
            w = J @ w
        out[start:start + d, start:start + d] = \
            (2.0 * np.outer(w, w) - J) * scal.eta[i] ** (2 * power)
    return out


def dense_newton_matrix(G, scal):
    return G.T @ dense_scaling(scal, -1) @ G


def spread_channels(seed):
    """Per-link attenuation spread evenly over 0 to 100 dB."""
    ch = random_channels(seed, 6, 3, 2)
    loss_db = np.random.default_rng(seed).permutation(np.linspace(0.0, 100.0, 18))
    return ChannelState(ch.h * 10.0 ** (-loss_db.reshape(6, 3, 1) / 20.0))


def _fixtures():
    # at gamma = 0 the SINR tails vanish, every column is its own block and
    # the cone heads carry all the coupling
    topo, desk, sigma2 = desk_instance(8)
    return {
        "desk8-full": (desk, AssociationMap.full(3, 6), sigma2),
        "desk8-nearest": (desk, nearest_rrh_association(desk, topo), sigma2),
        "users-exceed-antennas": (random_channels(3, 7, 2, 2), AssociationMap.full(2, 7), 1.0),
        "one-antenna": (random_channels(4, 4, 3, 1), AssociationMap.full(3, 4), 1.0),
        "100dB-spread": (spread_channels(5), AssociationMap.full(3, 6), 1.0),
    }


FIXTURES = _fixtures()
# the template G and user blocks of each program below, by its ConeSpec
TEMPLATES = {}


def program(name, margin, share):
    """(c, G, h, spec) of a template at share * the max-min optimum, G
    dense; the template's pattern and user blocks are kept in TEMPLATES."""
    ch, assoc, noise = FIXTURES[name]
    caps = np.ones(ch.n_rrh)
    gamma = share * solve_max_min(ch, assoc, caps, noise)[0] if share else 0.0
    return program_at(name, margin, gamma)


def program_at(name, margin, gamma):
    """program() at SINR target gamma."""
    ch, assoc, noise = FIXTURES[name]
    prob = _BeamProblem(ch, assoc, np.ones(ch.n_rrh), noise)
    template = prob._build(margin)
    G, h, spec = prob._instantiate(template, gamma)
    TEMPLATES[spec] = (template.G, prob._user_blocks(template.G, spec))
    c = np.zeros(prob.nx)
    c[0] = -1.0 if margin else 1.0
    return c, G.toarray(), h, spec


CASES = [(name, True, share) for name in FIXTURES for share in (0.0, 0.5, 1.0)] + \
        [(name, False, share) for name in FIXTURES for share in (0.5, 1.0 - 1e-4)]


def on_template(G, spec):
    """A dense G of a program above as a CooMatrix on its template's
    pattern, explicit zeros included."""
    pattern = TEMPLATES[spec][0]
    return pattern._replace(val=G[pattern.row, pattern.col])


def solve(newton, c, G, h, spec):
    """solve_socp on a dense G, with the Newton system newton(G, spec)."""
    G = on_template(G, spec)
    layout = SimpleNamespace(system=lambda G: newton(G, spec))
    return socp.solve_socp(c, G, h, spec, layout)


def dense(G, spec):
    return socp._DenseNewton(G.toarray())


def block(G, spec):
    """The block system of G, forced onto programs of any size."""
    return socp._BlockNewton(G, socp._BlockPattern(G, spec, TEMPLATES[spec][1]))


def own(G, spec):
    """The system the layout of G's own pattern picks."""
    return socp.NewtonLayout(G, spec, lambda: TEMPLATES[spec][1]).system(G)


def test_reference_matches_dense_gram(rng):
    c, G, h, spec = program("desk8-full", True, 0.5)
    scal = socp._Scaling(spec, interior_point(rng, spec), interior_point(rng, spec))
    Gtil = scal.apply_w_inv_mat(G)
    M = dense_newton_matrix(G, scal)
    np.testing.assert_allclose(M, Gtil.T @ Gtil, rtol=1e-9, atol=1e-9 * np.abs(M).max())


def backward_errors(G, scal, bx, bz, dx, dz):
    """Normwise backward errors of (dx, dz) in G' W^-2 G dx = bx + G' W^-2 bz
    and W^2 dz = G dx - bz, against the dense references."""
    M = dense_newton_matrix(G, scal)
    W2 = dense_scaling(scal, 1)
    rhs = bx + G.T @ dense_scaling(scal, -1) @ bz
    ex = np.linalg.norm(M @ dx - rhs) / (
        np.linalg.norm(M, 2) * np.linalg.norm(dx) + np.linalg.norm(rhs))
    ez = np.linalg.norm(W2 @ dz - G @ dx + bz) / (
        np.linalg.norm(W2, 2) * np.linalg.norm(dz) + np.linalg.norm(G @ dx) + np.linalg.norm(bz))
    return ex, ez


@pytest.mark.parametrize("name,margin,share", CASES)
def test_block_directions_solve_the_exact_system(monkeypatch, name, margin, share):
    """Every direction of a block-path solve is as exact as the dense path's
    on the same systems: within 10x the dense path's largest backward error
    over the solve, or below 1e-14.  One dense direction's error is not the
    reference: it jumps severalfold between neighbouring directions."""
    c, G, h, spec = program(name, margin, share)
    pairs = []
    solve_block = socp._BlockNewton.solve

    def checked(self, bx, bz):
        dx, dz = solve_block(self, bx, bz)
        ref = socp._DenseNewton(G)
        if ref.factor(self.scal):
            pairs.append((backward_errors(G, self.scal, bx, bz, dx, dz),
                          backward_errors(G, self.scal, bx, bz, *ref.solve(bx, bz))))
        return dx, dz

    monkeypatch.setattr(socp._BlockNewton, "solve", checked)
    res_block = solve(block, c, G, h, spec)
    res_dense = solve(dense, c, G, h, spec)
    assert len(pairs) >= 2 * (res_block.iterations - 1)
    bound = np.maximum(10.0 * np.max([ref for _, ref in pairs], axis=0), 1e-14)
    for mine, _ in pairs:
        assert mine[0] <= bound[0] and mine[1] <= bound[1]
    assert res_block.status == res_dense.status
    if res_dense.status == "optimal":
        assert res_block.obj == pytest.approx(res_dense.obj, rel=1e-6, abs=1e-7)


def test_every_case_ends_optimal_on_both_paths():
    programs = [program(*case) for case in CASES]
    ends = [(case, newton.__name__) for case, p in zip(CASES, programs)
            for newton in (dense, block) if solve(newton, *p).status != "optimal"]
    assert ends == []


# targets just under the 100 dB-spread program's max-min value (9.039e-4)
# where its raw power program, unscaled by cone, once ended indeterminate
# on the block path: the Woodbury part lost the system to cancellation and
# the directions' residuals G'dz - bx grew to 4e1 of bx, while the dense
# path ended optimal in 37 and 40 iterations
SPREAD_POWER_TARGETS = [0.99995 * 9.03925276064e-4, 0.9999 * 9.03916461693e-4]


@pytest.mark.parametrize("newton", [dense, block])
@pytest.mark.parametrize("gamma", SPREAD_POWER_TARGETS)
def test_spread_power_program_ends_optimal_near_its_value(newton, gamma):
    res = solve(newton, *program_at("100dB-spread", False, gamma))
    assert res.status == "optimal"
    assert res.iterations <= 45


@pytest.mark.parametrize("force_block", [False, True])
@pytest.mark.parametrize("name,share,ends_indeterminate", [
    ("desk8-full", 0.0, True), ("desk8-full", 0.0, False),
    ("users-exceed-antennas", 0.5, False)])
def test_iterations_count_every_newton_step(monkeypatch, force_block, name, share,
                                            ends_indeterminate):
    # whether the solve passes the strict test or ends indeterminate, each
    # iteration it ran built one scaling; a feasibility tolerance of 0 keeps
    # the strict test from firing
    c, G, h, spec = program(name, True, share)
    if ends_indeterminate:
        monkeypatch.setattr(socp, "_FEASTOL", 0.0)
    built = []
    scaling = socp._Scaling.__init__

    def counted(self, *args):
        built.append(1)
        scaling(self, *args)

    monkeypatch.setattr(socp._Scaling, "__init__", counted)
    res = solve(block if force_block else own, c, G, h, spec)
    assert res.status == ("indeterminate" if ends_indeterminate else "optimal")
    assert res.iterations == len(built)


@pytest.mark.parametrize("config", ["desk.json", "paper.json"])
def test_directions_meet_the_primal_equation(config):
    # trial 0's full-association margin program at 0.9 times its optimum, on
    # the dense (desk) and the block (paper) path.  Every direction must meet
    # G dx + ds = -damp rz to rounding; a Delta s formed through
    # the scaling W missed it by 4 |G dx| late in the desk solve, so its
    # primal residual rose and the strict test never fired
    cfg = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent / "configs" / config)
    _, ch = draw_trial(cfg, 0)
    caps, noise = cfg.power_caps_w(), cfg.noise_power_w()
    full = AssociationMap.full(cfg.n_rrh, cfg.n_users)
    gamma = 0.9 * max_min_value(ch, full, caps, noise)[0]
    prob = _BeamProblem(ch, full, caps, noise)
    c = np.zeros(prob.nx)
    c[0] = -1.0
    misses = []

    def watch(frame, event, arg):
        # the locals of solve_socp's direction() as it returns
        if event == "return" and frame.f_code.co_name == "direction":
            f = frame.f_locals
            Gdx = f["newton"].G @ f["dx"]
            miss = Gdx + f["dsz"][0] + f["damp"] * f["rz"]
            misses.append(np.linalg.norm(miss) / np.linalg.norm(Gdx))

    profile = sys.getprofile()
    sys.setprofile(watch)
    try:
        res = prob._solve(prob._build(True), gamma, c)
    finally:
        sys.setprofile(profile)
    assert max(misses) <= 1e-12
    assert res.status == "optimal"
    assert len(misses) == 2 * res.iterations  # a predictor and a corrector each


def test_path_follows_problem_size(monkeypatch):
    # a template under _BLOCK_MIN_COLS columns builds no user blocks
    described = []
    user_blocks = _BeamProblem._user_blocks

    def recorded(self, G, spec):
        described.append(G.shape[1])
        return user_blocks(self, G, spec)

    monkeypatch.setattr(_BeamProblem, "_user_blocks", recorded)
    topo, desk, sigma2 = desk_instance(8)
    small = _BeamProblem(desk, AssociationMap.full(3, 6), np.ones(3), sigma2)
    template = small._build(True)
    G, _, spec = small._instantiate(template, 1.0)
    assert isinstance(template.layout.system(G), socp._DenseNewton)
    assert described == []
    ch = random_channels(1, 15, 5, 5)  # the paper's 5 x 15 x 5 shape
    large = _BeamProblem(ch, AssociationMap.full(5, 15), np.ones(5), 1.0)
    for margin in (True, False):
        template = large._build(margin)
        G, _, spec = large._instantiate(template, 1.0)
        assert isinstance(template.layout.system(G), socp._BlockNewton)
        # one block per user: 5 RRHs x 5 complex antenna weights
        assert template.layout.block.width == 25
    assert described == [751, 751]


PAPER = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent / "configs" / "paper.json")


def strongest(ch, counts):
    """User k on its counts[k % len(counts)] strongest RRHs by channel norm."""
    order = np.argsort(-np.linalg.norm(ch.h, axis=2), axis=1)
    alpha = np.zeros((ch.n_users, ch.n_rrh), dtype=bool)
    for k in range(ch.n_users):
        alpha[k, order[k, :counts[k % len(counts)]]] = True
    return AssociationMap.from_indicator(alpha)


def _structure_cases():
    """(channels, association, noise power, margin program, gamma)."""
    _, paper = draw_trial(PAPER, 0)
    _, near = draw_trial(dataclasses.replace(PAPER, seed=9), 0)
    noise = PAPER.noise_power_w()
    full = AssociationMap.full(PAPER.n_rrh, PAPER.n_users)
    pruned = strongest(paper, (1, 3, 5))
    desk, assoc, sigma2 = FIXTURES["desk8-full"]
    many, many_assoc, _ = FIXTURES["users-exceed-antennas"]
    return {
        "paper-full": (paper, full, noise, True, 0.5),
        "paper-on-1-3-5-rrhs": (paper, pruned, noise, True, 0.5),
        "paper-power": (paper, full, noise, False, 0.5),
        "paper-on-1-3-5-rrhs-gamma-0": (paper, pruned, noise, True, 0.0),
        "users-exceed-antennas": (many, many_assoc, 1.0, True, 0.5),
        "desk8-full": (desk, assoc, sigma2, True, 0.5),
        "paper-9/0-1m-guard": (near, full, noise, True, 0.5),
    }


STRUCTURE_CASES = _structure_cases()


@pytest.mark.parametrize("name", STRUCTURE_CASES)
def test_user_blocks_equal_the_dense_tail_gram(monkeypatch, rng, name):
    """Each user's block, formed from its template's UserBlocks, is the real
    form of the matching diagonal block of sum_i eta_i^-2 T_i'T_i built from
    the G the solver sees, at interior scalings whose cones' eta spread over
    orders of magnitude; the padding is identity and nothing couples two
    users.  Small programs are forced onto the block path."""
    ch, assoc, noise, margin, gamma = STRUCTURE_CASES[name]
    prob = _BeamProblem(ch, assoc, np.ones(ch.n_rrh), noise)
    template = prob._build(margin)
    seen = []

    def record(c, G, h, spec, layout, start=None, stop=None):
        seen.append(G)
        return SimpleNamespace(s=np.zeros(spec.m), z=np.zeros(spec.m))

    monkeypatch.setattr(beamforming, "solve_socp", record)
    prob._solve(template, gamma, np.zeros(prob.nx))
    [G], spec = seen, template.spec
    pattern = socp._BlockPattern(G, spec, prob._user_blocks(template.G, spec))
    newton = socp._BlockNewton(G, pattern)
    Gt = G.toarray()
    Gt[spec.heads] = 0.0  # the tail rows
    n, b = G.shape[1], pattern.width
    for _ in range(3):
        spread = 10.0 ** rng.uniform(-3, 3, (2, spec.nblocks))[:, spec.block_ids]
        einv = 1.0 / socp._Scaling(spec, spread[0] * interior_point(rng, spec),
                                   spread[1] * interior_point(rng, spec)).eta
        ref = Gt.T @ (Gt * (einv ** 2)[spec.block_ids, None])
        coupled = np.zeros_like(ref, dtype=bool)
        for j, D in enumerate(newton._tail_blocks(einv)):
            real = pattern.perm[j] < n
            cols = pattern.perm[j][real]
            mine = np.block([[D.real, -D.imag], [D.imag, D.real]])[np.ix_(real, real)]
            block = ref[np.ix_(cols, cols)]
            assert np.abs(mine - block).max() <= 1e-13 * np.abs(block).max()
            pad = real[:b] == 0
            assert np.array_equal(D[pad][:, pad], np.eye(pad.sum()))
            assert not D[pad][:, ~pad].any()
            coupled[np.ix_(cols, cols)] = True
        assert not ref[~coupled].any()


def _bytes(res):
    return [a.tobytes() for a in (res.x, res.s, res.z)]


@pytest.mark.parametrize("margin", [True, False], ids=["margin", "power"])
def test_a_shared_layout_solves_bit_for_bit_as_a_fresh_one(margin):
    ch = random_channels(1, 15, 5, 5)
    prob = _BeamProblem(ch, AssociationMap.full(5, 15), np.ones(5), 1.0)
    template = prob._build(margin)
    assert template.layout.block is not None  # the block path
    c = np.zeros(prob.nx)
    c[0] = -1.0 if margin else 1.0
    for gamma in (1e-3, 1e-2, 1e-1):
        G, h, spec = prob._instantiate(template, gamma)
        assert np.array_equal(G.row, template.G.row)  # the template's pattern
        shared = socp.solve_socp(c, G, h, spec, template.layout)
        fresh = socp.solve_socp(c, G, h, spec,
                                socp.NewtonLayout(G, spec, lambda: prob._user_blocks(G, spec)))
        assert (shared.status, shared.iterations, shared.obj) == \
            (fresh.status, fresh.iterations, fresh.obj)
        assert _bytes(shared) == _bytes(fresh)


def test_an_instance_keeps_the_template_pattern_and_layout(monkeypatch):
    ch = random_channels(1, 15, 5, 5)
    prob = _BeamProblem(ch, AssociationMap.full(5, 15), np.ones(5), 1.0)
    template = prob._build(True)
    built, solved = [], []
    layout, solve = socp.NewtonLayout, beamforming.solve_socp

    def recorded_layout(G, spec, blocks=None):
        built.append(len(G.val))
        return layout(G, spec, blocks)

    def recorded_solve(c, G, h, spec, layout, **kwargs):
        solved.append((G, layout))
        return solve(c, G, h, spec, layout, **kwargs)

    monkeypatch.setattr(socp, "NewtonLayout", recorded_layout)
    monkeypatch.setattr(beamforming, "solve_socp", recorded_solve)
    c = np.zeros(prob.nx)
    c[0] = -1.0
    prob._solve(template, 0.0, c)  # every interference entry is an explicit zero
    assert built == []
    [(G, used)] = solved
    assert G.row is template.G.row and G.col is template.G.col
    assert used is template.layout
    assert not G.val[template.scaled].any()


# PSD with an exactly zero second pivot, and indefinite
SINGULAR = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
INDEFINITE = np.diag([1.0, -1.0, 2.0])


@pytest.mark.parametrize("factor", [socp._potrf, np.linalg.cholesky],
                         ids=["dense-dpotrf", "block-cholesky"])
def test_indefinite_matrix_does_not_factor(factor):
    assert socp._cholesky(factor, INDEFINITE) is None


@pytest.mark.parametrize("newton", [dense, block])
def test_singular_newton_matrix_ends_the_solve_indeterminate(monkeypatch, newton):
    # the first Newton matrix factored is SINGULAR: its factorization fails
    # and is not retried, so factor() returns False and the solve ends
    p = program("desk8-full", True, 0.5)
    cholesky = socp._cholesky
    monkeypatch.setattr(socp, "_cholesky", lambda factor, A: cholesky(factor, SINGULAR))
    res = solve(newton, *p)
    assert res.status == "indeterminate" and res.iterations == 1


@pytest.mark.parametrize("newton", [dense, block])
def test_newton_factor_reports_failure_without_raising(rng, newton):
    # a scaling whose eta overflowed makes the Newton matrix zero, its
    # per-user blocks included
    c, G, h, spec = program("desk8-full", True, 0.0)
    scal = socp._Scaling(spec, interior_point(rng, spec), interior_point(rng, spec))
    solver = newton(on_template(G, spec), spec)
    assert solver.factor(scal)
    scal.eta = np.full(spec.nblocks, np.inf)
    scal.eta_b = scal.eta[spec.block_ids]
    assert solver.factor(scal) is False


@pytest.mark.parametrize("factor", [socp._potrf, np.linalg.cholesky],
                         ids=["dense-dpotrf", "block-cholesky"])
def test_nan_matrix_does_not_factor(factor):
    # LAPACK returns a NaN factor for a NaN matrix without reporting an error
    assert socp._cholesky(factor, np.full((3, 3), np.nan)) is None


@pytest.mark.parametrize("newton", [dense, block])
def test_nan_in_h_ends_the_solve_at_once(newton):
    c, G, h, spec = program("desk8-full", True, 0.5)
    h[0] = np.nan
    res = solve(newton, c, G, h, spec)
    assert res.status == "indeterminate"
    assert res.iterations <= 3
