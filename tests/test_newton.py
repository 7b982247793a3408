"""The cone solver's structured Newton solve (block-diagonal tail Gram plus
low-rank cone-head terms) against a dense G' W^-2 G reference, on the
beamforming templates and their hard cases, and the steps the solver takes
from its solves."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from test_socp import coo
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


def program(name, margin, share):
    """(c, G, h, spec) of a template at share * the max-min optimum, G dense."""
    ch, assoc, noise = FIXTURES[name]
    caps = np.ones(ch.n_rrh)
    gamma = share * solve_max_min(ch, assoc, caps, noise)[0] if share else 0.0
    prob = _BeamProblem(ch, assoc, caps, noise)
    G, h, spec = prob._instantiate(prob._build(margin), gamma)
    c = np.zeros(prob.nx)
    c[0] = -1.0 if margin else 1.0
    return c, G.toarray(), h, spec


CASES = [(name, True, share) for name in FIXTURES for share in (0.0, 0.5, 1.0)] + \
        [(name, False, share) for name in FIXTURES for share in (0.5, 1.0 - 1e-4)]


def solve(newton, c, G, h, spec):
    """solve_socp on a dense G, with the Newton system newton(G, spec)."""
    G = coo(G)
    layout = SimpleNamespace(system=lambda G: newton(G, spec))
    return socp.solve_socp(c, G, h, spec, layout)


def dense(G, spec):
    return socp._DenseNewton(G.toarray())


def block(G, spec):
    return socp._BlockNewton(G, socp._BlockPattern(G, spec))


def own(G, spec):
    """The system the layout of G's own pattern picks."""
    return socp.NewtonLayout(G, spec).system(G)


def relaxed(res):
    """Accepted only as the best iterate, under the tolerances in force
    (abstol < reltol, so the strict gap test reduces to relgap <= reltol)."""
    return res.status == "optimal" and not (
        res.pres <= socp._FEASTOL and res.dres <= socp._FEASTOL
        and res.relgap <= socp._RELTOL)


def test_reference_matches_dense_gram(rng):
    from test_socp import interior_point
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
    assert len(pairs) >= 3 * (res_block.iterations - 1)
    bound = np.maximum(10.0 * np.max([ref for _, ref in pairs], axis=0), 1e-14)
    for mine, _ in pairs:
        assert mine[0] <= bound[0] and mine[1] <= bound[1]
    assert res_block.status == res_dense.status
    if res_dense.status == "optimal":
        assert res_block.obj == pytest.approx(res_dense.obj, rel=1e-6, abs=1e-7)


def test_no_case_needs_the_relaxed_rule():
    # every case passes the strict test, on either Newton path
    programs = [program(*case) for case in CASES]
    needs = [(case, newton.__name__) for case, p in zip(CASES, programs)
             for newton in (dense, block) if relaxed(solve(newton, *p))]
    assert needs == []


@pytest.mark.parametrize("force_block", [False, True])
@pytest.mark.parametrize("name,share,ends_relaxed", [
    ("desk8-full", 0.0, True), ("desk8-full", 0.0, False),
    ("users-exceed-antennas", 0.5, False)])
def test_iterations_count_every_newton_step(monkeypatch, force_block, name, share,
                                            ends_relaxed):
    # whether the solve passes the strict test or returns the relaxed best
    # iterate, each iteration it ran built one scaling; a feasibility
    # tolerance of 0 keeps the strict test from firing
    c, G, h, spec = program(name, True, share)
    if ends_relaxed:
        monkeypatch.setattr(socp, "_FEASTOL", 0.0)
    built = []
    scaling = socp._Scaling.__init__

    def counted(self, *args):
        built.append(1)
        scaling(self, *args)

    monkeypatch.setattr(socp._Scaling, "__init__", counted)
    res = solve(block if force_block else own, c, G, h, spec)
    assert res.status == "optimal" and relaxed(res) == ends_relaxed
    assert res.iterations == len(built)


@pytest.mark.parametrize("config", ["desk.json", "paper.json"])
def test_directions_meet_the_primal_equation(config):
    # trial 0's full-association margin program at 0.9 times its optimum, on
    # the dense (desk) and the block (paper) path.  Every direction must meet
    # G dx + ds - h dtau = -damp rz to rounding; a Delta s formed through
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
            miss = Gdx + f["dsz"][0] - f["h"] * f["dtau"] + f["damp"] * f["rz"]
            misses.append(np.linalg.norm(miss) / np.linalg.norm(Gdx))

    profile = sys.getprofile()
    sys.setprofile(watch)
    try:
        res = prob._solve(prob._build(True), gamma, c)
    finally:
        sys.setprofile(profile)
    assert max(misses) <= 1e-12
    assert res.status == "optimal" and not relaxed(res)
    assert len(misses) == 2 * res.iterations  # a predictor and a corrector each


def test_path_follows_problem_size():
    topo, desk, sigma2 = desk_instance(8)
    small = _BeamProblem(desk, AssociationMap.full(3, 6), np.ones(3), sigma2)
    G, _, spec = small._instantiate(small._build(True), 1.0)
    assert isinstance(own(G, spec), socp._DenseNewton)
    ch = random_channels(1, 15, 5, 5)  # the paper's 5 x 15 x 5 shape
    large = _BeamProblem(ch, AssociationMap.full(5, 15), np.ones(5), 1.0)
    for margin in (True, False):
        G, _, spec = large._instantiate(large._build(margin), 1.0)
        layout = socp.NewtonLayout(G, spec)
        assert isinstance(layout.system(G), socp._BlockNewton)
        assert layout.block.width == 50  # one block per user: 5 RRHs x 2 x 5 antennas


def _bytes(res):
    return [None if a is None else a.tobytes() for a in (res.x, res.s, res.z)]


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
        fresh = socp.solve_socp(c, G, h, spec, socp.NewtonLayout(G, spec))
        assert (shared.status, shared.iterations, shared.obj) == \
            (fresh.status, fresh.iterations, fresh.obj)
        assert _bytes(shared) == _bytes(fresh)


def test_an_instance_keeps_the_template_pattern_and_layout(monkeypatch):
    ch = random_channels(1, 15, 5, 5)
    prob = _BeamProblem(ch, AssociationMap.full(5, 15), np.ones(5), 1.0)
    template = prob._build(True)
    built, solved = [], []
    layout, solve = socp.NewtonLayout, beamforming.solve_socp

    def recorded_layout(G, spec):
        built.append(len(G.val))
        return layout(G, spec)

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
def test_singular_newton_matrix_factors_at_the_first_jitter(factor):
    with pytest.raises(np.linalg.LinAlgError):
        factor(SINGULAR)
    jitter = 1e-12 * 2.0  # times the largest diagonal entry
    assert np.array_equal(socp._jittered(factor, SINGULAR),
                          factor(SINGULAR + jitter * np.eye(3)))


def test_block_batch_jitter_follows_the_largest_diagonal_entry():
    batch = np.array([4.0 * np.eye(3), SINGULAR])
    assert np.array_equal(socp._jittered(np.linalg.cholesky, batch),
                          np.linalg.cholesky(batch + 1e-12 * 4.0 * np.eye(3)))


@pytest.mark.parametrize("factor", [socp._potrf, np.linalg.cholesky],
                         ids=["dense-dpotrf", "block-cholesky"])
def test_indefinite_matrix_factors_at_no_jitter(factor):
    assert socp._jittered(factor, INDEFINITE) is None


@pytest.mark.parametrize("newton", [dense, block])
def test_newton_factor_reports_failure_without_raising(rng, newton):
    # a scaling whose eta overflowed makes the Newton matrix zero, which no
    # jitter relative to its (zero) diagonal can make positive definite; at
    # gamma = 0 every block has one column, so the block path has no padding
    from test_socp import interior_point
    c, G, h, spec = program("desk8-full", True, 0.0)
    scal = socp._Scaling(spec, interior_point(rng, spec), interior_point(rng, spec))
    solver = newton(coo(G), spec)
    assert solver.factor(scal)
    scal.eta = np.full(spec.nblocks, np.inf)
    scal.eta_b = scal.eta[spec.block_ids]
    assert solver.factor(scal) is False


@pytest.mark.parametrize("factor", [socp._potrf, np.linalg.cholesky],
                         ids=["dense-dpotrf", "block-cholesky"])
def test_nan_matrix_does_not_factor(factor):
    # LAPACK returns a NaN factor for a NaN matrix without reporting an error
    assert socp._jittered(factor, np.full((3, 3), np.nan)) is None


@pytest.mark.parametrize("newton", [dense, block])
def test_nan_in_h_ends_the_solve_at_once(newton):
    c, G, h, spec = program("desk8-full", True, 0.5)
    h[0] = np.nan
    res = solve(newton, c, G, h, spec)
    assert res.status == "indeterminate"
    assert res.iterations <= 3
