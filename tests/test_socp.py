"""Cone-solver engine tests: scaling identities, analytic optima, and
independently verified optimality certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from cran_maxmin.socp import (_FEASTOL, ConeSpec, CooMatrix, NewtonLayout, _BlockNewton,
                               _BlockPattern, _DenseNewton, _Scaling, solve_socp)


def coo(A):
    """A dense matrix as the solver takes it: its nonzero entries, row-major."""
    row, col = np.nonzero(A)
    return CooMatrix(row, col, A[row, col], A.shape)


# the UserBlocks of the beamforming programs below, by their ConeSpec
USER_BLOCKS = {}


def solve(c, G, h, dims, start=None):
    """The solver on a dense or COO G and a ConeSpec or a list of cone
    sizes, with a Newton layout of the program's own (given its user blocks
    if it is a beamforming program)."""
    spec = dims if isinstance(dims, ConeSpec) else ConeSpec(dims)
    if not isinstance(G, CooMatrix):
        G = coo(np.asarray(G, dtype=float))
    blocks = USER_BLOCKS.get(spec)
    layout = NewtonLayout(G, spec, None if blocks is None else lambda: blocks)
    return solve_socp(np.asarray(c, dtype=float), G, np.asarray(h, dtype=float), spec,
                      layout, start=start)


def interior(spec, u):
    """Whether u lies in the interior of the cones of spec."""
    return bool((u[spec.heads] > 0).all() and (spec.jdot(u, u) > 0).all())


def interior_point(rng, spec, scale=1.0):
    u = rng.standard_normal(spec.m) * scale
    for start, d in zip(spec.heads, spec.dims):
        tail = u[start + 1:start + d]
        u[start] = np.linalg.norm(tail) + scale * (abs(rng.standard_normal()) + 0.1)
    return u


@pytest.fixture
def spec():
    return ConeSpec([3, 1, 5, 2])


class TestScaling:
    def test_nt_point_matches_from_both_sides(self, spec, rng):
        for _ in range(100):
            s = interior_point(rng, spec)
            z = interior_point(rng, spec)
            sc = _Scaling(spec, s, z)
            lam_z = sc.apply_w(z)
            lam_s = sc.apply_w_inv(s)
            np.testing.assert_allclose(lam_z, lam_s, rtol=1e-9, atol=1e-12)
            assert interior(spec, lam_z)

    def test_nt_point_under_scale_mismatch(self, spec, rng):
        # s and z many orders apart, as near convergence
        for _ in range(50):
            s = interior_point(rng, spec, scale=1e-6)
            z = interior_point(rng, spec, scale=1e4)
            sc = _Scaling(spec, s, z)
            np.testing.assert_allclose(sc.apply_w(z), sc.apply_w_inv(s),
                                       rtol=1e-8, atol=1e-12)

    def test_w_inverse_roundtrip(self, spec, rng):
        s = interior_point(rng, spec)
        z = interior_point(rng, spec)
        sc = _Scaling(spec, s, z)
        v = rng.standard_normal(spec.m)
        np.testing.assert_allclose(sc.apply_w_inv(sc.apply_w(v)), v,
                                   rtol=1e-9, atol=1e-11)

    def test_matrix_apply_matches_vector_apply(self, spec, rng):
        s = interior_point(rng, spec)
        z = interior_point(rng, spec)
        sc = _Scaling(spec, s, z)
        B = rng.standard_normal((spec.m, 5))
        WB = sc.apply_w_inv_mat(B)
        for col in range(5):
            np.testing.assert_allclose(WB[:, col], sc.apply_w_inv(B[:, col]),
                                       rtol=1e-9, atol=1e-11)

    def test_jordan_div_inverts_prod(self, spec, rng):
        sc = _Scaling(spec, interior_point(rng, spec), interior_point(rng, spec))
        d = rng.standard_normal(spec.m)
        u = sc.lam_div(d)
        np.testing.assert_allclose(spec.jprod(sc.lam, u), d, rtol=1e-9, atol=1e-10)


class TestMaxStep:
    def test_boundary_bracketing(self, spec, rng):
        for _ in range(300):
            u = interior_point(rng, spec)
            d = rng.standard_normal(spec.m)
            a = spec.max_step(u, d, spec.jdot(u, u))
            if np.isfinite(a):
                assert interior(spec, u + 0.999 * a * d)
                assert not interior(spec, u + 1.001 * a * d)
            else:
                for t in (0.5, 5.0, 500.0):
                    assert interior(spec, u + t * d)

    _sane = st.one_of(st.just(0.0), st.floats(1e-6, 3), st.floats(-3, -1e-6))

    @given(_sane, _sane, st.floats(0.01, 3))
    @settings(max_examples=100, deadline=None)
    def test_apex_exit_on_ray(self, d_head, d_other, u_head):
        # dimension-1 cones exit exactly where the head crosses zero
        spec = ConeSpec([1, 1])
        u = np.array([u_head, 1.0])
        d = np.array([d_head, d_other])
        a = spec.max_step(u, d, spec.jdot(u, u))
        expected = np.inf
        if d_head < 0:
            expected = -u_head / d_head
        if d_other < 0:
            expected = min(expected, -1.0 / d_other)
        if np.isinf(expected):
            assert np.isinf(a)
        else:
            # rounding in the tangential discriminant shifts the root a hair
            assert a == pytest.approx(expected, rel=1e-6)
            assert a <= expected * (1 + 1e-12)


# -- reference kernels: the step bound branch by branch and W^-1 as
# J V(w) J / eta.  The solver's branch-free, stacked kernels must agree with
# them bit for bit, which keeps sweep outputs byte-reproducible.
def ref_max_step(spec, u, d):
    a = spec.jdot(d, d)
    b = spec.jdot(u, d)
    c0 = spec.jdot(u, u)
    alpha = np.full(spec.nblocks, np.inf)
    neg = a < 0.0
    if neg.any():
        disc = b[neg] * b[neg] - a[neg] * c0[neg]
        alpha[neg] = (-b[neg] - np.sqrt(disc)) / a[neg]
    pos = (a > 0.0) & (b < 0.0)
    if pos.any():
        disc = b[pos] * b[pos] - a[pos] * c0[pos]
        ok = disc >= 0.0
        root = np.full(int(pos.sum()), np.inf)
        root[ok] = c0[pos][ok] / (-b[pos][ok] + np.sqrt(disc[ok]))
        alpha[pos] = root
    lin = (a == 0.0) & (b < 0.0)
    if lin.any():
        alpha[lin] = -c0[lin] / (2.0 * b[lin])
    u0 = u[spec.heads]
    d0 = d[spec.heads]
    drop = d0 < 0.0
    if drop.any():
        alpha[drop] = np.minimum(alpha[drop], -u0[drop] / d0[drop])
    return float(alpha.min())


def ref_jdiv(spec, lam, d):
    """Solve lam o u = d for u, lam interior."""
    rho = spec.jdot(lam, lam)
    u0 = spec.jdot(lam, d) / rho
    lam0 = lam[spec.heads]
    out = (d - u0[spec.block_ids] * lam) / lam0[spec.block_ids]
    out[spec.heads] = u0
    return out


def ref_v(sc, u):
    spec, w, w0 = sc.spec, sc.w, sc.w0
    heads, bid = spec.heads, spec.block_ids
    u0 = u[heads]
    q = spec.dot(w, u) - w0 * u0
    out = u + w * (u0 + q / (1.0 + w0))[bid]
    out[heads] = w0 * u0 + q
    return out


def ref_w_inv(sc, u):
    heads = sc.spec.heads
    ju = -u
    ju[heads] = u[heads]
    out = -ref_v(sc, ju)
    out[heads] = -out[heads]
    return out / sc.eta[sc.spec.block_ids]


def ref_w_inv_mat(sc, B):
    spec, w, w0 = sc.spec, sc.w, sc.w0
    heads, bid = spec.heads, spec.block_ids
    JB = -B
    JB[heads] = B[heads]
    U0 = JB[heads]
    Q = np.add.reduceat(w[:, None] * JB, heads, axis=0) - w0[:, None] * U0
    out = JB + w[:, None] * (U0 + Q / (1.0 + w0)[:, None])[bid]
    out[heads] = w0[:, None] * U0 + Q
    out = -out
    out[heads] = -out[heads]
    return out / sc.eta[bid, None]


# dimension-1 cones and cones long enough for the per-block sums to matter
BIT_SPECS = [ConeSpec([3, 1, 5, 2]), ConeSpec([1, 1, 1]), ConeSpec([1, 13, 1, 31, 4, 2])]


def null_direction(rng, spec):
    """A direction with d'Jd exactly 0 in every cone of dimension > 1: the
    patterns (5, 3, -4) and (1, +-1) times signed powers of two, so heads of
    either sign occur and some cones exit through the apex."""
    d = np.zeros(spec.m)
    for start, dim in zip(spec.heads, spec.dims):
        scale = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-3, 4))
        if dim == 1:
            d[start] = scale
        elif dim == 2:
            d[start:start + 2] = scale, scale * rng.choice([-1.0, 1.0])
        else:
            i, j = 1 + rng.permutation(dim - 1)[:2]
            d[start], d[start + i], d[start + j] = 5.0 * scale, 3.0 * scale, -4.0 * scale
    return d


class TestBitExactKernels:
    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_max_step_equals_masked_branches(self, spec, rng):
        kinds = {"neg": 0, "pos": 0, "lin": 0, "apex": 0}
        for trial in range(400):
            u = interior_point(rng, spec, scale=10.0 ** rng.uniform(-4, 4))
            if trial % 2:
                d = null_direction(rng, spec)
            else:
                d = rng.standard_normal(spec.m) * 10.0 ** rng.uniform(-4, 4)
            a, b = spec.jdot(d, d), spec.jdot(u, d)
            kinds["neg"] += int((a < 0).sum())
            kinds["pos"] += int(((a > 0) & (b < 0)).sum())
            kinds["lin"] += int(((a == 0) & (b < 0)).sum())
            kinds["apex"] += int((d[spec.heads] < 0).sum())
            assert np.array_equal(spec.max_step(u, d, spec.jdot(u, u)), ref_max_step(spec, u, d))
        # on rays d'Jd = d0^2 is never negative, and zero only with b = 0
        possible = kinds if max(spec.dims) > 1 else ("pos", "apex")
        assert all(kinds[k] for k in possible), kinds

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_stacked_rows_take_the_min_over_rows(self, spec, rng):
        for trial in range(200):
            s = interior_point(rng, spec)
            z = interior_point(rng, spec, scale=10.0 ** rng.uniform(-3, 3))
            ds = null_direction(rng, spec) if trial % 3 == 0 else rng.standard_normal(spec.m)
            dz = rng.standard_normal(spec.m)
            # u'Ju of both rows as the solver passes it, from the scaling
            uu = _Scaling(spec, s, z).uu
            stacked = spec.max_step(np.array((s, z)), np.array((ds, dz)), uu)
            assert stacked == min(ref_max_step(spec, s, ds), ref_max_step(spec, z, dz))

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_max_step_carries_nan_and_inf_as_the_reference(self, spec, rng):
        # one entry of u or d is NaN, infinite, or so large that d'Jd
        # overflows to NaN while u'Jd stays finite; the reference's
        # np.minimum and np.min carry a NaN from any cone, and a NaN d'Jd
        # selects no root, whatever the sign of u'Jd
        outcomes = {"nan": 0, "finite": 0, "inf": 0, "nan a, b < 0": 0}
        for trial in range(900):
            u = interior_point(rng, spec)
            d = rng.standard_normal(spec.m)
            bad = (u, d)[trial % 2]
            bad[rng.integers(spec.m)] = (np.nan, np.inf, -np.inf, 1e200, -1e200)[trial // 2 % 5]
            with np.errstate(all="ignore"):
                uu = spec.jdot(u, u)
                ref = ref_max_step(spec, u, d)
                got = spec.max_step(u, d, uu)
                a, b = spec.jdot(d, d), spec.jdot(u, d)
            assert np.array_equal(got, ref, equal_nan=True), (u, d, got, ref)
            outcomes["nan" if np.isnan(ref) else "finite" if np.isfinite(ref) else "inf"] += 1
            outcomes["nan a, b < 0"] += int((np.isnan(a) & (b < 0)).sum())
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_scaling_products_equal_one_jdot_per_point(self, spec, rng):
        for _ in range(100):
            s = interior_point(rng, spec, scale=10.0 ** rng.uniform(-4, 4))
            z = interior_point(rng, spec, scale=10.0 ** rng.uniform(-4, 4))
            uu = _Scaling(spec, s, z).uu
            assert np.array_equal(uu, np.array((spec.jdot(s, s), spec.jdot(z, z))))

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_lambda_division_equals_jdiv(self, spec, rng):
        for _ in range(100):
            sc = _Scaling(spec, interior_point(rng, spec, scale=1e-3),
                          interior_point(rng, spec, scale=1e3))
            d = rng.standard_normal(spec.m) * 10.0 ** rng.uniform(-4, 4)
            assert np.array_equal(sc.lam_div(d), ref_jdiv(spec, sc.lam, d))

    @pytest.mark.parametrize("spec", BIT_SPECS, ids=lambda s: str(s.dims))
    def test_w_and_its_inverse_equal_j_v_j(self, spec, rng):
        for _ in range(100):
            sc = _Scaling(spec, interior_point(rng, spec, scale=1e-3),
                          interior_point(rng, spec, scale=1e3))
            u = rng.standard_normal(spec.m)
            assert np.array_equal(sc.apply_w(u), ref_v(sc, u) * sc.eta[spec.block_ids])
            assert np.array_equal(sc.apply_w_inv(u), ref_w_inv(sc, u))
            # sparse columns, as in the problem templates, and an all-zero one
            B = rng.standard_normal((spec.m, 6)) * (rng.random((spec.m, 6)) < 0.4)
            B[:, 0] = 0.0
            assert np.array_equal(sc.apply_w_inv_mat(B), ref_w_inv_mat(sc, B))

    def test_dense_newton_equals_cho_factor_and_cho_solve(self, rng):
        spec = BIT_SPECS[2]
        G = rng.standard_normal((spec.m, 9)) * (rng.random((spec.m, 9)) < 0.5)
        G[0] = 1.0  # full column rank
        newton = _DenseNewton(G)
        for _ in range(20):
            sc = _Scaling(spec, interior_point(rng, spec), interior_point(rng, spec))
            assert newton.factor(sc)
            Gtil = ref_w_inv_mat(sc, G)
            cho = cho_factor(Gtil.T @ Gtil, lower=True, check_finite=False)
            assert np.array_equal(newton.L, cho[0])
            bx, bz = rng.standard_normal(9), rng.standard_normal(spec.m)
            dx, dz = newton.solve(bx, bz)
            bbz = ref_w_inv(sc, bz)
            ref_dx = cho_solve(cho, bx + Gtil.T @ bbz, check_finite=False)
            assert np.array_equal(dx, ref_dx)
            assert np.array_equal(dz, ref_w_inv(sc, Gtil @ ref_dx - bbz))


    @pytest.mark.parametrize("name", ["paper-size-margin", "desk-margin"])
    def test_block_cone_terms_equal_the_selector_product(self, name, rng):
        # eta^-1 u per cone (u = G_i'Jw_i), summed by (column, cone), against
        # the product GT @ E with E the (row, cone) selector it replaced, on
        # the block path (the desk program forced onto it).  The block path
        # takes only beamforming templates, which have at most two entries
        # per (column, cone)
        _, G, _, spec = WARM_START_PROGRAMS[name]
        newton = _BlockNewton(G, _BlockPattern(G, spec, USER_BLOCKS[spec]))
        n, nc = G.shape[1], spec.nblocks
        for _ in range(10):
            sc = _Scaling(spec, interior_point(rng, spec, scale=10.0 ** rng.uniform(-3, 3)),
                          interior_point(rng, spec, scale=10.0 ** rng.uniform(-3, 3)))
            assert newton.factor(sc)
            einv = 1.0 / sc.eta
            E = np.zeros((spec.m, nc))
            E[np.arange(spec.m), spec.block_ids] = sc.jw * einv[spec.block_ids]
            assert np.array_equal(newton.V[:n, :nc], newton.GT @ E)


class TestAnalyticPrograms:
    def test_margin_of_unit_ball(self):
        # max s subject to s <= 1 - ||x||, x in R^2  ->  s* = 1 at x = 0
        c = np.array([-1.0, 0, 0])
        G = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
        h = np.array([1.0, 0, 0])
        res = solve(c, G, h, [3])
        assert res.status == "optimal"
        assert res.obj == pytest.approx(-1.0, abs=1e-7)
        assert np.linalg.norm(res.x[1:]) < 1e-5

    def test_distance_to_unit_ball(self):
        # min t s.t. ||x - (3,4)|| <= t, ||x|| <= 1  ->  t* = 4
        c = np.array([1.0, 0, 0])
        G = np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0],
                      [0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
        h = np.array([0.0, -3.0, -4.0, 1.0, 0.0, 0.0])
        res = solve(c, G, h, [3, 3])
        assert res.status == "optimal"
        assert res.obj == pytest.approx(4.0, abs=1e-6)

    def test_small_lp(self):
        c = np.array([1.0, 2.0])
        G = np.array([[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
        h = np.array([-1.0, 0.0, 0.0])
        res = solve(c, G, h, [1, 1, 1])
        assert res.status == "optimal"
        assert res.obj == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-6)


def _warm_start_programs():
    """(c, G, h, spec) of an analytic program and of margin programs on the
    dense (desk) and the block (paper-size) Newton paths."""
    from conftest import desk_instance, random_channels
    from cran_maxmin.beamforming import _BeamProblem, per_user_gamma_upper_bound
    from cran_maxmin.model import AssociationMap

    programs = {"distance-to-unit-ball": (
        np.array([1.0, 0, 0]),
        np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0],
                  [0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
        np.array([0.0, -3.0, -4.0, 1.0, 0.0, 0.0]), ConeSpec([3, 3]))}
    _, desk, sigma2 = desk_instance(8)
    for name, ch, assoc, noise in (
            ("desk-margin", desk, AssociationMap.full(3, 6), sigma2),
            ("paper-size-margin", random_channels(1, 15, 5, 5), AssociationMap.full(5, 15), 1.0)):
        prob = _BeamProblem(ch, assoc, np.ones(ch.n_rrh), noise)
        gamma = 0.01 * per_user_gamma_upper_bound(ch, assoc, np.ones(ch.n_rrh), noise)
        template = prob._build(True)
        G, h, spec = prob._instantiate(template, gamma)
        USER_BLOCKS[spec] = prob._user_blocks(template.G, spec)
        c = np.zeros(prob.nx)
        c[0] = -1.0
        programs[name] = (c, G, h, spec)
    return programs


WARM_START_PROGRAMS = _warm_start_programs()


class TestWarmStart:
    @pytest.mark.parametrize("name", WARM_START_PROGRAMS)
    def test_start_at_its_own_optimum_takes_fewer_iterations(self, name):
        c, G, h, spec = WARM_START_PROGRAMS[name]
        cold = solve(c, G, h, spec)
        warm = solve(c, G, h, spec, start=(cold.x, cold.s, cold.z))
        assert cold.status == warm.status == "optimal"
        assert abs(warm.obj - cold.obj) <= _FEASTOL
        assert warm.iterations < cold.iterations

    def test_start_of_another_shape_is_refused(self):
        c, G, h, spec = WARM_START_PROGRAMS["distance-to-unit-ball"]
        with pytest.raises(ValueError, match="start point"):
            solve(c, G, h, spec, start=(np.zeros(3), np.ones(5), np.ones(6)))


class TestRandomCertificates:
    def test_constructed_optimal_instances(self, rng):
        solved = 0
        for _ in range(60):
            n = int(rng.integers(2, 10))
            dims = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 4)))]
            spec = ConeSpec(dims)
            if spec.m < n:
                continue
            G = rng.standard_normal((spec.m, n))
            if np.linalg.matrix_rank(G) < n:
                continue
            # strictly feasible primal and dual by construction
            h = G @ rng.standard_normal(n) + interior_point(rng, spec)
            c = -G.T @ interior_point(rng, spec)
            res = solve(c, G, h, spec)
            assert res.status == "optimal", (res.status, res.pres, res.dres)
            s = h - G @ res.x
            assert spec.jdot(s, s).min() > -1e-6
            assert (s[spec.heads] > -1e-7).all()
            assert np.linalg.norm(G.T @ res.z + c) < 2e-6 * max(1, np.linalg.norm(c))
            gap = abs(c @ res.x + h @ res.z)
            assert gap < 2e-5 * max(1.0, abs(c @ res.x))
            solved += 1
        assert solved >= 30


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve(np.zeros(2), np.zeros((3, 2)), np.zeros(3), [2])  # m mismatch
    with pytest.raises(ValueError):
        ConeSpec([0, 2])
    with pytest.raises(ValueError):
        ConeSpec([])
