"""Primal-dual interior-point solver for second-order cone programs.

Solves
    minimize    c'x
    subject to  G x + s = h,   s in K,

where K is a Cartesian product of second-order (Lorentz) cones
Q_d = {(u0, u_) in R x R^(d-1) : u0 >= ||u_||}; a cone of dimension 1 is the
nonnegative ray.  The dual is  maximize -h'z  s.t.  G'z + c = 0, z in K.

The method is an infeasible-start primal-dual path-following loop (like
CVXOPT's `coneqp` with no quadratic term) with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step.  It reports an optimum only at an
iterate that passes its strict stopping test (residuals within _FEASTOL,
gap within _ABSTOL or _RELTOL), and anything else as indeterminate at its
last iterate: the iteration limit _MAX_ITERS, a stalled step, or a Newton
matrix that fails to factor.  It looks for no certificate of an infeasible
or unbounded program.  It supports nothing beyond the form above: no free
rows, no equality constraints.

G is passed as a `CooMatrix`: its entries, sorted row-major, the form the
beamforming templates are built in.  The cones are a `ConeSpec`.

G must have full column rank (every variable must enter some cone row);
the reduced Newton matrix G' W^-2 G is then positive definite, and one
factorization per iteration serves both of its solves.  It is solved
one of two ways, picked from the shape of G by the `NewtonLayout` the
caller passes: programs under `_BLOCK_MIN_COLS` variables densify G, form
the matrix from W^-1 G and factor it whole; larger ones whose tail rows
split the columns into small blocks (the beamforming templates: one block
per user) solve it as a block-diagonal matrix plus low-rank cone-head
terms, read straight off the entries of G, without forming it.  The layout
depends only on where G's entries sit, so a caller that solves many
programs of one sparsity pattern builds it once.

A solve starts cold from (0, e, e), or warm from a nearby optimum (see
`solve_socp`).

The per-iteration cone kernels are written as few numpy calls, and each
gives bit for bit what its plain reference form gives (the tests keep those
forms).  W^-1 applies V(Jw) = V(w)^-1 through the same code as W.  The
scaling computes once per iteration what several kernels read: u'Ju of s
and z, from one stacked `jdot`, and lambda'J lambda and lambda's heads for
the divisions by lambda.  `ConeSpec.max_step` takes s and z (and their
directions) stacked as rows, with the scaling's u'Ju, so one call bounds the
step.  On the block path, each cone's G_i'Jw_i is one `np.bincount` over
G's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

_STEP = 0.99
_MIN_STEP = 1e-13
_FEASTOL = 1e-8
_ABSTOL = 1e-9
_RELTOL = 1e-8
_MAX_ITERS = 100
# weight of a warm start's optimum against the standard start (0, e, e)
_WARM_WEIGHT = 0.9999


class CooMatrix(NamedTuple):
    """A matrix as its entries (row[i], col[i]) = val[i], sorted row-major
    (the order `np.nonzero` gives).  A cone template holds no exact zero; an
    instance, which scales a template's values on the template's pattern,
    may hold explicit zeros."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row, self.col] = self.val
        return out


class ConeSpec:
    """Index bookkeeping for a product of second-order cones."""

    __slots__ = ("dims", "heads", "block_ids", "m", "deg", "nblocks")

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("cone dimensions must be positive integers")
        self.dims = dims
        self.nblocks = len(dims)
        heads = np.zeros(self.nblocks, dtype=np.intp)
        np.cumsum(dims[:-1], out=heads[1:] if self.nblocks > 1 else heads[:0])
        self.heads = heads
        self.m = int(sum(dims))
        # barrier degree: each Lorentz cone has Jordan rank 2
        self.deg = 2 * self.nblocks
        self.block_ids = np.repeat(np.arange(self.nblocks), dims)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        e[self.heads] = 1.0
        return e

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-block standard inner products."""
        return np.add.reduceat(u * v, self.heads)

    def jdot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-block hyperbolic products u0*v0 - u_'v_, row by row if u and
        v hold several vectors as rows."""
        prod = u * v
        return 2.0 * prod.take(self.heads, axis=-1) - np.add.reduceat(prod, self.heads, axis=-1)

    def jprod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v = (u'v, u0*v_ + v0*u_) per block."""
        out = u * v[self.heads][self.block_ids] + v * u[self.heads][self.block_ids]
        out[self.heads] = self.dot(u, v)
        return out

    def max_step(self, u: np.ndarray, d: np.ndarray, uu: np.ndarray) -> float:
        """Largest alpha >= 0 with u + alpha*d in K, for u interior with
        uu = u'Ju per cone (`_Scaling.uu`).  u and d may hold several points
        and their directions as rows, uu their products row by row; the step
        is then the largest that keeps every row in K.

        Per cone, the step is the nearer root of the quadratic
        (u + alpha d)'J(u + alpha d) = 0 where it leaves the cone, capped by
        the head crossing.  There are only a few numbers per cone, so the
        root is picked in one Python pass over them, a NaN carried through
        as np.minimum and np.min carry it."""
        from math import sqrt

        du = np.array((d, u))
        # a = d'Jd, b = u'Jd, c0 = u'Ju and the heads d0, u0, row by row
        nums = np.concatenate((self.jdot(du, d), uu[None], du.take(self.heads, axis=-1)))
        step = np.inf
        for a, b, c0, d0, u0 in zip(*nums.reshape(5, -1).tolist()):
            if a < 0.0:
                disc = b * b - a * c0
                # NaN where math.sqrt would raise, as np.sqrt gives (a NaN disc passes)
                alpha = (-b - sqrt(disc)) / a if not disc < 0.0 else np.nan
            elif a > 0.0 and b < 0.0:
                # the nearer root if real
                disc = b * b - a * c0
                alpha = c0 / (-b + sqrt(disc)) if disc >= 0.0 else np.inf
            elif a == 0.0 and b < 0.0:
                alpha = -c0 / (2.0 * b)  # the linear crossing
            else:
                alpha = np.inf
            # apex exits (head sign flip while the hyperbolic form only grazes
            # zero) are invisible to the quadratic; the head crossing is
            # always a valid upper bound on the feasible interval
            if d0 < 0.0:
                head = -u0 / d0
                if head < alpha or head != head:
                    alpha = head
            if alpha < step or alpha != alpha:
                step = alpha
        return step


class _Scaling:
    """Nesterov-Todd scaling W for a product of Lorentz cones.

    Per block W = eta * V(w) with w'Jw = 1 and V(w) the symmetric
    J-orthogonal factor (V(w)^2 = 2ww' - J), so that
    lambda = W z = W^-1 s.  The inverse is V(w)^-1 = J V(w) J = V(Jw), and
    V(Jw) u forms the same products in the same order as J V(w) J u, so
    W^-1 is applied as V(Jw) / eta with bit-identical results.

    It keeps what the rest of the iteration reads at the same point: uu, the
    per-cone s'Js and z'Jz as rows (`ConeSpec.max_step` bounds the step from
    them), and lambda'J lambda and lambda's heads, which `lam_div` reads.
    """

    __slots__ = ("spec", "uu", "w", "jw", "w0", "w0p1", "eta", "eta_b", "lam",
                 "lam_rho", "lam0_b")

    def __init__(self, spec: ConeSpec, s: np.ndarray, z: np.ndarray):
        self.spec = spec
        heads, bid = spec.heads, spec.block_ids
        sz = np.array((s, z))
        self.uu = spec.jdot(sz, sz)
        if (self.uu <= 0).any():
            raise LinAlgError("scaling point left the cone interior")
        sbar, zbar = sz / np.sqrt(self.uu)[:, bid]
        gamma = np.sqrt((1.0 + spec.dot(sbar, zbar)) / 2.0)
        jz = -zbar
        jz[heads] = zbar[heads]
        self.w = (sbar + jz) / (2.0 * gamma)[bid]
        self.w0 = self.w[heads]
        self.jw = -self.w
        self.jw[heads] = self.w0
        self.w0p1 = 1.0 + self.w0
        self.eta = (self.uu[0] / self.uu[1]) ** 0.25
        self.eta_b = self.eta[bid]
        self.lam = self.apply_w(z)
        self.lam_rho = spec.jdot(self.lam, self.lam)
        self.lam0_b = self.lam[heads][bid]

    def lam_div(self, d: np.ndarray) -> np.ndarray:
        """Solve lambda o u = d for u."""
        spec = self.spec
        u0 = spec.jdot(self.lam, d) / self.lam_rho
        out = (d - u0[spec.block_ids] * self.lam) / self.lam0_b
        out[spec.heads] = u0
        return out

    def _v(self, w: np.ndarray, u: np.ndarray) -> np.ndarray:
        """V(w) u, with w one of self.w and self.jw; a matrix u is
        transformed column by column."""
        heads = self.spec.heads
        w0, w0p1 = self.w0, self.w0p1
        if u.ndim == 2:
            w, w0, w0p1 = w[:, None], w0[:, None], w0p1[:, None]
        u0 = u[heads]
        wu0 = w0 * u0
        q = np.add.reduceat(w * u, heads, axis=0) - wu0
        out = u + w * (u0 + q / w0p1)[self.spec.block_ids]
        out[heads] = wu0 + q
        return out

    def apply_w(self, u: np.ndarray) -> np.ndarray:
        return self._v(self.w, u) * self.eta_b

    def apply_w_inv(self, u: np.ndarray) -> np.ndarray:
        return self._v(self.jw, u) / self.eta_b

    def apply_w_inv_mat(self, B: np.ndarray) -> np.ndarray:
        return self._v(self.jw, B) / self.eta_b[:, None]


# Programs with fewer variables than this factor G' W^-2 G whole: below it
# the block solver's extra numpy calls cost more than the dense kernels.
# Forced onto desk programs (73 variables), the block solver gave the same
# values within 3e-10 relative but took 0.48-0.59 s instead of 0.27-0.28 s
# on eight desk max-mins (`solve_max_min`, full association, seeds 0-7),
# and 0.29-0.35 s instead of 0.09-0.10 s on three tiny oracle instances
# (configs/tiny.json trials 0-2 at 8 Mb/s); six runs each, one BLAS
# thread, 2-vCPU virtual machine.
_BLOCK_MIN_COLS = 200


def _cholesky(factor, A: np.ndarray):
    """factor(A), or None if it fails.  A factor with a non-finite diagonal
    fails: LAPACK passes NaN through silently."""
    try:
        L = factor(A)
    except LinAlgError:
        return None
    return L if np.isfinite(np.diagonal(L, axis1=-2, axis2=-1)).all() else None


def _potrf(A: np.ndarray) -> np.ndarray:
    """LAPACK's lower Cholesky factor of A, as cho_factor returns it, without
    scipy's per-call checks."""
    L, info = dpotrf(A, lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"leading minor {info} is not positive definite")
    return L


class _DenseNewton:
    """The reduced Newton matrix G' W^-2 G, formed from W^-1 G and
    Cholesky-factored whole."""

    def __init__(self, G: np.ndarray):
        self.G, self.GT = G, G.T

    def factor(self, scal: _Scaling) -> bool:
        self.scal = scal
        self.Gtil = scal.apply_w_inv_mat(self.G)
        self.L = _cholesky(_potrf, self.Gtil.T @ self.Gtil)
        return self.L is not None

    def solve(self, bx: np.ndarray, bz: np.ndarray):
        """(dx, dz) with G' W^-2 G dx = bx + G' W^-2 bz, dz = W^-2 (G dx - bz)."""
        bbz = self.scal.apply_w_inv(bz)
        dx = dpotrs(self.L, bx + self.Gtil.T @ bbz, lower=1, overwrite_b=1)[0]
        dz = self.scal.apply_w_inv(self.Gtil @ dx - bbz)
        return dx, dz


class _BlockNewton:
    """The reduced Newton matrix solved through its structure; G stays sparse
    and unscaled.  G, the cone-head matrix and the blocks are filled from
    the values of a `CooMatrix` into the places its `_BlockPattern` holds;
    no dense copy of G is formed.

    Per cone, with head row g, tail rows T and u = G_i' J w,
        G_i' W_i^-2 G_i = eta^-2 (T'T + 2 u u' - g g').
    Columns joined by a tail row form one block, so D = sum eta^-2 T'T is
    block-diagonal (one block per user in the beamforming templates); its
    blocks are padded to one size and factored as a batch.  Columns in no
    tail row (the margin or power variable) get D = delta, taken out again
    by a low-rank term.  The rank-2 remainder of every cone goes through a
    small capacitance matrix (Woodbury).  Its negative g g' terms cancel
    most of some capacitance entries once a cone's w grows, so each solve is
    refined against the exact operator, until the correction falls below
    1e-12 of dx or stops shrinking.  The residual is bx - G' dz of the dz
    the solve returns: dz = W^-1 y with y = W^-1 G dx - W^-1 bz, plus one
    correction step so that W dz reproduces y, the quantity the step uses.
    Refining against that dz, not the uncorrected one, makes the returned
    pair satisfy G' dz = bx as well.
    """

    _MAX_REFINE = 8

    def __init__(self, G: CooMatrix, p: "_BlockPattern"):
        from scipy.sparse import csr_matrix

        self.spec, self.n = p.spec, p.n
        self.G = csr_matrix((G.val, G.col, p.indptr), shape=G.shape)
        self.GT = self.G.T  # a CSC view of the same arrays
        self.H = np.zeros((p.n, p.spec.nblocks))
        self.H[p.hcol, p.hcone] = G.val[p.head]
        self.R = np.zeros(p.rshape)
        self.R[p.rindex] = G.val[~p.head]
        self.free, self.perm, self.rcone, self.pad = p.free, p.perm, p.rcone, p.pad
        self.row, self.val, self.ukey = G.row, G.val, p.ukey

    def factor(self, scal: _Scaling) -> bool:
        spec, n = self.spec, self.n
        self.scal = scal
        einv = 1.0 / scal.eta
        Rs = self.R * einv[self.rcone][:, :, None]
        D = np.matmul(Rs.transpose(0, 2, 1), Rs) + self.pad
        L = _cholesky(np.linalg.cholesky, D)
        if L is None:
            return False
        # a triangular inverse per block costs a third of numpy's batched LU
        Linv = np.stack([dtrtri(Lk, lower=1)[0] for Lk in L])
        self.Dinv = np.matmul(Linv.transpose(0, 2, 1), Linv)

        nc = spec.nblocks
        V = np.zeros((n + 1, 2 * nc + len(self.free)))
        # eta^-1 u per cone: G's entries times eta^-1 Jw of their rows, summed
        # by (column, cone) in the order of GT @ E, E the (row, cone) selector
        ejw = scal.jw * einv[spec.block_ids]
        V[:n, :nc] = np.bincount(self.ukey, self.val * ejw[self.row],
                                 minlength=n * nc).reshape(n, nc)
        V[:n, nc:2 * nc] = self.H * einv  # eta^-1 g per cone
        self.delta = np.einsum("ij,ij->i", V[self.free], V[self.free])
        self.delta[self.delta == 0.0] = 1.0
        V[self.free, 2 * nc + np.arange(len(self.free))] = np.sqrt(self.delta)
        DinvV = np.zeros_like(V)
        DinvV[self.perm] = np.matmul(self.Dinv, V[self.perm])
        DinvV[self.free] = V[self.free] / self.delta[:, None]
        sinv = np.full(V.shape[1], -1.0)
        sinv[:nc] = 0.5
        C = V.T @ DinvV
        C[np.diag_indices_from(C)] += sinv
        if not np.isfinite(C).all():
            return False
        self.lu = lu_factor(C, check_finite=False)
        self.V, self.DinvV = V, DinvV
        return True

    def _approx(self, y: np.ndarray) -> np.ndarray:
        """(D + V S V')^-1 y by Woodbury."""
        yx = np.append(y, 0.0)
        z = np.zeros(self.n + 1)
        z[self.perm] = np.matmul(self.Dinv, yx[self.perm][:, :, None])[:, :, 0]
        z[self.free] = y[self.free] / self.delta
        t = lu_solve(self.lu, self.V.T @ z, check_finite=False)
        return (z - self.DinvV @ t)[:self.n]

    def solve(self, bx: np.ndarray, bz: np.ndarray):
        """(dx, dz) with G' W^-2 G dx = bx + G' W^-2 bz, dz = W^-2 (G dx - bz)."""
        w_inv = self.scal.apply_w_inv
        bbz = w_inv(bz)

        def dz_of(dx):
            y = w_inv(self.G @ dx) - bbz
            dz = w_inv(y)
            return dz + w_inv(y - self.scal.apply_w(dz))

        dx = self._approx(bx + self.GT @ w_inv(bbz))
        last = np.inf
        for _ in range(self._MAX_REFINE):
            step = self._approx(bx - self.GT @ dz_of(dx))
            dx += step
            size = float(np.linalg.norm(step))
            if size <= 1e-12 * float(np.linalg.norm(dx)) or size > 0.5 * last:
                break
            last = size
        return dx, dz_of(dx)


class _BlockPattern:
    """What `_BlockNewton` reads off the positions of G's entries alone: the
    CSR row pointers, the head entries, the column blocks (components of the
    column-row graph through the tail rows) with their padded layout, and
    where each tail entry lands in the blocks' row matrices.  Built once per
    sparsity pattern; a program with the same pattern fills in its values."""

    def __init__(self, G: CooMatrix, spec: ConeSpec):
        # imported here: programs that stay on the dense path never load
        # scipy.sparse, which adds about 5 MB to a process
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        (m, n), row, col = G.shape, G.row, G.col
        self.spec, self.n = spec, n
        self.indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=m), out=self.indptr[1:])
        cone = spec.block_ids[row]
        self.ukey = col * spec.nblocks + cone  # (column, cone) of each entry
        self.head = spec.heads[cone] == row
        self.hcol, self.hcone = col[self.head], cone[self.head]
        tail = ~self.head
        trow, tcol = row[tail], col[tail]
        # columns joined through a tail row share a block: components of the
        # bipartite column-row graph
        link = csr_matrix((np.ones(len(trow)), (tcol, n + trow)), shape=(n + m, n + m))
        label = connected_components(link, directed=False)[1][:n]
        touched = np.zeros(n, dtype=bool)
        touched[tcol] = True
        self.free = np.flatnonzero(~touched)
        cols = np.flatnonzero(touched)
        _, colblk = np.unique(label[cols], return_inverse=True)
        colpos, nb, b = _slots(colblk)
        self.perm = np.full((nb, b), n)  # padding points at a zero row
        self.perm[colblk, colpos] = cols
        blk = np.zeros(n, dtype=np.intp)
        pos = np.zeros(n, dtype=np.intp)
        blk[cols], pos[cols] = colblk, colpos

        rows, first, entry = np.unique(trow, return_index=True, return_inverse=True)
        rowblk = blk[tcol[first]]
        rowpos, _, rmax = _slots(rowblk)
        self.rshape = (nb, rmax, b)
        self.rindex = (rowblk[entry], rowpos[entry], pos[tcol])
        self.rcone = np.zeros((nb, rmax), dtype=np.intp)  # padding rows of R are 0
        self.rcone[rowblk, rowpos] = spec.block_ids[rows]
        self.pad = np.zeros((nb, b, b))
        pb, pp = np.nonzero(self.perm == n)
        self.pad[pb, pp, pp] = 1.0
        self.width = b
        self.rank = 2 * spec.nblocks + len(self.free)


def _slots(group: np.ndarray):
    """Position of each item within its group, the group count and the
    largest group size."""
    sizes = np.bincount(group)
    order = np.argsort(group, kind="stable")
    pos = np.empty(len(group), dtype=np.intp)
    pos[order] = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos, len(sizes), int(sizes.max(initial=0))


class NewtonLayout:
    """How `solve_socp` solves the Newton systems of every program whose G
    has one sparsity pattern and whose cones are one spec: by the block
    solver, with its `_BlockPattern`, when G is large and neither its widest
    block nor its low-rank part spans more than a quarter of its columns;
    else whole.  Built once, it spares each such program the block
    structure's set-up."""

    def __init__(self, G: CooMatrix, spec: ConeSpec):
        self.block = None
        n = G.shape[1]
        if n >= _BLOCK_MIN_COLS:
            block = _BlockPattern(G, spec)
            if max(block.width, block.rank) <= n // 4:
                self.block = block

    def system(self, G: CooMatrix):
        """The Newton system of G, which must have the layout's pattern."""
        if self.block is None:
            return _DenseNewton(G.toarray())
        return _BlockNewton(G, self.block)


@dataclass
class SocpResult:
    """Outcome of a cone-program solve.

    Status "optimal" means that x/s/z passed the strict stopping test and
    obj = c'x.  Status "indeterminate" means the iteration limit, a stalled
    step or a failed factorization of the Newton matrix came first; x/s/z
    are then the last iterate's, and pres, dres and relgap its residuals.
    Neither an infeasible nor an unbounded program is looked for: the
    package poses none, and a power-min at an infeasible target ends
    indeterminate.  iterations counts the interior-point iterations run.
    """

    status: str
    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    obj: float
    iterations: int
    pres: float
    dres: float
    relgap: float


def solve_socp(c: np.ndarray, G: CooMatrix, h: np.ndarray, spec: ConeSpec,
               layout: NewtonLayout, start=None) -> SocpResult:
    """Solve the program (c, G, h, K), with the Newton systems of layout,
    which must have been built from a G with this one's sparsity pattern.

    Each iteration steps along the Newton direction of the residuals
    rx = G'z + c and rz = G x + s - h and of the complementarity s o z, from
    an interior (s, z) that need not meet them (Vandenberghe, 2010).

    start, when given, is the (x, s, z) of an optimal solve of a program of
    the same shape, say at a nearby SINR target.  The iteration then starts
    at lambda (x, s, z) + (1 - lambda) (0, e, e), with lambda =
    _WARM_WEIGHT: interior, since e is, and close to that optimum (the warm
    start of Skajaa, Andersen and Ye, Math. Prog. Comp. 5, 2013).  Without
    it, the start is (0, e, e)."""
    m, n = G.shape
    if m != spec.m or c.shape != (n,) or h.shape != (m,):
        raise ValueError("inconsistent problem dimensions")

    newton = layout.system(G)
    e = spec.identity()
    if start is None:
        x = np.zeros(n)
        sz = np.array((e, e))
    else:
        x0, s0, z0 = start
        if x0.shape != (n,) or s0.shape != (m,) or z0.shape != (m,):
            raise ValueError("start point does not fit the program")
        x = _WARM_WEIGHT * x0
        sz = _WARM_WEIGHT * np.array((s0, z0)) + (1.0 - _WARM_WEIGHT) * e
    s, z = sz  # views: a step on sz moves both
    normc = max(1.0, float(np.linalg.norm(c)))
    normh = max(1.0, float(np.linalg.norm(h)))

    pres = dres = relgap = np.inf
    it = 0
    for it in range(_MAX_ITERS):
        rx = newton.GT @ z + c
        rz = newton.G @ x + s - h
        cx = float(c @ x)
        gap = float(s @ z)

        pres = float(np.linalg.norm(rz)) / normh
        dres = float(np.linalg.norm(rx)) / normc
        relgap = gap / max(1.0, abs(cx), abs(float(h @ z)))
        if pres <= _FEASTOL and dres <= _FEASTOL and (gap <= _ABSTOL or relgap <= _RELTOL):
            return SocpResult("optimal", x, s, z, cx, it, pres, dres, relgap)

        try:
            scal = _Scaling(spec, s, z)
        except LinAlgError:
            break
        lam = scal.lam
        mu = gap / spec.deg
        if mu <= 0.5e-13:  # 1e-13 of the standard start's mu
            break

        if not newton.factor(scal):
            break

        lamlam = spec.jprod(lam, lam)

        def direction(ds, damp):
            vs = scal.lam_div(ds)
            brz = -damp * rz
            dx, dz = newton.solve(-damp * rx, brz - scal.apply_w(vs))
            # Delta s from the linearized primal equation G dx + ds = -damp rz:
            # W (vs - W dz) meets it only up to W's condition number, which
            # grows as mu falls
            dsz = np.array((brz - newton.G @ dx, dz))
            return dx, dsz, vs

        # predictor
        _, dsza, vsa = direction(-lamlam, 1.0)
        alpha = min(1.0, spec.max_step(sz, dsza, scal.uu))
        s_aff, z_aff = sz + alpha * dsza
        sigma = min(1.0, max(0.0, float(s_aff @ z_aff) / spec.deg / mu)) ** 3

        # corrector; Mehrotra's second-order term takes the scaled steps from
        # complementarity, W^-1 Delta s = vs - W Delta z
        wdza = scal.apply_w(dsza[1])
        dx, dsz, _ = direction(-lamlam - spec.jprod(vsa - wdza, wdza) + sigma * mu * e,
                               1.0 - sigma)

        alpha = min(1.0, _STEP * spec.max_step(sz, dsz, scal.uu))
        if alpha < _MIN_STEP:
            break

        x += alpha * dx
        sz += alpha * dsz

    return SocpResult("indeterminate", x, s, z, float(c @ x), it + 1, pres, dres, relgap)
