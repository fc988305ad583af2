"""Primal-dual interior-point core for small dense conic programs.

Solves

    minimize    <c, x> + c_f^T x_f
    subject to  A x + A_f x_f = b,   x in K,

where ``K`` is a product of real symmetric PSD blocks and a nonnegative
vector block, and the free variables x_f enter through the dense columns
A_f (a matrix with no columns when there are none).  The method is path
following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step; the free columns border the Newton system's Schur complement.

Complex Hermitian blocks are handled one layer up (:mod:`crbeam.sdp`)
through the real symmetric embedding ``[[Re X, -Im X], [Im X, Re X]]``.
Blocks carrying ``embed_dim`` metadata are kept on that structured
subspace by an orthogonal projection each iteration, which plays the
role of explicit skew-symmetry equality constraints without enlarging
the Newton system.

Constraint coefficient matrices are mostly elementary (a few nonzero
entries coupling block entries), so the Schur complement is assembled
through a per-block sparse representation rather than dense triple
products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

PSD, NONNEG = "psd", "nonneg"

# Why solve_cone_program stopped.  The status says what the reported
# (best) iterate achieves; the termination says which exit was taken, so
# an early exit whose best iterate still meets ``tol`` reads Optimal with
# the exit named here.
TERMINATIONS = (
    "target_tol",           # metric reached target_tol
    "no_progress",          # best iterate within tol and the iteration stopped improving
    "dual_ray",             # Infeasible: dual improving ray found
    "primal_ray",           # Unbounded: primal improving ray found
    "schur_failure",        # NT scaling or Schur factorization raised LinAlgError
    "nonfinite_direction",  # Newton direction not finite
    "step_stall",           # step lengths below 1e-8 three iterations running
    "max_iter",             # iteration limit reached
)

_DENSE_ROW_NNZ = 16  # rows with more nonzeros than this use dense matmuls
STEP_FRAC = 0.99     # fraction of the distance to the cone boundary each step takes
INFEAS_TOL = 1e-6    # least objective improvement rate of an infeasibility ray


@dataclass(frozen=True)
class Block:
    kind: str
    dim: int
    embed_dim: Optional[int] = None  # complex dimension when this PSD block is an embedding

    def __post_init__(self):
        if self.kind not in (PSD, NONNEG):
            raise ValueError(f"unknown block kind {self.kind}")
        if self.kind == PSD and self.embed_dim is not None and 2 * self.embed_dim != self.dim:
            raise ValueError("embedded PSD block must have dim = 2 * embed_dim")


@dataclass
class ConeProgram:
    """Block-structured conic program in equality standard form.

    Every cone block appears in at least one row (``SdpProblem.validate``),
    so each block's ``a_rows`` is a nonempty index array.
    """

    blocks: List[Block]
    c: List[np.ndarray]                       # objective per block (matrix or vector)
    a_rows: List[np.ndarray]                  # per block: indices of the rows it appears in
    a_coeff: List[np.ndarray]                 # per block: (r, n, n) or (r, n) coefficient stack
    b: np.ndarray
    c_free: np.ndarray                        # (n_free,) objective of the free variables
    a_free: np.ndarray                        # (n_rows, n_free) their constraint columns

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]

    def barrier_degree(self) -> int:
        return sum(blk.dim for blk in self.blocks)


@dataclass
class IpmResult:
    status: str                              # Optimal | Infeasible | Unbounded | MaxIter
    x: List[np.ndarray]
    x_free: np.ndarray
    y: np.ndarray
    z: List[np.ndarray]
    pobj: float
    dobj: float
    res_primal: float
    res_dual: float
    gap_rel: float
    iterations: int
    termination: str                         # why the iteration stopped; one of TERMINATIONS
    history: List[dict] = field(default_factory=list)
    certificate: Optional[dict] = None       # dual/primal improving ray when infeasible/unbounded


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2


def _embed_project(m: np.ndarray, nc: int) -> np.ndarray:
    """Project a symmetric 2nc x 2nc matrix onto the complex-structure subspace.

    The subspace is {[[A, -B], [B, A]] : A symmetric, B skew}; the projection
    averages the two diagonal blocks and takes the skew part of the
    off-diagonal block, i.e. (S + J S J^T) / 2 with J the symplectic form.
    """
    a = (m[:nc, :nc] + m[nc:, nc:]) / 2
    a = (a + a.T) / 2
    b = (m[nc:, :nc] - m[nc:, :nc].T) / 2
    out = np.empty_like(m)
    out[:nc, :nc] = a
    out[nc:, nc:] = a
    out[nc:, :nc] = b
    out[:nc, nc:] = -b
    return out


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice when it is one ascending run of indices, else ``idx`` itself."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _BlockA:
    """Constraint coefficients for one cone block, in flat sparse form."""

    def __init__(self, blk: Block, rows: np.ndarray, coeff: np.ndarray):
        self.rows = rows
        sel = _as_slice(rows)
        # where this block's rows x rows entries sit in the Schur matrix
        self.schur_index = (sel, sel) if isinstance(sel, slice) else np.ix_(rows, rows)
        self.is_psd = blk.kind == PSD
        n_local = rows.shape[0]
        flat = coeff.reshape(n_local, -1)
        self.mat = sp.csr_matrix(flat)
        self.mat_t = self.mat.T.tocsr()
        self.n = blk.dim
        if self.is_psd:
            nnz_per_row = np.diff(self.mat.indptr)
            dense_idx = np.nonzero(nnz_per_row > _DENSE_ROW_NNZ)[0]
            sparse_idx = np.nonzero(nnz_per_row <= _DENSE_ROW_NNZ)[0]
            self.dense_sel, self.sparse_sel = _as_slice(dense_idx), _as_slice(sparse_idx)
            self.dense_stack = coeff[dense_idx] if dense_idx.size else None
            self.slot_col = None
            if sparse_idx.size:
                # slot q of sparse row r holds the row's q-th stored entry in
                # CSR order (flat column, value), zero-padded to the longest row
                sub = self.mat[sparse_idx]
                counts = np.diff(sub.indptr)
                row = np.repeat(np.arange(sparse_idx.size), counts)
                slot = np.arange(sub.nnz) - np.repeat(sub.indptr[:-1], counts)
                shape = (max(1, int(counts.max())), sparse_idx.size)
                self.slot_col = np.zeros(shape, dtype=int)
                self.slot_val = np.zeros(shape)
                self.slot_col[slot, row] = sub.indices
                self.slot_val[slot, row] = sub.data
                self.pad_i, self.pad_j = np.divmod(self.slot_col.T, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A_block(x): one inner product per local row."""
        return self.mat @ x.ravel()

    def apply_t(self, y_local: np.ndarray) -> np.ndarray:
        out = self.mat_t @ y_local
        return out.reshape(self.n, self.n) if self.is_psd else out

    def gram(self, w: np.ndarray) -> np.ndarray:
        """M_local = [tr(C_r W C_s W)]_{rs} for the NT matrix ``w`` (PSD blocks).

        With U_s = W C_s W flattened, entry (r, s) is row r of ``mat``
        contracted with U_s term by term in CSR order, starting from zero,
        as ``mat @ U.T`` sums it; both paths below keep that order, so the
        result is the same to the last bit.  Elementary rows (the common
        case: subblock-coupling constraints) form U_s as padded batched
        rank-one updates W C W = sum_t v_t (W e_i)(W e_j)^T, avoiding dense
        triple products.
        """
        u_dense = u_sparse = None
        if self.dense_stack is not None:
            u_dense = (w @ self.dense_stack @ w).reshape(self.dense_stack.shape[0], -1)
        if self.slot_col is not None:
            r_s, nmax = self.pad_i.shape
            # w is symmetric: row gathers give the needed columns contiguously
            left = w[self.pad_i.ravel()].reshape(r_s, nmax, self.n) * self.slot_val.T[:, :, None]
            right = w[self.pad_j.ravel()].reshape(r_s, nmax, self.n)
            u_sparse = np.matmul(left.transpose(0, 2, 1), right).reshape(r_s, -1)
        if u_dense is None:
            # elementary rows only: gather each slot's column of U rather than
            # transposing all of U; m_t[s, r] = M_local[r, s], and _sym gives
            # the same bits for a matrix and its transpose
            m_t = np.zeros((r_s, r_s))
            term = np.empty_like(m_t)
            for col, val in zip(self.slot_col, self.slot_val):
                np.take(u_sparse, col, axis=1, out=term, mode="clip")   # "raise" would buffer ``out``
                term *= val
                m_t += term
            return _sym(m_t)
        # the dense rows' sparse product needs U^T in row-major order; the
        # elementary rows share it
        u_t = np.empty((self.n * self.n, self.rows.shape[0]))
        u_t[:, self.dense_sel] = u_dense.T
        if u_sparse is not None:
            u_t[:, self.sparse_sel] = u_sparse.T
        return _sym(self.mat @ u_t)


def _apply_a(ops, prog: ConeProgram, x: Sequence[np.ndarray], xf: np.ndarray) -> np.ndarray:
    out = np.zeros(prog.n_rows)
    for op, xb in zip(ops, x):
        out[op.rows] += op.apply(xb)
    return out + prog.a_free @ xf


def _apply_at(ops, y: np.ndarray) -> List[np.ndarray]:
    return [op.apply_t(y[op.rows]) for op in ops]


def _inner(u: Sequence[np.ndarray], v: Sequence[np.ndarray]) -> float:
    return float(sum(np.sum(a * b) for a, b in zip(u, v)))


def _max_step_psd(lx: np.ndarray, dx: np.ndarray) -> float:
    """sup {alpha : x + alpha dx >= 0} for PD x with Cholesky factor ``lx``."""
    m = sla.solve_triangular(lx, dx, lower=True)
    m = sla.solve_triangular(lx, m.T, lower=True)
    lam_min = float(np.linalg.eigvalsh(_sym(m))[0])
    if lam_min >= 0:
        return np.inf
    return -1.0 / lam_min


def _max_step_nonneg(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


class _NTScaling:
    """Per-block NT scaling data for one iteration."""

    def __init__(self, blocks, x, z):
        self.w = []        # NT matrix (psd) or w^2 vector (nonneg)
        self.g = []        # factor G with W = G G^T
        self.ginv = []
        self.lam = []      # scaled-point spectrum
        self.lx = []       # Cholesky factors of x and z (psd), reused by the step length
        self.lz = []
        for blk, xb, zb in zip(blocks, x, z):
            if blk.kind == PSD:
                lx = np.linalg.cholesky(xb)
                lz = np.linalg.cholesky(zb)
                self.lx.append(lx)
                self.lz.append(lz)
                u, s, vt = np.linalg.svd(lz.T @ lx)
                s = np.maximum(s, 1e-300)
                g = lx @ vt.T / np.sqrt(s)
                ginv = (vt.T * np.sqrt(s)).T @ sla.solve_triangular(lx, np.eye(blk.dim), lower=True)
                self.g.append(g)
                self.ginv.append(ginv)
                self.w.append(_sym(g @ g.T))
                self.lam.append(s)
            else:
                self.g.append(np.sqrt(xb / zb))
                self.ginv.append(None)
                self.w.append(xb / zb)
                self.lam.append(np.sqrt(xb * zb))
                self.lx.append(None)
                self.lz.append(None)

    def apply(self, j: int, v: np.ndarray, blocks) -> np.ndarray:
        """H_j(v) = W v W for PSD, w^2 * v for nonneg."""
        if blocks[j].kind == PSD:
            return self.w[j] @ v @ self.w[j]
        return self.w[j] * v


def _schur(ops, prog: ConeProgram, nt: _NTScaling) -> np.ndarray:
    m = np.zeros((prog.n_rows, prog.n_rows))
    for j, (blk, op) in enumerate(zip(prog.blocks, ops)):
        if blk.kind == PSD:
            m[op.schur_index] += op.gram(nt.w[j])
        else:
            dense = op.mat.multiply(nt.w[j][np.newaxis, :]) @ op.mat.T
            m[op.schur_index] += np.asarray(dense.todense())
    return _sym(m)


class _SchurSolver:
    """Factorization of [[M, A_f], [A_f^T, 0]] with one step of iterative refinement."""

    def __init__(self, m: np.ndarray, af: np.ndarray):
        self.m = m
        self.af = af
        jitter = 0.0
        base = max(np.trace(m) / max(1, m.shape[0]), 1.0)
        for _ in range(8):
            try:
                self.chol = sla.cho_factor(m + jitter * np.eye(m.shape[0]), lower=True)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 100.0, 1e-14 * base)
        else:
            raise np.linalg.LinAlgError("Schur complement factorization failed")
        self.t = sla.cho_solve(self.chol, af)
        s = af.T @ self.t
        self.s = _sym(s) + 1e-300 * np.eye(s.shape[0])

    def _solve_once(self, rhs: np.ndarray, rhs_free: np.ndarray):
        u = sla.cho_solve(self.chol, rhs)
        dxf = np.linalg.solve(self.s, self.af.T @ u - rhs_free)
        return u - self.t @ dxf, dxf

    def solve(self, rhs: np.ndarray, rhs_free: np.ndarray):
        dy, dxf = self._solve_once(rhs, rhs_free)
        # one refinement pass against the augmented system
        r1 = rhs - self.m @ dy - self.af @ dxf
        r2 = rhs_free - self.af.T @ dy
        e1, e2 = self._solve_once(r1, r2)
        return dy + e1, dxf + e2


def solve_cone_program(
    prog: ConeProgram,
    tol: float = 1e-8,
    max_iter: int = 100,
    target_tol: float = 1e-10,
) -> IpmResult:
    """Run the predictor-corrector NT interior-point method.

    ``tol`` is the acceptance threshold for status Optimal; the iteration
    keeps polishing towards ``target_tol`` while it makes progress, so
    reported residuals are typically well below ``tol``.  The result's
    ``termination`` names the exit taken (see ``TERMINATIONS``).
    """
    blocks = prog.blocks
    nu = prog.barrier_degree()
    if nu == 0:
        raise ValueError("program has no cone variables")
    m_rows = prog.n_rows

    # -- row equilibration: unit max coefficient norm per constraint --------
    row_scale = np.zeros(m_rows)
    for j, blk in enumerate(prog.blocks):
        rows, coeff = prog.a_rows[j], prog.a_coeff[j]
        axes = (1, 2) if blk.kind == PSD else 1
        np.maximum.at(row_scale, rows, np.sqrt(np.sum(coeff**2, axis=axes)))
    row_scale = np.maximum(row_scale, np.sqrt(np.sum(prog.a_free**2, axis=1)))
    row_scale = np.maximum(row_scale, 1e-12)
    # free-column equilibration balances t-like variables against the blocks;
    # every free column has a nonzero (SdpProblem.validate)
    a_free = prog.a_free / row_scale[:, np.newaxis]
    col_scale = np.max(np.abs(a_free), axis=0, initial=0.0)
    prog = ConeProgram(
        blocks=prog.blocks,
        c=prog.c,
        a_rows=prog.a_rows,
        a_coeff=[
            coeff / row_scale[rows].reshape((-1,) + (1,) * (coeff.ndim - 1))
            for rows, coeff in zip(prog.a_rows, prog.a_coeff)
        ],
        b=prog.b / row_scale,
        c_free=prog.c_free / col_scale,
        a_free=a_free / col_scale,
    )
    af = prog.a_free

    ops = [_BlockA(blk, rows, coeff) for blk, rows, coeff in zip(prog.blocks, prog.a_rows, prog.a_coeff)]

    # -- scaling of the data ------------------------------------------------
    norm_b = max(1.0, float(np.max(np.abs(prog.b))))
    norm_c = max(1.0, max(float(np.max(np.abs(cb))) if cb.size else 0.0 for cb in prog.c + [prog.c_free]))
    c_s = [cb / norm_c for cb in prog.c]
    cf_s = prog.c_free / norm_c
    b_s = prog.b / norm_b

    x = []
    z = []
    for blk in blocks:
        if blk.kind == PSD:
            x.append(np.eye(blk.dim))
            z.append(np.eye(blk.dim))
        else:
            x.append(np.ones(blk.dim))
            z.append(np.ones(blk.dim))
    xf = np.zeros(af.shape[1])
    y = np.zeros(m_rows)

    history: List[dict] = []
    best = None
    stall = 0

    # sums over blocks take the free terms last; another order rounds differently
    def residuals(x, xf, y, z):
        rp = b_s - _apply_a(ops, prog, x, xf)
        aty = _apply_at(ops, y)
        rd = [c_s[j] - aty[j] - z[j] for j in range(len(blocks))]
        rd_f = cf_s - af.T @ y
        pobj = _inner(c_s + [cf_s], x + [xf])
        dobj = float(b_s @ y)
        res_p = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b_s)))
        res_d = float(np.sqrt(sum(np.sum(r * r) for r in rd + [rd_f]))) / (
            1.0 + float(np.sqrt(sum(np.sum(cb * cb) for cb in c_s + [cf_s])))
        )
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, rd, rd_f, pobj, dobj, res_p, res_d, gap

    def record_best(metric, x, xf, y, z):
        nonlocal best
        if best is None or metric < best[0]:
            best = (metric, [xb.copy() for xb in x], xf.copy(), y.copy(), [zb.copy() for zb in z])

    def check_infeasible(yv):
        """Dual improving ray: b^T y > 0, -A^T y in the dual cone and A_f^T y = 0."""
        ny = float(np.linalg.norm(yv))
        if ny < 1e-12:
            return None
        yn = yv / ny
        improvement = float(b_s @ yn)
        if improvement < INFEAS_TOL:
            return None
        aty = _apply_at(ops, yn)
        viol = 0.0
        scale = 1.0
        for j, blk in enumerate(blocks):
            zj = -aty[j]
            if blk.kind == PSD:
                scale = max(scale, float(np.linalg.norm(zj)))
                viol = max(viol, max(0.0, -float(np.linalg.eigvalsh(_sym(zj))[0])))
            else:
                scale = max(scale, float(np.max(np.abs(zj))) if zj.size else 0.0)
                viol = max(viol, max(0.0, -float(np.min(zj))) if zj.size else 0.0)
        viol = max(viol, float(np.max(np.abs(af.T @ yn), initial=0.0)))
        if viol <= 1e-9 * scale:
            return {"kind": "dual_ray", "y": yn, "improvement": improvement, "cone_violation": viol}
        return None

    def check_unbounded(xv, xfv):
        nx = float(np.sqrt(sum(np.sum(b * b) for b in xv + [xfv])))
        if nx < 1e-12:
            return None
        xr, xfr = [b / nx for b in xv], xfv / nx
        rate = _inner(c_s + [cf_s], xr + [xfr])
        if rate > -INFEAS_TOL:
            return None
        if float(np.linalg.norm(_apply_a(ops, prog, xr, xfr))) <= 1e-9:
            return {"kind": "primal_ray", "x": xr, "x_free": xfr, "objective_rate": rate}
        return None

    status, termination = "MaxIter", "max_iter"
    certificate = None
    it = 0
    no_progress = 0
    for it in range(1, max_iter + 1):
        rp, rd, rd_f, pobj, dobj, res_p, res_d, gap = residuals(x, xf, y, z)
        mu = _inner(x, z) / nu
        # at large objective magnitudes gap_rel bottoms out on cancellation noise;
        # mu is then the sharper complementarity measure
        mu_rel = abs(mu) * nu / (1.0 + abs(pobj) + abs(dobj))
        metric = max(res_p, res_d, min(gap, mu_rel))
        if best is not None and metric > 0.9 * best[0]:
            no_progress += 1
        else:
            no_progress = 0
        record_best(metric, x, xf, y, z)
        history.append(
            {
                "iter": it - 1,
                "pobj": pobj * norm_b * norm_c,
                "dobj": dobj * norm_b * norm_c,
                "res_primal": res_p,
                "res_dual": res_d,
                "gap_rel": gap,
                "mu": mu,
            }
        )
        if metric <= target_tol:
            status, termination = "Optimal", "target_tol"
            break
        if best[0] <= tol and (no_progress >= 3 or stall >= 2):
            status, termination = "Optimal", "no_progress"
            break

        # divergence-based certificates
        if res_p > 1e3 * tol and it > 5:
            cert = check_infeasible(y)
            if cert is not None:
                status, termination, certificate = "Infeasible", "dual_ray", cert
                break
        if it > 5:
            cert = check_unbounded(x, xf)
            if cert is not None:
                status, termination, certificate = "Unbounded", "primal_ray", cert
                break

        try:
            nt = _NTScaling(blocks, x, z)
            solver = _SchurSolver(_schur(ops, prog, nt), af)
        except np.linalg.LinAlgError:
            termination = "schur_failure"
            break

        def newton(rc_blocks):
            rhs = rp.copy()
            for j, op in enumerate(ops):
                hv = nt.apply(j, rd[j], blocks)
                rhs[op.rows] -= op.apply(rc_blocks[j] - hv)
            dy, dxf = solver.solve(rhs, rd_f)
            aty = _apply_at(ops, dy)
            dx, dz = [], []
            for j, blk in enumerate(blocks):
                dzj = rd[j] - aty[j]
                if blk.kind == PSD:
                    dzj = _sym(dzj)
                dxj = rc_blocks[j] - nt.apply(j, dzj, blocks)
                if blk.kind == PSD:
                    dxj = _sym(dxj)
                dz.append(dzj)
                dx.append(dxj)
            return dx, dxf, dy, dz

        def max_steps(dx, dz):
            ap = ad = np.inf
            for j, blk in enumerate(blocks):
                if blk.kind == PSD:
                    ap = min(ap, _max_step_psd(nt.lx[j], dx[j]))
                    ad = min(ad, _max_step_psd(nt.lz[j], dz[j]))
                else:
                    ap = min(ap, _max_step_nonneg(x[j], dx[j]))
                    ad = min(ad, _max_step_nonneg(z[j], dz[j]))
            return ap, ad

        # predictor (affine) step
        dx_a, _, dy_a, dz_a = newton([-xb for xb in x])
        ap_a, ad_a = max_steps(dx_a, dz_a)
        ap_a, ad_a = min(1.0, STEP_FRAC * ap_a), min(1.0, STEP_FRAC * ad_a)
        gap_now = mu * nu
        gap_aff = 0.0
        for j in range(len(blocks)):
            gap_aff += float(np.sum((x[j] + ap_a * dx_a[j]) * (z[j] + ad_a * dz_a[j])))
        sigma = min(0.99, max(1e-10, (max(gap_aff, 0.0) / gap_now) ** 3))

        # corrector: scaled-space Mehrotra second-order term
        rc = []
        for j, blk in enumerate(blocks):
            if blk.kind == PSD:
                g, ginv, lam = nt.g[j], nt.ginv[j], nt.lam[j]
                d_x = ginv @ dx_a[j] @ ginv.T
                d_z = g.T @ dz_a[j] @ g
                nmat = -np.diag(lam**2) - _sym(d_x @ d_z)
                nmat[np.diag_indices_from(nmat)] += sigma * mu
                rc_s = 2.0 * nmat / np.add.outer(lam, lam)
                rc.append(_sym(g @ rc_s @ g.T))
            else:
                rc.append((sigma * mu - x[j] * z[j] - dx_a[j] * dz_a[j]) / z[j])
        dx, dxf, dy, dz = newton(rc)
        if any(not np.all(np.isfinite(d)) for d in dx + [dxf]) or not np.all(np.isfinite(dy)):
            termination = "nonfinite_direction"
            break
        ap, ad = max_steps(dx, dz)
        ap, ad = min(1.0, STEP_FRAC * ap), min(1.0, STEP_FRAC * ad)
        if min(ap, ad) < 1e-8:
            stall += 1
            if stall >= 3:
                termination = "step_stall"
                break
        else:
            stall = 0

        for j, blk in enumerate(blocks):
            x[j] = x[j] + ap * dx[j]
            z[j] = z[j] + ad * dz[j]
            if blk.kind == PSD:
                x[j] = _sym(x[j])
                z[j] = _sym(z[j])
                if blk.embed_dim is not None:
                    x[j] = _embed_project(x[j], blk.embed_dim)
                    z[j] = _embed_project(z[j], blk.embed_dim)
        xf = xf + ap * dxf
        y = y + ad * dy

    if status in ("MaxIter", "Optimal") and best is not None:
        # report the best iterate seen (current one, unless we stalled past it)
        _, bx, bxf, by, bz = best
        rp, rd, rd_f, pobj, dobj, res_p, res_d, gap = residuals(bx, bxf, by, bz)
        metric = max(res_p, res_d, gap)
        if status != "Optimal" and metric <= tol:
            status = "Optimal"
        x, xf, y, z = bx, bxf, by, bz
    else:
        rp, rd, rd_f, pobj, dobj, res_p, res_d, gap = residuals(x, xf, y, z)

    # undo data scaling (row equilibration folds into the multipliers)
    y_out = y * norm_c / row_scale
    if certificate is not None and "y" in certificate:
        certificate = dict(certificate)
        certificate["y"] = certificate["y"] / row_scale
    return IpmResult(
        status=status,
        x=[xb * norm_b for xb in x],
        x_free=xf * norm_b / col_scale,
        y=y_out,
        z=[zb * norm_c for zb in z],
        pobj=pobj * norm_b * norm_c,
        dobj=dobj * norm_b * norm_c,
        res_primal=res_p,
        res_dual=res_d,
        gap_rel=gap,
        iterations=it,
        termination=termination,
        history=history,
        certificate=certificate,
    )
