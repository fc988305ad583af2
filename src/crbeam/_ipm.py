"""Primal-dual interior-point core for small dense conic programs.

Solves

    minimize    <c, x>
    subject to  A x = b,   x in K,

where ``K`` is a product of complex Hermitian PSD blocks and ``A x``
includes the inequality slacks: slack s_i >= 0 enters row ``slack_rows[i]``
alone, with coefficient ``slack_coef[i]``, so each adds one term to the
diagonal of the Schur complement.  There are no free variables: the
caller substitutes them out (``crbeam.sdp``).  The method is path
following with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step.  Slacks are internal: the result reports the PSD blocks in ``x``
and ``z``.

The iteration is real: on entry ``solve_cone_program`` maps each n x n
block X to its embedding ``[[Re X, -Im X], [Im X, Re X]]`` and each
coefficient C to half of its own, so inner products are unchanged, and
it maps the results back on exit.  An orthogonal projection each
iteration keeps the iterates on the embedding's structured subspace,
which plays the role of explicit skew-symmetry equality constraints
without enlarging the Newton system.

Each iterate is evaluated once, by one residual pass that the status
test, the best-iterate record, the Newton right-hand sides and the
report all read.

Constraint coefficient matrices are mostly elementary (a few nonzero
entries coupling block entries).  Each block keeps every coefficient row in
one of two forms, padded nonzero slots for the elementary rows and a dense
matrix for the rest (``_BlockA``), and the Schur complement is assembled
from both without a dense triple product per elementary row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
import scipy.linalg as sla

from .numerics import hermitize

# Why solve_cone_program stopped.  The status says what the reported
# (best) iterate achieves; the termination says which exit was taken, so
# an early exit whose best iterate still meets ``tol`` reads Optimal with
# the exit named here.
TERMINATIONS = (
    "target_tol",           # metric reached target_tol
    "no_progress",          # best iterate within tol and the iteration stopped improving
    "schur_failure",        # NT scaling or Schur factorization raised LinAlgError
    "nonfinite_direction",  # Newton direction not finite
    "step_stall",           # step lengths below 1e-8 three iterations running
    "max_iter",             # MAX_ITER iterations reached
)

_DENSE_ROW_NNZ = 16  # rows with more nonzeros than this use dense matmuls
STEP_FRAC = 0.99     # fraction of the distance to the cone boundary each step takes
MAX_ITER = 120       # iteration limit of solve_cone_program, read at each call


@dataclass
class ConeProgram:
    """Block-structured conic program in equality standard form.

    Block j is a complex Hermitian PSD matrix of size n = ``a_coeff[j].shape[-1]``.
    Every cone block appears in at least one row (``SdpProblem.validate``),
    so each block's ``a_rows`` is a nonempty index array.
    """

    c: List[np.ndarray]                       # per block: (n, n) Hermitian objective
    a_rows: List[np.ndarray]                  # per block: indices of the rows it appears in
    a_coeff: List[np.ndarray]                 # per block: (r, n, n) Hermitian coefficient stack
    b: np.ndarray
    slack_rows: np.ndarray                    # (n_slack,) the inequality rows, one slack each
    slack_coef: np.ndarray                    # (n_slack,) the slack's coefficient in its row

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]


@dataclass
class IpmResult:
    status: str                              # Optimal | MaxIter
    x: List[np.ndarray]                      # Hermitian PSD blocks, n x n; the slacks are not reported
    y: np.ndarray
    z: List[np.ndarray]                      # dual Hermitian PSD blocks, n x n
    pobj: float
    dobj: float
    res_primal: float
    res_dual: float
    gap_rel: float
    iterations: int
    termination: str                         # why the iteration stopped; one of TERMINATIONS
    history: List[dict] = field(default_factory=list)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2


def _embed(m: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re M, -Im M], [Im M, Re M]] of Hermitian M (or of each in a stack)."""
    re, im = np.real(m), np.imag(m)
    return np.block([[re, -im], [im, re]])


def _unembed(m: np.ndarray) -> np.ndarray:
    """The n x n Hermitian matrix whose embedding is nearest the 2n x 2n ``m``."""
    n = m.shape[0] // 2
    re = (m[:n, :n] + m[n:, n:]) / 2
    im = (m[n:, :n] - m[:n, n:]) / 2
    return hermitize(re + 1j * im)


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


class _BlockA:
    """Constraint coefficients for one real PSD block, each row in one form.

    A row with at most ``_DENSE_ROW_NNZ`` nonzeros is elementary: slot q
    holds its q-th nonzero in row-major order (flat column ``slot_col``,
    value ``slot_val``), zero-padded to the longest such row.  Every other
    row is a row of the dense ``(r_d, n*n)`` matrix ``dense``.  The local
    order is the elementary rows, then the dense rows, each in the caller's
    order; ``rows`` lists the program rows in that order.
    """

    def __init__(self, rows: np.ndarray, coeff: np.ndarray):
        self.n = coeff.shape[-1]
        flat = coeff.reshape(rows.shape[0], -1)
        is_dense = np.count_nonzero(flat, axis=1) > _DENSE_ROW_NNZ
        self.rows = r = np.concatenate([rows[~is_dense], rows[is_dense]])
        # where this block's rows x rows entries sit in the Schur matrix: a
        # slice when the rows are one ascending run
        run = np.array_equal(r, np.arange(r[0], r[0] + r.size))
        self.schur_index = (slice(r[0], r[-1] + 1),) * 2 if run else np.ix_(r, r)
        self.dense = flat[is_dense]
        self.r_e = rows.shape[0] - self.dense.shape[0]
        row, col = np.nonzero(flat)
        keep = ~is_dense[row]
        row, col = row[keep], col[keep]
        slot = np.arange(row.size) - np.searchsorted(row, row)   # rank of each nonzero in its row
        local = (np.cumsum(~is_dense) - 1)[row]                  # its row's elementary index
        self.slot_col = np.zeros((slot.max(initial=0) + 1, self.r_e), dtype=int)
        self.slot_val = np.zeros(self.slot_col.shape)
        self.slot_col[slot, local] = col
        self.slot_val[slot, local] = flat[row, col]
        self.pad_i, self.pad_j = np.divmod(self.slot_col.T, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A_block(x): one inner product per local row."""
        flat = x.ravel()
        return np.concatenate([np.sum(flat[self.slot_col] * self.slot_val, axis=0), self.dense @ flat])

    def apply_t(self, y_local: np.ndarray) -> np.ndarray:
        """A_block^T(y): the local rows' coefficients weighted by ``y_local``."""
        y_e, y_d = y_local[:self.r_e], y_local[self.r_e:]
        elem = np.bincount(self.slot_col.ravel(), weights=(self.slot_val * y_e).ravel(),
                           minlength=self.n * self.n)
        return (elem + y_d @ self.dense).reshape(self.n, self.n)

    def gram(self, w: np.ndarray) -> np.ndarray:
        """M_local = [tr(C_r W C_s W)]_{rs} for the NT matrix ``w``.

        U_s = W C_s W is formed for every local row, written in place into
        its row of ``u``: elementary rows as padded batched rank-one updates
        W C W = sum_t v_t (W e_i)(W e_j)^T, dense rows as triple products.
        The transpose M^T = [<C_r, U_s>]_{sr} is then assembled column by
        column: for the dense rows as U D^T, for the elementary rows by
        gathering each slot's column of U.  The result is exactly symmetric.
        """
        n, r_e = self.n, self.r_e
        nmax = self.slot_col.shape[0]
        u = np.empty((self.rows.shape[0], n * n))
        # w is symmetric: row gathers give the needed columns contiguously
        left = w[self.pad_i.ravel()].reshape(r_e, nmax, n) * self.slot_val.T[:, :, None]
        right = w[self.pad_j.ravel()].reshape(r_e, nmax, n)
        np.matmul(left.transpose(0, 2, 1), right, out=u[:r_e].reshape(r_e, n, n))
        np.matmul(w @ self.dense.reshape(-1, n, n), w, out=u[r_e:].reshape(-1, n, n))
        # m_t[s, r] = M_local[r, s]; _sym gives the same bits for a matrix and its transpose
        m_t = np.zeros((u.shape[0], u.shape[0]))
        m_t[:, r_e:] = u @ self.dense.T
        m_e = m_t[:, :r_e]
        term = np.empty((u.shape[0], r_e))
        for col, val in zip(self.slot_col, self.slot_val):
            np.take(u, col, axis=1, out=term, mode="clip")   # "raise" would buffer ``out``
            term *= val
            m_e += term
        return _sym(m_t)


def _apply_a(ops, prog: ConeProgram, x: Sequence[np.ndarray], xs: np.ndarray) -> np.ndarray:
    out = np.zeros(prog.n_rows)
    for op, xb in zip(ops, x):
        out[op.rows] += op.apply(xb)
    out[prog.slack_rows] += prog.slack_coef * xs
    return out


def _apply_at(ops, y: np.ndarray) -> List[np.ndarray]:
    return [op.apply_t(y[op.rows]) for op in ops]


def _inner(u: Sequence[np.ndarray], v: Sequence[np.ndarray]) -> float:
    return float(sum(np.sum(a * b) for a, b in zip(u, v)))


def _max_step_psd(lx: np.ndarray, dx: np.ndarray) -> float:
    """sup {alpha : x + alpha dx >= 0} for PD x with Cholesky factor ``lx``."""
    m = sla.solve_triangular(lx, dx, lower=True, check_finite=False)
    m = sla.solve_triangular(lx, m.T, lower=True, check_finite=False)
    lam_min = float(np.linalg.eigvalsh(_sym(m))[0])
    if lam_min >= 0:
        return np.inf
    return -1.0 / lam_min


def _max_step_nonneg(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _finite(dx: List[np.ndarray], dxs: np.ndarray, dy: np.ndarray) -> bool:
    """Whether a Newton direction is finite in every block, slack and multiplier."""
    return all(np.all(np.isfinite(d)) for d in dx + [dxs, dy])


class _NTScaling:
    """NT scaling data for one iteration: per PSD block, and for the slacks."""

    def __init__(self, x, z, xs, zs):
        self.w = []        # NT matrix W
        self.g = []        # factor G with W = G G^T
        self.ginv = []
        self.lam = []      # scaled-point spectrum
        self.lx = []       # Cholesky factors of x and z, reused by the step length
        self.lz = []
        for xb, zb in zip(x, z):
            lx = np.linalg.cholesky(xb)
            lz = np.linalg.cholesky(zb)
            self.lx.append(lx)
            self.lz.append(lz)
            u, s, vt = np.linalg.svd(lz.T @ lx)
            s = np.maximum(s, 1e-300)
            g = lx @ vt.T / np.sqrt(s)
            ginv = (vt.T * np.sqrt(s)).T @ sla.solve_triangular(lx, np.eye(xb.shape[0]), lower=True, check_finite=False)
            self.g.append(g)
            self.ginv.append(ginv)
            self.w.append(g @ g.T)     # exactly symmetric: numpy forms G G^T with syrk
            self.lam.append(s)
        self.w_slack = xs / zs

    def apply(self, j: int, v: np.ndarray) -> np.ndarray:
        """H_j(v) = W v W for block j."""
        return self.w[j] @ v @ self.w[j]


def _schur(ops, prog: ConeProgram, nt: _NTScaling) -> np.ndarray:
    """The Schur complement A H A^T, exactly symmetric: every ``gram`` is,
    and the slacks add to the diagonal only."""
    m = np.zeros((prog.n_rows, prog.n_rows))
    for j, op in enumerate(ops):
        m[op.schur_index] += op.gram(nt.w[j])
    r = prog.slack_rows
    m[r, r] += prog.slack_coef * nt.w_slack * prog.slack_coef
    return m


class _SchurSolver:
    """Cholesky factorization of M, jittered when M is numerically singular,
    with one step of iterative refinement against M."""

    def __init__(self, m: np.ndarray):
        self.m = m
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # a diverging iterate can make rhs non-finite: the caller's direction test catches it
        dy = sla.cho_solve(self.chol, rhs, check_finite=False)
        return dy + sla.cho_solve(self.chol, rhs - self.m @ dy, check_finite=False)


def solve_cone_program(prog: ConeProgram, *, tol: float, target_tol: float) -> IpmResult:
    """Run the predictor-corrector NT interior-point method.

    ``tol`` is the acceptance threshold for status Optimal; the iteration
    keeps polishing towards ``target_tol`` while it makes progress, so
    reported residuals are typically well below ``tol``.  The result's
    ``termination`` names the exit taken (see ``TERMINATIONS``).

    Each iterate is evaluated once, at the top of its iteration.  Every
    exit reports the iterate of least max(res_p, res_d, min(gap, mu_rel)),
    as Optimal when its max(res_p, res_d, gap) is at most ``tol`` and as
    MaxIter otherwise.
    """
    sizes = [coeff.shape[-1] for coeff in prog.a_coeff]    # block j is embedded at 2 * sizes[j]
    nu = 2 * sum(sizes) + prog.slack_rows.shape[0]
    if nu == 0:
        raise ValueError("program has no cone variables")
    m_rows = prog.n_rows
    srows = prog.slack_rows

    # -- the real embedding: tr(C X) = <_embed(C) / 2, _embed(X)> -----------
    c = [_embed(cb) / 2 for cb in prog.c]
    a_coeff = [_embed(coeff) / 2 for coeff in prog.a_coeff]

    # -- row equilibration: unit max coefficient norm per constraint --------
    row_scale = np.zeros(m_rows)
    for rows, coeff in zip(prog.a_rows, a_coeff):
        np.maximum.at(row_scale, rows, np.sqrt(np.sum(coeff**2, axis=(1, 2))))
    np.maximum.at(row_scale, srows, np.abs(prog.slack_coef))
    row_scale = np.maximum(row_scale, 1e-12)
    for rows, coeff in zip(prog.a_rows, a_coeff):
        coeff /= row_scale[rows][:, np.newaxis, np.newaxis]   # in place: no unscaled copy outlives this
    # from here on ``prog`` is the embedded, equilibrated real program
    prog = ConeProgram(c=c, a_rows=prog.a_rows, a_coeff=a_coeff, b=prog.b / row_scale,
                       slack_rows=srows, slack_coef=prog.slack_coef / row_scale[srows])
    scoef = prog.slack_coef

    ops = [_BlockA(rows, coeff) for rows, coeff in zip(prog.a_rows, prog.a_coeff)]

    # -- scaling of the data ------------------------------------------------
    norm_b = max(1.0, float(np.max(np.abs(prog.b))))
    norm_c = max(1.0, max(float(np.max(np.abs(cb))) if cb.size else 0.0 for cb in prog.c))
    c_s = [cb / norm_c for cb in prog.c]
    b_s = prog.b / norm_b

    x = [np.eye(2 * n) for n in sizes]
    z = [np.eye(2 * n) for n in sizes]
    xs = np.ones(srows.shape[0])
    zs = np.ones(srows.shape[0])
    y = np.zeros(m_rows)

    history: List[dict] = []
    best = None      # (metric, record) of the best iterate evaluated
    stall = 0

    # sums take the blocks first, then the slacks; another order rounds differently
    def residuals(x, xs, y, z, zs):
        rp = b_s - _apply_a(ops, prog, x, xs)
        aty = _apply_at(ops, y)
        rd = [c_s[j] - aty[j] - z[j] for j in range(len(ops))]
        rd_s = -scoef * y[srows] - zs
        pobj = _inner(c_s, x)
        dobj = float(b_s @ y)
        res_p = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b_s)))
        res_d = float(np.sqrt(sum(np.sum(r * r) for r in rd + [rd_s]))) / (
            1.0 + float(np.sqrt(sum(np.sum(cb * cb) for cb in c_s)))
        )
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, rd, rd_s, pobj, dobj, res_p, res_d, gap

    termination = "max_iter"
    no_progress = 0
    for it in range(1, MAX_ITER + 1):
        rp, rd, rd_s, pobj, dobj, res_p, res_d, gap = residuals(x, xs, y, z, zs)
        mu = (_inner(x, z) + float(np.sum(xs * zs))) / nu
        # at large objective magnitudes gap_rel bottoms out on cancellation noise;
        # mu is then the sharper complementarity measure
        mu_rel = abs(mu) * nu / (1.0 + abs(pobj) + abs(dobj))
        metric = max(res_p, res_d, min(gap, mu_rel))
        if best is not None and metric > 0.9 * best[0]:
            no_progress += 1
        else:
            no_progress = 0
        if best is None or metric < best[0]:
            # steps rebind the iterate's arrays and never write into them: shallow lists keep it
            best = (metric, (list(x), y, list(z), pobj, dobj, res_p, res_d, gap))
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
            termination = "target_tol"
            break
        if best[0] <= tol and (no_progress >= 3 or stall >= 2):
            termination = "no_progress"
            break

        try:
            nt = _NTScaling(x, z, xs, zs)
            solver = _SchurSolver(_schur(ops, prog, nt))
        except np.linalg.LinAlgError:
            termination = "schur_failure"
            break
        hrd = [nt.apply(j, rd[j]) for j in range(len(ops))]   # W r_d W, read by both Newton solves

        def newton(rc_blocks, rc_slack):
            rhs = rp.copy()
            for j, op in enumerate(ops):
                rhs[op.rows] -= op.apply(rc_blocks[j] - hrd[j])
            rhs[srows] -= scoef * (rc_slack - nt.w_slack * rd_s)
            dy = solver.solve(rhs)
            aty = _apply_at(ops, dy)
            dz = [_sym(rd[j] - aty[j]) for j in range(len(ops))]
            dx = [_sym(rc_blocks[j] - nt.apply(j, dz[j])) for j in range(len(ops))]
            dzs = rd_s - scoef * dy[srows]
            dxs = rc_slack - nt.w_slack * dzs
            return dx, dxs, dy, dz, dzs

        def max_steps(dx, dxs, dz, dzs):
            ap = ad = np.inf
            for j in range(len(ops)):
                ap = min(ap, _max_step_psd(nt.lx[j], dx[j]))
                ad = min(ad, _max_step_psd(nt.lz[j], dz[j]))
            ap = min(ap, _max_step_nonneg(xs, dxs))
            ad = min(ad, _max_step_nonneg(zs, dzs))
            return min(1.0, STEP_FRAC * ap), min(1.0, STEP_FRAC * ad)

        # predictor (affine) step
        dx_a, dxs_a, dy_a, dz_a, dzs_a = newton([-xb for xb in x], -xs)
        if not _finite(dx_a, dxs_a, dy_a):
            termination = "nonfinite_direction"
            break
        ap_a, ad_a = max_steps(dx_a, dxs_a, dz_a, dzs_a)
        gap_aff = _inner([xb + ap_a * d for xb, d in zip(x, dx_a)], [zb + ad_a * d for zb, d in zip(z, dz_a)])
        gap_aff += float(np.sum((xs + ap_a * dxs_a) * (zs + ad_a * dzs_a)))
        sigma = min(0.99, max(1e-10, (max(gap_aff, 0.0) / (mu * nu)) ** 3))

        # corrector: scaled-space Mehrotra second-order term
        rc = []
        for j in range(len(ops)):
            g, ginv, lam = nt.g[j], nt.ginv[j], nt.lam[j]
            d_x = ginv @ dx_a[j] @ ginv.T
            d_z = g.T @ dz_a[j] @ g
            nmat = -np.diag(lam**2) - _sym(d_x @ d_z)
            nmat[np.diag_indices_from(nmat)] += sigma * mu
            rc_s = 2.0 * nmat / np.add.outer(lam, lam)
            rc.append(_sym(g @ rc_s @ g.T))
        rc_slack = (sigma * mu - xs * zs - dxs_a * dzs_a) / zs
        dx, dxs, dy, dz, dzs = newton(rc, rc_slack)
        if not _finite(dx, dxs, dy):
            termination = "nonfinite_direction"
            break
        ap, ad = max_steps(dx, dxs, dz, dzs)
        if min(ap, ad) < 1e-8:
            stall += 1
            if stall >= 3:
                termination = "step_stall"
                break
        else:
            stall = 0

        # x, z and the directions are exactly symmetric, and so are these sums
        for j, n in enumerate(sizes):
            x[j] = _embed_project(x[j] + ap * dx[j], n)
            z[j] = _embed_project(z[j] + ad * dz[j], n)
        xs = xs + ap * dxs
        zs = zs + ad * dzs
        y = y + ad * dy

    x, y, z, pobj, dobj, res_p, res_d, gap = best[1]
    optimal = termination in ("target_tol", "no_progress") or max(res_p, res_d, gap) <= tol

    # undo data scaling (row equilibration folds into the multipliers)
    y_out = y * norm_c / row_scale
    return IpmResult(
        status="Optimal" if optimal else "MaxIter",
        x=[_unembed(xb * norm_b) for xb in x],
        y=y_out,
        z=[2.0 * _unembed(zb * norm_c) for zb in z],     # the halved coefficients give a halved Z
        pobj=pobj * norm_b * norm_c,
        dobj=dobj * norm_b * norm_c,
        res_primal=res_p,
        res_dual=res_d,
        gap_rel=gap,
        iterations=it,
        termination=termination,
        history=history,
    )
