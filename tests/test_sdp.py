from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from crbeam import _ipm
from crbeam.errors import DimensionMismatch
from crbeam.sdp import (
    SdpProblem,
    SolveOptions,
    check_certificate,
    elem_im,
    elem_re,
    embed_hermitian,
    solve,
    unembed_hermitian,
)

from conftest import complex_gaussian, random_hermitian


def scalar_lower_bound_problem():
    # min x subject to x >= 1 with a 1x1 PSD variable
    p = SdpProblem()
    p.add_block("X", 1)
    p.set_objective({"X": np.eye(1, dtype=complex)})
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense=">=", rhs=1.0)
    return p


def shifted_identity_problem(n=3):
    # min tr(X) s.t. X - I >= 0, via an explicit PSD slack S = X - I
    p = SdpProblem()
    p.add_block("X", n)
    p.add_block("S", n)
    p.set_objective({"X": np.eye(n, dtype=complex)})
    for i in range(n):
        for j in range(i, n):
            p.add_constraint(
                {"X": elem_re(n, i, j), "S": -1 * elem_re(n, i, j)},
                sense="==", rhs=1.0 if i == j else 0.0,
            )
            if i != j:
                p.add_constraint(
                    {"X": elem_im(n, i, j), "S": -1 * elem_im(n, i, j)}, sense="==", rhs=0.0
                )
    return p


def single_user_trace_inverse_problem():
    # the N_t=2 closed-form instance: ||h||^2=2, P_T=1, sigma=1, Gamma=1.5
    h = np.array([1.0, 1.0], dtype=complex)
    q = np.outer(h, h.conj())
    gam = 1.5
    n = 2
    p = SdpProblem()
    p.add_block("W1", n)
    p.add_block("WA", n)
    p.add_block("E", 2 * n)
    obj = np.zeros((2 * n, 2 * n), dtype=complex)
    obj[:n, :n] = np.eye(n)
    p.set_objective({"E": obj})
    for i in range(n):
        for j in range(n):
            p.add_constraint({"E": elem_re(2 * n, i, n + j)}, sense="==", rhs=float(i == j))
            p.add_constraint({"E": elem_im(2 * n, i, n + j)}, sense="==", rhs=0.0)
    for i in range(n):
        for j in range(i, n):
            p.add_constraint(
                {"E": elem_re(2 * n, n + i, n + j), "W1": -1 * elem_re(n, i, j), "WA": -1 * elem_re(n, i, j)},
                sense="==", rhs=0.0,
            )
            if i != j:
                p.add_constraint(
                    {"E": elem_im(2 * n, n + i, n + j), "W1": -1 * elem_im(n, i, j), "WA": -1 * elem_im(n, i, j)},
                    sense="==", rhs=0.0,
                )
    p.add_constraint({"W1": q, "WA": -gam * q}, sense=">=", rhs=gam)
    p.add_constraint({"W1": np.eye(n, dtype=complex), "WA": np.eye(n, dtype=complex)}, sense="<=", rhs=1.0)
    return p


class TestEmbedding:
    def test_round_trip(self, rng):
        m = random_hermitian(rng, 5)
        assert np.allclose(unembed_hermitian(embed_hermitian(m)), m, atol=1e-14)

    def test_eigenvalues_doubled(self, rng):
        m = random_hermitian(rng, 4)
        ev_c = np.linalg.eigvalsh(m)
        ev_e = np.linalg.eigvalsh(embed_hermitian(m))
        assert np.allclose(np.sort(np.repeat(ev_c, 2)), np.sort(ev_e), atol=1e-12)

    def test_elementary_coefficients(self, rng):
        x = random_hermitian(rng, 4)
        for i, j in [(0, 1), (2, 3), (1, 1)]:
            assert np.trace(elem_re(4, i, j) @ x).real == pytest.approx(x[i, j].real, abs=1e-13)
            if i != j:
                assert np.trace(elem_im(4, i, j) @ x).real == pytest.approx(x[i, j].imag, abs=1e-13)


class TestSolve:
    def test_scalar_bound(self):
        sol = solve(scalar_lower_bound_problem())
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(1.0, abs=1e-8)
        assert sol.primal_blocks["X"][0, 0].real == pytest.approx(1.0, abs=1e-8)
        assert sol.dual_multipliers[0] == pytest.approx(1.0, abs=1e-7)

    def test_shifted_identity(self):
        sol = solve(shifted_identity_problem())
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(3.0, abs=1e-7)
        assert np.allclose(sol.primal_blocks["X"], np.eye(3), atol=1e-7)

    def test_trace_inverse_closed_form_instance(self):
        sol = solve(single_user_trace_inverse_problem())
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(16 / 3, rel=1e-7)
        r_x = sol.primal_blocks["W1"] + sol.primal_blocks["WA"]
        assert np.allclose(np.linalg.eigvalsh(r_x), [0.25, 0.75], atol=1e-7)
        assert max(sol.residuals.values()) <= 1e-7

    def test_weak_duality_on_feasible_iterates(self):
        sol = solve(single_user_trace_inverse_problem())
        scale = 1.0 + abs(sol.pobj)
        for rec in sol.history:
            if rec["res_primal"] <= 1e-9 and rec["res_dual"] <= 1e-9:
                assert rec["dobj"] <= rec["pobj"] + 1e-9 * scale

    def test_row_scaling_invariance(self):
        base = solve(single_user_trace_inverse_problem()).pobj
        p = single_user_trace_inverse_problem()
        for i, con in enumerate(p.constraints):
            s = 10.0 ** ((i % 5) - 2)
            con.block_coeffs = {k: s * v for k, v in con.block_coeffs.items()}
            con.rhs *= s
        scaled = solve(p).pobj
        assert scaled == pytest.approx(base, rel=1e-6)

    def test_infeasible_certified(self):
        p = SdpProblem()
        p.add_block("X", 1)
        p.set_objective({"X": np.eye(1, dtype=complex)})
        p.add_constraint({"X": np.eye(1, dtype=complex)}, sense=">=", rhs=2.0)
        p.add_constraint({"X": np.eye(1, dtype=complex)}, sense="<=", rhs=1.0)
        sol = solve(p)
        assert sol.status == "Infeasible"
        assert sol.certificate is not None
        assert sol.certificate["improvement"] >= 1e-6
        # the ray certifies: y with b^T y > 0 and -A^T y in the dual cone
        y = sol.certificate["y"]
        z_ray = -(y[0] * 1.0 + y[1] * 1.0)
        assert y[0] * 2.0 + y[1] * 1.0 > 0
        assert z_ray >= -1e-9

    def test_unbounded_detected(self):
        p = SdpProblem()
        p.add_block("X", 1)
        p.set_objective({"X": -np.eye(1, dtype=complex)})
        p.add_constraint({"X": np.zeros((1, 1), dtype=complex)}, sense="==", rhs=0.0)
        sol = solve(p)
        assert sol.status == "Unbounded"

    def test_max_iter_reports_residuals(self):
        from crbeam.sdp import SolveOptions

        sol = solve(single_user_trace_inverse_problem(), SolveOptions(max_iter=3, tol=1e-12, target_tol=1e-14))
        assert sol.status == "MaxIter"
        assert all(np.isfinite(v) for v in sol.residuals.values())

    def test_dimension_mismatch(self):
        p = SdpProblem()
        p.add_block("X", 2)
        p.set_objective({"X": np.eye(3, dtype=complex)})
        with pytest.raises(DimensionMismatch):
            solve(p)

    def test_undeclared_objective_scalar_without_constraints(self):
        # with no constraints the check must still see the objective's scalars
        p = SdpProblem()
        p.add_block("X", 1)
        p.set_objective({"X": np.eye(1, dtype=complex)}, scalar_coeffs={"t": 1.0})
        with pytest.raises(KeyError):
            p.validate()

    @pytest.mark.parametrize("scalar_coeffs", [{}, {"t": 0.0}])
    def test_free_scalar_only_in_objective_rejected(self, scalar_coeffs):
        # min X + t with X = 1: t has an empty column, so its Newton step is unbounded
        p = SdpProblem()
        p.add_block("X", 1)
        p.add_free_scalar("t")
        p.set_objective({"X": np.eye(1, dtype=complex)}, scalar_coeffs={"t": 1.0})
        p.add_constraint({"X": np.eye(1, dtype=complex)}, scalar_coeffs, "==", 1.0)
        with pytest.raises(ValueError, match="'t'"):
            solve(p)

    def test_unused_free_scalar_rejected(self):
        p = scalar_lower_bound_problem()
        p.add_free_scalar("s")
        with pytest.raises(ValueError, match="'s'"):
            p.validate()

    def test_block_in_no_constraint_rejected(self):
        # Y enters the objective only: min tr Y over Y >= 0 is decoupled from every row
        p = scalar_lower_bound_problem()
        p.add_block("Y", 2)
        p.set_objective({"X": np.eye(1, dtype=complex), "Y": np.eye(2, dtype=complex)})
        with pytest.raises(ValueError, match="'Y'"):
            solve(p)


class TestFreeColumns:
    def test_two_free_scalars_in_three_rows(self):
        # min tr X + s - t over X = diag(x1, x2) >= 0 with x1 - s = 0,
        # x2 + t + s/2 >= 2 and tr X + 3t <= 4: optimum 0 at s = 0, t = 1, X = diag(0, 1)
        p = SdpProblem()
        p.add_block("X", 2)
        p.add_free_scalar("s")
        p.add_free_scalar("t")
        eye = np.eye(2, dtype=complex)
        p.set_objective({"X": eye}, {"s": 1.0, "t": -1.0})
        p.add_constraint({"X": elem_re(2, 0, 0)}, {"s": -1.0}, "==", 0.0)
        p.add_constraint({"X": elem_re(2, 1, 1)}, {"t": 1.0, "s": 0.5}, ">=", 2.0)
        p.add_constraint({"X": eye}, {"t": 3.0}, "<=", 4.0)
        sol = solve(p)
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(0.0, abs=1e-7)
        assert sol.scalars["s"] == pytest.approx(0.0, abs=1e-7)
        assert sol.scalars["t"] == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(sol.primal_blocks["X"], np.diag([0.0, 1.0]), atol=1e-7)
        rep = check_certificate(p, sol)
        assert max(rep["primal"], rep["dual"], rep["gap"]) <= SolveOptions().tol

    def test_infeasible_with_free_scalar(self):
        # x + t = 1 and x + t = 2: the ray y ~ (-1, 1) has b.y > 0 and annihilates t's column
        p = SdpProblem()
        p.add_block("X", 1)
        p.add_free_scalar("t")
        p.set_objective({"X": np.eye(1, dtype=complex)})
        p.add_constraint({"X": np.eye(1, dtype=complex)}, {"t": 1.0}, "==", 1.0)
        p.add_constraint({"X": np.eye(1, dtype=complex)}, {"t": 1.0}, "==", 2.0)
        sol = solve(p)
        assert (sol.status, sol.termination) == ("Infeasible", "dual_ray")
        y = sol.certificate["y"]
        assert y @ np.array([1.0, 2.0]) > 0
        assert y[0] + y[1] == 0.0   # the free column sums exactly
        assert y[1] > 0


class TestCertificate:
    def test_hand_built_optimal_pair(self):
        p = scalar_lower_bound_problem()
        sol = solve(p)
        sol.primal_blocks["X"] = np.array([[1.0 + 0j]])
        sol.dual_multipliers = np.array([1.0])
        sol.scalars = {}
        rep = check_certificate(p, sol)
        assert rep["primal"] <= 1e-12
        assert rep["dual"] <= 1e-12
        assert rep["gap"] <= 1e-12

    def test_detects_injected_primal_violation(self):
        p = shifted_identity_problem()
        sol = solve(p)
        sol.primal_blocks["X"] = sol.primal_blocks["X"] + 1e-3 * np.eye(3)
        rep = check_certificate(p, sol)
        assert rep["constraint_violation"] == pytest.approx(1e-3, rel=1e-3)

    def test_solver_output_reverifies(self):
        p = single_user_trace_inverse_problem()
        sol = solve(p)
        rep = check_certificate(p, sol)
        assert rep["primal"] <= 1e-7
        assert rep["dual"] <= 1e-7
        assert rep["gap"] <= 1e-7


def test_solve_options_defaults():
    opts = SolveOptions()
    assert opts.tol == 1e-7


# -- Schur assembly: bit-for-bit against the plain formula -----------------


def reference_gram(op, w):
    """M = mat @ U.T, then _sym, with U_r = W C_r W formed row by row as
    elementary (padded rank-one batch) or dense (triple product) rows."""
    n = op.n
    nnz = np.diff(op.mat.indptr)
    dense = np.nonzero(nnz > _ipm._DENSE_ROW_NNZ)[0]
    sparse = np.nonzero(nnz <= _ipm._DENSE_ROW_NNZ)[0]
    u = np.zeros((op.rows.size, n * n))
    if dense.size:
        stack = op.mat[dense].toarray().reshape(-1, n, n)
        u[dense] = (w @ stack @ w).reshape(dense.size, -1)
    sub = op.mat[sparse].tocsr()
    nmax = int(np.max(np.diff(sub.indptr))) if sub.nnz else 0
    if nmax:
        pad_i = np.zeros((sparse.size, nmax), dtype=int)
        pad_j = np.zeros((sparse.size, nmax), dtype=int)
        pad_v = np.zeros((sparse.size, nmax))
        for r in range(sparse.size):
            lo, hi = sub.indptr[r], sub.indptr[r + 1]
            pad_i[r, : hi - lo], pad_j[r, : hi - lo] = np.unravel_index(sub.indices[lo:hi], (n, n))
            pad_v[r, : hi - lo] = sub.data[lo:hi]
        left = w[pad_i.ravel()].reshape(sparse.size, nmax, n) * pad_v[:, :, None]
        right = w[pad_j.ravel()].reshape(sparse.size, nmax, n)
        u[sparse] = np.matmul(left.transpose(0, 2, 1), right).reshape(sparse.size, -1)
    return _ipm._sym(np.asarray(op.mat @ u.T))


def reference_schur(ops, prog, nt):
    m = np.zeros((prog.n_rows, prog.n_rows))
    for op, blk, w in zip(ops, prog.blocks, nt.w):
        if blk.kind == _ipm.PSD:
            m[np.ix_(op.rows, op.rows)] += reference_gram(op, w)
        else:
            dense = op.mat.multiply(w[np.newaxis, :]) @ op.mat.T
            m[np.ix_(op.rows, op.rows)] += np.asarray(dense.todense())
    return _ipm._sym(m)


def coupling(rng, n, entries):
    """Symmetric coefficient with random weights on the given (i, j) pairs."""
    c = np.zeros((n, n))
    for i, j in entries:
        v = rng.standard_normal()
        c[i, j] += v
        c[j, i] += v
    return c


def mixed_rows(rng, n, kinds):
    out = []
    for kind in kinds:
        if kind == "elem":
            i, j, k, l = rng.integers(n, size=4)
            out.append(coupling(rng, n, [(i, j), (k, l)]))
        elif kind == "dense":
            a = rng.standard_normal((n, n))
            out.append(a + a.T)
        elif kind == "diag":
            out.append(np.diag(rng.standard_normal(n)))
        else:
            out.append(np.zeros((n, n)))
    return np.array(out)


def random_pd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def schur_program(rng):
    """Blocks covering every row mix and row-set shape _schur distinguishes."""
    n_rows = 40
    spec = [
        # contiguous rows: elementary, dense, diagonal and zero rows mixed
        (_ipm.PSD, 6, np.arange(0, 12), ["elem", "dense", "elem", "diag", "zero", "elem",
                                          "dense", "elem", "elem", "diag", "elem", "zero"]),
        # non-contiguous rows, elementary only (n = 20: diagonal rows are dense)
        (_ipm.PSD, 20, np.array([3, 5, 12, 13, 30, 39]), ["elem", "zero", "elem", "elem", "elem", "elem"]),
        # non-contiguous rows; diagonal rows above the dense threshold
        (_ipm.PSD, 20, np.array([1, 2, 7, 14, 15, 22, 31]), ["diag", "elem", "dense", "elem", "diag", "zero", "elem"]),
        # diagonal-only rows below the threshold, contiguous
        (_ipm.PSD, 4, np.arange(20, 26), ["diag"] * 6),
        # all-zero rows
        (_ipm.PSD, 3, np.arange(26, 29), ["zero"] * 3),
        # nonnegative block, non-contiguous rows
        (_ipm.NONNEG, 5, np.array([0, 8, 16, 33, 38]), None),
    ]
    blocks, rows, coeff, w = [], [], [], []
    for kind, dim, r, kinds in spec:
        blocks.append(_ipm.Block(kind, dim))
        rows.append(r)
        if kind == _ipm.PSD:
            coeff.append(mixed_rows(rng, dim, kinds))
            w.append(random_pd(rng, dim))
        else:
            coeff.append(rng.standard_normal((r.size, dim)) * (rng.random((r.size, dim)) < 0.6))
            w.append(rng.random(dim) + 0.1)
    prog = _ipm.ConeProgram(blocks=blocks, c=[None] * len(blocks), a_rows=rows, a_coeff=coeff,
                            b=np.zeros(n_rows), c_free=np.zeros(0), a_free=np.zeros((n_rows, 0)))
    ops = [_ipm._BlockA(blk, r, c) for blk, r, c in zip(blocks, rows, coeff)]
    return prog, ops, SimpleNamespace(w=w)


class TestSchurAssembly:
    def test_gram_equals_plain_formula_bitwise(self, rng):
        for _ in range(3):
            prog, ops, nt = schur_program(rng)
            for op, blk, w in zip(ops, prog.blocks, nt.w):
                if blk.kind == _ipm.PSD:
                    assert np.array_equal(op.gram(w), reference_gram(op, w))

    def test_schur_equals_plain_formula_bitwise(self, rng):
        for _ in range(3):
            prog, ops, nt = schur_program(rng)
            # contiguous and scattered row sets, elementary-only and mixed blocks
            assert {isinstance(op.schur_index[0], slice) for op in ops} == {True, False}
            psd = [op for op in ops if op.is_psd]
            assert any(op.dense_stack is None for op in psd)
            assert any(op.dense_stack is not None and op.slot_col is not None for op in psd)
            assert np.array_equal(_ipm._schur(ops, prog, nt), reference_schur(ops, prog, nt))

    def test_gram_matches_trace_formula(self, rng):
        prog, ops, nt = schur_program(rng)
        op, w = ops[0], nt.w[0]
        c = prog.a_coeff[0]
        want = np.einsum("rab,bc,scd,da->rs", c, w, c, w)
        assert np.allclose(op.gram(w), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestStepLength:
    def test_psd_step_matches_generalized_eigenvalues(self, rng):
        # x + alpha dx >= 0 up to alpha = -1 / lambda_min(dx, x)
        for n in (1, 3, 8):
            x = random_pd(rng, n)
            dx = rng.standard_normal((n, n)) * 3.0
            dx = dx + dx.T
            lam_min = scipy.linalg.eigh(dx, x, eigvals_only=True)[0]
            want = -1.0 / lam_min if lam_min < 0 else np.inf
            assert _ipm._max_step_psd(np.linalg.cholesky(x), dx) == pytest.approx(want, rel=1e-10)

    def test_psd_direction_is_unbounded(self, rng):
        x = random_pd(rng, 4)
        b = rng.standard_normal((4, 4))
        for dx in (b @ b.T + np.eye(4), np.zeros((4, 4))):
            assert _ipm._max_step_psd(np.linalg.cholesky(x), dx) == np.inf


class TestTermination:
    def test_normal_exits_are_named(self):
        sol = solve(scalar_lower_bound_problem())
        assert (sol.status, sol.termination) in (("Optimal", "target_tol"), ("Optimal", "no_progress"))
        sol = solve(single_user_trace_inverse_problem(), SolveOptions(max_iter=3, tol=1e-12, target_tol=1e-14))
        assert (sol.status, sol.termination) == ("MaxIter", "max_iter")

    def test_rays_are_named(self):
        p = SdpProblem()
        p.add_block("X", 1)
        p.set_objective({"X": np.eye(1, dtype=complex)})
        p.add_constraint({"X": np.eye(1, dtype=complex)}, sense=">=", rhs=2.0)
        p.add_constraint({"X": np.eye(1, dtype=complex)}, sense="<=", rhs=1.0)
        assert solve(p).termination == "dual_ray"
        p = SdpProblem()
        p.add_block("X", 1)
        p.set_objective({"X": -np.eye(1, dtype=complex)})
        p.add_constraint({"X": np.zeros((1, 1), dtype=complex)}, sense="==", rhs=0.0)
        assert solve(p).termination == "primal_ray"

    def test_schur_failure_is_named_and_status_unchanged(self, monkeypatch):
        class Failing:
            def __init__(self, *args):
                raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(_ipm, "_SchurSolver", Failing)
        sol = solve(single_user_trace_inverse_problem())
        assert sol.termination == "schur_failure"
        assert sol.status == "MaxIter"
        assert sol.iterations == 1
