import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crbeam import _ipm
from crbeam.designs import build_extended_sdp, build_point_sdp, design_extended_multi, design_point_multi
from crbeam.errors import DimensionMismatch
from crbeam.sdp import (
    LinearConstraint,
    SdpProblem,
    SolveOptions,
    check_certificate,
    elem_im,
    elem_re,
    solve,
)

from conftest import complex_gaussian, make_scenario, random_hermitian, random_psd


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


_entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def hermitian_pairs(draw):
    """Two exactly Hermitian n x n matrices, n from 1 to 6."""
    n = draw(st.integers(1, 6))

    def one():
        re = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        im = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        m = np.triu(re + 1j * im, 1)
        return m + m.conj().T + np.diag(np.diag(re))

    return one(), one()


def assert_reports_a_history_record(sol):
    """The reported objectives and residuals are, bit for bit, those of one iterate the solver evaluated."""
    reported = (sol.pobj, sol.dobj, sol.residuals["primal"], sol.residuals["dual"], sol.residuals["gap"])
    assert reported in [(h["pobj"], h["dobj"], h["res_primal"], h["res_dual"], h["gap_rel"]) for h in sol.history]


class TestEmbedding:
    @settings(max_examples=60, deadline=None)
    @given(hermitian_pairs())
    def test_round_trip(self, pair):
        m, _ = pair
        assert np.array_equal(_ipm._unembed(_ipm._embed(m)), m)

    @settings(max_examples=60, deadline=None)
    @given(hermitian_pairs())
    def test_eigenvalues_doubled(self, pair):
        m, _ = pair
        ev_c = np.linalg.eigvalsh(m)
        ev_e = np.linalg.eigvalsh(_ipm._embed(m))
        assert np.allclose(np.repeat(ev_c, 2), ev_e, rtol=0, atol=1e-12 * (1 + np.linalg.norm(m)))

    @settings(max_examples=60, deadline=None)
    @given(hermitian_pairs())
    @example((np.array([[1e-13 + 0j]]), np.array([[1.3210280816684136e-304 + 0j]])))   # product below the normal range
    def test_inner_product(self, pair):
        # the coefficient convention of solve_cone_program: <_embed(C) / 2, _embed(X)> = Re tr(C X)
        c, x = pair
        got = float(np.sum(_ipm._embed(c) / 2 * _ipm._embed(x)))
        want = float(np.real(np.trace(c @ x)))
        # a product below the normal range rounds to an absolute multiple of the smallest subnormal
        floor = np.finfo(float).tiny
        assert abs(got - want) <= max(1e-12 * np.linalg.norm(c) * np.linalg.norm(x), floor)

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

    def test_blocks_leave_hermitian_at_declared_size(self):
        # the point and extended designs use the solver's blocks as they come,
        # without symmetrizing them again
        rng = np.random.default_rng(8)
        p = single_user_trace_inverse_problem()
        solved = [(p, solve(p))]
        for design, build in ((design_point_multi, build_point_sdp), (design_extended_multi, build_extended_sdp)):
            scen = make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=10.0)
            solved.append((build(scen), design(scen).diagnostics["sdp"]))
        for p, sol in solved:
            for blocks in (sol.primal_blocks, sol.dual_blocks):
                assert list(blocks) == [name for name, _ in p.blocks]
                for name, dim in p.blocks:
                    m = blocks[name]
                    assert m.shape == (dim, dim) and np.iscomplexobj(m)
                    assert np.array_equal(m, m.conj().T)

    def test_max_iter_reports_residuals(self, monkeypatch):
        monkeypatch.setattr(_ipm, "MAX_ITER", 3)
        sol = solve(single_user_trace_inverse_problem(), SolveOptions(tol=1e-12, target_tol=1e-14))
        assert sol.status == "MaxIter"
        assert all(np.isfinite(v) for v in sol.residuals.values())
        assert_reports_a_history_record(sol)

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

    @pytest.mark.parametrize("rows, culprit", [
        ([({"t": 1.0}, "==", 1.0), ({"t": 2.0}, "==", 2.0), ({}, ">=", 0.0)], "'t'"),   # t in two rows
        ([({"t": 1.0}, ">=", 1.0), ({}, "==", 1.0)], "'t'"),                            # t in a '>=' row
        ([({"t": 1.0, "s": 1.0}, "==", 1.0), ({}, "==", 1.0)], "'t'"),                  # two scalars in one row
        ([({"t": 1.0}, "==", 1.0)], "'X'"),                                             # X only in t's row
    ])
    def test_free_scalar_without_one_defining_row_rejected(self, rows, culprit):
        # solve substitutes each free scalar through its one '==' row, alone among the scalars there
        p = SdpProblem()
        p.add_block("X", 1)
        for name in dict.fromkeys(s for scalars, _, _ in rows for s in scalars):
            p.add_free_scalar(name)
        p.set_objective({"X": np.eye(1, dtype=complex)}, {"t": 1.0})
        for scalars, sense, rhs in rows:
            p.add_constraint({"X": np.eye(1, dtype=complex)}, scalars, sense, rhs)
        with pytest.raises(ValueError, match=culprit):
            solve(p)

    def test_block_in_no_constraint_rejected(self):
        # Y enters the objective only: min tr Y over Y >= 0 is decoupled from every row
        p = scalar_lower_bound_problem()
        p.add_block("Y", 2)
        p.set_objective({"X": np.eye(1, dtype=complex), "Y": np.eye(2, dtype=complex)})
        with pytest.raises(ValueError, match="'Y'"):
            solve(p)

    @pytest.mark.parametrize("call, exc, match", [
        (lambda: scalar_lower_bound_problem().add_block("X", 2), ValueError, "duplicate block 'X'"),
        (lambda: SdpProblem(free_scalars=["t"]).add_free_scalar("t"), ValueError, "duplicate scalar 't'"),
        (lambda: scalar_lower_bound_problem().block_dim("Y"), KeyError, "'Y'"),
        (lambda: SdpProblem(blocks=[("X", 1), ("X", 1)]).validate(), ValueError, "duplicate block names"),
        (lambda: SdpProblem(blocks=[("X", 1)], constraints=[LinearConstraint({"X": np.eye(1)}, sense="<>")])
         .validate(), ValueError, "unknown sense '<>'"),
    ], ids=["add_block", "add_free_scalar", "block_dim", "validate_names", "validate_sense"])
    def test_input_checks(self, call, exc, match):
        with pytest.raises(exc, match=match):
            call()


class TestFreeColumns:
    def test_two_free_scalars_in_three_rows(self):
        # min tr X + s - t/2 over X = diag(x1, x2) >= 0 with x1 - s = 0, tr X - t = 0
        # and x2 + s/2 >= 2, written with s substituted as x2 + x1/2 >= 2 (a scalar
        # sits in its defining row only): optimum 1 at s = 0, t = 2, X = diag(0, 2)
        p = SdpProblem()
        p.add_block("X", 2)
        p.add_free_scalar("s")
        p.add_free_scalar("t")
        eye = np.eye(2, dtype=complex)
        p.set_objective({"X": eye}, {"s": 1.0, "t": -0.5})
        p.add_constraint({"X": elem_re(2, 0, 0)}, {"s": -1.0}, "==", 0.0)
        p.add_constraint({"X": eye}, {"t": -1.0}, "==", 0.0)
        p.add_constraint({"X": elem_re(2, 1, 1) + 0.5 * elem_re(2, 0, 0)}, sense=">=", rhs=2.0)
        sol = solve(p)
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(1.0, abs=1e-7)
        assert sol.scalars["s"] == pytest.approx(0.0, abs=1e-7)
        assert sol.scalars["t"] == pytest.approx(2.0, abs=1e-7)
        assert np.allclose(sol.primal_blocks["X"], np.diag([0.0, 2.0]), atol=1e-7)
        # each defining row's multiplier is c_s / a
        assert sol.dual_multipliers[:2].tolist() == [-1.0, 0.5]
        rep = check_certificate(p, sol)
        assert max(rep["primal"], rep["dual"], rep["gap"]) <= SolveOptions().tol

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.lists(st.sampled_from(["==", ">=", "<="]), min_size=1, max_size=3),
           st.floats(0.1, 10.0), st.booleans(), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
    def test_substitution_on_random_programs(self, n, senses, a_abs, a_neg, c_s, seed):
        # a feasible, bounded program: X0 > 0 is strictly feasible, and the objective
        # of the substituted program is sum y_i A_i + Z0 with Z0 > 0 and y_i signed
        # as its row; the defining row a s + <D, X> = b sits at a random position
        rng = np.random.default_rng(seed)
        a = -a_abs if a_neg else a_abs
        x0, z0 = random_pd(rng, n) / n, random_pd(rng, n) / n
        rows = [random_hermitian(rng, n) for _ in senses]
        y0 = rng.random(len(senses)) * np.array([{"==": rng.standard_normal(), ">=": 1.0, "<=": -1.0}[s]
                                                 for s in senses])
        d = random_hermitian(rng, n)
        obj = sum(yi * ai for yi, ai in zip(y0, rows)) + z0 + (c_s / a) * d
        p = SdpProblem()
        p.add_block("X", n)
        p.add_free_scalar("s")
        p.set_objective({"X": obj}, {"s": c_s})
        margin = {"==": 0.0, ">=": -0.1, "<=": 0.1}
        for ai, sense in zip(rows, senses):
            p.add_constraint({"X": ai}, sense=sense, rhs=np.trace(ai @ x0).real + margin[sense])
        at = int(rng.integers(len(senses) + 1))
        b_def = a * rng.standard_normal() + np.trace(d @ x0).real
        p.constraints.insert(at, LinearConstraint({"X": d}, {"s": a}, "==", b_def))
        sol = solve(p)
        assert sol.status == "Optimal"
        rep = check_certificate(p, sol)
        assert max(rep["primal"], rep["dual"], rep["gap"]) <= SolveOptions().tol
        dx = np.trace(d @ sol.primal_blocks["X"]).real
        assert abs(a * sol.scalars["s"] + dx - b_def) <= 1e-9 * max(1.0, abs(b_def), abs(dx))
        # the defining row's multiplier is c_s / a, so c_s - y a is 0 up to the roundings
        # of the quotient (absolute when it is subnormal) and of the product
        y_def = sol.dual_multipliers[at]
        assert y_def == c_s / a
        assert abs(c_s - y_def * a) <= np.spacing(abs(c_s)) + abs(a) * np.finfo(float).smallest_subnormal


def scattered_slack_problem(sense0=">=", rhs3=2.5):
    # min X11 + 2 X22 with X11 (sense0) 1, Re X12 = 0, X22 <= 3, tr X >= rhs3:
    # slack rows 0, 2 and 3 with an equality row between them
    p = SdpProblem()
    p.add_block("X", 2)
    p.set_objective({"X": np.diag([1.0, 2.0]).astype(complex)})
    p.add_constraint({"X": elem_re(2, 0, 0)}, sense=sense0, rhs=1.0)
    p.add_constraint({"X": elem_re(2, 0, 1)}, sense="==", rhs=0.0)
    p.add_constraint({"X": elem_re(2, 1, 1)}, sense="<=", rhs=3.0)
    p.add_constraint({"X": np.eye(2, dtype=complex)}, sense=">=", rhs=rhs3)
    return p


def clashing_bounds_problem():
    # X >= 2 and X <= 1
    p = SdpProblem()
    p.add_block("X", 1)
    p.set_objective({"X": np.eye(1, dtype=complex)})
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense=">=", rhs=2.0)
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense="<=", rhs=1.0)
    return p


def unbounded_problem():
    # min -X over X >= 0, with one empty row
    p = SdpProblem()
    p.add_block("X", 1)
    p.set_objective({"X": -np.eye(1, dtype=complex)})
    p.add_constraint({"X": np.zeros((1, 1), dtype=complex)}, sense="==", rhs=0.0)
    return p


def unbounded_free_scalar_problem():
    # min -X - t s.t. X - 0.1 t = 0 and X >= 1: t = 10 X is substituted out
    p = SdpProblem()
    p.add_block("X", 1)
    p.add_free_scalar("t")
    p.set_objective({"X": -np.eye(1, dtype=complex)}, {"t": -1.0})
    p.add_constraint({"X": np.eye(1, dtype=complex)}, {"t": -0.1}, "==", 0.0)
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense=">=", rhs=1.0)
    return p


def infeasible_free_scalar_problem():
    # X + t = 1 defines t, and X = 1, X = 2 clash
    p = SdpProblem()
    p.add_block("X", 1)
    p.add_free_scalar("t")
    p.set_objective({"X": np.eye(1, dtype=complex)})
    p.add_constraint({"X": np.eye(1, dtype=complex)}, {"t": 1.0}, "==", 1.0)
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense="==", rhs=1.0)
    p.add_constraint({"X": np.eye(1, dtype=complex)}, sense="==", rhs=2.0)
    return p


NO_SOLUTION_PROGRAMS = {
    "clashing_bounds": clashing_bounds_problem,
    "unbounded": unbounded_problem,
    "unbounded_free_scalar": unbounded_free_scalar_problem,
    "infeasible_free_scalar": infeasible_free_scalar_problem,
    # X11 <= 1 and X22 <= 3 cap tr X at 4 < 5
    "scattered_slack_infeasible": lambda: scattered_slack_problem(sense0="<=", rhs3=5.0),
}


def assert_ends_max_iter(sol):
    """``sol`` ends MaxIter on a finite iterate the solver evaluated, with a named exit."""
    assert sol.status == "MaxIter"
    assert sol.termination in _ipm.TERMINATIONS
    assert all(np.isfinite(v) for v in (sol.pobj, sol.dobj, *sol.residuals.values()))
    assert_reports_a_history_record(sol)


class TestNoSolution:
    """The solver looks for no infeasibility or unboundedness ray: a program
    without a solution ends MaxIter and raises nothing."""

    @pytest.mark.parametrize("name", list(NO_SOLUTION_PROGRAMS))
    def test_infeasible_or_unbounded_ends_max_iter(self, name):
        assert_ends_max_iter(solve(NO_SOLUTION_PROGRAMS[name]()))


class TestSlacks:
    def test_scattered_slack_rows_optimal(self):
        # optimum X = diag(2.5, 0): rows 0 and 2 slack, row 3 binding
        p = scattered_slack_problem()
        sol = solve(p)
        assert sol.status == "Optimal"
        assert sol.pobj == pytest.approx(2.5, abs=1e-7)
        assert np.allclose(sol.primal_blocks["X"], np.diag([2.5, 0.0]), atol=1e-7)
        rep = check_certificate(p, sol)
        assert max(rep["primal"], rep["dual"], rep["gap"]) <= SolveOptions().tol

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.floats(0.1, 100.0), st.floats(1.1, 3.0), st.integers(0, 2),
           st.integers(0, 2**32 - 1))
    @example(n=1, power=0.109375, c=1.1015625, n_extra=0, seed=0)
    # the diverging iterate once made cho_solve raise ValueError on a non-finite right-hand side
    @example(n=1, power=4.970895301644089, c=2.9984346186236355, n_extra=0, seed=820262485)
    def test_random_infeasible_programs_give_rays(self, n, power, c, n_extra, seed):
        # tr(QX) <= lambda_max(Q) tr X <= lambda_max(Q) P < c lambda_max(Q) P, so each
        # program has a Farkas ray; the solver does not look for it and ends MaxIter
        rng = np.random.default_rng(seed)
        q = random_psd(rng, n)
        p = SdpProblem()
        p.add_block("X", n)
        p.set_objective({"X": random_hermitian(rng, n)})
        p.add_constraint({"X": np.eye(n, dtype=complex)}, sense="<=", rhs=power)
        p.add_constraint({"X": q}, sense=">=", rhs=c * np.linalg.eigvalsh(q)[-1] * power)
        for _ in range(n_extra):
            p.add_constraint({"X": random_hermitian(rng, n)}, sense=">=", rhs=0.1 * rng.standard_normal())
        assert_ends_max_iter(solve(p))


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
    # the iteration limit is the module constant _ipm.MAX_ITER, not an option
    assert [f.name for f in dataclasses.fields(SolveOptions)] == ["tol", "target_tol"]
    assert SolveOptions() == SolveOptions(tol=1e-7, target_tol=1e-10)
    assert _ipm.MAX_ITER == 120


# -- Schur assembly: bit-for-bit against the plain formula -----------------


def local_stack(op, rows, coeff):
    """The coefficient stack of a block whose caller rows are ``rows``, in ``op``'s local row order."""
    pos = {int(r): i for i, r in enumerate(rows)}
    return coeff[[pos[int(r)] for r in op.rows]]


def reference_gram(stack, w):
    """M^T = [<C_r, U_s>]_{sr}, then _sym, with U_s = W C_s W, from the
    coefficient stack row by row: a row with more than _DENSE_ROW_NNZ
    nonzeros is dense (U_s a triple product, its column of M^T from U D^T),
    any other is elementary (U_s a padded rank-one batch, its column of M^T
    summed over its nonzeros in row-major order, starting from zero)."""
    n = w.shape[0]
    flat = stack.reshape(stack.shape[0], -1)
    nnz = np.count_nonzero(flat, axis=1)
    dense = nnz > _ipm._DENSE_ROW_NNZ
    elem = np.nonzero(~dense)[0]
    u = np.zeros((stack.shape[0], n * n))
    u[dense] = (w @ stack[dense] @ w).reshape(-1, n * n)
    nmax = max(1, int(nnz[elem].max(initial=0)))
    pad_i = np.zeros((elem.size, nmax), dtype=int)
    pad_j = np.zeros((elem.size, nmax), dtype=int)
    pad_v = np.zeros((elem.size, nmax))
    for k, r in enumerate(elem):
        cols = np.nonzero(flat[r])[0]
        pad_i[k, : cols.size], pad_j[k, : cols.size] = np.divmod(cols, n)
        pad_v[k, : cols.size] = flat[r, cols]
    left = w[pad_i.ravel()].reshape(elem.size, nmax, n) * pad_v[:, :, None]
    right = w[pad_j.ravel()].reshape(elem.size, nmax, n)
    u[elem] = np.matmul(left.transpose(0, 2, 1), right).reshape(elem.size, n * n)
    m_t = np.zeros((stack.shape[0], stack.shape[0]))
    m_t[:, dense] = u @ flat[dense].T
    for r in elem:
        for col in np.nonzero(flat[r])[0]:
            m_t[:, r] += flat[r, col] * u[:, col]
    return _ipm._sym(m_t)


def reference_schur(ops, prog, nt):
    m = np.zeros((prog.n_rows, prog.n_rows))
    for op, rows, coeff, w in zip(ops, prog.a_rows, prog.a_coeff, nt.w):
        m[np.ix_(op.rows, op.rows)] += reference_gram(local_stack(op, rows, coeff), w)
    # the slacks as S diag(w) S^T, S the dense (rows x slacks) coefficient matrix
    s = np.zeros((prog.n_rows, prog.slack_rows.size))
    s[prog.slack_rows, np.arange(prog.slack_rows.size)] = prog.slack_coef
    m += (s * nt.w_slack) @ s.T
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
    """Blocks covering every row mix and row-set shape _schur distinguishes,
    and slacks on scattered rows."""
    n_rows = 40
    spec = [
        # contiguous rows: elementary, dense, diagonal and zero rows mixed
        (6, np.arange(0, 12), ["elem", "dense", "elem", "diag", "zero", "elem",
                               "dense", "elem", "elem", "diag", "elem", "zero"]),
        # non-contiguous rows, elementary only (n = 20: diagonal rows are dense)
        (20, np.array([3, 5, 12, 13, 30, 39]), ["elem", "zero", "elem", "elem", "elem", "elem"]),
        # non-contiguous rows; diagonal rows above the dense threshold
        (20, np.array([1, 2, 7, 14, 15, 22, 31]), ["diag", "elem", "dense", "elem", "diag", "zero", "elem"]),
        # diagonal-only rows below the threshold, contiguous
        (4, np.arange(20, 26), ["diag"] * 6),
        # all-zero rows
        (3, np.arange(26, 29), ["zero"] * 3),
        # dense rows only, non-contiguous
        (5, np.array([9, 10, 16, 35]), ["dense"] * 4),
    ]
    rows, coeff, w = [], [], []
    for dim, r, kinds in spec:
        rows.append(r)
        coeff.append(mixed_rows(rng, dim, kinds))
        w.append(random_pd(rng, dim))
    slack_rows = np.array([0, 8, 16, 33, 38])
    prog = _ipm.ConeProgram(c=[None] * len(rows), a_rows=rows, a_coeff=coeff,
                            b=np.zeros(n_rows), slack_rows=slack_rows, slack_coef=rng.standard_normal(slack_rows.size))
    ops = [_ipm._BlockA(r, c) for r, c in zip(rows, coeff)]
    return prog, ops, SimpleNamespace(w=w, w_slack=rng.random(slack_rows.size) + 0.1)


class TestSchurAssembly:
    def test_gram_equals_plain_formula_bitwise(self, rng):
        for _ in range(3):
            prog, ops, nt = schur_program(rng)
            for op, rows, coeff, w in zip(ops, prog.a_rows, prog.a_coeff, nt.w):
                assert np.array_equal(op.gram(w), reference_gram(local_stack(op, rows, coeff), w))

    def test_schur_equals_plain_formula_bitwise(self, rng):
        for _ in range(3):
            prog, ops, nt = schur_program(rng)
            # contiguous and scattered row sets; elementary-only, dense-only and mixed blocks
            assert {isinstance(op.schur_index[0], slice) for op in ops} == {True, False}
            assert any(op.dense.shape[0] == 0 for op in ops)
            assert any(op.r_e == 0 for op in ops)
            assert any(op.dense.shape[0] and op.r_e for op in ops)
            assert np.array_equal(_ipm._schur(ops, prog, nt), reference_schur(ops, prog, nt))

    def test_schur_is_exactly_symmetric_on_design_iterates(self, monkeypatch):
        # every gram is symmetric to the bit and slacks touch only the diagonal,
        # so _schur needs no final symmetrisation
        calls = []
        schur = _ipm._schur

        def checked(*args):
            m = schur(*args)
            calls.append(np.array_equal(m, m.T))
            return m

        monkeypatch.setattr(_ipm, "_schur", checked)
        rng = np.random.default_rng(7)
        design_point_multi(make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=10.0))
        n_point = len(calls)
        design_extended_multi(make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=10.0))
        assert 0 < n_point < len(calls)
        assert all(calls)

    def test_gram_matches_trace_formula(self, rng):
        prog, ops, nt = schur_program(rng)
        op, w = ops[0], nt.w[0]
        c = local_stack(op, prog.a_rows[0], prog.a_coeff[0])
        want = np.einsum("rab,bc,scd,da->rs", c, w, c, w)
        assert np.allclose(op.gram(w), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_each_row_in_one_form(self, rng):
        prog, ops, _ = schur_program(rng)
        for op, rows, coeff in zip(ops, prog.a_rows, prog.a_coeff):
            assert sorted(op.rows) == sorted(rows)
            stack = local_stack(op, rows, coeff).reshape(rows.size, -1)
            elem = np.zeros((op.r_e, op.n * op.n))
            for col, val in zip(op.slot_col, op.slot_val):
                elem[np.arange(op.r_e), col] += val
            assert np.array_equal(np.vstack([elem, op.dense]), stack)

    def test_apply_matches_trace_formula_and_apply_t_is_its_adjoint(self, rng):
        # every block of schur_program: mixed, elementary-only, diagonal and
        # all-zero rows, on contiguous and scattered row sets
        for _ in range(3):
            prog, ops, _ = schur_program(rng)
            for op, rows, coeff in zip(ops, prog.a_rows, prog.a_coeff):
                c = local_stack(op, rows, coeff)
                x = random_pd(rng, op.n)
                y = rng.standard_normal(rows.size)
                ax, aty = op.apply(x), op.apply_t(y)
                want_ax = np.einsum("rab,ba->r", c, x)
                want_aty = np.einsum("r,rab->ab", y, c)
                scale = np.linalg.norm(c) * np.linalg.norm(x)
                assert ax.shape == (rows.size,) and aty.shape == (op.n, op.n)
                assert np.allclose(ax, want_ax, rtol=0, atol=1e-13 * scale)
                assert np.allclose(aty, want_aty, rtol=0, atol=1e-13 * np.linalg.norm(c) * np.linalg.norm(y))
                assert abs(ax @ y - np.sum(x * aty)) <= 1e-13 * scale * np.linalg.norm(y)


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
    def test_normal_exits_are_named(self, monkeypatch):
        sol = solve(scalar_lower_bound_problem())
        assert (sol.status, sol.termination) in (("Optimal", "target_tol"), ("Optimal", "no_progress"))
        monkeypatch.setattr(_ipm, "MAX_ITER", 3)
        sol = solve(single_user_trace_inverse_problem(), SolveOptions(tol=1e-12, target_tol=1e-14))
        assert (sol.status, sol.termination) == ("MaxIter", "max_iter")

    @pytest.mark.parametrize("termination", _ipm.TERMINATIONS)
    def test_every_termination_is_reached(self, termination, monkeypatch):
        # one recipe per exit, so a name that no exit takes any more fails here
        def schur_fails(m):
            raise np.linalg.LinAlgError("forced")

        options = {"target_tol": SolveOptions(), "no_progress": SolveOptions(target_tol=0.0)}
        patches = {
            "schur_failure": (_ipm, "_SchurSolver", schur_fails),
            # NaN from every Newton solve: the predictor's direction is tested first
            "nonfinite_direction": (_ipm._SchurSolver, "solve", lambda self, rhs: np.full_like(rhs, np.nan)),
            "step_stall": (_ipm, "_max_step_psd", lambda lx, dx: 1e-10),
            "max_iter": (_ipm, "MAX_ITER", 3),
        }
        if termination not in options:
            monkeypatch.setattr(*patches[termination])
        opts = options.get(termination, SolveOptions(tol=1e-12, target_tol=1e-14))
        sol = solve(single_user_trace_inverse_problem(), opts)
        assert sol.termination == termination
        assert sol.status == ("Optimal" if termination in ("target_tol", "no_progress") else "MaxIter")
        assert_reports_a_history_record(sol)

    def test_schur_failure_is_named_and_status_unchanged(self, monkeypatch):
        schur_solver = _ipm._SchurSolver
        # the factorization fails in the first iteration, or from the sixth on
        for first_failure in (1, 6):
            built = []

            def failing(m):
                built.append(None)
                if len(built) >= first_failure:
                    raise np.linalg.LinAlgError("forced")
                return schur_solver(m)

            monkeypatch.setattr(_ipm, "_SchurSolver", failing)
            sol = solve(single_user_trace_inverse_problem())
            assert sol.termination == "schur_failure"
            assert sol.status == "MaxIter"
            assert sol.iterations == first_failure
            assert_reports_a_history_record(sol)
