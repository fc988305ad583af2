"""Block-structured Hermitian semidefinite programming.

The public surface works with complex Hermitian PSD variable blocks,
free real scalars, and linear constraints over trace inner products.
A free scalar is defined by its one ``==`` row, which ``solve`` uses to
substitute it out.  ``solve`` stacks each block's coefficients at the
block's own size and hands them to the interior-point core in
:mod:`crbeam._ipm`, which solves over PSD blocks alone and owns how
Hermitian blocks are represented inside the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import _ipm
from .errors import DimensionMismatch
from .numerics import assert_hermitian, hermitize

SENSES = ("==", ">=", "<=")


@dataclass
class LinearConstraint:
    """sum_b tr(C_b X_b) + sum_s a_s t_s  (sense)  rhs, with Hermitian C_b."""

    block_coeffs: Dict[str, np.ndarray] = field(default_factory=dict)
    scalar_coeffs: Dict[str, float] = field(default_factory=dict)
    sense: str = "=="
    rhs: float = 0.0
    name: str = ""


@dataclass
class SdpProblem:
    """Linear objective + linear trace constraints over Hermitian PSD blocks."""

    blocks: List[tuple] = field(default_factory=list)          # (name, dim)
    free_scalars: List[str] = field(default_factory=list)
    objective_blocks: Dict[str, np.ndarray] = field(default_factory=dict)
    objective_scalars: Dict[str, float] = field(default_factory=dict)
    constraints: List[LinearConstraint] = field(default_factory=list)

    def add_block(self, name: str, dim: int) -> None:
        if any(n == name for n, _ in self.blocks):
            raise ValueError(f"duplicate block {name!r}")
        self.blocks.append((name, dim))

    def add_free_scalar(self, name: str) -> None:
        if name in self.free_scalars:
            raise ValueError(f"duplicate scalar {name!r}")
        self.free_scalars.append(name)

    def set_objective(self, block_coeffs=None, scalar_coeffs=None) -> None:
        self.objective_blocks = dict(block_coeffs or {})
        self.objective_scalars = dict(scalar_coeffs or {})

    def add_constraint(self, block_coeffs=None, scalar_coeffs=None, sense="==", rhs=0.0, name="") -> None:
        self.constraints.append(
            LinearConstraint(dict(block_coeffs or {}), dict(scalar_coeffs or {}), sense, float(rhs), name)
        )

    def block_dim(self, name: str) -> int:
        for n, d in self.blocks:
            if n == name:
                return d
        raise KeyError(name)

    def validate(self) -> Dict[str, int]:
        """Check the problem; return each free scalar's defining row."""
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        for where, coeffs in [("objective", self.objective_blocks)] + [
            (c.name or f"constraint {i}", c.block_coeffs) for i, c in enumerate(self.constraints)
        ]:
            for bname, mat in coeffs.items():
                dim = self.block_dim(bname)
                mat = np.asarray(mat)
                if mat.shape != (dim, dim):
                    raise DimensionMismatch(f"{where}: coefficient for {bname!r} has shape {mat.shape}, want {(dim, dim)}")
                assert_hermitian(mat, what=f"{where} coefficient for {bname!r}")
        for c in self.constraints:
            if c.sense not in SENSES:
                raise ValueError(f"unknown sense {c.sense!r}")
        for name in [s for c in self.constraints for s in c.scalar_coeffs] + list(self.objective_scalars):
            if name not in self.free_scalars:
                raise KeyError(f"unknown scalar {name!r}")
        defining = {}
        for name in self.free_scalars:
            # solve substitutes each scalar through its one defining equality
            rows = [i for i, c in enumerate(self.constraints) if c.scalar_coeffs.get(name, 0.0) != 0]
            con = self.constraints[rows[0]] if len(rows) == 1 else None
            if con is None or con.sense != "==" or sum(v != 0 for v in con.scalar_coeffs.values()) > 1:
                raise ValueError(f"free scalar {name!r} needs a nonzero coefficient in exactly one '==' "
                                 "constraint, with no other scalar in that constraint")
            defining[name] = rows[0]
        # a defining row leaves with its scalar, so it ties no block to the rest
        constrained = {b for i, c in enumerate(self.constraints) if i not in defining.values() for b in c.block_coeffs}
        for name in names:
            if name not in constrained:
                # decoupled from the rest: min <C, X> over the cone alone is 0 or unbounded
                raise ValueError(f"block {name!r} appears in no constraint")
        return defining


@dataclass
class SolveOptions:
    tol: float = 1e-7
    target_tol: float = 1e-10


@dataclass
class SdpSolution:
    status: str
    primal_blocks: Dict[str, np.ndarray]
    scalars: Dict[str, float]
    dual_multipliers: np.ndarray
    dual_blocks: Dict[str, np.ndarray]
    pobj: float
    dobj: float
    residuals: Dict[str, float]
    iterations: int
    termination: str                        # the IPM's exit reason, one of _ipm.TERMINATIONS
    history: List[dict] = field(default_factory=list)


def elem_re(n: int, i: int, j: int) -> np.ndarray:
    """Hermitian C with <C, X> = Re X[i, j] for Hermitian X."""
    c = np.zeros((n, n), dtype=complex)
    c[i, j] += 0.5
    c[j, i] += 0.5
    return c


def elem_im(n: int, i: int, j: int) -> np.ndarray:
    """Hermitian C with <C, X> = Im X[i, j] for Hermitian X (i != j)."""
    c = np.zeros((n, n), dtype=complex)
    c[i, j] += 0.5j
    c[j, i] += -0.5j
    return c


def dual_ray_certificate(p: SdpProblem, y: np.ndarray) -> dict:
    """The certificate of a dual ray y of ``p``, one multiplier per constraint,
    measured on the caller's data: ``improvement`` is b^T y / |y| and
    ``cone_violation`` the largest max(0, -lambda_min(-sum_i y_i C_i)) / |y|
    over the blocks."""
    y = np.asarray(y, dtype=float)
    ny = float(np.linalg.norm(y))
    b = np.array([con.rhs for con in p.constraints])
    z = {name: np.zeros((dim, dim), dtype=complex) for name, dim in p.blocks}
    for yi, con in zip(y, p.constraints):
        if yi != 0.0:
            for name, mat in con.block_coeffs.items():
                z[name] -= yi * np.asarray(mat)
    viol = max(max(0.0, -float(np.linalg.eigvalsh(zb)[0])) for zb in z.values())
    return {"kind": "dual_ray", "y": y, "improvement": float(b @ y) / ny, "cone_violation": viol / ny}


def _build_cone_program(p: SdpProblem):
    """The cone program with every free scalar substituted out, the defining
    row of each scalar, and the rows kept: its row r is the caller's ``kept[r]``."""
    defining = p.validate()
    block_names = [n for n, _ in p.blocks]
    block_index = {n: j for j, n in enumerate(block_names)}
    kept = [i for i in range(len(p.constraints)) if i not in defining.values()]
    cons = [p.constraints[i] for i in kept]

    c = [np.asarray(p.objective_blocks.get(name, np.zeros((dim, dim))), dtype=complex) for name, dim in p.blocks]
    for s, i in defining.items():
        # c_s s = (c_s / a) (b - <C, X>): the objective gains -(c_s / a) C and a constant
        ratio = p.objective_scalars.get(s, 0.0) / p.constraints[i].scalar_coeffs[s]
        for bname, mat in p.constraints[i].block_coeffs.items():
            c[block_index[bname]] = c[block_index[bname]] - ratio * np.asarray(mat)
    rows_per_block = [[] for _ in p.blocks]
    coeff_per_block = [[] for _ in p.blocks]
    for i, con in enumerate(cons):
        for bname, mat in con.block_coeffs.items():
            j = block_index[bname]
            rows_per_block[j].append(i)
            coeff_per_block[j].append(np.asarray(mat, dtype=complex))

    a_rows = [np.array(rows, dtype=int) for rows in rows_per_block]
    a_coeff = [np.array(coeff) for coeff in coeff_per_block]
    # a slack s >= 0 turns row i into an equality: a_i x - s = b_i for '>=', + s for '<='
    slack_rows = np.array([i for i, con in enumerate(cons) if con.sense != "=="], dtype=int)
    slack_coef = np.array([-1.0 if cons[i].sense == ">=" else 1.0 for i in slack_rows])
    b = np.array([con.rhs for con in cons], dtype=float)
    prog = _ipm.ConeProgram(c=c, a_rows=a_rows, a_coeff=a_coeff, b=b, slack_rows=slack_rows, slack_coef=slack_coef)
    return prog, block_names, defining, kept


def solve(p: SdpProblem, opts: Optional[SolveOptions] = None) -> SdpSolution:
    """Solve the SDP.

    The status is Optimal or MaxIter.  Optimal means that the reported
    iterate, the best one the interior-point method saw, has
    max(res_p, res_d, min(gap, mu_rel)) at most ``opts.tol`` (at most
    ``opts.target_tol`` when that is larger), measured on the solver's
    row-equilibrated data divided by max(1, max|b|) and max(1, max|C|).
    mu_rel is the complementarity x.z relative to the objectives.  So the
    reported relative gap can exceed ``opts.tol``, and residuals
    recomputed from the original data (:func:`check_certificate`) can
    exceed it too.  Every other exit reports MaxIter on the best iterate.
    Nothing detects infeasibility or unboundedness: such a program ends
    MaxIter.  ``termination`` names the exit the method took.

    A free scalar s must have a nonzero coefficient a in exactly one ``==``
    row, a s + <C, X> = b, and no other scalar may be in that row.  The
    method solves with s = (b - <C, X>) / a and without that row, so its
    residuals, termination and ``history`` are those of that program.  s
    is recovered from its row, whose multiplier is c_s / a (c_s the
    objective coefficient of s).
    """
    opts = opts or SolveOptions()
    prog, block_names, defining, kept = _build_cone_program(p)
    res = _ipm.solve_cone_program(prog, tol=opts.tol, target_tol=opts.target_tol)
    primal_blocks = dict(zip(block_names, res.x))

    y = np.zeros(len(p.constraints))
    y[kept] = res.y
    scalars = {}
    for s, i in defining.items():
        con = p.constraints[i]
        y[i] = p.objective_scalars.get(s, 0.0) / con.scalar_coeffs[s]
        value = constraint_value(con, primal_blocks, dict.fromkeys(con.scalar_coeffs, 0.0))
        scalars[s] = (con.rhs - value) / con.scalar_coeffs[s]
    constant = sum(y[i] * p.constraints[i].rhs for i in defining.values())
    return SdpSolution(
        status=res.status,
        primal_blocks=primal_blocks,
        scalars=scalars,
        dual_multipliers=y,
        dual_blocks=dict(zip(block_names, res.z)),
        pobj=res.pobj + constant,
        dobj=res.dobj + constant,
        residuals={"primal": res.res_primal, "dual": res.res_dual, "gap": res.gap_rel},
        iterations=res.iterations,
        termination=res.termination,
        history=res.history,
    )


def constraint_value(con: LinearConstraint, primal_blocks, scalars) -> float:
    v = 0.0
    for bname, mat in con.block_coeffs.items():
        v += float(np.real(np.trace(np.asarray(mat) @ primal_blocks[bname])))
    for s, coef in con.scalar_coeffs.items():
        v += coef * scalars[s]
    return v


def check_certificate(p: SdpProblem, s: SdpSolution) -> Dict[str, float]:
    """Recompute primal/dual/gap residuals from problem data alone.

    Independent of solver internals: dual slacks are rebuilt from the
    multipliers, so this validates the reported solution rather than the
    solver's bookkeeping.
    """
    b = np.array([c.rhs for c in p.constraints])
    scale_b = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0

    viol = 0.0
    for con in p.constraints:
        v = constraint_value(con, s.primal_blocks, s.scalars)
        if con.sense == "==":
            viol = max(viol, abs(v - con.rhs))
        elif con.sense == ">=":
            viol = max(viol, max(0.0, con.rhs - v))
        else:
            viol = max(viol, max(0.0, v - con.rhs))
    cone = 0.0
    for name, _ in p.blocks:
        x = s.primal_blocks[name]
        w = np.linalg.eigvalsh(hermitize(x))
        cone = max(cone, max(0.0, -float(w[0])) / (1.0 + float(np.abs(w).max(initial=0.0))))
    primal_res = viol / scale_b + cone

    y = s.dual_multipliers
    dual_cone = 0.0
    dual_lin = 0.0
    scale_c = 1.0
    for name, dim in p.blocks:
        cmat = np.asarray(p.objective_blocks.get(name, np.zeros((dim, dim))), dtype=complex)
        zmat = cmat.astype(complex).copy()
        for i, con in enumerate(p.constraints):
            if name in con.block_coeffs:
                zmat -= y[i] * np.asarray(con.block_coeffs[name], dtype=complex)
        scale_c = max(scale_c, float(np.linalg.norm(cmat)))
        w = np.linalg.eigvalsh(hermitize(zmat))
        dual_cone = max(dual_cone, max(0.0, -float(w[0])) / (1.0 + float(np.abs(w).max(initial=0.0))))
    for sname in p.free_scalars:
        cs = p.objective_scalars.get(sname, 0.0)
        acc = cs - sum(
            y[i] * con.scalar_coeffs.get(sname, 0.0) for i, con in enumerate(p.constraints)
        )
        dual_lin = max(dual_lin, abs(acc))
    sign_viol = 0.0
    for i, con in enumerate(p.constraints):
        if con.sense == ">=":
            sign_viol = max(sign_viol, max(0.0, -y[i]))
        elif con.sense == "<=":
            sign_viol = max(sign_viol, max(0.0, y[i]))
    dual_res = dual_cone + (dual_lin + sign_viol) / scale_c

    pobj = sum(
        float(np.real(np.trace(np.asarray(mat) @ s.primal_blocks[name])))
        for name, mat in p.objective_blocks.items()
    ) + sum(v * s.scalars[k] for k, v in p.objective_scalars.items())
    dobj = float(y @ b) if b.size else 0.0
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return {
        "primal": primal_res,
        "dual": dual_res,
        "gap": gap,
        "pobj": pobj,
        "dobj": dobj,
        "constraint_violation": viol,
        "cone_violation": cone,
    }
