"""Poisson and Dirac brackets over canonical charts.

Brackets are computed symbolically through exact expression arithmetic, so
antisymmetry and the vanishing of Dirac brackets against second-class
constraints hold identically, not just to tolerance.  The one bracket is
{f, g}_M = ∇fᵀ M ∇g over normal-form gradients: the chart's symplectic J
gives Poisson brackets, and D = J − (J G) C (Gᵀ J), built once per
``ConstraintMatrix`` (Henneaux & Teitelboim, *Quantization of Gauge
Systems*, ch. 1), Dirac brackets; Hamilton's equations are M∇H.  The only
numeric step is the first/second-class decision for non-constant constraint
brackets, which samples the constraint surface through expressions lowered
once by ``expr.lower``, with coefficient atoms bound as independent values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .expr import (
    AtomRegistry,
    Chart,
    PhaseExpr,
    ZERO,
    atoms_in,
    diff,
    free_symbols,
    from_rat,
    is_const_expr,
    is_zero_expr,
    lower,
    simplify,
    to_rat,
)
from ._poly import Rat


class BracketError(Exception):
    pass


class ChartMismatchError(BracketError):
    pass


class SingularDeltaError(BracketError):
    """Raised when a Dirac bracket is requested for a singular Δ."""

    def __init__(self, matrix: "ConstraintMatrix"):
        super().__init__(
            "constraint matrix is singular; Dirac brackets need a purely "
            "second-class set\n" + matrix.report()
        )
        self.matrix = matrix


def _check_symbols(f: PhaseExpr, g: PhaseExpr, chart: Chart,
                   params: Optional[Iterable[str]]) -> None:
    if params is None:
        return
    allowed = set(chart.variables) | set(params)
    for e in (f, g):
        extra = free_symbols(e) - allowed
        if extra:
            raise ChartMismatchError(
                f"variables outside chart '{chart.label}': {sorted(extra)}"
            )


def poisson(f: PhaseExpr, g: PhaseExpr, chart: Chart,
            registry: Optional[AtomRegistry] = None,
            params: Optional[Iterable[str]] = None) -> PhaseExpr:
    """Canonical Poisson bracket {f, g} in the given chart.

    Symbols that are not chart variables are treated as parameters and
    differentiate to zero; pass ``params`` to have that set validated.
    """
    _check_symbols(f, g, chart, params)
    return from_rat(_bracket(_gradient(f, chart, registry), _symplectic(chart),
                             _gradient(g, chart, registry)))


Matrix = Tuple[Tuple[Rat, ...], ...]    # rows and columns: chart.variables


def _gradient(e: PhaseExpr, chart: Chart,
              registry: Optional[AtomRegistry]) -> Tuple[Rat, ...]:
    """Normal form of ∂e/∂v for every chart variable v."""
    return tuple(to_rat(diff(e, v, registry)) for v in chart.variables)


def _symplectic(chart: Chart) -> Matrix:
    """J: {q, p} = 1 and {p, q} = −1 for each of the chart's pairs."""
    return tuple(tuple(Rat.const(int(e)) for e in row)
                 for row in chart.poisson_matrix())


def _dot(u: Sequence[Rat], v: Sequence[Rat]) -> Rat:
    return sum((a * b for a, b in zip(u, v)
                if not (a.is_zero() or b.is_zero())), Rat.const(0))


def _apply(m: Matrix, grad: Sequence[Rat]) -> Tuple[Rat, ...]:
    """M∇g, over M's nonzero entries."""
    return tuple(_dot(row, grad) for row in m)


def _bracket(grad_f: Sequence[Rat], m: Matrix, grad_g: Sequence[Rat]) -> Rat:
    """{f, g}_M = ∇fᵀ M ∇g."""
    return _dot(grad_f, _apply(m, grad_g))


# --------------------------------------------------------------------------
# constraint matrix
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintMatrix:
    """Δ_ab = {φ_a, φ_b} over the constraints' gradients, the first/second
    class split it gives on the constraint surface, and, when Δ is regular,
    its symbolic inverse C and the Dirac matrix D = J − (J G) C (Gᵀ J) over
    the chart's variables."""

    constraints: Tuple[PhaseExpr, ...]
    gradients: Tuple[Tuple[Rat, ...], ...]
    delta: Tuple[Tuple[PhaseExpr, ...], ...]
    weakly_zero: Tuple[Tuple[bool, ...], ...]
    first_class: Tuple[int, ...]
    second_class: Tuple[int, ...]
    inverse: Optional[Tuple[Tuple[PhaseExpr, ...], ...]]
    dirac_matrix: Optional[Matrix]
    chart: Chart

    def report(self) -> str:
        lines = []
        for i in range(len(self.constraints)):
            kind = "first-class" if i in self.first_class else "second-class"
            partners = [
                str(j) for j in range(len(self.constraints))
                if not self.weakly_zero[i][j]
            ]
            detail = (
                f"nonzero bracket with constraint(s) {', '.join(partners)}"
                if partners else "all constraint brackets vanish weakly"
            )
            lines.append(f"constraint {i}: {kind} ({detail})")
        return "\n".join(lines)


def _surface_points(constraints: Sequence[PhaseExpr], chart: Chart,
                    count: int, seed: int,
                    values_hint: Optional[Mapping[str, float]] = None,
                    extra_exprs: Sequence[PhaseExpr] = ()
                    ) -> Tuple[tuple, List[List[float]]]:
    """Random numeric points satisfying every constraint to 1e-12.

    Starts from a random draw and runs Newton sweeps, adjusting for each
    constraint the chart variable with the largest local gradient.  Returns
    ``(inputs, points)``: ``inputs`` are the variable names and coefficient
    atoms of the constraints, their gradients and ``extra_exprs`` (the
    expressions the caller will evaluate at these points), and each point
    lists their values in that order, ready for ``lower(..., inputs)``.
    """
    rng = np.random.default_rng(seed)
    grads = [[diff(phi, v) for v in chart.variables] for phi in constraints]
    names, atoms = set(chart.variables), set()
    for e in list(constraints) + list(extra_exprs) + [
            g for row in grads for g in row]:
        names |= free_symbols(e)
        atoms |= atoms_in(e)
    inputs = tuple(sorted(names)) + tuple(
        sorted(atoms, key=lambda a: (a.name, a.order, a.arg)))
    slots = [inputs.index(v) for v in chart.variables]
    hint = {inputs.index(k): float(v)
            for k, v in (values_hint or {}).items() if k in names}
    phi_fns = [lower([phi], inputs, time_var=None) for phi in constraints]
    grad_fns = [[lower([g], inputs, time_var=None) for g in row]
                for row in grads]

    points = []
    for _ in range(count):
        for _attempt in range(25):
            # parameters and coefficient atoms stay away from zero
            values = [float(rng.uniform(-1.5, 1.5)) if key in chart.variables
                      else float(rng.uniform(0.4, 1.6)) for key in inputs]
            for slot, v in hint.items():
                values[slot] = v
            if _newton_project(phi_fns, grad_fns, slots, values):
                points.append(values)
                break
        else:
            raise BracketError(
                "failed to sample the constraint surface; constraints may "
                "be inconsistent"
            )
    return inputs, points


def _newton_project(phi_fns, grad_fns, slots, values) -> bool:
    for _sweep in range(60):
        worst = 0.0
        for phi, grad in zip(phi_fns, grad_fns):
            try:
                residual, = phi(0.0, values)
            except ZeroDivisionError:
                return False
            worst = max(worst, abs(residual))
            if abs(residual) < 1e-13:
                continue
            best_slot, best_slope = None, 0.0
            for slot, slope_fn in zip(slots, grad):
                try:
                    slope, = slope_fn(0.0, values)
                except ZeroDivisionError:
                    continue
                if abs(slope) > abs(best_slope):
                    best_slot, best_slope = slot, slope
            if best_slot is None:
                return False
            values[best_slot] -= residual / best_slope
        if worst < 1e-13:
            return True
    try:
        return all(abs(phi(0.0, values)[0]) < 1e-12 for phi in phi_fns)
    except ZeroDivisionError:
        return False


def _effectively_nonzero(bracket: PhaseExpr,
                         surface: Tuple[tuple, Sequence[Sequence[float]]]
                         ) -> bool:
    if is_zero_expr(bracket):
        return False
    if is_const_expr(bracket):
        return True
    inputs, points = surface
    fn = lower([bracket], inputs, time_var=None)
    for values in points:
        try:
            if abs(fn(0.0, values)[0]) > 1e-10:
                return True
        except ZeroDivisionError:
            # a pole is as nonzero as it gets
            return True
    return False


def _eliminate(rows: List[List[Rat]]) -> Rat:
    """Gauss-Jordan elimination over ``Rat`` on the leading square block
    of ``rows`` (n rows, at least n columns), in place; returns the
    block's determinant, the signed product of the pivots.  A regular
    block ends as the identity, with the block's inverse applied to the
    columns right of it; a singular one stops at the first column without
    a pivot and returns zero."""
    n = len(rows)
    det = Rat.const(1)
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not rows[r][col].is_zero()), None
        )
        if pivot is None:
            return Rat.const(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det = det * p
        # left of col the pivot row is zero, and col itself ends as 1 here
        # and 0 in every other row
        rows[col][col:] = [Rat.const(1)] + [e / p for e in rows[col][col + 1:]]
        for r in range(n):
            factor = rows[r][col]
            if r == col or factor.is_zero():
                continue
            rows[r][col:] = [Rat.const(0)] + [
                a - factor * b
                for a, b in zip(rows[r][col + 1:], rows[col][col + 1:])]
    return det


def constraint_matrix(constraints: Sequence[PhaseExpr], chart: Chart,
                      registry: Optional[AtomRegistry] = None,
                      values_hint: Optional[Mapping[str, float]] = None
                      ) -> ConstraintMatrix:
    """Differentiate each constraint once, build Δ_ab = {φ_a, φ_b} from the
    gradients, classify, and, for a regular Δ, build C and D.

    A constraint is second-class when some bracket with another constraint
    is effectively nonzero on the constraint surface; identically zero and
    sampled-zero brackets count as weakly vanishing.
    """
    constraints = tuple(simplify(c) for c in constraints)
    n = len(constraints)
    grads = tuple(_gradient(c, chart, registry) for c in constraints)
    jmat = _symplectic(chart)
    delta = tuple(tuple(from_rat(_bracket(gi, jmat, gj)) for gj in grads)
                  for gi in grads)
    for i in range(n):
        for j in range(n):
            if not is_zero_expr(delta[i][j] + delta[j][i]):
                raise BracketError("constraint matrix lost antisymmetry")

    entries = [e for row in delta for e in row]
    need_points = any(not is_zero_expr(e) and not is_const_expr(e)
                      for e in entries)
    surface = (
        _surface_points(constraints, chart, 16, 20260817, values_hint,
                        extra_exprs=entries)
        if need_points else ((), [])
    )
    weakly = tuple(tuple(not _effectively_nonzero(e, surface) for e in row)
                   for row in delta)
    first = tuple(i for i in range(n) if all(weakly[i]))
    second = tuple(i for i in range(n) if not all(weakly[i]))

    inverse = dirac_matrix = None
    if not first:
        rows = [[to_rat(e) for e in row]
                + [Rat.const(1 if k == i else 0) for k in range(n)]
                for i, row in enumerate(delta)]
        if not _eliminate(rows).is_zero():
            c = [row[n:] for row in rows]
            inverse = tuple(tuple(from_rat(e) for e in row) for row in c)
            # D = J + (J G) C (J G)ᵀ, as Gᵀ J = −(J G)ᵀ for gradients G
            jg = list(zip(*(_apply(jmat, g) for g in grads)))
            cjg = [_apply(c, row) for row in jg]
            dirac_matrix = tuple(
                tuple(j_ik + _dot(jg_i, cjg_k) for j_ik, cjg_k in zip(j_i, cjg))
                for j_i, jg_i in zip(jmat, jg))
    return ConstraintMatrix(
        constraints=constraints,
        gradients=grads,
        delta=delta,
        weakly_zero=weakly,
        first_class=first,
        second_class=second,
        inverse=inverse,
        dirac_matrix=dirac_matrix,
        chart=chart,
    )


def _checked_dirac_matrix(cm: ConstraintMatrix, chart: Chart) -> Matrix:
    if cm.dirac_matrix is None:
        raise SingularDeltaError(cm)
    if chart != cm.chart:
        raise ChartMismatchError(f"constraint matrix is over '{cm.chart.label}'")
    return cm.dirac_matrix


def dirac(f: PhaseExpr, g: PhaseExpr, cm: ConstraintMatrix, chart: Chart,
          registry: Optional[AtomRegistry] = None,
          params: Optional[Iterable[str]] = None) -> PhaseExpr:
    """Dirac bracket {f,g} - Σ_ab {f,φ_a} C_ab {φ_b,g} with C = Δ⁻¹."""
    _check_symbols(f, g, chart, params)
    return from_rat(_bracket(_gradient(f, chart, registry),
                             _checked_dirac_matrix(cm, chart),
                             _gradient(g, chart, registry)))


def hamilton_eom(hamiltonian: PhaseExpr, chart: Chart,
                 cm: Optional[ConstraintMatrix] = None,
                 registry: Optional[AtomRegistry] = None,
                 params: Optional[Iterable[str]] = None
                 ) -> Dict[str, PhaseExpr]:
    """Right-hand sides v̇ = {v, H} = (M∇H)_v for every chart variable, M
    being the Dirac matrix of ``cm`` when one is given and J otherwise."""
    _check_symbols(hamiltonian, ZERO, chart, params)
    m = _symplectic(chart) if cm is None else _checked_dirac_matrix(cm, chart)
    rhs = _apply(m, _gradient(hamiltonian, chart, registry))
    return {v: from_rat(e) for v, e in zip(chart.variables, rhs)}
