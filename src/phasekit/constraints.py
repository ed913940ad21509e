"""Lagrangian-level analysis: Hessians, Legendre transforms, primary
constraints, total Hamiltonians and gauge fixing.

The Legendre transform here is deliberately rank-aware: momenta that cannot
be inverted for their velocities become primary constraints instead of
errors, which is exactly how the reparametrized oscillator acquires its
constraint surface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from . import brackets as _brackets
from .brackets import ConstraintMatrix, constraint_matrix, hamilton_eom
from .expr import (
    AtomRegistry,
    Chart,
    DampingFactorProfile,
    ExprProfile,
    Mul,
    PhaseExpr,
    _finite,
    antiderivative,
    as_expr,
    atom,
    diff,
    free_symbols,
    from_rat,
    is_zero_expr,
    lower,
    num,
    parse,
    simplify,
    solve_linear,
    subst,
    sym,
    to_rat,
)


class ConstraintError(Exception):
    pass


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

@dataclass
class LagrangianModel:
    """A Lagrangian with named configuration variables and velocities.

    ``momenta`` names the conjugate momentum for each coordinate; when
    omitted they default to ``p_<coordinate>``.
    """

    coordinates: Tuple[str, ...]
    velocities: Tuple[str, ...]
    lagrangian: PhaseExpr
    momenta: Tuple[str, ...] = ()
    registry: Optional[AtomRegistry] = None

    def __post_init__(self):
        self.coordinates = tuple(self.coordinates)
        self.velocities = tuple(self.velocities)
        if len(self.velocities) != len(self.coordinates):
            raise ConstraintError(
                "need exactly one velocity symbol per configuration variable"
            )
        names = self.coordinates + self.velocities
        if len(set(names)) != len(names):
            raise ConstraintError("coordinate and velocity names must be distinct")
        if not self.momenta:
            self.momenta = tuple(f"p_{c}" for c in self.coordinates)
        self.momenta = tuple(self.momenta)
        if len(self.momenta) != len(self.coordinates):
            raise ConstraintError("need exactly one momentum name per coordinate")

    @property
    def chart(self) -> Chart:
        return Chart(tuple(zip(self.coordinates, self.momenta)))


@dataclass(frozen=True)
class Hessian:
    """∂²L/∂v_i∂v_j with its exact determinant."""

    matrix: Tuple[Tuple[PhaseExpr, ...], ...]
    determinant: PhaseExpr


@dataclass
class LegendreResult:
    momenta: Dict[str, PhaseExpr]
    velocity_solutions: Dict[str, PhaseExpr]
    hamiltonian: PhaseExpr
    primaries: Tuple[PhaseExpr, ...]
    chart: Chart


@dataclass(frozen=True)
class GaugeSpec:
    """Linear gauge t_τ(τ) over a window (τ₁, τ₂, t₁, t₂).

    ``eta_gauge`` vanishes exactly on the orbit
    t_τ = (t₂−t₁)(τ−τ₁)/(τ₂−τ₁) + t₁ of the extended oscillator's time
    coordinate ``t_tau`` and the multiplier is the slope
    λ = (t₂−t₁)/(τ₂−τ₁).
    """

    window: Tuple[float, float, float, float]

    def __post_init__(self):
        tau1, tau2 = self.window[:2]
        if tau2 <= tau1:
            raise ConstraintError("gauge window needs tau2 > tau1")
        # t2 == t1 gives a zero slope
        if not math.isfinite(self.lambda_value) or self.lambda_value == 0:
            raise ConstraintError(
                f"gauge window slope (t2 - t1)/(tau2 - tau1) = "
                f"{self.lambda_value} is not a finite nonzero float")

    @property
    def lambda_value(self) -> float:
        tau1, tau2, t1, t2 = self.window
        return (t2 - t1) / (tau2 - tau1)

    @property
    def slope(self) -> Fraction:
        """λ of the window's floats, exactly."""
        tau1, tau2, t1, t2 = map(Fraction, self.window)
        return (t2 - t1) / (tau2 - tau1)

    @property
    def eta_gauge(self) -> PhaseExpr:
        tau1, _, t1, _ = map(Fraction, self.window)
        slope = num(self.slope)
        return simplify(
            sym("t_tau") - (slope * (sym("tau") - num(tau1)) + num(t1))
        )

    def time_of(self, tau: float) -> float:
        tau1, tau2, t1, t2 = self.window
        return (t2 - t1) * (tau - tau1) / (tau2 - tau1) + t1


@dataclass
class ConstraintSet:
    primaries: Tuple[PhaseExpr, ...]
    secondaries: Tuple[PhaseExpr, ...] = ()
    gauge: Optional[GaugeSpec] = None

    def all_constraints(self) -> Tuple[PhaseExpr, ...]:
        out = tuple(self.primaries) + tuple(self.secondaries)
        if self.gauge is not None:
            out = out + (self.gauge.eta_gauge,)
        return out


# --------------------------------------------------------------------------
# Hessian
# --------------------------------------------------------------------------

def hessian(model: LagrangianModel) -> Hessian:
    """Velocity Hessian of the Lagrangian and its exact determinant."""
    n = len(model.velocities)
    first = [diff(model.lagrangian, v, model.registry)
             for v in model.velocities]
    matrix = [[diff(d, v, model.registry) for v in model.velocities]
              for d in first]
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero_expr(matrix[i][j] - matrix[j][i]):
                raise ConstraintError("velocity Hessian is not symmetric")
    det = _brackets._eliminate([[to_rat(e) for e in row] for row in matrix])
    return Hessian(
        matrix=tuple(tuple(row) for row in matrix), determinant=from_rat(det)
    )


def hessian_rank(h: Hessian, values: Mapping,
                 registry: Optional[AtomRegistry] = None) -> int:
    """Numeric rank at a point: singular values above 1e-10·σ_max.

    ``values`` binds every variable of the Hessian entries, and may bind an
    atom by its ``Atom``; any other atom takes its ``registry`` profile at
    its argument's value.
    """
    n = len(h.matrix)
    fn = lower([e for row in h.matrix for e in row], tuple(values), registry,
               time_var=None)
    numeric = np.array(
        _finite(fn, None, [float(v) for v in values.values()])
    ).reshape(n, n)
    sv = np.linalg.svd(numeric, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0]))


def null_residual(h: Hessian, model: LagrangianModel) -> Tuple[PhaseExpr, ...]:
    """Symbolic product M·(velocities)ᵀ, row by row."""
    vel = [sym(v) for v in model.velocities]
    return tuple(
        simplify(sum((Mul((entry, v)) for entry, v in zip(row, vel)),
                     start=num(0)))
        for row in h.matrix
    )


# --------------------------------------------------------------------------
# Legendre transform
# --------------------------------------------------------------------------

def legendre(model: LagrangianModel) -> LegendreResult:
    """Momenta, Hamiltonian and primary constraints of the model.

    Each momentum definition p_i = ∂L/∂v_i is solved for a velocity where
    possible; definitions that become velocity-free after substitution are
    rank deficiencies and turn into primary constraints, normalized so the
    unresolved momentum carries coefficient one.  Velocities that no
    equation determines stay in H as undetermined multipliers.
    """
    defs = {p: diff(model.lagrangian, v, model.registry)
            for p, v in zip(model.momenta, model.velocities)}
    equations = {
        p: simplify(sym(p) - defs[p]) for p in model.momenta
    }
    solved: Dict[str, PhaseExpr] = {}
    primaries: List[PhaseExpr] = []
    pending = list(model.momenta)
    vel_set = set(model.velocities)

    for _pass in range(len(pending) + 1):
        progressed = False
        still = []
        for p in pending:
            eq = subst(equations[p], solved) if solved else equations[p]
            present = free_symbols(eq) & vel_set
            if not present:
                if is_zero_expr(eq):
                    progressed = True           # redundant definition
                    continue
                scale = diff(eq, p)
                if not is_zero_expr(scale) and not (free_symbols(scale) & vel_set):
                    eq = eq / scale
                primaries.append(simplify(eq))
                progressed = True
                continue
            solution = None
            for v in model.velocities:
                if v not in present:
                    continue
                solution = solve_linear(eq, v)
                if solution is not None:
                    solved[v] = solution[1]
                    break
            if solution is None:
                still.append(p)
            else:
                progressed = True
        pending = still
        if not pending:
            break
        if not progressed:
            raise ConstraintError(
                f"could not invert momenta for {pending}; the Lagrangian is "
                "outside the supported polynomial/rational class"
            )

    # velocities may reference later-solved velocities; close the map
    for _ in range(len(solved) + 1):
        updated = {v: subst(e, solved) for v, e in solved.items()}
        if updated == solved:
            break
        solved = updated

    h = sum(
        (Mul((sym(p), sym(v)))
         for p, v in zip(model.momenta, model.velocities)),
        start=num(0),
    ) - model.lagrangian
    hamiltonian = subst(simplify(h), solved) if solved else simplify(h)

    return LegendreResult(
        momenta={p: simplify(defs[p]) for p in model.momenta},
        velocity_solutions=dict(solved),
        hamiltonian=hamiltonian,
        primaries=tuple(primaries),
        chart=model.chart,
    )


# --------------------------------------------------------------------------
# total Hamiltonian, secondary search
# --------------------------------------------------------------------------

def total_hamiltonian(cs: ConstraintSet, lam) -> PhaseExpr:
    """λ·φ for a single primary, Σ λ_a φ_a when λ is a sequence."""
    if not cs.primaries:
        raise ConstraintError("no primary constraint to multiply")
    if isinstance(lam, (list, tuple)):
        if len(lam) != len(cs.primaries):
            raise ConstraintError("need one multiplier per primary constraint")
        total = num(0)
        for l, phi in zip(lam, cs.primaries):
            total = total + Mul((as_expr(l), phi))
        return simplify(total)
    if len(cs.primaries) != 1:
        raise ConstraintError(
            "scalar multiplier but several primaries; pass a sequence"
        )
    return simplify(Mul((as_expr(lam), cs.primaries[0])))


@dataclass(frozen=True)
class SecondarySearch:
    secondaries: Tuple[PhaseExpr, ...]
    passes: int
    matrix: ConstraintMatrix


def secondary_constraints(cs: ConstraintSet, total_h: PhaseExpr, chart: Chart,
                          registry: Optional[AtomRegistry] = None
                          ) -> SecondarySearch:
    """Dirac's consistency search: add φ̇ until it vanishes weakly.

    The consistency condition is the total derivative in the evolution
    parameter ``tau``, φ̇ = ∂φ/∂τ + ∇φ·ẋ with ẋ = {x, H_T} the flow of the
    total Hamiltonian, so gauge constraints that carry τ explicitly are
    handled correctly.  Each pass builds the ``constraint_matrix`` of the
    current set (primaries, secondaries found so far, gauge), takes ∇φ from
    it, and keeps the conditions that do not reduce to zero modulo the
    current set; the matrix of the pass that adds nothing is the result.
    Six passes at most.
    """
    flow = [to_rat(v) for v in
            hamilton_eom(total_h, chart, registry=registry).values()]
    found: List[PhaseExpr] = []
    for pass_count in range(1, 7):
        known = ConstraintSet(cs.primaries, (*cs.secondaries, *found),
                              cs.gauge).all_constraints()
        cm = constraint_matrix(known, chart, registry)
        candidates = []
        for phi, grad in zip(cm.constraints, cm.gradients):
            c = to_rat(diff(phi, "tau", registry)) + _brackets._dot(grad, flow)
            if c.is_zero():
                continue
            if c.is_const():
                raise ConstraintError(
                    "constraint consistency produced a nonzero constant; "
                    "the system is inconsistent"
                )
            candidates.append(from_rat(c))
        weakly = _brackets._weakly_zero(candidates, cm.constraints, chart)
        new = [c for c, zero in zip(candidates, weakly) if not zero]
        if not new:
            return SecondarySearch(secondaries=tuple(found), passes=pass_count,
                                   matrix=cm)
        found.extend(new)
    raise ConstraintError("secondary-constraint search did not close")


# --------------------------------------------------------------------------
# built-in oscillator models
# --------------------------------------------------------------------------

def oscillator_registry(friction_profile=None, frequency_profile=None,
                        span=None) -> AtomRegistry:
    """Atoms of the damped oscillator family.

    ``w`` is the (possibly time-dependent) angular frequency, ``eta_fric``
    the friction coefficient, and ``f`` the accumulated damping factor
    exp(-∫₀ᵗ eta_fric); f carries the derivative rule f' = -eta_fric·f.
    This is the one place that chooses f's profile: exp(-F) as an
    ``ExprProfile`` when the friction is an ``ExprProfile`` with no
    exponent whose antiderivative F exists (1 for no friction), else a
    ``DampingFactorProfile`` over ``span`` (a ``ValueError`` without one).
    """
    damping = None
    exact = None
    if (isinstance(friction_profile, ExprProfile)
            and is_zero_expr(friction_profile.exponent)):
        exact = antiderivative(friction_profile.expression, "t")
    if exact is not None:
        damping = ExprProfile(num(1), -exact)
    elif friction_profile is not None:
        if span is None:
            raise ValueError("a friction with no closed-form integral "
                             "needs a span")
        damping = DampingFactorProfile(friction_profile, span)
    reg = AtomRegistry()
    reg.register("w", profile=frequency_profile)
    reg.register("eta_fric", profile=friction_profile)
    reg.register(
        "f",
        derivative=lambda arg: -atom("eta_fric", arg) * atom("f", arg),
        profile=damping,
    )
    return reg


def original_oscillator() -> LagrangianModel:
    """Planar damped oscillator in physical time t."""
    reg = oscillator_registry()
    text = (
        "(m/(2*f(t)))*(x1_dot^2 + x2_dot^2)"
        " - (m*w(t)^2/(2*f(t)))*(x1^2 + x2^2)"
    )
    lag = parse(text, ["x1", "x2", "x1_dot", "x2_dot", "t", "m"], reg)
    return LagrangianModel(
        coordinates=("x1", "x2"),
        velocities=("x1_dot", "x2_dot"),
        lagrangian=lag,
        momenta=("p1", "p2"),
        registry=reg,
    )


def extended_oscillator() -> LagrangianModel:
    """The same oscillator with time promoted to a configuration variable.

    Velocities are taken with respect to the evolution parameter; the
    Lagrangian is homogeneous of degree one in them, which is what makes
    the velocity Hessian singular.
    """
    reg = oscillator_registry()
    text = (
        "(m/(2*f(t_tau)*t_tau_dot))*(x1_tau_dot^2 + x2_tau_dot^2)"
        " - (m*w(t_tau)^2*t_tau_dot/(2*f(t_tau)))*(x1_tau^2 + x2_tau^2)"
    )
    lag = parse(
        text,
        ["x1_tau", "x2_tau", "t_tau",
         "x1_tau_dot", "x2_tau_dot", "t_tau_dot", "m"],
        reg,
    )
    return LagrangianModel(
        coordinates=("x1_tau", "x2_tau", "t_tau"),
        velocities=("x1_tau_dot", "x2_tau_dot", "t_tau_dot"),
        lagrangian=lag,
        momenta=("p1_tau", "p2_tau", "p_tau"),
        registry=reg,
    )


@functools.lru_cache(maxsize=None)
def derived_oscillator(chart: str
                       ) -> Tuple[LagrangianModel, Hessian, LegendreResult]:
    """The model, Hessian and Legendre transform of the oscillator in
    ``chart`` ("original" or "extended"), derived once per process on first
    use.  Every ``oscillator_registry`` gives the same results: a registry
    enters them only through the atom names and f' = -eta_fric·f, which all
    share; a config's profiles enter where an expression is lowered or
    evaluated, as in ``hessian_rank`` and the integrators."""
    model = {"original": original_oscillator,
             "extended": extended_oscillator}[chart]()
    return model, hessian(model), legendre(model)
