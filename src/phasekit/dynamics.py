"""Numeric integration of the original and extended oscillator flows.

Right-hand sides arrive as symbolic equations of motion and are lowered to
plain Python callables once per run by ``expr.lower``.  Two steppers are
provided: adaptive Dormand-Prince RK45 (default) and fixed-step RK4 for
reproducibility tables.  The whole rk45 integrator (step, error norm, step
control) and one RK4 step are generated from the tableaux per dimension, each
component a float local; ``integrate`` builds the output table once, and both
land exactly on the requested grid, with no dense-output interpolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import brackets as _brackets
from . import constraints as _constraints
from .constraints import ConstraintSet, GaugeSpec
from .expr import AtomRegistry, PhaseExpr, lower, simplify, sym


class DynamicsError(Exception):
    pass


class StepSizeUnderflowError(DynamicsError):
    pass


class NonFiniteStateError(DynamicsError):
    pass


class PreconditionError(DynamicsError):
    pass


class ConstraintViolationError(DynamicsError):
    def __init__(self, message: str, parameter_value: float):
        super().__init__(message)
        self.parameter_value = parameter_value


# --------------------------------------------------------------------------
# policies and trajectories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorPolicy:
    method: str = "rk45"          # "rk45" adaptive or "rk4" fixed-step
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 0.05

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise DynamicsError(f"unknown integrator method '{self.method}'")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DynamicsError("tolerances must be positive")
        if self.max_step <= 0:
            raise DynamicsError("max_step must be positive")


@dataclass
class Trajectory:
    grid: np.ndarray
    series: Dict[str, np.ndarray]
    param_name: str = "t"
    # filled by integrate(): accepted/rejected steps, RHS evaluations (nfev),
    # step-size range and, for rk45, the worst accepted error estimate per
    # unit step in tolerance-scale units
    stats: Optional[Dict[str, float]] = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise DynamicsError("trajectory grid needs at least two points")
        if not np.all(np.diff(self.grid) > 0):
            raise DynamicsError("trajectory grid must be strictly increasing")
        clean = {}
        for name, values in self.series.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != self.grid.shape:
                raise DynamicsError(
                    f"series '{name}' length does not match the grid"
                )
            if not np.all(np.isfinite(arr)):
                raise DynamicsError(f"series '{name}' contains non-finite values")
            arr.setflags(write=False)
            clean[name] = arr
        self.series = clean
        self.grid.setflags(write=False)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self.series)


def write_csv(traj: Trajectory, path) -> None:
    """Plain CSV, 17 significant digits, deterministic byte-for-byte."""
    names = list(traj.series)
    columns = [traj.grid.tolist()] + [traj.series[n].tolist() for n in names]
    lines = [",".join([traj.param_name] + names)]
    lines += [",".join([f"{v:.17g}" for v in row]) for row in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# expression compilation
# --------------------------------------------------------------------------

def compile_rhs(eom: Mapping[str, PhaseExpr], variables: Sequence[str],
                registry: Optional[AtomRegistry] = None,
                params: Optional[Mapping[str, float]] = None,
                time_var: str = "t") -> Callable:
    """Compile v̇ = rhs(v) into ``f(t, y) -> tuple``."""
    return lower([eom[v] for v in variables], variables, registry, params,
                 time_var)


def compile_scalar(expression: PhaseExpr, variables: Sequence[str],
                   registry: Optional[AtomRegistry] = None,
                   params: Optional[Mapping[str, float]] = None,
                   time_var: str = "t") -> Callable:
    """Compile one expression into ``f(t, y) -> float``."""
    fn = lower([expression], variables, registry, params, time_var)

    def scalar(t: float, y: Sequence[float]) -> float:
        return float(fn(t, y)[0])

    return scalar


# --------------------------------------------------------------------------
# steppers
# --------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th- and 4th-order weights
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


# The rk45 integrator that _steppers completes per dimension.  A step, capped
# by max_step and the next output point, is accepted when its RMS error in
# tolerance units is at most h (so global drift stays near tol x span); h then
# scales by 0.9·(h/err)^(1/4), clamped to [0.2, 5].  Comparisons replace
# abs/min/max and, like them, keep the first argument on ties and NaN.
_RK45 = """\
def rk45(rhs, y, grid, policy, observer):
    abs_tol, rel_tol, max_step = policy.abs_tol, policy.rel_tol, policy.max_step
    ts = grid.tolist()
    t = ts[0]
    states = [y]
    if observer is not None:
        observer(t, y)
    try:
        %(k0)s = rhs(t, y)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteStateError(f"right-hand side undefined at t={t}")
    %(y)s = y
    h = min(max_step, (ts[-1] - ts[0]) / 100.0)
    accepted = rejected = 0
    h_min, h_max, worst = math.inf, 0.0, 0.0
    for target in ts[1:]:
        a = -target if target < 0.0 else target
        end = target - 1e-14 * (a if a > 1.0 else 1.0)
        while t < end:
            h = max_step if max_step < h else h
            h = target - t if target - t < h else h
            a = -t if t < 0.0 else t
            if h < 1e-14 * (a if a > 1.0 else 1.0):
                raise StepSizeUnderflowError(f"step size underflow at t={t}")
            try:
                %(stages)s
            except (ZeroDivisionError, OverflowError):
                raise NonFiniteStateError(f"right-hand side undefined near t={t}")
            if not (%(finite)s):
                raise NonFiniteStateError(f"state became non-finite near t={t}")
            if err <= h:
                accepted += 1
                h_min = h if h < h_min else h_min
                h_max = h if h > h_max else h_max
                worst = err / h if err / h > worst else worst
                t += h
                y = z
                %(accept)s
                f = 5.0 if err == 0.0 else 0.9 * (h / err) ** 0.25
                h *= (f if f < 5.0 else 5.0) if f > 0.2 else 0.2
            else:
                rejected += 1
                f = 0.9 * (h / err) ** 0.25
                h *= f if f > 0.2 else 0.2
        t = target
        states.append(y)
        if observer is not None:
            observer(t, y)
    return states, accepted, rejected, h_min, h_max, worst
"""


@functools.lru_cache(maxsize=None)
def _steppers(d: int):
    """``(rk45, rk4)`` for dimension d, written out from the tableaux with a
    float local per component; sums run left to right from 0.0, zero terms
    included, which fixes their rounding.  ``rk45`` is the whole adaptive
    loop of ``_integrate_rk45``, ``rk4`` one fixed step."""
    def row(fmt):
        return "(" + "".join(fmt.format(j) + ", " for j in range(d)) + ")"

    def sum_of(coeffs):
        return "(0.0" + "".join(f" + {a!r} * k{i}_{{0}}"
                                for i, a in enumerate(coeffs)) + ")"

    stages = []
    for i, (c, a) in enumerate(zip(_DP_C[1:], _DP_A[1:]), 1):
        stages += [f"z{j} = y{j} + h * {sum_of(a).format(j)}"
                   for j in range(d)]
        stages += [f"z = {row('z{0}')}",
                   f"{row(f'k{i}_{{0}}')} = rhs(t + {c!r} * h, z)"]
    for j in range(d):
        stages += [f"a = -y{j} if y{j} < 0.0 else y{j}",
                   f"b = -z{j} if z{j} < 0.0 else z{j}",
                   f"q{j} = h * {sum_of(_DP_E).format(j)} / "
                   f"(abs_tol + rel_tol * (b if b > a else a))"]
    squares = "".join(f" + q{j} * q{j}" for j in range(d))
    stages.append(f"err = math.sqrt((0.0{squares}) / {d})")
    rk45 = _RK45 % {
        "y": row("y{0}"), "k0": row("k0_{0}"),
        "stages": "\n                ".join(stages),
        "finite": " and ".join(f"z{j} - z{j} == 0.0" for j in range(d)),
        "accept": "\n                ".join(f"y{j}, k0_{j} = z{j}, k6_{j}"
                                            for j in range(d)),
    }
    rk4 = ["def rk4(rhs, t, y, h):", f"{row('y{0}')} = y",
           "h2, h6 = h / 2, h / 6", f"{row('a{0}')} = rhs(t, y)",
           f"{row('b{0}')} = rhs(t + h2, {row('y{0} + h2 * a{0}')})",
           f"{row('c{0}')} = rhs(t + h2, {row('y{0} + h2 * b{0}')})",
           f"{row('e{0}')} = rhs(t + h, {row('y{0} + h * c{0}')})",
           f"return {row('y{0} + h6 * (a{0} + 2 * b{0} + 2 * c{0} + e{0})')}"]
    scope = {}
    exec(rk45 + "\n    ".join(rk4), globals(), scope)
    return scope["rk45"], scope["rk4"]


def _integrate_rk45(rhs, y0, grid, policy, observer=None):
    states, accepted, rejected, h_min, h_max, worst = _steppers(len(y0))[0](
        rhs, y0, grid, policy, observer)
    stats = {
        "steps": float(accepted),
        "rejected": float(rejected),
        "nfev": float(1 + 6 * (accepted + rejected)),
        "min_step": h_min if accepted else 0.0,
        "max_step": h_max,
        "max_error_per_unit_step": worst,
    }
    return states, stats


def _integrate_rk4(rhs, y0, grid, policy, observer=None):
    rk4 = _steppers(len(y0))[1]
    states = [y0]
    y = y0
    total = 0
    h_min, h_max = math.inf, 0.0
    if observer is not None:
        observer(float(grid[0]), y)
    try:
        for a, b in zip(grid[:-1], grid[1:]):
            a, b = float(a), float(b)
            n = max(1, int(math.ceil((b - a) / policy.max_step)))
            h = (b - a) / n
            total += n
            h_min, h_max = min(h_min, h), max(h_max, h)
            t = a
            for _ in range(n):
                y = rk4(rhs, t, y, h)
                t += h
            if not all(map(math.isfinite, y)):
                raise NonFiniteStateError(f"state became non-finite near t={b}")
            states.append(y)
            if observer is not None:
                observer(b, y)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteStateError("right-hand side undefined during step")
    stats = {
        "steps": float(total),
        "rejected": 0.0,
        "nfev": float(4 * total),
        "min_step": h_min,
        "max_step": h_max,
    }
    return states, stats


def _resolve_grid(grid_or_span, points: int) -> np.ndarray:
    arr = np.asarray(grid_or_span, dtype=float)
    if arr.ndim == 1 and arr.size == 2 and points != 2:
        return np.linspace(arr[0], arr[1], points)
    if arr.ndim != 1:
        raise DynamicsError("grid must be one-dimensional")
    return arr


# integrate() refuses a grid that would take more max_step steps than this
MAX_STEPS = 1_000_000


def integrate(eom: Mapping[str, PhaseExpr], init: Mapping[str, float],
              grid_or_span, policy: IntegratorPolicy = IntegratorPolicy(),
              registry: Optional[AtomRegistry] = None,
              params: Optional[Mapping[str, float]] = None,
              param_name: str = "t", points: int = 201,
              observer=None) -> Trajectory:
    """Integrate symbolic equations of motion over a grid or (a, b) span."""
    variables = list(eom)
    missing = [v for v in variables if v not in init]
    if missing:
        raise PreconditionError(f"initial state missing variables {missing}")
    grid = _resolve_grid(grid_or_span, points)
    if (grid[-1] - grid[0]) / policy.max_step > MAX_STEPS:
        raise DynamicsError(
            f"max_step {policy.max_step:g} needs more than {MAX_STEPS} "
            f"steps over [{grid[0]:g}, {grid[-1]:g}]"
        )
    rhs = compile_rhs(eom, variables, registry, params, time_var=param_name)
    y0 = tuple(float(init[v]) for v in variables)
    stepper = _integrate_rk45 if policy.method == "rk45" else _integrate_rk4
    states, stats = stepper(rhs, y0, grid, policy, observer)
    table = np.array(states)
    return Trajectory(
        grid=grid,
        series={v: table[:, i] for i, v in enumerate(variables)},
        param_name=param_name,
        stats=stats,
    )


# --------------------------------------------------------------------------
# the gauge-fixed extended system
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _original() -> Tuple[PhaseExpr, Dict[str, PhaseExpr]]:
    # "t" enters H through the coefficient profiles; the integrator binds it.
    model, _, lgd = _constraints.derived_oscillator("original")
    return lgd.hamiltonian, _brackets.hamilton_eom(
        lgd.hamiltonian, lgd.chart, registry=model.registry, params={"m", "t"})


@functools.lru_cache(maxsize=None)
def _extended() -> Tuple[PhaseExpr, Dict[str, PhaseExpr]]:
    lgd = _constraints.derived_oscillator("extended")[2]
    phi = lgd.primaries[0]
    return phi, _brackets.hamilton_eom(simplify(sym("lam") * phi), lgd.chart)


def original_equations() -> Tuple[PhaseExpr, Dict[str, PhaseExpr]]:
    """H and Hamilton's equations (x1, x2, p1, p2) of the original
    oscillator, with m symbolic; derived once, a fresh dict per call."""
    h, eom = _original()
    return h, dict(eom)


def extended_equations() -> Dict[str, PhaseExpr]:
    """Equations of motion for H_T = lam·φ, with lam and m symbolic."""
    return dict(_extended()[1])


def extended_constraint() -> PhaseExpr:
    return _extended()[0]


def integrate_extended(gauge: GaugeSpec, init: Mapping[str, float],
                       policy: IntegratorPolicy = IntegratorPolicy(),
                       registry: Optional[AtomRegistry] = None,
                       params: Optional[Mapping[str, float]] = None,
                       points: int = 201,
                       surface_tol: float = 1e-10) -> Trajectory:
    """Integrate the gauge-fixed extended system over [τ₁, τ₂].

    The initial state must sit on the constraint surface (|φ| below
    ``surface_tol``) and on the gauge orbit (t_τ(τ₁) = t₁).  The run aborts
    if |φ| ever exceeds 100× the surface tolerance.
    """
    tau1, tau2, t1, _t2 = gauge.window
    eom = extended_equations()
    phi = extended_constraint()
    variables = list(eom)
    run_params = dict(params or {})
    run_params["lam"] = gauge.lambda_value

    missing = [v for v in variables if v not in init]
    if missing:
        raise PreconditionError(f"initial state missing variables {missing}")
    if abs(float(init["t_tau"]) - t1) > surface_tol:
        raise PreconditionError(
            f"gauge orbit violated at start: t_tau(tau1)={init['t_tau']}, "
            f"window expects {t1}"
        )
    phi_fn = compile_scalar(phi, variables, registry, run_params,
                            time_var="tau")
    y0 = tuple(float(init[v]) for v in variables)
    phi0 = phi_fn(tau1, y0)
    if abs(phi0) > surface_tol:
        raise PreconditionError(
            f"initial state violates the constraint: |phi| = {abs(phi0)}"
        )

    abort_at = 100.0 * surface_tol

    def watch(tau, y):
        value = phi_fn(tau, y)
        if abs(value) > abort_at:
            raise ConstraintViolationError(
                f"constraint drift |phi| = {abs(value)} exceeded "
                f"{abort_at} at tau = {tau}", tau
            )

    return integrate(
        eom, init, (tau1, tau2), policy, registry, run_params,
        param_name="tau", points=points, observer=watch,
    )


def constraint_drift(traj: Trajectory, cs: ConstraintSet,
                     registry: Optional[AtomRegistry] = None,
                     params: Optional[Mapping[str, float]] = None
                     ) -> Dict[str, np.ndarray]:
    """|constraint| per grid point, for every constraint in the set."""
    named: List[Tuple[str, PhaseExpr]] = []
    for i, phi in enumerate(cs.primaries):
        named.append((f"phi_{i}", phi))
    for i, chi in enumerate(cs.secondaries):
        named.append((f"chi_{i}", chi))
    if cs.gauge is not None:
        named.append(("eta_gauge", cs.gauge.eta_gauge))

    variables = list(traj.series)
    out: Dict[str, np.ndarray] = {}
    rows = np.column_stack([traj.series[v] for v in variables]).tolist() \
        if variables else [()] * traj.grid.size
    times = traj.grid.tolist()
    for name, expression in named:
        fn = compile_scalar(expression, variables, registry, params,
                            time_var=traj.param_name)
        out[name] = np.array([abs(fn(t, y)) for t, y in zip(times, rows)])
    return out
