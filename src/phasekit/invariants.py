"""Ermakov-Pinney auxiliary dynamics and the Lewis-Riesenfeld invariant.

The auxiliary equation

    rho'' + eta(t) rho' + w(t)^2 rho = nu^2 f(t)^2 / (m^2 rho^3)

is solved with the same steppers as the oscillator itself, through one
guarded ``integrate`` call that turns every failure of rho into
``ErmakovBlowupError``.  ``co_integrate`` runs the oscillator's Hamilton
equations, derived by ``dynamics.original_equations``, plus
``ermakov_equations`` as one coupled system, so the invariant is checked
on one grid with no interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import (
    IntegratorPolicy,
    NonFiniteStateError,
    StepSizeUnderflowError,
    Trajectory,
    integrate,
    original_equations,
)
from .expr import AtomRegistry, PhaseExpr, parse


class InvariantError(Exception):
    pass


class ErmakovBlowupError(InvariantError):
    """The auxiliary solution hit the rho -> 0 barrier."""

    def __init__(self, last_valid_time: float):
        super().__init__(
            f"auxiliary solution left the rho > 0 domain; last valid "
            f"time {last_valid_time}"
        )
        self.last_valid_time = last_valid_time


@dataclass
class ErmakovConfig:
    """Parameters for the auxiliary equation.

    ``nu`` defaults to m·w(0)·rho0², which makes a constant rho0 an exact
    equilibrium of the undamped constant-frequency equation.
    """

    registry: AtomRegistry
    span: Tuple[float, float]
    m: float = 1.0
    nu: Optional[float] = None
    rho0: float = 1.0
    rho_dot0: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise InvariantError("mass must be positive")
        if self.rho0 <= 0:
            raise InvariantError("rho0 must be positive")
        if self.nu is None:
            at = 0.0
            lo, hi = self.span
            if not (lo <= 0.0 <= hi):
                at = float(lo)
            w0 = self.registry.profile("w").value(0, at)
            try:
                self.nu = self.m * w0 * self.rho0 ** 2
            except OverflowError:
                self.nu = math.inf
            if not math.isfinite(self.nu):
                raise InvariantError(
                    "the default nu = m*w(0)*rho0^2 overflows a float")
        # nu = 0 is allowed as the linear reduction; the solution may then
        # cross zero and abort on the positivity gate
        if self.nu < 0:
            raise InvariantError("nu must be non-negative")


@dataclass
class ErmakovSolution:
    grid: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.rho_dot = np.asarray(self.rho_dot, dtype=float)
        if np.any(self.rho <= 0):
            bad = int(np.argmax(self.rho <= 0))
            last = float(self.grid[bad - 1]) if bad else float(self.grid[0])
            raise ErmakovBlowupError(last)


def ermakov_equations(cfg: ErmakovConfig) -> Dict[str, PhaseExpr]:
    """First-order form of the auxiliary equation; nu = 0 drops the
    repulsive term (the linear reduction)."""
    variables = ["rho", "rho_dot", "t", "m", "nu"]
    text = "-(eta_fric(t)*rho_dot) - w(t)^2*rho"
    if cfg.nu != 0:
        text += " + nu^2*f(t)^2/(m^2*rho^3)"
    return {
        "rho": parse("rho_dot", variables),
        "rho_dot": parse(text, variables, cfg.registry),
    }


class _PositivityWatch:
    """Aborts a run once rho (state slot ``index``) is not finite and above
    ``floor``; ``last`` holds the last time it was (``start`` until then)."""

    def __init__(self, floor: float, index: int, start: float):
        self.floor, self.index, self.last = floor, index, start

    def __call__(self, t, y):
        if not math.isfinite(y[self.index]) or y[self.index] <= self.floor:
            raise ErmakovBlowupError(self.last)
        self.last = t


def _integrate_guarded(cfg: ErmakovConfig, eom: Mapping[str, PhaseExpr],
                       init: Mapping[str, float], policy: IntegratorPolicy,
                       points: int) -> Trajectory:
    """Run ``eom``, which holds rho and rho_dot, over the span; step-size
    underflow and non-finite states surface as ``ErmakovBlowupError``."""
    init = {**init, "rho": cfg.rho0, "rho_dot": cfg.rho_dot0}
    watch = _PositivityWatch(1e-9 * cfg.rho0, list(eom).index("rho"),
                             float(cfg.span[0]))
    try:
        return integrate(eom, init, cfg.span, policy, cfg.registry,
                         {"m": cfg.m, "nu": float(cfg.nu)}, param_name="t",
                         points=points, observer=watch)
    except (StepSizeUnderflowError, NonFiniteStateError) as exc:
        raise ErmakovBlowupError(watch.last) from exc


def solve_ermakov(cfg: ErmakovConfig,
                  policy: IntegratorPolicy = IntegratorPolicy(),
                  points: int = 201) -> ErmakovSolution:
    """Integrate the auxiliary equation over the configured span.

    Raises ``ErmakovBlowupError`` with the last valid time if rho reaches
    the positivity barrier (which the nu > 0 repulsive term normally
    prevents, but nu = 0 or extreme data can defeat).
    """
    traj = _integrate_guarded(cfg, ermakov_equations(cfg), {}, policy, points)
    return solution_from_trajectory(traj)


def co_integrate(cfg: ErmakovConfig, oscillator_init: Mapping[str, float],
                 policy: IntegratorPolicy = IntegratorPolicy(),
                 points: int = 201) -> Trajectory:
    """One coupled run: the oscillator's derived Hamilton equations
    (x1, x2, p1, p2) plus ``ermakov_equations`` (rho, rho_dot).

    Sharing a single integration keeps the invariant-conservation check
    free of interpolation error.
    """
    _, eom = original_equations(cfg.registry)
    eom.update(ermakov_equations(cfg))
    return _integrate_guarded(cfg, eom, oscillator_init, policy, points)


def solution_from_trajectory(traj: Trajectory) -> ErmakovSolution:
    return ErmakovSolution(
        grid=traj.grid, rho=traj.series["rho"], rho_dot=traj.series["rho_dot"]
    )


def lewis_invariant(traj: Trajectory, sol: ErmakovSolution,
                    cfg: ErmakovConfig) -> np.ndarray:
    """I(t) along the trajectory.

    I = 1/2 [ (m f⁻¹ rho' x1 − rho p1)² + nu² x1²/rho²
            + (m f⁻¹ rho' x2 − rho p2)² + nu² x2²/rho² ]
    """
    grid = traj.grid
    if sol.grid.shape != grid.shape or not np.allclose(sol.grid, grid,
                                                       rtol=0, atol=1e-12):
        raise InvariantError("the solution is not on the trajectory's grid")
    rho, rho_dot = sol.rho, sol.rho_dot

    f_value = cfg.registry.profile("f").value
    f = np.array([f_value(0, float(t)) for t in grid])
    x1, x2 = traj.series["x1"], traj.series["x2"]
    p1, p2 = traj.series["p1"], traj.series["p2"]
    m, nu = cfg.m, float(cfg.nu)

    a1 = m * rho_dot * x1 / f - rho * p1
    a2 = m * rho_dot * x2 / f - rho * p2
    return 0.5 * (a1 ** 2 + nu ** 2 * x1 ** 2 / rho ** 2
                  + a2 ** 2 + nu ** 2 * x2 ** 2 / rho ** 2)


class DriftReport(NamedTuple):
    max_drift: float
    at_time: float
    mode: str       # "relative" or "absolute"


def invariant_drift_report(values, grid) -> DriftReport:
    """Largest departure from the initial value, and the grid value where
    it happens.  Relative when I(0) is nonzero, absolute otherwise.
    """
    arr = np.asarray(values, dtype=float)
    base = arr[0]
    dev = np.abs(arr - base)
    mode = "absolute"
    if base != 0.0:
        dev = dev / abs(base)
        mode = "relative"
    idx = int(np.argmax(dev))
    return DriftReport(max_drift=float(dev[idx]), at_time=float(grid[idx]),
                       mode=mode)


def ermakov_residuals(sol: ErmakovSolution, cfg: ErmakovConfig) -> np.ndarray:
    """Finite-difference residual of the auxiliary ODE on interior points.

    Fourth-order central differences of the rho' series approximate rho'';
    the grid must be uniform.
    """
    grid, rho, rho_dot = sol.grid, sol.rho, sol.rho_dot
    if grid.size < 5:
        raise InvariantError("need at least five points for the residual")
    h = np.diff(grid)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0):
        raise InvariantError("residual check needs a uniform grid")
    h = float(h[0])

    rho_dd = (rho_dot[:-4] - 8 * rho_dot[1:-3] + 8 * rho_dot[3:-1]
              - rho_dot[4:]) / (12 * h)
    interior = slice(2, grid.size - 2)
    t_in = grid[interior]
    rho_in = rho[interior]
    rho_dot_in = rho_dot[interior]

    reg = cfg.registry
    eta = np.array([reg.profile("eta_fric").value(0, float(t)) for t in t_in])
    w = np.array([reg.profile("w").value(0, float(t)) for t in t_in])
    f = np.array([reg.profile("f").value(0, float(t)) for t in t_in])
    forcing = (float(cfg.nu) ** 2) * f ** 2 / (cfg.m ** 2 * rho_in ** 3)
    return rho_dd + eta * rho_dot_in + w ** 2 * rho_in - forcing


def export_invariant_csv(path, sol: ErmakovSolution, values) -> None:
    """CSV of (t, rho, rho_dot, I) with 17 significant digits."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != sol.grid.shape:
        raise InvariantError("invariant series length does not match the grid")
    lines = ["t,rho,rho_dot,I"]
    for i in range(sol.grid.size):
        lines.append(",".join(
            f"{v:.17g}" for v in
            (sol.grid[i], sol.rho[i], sol.rho_dot[i], arr[i])
        ))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
