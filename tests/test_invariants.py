"""The auxiliary equation and the conserved quadratic invariant."""

import math

import numpy as np
import pytest

from phasekit import (
    ErmakovBlowupError,
    ErmakovConfig,
    ExprProfile,
    IntegratorPolicy,
    InvariantError,
    StepSizeUnderflowError,
    Trajectory,
    co_integrate,
    ermakov_residuals,
    invariant_drift_report,
    lewis_invariant,
    num,
    oscillator_registry,
    parse,
    solve_ermakov,
)

from _support import constant_registry

TIGHT = IntegratorPolicy(method="rk45", abs_tol=1e-12, rel_tol=1e-12,
                         max_step=0.05)
INIT = {"x1": 0.8, "p1": -0.2, "x2": -0.5, "p2": 0.6}


def test_nu_defaults_to_equilibrium_value():
    cfg = ErmakovConfig(constant_registry(omega=2.0), (0.0, 1.0),
                        m=1.5, rho0=2.0)
    assert float(cfg.nu) == pytest.approx(1.5 * 2.0 * 4.0)


def test_constant_solution_stays_constant():
    # eta = 0, constant omega, rho0 = sqrt(nu/(m*omega)): an exact fixed point
    m, omega, nu = 1.0, 2.0, 2.0
    rho0 = math.sqrt(nu / (m * omega))
    cfg = ErmakovConfig(constant_registry(omega), (0.0, 10.0), m=m, nu=nu,
                        rho0=rho0)
    sol = solve_ermakov(cfg, TIGHT, points=201)
    assert float(np.max(np.abs(sol.series["rho"] - rho0))) < 1e-10
    assert float(np.max(np.abs(sol.series["rho_dot"]))) < 1e-10
    assert float(np.max(np.abs(ermakov_residuals(sol, cfg)))) < 1e-12


def test_damped_solution_satisfies_the_equation():
    cfg = ErmakovConfig(constant_registry(2.0, 0.15), (0.0, 10.0),
                        m=1.0, nu=2.0)
    sol = solve_ermakov(cfg, TIGHT, points=801)
    # fourth-order finite differences on h = 0.0125
    assert float(np.max(np.abs(ermakov_residuals(sol, cfg)))) < 1e-6


def test_linear_limit_allows_zero_barrier():
    # nu = 0 drops the repulsive term; rho = cos(omega t) crosses zero
    cfg = ErmakovConfig(constant_registry(2.0), (0.0, 10.0), m=1.0, nu=0.0)
    with pytest.raises(ErmakovBlowupError) as err:
        solve_ermakov(cfg, TIGHT, points=201)
    assert 0.5 < err.value.last_valid_time <= math.pi / 4


def _blowup_config():
    # w = 1/(1-t) is singular at t = 1: the stepper underflows just short
    # of it, and 0.9 is the last grid time rho was checked valid
    registry = oscillator_registry(
        friction_profile=ExprProfile(num(0)),
        frequency_profile=ExprProfile(parse("1/(1-t)", ["t"])),
    )
    return ErmakovConfig(registry, (0.0, 2.0), m=1.0, nu=1.0)


@pytest.mark.parametrize("run", [
    lambda cfg: solve_ermakov(cfg, TIGHT, points=21),
    lambda cfg: co_integrate(cfg, INIT, TIGHT, points=21),
], ids=["solve_ermakov", "co_integrate"])
def test_step_size_underflow_reports_last_valid_time(run):
    with pytest.raises(ErmakovBlowupError) as err:
        run(_blowup_config())
    assert isinstance(err.value.__cause__, StepSizeUnderflowError)
    assert err.value.last_valid_time == 0.9


# ---------------------------------------------------------------------------
# the invariant along oscillator trajectories
# ---------------------------------------------------------------------------

def test_invariant_constant_for_damped_motion():
    cfg = ErmakovConfig(constant_registry(2.0, 0.15), (0.0, 10.0),
                        m=1.0, nu=2.0)
    traj = co_integrate(cfg, INIT, TIGHT, points=401)
    values = lewis_invariant(traj, cfg)
    report = invariant_drift_report(values, traj.grid)
    assert report.max_drift < 1e-8
    assert 0.0 <= report.at_time <= 10.0


def test_equilibrium_identity():
    # undamped, started on the constant rho: I = (nu/omega) * E, E conserved
    m, omega, nu = 1.0, 2.0, 2.0
    cfg = ErmakovConfig(constant_registry(omega), (0.0, 10.0), m=m, nu=nu,
                        rho0=math.sqrt(nu / (m * omega)))
    traj = co_integrate(cfg, INIT, TIGHT, points=201)
    values = lewis_invariant(traj, cfg)
    energy = (
        (INIT["p1"] ** 2 + INIT["p2"] ** 2) / (2 * m)
        + 0.5 * m * omega ** 2 * (INIT["x1"] ** 2 + INIT["x2"] ** 2)
    )
    assert float(np.max(np.abs(values - (nu / omega) * energy))) < 1e-9
    assert invariant_drift_report(values, traj.grid).max_drift < 1e-12


def test_invariant_conserved_for_drifting_frequency():
    # slowly rising omega(t): the energy changes, the invariant must not
    registry = oscillator_registry(
        friction_profile=ExprProfile(num(0)),
        frequency_profile=ExprProfile(parse("2 + t/10", ["t"])),
    )
    cfg = ErmakovConfig(registry, (0.0, 5.0), m=1.0, nu=2.0)
    traj = co_integrate(cfg, INIT, TIGHT, points=201)
    values = lewis_invariant(traj, cfg)
    assert invariant_drift_report(values, traj.grid).max_drift < 1e-8
    # sanity: the motion itself is not trivially steady
    assert float(np.ptp(traj.series["x1"])) > 0.1


def test_invariant_needs_the_oscillator_series():
    cfg = ErmakovConfig(constant_registry(2.0), (0.0, 2.0), m=1.0, nu=2.0)
    sol = solve_ermakov(cfg, TIGHT, points=21)
    with pytest.raises(InvariantError,
                       match="the trajectory has no series x1, x2, p1, p2"):
        lewis_invariant(sol, cfg)
    with pytest.raises(InvariantError,
                       match="the trajectory has no series rho, rho_dot"):
        ermakov_residuals(Trajectory(sol.grid, {}), cfg)


def test_drift_report_matches_manual_computation():
    values = np.array([2.0, 2.0 + 4e-7, 2.0 - 2e-7])
    grid = np.array([0.0, 1.0, 2.0])
    report = invariant_drift_report(values, grid)
    assert report.max_drift == pytest.approx(2e-7, rel=1e-6)
    assert report.at_time == pytest.approx(1.0)
