"""Integration of symbolic equations of motion and the extended system."""

import math
import random
import warnings

import numpy as np
import pytest

from phasekit import (
    AtomRegistry,
    ConstraintSet,
    ConstraintViolationError,
    DynamicsError,
    ErmakovConfig,
    ExprProfile,
    GaugeSpec,
    IntegratorPolicy,
    NonFiniteStateError,
    PreconditionError,
    StepSizeUnderflowError,
    Trajectory,
    constraint_drift,
    diff,
    equivalent,
    eval_expr,
    extended_constraint,
    extended_equations,
    integrate,
    integrate_extended,
    num,
    original_equations,
    oscillator_registry,
    parse,
    simplify,
    sym,
    write_csv,
)
from phasekit import cli
from phasekit.dynamics import _DP_A, _DP_C, _DP_E, _steppers, compile_rhs
from phasekit.invariants import ermakov_equations

from _support import (Fixed, constant_registry, count_rhs_calls,
                      damped_oracle)

TIGHT = IntegratorPolicy(method="rk45", abs_tol=1e-12, rel_tol=1e-12,
                         max_step=0.05)


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def test_hamilton_eom_golden():
    registry = constant_registry(omega=2.0, eta=0.1)
    _, eom = original_equations(registry)
    ext = ["x1", "p1", "x2", "p2", "t", "m"]
    # the order fixes the CSV columns of every oscillator run
    assert list(eom) == ["x1", "x2", "p1", "p2"]
    for i in ("1", "2"):
        assert eom["x" + i] == parse(f"f(t)*p{i}/m", ext, registry)
        assert eom["p" + i] == parse(f"-(m*w(t)^2/f(t))*x{i}", ext, registry)


def test_extended_equations_structure():
    eom = extended_equations()
    phi = extended_constraint()
    assert set(eom) == {"x1_tau", "p1_tau", "x2_tau", "p2_tau",
                        "t_tau", "p_tau"}
    assert equivalent(eom["t_tau"], sym("lam"))
    # energy-balance row: p_tau evolves against the explicit t_tau dependence
    expected = simplify(num(-1) * sym("lam") * diff(phi, "t_tau"))
    assert equivalent(eom["p_tau"], expected)


# ---------------------------------------------------------------------------
# adaptive integration against the closed form
# ---------------------------------------------------------------------------

def test_rk45_matches_damped_closed_form():
    omega, eta, m = 2.0, 0.25, 1.0
    registry = constant_registry(omega, eta)
    _, eom = original_equations(registry)
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 1.0}
    grid = np.linspace(0.0, 10.0, 201)
    traj = integrate(eom, init, grid, TIGHT, registry, {"m": m})
    x_of, p_of = damped_oracle(omega, eta, init["x1"], init["p1"] / m, m)
    assert float(np.max(np.abs(traj.series["x1"] - x_of(grid)))) < 1e-9
    assert float(np.max(np.abs(traj.series["p1"] - p_of(grid)))) < 1e-9


def test_rk45_reports_step_statistics():
    registry = constant_registry(1.0, 0.0)
    _, eom = original_equations(registry)
    traj = integrate(eom, {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 0.0},
                     (0.0, 5.0), TIGHT, registry, {"m": 1.0}, points=51)
    stats = traj.stats
    assert stats["steps"] > 0
    assert stats["rejected"] >= 0
    assert 0.0 < stats["min_step"] <= stats["max_step"] <= TIGHT.max_step
    # the controller only accepts steps inside tolerance
    assert 0.0 < stats["max_error_per_unit_step"] <= 1.0


def test_rk4_fixed_grid_is_deterministic(tmp_path):
    registry = constant_registry(2.0, 0.1)
    _, eom = original_equations(registry)
    policy = IntegratorPolicy(method="rk4", max_step=0.01)
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.5, "p2": -0.2}
    outs = []
    for name in ("a.csv", "b.csv"):
        traj = integrate(eom, init, (0.0, 3.0), policy, registry,
                         {"m": 1.0}, points=61)
        write_csv(traj, tmp_path / name)
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].split(b"\n", 1)[0]
    assert header == b"t,x1,x2,p1,p2"


def test_rk4_accuracy_scales_with_step():
    registry = constant_registry(2.0, 0.0)
    _, eom = original_equations(registry)
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 0.0}
    x_of, _ = damped_oracle(2.0, 0.0, 1.0, 0.0)
    errs = []
    for h in (0.02, 0.01):
        policy = IntegratorPolicy(method="rk4", max_step=h)
        traj = integrate(eom, init, (0.0, 5.0), policy, registry,
                         {"m": 1.0}, points=11)
        errs.append(float(np.max(np.abs(
            traj.series["x1"] - x_of(traj.grid)))))
    # fourth order: halving h buys about a factor 16
    assert errs[1] < errs[0] / 8.0


def test_rk45_agrees_with_scipy_dop853_on_linear_in_t_profiles():
    # linear-in-t w and eta: the damping factor is exact (eta integrates in
    # closed form), but the trajectory has no closed form, so an independent
    # stepper is the oracle; both run the same lowered right-hand side
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    eta = ExprProfile(parse("0.1 + 0.02*t", ["t"]))
    registry = oscillator_registry(
        friction_profile=eta,
        frequency_profile=ExprProfile(parse("2 + 0.1*t", ["t"])),
    )
    _, eom = original_equations(registry)
    init = {"x1": 0.8, "x2": -0.5, "p1": -0.2, "p2": 0.6}
    grid = np.linspace(0.0, 10.0, 201)
    traj = integrate(eom, init, grid, TIGHT, registry, {"m": 1.0})
    rhs = compile_rhs(eom, list(eom), registry, {"m": 1.0})
    ref = solve_ivp(lambda t, y: rhs(t, y.tolist()), (0.0, 10.0),
                    [init[v] for v in eom], method="DOP853", t_eval=grid,
                    rtol=1e-12, atol=1e-12)
    assert ref.success
    for row, v in zip(ref.y, eom):
        assert float(np.max(np.abs(traj.series[v] - row))) < 1e-8


# ---------------------------------------------------------------------------
# the generated steps against the loops they replaced
# ---------------------------------------------------------------------------

def _combination(coeffs, base):
    """y + h·Σ coeffs[i]·k[i] per component (h·Σ without ``base``), the sum
    written out left to right from 0.0."""
    ks = ", ".join(f"k{i}" for i in range(len(coeffs)))
    terms = "".join(f" + {a!r} * k{i}" for i, a in enumerate(coeffs))
    value = f"{'yj + ' if base else ''}h * (0.0{terms})"
    return eval(f"lambda y, h, k: tuple({value} for yj, {ks} in zip(y, *k))")


_DP_STAGES = tuple(_combination(a, True) for a in _DP_A[1:])
_DP_ERR = _combination(_DP_E, False)


def _axpy(y, h, v):
    return tuple(yj + h * vj for yj, vj in zip(y, v))


def _dp_step(rhs, t, y, h, k1, abs_tol, rel_tol):
    k = [k1]
    for c, stage_of in zip(_DP_C[1:], _DP_STAGES):
        stage = stage_of(y, h, k)
        k.append(rhs(t + c * h, stage))
    total = 0.0
    for e, a, b in zip(_DP_ERR(y, h, k), y, stage):
        q = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
        total += q * q
    return stage, math.sqrt(total / len(y)), k[6]


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, _axpy(y, h / 2, k1))
    k3 = rhs(t + h / 2, _axpy(y, h / 2, k2))
    k4 = rhs(t + h, _axpy(y, h, k3))
    return _axpy(y, h / 6, [p + 2 * q + 2 * r + s
                            for p, q, r, s in zip(k1, k2, k3, k4)])


@pytest.mark.parametrize("d", range(1, 8))
def test_generated_steps_equal_the_reference_loops(d):
    rng = random.Random(20261018 + d)
    a = [[rng.uniform(-3.0, 3.0) for _ in range(d)] for _ in range(d)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(d)]

    def rhs(t, y):
        return tuple(sum(aij * yj for aij, yj in zip(row, y)) + bi * t
                     for row, bi in zip(a, b))

    dp, rk4 = _steppers(d)
    for _ in range(50):
        y = tuple(rng.uniform(-2.0, 2.0) for _ in range(d))
        k1 = tuple(rng.uniform(-2.0, 2.0) for _ in range(d))
        t, h = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-4.0, -0.5)
        tols = (10.0 ** rng.uniform(-12.0, -3.0),
                10.0 ** rng.uniform(-12.0, -3.0))
        assert dp(rhs, t, y, h, k1, *tols) == _dp_step(rhs, t, y, h, k1,
                                                       *tols)
        assert rk4(rhs, t, y, h) == _rk4_step(rhs, t, y, h)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_pole_in_the_rhs_ends_cleanly(method):
    # x' = 1/x at x = 0: Python floats raise at the pole, where numpy
    # scalars warned and returned inf
    eom = {"x": parse("1/x", ["x"])}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteStateError,
                           match="right-hand side undefined"):
            integrate(eom, {"x": 0.0}, (0.0, 1.0),
                      IntegratorPolicy(method=method), points=11)


def test_non_finite_profile_ends_cleanly():
    registry = AtomRegistry()
    registry.register("g", profile=Fixed(math.inf))
    eom = {"x": parse("g(t) * x", ["x", "t"], registry)}
    with pytest.raises(NonFiniteStateError, match="state became non-finite"):
        integrate(eom, {"x": 1.0}, (0.0, 1.0), registry=registry, points=3)


def test_pole_in_a_closed_form_profile_ends_cleanly():
    # w = 1/(1 - t) is written into the right-hand side, and rk4's last
    # stage over (0.5, 1) lands on the pole at t = 1
    registry = oscillator_registry(ExprProfile(num(0)),
                                   ExprProfile(parse("1/(1-t)", ["t"])))
    _, eom = original_equations(registry)
    with pytest.raises(NonFiniteStateError,
                       match="right-hand side undefined"):
        integrate(eom, {"x1": 1.0, "x2": 0.0, "p1": 0.0, "p2": 0.0},
                  (0.0, 1.0), IntegratorPolicy(method="rk4", max_step=0.5),
                  registry, {"m": 1.0}, points=3)


@pytest.mark.parametrize("omega, eta", [
    (0.9, {"constant": 0.2}),
    ({"constant": 1.5}, {"expression": "0.1 + 0.02*t"}),
    ({"expression": "2 + 0.1*t - t^2/50"}, 0.0),
])
def test_closed_form_profiles_leave_no_profile_call(omega, eta):
    # number, constant: and polynomial expression: sections: every atom of
    # the original, extended and auxiliary equations is written in
    scenario = cli.scenario_from_config(
        {"profiles": {"omega": omega, "eta_fric": eta}}, "inline")
    registry = cli.build_registry(scenario, scenario.span)
    _, original = original_equations(registry)
    ermakov = {**original, **ermakov_equations(
        ErmakovConfig(registry, scenario.span, m=1.0, nu=1.0))}
    params = {"m": 1.0, "nu": 1.0, "lam": 1.0}
    for eom, time_var in ((original, "t"), (extended_equations(), "tau"),
                          (ermakov, "t")):
        rhs = compile_rhs(eom, list(eom), registry, params, time_var)
        assert not [name for name in rhs.__globals__
                    if name.startswith("_profile_")]
        assert all(map(math.isfinite, rhs(0.5, [0.5] * len(eom))))


def test_missing_initial_variable():
    registry = constant_registry()
    _, eom = original_equations(registry)
    with pytest.raises(PreconditionError):
        integrate(eom, {"x1": 1.0}, (0.0, 1.0), TIGHT, registry, {"m": 1.0})


def test_grid_must_increase():
    eom = {"x": sym("x")}
    with pytest.raises(DynamicsError):
        integrate(eom, {"x": 1.0}, np.array([0.0, 2.0, 1.0]), TIGHT)


def test_blowup_aborts_instead_of_returning_garbage(monkeypatch):
    # dx/dt = x^2 from x=1 diverges at t=1; the step collapses after 68 607
    # attempts of six RHS calls each, after the first slope
    calls = count_rhs_calls(monkeypatch)
    eom = {"x": parse("x^2", ["x"])}
    with pytest.raises(StepSizeUnderflowError) as err:
        integrate(eom, {"x": 1.0}, (0.0, 2.0), TIGHT)
    assert str(err.value) == "step size underflow at t=0.9999961864295372"
    assert calls == [1 + 6 * 68_607]


def test_trajectory_validates_series():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DynamicsError):
        Trajectory(grid=grid, series={"x": np.zeros(4)})
    with pytest.raises(DynamicsError):
        Trajectory(grid=grid, series={"x": np.full(5, np.nan)})


# ---------------------------------------------------------------------------
# the gauge-fixed extended run
# ---------------------------------------------------------------------------

def extended_setup(omega=2.0, eta=0.1, m=1.0):
    registry = constant_registry(omega, eta)
    gauge = GaugeSpec((0.0, 1.0, 0.0, 10.0))
    h, _ = original_equations(registry)
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 1.0}
    h0 = eval_expr(h, {**init, "m": m}, time=0.0, registry=registry)
    ext_init = {"x1_tau": init["x1"], "x2_tau": init["x2"],
                "p1_tau": init["p1"], "p2_tau": init["p2"],
                "t_tau": 0.0, "p_tau": -h0}
    return registry, gauge, init, ext_init


def test_extended_run_tracks_the_original(tmp_path):
    registry, gauge, init, ext_init = extended_setup()
    ext = integrate_extended(gauge, ext_init, TIGHT, registry, {"m": 1.0},
                             points=101)
    _, eom = original_equations(registry)
    t_grid = np.array([gauge.time_of(v) for v in ext.grid])
    orig = integrate(eom, init, t_grid, TIGHT, registry, {"m": 1.0})
    for a, b in (("x1_tau", "x1"), ("p1_tau", "p1"),
                 ("x2_tau", "x2"), ("p2_tau", "p2")):
        assert float(np.max(np.abs(ext.series[a] - orig.series[b]))) < 1e-8
    # the time coordinate follows the gauge orbit exactly
    assert float(np.max(np.abs(ext.series["t_tau"] - t_grid))) < 1e-9


def test_extended_run_rejects_wrong_start_time():
    registry, gauge, _, ext_init = extended_setup()
    ext_init["t_tau"] = 0.5
    with pytest.raises(PreconditionError):
        integrate_extended(gauge, ext_init, TIGHT, registry, {"m": 1.0})


def test_extended_run_rejects_off_surface_start():
    registry, gauge, _, ext_init = extended_setup()
    ext_init["p_tau"] += 1e-6
    with pytest.raises(PreconditionError):
        integrate_extended(gauge, ext_init, TIGHT, registry, {"m": 1.0})


def test_extended_run_aborts_on_constraint_drift():
    # a crude fixed step lets |phi| creep past 100x the surface tolerance
    registry, gauge, _, ext_init = extended_setup()
    sloppy = IntegratorPolicy(method="rk4", max_step=0.05)
    with pytest.raises(ConstraintViolationError) as err:
        integrate_extended(gauge, ext_init, sloppy, registry, {"m": 1.0},
                           surface_tol=1e-12)
    assert err.value.parameter_value is not None


def test_constraint_drift_matches_direct_evaluation():
    registry, gauge, _, ext_init = extended_setup()
    ext = integrate_extended(gauge, ext_init, TIGHT, registry, {"m": 1.0},
                             points=41)
    cs = ConstraintSet(primaries=(extended_constraint(),), gauge=gauge)
    drift = constraint_drift(ext, cs, registry=registry,
                             params={"m": 1.0, "lam": gauge.lambda_value})
    assert set(drift) == {"phi_0", "eta_gauge"}
    assert float(np.max(drift["phi_0"])) < 1e-9
    assert float(np.max(drift["eta_gauge"])) < 1e-10
    # spot check one grid point by hand
    i = 17
    point = {v: float(ext.series[v][i]) for v in ext.series}
    by_hand = abs(eval_expr(extended_constraint(), {**point, "m": 1.0},
                            registry=registry))
    assert drift["phi_0"][i] == pytest.approx(by_hand, abs=1e-12)
