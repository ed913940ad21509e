"""Integration of symbolic equations of motion and the extended system."""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from phasekit import cli, dynamics
from phasekit import expr as expr_module
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
    _, eom = original_equations()
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


def test_equations_are_derived_once_and_returned_fresh():
    h, eom = original_equations()
    eom["x1"] = num(0)
    assert original_equations()[1]["x1"] != num(0)
    assert original_equations()[0] is h
    ext = extended_equations()
    ext.clear()
    assert extended_equations()


def test_equations_are_derived_on_first_use_not_at_import():
    probe = ("import phasekit.cli\nfrom phasekit import dynamics\n"
             "print(dynamics._original.cache_info().currsize,"
             " dynamics._extended.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(dynamics.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "0"], proc.stderr


def test_extended_rhs_calls_exp_once_and_writes_each_value_once(monkeypatch):
    # constant profiles: f = exp(-eta·t_tau) and f' = -eta·f share one exp;
    # counts, unlike wall time, do not move with the host
    sources = []

    def spy(source, glb):
        sources.append(source)
        exec(source, glb)

    monkeypatch.setattr(expr_module, "exec", spy, raising=False)
    eom = extended_equations()
    rhs = compile_rhs(eom, list(eom), constant_registry(0.5852, 0.2881),
                      {"m": 1.0, "lam": 10.0}, time_var="tau")
    calls = []
    rhs.__globals__["_exp"] = lambda x: calls.append(x) or math.exp(x)
    values = rhs(0.25, [1.0, -0.5, 0.3, 0.2, 0.75, -1.5])
    assert len(calls) == 1 and all(map(math.isfinite, values))
    codes = [line.split(" = ", 1)[1] for line in
             sources[-1].splitlines()[1:-1]]
    assert len(codes) == len(set(codes))


# ---------------------------------------------------------------------------
# adaptive integration against the closed form
# ---------------------------------------------------------------------------

def test_rk45_matches_damped_closed_form():
    omega, eta, m = 2.0, 0.25, 1.0
    registry = constant_registry(omega, eta)
    _, eom = original_equations()
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 1.0}
    grid = np.linspace(0.0, 10.0, 201)
    traj = integrate(eom, init, grid, TIGHT, registry, {"m": m})
    x_of, p_of = damped_oracle(omega, eta, init["x1"], init["p1"] / m, m)
    assert float(np.max(np.abs(traj.series["x1"] - x_of(grid)))) < 1e-9
    assert float(np.max(np.abs(traj.series["p1"] - p_of(grid)))) < 1e-9


def test_rk45_reports_step_statistics():
    registry = constant_registry(1.0, 0.0)
    _, eom = original_equations()
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
    _, eom = original_equations()
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
    _, eom = original_equations()
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
    _, eom = original_equations()
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


def _reference_rk45(rhs, y0, grid, policy, observer=None):
    """The Python loop that the generated rk45 integrator replaced, on the
    reference step ``_dp_step``."""
    states = [y0]
    t = float(grid[0])
    y = y0
    if observer is not None:
        observer(t, y)
    try:
        k1 = rhs(t, y)
    except (ZeroDivisionError, OverflowError):
        raise NonFiniteStateError(f"right-hand side undefined at t={t}")
    span = float(grid[-1] - grid[0])
    h = min(policy.max_step, span / 100.0)
    accepted = rejected = 0
    h_min, h_max, worst = math.inf, 0.0, 0.0
    for target in grid[1:]:
        target = float(target)
        while t < target - 1e-14 * max(1.0, abs(target)):
            h = min(h, policy.max_step, target - t)
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(
                    f"step size underflow at t={t}"
                )
            try:
                y_new, err_norm, k_last = _dp_step(rhs, t, y, h, k1,
                                                   policy.abs_tol,
                                                   policy.rel_tol)
            except (ZeroDivisionError, OverflowError):
                raise NonFiniteStateError(
                    f"right-hand side undefined near t={t}"
                )
            if not all(map(math.isfinite, y_new)):
                raise NonFiniteStateError(f"state became non-finite near t={t}")
            if err_norm <= h:
                accepted += 1
                h_min, h_max = min(h_min, h), max(h_max, h)
                worst = max(worst, err_norm / h)
                t += h
                y = y_new
                k1 = k_last
                factor = 5.0 if err_norm == 0.0 else min(
                    5.0, max(0.2, 0.9 * (h / err_norm) ** 0.25)
                )
            else:
                rejected += 1
                factor = max(0.2, 0.9 * (h / err_norm) ** 0.25)
            h *= factor
        t = target
        states.append(y)
        if observer is not None:
            observer(t, y)
    stats = {
        "steps": float(accepted),
        "rejected": float(rejected),
        "nfev": float(1 + 6 * (accepted + rejected)),
        "min_step": h_min if accepted else 0.0,
        "max_step": h_max,
        "max_error_per_unit_step": worst,
    }
    return states, stats


def _both_loops(rhs, y0, grid, policy):
    """(states, stats, observed points) or (error class, message) of the
    reference loop and of the generated integrator, in that order."""
    outcomes = []
    for integrate_rk45 in (_reference_rk45, dynamics._integrate_rk45):
        seen = []
        try:
            states, stats = integrate_rk45(
                rhs, y0, grid, policy, lambda t, y: seen.append((t, y)))
            outcomes.append((states, stats, seen))
        except DynamicsError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _linear_rhs(a, b):
    def rhs(t, y):
        return tuple(sum(aij * yj for aij, yj in zip(row, y)) + bi * t
                     for row, bi in zip(a, b))
    return rhs


@pytest.mark.parametrize("d", range(1, 8))
def test_generated_steps_equal_the_reference_loops(d):
    rng = random.Random(20261018 + d)
    a = [[rng.uniform(-3.0, 3.0) for _ in range(d)] for _ in range(d)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(d)]
    rhs = _linear_rhs(a, b)
    rk4 = _steppers(d)[1]
    for _ in range(50):
        y = tuple(rng.uniform(-2.0, 2.0) for _ in range(d))
        t, h = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-4.0, -0.5)
        assert rk4(rhs, t, y, h) == _rk4_step(rhs, t, y, h)
    rejected = 0.0
    for _ in range(4):
        y0 = tuple(rng.uniform(-2.0, 2.0) for _ in range(d))
        start = rng.uniform(-3.0, -0.5)
        grid = np.linspace(start, start + rng.uniform(1.0, 3.0),
                           rng.randint(2, 12))
        # tolerances tight enough that some steps are rejected
        policy = IntegratorPolicy(abs_tol=10.0 ** rng.uniform(-13.0, -10.0),
                                  rel_tol=10.0 ** rng.uniform(-13.0, -10.0),
                                  max_step=rng.uniform(0.05, 1.0))
        reference, generated = _both_loops(rhs, y0, grid, policy)
        assert generated == reference
        rejected += generated[1]["rejected"]
    assert rejected > 0


@settings(max_examples=30)
@given(d=st.integers(1, 5), seed=st.integers(0, 2 ** 32),
       start=st.floats(-4.0, 1.0), length=st.floats(0.1, 3.0),
       points=st.integers(2, 9), tols=st.tuples(st.floats(-13.0, -4.0),
                                                 st.floats(-13.0, -4.0)),
       max_step=st.floats(0.01, 2.0))
def test_generated_rk45_equals_the_reference_loop(d, seed, start, length,
                                                    points, tols, max_step):
    rng = random.Random(seed)
    rhs = _linear_rhs(
        [[rng.uniform(-4.0, 4.0) for _ in range(d)] for _ in range(d)],
        [rng.uniform(-1.0, 1.0) for _ in range(d)])
    y0 = tuple(rng.uniform(-2.0, 2.0) for _ in range(d))
    policy = IntegratorPolicy(abs_tol=10.0 ** tols[0],
                              rel_tol=10.0 ** tols[1], max_step=max_step)
    grid = np.linspace(start, start + length, points)
    reference, generated = _both_loops(rhs, y0, grid, policy)
    assert generated == reference


def _pole_past(t_pole):
    def rhs(t, y):
        return tuple(yj / (0.0 if t > t_pole else 1.0) for yj in y)
    return rhs


def _inf_past(t_inf):
    def rhs(t, y):
        return tuple(math.inf if t > t_inf else -yj for yj in y)
    return rhs


def _square(t, y):
    return tuple(yj * yj for yj in y)


@pytest.mark.parametrize("rhs, y0, span, error, message", [
    (_pole_past(-2.0), (1.0, 2.0), (-1.0, 1.0), NonFiniteStateError,
     "right-hand side undefined at t=-1.0"),
    (_pole_past(0.37), (1.0, 2.0), (-1.0, 1.0), NonFiniteStateError,
     "right-hand side undefined near t="),
    (_inf_past(0.37), (1.0, 2.0, 3.0), (-1.0, 1.0), NonFiniteStateError,
     "state became non-finite near t="),
    (_square, (1.0,), (0.0, 2.0), StepSizeUnderflowError,
     "step size underflow at t="),
], ids=["pole-at-start", "pole", "inf", "step-collapse"])
def test_generated_rk45_fails_as_the_reference_loop(rhs, y0, span, error,
                                                      message):
    policy = IntegratorPolicy(abs_tol=1e-8, rel_tol=1e-8)
    reference, generated = _both_loops(rhs, y0, np.linspace(*span, 5),
                                         policy)
    assert generated == reference
    assert generated[0] is error and generated[1].startswith(message)


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
    _, eom = original_equations()
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
    _, original = original_equations()
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
    _, eom = original_equations()
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
    h, _ = original_equations()
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
    _, eom = original_equations()
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
