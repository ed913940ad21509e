"""Acceptance gate: one test per release criterion.

Each test records a one-line verdict in _support.ACCEPTANCE; conftest
prints the table after the run.  Tolerances and runtime budgets are stated
inline next to each check.
"""

import json
import time
from fractions import Fraction

import numpy as np
import yaml

from phasekit import (
    EXTENDED_CHART,
    ConstraintSet,
    ErmakovConfig,
    GaugeSpec,
    IntegratorPolicy,
    TransformSpec,
    cli,
    co_integrate,
    complete,
    constraint_drift,
    dirac,
    constraint_matrix,
    equivalent,
    ermakov_residuals,
    eval_expr,
    extended_constraint,
    extended_oscillator,
    hamilton_eom,
    integrate,
    integrate_extended,
    invariant_drift_report,
    is_zero_expr,
    legendre,
    lewis_invariant,
    num,
    ode_residuals,
    original_oscillator,
    parse,
    poisson,
    simplify,
    sample_states,
    solve_ermakov,
    symplectic_defect,
    sym,
)

from _support import (
    constant_registry,
    damped_oracle,
    random_spec_texts,
    record,
)

from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXT_VARS = list(EXTENDED_CHART.variables)
PARSE_VARS = EXT_VARS + ["m", "t", "tau", "t_tau_dot"]

TIGHT = IntegratorPolicy(method="rk45", abs_tol=1e-11, rel_tol=1e-11,
                         max_step=0.05)

PHI_GOLDEN = (
    "p_tau + (f(t_tau)/(2*m))*(p1_tau^2 + p2_tau^2)"
    " + (m*w(t_tau)^2/(2*f(t_tau)))*(x1_tau^2 + x2_tau^2)"
)

DIRAC_GOLDEN = {
    "{x1_tau, p1_tau}": "1",
    "{x2_tau, p2_tau}": "1",
    "{x1_tau, p_tau}": "-f(t_tau)*p1_tau/m",
    "{x2_tau, p_tau}": "-f(t_tau)*p2_tau/m",
    "{p1_tau, p_tau}": "m*w(t_tau)^2*x1_tau/f(t_tau)",
    "{p2_tau, p_tau}": "m*w(t_tau)^2*x2_tau/f(t_tau)",
}


def _same(reg, got_text, want_text):
    return equivalent(parse(got_text, PARSE_VARS, reg),
                      parse(want_text, PARSE_VARS, reg))


def _random_poly(rng, variables, registry, with_atoms=False):
    """Random small polynomial over the chart, rational coefficients."""
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        c = Fraction(int(rng.integers(-8, 9)) or 3, int(rng.integers(1, 5)))
        factors = [
            f"{variables[int(rng.integers(0, len(variables)))]}"
            f"^{int(rng.integers(1, 3))}"
            for _ in range(int(rng.integers(1, 3)))
        ]
        if with_atoms and rng.integers(0, 3) == 0:
            factors.append(("f(t_tau)", "w(t_tau)")[int(rng.integers(0, 2))])
        terms.append(f"({c})*" + "*".join(factors))
    return parse(" + ".join(terms), PARSE_VARS, registry)


def test_criterion_1_symbolic_goldens(tmp_path, capsys):
    """analyze reproduces every closed-form quantity, in under 5 s."""
    start = time.perf_counter()
    code = cli.main(["analyze", str(CONFIGS / "oscillator.yaml"),
                     "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    summary = json.loads((tmp_path / "analysis.json").read_text())
    reg = constant_registry()

    checks = [code == 0]
    checks.append(_same(reg, summary["original"]["hessian_det"],
                        "m^2/f(t)^2"))
    checks.append(summary["extended"]["hessian_det"] == "0")
    primaries = summary["extended"]["primaries"]
    checks.append(len(primaries) == 1
                  and _same(reg, primaries[0], PHI_GOLDEN))
    checks.append(_same(reg, summary["extended"]["hamiltonian"],
                        f"t_tau_dot*({PHI_GOLDEN})"))
    gauge = summary["gauge"]
    checks.append(gauge["delta"] == ["[0, -1]", "[1, 0]"])
    checks.append(gauge["c_inverse"] == ["[0, 1]", "[-1, 0]"])
    brackets = gauge["dirac_brackets"]
    checks.append(set(brackets) == set(DIRAC_GOLDEN))
    checks.append(all(_same(reg, brackets[k], DIRAC_GOLDEN[k])
                      for k in DIRAC_GOLDEN))
    checks.append(elapsed < 5.0)

    ok = all(checks)
    record(1, ok, f"all golden values match, {elapsed:.2f}s < 5s")
    assert ok, checks


def test_criterion_2_dirac_defining_property():
    """{constraint, g}_D = 0 for both constraints and 20 random g, < 10 s."""
    start = time.perf_counter()
    registry = constant_registry(omega=2.0, eta=0.1)
    model = extended_oscillator()
    phi = legendre(model).primaries[0]
    cs = ConstraintSet(primaries=(phi,),
                       gauge=GaugeSpec((0.0, 1.0, 0.0, 10.0)))
    cm = constraint_matrix(cs.all_constraints(), EXTENDED_CHART,
                           registry=registry)
    rng = np.random.default_rng(20260817)
    failures = 0
    for _ in range(20):
        g = _random_poly(rng, EXT_VARS, registry)
        for c in cs.all_constraints():
            res = dirac(c, g, cm, EXTENDED_CHART, registry=registry)
            if not is_zero_expr(res):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    record(2, ok,
           f"40/40 brackets vanish symbolically, {elapsed:.2f}s < 10s")
    assert ok, (failures, elapsed)


def test_criterion_3_gauge_orbit_equivalence():
    """Extended runs reproduce the original flow for 10 random scenarios.

    sup |difference| < 1e-6, |phi| and |eta_gauge| < 1e-8, |p_tau + H|
    < 1e-7 pointwise, all inside a 30 s budget.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    policy = IntegratorPolicy(abs_tol=1e-10, rel_tol=1e-10, max_step=0.05)
    lams = (0.5, 1.0, 2.0)
    worst_sup = worst_phi = worst_eta = worst_energy = 0.0
    points = 101
    for i in range(10):
        omega = float(rng.uniform(0.5, 3.0))
        eta = float(rng.uniform(0.0, 1.0))
        init = {k: float(rng.uniform(-1.0, 1.0))
                for k in ("x1", "p1", "x2", "p2")}
        lam = lams[i % 3]
        gauge = GaugeSpec((0.0, 10.0 / lam, 0.0, 10.0))
        registry = constant_registry(omega=omega, eta=eta)
        model = original_oscillator()
        h_expr = legendre(model).hamiltonian
        eom = hamilton_eom(h_expr, model.chart, registry=registry,
                           params={"m", "t"})
        tau_grid = np.linspace(0.0, 10.0 / lam, points)
        t_grid = np.array([gauge.time_of(float(v)) for v in tau_grid])
        orig = integrate(eom, init, t_grid, policy, registry, {"m": 1.0},
                         param_name="t")
        h0 = eval_expr(h_expr, {**init, "m": 1.0}, time=0.0,
                       registry=registry)
        ext_init = {"x1_tau": init["x1"], "x2_tau": init["x2"],
                    "p1_tau": init["p1"], "p2_tau": init["p2"],
                    "t_tau": 0.0, "p_tau": -h0}
        ext = integrate_extended(gauge, ext_init, policy, registry,
                                 {"m": 1.0}, points=points)
        for a, b in (("x1_tau", "x1"), ("x2_tau", "x2"),
                     ("p1_tau", "p1"), ("p2_tau", "p2")):
            worst_sup = max(worst_sup, float(np.max(
                np.abs(ext.series[a] - orig.series[b]))))
        drift = constraint_drift(
            ext, ConstraintSet(primaries=(extended_constraint(),),
                               gauge=gauge),
            registry=registry,
            params={"m": 1.0, "lam": gauge.lambda_value},
        )
        worst_phi = max(worst_phi, float(np.max(drift["phi_0"])))
        worst_eta = max(worst_eta, float(np.max(drift["eta_gauge"])))
        for k in range(points):
            h_k = eval_expr(
                h_expr,
                {"x1": float(ext.series["x1_tau"][k]),
                 "x2": float(ext.series["x2_tau"][k]),
                 "p1": float(ext.series["p1_tau"][k]),
                 "p2": float(ext.series["p2_tau"][k]),
                 "m": 1.0},
                time=float(ext.series["t_tau"][k]), registry=registry)
            worst_energy = max(worst_energy,
                               abs(float(ext.series["p_tau"][k]) + h_k))
    elapsed = time.perf_counter() - start
    ok = (worst_sup < 1e-6 and worst_phi < 1e-8 and worst_eta < 1e-8
          and worst_energy < 1e-7 and elapsed < 30.0)
    record(3, ok,
           f"sup {worst_sup:.1e}, |phi| {worst_phi:.1e}, "
           f"|eta_gauge| {worst_eta:.1e}, |p_tau+H| {worst_energy:.1e}, "
           f"{elapsed:.1f}s < 30s")
    assert ok, (worst_sup, worst_phi, worst_eta, worst_energy, elapsed)


def test_criterion_4_damped_oscillator_oracle():
    """Numeric trajectory vs the closed-form damped solution, 1e-7 sup."""
    omega, eta, m = 2.0, 0.3, 1.0
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.3, "p2": -0.4}
    registry = constant_registry(omega=omega, eta=eta)
    model = original_oscillator()
    eom = hamilton_eom(legendre(model).hamiltonian, model.chart,
                       registry=registry, params={"m", "t"})
    grid = np.linspace(0.0, 10.0, 201)
    traj = integrate(eom, init, grid, TIGHT, registry, {"m": m},
                     param_name="t")
    worst = 0.0
    for x, p in (("x1", "p1"), ("x2", "p2")):
        x_of, p_of = damped_oracle(omega, eta, init[x], init[p] / m, m=m)
        worst = max(worst,
                    float(np.max(np.abs(traj.series[x] - x_of(grid)))),
                    float(np.max(np.abs(traj.series[p] - p_of(grid)))))
    ok = worst < 1e-7
    record(4, ok, f"sup error {worst:.1e} < 1e-7")
    assert ok, worst


def test_criterion_5_invariant_conservation():
    """Relative drift of I < 1e-6 on 10 damped runs; undamped equilibrium
    reproduces I = (nu/omega)*E to 1e-9."""
    rng = np.random.default_rng(17)
    worst_drift = 0.0
    for _ in range(10):
        omega = float(rng.uniform(0.5, 3.0))
        eta = float(rng.uniform(0.1, 1.0))
        init = {k: float(rng.uniform(-1.0, 1.0))
                for k in ("x1", "p1", "x2", "p2")}
        registry = constant_registry(omega=omega, eta=eta)
        cfg = ErmakovConfig(registry=registry, span=(0.0, 10.0), m=1.0,
                            rho0=1.0, rho_dot0=0.0)
        traj = co_integrate(cfg, init, TIGHT, points=401)
        values = lewis_invariant(traj, cfg)
        scale = max(abs(float(values[0])), 1e-12)
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(values - values[0]))) / scale)

    omega, m = 2.0, 1.0
    init = {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 1.0}
    registry = constant_registry(omega=omega, eta=0.0)
    cfg = ErmakovConfig(registry=registry, span=(0.0, 10.0), m=m,
                        rho0=1.0, rho_dot0=0.0)    # nu = m*omega*rho0^2
    traj = co_integrate(
        cfg, init,
        IntegratorPolicy(abs_tol=1e-12, rel_tol=1e-12, max_step=0.05),
        points=401,
    )
    values = lewis_invariant(traj, cfg)
    energy = (0.5 / m * (init["p1"] ** 2 + init["p2"] ** 2)
              + 0.5 * m * omega ** 2 * (init["x1"] ** 2 + init["x2"] ** 2))
    target = float(cfg.nu) / omega * energy
    worst_eq = float(np.max(np.abs(values - target)))

    ok = worst_drift < 1e-6 and worst_eq < 1e-9
    record(5, ok, f"max relative drift {worst_drift:.1e} < 1e-6, "
                  f"|I - (nu/omega)E| {worst_eq:.1e} < 1e-9")
    assert ok, (worst_drift, worst_eq)


def test_criterion_6_auxiliary_equation():
    """Constant solution sqrt(nu/(m*omega)) to 1e-10; FD residual < 1e-6."""
    registry = constant_registry(omega=2.0, eta=0.0)
    cfg = ErmakovConfig(registry=registry, span=(0.0, 10.0), m=1.0,
                        rho0=1.3, rho_dot0=0.0)    # nu makes rho0 stationary
    sol = solve_ermakov(
        cfg, IntegratorPolicy(abs_tol=1e-12, rel_tol=1e-12, max_step=0.05),
        points=401,
    )
    worst_const = float(np.max(np.abs(sol.series["rho"] - cfg.rho0)))

    damped = ErmakovConfig(
        registry=constant_registry(omega=2.0, eta=0.15),
        span=(0.0, 10.0), m=1.0, rho0=1.0, rho_dot0=0.0,
    )
    generic = solve_ermakov(damped, TIGHT, points=801)
    residual = float(np.max(np.abs(ermakov_residuals(generic, damped))))

    ok = worst_const < 1e-10 and residual < 1e-6
    record(6, ok, f"constant-ansatz error {worst_const:.1e} < 1e-10, "
                  f"FD residual {residual:.1e} < 1e-6")
    assert ok, (worst_const, residual)


def test_criterion_7_symplectic_transforms(tmp_path, capsys):
    """20 random completed transforms stay symplectic; sabotage is caught."""
    rng = np.random.default_rng(20260817)
    worst_defect = worst_residual = 0.0
    for _ in range(20):
        tr = complete(TransformSpec.from_strings(**random_spec_texts(rng)))
        states = sample_states(tr, count=32)
        worst_defect = max(worst_defect, symplectic_defect(tr, states))
        for p in states:
            res = ode_residuals(tr, p)
            assert len(res) == 7
            worst_residual = max(worst_residual, max(abs(r) for r in res))

    code = cli.main(["transform-check",
                     str(CONFIGS / "transform_corrupt.yaml"),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    probe = json.loads((tmp_path / "transform_check.json").read_text())

    ok = (worst_defect < 1e-9 and worst_residual < 1e-9
          and probe["defect"] >= 1e-3 and code == 1)
    record(7, ok, f"max defect {worst_defect:.1e}, max residual "
                  f"{worst_residual:.1e} < 1e-9; corrupted probe defect "
                  f"{probe['defect']:.1e} with exit code {code}")
    assert ok, (worst_defect, worst_residual, probe["defect"], code)


def test_criterion_8_bracket_axioms():
    """Antisymmetry, bilinearity, Leibniz exactly; Jacobi to 1e-9 on 50
    random triples."""
    registry = constant_registry(omega=1.7, eta=0.3)
    rng = np.random.default_rng(8)

    def pb(a, b):
        return poisson(a, b, EXTENDED_CHART, registry)

    symbolic_ok = True
    for _ in range(5):
        f = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        g = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        h = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        a = Fraction(int(rng.integers(-5, 6)) or 2, 3)
        symbolic_ok &= is_zero_expr(pb(f, g) + pb(g, f))
        lhs = pb(simplify(num(a) * f + g), h)
        symbolic_ok &= is_zero_expr(lhs - num(a) * pb(f, h) - pb(g, h))
        symbolic_ok &= is_zero_expr(
            pb(simplify(f * g), h) - f * pb(g, h) - pb(f, h) * g
        )

    worst_jacobi = 0.0
    for _ in range(50):
        f = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        g = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        h = _random_poly(rng, EXT_VARS, registry, with_atoms=True)
        cyclic = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
        for _ in range(3):
            point = {v: float(rng.uniform(-1.0, 1.0)) for v in EXT_VARS}
            point["m"] = 1.0
            worst_jacobi = max(
                worst_jacobi,
                abs(eval_expr(cyclic, point, registry=registry)),
            )

    ok = symbolic_ok and worst_jacobi < 1e-9
    record(8, ok, f"axioms exact, worst Jacobi sum {worst_jacobi:.1e} "
                  f"< 1e-9")
    assert ok, (symbolic_ok, worst_jacobi)


def test_criterion_9_deterministic_output(tmp_path, capsys):
    """Fixed-step reruns write byte-identical CSV files."""
    cfg = {
        "model": "extended",
        "parameters": {"m": 1.0},
        "profiles": {"omega": 2.0, "eta_fric": 0.1},
        "gauge": {"tau": [0.0, 1.0], "t": [0.0, 2.0]},
        "integrator": {"method": "rk4", "max_step": 0.0005},
        "initial": {"x1": 1.0, "p1": 0.0, "x2": 0.0, "p2": 1.0},
        "run": {"span": [0.0, 2.0], "points": 41},
    }
    path = tmp_path / "fixed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    payloads = []
    for sub in ("a", "b"):
        code = cli.main(["simulate", str(path),
                         "--out", str(tmp_path / sub)])
        assert code == 0
        payloads.append(tuple(
            (tmp_path / sub / name).read_bytes()
            for name in ("original.csv", "extended.csv", "drift.csv")
        ))
    capsys.readouterr()
    ok = payloads[0] == payloads[1]
    record(9, ok, "rerun CSVs byte-identical" if ok
           else "rerun CSVs differ")
    assert ok
