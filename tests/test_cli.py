"""End-to-end runs of the command line front end, in process."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import phasekit
from phasekit import cli, equivalent, parse

from _support import constant_registry, count_rhs_calls, deadline

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDENS = Path(__file__).resolve().parent / "goldens"

EXT_VARS = ["x1_tau", "p1_tau", "x2_tau", "p2_tau", "t_tau", "p_tau", "m"]

# the six brackets the gauged oscillator must end up with
DIRAC_GOLDEN = {
    "{x1_tau, p1_tau}": "1",
    "{x2_tau, p2_tau}": "1",
    "{x1_tau, p_tau}": "-f(t_tau)*p1_tau/m",
    "{x2_tau, p_tau}": "-f(t_tau)*p2_tau/m",
    "{p1_tau, p_tau}": "m*w(t_tau)^2*x1_tau/f(t_tau)",
    "{p2_tau, p_tau}": "m*w(t_tau)^2*x2_tau/f(t_tau)",
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def short_oscillator(t_end=2.0, points=51, **integrator):
    cfg = yaml.safe_load((CONFIGS / "oscillator.yaml").read_text())
    cfg["gauge"]["t"] = [0.0, t_end]
    cfg["run"] = {"span": [0.0, t_end], "points": points}
    if integrator:
        cfg["integrator"] = integrator
    return cfg


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_report_goldens(tmp_path, capsys):
    code, out = run_cli(capsys, "analyze", str(CONFIGS / "oscillator.yaml"),
                        "--out", str(tmp_path))
    assert code == 0
    reg = constant_registry()

    det_line = next(l for l in out.splitlines() if "hessian det" in l)
    det = det_line.split("=", 1)[1].strip()
    assert equivalent(parse(det, ["m", "t"], reg),
                      parse("m^2/f(t)^2", ["m", "t"], reg))

    assert "hessian rank at sample point: 2" in out
    assert "phi_0 = " in out
    assert "secondary constraints: none (consistency closed after 1 pass)" in out
    assert out.count("second-class") == 2
    assert "eta_gauge = t_tau - 10*tau" in out
    assert "[0, -1]" in out and "[1, 0]" in out      # Delta
    assert "[0, 1]" in out and "[-1, 0]" in out      # C = Delta^-1

    summary = json.loads((tmp_path / "analysis.json").read_text())
    brackets = summary["gauge"]["dirac_brackets"]
    assert set(brackets) == set(DIRAC_GOLDEN)
    for pair, text in DIRAC_GOLDEN.items():
        assert equivalent(parse(brackets[pair], EXT_VARS, reg),
                          parse(text, EXT_VARS, reg)), pair
    assert summary["extended"]["second_class"] == [0, 1]
    assert summary["extended"]["secondaries"] == []


@pytest.mark.parametrize("tau, t, eta", [
    ([0, 3], [0, 1], "t_tau - (1/3)*tau"),
    ([0, 1], [0.1, 0.7], None),
])
def test_analyze_a_gauge_window_with_a_non_dyadic_slope(tmp_path, capsys,
                                                        tau, t, eta):
    # the pinned multiplier and eta_gauge must share one exact slope, or
    # the gauge row's consistency condition leaves a nonzero constant
    cfg = yaml.safe_load((CONFIGS / "oscillator.yaml").read_text())
    cfg["gauge"] = {"tau": tau, "t": t}
    path = write_config(tmp_path, "window.yaml", cfg)
    code, out = run_cli(capsys, "analyze", str(path), "--out", str(tmp_path))
    assert code == 0, out
    summary = json.loads((tmp_path / "analysis.json").read_text())
    if eta is not None:
        assert summary["gauge"]["eta_gauge"] == eta
    assert summary["extended"]["secondaries"] == []
    assert summary["extended"]["second_class"] == [0, 1]
    brackets = summary["gauge"]["dirac_brackets"]
    assert set(brackets) == set(DIRAC_GOLDEN)
    reg = constant_registry()
    for pair, text in DIRAC_GOLDEN.items():
        assert equivalent(parse(brackets[pair], EXT_VARS, reg),
                          parse(text, EXT_VARS, reg)), pair


def test_analyze_regular_system(tmp_path, capsys):
    code, out = run_cli(capsys, "analyze",
                        str(CONFIGS / "free_particle.yaml"),
                        "--out", str(tmp_path))
    assert code == 0
    assert "no constraints" in out
    summary = json.loads((tmp_path / "analysis.json").read_text())
    assert summary["original"]["primaries"] == []
    assert summary["original"]["rank"] == 2


@pytest.mark.parametrize(
    "name", ["oscillator", "equilibrium", "free_particle", "invariant"])
def test_analyze_output_is_byte_identical_to_goldens(tmp_path, capsys, name):
    # the goldens hold the rendered normal forms; any change to how brackets
    # or derivatives are assembled must leave every byte of them alone
    code, out = run_cli(capsys, "analyze", str(CONFIGS / f"{name}.yaml"),
                        "--out", str(tmp_path))
    assert code == 0
    assert out == (GOLDENS / f"{name}.analyze.txt").read_text()
    assert ((tmp_path / "analysis.json").read_bytes()
            == (GOLDENS / f"{name}.analysis.json").read_bytes())


# simulate and invariant on the shipped scenario configs, plus rk4 runs of
# the oscillator; the digests were recorded before the steppers moved from
# numpy rows to float tuples, and pin the arithmetic order of both methods.
# max_step bounds the physical step dt of both simulate runs: the extended
# run steps in tau with max_step / |lambda| (lambda = 10 here), so at 0.01 it
# takes the tau step that 0.001 once gave it, and both rk4 steps exit 0.
RK4_STEPS = {"oscillator_rk4": 0.01, "oscillator_rk4_fine": 0.001}
SCENARIO_DIGESTS = GOLDENS / "scenario_digests.json"
SCENARIO_CASES = [
    (command, name)
    for name in ("oscillator", "equilibrium", "free_particle", "invariant",
                 "oscillator_rk4")
    for command in ("simulate", "invariant")
] + [("simulate", "oscillator_rk4_fine")]


def scenario_record(tmp_path, command, name):
    """Exit code and SHA-256 of stdout and of every CSV of one run."""
    if name in RK4_STEPS:
        cfg = yaml.safe_load((CONFIGS / "oscillator.yaml").read_text())
        cfg["integrator"] = {"method": "rk4", "max_step": RK4_STEPS[name]}
        config = write_config(tmp_path, f"{name}.yaml", cfg)
    else:
        config = CONFIGS / f"{name}.yaml"
    out_dir = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, str(config), "--out", str(out_dir)])
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "csv": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out_dir.glob("*.csv"))},
    }


@pytest.mark.parametrize("command,name", SCENARIO_CASES)
def test_scenario_outputs_are_byte_identical_to_goldens(tmp_path, command,
                                                        name):
    expected = json.loads(SCENARIO_DIGESTS.read_text())[f"{command} {name}"]
    assert scenario_record(tmp_path, command, name) == expected


def test_rk4_max_step_bounds_the_physical_step_of_the_extended_run(
        tmp_path, capsys):
    # a tau step of max_step is lambda times the original run's dt: at 0.01
    # the extended rk4 run once left the constraint surface and exited 1
    cfg = yaml.safe_load((CONFIGS / "oscillator.yaml").read_text())
    cfg["integrator"] = {"method": "rk4", "max_step": 0.01}
    config = write_config(tmp_path, "rk4.yaml", cfg)
    code, out = run_cli(capsys, "simulate", str(config),
                        "--out", str(tmp_path / "out"))
    assert code == 0, out
    assert "gauge multiplier lambda = 10" in out
    assert "equivalence check vs 1e-06: ok" in out


def test_jobs_write_per_config_subdirs(tmp_path, capsys):
    code, out = run_cli(
        capsys, "analyze", str(CONFIGS / "oscillator.yaml"),
        str(CONFIGS / "free_particle.yaml"), "--jobs", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "oscillator" / "analysis.json").exists()
    assert (tmp_path / "free_particle" / "analysis.json").exists()
    assert "scenario: oscillator" in out
    assert "scenario: free_particle" in out


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------

def test_missing_config_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "analyze", str(tmp_path / "nope.yaml"))
    assert code == 2
    assert "no such file" in out


def test_empty_spans_exit_2(tmp_path, capsys):
    bad_run = write_config(tmp_path, "run.yaml",
                           {"run": {"span": [1.0, 1.0]}})
    code, out = run_cli(capsys, "invariant", str(bad_run),
                        "--out", str(tmp_path))
    assert code == 2 and "run.span: empty span" in out

    cfg = short_oscillator()
    cfg["gauge"]["tau"] = [0.0, 0.0]
    bad_gauge = write_config(tmp_path, "gauge.yaml", cfg)
    code, out = run_cli(capsys, "simulate", str(bad_gauge),
                        "--out", str(tmp_path))
    assert code == 2 and "gauge.tau: empty span" in out


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("tau, t, slope", [
    ([0.0, 1e-310], [0.0, 10.0], "inf"),     # overflows
    ([0.0, 3.0], [0.0, 5e-324], "0.0"),      # underflows
])
def test_gauge_slope_must_be_a_finite_nonzero_float(tmp_path, capsys,
                                                    command, tau, t, slope):
    cfg = short_oscillator()
    cfg["gauge"] = {"tau": tau, "t": t}
    path = write_config(tmp_path, "slope.yaml", cfg)
    code, out = run_cli(capsys, command, str(path), "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == (
        f"error: gauge: gauge window slope (t2 - t1)/(tau2 - tau1) = "
        f"{slope} is not a finite nonzero float")


def test_bad_profile_section_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "bad.yaml",
                        {"profiles": {"omega": {"bogus": 1.0}}})
    code, out = run_cli(capsys, "analyze", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "unknown profile kind" in out


def test_degenerate_profile_expression_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "bad.yaml",
                        {"profiles": {"omega": {"expression": "1/(t - t)"}}})
    code, out = run_cli(capsys, "analyze", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "profiles.omega.expression: division by a zero expression" in out


@pytest.mark.parametrize("section, key", [
    ("initial", "x1"), ("parameters", "m"), ("integrator", "abs_tol"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_numbers_exit_2(tmp_path, capsys, section, key, value):
    cfg = short_oscillator()
    cfg.setdefault(section, {})[key] = value
    path = write_config(tmp_path, "nonfinite.yaml", cfg)
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert f"error: {section}.{key}: must be finite" in out
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("initial", "x1", "true"), ("parameters", "m", "yes"),
    ("integrator", "max_step", "on"), ("ermakov", "rho0", "false"),
])
def test_yaml_booleans_are_not_numbers(tmp_path, capsys, section, key,
                                       value):
    cfg = short_oscillator()
    cfg.setdefault(section, {})[key] = "BOOL"
    path = tmp_path / "bool.yaml"
    path.write_text(yaml.safe_dump(cfg).replace("BOOL", value))
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    parsed = yaml.safe_load(value)
    assert out.strip() == (f"error: {section}.{key}: expected a number, "
                           f"got {parsed!r}")


@pytest.mark.parametrize("section, where", [
    ({"constant": True}, "profiles.omega.constant"), (True, "profiles.omega"),
])
def test_a_boolean_profile_exits_2(tmp_path, capsys, section, where):
    cfg = short_oscillator()
    cfg["profiles"] = {"omega": section}
    path = write_config(tmp_path, "bool.yaml", cfg)
    code, out = run_cli(capsys, "analyze", str(path), "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == f"error: {where}: expected a number, got True"


def test_fractional_run_points_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "frac.yaml", short_oscillator(points=50.5))
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == "error: run.points: expected an integer, got 50.5"


def test_simulate_requires_gauge(tmp_path, capsys):
    cfg = short_oscillator()
    del cfg["gauge"]
    path = write_config(tmp_path, "nogauge.yaml", cfg)
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "simulate needs a gauge" in out


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_jobs_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze", str(CONFIGS / "oscillator.yaml"), "--jobs", "0"])
    assert err.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


def test_points_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform-check", str(CONFIGS / "transform.yaml"),
                  "--points", "0"])
    assert exc.value.code == 2
    assert "--points: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate", "invariant"])
def test_points_flag_below_two_is_a_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, "osc.yaml", short_oscillator())
    code, out = run_cli(capsys, command, str(path), "--out", str(tmp_path),
                        "--points", "1")
    assert code == 2
    assert out.strip() == "error: --points: need at least 2, got 1"
    assert not (tmp_path / f"{command}.json").exists()


def test_run_points_below_two_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "one.yaml", short_oscillator(points=1))
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == "error: run.points: need at least 2, got 1"


def test_points_flag_above_the_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", str(CONFIGS / "oscillator.yaml"),
                  "--points", "10000000000000"])
    assert exc.value.code == 2
    assert ("--points: must be at most 100000, got 10000000000000"
            in capsys.readouterr().err)


def test_run_points_above_the_cap_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "big.yaml",
                        short_oscillator(points=10_000_000_000_000))
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == ("error: run.points: must be at most 100000, "
                           "got 10000000000000")


@pytest.mark.parametrize("points, argv, reason", [
    (3, [], "run.points: invariant needs at least 5, got 3"),
    (51, ["--points", "4"], "--points: invariant needs at least 5, got 4"),
])
def test_invariant_with_fewer_than_five_points_is_a_config_error(
        tmp_path, capsys, points, argv, reason):
    path = write_config(tmp_path, "few.yaml", short_oscillator(points=points))
    code, out = run_cli(capsys, "invariant", str(path), "--out", str(tmp_path),
                        *argv)
    assert code == 2
    assert out.strip() == f"error: {reason}"
    assert not (tmp_path / "invariant.json").exists()


@pytest.mark.parametrize("section", [
    "profiles", "parameters", "gauge", "integrator", "initial", "ermakov",
    "run",
])
@pytest.mark.parametrize("value", [[1, 2], "tau"], ids=["list", "string"])
def test_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, section,
                                               value):
    cfg = short_oscillator()
    cfg[section] = value
    path = write_config(tmp_path, "bad.yaml", cfg)
    code, out = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path),
                        "--jobs", "1")
    assert code == 2
    assert out.strip() == f"error: {section}: expected a mapping"


@pytest.mark.parametrize("value", [[1, 2], "p1_tau"], ids=["list", "string"])
def test_override_that_is_not_a_mapping_exits_2(tmp_path, capsys, value):
    cfg = yaml.safe_load((CONFIGS / "transform_corrupt.yaml").read_text())
    cfg["override"] = value
    path = write_config(tmp_path, "bad.yaml", cfg)
    code, out = run_cli(capsys, "transform-check", str(path),
                        "--out", str(tmp_path), "--jobs", "1")
    assert code == 2
    assert out.strip() == "error: override: expected a mapping"


@pytest.mark.parametrize("command", ["simulate", "invariant"])
@pytest.mark.parametrize("integrator", [
    {"method": "rk4", "max_step": 1e-300},
    {"method": "rk45", "max_step": 1e-9},
], ids=["rk4", "rk45"])
def test_tiny_max_step_is_refused_before_stepping(tmp_path, capsys, command,
                                                  integrator):
    path = write_config(tmp_path, "tiny.yaml", short_oscillator(**integrator))
    with deadline(10):
        code, out = run_cli(capsys, command, str(path), "--out", str(tmp_path))
    assert code == 1
    assert out.strip() == (
        f"scenario 'tiny': max_step {integrator['max_step']:g} needs more "
        f"than 1000000 steps over [0, 2]"
    )


def test_pool_size_is_capped_by_tasks_and_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._pool_size(1, 3) == 1
    assert cli._pool_size(1000, 3) == 3
    assert cli._pool_size(1000, 50) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._pool_size(8, 8) == 1


def declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} script"
    return scripts[name]


def test_console_script_installed():
    module, _, attr = declared_console_script("phasekit").partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

    # what pip's generated wrapper runs, so this holds without an install
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'phasekit'; sys.exit({attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(phasekit.__file__).resolve().parents[1]),
        env.get("PYTHONPATH"),
    ]))
    proc = subprocess.run([sys.executable, "-c", wrapper], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: phasekit")

    exe = shutil.which("phasekit")
    if exe is not None:
        proc = subprocess.run([exe], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2


def test_friction_table_covering_exactly_the_window_runs(tmp_path, capsys):
    cfg = short_oscillator(t_end=10.0, points=21, method="rk45",
                           abs_tol=1e-8, rel_tol=1e-8, max_step=0.5)
    cfg["profiles"]["eta_fric"] = {"table": {
        "times": [0.0, 2.5, 5.0, 7.5, 10.0], "values": [0.1] * 5}}
    cfg["parameters"]["nu"] = 2.0
    path = write_config(tmp_path, "table.yaml", cfg)
    for command in ("analyze", "simulate", "invariant"):
        code, out = run_cli(capsys, command, str(path),
                            "--out", str(tmp_path / command))
        assert code == 0, (command, out)


def test_friction_table_short_of_the_window_exits_1(tmp_path, capsys):
    cfg = short_oscillator(t_end=10.0)
    cfg["profiles"]["eta_fric"] = {"table": {
        "times": [0.0, 2.0, 4.0, 6.0, 8.0], "values": [0.1] * 5}}
    path = write_config(tmp_path, "short_table.yaml", cfg)
    for command in ("analyze", "simulate", "invariant"):
        code, out = run_cli(capsys, command, str(path),
                            "--out", str(tmp_path / command))
        assert code == 1, (command, out)
        line, = out.strip().splitlines()
        assert line.startswith("scenario 'short_table': time ")
        assert line.endswith("outside tabulated span [0.0, 8.0]")


def test_friction_table_must_cover_time_zero(tmp_path, capsys):
    cfg = short_oscillator(t_end=12.0)
    cfg["gauge"]["t"] = [2.0, 12.0]
    cfg["run"]["span"] = [2.0, 12.0]
    cfg["profiles"]["eta_fric"] = {"table": {
        "times": [2.0, 4.5, 7.0, 9.5, 12.0], "values": [0.1] * 5}}
    path = write_config(tmp_path, "late_table.yaml", cfg)
    for command in ("analyze", "simulate", "invariant"):
        code, out = run_cli(capsys, command, str(path),
                            "--out", str(tmp_path / command))
        assert code == 2, (command, out)
        assert out.strip() == ("error: profiles.eta_fric: table must cover "
                               "t = 0, spans [2.0, 12.0]")


# scipy is imported only where a spline or a quadrature is built
SCIPY_PROBE = """
import contextlib, io, json, sys
import phasekit, phasekit.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(phasekit.cli.main(argv))
print(json.dumps([codes, sorted(m for m in ("scipy.integrate",
                  "scipy.interpolate") if m in sys.modules)]))
"""


def scipy_loaded_after(*calls):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(phasekit.__file__).resolve().parents[1]),
        env.get("PYTHONPATH"),
    ]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           json.dumps(calls)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scipy_stays_off_the_import_path_for_expression_friction(tmp_path):
    assert scipy_loaded_after() == [[], []]
    cfg = short_oscillator(t_end=1.0, points=11)
    cfg["profiles"]["eta_fric"] = {"expression": "0.1 + 0.02*t"}
    path = str(write_config(tmp_path, "linear.yaml", cfg))
    calls = [[command, path, "--out", str(tmp_path / command)]
             for command in ("analyze", "simulate", "invariant")]
    assert scipy_loaded_after(*calls) == [[0, 0, 0], []]


def test_scipy_loads_for_a_friction_table_and_a_quadrature(tmp_path):
    cfg = short_oscillator(t_end=1.0, points=11)
    cfg["profiles"]["eta_fric"] = {"table": {
        "times": [0.0, 0.25, 0.5, 0.75, 1.0], "values": [0.1] * 5}}
    table = str(write_config(tmp_path, "table.yaml", cfg))
    assert scipy_loaded_after(["simulate", table, "--out", str(tmp_path)]) \
        == [[0], ["scipy.interpolate"]]
    # d1 rational in Q1: p_tau carries a quadrature term
    spec = str(write_config(tmp_path, "quad.yaml", {
        "transform": {"a1": "Q1", "a2": "Q2", "b": "T",
                      "d1": "T/(1 + Q1^2)"},
        "points": 8}))
    assert scipy_loaded_after(["transform-check", spec,
                               "--out", str(tmp_path)]) \
        == [[0], ["scipy.integrate"]]


# ---------------------------------------------------------------------------
# property contract: any omega/eta_fric section ends in exit code 0, 1 or 2
# ---------------------------------------------------------------------------

junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(-2, 2), max_size=3),
                 st.dictionaries(st.sampled_from(["times", "values", "x"]),
                                 st.integers(-2, 2), max_size=2))
numbers = st.one_of(st.integers(-3, 3),
                    st.floats(-3.0, 3.0),
                    st.sampled_from([float("nan"), float("inf"), -1e308]))
expressions = st.one_of(
    st.sampled_from([
        "0.1 + 0.02*t", "2 - t", "t^3 - t", "1/(1 + t)", "t/(t^2 + 1)",
        "1/t", "1/(t - 3)", "1/(t - 0.25)", "t^400", "1e300*t^9", "1/(t - t)",
        "(", "t +", "x", "w(t)", "2**t", "", "t^-1",
    ]),
    st.builds(lambda a, b, k: f"{a} + {b}*t^{k}", numbers, numbers,
              st.integers(0, 4)),
)
times = st.lists(st.floats(-1.0, 2.0), min_size=0, max_size=6)
tables = st.one_of(
    st.builds(lambda ts, vs: {"times": ts, "values": vs}, times,
              st.lists(numbers, min_size=0, max_size=6)),
    times.map(lambda ts: {"times": sorted(ts), "values": [0.1] * len(ts)}),
    st.builds(lambda ts: {"times": ts}, times),
    junk,
)
profile_sections = st.one_of(
    numbers, junk,
    st.builds(lambda v: {"constant": v}, st.one_of(numbers, junk)),
    st.builds(lambda e: {"expression": e}, st.one_of(expressions, junk)),
    st.builds(lambda t: {"table": t}, tables),
    st.just({"constant": 1.0, "expression": "t"}),
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(omega=profile_sections, eta=profile_sections)
def test_profile_sections_end_in_an_exit_code(tmp_path_factory, omega, eta):
    cfg = short_oscillator(t_end=0.5, points=3, method="rk45",
                           max_step=0.1)
    cfg["profiles"] = {"omega": omega, "eta_fric": eta}
    work = tmp_path_factory.mktemp("profiles")
    path = write_config(work, "profiles.yaml", cfg)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["simulate", str(path), "--out", str(work),
                         "--points", "3", "--jobs", "1"])
    text = out.getvalue().strip()
    assert code in (0, 1, 2), text
    if code == 2:
        assert text.startswith("error: ") and "\n" not in text
    for summary in work.glob("*.json"):
        json.loads(summary.read_text())


# any integrator:/gauge: section ends in an exit code too; max_step and the
# windows stay small or far past MAX_STEPS, so no example steps for long
def mostly(valid, odd):
    """Four draws in five from ``valid``, else from ``odd``; a plain one_of
    flattens the branches of ``odd`` and would draw junk most of the time."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else odd)


methods = mostly(st.sampled_from(["rk45", "rk4"]),
                 st.one_of(st.sampled_from(["euler", "RK4"]), junk))
tolerances = mostly(st.sampled_from([1e-10, 1e-6, 1e-3]), st.one_of(
    st.sampled_from([1e-300, 1e300, 0.0, -1e-8]), numbers, junk))
max_steps = mostly(st.floats(0.05, 2.0),
                   st.one_of(st.sampled_from([1e-9, 0.0]), numbers, junk))
integrator_sections = mostly(st.fixed_dictionaries({}, optional={
    "method": methods, "abs_tol": tolerances, "rel_tol": tolerances,
    "max_step": max_steps}), junk)
small = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
windows = mostly(
    st.lists(small, min_size=2, max_size=2, unique=True).map(sorted),
    st.one_of(st.lists(small, min_size=2, max_size=2),
              st.lists(numbers, max_size=3), junk))
gauge_sections = mostly(
    st.fixed_dictionaries({"tau": windows, "t": windows}),
    st.one_of(st.fixed_dictionaries({}, optional={"tau": windows,
                                                  "t": windows}), junk))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["simulate", "invariant", "analyze"]),
       integrator=integrator_sections, gauge=gauge_sections)
def test_integrator_and_gauge_sections_end_in_an_exit_code(
        tmp_path_factory, command, integrator, gauge):
    cfg = short_oscillator(t_end=0.5, points=5)
    cfg["integrator"] = integrator
    cfg["gauge"] = gauge
    work = tmp_path_factory.mktemp("sections")
    path = write_config(work, "sections.yaml", cfg)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, str(path), "--out", str(work),
                         "--points", "5", "--jobs", "1"])
    text = out.getvalue().strip()
    assert code in (0, 1, 2), text
    if code == 2:
        assert text.startswith("error: ") and "\n" not in text
    for summary in work.glob("*.json"):
        json.loads(summary.read_text())


# initial:, ermakov: and run: sections reach numbers up to 1e300, where the
# float arithmetic around the integrator overflows
edges = st.sampled_from([1e300, -1e300, 1e200, 1e150, 1e-300])
huge = st.one_of(edges, st.floats(-1e300, 1e300))
values = mostly(small, st.one_of(huge, junk))
initial_sections = mostly(st.fixed_dictionaries({}, optional={
    key: values for key in ("x1", "p1", "x2", "p2")}), junk)
ermakov_sections = mostly(st.fixed_dictionaries({}, optional={
    "rho0": mostly(st.floats(0.5, 2.0), st.one_of(huge, junk)),
    "rho_dot0": values}), junk)
# span ends stay small or far past MAX_STEPS, so no run steps for long
ends = mostly(small, edges)
run_sections = mostly(st.fixed_dictionaries({}, optional={
    "span": mostly(st.lists(ends, min_size=2, max_size=2, unique=True)
                   .map(sorted), st.one_of(st.lists(ends, max_size=3), junk)),
    "points": mostly(st.integers(5, 9), st.one_of(huge, junk))}), junk)


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["simulate", "invariant"]),
       initial=initial_sections, ermakov=ermakov_sections, run=run_sections)
def test_initial_ermakov_and_run_sections_end_in_an_exit_code(
        tmp_path_factory, command, initial, ermakov, run):
    cfg = short_oscillator(t_end=0.5)
    cfg.update(initial=initial, ermakov=ermakov, run=run)
    work = tmp_path_factory.mktemp("sections")
    path = write_config(work, "sections.yaml", cfg)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, str(path), "--out", str(work),
                         "--jobs", "1"])
    text = out.getvalue().strip()
    assert code in (0, 1, 2), text
    if code == 2:
        assert text.startswith("error: ") and "\n" not in text
    for summary in work.glob("*.json"):
        json.loads(summary.read_text())


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(tau=st.lists(small, min_size=2, max_size=2, unique=True).map(sorted),
       t=st.lists(small, min_size=2, max_size=2, unique=True).map(sorted))
def test_analyze_exits_0_on_every_gauge_window(tmp_path_factory, tau, t):
    # dyadic or not, a window with a finite nonzero float slope is analyzed
    slope = (t[1] - t[0]) / (tau[1] - tau[0])
    assume(math.isfinite(slope) and slope != 0)
    cfg = short_oscillator()
    cfg["gauge"] = {"tau": tau, "t": t}
    work = tmp_path_factory.mktemp("window")
    path = write_config(work, "window.yaml", cfg)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["analyze", str(path), "--out", str(work)])
    assert code == 0, out.getvalue()
    summary = json.loads((work / "analysis.json").read_text())
    assert set(summary["gauge"]["dirac_brackets"]) == set(DIRAC_GOLDEN)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    import io
    import contextlib
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["simulate", str(CONFIGS / "oscillator.yaml"),
                         "--out", str(out)])
    return code, buffer.getvalue(), out


def test_simulate_passes_default_tolerance(simulate_run):
    code, out, _ = simulate_run
    assert code == 0
    assert "max gauge-equivalence error" in out
    assert "achieved local error" in out
    assert "equivalence check vs 1e-06: ok" in out


def test_simulate_writes_csvs_and_summary(simulate_run):
    _, _, out_dir = simulate_run
    for name in ("original.csv", "extended.csv", "drift.csv"):
        assert (out_dir / name).exists()
    assert (out_dir / "original.csv").read_text().splitlines()[0] == \
        "t,x1,x2,p1,p2"
    summary = json.loads((out_dir / "simulate.json").read_text())
    assert summary["status"] == "ok"
    assert summary["equivalence_error"] < 1e-6
    assert summary["max_phi"] < 1e-8
    assert summary["max_eta_gauge"] < 1e-8
    assert summary["files"] == ["original.csv", "extended.csv", "drift.csv"]
    assert summary["extended_stats"]["rejected"] >= 0


def test_simulate_tight_tolerance_reports_and_fails(tmp_path, capsys):
    path = write_config(tmp_path, "short.yaml", short_oscillator())
    code, out = run_cli(capsys, "simulate", str(path),
                        "--out", str(tmp_path), "--tol", "1e-15")
    assert code == 1
    # the failure report still carries the achieved-accuracy stats
    assert "achieved local error" in out
    assert "FAILED" in out
    summary = json.loads((tmp_path / "simulate.json").read_text())
    assert summary["status"] == "check-failed"


def test_fixed_step_runs_are_byte_identical(tmp_path, capsys):
    cfg = short_oscillator(method="rk4", max_step=0.0005)
    path = write_config(tmp_path, "fixed.yaml", cfg)
    outs = []
    for sub in ("a", "b"):
        code, _ = run_cli(capsys, "simulate", str(path),
                          "--out", str(tmp_path / sub))
        assert code == 0
        outs.append(tmp_path / sub)
    for name in ("original.csv", "extended.csv", "drift.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

def test_invariant_run(tmp_path, capsys):
    code, out = run_cli(capsys, "invariant", str(CONFIGS / "invariant.yaml"),
                        "--out", str(tmp_path))
    assert code == 0
    assert "max auxiliary-equation residual" in out
    summary = json.loads((tmp_path / "invariant.json").read_text())
    assert summary["status"] == "ok"
    assert summary["max_drift"] < 1e-6
    assert summary["ode_residual"] < 1e-6
    header = (tmp_path / "invariant.csv").read_text().splitlines()[0]
    assert header == "t,rho,rho_dot,I"


def test_invariant_summary_reports_integrator_stats(tmp_path, capsys,
                                                   simulate_run):
    code, _ = run_cli(capsys, "invariant", str(CONFIGS / "invariant.yaml"),
                      "--out", str(tmp_path))
    assert code == 0
    stats = json.loads((tmp_path / "invariant.json").read_text())["stats"]
    # the same report simulate.json gives for each of its runs
    _, _, simulate_dir = simulate_run
    simulate = json.loads((simulate_dir / "simulate.json").read_text())
    assert set(stats) == set(simulate["original_stats"])
    assert stats["steps"] > 0
    assert stats["rejected"] >= 0
    assert 0.0 < stats["min_step"] <= stats["max_step"] <= 0.05
    assert 0.0 < stats["max_error_per_unit_step"] <= 1.0


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_stats_count_every_rhs_evaluation(tmp_path, capsys, monkeypatch,
                                          method):
    # rk45 makes the first slope and then six calls per attempted step (the
    # seventh stage is the next step's first); rk4 makes four per step
    calls = count_rhs_calls(monkeypatch)
    cfg = yaml.safe_load((CONFIGS / "oscillator.yaml").read_text())
    if method == "rk4":
        cfg["integrator"] = {"method": "rk4", "max_step": 0.01}
    config = write_config(tmp_path, "oscillator.yaml", cfg)
    for command in ("simulate", "invariant"):
        code, _ = run_cli(capsys, command, str(config),
                          "--out", str(tmp_path / command))
        assert code == 0
    simulate = json.loads((tmp_path / "simulate" / "simulate.json")
                          .read_text())
    invariant = json.loads((tmp_path / "invariant" / "invariant.json")
                           .read_text())
    runs = [simulate["original_stats"], simulate["extended_stats"],
            invariant["stats"]]
    assert [stats["nfev"] for stats in runs] == calls
    for stats in runs:
        assert stats["nfev"] == (
            1 + 6 * (stats["steps"] + stats["rejected"])
            if method == "rk45" else 4 * stats["steps"])


def test_undamped_equilibrium_is_machine_level(tmp_path, capsys):
    code, out = run_cli(capsys, "invariant",
                        str(CONFIGS / "equilibrium.yaml"),
                        "--out", str(tmp_path), "--tol", "1e-12")
    assert code == 0
    assert "I(0) = 2.5" in out
    summary = json.loads((tmp_path / "invariant.json").read_text())
    assert summary["max_drift"] < 1e-12


def test_auxiliary_blowup_aborts_cleanly(tmp_path, capsys):
    # nu = 0 drops the repulsive barrier; rho = cos(2t) hits zero
    cfg = yaml.safe_load((CONFIGS / "equilibrium.yaml").read_text())
    cfg["parameters"]["nu"] = 0.0
    path = write_config(tmp_path, "blowup.yaml", cfg)
    code, out = run_cli(capsys, "invariant", str(path),
                        "--out", str(tmp_path))
    assert code == 1
    assert "last valid t" in out
    summary = json.loads((tmp_path / "invariant.json").read_text())
    assert summary["status"] == "aborted"
    assert 0.5 < summary["last_valid_t"] <= 0.7854


@pytest.mark.parametrize("config, section, values", [
    ("oscillator.yaml", "ermakov", {"rho0": 1.0e200}),       # default nu
    ("invariant.yaml", "parameters", {"m": 1.0e300, "nu": 1.0}),
], ids=["default-nu", "mass"])
def test_invariant_overflow_ends_in_a_one_line_reason(tmp_path, capsys,
                                                      config, section,
                                                      values):
    cfg = yaml.safe_load((CONFIGS / config).read_text())
    cfg.setdefault(section, {}).update(values)
    cfg["run"] = {"span": [0.0, 0.5], "points": 11}
    path = write_config(tmp_path, "overflow.yaml", cfg)
    code, out = run_cli(capsys, "invariant", str(path),
                        "--out", str(tmp_path))
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("scenario 'overflow': ")
    assert "overflows a float" in lines[0]


# ---------------------------------------------------------------------------
# transform-check
# ---------------------------------------------------------------------------

def test_transform_check_passes(tmp_path, capsys):
    code, out = run_cli(capsys, "transform-check",
                        str(CONFIGS / "transform.yaml"),
                        "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["defect"] < 1e-9
    assert summary["ode_residual"] < 1e-9
    assert summary["points"] == 64


def test_corrupted_transform_fails(tmp_path, capsys):
    code, out = run_cli(capsys, "transform-check",
                        str(CONFIGS / "transform_corrupt.yaml"),
                        "--out", str(tmp_path))
    assert code == 1
    assert "overrides applied: p1_tau" in out
    assert "FAILED" in out
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["defect"] > 1e-3


def test_identity_transform_has_zero_defect(tmp_path, capsys):
    path = write_config(tmp_path, "identity.yaml",
                        {"transform": {"a1": "Q1", "a2": "Q2", "b": "T"}})
    code, out = run_cli(capsys, "transform-check", str(path),
                        "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["defect"] == 0.0


@pytest.mark.parametrize("cfg, where", [
    ({"transform": {"a1": "Q1/(Q1-Q1)", "a2": "Q2", "b": "T"}},
     "transform"),
    ({"transform": {"a1": "Q1", "a2": "Q2", "b": "T"},
      "override": {"p1_tau": "P1/(T-T)"}}, "override.p1_tau"),
])
def test_degenerate_transform_expression_exits_2(tmp_path, capsys, cfg,
                                                 where):
    path = write_config(tmp_path, "degenerate.yaml", cfg)
    code, out = run_cli(capsys, "transform-check", str(path),
                        "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == f"error: {where}: division by a zero expression"


@pytest.mark.parametrize("keys, reason", [
    ("zz: y", "['zz']"),
    # an int key next to a string one: the two do not sort together
    ("1: x, zz: y", "[1, 'zz']"),
])
def test_unknown_transform_keys_exit_2(tmp_path, capsys, keys, reason):
    path = tmp_path / "unknown.yaml"
    path.write_text(f"transform: {{a1: Q1, a2: Q2, b: T, {keys}}}\n")
    code, out = run_cli(capsys, "transform-check", str(path),
                        "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == f"error: transform: unknown keys {reason}"


def test_points_flag_overrides_sample_count(tmp_path, capsys):
    path = write_config(tmp_path, "identity.yaml",
                        {"transform": {"a1": "Q1", "a2": "Q2", "b": "T"}})
    code, _ = run_cli(capsys, "transform-check", str(path),
                      "--out", str(tmp_path), "--points", "16")
    assert code == 0
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["points"] == 16


def test_config_points_apply_without_the_flag(tmp_path, capsys):
    path = write_config(tmp_path, "identity.yaml",
                        {"transform": {"a1": "Q1", "a2": "Q2", "b": "T"},
                         "points": 64})
    code, _ = run_cli(capsys, "transform-check", str(path),
                      "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["points"] == 64


def test_points_flag_overrides_config_points(tmp_path, capsys):
    path = write_config(tmp_path, "identity.yaml",
                        {"transform": {"a1": "Q1", "a2": "Q2", "b": "T"},
                         "points": 3})
    code, _ = run_cli(capsys, "transform-check", str(path),
                      "--out", str(tmp_path), "--points", "16")
    assert code == 0
    summary = json.loads((tmp_path / "transform_check.json").read_text())
    assert summary["points"] == 16


@pytest.mark.parametrize("key, value, reason", [
    ("seed", "abc", "seed: expected a number, got 'abc'"),
    ("seed", 1.5, "seed: expected an integer, got 1.5"),
    ("seed", -1, "seed: must be at least 0, got -1"),
    ("seed", True, "seed: expected a number, got True"),
    ("points", 0, "points: must be at least 1, got 0"),
    ("points", 10_000_000_000_000,
     "points: must be at most 100000, got 10000000000000"),
    ("points", "many", "points: expected a number, got 'many'"),
    ("points", 2.5, "points: expected an integer, got 2.5"),
])
def test_bad_transform_seed_or_points_exit_2(tmp_path, capsys, key, value,
                                             reason):
    path = write_config(tmp_path, "identity.yaml",
                        {"transform": {"a1": "Q1", "a2": "Q2", "b": "T"},
                         key: value})
    code, out = run_cli(capsys, "transform-check", str(path),
                        "--out", str(tmp_path))
    assert code == 2
    assert out.strip() == f"error: {reason}"


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

def test_yaml_config_round_trips(tmp_path):
    src = CONFIGS / "oscillator.yaml"
    first = cli.scenario_from_config(cli.load_config(src), "s")
    copy = tmp_path / "copy.yaml"
    copy.write_text(yaml.safe_dump(yaml.safe_load(src.read_text())))
    second = cli.scenario_from_config(cli.load_config(copy), "s")
    assert first == second
