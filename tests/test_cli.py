"""End-to-end runs of the command line front end, in process."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import phasekit
from phasekit import cli, equivalent, parse

from _support import constant_registry, deadline

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
# At max_step 0.01 the extended rk4 run leaves the constraint surface (exit
# 1, |phi| printed to 16 digits), so a finer step pins simulate's CSVs.
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
