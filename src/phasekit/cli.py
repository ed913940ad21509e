"""Scenario-driven command line front end.

Subcommands: ``analyze`` (symbolic constraint analysis), ``simulate``
(original vs gauge-fixed extended run), ``invariant`` (auxiliary equation
plus conserved-quantity drift), ``transform-check`` (symplectic defect of a
completed transformation).  Every run prints a human-readable report and
writes a machine-readable JSON summary next to its data files.

Configs are YAML mappings; the full schema, with every key optional unless
stated, is

    model: extended | original
    parameters: {m: 1.0, nu: 2.0}
    profiles:
      omega:    0.9            # or {constant: v} | {expression: "..."}
      eta_fric: {expression: "0.1 + 0.01*t"}       # or {table: {times: [...], values: [...]}}
    gauge: {tau: [0.0, 1.0], t: [0.0, 10.0]}       # required by simulate
    integrator: {method: rk45, abs_tol: 1e-10, rel_tol: 1e-10, max_step: 0.05}
    initial: {x1: 1.0, p1: 0.0, x2: 0.0, p2: 0.0}
    ermakov: {rho0: 1.0, rho_dot0: 0.0}
    run: {span: [0.0, 10.0], points: 201}

transform-check reads a different document: a ``transform`` section with
expressions for a1, a2, b and optionally d1, d2, g, plus an optional
``override`` section replacing completed component maps (a corruption
probe), and optional ``points``/``seed`` keys.

Exit codes: 0 success, 1 a check failed or a run aborted, 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .brackets import BracketError
from .canonical import (
    CanonicalError,
    NEW_VARS,
    OLD_ORDER,
    TransformSpec,
    _defect,
    _residuals,
    _sample,
    complete,
)
from .constraints import (
    ConstraintError,
    ConstraintSet,
    GaugeSpec,
    LegendreResult,
    derived_oscillator,
    hessian_rank,
    oscillator_registry,
    secondary_constraints,
    total_hamiltonian,
)
from .dynamics import (
    DynamicsError,
    IntegratorPolicy,
    Trajectory,
    constraint_drift,
    extended_constraint,
    integrate,
    integrate_extended,
    original_equations,
    write_csv,
)
from .expr import (
    AtomRegistry,
    EvalError,
    ExprError,
    ExprProfile,
    NonFiniteError,
    ParseError,
    Profile,
    TabulatedProfile,
    eval_expr,
    from_rat,
    lower,
    num,
    parse,
    render,
    sym,
)
from .invariants import (
    ErmakovBlowupError,
    ErmakovConfig,
    InvariantError,
    co_integrate,
    ermakov_residuals,
    invariant_drift_report,
    lewis_invariant,
)

OK = 0
CHECK_FAILED = 1
CONFIG_ERROR = 2

# largest grid or sample count that --points, run.points or a transform's
# points: may ask for
MAX_POINTS = 100_000


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One validated run description.

    Profiles stay as raw config sections: the registry built from them
    depends on the span, which each subcommand chooses, and raw sections
    keep two scenarios read from the same config equal.
    """

    label: str
    model: str
    m: float
    nu: Optional[float]
    omega_raw: object
    eta_raw: object
    gauge: Optional[GaugeSpec]
    policy: IntegratorPolicy
    initial: Dict[str, float]
    rho0: float
    rho_dot0: float
    span: Tuple[float, float]
    points: int


# libyaml's loader where it is built in; both build the same objects
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: Path) -> Mapping:
    if not path.exists():
        raise ConfigError(f"{path}: no such file")
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                data = yaml.load(fh, Loader=_LOADER)
            except (yaml.YAMLError, UnicodeDecodeError):
                # the pure-Python loader words the one-line reasons below
                fh.seek(0)
                data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        # a reader error has no problem, and its text spans two lines
        reason = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{where}: {reason}")
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _number(section, key, default, where, positive=False, integer=False):
    """Finite float (int with ``integer``); ``where=None``: a top-level key.
    YAML booleans (``true``, ``yes``) are not numbers."""
    name = key if where is None else f"{where}.{key}"
    raw = section.get(key, default)
    not_a_number = ConfigError(f"{name}: expected a number, got {raw!r}")
    if isinstance(raw, bool):
        raise not_a_number
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise not_a_number
    if not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite, got {raw!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name}: must be positive")
    if integer and not value.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {raw!r}")
    return int(value) if integer else value


def _section(cfg: Mapping, key: str) -> Mapping:
    """The mapping under ``key``; absent or null gives an empty one."""
    section = cfg.get(key)
    if section is None:
        return {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"{key}: expected a mapping")
    return section


def _pair(section, key, where) -> Optional[Tuple[float, float]]:
    if key not in section:
        return None
    raw = section[key]
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"{where}.{key}: expected [lo, hi]")
    lo, hi = (_number({key: v}, key, None, where) for v in raw)
    return lo, hi


def scenario_from_config(cfg: Mapping, label: str,
                         points: Optional[int] = None) -> Scenario:
    """Validated scenario; ``points`` (``--points``) overrides run.points."""
    model = str(cfg.get("model", "extended"))
    if model not in ("original", "extended"):
        raise ConfigError(f"model: expected original or extended, got {model!r}")

    params = _section(cfg, "parameters")
    m = _number(params, "m", 1.0, "parameters", positive=True)
    nu = None
    if "nu" in params:
        nu = _number(params, "nu", None, "parameters")
        if nu < 0:
            raise ConfigError("parameters.nu: must be non-negative")

    profiles = _section(cfg, "profiles")
    omega_raw = profiles.get("omega", 1.0)
    eta_raw = profiles.get("eta_fric", 0.0)
    # fail early on malformed profile sections
    _profile_from(omega_raw, "profiles.omega")
    _profile_from(eta_raw, "profiles.eta_fric")

    gauge = None
    gsec = _section(cfg, "gauge")
    if gsec:
        tau = _pair(gsec, "tau", "gauge")
        t = _pair(gsec, "t", "gauge")
        if tau is None or t is None:
            raise ConfigError("gauge: needs both tau: [a, b] and t: [c, d]")
        if tau[1] <= tau[0]:
            raise ConfigError(f"gauge.tau: empty span {list(tau)}")
        if t[1] <= t[0]:
            raise ConfigError(f"gauge.t: empty span {list(t)}")
        try:
            gauge = GaugeSpec(window=(tau[0], tau[1], t[0], t[1]))
        except ConstraintError as exc:
            raise ConfigError(f"gauge: {exc}")

    isec = _section(cfg, "integrator")
    method = str(isec.get("method", "rk45"))
    try:
        policy = IntegratorPolicy(
            method=method,
            abs_tol=_number(isec, "abs_tol", 1e-10, "integrator", True),
            rel_tol=_number(isec, "rel_tol", 1e-10, "integrator", True),
            max_step=_number(isec, "max_step", 0.05, "integrator", True),
        )
    except DynamicsError as exc:
        raise ConfigError(f"integrator: {exc}")

    init_sec = _section(cfg, "initial")
    initial = {
        v: _number(init_sec, v, d, "initial")
        for v, d in (("x1", 1.0), ("p1", 0.0), ("x2", 0.0), ("p2", 0.0))
    }

    esec = _section(cfg, "ermakov")
    rho0 = _number(esec, "rho0", 1.0, "ermakov", positive=True)
    rho_dot0 = _number(esec, "rho_dot0", 0.0, "ermakov")

    rsec = _section(cfg, "run")
    span = _pair(rsec, "span", "run") or (0.0, 10.0)
    if span[1] <= span[0]:
        raise ConfigError(f"run.span: empty span {list(span)}")
    name = "--points"
    if points is None:
        name = "run.points"
        points = _number(rsec, "points", 201, "run", integer=True)
    if points < 2:
        raise ConfigError(f"{name}: need at least 2, got {points}")
    if points > MAX_POINTS:
        raise ConfigError(
            f"{name}: must be at most {MAX_POINTS}, got {points}")

    return Scenario(
        label=label, model=model, m=m, nu=nu, omega_raw=omega_raw,
        eta_raw=eta_raw, gauge=gauge, policy=policy, initial=initial,
        rho0=rho0, rho_dot0=rho_dot0, span=span, points=points,
    )


def _profile_from(section, where: str) -> Profile:
    if isinstance(section, (int, float)):   # a bool fails in _number
        return ExprProfile(num(_number({where: section}, where, None, None)))
    if not isinstance(section, Mapping) or len(section) != 1:
        raise ConfigError(
            f"{where}: expected a number or one of "
            f"constant:/expression:/table:"
        )
    (kind, value), = section.items()
    if kind == "constant":
        return ExprProfile(num(_number(section, kind, None, where)))
    if kind == "expression":
        try:
            return ExprProfile(parse(str(value), ("t",)))
        except ParseError as exc:
            raise ConfigError(
                f"{where}.expression: {exc} (column {exc.position})"
            )
        except ExprError as exc:
            raise ConfigError(f"{where}.expression: {exc}")
    if kind == "table":
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}.table: expected times:/values: lists")
        try:
            return TabulatedProfile(value.get("times", ()),
                                    value.get("values", ()))
        except ValueError as exc:
            raise ConfigError(f"{where}.table: {exc}")
    raise ConfigError(f"{where}: unknown profile kind {kind!r}")


def build_registry(scenario: Scenario,
                   span: Tuple[float, float]) -> AtomRegistry:
    """The oscillator's atoms from the scenario's profiles over the span."""
    omega = _profile_from(scenario.omega_raw, "profiles.omega")
    eta = _profile_from(scenario.eta_raw, "profiles.eta_fric")
    try:
        return oscillator_registry(eta, omega, span)
    except ValueError as exc:
        raise ConfigError(f"profiles.eta_fric: {exc}")


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def _matrix_lines(rows) -> List[str]:
    return ["[" + ", ".join(render(e) for e in row) + "]" for row in rows]


def _chart_analysis(chart: str, sample: Mapping[str, float],
                    registry: AtomRegistry, heading: str,
                    lines: List[str]) -> Tuple[LegendreResult, Dict]:
    """The derived Hessian of one chart, its rank at the sample point under
    the config's ``registry``, and the Legendre transform, reported under
    ``heading``; returns the transform and the chart's summary."""
    _, h, lgd = derived_oscillator(chart)
    rank = hessian_rank(h, sample, registry)
    det = render(h.determinant)
    lines.append(heading)
    lines.append(f"  hessian det = {det}")
    lines.append(f"  hessian rank at sample point: {rank}")
    if lgd.primaries:
        lines.append("  primary constraints:")
        lines.extend(f"    phi_{i} = {render(p)}"
                     for i, p in enumerate(lgd.primaries))
    else:
        lines.append("  no constraints")
    lines.append(f"  H = {render(lgd.hamiltonian)}")
    return lgd, {
        "hessian_det": det,
        "rank": rank,
        "primaries": [render(p) for p in lgd.primaries],
        "hamiltonian": render(lgd.hamiltonian),
    }


def run_analyze(scenario: Scenario, out_dir: Path) -> Tuple[int, str]:
    span = scenario.gauge.window[2:] if scenario.gauge else scenario.span
    registry = build_registry(scenario, span)
    lines = [f"scenario: {scenario.label}"]
    summary: Dict[str, object] = {"scenario": scenario.label,
                                  "model": scenario.model}

    _, summary["original"] = _chart_analysis(
        "original",
        {"m": scenario.m, "t": 0.0,
         "x1": 0.3, "x2": -0.4, "x1_dot": 0.1, "x2_dot": 0.2},
        registry, "original chart (x1, p1, x2, p2):", lines)

    if scenario.model == "original":
        _write_summary(out_dir, "analysis.json", summary)
        return OK, "\n".join(lines)

    elgd, extended_summary = _chart_analysis(
        "extended",
        {"m": scenario.m, "tau": 0.0, "t_tau": 0.1,
         "x1_tau": 0.3, "x2_tau": -0.4,
         "x1_tau_dot": 0.1, "x2_tau_dot": 0.2, "t_tau_dot": 0.7},
        registry,
        "extended chart (x1_tau, p1_tau, x2_tau, p2_tau, t_tau, p_tau):",
        lines)

    cs = ConstraintSet(primaries=elgd.primaries, gauge=scenario.gauge)
    chart = elgd.chart
    # With a gauge fixed the multiplier is no longer free: consistency of
    # the gauge row pins it to the window slope.  Only the ungauged search
    # keeps a symbolic multiplier.
    lam = (num(scenario.gauge.slope) if scenario.gauge is not None
           else sym("lam"))
    search = secondary_constraints(cs, total_hamiltonian(cs, lam), chart,
                                   registry=registry)
    lines.append(
        f"  secondary constraints: "
        f"{len(search.secondaries) or 'none'} "
        f"(consistency closed after {search.passes} pass"
        f"{'es' if search.passes != 1 else ''})"
    )
    # the closed set's matrix serves the report and the gauged Dirac brackets
    cm = search.matrix
    lines.append("  classification:")
    lines.extend("    " + row for row in cm.report().splitlines())
    summary["extended"] = {
        **extended_summary,
        "secondaries": [render(s) for s in search.secondaries],
        "first_class": list(cm.first_class),
        "second_class": list(cm.second_class),
    }

    if scenario.gauge is None:
        lines.append("gauge: none (Delta is singular, no Dirac brackets)")
        _write_summary(out_dir, "analysis.json", summary)
        return OK, "\n".join(lines)

    tau1, tau2, t1, t2 = scenario.gauge.window
    lines.append(f"gauge window: tau in [{tau1:g}, {tau2:g}] -> "
                 f"t in [{t1:g}, {t2:g}]")
    lines.append(f"  eta_gauge = {render(scenario.gauge.eta_gauge)}")
    lines.append("  Delta =")
    lines.extend("    " + row for row in _matrix_lines(cm.delta))
    lines.append("  C = Delta^-1 =")
    lines.extend("    " + row for row in _matrix_lines(cm.inverse))
    lines.append("  nonvanishing Dirac brackets:")
    brackets: Dict[str, str] = {}
    for i, (u, row) in enumerate(zip(chart.variables, cm.dirac_matrix)):
        # {u, v}_D = D_uv, from the upper triangle
        for v, entry in zip(chart.variables[i + 1:], row[i + 1:]):
            if not entry.is_zero():
                text = render(from_rat(entry))
                brackets[f"{{{u}, {v}}}"] = text
                lines.append(f"    {{{u}, {v}}}_D = {text}")
    summary["gauge"] = {
        "window": [tau1, tau2, t1, t2],
        "eta_gauge": render(scenario.gauge.eta_gauge),
        "delta": _matrix_lines(cm.delta),
        "c_inverse": _matrix_lines(cm.inverse),
        "dirac_brackets": brackets,
    }
    _write_summary(out_dir, "analysis.json", summary)
    return OK, "\n".join(lines)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def run_simulate(scenario: Scenario, out_dir: Path,
                 tol: float) -> Tuple[int, str]:
    if scenario.gauge is None:
        raise ConfigError("simulate needs a gauge: section")
    gauge = scenario.gauge
    tau1, tau2, t1, t2 = gauge.window
    registry = build_registry(scenario, (t1, t2))
    params = {"m": scenario.m}
    points = scenario.points

    h_expr, eom = original_equations()
    tau_grid = np.linspace(tau1, tau2, points)
    t_grid = np.array([gauge.time_of(float(v)) for v in tau_grid])
    orig = integrate(eom, scenario.initial, t_grid, scenario.policy,
                     registry, params, param_name="t")

    h0 = eval_expr(h_expr, {**scenario.initial, "m": scenario.m},
                   time=t1, registry=registry)
    ext_init = {
        "x1_tau": scenario.initial["x1"], "x2_tau": scenario.initial["x2"],
        "p1_tau": scenario.initial["p1"], "p2_tau": scenario.initial["p2"],
        "t_tau": t1, "p_tau": -h0,
    }
    # the extended run steps in tau, and dt = lambda * dtau: cap its step so
    # that the physical step matches the original run's
    ext_policy = dataclasses.replace(
        scenario.policy,
        max_step=scenario.policy.max_step / abs(gauge.lambda_value))
    ext = integrate_extended(gauge, ext_init, ext_policy, registry,
                             params, points=points)

    pairs = (("x1_tau", "x1"), ("x2_tau", "x2"),
             ("p1_tau", "p1"), ("p2_tau", "p2"))
    equivalence = max(
        float(np.max(np.abs(ext.series[a] - orig.series[b])))
        for a, b in pairs
    )

    cs = ConstraintSet(primaries=(extended_constraint(),), gauge=gauge)
    drift = constraint_drift(
        ext, cs, registry=registry,
        params={**params, "lam": gauge.lambda_value},
    )
    drift_traj = Trajectory(grid=ext.grid, series=drift, param_name="tau")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(orig, out_dir / "original.csv")
    write_csv(ext, out_dir / "extended.csv")
    write_csv(drift_traj, out_dir / "drift.csv")

    max_phi = float(np.max(drift["phi_0"]))
    max_eta = float(np.max(drift["eta_gauge"]))
    lines = [f"scenario: {scenario.label}"]
    lines.append(f"gauge multiplier lambda = {gauge.lambda_value:g}")
    lines.append(f"max gauge-equivalence error: {equivalence:.3e}")
    lines.append(f"max |phi| drift: {max_phi:.3e}")
    lines.append(f"max |eta_gauge| drift: {max_eta:.3e}")
    for name, traj in (("original", orig), ("extended", ext)):
        stats = traj.stats or {}
        if "max_error_per_unit_step" in stats:
            lines.append(
                f"{name} run: {stats['steps']:.0f} steps "
                f"({stats['rejected']:.0f} rejected), achieved local error "
                f"{stats['max_error_per_unit_step']:.3e} of tolerance "
                f"per unit parameter"
            )
        else:
            lines.append(f"{name} run: {stats.get('steps', 0):.0f} "
                         f"fixed steps")
    code = OK if equivalence < tol else CHECK_FAILED
    lines.append(f"equivalence check vs {tol:g}: "
                 f"{'ok' if code == OK else 'FAILED'}")
    _write_summary(out_dir, "simulate.json", {
        "scenario": scenario.label,
        "equivalence_error": equivalence,
        "max_phi": max_phi,
        "max_eta_gauge": max_eta,
        "tolerance": tol,
        "original_stats": orig.stats,
        "extended_stats": ext.stats,
        "files": ["original.csv", "extended.csv", "drift.csv"],
        "status": "ok" if code == OK else "check-failed",
    })
    return code, "\n".join(lines)


# --------------------------------------------------------------------------
# invariant
# --------------------------------------------------------------------------

def run_invariant(scenario: Scenario, out_dir: Path,
                  tol: float) -> Tuple[int, str]:
    registry = build_registry(scenario, scenario.span)
    cfg = ErmakovConfig(
        registry=registry, span=scenario.span, m=scenario.m,
        nu=scenario.nu, rho0=scenario.rho0, rho_dot0=scenario.rho_dot0,
    )
    lines = [f"scenario: {scenario.label}", f"nu = {float(cfg.nu):g}"]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        traj = co_integrate(cfg, scenario.initial, scenario.policy,
                            points=scenario.points)
    except ErmakovBlowupError as exc:
        lines.append(
            f"auxiliary solution left the positive branch; last valid "
            f"t = {exc.last_valid_time:g}"
        )
        _write_summary(out_dir, "invariant.json", {
            "scenario": scenario.label,
            "status": "aborted",
            "last_valid_t": exc.last_valid_time,
        })
        return CHECK_FAILED, "\n".join(lines)

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = lewis_invariant(traj, cfg)
            report = invariant_drift_report(values, traj.grid)
            residual = float(np.max(np.abs(ermakov_residuals(traj, cfg))))
    except (OverflowError, FloatingPointError) as exc:
        raise InvariantError(f"the invariant or the auxiliary-equation "
                             f"residual overflows a float ({exc})")
    series = {"rho": traj.series["rho"], "rho_dot": traj.series["rho_dot"],
              "I": values}
    write_csv(Trajectory(traj.grid, series), out_dir / "invariant.csv")

    lines.append(f"I(0) = {float(values[0]):.12g}")
    lines.append(
        f"max {report.mode} drift of I: {report.max_drift:.3e} "
        f"at t = {report.at_time:g}"
    )
    lines.append(f"max auxiliary-equation residual (FD): {residual:.3e}")
    code = OK if report.max_drift < tol else CHECK_FAILED
    lines.append(f"drift check vs {tol:g}: "
                 f"{'ok' if code == OK else 'FAILED'}")
    _write_summary(out_dir, "invariant.json", {
        "scenario": scenario.label,
        "nu": float(cfg.nu),
        "invariant_initial": float(values[0]),
        "max_drift": report.max_drift,
        "drift_mode": report.mode,
        "ode_residual": residual,
        "tolerance": tol,
        "stats": traj.stats,
        "files": ["invariant.csv"],
        "status": "ok" if code == OK else "check-failed",
    })
    return code, "\n".join(lines)


# --------------------------------------------------------------------------
# transform-check
# --------------------------------------------------------------------------

def run_transform_check(cfg: Mapping, label: str, out_dir: Path,
                        points: Optional[int], tol: float) -> Tuple[int, str]:
    section = cfg.get("transform")
    if not isinstance(section, Mapping):
        raise ConfigError("transform: section is required")
    texts = {k: str(section[k]) for k in section}
    unknown = set(texts) - {"a1", "a2", "b", "d1", "d2", "g"}
    if unknown:
        raise ConfigError(
            f"transform: unknown keys {sorted(unknown, key=str)}")
    for required in ("a1", "a2", "b"):
        if required not in texts:
            raise ConfigError(f"transform.{required}: required")
    try:
        spec = TransformSpec.from_strings(**texts)
        tr = complete(spec)
    except (ExprError, CanonicalError) as exc:
        raise ConfigError(f"transform: {exc}")

    overrides = _section(cfg, "override")
    if overrides:
        maps = dict(tr.maps)
        for name, text in overrides.items():
            if name not in OLD_ORDER:
                raise ConfigError(
                    f"override.{name}: not a component "
                    f"(expected one of {', '.join(OLD_ORDER)})"
                )
            try:        # parsed, and every constant fits a float
                maps[name] = parse(str(text), NEW_VARS)
                lower([maps[name]], NEW_VARS, time_var=None)
            except ExprError as exc:
                raise ConfigError(f"override.{name}: {exc}")
        tr = dataclasses.replace(tr, maps=maps)

    seed = _number(cfg, "seed", 20260817, None, integer=True)
    if seed < 0:
        raise ConfigError(f"seed: must be at least 0, got {seed}")
    count = points
    if count is None:
        count = _number(cfg, "points", 64, None, integer=True)
        if count < 1:
            raise ConfigError(f"points: must be at least 1, got {count}")
        if count > MAX_POINTS:
            raise ConfigError(
                f"points: must be at most {MAX_POINTS}, got {count}")
    try:        # the Jacobian each state's gate read
        _, jacobians = _sample(tr, count, seed)
    except NonFiniteError as exc:       # from lowering the spec's maps
        raise ConfigError(f"transform: {exc}")
    defect = _defect(jacobians)
    residual = max(max(abs(r) for r in _residuals(m)) for m in jacobians)
    code = OK if (defect < tol and residual < tol) else CHECK_FAILED
    lines = [f"transform: {label}"]
    if overrides:
        lines.append(f"overrides applied: {', '.join(sorted(overrides))}")
    lines.append(f"symplectic defect over {count} states: {defect:.3e}")
    lines.append(f"max ODE residual: {residual:.3e}")
    lines.append(f"check vs {tol:g}: {'ok' if code == OK else 'FAILED'}")
    _write_summary(out_dir, "transform_check.json", {
        "transform": label,
        "points": count,
        "seed": seed,
        "defect": defect,
        "ode_residual": residual,
        "tolerance": tol,
        "overrides": sorted(overrides),
        "status": "ok" if code == OK else "check-failed",
    })
    return code, "\n".join(lines)


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------

def _write_summary(out_dir: Path, name: str, payload: Mapping) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(command: str, path_str: str, opts: Dict) -> Tuple[int, str]:
    path = Path(path_str)
    out_dir = Path(opts["out"])
    if opts.get("subdir"):
        out_dir = out_dir / path.stem
    try:
        cfg = load_config(path)
        if command == "transform-check":
            return run_transform_check(cfg, path.stem, out_dir,
                                       opts["points"], opts["tol"])
        scenario = scenario_from_config(cfg, path.stem, opts["points"])
        if command == "invariant" and scenario.points < 5:
            # the auxiliary equation's residual takes five-point differences
            key = "run.points" if opts["points"] is None else "--points"
            raise ConfigError(f"{key}: invariant needs at least 5, "
                              f"got {scenario.points}")
        if command == "analyze":
            return run_analyze(scenario, out_dir)
        if command == "simulate":
            return run_simulate(scenario, out_dir, opts["tol"])
        if command == "invariant":
            return run_invariant(scenario, out_dir, opts["tol"])
        raise ConfigError(f"unknown command {command!r}")
    except ConfigError as exc:
        return CONFIG_ERROR, f"error: {exc}"
    except (ConstraintError, BracketError, DynamicsError, InvariantError,
            CanonicalError, EvalError, FloatingPointError) as exc:
        return CHECK_FAILED, f"scenario '{path.stem}': {exc}"


def _run_star(task: Tuple[str, str, Dict]) -> Tuple[int, str]:
    return _run_one(*task)


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for ``--jobs``: no more than tasks or cores."""
    return min(jobs, tasks, os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phasekit",
        description="constraint analysis and simulations for the damped "
                    "oscillator in extended phase space",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol_default=None):
        sp.add_argument("configs", nargs="+", metavar="CONFIG")
        sp.add_argument("--out", default=".",
                        help="output directory (default: current)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel scenarios (at most one per core)")
        sp.add_argument("--points", type=int, default=None,
                        help="override the grid point count")
        if tol_default is not None:
            sp.add_argument("--tol", type=float, default=tol_default,
                            help=f"check tolerance (default {tol_default:g})")

    common(sub.add_parser("analyze",
                          help="symbolic constraint analysis report"))
    common(sub.add_parser("simulate",
                          help="original vs gauge-fixed extended run"),
           tol_default=1e-6)
    common(sub.add_parser("invariant",
                          help="auxiliary equation and invariant drift"),
           tol_default=1e-6)
    tc = sub.add_parser("transform-check",
                        help="symplectic defect of a transform spec")
    common(tc, tol_default=1e-9)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs: must be at least 1, got {args.jobs}")
    if args.points is not None and args.points < 1:
        parser.error(f"--points: must be at least 1, got {args.points}")
    if args.points is not None and args.points > MAX_POINTS:
        parser.error(
            f"--points: must be at most {MAX_POINTS}, got {args.points}")
    opts = {
        "out": args.out,
        "points": args.points,
        "tol": getattr(args, "tol", None),
        "subdir": len(args.configs) > 1,
    }
    tasks = [(args.command, path, opts) for path in args.configs]
    workers = _pool_size(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_star, tasks))
    else:
        results = [_run_star(t) for t in tasks]
    worst = OK
    for (code, text), (_, path, _o) in zip(results, tasks):
        print(text)
        if len(tasks) > 1:
            print()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
