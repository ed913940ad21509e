"""Checks made apart from phasekit: closed forms evaluated with numpy.

Nothing here imports phasekit.  Each ``check_*`` function returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Dict, List, Mapping

import numpy as np

EXT_VARS = ("x1_tau", "x2_tau", "t_tau", "p1_tau", "p2_tau", "p_tau")

# the six nonvanishing Dirac brackets of the gauge-fixed extended chart
DIRAC = {
    "{x1_tau, p1_tau}": lambda v, f, w: 1.0,
    "{x2_tau, p2_tau}": lambda v, f, w: 1.0,
    "{x1_tau, p_tau}": lambda v, f, w: -f(v["t_tau"]) * v["p1_tau"] / v["m"],
    "{x2_tau, p_tau}": lambda v, f, w: -f(v["t_tau"]) * v["p2_tau"] / v["m"],
    "{p1_tau, p_tau}": lambda v, f, w: (v["m"] * w(v["t_tau"]) ** 2
                                        * v["x1_tau"] / f(v["t_tau"])),
    "{p2_tau, p_tau}": lambda v, f, w: (v["m"] * w(v["t_tau"]) ** 2
                                        * v["x2_tau"] / f(v["t_tau"])),
}


def eval_rendered(text: str, values: Mapping[str, float],
                  f: Callable, w: Callable) -> float:
    """Evaluate one of phasekit's rendered expressions numerically."""
    scope = dict(values)
    scope.update(f=f, w=w)
    code = compile(text.replace("^", "**"), "<rendered>", "eval")
    return float(eval(code, {"__builtins__": {}}, scope))


def _phi(v, f, w) -> float:
    s = v["t_tau"]
    return (v["p_tau"] + f(s) / (2 * v["m"]) * (v["p1_tau"] ** 2
                                                + v["p2_tau"] ** 2)
            + v["m"] * w(s) ** 2 / (2 * f(s)) * (v["x1_tau"] ** 2
                                                 + v["x2_tau"] ** 2))


def _close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_analysis(summary: Mapping, window, rng) -> List[str]:
    """analysis.json against the paper's closed forms at seeded points.

    f and w are arbitrary smooth positive functions: every identity holds
    for any coefficient profiles, so random ones make a sharper test.
    """
    problems: List[str] = []
    try:
        original, extended, gauge = (summary["original"], summary["extended"],
                                     summary["gauge"])
        brackets = gauge["dirac_brackets"]
        primaries = extended["primaries"]
    except (KeyError, TypeError) as exc:
        return [f"analysis.json lacks {exc}"]
    if extended.get("hessian_det") != "0":
        problems.append(f"extended det {extended.get('hessian_det')!r} != 0")
    if len(primaries) != 1:
        problems.append(f"{len(primaries)} primary constraints, expected 1")
    if set(brackets) != set(DIRAC):
        problems.append(f"Dirac bracket keys {sorted(brackets)}")
    for name, want in (("delta", [[0, -1], [1, 0]]),
                       ("c_inverse", [[0, 1], [-1, 0]])):
        rows = gauge.get(name, [])
        got = [[eval_rendered(e.strip(), {}, None, None)
                for e in row.strip("[]").split(",")] for row in rows]
        if got != want:
            problems.append(f"{name} = {rows}")
    if problems:
        return problems

    tau1, tau2, t1, t2 = window
    for _ in range(3):
        a, b, c, d = (float(x) for x in rng.uniform(0.2, 1.5, size=4))

        def f(s, a=a, c=c):
            return c * math.exp(-a * s)

        def w(s, b=b, d=d):
            return b + d * s

        v = {k: float(rng.uniform(-1.5, 1.5)) for k in EXT_VARS + (
            "x1", "x2", "p1", "p2", "tau")}
        v.update(m=float(rng.uniform(0.5, 3.0)), t=float(rng.uniform(0, 2)),
                 t_tau_dot=float(rng.uniform(0.2, 2.0)))
        phi = _phi(v, f, w)
        expect = {
            "original hessian det": (original["hessian_det"],
                                     v["m"] ** 2 / f(v["t"]) ** 2),
            "primary": (primaries[0], phi),
            "hamiltonian": (extended["hamiltonian"], v["t_tau_dot"] * phi),
            "eta_gauge": (gauge["eta_gauge"], v["t_tau"] - (
                t1 + (t2 - t1) / (tau2 - tau1) * (v["tau"] - tau1))),
        }
        for key, closed in DIRAC.items():
            expect[key] = (brackets[key], closed(v, f, w))
        for name, (text, want) in expect.items():
            got = eval_rendered(text, v, f, w)
            if not _close(got, want):
                problems.append(f"{name}: {text} gives {got!r}, "
                                f"closed form {want!r}")
    return problems


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------

def read_csv(path: Path) -> Dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def coefficients(sc: Mapping):
    """w(t), eta(t) and f(t) = exp(-int_0^t eta) of a generated scenario."""
    w0, w1, e0, e1 = sc["w0"], sc["w1"], sc["e0"], sc["e1"]

    def w(t):
        return w0 + w1 * t

    def f(t):
        return np.exp(-(e0 * t + 0.5 * e1 * t * t))

    return w, f


def damped_solution(omega: float, eta: float, x0: float, p0: float,
                    m: float, t: np.ndarray):
    """x(t), p(t) of m x'' + eta m x' + m omega^2 x = 0 with p = m x' e^(eta t).

    Written with a complex frequency so the over-damped side needs no
    separate branch.
    """
    v0 = p0 / m
    big = np.sqrt(complex(omega * omega - 0.25 * eta * eta))
    damp = np.exp(-0.5 * eta * t)
    cos = np.cos(big * t)
    sin_over = np.sin(big * t) / big if abs(big) > 1e-12 else t
    x = damp * (x0 * cos + (v0 + 0.5 * eta * x0) * sin_over)
    v = damp * (v0 * cos - (omega * omega * x0 + 0.5 * eta * v0) * sin_over)
    return np.real(x), np.real(m * v * np.exp(eta * t))


def check_simulate(out: Path, sc: Mapping) -> List[str]:
    problems: List[str] = []
    orig = read_csv(out / "original.csv")
    ext = read_csv(out / "extended.csv")
    m = sc["m"]
    w, f = coefficients(sc)
    t = orig["t"]
    if sc["w1"] == 0.0 and sc["e1"] == 0.0:
        worst = 0.0
        for x, p in (("x1", "p1"), ("x2", "p2")):
            xs, ps = damped_solution(sc["w0"], sc["e0"], sc["initial"][x],
                                     sc["initial"][p], m, t)
            worst = max(worst, float(np.max(np.abs(orig[x] - xs))),
                        float(np.max(np.abs(orig[p] - ps))))
        if not worst <= 1e-7:
            problems.append(f"original vs closed form {worst:.3e} > 1e-7")
    s = ext["t_tau"]
    ham = (f(s) / (2 * m) * (ext["p1_tau"] ** 2 + ext["p2_tau"] ** 2)
           + m * w(s) ** 2 / (2 * f(s)) * (ext["x1_tau"] ** 2
                                           + ext["x2_tau"] ** 2))
    energy = float(np.max(np.abs(ext["p_tau"] + ham)))
    if not energy <= 1e-7:
        problems.append(f"|p_tau + H| {energy:.3e} > 1e-7")
    gauge = float(np.max(np.abs(s - sc["lam"] * ext["tau"])))
    if not gauge <= 1e-9:
        problems.append(f"t_tau off the gauge orbit by {gauge:.3e}")
    if len(t) != len(s):
        return problems + [f"{len(t)} original rows, {len(s)} extended"]
    agree = max(float(np.max(np.abs(ext[a] - orig[b]))) for a, b in (
        ("x1_tau", "x1"), ("x2_tau", "x2"), ("p1_tau", "p1"),
        ("p2_tau", "p2")))
    if not agree <= 1e-6:
        problems.append(f"extended vs original {agree:.3e} > 1e-6")
    return problems


def check_invariant(inv_out: Path, sim_out: Path, sc: Mapping) -> List[str]:
    """Drift of I from invariant.csv, and I rebuilt from the oscillator run.

    The rebuilt value uses x, p from the simulate run's original.csv and
    rho, rho' from invariant.csv, with nu = m w(0) rho0^2 and rho0 = 1.
    """
    problems: List[str] = []
    inv = read_csv(inv_out / "invariant.csv")
    values = inv["I"]
    drift = float(np.max(np.abs(values - values[0]))) / abs(values[0])
    if not drift < 1e-6:
        problems.append(f"invariant relative drift {drift:.3e} >= 1e-6")
    orig = read_csv(sim_out / "original.csv")
    if orig["t"].shape != inv["t"].shape or not np.allclose(
            orig["t"], inv["t"], rtol=0, atol=1e-9):
        return problems + ["invariant and simulate grids differ"]
    m = sc["m"]
    w, f = coefficients(sc)
    nu = m * w(0.0)
    rho, rho_dot, fv = inv["rho"], inv["rho_dot"], f(inv["t"])
    rebuilt = 0.5 * sum(
        (m * rho_dot * orig[x] / fv - rho * orig[p]) ** 2
        + nu ** 2 * orig[x] ** 2 / rho ** 2
        for x, p in (("x1", "p1"), ("x2", "p2")))
    gap = float(np.max(np.abs(rebuilt - values))) / abs(values[0])
    if not gap < 1e-6:
        problems.append(f"rebuilt invariant differs by {gap:.3e} (relative)")
    return problems


def check_transform(code: int, summary: Mapping, sabotaged: bool) -> List[str]:
    defect, residual = summary.get("defect"), summary.get("ode_residual")
    if not isinstance(defect, float) or not isinstance(residual, float):
        return [f"transform_check.json lacks numbers: {summary!r}"]
    if sabotaged:
        if code != 1 or not defect >= 1e-3:
            return [f"sabotaged spec: exit {code}, defect {defect:.3e}"]
        return []
    if code != 0 or not (defect < 1e-9 and residual < 1e-9):
        return [f"valid spec: exit {code}, defect {defect:.3e}, "
                f"residual {residual:.3e}"]
    return []
