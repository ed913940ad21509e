"""Seeded inputs, CLI calls and checks for the three workloads.

Operation ``i`` of a run takes its structure (profile kinds, zero
patterns, frequency bands, which specs are sabotaged) from ``i`` alone and
its values from ``(seed, i)``.  Every run therefore meets the same mix of
cheap and expensive inputs in the same order, while each seed gives
distinct inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np
import yaml

import oracle

# criterion 7 draws its specs from this seed; it fixes the zero patterns
STRUCTURE_SEED = 20260817


@dataclass
class Operation:
    calls: List[List[str]]              # argv of each cli.main call
    codes: List[int]                    # the exit code each call must give
    configs: int                        # configs the operation completes
    check: Callable[[List[int]], List[str]]   # problems, given the codes


def _write(path: Path, cfg: Dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return str(path)


def _profile(c0: float, c1: float):
    if c1 == 0.0:
        return {"constant": c0}
    return {"expression": f"{c0!r} + ({c1!r})*t"}


# --------------------------------------------------------------------------
# dirac_analysis: analyze on gauge-fixed extended configs
# --------------------------------------------------------------------------

# (omega, eta_fric) profile kinds, cycled by operation index
ANALYSIS_KINDS = (("constant", "constant"), ("expression", "constant"),
                  ("constant", "expression"), ("expression", "expression"))


def dirac_analysis(seed: int, index: int, work: Path) -> Operation:
    rng = np.random.default_rng((seed, 1, index))
    w_kind, e_kind = ANALYSIS_KINDS[index % len(ANALYSIS_KINDS)]
    w0 = round(float(rng.uniform(0.5, 3.0)), 4)
    e0 = round(float(rng.uniform(0.0, 1.0)), 4)
    w1 = round(float(rng.uniform(0.0, 0.04)), 4) if w_kind == "expression" \
        else 0.0
    e1 = round(float(rng.uniform(0.0, 0.04)), 4) if e_kind == "expression" \
        else 0.0
    # dyadic or integer slopes keep the exact arithmetic the same size
    tau2 = float(rng.choice([1, 2, 4, 5, 8]))
    t1 = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    t2 = t1 + float(rng.choice([5, 10, 20]))
    cfg = {
        "model": "extended",
        "parameters": {"m": round(float(rng.uniform(0.5, 3.0)), 4)},
        "profiles": {"omega": _profile(w0, w1), "eta_fric": _profile(e0, e1)},
        "gauge": {"tau": [0.0, tau2], "t": [t1, t2]},
    }
    out = work / "out"
    config = _write(work / f"analysis_{index}.yaml", cfg)
    check_rng = np.random.default_rng((seed, 2, index))

    def check(codes) -> List[str]:
        summary = json.loads((out / "analysis.json").read_text())
        return oracle.check_analysis(summary, (0.0, tau2, t1, t2), check_rng)

    return Operation(
        calls=[["analyze", config, "--out", str(out), "--jobs", "1"]],
        codes=[0], configs=1, check=check)


# --------------------------------------------------------------------------
# transform_check: random polynomial specs, a sixth of them sabotaged
# --------------------------------------------------------------------------

def _lead(rng) -> Fraction:
    return Fraction(int(rng.integers(4, 9)), 2) * (
        1 if rng.integers(0, 2) else -1)


# (name, lo, hi, denominator) of every coefficient that can be zero,
# in the order the criterion-7 generator draws them
_POSITION = (("alpha", -2, 2, 4), ("beta", -8, 8, 4))
_TIME = (("gamma", -2, 2, 4), ("delta", -1, 1, 4))
_SHIFT_MONOS = ("1", "{q}", "T", "{q}*T", "{q}^2")


def _spec_coefficients(rng, zero: Sequence[bool] = None) -> Dict:
    """Coefficients of one spec, drawn as in the criterion-7 generator.

    With ``zero`` given, coefficient ``k`` is 0 exactly where ``zero[k]``
    is true and otherwise drawn from its range without 0.
    """
    slots = iter(zero) if zero is not None else None

    def draw(lo, hi, den):
        if slots is None:
            return Fraction(int(rng.integers(lo, hi + 1)), den)
        if next(slots):
            return Fraction(0)
        values = [v for v in range(lo, hi + 1) if v]
        return Fraction(int(rng.choice(values)), den)

    spec: Dict = {}
    for leg in ("a1", "a2"):
        spec[leg] = [_lead(rng)] + [draw(*r[1:]) for r in _POSITION]
    spec["b"] = [_lead(rng)] + [draw(*r[1:]) for r in _TIME]
    for leg in ("d1", "d2"):
        spec[leg] = [draw(-8, 8, 4) for _ in _SHIFT_MONOS]
    return spec


def _spec_texts(c: Dict) -> Dict[str, str]:
    texts = {}
    for leg, q in (("a1", "Q1"), ("a2", "Q2")):
        lead, alpha, beta = c[leg]
        texts[leg] = f"({lead})*{q} + ({alpha})*T*{q}^2 + ({beta})*T^2"
    lead, gamma, delta = c["b"]
    texts["b"] = f"({lead})*T + ({gamma})*T^2 + ({delta})*T^3"
    for leg, q in (("d1", "Q1"), ("d2", "Q2")):
        texts[leg] = " + ".join(f"({k})*{m.format(q=q)}"
                                for k, m in zip(c[leg], _SHIFT_MONOS))
    return texts


def zero_pattern(index: int) -> List[bool]:
    """Which coefficients of spec ``index`` vanish, as criterion 7 draws."""
    c = _spec_coefficients(np.random.default_rng((STRUCTURE_SEED, index)))
    return [v == 0 for leg in ("a1", "a2", "b") for v in c[leg][1:]] + [
        v == 0 for leg in ("d1", "d2") for v in c[leg]]


def sabotage(c: Dict) -> Dict[str, str]:
    """p1_tau with twice the momentum coefficient 1/A1', derived by hand.

    Then {x1_tau, p1_tau} = 2 instead of 1, so M^T J M - J has an entry of
    size 1 at every state and the map cannot be symplectic.
    """
    lead, alpha, _beta = c["a1"]
    d1 = _spec_texts(c)["d1"]
    return {"p1_tau": f"2*P1/(({lead}) + 2*({alpha})*T*Q1) + {d1}"}


def transform_check(seed: int, index: int, work: Path) -> Operation:
    rng = np.random.default_rng((seed, 3, index))
    coefficients = _spec_coefficients(rng, zero_pattern(index))
    cfg: Dict = {"transform": _spec_texts(coefficients)}
    sabotaged = index % 6 == 1
    if sabotaged:
        cfg["override"] = sabotage(coefficients)
    cfg["points"] = 64
    cfg["seed"] = int(rng.integers(0, 2 ** 31))
    out = work / "out"
    config = _write(work / f"transform_{index}.yaml", cfg)

    def check(codes) -> List[str]:
        summary = json.loads((out / "transform_check.json").read_text())
        return oracle.check_transform(codes[0], summary, sabotaged)

    return Operation(
        calls=[["transform-check", config, "--out", str(out), "--jobs", "1"]],
        codes=[1 if sabotaged else 0], configs=1, check=check)


# --------------------------------------------------------------------------
# scenario_sweep: simulate, then invariant, over one group of scenarios
# --------------------------------------------------------------------------

GROUP = 6
SLOPES = (0.5, 1.0, 2.0)
# the scenario in this slot gets linear-in-t profiles, in every group
EXPRESSION_SLOT = 2
W_LO, W_HI = 0.5, 3.0


def scenario(seed: int, index: int, slot: int) -> Dict:
    """One scenario: slot k has frequency band k of six over [0.5, 3]."""
    rng = np.random.default_rng((seed, 4, index, slot))
    width = (W_HI - W_LO) / GROUP
    w0 = round(float(rng.uniform(W_LO + slot * width,
                                 W_LO + (slot + 1) * width)), 4)
    e0 = round(float(rng.uniform(0.0, 1.0)), 4)
    w1 = e1 = 0.0
    if slot == EXPRESSION_SLOT:
        # w stays inside [0.5, 3] and eta inside [0, 1] over the padded span
        reach = 10.2
        w1 = round(float(rng.uniform(-0.02, 0.02)), 4)
        e1 = round(float(rng.uniform(max(-0.04, -e0 / reach),
                                     min(0.04, (1.0 - e0) / reach))), 4)
    return {
        "m": 1.0, "w0": w0, "w1": w1, "e0": e0, "e1": e1,
        "lam": SLOPES[slot % len(SLOPES)],
        "initial": {k: round(float(rng.uniform(-1.0, 1.0)), 4)
                    for k in ("x1", "p1", "x2", "p2")},
    }


def scenario_config(sc: Dict) -> Dict:
    return {
        "model": "extended",
        "parameters": {"m": sc["m"]},
        "profiles": {"omega": _profile(sc["w0"], sc["w1"]),
                     "eta_fric": _profile(sc["e0"], sc["e1"])},
        "gauge": {"tau": [0.0, 10.0 / sc["lam"]], "t": [0.0, 10.0]},
        "integrator": {"method": "rk45", "abs_tol": 1e-10, "rel_tol": 1e-10,
                       "max_step": 0.05},
        "initial": sc["initial"],
        "ermakov": {"rho0": 1.0, "rho_dot0": 0.0},
        "run": {"span": [0.0, 10.0], "points": 101},
    }


def scenario_sweep(seed: int, index: int, work: Path) -> Operation:
    scenarios = {f"s{index}_{k}": scenario(seed, index, k)
                 for k in range(GROUP)}
    configs = [_write(work / f"{name}.yaml", scenario_config(sc))
               for name, sc in scenarios.items()]
    sim, inv = work / "simulate", work / "invariant"

    def check(codes) -> List[str]:
        problems = []
        for name, sc in scenarios.items():
            found = (oracle.check_simulate(sim / name, sc)
                     + oracle.check_invariant(inv / name, sim / name, sc))
            problems += [f"{name}: {p}" for p in found]
        return problems

    return Operation(
        calls=[["simulate", *configs, "--out", str(sim), "--jobs", "1"],
               ["invariant", *configs, "--out", str(inv), "--jobs", "1"]],
        codes=[0, 0], configs=GROUP, check=check)


WORKLOADS = {
    "dirac_analysis": dirac_analysis,
    "transform_check": transform_check,
    "scenario_sweep": scenario_sweep,
}
