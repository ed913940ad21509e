"""Helpers shared by the test modules.

Also holds the acceptance-report registry: test_acceptance.py records one
verdict per criterion here and conftest prints them after the run, so the
one-line summaries survive pytest's output capture.
"""

from __future__ import annotations

import contextlib
import math
import signal
from fractions import Fraction
from typing import Callable, Dict, Tuple

import numpy as np

from phasekit import (ExprProfile, NEW_CHART, Profile, dynamics, num,
                      oscillator_registry, parse)

# criterion number -> (passed, detail), filled by test_acceptance.py
ACCEPTANCE: Dict[int, Tuple[bool, str]] = {}


def record(criterion: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE[criterion] = (bool(passed), detail)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` if the block runs longer than ``seconds``, so
    a hang fails its test instead of stalling the run (main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def constant_registry(omega: float = 2.0, eta: float = 0.0):
    """Constant-coefficient oscillator atoms; f = exp(-eta*t)."""
    return oscillator_registry(ExprProfile(num(eta)), ExprProfile(num(omega)))


class Fixed(Profile):
    """A profile that is called, not written in: one value everywhere."""

    def __init__(self, fixed):
        self.fixed = fixed

    def value(self, order, t):
        return self.fixed


def count_rhs_calls(monkeypatch):
    """Wrap ``dynamics.compile_rhs`` so that every right-hand side it
    compiles counts its calls; returns the counts, one per compiled
    right-hand side in compilation order."""
    counts = []
    compile_rhs = dynamics.compile_rhs

    def counting(*args, **kwargs):
        rhs = compile_rhs(*args, **kwargs)
        slot = len(counts)
        counts.append(0)

        def counted(t, y):
            counts[slot] += 1
            return rhs(t, y)

        return counted

    monkeypatch.setattr(dynamics, "compile_rhs", counting)
    return counts


def damped_oracle(omega: float, eta: float, x0: float, xdot0: float,
                  m: float = 1.0) -> Tuple[Callable, Callable]:
    """Closed-form x(t) and p(t) for constant coefficients, eta < 2*omega.

    x(t) = e^(-eta t/2) (x0 cos Dt + (xdot0 + eta x0/2)/D sin Dt) with
    D = sqrt(omega^2 - eta^2/4), and p = m xdot / f for f = e^(-eta t).
    """
    big = math.sqrt(omega * omega - 0.25 * eta * eta)

    def x_of(t):
        t = np.asarray(t, dtype=float)
        damp = np.exp(-0.5 * eta * t)
        return damp * (x0 * np.cos(big * t)
                       + (xdot0 + 0.5 * eta * x0) / big * np.sin(big * t))

    def p_of(t):
        t = np.asarray(t, dtype=float)
        damp = np.exp(-0.5 * eta * t)
        xdot = damp * (
            xdot0 * np.cos(big * t)
            - (omega * omega * x0 + 0.5 * eta * xdot0) / big * np.sin(big * t)
        )
        return m * xdot * np.exp(eta * t)

    return x_of, p_of


def _frac(rng, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), den)


def random_spec_texts(rng) -> Dict[str, str]:
    """Random polynomial data for a well-posed point transformation.

    The linear leads dominate the perturbation terms on the [-1, 1] sample
    box, so A1', A2' and B' keep a fixed sign there and the completed map
    stays invertible at every sampled state.
    """
    def position(q: str) -> str:
        lead = _frac(rng, 4, 8, 2) * (1 if rng.integers(0, 2) else -1)
        alpha = _frac(rng, -2, 2, 4)      # |2*alpha*T*Q| <= 1 < |lead|
        beta = _frac(rng, -8, 8, 4)
        return (f"({lead})*{q} + ({alpha})*T*{q}^2 + ({beta})*T^2")

    def time_map() -> str:
        lead = _frac(rng, 4, 8, 2) * (1 if rng.integers(0, 2) else -1)
        gamma = _frac(rng, -2, 2, 4)
        delta = _frac(rng, -1, 1, 4)      # |2gT + 3dT^2| <= 1.75 < |lead|
        return f"({lead})*T + ({gamma})*T^2 + ({delta})*T^3"

    def shift(q: str) -> str:
        coeffs = [_frac(rng, -8, 8, 4) for _ in range(5)]
        monos = ("1", q, "T", f"{q}*T", f"{q}^2")
        return " + ".join(f"({c})*{m}" for c, m in zip(coeffs, monos))

    return {
        "a1": position("Q1"),
        "a2": position("Q2"),
        "b": time_map(),
        "d1": shift("Q1"),
        "d2": shift("Q2"),
    }


# monomials for hand-written overrides of one map component: polynomial
# ones, and two quotients whose denominators stay positive on the box
OVERRIDE_TERMS = ("1", "Q1", "Q2", "T", "P1", "P2", "P_T", "Q1*P1", "T*P2",
                  "Q2^2*P2", "T^2*P1", "P1^2", "P1/(2 + T^2)",
                  "Q1/(1 + Q1^2)")


def override_of(terms):
    """Σ c·m over (integer c, OVERRIDE_TERMS entry m) pairs, parsed over the
    new chart."""
    text = " + ".join(f"({c})*{m}" for c, m in terms)
    return parse(text, NEW_CHART.variables)
