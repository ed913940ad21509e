"""Extended-phase-space canonical transformations from separable generators.

A ``TransformSpec`` supplies A1(Q1,T), A2(Q2,T), B(T) and the momentum
shifts D1(Q1,T), D2(Q2,T); ``complete`` derives the remaining pieces

    C_i = 1/A_i',
    F   = P_T/B' - (A1./(A1' B'))P1 - (A2./(A2' B'))P2
          + (1/B') [ int (D1. A1' - A1. D1') dQ1
                   + int (D2. A2' - A2. D2') dQ2 ]

(prime: d/dQ_i, dot: d/dT), which makes the six-component map symplectic by
construction.  The Q-integrals are done symbolically whenever the integrand
is polynomial in the integration variable; otherwise the p_tau component
carries quadrature terms.  The maps and their Jacobian are evaluated by one
lowered jet per transform, from forward differentiation (``lower(wrt=)``),
read by one walk over a chain (``_walk``); the sampler's Jacobian feeds the
defect and the residuals, and no symbolic partial is built for any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .expr import (
    Chart,
    NonFiniteError,
    PhaseExpr,
    ZERO,
    _finite,
    antiderivative,
    diff,
    free_symbols,
    is_zero_expr,
    lower,
    num,
    parse,
    simplify,
    sym,
)


class CanonicalError(Exception):
    pass


class DegenerateSpecError(CanonicalError):
    pass


NEW_CHART = Chart((("Q1", "P1"), ("Q2", "P2"), ("T", "P_T")), label="new")
NEW_VARS = NEW_CHART.variables                       # (Q1, Q2, T, P1, P2, P_T)
OLD_ORDER = ("x1_tau", "x2_tau", "t_tau", "p1_tau", "p2_tau", "p_tau")

_ALLOWED = {
    "a1": ("Q1", "T"),
    "a2": ("Q2", "T"),
    "b": ("T",),
    "d1": ("Q1", "T"),
    "d2": ("Q2", "T"),
    "g": ("T",),
}


@dataclass(frozen=True)
class TransformSpec:
    """Separable generator functions for the transformation ansatz.

    ``g`` is an optional additive function of T alone in F; the derivative
    structure leaves it unconstrained, so it defaults to zero and stays out
    of conformance checks.
    """

    a1: PhaseExpr
    a2: PhaseExpr
    b: PhaseExpr
    d1: PhaseExpr = ZERO
    d2: PhaseExpr = ZERO
    g: PhaseExpr = ZERO

    def __post_init__(self):
        for name in ("a1", "a2", "b", "d1", "d2", "g"):
            expression = getattr(self, name)
            extra = free_symbols(expression) - set(_ALLOWED[name])
            if extra:
                raise CanonicalError(
                    f"{name} may only depend on {_ALLOWED[name]}, found "
                    f"{sorted(extra)}"
                )
        for leg, var, label in (("a1", "Q1", "dA1/dQ1"),
                                ("a2", "Q2", "dA2/dQ2"), ("b", "T", "dB/dT")):
            if is_zero_expr(diff(getattr(self, leg), var)):
                raise DegenerateSpecError(f"{label} is identically zero")

    @classmethod
    def from_strings(cls, a1: str, a2: str, b: str,
                     d1: str = "0", d2: str = "0",
                     g: str = "0") -> "TransformSpec":
        texts = dict(a1=a1, a2=a2, b=b, d1=d1, d2=d2, g=g)
        return cls(**{k: parse(t, _ALLOWED[k]) for k, t in texts.items()})


@dataclass(frozen=True)
class QuadTerm:
    """prefactor(T) · ∫ integrand(s, T) ds from 0 to the named variable."""

    prefactor: PhaseExpr
    integrand: PhaseExpr
    var: str


@dataclass(frozen=True)
class ComponentMap:
    """An expression plus quadrature terms that resist symbolic integration."""

    base: PhaseExpr
    quads: Tuple[QuadTerm, ...] = ()


Component = Union[PhaseExpr, ComponentMap]


@dataclass
class Transform:
    """Six maps from the new chart (Q1,Q2,T,P1,P2,P_T) to the extended one.

    The Jacobian, and with it the defect and residual checks, derives
    everything from ``maps``, so that transforms corrupted via
    ``dataclasses.replace`` are diagnosed honestly.

    ``chain`` is set only by ``compose``: a composed transform has no maps
    of its own, and evaluation, Jacobians and sampling gates walk the
    chain's stages instead.
    """

    maps: Dict[str, Component]
    chain: Optional[Tuple["Transform", "Transform"]] = None
    # the lowered jet, built on first use (see ``_jet``)
    _partials: Optional["_Lowered"] = field(default=None, init=False,
                                            repr=False, compare=False)


# --------------------------------------------------------------------------
# completion
# --------------------------------------------------------------------------

def complete(spec: TransformSpec) -> Transform:
    """Derive C_i and F, returning the full six-component map."""
    q1, q2, t = sym("Q1"), sym("Q2"), sym("T")
    p1, p2, pt = sym("P1"), sym("P2"), sym("P_T")

    a1p = diff(spec.a1, "Q1")
    a2p = diff(spec.a2, "Q2")
    a1t = diff(spec.a1, "T")
    a2t = diff(spec.a2, "T")
    bt = diff(spec.b, "T")
    d1p = diff(spec.d1, "Q1")
    d2p = diff(spec.d2, "Q2")
    d1t = diff(spec.d1, "T")
    d2t = diff(spec.d2, "T")

    c1 = simplify(1 / a1p)
    c2 = simplify(1 / a2p)
    if not is_zero_expr(c1 * a1p - num(1)) or not is_zero_expr(
            c2 * a2p - num(1)):
        raise CanonicalError("C_i · A_i' = 1 failed to hold")

    base = simplify(
        pt / bt - (a1t / (a1p * bt)) * p1 - (a2t / (a2p * bt)) * p2 + spec.g
    )
    quads: List[QuadTerm] = []
    inv_bt = simplify(1 / bt)
    for integrand_raw, variable in (
        (d1t * a1p - a1t * d1p, "Q1"),
        (d2t * a2p - a2t * d2p, "Q2"),
    ):
        integrand = simplify(integrand_raw)
        if is_zero_expr(integrand):
            continue
        anti = antiderivative(integrand, variable)
        if anti is not None:
            base = simplify(base + inv_bt * anti)
        else:
            quads.append(QuadTerm(prefactor=inv_bt, integrand=integrand,
                                  var=variable))

    f_component: Component = base if not quads else ComponentMap(
        base=base, quads=tuple(quads)
    )
    maps: Dict[str, Component] = {
        "x1_tau": simplify(spec.a1),
        "x2_tau": simplify(spec.a2),
        "t_tau": simplify(spec.b),
        "p1_tau": simplify(c1 * p1 + spec.d1),
        "p2_tau": simplify(c2 * p2 + spec.d2),
        "p_tau": f_component,
    }
    return Transform(maps=maps)


# --------------------------------------------------------------------------
# the lowered jet
# --------------------------------------------------------------------------

class _Lowered:
    """The six maps of a transform and their Jacobian, lowered once.

    ``lower`` differentiates the bases and the quadrature prefactors
    forward, in one function.  A quadrature term pf(T)·∫ f(s, T) ds to Q
    adds pf·f to its Q partial and pf'·∫f + pf·∫∂f/∂T to its T partial.
    """

    def __init__(self, components: Sequence[Component]):
        exprs = [c if isinstance(c, PhaseExpr) else c.base
                 for c in components]
        self.quads = []      # (component index, prefactor slot, var, fn)
        for i, c in enumerate(components):
            if isinstance(c, ComponentMap):
                for term in c.quads:
                    integrand = lower([term.integrand], NEW_VARS,
                                      time_var=None, wrt=("T",))
                    self.quads.append((i, len(exprs), term.var, integrand))
                    exprs.append(term.prefactor)
        self.fn = lower(exprs, NEW_VARS, time_var=None, wrt=NEW_VARS)
        self.rows = len(exprs)

    def __call__(self, point: Mapping[str, float]) -> Tuple[List, List]:
        """The six values and the 36 partials, row-major, at a state."""
        y = [float(point[v]) for v in NEW_VARS]
        out = _finite(self.fn, None, y)
        values = list(out[:6])
        partials = list(out[self.rows:self.rows + 36])
        for i, slot, var, integrand in self.quads:
            pf, pf_t = out[slot], out[self.rows + 6 * slot + 2]
            partials[6 * i + NEW_VARS.index(var)] += (
                pf * _finite(integrand, None, y)[0])
            if pf == 0.0 and pf_t == 0.0:
                continue
            total = _quadrature(var, integrand, y, 0)
            values[i] += pf * total
            partials[6 * i + 2] += (pf_t * total
                                    + pf * _quadrature(var, integrand, y, 1))
        if not all(map(math.isfinite, values + partials)):
            raise CanonicalError("transform component evaluated to a "
                                 "non-finite value")
        return values, partials


def _quadrature(var: str, integrand, y: List[float], k: int) -> float:
    """∫ ds from 0 to the state's ``var`` of output ``k`` of the lowered
    integrand: f for k = 0, ∂f/∂T for k = 1."""
    from scipy.integrate import quad
    slot = NEW_VARS.index(var)
    inner = list(y)

    def f(s: float) -> float:
        inner[slot] = s
        return _finite(integrand, None, inner)[k]

    value, abserr = quad(f, 0.0, y[slot],
                         epsabs=1e-12, epsrel=1e-12, limit=200)
    if abserr > 1e-8 * max(1.0, abs(value)):
        raise CanonicalError(
            f"quadrature for the {var} integral did not converge "
            f"(estimated error {abserr})"
        )
    return value


def _jet(tr: Transform) -> _Lowered:
    """The transform's lowered jet, built on first use."""
    if tr._partials is None:
        tr._partials = _Lowered([tr.maps[name] for name in OLD_ORDER])
    return tr._partials


def _walk(tr: Transform, point: Mapping[str, float]
          ) -> Tuple[List[float], np.ndarray, bool]:
    """Values, Jacobian and sampling gate at a state: |dA_i/dQ_i| and |dB/dT|
    at least 0.05, at every stage of a chain, whose stage Jacobians multiply
    (overflow raises FloatingPointError)."""
    if tr.chain is None:
        values, partials = _jet(tr)(point)
        m = np.array(partials).reshape(6, 6)
        # dA1/dQ1, dA2/dQ2 and dB/dT: the first three diagonal entries
        return values, m, all(abs(m[k, k]) >= 0.05 for k in range(3))
    outer, inner = tr.chain
    mid, m_inner, inner_passes = _walk(inner, point)
    values, m_outer, outer_passes = _walk(outer, dict(zip(NEW_VARS, mid)))
    with np.errstate(over="raise", invalid="raise"):
        m = m_outer @ m_inner
    return values, m, inner_passes and outer_passes


def evaluate(tr: Transform, point: Mapping[str, float]) -> Dict[str, float]:
    """Apply the transform to one new-chart state."""
    return dict(zip(OLD_ORDER, _walk(tr, point)[0]))


# --------------------------------------------------------------------------
# Jacobian and symplectic defect
# --------------------------------------------------------------------------

def jacobian(tr: Transform, point: Mapping[str, float]) -> np.ndarray:
    """6×6 matrix ∂(extended)/∂(new) at the point, rows in the order
    (x1_tau, x2_tau, t_tau, p1_tau, p2_tau, p_tau)."""
    try:
        return _walk(tr, point)[1]
    except NonFiniteError as exc:
        raise CanonicalError(f"singular denominator at {dict(point)}") from exc


def symplectic_defect(tr: Transform,
                      points: Sequence[Mapping[str, float]]) -> float:
    """sup over points of max|MᵀJM − J|; overflow raises FloatingPointError."""
    return _defect(jacobian(tr, point) for point in points)


def _defect(jacobians: Iterable[np.ndarray]) -> float:
    j = NEW_CHART.poisson_matrix().astype(float)
    worst = 0.0
    with np.errstate(over="raise", invalid="raise"):
        for m in jacobians:
            worst = max(worst, float(np.max(np.abs(m.T @ j @ m - j))))
    return worst


def sample_states(tr: Transform, count: int = 32,
                  seed: int = 20260817) -> List[Dict[str, float]]:
    """Random new-chart states in [-1, 1]⁶ avoiding near-singular
    denominators: the maps and partials are finite, and every stage passes
    its gate (see ``_walk``) at the state it sees.  A constant that
    overflows a float raises ``NonFiniteError`` once, from lowering every
    stage before the first draw."""
    return _sample(tr, count, seed)[0]


def _sample(tr: Transform, count: int, seed: int
            ) -> Tuple[List[Dict[str, float]], List[np.ndarray]]:
    """``sample_states`` with the Jacobian its gate read at each state."""
    _lower_stages(tr)
    rng = np.random.default_rng(seed)
    states: List[Dict[str, float]] = []
    jacobians: List[np.ndarray] = []
    attempts = 0
    while len(states) < count:
        attempts += 1
        if attempts > 200 * count:
            raise CanonicalError(
                "could not sample non-degenerate states; the spec may be "
                "singular over the whole box")
        point = {v: float(rng.uniform(-1.0, 1.0)) for v in NEW_VARS}
        try:
            _, m, passes = _walk(tr, point)
        except (CanonicalError, NonFiniteError):
            continue
        if passes:
            states.append(point)
            jacobians.append(m)
    return states, jacobians


def _lower_stages(tr: Transform) -> None:
    if tr.chain is None:
        _jet(tr)
    for stage in tr.chain or ():
        _lower_stages(stage)


# --------------------------------------------------------------------------
# the seven-equation residuals
# --------------------------------------------------------------------------

def ode_residuals(tr: Transform, point: Mapping[str, float]
                  ) -> Tuple[float, ...]:
    """Residuals of the seven defining equations at one state; overflow
    raises FloatingPointError.

    Every partial is read from the transform's Jacobian, so edits made
    after ``complete`` (corruption probes included) show up here.
    """
    if tr.chain is not None:
        raise CanonicalError(
            "the seven-equation residuals need canonical-form maps; a "
            "composed transform has no maps of its own, check "
            "symplectic_defect instead")
    return _residuals(jacobian(tr, point))


def _residuals(m: np.ndarray) -> Tuple[float, ...]:
    # rows (x1, x2, t, p1, p2, p_tau), columns (Q1, Q2, T, P1, P2, P_T)
    a1p, _, a1t, _, _, _ = m[0]
    _, a2p, a2t, _, _, _ = m[1]
    bt = m[2, 2]
    p1q, _, p1t, p1p, _, _ = m[3]
    _, p2q, p2t, _, p2p, _ = m[4]
    f_q1, f_q2, _, f_p1, f_p2, f_pt = m[5]
    with np.errstate(over="raise", invalid="raise"):
        residuals = np.array([
            a1t * p1q + bt * f_q1 - p1t * a1p,
            a2t * p2q + bt * f_q2 - p2t * a2p,
            p1p * a1t + bt * f_p1,
            p2p * a2t + bt * f_p2,
            bt * f_pt - 1.0,
            p1p * a1p - 1.0,
            p2p * a2p - 1.0,
        ])
    return tuple(residuals.tolist())


# --------------------------------------------------------------------------
# composition
# --------------------------------------------------------------------------

def compose(outer: Transform, inner: Transform) -> Transform:
    """outer ∘ inner: feed inner's extended-chart output into outer's
    new-chart slots positionally (Q1~x1_tau, ..., P_T~p_tau).

    No maps are built: numerics go through the stored chain, so the
    Jacobian is the exact product of the stage Jacobians, and either stage
    may carry quadrature terms or be a composition itself.
    """
    return Transform(maps={}, chain=(outer, inner))
