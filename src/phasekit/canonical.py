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
carries quadrature terms evaluated on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
_POSITIONAL = dict(zip(NEW_VARS, OLD_ORDER))

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
        if is_zero_expr(diff(self.a1, "Q1")):
            raise DegenerateSpecError("dA1/dQ1 is identically zero")
        if is_zero_expr(diff(self.a2, "Q2")):
            raise DegenerateSpecError("dA2/dQ2 is identically zero")
        if is_zero_expr(diff(self.b, "T")):
            raise DegenerateSpecError("dB/dT is identically zero")

    @classmethod
    def from_strings(cls, a1: str, a2: str, b: str,
                     d1: str = "0", d2: str = "0",
                     g: str = "0") -> "TransformSpec":
        return cls(
            a1=parse(a1, _ALLOWED["a1"]),
            a2=parse(a2, _ALLOWED["a2"]),
            b=parse(b, _ALLOWED["b"]),
            d1=parse(d1, _ALLOWED["d1"]),
            d2=parse(d2, _ALLOWED["d2"]),
            g=parse(g, _ALLOWED["g"]),
        )


@dataclass(frozen=True)
class QuadTerm:
    """prefactor(T) · ∫ integrand(s, T) ds from lower to the named variable."""

    prefactor: PhaseExpr
    integrand: PhaseExpr
    var: str
    lower: float = 0.0


@dataclass(frozen=True)
class ComponentMap:
    """An expression plus quadrature terms that resist symbolic integration."""

    base: PhaseExpr
    quads: Tuple[QuadTerm, ...] = ()


Component = Union[PhaseExpr, ComponentMap]


@dataclass
class Transform:
    """Six maps from the new chart (Q1,Q2,T,P1,P2,P_T) to the extended one.

    Residual and Jacobian checks derive everything from ``maps``, so that
    transforms corrupted via ``dataclasses.replace`` are diagnosed honestly.

    ``chain`` is set only by ``compose``: a composed transform has no maps
    of its own, and evaluation, Jacobians and sampling gates go through the
    chain's stages instead.
    """

    maps: Dict[str, Component]
    chain: Optional[Tuple["Transform", "Transform"]] = None
    # lowered evaluators, built on first use (see ``_lowered``)
    _partials: Optional[Dict] = field(default=None, init=False, repr=False,
                                      compare=False)
    _residuals: Optional["_Lowered"] = field(default=None, init=False,
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
# component calculus
# --------------------------------------------------------------------------

def component_partial(component: Component, variable: str) -> Component:
    if isinstance(component, PhaseExpr):
        return diff(component, variable)
    extra = diff(component.base, variable)
    quads: List[QuadTerm] = []
    for term in component.quads:
        if variable == term.var:
            # fundamental theorem: d/dQ of the integral is the integrand
            extra = simplify(extra + term.prefactor * term.integrand)
        elif variable == "T":
            dp = diff(term.prefactor, "T")
            if not is_zero_expr(dp):
                quads.append(QuadTerm(dp, term.integrand, term.var,
                                      term.lower))
            di = diff(term.integrand, "T")
            if not is_zero_expr(di):
                quads.append(QuadTerm(term.prefactor, di, term.var,
                                      term.lower))
        # Q of the other index and all momenta: the term is constant
    if not quads:
        return simplify(extra)
    return ComponentMap(base=simplify(extra), quads=tuple(quads))


class _Lowered:
    """Components lowered once into one function of the new-chart state.

    Calling it with a point gives the component values in order.  The
    bases and the quadrature prefactors come from one lowered call; each
    quadrature term integrates its own lowered integrand.
    """

    def __init__(self, components: Sequence[Component]):
        exprs = [c if isinstance(c, PhaseExpr) else c.base
                 for c in components]
        self.count = len(exprs)
        self.quads = []      # (component index, prefactor slot, term, fn)
        for i, c in enumerate(components):
            if isinstance(c, ComponentMap):
                for term in c.quads:
                    integrand = lower([term.integrand], NEW_VARS,
                                      time_var=None)
                    self.quads.append((i, len(exprs), term, integrand))
                    exprs.append(term.prefactor)
        self.fn = lower(exprs, NEW_VARS, time_var=None)

    def __call__(self, point: Mapping[str, float]) -> List[float]:
        y = [float(point[v]) for v in NEW_VARS]
        values = _finite(self.fn, None, y)
        out = list(values[:self.count])
        for i, slot, term, integrand in self.quads:
            prefactor = values[slot]
            if prefactor == 0.0:
                continue
            out[i] += prefactor * _quadrature(term, integrand, y)
            if not math.isfinite(out[i]):
                raise CanonicalError("transform component evaluated to a "
                                     "non-finite value")
        return out


def _quadrature(term: QuadTerm, integrand, y: List[float]) -> float:
    """∫ integrand ds from ``term.lower`` to the state's ``term.var``."""
    from scipy.integrate import quad
    slot = NEW_VARS.index(term.var)
    inner = list(y)

    def f(s: float) -> float:
        inner[slot] = s
        return _finite(integrand, None, inner)[0]

    value, abserr = quad(f, term.lower, y[slot],
                         epsabs=1e-12, epsrel=1e-12, limit=200)
    if abserr > 1e-8 * max(1.0, abs(value)):
        raise CanonicalError(
            f"quadrature for the {term.var} integral did not converge "
            f"(estimated error {abserr})"
        )
    return value


def _lowered(tr: Transform) -> Dict[str, _Lowered]:
    """The maps, the Jacobian partials and the three gate partials of a
    transform, each lowered on first use and kept in ``tr._partials``."""
    if tr._partials is None:
        table = {
            (row, col): component_partial(tr.maps[row], col)
            for row in OLD_ORDER for col in NEW_VARS
        }
        tr._partials = {
            "maps": _Lowered([tr.maps[name] for name in OLD_ORDER]),
            "jacobian": _Lowered(list(table.values())),
            "gates": _Lowered([table[("x1_tau", "Q1")],
                               table[("x2_tau", "Q2")],
                               table[("t_tau", "T")]]),
        }
    return tr._partials


def evaluate(tr: Transform, point: Mapping[str, float]) -> Dict[str, float]:
    """Apply the transform to one new-chart state."""
    if tr.chain is not None:
        outer, inner = tr.chain
        return evaluate(outer, _as_new_point(evaluate(inner, point)))
    return dict(zip(OLD_ORDER, _lowered(tr)["maps"](point)))


def _as_new_point(old_values: Mapping[str, float]) -> Dict[str, float]:
    """Rename an extended-chart state to new-chart slots positionally."""
    return {
        new_var: old_values[old_name]
        for new_var, old_name in _POSITIONAL.items()
    }


# --------------------------------------------------------------------------
# Jacobian and symplectic defect
# --------------------------------------------------------------------------

def jacobian(tr: Transform, point: Mapping[str, float]) -> np.ndarray:
    """6×6 matrix ∂(extended)/∂(new) at the point, rows in the order
    (x1_tau, x2_tau, t_tau, p1_tau, p2_tau, p_tau)."""
    if tr.chain is not None:
        outer, inner = tr.chain
        mid = _as_new_point(evaluate(inner, point))
        return jacobian(outer, mid) @ jacobian(inner, point)
    try:
        values = _lowered(tr)["jacobian"](point)
    except NonFiniteError as exc:
        raise CanonicalError(f"singular denominator at {dict(point)}") from exc
    return np.array(values).reshape(6, 6)


def symplectic_defect(tr: Transform,
                      points: Sequence[Mapping[str, float]]) -> float:
    """sup over points of max|MᵀJM − J|."""
    j = NEW_CHART.poisson_matrix().astype(float)
    worst = 0.0
    for point in points:
        m = jacobian(tr, point)
        defect = float(np.max(np.abs(m.T @ j @ m - j)))
        worst = max(worst, defect)
    return worst


def sample_states(tr: Transform, count: int = 32,
                  seed: int = 20260817) -> List[Dict[str, float]]:
    """Random new-chart states in [-1, 1]⁶ avoiding near-singular
    denominators.

    For a plain transform the gate is |dA_i/dQ_i| ≥ 0.05 and |dB/dT| ≥ 0.05
    at the point; for a composed one, every stage of the chain must pass
    its own gate at the state it actually sees.
    """
    rng = np.random.default_rng(seed)
    states: List[Dict[str, float]] = []
    attempts = 0
    while len(states) < count:
        attempts += 1
        if attempts > 200 * count:
            raise CanonicalError(
                "could not sample non-degenerate states; the spec may be "
                "singular over the whole box"
            )
        point = {v: float(rng.uniform(-1.0, 1.0)) for v in NEW_VARS}
        try:
            if not _passes_gates(tr, point):
                continue
            evaluate(tr, point)
        except (CanonicalError, NonFiniteError):
            continue
        states.append(point)
    return states


def _passes_gates(tr: Transform, point: Mapping[str, float]) -> bool:
    if tr.chain is not None:
        outer, inner = tr.chain
        if not _passes_gates(inner, point):
            return False
        mid = _as_new_point(evaluate(inner, point))
        return _passes_gates(outer, mid)
    gates = _lowered(tr)["gates"](point)
    return all(abs(g) >= 0.05 for g in gates)


# --------------------------------------------------------------------------
# the seven-equation residuals
# --------------------------------------------------------------------------

def _residual_components(tr: Transform) -> Tuple[Component, ...]:
    if tr.chain is not None:
        raise CanonicalError(
            "the seven-equation residuals need canonical-form maps; a "
            "composed transform has no maps of its own, check "
            "symplectic_defect instead"
        )
    p1, p2 = sym("P1"), sym("P2")
    a1 = tr.maps["x1_tau"]
    a2 = tr.maps["x2_tau"]
    b = tr.maps["t_tau"]
    pm1 = tr.maps["p1_tau"]
    pm2 = tr.maps["p2_tau"]
    f = tr.maps["p_tau"]
    for name, comp in (("x1_tau", a1), ("x2_tau", a2), ("t_tau", b),
                       ("p1_tau", pm1), ("p2_tau", pm2)):
        if not isinstance(comp, PhaseExpr):
            raise CanonicalError(
                f"component {name} carries quadrature terms; residuals are "
                "defined for expression-backed maps"
            )

    c1 = diff(pm1, "P1")
    c2 = diff(pm2, "P2")
    d1 = simplify(pm1 - c1 * p1)
    d2 = simplify(pm2 - c2 * p2)
    a1p, a1t = diff(a1, "Q1"), diff(a1, "T")
    a2p, a2t = diff(a2, "Q2"), diff(a2, "T")
    bt = diff(b, "T")
    c1p, c1t = diff(c1, "Q1"), diff(c1, "T")
    c2p, c2t = diff(c2, "Q2"), diff(c2, "T")
    d1p, d1t = diff(d1, "Q1"), diff(d1, "T")
    d2p, d2t = diff(d2, "Q2"), diff(d2, "T")

    # F enters only through its Q/P partials, which are expression-backed
    # even when F itself needs quadrature
    f_q1 = component_partial(f, "Q1")
    f_q2 = component_partial(f, "Q2")
    f_p1 = component_partial(f, "P1")
    f_p2 = component_partial(f, "P2")
    f_pt = component_partial(f, "P_T")
    for partial in (f_q1, f_q2, f_p1, f_p2, f_pt):
        if not isinstance(partial, PhaseExpr):
            raise CanonicalError("F has quadrature terms in a Q/P partial; "
                                 "this is outside the supported ansatz")

    return (
        simplify(a1t * (c1p * p1 + d1p) + bt * f_q1
                 - (c1t * p1 + d1t) * a1p),
        simplify(a2t * (c2p * p2 + d2p) + bt * f_q2
                 - (c2t * p2 + d2t) * a2p),
        simplify(c1 * a1t + bt * f_p1),
        simplify(c2 * a2t + bt * f_p2),
        simplify(bt * f_pt - num(1)),
        simplify(c1 * a1p - num(1)),
        simplify(c2 * a2p - num(1)),
    )


def ode_residuals(tr: Transform, point: Mapping[str, float]
                  ) -> Tuple[float, ...]:
    """Residuals of the seven defining equations at one state.

    All pieces are re-derived from the transform's actual maps, so edits
    made after ``complete`` (corruption probes included) show up here.
    """
    if tr._residuals is None:
        tr._residuals = _Lowered(_residual_components(tr))
    return tuple(tr._residuals(point))


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
