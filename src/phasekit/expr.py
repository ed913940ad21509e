"""Immutable symbolic expressions over phase-space variables.

The expression language is deliberately small: exact rational constants,
variable references, opaque time-dependent coefficient atoms (with optional
registered derivative rules and numeric profiles), sums, products, integer
powers and quotients.  ``simplify`` canonicalizes any tree to a reduced
rational normal form, so structural equality after ``simplify`` decides
semantic equality.  A canonical node carries its ``Rat`` (so arithmetic on
canonical operands is one ``Rat`` operation), and ``diff`` and ``subst``
work on that normal form, not on the tree.  Floating point enters only
through ``lower``, which compiles expressions to Python code;
``eval_expr`` is its one-shot form.  A closed-form coefficient profile is
one class, ``ExprProfile``, g(t)·exp(e(t)) with exact derivatives, and
``lower`` writes it into the code of the expressions that use it, so its
numbers come from the same path as theirs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from . import _poly
from ._poly import Rat

Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvalError(ExprError):
    pass


class UnboundVariableError(EvalError):
    pass


class NonFiniteError(EvalError):
    pass


class SubstitutionError(ExprError):
    pass


# --------------------------------------------------------------------------
# expression nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseExpr:
    """Base node; all subclasses are immutable and hashable."""

    _rat = None     # a from_rat node's Rat; no field: eq/hash/replace skip it

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Num(Fraction(-1)), as_expr(other)))))

    def __rsub__(self, other):
        return Add((as_expr(other), Mul((Num(Fraction(-1)), self))))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        return Pow(self, exponent)

    def __neg__(self):
        return Mul((Num(Fraction(-1)), self))

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Num(PhaseExpr):
    value: Fraction


@dataclass(frozen=True)
class Sym(PhaseExpr):
    name: str


@dataclass(frozen=True)
class Atom(PhaseExpr):
    """Reference to a coefficient atom applied at a variable.

    ``order`` counts derivatives: ``Atom("w", 1, "t")`` is w'(t).
    """

    name: str
    order: int
    arg: str


@dataclass(frozen=True)
class Add(PhaseExpr):
    terms: Tuple[PhaseExpr, ...]


@dataclass(frozen=True)
class Mul(PhaseExpr):
    factors: Tuple[PhaseExpr, ...]


@dataclass(frozen=True)
class Pow(PhaseExpr):
    base: PhaseExpr
    exp: int


@dataclass(frozen=True)
class Div(PhaseExpr):
    num: PhaseExpr
    den: PhaseExpr


ZERO = Num(Fraction(0))


def num(value: Number) -> Num:
    """Exact numeric constant; floats convert to their exact binary value."""
    return Num(Fraction(value))


def sym(name: str) -> Sym:
    return Sym(name)


def atom(name: str, arg: str, order: int = 0) -> Atom:
    return Atom(name, order, arg)


def as_expr(value) -> PhaseExpr:
    if isinstance(value, PhaseExpr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return num(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


# --------------------------------------------------------------------------
# canonicalization through the rational normal form
# --------------------------------------------------------------------------

def _sym_key(node: PhaseExpr) -> tuple:
    if isinstance(node, Sym):
        return (0, node.name)
    if isinstance(node, Atom):
        return (1, node.name, node.order, node.arg)
    raise TypeError(node)


def _key_node(key: tuple) -> PhaseExpr:
    if key[0] == 0:
        return Sym(key[1])
    return Atom(key[1], key[2], key[3])


def to_rat(e: PhaseExpr) -> Rat:
    """Exact rational normal form of an expression tree."""
    if e._rat is not None:
        return e._rat
    if isinstance(e, Num):
        return Rat.const(e.value)
    if isinstance(e, (Sym, Atom)):
        return Rat.symbol(_sym_key(e))
    if isinstance(e, Add):
        terms = [to_rat(t) for t in e.terms] or [Rat.const(0)]
        return sum(terms[1:], terms[0])
    if isinstance(e, Mul):
        factors = [to_rat(f) for f in e.factors] or [Rat.const(1)]
        return math.prod(factors[1:], start=factors[0])
    if isinstance(e, Pow):
        try:
            return to_rat(e.base) ** e.exp
        except ZeroDivisionError:
            raise ExprError("zero expression raised to a negative power")
    if isinstance(e, Div):
        den = to_rat(e.den)
        if den.is_zero():
            raise ExprError("division by a zero expression")
        return to_rat(e.num) / den
    raise TypeError(f"not a PhaseExpr node: {e!r}")


def _term_tree(coeff: Fraction, mono_pairs) -> PhaseExpr:
    factors = []
    for key, exp in mono_pairs:
        node = _key_node(key)
        factors.append(node if exp == 1 else Pow(node, exp))
    if not factors:
        return Num(coeff)
    if coeff != 1:
        factors = [Num(coeff)] + factors
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def _poly_tree(p, keys, scale, den=(0,)) -> PhaseExpr:
    """p's terms over ``keys``, divided by ``scale`` and by the monomial
    with exponent vector ``den``; tuple order on exponent vectors is the
    graded lexicographic order."""
    terms = []
    for v, c in sorted(p.items(), reverse=True):
        if den[0]:
            v = tuple(map(operator.sub, v, den))
        terms.append(_term_tree(Fraction(c, scale),
                                [(k, e) for k, e in zip(keys, v[1:]) if e]))
    if not terms:
        return Num(Fraction(0))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def from_rat(r: Rat) -> PhaseExpr:
    """Canonical tree of a normal form; the tree carries ``r``.

    The tree shows the form over ℚ with a monic denominator: both sides are
    divided by the denominator's leading coefficient, and a one-term
    denominator folds into Laurent exponents of the numerator.
    """
    lead = max(r.den)
    lc = r.den[lead]
    if len(r.den) == 1:
        node = _poly_tree(r.num, r.keys, lc, lead)
    else:
        node = Div(_poly_tree(r.num, r.keys, lc), _poly_tree(r.den, r.keys, lc))
    object.__setattr__(node, "_rat", r)
    return node


def simplify(e: PhaseExpr) -> PhaseExpr:
    """Canonical form: flattened, sorted, gcd-reduced.  Idempotent."""
    return e if e._rat is not None else from_rat(to_rat(e))


def equivalent(a: PhaseExpr, b: PhaseExpr) -> bool:
    return (to_rat(a) - to_rat(b)).is_zero()


def is_zero_expr(e: PhaseExpr) -> bool:
    return to_rat(e).is_zero()


def is_const_expr(e: PhaseExpr) -> bool:
    return to_rat(e).is_const()


def const_value(e: PhaseExpr) -> Fraction:
    r = to_rat(e)
    if not r.is_const():
        raise ExprError("expression is not a constant")
    return r.const_value()


def _leaves(e: PhaseExpr):
    """Sym and Atom leaves of the tree, cancelling ones included."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Sym, Atom)):
            yield node
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Div):
            stack.extend((node.num, node.den))


def free_symbols(e: PhaseExpr) -> set:
    """Names of variables appearing in the tree (atom arguments included)."""
    return {leaf.name if isinstance(leaf, Sym) else leaf.arg
            for leaf in _leaves(e)}


def atoms_in(e: PhaseExpr) -> set:
    return {leaf for leaf in _leaves(e) if isinstance(leaf, Atom)}


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------

def diff(e: PhaseExpr, v, registry: "AtomRegistry | None" = None) -> PhaseExpr:
    """Exact partial derivative with respect to a variable name or an Atom.

    The chain rule runs over the keys of ``to_rat(e)``.  Coefficient atoms
    differentiate through their registered rule when one exists (base atoms
    only); otherwise a fresh atom of derivative order +1 is produced.
    """
    r = to_rat(e)
    target = _sym_key(v) if isinstance(v, Atom) else (0, v)
    out = Rat.const(Fraction(0))
    for key in r.keys:
        if key == target:
            out = out + _poly.rat_diff(r, key)
        elif key[0] == 1 and key[3] == v:
            inner = to_rat(_atom_derivative(_key_node(key), registry))
            out = out + _poly.rat_diff(r, key) * inner
    return from_rat(out)


def _atom_derivative(a: Atom, reg) -> PhaseExpr:
    rule = reg.rule(a.name) if reg is not None else None
    if rule is not None and a.order == 0:
        return rule(a.arg)
    return Atom(a.name, a.order + 1, a.arg)


def antiderivative(e: PhaseExpr, var: str) -> Optional[PhaseExpr]:
    """Exact antiderivative in ``var``, constant of integration zero.

    None when the normal form's denominator contains ``var`` or a
    coefficient atom is applied at ``var``: no closed form is attempted.
    """
    r = to_rat(e)
    if any(k[0] == 1 and k[3] == var for k in r.keys):
        return None
    out = _poly.rat_integrate(r, (0, var))
    return None if out is None else from_rat(out)


# --------------------------------------------------------------------------
# substitution
# --------------------------------------------------------------------------

def subst(e: PhaseExpr, mapping: Mapping[str, "PhaseExpr | Number"]) -> PhaseExpr:
    """Replace variables by expressions, simultaneously, on the normal form.

    Every variable key of ``to_rat(e)`` that ``mapping`` names takes the
    normal form of its image, and the numerator and denominator are
    evaluated at those images in ``Rat`` arithmetic.  An atom argument can
    only be renamed, i.e. mapped to another plain variable, which renames
    the atom's key; mapping it to a composite expression raises
    ``SubstitutionError``.
    """
    m = {k: as_expr(v) for k, v in mapping.items()}
    r = to_rat(e)
    images: Dict[tuple, Rat] = {}
    for key in r.keys:
        if key[0] == 0 and key[1] in m:
            images[key] = to_rat(m[key[1]])
        elif key[0] == 1 and key[3] in m:
            target = m[key[3]]
            if not isinstance(target, Sym):
                raise SubstitutionError(
                    f"cannot substitute a composite expression into the "
                    f"argument of {key[1]}({key[3]})"
                )
            images[key] = Rat.symbol(key[:3] + (target.name,))
    if not images:
        return simplify(e)
    den = _poly.poly_at(r.den, r.keys, images)
    if den.is_zero():
        raise ExprError("division by a zero expression")
    return from_rat(_poly.poly_at(r.num, r.keys, images) / den)


def solve_linear(equation: PhaseExpr, v: str
                 ) -> Optional[Tuple[PhaseExpr, PhaseExpr]]:
    """Solve ``equation = 0`` for v when v appears linearly: the pair
    ``(c, s)`` of its coefficient c, free of v, and the solution
    v = s; else None."""
    c = diff(equation, v)
    if is_zero_expr(c) or v in free_symbols(c):
        return None
    rest = simplify(equation - Mul((c, sym(v))))
    return c, simplify(-rest / c)


# --------------------------------------------------------------------------
# numeric profiles and the atom registry
# --------------------------------------------------------------------------

class Profile:
    """Numeric evaluator for a coefficient atom: value and derivatives."""

    def value(self, order: int, t: float) -> float:
        raise NotImplementedError


class TabulatedProfile(Profile):
    """Cubic interpolation of sampled values; derivatives up to order 2."""

    def __init__(self, times, values):
        from scipy.interpolate import CubicSpline
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 4:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("times and values must be finite")
        self.span = (float(times[0]), float(times[-1]))
        self._splines = [CubicSpline(times, values)]

    def value(self, order: int, t: float) -> float:
        lo, hi = self.span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t < lo - slack or t > hi + slack:
            raise EvalError(f"time {t} outside tabulated span [{lo}, {hi}]")
        if order > 2:
            raise EvalError("tabulated profiles support derivatives up to order 2")
        while len(self._splines) <= order:
            self._splines.append(self._splines[-1].derivative())
        return float(self._splines[order](t))


class ExprProfile(Profile):
    """g(t)·exp(e(t)) for expressions g and e of the time variable ``t``.

    The order-k derivative is g_k·exp(e), with g_0 = g and
    g_(k+1) = g_k' + g_k·e', each exact and built once.  ``lower`` writes
    g_k and e into the code of any expression that holds the atom, and
    ``value`` is that same code for the atom alone.
    """

    def __init__(self, expression: PhaseExpr, exponent: PhaseExpr = ZERO):
        self.expression = simplify(expression)
        self.exponent = simplify(exponent)
        self._factors = [self.expression]
        self._lowered: List[Callable] = []   # one per derivative order

    def factor(self, order: int) -> PhaseExpr:
        """g_order, the factor before exp(e) in the derivative of that order."""
        while len(self._factors) <= order:
            g = self._factors[-1]
            self._factors.append(
                simplify(diff(g, "t") + g * diff(self.exponent, "t")))
        return self._factors[order]

    def value(self, order: int, t: float) -> float:
        while len(self._lowered) <= order:
            reg = AtomRegistry()
            reg.register("g", profile=self)
            self._lowered.append(lower([atom("g", "t", len(self._lowered))],
                                       (), reg))
        return _finite(self._lowered[order], float(t), ())[0]


class DampingFactorProfile(Profile):
    """f(t) = exp(-int_0^t eta) for a friction profile eta(t) by spline.

    The exponent is a cubic-spline antiderivative of eta sampled at 4097
    points over ``span`` widened by 1 % + 1e-6 and t = 0, clamped to a
    table's own span, which must cover t = 0.  A friction whose integral
    has a closed form needs none of this: ``oscillator_registry`` gives f
    an ``ExprProfile`` then.
    """

    def __init__(self, friction: Profile, span):
        self.friction = friction
        lo, hi = float(span[0]), float(span[1])
        if hi <= lo:
            raise ValueError("empty span")
        ends = getattr(friction, "span", (-math.inf, math.inf))
        if not ends[0] <= 0.0 <= ends[1]:
            raise ValueError(f"table must cover t = 0, "
                             f"spans [{ends[0]}, {ends[1]}]")
        pad = 0.01 * (hi - lo) + 1e-6
        lo = min(0.0, lo, max(lo - pad, ends[0]))
        hi = max(0.0, hi, min(hi + pad, ends[1]))
        from scipy.interpolate import CubicSpline
        ts = np.linspace(lo, hi, 4097)
        values = [friction.value(0, float(t)) for t in ts]
        self._accumulated = CubicSpline(ts, values).antiderivative()
        self._offset = float(self._accumulated(0.0))
        self._lo, self._hi = lo, hi

    def value(self, order: int, t: float) -> float:
        if t < self._lo - 1e-12 or t > self._hi + 1e-12:
            raise EvalError(f"time {t} outside damping-factor span")
        f = math.exp(self._offset - float(self._accumulated(t)))
        if order == 0:
            return f
        eta = self.friction.value(0, t)
        if order == 1:
            return -eta * f
        if order == 2:
            return (eta * eta - self.friction.value(1, t)) * f
        raise EvalError("damping factor supports derivatives up to order 2")


@dataclass
class CoefficientAtom:
    """Declaration of an opaque time-dependent coefficient.

    ``derivative`` maps an argument variable name to the expression for the
    atom's first derivative (applied at base atoms only); ``profile``
    supplies numeric values per derivative order.
    """

    name: str
    derivative: Optional[Callable[[str], PhaseExpr]] = None
    profile: Optional[Profile] = None


class AtomRegistry:
    """Declared coefficient atoms; frozen before any numeric evaluation."""

    def __init__(self):
        self._atoms: Dict[str, CoefficientAtom] = {}
        self._frozen = False

    def register(self, name: str,
                 derivative: Optional[Callable[[str], PhaseExpr]] = None,
                 profile: Optional[Profile] = None) -> None:
        if self._frozen:
            raise RuntimeError("atom registry is frozen")
        self._atoms[name] = CoefficientAtom(name, derivative, profile)

    def __contains__(self, name: str) -> bool:
        return name in self._atoms

    def names(self) -> Tuple[str, ...]:
        return tuple(self._atoms)

    def rule(self, name: str):
        entry = self._atoms.get(name)
        return entry.derivative if entry else None

    def profile(self, name: str) -> Profile:
        entry = self._atoms.get(name)
        if entry is None or entry.profile is None:
            raise EvalError(f"no numeric profile registered for atom '{name}'")
        return entry.profile

    def freeze(self) -> None:
        self._frozen = True


# --------------------------------------------------------------------------
# numeric evaluation: every expression is lowered to Python code once
# --------------------------------------------------------------------------

# the characters of a code string made of float literals and operators alone
_LITERAL = frozenset("0123456789.e+-*/() ")
# operands per generated sum or product: CPython's compiler recurses once per
# binary operator, so a longer chain is cut into assignments
_CHAIN = 256


def lower(exprs: Sequence[PhaseExpr], inputs: Sequence,
          registry: Optional[AtomRegistry] = None,
          params: Optional[Mapping[str, float]] = None,
          time_var: Optional[str] = "t", wrt: Sequence[str] = ()) -> Callable:
    """Compile expressions once into ``f(t, y) -> tuple`` of their values.

    ``inputs`` gives the meaning of ``y[i]``: a variable name binds that
    variable, an ``Atom`` binds that atom outright, with no profile
    involved.  Any other variable must be a key of ``params`` (its value is
    built into the code) or be named ``time_var`` (bound to ``t``; ``None``
    binds nothing).  Any other atom is evaluated once per call of ``f`` for
    each distinct atom: an ``ExprProfile`` is written into the code, its
    factor g_k with ``t`` bound to the atom's argument, times ``exp`` of its
    exponent when that is not zero, the exp under a name of its own; any
    other profile is called.  Every operation gets its own assignment, so
    deep trees never meet the parser's nesting limit, a sum or product of
    more than ``_CHAIN`` operands is cut into assignments of at most that
    many, left to right, and equal code gets one name (each name is
    assigned once, so equal code is an equal float).
    Code of literals alone is written as its value if that is a finite
    float, and stays to fail at run time if not; nothing else is folded (a
    product by a literal zero stays: dropping it can flip a zero's sign).
    The arithmetic is plain Python: a pole raises ``ZeroDivisionError`` and
    an overflowing power or ``exp`` ``OverflowError``; a constant or
    parameter that is not a finite float raises ``NonFiniteError`` here.

    With input names in ``wrt``, ``f`` also returns the partials ∂e_i/∂w_j
    after the values, row by row, from forward differentiation of the same
    code (an atom raises ``EvalError``); zero tangents are never written.
    """
    slots = {key: i for i, key in enumerate(inputs)}
    seeds = {name: {j: "1.0"} for j, name in enumerate(wrt)}
    params = params or {}
    if registry is not None:
        registry.freeze()
    glb: Dict[str, object] = {"_exp": math.exp}
    lines: List[str] = []
    atom_calls: Dict[Atom, str] = {}
    numbered: Dict[str, str] = {}

    def constant(value) -> str:
        try:
            x = float(value)
        except OverflowError:
            q = Fraction(value)
            size = math.log10(abs(q.numerator)) - math.log10(q.denominator)
            raise NonFiniteError(
                f"a constant of about 10^{size:.0f} overflows a float")
        if not math.isfinite(x):
            raise NonFiniteError(f"constant {value} is not finite")
        return f"({x!r})"

    def symbol(name: str) -> str:
        if name in slots:
            return f"y[{slots[name]}]"
        if name in params:
            return constant(params[name])
        if name == time_var:
            return "t"
        raise UnboundVariableError(f"variable '{name}' is not bound")

    def assign(code: str) -> str:
        # one name per distinct code; literals alone become their value
        if code not in numbered:
            try:
                value = eval(code, {}) if _LITERAL.issuperset(code) else None
            except ArithmeticError:
                value = None
            if isinstance(value, float) and math.isfinite(value):
                numbered[code] = f"({value!r})"
            else:
                numbered[code] = f"_{len(lines)}"
                lines.append(f"    {numbered[code]} = {code}\n")
        return numbered[code]

    def chain(op: str, operands: List[str]) -> str:
        # past _CHAIN operands, the chain goes on from the name of its first
        # _CHAIN, which keeps Python's left-to-right association
        while len(operands) > _CHAIN:
            operands = [assign(op.join(operands[:_CHAIN])),
                        *operands[_CHAIN:]]
        return op.join(operands)

    def tangents(terms: Dict[int, List[str]]) -> Dict[int, str]:
        # one sum per input; a lone name needs no assignment of its own
        return {j: ts[0] if len(ts) == 1 and " " not in ts[0]
                else assign(chain(" + ", ts)) for j, ts in terms.items()}

    def times(*factors: str) -> str:
        # a product; the seed tangent 1.0 is left out
        return chain(" * ", [f for f in factors if f != "1.0"]) or "1.0"

    def profile(e: Atom) -> str:
        if registry is None:
            raise EvalError(f"no registry supplied for atom '{e.name}'")
        p = registry.profile(e.name)
        if isinstance(p, ExprProfile):
            g = emit(p.factor(e.order), e.arg)[0]
            if is_zero_expr(p.exponent):
                return g
            exp = assign(f"_exp({emit(p.exponent, e.arg)[0]})")
            return assign(f"{g} * {exp}")
        fn = f"_profile_{len(glb)}"
        glb[fn] = p.value
        return assign(f"{fn}({e.order}, {symbol(e.arg)})")

    def emit(e: PhaseExpr, arg: Optional[str] = None) -> Tuple[str, Dict]:
        # the value's name and its nonzero tangents by position in ``wrt``;
        # inside a profile's expression, ``t`` stands for the variable ``arg``
        if isinstance(e, Num):
            return constant(e.value), {}
        if isinstance(e, Sym):
            if arg is None:
                return symbol(e.name), seeds.get(e.name, {})
            if e.name == "t":
                return symbol(arg), {}
            raise UnboundVariableError(f"variable '{e.name}' is not bound")
        if isinstance(e, Atom):
            if seeds:
                raise EvalError(f"atom '{e.name}' cannot be differentiated")
            if arg is not None:
                raise EvalError(f"atom '{e.name}' in a profile expression")
            if e in slots:
                return f"y[{slots[e]}]", {}
            if e not in atom_calls:
                atom_calls[e] = profile(e)
            return atom_calls[e], {}
        if isinstance(e, (Add, Mul)):
            add = isinstance(e, Add)
            parts = [emit(f, arg) for f in (e.terms if add else e.factors)]
            names = [v for v, _ in parts]
            terms: Dict[int, List[str]] = {}
            for k, (_, d) in enumerate(parts):
                for j, dv in d.items():
                    # a product's tangent is Σ_k (Π_{l≠k} f_l)·f_k'
                    terms.setdefault(j, []).append(
                        dv if add else times(*names[:k], *names[k + 1:], dv))
            value = assign(chain(" + " if add else " * ", names)
                           or ("0.0" if add else "1.0"))
            return value, tangents(terms)
        if isinstance(e, Pow):
            b, d = emit(e.base, arg)
            value = assign(f"{b} ** {e.exp}")
            # n·b^(n-1)·b', zero for n = 0: b ** -1 is never written
            slope = "1.0" if e.exp == 1 else f"{e.exp} * {b} ** {e.exp - 1}"
            return value, tangents({j: [times(slope, dv)]
                                    for j, dv in d.items() if e.exp})
        if isinstance(e, Div):
            (a, da), (b, db) = emit(e.num, arg), emit(e.den, arg)
            value = assign(f"{a} / {b}")
            out = {}
            for j in sorted(da.keys() | db.keys()):     # (a' - v·b') / b
                minus = f" - {times(value, db[j])}" if j in db else ""
                out[j] = assign(f"({da.get(j, '')}{minus}) / {b}")
            return value, out
        raise TypeError(f"not a PhaseExpr node: {e!r}")

    results = [emit(e) for e in exprs]
    outputs = [v for v, _ in results] + [
        d.get(j, "0.0") for _, d in results for j in range(len(wrt))]
    source = ("def _lowered(t, y):\n" + "".join(lines)
              + f"    return ({''.join(r + ', ' for r in outputs)})\n")
    exec(source, glb)
    # no cycle is left: emit and profile hold each other, glb the function
    del emit, profile
    return glb.pop("_lowered")


def _finite(fn: Callable, t, y) -> tuple:
    """Values of a lowered function; poles, overflow and non-finite results
    raise ``NonFiniteError`` instead of returning."""
    try:
        values = fn(t, y)
    except ZeroDivisionError:
        raise NonFiniteError("division by zero during evaluation")
    except OverflowError:
        raise NonFiniteError("overflow during evaluation")
    for value in values:
        if not math.isfinite(value):
            raise NonFiniteError(
                f"evaluation produced a non-finite value: {value}")
    return values


def eval_expr(e: PhaseExpr, point: Mapping, time: Optional[float] = None,
              registry: Optional[AtomRegistry] = None,
              time_var: str = "t") -> float:
    """Evaluate at a numeric point.  Non-finite results raise, never return.

    ``point`` binds variable names and, optionally, ``Atom`` instances; an
    atom bound there needs no profile.  ``time`` binds ``time_var`` unless
    the point already does.
    """
    fn = lower([e], tuple(point), registry,
               time_var=time_var if time is not None else None)
    values = [float(v) for v in point.values()]
    return _finite(fn, None if time is None else float(time), values)[0]

# --------------------------------------------------------------------------
# charts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Ordered canonical pairs; Jacobian convention is coordinates first."""

    pairs: Tuple[Tuple[str, str], ...]
    label: str = ""

    def __post_init__(self):
        names = [v for pair in self.pairs for v in pair]
        if len(set(names)) != len(names):
            raise ValueError("chart variables must be disjoint")

    @property
    def coordinates(self) -> Tuple[str, ...]:
        return tuple(q for q, _ in self.pairs)

    @property
    def momenta(self) -> Tuple[str, ...]:
        return tuple(p for _, p in self.pairs)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.coordinates + self.momenta

    def poisson_matrix(self) -> np.ndarray:
        n = len(self.pairs)
        j = np.zeros((2 * n, 2 * n), dtype=int)
        j[:n, n:] = np.eye(n, dtype=int)
        j[n:, :n] = -np.eye(n, dtype=int)
        return j


ORIGINAL_CHART = Chart((("x1", "p1"), ("x2", "p2")), label="original")
EXTENDED_CHART = Chart(
    (("x1_tau", "p1_tau"), ("x2_tau", "p2_tau"), ("t_tau", "p_tau")),
    label="extended",
)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_OPS = set("+-*/^()'")
# ASCII only: str.isdigit also takes '²', which Fraction refuses
_DIGITS = set("0123456789")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# levels of parentheses and unary minus that parsed text may nest; deeper
# text would exhaust Python's recursion limit here or in a later recursion
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, variables, atom_names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.variables = set(variables)
        self.atom_names = set(atom_names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", pos)
        return self.advance()

    def nested(self, rule: Callable, pos: int):
        """``rule()`` one level deeper, for the opener at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nests too deeply", pos)
        out = rule()
        self.depth -= 1
        return out

    def parse(self) -> PhaseExpr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return e

    def sum(self) -> PhaseExpr:
        terms = [self.term()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                if text == "-":
                    rhs = Mul((Num(Fraction(-1)), rhs))
                terms.append(rhs)
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> PhaseExpr:
        out = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                out = Mul((out, rhs)) if text == "*" else Div(out, rhs)
            else:
                break
        return out

    def unary(self) -> PhaseExpr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Mul((Num(Fraction(-1)), self.nested(self.unary, pos)))
        return self.power()

    def power(self) -> PhaseExpr:
        base = self.primary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                base = Pow(base, self.exponent())
            else:
                break
        return base

    def exponent(self) -> int:
        kind, text, pos = self.peek()
        if kind == "op" and text == "(":
            self.advance()
            value = self.nested(self.exponent, pos)
            self.expect_op(")")
            return value
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or "." in text:
            raise ParseError("exponent must be an integer", pos)
        self.advance()
        return sign * int(text)

    def primary(self) -> PhaseExpr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(Fraction(text))
        if kind == "op" and text == "(":
            e = self.nested(self.sum, pos)
            self.expect_op(")")
            return e
        if kind == "ident":
            order = 0
            while self.peek()[:2] == ("op", "'"):
                self.advance()
                order += 1
            if text in self.atom_names:
                self.expect_op("(")
                akind, aname, apos = self.advance()
                if akind != "ident":
                    raise ParseError("expected a variable as atom argument", apos)
                if aname not in self.variables:
                    raise ParseError(f"unknown identifier '{aname}'", apos)
                self.expect_op(")")
                return Atom(text, order, aname)
            if order:
                raise ParseError(
                    "derivative marks only apply to coefficient atoms", pos
                )
            if text in self.variables:
                nkind, ntext, npos = self.peek()
                if nkind == "op" and ntext == "(":
                    raise ParseError(f"variable '{text}' is not callable", npos)
                return Sym(text)
            raise ParseError(f"unknown identifier '{text}'", pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str, variables: Iterable[str] = (),
          atoms: "AtomRegistry | Iterable[str] | None" = None) -> PhaseExpr:
    """Parse an expression; identifiers must be declared up front.

    Grammar: ``+ - * /`` and integer-exponent ``^`` (tightest), unary minus
    between ``^`` and ``* /``, parentheses, and atom application ``f(t)``
    with optional derivative marks ``f'(t)``.
    """
    if isinstance(atoms, AtomRegistry):
        atom_names = atoms.names()
    elif atoms is None:
        atom_names = ()
    else:
        atom_names = tuple(atoms)
    return simplify(_Parser(text, variables, atom_names).parse())


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _render_factor(e: PhaseExpr) -> str:
    if isinstance(e, (Sym, Atom)):
        return render(e)
    if isinstance(e, Num) and e.value >= 0 and e.value.denominator == 1:
        return render(e)
    if isinstance(e, Pow):
        return render(e)
    if isinstance(e, Div):
        return render(e)
    return f"({render(e)})"


def render(e: PhaseExpr) -> str:
    """Grammar-compatible text; ``parse(render(simplify(e)))`` round-trips."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Atom):
        return e.name + "'" * e.order + f"({e.arg})"
    if isinstance(e, Pow):
        base = e.base
        if isinstance(base, (Sym, Atom)):
            return f"{render(base)}^{e.exp}"
        return f"({render(base)})^{e.exp}"
    if isinstance(e, Mul):
        factors = list(e.factors)
        prefix = ""
        if factors and isinstance(factors[0], Num) and len(factors) > 1:
            c = factors[0].value
            if c < 0:
                prefix = "-"
                c = -c
            if c == 1:
                factors = factors[1:]
            else:
                factors[0] = Num(c)
        body = "*".join(_render_factor(f) for f in factors)
        return prefix + body
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = render(t)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        return "".join(parts)
    if isinstance(e, Div):
        return f"({render(e.num)})/({render(e.den)})"
    raise TypeError(f"not a PhaseExpr node: {e!r}")
