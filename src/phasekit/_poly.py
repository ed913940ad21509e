"""Exact multivariate rational arithmetic backing the expression algebra.

Internal module.  A polynomial is a dict mapping a monomial to a nonzero
``Fraction`` coefficient; a monomial is a sorted tuple of ``(key, exponent)``
pairs with positive integer exponents.  Keys are opaque orderable tuples
supplied by the expression layer (one per symbol or coefficient-atom
instance).  A rational form is a reduced numerator/denominator pair with a
monic denominator, so two expressions are equal iff their rational forms are
equal dict-for-dict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

Mono = Tuple[Tuple[tuple, int], ...]
Poly = Dict[Mono, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

MONO_ONE: Mono = ()


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def poly_const(c: Fraction) -> Poly:
    c = Fraction(c)
    return {MONO_ONE: c} if c else {}


def poly_symbol(key: tuple, exp: int = 1) -> Poly:
    if exp == 0:
        return {MONO_ONE: _ONE}
    return {((key, exp),): _ONE}


POLY_ZERO: Poly = {}
POLY_ONE: Poly = {MONO_ONE: _ONE}


def is_zero(p: Poly) -> bool:
    return not p


def is_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and MONO_ONE in p)


def const_value(p: Poly) -> Fraction:
    if not p:
        return _ZERO
    return p[MONO_ONE]


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for k, e in b:
        ne = merged.get(k, 0) + e
        if ne:
            merged[k] = ne
        else:
            del merged[k]
    return tuple(sorted(merged.items()))


def mono_div(a: Mono, b: Mono):
    """Return a/b as a monomial, or None if b does not divide a."""
    if not b:
        return a
    da = dict(a)
    for k, e in b:
        ne = da.get(k, 0) - e
        if ne < 0:
            return None
        if ne:
            da[k] = ne
        else:
            da.pop(k, None)
    return tuple(sorted(da.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic order; multiplicative, hence usable for division."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = dict(a), dict(b)
    for k in sorted(set(ia) | set(ib)):
        ea, eb = ia.get(k, 0), ib.get(k, 0)
        if ea != eb:
            return -1 if ea < eb else 1
    return 0


def leading(p: Poly) -> Tuple[Mono, Fraction]:
    best = None
    for m in p:
        if best is None or mono_cmp(m, best) > 0:
            best = m
    return best, p[best]


def poly_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, _ZERO) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            nc = out.get(m, _ZERO) + ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def poly_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("poly_pow expects a nonnegative exponent")
    out = dict(POLY_ONE)
    base = a
    while n:
        if n & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def poly_vars(p: Poly) -> set:
    out = set()
    for m in p:
        for k, _ in m:
            out.add(k)
    return out


def poly_degree_in(p: Poly, key: tuple) -> int:
    d = 0
    for m in p:
        for k, e in m:
            if k == key and e > d:
                d = e
    return d


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a/b; raises ExactDivisionError on a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    if is_const(b):
        return poly_scale(a, _ONE / const_value(b))
    q: Poly = {}
    r = dict(a)
    lm_b, lc_b = leading(b)
    while r:
        lm_r, lc_r = leading(r)
        dm = mono_div(lm_r, lm_b)
        if dm is None:
            raise ExactDivisionError("division is not exact")
        dc = lc_r / lc_b
        q[dm] = q.get(dm, _ZERO) + dc
        for mb, cb in b.items():
            m = mono_mul(dm, mb)
            nc = r.get(m, _ZERO) - dc * cb
            if nc:
                r[m] = nc
            else:
                r.pop(m, None)
    return q


def _univariate(p: Poly, key: tuple) -> Dict[int, Poly]:
    """View p as a univariate polynomial in key with Poly coefficients."""
    out: Dict[int, Poly] = {}
    for m, c in p.items():
        e = 0
        rest = []
        for k, ke in m:
            if k == key:
                e = ke
            else:
                rest.append((k, ke))
        coeff = out.setdefault(e, {})
        rm = tuple(rest)
        nc = coeff.get(rm, _ZERO) + c
        if nc:
            coeff[rm] = nc
        else:
            coeff.pop(rm, None)
    return {e: c for e, c in out.items() if c}


def _content(p: Poly, key: tuple) -> Poly:
    coeffs = list(_univariate(p, key).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if is_const(g) and not is_zero(g):
            break
        g = poly_gcd(g, c)
    return _monic(g)


def _prem(a: Poly, b: Poly, key: tuple) -> Poly:
    """Canonical pseudo-remainder lc(b)^(da-db+1)·a mod b in key."""
    db = poly_degree_in(b, key)
    lc_b = _univariate(b, key)[db]
    r = dict(a)
    steps = poly_degree_in(r, key) - db + 1
    while not is_zero(r):
        dr = poly_degree_in(r, key)
        if dr < db:
            break
        lc_r = _univariate(r, key)[dr]
        shift = poly_symbol(key, dr - db) if dr > db else dict(POLY_ONE)
        r = poly_sub(poly_mul(lc_b, r), poly_mul(poly_mul(lc_r, shift), b))
        steps -= 1
    # early cancellations skip rounds; pad so the divisor bookkeeping of the
    # subresultant sequence stays exact
    if steps > 0 and not is_zero(r):
        r = poly_mul(_ppow(lc_b, steps), r)
    return r


def _ppow(p: Poly, n: int) -> Poly:
    out = dict(POLY_ONE)
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def _monic(p: Poly) -> Poly:
    if not p:
        return {}
    _, lc = leading(p)
    if lc == 1:
        return dict(p)
    return poly_scale(p, _ONE / lc)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (constants are units, gcd of nonzero
    constants is 1).

    Subresultant pseudo-remainder sequence: each remainder divides exactly
    by g·h^delta, so no per-step content extraction is needed and the
    coefficient growth stays polynomial.
    """
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    if is_const(a) or is_const(b):
        return dict(POLY_ONE)
    if a == b:
        return _monic(a)
    common = poly_vars(a) & poly_vars(b)
    if not common:
        return dict(POLY_ONE)
    # recurse on the variable both sides are shallowest in
    key = min(common, key=lambda k: (min(poly_degree_in(a, k),
                                         poly_degree_in(b, k)), k))
    ca, cb = _content(a, key), _content(b, key)
    pa, pb = poly_div_exact(a, ca), poly_div_exact(b, cb)
    cg = poly_gcd(ca, cb)
    if poly_degree_in(pa, key) < poly_degree_in(pb, key):
        pa, pb = pb, pa
    g: Poly = dict(POLY_ONE)
    h: Poly = dict(POLY_ONE)
    while True:
        delta = poly_degree_in(pa, key) - poly_degree_in(pb, key)
        r = _prem(pa, pb, key)
        if is_zero(r):
            break
        if poly_degree_in(r, key) == 0:
            # a constant (in key) remainder: the primitive parts are coprime
            return _monic(cg)
        pa, pb = pb, poly_div_exact(r, poly_mul(g, _ppow(h, delta)))
        g = _univariate(pa, key)[poly_degree_in(pa, key)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = poly_div_exact(_ppow(g, delta), _ppow(h, delta - 1))
    return _monic(poly_mul(cg, poly_div_exact(pb, _content(pb, key))))


class Rat:
    """Reduced rational form: num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if is_zero(den):
            raise ZeroDivisionError("zero denominator in rational form")
        if is_zero(num):
            num, den = {}, dict(POLY_ONE)
        elif reduce:
            if is_const(den):
                num = poly_scale(num, _ONE / const_value(den))
                den = dict(POLY_ONE)
            else:
                g = poly_gcd(num, den)
                if not is_const(g):
                    num = poly_div_exact(num, g)
                    den = poly_div_exact(den, g)
                _, lc = leading(den)
                if lc != 1:
                    num = poly_scale(num, _ONE / lc)
                    den = poly_scale(den, _ONE / lc)
        self.num = num
        self.den = den

    @staticmethod
    def const(c: Fraction) -> "Rat":
        return Rat(poly_const(c), dict(POLY_ONE), reduce=False)

    @staticmethod
    def symbol(key: tuple) -> "Rat":
        return Rat(poly_symbol(key), dict(POLY_ONE), reduce=False)

    def is_zero(self) -> bool:
        return is_zero(self.num)

    def is_const(self) -> bool:
        return is_const(self.num) and is_const(self.den)

    def const_value(self) -> Fraction:
        return const_value(self.num) / const_value(self.den)

    def __eq__(self, other):
        return (
            isinstance(other, Rat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.num.items())),
                tuple(sorted(self.den.items())),
            )
        )

    def __add__(self, other: "Rat") -> "Rat":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if is_const(self.den) and is_const(other.den):
            return Rat(poly_add(self.num, other.num), dict(POLY_ONE), reduce=False)
        num = poly_add(
            poly_mul(self.num, other.den), poly_mul(other.num, self.den)
        )
        return Rat(num, poly_mul(self.den, other.den))

    def __neg__(self) -> "Rat":
        return Rat(poly_neg(self.num), dict(self.den), reduce=False)

    def __sub__(self, other: "Rat") -> "Rat":
        return self + (-other)

    def __mul__(self, other: "Rat") -> "Rat":
        if self.is_zero() or other.is_zero():
            return Rat.const(_ZERO)
        if is_const(self.den) and is_const(other.den):
            return Rat(poly_mul(self.num, other.num), dict(POLY_ONE), reduce=False)
        return Rat(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def __truediv__(self, other: "Rat") -> "Rat":
        if other.is_zero():
            raise ZeroDivisionError("division by a zero expression")
        return Rat(
            poly_mul(self.num, other.den), poly_mul(self.den, other.num)
        )

    def __pow__(self, n: int) -> "Rat":
        if n == 0:
            return Rat.const(_ONE)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero raised to a negative power")
            return Rat(poly_pow(self.den, -n), poly_pow(self.num, -n))
        return Rat(poly_pow(self.num, n), poly_pow(self.den, n), reduce=False)


def poly_diff(p: Poly, key: tuple) -> Poly:
    """Partial derivative of a polynomial in key."""
    out: Poly = {}
    for m, c in p.items():
        e = dict(m).get(key, 0)
        if e:
            out[tuple((k, ke - 1 if k == key else ke) for k, ke in m
                      if k != key or ke > 1)] = c * e
    return out


def rat_diff(r: Rat, key: tuple) -> Rat:
    """∂(N/D)/∂key = (∂N·(D/g) − N·(∂D/g)) / (D·D/g) with g = gcd(D, ∂D)
    (Geddes, Czapor & Labahn, Algorithms for Computer Algebra, ch. 2)."""
    dn, dd = poly_diff(r.num, key), poly_diff(r.den, key)
    if not dd:
        return Rat(dn, r.den, reduce=not is_const(r.den))
    g = poly_gcd(r.den, dd)
    dg = poly_div_exact(r.den, g)
    num = poly_sub(poly_mul(dn, dg), poly_mul(r.num, poly_div_exact(dd, g)))
    return Rat(num, poly_mul(r.den, dg))


def integrate_poly(p: Poly, key: tuple) -> Poly:
    """Antiderivative of a polynomial in key, constant of integration zero."""
    out: Poly = {}
    for m, c in p.items():
        e = 0
        rest = []
        for k, ke in m:
            if k == key:
                e = ke
            else:
                rest.append((k, ke))
        nm = tuple(sorted(rest + [(key, e + 1)]))
        out[nm] = c / (e + 1)
    return out
