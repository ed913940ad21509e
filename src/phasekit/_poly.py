"""Exact multivariate rational arithmetic backing the expression algebra.

Internal module.  A polynomial is a dict mapping a monomial to a nonzero
``int`` coefficient; a monomial is a sorted tuple of ``(key, exponent)``
pairs with positive integer exponents.  Keys are opaque orderable tuples
supplied by the expression layer (one per symbol or coefficient-atom
instance).  A rational form is a numerator/denominator pair over ℤ that is
coprime, integer content included, with a positive leading denominator
coefficient; that form is canonical, so two expressions are equal iff their
rational forms are equal dict-for-dict.  ``Rat`` and ``poly_gcd`` also
accept ``Fraction`` coefficients and clear denominators once on entry;
otherwise ``Fraction`` appears only where a constant is built or read.

gcds and exact divisions run on exponent vectors over the operands' joint
variables.  ``poly_gcd`` first tries the heuristic GCDHEU (Char, Geddes &
Gonnet, J. Symbolic Comput. 7, 1989), which evaluates the polynomials at
integers, takes integer gcds and interpolates back; a candidate counts only
when exact division confirms it.  Otherwise the primitive subresultant PRS
(Brown, JACM 18(4), 1971) decides.  Sums and products of rational forms use
Henrici's gcd-saving formulas (Knuth, TAOCP vol. 2, §4.5.1).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import add, neg, sub
from typing import Dict, Optional, Tuple

Mono = Tuple[Tuple[tuple, int], ...]
Poly = Dict[Mono, int]
# an exponent vector (total degree, e_1, ..., e_n) over sorted variables:
# tuple order is the graded lexicographic order of mono_cmp
Vec = Tuple[int, ...]
Packed = Dict[Vec, int]

MONO_ONE: Mono = ()

# GCDHEU tries six evaluation points, and leaves the gcd to the PRS once
# ξ's bit length times the degree in the evaluated variable, a bound on the
# size of the images, passes 16000 bits; the published algorithm has a size
# limit of the same kind
_HEU_TRIES = 6
_HEU_MAX_BITS = 16000


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def poly_symbol(key: tuple, exp: int = 1) -> Poly:
    if exp == 0:
        return {MONO_ONE: 1}
    return {((key, exp),): 1}


def is_zero(p: Poly) -> bool:
    return not p


def is_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and MONO_ONE in p)


def _is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(MONO_ONE) == 1


def const_value(p: Poly) -> int:
    if not p:
        return 0
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


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic order; multiplicative, hence usable for division."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    # equal degrees: the first differing pair decides, and a key that only
    # one side has is an exponent the other side lacks
    for (ka, ea), (kb, eb) in zip(a, b):
        if ka != kb:
            return 1 if ka < kb else -1
        if ea != eb:
            return -1 if ea < eb else 1
    return 0


def leading(p: Poly) -> Tuple[Mono, int]:
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
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def poly_pow(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("poly_pow expects a nonnegative exponent")
    out = {MONO_ONE: 1}
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


def _integral(*polys: Poly) -> Tuple[Poly, ...]:
    """The polynomials scaled by one common denominator of their
    coefficients, so that every coefficient is an int."""
    dens = [c.denominator for p in polys for c in p.values()
            if type(c) is not int]
    if not dens:
        return polys
    m = lcm(*dens)
    return tuple({k: int(c * m) for k, c in p.items()} for p in polys)


# --------------------------------------------------------------------------
# exponent vectors over the joint variables of a gcd or a division
# --------------------------------------------------------------------------

def _pack(*polys: Poly):
    keys = sorted(set().union(*map(poly_vars, polys)))
    index = {k: i for i, k in enumerate(keys, 1)}
    width = len(keys) + 1
    out = []
    for p in polys:
        q = {}
        for m, c in p.items():
            v = [0] * width
            for k, e in m:
                v[index[k]] = e
                v[0] += e
            q[tuple(v)] = c
        out.append(q)
    return keys, out


def _unpack(p: Packed, keys) -> Poly:
    return {tuple((k, e) for k, e in zip(keys, v[1:]) if e): c
            for v, c in p.items()}


def _degrees(p: Packed) -> list:
    """Per-position maximum exponent (position 0: total degree)."""
    return list(map(max, zip(*p)))


def _positive(p: Packed) -> Packed:
    return {v: -c for v, c in p.items()} if p[max(p)] < 0 else p


def _divide_int(p: Packed, c: int) -> Packed:
    return p if c == 1 else {v: x // c for v, x in p.items()}


def _pmul(a: Packed, b: Packed) -> Packed:
    out: Packed = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(map(add, va, vb))
            nc = out.get(v, 0) + ca * cb
            if nc:
                out[v] = nc
            else:
                del out[v]
    return out


def _ppow(p: Packed, n: int) -> Packed:
    out = p
    for _ in range(n - 1):
        out = _pmul(out, p)
    return out


def _psub(a: Packed, b: Packed) -> Packed:
    out = dict(a)
    for v, c in b.items():
        nc = out.get(v, 0) - c
        if nc:
            out[v] = nc
        else:
            del out[v]
    return out


def _pdiv(a: Packed, b: Packed) -> Optional[Packed]:
    """a / b over ℤ, or None when b does not divide a."""
    lm_b = max(b)
    lc_b = b[lm_b]
    rest = [(v, c) for v, c in b.items() if v != lm_b]
    q: Packed = {}
    if not rest:
        for v, c in a.items():
            dv = tuple(map(sub, v, lm_b))
            if min(dv) < 0 or c % lc_b:
                return None
            q[dv] = c // lc_b
        return q
    # the remainder's leading monomials strictly decrease: pop them from a
    # max-heap of negated vectors, skipping cancelled entries
    r = dict(a)
    heap = [tuple(map(neg, v)) for v in r]
    heapify(heap)
    while heap:
        v = tuple(map(neg, heappop(heap)))
        c = r.pop(v, 0)
        if not c:
            continue
        dv = tuple(map(sub, v, lm_b))
        if min(dv) < 0 or c % lc_b:
            return None
        dc = c // lc_b
        q[dv] = dc
        for vb, cb in rest:
            m = tuple(map(add, dv, vb))
            old = r.get(m, 0)
            nc = old - dc * cb
            if nc:
                if not old:
                    heappush(heap, tuple(map(neg, m)))
                r[m] = nc
            else:
                del r[m]
    return q


def _exact(a: Packed, b: Packed) -> Packed:
    q = _pdiv(a, b)
    if q is None:
        raise ExactDivisionError("division is not exact")
    return q


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a/b over ℤ; raises ExactDivisionError on a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    if is_const(b):
        d = b[MONO_ONE]
        if d == 1:
            return dict(a)
        if any(c % d for c in a.values()):
            raise ExactDivisionError("division is not exact")
        return {m: c // d for m, c in a.items()}
    keys, (pa, pb) = _pack(a, b)
    return _unpack(_exact(pa, pb), keys)


# --------------------------------------------------------------------------
# gcd over ℤ
# --------------------------------------------------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd over ℤ with a positive leading coefficient; the gcd of two
    constants is their integer gcd.  ``Fraction`` coefficients are cleared
    first, so the result is then the gcd over ℚ up to a constant factor.
    """
    a, = _integral(a)
    b, = _integral(b)
    if not a or not b:
        if not a and not b:
            return {}
        c = a or b
        return poly_neg(c) if leading(c)[1] < 0 else dict(c)
    if is_const(a) or is_const(b):
        return {MONO_ONE: gcd(*a.values(), *b.values())}
    if a == b:
        return poly_neg(a) if leading(a)[1] < 0 else dict(a)
    keys, (pa, pb) = _pack(a, b)
    return _unpack(_gcd(pa, pb), keys)


def _gcd(a: Packed, b: Packed) -> Packed:
    """gcd of nonzero packed polynomials, leading coefficient positive."""
    h = _heu_gcd(a, b)
    return _positive(h if h is not None else _prs_gcd(a, b))


def _trivial_gcd(a: Packed, b: Packed) -> Optional[Packed]:
    """The gcd when one side is a single term or no variable is shared."""
    if len(a) == 1 or len(b) == 1:
        (m, c), other = (next(iter(a.items())), b) if len(a) == 1 else \
            (next(iter(b.items())), a)
        # a monomial's divisors are monomials: take the least exponents
        low = list(m)
        for v in other:
            low = list(map(min, low, v))
        low[0] = sum(low[1:])
        return {tuple(low): gcd(c, *other.values())}
    da, db = _degrees(a), _degrees(b)
    if not any(x and y for x, y in zip(da[1:], db[1:])):
        zero = (0,) * len(da)
        return {zero: gcd(*a.values(), *b.values())}
    return None


def _heu_gcd(f: Packed, g: Packed) -> Optional[Packed]:
    """GCDHEU: a gcd of f and g, or None when the heuristic gives up.

    A shared variable is evaluated at ξ > 2 + 2·min(|f|∞, |g|∞), the gcd of
    the images comes from the recursion, and the ξ-adic expansion with
    symmetric digits lifts it back.  With ξ that large, a primitive lifted
    candidate that divides both f and g is their gcd up to the integer
    content, so every candidate is checked by exact division.
    """
    shortcut = _trivial_gcd(f, g)
    if shortcut is not None:
        return shortcut
    df, dg = _degrees(f), _degrees(g)
    i = next(i for i in range(1, len(df)) if df[i] and dg[i])
    c = gcd(*f.values(), *g.values())
    f, g = _divide_int(f, c), _divide_int(g, c)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * max(df[i], dg[i]) > _HEU_MAX_BITS:
            return None
        ff, gg = _evaluate(f, i, xi), _evaluate(g, i, xi)
        if ff and gg:
            image = _heu_gcd(ff, gg)
            if image is None:
                return None
            h = _interpolate(image, i, xi)
            h = _divide_int(h, gcd(*h.values()))
            if _pdiv(f, h) is not None and _pdiv(g, h) is not None:
                return _times(h, c)
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _times(p: Packed, c: int) -> Packed:
    return p if c == 1 else {v: x * c for v, x in p.items()}


def _evaluate(p: Packed, i: int, xi: int) -> Packed:
    """p with variable i replaced by the integer xi."""
    powers = [1]
    out: Packed = {}
    for v, c in p.items():
        e = v[i]
        if e:
            while len(powers) <= e:
                powers.append(powers[-1] * xi)
            c *= powers[e]
            v = (v[0] - e,) + v[1:i] + (0,) + v[i + 1:]
        nc = out.get(v, 0) + c
        if nc:
            out[v] = nc
        else:
            del out[v]
    return out


def _interpolate(p: Packed, i: int, xi: int) -> Packed:
    """The polynomial in variable i whose value at xi is p, with digits
    in the symmetric range (-xi/2, xi/2]."""
    half = xi // 2
    out: Packed = {}
    e = 0
    while p:
        rest: Packed = {}
        for v, c in p.items():
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[(v[0] + e,) + v[1:i] + (e,) + v[i + 1:]] = digit
            c = (c - digit) // xi
            if c:
                rest[v] = c
        p = rest
        e += 1
    return out


def _coeffs(p: Packed, i: int) -> Dict[int, Packed]:
    """p as a polynomial in variable i with packed coefficients."""
    out: Dict[int, Packed] = {}
    for v, c in p.items():
        e = v[i]
        if e:
            v = (v[0] - e,) + v[1:i] + (0,) + v[i + 1:]
        out.setdefault(e, {})[v] = c
    return out


def _lc(p: Packed, i: int) -> Packed:
    coeffs = _coeffs(p, i)
    return coeffs[max(coeffs)]


def _shift(p: Packed, i: int, k: int) -> Packed:
    """p times variable i to the power k."""
    return {(v[0] + k,) + v[1:i] + (v[i] + k,) + v[i + 1:]: c
            for v, c in p.items()}


def _content(p: Packed, i: int) -> Packed:
    """gcd of p's coefficients in variable i."""
    coeffs = iter(_coeffs(p, i).values())
    g = _positive(next(coeffs))
    for c in coeffs:
        if _is_unit(g):
            break
        g = _gcd(g, c)
    return g


def _is_unit(p: Packed) -> bool:
    return len(p) == 1 and 1 in p.values() and not max(p)[0]


def _prem(a: Packed, b: Packed, i: int) -> Packed:
    """Canonical pseudo-remainder lc(b)^(da-db+1)·a mod b in variable i."""
    db = max(v[i] for v in b)
    lc_b = _lc(b, i)
    r = a
    steps = max(v[i] for v in r) - db + 1
    while r:
        coeffs = _coeffs(r, i)
        dr = max(coeffs)
        if dr < db:
            break
        r = _psub(_pmul(lc_b, r), _pmul(_shift(coeffs[dr], i, dr - db), b))
        steps -= 1
    # early cancellations skip rounds; pad so the divisor bookkeeping of the
    # subresultant sequence stays exact
    if steps > 0 and r:
        r = _pmul(_ppow(lc_b, steps), r)
    return r


def _prs_gcd(a: Packed, b: Packed) -> Packed:
    """Subresultant pseudo-remainder sequence on the primitive parts: each
    remainder divides exactly by g·h^delta, so no per-step content
    extraction is needed and the coefficient growth stays polynomial."""
    da, db = _degrees(a), _degrees(b)
    # recurse on the variable both sides are shallowest in
    i = min((i for i in range(1, len(da)) if da[i] and db[i]),
            key=lambda i: (min(da[i], db[i]), i))
    ca, cb = _content(a, i), _content(b, i)
    pa, pb = _exact(a, ca), _exact(b, cb)
    cg = _gcd(ca, cb)
    if max(v[i] for v in pa) < max(v[i] for v in pb):
        pa, pb = pb, pa
    zero = (0,) * len(da)
    g = h = {zero: 1}
    while True:
        delta = max(v[i] for v in pa) - max(v[i] for v in pb)
        r = _prem(pa, pb, i)
        if not r:
            break
        if not max(v[i] for v in r):
            # a constant (in i) remainder: the primitive parts are coprime
            return cg
        pa, pb = pb, _exact(r, _pmul(g, _ppow(h, delta)) if delta else g)
        g = _lc(pa, i)
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact(_ppow(g, delta), _ppow(h, delta - 1))
    return _positive(_pmul(cg, _exact(pb, _content(pb, i))))


# --------------------------------------------------------------------------
# rational forms
# --------------------------------------------------------------------------

def _normal_sign(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    if leading(den)[1] < 0:
        return poly_neg(num), poly_neg(den)
    return num, den


class Rat:
    """Reduced rational form num/den over ℤ: coprime numerator and
    denominator, the denominator's leading coefficient positive."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if is_zero(den):
            raise ZeroDivisionError("zero denominator in rational form")
        if is_zero(num):
            num, den = {}, {MONO_ONE: 1}
        elif reduce:
            num, den = _integral(num, den)
            g = poly_gcd(num, den)
            if not _is_one(g):
                num = poly_div_exact(num, g)
                den = poly_div_exact(den, g)
            num, den = _normal_sign(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "Rat":
        c = Fraction(c)
        return Rat({MONO_ONE: c.numerator} if c else {},
                   {MONO_ONE: c.denominator}, reduce=False)

    @staticmethod
    def symbol(key: tuple) -> "Rat":
        return Rat(poly_symbol(key), {MONO_ONE: 1}, reduce=False)

    def is_zero(self) -> bool:
        return is_zero(self.num)

    def is_const(self) -> bool:
        return is_const(self.num) and is_const(self.den)

    def const_value(self) -> Fraction:
        return Fraction(const_value(self.num), const_value(self.den))

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
        a, b, c, d = self.num, self.den, other.num, other.den
        # over a unit denominator the sum is already reduced
        if _is_one(b):
            return Rat(poly_add(poly_mul(a, d) if not _is_one(d) else a, c),
                       d, reduce=False)
        if _is_one(d):
            return Rat(poly_add(a, poly_mul(c, b)), b, reduce=False)
        g = poly_gcd(b, d)
        if _is_one(g):
            return Rat(poly_add(poly_mul(a, d), poly_mul(c, b)),
                       poly_mul(b, d), reduce=False)
        b, d = poly_div_exact(b, g), poly_div_exact(d, g)
        t = poly_add(poly_mul(a, d), poly_mul(c, b))
        # only a factor of g can divide t; it cancels against d·g
        g2 = poly_gcd(t, g)
        if not _is_one(g2):
            t, g = poly_div_exact(t, g2), poly_div_exact(g, g2)
        return Rat(t, poly_mul(b, poly_mul(d, g) if not _is_one(g) else d),
                   reduce=False)

    def __neg__(self) -> "Rat":
        return Rat(poly_neg(self.num), self.den, reduce=False)

    def __sub__(self, other: "Rat") -> "Rat":
        return self + (-other)

    def __mul__(self, other: "Rat") -> "Rat":
        return _rat_mul(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "Rat") -> "Rat":
        if other.is_zero():
            raise ZeroDivisionError("division by a zero expression")
        num, den = _normal_sign(other.den, other.num)
        return _rat_mul(self.num, self.den, num, den)

    def __pow__(self, n: int) -> "Rat":
        if n == 0:
            return Rat.const(1)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero raised to a negative power")
            num, den = _normal_sign(poly_pow(self.den, -n),
                                    poly_pow(self.num, -n))
            return Rat(num, den, reduce=False)
        return Rat(poly_pow(self.num, n), poly_pow(self.den, n), reduce=False)


def _rat_mul(a: Poly, b: Poly, c: Poly, d: Poly) -> Rat:
    """(a/b)·(c/d) for reduced forms, cancelling across the two fractions."""
    if not a or not c:
        return Rat.const(0)
    if not _is_one(d):
        g = poly_gcd(a, d)
        if not _is_one(g):
            a, d = poly_div_exact(a, g), poly_div_exact(d, g)
    if not _is_one(b):
        g = poly_gcd(c, b)
        if not _is_one(g):
            c, b = poly_div_exact(c, g), poly_div_exact(b, g)
    den = d if _is_one(b) else b if _is_one(d) else poly_mul(b, d)
    return Rat(poly_mul(a, c), den, reduce=False)


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
        return Rat(dn, r.den)
    g = poly_gcd(r.den, dd)
    dg = poly_div_exact(r.den, g)
    num = poly_sub(poly_mul(dn, dg), poly_mul(r.num, poly_div_exact(dd, g)))
    return Rat(num, poly_mul(r.den, dg))


def rat_integrate(r: Rat, key: tuple) -> Rat:
    """Antiderivative in key of a rational form whose denominator is free
    of key, constant of integration zero."""
    terms = []
    for m, c in r.num.items():
        e = 0
        rest = []
        for k, ke in m:
            if k == key:
                e = ke
            else:
                rest.append((k, ke))
        terms.append((tuple(sorted(rest + [(key, e + 1)])), c, e + 1))
    scale = lcm(*(k for _, _, k in terms))
    return Rat({m: c * (scale // k) for m, c, k in terms},
               {m: c * scale for m, c in r.den.items()})


def poly_at(p: Poly, images: Dict[tuple, Rat]) -> Rat:
    """p with every key of ``images`` replaced by its image."""
    out = Rat.const(0)
    for m, c in p.items():
        term = Rat({tuple(kv for kv in m if kv[0] not in images): c},
                   {MONO_ONE: 1}, reduce=False)
        for k, e in m:
            if k in images:
                term = term * images[k] ** e
        out = out + term
    return out
