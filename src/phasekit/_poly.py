"""Exact multivariate rational arithmetic backing the expression algebra.

Internal module.  A rational form ``Rat`` carries ``keys``, the sorted tuple
of the variables that occur in it; keys are opaque orderable tuples
supplied by the expression layer (one per symbol or coefficient-atom
instance).  Its numerator and denominator are polynomials over those keys:
dicts mapping an exponent vector ``(total degree, e_1, ..., e_n)`` to a
nonzero ``int`` coefficient.  Tuple order on the vectors is the graded
lexicographic order, so ``max(p)`` is p's leading monomial.  An operation on
two forms first aligns them onto their joint keys, re-indexing the vectors
as sympy's ``PolyElement.set_ring`` does, and every result drops the keys
that no longer occur.  The numerator and denominator are coprime over ℤ,
integer content included, with a positive leading denominator coefficient;
that form is canonical, so two expressions are equal iff their rational
forms are equal.  ``Rat`` and ``poly_gcd`` also accept ``Fraction``
coefficients and clear denominators once on entry; otherwise ``Fraction``
appears only where a constant is built or read.

``poly_gcd`` first tries the heuristic GCDHEU (Char, Geddes & Gonnet,
J. Symbolic Comput. 7, 1989), which evaluates the polynomials at integers,
takes integer gcds and interpolates back; a candidate counts only when
exact division confirms it.  Otherwise the primitive subresultant PRS
(Brown, JACM 18(4), 1971) decides.  Sums and products of rational forms use
Henrici's gcd-saving formulas (Knuth, TAOCP vol. 2, §4.5.1).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import add, itemgetter, neg, sub
from typing import Dict, Optional, Tuple

# exponent vector (total degree, e_1, ..., e_n) -> nonzero int coefficient
Poly = Dict[Tuple[int, ...], int]

# GCDHEU tries six evaluation points, and leaves the gcd to the PRS once
# ξ's bit length times the degree in the evaluated variable, a bound on the
# size of the images, passes 16000 bits; the published algorithm has a size
# limit of the same kind
_HEU_TRIES = 6
_HEU_MAX_BITS = 16000


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _is_one(p: Poly) -> bool:
    if len(p) != 1:
        return False
    (v, c), = p.items()
    return c == 1 and not v[0]


def _integral(*polys: Poly) -> Tuple[Poly, ...]:
    """The polynomials scaled by one common denominator of their
    coefficients, so that every coefficient is an int."""
    dens = [c.denominator for p in polys for c in p.values()
            if type(c) is not int]
    if not dens:
        return polys
    m = lcm(*dens)
    return tuple({k: int(c * m) for k, c in p.items()} for p in polys)


def _reindex(keys: tuple, new: tuple, *polys: Poly) -> Tuple[Poly, ...]:
    """Polynomials over ``keys`` as polynomials over ``new``: a key of
    ``new`` that ``keys`` lacks gets exponent 0, and a key that ``new``
    lacks must have exponent 0 in every term."""
    if not keys or not new:
        # constants: the one term has the zero vector of the new width
        zero = (0,) * (len(new) + 1)
        return tuple({zero: c for c in p.values()} for p in polys)
    at = {k: i for i, k in enumerate(keys, 1)}
    missing = len(keys) + 1
    get = itemgetter(0, *(at.get(k, missing) for k in new))
    return tuple({get(v + (0,)): c for v, c in p.items()} for p in polys)


def _degrees(p: Poly) -> list:
    """Per-position maximum exponent (position 0: total degree)."""
    return list(map(max, zip(*p)))


def _positive(p: Poly) -> Poly:
    return {v: -c for v, c in p.items()} if p[max(p)] < 0 else p


def _neg(p: Poly) -> Poly:
    return {v: -c for v, c in p.items()}


def _divide_int(p: Poly, c: int) -> Poly:
    return p if c == 1 else {v: x // c for v, x in p.items()}


def _times(p: Poly, c: int) -> Poly:
    return p if c == 1 else {v: x * c for v, x in p.items()}


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for v, c in b.items():
        nc = out.get(v, 0) + c
        if nc:
            out[v] = nc
        else:
            del out[v]
    return out


def _sub(a: Poly, b: Poly) -> Poly:
    return _add(a, _neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Product of two polynomials over the same keys."""
    out: Poly = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(map(add, va, vb))
            nc = out.get(v, 0) + ca * cb
            if nc:
                out[v] = nc
            else:
                del out[v]
    return out


def _pow(p: Poly, n: int) -> Poly:
    """p to the power n ≥ 1, by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else poly_mul(out, p)
        n >>= 1
        if not n:
            return out
        p = poly_mul(p, p)


def _pdiv(a: Poly, b: Poly) -> Optional[Poly]:
    """a / b over ℤ, or None when b does not divide a."""
    lm_b = max(b)
    lc_b = b[lm_b]
    rest = [(v, c) for v, c in b.items() if v != lm_b]
    q: Poly = {}
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


def _exact(a: Poly, b: Poly) -> Poly:
    q = _pdiv(a, b)
    if q is None:
        raise ExactDivisionError("division is not exact")
    return q


# --------------------------------------------------------------------------
# gcd over ℤ
# --------------------------------------------------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd over ℤ of two polynomials over the same keys, with a positive
    leading coefficient; the gcd of two constants is their integer gcd.
    ``Fraction`` coefficients are cleared first, so the result is then the
    gcd over ℚ up to a constant factor.
    """
    a, = _integral(a)
    b, = _integral(b)
    if not a or not b:
        return _positive(a or b) if a or b else {}
    if a == b:
        return _positive(a)
    return _gcd(a, b)


def _gcd(a: Poly, b: Poly) -> Poly:
    """gcd of nonzero polynomials, leading coefficient positive."""
    h = _heu_gcd(a, b)
    return _positive(h if h is not None else _prs_gcd(a, b))


def _trivial_gcd(a: Poly, b: Poly) -> Optional[Poly]:
    """The gcd when one side is a single term or no variable is shared."""
    if len(a) == 1 or len(b) == 1:
        (m, c), other = (next(iter(a.items())), b) if len(a) == 1 else \
            (next(iter(b.items())), a)
        if not m[0]:
            return {m: gcd(c, *other.values())}
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


def _heu_gcd(f: Poly, g: Poly) -> Optional[Poly]:
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


def _evaluate(p: Poly, i: int, xi: int) -> Poly:
    """p with variable i replaced by the integer xi."""
    powers = [1]
    out: Poly = {}
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


def _interpolate(p: Poly, i: int, xi: int) -> Poly:
    """The polynomial in variable i whose value at xi is p, with digits
    in the symmetric range (-xi/2, xi/2]."""
    half = xi // 2
    out: Poly = {}
    e = 0
    while p:
        rest: Poly = {}
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


def _coeffs(p: Poly, i: int) -> Dict[int, Poly]:
    """p as a polynomial in variable i with coefficients in the others."""
    out: Dict[int, Poly] = {}
    for v, c in p.items():
        e = v[i]
        if e:
            v = (v[0] - e,) + v[1:i] + (0,) + v[i + 1:]
        out.setdefault(e, {})[v] = c
    return out


def _lc(p: Poly, i: int) -> Poly:
    coeffs = _coeffs(p, i)
    return coeffs[max(coeffs)]


def _shift(p: Poly, i: int, k: int) -> Poly:
    """p times variable i to the power k."""
    return {(v[0] + k,) + v[1:i] + (v[i] + k,) + v[i + 1:]: c
            for v, c in p.items()}


def _content(p: Poly, i: int) -> Poly:
    """gcd of p's coefficients in variable i."""
    coeffs = iter(_coeffs(p, i).values())
    g = _positive(next(coeffs))
    for c in coeffs:
        if _is_one(g):
            break
        g = _gcd(g, c)
    return g


def _prem(a: Poly, b: Poly, i: int) -> Poly:
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
        r = _sub(poly_mul(lc_b, r),
                 poly_mul(_shift(coeffs[dr], i, dr - db), b))
        steps -= 1
    # early cancellations skip rounds; pad so the divisor bookkeeping of the
    # subresultant sequence stays exact
    if steps > 0 and r:
        r = poly_mul(_pow(lc_b, steps), r)
    return r


def _prs_gcd(a: Poly, b: Poly) -> Poly:
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
        pa, pb = pb, _exact(r, poly_mul(g, _pow(h, delta)) if delta else g)
        g = _lc(pa, i)
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact(_pow(g, delta), _pow(h, delta - 1))
    return _positive(poly_mul(cg, _exact(pb, _content(pb, i))))


# --------------------------------------------------------------------------
# rational forms
# --------------------------------------------------------------------------

def _normal_sign(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    if den[max(den)] < 0:
        return _neg(num), _neg(den)
    return num, den


def _compact(keys: tuple, num: Poly, den: Poly):
    """The form over the keys that occur in its numerator or denominator."""
    used = list(map(any, zip(*num, *den)))
    if all(used):
        return keys, num, den
    kept = tuple(k for k, u in zip(keys, used[1:]) if u)
    return (kept, *_reindex(keys, kept, num, den))


class Rat:
    """Reduced rational form num/den over ℤ in the variables ``keys``:
    coprime numerator and denominator, the denominator's leading
    coefficient positive, and every key occurring in one of them."""

    __slots__ = ("keys", "num", "den")

    def __init__(self, keys: tuple, num: Poly, den: Poly,
                 reduce: bool = True):
        if not den:
            raise ZeroDivisionError("zero denominator in rational form")
        if not num:
            keys, num, den = (), {}, {(0,): 1}
        else:
            if reduce:
                num, den = _integral(num, den)
                g = poly_gcd(num, den)
                if not _is_one(g):
                    num, den = _exact(num, g), _exact(den, g)
                num, den = _normal_sign(num, den)
            if keys:
                keys, num, den = _compact(keys, num, den)
        self.keys = keys
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "Rat":
        c = Fraction(c)
        return Rat((), {(0,): c.numerator} if c else {},
                   {(0,): c.denominator}, reduce=False)

    @staticmethod
    def symbol(key: tuple) -> "Rat":
        return Rat((key,), {(1, 1): 1}, {(0, 0): 1}, reduce=False)

    def is_zero(self) -> bool:
        return not self.num

    def is_const(self) -> bool:
        return not self.keys

    def const_value(self) -> Fraction:
        return Fraction(self.num.get((0,), 0), self.den[(0,)])

    def __eq__(self, other):
        return (
            isinstance(other, Rat)
            and self.keys == other.keys
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.keys, frozenset(self.num.items()),
                     frozenset(self.den.items())))

    def __add__(self, other: "Rat") -> "Rat":
        if not self.num:
            return other
        if not other.num:
            return self
        keys, a, b, c, d = _align(self, other)
        # over a unit denominator the sum is already reduced
        if _is_one(b):
            return Rat(keys, _add(poly_mul(a, d) if not _is_one(d) else a, c),
                       d, reduce=False)
        if _is_one(d):
            return Rat(keys, _add(a, poly_mul(c, b)), b, reduce=False)
        g = poly_gcd(b, d)
        if _is_one(g):
            return Rat(keys, _add(poly_mul(a, d), poly_mul(c, b)),
                       poly_mul(b, d), reduce=False)
        b, d = _exact(b, g), _exact(d, g)
        t = _add(poly_mul(a, d), poly_mul(c, b))
        # only a factor of g can divide t; it cancels against d·g
        g2 = poly_gcd(t, g)
        if not _is_one(g2):
            t, g = _exact(t, g2), _exact(g, g2)
        return Rat(keys, t,
                   poly_mul(b, poly_mul(d, g) if not _is_one(g) else d),
                   reduce=False)

    def __neg__(self) -> "Rat":
        return Rat(self.keys, _neg(self.num), self.den, reduce=False)

    def __sub__(self, other: "Rat") -> "Rat":
        return self + (-other)

    def __mul__(self, other: "Rat") -> "Rat":
        return _rat_mul(*_align(self, other))

    def __truediv__(self, other: "Rat") -> "Rat":
        if not other.num:
            raise ZeroDivisionError("division by a zero expression")
        keys, a, b, c, d = _align(self, other)
        num, den = _normal_sign(d, c)
        return _rat_mul(keys, a, b, num, den)

    def __pow__(self, n: int) -> "Rat":
        if n == 0:
            return Rat.const(1)
        if n < 0:
            if not self.num:
                raise ZeroDivisionError("zero raised to a negative power")
            num, den = _normal_sign(_pow(self.den, -n), _pow(self.num, -n))
            return Rat(self.keys, num, den, reduce=False)
        return Rat(self.keys, _pow(self.num, n), _pow(self.den, n),
                   reduce=False)


def _over(r: Rat, keys: tuple) -> Tuple[Poly, Poly]:
    """r's numerator and denominator over ``keys``, a superset of r's."""
    if r.keys == keys:
        return r.num, r.den
    return _reindex(r.keys, keys, r.num, r.den)


def _align(r: Rat, s: Rat):
    """The joint keys of r and s, then both forms over them."""
    if r.keys == s.keys:
        return r.keys, r.num, r.den, s.num, s.den
    keys = tuple(sorted({*r.keys, *s.keys}))
    return (keys, *_over(r, keys), *_over(s, keys))


def _rat_mul(keys: tuple, a: Poly, b: Poly, c: Poly, d: Poly) -> Rat:
    """(a/b)·(c/d) for reduced forms, cancelling across the two fractions."""
    if not a or not c:
        return Rat.const(0)
    if not _is_one(d):
        g = poly_gcd(a, d)
        if not _is_one(g):
            a, d = _exact(a, g), _exact(d, g)
    if not _is_one(b):
        g = poly_gcd(c, b)
        if not _is_one(g):
            c, b = _exact(c, g), _exact(b, g)
    den = d if _is_one(b) else b if _is_one(d) else poly_mul(b, d)
    return Rat(keys, poly_mul(a, c), den, reduce=False)


def _diff(p: Poly, i: int) -> Poly:
    """Partial derivative of p in its variable i."""
    return {(v[0] - 1,) + v[1:i] + (v[i] - 1,) + v[i + 1:]: c * v[i]
            for v, c in p.items() if v[i]}


def rat_diff(r: Rat, key: tuple) -> Rat:
    """∂(N/D)/∂key = (∂N·(D/g) − N·(∂D/g)) / (D·D/g) with g = gcd(D, ∂D)
    (Geddes, Czapor & Labahn, Algorithms for Computer Algebra, ch. 2)."""
    if key not in r.keys:
        return Rat.const(0)
    i = r.keys.index(key) + 1
    dn, dd = _diff(r.num, i), _diff(r.den, i)
    if not dd:
        return Rat(r.keys, dn, r.den)
    g = poly_gcd(r.den, dd)
    dg = _exact(r.den, g)
    num = _sub(poly_mul(dn, dg), poly_mul(r.num, _exact(dd, g)))
    return Rat(r.keys, num, poly_mul(r.den, dg))


def rat_integrate(r: Rat, key: tuple) -> Optional[Rat]:
    """Antiderivative in key, constant of integration zero; None when the
    denominator contains key."""
    keys = tuple(sorted({*r.keys, key}))
    i = keys.index(key) + 1
    num, den = _over(r, keys)
    if any(v[i] for v in den):
        return None
    terms = [((v[0] + 1,) + v[1:i] + (v[i] + 1,) + v[i + 1:], c, v[i] + 1)
             for v, c in num.items()]
    scale = lcm(*(k for _, _, k in terms))
    return Rat(keys, {v: c * (scale // k) for v, c, k in terms},
               _times(den, scale))


def poly_at(p: Poly, keys: tuple, images: Dict[tuple, Rat]) -> Rat:
    """p, over ``keys``, with every key of ``images`` replaced by its
    image."""
    kept = tuple(k for k in keys if k not in images)
    at = [i for i, k in enumerate(keys, 1) if k not in images]
    moved = [(i, images[k]) for i, k in enumerate(keys, 1) if k in images]
    one = {(0,) * (len(kept) + 1): 1}
    out = Rat.const(0)
    for v, c in p.items():
        rest = [v[i] for i in at]
        term = Rat(kept, {(sum(rest), *rest): c}, one, reduce=False)
        for i, image in moved:
            if v[i]:
                term = term * image ** v[i]
        out = out + term
    return out
