"""Exact normal forms checked against sympy, an independent algebra system."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import simplify, sym
from phasekit._poly import Rat, poly_gcd, poly_mul, rat_diff
from phasekit.expr import Add, Div, ExprError, Mul, Num, Pow, Sym, to_rat

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
KEYS = tuple((0, n) for n in NAMES)
SYMBOLS = {n: sympy.Symbol(n) for n in NAMES}

coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                   st.integers(1, 3))


def _mono(pairs):
    exps = {}
    for key, e in pairs:
        exps[key] = exps.get(key, 0) + e
    return tuple(sorted(exps.items()))


monos = st.lists(st.tuples(st.sampled_from(KEYS), st.integers(1, 2)),
                 max_size=3).map(_mono)
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=3)


@st.composite
def trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Num(draw(coeffs))
        return sym(draw(st.sampled_from(NAMES)))
    op = draw(st.sampled_from(["add", "mul", "div", "pow"]))
    a = draw(trees(depth=depth + 1))
    if op == "pow":
        return Pow(a, draw(st.integers(-2, 3)))
    b = draw(trees(depth=depth + 1))
    return Add((a, b)) if op == "add" else Mul((a, b)) if op == "mul" \
        else Div(a, b)


def sympy_poly(p):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(SYMBOLS[key[1]] ** e for key, e in m))
        for m, c in p.items()))


def sympy_rat(r):
    return sympy_poly(r.num) / sympy_poly(r.den)


def sympy_tree(e):
    """The tree's value in sympy, built without phasekit's normal form."""
    if isinstance(e, Num):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return SYMBOLS[e.name]
    if isinstance(e, Add):
        return sympy.Add(*map(sympy_tree, e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*map(sympy_tree, e.factors))
    if isinstance(e, Pow):
        return sympy_tree(e.base) ** e.exp
    return sympy_tree(e.num) / sympy_tree(e.den)


def assert_reduced_form_of(r, expected):
    """r is expected in lowest terms: equal value, equal degrees."""
    num, den = sympy.fraction(sympy.cancel(expected))
    ours = sympy_poly(r.num), sympy_poly(r.den)
    assert sympy.expand(ours[0] * den - num * ours[1]) == 0
    for mine, theirs in zip(ours, (num, den)):
        for s in SYMBOLS.values():
            assert sympy.degree(mine, s) == sympy.degree(theirs, s)


def free_of(p, key):
    return {m: c for m, c in p.items() if key not in dict(m)} or \
        {(): Fraction(1)}


@settings(max_examples=60)
@given(polys, polys, polys, polys, st.sampled_from(KEYS))
def test_rat_diff_matches_sympy_diff(num, den, q, s, key):
    # a term q/s free of key puts factors into the denominator that the
    # derivative must cancel again
    r = Rat(num, den) + Rat(free_of(q, key), free_of(s, key))
    d = rat_diff(r, key)
    assert_reduced_form_of(d, sympy.diff(sympy_rat(r), SYMBOLS[key[1]]))


@settings(max_examples=60)
@given(polys, polys, polys)
def test_poly_gcd_matches_sympy_gcd(a, b, common):
    # a shared factor makes most gcds nontrivial
    a, b = poly_mul(a, common), poly_mul(b, common)
    ours = sympy_poly(poly_gcd(a, b))
    theirs = sympy.gcd(sympy_poly(a), sympy_poly(b))
    ratio = sympy.cancel(ours / theirs)
    assert ratio.is_Rational and ratio != 0


@settings(max_examples=60)
@given(trees())
def test_simplify_matches_sympy_cancel(e):
    try:
        r = to_rat(simplify(e))
    except ExprError:
        return      # the raw tree divides by zero somewhere
    assert_reduced_form_of(r, sympy_tree(e))
