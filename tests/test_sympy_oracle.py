"""Exact normal forms checked against sympy, an independent algebra system."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
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


def times(p, k):
    return {m: c * k for m, c in p.items()}


@settings(max_examples=60)
@given(polys, polys, polys, polys, st.sampled_from(KEYS), st.integers(2, 12))
def test_rat_diff_matches_sympy_diff(num, den, q, s, key, k):
    # a term q/s free of key puts factors into the denominator that the
    # derivative must cancel again; k gives the denominator integer content
    r = Rat(num, times(den, k)) + Rat(free_of(q, key), free_of(s, key))
    d = rat_diff(r, key)
    assert_reduced_form_of(d, sympy.diff(sympy_rat(r), SYMBOLS[key[1]]))


@settings(max_examples=60)
@given(polys, polys, polys, st.integers(2, 12))
def test_poly_gcd_matches_sympy_gcd(a, b, common, k):
    # a shared factor makes most gcds nontrivial, k an integer content
    common = times(common, k)
    a, b = poly_mul(a, common), poly_mul(b, common)
    ours = sympy_poly(poly_gcd(a, b))
    theirs = sympy.gcd(sympy_poly(a), sympy_poly(b))
    ratio = sympy.cancel(ours / theirs)
    assert ratio.is_Rational and ratio != 0


def test_poly_gcd_evaluates_beyond_the_root_bound():
    # (x - 1)(x^2 - x + 2) and 1 - x take the coprime values 4 and -1 at
    # x = 2, and the lifted candidate 1 divides both: an evaluation point that
    # small misses x - 1, which is why GCDHEU needs xi > 2 + 2*min norm
    x = KEYS[0]
    a = {((x, 3),): 1, ((x, 2),): -2, ((x, 1),): 3, (): -2}
    b = {(): 1, ((x, 1),): -1}
    assert poly_gcd(a, b) == {((x, 1),): 1, (): -1}


@settings(max_examples=30)
@given(polys, polys, polys, st.integers(2, 12))
def test_poly_gcd_past_the_heuristic_size_limit_matches_sympy(a, b, common,
                                                              k):
    # coprime factors of some 16000 bits put the heuristic's images past its
    # size limit, so the subresultant PRS decides these gcds; over Q they
    # change the gcd by a constant only
    common = times(common, k)
    a, b = poly_mul(a, common), poly_mul(b, common)
    ours = sympy_poly(poly_gcd(times(a, 2 ** 16001), times(b, 3 ** 10100)))
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


def assert_canonical(r):
    """Integer coefficients, coprime over ℤ, positive leading denominator
    coefficient in the graded lexicographic order x > y > z."""
    assert all(type(c) is int for c in (*r.num.values(), *r.den.values()))
    num, den = sympy_poly(r.num), sympy_poly(r.den)
    assert sympy.gcd(num, den) in (1, -1)
    assert sympy.Poly(den, *SYMBOLS.values()).LC(order="grlex") > 0


@settings(max_examples=60)
@given(trees(), trees(), trees())
def test_rat_arithmetic_keeps_the_canonical_form(a, b, c):
    # (a + b)·c and a·c + b·c are different trees with one value
    factored, expanded = Mul((Add((a, b)), c)), Add((Mul((a, c)), Mul((b, c))))
    try:
        left, right = to_rat(factored), to_rat(expanded)
        quotient = to_rat(Div(Add((a, Num(Fraction(-1, 3)))), c))
    except ExprError:
        return      # the raw tree divides by zero somewhere
    assert left == right and hash(left) == hash(right)
    powers = () if left.is_zero() else (left ** -2,)
    for r in (left, quotient, to_rat(a), to_rat(b) - to_rat(c), *powers):
        assert_canonical(r)


# ---------------------------------------------------------------------------
# criterion-1 goldens of configs/oscillator.yaml, derived again in sympy
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
F, W = sympy.Function("f"), sympy.Function("w")
NAMES_1 = ("m t tau x1 x2 x1_dot x2_dot x1_tau x2_tau t_tau p1_tau p2_tau "
           "p_tau x1_tau_dot x2_tau_dot t_tau_dot")
S = dict(zip(NAMES_1.split(), sympy.symbols(NAMES_1)))


def golden_expr(text):
    """A rendered golden string ('^' powers, atoms f(.) and w(.)) in sympy."""
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    return parse_expr(text, local_dict={**S, "f": F, "w": W},
                      transformations=standard_transformations
                      + (convert_xor,))


def same(ours, text):
    return sympy.simplify(ours - golden_expr(text)) == 0


def caldirola_kanai(q, qdot, time):
    """L = (m/2f)|q'|^2 - (m w^2/2f)|q|^2 with f = exp(-int eta)."""
    m = S["m"]
    return (m / (2 * F(time)) * sum(u ** 2 for u in qdot)
            - m * W(time) ** 2 / (2 * F(time)) * sum(x ** 2 for x in q))


def test_criterion_1_goldens_match_a_sympy_derivation():
    golden = json.loads(
        (ROOT / "tests" / "goldens" / "oscillator.analysis.json").read_text())
    cfg = yaml.safe_load((ROOT / "configs" / "oscillator.yaml").read_text())

    # original chart: Hessian in (x1_dot, x2_dot)
    velocities = (S["x1_dot"], S["x2_dot"])
    lag = caldirola_kanai((S["x1"], S["x2"]), velocities, S["t"])
    assert same(sympy.hessian(lag, velocities).det(),
                golden["original"]["hessian_det"])

    # extended chart: t becomes t_tau(tau), L_ext = t_tau' L(q, q'/t_tau', t)
    q = (S["x1_tau"], S["x2_tau"])
    qdot = (S["x1_tau_dot"], S["x2_tau_dot"])
    td = S["t_tau_dot"]
    lag_ext = td * caldirola_kanai(q, [u / td for u in qdot], S["t_tau"])
    assert same(sympy.hessian(lag_ext, (*qdot, td)).det(),
                golden["extended"]["hessian_det"])

    # primary constraint: p_tau - dL/dt_tau' with the velocity ratios
    # q'/t_tau' eliminated through p_i = dL/dq_i'
    ratios = sympy.symbols("r1 r2")
    on_ratios = {u: r * td for u, r in zip(qdot, ratios)}
    momenta = (S["p1_tau"], S["p2_tau"])
    solved = sympy.solve([sympy.diff(lag_ext, u).subs(on_ratios) - p
                          for u, p in zip(qdot, momenta)], ratios, dict=True)
    p_t = sympy.diff(lag_ext, td).subs(on_ratios).subs(solved[0])
    phi0 = S["p_tau"] - sympy.simplify(p_t)
    assert same(phi0, golden["extended"]["primaries"][0])

    # gauge t_tau = t0 + (t1 - t0)(tau - tau0)/(tau1 - tau0)
    (tau0, tau1), (t0, t1) = (
        [sympy.Rational(v) for v in cfg["gauge"][k]] for k in ("tau", "t"))
    chi = S["t_tau"] - (t0 + (t1 - t0) / (tau1 - tau0) * (S["tau"] - tau0))
    assert same(chi, golden["gauge"]["eta_gauge"])

    pairs = ((S["x1_tau"], S["p1_tau"]), (S["x2_tau"], S["p2_tau"]),
             (S["t_tau"], S["p_tau"]))

    def poisson(a, b):
        return sum(sympy.diff(a, x) * sympy.diff(b, p)
                   - sympy.diff(a, p) * sympy.diff(b, x) for x, p in pairs)

    phis = (phi0, chi)
    delta = sympy.Matrix(2, 2, lambda i, j: poisson(phis[i], phis[j]))
    c_inv = delta.inv()
    for ours, rows in ((delta, golden["gauge"]["delta"]),
                       (c_inv, golden["gauge"]["c_inverse"])):
        for i, row in enumerate(rows):
            for j, entry in enumerate(golden_expr(row)):
                assert sympy.simplify(ours[i, j] - entry) == 0

    brackets = golden["gauge"]["dirac_brackets"]
    assert len(brackets) == 6
    for key, text in brackets.items():
        a, b = (S[name] for name in key.strip("{}").split(", "))
        dirac = poisson(a, b) - sum(
            poisson(a, phis[i]) * c_inv[i, j] * poisson(phis[j], b)
            for i in range(2) for j in range(2))
        assert same(dirac, text), key
