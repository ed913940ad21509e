"""Expression layer: parsing, normal forms, differentiation, profiles."""

import dataclasses
import gc
import math
import pickle
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phasekit import (
    AtomRegistry,
    DampingFactorProfile,
    EvalError,
    ExprProfile,
    NonFiniteError,
    ParseError,
    TabulatedProfile,
    UnboundVariableError,
    antiderivative,
    atom,
    diff,
    equivalent,
    eval_expr,
    free_symbols,
    is_zero_expr,
    lower,
    num,
    oscillator_registry,
    parse,
    render,
    simplify,
    subst,
    sym,
)
from phasekit._poly import Rat, poly_gcd, poly_mul
from phasekit.expr import (Add, Atom, Div, ExprError, Mul, Num, Pow,
                           SubstitutionError, Sym, _atom_derivative,
                           _poly_tree, _term_tree, atoms_in, const_value,
                           from_rat, to_rat)

from _support import Fixed, constant_registry

VARS = ("x", "y", "z")


def expr_of(text):
    return parse(text, VARS)


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse("x + q", ["x"])


def test_parse_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("x + ", ["x"])
    assert err.value.position >= 3


def test_parse_atom_calls():
    reg = constant_registry()
    e = parse("w(t)^2 * x", ["x", "t"], reg)
    assert atoms_in(e) == {atom("w", "t")}


def test_parse_rejects_unregistered_atom():
    with pytest.raises(ParseError):
        parse("g(t) * x", ["x", "t"], constant_registry())


def test_power_binds_tighter_than_unary_minus():
    assert equivalent(expr_of("-x^2"), simplify(num(-1) * sym("x") ** 2))


def test_fraction_constants_stay_exact():
    e = simplify(expr_of("x/3 + x/6"))
    assert equivalent(e, expr_of("x/2"))


@pytest.mark.parametrize("text", [
    "x + y*z",
    "(x + y)^3/(1 - z)",
    "2*x^2 - (7/4)*y + 1",
    "x*y*z - x/(y + 3)",
])
def test_render_parse_round_trip(text):
    e = simplify(expr_of(text))
    assert equivalent(parse(render(e), VARS), e)


# the normal form is integral inside (x/(2*y) is stored as x over 2*y); the
# rendered tree and the lowered code show the monic-over-Q form, with these
# strings and values recorded before the integral normal form
@pytest.mark.parametrize("text,rendered,values", [
    ("x/(2*y)", "(1/2)*x*y^-1", (0.8333333333333333, -0.875)),
    ("(6*x + 4)/(3*y)", "2*x*y^-1 + (4/3)*y^-1",
     (5.111111111111111, -2.8333333333333335)),
    ("(2*x + 2)/(4*x^2 - 4)", "(1/2)/(x - 1)", (2.0, -0.1111111111111111)),
    ("-x/(-3*y - 6)", "((1/3)*x)/(y + 2)",
     (0.1515151515151515, -0.29166666666666663)),
    ("(3*x^2*y - 6*y)/(9*x*y^2)", "(1/3)*x*y^-1 - (2/3)*x^-1*y^-1",
     (-0.15555555555555556, -0.488095238095238)),
    ("x/(-2)", "-(1/2)*x", (-0.625, 1.75)),
])
def test_integer_content_renders_and_lowers_monic(text, rendered, values):
    e = simplify(parse(text, ["x", "y"]))
    assert render(e) == rendered
    f = lower([e], ["x", "y"])
    assert (f(0.0, (1.25, 0.75))[0], f(0.0, (-3.5, 2.0))[0]) == values


# ---------------------------------------------------------------------------
# simplify: canonical rational normal form
# ---------------------------------------------------------------------------

def test_simplify_cancels_common_factors():
    e = expr_of("(x^2 - y^2)/(x - y)")
    assert equivalent(e, expr_of("x + y"))


def test_simplify_detects_hidden_zero():
    e = expr_of("(x + y)^2 - x^2 - 2*x*y - y^2")
    assert is_zero_expr(e)


def test_simplify_idempotent_on_samples():
    for text in ("x^3/(y*z) - 1", "(x + 1/2)^4", "x*y + y*x"):
        once = simplify(expr_of(text))
        assert simplify(once) == once


coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def poly_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "z", "c"]))
        if leaf == "c":
            return num(Fraction(draw(coeffs), draw(st.integers(1, 3))))
        return sym(leaf)
    op = draw(st.sampled_from(["add", "mul", "pow"]))
    a = draw(poly_exprs(depth=depth + 1))
    if op == "pow":
        return a ** draw(st.integers(0, 3))
    b = draw(poly_exprs(depth=depth + 1))
    return a + b if op == "add" else a * b


@given(poly_exprs(), poly_exprs())
def test_diff_is_additive(a, b):
    assert equivalent(diff(a + b, "x"), simplify(diff(a, "x") + diff(b, "x")))


@given(poly_exprs(), poly_exprs())
def test_diff_product_rule(a, b):
    lhs = diff(a * b, "x")
    rhs = simplify(diff(a, "x") * b + a * diff(b, "x"))
    assert equivalent(lhs, rhs)


@given(poly_exprs(), st.sampled_from(["y + 1", "y/(1 + z^2)"]))
@example(((sym("x") ** 3) ** 3) ** 3, "y + 1")
def test_subst_then_eval_matches_eval(e, image):
    # exact rational values: (y + 1)^27 and the like cancel past any float
    # tolerance, so both sides are compared as constants
    values = {"x": Fraction(37, 100), "y": Fraction(-121, 100),
              "z": Fraction(21, 25)}
    target = parse(image, ["y", "z"])
    shifted = subst(e, {"x": target})
    direct = subst(e, {**values, "x": subst(target, values)})
    assert const_value(subst(shifted, values)) == const_value(direct)


def test_subst_renames_an_atom_argument():
    reg = constant_registry()
    e = parse("w(t)^2*x + t", ["x", "t"], reg)
    assert subst(e, {"t": sym("s")}) == parse("w(s)^2*x + s", ["x", "s"], reg)


def test_subst_refuses_a_composite_atom_argument():
    e = parse("w(t)*x", ["x", "t"], constant_registry())
    with pytest.raises(SubstitutionError, match=r"argument of w\(t\)"):
        subst(e, {"t": parse("s + 1", ["s"])})


def test_diff_matches_central_difference():
    reg = constant_registry(omega=1.3, eta=0.2)
    e = parse("w(t)^2*x^2/f(t) + x*y", ["x", "y", "t"], reg)
    d = diff(e, "x", reg)
    point = {"x": 0.7, "y": -0.4}
    h = 1e-6
    up = eval_expr(e, {**point, "x": point["x"] + h}, time=0.9, registry=reg)
    dn = eval_expr(e, {**point, "x": point["x"] - h}, time=0.9, registry=reg)
    fd = (up - dn) / (2 * h)
    assert eval_expr(d, point, time=0.9, registry=reg) == pytest.approx(
        fd, abs=1e-6)


def test_atom_chain_rule_uses_registered_rule():
    # f carries f' = -eta_fric*f, so d/dt f(t)^2 = -2*eta_fric(t)*f(t)^2
    reg = constant_registry(eta=0.5)
    d = diff(parse("f(t)^2", ["t"], reg), "t", reg)
    expected = parse("-2*eta_fric(t)*f(t)^2", ["t"], reg)
    assert equivalent(d, expected)


@given(poly_exprs())
def test_diff_by_an_absent_variable_is_zero(e):
    assert diff(e, "q") == num(0)


def test_diff_by_an_atom_argument_is_not_skipped():
    reg = constant_registry(eta=0.5)
    e = parse("x*f(t)", ["x", "t"], reg)
    assert equivalent(diff(e, "t", reg),
                      parse("-x*eta_fric(t)*f(t)", ["x", "t"], reg))


def test_diff_still_rejects_a_zero_denominator():
    # parse would already refuse this text, so build the raw tree
    e = Div(sym("Q1"), sym("Q1") - sym("Q1"))
    for v in ("P1", "Q1"):
        with pytest.raises(ExprError, match="division by a zero expression"):
            diff(e, v)


# monomial keys as the normal form stores them: symbols and atoms
_POLY_KEYS = ((0, "x"), (0, "y"), (0, "z"), (1, "f", 0, "t"), (1, "w", 1, "t"))
_monos = st.tuples(*[st.integers(0, 3)] * len(_POLY_KEYS)).map(
    lambda exps: tuple((k, e) for k, e in zip(_POLY_KEYS, exps) if e))
raw_polys = st.dictionaries(_monos, st.integers(-9, 9).filter(bool),
                            max_size=10)


def mono_cmp(a, b) -> int:
    """Graded lexicographic order on sparse monomials, sorted tuples of
    ``(key, exponent)`` pairs."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
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


def _vector(mono, keys):
    exps = dict(mono)
    row = [exps.get(k, 0) for k in keys]
    return (sum(row), *row)


@given(raw_polys, st.integers(1, 6))
def test_poly_tree_orders_terms_as_mono_cmp(p, scale):
    # the reference sorts by the graded lexicographic comparison itself
    items = sorted(p.items(), key=cmp_to_key(lambda a, b: mono_cmp(a[0], b[0])),
                   reverse=True)
    terms = [_term_tree(Fraction(c, scale), m) for m, c in items]
    expected = (Num(Fraction(0)) if not terms else terms[0]
                if len(terms) == 1 else Add(tuple(terms)))
    vectors = {_vector(m, _POLY_KEYS): c for m, c in p.items()}
    assert _poly_tree(vectors, _POLY_KEYS, scale) == expected


# f carries a registered rule, w does not, and atoms of order 1 never do
ATOMS = (atom("f", "t"), atom("w", "t"), atom("f", "t", 1), atom("w", "t", 1),
         atom("f", "s"))


@st.composite
def atom_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "t", "s", "atom", "c"]))
        if leaf == "c":
            return num(Fraction(draw(coeffs), draw(st.integers(1, 3))))
        return draw(st.sampled_from(ATOMS)) if leaf == "atom" else sym(leaf)
    op = draw(st.sampled_from(["add", "mul", "div", "pow"]))
    a = draw(atom_exprs(depth=depth + 1))
    if op == "pow":
        return Pow(a, draw(st.integers(-2, 3)))
    b = draw(atom_exprs(depth=depth + 1))
    return Add((a, b)) if op == "add" else Mul((a, b)) if op == "mul" \
        else Div(a, b)


def _diff(e, v, reg):
    """Product- and quotient-rule derivative of a raw tree, unsimplified."""
    if isinstance(e, Num):
        return num(0)
    if isinstance(e, Sym):
        return num(1 if isinstance(v, str) and e.name == v else 0)
    if isinstance(e, Atom):
        if isinstance(v, Atom):
            return num(1 if e == v else 0)
        return _atom_derivative(e, reg) if e.arg == v else num(0)
    if isinstance(e, Add):
        return Add(tuple(_diff(t, v, reg) for t in e.terms))
    if isinstance(e, Mul):
        return Add(tuple(
            Mul(e.factors[:i] + (_diff(f, v, reg),) + e.factors[i + 1:])
            for i, f in enumerate(e.factors)))
    if isinstance(e, Pow):
        if e.exp == 0:
            return Mul((num(0), e))    # zero where the base is defined
        return Mul((num(e.exp), Pow(e.base, e.exp - 1),
                    _diff(e.base, v, reg)))
    da, db = _diff(e.num, v, reg), _diff(e.den, v, reg)
    return Div(Add((Mul((da, e.den)), Mul((num(-1), e.num, db)))),
               Pow(e.den, 2))


@settings(max_examples=300)
@given(atom_exprs(),
       st.sampled_from(["x", "t", "s", "q", *ATOMS]),
       st.sampled_from([None, constant_registry()]))
def test_diff_on_the_normal_form_matches_the_tree_rules(e, v, reg):
    # oracle: product/quotient-rule tree of the raw expression, simplified
    try:
        expected = simplify(_diff(e, v, reg))
    except ExprError:
        with pytest.raises(ExprError):
            diff(e, v, reg)
        return
    got = diff(e, v, reg)
    assert got == expected
    assert render(got) == render(expected)
    # the attached Rat is the normal form of the tree it sits on
    assert to_rat(got) == to_rat(expected) == to_rat(dataclasses.replace(got))


def test_from_rat_attaches_its_rat():
    r = to_rat(expr_of("(x^2 - y)/(x + z) + 3*y"))
    node = from_rat(r)
    assert to_rat(node) is r
    assert simplify(node) is node


def test_attached_rat_leaves_equality_hash_and_replace_alone():
    node = expr_of("x*y + 2/z")
    bare = dataclasses.replace(node)
    assert bare == node and hash(bare) == hash(node)
    assert repr(bare) == repr(node) and "_rat" not in repr(node)
    assert "_rat" not in {f.name for f in dataclasses.fields(node)}
    assert "_rat" not in vars(bare)
    assert to_rat(bare) == to_rat(node)
    assert {node: 1}[bare] == 1


@given(atom_exprs())
def test_normal_form_keys_are_sorted_and_all_occur(e):
    try:
        r = to_rat(e)
    except ExprError:
        assume(False)
    assert r.keys == tuple(sorted(set(r.keys)))
    for i in range(1, len(r.keys) + 1):
        assert any(v[i] for v in (*r.num, *r.den))


@pytest.mark.parametrize("tree, reduced", [
    (Add((sym("x"), sym("y"), Mul((num(-1), sym("y"))))), sym("x")),
    (Div(Mul((sym("x"), sym("y"))), sym("y")), sym("x")),
    (Add((Pow(Add((sym("x"), sym("y"))), 2), Mul((num(-1), Pow(sym("y"), 2))),
          Mul((num(-2), sym("x"), sym("y"))))), Pow(sym("x"), 2)),
])
def test_cancelled_variables_leave_the_keys(tree, reduced):
    r, expected = to_rat(tree), to_rat(reduced)
    assert r.keys == ((0, "x"),)
    assert r == expected and hash(r) == hash(expected)


def test_to_rat_folds_from_the_first_operand(monkeypatch):
    # a sum or product starts from its first operand's form, not from a
    # constant 0 or 1 that the first operand is then combined with
    built = []
    real = Rat.const
    monkeypatch.setattr(Rat, "const",
                        staticmethod(lambda c: built.append(c) or real(c)))
    r = to_rat(Add((Mul((sym("x"), sym("y"))), sym("z"))))
    assert built == []
    assert r == to_rat(expr_of("x*y + z"))
    assert to_rat(Add(())) == real(0) and to_rat(Mul(())) == real(1)
    assert built == [0, 1]


_pairs = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.integers(-9, 9).filter(bool), min_size=1,
                         max_size=4)


def _as_vectors(p, zero_column):
    """Exponent pairs as vectors over two keys, or over three keys with a
    middle key that no term has."""
    if zero_column:
        return {(a + b, a, 0, b): c for (a, b), c in p.items()}
    return {(a + b, a, b): c for (a, b), c in p.items()}


@given(_pairs, _pairs, _pairs)
def test_poly_gcd_ignores_an_all_zero_column(a, b, common):
    def gcd_of(zero_column):
        c = _as_vectors(common, zero_column)
        return poly_gcd(poly_mul(_as_vectors(a, zero_column), c),
                        poly_mul(_as_vectors(b, zero_column), c))
    wide = gcd_of(True)
    assert all(not v[2] for v in wide)
    assert {(d, x, y): c for (d, x, _, y), c in wide.items()} == gcd_of(False)


def test_canonical_node_survives_pickle():
    reg = constant_registry()
    node = parse("m*w(t)^2*x/f(t) - x^3", ["m", "x", "t"], reg)
    clone = pickle.loads(pickle.dumps(node))
    assert clone == node and render(clone) == render(node)
    assert vars(clone)["_rat"] == to_rat(node)
    assert to_rat(clone) == to_rat(dataclasses.replace(node))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_missing_variable_raises():
    with pytest.raises(UnboundVariableError):
        eval_expr(expr_of("x + y"), {"x": 1.0})


def test_eval_division_by_zero_raises():
    with pytest.raises(EvalError):
        eval_expr(expr_of("1/x"), {"x": 0.0})


def test_eval_nonfinite_guard():
    with pytest.raises(NonFiniteError):
        eval_expr(expr_of("x^9"), {"x": 1e200})


def test_eval_expr_binds_atoms_directly():
    # a bound atom needs neither a registry nor a value for its argument
    reg = constant_registry()
    e = parse("w(t)*x", ["x", "t"], reg)
    value = eval_expr(e, {"x": 2.0, atom("w", "t"): 3.0})
    assert value == pytest.approx(6.0)


def exponential(rate):
    return ExprProfile(num(1), num(rate) * sym("t"))


@pytest.mark.parametrize("argument", ["t", "t_tau"])
def test_lower_inlines_closed_form_profiles_bit_for_bit(argument):
    # -0.1 catches a constant emitted without parentheses: -0.1 ** 2 is -0.01
    rates = {"e1": -0.1, "e2": -1.7, "e3": 0.3}
    profiles = {"c": ExprProfile(num(-2.5)),
                **{name: exponential(rate) for name, rate in rates.items()}}
    reg = AtomRegistry()
    for name, profile in profiles.items():
        reg.register(name, profile=profile)
    atoms = [atom(name, argument, order)
             for name in profiles for order in range(4)]
    # t_tau is the extended run's time coordinate, a slot of the state
    fn = lower(atoms, () if argument == "t" else (argument,), reg)
    assert not any(name.startswith("_profile") for name in fn.__globals__)
    for t in (-3.3, 0.0, 0.7, 9.25):
        values = fn(t, ()) if argument == "t" else fn(None, (t,))
        assert values == tuple(profiles[a.name].value(a.order, t)
                               for a in atoms)
        closed = [(-2.5 if a.order == 0 else 0.0) if a.name == "c"
                  else rates[a.name] ** a.order * math.exp(rates[a.name] * t)
                  for a in atoms]
        assert values == pytest.approx(closed, rel=1e-15)


@pytest.mark.parametrize("profile", [
    Fixed(math.inf), Fixed(math.nan), Fixed(-math.inf), Fixed(1e308)])
def test_non_finite_profiles_raise_non_finite_error(profile):
    # the called value, or its product with x, is not finite
    reg = AtomRegistry()
    reg.register("g", profile=profile)
    with pytest.raises(NonFiniteError):
        eval_expr(parse("g(t) * x", ["x", "t"], reg), {"x": 10.0}, time=0.5,
                  registry=reg)


def test_closed_form_profile_overflow_raises_non_finite_error():
    reg = AtomRegistry()
    reg.register("g", profile=exponential(1000))
    e = parse("g(t) * x", ["x", "t"], reg)
    assert eval_expr(e, {"x": 1.0}, time=0.5, registry=reg) == \
        pytest.approx(math.exp(500), rel=1e-15)
    with pytest.raises(NonFiniteError, match="overflow during evaluation"):
        eval_expr(e, {"x": 1.0}, time=1.0, registry=reg)
    # an exact constant past the float range fails where it is written in
    with pytest.raises(NonFiniteError, match="overflows a float"):
        ExprProfile(num(10 ** 400)).value(0, 0.0)


def test_lower_rejects_a_non_finite_parameter():
    with pytest.raises(NonFiniteError):
        lower([parse("a * x", ["x", "a"])], ("x",), params={"a": math.nan})


def test_eval_expr_handles_deep_raw_trees():
    # 150 levels of Add(Mul(...)) nest 300 parentheses in a single
    # expression, past the parser's limit of 200
    e = sym("x")
    for _ in range(150):
        e = Add((Mul((num(Fraction(1, 2)), e)), sym("y")))
    exact = Fraction(2) - Fraction(1, 2 ** 150)       # x = y = 1
    assert eval_expr(e, {"x": 1.0, "y": 1.0}) == pytest.approx(
        float(exact), rel=1e-15)


# integer constants keep + * ^ exact in binary floating point at dyadic
# points, so only division rounds
@st.composite
def rational_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "z", "c"]))
        return num(draw(coeffs)) if leaf == "c" else sym(leaf)
    op = draw(st.sampled_from(["add", "mul", "div", "pow"]))
    a = draw(rational_exprs(depth=depth + 1))
    if op == "pow":
        return a ** draw(st.integers(-2, 2))
    b = draw(rational_exprs(depth=depth + 1))
    return Add((a, b)) if op == "add" else Mul((a, b)) if op == "mul" \
        else Div(a, b)


def _poly_at(poly, keys, point) -> Fraction:
    total = Fraction(0)
    for vector, coeff in poly.items():
        term = Fraction(coeff)
        for (_, name), exp in zip(keys, vector[1:]):
            term *= point[name] ** exp
        total += term
    return total


dyadics = st.integers(-16, 16).map(lambda k: Fraction(k, 8))


@given(rational_exprs(), st.fixed_dictionaries({v: dyadics for v in VARS}))
def test_eval_expr_matches_exact_rational_value(e, point):
    # oracle: the exact normal form evaluated in Fraction arithmetic
    try:
        r = to_rat(e)
    except ExprError:
        assume(False)
    den = _poly_at(r.den, r.keys, point)
    assume(den != 0)
    exact = float(_poly_at(r.num, r.keys, point) / den)
    try:
        value = eval_expr(e, {k: float(v) for k, v in point.items()})
    except NonFiniteError:
        # the raw tree divides by zero where its normal form cancels
        assume(False)
    assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# forward differentiation: lower(..., wrt=...) against lower of diff
# ---------------------------------------------------------------------------

def jet_and_reference(e, y, wrt=VARS):
    """lower(wrt=...) of a tree, and lower of its exact partials."""
    jet = lower([e], VARS, time_var=None, wrt=wrt)
    reference = lower([e] + [diff(e, v) for v in wrt], VARS, time_var=None)
    return jet(None, y), reference(None, y)


def test_lower_tangent_of_a_zeroth_power_is_zero_at_base_zero():
    # a raw (x - 1)^0: no tangent is written, so no (x - 1) ** -1 runs
    e = Pow(Add((sym("x"), num(-1))), 0)
    jet, reference = jet_and_reference(e, [1.0, 0.5, 0.25])
    assert jet == reference == (1.0, 0.0, 0.0, 0.0)


def test_lower_tangent_of_a_negative_power():
    e = Pow(Add((sym("x"), sym("y"))), -2)
    jet, reference = jet_and_reference(e, [0.25, 0.25, 3.0])
    assert jet == reference == (4.0, -16.0, -16.0, 0.0)
    # at base zero the value and its tangent both divide by zero
    f = lower([e], VARS, time_var=None, wrt=VARS)
    with pytest.raises(ZeroDivisionError):
        f(None, [0.5, -0.5, 3.0])


def test_lower_tangent_of_a_quotient():
    # x*y/(y + z): partials y/(y+z), x*z/(y+z)^2 and -x*y/(y+z)^2
    e = Div(Mul((sym("x"), sym("y"))), Add((sym("y"), sym("z"))))
    jet, reference = jet_and_reference(e, [0.5, 2.0, -0.75])
    closed = (0.8, 1.6, -0.24, -0.64)
    assert jet == pytest.approx(closed, rel=1e-15)
    assert jet == pytest.approx(reference, rel=1e-15)


def test_lower_writes_no_zero_tangent():
    e = expr_of("x*y + x^2")
    plain = lower([e], VARS, time_var=None)
    by_z = lower([e], VARS, time_var=None, wrt=("z",))
    assert by_z(None, [1.0, 2.0, 3.0]) == plain(None, [1.0, 2.0, 3.0]) + (0.0,)
    # the same locals: nothing was assigned for the zero tangent
    assert by_z.__code__.co_varnames == plain.__code__.co_varnames


def test_lower_refuses_to_differentiate_an_atom():
    g = atom("g", "t")
    with pytest.raises(EvalError, match="cannot be differentiated"):
        lower([Mul((g, sym("x")))], ("x", g), time_var=None, wrt=("x",))


def test_lower_cuts_wide_chains_without_changing_a_bit():
    # one line of 5000 operands would exhaust the compiler's recursion; the
    # cut keeps Python's left-to-right order, so every float is the same
    inputs = [f"v{i}" for i in range(5000)]
    y = [1.0 + math.sin(i) / 64 for i in range(5000)]
    operands = tuple(map(sym, inputs))
    total, product = 0.0, 1.0
    for v in y:
        total += v
        product *= v
    f = lower([Add(operands), Mul(operands)], inputs, time_var=None)
    assert f(None, y) == (total, product)


def test_lower_differentiates_a_polynomial_of_3321_terms():
    e = simplify(expr_of("(x + y + 1)^80"))
    assert len(e.terms) == 3321
    f = lower([e], ("x", "y"), time_var=None, wrt=("x", "y"))
    value, dx, dy = f(None, [0.001, 0.002])
    assert value == pytest.approx(1.003 ** 80, rel=1e-12)
    slope = pytest.approx(80 * 1.003 ** 79, rel=1e-12)
    assert dx == slope and dy == slope


@pytest.mark.parametrize("case", ["jet", "closed-form profile"])
def test_lower_leaves_no_reference_cycle(case):
    # the generated function is not kept in its own globals, and the
    # emitter's closures, which call each other, do not outlive the call:
    # what lower leaves behind is freed by reference counting alone
    reg = AtomRegistry()
    reg.register("g", profile=exponential(-0.5))
    if case == "jet":
        args = ([expr_of("x*y/(y + z) + x^3")], VARS)
        kwargs = dict(time_var=None, wrt=VARS)
    else:
        args = ([parse("g(t) * x + x^2", ["x", "t"], reg)], ("x",), reg)
        kwargs = {}
    lower(*args, **kwargs)
    gc.collect()
    gc.disable()
    try:
        lower(*args, **kwargs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(rational_exprs(), st.fixed_dictionaries(
    {v: st.integers(-16, 16).map(lambda k: k / 8) for v in VARS}))
def test_lower_tangents_match_lowered_partials(e, point):
    # raw trees with quotients and powers from -2 to 2, 0 included
    y = [point[v] for v in VARS]
    try:
        jet, reference = jet_and_reference(e, y)
    except (ExprError, ZeroDivisionError):
        # a zero normal form, or a pole of the tree or of its normal form
        assume(False)
    for a, b in zip(jet, reference):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# lower against a reference emitter without value numbering or folding
# ---------------------------------------------------------------------------

def reference_lower(exprs, inputs, registry=None, params=None, time_var="t",
                    wrt=()):
    """``lower`` as it was before value numbering: one assignment per
    operation, no literal folded, an ExprProfile's exp inside its product."""
    slots = {key: i for i, key in enumerate(inputs)}
    seeds = {name: {j: "1.0"} for j, name in enumerate(wrt)}
    params = params or {}
    glb = {"_exp": math.exp}
    lines, atom_calls = [], {}

    def constant(value):
        x = float(value)
        if not math.isfinite(x):
            raise NonFiniteError(f"constant {value} is not finite")
        return f"({x!r})"

    def symbol(name):
        if name in slots:
            return f"y[{slots[name]}]"
        if name in params:
            return constant(params[name])
        if name == time_var:
            return "t"
        raise UnboundVariableError(f"variable '{name}' is not bound")

    def assign(code):
        lines.append(f"    _{len(lines)} = {code}\n")
        return f"_{len(lines) - 1}"

    def tangents(terms):
        return {j: ts[0] if len(ts) == 1 and " " not in ts[0]
                else assign(" + ".join(ts)) for j, ts in terms.items()}

    def times(*factors):
        return " * ".join(f for f in factors if f != "1.0") or "1.0"

    def profile(e):
        p = registry.profile(e.name)
        if isinstance(p, ExprProfile):
            g = emit(p.factor(e.order), e.arg)[0]
            if is_zero_expr(p.exponent):
                return g
            return assign(f"{g} * _exp({emit(p.exponent, e.arg)[0]})")
        glb[f"_profile_{len(glb)}"] = p.value
        return assign(f"_profile_{len(glb) - 1}({e.order}, {symbol(e.arg)})")

    def emit(e, arg=None):
        if isinstance(e, Num):
            return constant(e.value), {}
        if isinstance(e, Sym):
            if arg is None:
                return symbol(e.name), seeds.get(e.name, {})
            return symbol(arg), {}
        if isinstance(e, Atom):
            if seeds:
                raise EvalError(f"atom '{e.name}' cannot be differentiated")
            if e not in atom_calls:
                atom_calls[e] = profile(e)
            return atom_calls[e], {}
        if isinstance(e, (Add, Mul)):
            add = isinstance(e, Add)
            parts = [emit(f, arg) for f in (e.terms if add else e.factors)]
            names = [v for v, _ in parts]
            terms = {}
            for k, (_, d) in enumerate(parts):
                for j, dv in d.items():
                    terms.setdefault(j, []).append(
                        dv if add else times(*names[:k], *names[k + 1:], dv))
            value = assign((" + " if add else " * ").join(names)
                           or ("0.0" if add else "1.0"))
            return value, tangents(terms)
        if isinstance(e, Pow):
            b, d = emit(e.base, arg)
            value = assign(f"{b} ** {e.exp}")
            slope = "1.0" if e.exp == 1 else f"{e.exp} * {b} ** {e.exp - 1}"
            return value, tangents({j: [times(slope, dv)]
                                    for j, dv in d.items() if e.exp})
        (a, da), (b, db) = emit(e.num, arg), emit(e.den, arg)
        value = assign(f"{a} / {b}")
        out = {}
        for j in sorted(da.keys() | db.keys()):
            minus = f" - {times(value, db[j])}" if j in db else ""
            out[j] = assign(f"({da.get(j, '')}{minus}) / {b}")
        return value, out

    results = [emit(e) for e in exprs]
    outputs = [v for v, _ in results] + [
        d.get(j, "0.0") for _, d in results for j in range(len(wrt))]
    source = ("def _lowered(t, y):\n" + "".join(lines)
              + f"    return ({''.join(r + ', ' for r in outputs)})\n")
    exec(source, glb)
    return glb["_lowered"]


def _registry_with_every_profile_kind():
    # exp(-t/2), exp(t²) (which overflows for |t| past 26.6), t·exp(-t/2)
    # and a profile that is called
    reg = AtomRegistry()
    reg.register("f", profile=ExprProfile(num(1), parse("-t/2", ["t"])))
    reg.register("e", profile=ExprProfile(num(1), parse("t^2", ["t"])))
    reg.register("g", profile=ExprProfile(sym("t"), parse("-t/2", ["t"])))
    reg.register("k", profile=Fixed(0.5))
    return reg


EVERY_PROFILE = _registry_with_every_profile_kind()
OVERFLOWING = Pow(num(1e200), 2)       # (1e+200) ** 2 raises OverflowError
POLE = Pow(Add((num(1), num(-1))), -1)  # (1.0) + (-1.0), then ** -1


@st.composite
def emitter_exprs(draw, depth=0):
    # small pools of leaves, so equal code strings come up often
    if depth >= 4 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.sampled_from(["var", "var", "c", "c", "atom", "odd"]))
        if leaf == "var":
            return sym(draw(st.sampled_from(["x", "y", "z", "t"])))
        if leaf == "c":
            return num(draw(st.sampled_from(
                [0, 1, -1, Fraction(1, 2), Fraction(-3, 7), 3, 0.5852])))
        if leaf == "atom":
            return atom(draw(st.sampled_from("fegk")), "t",
                        draw(st.integers(0, 2)))
        return draw(st.sampled_from([OVERFLOWING, POLE]))
    op = draw(st.sampled_from(["add", "mul", "div", "pow", "twice"]))
    a = draw(emitter_exprs(depth=depth + 1))
    if op == "pow":
        return Pow(a, draw(st.integers(-2, 3)))
    if op == "twice":
        return draw(st.sampled_from([Add, Mul]))((a, a))
    b = draw(emitter_exprs(depth=depth + 1))
    return {"add": lambda: Add((a, b)), "mul": lambda: Mul((a, b)),
            "div": lambda: Div(a, b)}[op]()


def _outcome(make, *point):
    """Where it failed and the exception's class, or the values by repr
    (-0.0 and nan included)."""
    try:
        fn = make()
    except ExprError as exc:
        return "lower", type(exc)
    try:
        return "run", tuple(map(repr, fn(*point)))
    except ArithmeticError as exc:
        return "run", type(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(emitter_exprs(), min_size=1, max_size=3),
       st.sampled_from([(), ("x",), ("y", "x"), VARS]),
       st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 30.0]),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.75, 2.0]),
                min_size=3, max_size=3))
@example([OVERFLOWING], (), 0.0, [1.0, 1.0, 1.0])
@example([Mul((sym("x"), num(0)))], ("x",), 0.0, [-0.5, 1.0, 1.0])   # -0.0
@example([Mul((sym("x"), POLE))], ("x",), 0.0, [1.0, 1.0, 1.0])
@example([Div(sym("x"), Add((sym("y"), num(-1))))], VARS, 0.0, [1.0, 1.0, 2.0])
@example([Add((atom("e", "t"), atom("e", "t", 1)))], (), 30.0, [0.0] * 3)
def test_lower_equals_the_reference_emitter(exprs, wrt, t, y):
    # atoms raise at lowering when wrt is not empty, in both
    args = (exprs, VARS, EVERY_PROFILE, None, "t", wrt)
    lowered = _outcome(lambda: lower(*args), t, y)
    assert lowered == _outcome(lambda: reference_lower(*args), t, y)
    if exprs[0] in (OVERFLOWING, POLE) and lowered[0] == "run":
        assert lowered[1] in (OverflowError, ZeroDivisionError)


def test_free_symbols_sees_atom_arguments():
    reg = constant_registry()
    e = parse("w(t_tau)^2 * x1", ["x1", "t_tau"], reg)
    assert "t_tau" in free_symbols(e)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_constant_profile_orders():
    p = ExprProfile(num(2.5))
    assert p.value(0, 1.7) == 2.5
    assert p.value(1, 1.7) == 0.0


def test_exponential_profile_derivatives():
    p = exponential(-0.3)
    for order in range(3):
        assert p.value(order, 1.1) == pytest.approx(
            (-0.3) ** order * math.exp(-0.3 * 1.1), rel=1e-15)
    # t·exp(-0.3 t): g_1 = 1 - 0.3 t and g_2 = -0.6 + 0.09 t
    p = ExprProfile(sym("t"), num(-0.3) * sym("t"))
    for order, g in enumerate((1.1, 1 - 0.33, -0.6 + 0.099)):
        assert p.value(order, 1.1) == pytest.approx(
            g * math.exp(-0.3 * 1.1), rel=1e-14)


def test_tabulated_profile_matches_dense_samples():
    ts = np.linspace(0.0, 5.0, 200)
    p = TabulatedProfile(ts, np.sin(ts))
    assert p.value(0, 2.3) == pytest.approx(math.sin(2.3), abs=1e-7)
    assert p.value(1, 2.3) == pytest.approx(math.cos(2.3), abs=1e-5)


def test_tabulated_profile_needs_enough_samples():
    with pytest.raises(Exception):
        TabulatedProfile([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


def test_expr_profile_evaluates_expression():
    p = ExprProfile(parse("t^2 + 1", ["t"]))
    assert p.value(0, 3.0) == pytest.approx(10.0)
    assert p.value(1, 3.0) == pytest.approx(6.0)


def damping_factor(friction, span=None):
    return oscillator_registry(friction, ExprProfile(num(2)),
                               span).profile("f")


def test_damping_factor_matches_closed_form():
    # constant friction: f(t) = exp(-eta*t)
    eta = 0.4
    p = damping_factor(ExprProfile(parse("0.4", ["t"])), (0.0, 10.0))
    assert isinstance(p, ExprProfile)
    for t in (0.0, 1.7, 9.5):
        assert p.value(0, t) == pytest.approx(math.exp(-eta * t), rel=1e-15)
        assert p.value(1, t) == pytest.approx(
            -eta * math.exp(-eta * t), rel=1e-15)


def test_damping_factor_is_exact_for_polynomial_friction():
    # eta = 0.1 + 0.02 t integrates in closed form: no span, no spline
    p = damping_factor(ExprProfile(parse("0.1 + 0.02*t", ["t"])))
    assert isinstance(p, ExprProfile)
    for t in np.linspace(0.0, 10.0, 41):
        f = math.exp(-(0.1 * t + 0.01 * t * t))
        eta = 0.1 + 0.02 * t
        for order, want in enumerate((f, -eta * f, (eta * eta - 0.02) * f)):
            assert p.value(order, t) == pytest.approx(want, rel=1e-12)


def test_damping_factor_spline_without_closed_form():
    # t in the denominator: f = exp(-ln(1 + t)) = 1/(1 + t) by spline
    eta = ExprProfile(parse("1/(1 + t)", ["t"]))
    p = damping_factor(eta, (0.0, 10.0))
    assert isinstance(p, DampingFactorProfile)
    for t in np.linspace(0.0, 10.0, 41):
        assert abs(p.value(0, t) - 1.0 / (1.0 + t)) < 1e-8
    with pytest.raises(ValueError, match="needs a span"):
        damping_factor(eta)
    # so does a friction with an exponent: eta = 0.1 exp(-t) gives
    # f = exp(-0.1 (1 - exp(-t)))
    p = damping_factor(ExprProfile(num(0.1), -sym("t")), (0.0, 10.0))
    assert isinstance(p, DampingFactorProfile)
    for t in np.linspace(0.0, 10.0, 41):
        assert abs(p.value(0, t) - math.exp(-0.1 * (1 - math.exp(-t)))) < 1e-8
    # a table takes the same route and stays inside its own span
    ts = np.linspace(0.0, 10.0, 11)
    table = DampingFactorProfile(TabulatedProfile(ts, 0.1 + 0.02 * ts),
                                 (0.0, 10.0))
    assert table.value(0, 7.3) == pytest.approx(
        math.exp(-(0.73 + 0.01 * 7.3 ** 2)), rel=1e-9)
    with pytest.raises(EvalError, match="outside damping-factor span"):
        table.value(0, 10.5)


def test_antiderivative_only_when_the_denominator_is_free_of_the_variable():
    e = parse("3*t^2 + x*t/(1 + y)", ["t", "x", "y"])
    got = antiderivative(e, "t")
    assert equivalent(got, parse("t^3 + x*t^2/(2*(1 + y))", ["t", "x", "y"]))
    assert equivalent(diff(got, "t"), e)
    assert antiderivative(parse("1/(1 + t)", ["t"]), "t") is None
    reg = constant_registry()
    assert antiderivative(parse("w(t)", ["t"], reg), "t") is None
    assert equivalent(antiderivative(parse("w(s)", ["t", "s"], reg), "t"),
                      parse("t*w(s)", ["t", "s"], reg))


def test_registry_rejects_unknown_profile_request():
    reg = AtomRegistry()
    reg.register("w")
    with pytest.raises(Exception):
        reg.profile("nope")
