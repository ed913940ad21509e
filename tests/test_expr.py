"""Expression layer: parsing, normal forms, differentiation, profiles."""

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from phasekit.expr import (Add, Atom, Div, ExprError, Mul, Num, Pow,
                           SubstitutionError, Sym, _atom_derivative, atoms_in,
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
def test_subst_then_eval_matches_eval(e, image):
    values = {"x": 0.37, "y": -1.21, "z": 0.84}
    target = parse(image, ["y", "z"])
    shifted = subst(e, {"x": target})
    direct = eval_expr(e, {**values, "x": eval_expr(target, values)})
    assert eval_expr(shifted, values) == pytest.approx(direct, abs=1e-9)


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


def _poly_at(poly, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = Fraction(coeff)
        for (_, name), exp in mono:
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
    den = _poly_at(r.den, point)
    assume(den != 0)
    exact = float(_poly_at(r.num, point) / den)
    try:
        value = eval_expr(e, {k: float(v) for k, v in point.items()})
    except NonFiniteError:
        # the raw tree divides by zero where its normal form cancels
        assume(False)
    assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))


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
