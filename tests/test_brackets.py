"""Poisson and Dirac brackets, constraint classification, the Delta matrix."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    EXTENDED_CHART,
    ORIGINAL_CHART,
    BracketError,
    ChartMismatchError,
    ConstraintSet,
    GaugeSpec,
    SingularDeltaError,
    constraint_matrix,
    diff,
    dirac,
    equivalent,
    eval_expr,
    extended_oscillator,
    free_symbols,
    hamilton_eom,
    is_zero_expr,
    legendre,
    num,
    parse,
    poisson,
    simplify,
    subst,
    sym,
)
from phasekit import brackets
from phasekit.brackets import _surface_map, _weakly_zero
from phasekit.expr import Chart, SubstitutionError, is_const_expr

from _support import constant_registry

EXT_VARS = EXTENDED_CHART.variables


@pytest.fixture(scope="module")
def gauged_system():
    """Primary constraint of the reparametrized oscillator plus its gauge."""
    registry = constant_registry(omega=2.0, eta=0.1)
    model = extended_oscillator()
    phi = legendre(model).primaries[0]
    gauge = GaugeSpec((0.0, 1.0, 0.0, 10.0))
    cs = ConstraintSet(primaries=(phi,), gauge=gauge)
    cm = constraint_matrix(cs.all_constraints(), EXTENDED_CHART,
                           registry=registry)
    return registry, phi, gauge, cm


@pytest.fixture(scope="module")
def curved_system():
    """Two second-class constraints whose Delta depends on the state."""
    registry = constant_registry(omega=2.0, eta=0.1)
    constraints = [parse(t, EXT_VARS, registry) for t in (
        "x1_tau*w(t_tau) - p2_tau", "p1_tau + x2_tau^2")]
    cm = constraint_matrix(constraints, EXTENDED_CHART, registry=registry)
    assert not is_const_expr(cm.delta[0][1])
    return registry, cm


@st.composite
def chart_polys(draw):
    """Small random polynomial text over the extended chart, with atoms."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = Fraction(draw(st.integers(-8, 8)) or 3, draw(st.integers(1, 4)))
        factors = [f"{draw(st.sampled_from(EXT_VARS))}^{draw(st.integers(1, 2))}"
                   for _ in range(draw(st.integers(1, 2)))]
        if draw(st.booleans()):
            factors.append(draw(st.sampled_from(["f(t_tau)", "w(t_tau)"])))
        terms.append(f"({c})*" + "*".join(factors))
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------

def test_canonical_pairs():
    for chart in (ORIGINAL_CHART, EXTENDED_CHART):
        for q, p in chart.pairs:
            assert equivalent(poisson(sym(q), sym(p), chart), num(1))
            assert is_zero_expr(poisson(sym(q), sym(q), chart))
            assert is_zero_expr(poisson(sym(p), sym(p), chart))


def test_cross_pairs_vanish():
    assert is_zero_expr(poisson(sym("x1"), sym("p2"), ORIGINAL_CHART))
    assert is_zero_expr(poisson(sym("t_tau"), sym("p1_tau"), EXTENDED_CHART))


def _samples(registry):
    texts = (
        "x1_tau^2*p2_tau - t_tau",
        "p_tau*f(t_tau) + x2_tau",
        "w(t_tau)^2*x1_tau*x2_tau + p1_tau^3",
    )
    return [parse(t, EXT_VARS, registry) for t in texts]


def test_antisymmetry_symbolic():
    registry = constant_registry()
    f, g, h = _samples(registry)
    for a, b in ((f, g), (g, h), (f, h)):
        lhs = poisson(a, b, EXTENDED_CHART, registry)
        rhs = poisson(b, a, EXTENDED_CHART, registry)
        assert is_zero_expr(simplify(lhs + rhs))


def test_bilinearity_symbolic():
    registry = constant_registry()
    f, g, h = _samples(registry)
    lhs = poisson(simplify(num(3) * f + g), h, EXTENDED_CHART, registry)
    rhs = simplify(
        num(3) * poisson(f, h, EXTENDED_CHART, registry)
        + poisson(g, h, EXTENDED_CHART, registry)
    )
    assert equivalent(lhs, rhs)


def test_leibniz_symbolic():
    registry = constant_registry()
    f, g, h = _samples(registry)
    lhs = poisson(f, simplify(g * h), EXTENDED_CHART, registry)
    rhs = simplify(
        poisson(f, g, EXTENDED_CHART, registry) * h
        + g * poisson(f, h, EXTENDED_CHART, registry)
    )
    assert equivalent(lhs, rhs)


def test_jacobi_numeric_spot_check():
    registry = constant_registry(omega=1.7, eta=0.3)
    rng = np.random.default_rng(6)
    f, g, h = _samples(registry)

    def pb(a, b):
        return poisson(a, b, EXTENDED_CHART, registry)

    cyclic = simplify(pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g)))
    for _ in range(5):
        point = {v: float(rng.uniform(-1, 1)) for v in EXT_VARS}
        value = eval_expr(cyclic, point, registry=registry)
        assert abs(value) < 1e-9


def test_params_whitelist_enforced():
    e = parse("m*x1 + t", ["x1", "t", "m"])
    with pytest.raises(ChartMismatchError):
        poisson(e, sym("p1"), ORIGINAL_CHART, params=["m"])
    # silent without the whitelist: t differentiates to zero
    assert is_zero_expr(poisson(sym("p1"), parse("t", ["t"]), ORIGINAL_CHART))


# ---------------------------------------------------------------------------
# weak vanishing: reduction modulo the constraints
# ---------------------------------------------------------------------------

TOY = Chart((("x", "p"),), label="toy")


def test_weak_but_not_strong_zero_is_first_class():
    # Δ₀₁ = −p1_tau is a nonzero expression, but zero where p1_tau = 0
    constraints = [sym("p1_tau"), parse("x1_tau*p1_tau + p2_tau", EXT_VARS)]
    cm = constraint_matrix(constraints, EXTENDED_CHART)
    assert equivalent(cm.delta[0][1], parse("-p1_tau", EXT_VARS))
    assert cm.first_class == (0, 1)
    assert cm.inverse is None


def test_surface_map_solves_the_gauged_pair(gauged_system):
    registry, phi, gauge, _ = gauged_system
    surface = _surface_map((phi, gauge.eta_gauge), EXTENDED_CHART, ())
    # t_tau is the argument of w and f, so the gauge is solved for tau
    assert set(surface) == {"p_tau", "tau"}
    assert equivalent(surface["tau"], parse("t_tau/10", ["t_tau"]))
    for c in (phi, gauge.eta_gauge):
        assert is_zero_expr(subst(c, surface))


def test_no_linear_solve_raises_one_line():
    constraints = [parse("x^2 + p^2 - 1", ["x", "p"]), parse("x*p", ["x", "p"])]
    with pytest.raises(BracketError) as err:
        constraint_matrix(constraints, TOY)
    assert str(err.value) == (
        "cannot reduce modulo constraint 0: none of x, p, tau enters it "
        "linearly with a nonzero constant coefficient")


def test_pole_on_the_whole_surface_is_nonzero():
    exprs = [parse(t, ["x", "p"]) for t in ("x/p", "x*p", "x", "0", "2")]
    assert _weakly_zero(exprs, [sym("p")], TOY) == (
        False, True, False, True, False)


def test_pole_in_a_constraint_on_the_surface_raises_one_line():
    chart = Chart((("x", "p"), ("y", "q")))
    constraints = [sym("p"), parse("q + x/p", chart.variables)]
    with pytest.raises(BracketError) as err:
        constraint_matrix(constraints, chart)
    assert str(err.value) == (
        "constraints 0 to 1 have a pole on their common surface")


def test_substitution_error_is_not_taken_for_nonzero(monkeypatch):
    monkeypatch.setattr(brackets, "_surface_map",
                        lambda *args: {"t_tau": sym("tau") + num(1)})
    target = parse("w(t_tau)*x1_tau", EXT_VARS, constant_registry())
    with pytest.raises(SubstitutionError):
        _weakly_zero([target], [sym("p_tau")], EXTENDED_CHART)


# ---------------------------------------------------------------------------
# classification and the Delta matrix
# ---------------------------------------------------------------------------

def test_lone_momentum_constraint_is_first_class():
    cm = constraint_matrix([sym("p_tau")], EXTENDED_CHART)
    assert cm.first_class == (0,)
    assert cm.second_class == ()
    assert cm.weakly_zero == ((True,),)
    assert "first-class" in cm.report()


def test_gauged_pair_is_second_class(gauged_system):
    registry, phi, gauge, cm = gauged_system
    assert cm.second_class == (0, 1)
    assert cm.first_class == ()
    assert "second-class" in cm.report()


def test_delta_matrix_golden(gauged_system):
    _, _, _, cm = gauged_system
    expected = ((0, -1), (1, 0))
    for i in range(2):
        for j in range(2):
            assert equivalent(cm.delta[i][j], num(expected[i][j]))


def test_delta_inverse_golden(gauged_system):
    _, _, _, cm = gauged_system
    expected = ((0, 1), (-1, 0))
    for i in range(2):
        for j in range(2):
            assert equivalent(cm.inverse[i][j], num(expected[i][j]))


def test_first_class_set_has_no_inverse():
    cm = constraint_matrix([sym("p_tau")], EXTENDED_CHART)
    assert cm.inverse is None and cm.dirac_matrix is None
    with pytest.raises(SingularDeltaError):
        dirac(sym("x1_tau"), sym("p1_tau"), cm, EXTENDED_CHART)


# ---------------------------------------------------------------------------
# Dirac brackets
# ---------------------------------------------------------------------------

GOLDEN_DIRAC = {
    ("x1_tau", "p1_tau"): "1",
    ("x2_tau", "p2_tau"): "1",
    ("x1_tau", "p_tau"): "-f(t_tau)*p1_tau/m",
    ("x2_tau", "p_tau"): "-f(t_tau)*p2_tau/m",
    ("p1_tau", "p_tau"): "m*w(t_tau)^2*x1_tau/f(t_tau)",
    ("p2_tau", "p_tau"): "m*w(t_tau)^2*x2_tau/f(t_tau)",
}


def test_dirac_bracket_goldens(gauged_system):
    registry, _, _, cm = gauged_system
    seen = {}
    for i, u in enumerate(EXT_VARS):
        for v in EXT_VARS[i + 1:]:
            res = dirac(sym(u), sym(v), cm, EXTENDED_CHART, registry=registry)
            if not is_zero_expr(res):
                seen[(u, v)] = res
    assert set(seen) == set(GOLDEN_DIRAC)
    for pair, text in GOLDEN_DIRAC.items():
        expected = parse(text, EXT_VARS + ("m",), registry)
        assert equivalent(seen[pair], expected), pair


def test_dirac_kills_the_constraints(gauged_system):
    registry, phi, gauge, cm = gauged_system
    probe = parse("x1_tau*p2_tau^2 - t_tau^3", EXT_VARS, registry)
    for c in (phi, gauge.eta_gauge):
        assert is_zero_expr(dirac(c, probe, cm, EXTENDED_CHART,
                                  registry=registry))


def test_dirac_reduces_to_poisson_without_second_class_terms(gauged_system):
    # {x1, x2} has zero bracket with both constraints, so Dirac == Poisson
    registry, _, _, cm = gauged_system
    a, b = sym("x1_tau"), sym("x2_tau")
    lhs = dirac(a, b, cm, EXTENDED_CHART, registry=registry)
    rhs = poisson(a, b, EXTENDED_CHART, registry)
    assert equivalent(lhs, rhs)


@settings(max_examples=15)  # each example runs two dozen exact brackets
@given(chart_polys(), chart_polys())
def test_dirac_matches_its_definition(gauged_system, curved_system, f_text,
                                      g_text):
    # {f,g}_D = {f,g} - sum_ab {f,phi_a} C_ab {phi_b,g}, built from plain
    # Poisson brackets, for a constant and a state-dependent C
    gauged = (gauged_system[0], gauged_system[3])
    for registry, cm in (gauged, curved_system):
        f, g = (parse(t, EXT_VARS, registry) for t in (f_text, g_text))

        def pb(a, b):
            return poisson(a, b, EXTENDED_CHART, registry)

        expected = pb(f, g)
        for a, phi_a in enumerate(cm.constraints):
            for b, phi_b in enumerate(cm.constraints):
                expected = expected - pb(f, phi_a) * cm.inverse[a][b] * pb(
                    phi_b, g)
        got = dirac(f, g, cm, EXTENDED_CHART, registry=registry)
        assert equivalent(got, expected), (f_text, g_text)


def test_hamilton_eom_matches_per_variable_brackets(gauged_system,
                                                    curved_system):
    # dirac and hamilton_eom share D, so the Dirac equations are checked
    # against {v,H} - sum_ab {v,phi_a} C_ab {phi_b,H} from plain Poisson
    # brackets, and the plain ones against dH/dp and -dH/dq
    gauged = (gauged_system[0], gauged_system[3])
    for registry, cm in (gauged, curved_system):
        h = parse("x1_tau^2*p_tau + w(t_tau)*p1_tau*t_tau - p2_tau^3/f(t_tau)",
                  EXT_VARS, registry)

        def pb(a, b):
            return poisson(a, b, EXTENDED_CHART, registry)

        eom = hamilton_eom(h, EXTENDED_CHART, cm=cm, registry=registry)
        for v in EXT_VARS:
            expected = pb(sym(v), h)
            for a, phi_a in enumerate(cm.constraints):
                for b, phi_b in enumerate(cm.constraints):
                    expected = expected - (
                        pb(sym(v), phi_a) * cm.inverse[a][b] * pb(phi_b, h))
            assert equivalent(eom[v], expected), v
        plain = hamilton_eom(h, EXTENDED_CHART, registry=registry)
        for q, p in EXTENDED_CHART.pairs:
            assert equivalent(plain[q], diff(h, p, registry)), q
            assert equivalent(plain[p], -diff(h, q, registry)), p


def test_hamilton_eom_refuses_a_singular_or_foreign_matrix(gauged_system):
    registry, _, _, cm = gauged_system
    h = parse("p1_tau^2 + x1_tau*p_tau", EXT_VARS, registry)
    first_class = constraint_matrix([sym("p_tau")], EXTENDED_CHART)
    with pytest.raises(SingularDeltaError):
        hamilton_eom(h, EXTENDED_CHART, cm=first_class, registry=registry)
    with pytest.raises(ChartMismatchError):
        hamilton_eom(sym("p1"), ORIGINAL_CHART, cm=cm, registry=registry)


def test_dirac_rejects_a_matrix_from_another_chart(gauged_system):
    registry, _, _, cm = gauged_system
    with pytest.raises(ChartMismatchError):
        dirac(sym("x1"), sym("p1"), cm, ORIGINAL_CHART, registry=registry)
