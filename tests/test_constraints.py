"""Singular Lagrangians: Hessians, Legendre transform, consistency search."""

import numpy as np
import pytest

from phasekit import (
    Chart,
    ConstraintError,
    ConstraintSet,
    EvalError,
    ExprProfile,
    GaugeSpec,
    LagrangianModel,
    TabulatedProfile,
    constraint_matrix,
    equivalent,
    extended_oscillator,
    hessian,
    hessian_rank,
    is_zero_expr,
    legendre,
    null_residual,
    num,
    original_oscillator,
    oscillator_registry,
    parse,
    secondary_constraints,
    simplify,
    sym,
    total_hamiltonian,
)
from phasekit import brackets
from phasekit.expr import atom

from _support import constant_registry

EXT_VARS = ("x1_tau", "p1_tau", "x2_tau", "p2_tau", "t_tau", "p_tau", "m")


@pytest.fixture(scope="module")
def registry():
    return constant_registry(omega=2.0, eta=0.1)


@pytest.fixture(scope="module")
def original(registry):
    return original_oscillator(registry=registry)


@pytest.fixture(scope="module")
def extended(registry):
    return extended_oscillator(registry=registry)


# ---------------------------------------------------------------------------
# velocity Hessians
# ---------------------------------------------------------------------------

def test_original_hessian_determinant(original):
    h = hessian(original)
    expected = parse("m^2/f(t)^2", ["m", "t"], original.registry)
    assert equivalent(h.determinant, expected)


def test_original_hessian_is_diagonal(original):
    h = hessian(original)
    diag = parse("m/f(t)", ["m", "t"], original.registry)
    for i in range(2):
        for j in range(2):
            entry = h.matrix[i][j]
            assert equivalent(entry, diag) if i == j else is_zero_expr(entry)


def test_hessian_determinant_keeps_the_sign_of_a_pivot_swap():
    # the (0, 0) entry is zero, so elimination swaps the first two rows
    names = ["x", "y", "z", "x_dot", "y_dot", "z_dot", "q", "m"]
    model = LagrangianModel(
        coordinates=("x", "y", "z"), velocities=("x_dot", "y_dot", "z_dot"),
        lagrangian=parse("q*x_dot*y_dot + z_dot^2/(2*m) - x*y*z", names))
    assert equivalent(hessian(model).determinant,
                      parse("-q^2/m", names))


def test_extended_hessian_determinant_vanishes(extended):
    assert is_zero_expr(hessian(extended).determinant)


def test_hessian_ranks(original, extended):
    values = {"m": 1.0, atom("f", "t"): 0.8, atom("f", "t_tau"): 0.8,
              atom("w", "t_tau"): 2.0,
              "x1_tau": 0.3, "x2_tau": -0.7, "t_tau": 1.2,
              "t_tau_dot": 0.9, "x1_tau_dot": 0.1, "x2_tau_dot": -0.4}
    assert hessian_rank(hessian(original), values) == 2
    # one null direction out of three velocities
    assert hessian_rank(hessian(extended), values) == 2


def test_hessian_rank_takes_unbound_atoms_from_the_registry(registry, original,
                                                           extended):
    values = {"m": 1.0, "t": 0.5, "x1_tau": 0.3, "x2_tau": -0.7,
              "t_tau": 1.2, "t_tau_dot": 0.9, "x1_tau_dot": 0.1,
              "x2_tau_dot": -0.4}
    assert hessian_rank(hessian(original), values, registry) == 2
    assert hessian_rank(hessian(extended), values, registry) == 2
    with pytest.raises(EvalError, match="no registry"):
        hessian_rank(hessian(original), values)


def test_extended_null_direction_is_the_velocity_vector(extended):
    # L is degree-one homogeneous in the velocities, so M.v == 0 exactly
    rows = null_residual(hessian(extended), extended)
    assert len(rows) == 3
    assert all(is_zero_expr(r) for r in rows)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def test_original_legendre_is_regular(original):
    lt = legendre(original)
    assert lt.primaries == ()
    expected = parse(
        "f(t)*(p1^2 + p2^2)/(2*m) + m*w(t)^2*(x1^2 + x2^2)/(2*f(t))",
        ["x1", "p1", "x2", "p2", "t", "m"], original.registry)
    assert equivalent(lt.hamiltonian, expected)


def test_original_velocity_solutions(original):
    lt = legendre(original)
    expected = parse("f(t)*p1/(m)", ["p1", "t", "m"], original.registry)
    assert equivalent(lt.velocity_solutions["x1_dot"], expected)


def test_extended_primary_constraint(extended):
    lt = legendre(extended)
    assert len(lt.primaries) == 1
    expected = parse(
        "p_tau + f(t_tau)*(p1_tau^2 + p2_tau^2)/(2*m)"
        " + m*w(t_tau)^2*(x1_tau^2 + x2_tau^2)/(2*f(t_tau))",
        EXT_VARS, extended.registry)
    assert equivalent(lt.primaries[0], expected)


def test_extended_hamiltonian_is_multiplier_times_constraint(extended):
    lt = legendre(extended)
    product = simplify(sym("t_tau_dot") * lt.primaries[0])
    assert equivalent(lt.hamiltonian, product)


# ---------------------------------------------------------------------------
# gauge windows
# ---------------------------------------------------------------------------

def test_gauge_window_validation():
    with pytest.raises(ConstraintError):
        GaugeSpec((1.0, 1.0, 0.0, 10.0))
    with pytest.raises(ConstraintError):
        GaugeSpec((0.0, 1.0, 5.0, 5.0))


def test_gauge_slope_and_condition():
    gauge = GaugeSpec((1.0, 3.0, 2.0, 8.0))
    assert gauge.lambda_value == pytest.approx(3.0)
    expected = parse("t_tau - 3*tau + 1", ["t_tau", "tau"])
    assert equivalent(gauge.eta_gauge, expected)
    assert gauge.time_of(1.0) == pytest.approx(2.0)
    assert gauge.time_of(3.0) == pytest.approx(8.0)


def test_all_constraints_puts_gauge_last(extended):
    phi = legendre(extended).primaries[0]
    gauge = GaugeSpec((0.0, 1.0, 0.0, 10.0))
    cs = ConstraintSet(primaries=(phi,), secondaries=(sym("p_tau"),),
                       gauge=gauge)
    ordered = cs.all_constraints()
    assert ordered[0] is phi
    assert equivalent(ordered[-1], gauge.eta_gauge)


def test_total_hamiltonian_forms(extended):
    phi = legendre(extended).primaries[0]
    cs = ConstraintSet(primaries=(phi,))
    assert equivalent(total_hamiltonian(cs, num(2)), simplify(num(2) * phi))
    assert equivalent(total_hamiltonian(cs, sym("lam")),
                      simplify(sym("lam") * phi))


# ---------------------------------------------------------------------------
# consistency search
# ---------------------------------------------------------------------------

def test_gauged_search_closes_without_secondaries(registry, extended):
    phi = legendre(extended).primaries[0]
    gauge = GaugeSpec((0.0, 1.0, 0.0, 10.0))
    cs = ConstraintSet(primaries=(phi,), gauge=gauge)
    search = secondary_constraints(
        cs, total_hamiltonian(cs, num(10)), extended.chart,
        registry=registry, values_hint={"m": 1.0},
    )
    assert search.secondaries == ()
    assert search.passes == 1


def test_ungauged_search_closes_for_symbolic_multiplier(registry, extended):
    phi = legendre(extended).primaries[0]
    cs = ConstraintSet(primaries=(phi,))
    search = secondary_constraints(
        cs, total_hamiltonian(cs, sym("lam")), extended.chart,
        registry=registry, values_hint={"m": 1.0},
    )
    assert search.secondaries == ()
    assert search.passes == 1


def test_search_generates_a_secondary():
    chart = Chart((("x", "p"),), label="toy")
    cs = ConstraintSet(primaries=(sym("p"),))
    h = parse("p^2/2 + x^2/2", ["x", "p"])
    search = secondary_constraints(cs, h, chart)
    assert len(search.secondaries) == 1
    assert equivalent(search.secondaries[0], parse("-x", ["x"]))
    assert search.passes >= 2


def test_search_detects_inconsistency():
    chart = Chart((("x", "p"),), label="toy")
    cs = ConstraintSet(primaries=(sym("p"),))
    with pytest.raises(ConstraintError):
        secondary_constraints(cs, sym("x"), chart)


def test_gauged_search_differentiates_each_constraint_and_h_t_once(
        registry, extended, monkeypatch):
    phi = legendre(extended).primaries[0]
    cs = ConstraintSet(primaries=(phi,),
                       gauge=GaugeSpec((0.0, 1.0, 0.0, 10.0)))
    total_h = total_hamiltonian(cs, num(10))
    seen = []
    gradient = brackets._gradient

    def counting(e, chart, reg):
        seen.append(e)
        return gradient(e, chart, reg)

    monkeypatch.setattr(brackets, "_gradient", counting)
    secondary_constraints(cs, total_h, extended.chart, registry=registry,
                          values_hint={"m": 1.0})
    # phi and eta_gauge for the matrix, H_T for the flow
    assert len(seen) == 3


def _toy_search():
    chart = Chart((("x", "p"),), label="toy")
    cs = ConstraintSet(primaries=(sym("p"),))
    return cs, parse("p^2/2 + x^2/2", ["x", "p"]), chart, None, None


def _oscillator_search(registry, extended, gauge):
    cs = ConstraintSet(primaries=(legendre(extended).primaries[0],),
                       gauge=gauge)
    lam = num(gauge.slope) if gauge is not None else sym("lam")
    return (cs, total_hamiltonian(cs, lam), extended.chart, registry,
            {"m": 1.0})


@pytest.mark.parametrize("system, second_class", [
    ("toy", (0, 1)), ("gauged", (0, 1)), ("ungauged", ())],
    ids=["toy", "gauged", "ungauged"])
def test_search_returns_the_matrix_of_the_closed_set(registry, extended,
                                                     system, second_class):
    cs, total_h, chart, reg, hint = (
        _toy_search() if system == "toy" else _oscillator_search(
            registry, extended,
            GaugeSpec((0.0, 1.0, 0.0, 10.0)) if system == "gauged" else None))
    search = secondary_constraints(cs, total_h, chart, registry=reg,
                                   values_hint=hint)
    closed = ConstraintSet(cs.primaries, search.secondaries, cs.gauge)
    expected = constraint_matrix(closed.all_constraints(), chart,
                                 registry=reg, values_hint=hint)
    got = search.matrix
    assert got.constraints == expected.constraints
    assert got.delta == expected.delta
    assert (got.first_class, got.second_class) == (
        expected.first_class, expected.second_class)
    assert got.second_class == second_class
    if system == "toy":
        # over (p, -x), {p, -x} = 1
        assert equivalent(got.constraints[1], parse("-x", ["x"]))
        assert got.delta == ((num(0), num(1)), (num(-1), num(0)))
        assert got.inverse is not None


# ---------------------------------------------------------------------------
# the damping factor the registry builds from the friction
# ---------------------------------------------------------------------------

_TABLE_TIMES = np.linspace(0.0, 10.0, 11)
FRICTIONS = {
    "none": ExprProfile(num(0)),
    "constant": ExprProfile(num(0.37)),
    "linear": ExprProfile(parse("0.1 + 0.02*t", ["t"])),
    "table": TabulatedProfile(_TABLE_TIMES,
                              0.1 + 0.05 * np.sin(_TABLE_TIMES)),
}


@pytest.mark.parametrize("name", list(FRICTIONS))
def test_registry_damping_factor_obeys_its_derivative_rule(name):
    # f(0) = 1 and f' = -eta f, the rule diff applies to the atom f
    eta = FRICTIONS[name]
    f = oscillator_registry(eta, ExprProfile(num(2)), (0.0, 10.0)).profile("f")
    assert f.value(0, 0.0) == 1.0
    h = 1e-4
    for t in (0.5, 3.7, 9.2):
        assert f.value(1, t) == -eta.value(0, t) * f.value(0, t)
        slope = (f.value(0, t + h) - f.value(0, t - h)) / (2 * h)
        assert abs(slope - f.value(1, t)) < 1e-7


def test_registry_needs_a_span_when_the_friction_has_no_closed_form():
    with pytest.raises(ValueError, match="needs a span"):
        oscillator_registry(ExprProfile(parse("1/(1+t)", ["t"])))
