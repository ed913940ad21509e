"""Completion of separable transformation data and symplectic conformance."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    CanonicalError,
    ComponentMap,
    DegenerateSpecError,
    NEW_CHART,
    TransformSpec,
    canonical,
    complete,
    compose,
    diff,
    equivalent,
    evaluate,
    expr,
    jacobian,
    lower,
    num,
    ode_residuals,
    parse,
    sample_states,
    simplify,
    symplectic_defect,
    sym,
)

from _support import OVERRIDE_TERMS, override_of, random_spec_texts

NEW_VARS = NEW_CHART.variables
OLD = ("x1_tau", "x2_tau", "t_tau", "p1_tau", "p2_tau", "p_tau")
J = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])


def spec_of(**texts):
    return TransformSpec.from_strings(**texts)


def identity_transform():
    return complete(spec_of(a1="Q1", a2="Q2", b="T"))


POLY = dict(a1="Q1 + T*Q1^2", a2="(1 + T^2)*Q2", b="T + T^3/3",
            d1="Q1*T^2", d2="T - Q2^2")


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_wrong_variables():
    from phasekit import ParseError
    # string fields are parsed against their own restricted alphabets
    with pytest.raises(ParseError):
        spec_of(a1="Q2", a2="Q2", b="T")
    with pytest.raises(ParseError):
        spec_of(a1="Q1", a2="Q2", b="T + Q1")
    # direct construction with a foreign expression is caught as well
    q2 = parse("Q2*T", ("Q2", "T"))
    with pytest.raises(CanonicalError):
        TransformSpec(a1=q2, a2=parse("Q2", ("Q2",)), b=parse("T", ("T",)))


def test_spec_rejects_degenerate_legs():
    with pytest.raises(DegenerateSpecError):
        spec_of(a1="T", a2="Q2", b="T")
    with pytest.raises(DegenerateSpecError):
        spec_of(a1="Q1", a2="Q2", b="1")


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------

def test_identity_map():
    tr = identity_transform()
    old = ("x1_tau", "x2_tau", "t_tau", "p1_tau", "p2_tau", "p_tau")
    for old_name, new_name in zip(old, ("Q1", "Q2", "T", "P1", "P2", "P_T")):
        assert equivalent(tr.maps[old_name], sym(new_name))
    pts = sample_states(tr, count=8)
    assert symplectic_defect(tr, pts) == 0.0
    assert max(abs(r) for p in pts for r in ode_residuals(tr, p)) == 0.0


def test_scaling_map_splits_momenta():
    # x = 2Q means p = P/2; t = 3T means p_tau = P_T/3
    tr = complete(spec_of(a1="2*Q1", a2="Q2", b="3*T"))
    assert equivalent(tr.maps["p1_tau"], parse("P1/2", NEW_VARS))
    assert equivalent(tr.maps["p_tau"], parse("P_T/3", NEW_VARS))
    assert equivalent(tr.maps["p2_tau"], sym("P2"))


def test_momentum_shift_enters_f():
    # pure shift d1 = T feeds F through the quadrature bracket: the
    # integrand D1. A1' - A1. D1' = 1 integrates to Q1
    tr = complete(spec_of(a1="Q1", a2="Q2", b="T", d1="T"))
    assert equivalent(tr.maps["p1_tau"], parse("P1 + T", NEW_VARS))
    assert equivalent(tr.maps["p_tau"], parse("P_T + Q1", NEW_VARS))


def test_time_dilation_mixes_p_tau():
    # B = 2T with moving positions drags -A./(A'B') P terms into F
    tr = complete(spec_of(a1="Q1 + T", a2="Q2", b="2*T"))
    assert equivalent(tr.maps["p_tau"], parse("P_T/2 - P1/2", NEW_VARS))


# ---------------------------------------------------------------------------
# conformance of completed specs
# ---------------------------------------------------------------------------

def test_polynomial_spec_is_symplectic():
    tr = complete(spec_of(**POLY))
    pts = sample_states(tr, count=32)
    assert symplectic_defect(tr, pts) < 1e-9
    assert max(abs(r) for p in pts for r in ode_residuals(tr, p)) < 1e-9


def test_jacobian_matches_finite_differences():
    tr = complete(spec_of(**POLY))
    point = sample_states(tr, count=1, seed=5)[0]
    m = jacobian(tr, point)
    h = 1e-6
    for j, v in enumerate(NEW_VARS):
        up = evaluate(tr, {**point, v: point[v] + h})
        dn = evaluate(tr, {**point, v: point[v] - h})
        for i, name in enumerate(("x1_tau", "x2_tau", "t_tau",
                                  "p1_tau", "p2_tau", "p_tau")):
            fd = (up[name] - dn[name]) / (2 * h)
            assert m[i, j] == pytest.approx(fd, abs=5e-6)


def reference_jacobian(tr, point):
    """The 36 exact partials of expression-backed maps, lowered: the
    symbolic table that the Jacobian came from before the lowered jet."""
    table = lower([diff(tr.maps[row], col) for row in OLD for col in NEW_VARS],
                  NEW_VARS, time_var=None)
    return np.array(table(None, [point[v] for v in NEW_VARS])).reshape(6, 6)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_jet_jacobian_matches_the_symbolic_partials(seed):
    tr = complete(spec_of(**random_spec_texts(np.random.default_rng(seed))))
    for point in sample_states(tr, count=4, seed=seed):
        reference = reference_jacobian(tr, point)
        gap = np.abs(jacobian(tr, point) - reference)
        assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(reference)))


def test_sampling_and_defect_take_no_symbolic_partials(monkeypatch):
    transforms = [complete(spec_of(**POLY)), quadrature_transform()]
    calls = []
    real = expr.diff

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for module in (expr, canonical):
        monkeypatch.setattr(module, "diff", counting)
    # the residuals read the jet's Jacobian as well
    for tr in transforms:
        points = sample_states(tr, count=8)
        symplectic_defect(tr, points)
        for point in points:
            ode_residuals(tr, point)
    assert calls == []


def quadrature_transform():
    return complete(spec_of(a1="Q1", a2="Q2", b="T", d1="T/(1 + Q1^2)"))


def test_quadrature_jacobian_matches_finite_differences():
    # the prefactor 1/B' = 1/(1 + T^2) and the integrand 2T/(1 + Q1^2)
    # both move with T, so the T column needs both of its terms
    tr = complete(spec_of(a1="Q1", a2="Q2", b="T + T^3/3",
                          d1="T^2/(1 + Q1^2)"))
    assert isinstance(tr.maps["p_tau"], ComponentMap)
    point = sample_states(tr, count=1, seed=5)[0]
    m = jacobian(tr, point)
    assert abs(m[5, 2]) > 0.1
    h = 1e-5
    for j, v in enumerate(NEW_VARS):
        up = evaluate(tr, {**point, v: point[v] + h})
        dn = evaluate(tr, {**point, v: point[v] - h})
        for i, name in enumerate(OLD):
            fd = (up[name] - dn[name]) / (2 * h)
            assert m[i, j] == pytest.approx(fd, abs=1e-8)


def test_quadrature_route_stays_symplectic():
    # d1 rational in Q1: the Q-integral has no polynomial antiderivative,
    # so p_tau evaluates through numeric quadrature
    tr = quadrature_transform()
    assert isinstance(tr.maps["p_tau"], ComponentMap)
    pts = sample_states(tr, count=16)
    assert symplectic_defect(tr, pts) < 1e-9
    assert max(abs(r) for p in pts for r in ode_residuals(tr, p)) < 1e-9


def test_randomized_specs_conform():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tr = complete(spec_of(**random_spec_texts(rng)))
        pts = sample_states(tr, count=8)
        assert symplectic_defect(tr, pts) < 1e-9
        assert max(abs(r) for p in pts for r in ode_residuals(tr, p)) < 1e-9


def reference_residuals(tr):
    """The seven residuals as first written: p_i split as c_i P_i + d_i,
    with c_i = dp_i/dP_i, and the equations put in c_i, d_i and their
    Q_i and T partials."""
    a1, a2, b = tr.maps["x1_tau"], tr.maps["x2_tau"], tr.maps["t_tau"]
    pm1, pm2, f = tr.maps["p1_tau"], tr.maps["p2_tau"], tr.maps["p_tau"]
    p1, p2 = sym("P1"), sym("P2")
    c1, c2 = diff(pm1, "P1"), diff(pm2, "P2")
    d1, d2 = simplify(pm1 - c1 * p1), simplify(pm2 - c2 * p2)
    a1p, a1t = diff(a1, "Q1"), diff(a1, "T")
    a2p, a2t = diff(a2, "Q2"), diff(a2, "T")
    bt = diff(b, "T")
    c1p, c1t = diff(c1, "Q1"), diff(c1, "T")
    c2p, c2t = diff(c2, "Q2"), diff(c2, "T")
    d1p, d1t = diff(d1, "Q1"), diff(d1, "T")
    d2p, d2t = diff(d2, "Q2"), diff(d2, "T")
    f_q1, f_q2, f_p1, f_p2, f_pt = (diff(f, v)
                                    for v in ("Q1", "Q2", "P1", "P2", "P_T"))
    return (
        simplify(a1t * (c1p * p1 + d1p) + bt * f_q1
                 - (c1t * p1 + d1t) * a1p),
        simplify(a2t * (c2p * p2 + d2p) + bt * f_q2
                 - (c2t * p2 + d2t) * a2p),
        simplify(c1 * a1t + bt * f_p1),
        simplify(c2 * a2t + bt * f_p2),
        simplify(bt * f_pt - num(1)),
        simplify(c1 * a1p - num(1)),
        simplify(c2 * a2p - num(1)),
    )


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1),
       component=st.sampled_from(OLD + (None,)),
       terms=st.lists(st.tuples(st.integers(-3, 3),
                                st.sampled_from(OVERRIDE_TERMS)),
                      min_size=1, max_size=4))
def test_residuals_match_the_split_momentum_form(seed, component, terms):
    rng = np.random.default_rng(seed)
    tr = complete(spec_of(**random_spec_texts(rng)))
    if component is not None:
        tr = dataclasses.replace(
            tr, maps={**tr.maps, component: override_of(terms)})
    reference = lower(reference_residuals(tr), NEW_VARS, time_var=None)
    # drawn directly, not through sample_states, whose gates refuse an
    # override such as x1_tau = 0 over the whole box
    for y in rng.uniform(-1.0, 1.0, size=(8, 6)).tolist():
        try:
            expected = reference(None, y)
        except ZeroDivisionError:
            continue
        got = ode_residuals(tr, dict(zip(NEW_VARS, y)))
        for r, e in zip(got, expected):
            assert abs(r - e) <= 1e-9 * max(1.0, abs(e))


def test_residual_overflow_raises():
    # two partials near 10^160 multiply past the float range
    tr = complete(spec_of(a1="10^160*Q1", a2="Q2", b="T"))
    tr = dataclasses.replace(
        tr, maps={**tr.maps, "p1_tau": parse("10^160*P1", NEW_VARS)})
    with pytest.raises(FloatingPointError):
        ode_residuals(tr, dict.fromkeys(NEW_VARS, 0.5))


def test_determinant_is_unity():
    tr = complete(spec_of(**POLY))
    for point in sample_states(tr, count=8):
        assert abs(abs(np.linalg.det(jacobian(tr, point))) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# corruption must be detected, not absorbed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("component", OLD)
def test_corrupted_component_breaks_conformance(component):
    tr = complete(spec_of(**POLY))
    bad = dict(tr.maps)
    bad[component] = simplify(num(2) * bad[component])
    broken = dataclasses.replace(tr, maps=bad)
    pts = sample_states(broken, count=8)
    assert symplectic_defect(broken, pts) > 1e-3
    assert max(abs(r) for p in pts for r in ode_residuals(broken, p)) > 1e-3


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_composition_stays_symplectic():
    rng = np.random.default_rng(3)
    outer = complete(spec_of(**random_spec_texts(rng)))
    inner = complete(spec_of(**random_spec_texts(rng)))
    chained = compose(outer, inner)
    pts = sample_states(chained, count=8)
    assert symplectic_defect(chained, pts) < 1e-8


def test_composition_evaluates_through_both_maps():
    outer = complete(spec_of(a1="2*Q1", a2="Q2", b="T"))
    inner = complete(spec_of(a1="Q1 + T", a2="Q2", b="2*T"))
    third = complete(spec_of(a1="Q1 - T^2", a2="3*Q2", b="T + T^3",
                             d2="Q2*T"))
    point = {v: x for v, x in zip(NEW_VARS, (0.3, -0.2, 0.7, 0.1, 0.4, -0.5))}

    def renamed(old):
        return {"Q1": old["x1_tau"], "Q2": old["x2_tau"], "T": old["t_tau"],
                "P1": old["p1_tau"], "P2": old["p2_tau"], "P_T": old["p_tau"]}

    direct = evaluate(outer, renamed(evaluate(inner, point)))
    via_chain = evaluate(compose(outer, inner), point)
    for name, value in direct.items():
        assert via_chain[name] == pytest.approx(value, abs=1e-12)

    stepwise = evaluate(outer, renamed(evaluate(inner, renamed(
        evaluate(third, point)))))
    nested = evaluate(compose(compose(outer, inner), third), point)
    for name, value in stepwise.items():
        assert nested[name] == pytest.approx(value, abs=1e-12)


def test_composed_jacobian_is_the_chain_rule():
    # central differences of the composed maps; a product of two symplectic
    # matrices in the wrong order would still pass the defect check
    chained = compose(complete(spec_of(**POLY)),
                      complete(spec_of(a1="Q1 + T^2", a2="2*Q2 - T", b="T",
                                       d1="Q1*T")))
    point = {v: x for v, x in zip(NEW_VARS, (0.3, -0.2, 0.4, 0.1, 0.5, -0.6))}
    m, h = jacobian(chained, point), 1e-6
    for j, var in enumerate(NEW_VARS):
        up = evaluate(chained, {**point, var: point[var] + h})
        down = evaluate(chained, {**point, var: point[var] - h})
        for i, name in enumerate(OLD):
            assert m[i, j] == pytest.approx((up[name] - down[name]) / (2 * h),
                                            abs=1e-6)


def test_composed_sampling_gates_every_stage_at_the_state_it_sees():
    # dA1/dQ1 = 2 Q1 for squares, read at its own input: the state for the
    # inner stage, the shifted Q1 + T for the outer one
    squares = complete(spec_of(a1="Q1^2", a2="Q2", b="T"))
    shift = complete(spec_of(a1="Q1 + T", a2="Q2", b="T"))
    for chained, q1 in ((compose(squares, shift), lambda p: p["Q1"] + p["T"]),
                        (compose(shift, squares), lambda p: p["Q1"])):
        for point in sample_states(chained, count=256, seed=3):
            assert abs(2 * q1(point)) >= 0.05


def test_composition_with_a_quadrature_stage_stays_symplectic():
    chained = compose(quadrature_transform(), complete(spec_of(**POLY)))
    pts = sample_states(chained, count=8)
    assert symplectic_defect(chained, pts) < 1e-9


def test_composed_residuals_point_at_symplectic_check():
    outer = complete(spec_of(a1="2*Q1", a2="Q2", b="T"))
    inner = complete(spec_of(a1="Q1 + T", a2="Q2", b="2*T"))
    chained = compose(outer, inner)
    with pytest.raises(CanonicalError):
        ode_residuals(chained, sample_states(chained, count=1)[0])


def test_sampling_is_deterministic():
    tr = complete(spec_of(**POLY))
    assert sample_states(tr, count=8) == sample_states(tr, count=8)
