"""Constrained Hamiltonian toolkit for the damped planar oscillator.

Symbolic phase-space expressions with exact rational normal forms, Poisson
and Dirac brackets, singular Legendre transforms with constraint
classification, gauge-fixed dynamics in extended phase space, the auxiliary
(Ermakov-Pinney type) equation with its conserved quadratic invariant, and
symplecticity-checked canonical transformations.
"""

from .expr import (
    Atom,
    AtomRegistry,
    Chart,
    DampingFactorProfile,
    EXTENDED_CHART,
    EvalError,
    ExprError,
    ExprProfile,
    NonFiniteError,
    ORIGINAL_CHART,
    ParseError,
    PhaseExpr,
    Profile,
    SubstitutionError,
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
    parse,
    render,
    simplify,
    subst,
    sym,
)
from .brackets import (
    BracketError,
    ChartMismatchError,
    ConstraintMatrix,
    SingularDeltaError,
    constraint_matrix,
    dirac,
    hamilton_eom,
    poisson,
)
from .constraints import (
    ConstraintError,
    ConstraintSet,
    GaugeSpec,
    Hessian,
    LagrangianModel,
    LegendreResult,
    SecondarySearch,
    derived_oscillator,
    extended_oscillator,
    hessian,
    hessian_rank,
    legendre,
    null_residual,
    original_oscillator,
    oscillator_registry,
    secondary_constraints,
    total_hamiltonian,
)
from .dynamics import (
    ConstraintViolationError,
    DynamicsError,
    IntegratorPolicy,
    NonFiniteStateError,
    PreconditionError,
    StepSizeUnderflowError,
    Trajectory,
    constraint_drift,
    extended_constraint,
    extended_equations,
    integrate,
    integrate_extended,
    original_equations,
    write_csv,
)
from .invariants import (
    DriftReport,
    ErmakovBlowupError,
    ErmakovConfig,
    InvariantError,
    co_integrate,
    ermakov_equations,
    ermakov_residuals,
    invariant_drift_report,
    lewis_invariant,
    solve_ermakov,
)
from .canonical import (
    CanonicalError,
    ComponentMap,
    DegenerateSpecError,
    NEW_CHART,
    QuadTerm,
    Transform,
    TransformSpec,
    complete,
    compose,
    evaluate,
    jacobian,
    ode_residuals,
    sample_states,
    symplectic_defect,
)

__version__ = "0.1.0"
