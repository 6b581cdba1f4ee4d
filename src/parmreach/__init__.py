"""Exact reachability functions for parametric discrete-time Markov chains.

The package computes, for every (initial state, target state) pair of a
model whose transition probabilities are rational functions over a set
of parameters, the exact probability of eventually reaching the target
— itself a rational function of the parameters.  Two engines are
provided: a strongly-connected-component abstraction
(:func:`model_check`) and a classic state-elimination baseline
(:func:`eliminate_all`), which is the abstraction's final pass over the
whole model.  They share the elimination step and order, so their
agreement checks the abstraction; the exact numeric oracle
(:func:`numeric_reachability`) checks the arithmetic.  Both build on
an exact rational-function layer that keeps polynomials factored and
caches every factorization discovered along the way, so expensive GCD
kernel work is shared across the whole analysis.  All such state lives
in one :class:`~parmreach.polycore.Session`; :func:`reset_session` starts
a new one, and values from an ended session raise :class:`StaleValue`.

Three exported names load on first use: :func:`numeric_reachability`
and :class:`SingularSystem` (from :mod:`parmreach.oracle`) and
:class:`SizeCapExceeded` (from :mod:`parmreach.benchgen`).  A
``parmreach check`` runs neither the oracle nor the generators, so
importing the package, and every query with it, does not pay for them.

Typical use::

    from parmreach import parse_model, preprocess, model_check

    m = preprocess(parse_model(text))
    result = model_check(m)
    for (source, target), f in result.per_pair.items():
        print(source, "->", target, "=", f)
"""

from .elimination import SelfLoopProbabilityOne, eliminate_all
from .errors import ParmreachError
from .factorizations import Factorization, GcdTriple, gcd_factored
from .model import (
    Dtmc,
    ModelSyntaxError,
    NotWellDefined,
    Pdtmc,
    RowSumNotOne,
    TargetNotAbsorbing,
    UnknownState,
    evaluate,
    is_graph_preserving,
    parse_model,
    preprocess,
)
from .polycore import (
    ExponentOverflow,
    Polynomial,
    StaleValue,
    Variable,
    poly_gcd,
    reset_session,
    session,
    variable,
)
from .ratfun import (
    DivisionByZeroFunction,
    EvalDenominatorZero,
    RationalFunction,
    rf_add,
    rf_const,
    rf_div,
    rf_eval,
    rf_from_polys,
    rf_mul,
    rf_of_variable,
    rf_one,
    rf_sub,
    rf_zero,
)
from .scc_mc import (
    AbstractionInvariantBroken,
    CheckStats,
    NoTargets,
    ReachabilityResult,
    collect_constraints,
    model_check,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Serve the names that load on first use (see the module docstring)."""
    if name in ("SingularSystem", "numeric_reachability"):
        from . import oracle as home
    elif name == "SizeCapExceeded":
        from . import benchgen as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


__all__ = [
    "__version__",
    # model layer
    "Pdtmc",
    "Dtmc",
    "parse_model",
    "preprocess",
    "evaluate",
    "is_graph_preserving",
    # engines
    "model_check",
    "eliminate_all",
    "ReachabilityResult",
    "CheckStats",
    "collect_constraints",
    # numeric ground truth
    "numeric_reachability",
    # symbolic layer
    "Polynomial",
    "Variable",
    "variable",
    "poly_gcd",
    "RationalFunction",
    "rf_zero",
    "rf_one",
    "rf_const",
    "rf_of_variable",
    "rf_from_polys",
    "rf_add",
    "rf_sub",
    "rf_mul",
    "rf_div",
    "rf_eval",
    "Factorization",
    "GcdTriple",
    "gcd_factored",
    # errors
    "ParmreachError",
    "ModelSyntaxError",
    "UnknownState",
    "RowSumNotOne",
    "TargetNotAbsorbing",
    "NotWellDefined",
    "NoTargets",
    "AbstractionInvariantBroken",
    "SelfLoopProbabilityOne",
    "SingularSystem",
    "SizeCapExceeded",
    "DivisionByZeroFunction",
    "EvalDenominatorZero",
    "ExponentOverflow",
    "StaleValue",
    # session management
    "session",
    "reset_session",
]
