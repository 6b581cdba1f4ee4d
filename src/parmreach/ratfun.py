"""Rational functions with factored numerator and denominator.

A :class:`RationalFunction` keeps its numerator and denominator as
:class:`~parmreach.factorizations.Factorization`\\ s and maintains a
canonical form at all times:

* numerator and denominator are coprime (canceled with
  :func:`~parmreach.factorizations.gcd_factored`, which also refines the
  shared pool as a side effect),
* the denominator's coefficient is positive (the numerator carries
  the sign),
* zero is ``0/1`` and the denominator is never the zero factorization.

Cancellation works on the factored form, so the polynomial gcd kernel
only sees pairs of bases neither of which the irreducibility screen
certifies, and the integer coefficients cancel by one integer gcd.
Products avoid a full re-cancellation: for ``(n1/d1) * (n2/d2)`` it
suffices to cancel ``n1`` against ``d2`` and ``n2`` against ``d1``,
since each factor was coprime to its own denominator already.

Every sum uses Henrici's method (P. Henrici, JACM 3, 1956; Knuth,
TAOCP vol. 2, section 4.5.1): split ``d1 = g*d1'`` and ``d2 = g*d2'``
with ``d1'``, ``d2'`` coprime, form ``s = n1*d2' + n2*d1'`` and cancel
``s`` against ``g`` only.  No irreducible factor of ``d1'`` can divide
``s``: it would divide ``n1*d2'``, but ``n1`` is coprime to ``d1`` and
``d2'`` to ``d1'``.  The same holds for ``d2'``, so ``s/(g*d1'*d2')``
is fully reduced once ``s`` and ``g`` are.  Equal denominators ``d``
give ``g = d`` and cofactors 1 with no kernel call or new base, so
the sum is ``n1 + n2`` cancelled against ``d``.

:func:`rf_add` and :func:`rf_mul` (and so :func:`rf_sub` and
:func:`rf_div`) remember their results in the session (``Session.ops``)
under the raw operand tuples ``(op, num.coeff, num.factors, den.coeff,
den.factors)`` of both operands, so a repeated operand pair costs no
arithmetic.  That is exact.  Within a session a handle never changes
meaning, and both operations are deterministic functions of their
operands and of the pool's refinement memos: interning a new base
changes no existing handle, and the screens and the gcd memo only
cache values.  Recording a split (``Session.remember``) is the one
change that can make a recomputed result finer, so it empties the
memo, and a result whose own computation recorded a split is not
kept.  A hit skips the kernel calls a computation would repeat, so
``gcd kernel calls`` can only fall; nothing else a run reports moves.

Whether functions sum to exactly 1 needs no cancellation.  With ``D``
the lcm ``L`` of the denominators' coefficients times every
denominator base at its largest exponent, a common multiple of the
``d_i`` (``D/d_i`` is ``L`` divided by ``d_i``'s coefficient, times an
exponent subtraction), ``sum(n_i/d_i) == 1`` exactly when
``sum(n_i*(D/d_i)) - D == 0``.  :func:`rf_sums_to_one` keeps that sum
as ``G*S``, ``G`` the bases all terms so far share and ``S`` a
polynomial, so it expands only cofactors, and it neither interns,
refines nor calls the gcd kernel.  The rows it finds to sum to 1 are
remembered in the session (``Session.sums_to_one``) under the multiset
of their terms' factorizations, so a row seen again is answered without
arithmetic.  That is exact: within a session a handle never changes
meaning, so equal factorizations are equal functions; handles are not
reused across sessions, so a row from an ended session never hits; and
rows that do not sum to 1 are not remembered, so each is decided again:

>>> from parmreach.polycore import variables
>>> p = rf_of_variable(variables("p")[0])
>>> row = [rf_div(p, rf_add(rf_one(), p)), rf_div(rf_one(), rf_add(rf_one(), p))]
>>> rf_sums_to_one(row), rf_sums_to_one(row[:1]), rf_sums_to_one([])
(True, False, False)

Models built from repeated parts meet the same rows again and again.
On brp(16,4) the elimination engine checks 223 rows, one per removed
state (:mod:`parmreach.elimination`), and decides 1 of them by
arithmetic; the others are rows the parser or an earlier check has
already found to sum to 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ParmreachError
from .factorizations import (
    Factorization,
    fadd,
    fmul,
    fpow,
    gcd_factored,
)
from .polycore import CACHE_CAP, Polynomial, Variable, session

__all__ = [
    "DivisionByZeroFunction",
    "EvalDenominatorZero",
    "RationalFunction",
    "rf_zero",
    "rf_one",
    "rf_const",
    "rf_of_poly",
    "rf_of_variable",
    "rf_from_polys",
    "rf_add",
    "rf_sub",
    "rf_neg",
    "rf_mul",
    "rf_div",
    "rf_pow",
    "rf_eval",
    "rf_sum",
    "rf_sums_to_one",
]


class DivisionByZeroFunction(ParmreachError):
    """Division by a rational function that is identically zero."""


class EvalDenominatorZero(ParmreachError):
    """The evaluation point lies on the denominator's zero set."""


def _negated(f: Factorization) -> Factorization:
    return Factorization(-f.coeff, f.factors)


def _den_sign_fixed(num: Factorization, den: Factorization) -> tuple[Factorization, Factorization]:
    """Move a negative sign from the denominator into the numerator."""
    if den.coeff < 0:
        return _negated(num), _negated(den)
    return num, den


class RationalFunction:
    """An exact rational function in canonical (coprime) form.

    Instances are immutable.  Use the module-level constructors and the
    ``rf_*`` operators; the raw constructor trusts its arguments to be
    canonical already.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Factorization, den: Factorization):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, key, value):  # pragma: no cover - guard only
        raise AttributeError("RationalFunction is immutable")

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.is_one and self.den.is_one

    @property
    def is_constant(self) -> bool:
        # no pool base is a constant, and over Z[x] neither is a product of bases
        return not self.num.factors and not self.den.factors

    def numerator_poly(self) -> Polynomial:
        return self.num.expand()

    def denominator_poly(self) -> Polynomial:
        return self.den.expand()

    # -- protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        # same function, possibly different factorization granularity
        return (
            self.numerator_poly() == other.numerator_poly()
            and self.denominator_poly() == other.denominator_poly()
        )

    def __hash__(self) -> int:
        return hash((self.numerator_poly(), self.denominator_poly()))

    def __str__(self) -> str:
        n, d = self.numerator_poly(), self.denominator_poly()
        if d.is_one:
            return str(n)
        return f"({n})/({d})"

    def factored_str(self) -> str:
        """Render without expanding, showing the factor structure."""
        if self.den.is_one:
            return str(self.num)
        return f"[{self.num}] / [{self.den}]"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def rf_zero() -> RationalFunction:
    return RationalFunction(Factorization.zero(), Factorization.one())


def rf_one() -> RationalFunction:
    return RationalFunction(Factorization.one(), Factorization.one())


def rf_const(c: Fraction | int) -> RationalFunction:
    c = Fraction(c)
    return rf_from_polys(Polynomial.const(c.numerator), Polynomial.const(c.denominator))


def rf_of_poly(p: Polynomial) -> RationalFunction:
    return RationalFunction(Factorization.of(p), Factorization.one())


def rf_of_variable(v: Variable) -> RationalFunction:
    return rf_of_poly(Polynomial.of_variable(v))


def rf_from_polys(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Build ``num/den`` from expanded polynomials and canonicalize."""
    if den.is_zero:
        raise DivisionByZeroFunction("denominator is identically zero")
    n, d = Factorization.of(num), Factorization.of(den)
    if n.is_zero:
        return rf_zero()
    t = gcd_factored(n, d)
    return RationalFunction(*_den_sign_fixed(t.cofactor_left, t.cofactor_right))


def _memoized(op: str, a: RationalFunction, b: RationalFunction, compute) -> RationalFunction:
    """``compute(a, b)``, remembered in the session's operation memo
    under the raw operand tuples (module docstring)."""
    ops = session().ops
    key = (op, a.num.coeff, a.num.factors, a.den.coeff, a.den.factors,
           b.num.coeff, b.num.factors, b.den.coeff, b.den.factors)
    out = ops.get(key)
    if out is None:
        out = compute(a, b)
        if len(ops) >= CACHE_CAP:
            ops.clear()
        ops[key] = out
    return out


def rf_add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return _memoized("+", a, b, _add)


def _add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    # Henrici: only the shared part of the denominators can cancel
    t = gcd_factored(a.den, b.den)
    num = fadd(fmul(a.num, t.cofactor_right), fmul(b.num, t.cofactor_left))
    if num.is_zero:
        return rf_zero()
    c = gcd_factored(num, t.common)
    den = fmul(fmul(t.cofactor_left, t.cofactor_right), c.cofactor_right)
    return RationalFunction(*_den_sign_fixed(c.cofactor_left, den))


def rf_neg(a: RationalFunction) -> RationalFunction:
    if a.is_zero:
        return a
    return RationalFunction(_negated(a.num), a.den)


def rf_sub(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return rf_add(a, rf_neg(b))


def rf_mul(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    if a.is_zero or b.is_zero:
        return rf_zero()
    if a.is_one:
        return b
    if b.is_one:
        return a
    return _memoized("*", a, b, _mul)


def _mul(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    # cross-cancel: each numerator only against the opposite denominator
    ta = gcd_factored(a.num, b.den)
    tb = gcd_factored(b.num, a.den)
    num = fmul(ta.cofactor_left, tb.cofactor_left)
    den = fmul(tb.cofactor_right, ta.cofactor_right)
    n, d = _den_sign_fixed(num, den)
    return RationalFunction(n, d)


def rf_div(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    if b.is_zero:
        raise DivisionByZeroFunction("division by the zero function")
    inv = RationalFunction(*_den_sign_fixed(b.den, b.num))
    return rf_mul(a, inv)


def rf_pow(a: RationalFunction, k: int) -> RationalFunction:
    if k == 0:
        return rf_one()
    if k < 0:
        if a.is_zero:
            raise DivisionByZeroFunction("zero function raised to a negative power")
        base = RationalFunction(*_den_sign_fixed(a.den, a.num))
        k = -k
    else:
        base = a
    if base.is_zero or k == 1:
        return base
    return RationalFunction(fpow(base.num, k), fpow(base.den, k))


def rf_eval(a: RationalFunction, assignment: Mapping[Variable, Fraction]) -> Fraction:
    """Evaluate exactly at a point.

    Raises :class:`EvalDenominatorZero` when the denominator vanishes
    there, and :class:`~parmreach.polycore.MissingAssignment` when the
    point is incomplete.
    """
    d = a.den.eval(assignment)
    if d == 0:
        raise EvalDenominatorZero(f"denominator of {a} vanishes at the evaluation point")
    if a.is_zero:
        return Fraction(0)
    return a.num.eval(assignment) / d


def rf_sum(items: Iterable[RationalFunction]) -> RationalFunction:
    total = rf_zero()
    for item in items:
        total = rf_add(total, item)
    return total


def _cofactor(f: Mapping[int, int], shared: Mapping[int, int]) -> Polynomial:
    """Expanded product of the bases of *f* at their exponents above *shared*."""
    rest = tuple(sorted((h, e - shared.get(h, 0)) for h, e in f.items() if e > shared.get(h, 0)))
    return Factorization(1, rest).expand() if rest else Polynomial.one()


def rf_sums_to_one(items: Iterable[RationalFunction]) -> bool:
    """Whether *items* sum to exactly 1, decided without cancelling and
    remembered per session when it holds (module docstring)."""
    terms = [f for f in items if not f.is_zero]
    row = tuple(sorted((f.num.coeff, f.num.factors, f.den.coeff, f.den.factors) for f in terms))
    decided = session().sums_to_one
    if row in decided:
        return True
    if not _sums_to_one(terms):
        return False
    decided.add(row)
    return True


def _sums_to_one(terms: list[RationalFunction]) -> bool:
    """Whether the non-zero *terms* sum to exactly 1, decided over a
    common multiple of their denominators."""
    lcm = math.lcm(*(f.den.coeff for f in terms))
    common: dict[int, int] = {}
    for f in terms:
        for h, e in f.den.factors:
            common[h] = max(common.get(h, 0), e)
    g, s = {}, Polynomial.zero()  # the running sum is G*S
    for f in terms:
        t = dict(common)
        for h, e in f.den.factors:
            t[h] -= e
        for h, e in f.num.factors:
            t[h] = t.get(h, 0) + e
        k = f.num.coeff * (lcm // f.den.coeff)
        if s.is_zero:
            g, s = t, Polynomial.const(k)
            continue
        shared = {h: min(e, t[h]) for h, e in g.items() if h in t}
        s = s * _cofactor(g, shared) + _cofactor(t, shared).scale(k)
        g = shared
    shared = {h: min(e, common[h]) for h, e in g.items() if h in common}
    return s * _cofactor(g, shared) == _cofactor(common, shared).scale(lcm)
