"""Factorization-preserving arithmetic over the session's factor pool.

Rational-function arithmetic in this package never expands products
eagerly.  Instead every polynomial is represented by a *factorization*:
an integer coefficient and a set of (base, exponent) pairs whose
expanded product, times the coefficient, is the polynomial.  Bases live
in the pool of the current :class:`~parmreach.polycore.Session`, which
interns each distinct base once under an int handle, caches its
irreducibility screen, and remembers refinements discovered by
:func:`gcd_factored` so later computations start from the finest known
split.

The operators:

* :func:`fmul` / :func:`fpow` -- exponent addition / scaling,
* :func:`fadd`                -- addition with common factors pulled out,
* :func:`gcd_factored`        -- gcd of two factorizations: the
  coefficients take the integer gcd, the bases go pair by pair, only
  pairs the irreducibility screen and the coprime-pair memo do not
  settle reach the polynomial gcd kernel, and every split found refines
  the pool's stored factorizations.

A factorization is an integer coefficient times a product of pooled
bases.  The public constructor is ``Factorization(coeff, factors)``,
*factors* a tuple of (handle, exponent) pairs sorted by handle with
positive exponents; it trusts its arguments to be canonical, and
:meth:`Factorization.of` builds the canonical factorization of a
polynomial.  The coefficient carries sign and integer content, and it
is 0 only for zero, so zero is ``Factorization(0, ())`` and one is
``Factorization(1, ())``.  The pool interns only non-constant bases,
each with positive leading coefficient and integer content 1, so no
constant divides a base and the constants are the same in every
session.  A factorization from an ended session names handles the
current pool does not have, so using it raises
:class:`~parmreach.polycore.StaleValue`.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .polycore import (
    CACHE_CAP,
    NotDivisible,
    Polynomial,
    Session,
    Variable,
    is_irreducible_heuristic,
    poly_divide_exact,
    poly_eval,
    poly_gcd,
    poly_mul,
    session,
)

__all__ = [
    "Factorization",
    "GcdTriple",
    "fmul",
    "fpow",
    "fadd",
    "gcd_factored",
]

# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonicalize factor pairs: merge duplicate bases, sort by handle."""
    acc: dict[int, int] = {}
    for h, e in pairs:
        acc[h] = acc.get(h, 0) + e
    return tuple(sorted(acc.items()))


class Factorization:
    """An integer coefficient times a multiset of (pool handle, exponent) factors.

    The represented polynomial is ``coeff`` times the product of
    ``base^exponent`` over all factors; the coefficient is 0 only for
    zero, whose factor tuple is empty.  Instances are immutable and
    equal only to a factorization with the same coefficient and
    factors; all algebra lives in the module-level operators.  They
    have slots, not a ``__dict__``: the session's caches and operation
    memo keep many of them alive.
    """

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff: int, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, key, value):
        raise AttributeError("Factorization is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Factorization)
            and self.coeff == other.coeff
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.coeff, self.factors))

    @property
    def is_zero(self) -> bool:
        return not self.coeff

    @property
    def is_one(self) -> bool:
        return self.coeff == 1 and not self.factors

    @classmethod
    def zero(cls) -> "Factorization":
        return _F_ZERO

    @classmethod
    def one(cls) -> "Factorization":
        return _F_ONE

    @classmethod
    def of(cls, p: Polynomial) -> "Factorization":
        """Canonical factorization of a polynomial.

        Splits off sign and integer content into the coefficient, interns
        the primitive part, and expands any refinement the pool has
        learned about it.
        """
        if p.is_constant:
            return cls(p.constant_value(), ())
        content, prim = p.split_content()
        if prim.leading_coefficient < 0:
            prim, content = -prim, -content
        s = session()
        return cls(content, _normalize(_resolve_memo(s.memos, s.intern(prim), 1)))

    def expand(self) -> Polynomial:
        """Multiply the factors back out.

        Partial products are combined smallest-first so intermediate
        results stay as compact as possible.  Products of bases are
        cached per factor tuple, and the coefficient is applied after:
        pooled handles never change meaning within a session, and the
        same products come up over and over during state elimination.
        Base powers come from :meth:`~parmreach.polycore.Session.power`,
        which keeps each base's highest power so far, so the rising
        powers of one base that elimination asks for cost one product
        each.
        """
        if not self.factors:
            return Polynomial.const(self.coeff)
        s = session()
        cache = s.expanded
        hit = cache.get(self.factors)
        if hit is not None:
            return hit.scale(self.coeff)
        heap = []
        for i, (h, e) in enumerate(self.factors):
            p = s.power(h, e)
            heap.append((len(p.terms), i, p))
        heapq.heapify(heap)
        tie = len(heap)
        while len(heap) > 1:
            _, _, pa = heapq.heappop(heap)
            _, _, pb = heapq.heappop(heap)
            prod = poly_mul(pa, pb)
            heapq.heappush(heap, (len(prod.terms), tie, prod))
            tie += 1
        out = heap[0][2]
        if len(cache) >= CACHE_CAP:
            cache.clear()
        cache[self.factors] = out
        return out.scale(self.coeff)

    def eval(
        self, assignment: Mapping[Variable, Fraction], bases: dict[int, Fraction] | None = None
    ) -> Fraction:
        """Evaluate the represented polynomial without expanding it, in
        integers until the end.  ``bases`` holds each base's value at
        ``assignment``, for calls at the same point to share."""
        polys = session().polys
        if bases is None:
            bases = {}
        num, den = self.coeff, 1
        for h, e in self.factors:
            v = bases.get(h)
            if v is None:
                v = bases[h] = poly_eval(polys[h], assignment)
            num *= v.numerator**e
            den *= v.denominator**e
        return Fraction(num, den)

    def __str__(self) -> str:
        """Bases sorted by their printed text, so the text does not depend
        on the order the pool interned them in, then the coefficient
        (left out when it is 1 and there are bases)."""
        if self.is_zero:
            return "0"
        polys = session().polys
        bases = sorted((f"({polys[h]})", e) for h, e in self.factors)
        out = [base if e == 1 else f"{base}^{e}" for base, e in bases]
        if self.coeff != 1 or not out:
            out.append(f"({self.coeff})")
        return "*".join(out)

    def __repr__(self) -> str:
        return f"Factorization[{self}]"


_F_ZERO = Factorization(0, ())
_F_ONE = Factorization(1, ())


def _resolve_memo(memos: Mapping[int, tuple], handle: int, exp: int) -> list[tuple[int, int]]:
    """Expand a handle through the pool's refinement memos, transitively;
    each piece is a proper divisor, so no chain returns to its start."""
    memo = memos.get(handle)
    if memo is None:
        return [(handle, exp)]
    out: list[tuple[int, int]] = []
    for h, e in memo:
        out.extend(_resolve_memo(memos, h, e * exp))
    return out


def fmul(f1: Factorization, f2: Factorization) -> Factorization:
    """Product: coefficients multiply, exponents add over the union of bases."""
    if f1.is_zero or f2.is_one:
        return f1
    if f2.is_zero or f1.is_one:
        return f2
    return Factorization(f1.coeff * f2.coeff, _normalize(f1.factors + f2.factors))


def fpow(f: Factorization, k: int) -> Factorization:
    """k-th power, k >= 0: exponents scale (0^0 is taken to be 1)."""
    if k < 0:
        raise ValueError("negative factorization power")
    if k == 0:
        return Factorization.one()
    if f.is_zero or k == 1:
        return f
    return Factorization(f.coeff**k, tuple((h, e * k) for h, e in f.factors))


def _split_shared(
    f1: Factorization, f2: Factorization
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The bases *f1* and *f2* share, each with its smaller exponent, and
    what is left of the bases of *f1* and of *f2*, as three factor tuples,
    in one pass.

    Lowering exponents of a sorted tuple keeps it sorted, so the three
    tuples come out canonical without :func:`_normalize`.
    """
    rest2 = dict(f2.factors)
    shared: list[tuple[int, int]] = []
    rest1: list[tuple[int, int]] = []
    for h, e1 in f1.factors:
        e2 = rest2.get(h)
        if e2 is None:
            rest1.append((h, e1))
            continue
        mn = min(e1, e2)
        shared.append((h, mn))
        if e1 > mn:
            rest1.append((h, e1 - mn))
        if e2 > mn:
            rest2[h] = e2 - mn
        else:
            del rest2[h]
    return tuple(shared), tuple(rest1), tuple(rest2.items())


def fadd(f1: Factorization, f2: Factorization) -> Factorization:
    """Sum that keeps the common factors of both operands factored out.

    The shared bases D (:func:`_split_shared`) are pulled out, and so is the
    signed gcd g of the coefficients, with the sign of ``f1.coeff``: the sum is
    ``g * D * (c1/g * R1 + c2/g * R2)`` for the cofactor products R1 and R2,
    and the (possibly reducible) sum in brackets becomes a new base.  R1 and
    R2 come from the expansion cache uncopied, and only a ``c/g`` other than 1
    copies one to scale it.  Every pooled base has a positive leading
    coefficient, so in the common case ``c1 = c2 = -1`` the two products
    merge as they are and the bracket needs no sign flip.
    ``Factorization.of`` interns the one positive-leading primitive part of
    the bracket, so the result is the one ``D * of(c1*R1 + c2*R2)`` gives.
    """
    if f1.is_zero:
        return f2
    if f2.is_zero:
        return f1
    d, rest1, rest2 = _split_shared(f1, f2)
    c1, c2 = f1.coeff, f2.coeff
    g = math.gcd(c1, c2) if c1 > 0 else -math.gcd(c1, c2)
    r1, r2 = Factorization(1, rest1).expand(), Factorization(1, rest2).expand()
    s = r1.scale(c1 // g) + r2.scale(c2 // g)
    if s.is_zero:
        return _F_ZERO
    return fmul(Factorization(g, d), Factorization.of(s))


# ---------------------------------------------------------------------------
# gcd on factorizations with refinement
# ---------------------------------------------------------------------------


class GcdTriple(NamedTuple):
    """Result of :func:`gcd_factored`.

    ``common`` represents the gcd of the two input polynomials, with
    positive coefficient; ``cofactor_left`` and ``cofactor_right``
    represent the inputs divided by it, and their expanded products are
    coprime.
    """

    cofactor_left: Factorization
    cofactor_right: Factorization
    common: Factorization


def _settle_pair(p: Session, r1: Polynomial, irr1: bool, h2: int) -> tuple | None:
    """``(g, r1/g, r2/g)`` for the gcd g of *r1* (screened *irr1*) and base
    ``r2`` of handle *h2*, or None if they are coprime; see :func:`gcd_factored`.

    A pair a trial division proved coprime is kept in the session's
    coprime-pair memo (``Session.coprime``), which answers it from then
    on: two fixed polynomials stay coprime however the pool is refined.
    """
    r2 = p.polys[h2]
    if r1 == r2:
        return r1, Polynomial.one(), Polynomial.one()
    irr2 = p.is_irreducible(h2)
    if irr1 and irr2:
        return None  # distinct irreducibles
    if (r1, h2) in p.coprime:
        return None
    if irr1 or irr2:
        # a primitive irreducible base divides the other or is coprime to it
        try:
            q = poly_divide_exact(r2, r1) if irr1 else poly_divide_exact(r1, r2)
        except NotDivisible:
            if len(p.coprime) >= CACHE_CAP:
                p.coprime.clear()
            p.coprime.add((r1, h2))
            return None
        return (r1, Polynomial.one(), q) if irr1 else (r2, q, Polynomial.one())
    p.gcd_kernel_calls += 1
    g = poly_gcd(r1, r2)
    return None if g.is_one else (g, poly_divide_exact(r1, g), poly_divide_exact(r2, g))


def _look_up(p: Session, factors: tuple[tuple[int, int], ...]) -> None:
    """Read each base of *factors*, so that a value from an ended session
    raises :class:`~parmreach.polycore.StaleValue` at the call that used it."""
    for h, _ in factors:
        p.polys[h]


def gcd_factored(f1: Factorization, f2: Factorization) -> GcdTriple:
    """gcd of two factored polynomials, refining as it goes.

    The coefficients take the integer gcd; bases are primitive, so no
    constant other than 1 divides them.  The bases go pair by pair:
    shared bases are taken directly, two distinct bases the screen
    (:func:`~parmreach.polycore.is_irreducible_heuristic`) certifies
    irreducible are coprime, and a certified base divides the other or
    is coprime to it, so one trial division settles the pair.  Only
    other pairs reach the kernel.  Every split found is recorded in the
    pool.

    Examples
    --------
    With fresh variables x, y, z:

    >>> from parmreach.polycore import variables, Polynomial
    >>> x, y, z = variables("x", "y", "z")
    >>> X, Y, Z = (Polynomial.of_variable(v) for v in (x, y, z))
    >>> t = gcd_factored(Factorization.of(X * Y * Z), fmul(Factorization.of(X), Factorization.of(Y)))
    >>> str(t.cofactor_left), str(t.cofactor_right), str(t.common)
    ('(z)', '(1)', '(x)*(y)')
    >>> calls, one = session().gcd_kernel_calls, Polynomial.one()
    >>> t = gcd_factored(Factorization.of(X * X - one), Factorization.of(X + one))
    >>> str(t.cofactor_left), str(t.common), session().gcd_kernel_calls == calls
    ('(x - 1)', '(x + 1)', True)
    """
    if f1.is_zero or f2.is_zero:
        raise ValueError("gcd undefined for the zero factorization")
    c = math.gcd(f1.coeff, f2.coeff)
    p = session()
    if c == 1 and not (f1.factors and f2.factors):  # nothing to pair, nothing shared
        _look_up(p, f1.factors or f2.factors)
        return GcdTriple(f1, f2, _F_ONE)
    shared, rest1, rest2 = _split_shared(f1, f2)
    if not rest1:  # the loop below reads no base
        _look_up(p, f2.factors)
    # Bases are taken smallest handle first, and every base added later is
    # a nontrivial gcd or quotient.
    common_acc, work1, work2 = dict(shared), dict(rest1), dict(rest2)
    left_acc: dict[int, int] = {}
    refined = False
    while work1:
        h1 = min(work1)
        e1 = work1.pop(h1)
        r1 = p.polys[h1]
        irr1 = p.is_irreducible(h1)
        shift2: dict[int, int] = {}
        pieces: list[int] = []
        # each step pops h2 from work2 and puts back at most a divisor
        # of it, at a lower exponent, so the loop ends
        while not r1.is_one and work2:
            h2 = min(work2)
            e2 = work2.pop(h2)
            split = _settle_pair(p, r1, irr1, h2)
            if split is None:
                shift2[h2] = shift2.get(h2, 0) + e2
            else:
                g, r1, q2 = split
                refined = True
                irr1 = is_irreducible_heuristic(r1)
                mn = min(e1, e2)
                hg = p.intern(g)
                if e1 > mn:
                    work1[hg] = work1.get(hg, 0) + (e1 - mn)
                if e2 > mn:
                    work2[hg] = work2.get(hg, 0) + (e2 - mn)
                if not q2.is_one:
                    hq2 = p.intern(q2)
                    shift2[hq2] = shift2.get(hq2, 0) + e2
                    p.remember(h2, _normalize([(hg, 1), (hq2, 1)]))
                common_acc[hg] = common_acc.get(hg, 0) + mn
                pieces.append(hg)
        if not r1.is_one:
            hr1 = p.intern(r1)
            left_acc[hr1] = left_acc.get(hr1, 0) + e1
            if pieces:
                p.remember(h1, _normalize([(q, 1) for q in pieces] + [(hr1, 1)]))
        elif pieces:
            p.remember(h1, _normalize([(q, 1) for q in pieces]))
        for h, e in shift2.items():
            work2[h] = work2.get(h, 0) + e
    if refined:  # else the tuples of _split_shared are canonical already
        rest1, rest2, shared = (_normalize(a.items()) for a in (left_acc, work2, common_acc))
    return GcdTriple(
        cofactor_left=Factorization(f1.coeff // c, rest1),
        cofactor_right=Factorization(f2.coeff // c, rest2),
        common=Factorization(c, shared),
    )
