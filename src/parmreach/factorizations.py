"""Factorization-preserving arithmetic over the session's factor pool.

Rational-function arithmetic in this package never expands products
eagerly.  Instead every polynomial is represented by a *factorization*:
a set of (base, exponent) pairs whose expanded product is the
polynomial.  Bases live in the pool of the current
:class:`~parmreach.polycore.Session`, which interns each distinct
polynomial once under an int handle, caches its irreducibility screen,
and remembers refinements discovered by :func:`gcd_factored` so later
computations start from the finest known split.

The operators:

* :func:`fmul` / :func:`fpow` -- exponent addition / scaling,
* :func:`fadd`                -- addition with common factors pulled out,
* :func:`gcd_factored`        -- gcd of two factorizations pair by pair;
  only pairs of non-constant bases that the irreducibility screen does
  not certify reach the polynomial gcd kernel, and every split found
  refines the pool's stored factorizations.

Zero is represented by the empty factorization; one by ``{1^1}``.
Bases are canonical: non-constant bases have positive leading
coefficient and integer content 1, so no constant divides them, and
each factorization carries at most one constant base (which absorbs
sign and content).

Pool handle 0 is always the constant 1, so the one factorization is the
factor tuple ``((0, 1),)`` in every session, and no other canonical
factorization mentions handle 0.  The pool also records, per handle,
the value of a constant base (``None`` for a non-constant one), so
canonicalization folds constants without looking at any polynomial.
A factorization from an ended session names handles the current pool
does not have, so using it raises
:class:`~parmreach.polycore.StaleValue`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .polycore import (
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

# When enabled, gcd_factored asserts that its termination rank strictly
# decreases across outer-loop iterations.
CHECK_TERMINATION = False


_EXPAND_CACHE_CAP = 65536


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


_ONE_FACTORS = ((0, 1),)


def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonicalize factor pairs: merge duplicates, fold constants into a
    single constant base, drop exponent-0 and base-1 factors, sort by
    handle.  An empty result denotes the polynomial one and is returned
    as ``_ONE_FACTORS``."""
    consts = session().consts
    acc: dict[int, int] = {}
    for h, e in pairs:
        if e:
            acc[h] = acc.get(h, 0) + e
    const = 1
    out: list[tuple[int, int]] = []
    for h, e in acc.items():
        if e == 0:
            continue
        c = consts[h]
        if c is None:
            if e < 0:
                raise ValueError("negative exponent in factorization")
            out.append((h, e))
        elif c == 1:
            continue
        elif c == -1:
            const = -const if e % 2 else const
        else:
            if e < 0:
                raise ValueError("negative exponent on a non-unit constant base")
            const *= c**e
    if const != 1:
        out.append((session().intern(Polynomial.const(const)), 1))
    if not out:
        return _ONE_FACTORS
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Factorization:
    """A multiset of (pool handle, exponent) factors.

    The represented polynomial is the product of ``base^exponent`` over
    all factors; the empty factorization represents zero.  Instances are
    immutable; all algebra lives in the module-level operators.
    """

    factors: tuple[tuple[int, int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.factors

    @property
    def is_one(self) -> bool:
        return self.factors == _ONE_FACTORS

    @classmethod
    def zero(cls) -> "Factorization":
        return _F_ZERO

    @classmethod
    def one(cls) -> "Factorization":
        return _F_ONE

    @classmethod
    def of(cls, p: Polynomial) -> "Factorization":
        """Canonical factorization of a polynomial.

        Splits off sign and integer content into a constant base, interns
        the primitive part, and expands any refinement the pool has
        learned about it.
        """
        if p.is_zero:
            return _F_ZERO
        s = session()
        if p.is_constant:
            return cls(_normalize([(s.intern(p), 1)]))
        content, prim = p.split_content()
        sign = 1
        if prim.leading_coefficient < 0:
            prim = -prim
            sign = -1
        pairs: list[tuple[int, int]] = []
        if sign * content != 1:
            pairs.append((s.intern(Polynomial.const(sign * content)), 1))
        pairs.extend(_resolve_memo(s.memos, s.intern(prim), 1))
        return cls(_normalize(pairs))

    def expand(self) -> Polynomial:
        """Multiply the factors back out.

        Partial products are combined smallest-first so intermediate
        results stay as compact as possible.  Results are cached per
        factor tuple: pooled handles never change meaning within a
        session, and the same products come up over and over during
        state elimination.
        """
        if not self.factors:
            return Polynomial.zero()
        s = session()
        cache = s.expanded
        hit = cache.get(self.factors)
        if hit is not None:
            return hit
        heap = []
        for i, (h, e) in enumerate(self.factors):
            p = s.polys[h] ** e
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
        if len(cache) >= _EXPAND_CACHE_CAP:
            cache.clear()
        cache[self.factors] = out
        return out

    def eval(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Evaluate the represented polynomial without expanding it."""
        if not self.factors:
            return Fraction(0)
        polys = session().polys
        out = Fraction(1)
        for h, e in self.factors:
            out *= poly_eval(polys[h], assignment) ** e
        return out

    def __str__(self) -> str:
        """Factors sorted by their printed base, the constant last, so the
        text does not depend on the order the pool interned them in."""
        if not self.factors:
            return "0"
        polys = session().polys
        bases = sorted((polys[h].is_constant, f"({polys[h]})", e) for h, e in self.factors)
        return "*".join(base if e == 1 else f"{base}^{e}" for _, base, e in bases)

    def __repr__(self) -> str:
        return f"Factorization[{self}]"


_F_ZERO = Factorization(())
_F_ONE = Factorization(_ONE_FACTORS)


def _resolve_memo(memos: Mapping[int, tuple], handle: int, exp: int) -> list[tuple[int, int]]:
    """Expand a handle through the pool's refinement memos, transitively."""
    memo = memos.get(handle)
    if memo is None:
        return [(handle, exp)]
    out: list[tuple[int, int]] = []
    for h, e in memo:
        if h == handle:  # self reference, cannot refine further
            out.append((h, e * exp))
        else:
            out.extend(_resolve_memo(memos, h, e * exp))
    return out


def fmul(f1: Factorization, f2: Factorization) -> Factorization:
    """Product: exponents add over the union of bases."""
    if f1.is_zero or f2.is_one:
        return f1
    if f2.is_zero or f1.is_one:
        return f2
    acc = dict(f1.factors)
    for h, e in f2.factors:
        acc[h] = acc.get(h, 0) + e
    return Factorization(_normalize(acc.items()))


def fpow(f: Factorization, k: int) -> Factorization:
    """k-th power, k >= 0: exponents scale (0^0 is taken to be 1)."""
    if k < 0:
        raise ValueError("negative factorization power")
    if k == 0:
        return Factorization.one()
    if f.is_zero or k == 1:
        return f
    return Factorization(_normalize((h, e * k) for h, e in f.factors))


def _split_shared(
    f1: Factorization, f2: Factorization
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The bases *f1* and *f2* share, each with its smaller exponent, and
    what is left of *f1* and of *f2*, as three factor tuples, in one pass.

    Both operands must be canonical.  Lowering exponents of a canonical
    tuple keeps it sorted, and its one constant base (exponent 1) is
    either shared whole or not at all, so the three tuples come out
    canonical without :func:`_normalize`, except that an empty tuple
    stands for one.
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

    The shared bases D (:func:`_split_shared`) are pulled out, the cofactors are
    expanded and added, and the (possibly reducible) sum becomes a new
    base: ``D * {expand(f1/D) + expand(f2/D)}``.
    """
    if f1.is_zero:
        return f2
    if f2.is_zero:
        return f1
    d, c1, c2 = (Factorization(t or _ONE_FACTORS) for t in _split_shared(f1, f2))
    s = c1.expand() + c2.expand()
    if s.is_zero:
        return _F_ZERO
    return fmul(d, Factorization.of(s))


# ---------------------------------------------------------------------------
# gcd on factorizations with refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GcdTriple:
    """Result of :func:`gcd_factored`.

    ``common`` represents the gcd of the two input polynomials;
    ``cofactor_left`` and ``cofactor_right`` represent the inputs divided
    by it, and their expanded products are coprime.
    """

    cofactor_left: Factorization
    cofactor_right: Factorization
    common: Factorization


def _size(p: Polynomial) -> int:
    """Multiplicative size: total degree plus bit size of the integer
    content.  Positive for every non-unit polynomial, and splitting a
    polynomial splits its size, so it serves as a termination rank."""
    content = abs(p.constant_value()) if p.is_constant else p.integer_content()
    return p.total_degree() + content.bit_length() - 1


def _rank(factors: Mapping[int, int]) -> int:
    """Exponent-weighted size of a working factor multiset."""
    polys = session().polys
    return sum(e * _size(polys[h]) for h, e in factors.items())


def _settle_pair(p: Session, r1: Polynomial, c1: int | None, irr1: bool, h2: int) -> tuple | None:
    """``(g, r1/g, r2/g)`` for the gcd g of *r1* (valued *c1* if constant, screened *irr1*)
    and base ``r2`` of handle *h2*, or None if they are coprime; see :func:`gcd_factored`."""
    r2 = p.polys[h2]
    c2 = p.consts[h2]
    if c1 is not None or c2 is not None:
        # a constant and a primitive base are coprime (None is content 1)
        c = math.gcd(c1 or 1, c2 or 1)
        return None if c == 1 else tuple(Polynomial.const(v) for v in (c, c1 // c, c2 // c))
    if r1 == r2:
        return r1, Polynomial.one(), Polynomial.one()
    irr2 = p.is_irreducible(h2)
    if irr1 and irr2:
        return None  # distinct irreducibles
    if irr1 or irr2:
        # a primitive irreducible base divides the other or is coprime to it
        try:
            q = poly_divide_exact(r2, r1) if irr1 else poly_divide_exact(r1, r2)
        except NotDivisible:
            return None
        return (r1, Polynomial.one(), q) if irr1 else (r2, q, Polynomial.one())
    p.gcd_kernel_calls += 1
    g = poly_gcd(r1, r2)
    return None if g.is_one else (g, poly_divide_exact(r1, g), poly_divide_exact(r2, g))


def gcd_factored(f1: Factorization, f2: Factorization) -> GcdTriple:
    """gcd of two factored polynomials, refining as it goes.

    Works base-by-base: shared factors are taken directly.  Two constants
    take the integer gcd; a constant and a non-constant base are coprime,
    as non-constant bases are primitive; a base the screen certifies
    irreducible (primitive, total degree one) divides the other or is
    coprime to it, so one trial division settles the pair.  Only other
    pairs reach the kernel.  Every split found is recorded in the pool.

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
    if f1.is_one or f2.is_one:
        return GcdTriple(f1, f2, _F_ONE)
    p = session()
    # Neither operand is one, so no multiset below starts with handle 0
    # (the base 1), and every base added later is a nontrivial gcd or
    # quotient.  Bases are taken smallest handle first.
    shared, rest1, rest2 = _split_shared(f1, f2)
    common_acc, work1, work2 = dict(shared), dict(rest1), dict(rest2)
    left_acc: dict[int, int] = {}
    refined = False

    while work1:
        h1 = min(work1)
        e1 = work1.pop(h1)
        r1 = p.polys[h1]
        c1 = p.consts[h1]
        irr1 = p.is_irreducible(h1)
        shift2: dict[int, int] = {}
        pieces: list[int] = []
        rank_before = _rank(work2) if CHECK_TERMINATION else 0
        while not r1.is_one and work2:
            h2 = min(work2)
            e2 = work2.pop(h2)
            split = _settle_pair(p, r1, c1, irr1, h2)
            if split is None:
                shift2[h2] = shift2.get(h2, 0) + e2
            else:
                g, r1, q2 = split
                refined = True
                c1 = None if c1 is None else r1.constant_value()
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
            if CHECK_TERMINATION:
                rank_now = _rank(work2)
                assert rank_now < rank_before, "inner gcd loop rank did not decrease"
                rank_before = rank_now
        if not r1.is_one:
            hr1 = p.intern(r1)
            left_acc[hr1] = left_acc.get(hr1, 0) + e1
            if pieces:
                p.remember(h1, _normalize([(q, 1) for q in pieces] + [(hr1, 1)]))
        elif pieces:
            p.remember(h1, _normalize([(q, 1) for q in pieces]))
        for h, e in shift2.items():
            work2[h] = work2.get(h, 0) + e

    if not refined:  # the tuples of _split_shared are canonical already
        return GcdTriple(*(Factorization(t or _ONE_FACTORS) for t in (rest1, rest2, shared)))
    return GcdTriple(
        cofactor_left=Factorization(_normalize(left_acc.items())),
        cofactor_right=Factorization(_normalize(work2.items())),
        common=Factorization(_normalize(common_acc.items())),
    )
