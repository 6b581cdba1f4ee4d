"""Shared polynomial pool and factorization-preserving arithmetic.

Rational-function arithmetic in this package never expands products
eagerly.  Instead every polynomial is represented by a *factorization*:
a set of (base, exponent) pairs whose expanded product is the
polynomial.  Bases live in a process-wide :class:`PolyPool` that interns
each distinct polynomial once, caches its irreducibility screen, and
remembers refinements discovered by :func:`gcd_factored` so later
computations start from the finest known split.

The operator set mirrors the usual arithmetic:

* :func:`fmul` / :func:`fdiv` -- exponent addition / clamped subtraction,
* :func:`fcm` / :func:`fcd`   -- factor-wise lcm / shared-base divisor,
* :func:`fadd`                -- addition with common factors pulled out,
* :func:`gcd_factored`        -- gcd of two factorizations that works
  base-by-base, calls the polynomial gcd kernel only on pairs not known
  to be irreducible, and refines the pool's stored factorizations with
  every split it finds.

Zero is represented by the empty factorization; one by ``{1^1}``.
Bases are canonical: non-constant bases have positive leading
coefficient and integer content 1, and each factorization carries at
most one constant base (which absorbs sign and content).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ParmreachError
from .polycore import (
    Irreducibility,
    Polynomial,
    Variable,
    is_irreducible_heuristic,
    poly_divide_exact,
    poly_gcd,
    poly_mul,
)

__all__ = [
    "InsufficientRefinement",
    "PolyPool",
    "PoolStats",
    "pool",
    "reset_pool",
    "Factorization",
    "GcdTriple",
    "reduce_factorization",
    "fcm",
    "fcd",
    "fmul",
    "fpow",
    "fdiv",
    "fadd",
    "gcd_factored",
    "pool_stats",
]

# When enabled, fdiv verifies that the clamped-exponent quotient times the
# divisor reproduces the dividend, and raises InsufficientRefinement if the
# factorizations were too coarse for the division to be exact.
CHECK_DIVISION = False

# When enabled, gcd_factored asserts that its termination rank strictly
# decreases across outer-loop iterations.
CHECK_TERMINATION = False


class InsufficientRefinement(ParmreachError):
    """A factorization was too coarse for an exact factor-wise division."""


@dataclass(frozen=True)
class PoolStats:
    """Snapshot of pool counters."""

    stored_polynomials: int
    gcd_kernel_calls: int


class _Entry:
    __slots__ = ("poly", "irreducibility", "memo")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.irreducibility: Irreducibility | None = None
        self.memo: tuple[tuple[int, int], ...] | None = None


class PolyPool:
    """Process-wide interning table for factor bases; interning is idempotent."""

    def __init__(self):
        self._entries: list[_Entry] = []
        self._index: dict[Polynomial, int] = {}
        self.gcd_kernel_calls = 0
        # handle 0 is always the constant 1
        self.intern(Polynomial.one())

    def intern(self, p: Polynomial) -> int:
        h = self._index.get(p)
        if h is None:
            h = len(self._entries)
            self._entries.append(_Entry(p))
            self._index[p] = h
        return h

    def poly(self, handle: int) -> Polynomial:
        return self._entries[handle].poly

    def irreducibility(self, handle: int) -> Irreducibility:
        e = self._entries[handle]
        if e.irreducibility is None:
            e.irreducibility = is_irreducible_heuristic(e.poly)
        return e.irreducibility

    def note_kernel_call(self) -> None:
        self.gcd_kernel_calls += 1

    def store_memo(self, handle: int, factors: tuple[tuple[int, int], ...]) -> None:
        if factors == ((handle, 1),):
            return  # trivial self-factorization, nothing learned
        self._entries[handle].memo = factors

    def memo(self, handle: int) -> tuple[tuple[int, int], ...] | None:
        return self._entries[handle].memo

    def stats(self) -> PoolStats:
        # handle 0 (the constant 1) is bookkeeping, not a stored polynomial
        return PoolStats(len(self._entries) - 1, self.gcd_kernel_calls)


_pool = PolyPool()

# expanded products per factor tuple; valid for the current pool only
_EXPAND_CACHE: dict[tuple[tuple[int, int], ...], Polynomial] = {}
_EXPAND_CACHE_CAP = 65536


def pool() -> PolyPool:
    """The session's shared pool."""
    return _pool


def reset_pool() -> None:
    """Replace the session pool; factorizations made before the reset
    must not be used afterwards."""
    global _pool
    _pool = PolyPool()
    _EXPAND_CACHE.clear()


def pool_stats() -> PoolStats:
    return _pool.stats()


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Canonicalize factor pairs: merge duplicates, fold constants into a
    single constant base, drop exponent-0 and base-1 factors, sort by
    handle.  An empty result denotes the polynomial one and is returned
    as ``((handle_of_one, 1),)``."""
    p = _pool
    acc: dict[int, int] = {}
    for h, e in pairs:
        if e:
            acc[h] = acc.get(h, 0) + e
    const = 1
    out: list[tuple[int, int]] = []
    for h, e in acc.items():
        if e == 0:
            continue
        base = p.poly(h)
        if base.is_constant:
            c = base.constant_value()
            if c == 1:
                continue
            if c == -1:
                const = -const if e % 2 else const
            else:
                if e < 0:
                    raise ValueError("negative exponent on a non-unit constant base")
                const *= c**e
        else:
            if e < 0:
                raise ValueError("negative exponent in factorization")
            out.append((h, e))
    if const != 1:
        out.append((p.intern(Polynomial.const(const)), 1))
    if not out:
        return ((p.intern(Polynomial.one()), 1),)
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
        return len(self.factors) == 1 and self.factors[0][1] == 1 and _pool.poly(self.factors[0][0]).is_one

    @classmethod
    def zero(cls) -> "Factorization":
        return _F_ZERO

    @classmethod
    def one(cls) -> "Factorization":
        return Factorization(((_pool.intern(Polynomial.one()), 1),))

    @classmethod
    def of(cls, p: Polynomial) -> "Factorization":
        """Canonical factorization of a polynomial.

        Splits off sign and integer content into a constant base, interns
        the primitive part, and expands any refinement the pool has
        learned about it.
        """
        if p.is_zero:
            return _F_ZERO
        if p.is_constant:
            return cls(_normalize([(_pool.intern(p), 1)]))
        content, prim = p.split_content()
        sign = 1
        if prim.leading_coefficient < 0:
            prim = -prim
            sign = -1
        pairs: list[tuple[int, int]] = []
        if sign * content != 1:
            pairs.append((_pool.intern(Polynomial.const(sign * content)), 1))
        h = _pool.intern(prim)
        pairs.extend(_resolve_memo(h, 1))
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
        hit = _EXPAND_CACHE.get(self.factors)
        if hit is not None:
            return hit
        heap = []
        for i, (h, e) in enumerate(self.factors):
            p = _pool.poly(h) ** e
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
        if len(_EXPAND_CACHE) >= _EXPAND_CACHE_CAP:
            _EXPAND_CACHE.clear()
        _EXPAND_CACHE[self.factors] = out
        return out

    def eval(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Evaluate the represented polynomial without expanding it."""
        from .polycore import poly_eval

        if not self.factors:
            return Fraction(0)
        out = Fraction(1)
        for h, e in self.factors:
            out *= poly_eval(_pool.poly(h), assignment) ** e
        return out

    def __str__(self) -> str:
        """Factors sorted by their printed base, the constant last, so the
        text does not depend on the order the pool interned them in."""
        if not self.factors:
            return "0"
        bases = sorted(
            (_pool.poly(h).is_constant, f"({_pool.poly(h)})", e) for h, e in self.factors
        )
        return "*".join(base if e == 1 else f"{base}^{e}" for _, base, e in bases)

    def __repr__(self) -> str:
        return f"Factorization[{self}]"


_F_ZERO = Factorization(())


def _resolve_memo(handle: int, exp: int) -> list[tuple[int, int]]:
    """Expand a handle through the pool's refinement memos, transitively."""
    entry_memo = _pool.memo(handle)
    if entry_memo is None:
        return [(handle, exp)]
    out: list[tuple[int, int]] = []
    for h, e in entry_memo:
        if h == handle:  # self reference, cannot refine further
            out.append((h, e * exp))
        else:
            out.extend(_resolve_memo(h, e * exp))
    return out


def _require_nonzero(*fs: Factorization) -> None:
    for f in fs:
        if f.is_zero:
            raise ValueError("operation undefined for the zero factorization")


def reduce_factorization(f: Factorization) -> Factorization:
    """Drop exponent-0 and base-1 factors; canonicalize constants.

    The zero factorization reduces to itself; a factorization whose
    factors all vanish reduces to ``{1^1}``.
    """
    if f.is_zero:
        return f
    return Factorization(_normalize(f.factors))


def fcm(f1: Factorization, f2: Factorization) -> Factorization:
    """Factor-wise least common multiple: max exponent per base."""
    _require_nonzero(f1, f2)
    acc = dict(f1.factors)
    for h, e in f2.factors:
        if acc.get(h, 0) < e:
            acc[h] = e
    return Factorization(_normalize(acc.items()))


def fcd(f1: Factorization, f2: Factorization) -> Factorization:
    """Factor-wise common divisor: min exponent over shared bases.

    A common divisor of the represented polynomials, but only as fine as
    the factorizations themselves -- structurally distinct bases do not
    get split here (that is :func:`gcd_factored`'s job).
    """
    _require_nonzero(f1, f2)
    other = dict(f2.factors)
    shared = [(h, min(e, other[h])) for h, e in f1.factors if h in other]
    return Factorization(_normalize(shared))


def fmul(f1: Factorization, f2: Factorization) -> Factorization:
    """Product: exponents add over the union of bases."""
    if f1.is_zero or f2.is_zero:
        return _F_ZERO
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


def fdiv(f1: Factorization, f2: Factorization) -> Factorization:
    """Factor-wise quotient with exponents clamped at zero.

    Exact when every factor of *f2* appears in *f1* with at least the
    same exponent; otherwise the result merely drops the shared part.
    With :data:`CHECK_DIVISION` enabled, an inexact division raises
    :class:`InsufficientRefinement` instead of passing silently.
    """
    _require_nonzero(f1, f2)
    other = dict(f2.factors)
    out = []
    for h, e in f1.factors:
        out.append((h, max(0, e - other.get(h, 0))))
    result = Factorization(_normalize(out))
    if CHECK_DIVISION:
        if poly_mul(result.expand(), f2.expand()) != f1.expand():
            raise InsufficientRefinement(
                f"cannot divide {f1} by {f2} factor-wise; refine the factorizations first"
            )
    return result


def fadd(f1: Factorization, f2: Factorization) -> Factorization:
    """Sum that keeps the common factors of both operands factored out.

    The shared part D = fcd(f1, f2) is pulled out, the cofactors are
    expanded and added, and the (possibly reducible) sum becomes a new
    base: ``D * {expand(f1/D) + expand(f2/D)}``.
    """
    if f1.is_zero:
        return f2
    if f2.is_zero:
        return f1
    d = fcd(f1, f2)
    c1 = fdiv(f1, d)
    c2 = fdiv(f2, d)
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
    return sum(e * _size(_pool.poly(h)) for h, e in factors.items())


def _pick(d: dict[int, int]) -> int | None:
    """Smallest handle whose base is not the polynomial one."""
    for h in sorted(d):
        if not _pool.poly(h).is_one and d[h] > 0:
            return h
    return None


def gcd_factored(f1: Factorization, f2: Factorization) -> GcdTriple:
    """gcd of two factored polynomials, refining as it goes.

    Works base-by-base: structurally shared factors are taken directly;
    remaining base pairs are compared with the polynomial gcd kernel
    unless both are known irreducible (constant pairs always use the
    cheap integer gcd).  Every nontrivial split found along the way is
    recorded in the pool so the bases involved enter future computations
    already refined.

    Examples
    --------
    With fresh variables x, y, z:

    >>> from parmreach.polycore import variables, Polynomial
    >>> x, y, z = variables("x", "y", "z")
    >>> X, Y, Z = (Polynomial.of_variable(v) for v in (x, y, z))
    >>> t = gcd_factored(Factorization.of(X * Y * Z), fmul(Factorization.of(X), Factorization.of(Y)))
    >>> str(t.cofactor_left), str(t.cofactor_right), str(t.common)
    ('(z)', '(1)', '(x)*(y)')
    """
    _require_nonzero(f1, f2)
    p = _pool
    g_shared = fcd(f1, f2)
    work1 = dict(fdiv(f1, g_shared).factors)
    work2 = dict(fdiv(f2, g_shared).factors)
    left_acc: dict[int, int] = {}
    common_acc: dict[int, int] = dict(g_shared.factors)

    while (h1 := _pick(work1)) is not None:
        e1 = work1.pop(h1)
        r1 = p.poly(h1)
        shift2: dict[int, int] = {}
        pieces: list[int] = []
        rank_before = _rank(work2) if CHECK_TERMINATION else 0
        while not r1.is_one and (h2 := _pick(work2)) is not None:
            e2 = work2.pop(h2)
            r2 = p.poly(h2)
            if r1.is_constant and r2.is_constant:
                g = poly_gcd(r1, r2)  # plain integer gcd, no kernel needed
            elif r1 == r2:
                g = r1
            elif (
                is_irreducible_heuristic(r1) is Irreducibility.IRREDUCIBLE
                and p.irreducibility(h2) is Irreducibility.IRREDUCIBLE
            ):
                # distinct irreducibles are coprime; skip the kernel
                g = Polynomial.one()
            else:
                p.note_kernel_call()
                g = poly_gcd(r1, r2)
            if g.is_one:
                shift2[h2] = shift2.get(h2, 0) + e2
            else:
                r1 = poly_divide_exact(r1, g)
                q2 = poly_divide_exact(r2, g)
                mn = min(e1, e2)
                hg = p.intern(g)
                if e1 > mn:
                    work1[hg] = work1.get(hg, 0) + (e1 - mn)
                if e2 > mn:
                    work2[hg] = work2.get(hg, 0) + (e2 - mn)
                if not q2.is_one:
                    hq2 = p.intern(q2)
                    shift2[hq2] = shift2.get(hq2, 0) + e2
                    p.store_memo(h2, _normalize([(hg, 1), (hq2, 1)]))
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
                p.store_memo(h1, _normalize([(q, 1) for q in pieces] + [(hr1, 1)]))
        elif pieces:
            p.store_memo(h1, _normalize([(q, 1) for q in pieces]))
        for h, e in shift2.items():
            work2[h] = work2.get(h, 0) + e

    return GcdTriple(
        cofactor_left=Factorization(_normalize(left_acc.items())),
        cofactor_right=Factorization(_normalize(work2.items())),
        common=Factorization(_normalize(common_acc.items())),
    )
