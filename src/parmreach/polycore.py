"""Exact multivariate polynomial arithmetic over integer coefficients.

This module is the arithmetic bedrock of the package: interned variables,
normalized sparse polynomials, exact division, and a multivariate GCD.
Everything is deterministic: variables carry session-unique indices, and
a monomial is one int key holding the exponent of variable index i in
bits 32i..32i+31 (exponents below 2**31).  Integer order on keys
compares exponent vectors reverse lexicographically (higher variable
index is more significant, the constant monomial 0 is least), and
polynomial terms are stored leading-first under that order.  No other
module reads key fields.

All mutable state of the package lives in one :class:`Session`: the
variable table, the gcd memo and the line certificate's images, the
factor pool, its coprime-pair memo and the product and power caches of
:mod:`parmreach.factorizations`, and the operation memo of
:mod:`parmreach.ratfun`.  :func:`reset_session` replaces it.

Coefficients are plain Python ints; scalar results are
:class:`fractions.Fraction`.  Decimal inputs are expected to have been
cleared into integer-coefficient numerator/denominator pairs by the
caller (the model parser does this), so no floats appear here.

:func:`poly_gcd` tries the paths below in order.  Each "without it"
figure was taken on a copy of the module without the path, over the 40
fuzz models of ``perfbench/gen.py`` (family seed 13123979) under both
engines, when the kernel body ran 2,427 times there (before components
with several inputs were left to their enclosing elimination).  Each
"answers" count is from one cold scc query per fuzz model now, when
the body runs 409 times (405 under elim).  It ran 500 times (492)
before :func:`is_irreducible_heuristic` certified bases of degree one
in some variable, when the factor pool, which calls the kernel only on
pairs the screen leaves open, sent it pairs it now settles with one
trial division or none.  On crowds(10, 12) plus zeroconf(40) every pair
is settled so, and the body, which ran 224 times there, no longer runs;
ruin makes no kernel call.

1. Memo: the session's gcd memo by operand pair, because the factor
   refinement asks for the same pairs again.  Without it the kernel
   body ran 3,654 times instead of 2,427.
2. Monomial content: a monomial divides a polynomial exactly when it
   divides every term, so that share of the gcd splits off by key
   minima.  Without it the kernel body ran 2,671 times instead of 2,427.
   Then equal operands (up to sign) answer 136 times and a constant one
   40 times, 13 of them after a monomial content split off.
3. Line certificate: :func:`_image_gcd_degree` by total degree under
   x_i -> a_i * t modulo the prime 2**30 - 35; 0 proves a constant gcd
   (answers 174).  Without it the heuristic gcd was called 110 times
   instead of 84, and on family seed 20240601 scc's kernel time rose by
   about 50 %.  The certificate is sound for any prime, and a point
   where an image loses degree, which is only inconclusive, is about
   deg/p likely; below 2**30 a product of two residues takes two of
   CPython's 30-bit digits, against five with the 61-bit prime used
   before.  One base meets many others, so the session keeps each
   operand's image per attempt (``Session.images``) and each
   variable's point powers (``Session.point_powers``).
4. v-content: the gcd of the coefficients in the main variable v; the
   paths below need v-primitive operands (one free of v answers 5).
5. v-degree bound: :func:`_image_gcd_degree` in v; 0 proves coprime
   v-parts (answers 3), and a division-verified common divisor of that
   degree is the gcd.
6. Trial division, when the bound is the smaller v-degree (answers 44).
   Without it the heuristic gcd was called 319 times instead of 84.
7. Heuristic gcd by big-integer evaluation (:func:`_heu_gcd`, answers
   7).  Without it the remainder sequence answers its cases, and one
   random model of 15-18 states took 23.9 s instead of 0.44 s.
8. Primitive remainder sequence in v (:func:`_primitive_prs_gcd`), the
   exact fallback when nothing above is conclusive, a heuristic divisor
   below the image bound included (answers 0).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping

from .errors import ParmreachError

__all__ = [
    "Variable",
    "variable",
    "variables",
    "Session",
    "session",
    "reset_session",
    "StaleValue",
    "monomial",
    "monomial_exponents",
    "Polynomial",
    "ExponentOverflow",
    "MissingAssignment",
    "NotDivisible",
    "poly_add",
    "poly_mul",
    "poly_eval",
    "poly_divide_exact",
    "poly_gcd",
    "is_irreducible_heuristic",
]


class MissingAssignment(ParmreachError):
    """An evaluation point does not assign every variable that occurs."""


class NotDivisible(ParmreachError):
    """Exact division left a remainder; holds both operands, formatted only when read."""

    def __str__(self) -> str:
        return "({}) is not divisible by ({})".format(*self.args)


class ExponentOverflow(ParmreachError):
    """A product has an exponent of 2**31 or more, beyond the key format."""


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------


class Variable:
    """An interned symbol with a session-unique index.

    Instances are only created through :func:`variable`; identity,
    equality and ordering all reduce to the interned index, which is
    fixed for the lifetime of the session.
    """

    __slots__ = ("id", "name")

    def __init__(self, vid: int, name: str):
        object.__setattr__(self, "id", vid)
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):  # pragma: no cover - guard only
        raise AttributeError("Variable is immutable")

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Variable) and other.id == self.id)

    def __lt__(self, other: "Variable") -> bool:
        return self.id < other.id


def variable(name: str) -> Variable:
    """Return the session variable called *name*, interning it on first use.

    Interning is idempotent; the index order of variables is their
    order of first appearance in the session.
    """
    s = _session
    v = s.variables.get(name)
    if v is None:
        v = s.variables[name] = Variable(len(s.names), name)
        s.names.append(name)
    return v


def variables(*names: str) -> tuple[Variable, ...]:
    """Intern several variables at once, in the given order."""
    return tuple(variable(n) for n in names)


# ---------------------------------------------------------------------------
# Keys: monomials packed into ints
# ---------------------------------------------------------------------------
#
# A monomial is a single int, its key: the exponent of the variable with
# id i sits in bits 32i..32i+31.  Keys add like monomials multiply, and
# integer order on keys is the package's monomial order.  Exponents stay
# below 2**31, so adding two keys never carries from one field into the
# next, and the top bit of a field in a sum flags an exponent that
# reached 2**31 (see _check_exponents).  Only this module reads fields.

_FIELD_MASK = 0xFFFFFFFF
_EXPONENT_LIMIT = 1 << 31


def monomial(exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]]) -> int:
    """The key of ``prod v**e`` over distinct variables v.

    Raises :class:`ValueError` for an exponent outside [0, 2**31).
    """
    if isinstance(exps, Mapping):
        exps = exps.items()
    key = 0
    for v, e in exps:
        if not 0 <= e < _EXPONENT_LIMIT:
            raise ValueError(f"monomial exponent {e} is outside [0, 2**31)")
        key += e << (v.id << 5)
    return key


def monomial_exponents(key: int) -> tuple[tuple[int, int], ...]:
    """The ``(variable id, exponent)`` pairs of a key, by increasing id."""
    pairs = []
    vid = 0
    while key:
        e = key & _FIELD_MASK
        if e:
            pairs.append((vid, e))
        key >>= 32
        vid += 1
    return tuple(pairs)


def _key_degree(key: int) -> int:
    d = 0
    while key:
        d += key & _FIELD_MASK
        key >>= 32
    return d


def _key_gcd(a: int, b: int) -> int:
    """Fieldwise minimum: the largest monomial dividing both."""
    g = 0
    shift = 0
    while a and b:
        g |= min(a & _FIELD_MASK, b & _FIELD_MASK) << shift
        a >>= 32
        b >>= 32
        shift += 32
    return g


def _check_exponents(bits: int) -> None:
    """Raise :class:`ExponentOverflow` when *bits*, the OR of new keys,
    has the top bit of any field set."""
    fields = (bits.bit_length() + 31) >> 5
    top_bits = ((1 << (fields << 5)) - 1) // _FIELD_MASK << 31
    if bits & top_bits:
        raise ExponentOverflow("a polynomial exponent reached 2**31 (the limit is 2**31 - 1)")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """A normalized sparse polynomial with integer coefficients.

    Terms are stored as a tuple of ``(key, coefficient)`` pairs, where
    the key is the monomial packed into one int (see :func:`monomial`),
    in strictly descending key order with no zero coefficients, so
    structural equality coincides with mathematical equality.

    Examples
    --------
    >>> x, y = variables("x", "y")
    >>> p = Polynomial.of_variable(x) + Polynomial.const(1)
    >>> str(p * p)
    'x^2 + 2*x + 1'
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        if c == 0:
            return _ZERO
        return cls(((0, c),))

    @classmethod
    def of_variable(cls, v: Variable) -> "Polynomial":
        return cls(((1 << (v.id << 5), 1),))

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "Polynomial":
        """The polynomial with coefficient ``d[key]`` at each monomial key."""
        terms = [(k, c) for k, c in d.items() if c != 0]
        terms.sort(reverse=True)
        return cls(tuple(terms))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    @property
    def leading_coefficient(self) -> int:
        if not self.terms:
            return 0
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(_key_degree(k) for k, _ in self.terms)

    def degree_in(self, vid: int) -> int:
        shift = vid << 5
        return max(((k >> shift) & _FIELD_MASK for k, _ in self.terms), default=0)

    def variable_ids(self) -> tuple[int, ...]:
        bits = 0
        for k, _ in self.terms:
            bits |= k
        return tuple(vid for vid, _ in monomial_exponents(bits))

    def integer_content(self) -> int:
        """gcd of all coefficients, as a positive integer (0 for the zero polynomial)."""
        g = 0
        for _, c in self.terms:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def split_content(self) -> tuple[int, "Polynomial"]:
        """Return ``(content, primitive)`` with content > 0 and self == content * primitive.

        The primitive part keeps the sign of self's leading coefficient.
        """
        if not self.terms:
            return 1, self
        g = self.integer_content()
        if g == 1:
            return 1, self
        return g, Polynomial(tuple((k, c // g) for k, c in self.terms))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, other.__neg__())

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return poly_mul(self, other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = poly_mul(out, base)
            base = poly_mul(base, base) if k > 1 else base
            k >>= 1
        return out

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return _ZERO
        if c == 1:
            return self
        return Polynomial(tuple((k, coef * c) for k, coef in self.terms))

    def mul_term(self, key: int, coeff: int) -> "Polynomial":
        """Multiply by the term ``coeff`` times monomial *key*; preserves term order."""
        if coeff == 0:
            return _ZERO
        if not key:
            return self.scale(coeff)
        terms = tuple((k + key, c * coeff) for k, c in self.terms)
        bits = 0
        for k, _ in terms:
            bits |= k
        _check_exponents(bits)
        return Polynomial(terms)

    # -- protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        """Terms leading-first, each as its coefficient's magnitude (left
        out when it is 1 on a non-constant monomial) times its factors
        ``name`` or ``name^e`` joined by ``*``; ``-`` before a negative
        leading term, ``+``/``-`` between terms.  A variable id beyond
        the session's names prints as ``_v<id>``.  Each key is decoded
        field by field in place, with no intermediate pairs."""
        if not self.terms:
            return "0"
        names = _session.names
        known = len(names)
        parts: list[str] = []
        for k, c in self.terms:
            if k:
                factors = []
                vid = 0
                while k:
                    e = k & _FIELD_MASK
                    if e:
                        name = names[vid] if vid < known else f"_v{vid}"
                        factors.append(name if e == 1 else f"{name}^{e}")
                    k >>= 32
                    vid += 1
                body = "*".join(factors)
                if c != 1 and c != -1:
                    body = f"{abs(c)}*{body}"
            else:
                body = str(abs(c))
            if parts:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_ZERO = Polynomial(())
_ONE = Polynomial(((0, 1),))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


class StaleValue(ParmreachError):
    """A value made before the last :func:`reset_session` was used after it."""


class _HandleTable(dict):
    """Per-handle table; handles are never reused across sessions."""

    __slots__ = ()

    def __missing__(self, handle: int):
        raise StaleValue(f"factor handle {handle} belongs to an ended session")


CACHE_CAP = 65536  # entries at which each cache of the session empties


class Session:
    """The state one analysis shares: the variable table, the gcd memo,
    the factor pool, the expanded-product and base-power caches, the
    operation memo and the rows known to sum to 1.

    The pool interns each non-constant factor base once: ``polys[h]`` is
    base ``h``, ``screens[h]`` its :func:`is_irreducible_heuristic`,
    ``memos[h]`` its finest known split.  Constants are not pooled (a
    factorization keeps them as its coefficient), and handles continue
    after those of the session this one replaced.  ``powers[h]`` is the
    highest power of base ``h`` computed so far, as ``(t, base^t)``
    (:meth:`power`).  ``ops`` maps the operands of
    :func:`~parmreach.ratfun.rf_add` and :func:`~parmreach.ratfun.rf_mul`
    to their results, and :meth:`remember` empties it, since a split
    can refine a result.  ``sums_to_one`` holds every row
    :func:`~parmreach.ratfun.rf_sums_to_one` has found to sum to exactly
    1, each as the sorted ``(num.coeff, num.factors, den.coeff,
    den.factors)`` of its non-zero terms.

    ``coprime`` holds the pairs ``(r, h)`` of a polynomial and a base
    handle that a trial division in the factor pool proved coprime.  Two
    fixed polynomials stay coprime however the pool is refined, so
    :meth:`remember` leaves it alone.  ``images[p, attempt]`` is the line
    certificate's image of *p* at the points of *attempt*
    (:func:`_image`), and ``point_powers[vid, attempt]`` the powers of
    the point of variable *vid* at *attempt*, by exponent.

    The gcd memo, the expanded-product cache, the operation memo, the
    coprime-pair memo, the images and the point powers are each emptied
    when they reach :data:`CACHE_CAP` entries.
    """

    def __init__(self, first_handle: int = 0):
        self.variables: dict[str, Variable] = {}
        self.names: list[str] = []  # variable names by id
        self.gcd_memo: dict[tuple[Polynomial, Polynomial], Polynomial] = {}
        self.polys = _HandleTable()
        self.handles: dict[Polynomial, int] = {}
        self.next_handle = first_handle
        self.screens: dict[int, bool] = {}
        self.memos: dict[int, tuple[tuple[int, int], ...]] = {}
        self.gcd_kernel_calls = 0
        self.expanded: dict[tuple[tuple[int, int], ...], Polynomial] = {}
        self.powers: dict[int, tuple[int, Polynomial]] = {}
        self.ops: dict[tuple, object] = {}  # values are RationalFunctions
        self.sums_to_one: set[tuple[tuple, ...]] = set()
        self.coprime: set[tuple[Polynomial, int]] = set()
        self.images: dict[tuple[Polynomial, int], list[int]] = {}
        self.point_powers: dict[tuple[int, int], list[int]] = {}

    @property
    def stored_polynomials(self) -> int:
        return len(self.polys)

    def intern(self, p: Polynomial) -> int:
        """The handle of base *p*; interning is idempotent."""
        h = self.handles.get(p)
        if h is None:
            h = self.handles[p] = self.next_handle
            self.next_handle += 1
            self.polys[h] = p
        return h

    def remember(self, h: int, factors: tuple[tuple[int, int], ...]) -> None:
        """Record a split of base *h*; its trivial self-split teaches nothing.

        A split ends the operation memo: recomputing a stored result
        now may yield a finer factorization.  The memo is replaced, not
        cleared, so an operation under way when its own work records a
        split stores its result in the dict no one reads any more.
        """
        if factors != ((h, 1),):
            self.memos[h] = factors
            self.ops = {}

    def power(self, h: int, e: int) -> Polynomial:
        """Base *h* raised to *e* >= 1, by one product from the highest
        power of *h* computed so far when *e* is above it."""
        p = self.polys[h]
        if e == 1:
            return p
        top = self.powers.get(h)
        if top is None:
            out = p**e
        else:
            t, pt = top
            if e == t:
                return pt
            if e < t:
                return p**e
            out = poly_mul(pt, p ** (e - t))
        self.powers[h] = (e, out)
        return out

    def is_irreducible(self, h: int) -> bool:
        """The cached :func:`is_irreducible_heuristic` of base *h*."""
        irr = self.screens.get(h)
        if irr is None:
            irr = self.screens[h] = is_irreducible_heuristic(self.polys[h])
        return irr


_session = Session()


def session() -> Session:
    """The current session."""
    return _session


def reset_session() -> None:
    """End the current session and start an empty one.

    Call between independent analyses in one process; each CLI
    invocation does this.  Factorizations and rational functions made
    before the reset raise :class:`StaleValue` when used after it,
    except constants, which are the same in every session.
    :class:`Variable` and bare :class:`Polynomial` values are still
    identified by variable index alone and must not cross a reset.
    """
    global _session
    _session = Session(_session.next_handle)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """Sum of two normalized polynomials (ordered merge, no re-sort)."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    ta, tb = a.terms, b.terms
    out: list[tuple[int, int]] = []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        ka, kb = ta[i][0], tb[j][0]
        if ka > kb:
            out.append(ta[i])
            i += 1
        elif ka < kb:
            out.append(tb[j])
            j += 1
        else:
            c = ta[i][1] + tb[j][1]
            if c != 0:
                out.append((ta[i][0], c))
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return Polynomial(tuple(out))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product of two normalized polynomials."""
    if a.is_zero or b.is_zero:
        return _ZERO
    if a.is_one:
        return b
    if b.is_one:
        return a
    if len(a.terms) > len(b.terms):
        a, b = b, a
    if len(a.terms) == 1:
        k, c = a.terms[0]
        return b.mul_term(k, c)
    acc: dict[int, int] = {}
    get = acc.get
    tb = b.terms
    for ka, ca in a.terms:
        for kb, cb in tb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    bits = 0
    for k in acc:
        bits |= k
    _check_exponents(bits)
    items = [(k, c) for k, c in acc.items() if c]
    items.sort(reverse=True)
    return Polynomial(tuple(items))


def poly_eval(p: Polynomial, assignment: Mapping[Variable, Fraction]) -> Fraction:
    """Evaluate at a point; exact rational result.

    Works over a common denominator in plain integers.  With each value
    written ``v = n/d`` and ``m`` the largest exponent of ``v`` in *p*,
    the term ``c * v**e`` contributes ``c * n**e * d**(m - e)`` to a sum
    over ``d**m`` (one such factor per variable), so no
    :class:`~fractions.Fraction` is built until the end.

    Raises :class:`MissingAssignment` if a variable occurring in *p*
    has no value.
    """
    by_id = {v.id: val for v, val in assignment.items()}
    top: dict[int, int] = {}
    for k, _ in p.terms:
        for vid, e in monomial_exponents(k):
            if vid not in by_id:
                raise MissingAssignment(f"no value for variable id {vid}")
            if e > top.get(vid, 0):
                top[vid] = e
    denominator = 1
    tables = []
    for vid, m in top.items():
        n, d = by_id[vid].numerator, by_id[vid].denominator
        n_pow, d_pow = [1] * (m + 1), [1] * (m + 1)
        for i in range(1, m + 1):
            n_pow[i] = n_pow[i - 1] * n
            d_pow[i] = d_pow[i - 1] * d
        tables.append((vid << 5, [n_pow[e] * d_pow[m - e] for e in range(m + 1)]))
        denominator *= d_pow[m]
    total = 0
    for k, c in p.terms:
        for shift, t in tables:
            c *= t[(k >> shift) & _FIELD_MASK]
        total += c
    return Fraction(total, denominator)


def poly_divide_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a / b; raises :class:`NotDivisible` on any remainder."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return _ZERO
    if b.is_one:
        return a
    k_lead, lead_c = b.terms[0]
    lead_fields = [(vid << 5, e) for vid, e in monomial_exponents(k_lead)]
    tail = b.terms[1:]
    # sparse long division on a dict remainder keyed by monomial key; the
    # negated-int heap hands out candidate leading monomials largest-first
    # with lazy deletion
    rem = dict(a.terms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    q_terms: list[tuple[int, int]] = []
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, 0)
        if c == 0:
            continue
        for shift, e in lead_fields:
            if ((k >> shift) & _FIELD_MASK) < e:
                raise NotDivisible(a, b)
        qk = k - k_lead
        qc, srem = divmod(c, lead_c)
        if srem != 0:
            raise NotDivisible(a, b)
        q_terms.append((qk, qc))
        for kb, bc in tail:
            nk = kb + qk
            old = rem.get(nk)
            if old is None:
                rem[nk] = -qc * bc
                heapq.heappush(heap, -nk)
            else:
                new = old - qc * bc
                if new:
                    rem[nk] = new
                else:
                    del rem[nk]
    # quotient monomials were produced in strictly descending order
    return Polynomial(tuple(q_terms))


# ---------------------------------------------------------------------------
# GCD
# ---------------------------------------------------------------------------


def _make_positive(p: Polynomial) -> Polynomial:
    return -p if p.leading_coefficient < 0 else p


def _univariate(p: Polynomial, vid: int) -> dict[int, Polynomial]:
    """View p as a univariate polynomial in v with polynomial coefficients."""
    shift = vid << 5
    coeffs: dict[int, list[tuple[int, int]]] = {}
    for k, c in p.terms:
        e = (k >> shift) & _FIELD_MASK
        # removing the same v-power from every key keeps each list descending
        coeffs.setdefault(e, []).append((k - (e << shift), c))
    return {e: Polynomial(tuple(terms)) for e, terms in coeffs.items()}


def _coeff_gcd(polys: Iterable[Polynomial]) -> Polynomial:
    acc: Polynomial | None = None
    for p in polys:
        acc = p if acc is None else _gcd_nonzero(acc, p)
        if acc.is_one:
            return acc
    assert acc is not None
    return _make_positive(acc)


def _prem(f: Polynomial, g: Polynomial, vid: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to v."""
    gu = _univariate(g, vid)
    dg = max(gu)
    lg = gu[dg]
    r = f
    while not r.is_zero:
        ru = _univariate(r, vid)
        dr = max(ru)
        if dr < dg:
            break
        lr = ru[dr]
        shifted = poly_mul(lr, g).mul_term((dr - dg) << (vid << 5), 1)
        r = poly_add(poly_mul(lg, r), -shifted)
    return r


_FILTER_PRIME = (1 << 30) - 35  # the largest prime below 2**30


def _filter_point(vid: int, attempt: int) -> int:
    """Deterministic well-spread evaluation point for variable vid.

    Small structured points (2, 3, 5, ...) collide far too often with
    the small-prime coefficient structure of probability models, so the
    points are drawn from the whole field via an integer hash.
    """
    x = (
        vid * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
    ) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return 2 + x % (_FILTER_PRIME - 3)


def _point_powers(vid: int, attempt: int, top: int) -> list[int]:
    """``[1, a, a**2, ..., a**top]`` modulo the filter prime, for the point
    a of variable *vid* at *attempt*; the session keeps the longest list
    made so far per variable and attempt."""
    cache = _session.point_powers
    t = cache.get((vid, attempt))
    if t is None:
        if len(cache) >= CACHE_CAP:
            cache.clear()
        t = cache[vid, attempt] = [1, _filter_point(vid, attempt)]
    a = t[1]
    while len(t) <= top:
        t.append(t[-1] * a % _FILTER_PRIME)
    return t


def _image(p: Polynomial, attempt: int, vid: int | None = None) -> list[int]:
    """Image of p mod the filter prime with every variable but v evaluated
    at its point of *attempt*.

    Dense coefficients by exponent of v up to p's degree in v, zeros
    included; with no *vid* by total degree up to p's, the image under
    x_i -> a_i * t.  The session keeps the images of that line
    certificate, where one base meets many others.
    """
    line = vid is None
    if line:
        img = _session.images.get((p, attempt))
        if img is not None:
            return img
    tables = [
        (u << 5, _point_powers(u, attempt, p.degree_in(u)))
        for u in p.variable_ids()
        if u != vid
    ]
    img = [0] * ((p.total_degree() if line else p.degree_in(vid)) + 1)
    for k, c in p.terms:
        td = 0
        val = c
        for shift, t in tables:
            e = (k >> shift) & _FIELD_MASK
            if e:
                td += e
                val = val * t[e] % _FILTER_PRIME
        if not line:
            td = (k >> (vid << 5)) & _FIELD_MASK
        img[td] += val
    img = [c % _FILTER_PRIME for c in img]
    if line:
        cache = _session.images
        if len(cache) >= CACHE_CAP:
            cache.clear()
        cache[p, attempt] = img
    return img


def _gf_poly_mod(a: list[int], b: list[int]) -> list[int]:
    """Remainder of dense univariate a by nonzero b over GF(_FILTER_PRIME)."""
    p = _FILTER_PRIME
    inv = pow(b[-1], -1, p)
    a = a[:]
    db = len(b) - 1
    while a and len(a) - 1 >= db:
        q = a[-1] * inv % p
        if q:
            off = len(a) - len(b)
            for i in range(len(b) - 1):
                a[off + i] = (a[off + i] - q * b[i]) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _gf_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of the gcd of two nonzero dense univariate images, either
    of which may end in zeros."""
    a, b = a[:], b[:]
    for img in (a, b):
        while not img[-1]:
            img.pop()
    while b:
        a, b = b, _gf_poly_mod(a, b)
    return len(a) - 1


def _image_gcd_degree(
    pa: Polynomial, pb: Polynomial, vid: int | None = None
) -> int | None:
    """Sound upper bound on the degree of gcd(pa, pb), or None.

    The degree in v when *vid* is given (the other variables evaluated),
    else the total degree (x_i -> a_i * t), both modulo the filter
    prime.  The gcd's image divides both images, and its degree can
    only drop; it keeps its full degree when one operand's image keeps
    that operand's, since degrees add over products (W. S. Brown,
    JACM 18(4), 1971).  Points where both images lose degree, or one
    vanishes, are inconclusive; None means every tried point was.
    """
    for attempt in range(3):
        fimg = _image(pa, attempt, vid)
        gimg = _image(pb, attempt, vid)
        # an image keeps its operand's degree when its last entry is not 0
        if (fimg[-1] and any(gimg)) or (gimg[-1] and any(fimg)):
            return _gf_gcd_degree(fimg, gimg)
    return None


def _try_divide(a: Polynomial, b: Polynomial) -> Polynomial | None:
    try:
        return poly_divide_exact(a, b)
    except NotDivisible:
        return None


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for _, c in p.terms)


def _eval_var_big(p: Polynomial, vid: int, xi: int) -> Polynomial:
    """Substitute the plain integer xi for v, keeping the other variables."""
    dmax = p.degree_in(vid)
    pows = [1] * (dmax + 1)
    for k in range(1, dmax + 1):
        pows[k] = pows[k - 1] * xi
    acc: dict[int, int] = {}
    shift = vid << 5
    for k, c in p.terms:
        e = (k >> shift) & _FIELD_MASK
        rest = k - (e << shift)
        acc[rest] = acc.get(rest, 0) + c * pows[e]
    return Polynomial.from_dict(acc)


def _interpolate_digits(h: Polynomial, vid: int, xi: int) -> Polynomial:
    """Invert :func:`_eval_var_big`: read the v-coefficients of a candidate
    polynomial off h as balanced base-xi digits."""
    half = xi // 2
    shift = vid << 5
    out: dict[int, int] = {}
    cur = h
    i = 0
    while not cur.is_zero:
        nxt: dict[int, int] = {}
        vk = i << shift
        for k, c in cur.terms:
            r = c % xi
            if r > half:
                r -= xi
            q = (c - r) // xi
            if r:
                out[k + vk] = r
            if q:
                nxt[k] = q
        cur = Polynomial.from_dict(nxt)
        i += 1
    return Polynomial.from_dict(out)


_HEU_MAX_TRIES = 6


def _heu_gcd(
    f: Polynomial, g: Polynomial, want_vid: int | None = None
) -> Polynomial | None:
    """Heuristic gcd of two nonzero polynomials by big-integer evaluation.

    Substitutes a single large integer for one variable at a time,
    takes the gcd of the images (plain integer gcd at the bottom), and
    reconstructs a candidate from balanced base-xi digits.  Every
    returned polynomial is verified by exact division, so a non-None
    result is always a genuine common divisor; it is not guaranteed
    maximal, which the caller certifies separately.

    A trivial candidate passes division vacuously, so when the caller
    already knows the gcd involves the variable with id want_vid,
    candidates constant in it are treated like failures and the
    evaluation point is regrown.  Returns None when the tried points stay inconclusive.
    """
    vids = set(f.variable_ids()) | set(g.variable_ids())
    if not vids:
        return Polynomial.const(math.gcd(f.constant_value(), g.constant_value()))
    # the integer content must ride along through the recursion: one
    # level up it encodes the evaluated variable's share of the gcd
    fc, fp = f.split_content()
    gc, gp = g.split_content()
    c = math.gcd(fc, gc)
    vid = max(vids)
    xi = 2 * min(_max_norm(fp), _max_norm(gp)) + 29
    for _ in range(_HEU_MAX_TRIES):
        ff = _eval_var_big(fp, vid, xi)
        gg = _eval_var_big(gp, vid, xi)
        if not ff.is_zero and not gg.is_zero:
            sub = _heu_gcd(ff, gg)
            if sub is not None:
                cand = _interpolate_digits(sub, vid, xi)
                if not cand.is_zero:
                    cand = _make_positive(cand.split_content()[1])
                    if (want_vid is None or cand.degree_in(want_vid) > 0) and (
                        _try_divide(fp, cand) is not None
                        and _try_divide(gp, cand) is not None
                    ):
                        return cand.scale(c)
        xi = 73794 * xi // 27011
    return None


def _v_part_gcd(fa: Polynomial, fb: Polynomial, vid: int) -> Polynomial:
    """gcd of two v-primitive polynomials, by paths 5-8 of the module docstring.

    A division-verified common divisor whose v-degree meets the image
    bound is the gcd: the leftover cofactor would be constant in v and
    so divide the v-content 1.
    """
    da, db = fa.degree_in(vid), fb.degree_in(vid)
    if da == 0 or db == 0:
        return _ONE
    d = _image_gcd_degree(fa, fb, vid)
    if d == 0:
        return _ONE
    if d == min(da, db):
        small, big = (fa, fb) if da <= db else (fb, fa)
        if _try_divide(big, small) is not None:
            return _make_positive(small)
    if d is not None:
        h = _heu_gcd(fa, fb, want_vid=vid)
        if h is not None and h.degree_in(vid) == d:
            return _make_positive(h)
    return _primitive_prs_gcd(fa, fb, vid)


def _gcd_nonzero(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd of two nonzero polynomials, leading coefficient made positive.

    Results are memoized by operand value: the surrounding refinement
    machinery asks for the same factor pairs over and over, and the
    answer depends on nothing but the operands.
    """
    memo = _session.gcd_memo
    key = (a, b)
    g = memo.get(key)
    if g is None:
        g = memo.get((b, a))
    if g is None:
        g = _gcd_nonzero_impl(a, b)
        if len(memo) >= CACHE_CAP:
            memo.clear()
        memo[key] = g
    return g


def _monomial_content(p: Polynomial) -> int:
    """Termwise monomial gcd: the largest monomial dividing every term."""
    terms = p.terms
    # terms are sorted descending, so a constant term sits at the end
    # and immediately forces a trivial content
    if not terms[-1][0]:
        return 0
    acc = terms[0][0]
    for k, _ in terms[1:]:
        if not acc:
            break
        acc = _key_gcd(acc, k)
    return acc


def _strip_monomial(p: Polynomial, m: int) -> Polynomial:
    # dividing every term by the same monomial keeps the terms descending
    return Polynomial(tuple((k - m, c) for k, c in p.terms))


def _gcd_nonzero_impl(a: Polynomial, b: Polynomial) -> Polynomial:
    ca, pa = a.split_content()
    cb, pb = b.split_content()
    c = math.gcd(ca, cb)
    # a monomial divides a polynomial exactly when it divides the
    # termwise monomial content, so that content splits off cheaply and
    # independently of the rest of the gcd
    ma = _monomial_content(pa)
    mb = _monomial_content(pb)
    mg = _key_gcd(ma, mb)
    if ma:
        pa = _strip_monomial(pa, ma)
    if mb:
        pb = _strip_monomial(pb, mb)

    def finish(g0: Polynomial) -> Polynomial:
        out = g0.scale(c)
        if mg:
            out = out.mul_term(mg, 1)
        return _make_positive(out)

    if pa == pb or pa == -pb:
        return finish(pa)
    if pa.is_constant or pb.is_constant:
        # primitive monomial-free constants are +-1
        return finish(_ONE)
    if _image_gcd_degree(pa, pb) == 0:
        return finish(_ONE)
    vid = max(pa.variable_ids() + pb.variable_ids())  # v, the main variable
    ua = _univariate(pa, vid)
    ub = _univariate(pb, vid)
    cont_a = _coeff_gcd(ua.values())
    cont_b = _coeff_gcd(ub.values())
    cont = _gcd_nonzero(cont_a, cont_b)
    fa = poly_divide_exact(pa, cont_a)
    fb = poly_divide_exact(pb, cont_b)
    part = _v_part_gcd(fa, fb, vid)
    return finish(poly_mul(part, cont))


def _primitive_prs_gcd(f: Polynomial, g: Polynomial, vid: int) -> Polynomial:
    """gcd of two v-primitive polynomials of positive v-degree via a
    primitive PRS in v."""
    if f.degree_in(vid) < g.degree_in(vid):
        f, g = g, f
    while True:
        r = _prem(f, g, vid)
        if r.is_zero:
            return g
        if r.degree_in(vid) == 0:
            return _ONE
        cont = _coeff_gcd(_univariate(r, vid).values())
        r = poly_divide_exact(r, cont)
        f, g = g, r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over the integers.

    The result is canonical: its leading coefficient under the monomial
    order is positive, and its integer content is the gcd of the
    operands' contents.  At least one operand must be nonzero.

    Examples
    --------
    >>> x = variable("x")
    >>> one, X = Polynomial.one(), Polynomial.of_variable(x)
    >>> str(poly_gcd(X * X - one, X * X + X + X + one))
    'x + 1'
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return _make_positive(b)
    if b.is_zero:
        return _make_positive(a)
    return _gcd_nonzero(a, b)


# ---------------------------------------------------------------------------
# Irreducibility heuristic
# ---------------------------------------------------------------------------


def is_irreducible_heuristic(g: Polynomial) -> bool:
    """Cheap, sound-when-true irreducibility screen.

    True certifies irreducibility without a factoring attempt: constants,
    and primitive polynomials of degree one in some variable v,
    ``g = a*v + b``, whose parts a and b plainly have gcd 1.  Such a g
    is irreducible: if ``g = f*h``, one factor, say f, has degree 0 in
    v, so f divides both a and b and is a unit.  The gcd is plainly 1
    when b is 0 and a a constant (g is v or -v), or when one part is a
    single term whose monomial shares no variable with the other part's
    monomial content: a divisor of a single term is an integer times a
    monomial, the integer divides g, whose content is 1, and the
    monomial divides both the term's monomial and that content.  Every
    primitive polynomial of total degree one qualifies (a is a nonzero
    constant).  False means unknown, which callers must treat as
    potentially reducible.
    """
    if g.is_zero:
        raise ValueError("irreducibility of the zero polynomial is undefined")
    if g.is_constant:
        return True
    if g.integer_content() != 1:
        return False
    bits = 0
    for k, _ in g.terms:
        bits |= k
    for vid, e in monomial_exponents(bits):
        if e != 1:  # an exponent above 1 sets another bit of the field
            continue
        v = 1 << (vid << 5)
        a = [k - v for k, _ in g.terms if k & v]
        b = [k for k, _ in g.terms if not k & v]
        if not b:
            return a == [0]
        for one, other in ((a, b), (b, a)):
            if len(one) == 1 and not _key_gcd(one[0], reduce(_key_gcd, other)):
                return True
    return False
