"""Factored-polynomial layer: pool, the operators, refining gcd."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import parmreach.factorizations as fz
from parmreach import model_check, parse_model, polycore, preprocess, ratfun
from parmreach.factorizations import (
    Factorization,
    GcdTriple,
    fadd,
    fmul,
    fpow,
    gcd_factored,
)
from parmreach.polycore import (
    ExponentOverflow,
    Polynomial,
    Session,
    poly_eval,
    poly_gcd,
    poly_mul,
    reset_session,
    session,
    variables,
)


def _xyz():
    x, y, z = variables("x", "y", "z")
    return (
        Polynomial.of_variable(x),
        Polynomial.of_variable(y),
        Polynomial.of_variable(z),
    )


def F(p):
    return Factorization.of(p)


def reduce_factorization(f):
    """The canonical form every operator returns."""
    return Factorization(f.coeff, fz._normalize(f.factors))


def fcd(f1, f2):
    """Factor-wise common divisor: the shared bases, as ``fadd`` and
    ``gcd_factored`` split them off."""
    return Factorization(1, fz._split_shared(f1, f2)[0])


def fdiv(f1, f2):
    """Factor-wise quotient, exponents clamped at zero: what is left of
    ``f1`` once the shared bases are split off."""
    return Factorization(f1.coeff, fz._split_shared(f1, f2)[1])


# ---------------------------------------------------------------------------
# reduction and construction
# ---------------------------------------------------------------------------


def test_reduce_drops_unit_base():
    # the unit is the coefficient 1, so it never enters the factor tuple
    X, _, _ = _xyz()
    hx = session().intern(X)
    raw = Factorization(1, ((hx, 1),))
    assert F(Polynomial.one()) == Factorization(1, ())
    assert reduce_factorization(raw) == F(X) == fmul(F(Polynomial.one()), F(X))


def test_reduce_all_trivial_collapses_to_one():
    # x^0 and the unit are both coefficient 1 with no bases
    X, _, _ = _xyz()
    assert reduce_factorization(fpow(F(X), 0)).is_one
    assert reduce_factorization(fmul(F(Polynomial.one()), fpow(F(X), 0))).is_one


def test_reduce_is_identity_on_reduced_input():
    X, _, _ = _xyz()
    f = fmul(F(X), F(X))  # {x^2}
    assert reduce_factorization(f) == f
    g = fmul(f, F(Polynomial.const(-3)))  # -3 {x^2}
    assert reduce_factorization(g) == g


def test_zero_factorization_is_empty():
    assert Factorization.zero().factors == ()
    assert F(Polynomial.zero()).is_zero


def test_constants_are_coefficients_not_pool_bases():
    X, _, _ = _xyz()
    before = session().stored_polynomials
    six = F(Polynomial.const(6))
    assert (six.coeff, six.factors) == (6, ())
    assert session().stored_polynomials == before
    f = F(Polynomial.const(-6) * X)
    assert f.coeff == -6 and f.factors == F(X).factors


# ---------------------------------------------------------------------------
# common divisor
# ---------------------------------------------------------------------------


def test_fcd_structural_only():
    X, Y, Z = _xyz()
    # (xyz) as one base shares nothing structurally with {x, y}
    assert fcd(F(X * Y * Z), fmul(F(X), F(Y))).is_one


def test_fcd_takes_min_exponent_on_shared_bases():
    X, Y, Z = _xyz()
    assert fcd(fmul(fpow(F(X), 2), F(Y)), fmul(F(X), F(Z))) == F(X)


def test_fcd_idempotent():
    X, Y, _ = _xyz()
    f = fmul(F(X), fpow(F(Y), 3))
    assert fcd(f, f) == f


# ---------------------------------------------------------------------------
# multiplication / division / addition
# ---------------------------------------------------------------------------


def test_fmul_adds_exponents():
    X, Y, _ = _xyz()
    assert fmul(F(X), fmul(F(X), F(Y))) == fmul(fpow(F(X), 2), F(Y))


def test_fdiv_subtracts_exponents():
    X, Y, _ = _xyz()
    assert fdiv(fmul(fpow(F(X), 2), F(Y)), F(X)) == fmul(F(X), F(Y))


def test_fdiv_clamps_missing_bases():
    X, Y, Z = _xyz()
    # the base (xyz) does not contain x structurally, so nothing is removed
    assert fdiv(F(X * Y * Z), F(X)) == F(X * Y * Z)


def test_fadd_pulls_out_common_part():
    X, Y, _ = _xyz()
    got = fadd(F(X), fmul(F(X), F(Y)))
    assert got == fmul(F(X), F(Polynomial.one() + Y))


def test_fadd_disjoint_operands():
    X, Y, _ = _xyz()
    assert fadd(F(X), F(Y)) == F(X + Y)


def test_fadd_zero_handled():
    X, _, _ = _xyz()
    assert fadd(F(X), Factorization.zero()) == F(X)
    assert fadd(Factorization.zero(), F(X)) == F(X)


def test_operators_reject_zero_operand():
    X, _, _ = _xyz()
    with pytest.raises(ValueError):
        gcd_factored(F(X), Factorization.zero())
    # multiplication absorbs zero instead
    assert fmul(F(X), Factorization.zero()).is_zero


# ---------------------------------------------------------------------------
# gcd with refinement
# ---------------------------------------------------------------------------


def test_gcd_splits_opaque_product():
    X, Y, Z = _xyz()
    t = gcd_factored(F(X * Y * Z), fmul(F(X), F(Y)))
    assert t.cofactor_left == F(Z)
    assert t.cofactor_right.is_one
    assert t.common == fmul(F(X), F(Y))
    # the split is remembered: the same product now arrives pre-factored
    assert len(F(X * Y * Z).factors) == 3


def test_gcd_equal_inputs():
    X, Y, _ = _xyz()
    f = F((X + Y) * (X + Polynomial.one()))
    t = gcd_factored(f, f)
    assert t.cofactor_left.is_one
    assert t.cofactor_right.is_one
    assert t.common.expand() == f.expand()


def test_gcd_discovers_shared_linear_factor():
    X, _, _ = _xyz()
    one = Polynomial.one()
    t = gcd_factored(F(X * X - one), F(X + one))
    assert t.cofactor_left == F(X - one)
    assert t.cofactor_right.is_one
    assert t.common == F(X + one)


def test_gcd_triple_field_names():
    X, _, _ = _xyz()
    t = gcd_factored(F(X), F(X))
    assert isinstance(t, GcdTriple)
    assert set(t._fields) == {
        "cofactor_left",
        "cofactor_right",
        "common",
    }


def test_factorization_is_an_immutable_value():
    X, Y, _ = _xyz()
    one = Polynomial.one()
    f = fmul(fpow(F(X + one), 2), F(Polynomial.const(-3) * Y))
    same = Factorization(f.coeff, f.factors)
    assert f == same and not f != same
    assert hash(f) == hash(same) == hash((-3, f.factors))
    assert f != Factorization(3, f.factors)
    assert f != (f.coeff, f.factors)  # equal only to a Factorization
    assert Factorization(1, ()) != 1
    assert repr(f) == "Factorization[(x + 1)^2*(y)*(-3)]"
    assert str(f) == "(x + 1)^2*(y)*(-3)"
    assert str(Factorization(0, ())) == "0"
    with pytest.raises(AttributeError):
        f.coeff = 5
    with pytest.raises(AttributeError):
        f.extra = 1  # slots, no __dict__
    assert f.coeff == -3


# ---------------------------------------------------------------------------
# pool statistics and refinement bookkeeping
# ---------------------------------------------------------------------------


def test_fresh_pool_is_empty():
    s = session()
    assert s.stored_polynomials == 0
    assert s.gcd_kernel_calls == 0


def test_interning_is_idempotent():
    X, _, _ = _xyz()
    h1 = session().intern(X)
    h2 = session().intern(X)
    assert h1 == h2
    assert session().stored_polynomials == 1


def test_opaque_product_run_stores_all_pieces():
    X, Y, Z = _xyz()
    gcd_factored(F(X * Y * Z), fmul(F(X), F(Y)))
    assert session().stored_polynomials >= 4  # x, y, z, xyz


def test_refinement_monotone_no_second_kernel_call():
    X, _, _ = _xyz()
    one = Polynomial.one()
    # neither quadratic is screened irreducible, so the first call needs the kernel
    gcd_factored(F(X * X - one), F(X * X + X + X + one))
    before = session().gcd_kernel_calls
    assert before > 0
    gcd_factored(F(X * X - one), F(X * X + X + X + one))
    assert session().gcd_kernel_calls == before


def test_pairs_the_pool_settles_make_no_kernel_call():
    X, Y, _ = _xyz()
    one = Polynomial.one()
    lin = Polynomial.const(2) * X + Polynomial.const(3) * Y + one
    before = session().gcd_kernel_calls
    # a constant and a primitive base; two constants take the integer gcd
    assert gcd_factored(F(Polynomial.const(6)), F(X * X + Y)).common.is_one
    assert gcd_factored(F(Polynomial.const(6)), F(Polynomial.const(-4))).common == F(Polynomial.const(2))
    # a certified linear base against an opaque product it divides, either side
    t = gcd_factored(F(lin * (X * X + Y)), F(lin))
    assert (t.cofactor_left, t.cofactor_right, t.common) == (F(X * X + Y), F(one), F(lin))
    t = gcd_factored(F(lin), F(lin * (Y * Y + X)))
    assert (t.cofactor_left, t.cofactor_right, t.common) == (F(one), F(Y * Y + X), F(lin))
    assert session().gcd_kernel_calls == before
    # the splits are remembered: the products now arrive refined
    assert F(lin * (X * X + Y)) == fmul(F(lin), F(X * X + Y))
    assert F(lin * (Y * Y + X)) == fmul(F(lin), F(Y * Y + X))


@pytest.mark.parametrize(
    "c1, c2",
    [(-1, -1), (-6, -4), (-6, -6), (-1, 1), (6, -4), (-3, 5), (3, 5)],
    ids=["both_minus_one", "both_negative", "equal_negative", "mixed_unit", "mixed_sign", "coprime_mixed", "coprime"],
)
def test_common_part_takes_the_positive_integer_gcd(c1, c2):
    X, Y, _ = _xyz()
    const = Polynomial.const
    for p1, p2 in [(const(c1) * X, const(c2) * Y), (const(c1) * X, const(c2) * X), (const(c1), const(c2) * Y)]:
        t = gcd_factored(F(p1), F(p2))
        common = t.common.expand()
        assert common == poly_gcd(p1, p2)
        assert poly_mul(common, t.cofactor_left.expand()) == p1
        assert poly_mul(common, t.cofactor_right.expand()) == p2


def test_termination_rank_assertions_pass():
    # each inner step pops a base of the right operand and puts back at
    # most a divisor of it at a lower exponent, so the loops end
    X, Y, _ = _xyz()
    one = Polynomial.one()
    g1 = (X + one) * (Y + one) * (X + Y)
    g2 = (X + one) * (X + Y) * (Y + one + one)
    t = gcd_factored(F(g1), F(g2))
    assert poly_mul(t.common.expand(), t.cofactor_left.expand()) == g1


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


def _atoms():
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    one = Polynomial.one()
    return [X, Y, X + one, Y + one, X + Y, Polynomial.const(2), X * Y + one]


@st.composite
def factored(draw):
    atoms = _atoms()
    picks = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)), min_size=1, max_size=3))
    f = Factorization.one()
    for i, e in picks:
        f = fmul(f, fpow(Factorization.of(atoms[i]), e))
    return f


@settings(max_examples=50, deadline=None)
@given(factored(), factored())
def test_product_invariant_under_all_operators(f1, f2):
    p1, p2 = f1.expand(), f2.expand()
    assert fmul(f1, f2).expand() == poly_mul(p1, p2)
    assert fadd(f1, f2).expand() == p1 + p2


def fadd_reference(f1, f2):
    """The sum with each cofactor product scaled by its own coefficient,
    as ``fadd`` formed it before it pulled the coefficients' gcd out."""
    d, rest1, rest2 = fz._split_shared(f1, f2)
    s = Factorization(f1.coeff, rest1).expand() + Factorization(f2.coeff, rest2).expand()
    return fmul(Factorization(1, d), Factorization.of(s))


@st.composite
def signed_sum_operands(draw):
    """Two factorizations with shared bases and signed, often non-unit
    coefficients; now and then the second is a multiple of the first, so
    the sum may cancel to zero or to a constant times the shared part."""
    f1, f2 = draw(gcd_operands())
    coefficient = st.sampled_from([-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9])
    c1, c2 = draw(coefficient), draw(coefficient)
    if draw(st.integers(0, 4)) == 0:
        f2 = f1
    return fmul(Factorization(c1, ()), f1), fmul(Factorization(c2, ()), f2)


@settings(max_examples=150, deadline=None)
@given(signed_sum_operands())
def test_fadd_pulls_the_signed_coefficient_gcd_out_without_changing_the_sum(ops):
    f1, f2 = ops
    got, want = fadd(f1, f2), fadd_reference(f1, f2)
    assert (got.coeff, got.factors) == (want.coeff, want.factors)
    assert got.expand() == f1.expand() + f2.expand()


@settings(max_examples=50, deadline=None)
@given(factored(), factored())
def test_gcd_triple_postconditions(f1, f2):
    p1, p2 = f1.expand(), f2.expand()
    t = gcd_factored(f1, f2)
    assert poly_mul(t.common.expand(), t.cofactor_left.expand()) == p1
    assert poly_mul(t.common.expand(), t.cofactor_right.expand()) == p2
    assert poly_gcd(t.cofactor_left.expand(), t.cofactor_right.expand()).is_one
    # the factored gcd agrees with the polynomial-level kernel, sign included
    assert t.common.expand() == poly_gcd(p1, p2)


@settings(max_examples=50, deadline=None)
@given(factored())
def test_eval_matches_expanded_eval(f):
    x, y = variables("x", "y")
    pt = {x: Fraction(2, 3), y: Fraction(-1, 4)}
    assert f.eval(pt) == poly_eval(f.expand(), pt)


@st.composite
def gcd_operands(draw):
    """Two factorizations over bases that are shared, constant (with
    sign), opaque products of other bases, or the one factorization."""
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    one = Polynomial.one()
    # a non-monic linear base, settled by trial division, and a product it divides
    lin = Polynomial.const(2) * X + Polynomial.const(3) * Y + one
    atoms = _atoms() + [
        Polynomial.const(-3),
        Polynomial.const(6),
        X * X - one,
        (X + Y) * (Y + one),
        (X * Y + one) * (X + one) * (X + one),
        lin,
        lin * (X * Y + one),
    ]

    def pick():
        if draw(st.integers(0, 5)) == 0:
            return Factorization.one()
        f = Factorization.one()
        for i, e in draw(st.lists(st.tuples(st.integers(0, len(atoms) - 1), st.integers(1, 3)), max_size=3)):
            f = fmul(f, fpow(Factorization.of(atoms[i]), e))
        return f

    shared = pick()
    return fmul(pick(), shared), fmul(pick(), shared)


@settings(max_examples=150, deadline=None)
@given(gcd_operands())
def test_gcd_factored_splits_into_common_part_and_coprime_cofactors(ops):
    f1, f2 = ops
    t = gcd_factored(f1, f2)
    common = t.common.expand()
    assert poly_mul(common, t.cofactor_left.expand()) == f1.expand()
    assert poly_mul(common, t.cofactor_right.expand()) == f2.expand()
    assert poly_gcd(t.cofactor_left.expand(), t.cofactor_right.expand()).is_one


@settings(max_examples=100, deadline=None)
@given(st.lists(gcd_operands(), min_size=1, max_size=4))
def test_no_chain_of_stored_splits_leads_back_to_its_base(pairs):
    # what lets the pool expand a memo without checking for its own handle
    for f1, f2 in pairs:
        gcd_factored(f1, f2)
    memos = session().memos
    for start in memos:
        seen, todo = set(), [start]
        while todo:
            for h, _ in memos.get(todo.pop(), ()):
                assert h != start, (start, memos[start])
                if h not in seen:
                    seen.add(h)
                    todo.append(h)


def test_each_cache_is_emptied_at_the_one_cap(monkeypatch, fig2_text):
    # fig2 makes one gcd memo entry, so "three" is checked too
    models = [fig2_text, (pathlib.Path(__file__).parent / "data" / "three.pdtmc").read_text()]

    def texts():
        out = []
        for text in models:
            r = model_check(preprocess(parse_model(text)))
            out += [str(f) for f in r.per_pair.values()] + [str(r.total)]
        return out

    expected = texts()
    reset_session()
    for module in (polycore, fz, ratfun):  # each cache reads the cap by name
        monkeypatch.setattr(module, "CACHE_CAP", 2)
    largest: dict[str, int] = {}
    emptied: set[str] = set()

    class Watched(dict):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            largest[self.name] = max(largest.get(self.name, 0), len(self))

        def clear(self):
            emptied.add(self.name)
            super().clear()

    remember = Session.remember

    def watched_remember(self, h, factors):
        remember(self, h, factors)  # may replace the operation memo
        if not isinstance(self.ops, Watched):
            self.ops = Watched("ops")

    monkeypatch.setattr(Session, "remember", watched_remember)
    s = session()
    s.gcd_memo, s.expanded, s.ops = Watched("gcd"), Watched("expanded"), Watched("ops")
    assert texts() == expected
    assert emptied == {"gcd", "expanded", "ops"}
    assert largest == {"gcd": 2, "expanded": 2, "ops": 2}


# ---------------------------------------------------------------------------
# base powers
# ---------------------------------------------------------------------------


_EXPONENTS = st.lists(st.integers(1, 12), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.one_of(_EXPONENTS, _EXPONENTS.map(sorted), _EXPONENTS.map(lambda es: sorted(es)[::-1])),
)
def test_expand_matches_repeated_squaring_whatever_the_order_of_exponents(bases, exponents):
    # each example starts with no powers stored; repeats and jumps come from the draw
    reset_session()
    X, Y, _ = _xyz()
    one = Polynomial.one()
    atoms = [X + one, X * Y + one, X - Y * Y + Polynomial.const(2), X + Y]
    s = session()
    for e in exponents:
        f = Factorization.one()
        for i in bases:
            f = fmul(f, fpow(F(atoms[i]), e))
        s.expanded.clear()  # so every product is built from the stored powers
        expected = one
        for i in bases:
            expected = poly_mul(expected, atoms[i] ** e)
        assert f.expand() == expected


def test_a_power_beyond_the_key_fields_overflows_after_a_smaller_one(monkeypatch):
    X, _, _ = _xyz()
    f = F(X)
    assert fpow(f, 3).expand() == X**3
    # square-and-multiply, not a ladder of 2**31 products
    products, mul = [], polycore.poly_mul

    def counted(a, b):
        products.append(1)
        assert len(products) <= 200, "the power took more than 200 products"
        return mul(a, b)

    monkeypatch.setattr(polycore, "poly_mul", counted)
    with pytest.raises(ExponentOverflow):
        fpow(f, 2**31).expand()
