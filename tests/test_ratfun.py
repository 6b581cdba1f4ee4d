"""Rational functions over factored numerator/denominator pairs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parmreach import eliminate_all, elimination, parse_model, preprocess, ratfun, scc_mc
from parmreach.benchgen import brp
from parmreach.factorizations import Factorization, gcd_factored
from parmreach.polycore import (
    Polynomial,
    StaleValue,
    poly_gcd,
    reset_session,
    session,
    variable,
    variables,
)
from parmreach.ratfun import (
    DivisionByZeroFunction,
    EvalDenominatorZero,
    RationalFunction,
    rf_add,
    rf_const,
    rf_div,
    rf_eval,
    rf_from_polys,
    rf_mul,
    rf_neg,
    rf_of_poly,
    rf_of_variable,
    rf_one,
    rf_pow,
    rf_sub,
    rf_sum,
    rf_sums_to_one,
    rf_zero,
)


def _xy():
    x, y = variables("x", "y")
    return rf_of_variable(x), rf_of_variable(y)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_reciprocal_product_is_one():
    fx, fy = _xy()
    assert rf_mul(rf_div(fx, fy), rf_div(fy, fx)).is_one


def test_mul_by_one_is_identity():
    fx, fy = _xy()
    f = rf_div(rf_add(fx, fy), fy)
    assert rf_mul(f, rf_one()) == f


def test_linear_over_linear_canonical_string():
    p = variable("p")
    three_tenths_p = rf_mul(rf_const(Fraction(3, 10)), rf_of_variable(p))
    f = rf_div(three_tenths_p, rf_sub(rf_one(), three_tenths_p))
    assert str(f) == "(-3*p)/(3*p - 10)"


def test_same_denominator_addition():
    fx, fy = _xy()
    f = rf_div(fx, fy)
    assert str(rf_add(f, f)) == "(2*x)/(y)"


def test_unit_fraction_addition():
    fx, fy = _xy()
    got = rf_add(rf_div(rf_one(), fx), rf_div(rf_one(), rf_mul(fx, fy)))
    assert str(got) == "(y + 1)/(x*y)"


def test_cancellation_runs_to_completion():
    x = variable("x")
    X = Polynomial.of_variable(x)
    one = Polynomial.one()
    f = rf_from_polys(X * X - one, X + one)
    assert str(f) == "x - 1"
    assert f.denominator_poly().is_one


def test_division_by_zero_function_rejected():
    fx, _ = _xy()
    with pytest.raises(DivisionByZeroFunction):
        rf_div(fx, rf_zero())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_scaled_first_return():
    p = variable("p")
    P = Polynomial.of_variable(p)
    f = rf_from_polys(P.scale(3), Polynomial.const(10) - P.scale(3))
    assert rf_eval(f, {p: Fraction(1, 2)}) == Fraction(3, 17)


def test_eval_constant_one():
    assert rf_eval(rf_one(), {}) == 1


def test_eval_at_pole_raises():
    x = variable("x")
    f = rf_div(rf_one(), rf_of_variable(x))
    with pytest.raises(EvalDenominatorZero):
        rf_eval(f, {x: Fraction(0)})


# ---------------------------------------------------------------------------
# representation independence
# ---------------------------------------------------------------------------


def test_equality_across_representations():
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    a = rf_from_polys(X * Y, Y * Y)  # reduces to x/y
    b = rf_div(rf_of_poly(X), rf_of_poly(Y))
    assert a == b
    assert hash(a) == hash(b)


def test_factored_rendering():
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    f = rf_div(rf_mul(rf_of_poly(X), rf_of_poly(X + Y)), rf_of_poly(Y))
    assert f.factored_str() == "[(x)*(y + x)] / [(y)]"
    # the plain rendering expands the product
    assert str(f) == "(x*y + x^2)/(y)"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def ratfuns(draw):
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    one = Polynomial.one()
    atoms = [X, Y, X + one, Y + one, X + Y + one, Polynomial.const(2)]
    def pick_poly():
        p = Polynomial.one()
        for i in draw(st.lists(st.integers(0, 5), min_size=1, max_size=2)):
            p = p * atoms[i]
        return p
    num = pick_poly()
    if draw(st.booleans()):
        num = -num
    return rf_from_polys(num, pick_poly())


@settings(max_examples=100, deadline=None)
@given(st.one_of(ratfuns(), st.fractions().map(rf_const)))
def test_is_constant_agrees_with_the_expanded_check(f):
    assert f.is_constant == (f.numerator_poly().is_constant and f.denominator_poly().is_constant)


@settings(max_examples=50, deadline=None)
@given(ratfuns(), ratfuns(), ratfuns())
def test_field_laws(a, b, c):
    assert rf_add(a, b) == rf_add(b, a)
    assert rf_mul(a, b) == rf_mul(b, a)
    assert rf_add(rf_add(a, b), c) == rf_add(a, rf_add(b, c))
    assert rf_mul(rf_mul(a, b), c) == rf_mul(a, rf_mul(b, c))
    assert rf_mul(a, rf_add(b, c)) == rf_add(rf_mul(a, b), rf_mul(a, c))
    assert rf_add(a, rf_neg(a)).is_zero
    assert rf_sub(a, b) == rf_add(a, rf_neg(b))
    if not a.is_zero:
        assert rf_mul(a, rf_div(rf_one(), a)).is_one


@settings(max_examples=50, deadline=None)
@given(ratfuns())
def test_cancellation_is_sound_and_idempotent(f):
    num, den = f.numerator_poly(), f.denominator_poly()
    assert poly_gcd(num, den).is_one
    again = rf_from_polys(num, den)
    assert again == f
    assert again.numerator_poly() == num
    assert again.denominator_poly() == den


@settings(max_examples=50, deadline=None)
@given(ratfuns(), ratfuns())
def test_eval_commutes_with_arithmetic(a, b):
    x, y = variables("x", "y")
    pt = {x: Fraction(3, 7), y: Fraction(5, 11)}
    try:
        va, vb = rf_eval(a, pt), rf_eval(b, pt)
    except EvalDenominatorZero:
        return
    assert rf_eval(rf_add(a, b), pt) == va + vb
    assert rf_eval(rf_mul(a, b), pt) == va * vb


def test_rf_sum_matches_folded_addition():
    fx, fy = _xy()
    items = [fx, fy, rf_div(fx, fy), rf_const(Fraction(1, 3))]
    folded = rf_zero()
    for it in items:
        folded = rf_add(folded, it)
    assert rf_sum(items) == folded


def test_pow_matches_repeated_multiplication():
    fx, fy = _xy()
    f = rf_div(rf_add(fx, fy), fy)
    assert rf_pow(f, 0).is_one
    assert rf_pow(f, 3) == rf_mul(f, rf_mul(f, f))
    assert rf_pow(f, -1) == rf_div(rf_one(), f)
    with pytest.raises(DivisionByZeroFunction):
        rf_pow(rf_zero(), -1)


@st.composite
def addends(draw):
    """Two rational functions, often with denominator factors in common,
    sometimes built so that the shared factors cancel from the sum."""
    a, b = draw(ratfuns()), draw(ratfuns())
    kind = draw(st.sampled_from(["any", "shared", "cancelling"]))
    if kind != "any":
        shared = rf_div(rf_one(), draw(ratfuns()))
        a, b = rf_mul(a, shared), rf_mul(b, shared)
    if kind == "cancelling":
        # b - a, reduced without rf_add, so that a + b == b
        n1, d1 = a.numerator_poly(), a.denominator_poly()
        n2, d2 = b.numerator_poly(), b.denominator_poly()
        b = rf_from_polys(n2 * d1 - n1 * d2, d1 * d2)
    return a, b


@settings(max_examples=100, deadline=None)
@given(addends())
def test_sum_equals_the_fully_cancelled_cross_product(ab):
    # Henrici's addition cancels only against the shared denominator
    # part; the fully reduced fraction must come out all the same
    a, b = ab
    n1, d1 = a.numerator_poly(), a.denominator_poly()
    n2, d2 = b.numerator_poly(), b.denominator_poly()
    want = rf_from_polys(n1 * d2 + n2 * d1, d1 * d2)
    got = rf_add(a, b)
    assert got.numerator_poly() == want.numerator_poly()
    assert got.denominator_poly() == want.denominator_poly()


def _complement(fs):
    """``1 - sum(fs)``, reduced from expanded polynomials without rf_add,
    so its denominator shares factors with the others only once the pool
    refines them."""
    num, den = Polynomial.one(), Polynomial.one()
    for f in fs:
        n, d = f.numerator_poly(), f.denominator_poly()
        num, den = num * d - n * den, den * d
    return rf_from_polys(num, den)


@st.composite
def rows(draw):
    """Lists of rational functions, zeros and constants among them, and
    whether the list was built to sum to 1."""
    items = draw(st.lists(st.sampled_from(["ratfun", "scaled", "zero", "const"]), max_size=4))
    fs = []
    for kind in items:
        if kind == "ratfun":
            fs.append(draw(ratfuns()))
        elif kind == "scaled":
            # integer factors on both sides, so denominators differ in their coefficients
            f = draw(ratfuns())
            a, b = draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 12))
            fs.append(rf_from_polys(f.numerator_poly().scale(a), f.denominator_poly().scale(b)))
        elif kind == "const":
            fs.append(rf_const(Fraction(draw(st.integers(-3, 4)), draw(st.integers(1, 4)))))
        else:
            fs.append(rf_zero())
    built = draw(st.booleans())
    if built:
        fs.append(_complement(fs))
    return draw(st.permutations(fs)), built


@settings(max_examples=150, deadline=None)
@given(rows())
def test_sums_to_one_agrees_with_the_cancelled_sum(row):
    fs, built = row
    decided = rf_sums_to_one(fs)
    assert decided == rf_sum(fs).is_one
    if built:
        assert decided


def test_sums_to_one_on_constant_rows_and_the_empty_row():
    third = rf_const(Fraction(1, 3))
    assert rf_sums_to_one([third, rf_const(Fraction(2, 3))])
    assert rf_sums_to_one([rf_zero(), rf_one(), rf_zero()])
    assert rf_sums_to_one([rf_const(2), rf_const(-1)])
    assert not rf_sums_to_one([third, third])
    assert not rf_sums_to_one([rf_zero()])
    assert not rf_sums_to_one([])
    # denominators whose lcm is not their product
    quarter, sixth = rf_const(Fraction(1, 4)), rf_const(Fraction(1, 6))
    assert rf_sums_to_one([quarter, sixth, rf_const(Fraction(7, 12))])
    assert not rf_sums_to_one([quarter, sixth, rf_const(Fraction(1, 2))])
    x = Polynomial.of_variable(variable("x"))
    one, c = Polynomial.one(), Polynomial.const
    row = [rf_from_polys(one, c(4) * (x + one)), rf_from_polys(one, c(6) * (x + one))]
    assert rf_sums_to_one(row + [rf_from_polys(c(12) * x + c(7), c(12) * (x + one))])
    assert not rf_sums_to_one(row + [rf_from_polys(c(2) * x + one, c(2) * (x + one))])


def test_sums_to_one_leaves_the_session_as_it_was():
    x = Polynomial.of_variable(variable("x"))
    one = Polynomial.one()
    # x^2 - 1 and (x + 1)^2 are single pool bases that only the kernel splits
    row = [rf_from_polys(one, x * x - one), rf_from_polys(x, x * x + x + x + one)]
    row.append(_complement(row))
    s = session()

    def state():
        return s.stored_polynomials, dict(s.memos), dict(s.gcd_memo), s.gcd_kernel_calls

    before = state()
    assert rf_sums_to_one(row)
    assert not rf_sums_to_one(row[1:])
    assert state() == before
    assert rf_sum(row).is_one
    assert state() != before  # the cancelled sum refines the pool


def test_the_sums_to_one_memo_keys_a_row_by_the_multiset_of_its_terms():
    half, third = rf_const(Fraction(1, 2)), rf_const(Fraction(1, 3))
    assert rf_sums_to_one([half, half])
    assert not rf_sums_to_one([half])
    assert rf_sums_to_one([third, third, third])
    assert not rf_sums_to_one([third, third])


def test_the_sums_to_one_memo_keys_denominators_and_coefficients():
    p = Polynomial.of_variable(variable("p"))
    one, c = Polynomial.one(), Polynomial.const
    # the same numerators over another denominator base
    assert rf_sums_to_one([rf_from_polys(p, p + one), rf_from_polys(one, p + one)])
    assert not rf_sums_to_one([rf_from_polys(p, p + c(2)), rf_from_polys(one, p + c(2))])
    # the same numerators over another denominator coefficient
    for k, sums in ((2, True), (3, False)):
        den = c(k) * (p + one)
        assert rf_sums_to_one([rf_from_polys(one, den), rf_from_polys(c(2) * p + one, den)]) == sums
    # the same bases with a negated numerator coefficient
    assert not rf_sums_to_one([rf_from_polys(-p, p + one), rf_from_polys(one, p + one)])


def _counting_decisions(monkeypatch) -> list:
    decisions = []
    decide = ratfun._sums_to_one
    monkeypatch.setattr(
        ratfun, "_sums_to_one", lambda terms: decisions.append(terms) or decide(terms)
    )
    return decisions


def _p_and_its_complement() -> list:
    """``[p/(1 + p), 1/(1 + p)]``, a row that sums to 1."""
    P = rf_of_variable(variable("p"))
    return [rf_div(P, rf_add(rf_one(), P)), rf_div(rf_one(), rf_add(rf_one(), P))]


def test_the_sums_to_one_memo_remembers_only_rows_that_sum_to_one(monkeypatch):
    decisions = _counting_decisions(monkeypatch)
    right = _p_and_its_complement()
    wrong = [right[0], rf_add(right[1], right[1])]
    assert not rf_sums_to_one(wrong)
    assert not rf_sums_to_one(wrong)
    assert len(decisions) == 2
    assert rf_sums_to_one(right)
    assert rf_sums_to_one(right[::-1])
    assert len(decisions) == 3


def test_a_planted_multiplication_bug_on_brp_breaks_the_elimination_audit(monkeypatch):
    # brp's rows repeat, so every wrong row must still be decided anew
    m = preprocess(parse_model(brp(16, 4)))
    monkeypatch.setattr(scc_mc, "rf_mul", lambda a, b: rf_mul(a, rf_add(b, b)))
    with pytest.raises(elimination.ConservationBroken, match="no longer sum to 1"):
        eliminate_all(m)


def test_a_row_remembered_in_an_ended_session_is_stale():
    row = _p_and_its_complement()
    assert rf_sums_to_one(row)
    reset_session()
    with pytest.raises(StaleValue):
        rf_sums_to_one(row)


def test_the_elimination_audit_decides_few_of_brps_rows_in_full(monkeypatch):
    m = preprocess(parse_model(brp(16, 4)))
    audits, audit = [], elimination.rf_sums_to_one
    monkeypatch.setattr(
        elimination, "rf_sums_to_one", lambda items: audits.append(1) or audit(items)
    )
    decisions = _counting_decisions(monkeypatch)
    eliminate_all(m)
    assert len(audits) >= 200
    assert len(decisions) <= 40, (len(decisions), len(audits))


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def test_values_from_an_ended_session_raise():
    P = rf_of_variable(variable("p"))
    f = rf_div(P, rf_add(rf_one(), P))
    zero, one = rf_zero(), rf_one()
    reset_session()
    q = variable("q")
    Q = rf_of_variable(q)
    g = rf_div(rf_add(rf_pow(Q, 2), rf_const(3)), rf_sub(Q, rf_const(7)))
    uses = [
        str,
        RationalFunction.factored_str,
        lambda h: rf_add(h, g),
        lambda h: rf_eval(h, {q: Fraction(1, 2)}),
    ]
    for use in uses:
        with pytest.raises(StaleValue):
            use(f)
    # zero and one are the same in every session
    assert rf_add(zero, g) == g
    assert str(rf_add(one, g)) == "(q^2 + q - 4)/(q - 7)"


def test_a_product_with_a_value_from_an_ended_session_raises_at_the_call():
    # no gcd here pairs two bases, so only a look-up can find the stale ones
    P, Q = (rf_of_variable(variable(name)) for name in ("p", "q"))
    stale = [(P, rf_add(Q, rf_one())), (P, Q), (rf_div(P, Q), rf_div(Q, P))]
    reset_session()
    fresh = rf_add(rf_of_variable(variable("r")), rf_one())
    for a, b in [*stale, (P, fresh), (fresh, P)]:
        with pytest.raises(StaleValue):
            rf_mul(a, b)


# ---------------------------------------------------------------------------
# the operation memo
# ---------------------------------------------------------------------------


def test_a_split_after_an_addition_refines_the_repeated_addition():
    # x^2 - 1 is one pool base until a gcd with x + 1 splits it
    def run(split_first: bool) -> list[str]:
        x = Polynomial.of_variable(variable("x"))
        one = Polynomial.one()
        a, b = rf_of_poly(x * x), rf_const(-1)
        texts = [] if split_first else [rf_add(a, b).factored_str()]
        gcd_factored(Factorization.of(x * x - one), Factorization.of(x + one))
        return texts + [rf_add(a, b).factored_str()]

    coarse, refined = run(split_first=False)
    reset_session()
    (fresh,) = run(split_first=True)
    assert coarse == "(x^2 - 1)"
    assert refined == fresh == "(x + 1)*(x - 1)"


def test_a_result_remembered_in_an_ended_session_is_never_returned():
    X = rf_of_variable(variable("x"))
    a = rf_div(X, rf_add(X, rf_one()))
    b = rf_div(rf_one(), rf_add(X, rf_const(2)))
    ops = (rf_add, rf_sub, rf_mul, rf_div)
    for op in ops:
        op(a, b)
    reset_session()
    for op in ops:
        with pytest.raises(StaleValue):
            op(a, b)


def test_the_operation_memo_answers_most_additions_and_products_on_brp(monkeypatch):
    m = preprocess(parse_model(brp(16, 4)))
    calls = {"rf_add": [], "rf_mul": [], "_add": [], "_mul": []}

    def counted(name, fn):
        return lambda a, b: calls[name].append(1) or fn(a, b)

    for name in ("rf_add", "rf_mul"):
        wrapped = counted(name, getattr(ratfun, name))
        for module in (ratfun, scc_mc):
            monkeypatch.setattr(module, name, wrapped)
    for name in ("_add", "_mul"):
        monkeypatch.setattr(ratfun, name, counted(name, getattr(ratfun, name)))
    eliminate_all(m)
    for op, computed in (("rf_add", "_add"), ("rf_mul", "_mul")):
        assert len(calls[op]) >= 200
        assert len(calls[computed]) <= 0.2 * len(calls[op]), (op, len(calls[computed]), len(calls[op]))


def test_a_result_whose_computation_split_a_base_is_not_remembered():
    # the gcd of the denominators splits x^2 - 1 on the way
    X = rf_of_variable(variable("x"))
    one = rf_one()
    a = rf_div(one, rf_sub(rf_mul(X, X), one))
    b = rf_div(one, rf_add(X, one))
    session().ops.clear()  # forget how a and b were built
    total = rf_add(a, b)
    assert str(total) == "(x)/(x^2 - 1)"
    assert total.factored_str() == "[(x)] / [(x + 1)*(x - 1)]"
    assert not session().ops
