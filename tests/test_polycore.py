"""Integer-polynomial layer: arithmetic, evaluation, division, gcd."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parmreach import polycore, reset_session
from parmreach.polycore import (
    ExponentOverflow,
    MissingAssignment,
    NotDivisible,
    Polynomial,
    is_irreducible_heuristic,
    monomial,
    monomial_exponents,
    poly_add,
    poly_divide_exact,
    poly_eval,
    poly_gcd,
    poly_mul,
    variable,
    variables,
)


def _xyz():
    x, y, z = variables("x", "y", "z")
    return (
        Polynomial.of_variable(x),
        Polynomial.of_variable(y),
        Polynomial.of_variable(z),
    )


# ---------------------------------------------------------------------------
# construction and normal form
# ---------------------------------------------------------------------------


def test_zero_and_one_are_normalized():
    assert Polynomial.zero().is_zero
    assert Polynomial.one().is_one
    assert Polynomial.const(0) == Polynomial.zero()
    assert Polynomial.const(1) == Polynomial.one()


def test_terms_are_descending_and_nonzero():
    X, Y, _ = _xyz()
    p = (X + Y) * (X + Polynomial.const(3))
    monomials = [m for m, _ in p.terms]
    assert all(a > b for a, b in zip(monomials, monomials[1:]))
    assert all(c != 0 for _, c in p.terms)


def test_structural_equality_is_mathematical_equality():
    X, Y, _ = _xyz()
    assert (X + Y) * (X - Y) == X * X - Y * Y


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------


def test_add_cancels_to_constant():
    (X, _, _) = _xyz()
    one = Polynomial.one()
    assert poly_add(X + one, -X) == one


def test_add_zero_is_identity():
    X, Y, _ = _xyz()
    g = X * Y + Polynomial.const(7)
    assert poly_add(Polynomial.zero(), g) == g
    assert poly_add(g, Polynomial.zero()) == g


def test_add_merges_coefficients():
    (X, _, _) = _xyz()
    assert X.scale(2) + X.scale(3) == X.scale(5)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_associates_structurally():
    X, Y, Z = _xyz()
    assert (X * Y) * Z == X * (Y * Z)


def test_mul_one_is_identity():
    X, Y, _ = _xyz()
    g = X * X - Y.scale(4) + Polynomial.const(2)
    assert g * Polynomial.one() == g


def test_difference_of_squares():
    (X, _, _) = _xyz()
    one = Polynomial.one()
    assert (X + one) * (X - one) == X * X - one


def test_pow_matches_repeated_mul():
    X, Y, _ = _xyz()
    g = X + Y + Polynomial.one()
    assert g**0 == Polynomial.one()
    assert g**1 == g
    assert g**3 == g * g * g
    with pytest.raises(ValueError):
        g ** (-1)


# ---------------------------------------------------------------------------
# exponent limit
# ---------------------------------------------------------------------------


def test_monomial_rejects_exponents_outside_the_key_fields():
    x, y = variables("x", "y")
    assert monomial({x: 2, y: 1}) == monomial([(y, 1), (x, 2)])
    assert monomial({x: 2**31 - 1}) > monomial({x: 2**31 - 2})
    for bad in (-1, 2**31):
        with pytest.raises(ValueError):
            monomial({x: bad})


def test_power_overflows_at_two_to_the_31():
    x = variable("x")
    X = Polynomial.of_variable(x)
    assert str(X ** (2**31 - 1)) == "x^2147483647"
    with pytest.raises(ExponentOverflow):
        X ** (2**31)


def test_products_check_every_exponent_field():
    x, y = variables("x", "y")
    one = Polynomial.one()
    high_y = Polynomial.from_dict({monomial({x: 1, y: 2**30}): 1}) + one
    with pytest.raises(ExponentOverflow):
        poly_mul(high_y, high_y)
    with pytest.raises(ExponentOverflow):
        high_y.mul_term(monomial({y: 2**30}), 3)
    top_x = Polynomial.from_dict({monomial({x: 2**31 - 2}): 1}) + one
    product = poly_mul(top_x, Polynomial.of_variable(x) + Polynomial.of_variable(y))
    assert dict(product.terms)[monomial({x: 2**31 - 1})] == 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_linear():
    p = variable("p")
    ten_minus = Polynomial.const(10) - Polynomial.of_variable(p).scale(3)
    assert poly_eval(ten_minus, {p: Fraction(1, 2)}) == Fraction(17, 2)


def test_eval_zero_polynomial():
    p = variable("p")
    assert poly_eval(Polynomial.zero(), {p: Fraction(9, 7)}) == 0


def test_eval_product_monomial():
    x, y, z = variables("x", "y", "z")
    X, Y, Z = (Polynomial.of_variable(v) for v in (x, y, z))
    assert poly_eval(X * Y * Z, {x: Fraction(1), y: Fraction(2), z: Fraction(3)}) == 6


def test_eval_missing_assignment():
    x, y = variables("x", "y")
    with pytest.raises(MissingAssignment):
        poly_eval(Polynomial.of_variable(x) * Polynomial.of_variable(y), {x: Fraction(1)})


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_divide_by_one():
    X, Y, _ = _xyz()
    g = X * Y - Y + Polynomial.const(5)
    assert poly_divide_exact(g, Polynomial.one()) == g


def test_divide_difference_of_squares():
    (X, _, _) = _xyz()
    one = Polynomial.one()
    assert poly_divide_exact(X * X - one, X + one) == X - one


def test_divide_rejects_remainder(monkeypatch):
    (X, Y, _) = _xyz()
    one = Polynomial.one()
    cases = [
        (X * X + one, X + one, "(x^2 + 1) is not divisible by (x + 1)"),  # remainder
        (Y + one, X + one, "(y + 1) is not divisible by (x + 1)"),  # leading monomial
        (X + one, Polynomial.const(2), "(x + 1) is not divisible by (2)"),  # constant
        (X + one, X * Polynomial.const(2) + one, "(x + 1) is not divisible by (2*x + 1)"),
    ]
    printed = []
    real_str = Polynomial.__str__
    monkeypatch.setattr(Polynomial, "__str__", lambda p: printed.append(p) or real_str(p))
    for a, b, text in cases:
        with pytest.raises(NotDivisible) as exc:
            poly_divide_exact(a, b)
        assert printed == []  # the text is built only when read
        assert str(exc.value) == text
        printed.clear()


@pytest.mark.parametrize("c", [2, -2, 3, -3, -1])
def test_divide_by_a_constant(c):
    X, Y, _ = _xyz()
    k = Polynomial.const
    q = X * X * Y + k(3) * X * Y - X + k(7)
    b = k(c)
    quotient = poly_divide_exact(q * b, b)
    assert quotient == q
    assert [key for key, _ in quotient.terms] == sorted((key for key, _ in q.terms), reverse=True)
    if abs(c) > 1:
        with pytest.raises(NotDivisible):
            poly_divide_exact(q * b + X, b)


def test_divide_by_zero_raises():
    (X, _, _) = _xyz()
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact(X, Polynomial.zero())


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_idempotent_and_canonical():
    (X, _, _) = _xyz()
    g = -(X + Polynomial.one()).scale(2)
    h = poly_gcd(g, g)
    assert h == (X + Polynomial.one()).scale(2)  # positive leading coefficient
    assert h.leading_coefficient > 0


def test_gcd_shared_linear_factor():
    (X, _, _) = _xyz()
    one = Polynomial.one()
    a = X * X - one
    b = X * X + X.scale(2) + one
    assert poly_gcd(a, b) == X + one


def test_gcd_of_integers():
    assert poly_gcd(Polynomial.const(4), Polynomial.const(6)) == Polynomial.const(2)


def test_gcd_with_zero():
    (X, _, _) = _xyz()
    assert poly_gcd(Polynomial.zero(), X) == X
    assert poly_gcd(X, Polynomial.zero()) == X


def test_reset_session_empties_the_gcd_memo():
    (X, _, _) = _xyz()
    one = Polynomial.one()
    poly_gcd(X * X - one, X * X + X.scale(2) + one)
    assert polycore.session().gcd_memo
    reset_session()
    assert not polycore.session().gcd_memo


# ---------------------------------------------------------------------------
# irreducibility screen
# ---------------------------------------------------------------------------


def test_irreducible_certificates():
    p = variable("p")
    P = Polynomial.of_variable(p)
    assert is_irreducible_heuristic(P) is True
    assert is_irreducible_heuristic(Polynomial.one() - P) is True
    assert is_irreducible_heuristic(Polynomial.const(7)) is True
    # single terms that are not a bare variable stay unknown
    assert is_irreducible_heuristic(P.scale(2)) is False
    assert is_irreducible_heuristic(P * P) is False


def test_the_screen_certifies_degree_one_where_the_gcd_is_plainly_one():
    X, Y, Z = _xyz()
    one, two, three = (Polynomial.const(c) for c in (1, 2, 3))
    certified = [
        X * Y + one,  # b is a constant
        two * X * Y + three * Z,  # a = 2x, whose x the term 3z lacks
        X * X * Y + X + one,  # b = x + 1 has monomial content 1
        Y * (X + Z) + X * Z,  # in y, b = xz is one term and a = x + z has content 1
        X + two * Y + three,  # total degree one
    ]
    for g in certified:
        assert is_irreducible_heuristic(g) is True, g
    unknown = [
        X * Y + X,  # x * (y + 1)
        X * Y * Z + X * Z,  # xz * (y + 1)
        X * Y,  # b = 0 and a = x
        X * Y + X * Z + Y * Z + Z * Z,  # (x + z) * (y + z): neither part one term
        two * X + Polynomial.const(4),  # not primitive
        X * X * Y + X * X + Y * Y,  # irreducible, but of degree two in both
    ]
    for g in unknown:
        assert is_irreducible_heuristic(g) is False, g


def test_reducible_is_unknown():
    (X, _, _) = _xyz()
    assert is_irreducible_heuristic(X * X - Polynomial.one()) is False


def test_irreducibility_of_zero_rejected():
    with pytest.raises(ValueError):
        is_irreducible_heuristic(Polynomial.zero())


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def polys(draw, max_terms=5, max_exp=3, coeff=8, names=("x", "y", "z")):
    variables("x", "y", "z")  # the same ids whatever *names* are
    xs = variables(*names)
    n = draw(st.integers(0, max_terms))
    acc = {}
    for _ in range(n):
        exps = {}
        for v in xs:
            e = draw(st.integers(0, max_exp))
            if e:
                exps[v] = e
        acc[monomial(exps)] = draw(
            st.integers(-coeff, coeff).filter(lambda c: c != 0)
        )
    return Polynomial.from_dict(acc)


@st.composite
def points(draw):
    xs = variables("x", "y", "z")
    return {
        v: Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5))) for v in xs
    }


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_commutativity(a, b):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_distributivity(a, b, c):
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), points())
def test_eval_is_a_homomorphism(a, b, pt):
    assert poly_eval(poly_add(a, b), pt) == poly_eval(a, pt) + poly_eval(b, pt)
    assert poly_eval(poly_mul(a, b), pt) == poly_eval(a, pt) * poly_eval(b, pt)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=4), polys(max_terms=4))
def test_gcd_contract(a, b):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert g.leading_coefficient > 0
    qa = poly_divide_exact(a, g)  # must not raise
    qb = poly_divide_exact(b, g)
    assert poly_mul(qa, g) == a
    assert poly_mul(qb, g) == b
    if not a.is_zero and not b.is_zero:
        assert poly_gcd(qa, qb).is_one  # g was maximal


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
def test_gcd_detects_planted_factor(a, b, g):
    if a.is_zero or b.is_zero or g.is_zero:
        return
    h = poly_gcd(poly_mul(a, g), poly_mul(b, g))
    q = poly_divide_exact(h, g)  # the planted factor divides the gcd
    assert poly_mul(q, g) == h


def test_exact_fallback_matches_the_default_path(monkeypatch):
    """With the heuristic gcd given no tries, the primitive remainder
    sequence answers in its place, with the same result."""
    prs_calls = []
    prs = polycore._primitive_prs_gcd

    def counting_prs(f, g, vid):
        prs_calls.append(vid)
        return prs(f, g, vid)

    def check(a, b, g):
        if a.is_zero or b.is_zero or g.is_zero:
            return
        pa, pb = poly_mul(a, g), poly_mul(b, g)
        with monkeypatch.context() as m:
            m.setattr(polycore, "_HEU_MAX_TRIES", 0)
            m.setattr(polycore, "_primitive_prs_gcd", counting_prs)
            reset_session()  # an empty gcd memo
            exact = poly_gcd(pa, pb)
        reset_session()
        assert exact == poly_gcd(pa, pb)

    # the image bound 1 is below both x-degrees, so no trial division
    # settles the pair and only the remainder sequence is left
    X, _, _ = _xyz()
    one = Polynomial.one()
    check(X + one.scale(2), X * X + one.scale(3), X + one)
    assert prs_calls

    @settings(max_examples=40, deadline=None)
    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    def check_drawn(a, b, g):
        check(a, b, g)

    check_drawn()


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
def test_image_gcd_degree_bounds_the_gcd(a, b, g):
    if a.is_zero or b.is_zero or g.is_zero:
        return
    pa, pb = poly_mul(a, g), poly_mul(b, g)
    h = poly_gcd(pa, pb)
    d = polycore._image_gcd_degree(pa, pb)
    if d is not None:
        assert d >= h.total_degree()
        assert d > 0 or h.is_constant
        assert d >= g.total_degree()  # a planted non-constant g is never certified away
    for v in variables("x", "y", "z"):
        d = polycore._image_gcd_degree(pa, pb, v.id)
        if d is not None:
            assert d >= h.degree_in(v.id)


@settings(max_examples=100, deadline=None)
@given(
    polys(max_terms=3),
    polys(max_terms=3, max_exp=2, names=("x", "z")),
    polys(max_terms=3, max_exp=2, names=("x", "z")),
    polys(max_terms=3, max_exp=2, names=("x", "z")),
)
def test_the_screen_certifies_no_product(a, c, p, q):
    """A product of two non-constant polynomials is never certified
    irreducible, in particular not one of degree one in y: ``c`` is
    free of y, so ``c * (y*p + q)`` has degree at most one in y, with
    the common factor c of its two parts."""
    Y = Polynomial.of_variable(variable("y"))
    for f, g in ((a, c), (c, poly_add(poly_mul(Y, p), q))):
        if not (f.is_constant or g.is_constant):
            assert not is_irreducible_heuristic(poly_mul(f, g)), (f, g)


def test_image_gcd_degree_is_inconclusive_when_both_degrees_drop(monkeypatch):
    # at x = y = 1 the common factor maps to a constant, so the images of
    # the operands are coprime although the operands are not
    monkeypatch.setattr(polycore, "_filter_point", lambda vid, attempt: 1)
    reset_session()  # the session caches images and point powers made before the patch
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    one = Polynomial.one()
    common = X - Y + one  # total degree drops under x, y -> t
    assert polycore._image_gcd_degree(common * X, common * (X + one)) is None
    common = (Y - one) * X + one  # x-degree drops at y = 1
    assert polycore._image_gcd_degree(common * X, common * (X + one), x.id) is None


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=4), polys(max_terms=4).filter(lambda p: not p.is_zero))
def test_exact_division_roundtrip(a, b):
    assert poly_divide_exact(poly_mul(a, b), b) == a


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
def test_monomial_order_compatible_with_multiplication(a, b, c):
    if a.is_zero or b.is_zero or c.is_zero:
        return
    la, lb, lc = a.terms[0][0], b.terms[0][0], c.terms[0][0]
    if la < lb:
        assert la + lc < lb + lc


def _eval_term_by_term(p, assignment):
    """Reference evaluation: one Fraction product per term."""
    by_id = {v.id: val for v, val in assignment.items()}
    total = Fraction(0)
    for key, c in p.terms:
        value = Fraction(1)
        for vid, e in polycore.monomial_exponents(key):
            if vid not in by_id:
                raise MissingAssignment(f"no value for variable id {vid}")
            value *= by_id[vid] ** e
        total += c * value
    return total


@st.composite
def partial_points(draw):
    """Values for some of x, y, z (zero, negative and non-unit
    denominators included) plus one for a variable no polynomial uses."""
    x, y, z, w = variables("x", "y", "z", "w")
    pt = {}
    for v in (x, y, z, w):
        if v is w or draw(st.integers(0, 4)):
            pt[v] = Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 9)))
    return pt


@settings(max_examples=150, deadline=None)
@given(polys(max_terms=8, max_exp=5, coeff=50), partial_points())
def test_eval_matches_term_by_term_fractions(p, pt):
    try:
        want = _eval_term_by_term(p, pt)
    except MissingAssignment as e:
        with pytest.raises(MissingAssignment, match=f"^{e}$"):
            poly_eval(p, pt)
        return
    got = poly_eval(p, pt)
    assert isinstance(got, Fraction)
    assert got == want


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _reference_str(p: Polynomial) -> str:
    """The printer term by term: each key decoded on its own."""
    names = polycore.session().names

    def key_str(key: int) -> str:
        parts = []
        for vid, e in monomial_exponents(key):
            name = names[vid] if vid < len(names) else f"_v{vid}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    if not p.terms:
        return "0"
    parts = []
    for i, (k, c) in enumerate(p.terms):
        mag = abs(c)
        if not k:
            body = str(mag)
        elif mag == 1:
            body = key_str(k)
        else:
            body = f"{mag}*{key_str(k)}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@st.composite
def printable_polys(draw):
    """Terms over ids 0-3, of which only x and y (ids 0 and 1) are
    named; exponents 0-3 or 2**31 - 1, coefficients of both signs with
    units twice as likely."""
    acc = {}
    for _ in range(draw(st.integers(0, 6))):
        key = 0
        for vid in range(4):
            e = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 2**31 - 1]))
            key |= e << (vid << 5)
        c = draw(st.sampled_from([1, -1, 1, -1]) | st.integers(-40, 40).filter(bool))
        acc[key] = c
    return Polynomial.from_dict(acc)


@settings(max_examples=200, deadline=None)
@given(printable_polys())
def test_str_matches_the_term_by_term_printer(p):
    variables("x", "y")
    assert str(p) == _reference_str(p)


def test_str_of_a_mixed_polynomial():
    x, y = variables("x", "y")
    X, Y = Polynomial.of_variable(x), Polynomial.of_variable(y)
    unnamed = Polynomial.from_dict({1 << 96: 1})  # id 3, beyond the names
    p = Polynomial.const(-3) * X * X * unnamed + X * Y - Y - Polynomial.const(7) + X * unnamed
    assert str(p) == "-3*x^2*_v3 + x*_v3 + x*y - y - 7"
    assert str(-p) == "3*x^2*_v3 - x*_v3 - x*y + y + 7"
    assert str(Polynomial.const(-5)) == "-5"
    assert str(Polynomial.zero()) == "0"
