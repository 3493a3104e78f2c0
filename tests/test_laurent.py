import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from gordian.errors import DomainError
from gordian.errors import MaterializationLimitError
from gordian import sturm
from gordian.limits import guard_error, materialization_limit
from gordian.laurent import (
    HalfLaurent,
    LaurentPoly,
    ONE,
    format_poly,
    from_basis,
    is_normalized,
    linking_form,
    parse_poly,
    symmetrize,
    to_basis,
    to_chebyshev,
    torus_factorization,
    torus_poly,
)

FIG3 = parse_poly("-t^-2+3t^-1-3+3t-t^2")


# ---------------------------------------------------------------------------
# independent oracles

def torus_oracle(p):
    """Long division of (t^p + 1) by (t + 1), then shift by t^-(p-1)/2."""
    num = [1] + [0] * (p - 1) + [1]
    q = [0] * p
    q[0] = num[0]
    for i in range(1, p):
        q[i] = num[i] - q[i - 1]
    assert q[p - 1] + 0 == num[p]  # division is exact
    shift = (p - 1) // 2
    return {i - shift: c for i, c in enumerate(q) if c}


def dict_add(d1, d2):
    out = dict(d1)
    for e, c in d2.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dict_mul(d1, d2):
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_scale(d, k):
    return {e: c * k for e, c in d.items() if c * k}


def expand_basis_oracle(a):
    """Expand 1 + a_0 B_0 + sum a_i B_i with raw dict arithmetic."""
    kernel = {0: 2, 1: -1, -1: -1}
    out = {0: 1}
    for i, ai in enumerate(a):
        if not ai:
            continue
        elem = kernel if i == 0 else dict_mul({i: 1, -i: 1}, kernel)
        out = dict_add(out, dict_scale(elem, ai))
    return out


def as_dict(d):
    return dict(d.terms)


# ---------------------------------------------------------------------------
# arithmetic and text form

def test_zero_coefficients_never_stored():
    d = LaurentPoly({0: 1, 2: 0, -3: 0})
    assert d.terms == ((0, 1),)
    assert (d - d).terms == ()


def test_arithmetic_exact():
    d = LaurentPoly({-1: 1, 1: 1})
    assert (d * d) == LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert d + 1 == LaurentPoly({-1: 1, 0: 1, 1: 1})
    assert (d**3) == d * d * d
    assert d(1) == 2
    assert d(Fraction(1, 2)) == Fraction(5, 2)
    assert d.involution() == d


def test_involution_is_exact_involution():
    d = LaurentPoly({-2: 5, 1: -3, 4: 7})
    assert d.involution().involution() == d


def sparse_laurent(coeffs, mirror, nudge):
    """A sparse Laurent polynomial; mirrored ones are symmetric until nudged."""
    d = LaurentPoly(coeffs)
    if mirror:
        d = d + d.involution()
    return d + LaurentPoly(nudge)


@settings(max_examples=300, deadline=None)
@given(st.builds(
    sparse_laurent,
    st.dictionaries(st.integers(-7, 7), st.integers(-3, 3), max_size=6),
    st.booleans(),
    st.dictionaries(st.integers(-7, 7), st.integers(-1, 1), max_size=1),
))
@example(LaurentPoly())
@example(LaurentPoly({-2: 1, 3: 1}))  # odd span
@example(LaurentPoly({-3: 2, 0: 1, 3: 2}))
@example(LaurentPoly({-3: 2, 0: 1, 3: -2}))
@example(LaurentPoly({1: 1}))
def test_symmetry_test_matches_the_involution(d):
    assert d.is_symmetric() == (d == d.involution())


def test_text_round_trip_examples():
    # canonical form lists exponents in ascending order
    for text in ["-t^-2+3t^-1-3+3t-t^2", "t^-1-1+t", "1", "0", "-t", "-2+t^2", "3t^-5+t"]:
        assert format_poly(parse_poly(text)) == text
    # non-canonical order still parses to the same polynomial
    assert parse_poly("t^2-2") == parse_poly("-2+t^2")


def test_parse_tolerates_star_and_space():
    assert parse_poly("3*t^-1 + 2t - 1") == LaurentPoly({-1: 3, 1: 2, 0: -1})


def test_parse_rejects_garbage():
    for bad in ["", "t^", "2x", "1++1", "t 2"]:
        with pytest.raises(DomainError):
            parse_poly(bad)


_REFERENCE_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*"
    r"(?:"
    r"(?P<coeff>\d+)\s*\*?\s*(?P<var_after_coeff>t(?:\^(?P<exp1>-?\d+))?)?"
    r"|(?P<var>t(?:\^(?P<exp2>-?\d+))?)"
    r")\s*"
)


def reference_parse_poly(text):
    """The parse_poly before the one term pattern: two named-group branches
    for a term with and without digits, and no span check."""
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial text")
    pos = 0
    terms = []
    while pos < len(s):
        m = _REFERENCE_TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise DomainError(f"cannot parse polynomial text {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and terms:
            raise DomainError(f"missing +/- between terms in {text!r}")
        coeff_txt = m.group("coeff")
        var = m.group("var_after_coeff") or m.group("var")
        if coeff_txt is None and var is None:
            raise DomainError(f"cannot parse polynomial text {text!r} at position {pos}")
        coeff = int(coeff_txt) if coeff_txt is not None else 1
        exp_txt = m.group("exp1") or m.group("exp2")
        if var is None:
            exponent = 0
        elif exp_txt is None:
            exponent = 1
        else:
            exponent = int(exp_txt)
        terms.append((exponent, -coeff if sign == "-" else coeff))
        pos = m.end()
    return LaurentPoly(terms)


def parse_outcome(parse, text):
    """The polynomial parse(text) returns, or the text of the DomainError it raises."""
    try:
        return parse(text)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="t^+-*0123456789 \t", max_size=13))
@example("3*")
@example("*t")
@example("t 2")
@example("1++1")
@example("+ -t")
@example("t^")
@example("2t^29552453-7")
@example(" -12 * t^-3 +t\t- 4")
def test_parse_matches_the_two_branch_reference(text):
    """Equal polynomials or equal error texts; the reference has no span
    check, so where its polynomial is wider than the guard, parse_poly gives
    the guard's refusal instead."""
    expected = parse_outcome(reference_parse_poly, text)
    if isinstance(expected, LaurentPoly) and expected.terms:
        span = expected.degree() - expected.valuation()
        if span > materialization_limit():
            expected = str(guard_error(f"polynomial span {span}"))
    assert parse_outcome(parse_poly, text) == expected


def test_parse_refuses_a_span_above_the_guard(monkeypatch):
    monkeypatch.delenv("GORDIAN_MAX_P", raising=False)
    with pytest.raises(MaterializationLimitError, match="polynomial span 20000000 exceeds .*GORDIAN_MAX_P"):
        parse_poly("t^-10000000+t^10000000-1")
    # the span is that of the parsed polynomial, after equal exponents are summed
    assert parse_poly("t^10000000-t^10000000+1") == ONE
    monkeypatch.setenv("GORDIAN_MAX_P", "10")
    assert parse_poly("t^-5+t^5-1").terms == ((-5, 1), (0, -1), (5, 1))
    with pytest.raises(MaterializationLimitError, match="polynomial span 11 "):
        parse_poly("t^-5+t^6-1")


def test_text_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        d = LaurentPoly({rng.randrange(-8, 9): rng.randrange(-9, 10) for _ in range(rng.randrange(6))})
        assert parse_poly(format_poly(d)) == d


def test_coefficient_tuples_render_highest_power_first():
    assert format_poly((-1, 3, -1), "x") == "-x^2+3x-1"
    assert format_poly((0, 2, 0, -1), "x") == "-x^3+2x"
    assert format_poly((), "x") == format_poly((0, 0), "x") == "0"
    rng = random.Random(11)
    for _ in range(100):
        q = tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(8)))
        assert parse_poly(format_poly(q)) == LaurentPoly(enumerate(q))


# ---------------------------------------------------------------------------
# is_normalized

def test_is_normalized_examples():
    assert is_normalized(ONE)
    assert is_normalized(FIG3)
    assert FIG3(1) == 1
    assert not is_normalized(parse_poly("t-1"))


# ---------------------------------------------------------------------------
# torus polynomials

def test_torus_poly_matches_long_division():
    for p in (3, 5, 7, 9, 21, 105):
        assert as_dict(torus_poly(p)) == torus_oracle(p)


def test_torus_poly_examples():
    assert torus_poly(3) == parse_poly("t^-1-1+t")
    assert torus_poly(5) == parse_poly("t^-2-t^-1+1-t+t^2")


def test_torus_poly_normalized_span_alternating():
    for p in (3, 5, 13, 15, 105):
        d = torus_poly(p)
        assert is_normalized(d)
        assert d(1) == 1
        h = (p - 1) // 2
        assert d.valuation() == -h and d.degree() == h
        coeffs = [d.coeff(e) for e in range(-h, h + 1)]
        assert all(abs(c) == 1 for c in coeffs)
        assert all(coeffs[i] == -coeffs[i + 1] for i in range(len(coeffs) - 1))


def test_torus_poly_rejects_bad_p():
    for bad in (4, 1, -3, 0):
        with pytest.raises(DomainError):
            torus_poly(bad)


# ---------------------------------------------------------------------------
# basis conversions

def test_to_basis_examples():
    assert to_basis(ONE) == ()
    assert to_basis(FIG3) == (-1, 1)
    assert to_basis(torus_poly(3)) == (-1,)


def test_from_basis_examples():
    assert from_basis(()) == ONE
    assert from_basis((-1, 1)) == FIG3
    assert from_basis((1,)) == parse_poly("-t^-1+3-t")


def test_from_basis_matches_expansion_oracle():
    rng = random.Random(11)
    for _ in range(100):
        a = [rng.randrange(-10, 11) for _ in range(rng.randrange(8))]
        assert as_dict(from_basis(a)) == expand_basis_oracle(a)


def test_to_basis_rejects_non_normalized():
    with pytest.raises(DomainError):
        to_basis(parse_poly("t-1"))
    with pytest.raises(DomainError):
        to_basis(LaurentPoly({0: 2}))


def test_basis_round_trips():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(51)
        a = [rng.randrange(-10, 11) for _ in range(n)]
        while a and a[-1] == 0:
            a.pop()
        d = from_basis(a)
        assert d.degree() is None or abs(d.degree()) <= 50
        assert to_basis(d) == tuple(a)
        assert from_basis(to_basis(d)) == d
        assert is_normalized(d)


def basis_element(i: int) -> LaurentPoly:
    """(t^i + t^-i)(2 - t - 1/t) for i >= 1, and 2 - t - 1/t for i = 0."""
    if i < 0:
        raise ValueError("basis index must be nonnegative")
    kernel = LaurentPoly({0: 2, 1: -1, -1: -1})
    if i == 0:
        return kernel
    return LaurentPoly({i: 1, -i: 1}) * kernel


def reference_from_basis(a):
    """The from_basis before the one-pass coefficient formula: a sum of
    LaurentPoly products, one basis element at a time."""
    out = ONE
    for i, ai in enumerate(a):
        if ai:
            out = out + basis_element(i) * ai
    return out


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=40))
@example([])
@example([0])
@example([3])
@example([0, 0, -2])
def test_from_basis_matches_the_product_reference(a):
    assert from_basis(a) == reference_from_basis(a)


def reference_to_basis(d):
    """Elimination from the top exponent down, the to_basis before the
    three-term recurrence: B_i is the only basis element reaching t^(i+1)."""
    assert is_normalized(d)
    coeffs = {}
    r = d - ONE
    while not r.is_zero():
        n = r.degree()
        assert n >= 1
        coeffs[n - 1] = -r.coeff(n)
        r = r - basis_element(n - 1) * coeffs[n - 1]
    if not coeffs:
        return ()
    return tuple(sturm.trim([coeffs.get(i, 0) for i in range(max(coeffs) + 1)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=40))
def test_to_basis_matches_the_elimination_reference(a):
    d = from_basis(a)
    assert to_basis(d) == reference_to_basis(d)


@st.composite
def wide_sparse_normalized(draw):
    """Symmetric polynomials with a few exponents up to 300 and the constant
    fixed so that d(1) = 1."""
    half = draw(st.dictionaries(st.integers(1, 300), st.integers(-5, 5).filter(bool), max_size=4))
    terms = {0: 1 - 2 * sum(half.values())}
    for e, c in half.items():
        terms[e] = terms[-e] = c
    return LaurentPoly(terms)


@settings(max_examples=100, deadline=None)
@given(wide_sparse_normalized())
@example(parse_poly("t^-300+t^300-1"))
def test_to_basis_matches_the_elimination_reference_on_wide_sparse_polynomials(d):
    assert to_basis(d) == reference_to_basis(d)
    assert from_basis(to_basis(d)) == d


# ---------------------------------------------------------------------------
# linking form and symmetrization

def test_linking_form_examples():
    assert linking_form(()) == HalfLaurent({0: Fraction(1, 2)})
    assert linking_form((1,)) == HalfLaurent({0: Fraction(3, 2), 1: Fraction(-1)})
    assert linking_form((0, 1)) == HalfLaurent(
        {0: Fraction(-1, 2), 1: Fraction(1), -1: Fraction(1), 2: Fraction(-1)}
    )


def test_symmetrize_examples():
    assert symmetrize(HalfLaurent({0: Fraction(1, 2)})) == ONE
    assert symmetrize(linking_form((-1, 1))) == FIG3
    assert symmetrize(HalfLaurent({0: Fraction(3, 2), 1: Fraction(-1)})) == parse_poly("3-t-t^-1")


def test_symmetrize_rejects_non_integral():
    with pytest.raises(DomainError):
        symmetrize(HalfLaurent({1: Fraction(1, 2)}))


def test_symmetrized_linking_form_is_basis_expansion():
    rng = random.Random(17)
    for _ in range(300):
        a = [rng.randrange(-10, 11) for _ in range(rng.randrange(10))]
        assert symmetrize(linking_form(a)) == from_basis(a)


def reference_linking_form(a):
    """The accumulating linking_form before it summed through HalfLaurent."""
    acc = {0: Fraction(1, 2)}

    def add(e, c):
        acc[e] = acc.get(e, Fraction(0)) + c

    for i, ai in enumerate(a):
        if not ai:
            continue
        if i == 0:
            add(0, Fraction(ai))
            add(1, Fraction(-ai))
        else:
            add(i, Fraction(ai))
            add(-i, Fraction(ai))
            add(i + 1, Fraction(-ai))
            add(1 - i, Fraction(-ai))
    return HalfLaurent(acc)


def reference_symmetrize(f):
    """The accumulating symmetrize, returning None where it raised DomainError."""
    acc = {}
    for e, c in f.terms:
        acc[e] = acc.get(e, Fraction(0)) + c
        acc[-e] = acc.get(-e, Fraction(0)) + c
    if any(c.denominator != 1 for c in acc.values()):
        return None
    return LaurentPoly({e: int(c) for e, c in acc.items()})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10, 10), max_size=12))
def test_linking_form_matches_the_accumulating_reference(a):
    assert linking_form(a) == reference_linking_form(a)


half_laurents = st.dictionaries(
    st.integers(-8, 8), st.integers(-12, 12).map(lambda n: Fraction(n, 2)), max_size=8
).map(HalfLaurent)


@settings(max_examples=300, deadline=None)
@given(half_laurents)
@example(HalfLaurent({1: Fraction(1, 2)}))
@example(HalfLaurent({1: Fraction(1, 2), -1: Fraction(1, 2)}))
def test_symmetrize_matches_the_accumulating_reference(f):
    expected = reference_symmetrize(f)
    if expected is None:
        with pytest.raises(DomainError, match="non-integer coefficient"):
            symmetrize(f)
    else:
        assert symmetrize(f) == expected


def test_half_laurent_rejects_other_denominators():
    with pytest.raises(DomainError):
        HalfLaurent({0: Fraction(1, 3)})


# ---------------------------------------------------------------------------
# chebyshev form

def test_to_chebyshev_examples():
    assert to_chebyshev(torus_poly(3)) == (-1, 1)
    assert to_chebyshev(FIG3) == (-1, 3, -1)
    assert to_chebyshev(ONE) == (1,)


def test_to_chebyshev_rejects_asymmetric():
    with pytest.raises(DomainError):
        to_chebyshev(parse_poly("t-1"))


def _iv_eval(coeffs, x):
    acc = iv.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_chebyshev_agrees_with_cosine_series():
    """Q(2 cos s) must equal c_0 + 2 sum c_i cos(i s); checked with certified
    interval enclosures at random rational turns."""
    iv.dps = 40
    rng = random.Random(19)
    for _ in range(100):
        a = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))]
        d = from_basis(a)
        q = to_chebyshev(d)
        num, den = rng.randrange(0, 64), 64
        s = 2 * iv.pi * num / den
        lhs = _iv_eval(q, 2 * iv.cos(s))
        rhs = iv.mpf(d.coeff(0))
        top = d.degree() or 0
        for i in range(1, top + 1):
            rhs += 2 * d.coeff(i) * iv.cos(i * s)
        assert lhs.a <= rhs.b and rhs.a <= lhs.b, (str(d), num, den)


# ---------------------------------------------------------------------------
# torus factor detection

def test_torus_factorization_products():
    rng = random.Random(23)
    pool = [3, 5, 7, 9, 15, 21, 45]
    for _ in range(40):
        ps = sorted(rng.choices(pool, k=rng.randrange(1, 4)))
        d = ONE
        for p in ps:
            d = d * torus_poly(p)
        assert torus_factorization(d) == tuple(ps)


def test_torus_factorization_rejects_non_products():
    assert torus_factorization(FIG3) is None
    assert torus_factorization(parse_poly("t-1")) is None
    assert torus_factorization(ONE) == ()
