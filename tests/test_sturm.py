import random
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gordian import sturm
from gordian.laurent import LaurentPoly, to_chebyshev

F = Fraction


def poly_from_roots(roots):
    """prod (den*x - num) over the rational roots, as an integer polynomial."""
    f = (1,)
    for r in roots:
        r = F(r)
        f = sturm.pmul(f, (-r.numerator, r.denominator))
    return f


def test_eval_and_derivative():
    f = (1, -2, 3)  # 3x^2 - 2x + 1
    assert sturm.peval(f, 2) == 9
    assert sturm.peval(f, F(1, 2)) == F(3, 4)
    assert sturm.pderiv(f) == (-2, 6)
    assert sturm.pderiv((5,)) == ()


def test_divmod_exact():
    f = poly_from_roots([1, -1, F(1, 2)])
    q, r = sturm.pdivmod(f, (-1, 1))
    assert not r
    assert q == poly_from_roots([-1, F(1, 2)])


def test_divmod_int_exact_monic():
    f = sturm.pmul((1, 1), (-2, 0, 1))
    q, r = sturm.divmod_int_exact(f, (1, 1))
    assert q == (-2, 0, 1) and not r
    q, r = sturm.divmod_int_exact((1, 0, 1), (1, 1))
    assert r  # x^2 + 1 is not divisible by x + 1


def test_gcd_and_square_free():
    f = sturm.pmul(poly_from_roots([1, 1]), poly_from_roots([-2]))
    g = sturm.pgcd(f, sturm.pderiv(f))
    assert sturm.degree(g) == 1 and sturm.peval(g, 1) == 0
    sf = sturm.square_free_part(f)
    assert sturm.degree(sf) == 2
    assert sturm.peval(sf, 1) == 0 and sturm.peval(sf, -2) == 0


def test_count_roots_known():
    f = poly_from_roots([F(-3, 2), F(1, 3), 1])
    chain = sturm.sturm_chain(f)
    assert sturm.count_roots(chain, F(-2), F(2)) == 3
    assert sturm.count_roots(chain, F(0), F(2)) == 2
    assert sturm.count_roots(chain, F(-2), F(0)) == 1
    with pytest.raises(ValueError):
        sturm.count_roots(chain, F(1), F(2))


def test_isolation_separates_random_rational_roots():
    rng = random.Random(37)
    for _ in range(60):
        k = rng.randrange(1, 5)
        roots = set()
        while len(roots) < k:
            roots.add(F(rng.randrange(-15, 16), rng.randrange(1, 9)))
        roots = sorted(roots)
        f = poly_from_roots(roots)
        lo, hi = min(roots) - 1, max(roots) + 1
        ivs = sturm.isolate_roots(sturm.sturm_chain(f), lo, hi)
        assert len(ivs) == len(roots)
        for (a, b), r in zip(ivs, roots):
            assert a < r < b
            assert (sturm.peval(f, a) > 0) != (sturm.peval(f, b) > 0)


def test_isolation_irrational_roots():
    f = (-2, 0, 1)  # x^2 - 2
    ivs = sturm.isolate_roots(sturm.sturm_chain(f), F(-2), F(2))
    assert len(ivs) == 2
    (a1, b1), (a2, b2) = ivs
    assert a1 < F(-141, 100) < F(-142, 101) < b1 or (a1 < F(-1414214, 10**6) < b1)
    assert sturm.peval(f, a2) < 0 < sturm.peval(f, b2)


def test_refine_root_narrows_and_keeps_root():
    f = (-2, 0, 1)
    ivs = sturm.isolate_roots(sturm.sturm_chain(f), F(0), F(2))
    lo, hi = sturm.refine_root(f, *ivs[0], F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert (sturm.peval(f, lo) > 0) != (sturm.peval(f, hi) > 0)
    # sqrt(2) = 1.41421356...
    assert lo < F(14142136, 10**7) and hi > F(14142135, 10**7)


def test_split_point_avoids_roots():
    f = poly_from_roots([F(1, 2)])
    n, d, s = sturm.split_point(f, 0, 1, 1, 1)
    x = F(n, d)
    assert F(0) < x < F(1) and sturm.peval(f, x) != 0
    assert s == sturm.psign(f, x)


def test_chain_of_degree_52_is_fast():
    from gordian.laurent import to_chebyshev, torus_poly

    q = to_chebyshev(torus_poly(105))
    chain = sturm.sturm_chain(q)
    assert sturm.count_roots(chain, F(-2), F(2)) == 52


def naive_fraction_chain(f):
    """Textbook Sturm chain over the rationals, as an oracle for the scaled
    integer remainder sequence."""
    chain = [tuple(F(c) for c in f)]
    d = sturm.pderiv(chain[0])
    if d:
        chain.append(d)
    while sturm.degree(chain[-1]) > 0:
        _, r = sturm.pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return chain


def test_scaled_chain_counts_match_fraction_oracle():
    rng = random.Random(79)
    for _ in range(60):
        deg = rng.randrange(2, 7)
        f = tuple(rng.randrange(-9, 10) for _ in range(deg)) + (rng.randrange(1, 10),)
        f = sturm.square_free_part(f)
        if sturm.degree(f) < 1:
            continue
        chain = sturm.sturm_chain(f)
        oracle = naive_fraction_chain(f)
        for _ in range(6):
            a = F(rng.randrange(-40, 40), rng.randrange(1, 8))
            b = a + F(rng.randrange(1, 60), rng.randrange(1, 8))
            if sturm.peval(f, a) == 0 or sturm.peval(f, b) == 0:
                continue
            assert sturm.count_roots(chain, a, b) == sturm.count_roots(oracle, a, b)


# ---------------------------------------------------------------------------
# the integer sign kernel against Fraction evaluation and sympy

int_polys = st.lists(st.integers(-60, 60), max_size=10).map(sturm.trim)
rationals = st.builds(F, st.integers(-80, 80), st.integers(1, 45))


def fraction_sign(f, x):
    v = sturm.peval(f, F(x))
    return (v > 0) - (v < 0)


@settings(max_examples=300, deadline=None)
@given(int_polys, st.one_of(rationals, st.integers(-80, 80)))
@example((), F(1, 3))
@example((), 0)
@example((5,), F(-7, 9))
def test_psign_matches_fraction_evaluation(f, x):
    assert sturm.psign(f, x) == fraction_sign(f, x)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4), int_polys.filter(bool))
def test_psign_is_zero_at_roots(roots, cofactor):
    f = sturm.pmul(poly_from_roots(roots), cofactor)
    for r in roots:
        assert sturm.psign(f, r) == 0 == sturm.peval(f, r)
        assert sturm.psign(f, r + F(1, 10**9)) == fraction_sign(f, r + F(1, 10**9))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=8),
    st.lists(st.builds(F, st.integers(-39, 39), st.integers(1, 20)).filter(lambda r: -2 < r < 2), max_size=5),
)
def test_count_roots_matches_sympy(cofactor, roots):
    x = sympy.Symbol("x")
    f = sturm.square_free_part(sturm.pmul(sturm.trim(cofactor) or (1,), poly_from_roots(roots)))
    assume(sturm.degree(f) >= 1 and sturm.psign(f, -2) != 0 and sturm.psign(f, 2) != 0)
    expected = sympy.Poly(list(reversed(f)), x).count_roots(-2, 2)
    assert sturm.count_roots(sturm.sturm_chain(f), F(-2), F(2)) == expected


def reference_divmod_int_exact(f, g):
    """The division that trimmed the remainder on every quotient step."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    dg = len(g) - 1
    while len(sturm.trim(rem)) - 1 >= dg:
        rem = list(sturm.trim(rem))
        k = len(rem) - 1 - dg
        c = rem[-1]
        quo[k] = c
        for j, b in enumerate(g):
            rem[k + j] -= c * b
    return sturm.trim(quo), sturm.trim(rem)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-60, 60), max_size=12),
    st.lists(st.integers(-9, 9), max_size=6).map(lambda low: tuple(low) + (1,)),
    int_polys,
)
@example([], (1,), ())
@example([0, 0, 0], (2, 1), ())
@example([5], (0, 0, 1), ())
def test_divmod_int_exact_matches_trim_per_step_division(f, g, cofactor):
    # f as drawn (trailing zeros allowed) and a multiple of g plus f.
    for dividend in (f, sturm.trim([a + b for a, b in zip_longest(sturm.pmul(g, cofactor), f, fillvalue=0)])):
        assert sturm.divmod_int_exact(dividend, g) == reference_divmod_int_exact(dividend, g)
    if cofactor:
        assert sturm.divmod_int_exact(sturm.pmul(g, cofactor), g) == (cofactor, ())


primitive_non_monic = (
    st.lists(st.integers(-9, 9), max_size=6)
    .flatmap(lambda low: st.sampled_from([-6, -3, -2, 2, 4, 5]).map(lambda lead: tuple(low) + (lead,)))
    .filter(lambda g: sturm.primitive(g) == g)
)


@settings(max_examples=300, deadline=None)
@given(primitive_non_monic, int_polys)
@example((1, 2), ())
@example((3, 0, -2), (0, 5))
def test_divmod_int_exact_divides_by_non_monic_factor(g, h):
    assert sturm.divmod_int_exact(sturm.pmul(g, h), g) == (h, ())
    if h:
        # Raising the leading coefficient by one leaves a top step that
        # lc(g) does not divide.
        f = list(sturm.pmul(g, h))
        f[-1] += 1
        with pytest.raises(ValueError):
            sturm.divmod_int_exact(f, g)


def test_divmod_int_exact_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        sturm.divmod_int_exact((1, 2), ())


# ---------------------------------------------------------------------------
# isolation with one chain evaluation per point, against the isolation that
# counted roots afresh on both sides of every split


def reference_isolate_roots(f, lo, hi):
    """The isolation that called count_roots at every split, evaluating the
    chain at the left end of each interval again."""
    f = sturm.primitive(f)
    lo, hi = F(lo), F(hi)
    if sturm.psign(f, lo) == 0 or sturm.psign(f, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm.sturm_chain(f)
    out = []
    stack = [(lo, hi, sturm.count_roots(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m, _ = reference_split_point(f, a, b)
        n_left = sturm.count_roots(chain, a, m)
        stack.append((a, m, n_left))
        stack.append((m, b, n - n_left))
    out.sort()
    return out


def root_bound(f):
    """An integer above |x| for every real root x of f (Cauchy's bound)."""
    return 2 + max(abs(c) for c in f[:-1]) // abs(f[-1])


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=13).map(sturm.trim),
    st.lists(rationals, max_size=4),
    st.one_of(st.none(), st.tuples(rationals, rationals)),
)
@example([-2, 0, 1], [], None)
@example([1, 1], [F(1, 2), F(-1, 2)], (F(-3, 4), F(3, 4)))
def test_isolation_matches_count_roots_at_every_split(cofactor, roots, window):
    # Square-free, degree <= 12, with some rational roots planted.
    f = sturm.square_free_part(sturm.pmul(cofactor or (1,), poly_from_roots(roots)))
    assume(1 <= sturm.degree(f) <= 12)
    if window is None:
        b = root_bound(f)
        lo, hi = F(-b), F(b)
    else:
        lo, hi = sorted(window)
        assume(lo < hi)
    assume(sturm.psign(f, lo) != 0 and sturm.psign(f, hi) != 0)
    assert sturm.isolate_roots(sturm.sturm_chain(f), lo, hi) == reference_isolate_roots(f, lo, hi)


def cos_interior_poly(n):
    """Square-free integer polynomial whose roots are 2 cos(2 pi j / n) for
    the interior indices 0 < j < n/2 (the values in (-2, 2)).

    Obtained by rewriting the cyclotomic-style products (t^n - 1)/(t - 1)
    (odd n) and (t^n - 1)/(t^2 - 1) (even n) in the x = t + 1/t coordinate;
    the comparison of a circle root with a rational turn isolated the roots
    of this polynomial before it used enclosures of the cosine.
    """
    if n < 3:
        return (1,)
    if n % 2:
        h = (n - 1) // 2
        sym = LaurentPoly({j: 1 for j in range(-h, h + 1)})
    else:
        k = n // 2
        sym = LaurentPoly({2 * i - (k - 1): 1 for i in range(k)})
    return to_chebyshev(sym)


@pytest.mark.parametrize("n", [7, 12, 30, 45])
def test_isolation_of_cosine_polynomials_matches_reference(n):
    poly = cos_interior_poly(n)
    ivs = sturm.isolate_roots(sturm.sturm_chain(poly), F(-2), F(2))
    assert len(ivs) == (n - 1) // 2
    assert ivs == reference_isolate_roots(poly, F(-2), F(2))


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    chains, calls = [], []
    real_chain, real_sign_at = sturm.sturm_chain, sturm.sign_at

    def counting_chain(f):
        chains.append(real_chain(f))
        return chains[-1]

    def counting_sign_at(f, n, d):
        s = real_sign_at(f, n, d)
        calls.append((tuple(f), F(n, d), s))
        return s

    monkeypatch.setattr(sturm, "sturm_chain", counting_chain)
    monkeypatch.setattr(sturm, "sign_at", counting_sign_at)
    f = poly_from_roots([F(k, 7) for k in range(-6, 7)])
    ivs = sturm.isolate_roots(sturm.sturm_chain(f), F(-2), F(2))
    assert len(ivs) == 13 and len(chains) == 1
    chain = chains[0]
    assert len(chain) == 14
    evaluated = Counter(x for q, x, _ in calls if q == chain[1])
    assert set(evaluated.values()) == {1}
    assert {x for iv in ivs for x in iv} <= set(evaluated)
    for p in chain[2:]:
        assert Counter(x for q, x, _ in calls if q == p) == evaluated
    # f itself is also tested at the candidates split_point rejects, the
    # roots of f; every other point is evaluated once, split points included.
    assert Counter(x for q, x, s in calls if q == chain[0] and s) == evaluated
    # The reference evaluates every left end of a split again.
    calls.clear()
    assert reference_isolate_roots(f, F(-2), F(2)) == ivs
    assert max(Counter(x for q, x, _ in calls if q == chain[1]).values()) > 1


# ---------------------------------------------------------------------------
# integer bisection and the one-sequence square-free part, against the
# Fraction bisection and the gcd-then-chain split they replaced


def reference_scaled_rem(f, g):
    """The remainder of f divided by g times an unspecified positive integer,
    rescaling by |lc(g)| and cancelling the leading term at each step."""
    lc = g[-1]
    alc = abs(lc)
    sgn = 1 if lc > 0 else -1
    r = list(sturm.trim(f))
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        lead = r[-1]
        if alc != 1:
            r = [alc * c for c in r]
        k = len(r) - 1 - dg
        slead = sgn * lead
        for j in range(dg):
            r[k + j] -= slead * g[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def reference_sturm_chain(f):
    """Sturm sequence of a square-free polynomial, each entry primitive."""
    chain = [sturm.primitive(f)]
    d = sturm.primitive(sturm.pderiv(chain[0]))
    if d:
        chain.append(d)
    while sturm.degree(chain[-1]) > 0:
        r = sturm.primitive(reference_scaled_rem(chain[-2], chain[-1]))
        if not r:
            break
        chain.append(sturm.pneg(r))
    return chain


def reference_square_free_part(f):
    """primitive(f) divided by the gcd of a separate pgcd(f, f') run."""
    f = sturm.primitive(f)
    if sturm.degree(f) <= 0:
        return f
    g = sturm.pgcd(f, sturm.pderiv(f))
    if sturm.degree(g) == 0:
        return f
    quo, rem = sturm.divmod_int_exact(f, g)
    assert not rem
    return quo


def reference_split_point(f, lo, hi):
    """split_point over Fraction: the point and the sign of f there."""
    width = hi - lo
    for den in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23):
        x = lo + width / den
        s = sturm.psign(f, x)
        if s != 0:
            return x, s
    den = 32
    while True:
        for num in range(1, den, 2):
            x = lo + width * F(num, den)
            s = sturm.psign(f, x)
            if s != 0:
                return x, s
        den *= 2


def reference_fraction_isolate_roots(f, lo, hi):
    """isolate_roots over Fraction, building the chain of f itself."""
    chain = reference_sturm_chain(f)
    lo, hi = F(lo), F(hi)
    end_signs = [[sturm.psign(p, x) for p in chain] for x in (lo, hi)]
    if end_signs[0][0] == 0 or end_signs[1][0] == 0:
        raise ValueError("isolation endpoints must not be roots")
    f, rest = chain[0], chain[1:]
    out = []
    stack = [(lo, hi, *map(sturm.sign_variations, end_signs))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m, sm = reference_split_point(f, a, b)
        vm = sturm.sign_variations([sm] + [sturm.psign(p, m) for p in rest])
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort()
    return out


def reference_refine_root(f, lo, hi, width):
    """refine_root over Fraction."""
    slo = sturm.psign(f, lo)
    while hi - lo > width:
        m, sm = reference_split_point(f, lo, hi)
        if (slo > 0) != (sm > 0):
            hi = m
        else:
            lo, slo = m, sm
    return lo, hi


# Roots at the points bisection of (-2, 2) tries first, so that split_point
# falls back to the later offsets, and roots anywhere else.
DYADIC = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(-3, 2)]
planted_roots = st.lists(st.one_of(st.sampled_from(DYADIC), rationals), max_size=6)
# f vanishes at the first twelve offsets of (0, 1) and at 1/32, so splitting
# (0, 1) reaches the odd multiples of 1/32.
FIRST_OFFSET_ROOTS = [F(1, den) for den in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23, 32)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(sturm.trim),
    planted_roots,
    st.one_of(st.none(), st.tuples(rationals, rationals)),
    st.integers(1, 2**20),
)
@example([1], DYADIC, None, 1000)
@example([1], [F(1, 3), F(2, 3), F(-2, 3)], (F(-2), F(2)), 3**10)
@example([1], FIRST_OFFSET_ROOTS, (F(0), F(1)), 7)
def test_integer_bisection_matches_fraction_bisection(cofactor, roots, window, precision):
    f = sturm.square_free_part(sturm.pmul(cofactor or (1,), poly_from_roots(roots)))
    assume(sturm.degree(f) >= 1)
    if window is None:
        b = root_bound(f)
        lo, hi = F(-b), F(b)
    else:
        lo, hi = sorted(window)
        assume(lo < hi)
    assume(sturm.psign(f, lo) != 0 and sturm.psign(f, hi) != 0)
    ivs = sturm.isolate_roots(sturm.square_free_chain(f)[1], lo, hi)
    assert ivs == reference_fraction_isolate_roots(f, lo, hi)
    for a, b in [(lo, hi)] + ivs:
        m, md, s = sturm.split_point(f, a.numerator, a.denominator, b.numerator, b.denominator)
        assert (F(m, md), s) == reference_split_point(f, a, b)
        assert (F(m, md).numerator, F(m, md).denominator) == (m, md)
        width = (b - a) / precision
        assert sturm.refine_root(f, a, b, width) == reference_refine_root(f, a, b, width)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(sturm.trim),
    planted_roots,
    st.one_of(st.none(), st.tuples(rationals, rationals)),
    st.integers(1, 2**20),
)
@example([1], DYADIC, None, 1000)
@example([1], FIRST_OFFSET_ROOTS, (F(0), F(1)), 7)
def test_integer_ends_match_the_fraction_forms(cofactor, roots, window, precision):
    """isolate_ends and refine_ends give the intervals of isolate_roots and
    refine_root, and of the Fraction bisection, as integer pairs in lowest
    terms, each with f's sign at its low end."""
    f = sturm.square_free_part(sturm.pmul(cofactor or (1,), poly_from_roots(roots)))
    assume(sturm.degree(f) >= 1)
    if window is None:
        b = root_bound(f)
        lo, hi = F(-b), F(b)
    else:
        lo, hi = sorted(window)
        assume(lo < hi)
    assume(sturm.psign(f, lo) != 0 and sturm.psign(f, hi) != 0)
    chain = sturm.square_free_chain(f)[1]
    ends = sturm.isolate_ends(chain, lo, hi)
    ivs = [(F(a, ad), F(b, bd)) for a, ad, b, bd, _ in ends]
    assert ivs == sturm.isolate_roots(chain, lo, hi) == reference_fraction_isolate_roots(f, lo, hi)
    for (a, ad, b, bd, s), (x, y) in zip(ends, ivs):
        assert (x.numerator, x.denominator, y.numerator, y.denominator) == (a, ad, b, bd)
        assert s == sturm.psign(f, x) != 0
        width = (y - x) / precision
        ra, rad, rb, rbd, rs = sturm.refine_ends(f, a, ad, b, bd, s, width.numerator, width.denominator)
        refined = (F(ra, rad), F(rb, rbd))
        assert refined == sturm.refine_root(f, x, y, width) == reference_refine_root(f, x, y, width)
        assert (refined[0].numerator, refined[0].denominator, refined[1].numerator) == (ra, rad, rb)
        assert rs == sturm.psign(f, refined[0]) != 0


def test_split_point_reaches_the_odd_dyadic_offsets():
    f = poly_from_roots(FIRST_OFFSET_ROOTS)
    assert sturm.split_point(f, 0, 1, 1, 1) == (3, 32, sturm.psign(f, F(3, 32)))
    assert reference_split_point(f, F(0), F(1)) == (F(3, 32), sturm.psign(f, F(3, 32)))
    # An interval with unreduced ends and a root at its midpoint: the den-3 point.
    f = poly_from_roots([F(1, 2)])
    assert sturm.split_point(f, 2, 6, 4, 6) == (4, 9, sturm.psign(f, F(4, 9)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7).map(sturm.trim), planted_roots)
@example([1], [F(1, 2), F(1, 2)])
@example([0, 0, 3], [])
@example([4], [])
def test_square_free_chain_matches_gcd_then_chain(cofactor, roots):
    f = sturm.pmul(cofactor or (1,), poly_from_roots(roots))
    for g in (f, sturm.pmul(f, f), sturm.pmul(sturm.pmul(f, f), cofactor or (1,))):
        sf, chain = sturm.square_free_chain(g)
        assert sf == reference_square_free_part(g) == sturm.square_free_part(g)
        assert chain == reference_sturm_chain(sf)


# ---------------------------------------------------------------------------
# midpoint-first split points, the constant term at 0 and the one-pass
# signed remainder, against the kernels they replaced


def reference_sign_at(f, n, d):
    """sign_at running Horner's rule over every coefficient, also at n = 0."""
    if not f:
        return 0
    acc, dk = f[-1], 1
    for c in reversed(f[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def reference_split_offsets():
    """1/2, 1/3, ..., 1/23, then the odd multiples of 1/32, 1/64, ..."""
    for den in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23):
        yield 1, den
    den = 32
    while True:
        for num in range(1, den, 2):
            yield num, den
        den *= 2


def reference_int_split_point(f, a, ad, b, bd):
    """split_point walking the offsets from 1/2 on, each point built from
    a/ad and the width and reduced to lowest terms."""
    lo, width, den0 = a * bd, b * ad - a * bd, ad * bd
    for num, den in reference_split_offsets():
        m, md = lo * den + width * num, den0 * den
        g = gcd(m, md)
        s = reference_sign_at(f, m // g, md // g)
        if s:
            return m // g, md // g, s


def reference_primitive(f):
    """primitive with the gcd taken one coefficient at a time."""
    f = sturm.trim(f)
    g = 0
    for c in f:
        g = gcd(g, c)
        if g == 1:
            return f
    return tuple(c // g for c in f)


def reference_pgcd(f, g):
    """pgcd over the positive-scale remainder, made primitive each step."""
    a, b = reference_primitive(f), reference_primitive(g)
    while b:
        a, b = b, reference_primitive(reference_scaled_rem(a, b))
    if not a:
        return ()
    return a if a[-1] > 0 else sturm.pneg(a)


def reference_square_free_chain(f):
    """square_free_chain over reference_sturm_chain."""
    chain = reference_sturm_chain(f)
    g = chain[-1]
    if sturm.degree(g) <= 0:
        return chain[0], chain
    quo, rem = sturm.divmod_int_exact(chain[0], g if g[-1] > 0 else sturm.pneg(g))
    assert not rem
    return quo, reference_sturm_chain(quo)


@settings(max_examples=100, deadline=None)
@given(int_polys, st.integers(-60, 60), st.integers(1, 12))
@example((), 0, 1)
@example((0, 3), 0, 4)
@example((-5, 0, 1), 0, 7)
@example((2, -1), -6, 4)
def test_sign_at_matches_horner_at_every_point(f, n, d):
    """At 0, at negative points and at unreduced n/d, on the zero polynomial too."""
    assert sturm.sign_at(f, n, d) == reference_sign_at(f, n, d) == fraction_sign(f, F(n, d))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(sturm.trim),
    planted_roots,
    rationals,
    rationals,
    st.booleans(),
    st.integers(1, 4),
)
@example([1], [], F(0), F(1), True, 1)
@example([1], [], F(1, 3), F(2, 3), True, 2)
@example([1], FIRST_OFFSET_ROOTS, F(0), F(1), False, 1)
def test_split_point_matches_the_offset_walk(cofactor, roots, x, y, root_at_midpoint, scale):
    """A root planted at the midpoint sends both to the den-3 point, and the
    first offsets' roots to the odd multiples of 1/32; ends need not be reduced."""
    assume(x != y)
    lo, hi = sorted((x, y))
    f = sturm.pmul(cofactor or (1,), poly_from_roots(roots + [(lo + hi) / 2] * root_at_midpoint))
    ends = (lo.numerator * scale, lo.denominator * scale, hi.numerator * scale, hi.denominator * scale)
    assert sturm.split_point(f, *ends) == reference_int_split_point(f, *ends)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=5).map(sturm.trim),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-4, 4).filter(bool)), max_size=4),
    st.integers(1, 3),
    st.sampled_from([1, -1, 3, -6]),
)
@example([], [], 1, 1)
@example([7], [], 1, -1)
@example([], [(1, 2)], 1, -3)
@example([1, 0, 1], [(1, -1), (2, 3)], 3, -6)
def test_remainder_sequences_match_the_parent_kernels(cofactor, linear, power, scale):
    """Products with repeated linear factors, negative leading coefficients
    and constants; the zero polynomial when the cofactor is empty."""
    f = (scale,)
    for n, d in linear:
        for _ in range(power):
            f = sturm.pmul(f, (n, d))
    f = sturm.pmul(f, cofactor)
    df = sturm.pderiv(f)
    assert sturm.primitive(f) == reference_primitive(f) and sturm.primitive(df) == reference_primitive(df)
    assert sturm.sturm_chain(f) == reference_sturm_chain(f)
    assert sturm.square_free_chain(f) == reference_square_free_chain(f)
    for g in (df, cofactor, sturm.pmul(df, (scale,))):
        assert sturm.pgcd(f, g) == reference_pgcd(f, g)
