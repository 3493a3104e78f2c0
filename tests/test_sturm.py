import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gordian import sturm

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
    assert sturm.primitive(q) == poly_from_roots([-1, F(1, 2)])


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
        ivs = sturm.isolate_roots(f, lo, hi)
        assert len(ivs) == len(roots)
        for (a, b), r in zip(ivs, roots):
            assert a < r < b
            assert (sturm.peval(f, a) > 0) != (sturm.peval(f, b) > 0)


def test_isolation_irrational_roots():
    f = (-2, 0, 1)  # x^2 - 2
    ivs = sturm.isolate_roots(f, F(-2), F(2))
    assert len(ivs) == 2
    (a1, b1), (a2, b2) = ivs
    assert a1 < F(-141, 100) < F(-142, 101) < b1 or (a1 < F(-1414214, 10**6) < b1)
    assert sturm.peval(f, a2) < 0 < sturm.peval(f, b2)


def test_refine_root_narrows_and_keeps_root():
    f = (-2, 0, 1)
    ivs = sturm.isolate_roots(f, F(0), F(2))
    lo, hi = sturm.refine_root(f, *ivs[0], F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert (sturm.peval(f, lo) > 0) != (sturm.peval(f, hi) > 0)
    # sqrt(2) = 1.41421356...
    assert lo < F(14142136, 10**7) and hi > F(14142135, 10**7)


def test_split_point_avoids_roots():
    f = poly_from_roots([F(1, 2)])
    x = sturm.split_point(f, F(0), F(1))
    assert F(0) < x < F(1) and sturm.peval(f, x) != 0


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
