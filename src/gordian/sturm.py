"""Dense univariate polynomial helpers and Sturm-sequence root isolation.

Polynomials are tuples of coefficients in ascending degree order with the
leading coefficient nonzero; () is the zero polynomial.  All arithmetic is
exact over the integers and rationals.  Sign tests, which are all that root
counting, splitting, isolation and refinement consult, are integer-only:
psign clears the denominator of the rational point instead of evaluating
over Fraction; peval is the Fraction evaluation it is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntPoly = tuple[int, ...]
Rat = Fraction


def trim(coeffs: Sequence) -> tuple:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def degree(f: Sequence) -> int:
    """Degree of f; the zero polynomial has degree -1."""
    return len(f) - 1


def peval(f: Sequence, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def psign(f: Sequence[int], x) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial f at the rational x.

    With x = n/d and d > 0 this is the sign of d^deg * f(n/d), accumulated
    by Horner's rule as acc*n + c*d^k, so no Fraction is built.
    """
    if not f:
        return 0
    n, d = x.numerator, x.denominator
    acc, dk = f[-1], 1
    for c in reversed(f[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def pderiv(f: Sequence) -> tuple:
    return tuple(i * c for i, c in enumerate(f))[1:] if len(f) > 1 else ()


def pneg(f: Sequence) -> tuple:
    return tuple(-c for c in f)


def pmul(f: Sequence, g: Sequence) -> tuple:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def pdivmod(f: Sequence, g: Sequence) -> tuple[tuple, tuple]:
    """Quotient and remainder over the rationals; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in f]
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    lead = Fraction(g[-1])
    dg = len(g) - 1
    while len(trim(rem)) - 1 >= dg:
        rem = list(trim(rem))
        k = len(rem) - 1 - dg
        c = rem[-1] / lead
        quo[k] = c
        for j, b in enumerate(g):
            rem[k + j] -= c * b
    return trim(quo), trim(rem)


def divmod_int_exact(f: Sequence[int], g: Sequence[int]) -> tuple[IntPoly, IntPoly]:
    """Integer divmod for monic g; remainder coefficients stay integral."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    dg = len(g) - 1
    while len(trim(rem)) - 1 >= dg:
        rem = list(trim(rem))
        k = len(rem) - 1 - dg
        c = rem[-1]
        quo[k] = c
        for j, b in enumerate(g):
            rem[k + j] -= c * b
    return trim(quo), trim(rem)


def primitive(f: Sequence) -> IntPoly:
    """Scale f by a positive rational so the coefficients become coprime integers."""
    f = trim(f)
    if not f:
        return ()
    if any(isinstance(c, Fraction) for c in f):
        denom = 1
        for c in f:
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in f]
    else:
        ints = list(f)
    g = 0
    for c in ints:
        g = gcd(g, c)
        if g == 1:
            return tuple(ints)
    return tuple(c // g for c in ints)


def scaled_rem(f: Sequence[int], g: Sequence[int]) -> IntPoly:
    """The remainder of f divided by g times an unspecified positive integer.

    Pure integer arithmetic: each elimination step rescales by |lc(g)|, which
    preserves signs, so gcds and Sturm chains built on it stay valid.
    """
    lc = g[-1]
    alc = abs(lc)
    sgn = 1 if lc > 0 else -1
    r = list(trim(f))
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


def pgcd(f: Sequence, g: Sequence) -> IntPoly:
    """Primitive greatest common divisor with positive leading coefficient."""
    a, b = primitive(f), primitive(g)
    while b:
        r = scaled_rem(a, b)
        a, b = b, primitive(r)
    if not a:
        return ()
    return a if a[-1] > 0 else pneg(a)


def square_free_part(f: Sequence) -> IntPoly:
    """f divided by gcd(f, f'), normalized to primitive integer coefficients."""
    f = primitive(f)
    if degree(f) <= 0:
        return f
    g = pgcd(f, pderiv(f))
    if degree(g) == 0:
        return f
    quo, rem = pdivmod(f, g)
    assert not rem
    return primitive(quo)


def sturm_chain(f: Sequence) -> list[IntPoly]:
    """Sturm sequence of a square-free polynomial, each entry primitive."""
    chain = [primitive(f)]
    d = primitive(pderiv(chain[0]))
    if d:
        chain.append(d)
    while degree(chain[-1]) > 0:
        r = primitive(scaled_rem(chain[-2], chain[-1]))
        if not r:
            break
        chain.append(pneg(r))
    return chain


def sign_variations(values: Sequence) -> int:
    count = 0
    prev = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def count_roots(chain: list[IntPoly], a, b) -> int:
    """Number of distinct roots in the open interval (a, b); endpoints must not be roots."""
    sa = [psign(p, a) for p in chain]
    sb = [psign(p, b) for p in chain]
    if sa[0] == 0 or sb[0] == 0:
        raise ValueError("interval endpoints must not be roots")
    return sign_variations(sa) - sign_variations(sb)


def split_point(f: Sequence, lo: Rat, hi: Rat) -> Rat:
    """A point strictly between lo and hi where f does not vanish."""
    width = hi - lo
    for den in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23):
        x = lo + width / den
        if psign(f, x) != 0:
            return x
    # f has finitely many roots, so some dyadic point in the interval is free.
    den = 32
    while True:
        for num in range(1, den, 2):
            x = lo + width * Fraction(num, den)
            if psign(f, x) != 0:
                return x
        den *= 2


def isolate_roots(f: Sequence, lo: Rat, hi: Rat) -> list[tuple[Rat, Rat]]:
    """Disjoint open rational intervals, each containing exactly one root of
    the square-free polynomial f in (lo, hi); endpoints are never roots."""
    f = primitive(f)
    lo, hi = Fraction(lo), Fraction(hi)
    if psign(f, lo) == 0 or psign(f, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    chain = sturm_chain(f)
    out: list[tuple[Rat, Rat]] = []
    stack = [(lo, hi, count_roots(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m = split_point(f, a, b)
        n_left = count_roots(chain, a, m)
        stack.append((a, m, n_left))
        stack.append((m, b, n - n_left))
    out.sort()
    return out


def refine_root(f: Sequence, lo: Rat, hi: Rat, width: Rat) -> tuple[Rat, Rat]:
    """Shrink an isolating interval of f below the requested width by bisection."""
    slo = psign(f, lo)
    while hi - lo > width:
        m = split_point(f, lo, hi)
        sm = psign(f, m)
        if (slo > 0) != (sm > 0):
            hi = m
        else:
            lo, slo = m, sm
    return lo, hi
