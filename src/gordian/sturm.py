"""Dense univariate polynomial helpers and Sturm-sequence root isolation.

Polynomials are tuples of coefficients in ascending degree order with the
leading coefficient nonzero; () is the zero polynomial.  All arithmetic is
exact, and sign tests, bisection and division are integer-only: sign_at
takes a point as numerator and positive denominator, and reads the constant
term at 0; split_point, isolate_ends and refine_ends bisect on integer pairs
in lowest terms, at midpoints unless f vanishes there, and isolate_roots and
refine_root are their Fraction forms; scaled_rem builds each entry of the
signed remainder sequence, for sturm_chain and pgcd alike; divmod_int_exact
serves every exact division.  peval and pdivmod are the Fraction evaluation and
division that the integer kernels are tested against; nothing in the
package calls them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntPoly = tuple[int, ...]
Rat = Fraction
Ends = tuple[int, int, int, int, int]


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


def sign_at(f: Sequence[int], n: int, d: int) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial f at n/d, for d > 0.

    This is the sign of d^deg * f(n/d), accumulated by Horner's rule as
    acc*n + c*d^k, so no Fraction is built and n/d need not be reduced; at
    n = 0 it is the sign of the constant term.
    """
    if not f:
        return 0
    if not n:
        return (f[0] > 0) - (f[0] < 0)
    acc, dk = f[-1], 1
    for c in reversed(f[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def psign(f: Sequence[int], x) -> int:
    """Sign (-1, 0 or 1) of the integer polynomial f at the rational x."""
    return sign_at(f, x.numerator, x.denominator)


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
    """Integer divmod for a divisor g whose leading coefficient divides every
    quotient step, as it does for monic g or when g divides f over Z.

    One descending pass of synthetic division: the coefficient of degree
    k + deg g, divided by lc(g), is the quotient coefficient at k once the
    higher steps have run, and the remainder is what is left below deg g.
    Raises ValueError on a step that lc(g) does not divide.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead = g[-1]
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * max(len(f) - dg, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    raise ValueError("inexact integer division step")
            quo[k] = c
            for j in range(dg):
                rem[k + j] -= c * g[j]
    return trim(quo), trim(rem[:dg])


def primitive(f: Sequence[int]) -> IntPoly:
    """Divide the integer polynomial f by the positive gcd of its coefficients."""
    f = trim(f)
    g = gcd(*f)
    return f if g == 1 else tuple(c // g for c in f)


def scaled_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """The entry after f and g (trimmed, g nonzero) of the signed remainder
    sequence: primitive(-rem(f, g)), in one integer pass.  g takes the sign
    of lc(g) once; each step pops the leading term and rescales the rest by
    lc(g) > 0, a scale that dividing by the content removes while the
    negated tuple is built."""
    if g[-1] < 0:
        g = tuple(-c for c in g)
    lc, dg = g[-1], len(g) - 1
    r = list(f)
    while len(r) > dg:
        lead = r.pop()
        if lc != 1:
            r = [lc * c for c in r]
        k = len(r) - dg
        for j in range(dg):
            r[k + j] -= lead * g[j]
        while r and r[-1] == 0:
            r.pop()
    c = gcd(*r)
    return tuple(x // -c for x in r)


def pgcd(f: Sequence, g: Sequence) -> IntPoly:
    """Primitive greatest common divisor with positive leading coefficient."""
    a, b = primitive(f), primitive(g)
    while b:
        a, b = b, scaled_rem(a, b)
    if not a:
        return ()
    return a if a[-1] > 0 else pneg(a)


def square_free_chain(f: Sequence[int]) -> tuple[IntPoly, list[IntPoly]]:
    """primitive(f) divided by gcd(f, f'), and the Sturm chain of that quotient.

    sturm_chain(f) ends at +-gcd(f, f') (Basu, Pollack & Roy, Algorithms in
    Real Algebraic Geometry, ch. 2): a constant exactly when f is square-free,
    and then it is the chain; only a repeated factor costs a second sequence.
    By Gauss's lemma the division of primitive polynomials is exact over Z.
    """
    chain = sturm_chain(f)
    g = chain[-1]
    if degree(g) <= 0:
        return chain[0], chain
    quo, rem = divmod_int_exact(chain[0], g if g[-1] > 0 else pneg(g))
    assert not rem
    return quo, sturm_chain(quo)


def square_free_part(f: Sequence[int]) -> IntPoly:
    """primitive(f) divided by gcd(f, f')."""
    return square_free_chain(f)[0]


def sturm_chain(f: Sequence) -> list[IntPoly]:
    """Sturm sequence of a square-free polynomial, each entry primitive; for
    any f, the signed remainder sequence of (f, f') down to +-gcd(f, f')."""
    chain = [primitive(f)]
    d = primitive(pderiv(chain[0]))
    if d:
        chain.append(d)
    while degree(chain[-1]) > 0:
        r = scaled_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
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


def _midpoint(a: int, ad: int, b: int, bd: int) -> tuple[int, int]:
    """The midpoint of a/ad and b/bd (ad, bd > 0) in lowest terms."""
    n, d = a * bd + b * ad, 2 * ad * bd
    g = gcd(n, d)
    return n // g, d // g


def _split_offsets():
    """Offsets num/den in (0, 1) for split_point to try after the midpoint:
    1/den for small den, then the odd multiples of 1/32, 1/64, ...; f
    vanishes at finitely many."""
    for den in (3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23):
        yield 1, den
    den = 32
    while True:
        for num in range(1, den, 2):
            yield num, den
        den *= 2


def split_point(f: Sequence[int], a: int, ad: int, b: int, bd: int) -> tuple[int, int, int]:
    """A point m/md strictly between a/ad and b/bd (ad, bd > 0, a/ad < b/bd)
    where f does not vanish, in lowest terms, and the sign of f there:
    (m, md, s) with s = sign_at(f, m, md), never 0: the midpoint, unless f
    vanishes there and the offsets of _split_offsets are walked from a/ad."""
    m, md = _midpoint(a, ad, b, bd)
    s = sign_at(f, m, md)
    if s:
        return m, md, s
    lo, width, den0 = a * bd, b * ad - a * bd, ad * bd
    for num, den in _split_offsets():
        m, md = lo * den + width * num, den0 * den
        g = gcd(m, md)
        m, md = m // g, md // g
        s = sign_at(f, m, md)
        if s != 0:
            return m, md, s


def isolate_ends(chain: list[IntPoly], lo: Rat, hi: Rat) -> list[Ends]:
    """Ascending disjoint open intervals (a, ad, b, bd, s), each containing
    exactly one root in (lo, hi) of the square-free polynomial chain[0], given
    its Sturm chain (see square_free_chain): a/ad and b/bd in lowest terms and
    never roots, s the sign of chain[0] at a/ad.

    Each stack entry carries the sign variations at both of its ends, so a
    split point is evaluated once although it bounds two intervals, and
    split_point's sign stands in for chain[0] there, also as the low-end sign
    of the upper half, which is popped first: the intervals come out descending.
    """
    ends = [(x.numerator, x.denominator) for x in (lo, hi)]
    end_signs = [[sign_at(p, n, d) for p in chain] for n, d in ends]
    if end_signs[0][0] == 0 or end_signs[1][0] == 0:
        raise ValueError("isolation endpoints must not be roots")
    f, rest = chain[0], chain[1:]
    out: list[Ends] = []
    stack = [(*ends[0], *ends[1], end_signs[0][0], *map(sign_variations, end_signs))]
    while stack:
        a, ad, b, bd, sa, va, vb = stack.pop()
        roots = va - vb
        if roots == 0:
            continue
        if roots == 1:
            out.append((a, ad, b, bd, sa))
            continue
        m, md, sm = split_point(f, a, ad, b, bd)
        vm = sign_variations([sm] + [sign_at(p, m, md) for p in rest])
        stack.append((a, ad, m, md, sa, va, vm))
        stack.append((m, md, b, bd, sm, vm, vb))
    out.reverse()
    return out


def isolate_roots(chain: list[IntPoly], lo: Rat, hi: Rat) -> list[tuple[Rat, Rat]]:
    """isolate_ends with each interval as a pair of Fractions."""
    return [(Fraction(a, ad), Fraction(b, bd)) for a, ad, b, bd, _ in isolate_ends(chain, lo, hi)]


def refine_ends(f: Sequence[int], a: int, ad: int, b: int, bd: int, slo: int, wn: int, wd: int) -> Ends:
    """Shrink an isolating interval (a, ad, b, bd, slo) of f, as isolate_ends
    gives it, by bisection until its width is at most wn/wd (wd > 0)."""
    while (b * ad - a * bd) * wd > wn * ad * bd:
        m, md, sm = split_point(f, a, ad, b, bd)
        if (slo > 0) != (sm > 0):
            b, bd = m, md
        else:
            a, ad, slo = m, md, sm
    return a, ad, b, bd, slo


def refine_root(f: Sequence, lo: Rat, hi: Rat, width: Rat) -> tuple[Rat, Rat]:
    """Shrink an isolating interval of f below the requested width by bisection."""
    a, ad, b, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    a, ad, b, bd, _ = refine_ends(f, a, ad, b, bd, sign_at(f, a, ad), width.numerator, width.denominator)
    return Fraction(a, ad), Fraction(b, bd)
