"""Dense univariate polynomial helpers and Sturm-sequence root isolation.

Polynomials are tuples of coefficients in ascending degree order with the
leading coefficient nonzero; () is the zero polynomial.  All arithmetic is
exact over the integers and rationals.  Sign tests, which are all that root
counting, splitting, isolation and refinement consult, are integer-only:
psign clears the denominator of the rational point instead of evaluating
over Fraction.  Division is integer-only too: divmod_int_exact serves every
caller.  peval and pdivmod are the Fraction evaluation and division that
the integer kernels are tested against; nothing in the package calls them.
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
    g = 0
    for c in f:
        g = gcd(g, c)
        if g == 1:
            return f
    return tuple(c // g for c in f)


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


def square_free_part(f: Sequence[int]) -> IntPoly:
    """primitive(f) divided by gcd(f, f').

    Both are primitive, so by Gauss's lemma the quotient is a primitive
    integer polynomial and the division is exact at every integer step.
    """
    f = primitive(f)
    if degree(f) <= 0:
        return f
    g = pgcd(f, pderiv(f))
    if degree(g) == 0:
        return f
    quo, rem = divmod_int_exact(f, g)
    assert not rem
    return quo


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


def split_point(f: Sequence, lo: Rat, hi: Rat) -> tuple[Rat, int]:
    """A point x strictly between lo and hi where f does not vanish, and the
    sign of f there (psign(f, x), never 0)."""
    width = hi - lo
    for den in (2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 19, 23):
        x = lo + width / den
        s = psign(f, x)
        if s != 0:
            return x, s
    # f has finitely many roots, so some dyadic point in the interval is free.
    den = 32
    while True:
        for num in range(1, den, 2):
            x = lo + width * Fraction(num, den)
            s = psign(f, x)
            if s != 0:
                return x, s
        den *= 2


def isolate_roots(f: Sequence, lo: Rat, hi: Rat) -> list[tuple[Rat, Rat]]:
    """Disjoint open rational intervals, each containing exactly one root of
    the square-free polynomial f in (lo, hi); endpoints are never roots.

    The Sturm chain is evaluated once per point for the length of the call:
    each stack entry carries the sign variations at both of its ends, so a
    split point is evaluated once although it bounds two intervals.  The
    chain starts with f, whose sign at a split point is the one split_point
    found, so only the rest of the chain is evaluated there.
    """
    chain = sturm_chain(f)
    lo, hi = Fraction(lo), Fraction(hi)
    end_signs = [[psign(p, x) for p in chain] for x in (lo, hi)]
    if end_signs[0][0] == 0 or end_signs[1][0] == 0:
        raise ValueError("isolation endpoints must not be roots")
    f, rest = chain[0], chain[1:]
    out: list[tuple[Rat, Rat]] = []
    stack = [(lo, hi, *map(sign_variations, end_signs))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m, sm = split_point(f, a, b)
        vm = sign_variations([sm] + [psign(p, m) for p in rest])
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort()
    return out


def refine_root(f: Sequence, lo: Rat, hi: Rat, width: Rat) -> tuple[Rat, Rat]:
    """Shrink an isolating interval of f below the requested width by bisection."""
    slo = psign(f, lo)
    while hi - lo > width:
        m, sm = split_point(f, lo, hi)
        if (slo > 0) != (sm > 0):
            hi = m
        else:
            lo, slo = m, sm
    return lo, hi
