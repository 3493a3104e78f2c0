"""Exact sparse Laurent polynomials over the integers.

The central objects are polynomials d in Z[t, 1/t] that are symmetric under
t -> 1/t and take the value 1 at t = 1.  Every such polynomial has a unique
expansion

    d = 1 + a_0 (2 - t - 1/t) + sum_{i>=1} a_i (t^i + t^-i)(2 - t - 1/t)

and a half-integer refinement of it (the linking form) whose symmetrization
recovers d.  This module provides the polynomial arithmetic, the basis
conversions, the torus-knot family D_p, and the change of variable
x = t + 1/t used for root isolation on the unit circle.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from fractions import Fraction
from typing import Iterable, Mapping

from . import sturm
from .errors import DomainError
from .limits import describe, digit_limit_error, guard_error, materialization_limit

BasisCoeffs = tuple[int, ...]


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class LaurentPoly:
    """Integer Laurent polynomial stored sparsely as (exponent, coefficient) pairs.

    >>> LaurentPoly({-1: 1, 0: -1, 1: 1})
    LaurentPoly('t^-1-1+t')
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent {e!r} is not an integer")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an integer")
            acc[e] = acc.get(e, 0) + c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def coeff(self, e: int) -> int:
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self.terms[-1][0] if self.terms else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self.terms[0][0] if self.terms else None

    def involution(self) -> "LaurentPoly":
        """The image under t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.terms})

    def is_symmetric(self) -> bool:
        """True iff the image under t -> 1/t is self, compared term by term."""
        t = self.terms
        return all(e == -f and c == g for (e, c), (f, g) in zip(t, reversed(t)))

    def __add__(self, other):
        other = _coerce(other)
        return LaurentPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return LaurentPoly(list(self.terms) + [(e, -c) for e, c in other.terms])

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return LaurentPoly([(e, -c) for e, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly([(e, c * other) for e, c in self.terms])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not defined here")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Exact evaluation at a nonzero rational point."""
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        acc = Fraction(0)
        for e, c in self.terms:
            acc += c * Fraction(x) ** e
        return int(acc) if acc.denominator == 1 else acc

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    raise TypeError(f"cannot combine LaurentPoly with {value!r}")


ONE = LaurentPoly({0: 1})


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class HalfLaurent:
    """Laurent polynomial whose coefficients are rationals with denominator 1 or 2."""

    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, coeffs: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for e, c in items:
            c = Fraction(c)
            if c.denominator not in (1, 2):
                raise DomainError(f"coefficient {c} does not have denominator 1 or 2")
            acc[e] = acc.get(e, Fraction(0)) + c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"HalfLaurent({format_poly(self)!r})"


def is_normalized(d: LaurentPoly) -> bool:
    """True iff d is invariant under t -> 1/t and d(1) = 1."""
    return d.is_symmetric() and sum(c for _, c in d.terms) == 1


def torus_poly(p: int) -> LaurentPoly:
    """The normalized polynomial t^-(p-1)/2 (t^p + 1)/(t + 1) of the (p,2) torus knot."""
    _check_odd_p(p)
    if p > materialization_limit():
        raise guard_error(f"torus polynomial for p={describe(p)}")
    h = (p - 1) // 2
    return LaurentPoly({j - h: (1 if j % 2 == 0 else -1) for j in range(p)})


def _check_odd_p(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise DomainError(f"p must be an integer, got {p!r}")
    if p % 2 == 0:
        raise DomainError(f"p must be odd, got {describe(p)}")
    if p < 3:
        raise DomainError(f"p must be at least 3, got {describe(p)}")


def from_basis(a: Iterable[int]) -> LaurentPoly:
    """Expand 1 + a_0 B_0 + sum a_i B_i, B_0 = 2 - t - 1/t and B_i =
    (t^i + t^-i) B_0, in one pass: t^0 has coefficient 1 + 2 a_0 - 2 a_1,
    and t^e and t^-e, e >= 1, have 2 a_e - a_(e-1) - a_(e+1)."""
    a = [*a, 0, 0]
    coeffs = {0: 1 + 2 * a[0] - 2 * a[1]}
    for e in range(1, len(a) - 1):
        coeffs[e] = coeffs[-e] = 2 * a[e] - a[e - 1] - a[e + 1]
    return LaurentPoly(coeffs)


def to_basis(d: LaurentPoly) -> BasisCoeffs:
    """The unique coefficients a with d = from_basis(a).

    For e >= 1 the coefficient of t^e in from_basis(a) is
    2 a_e - a_(e-1) - a_(e+1), so the a_i follow from the top exponent down.
    """
    if not is_normalized(d):
        raise DomainError(f"polynomial {d} is not normalized (symmetric with value 1 at t=1)")
    n = d.degree()
    coeffs = dict(d.terms)
    a = [0] * (n + 2)
    for e in range(n, 0, -1):
        a[e - 1] = 2 * a[e] - a[e + 1] - coeffs.get(e, 0)
    return tuple(a[:n])


def linking_form(a: Iterable[int]) -> HalfLaurent:
    """1/2 + a_0 (1 - t) + sum_{i>=1} a_i (t^i + t^-i)(1 - t).

    This is the coefficient content of the self-linking expansion whose
    symmetric part recovers from_basis(a).
    """
    terms = [(0, Fraction(1, 2))]
    for i, ai in enumerate(a):
        if i == 0:
            terms += [(0, ai), (1, -ai)]
        else:
            # (t^i + t^-i)(1 - t) = t^i + t^-i - t^(i+1) - t^(1-i)
            terms += [(i, ai), (-i, ai), (i + 1, -ai), (1 - i, -ai)]
    return HalfLaurent(terms)


def symmetrize(f: HalfLaurent) -> LaurentPoly:
    """f(t) + f(1/t), which must have integer coefficients."""
    s = HalfLaurent(f.terms + tuple((-e, c) for e, c in f.terms))
    for e, c in s.terms:
        if c.denominator != 1:
            raise DomainError(f"symmetrization has non-integer coefficient {c} at t^{e}")
    return LaurentPoly((e, int(c)) for e, c in s.terms)


def to_chebyshev(d: LaurentPoly) -> tuple[int, ...]:
    """The integer polynomial Q with Q(z + 1/z) = d(z), for symmetric d.

    On the unit circle this gives d(e^(i s)) = Q(2 cos s), which turns circle
    root isolation into real root isolation on [-2, 2].
    """
    if not d.is_symmetric():
        raise DomainError(f"polynomial {d} is not symmetric under t -> 1/t")
    if d.is_zero():
        return ()
    n = d.degree()
    coeffs = dict(d.terms)
    out = [0] * (n + 1)
    out[0] = coeffs.get(0, 0)
    # s_i(x) = z^i + z^-i as a polynomial in x = z + 1/z: s_0 = 2, s_1 = x,
    # s_i = x s_{i-1} - s_{i-2}.
    s_prev: list[int] = [2]
    s_cur: list[int] = [0, 1]
    for i in range(1, n + 1):
        ci = coeffs.get(i, 0)
        if ci:
            for j, s in enumerate(s_cur):
                out[j] += ci * s
        if i < n:
            nxt = [0] + s_cur
            for j, s in enumerate(s_prev):
                nxt[j] -= s
            s_prev, s_cur = s_cur, nxt
    return sturm.trim(out)


@functools.lru_cache(maxsize=256)
def _torus_chebyshev(p: int) -> tuple[int, ...]:
    """to_chebyshev(torus_poly(p)), the trial divisors of torus_factorization."""
    return to_chebyshev(torus_poly(p))


def torus_factorization(d: LaurentPoly) -> tuple[int, ...] | None:
    """The multiset of odd p with d = prod D_p, or None if d is no such product.

    Factors are peeled largest-first in the x = t + 1/t coordinate; the largest
    torus polynomial dividing a pure product is always a true factor, which
    makes the greedy order correct.
    """
    if d == ONE:
        return ()
    # d's top coefficient leads to_chebyshev(d); every product of D_p has 1 there.
    if not d.terms or d.terms[-1][1] != 1 or not is_normalized(d):
        return None
    q = to_chebyshev(d)
    found: list[int] = []
    while sturm.degree(q) > 0:
        deg = sturm.degree(q)
        for p in range(2 * deg + 1, 2, -2):
            quo, rem = sturm.divmod_int_exact(q, _torus_chebyshev(p))
            if not rem:
                q = quo
                found.append(p)
                break
        else:
            return None
    if q != (1,):
        return None
    return tuple(sorted(found))


_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+)\s*\*?\s*|(?=t))(t(?:\^(-?\d+))?)?\s*")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the +/- joined `c*t^e` text form, e.g. '-t^-2+3t^-1-3+3t-t^2'.

    A term is an optional sign, then digits with an optional * and an optional
    t or t^e, or else t or t^e alone.  A span (degree - valuation) above the
    materialization guard is refused, so that no later conversion pays for it,
    and so is a number past Python's digit limit (see limits.digit_limit_error).
    """
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial text")
    pos = 0
    terms: list[tuple[int, int]] = []
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m:
            raise DomainError(f"cannot parse polynomial text {text!r} at position {pos}")
        sign, coeff, var, exp = m.groups()
        if not sign and terms:
            raise DomainError(f"missing +/- between terms in {text!r}")
        try:
            c = 1 if coeff is None else int(coeff)
            e = 0 if var is None else 1 if exp is None else int(exp)
        except ValueError:  # raised for a digit string only past Python's limit
            raise digit_limit_error(f"a number in the term at position {pos}") from None
        terms.append((e, -c if sign == "-" else c))
        pos = m.end()
    d = LaurentPoly(terms)
    span = d.degree() - d.valuation() if d.terms else 0
    if span > materialization_limit():
        raise guard_error(f"polynomial span {describe(span)}")
    return d


def format_poly(d, var: str = "t") -> str:
    """Render the terms c*var^e of d joined by + and -; inverse of parse_poly.

    A LaurentPoly or HalfLaurent is rendered in ascending exponent order; a
    tuple of coefficients in ascending degree, such as to_chebyshev returns,
    is rendered highest power first.
    """
    terms = reversed(list(enumerate(d))) if isinstance(d, tuple) else d.terms
    parts: list[str] = []
    for e, c in terms:
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = str(mag)
        else:
            body = var if e == 1 else f"{var}^{e}"
            if mag != 1:
                body = f"{mag}{body}"
        parts.append(("-" if neg else "+" if parts else "") + body)
    return "".join(parts) or "0"
