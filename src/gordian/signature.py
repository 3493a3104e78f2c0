"""Integer step functions on the circle and exact circle-root isolation.

A signature step function sends a turn angle to 1 - Sign(d(e^(2 pi i theta)))
for a normalized polynomial d.  Products of torus polynomials have rational
breakpoints; every other polynomial gets breakpoints carried as refinable
isolating intervals in the x = 2 cos(2 pi theta) coordinate.  Two roots are
compared exactly by integer signs in one shared bisection of the overlap of
their intervals, and by a gcd when they stay together; a root and a turn m/n
by integer enclosures of 2 cos(2 pi m/n), and by division by Phi_n.  The
value of a step function at a breakpoint is the average of its two sides.
Signature values follow from the breakpoints; only rootiso reads gap signs.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

from . import circle, sturm
from .circle import HALF, ArcSet, as_turn
from .errors import DomainError, NonSimpleRootError
from .laurent import (
    LaurentPoly,
    is_normalized,
    to_chebyshev,
    torus_factorization,
)


@dataclasses.dataclass(frozen=True)
class AlgebraicAngle:
    """A circle angle 2 cos(2 pi theta) = x, with x pinned by an isolating interval.

    poly is square-free with exactly one root in (lo, hi), a subinterval of
    (-2, 2) whose endpoints are not roots.  upper selects theta in (1/2, 1)
    rather than (0, 1/2).
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    upper: bool

    def refined(self) -> "AlgebraicAngle":
        """Shrink the isolating interval by one bisection step."""
        lo, hi = sturm.refine_root(self.poly, self.lo, self.hi, (self.hi - self.lo) / 2)
        return AlgebraicAngle(self.poly, lo, hi, self.upper)

    def payload(self) -> dict:
        return {
            "poly": list(self.poly),
            "x_interval": [str(self.lo), str(self.hi)],
            "upper_half": self.upper,
        }

    def __str__(self) -> str:
        side = "upper" if self.upper else "lower"
        return f"angle({side}: x in ({self.lo}, {self.hi}))"


Angle = Fraction | AlgebraicAngle


def _region(a: Angle) -> int:
    """0, (0,1/2), {1/2}, (1/2,1) -> 0..3 around the circle; a rational a is in [0, 1)."""
    if isinstance(a, AlgebraicAngle):
        return 3 if a.upper else 1
    if a == 0:
        return 0
    if a < HALF:
        return 1
    if a == HALF:
        return 2
    return 3


# Cached, with a bound: the binary search of value_at encloses one turn several times.
@functools.lru_cache(maxsize=128)
def _cos_bounds(r: Fraction, w: int) -> tuple[Fraction, Fraction]:
    """a < 2 cos(2 pi r) < b with b - a < 2^-w, for 0 < r < 1/2 and w <= 2^20.

    Integer fixed point at scale d = 2^(w + 26), all bounds strict.  P sums
    16 atan(1/5) d - 4 atan(1/239) d (Machin) as (-1)^j U_j // (2j+1) over
    the J_x terms U_j = d // x^(2j+1) > 0: floors of the true terms, and an
    alternating tail below 1, so P misses pi d by less than e = 16 (J_5 + 1)
    + 4 (J_239 + 1), and X, 2 r P rounded down, misses 2 pi r d by less than
    e + 1.  C sums d cos(X/d) by Taylor, X/d < 3.15: T_0 = d, T_k = T_(k-1)
    X^2 // (d^2 (2k-1) 2k) for k < K, T_(K-1) = 0.  With true terms t_k =
    q_k t_(k-1), q_k < 0.83 for k >= 2, 0 <= t_k - T_k < 1 + q_k (t_(k-1) -
    T_(k-1)) < 6, and the alternating tail from K - 1 is below 6.  As
    |cos'| <= 1, C misses d cos(2 pi r) by less than E = 6K + e + 1 < 2^24.
    """
    d = 1 << (w + 26)
    P, e = _machin_pi(d)
    X = 2 * r.numerator * P // r.denominator
    C = T = d
    K = 1
    while T:
        T = T * X * X // (d * d * (2 * K - 1) * 2 * K)
        C += (-1) ** K * T
        K += 1
    E = 6 * K + e + 1
    return Fraction(2 * (C - E), d), Fraction(2 * (C + E), d)


@functools.lru_cache(maxsize=8)  # _cos_bounds reaches w = 32, 64, ...
def _machin_pi(d: int) -> tuple[int, int]:
    """(P, e) of _cos_bounds at scale d: Machin's sum P for pi d and its error count e."""
    P = e = 0
    for x, k in ((5, 16), (239, -4)):
        u, j = d // x, 0
        while u:
            P += k * (-1) ** j * (u // (2 * j + 1))
            u //= x * x
            j += 1
        e += abs(k) * (j + 1)
    return P, e


def _cos_root_of(f: Sequence[int], n: int) -> bool:
    """Whether f vanishes at 2 cos(2 pi m/n), for n >= 3 and m prime to n.

    Its minimal polynomial, of degree phi(n)/2 (Lehmer 1933), is the x form
    of Phi_n = prod over e | n of (1 - t^(n/e))^mu(e).  As p - 1 <= phi(n)
    for a prime p | n, primes above 2 deg f + 1 are not tried: they make phi
    exceed phi(n) > 2 deg f.
    """
    m = sturm.degree(f)
    mu_divisors, rad = [(n, 1)], 1
    for p in range(2, 2 * m + 2):
        if n % p == 0 and gcd(p, rad) == 1:
            rad *= p
            mu_divisors += [(d // p, -mu) for d, mu in mu_divisors]
    phi = sum(mu * d for d, mu in mu_divisors)
    if phi > 2 * m:
        return False
    cyc = [1] + [0] * phi
    for d, mu in mu_divisors:
        for i in range(d, phi + 1) if mu < 0 else range(phi, d - 1, -1):
            cyc[i] -= mu * cyc[i - d]
    x_form = to_chebyshev(LaurentPoly({i - phi // 2: c for i, c in enumerate(cyc)}))
    return not sturm.divmod_int_exact(f, x_form)[1]


def _cmp_root_cos(f: Sequence[int], lo: Fraction, hi: Fraction, r: Fraction) -> int:
    """-1/0/+1 comparing the root of f in (lo, hi) with c = 2 cos(2 pi r), 0 < r < 1/2.

    Enclosures (a, b) of c at 32, 64, ... bits decide by an end outside (lo, hi)
    or f's sign at an end inside, read against f's sign at lo.  Equal roots
    never do, so from 64 bits on c in (a, b) inside (lo, hi) is tested as a root.
    """
    s = sturm.psign(f, lo)
    for k in itertools.count():
        a, b = _cos_bounds(r, 32 << k)
        if b <= lo or (b < hi and s * sturm.psign(f, b) >= 0):
            return 1
        if a >= hi or (a > lo and s * sturm.psign(f, a) <= 0):
            return -1
        if k and lo < a and b < hi and _cos_root_of(f, r.denominator):
            return 0


_GCD_AFTER = 24


def _cmp_x_intervals(p1, lo1, hi1, p2, lo2, hi2) -> int:
    """-1/0/+1 comparing the unique roots of p1 in (lo1,hi1) and p2 in (lo2,hi2).

    One shared bisection of the overlap (a, b) of the intervals: at a, at b,
    then at midpoints in lowest terms, the sign of each polynomial, read
    against its sign at the low end of its interval, puts its root below, at
    or above the point.  Two different answers, or a root at the point,
    decide; otherwise the half holding both roots is kept.  Equal irrational
    roots never separate, so after _GCD_AFTER such midpoints they are equal
    iff gcd(p1, p2) has a root in (a, b) (Basu, Pollack & Roy, ch. 10).
    """
    l1, l1d, h1, h1d = lo1.numerator, lo1.denominator, hi1.numerator, hi1.denominator
    l2, l2d, h2, h2d = lo2.numerator, lo2.denominator, hi2.numerator, hi2.denominator
    if h1 * l2d <= l2 * h1d or h2 * l1d <= l1 * h2d:
        return -1 if h1 * l2d <= l2 * h1d else 1
    s1, s2 = sturm.sign_at(p1, l1, l1d), sturm.sign_at(p2, l2, l2d)
    an, ad = (l1, l1d) if l2 * l1d <= l1 * l2d else (l2, l2d)
    bn, bd = (h1, h1d) if h1 * h2d <= h2 * h1d else (h2, h2d)
    n, d = an, ad
    for step in itertools.count(-1):
        c1, c2 = s1 * sturm.sign_at(p1, n, d), s2 * sturm.sign_at(p2, n, d)
        if c1 != c2 or not c1:
            return (c1 > c2) - (c1 < c2)
        if c1 > 0:
            an, ad = n, d
        else:
            bn, bd = n, d
        if step == _GCD_AFTER:
            chain = sturm.sturm_chain(sturm.pgcd(p1, p2))
            if sturm.count_roots(chain, Fraction(an, ad), Fraction(bn, bd)) > 0:
                return 0
        n, d = (bn, bd) if step < 0 else sturm._midpoint(an, ad, bn, bd)


def angle_cmp(a: Angle, b: Angle) -> int:
    """Exact circular-order comparison of angles; a rational one counts modulo 1."""
    if not isinstance(a, AlgebraicAngle):
        if not isinstance(b, AlgebraicAngle):
            a, b = a % 1, b % 1
            return (a > b) - (a < b)
        return -angle_cmp(b, a)
    if not isinstance(b, AlgebraicAngle):
        b %= 1
    ra, rb = _region(a), _region(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if isinstance(b, AlgebraicAngle):
        xcmp = _cmp_x_intervals(a.poly, a.lo, a.hi, b.poly, b.lo, b.hi)
    else:
        xcmp = _cmp_root_cos(a.poly, a.lo, a.hi, b if b < HALF else 1 - b)
    # In the lower half x = 2 cos(2 pi theta) decreases with theta; in the
    # upper half it increases.
    return xcmp if ra == 3 else -xcmp


def angle_payload(a: Angle):
    if isinstance(a, AlgebraicAngle):
        return a.payload()
    return str(as_turn(a))


_ANGLE_KEY = functools.cmp_to_key(angle_cmp)


@dataclasses.dataclass(init=False, eq=False)
class StepFun:
    """Piecewise-constant integer function on the circle.

    values[i] is the value on the open arc running from breakpoints[i] to the
    next breakpoint; a function with no breakpoints is the constant
    values[0].  At a breakpoint the function takes the average of the two
    adjacent arc values.
    """

    breakpoints: tuple[Angle, ...]
    values: tuple[int, ...]

    def __init__(self, breakpoints: Iterable[Angle], values: Iterable[int]):
        bps = list(breakpoints)
        vals = list(values)
        if not bps and len(vals) != 1:
            raise DomainError("a breakpoint-free step function needs exactly one value")
        if bps and len(bps) != len(vals):
            raise DomainError("breakpoints and values must have equal length")
        # Callers mostly pass breakpoints already in order (merged events,
        # torus grids), so one pass of comparisons confirms that before any
        # sort is tried.
        if not all(angle_cmp(x, y) < 0 for x, y in zip(bps, bps[1:])):
            order = sorted(range(len(bps)), key=lambda i: _ANGLE_KEY(bps[i]))
            bps = [bps[i] for i in order]
            vals = [vals[i] for i in order]
            for x, y in zip(bps, bps[1:]):
                if angle_cmp(x, y) == 0:
                    raise DomainError("breakpoints must be distinct")
        # Drop spurious breakpoints where the value does not jump, comparing
        # circularly.  A single breakpoint is its own neighbour, so it goes
        # too: it cannot separate two different values.
        keep = [i for i in range(len(bps)) if vals[i] != vals[i - 1]]
        self.breakpoints = tuple(bps[i] for i in keep)
        self.values = tuple(vals[i] for i in keep) if keep else (vals[0],)

    @classmethod
    def constant(cls, value: int) -> "StepFun":
        return cls((), (value,))

    def is_constant(self) -> bool:
        return not self.breakpoints

    def mirror(self) -> "StepFun":
        return StepFun(self.breakpoints, tuple(-v for v in self.values))

    __neg__ = mirror

    def _arc_index(self, theta: Angle) -> int:
        """Index i such that theta lies in the closed arc [bp[i], bp[i+1]),
        by binary search; before bp[0] that is the last arc."""
        k = bisect.bisect_right(self.breakpoints, _ANGLE_KEY(theta), key=_ANGLE_KEY)
        return (k - 1) % len(self.breakpoints)

    def value_at(self, theta: Angle) -> Fraction:
        """Value at an angle, averaging the side limits at breakpoints."""
        if not self.breakpoints:
            return Fraction(self.values[0])
        if not isinstance(theta, AlgebraicAngle):
            theta = as_turn(theta)
        i = self._arc_index(theta)
        if angle_cmp(self.breakpoints[i], theta) == 0:
            return Fraction(self.values[i - 1] + self.values[i], 2)
        return Fraction(self.values[i])

    def __add__(self, other: "StepFun") -> "StepFun":
        if not isinstance(other, StepFun):
            return NotImplemented
        if self.is_constant() and other.is_constant():
            return StepFun.constant(self.values[0] + other.values[0])
        events = _merged_events(self, other)
        vals = [fa + ga for _, fa, ga in events]
        return StepFun([e for e, _, _ in events], vals)

    def __sub__(self, other: "StepFun") -> "StepFun":
        return self + other.mirror()

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFun):
            return NotImplemented
        return self.values == other.values and len(self.breakpoints) == len(other.breakpoints) and all(
            angle_cmp(a, b) == 0 for a, b in zip(self.breakpoints, other.breakpoints)
        )

    def level_set(self, value: int) -> ArcSet:
        """The arcs where the function equals value; requires rational breakpoints."""
        if not self.breakpoints:
            return ArcSet.full_circle() if self.values[0] == value else ArcSet.empty()
        arcs = []
        for i, v in enumerate(self.values):
            if v != value:
                continue
            lo = self.breakpoints[i]
            nxt = self.breakpoints[(i + 1) % len(self.breakpoints)]
            if isinstance(lo, AlgebraicAngle) or isinstance(nxt, AlgebraicAngle):
                raise DomainError("level_set needs rational breakpoints")
            arcs.append((lo, nxt if i + 1 < len(self.breakpoints) else nxt + 1))
        return ArcSet(arcs)

    def payload(self) -> dict:
        return {
            "breakpoints": [angle_payload(b) for b in self.breakpoints],
            "values": list(self.values),
        }

    def __str__(self) -> str:
        if not self.breakpoints:
            return f"constant {self.values[0]}"
        parts = [f"{v} on ({angle_payload(b)}, ...)" for b, v in zip(self.breakpoints, self.values)]
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"StepFun({self.payload()!r})"


def _merged_events(f: StepFun, g: StepFun) -> list[tuple[Angle, int, int]]:
    """Distinct breakpoints of f and g in circular order, with the values of
    both just after each; a breakpoint shared by both keeps f's angle.

    A two-pointer merge of the sorted breakpoint lists: at most one
    angle_cmp per event.  Before the first breakpoint each function takes
    its last value, the one on the arc that wraps through turn 0.
    """
    fb, gb = f.breakpoints, g.breakpoints
    fa, ga = f.values[-1], g.values[-1]
    i = j = 0
    out = []
    while i < len(fb) or j < len(gb):
        if j == len(gb):
            c = -1
        elif i == len(fb):
            c = 1
        else:
            c = angle_cmp(fb[i], gb[j])
        if c <= 0:
            e, fa = fb[i], f.values[i]
            i += 1
        if c >= 0:
            if c > 0:
                e = gb[j]
            ga = g.values[j]
            j += 1
        out.append((e, fa, ga))
    return out


def sup_distance(f: StepFun, g: StepFun) -> int:
    """Exact max over the circle of |f - g|.

    The difference is piecewise constant on the merged partition and its
    value at any breakpoint is an average of adjacent arc values, so the sup
    is attained on the open arcs.
    """
    if f.is_constant() and g.is_constant():
        return abs(f.values[0] - g.values[0])
    return max(abs(fa - ga) for _, fa, ga in _merged_events(f, g))


@dataclasses.dataclass(frozen=True)
class RootIsolation:
    """Isolating intervals for the circle roots of a symmetric polynomial in
    the x = t + 1/t coordinate.

    intervals are ascending disjoint rational intervals in [-2, 2], each
    containing exactly one root of poly; roots at x = +-2 appear as degenerate
    (c, c) intervals, first and last, and all others lie inside (-2, 2).
    interior_poly drives refinement and omits the +-2 factors.
    """

    poly: tuple[int, ...]
    square_free: tuple[int, ...]
    interior_poly: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def sign_pattern(self) -> tuple[int, ...]:
        """Sign of poly on the open gap below each interval, then up to 2; 0 if
        empty.  Evaluated on demand at the gap midpoints: only rootiso prints it."""
        ends = [(-2, 1)] + [(x.numerator, x.denominator) for iv in self.intervals for x in iv] + [(2, 1)]
        return tuple(_gap_sign(self.poly, *lo, *hi) for lo, hi in zip(ends[::2], ends[1::2]))

    def interior_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self.intervals[self.root_at_half_turn() : len(self.intervals) - self.root_at_zero_turn()]

    def root_at_zero_turn(self) -> bool:
        return bool(self.intervals) and self.intervals[-1][0] == 2

    def root_at_half_turn(self) -> bool:
        return bool(self.intervals) and self.intervals[0][1] == -2

    def circle_root_count(self) -> int:
        """Number of distinct roots on the circle: interior x-roots pair up."""
        return 2 * len(self.intervals) - self.root_at_half_turn() - self.root_at_zero_turn()

    def refined(self, width: Fraction) -> "RootIsolation":
        poly = self.interior_poly
        ivs = (sturm.refine_root(poly, lo, hi, width) if lo != hi else (lo, hi) for lo, hi in self.intervals)
        return dataclasses.replace(self, intervals=tuple(ivs))

    def payload(self) -> dict:
        return {
            "intervals": [[str(lo), str(hi)] for lo, hi in self.intervals],
            "sign_pattern": list(self.sign_pattern),
            "circle_roots": self.circle_root_count(),
        }


@functools.lru_cache(maxsize=16)
def isolate_circle_roots(d: LaurentPoly) -> RootIsolation:
    """Sturm-sequence isolation of the roots of to_chebyshev(d) in [-2, 2].

    The one place outside torus_factorization that converts d to its
    Chebyshev form q and splits off q's square-free part (its Sturm chain
    comes from the same remainder sequence); the repeated part is their
    exact quotient.  Intervals stay integer ends until the result is built;
    no gap sign is computed unless sign_pattern is read.

    Cached on d, as signature_of_poly and min_root_gap both isolate d; the
    result is frozen and refined returns a copy, so sharing it is safe, and
    16 entries keep the peak memory of a run over many polynomials flat.
    """
    if d.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    q = to_chebyshev(d)
    qt, chain = sturm.square_free_chain(q)
    interior = qt
    at_ends = []
    for c in (-2, 2):
        at_ends.append(sturm.sign_at(interior, c, 1) == 0)
        if at_ends[-1]:
            interior, rem = sturm.divmod_int_exact(interior, (-c, 1))
            assert not rem
    if any(at_ends):
        chain = sturm.sturm_chain(interior)
    ends = sturm.isolate_ends(chain, Fraction(-2), Fraction(2)) if sturm.degree(interior) >= 1 else []
    inner = _separate_intervals(interior, ends)
    ends = [(-2, 1, -2, 1)] * at_ends[0] + [e[:4] for e in inner] + [(2, 1, 2, 1)] * at_ends[1]
    ivs = tuple((Fraction(a, ad), Fraction(b, bd)) for a, ad, b, bd in ends)
    return RootIsolation(q, qt, tuple(interior), ivs)


def _separate_intervals(poly: Sequence[int], ends: list[sturm.Ends]) -> list[sturm.Ends]:
    """Refine isolating intervals to a quarter of the narrowest width until
    they sit strictly inside (-2, 2) with gaps between them (bisection
    shares endpoints), comparing integer ends by cross-multiplication."""
    while ends:
        inside = ends[0][0] > -2 * ends[0][1] and ends[-1][2] < 2 * ends[-1][3]
        if inside and all(x[2] * y[1] < y[0] * x[3] for x, y in zip(ends, ends[1:])):
            break
        wn, wd = 1, 0
        for a, ad, b, bd, _ in ends:
            n, d = b * ad - a * bd, ad * bd
            if n * wd < wn * d:
                wn, wd = n, d
        ends = [sturm.refine_ends(poly, *e, wn, 4 * wd) for e in ends]
    return ends


def _gap_sign(q: Sequence[int], an: int, ad: int, bn: int, bd: int) -> int:
    """The sign of q at the midpoint of an/ad and bn/bd, or 0 if bn/bd <= an/ad."""
    return sturm.sign_at(q, *sturm._midpoint(an, ad, bn, bd)) if bn * ad > an * bd else 0


def _check_simple_circle_roots(d: LaurentPoly, iso: RootIsolation) -> None:
    """Raise NonSimpleRootError if the repeated part q / square_free_part(q)
    of d's Chebyshev form q has a root in [-2, 2].

    For normalized d, q(2) = d(1) = 1, and q(-2) = d(-1) is odd, because
    d(1) - d(-1) is twice the sum of the odd-exponent coefficients.  So
    neither x = 2 nor x = -2 (t = 1, t = -1) is a root of q, and counting
    roots in the open interval (-2, 2) covers every circle root.
    """
    if sturm.degree(iso.square_free) == sturm.degree(iso.poly):
        return
    repeated, rem = sturm.divmod_int_exact(iso.poly, iso.square_free)
    assert not rem
    _, chain = sturm.square_free_chain(repeated)
    if sturm.count_roots(chain, Fraction(-2), Fraction(2)) > 0:
        raise NonSimpleRootError(f"{d} has a repeated circle root")


def signature_of_poly(d: LaurentPoly) -> StepFun:
    """The step function theta -> 1 - Sign(d(e^(2 pi i theta))).

    Requires d normalized with simple circle roots.  Products of torus
    polynomials produce exact rational breakpoints, everything else
    refinable isolating intervals; _alternating reads the values off them.
    """
    if not is_normalized(d):
        raise DomainError(f"{d} is not normalized (symmetric with value 1 at t = 1)")
    ps = torus_factorization(d)
    if ps is not None:
        return _signature_of_torus_product(ps)
    iso = isolate_circle_roots(d)
    _check_simple_circle_roots(d, iso)
    lower = [
        AlgebraicAngle(iso.interior_poly, lo, hi, upper=False)
        for lo, hi in reversed(iso.intervals)
    ]
    upper = [AlgebraicAngle(iso.interior_poly, lo, hi, upper=True) for lo, hi in iso.intervals]
    return _alternating(lower + upper)


def _signature_of_torus_product(ps: Sequence[int]) -> StepFun:
    """1 - Sign(prod D_p) with the breakpoints of circle.breakpoint_grid.

    The product is normalized, and its circle roots are simple unless a p
    repeats or two D_p share a root, which raises NonSimpleRootError.
    """
    n, grid = circle.breakpoint_grid(ps)
    xs = [x for x, _ in grid]
    if len(set(ps)) < len(ps) or any(a == b for a, b in zip(xs, xs[1:])):
        raise NonSimpleRootError(
            f"torus product over p = {tuple(ps)} has repeated circle roots"
        )
    return _alternating([Fraction(x, n) for x in xs])


def _alternating(breakpoints: Sequence[Angle]) -> StepFun:
    """1 - Sign(d) for a normalized d, from its circle roots in circular order.

    For d's Chebyshev form q, q(2) = d(1) = 1 > 0: the value is 0 on the arc
    through turn 0.  _check_simple_circle_roots (or the torus check) has made
    every root in (-2, 2) simple, and q(-2) = d(-1) is odd, so the half turn
    is not a root.  So the sign flips at each breakpoint and nowhere else.
    """
    if not breakpoints:
        return StepFun.constant(0)
    return StepFun(breakpoints, [2, 0] * (len(breakpoints) // 2))


@dataclasses.dataclass(frozen=True)
class GapBound:
    """Minimal circular root gap: the exact value, or a certified lower bound."""

    value: Fraction
    exact: bool

    def payload(self) -> dict:
        return {"gap": str(self.value), "exact": self.exact}


def _sqrt_lower(q: Fraction) -> Fraction:
    """A rational lower bound for sqrt(q), positive for q > 0."""
    return Fraction(isqrt(q.numerator * q.denominator), q.denominator)


def min_root_gap(d: LaurentPoly) -> GapBound:
    """Smallest circular distance between consecutive circle roots of d.

    Exact for products of torus polynomials (rational breakpoints) and for
    the degenerate cases with at most one root; otherwise a certified
    positive rational lower bound, converting the positive separations of
    the isolating intervals into angle bounds (the derivative of 2 cos is at
    most 4 pi < 13, and near x = +-2 a square-root bound applies).  Defined
    as 1 full turn when at most one root exists.
    """
    ps = torus_factorization(d)
    if ps is not None:
        return GapBound(circle.min_breakpoint_gap(ps), True)
    iso = isolate_circle_roots(d)
    if iso.circle_root_count() <= 1:
        return GapBound(Fraction(1), True)
    if not iso.interior_intervals():
        # Only the two exact roots at turns 0 and 1/2 remain.
        return GapBound(HALF, True)
    interior = iso.interior_intervals()
    # Gap bridging the half turn (between theta and 1 - theta, or to an exact
    # root at 1/2): 1 - 2 theta >= sqrt(x + 2) / pi.
    bounds = [_sqrt_lower(interior[0][0] + 2) / (8 if iso.root_at_half_turn() else 4)]
    # Gap wrapping through zero: 2 theta >= sqrt(2 - x) / pi.
    bounds.append(_sqrt_lower(2 - interior[-1][1]) / (7 if iso.root_at_zero_turn() else 4))
    # Consecutive angles: |d theta| >= |d x| / (4 pi) and 4 pi < 13, with
    # d x at least the narrowest gap between x intervals.
    wn, wd = 1, 0
    for (_, hi), (lo, _) in zip(interior, interior[1:]):
        n = lo.numerator * hi.denominator - hi.numerator * lo.denominator
        d = lo.denominator * hi.denominator
        if n * wd < wn * d:
            wn, wd = n, d
    if wd:
        bounds.append(Fraction(wn, 13 * wd))
    return GapBound(min(bounds), False)


def eval_formal_signature(knot, theta) -> int:
    """Sum over the generators of +-(1 - Sign(D_p)) at the given turn.

    Works lazily for arbitrarily large p.  At a breakpoint of a constituent
    the per-generator average convention applies automatically, since the
    sign there is 0 and 1 - 0 is the average of the adjacent values 0 and 2.
    """
    t = as_turn(theta)
    num, den = t.numerator, t.denominator
    total = 0
    for g in knot.generators:
        contribution = 1 - circle.sign_at_turn(g.p, num, den)
        total += -contribution if g.mirrored else contribution
    return total
