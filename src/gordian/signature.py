"""Integer step functions on the circle and exact circle-root isolation.

A signature step function sends a turn angle to 1 - Sign(d(e^(2 pi i theta)))
for a normalized polynomial d.  Products of torus polynomials have rational
breakpoints; every other polynomial gets breakpoints carried as refinable
isolating intervals in the x = 2 cos(2 pi theta) coordinate, where Sturm
sequences make all comparisons exact.  The value of a step function at a
breakpoint is the average of the two adjacent arc values.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

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


Angle = Union[Fraction, AlgebraicAngle]


def _region(a: Angle) -> int:
    """0, (0,1/2), {1/2}, (1/2,1) -> 0..3, ordered around the circle."""
    if isinstance(a, AlgebraicAngle):
        return 3 if a.upper else 1
    t = as_turn(a)
    if t == 0:
        return 0
    if t < HALF:
        return 1
    if t == HALF:
        return 2
    return 3


@functools.lru_cache(maxsize=None)
def _cos_interior_poly(n: int) -> tuple[int, ...]:
    """Square-free integer polynomial whose roots are 2 cos(2 pi j / n) for
    the interior indices 0 < j < n/2 (the values in (-2, 2)).

    Obtained by rewriting the cyclotomic-style products (t^n - 1)/(t - 1)
    (odd n) and (t^n - 1)/(t^2 - 1) (even n) in the x = t + 1/t coordinate.
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


@functools.lru_cache(maxsize=None)
def _cos_isolation(n: int) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[int, ...]]:
    """Descending isolating intervals for the interior roots of _cos_interior_poly(n).

    The roots 2 cos(2 pi j / n) interlace the values at half-integer j, so
    floating-point proposals for the separators are verified by exact sign
    alternation; Sturm isolation is only the fallback.
    """
    import math

    poly = _cos_interior_poly(n)
    m = sturm.degree(poly)
    if m < 1:
        return (), poly
    den = 1 << 40
    cuts = []
    for j in range(m + 1):
        c = Fraction(round(2 * math.cos(math.pi * (2 * j + 1) / n) * den), den)
        cuts.append(max(Fraction(-2), min(Fraction(2), c)))
    signs = [sturm.psign(poly, c) for c in cuts]
    alternating = all(signs) and all(a != b for a, b in zip(signs, signs[1:]))
    if alternating:
        ivs = tuple((cuts[j + 1], cuts[j]) for j in range(m))
        return ivs, poly
    ivs = sturm.isolate_roots(poly, Fraction(-2), Fraction(2))
    return tuple(reversed(ivs)), poly


def _rational_cos_ref(r: Fraction) -> tuple[tuple[int, ...], Fraction, Fraction]:
    """(poly, lo, hi) isolating x = 2 cos(2 pi r) for r in (0, 1/2)."""
    assert 0 < r < HALF
    n, m = r.denominator, r.numerator
    intervals, poly = _cos_isolation(n)
    lo, hi = intervals[m - 1]
    return poly, lo, hi


def _common_root_in_overlap(
    p1: Sequence[int], i1: tuple[Fraction, Fraction], p2: Sequence[int], i2: tuple[Fraction, Fraction]
) -> bool:
    g = sturm.pgcd(p1, p2)
    if sturm.degree(g) < 1:
        return False
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    if lo >= hi:
        return False
    return sturm.count_roots(sturm.sturm_chain(g), lo, hi) > 0


def _cmp_x_intervals(p1, lo1, hi1, p2, lo2, hi2) -> int:
    """-1/0/+1 comparing the unique roots of p1 in (lo1,hi1) and p2 in (lo2,hi2)."""
    # Refine a few rounds first: distinct roots separate quickly and the
    # exact equality test (a polynomial gcd) is only needed when they persist.
    for _ in range(4):
        if hi1 <= lo2 or hi2 <= lo1:
            return -1 if hi1 <= lo2 else 1
        lo1, hi1 = sturm.refine_root(p1, lo1, hi1, (hi1 - lo1) / 2)
        lo2, hi2 = sturm.refine_root(p2, lo2, hi2, (hi2 - lo2) / 2)
    if _common_root_in_overlap(p1, (lo1, hi1), p2, (lo2, hi2)):
        return 0
    while not (hi1 <= lo2 or hi2 <= lo1):
        lo1, hi1 = sturm.refine_root(p1, lo1, hi1, (hi1 - lo1) / 2)
        lo2, hi2 = sturm.refine_root(p2, lo2, hi2, (hi2 - lo2) / 2)
    return -1 if hi1 <= lo2 else 1


def angle_cmp(a: Angle, b: Angle) -> int:
    """Exact circular-order comparison of angles in [0, 1)."""
    ra, rb = _region(a), _region(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        ta, tb = as_turn(a), as_turn(b)
        return (ta > tb) - (ta < tb)
    upper = ra == 3
    if isinstance(a, AlgebraicAngle) and isinstance(b, AlgebraicAngle):
        xcmp = _cmp_x_intervals(a.poly, a.lo, a.hi, b.poly, b.lo, b.hi)
    elif isinstance(a, AlgebraicAngle):
        r = as_turn(b)
        folded = r if r < HALF else 1 - r
        poly, lo, hi = _rational_cos_ref(folded)
        xcmp = _cmp_x_intervals(a.poly, a.lo, a.hi, poly, lo, hi)
    else:
        return -angle_cmp(b, a)
    # In the lower half x = 2 cos(2 pi theta) decreases with theta; in the
    # upper half it increases.
    return xcmp if upper else -xcmp


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
        if not bps:
            if len(vals) != 1:
                raise DomainError("a breakpoint-free step function needs exactly one value")
            self.breakpoints = ()
            self.values = (vals[0],)
            return
        if len(bps) != len(vals):
            raise DomainError("breakpoints and values must have equal length")
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
        if not keep:
            self.breakpoints = ()
            self.values = (vals[0],)
            return
        self.breakpoints = tuple(bps[i] for i in keep)
        self.values = tuple(vals[i] for i in keep)

    @classmethod
    def constant(cls, value: int) -> "StepFun":
        return cls((), (value,))

    def is_constant(self) -> bool:
        return not self.breakpoints

    def mirror(self) -> "StepFun":
        return StepFun(self.breakpoints, tuple(-v for v in self.values))

    __neg__ = mirror

    def _arc_index(self, theta: Angle) -> int:
        """Index i such that theta lies in the closed arc [bp[i], bp[i+1])."""
        idx = len(self.breakpoints) - 1
        for i, b in enumerate(self.breakpoints):
            c = angle_cmp(b, theta)
            if c <= 0:
                idx = i
            else:
                break
        return idx

    def value_at(self, theta: Angle) -> Fraction:
        """Value at an angle, averaging the side limits at breakpoints."""
        if not self.breakpoints:
            return Fraction(self.values[0])
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
    (c, c) intervals.  sign_pattern[i] is the sign of poly on the open gap
    below the i-th interval (the last entry is the gap up to 2); an empty gap
    gets 0.  interior_poly drives refinement and omits the +-2 factors.
    """

    poly: tuple[int, ...]
    square_free: tuple[int, ...]
    interior_poly: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    sign_pattern: tuple[int, ...]

    def interior_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(iv for iv in self.intervals if iv[0] != iv[1])

    def root_at_zero_turn(self) -> bool:
        return any(iv == (2, 2) for iv in self.intervals)

    def root_at_half_turn(self) -> bool:
        return any(iv == (-2, -2) for iv in self.intervals)

    def circle_root_count(self) -> int:
        """Number of distinct roots on the circle: interior x-roots pair up."""
        degenerate = sum(1 for iv in self.intervals if iv[0] == iv[1])
        return 2 * (len(self.intervals) - degenerate) + degenerate

    def refined(self, width: Fraction) -> "RootIsolation":
        ivs = []
        for lo, hi in self.intervals:
            if lo != hi and hi - lo > width:
                lo, hi = sturm.refine_root(self.interior_poly, lo, hi, width)
            ivs.append((lo, hi))
        return dataclasses.replace(self, intervals=tuple(ivs))

    def payload(self) -> dict:
        return {
            "intervals": [[str(lo), str(hi)] for lo, hi in self.intervals],
            "sign_pattern": list(self.sign_pattern),
            "circle_roots": self.circle_root_count(),
        }


def isolate_circle_roots(d: LaurentPoly) -> RootIsolation:
    """Sturm-sequence isolation of the roots of to_chebyshev(d) in [-2, 2]."""
    if d.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    q = to_chebyshev(d)
    if sturm.degree(q) < 1:
        sign = 1 if q[0] > 0 else -1
        return RootIsolation(q, q, q, (), (sign,))
    qt = sturm.square_free_part(q)
    interior = qt
    degenerate: list[tuple[Fraction, Fraction]] = []
    for c in (-2, 2):
        if sturm.psign(interior, c) == 0:
            quo, rem = sturm.divmod_int_exact(interior, (-c, 1))
            assert not rem
            interior = quo
            degenerate.append((Fraction(c), Fraction(c)))
    ivs = sturm.isolate_roots(interior, Fraction(-2), Fraction(2)) if sturm.degree(interior) >= 1 else []
    ivs = _separate_intervals(interior, ivs)
    all_ivs = sorted(degenerate + list(ivs))
    signs = []
    prev_hi = Fraction(-2)
    for lo, hi in all_ivs:
        signs.append(_gap_sign(q, prev_hi, lo))
        prev_hi = hi
    signs.append(_gap_sign(q, prev_hi, Fraction(2)))
    return RootIsolation(q, qt, tuple(interior), tuple(all_ivs), tuple(signs))


def _separate_intervals(
    poly: Sequence[int], ivs: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Refine isolating intervals until they sit strictly inside (-2, 2) and
    leave positive-width gaps between one another (bisection shares endpoints)."""
    ivs = list(ivs)
    while ivs:
        separated = (
            ivs[0][0] > -2
            and ivs[-1][1] < 2
            and all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))
        )
        if separated:
            break
        width = min(hi - lo for lo, hi in ivs) / 4
        ivs = [sturm.refine_root(poly, lo, hi, width) for lo, hi in ivs]
    return ivs


def _gap_sign(q: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    if lo >= hi:
        return 0
    return sturm.psign(q, (lo + hi) / 2)


def _check_simple_circle_roots(d: LaurentPoly, q: Sequence[int]) -> None:
    if sturm.psign(q, -2) == 0:
        raise NonSimpleRootError(
            f"{d} vanishes at t = -1, a repeated circle root at turn 1/2"
        )
    g = sturm.pgcd(q, sturm.pderiv(q))
    if sturm.degree(g) > 0:
        gt = sturm.square_free_part(g)
        if sturm.psign(gt, -2) == 0 or sturm.psign(gt, 2) == 0:
            raise NonSimpleRootError(f"{d} has a repeated circle root")
        if sturm.count_roots(sturm.sturm_chain(gt), Fraction(-2), Fraction(2)) > 0:
            raise NonSimpleRootError(f"{d} has a repeated circle root")


def signature_of_poly(d: LaurentPoly) -> StepFun:
    """The step function theta -> 1 - Sign(d(e^(2 pi i theta))).

    Requires d normalized with simple circle roots.  Products of torus
    polynomials produce exact rational breakpoints; everything else gets
    breakpoints as refinable isolating intervals.
    """
    if not is_normalized(d):
        raise DomainError(f"{d} is not normalized (symmetric with value 1 at t = 1)")
    ps = torus_factorization(d)
    if ps is not None:
        return _signature_of_torus_product(ps)
    q = to_chebyshev(d)
    _check_simple_circle_roots(d, q)
    iso = isolate_circle_roots(d)
    r = len(iso.intervals)
    if r == 0:
        return StepFun.constant(0)
    sp = iso.sign_pattern
    lower = [
        AlgebraicAngle(iso.interior_poly, lo, hi, upper=False)
        for lo, hi in reversed(iso.intervals)
    ]
    upper = [AlgebraicAngle(iso.interior_poly, lo, hi, upper=True) for lo, hi in iso.intervals]
    values_lower = [1 - sp[r - 1 - i] for i in range(r)]
    values = list(values_lower)
    for j in range(1, r):
        values.append(values_lower[r - 1 - j])
    values.append(1 - sp[r])
    return StepFun(lower + upper, values)


def _signature_of_torus_product(ps: Sequence[int]) -> StepFun:
    if not ps:
        return StepFun.constant(0)
    all_bps: list[Fraction] = []
    for p in ps:
        all_bps.extend(circle.generator_breakpoints(p))
    if len(set(all_bps)) != len(all_bps):
        raise NonSimpleRootError(
            f"torus product over p = {tuple(ps)} has repeated circle roots"
        )
    bps = sorted(all_bps)
    values = []
    for i, b in enumerate(bps):
        nxt = bps[i + 1] if i + 1 < len(bps) else bps[0] + 1
        mid = as_turn((b + nxt) / 2)
        sign = 1
        for p in ps:
            sign *= circle.generator_sign_at(p, mid)
        values.append(1 - sign)
    return StepFun(bps, values)


@dataclasses.dataclass(frozen=True)
class GapBound:
    """Minimal circular root gap: the exact value, or a certified lower bound."""

    value: Fraction
    exact: bool

    def payload(self) -> dict:
        return {"gap": str(self.value), "exact": self.exact}


def _sqrt_lower(q: Fraction) -> Fraction:
    """A rational lower bound for sqrt(q), positive whenever q > 0."""
    if q <= 0:
        return Fraction(0)
    return Fraction(isqrt(q.numerator * q.denominator), q.denominator)


def min_root_gap(d: LaurentPoly) -> GapBound:
    """Smallest circular distance between consecutive circle roots of d.

    Exact for products of torus polynomials (rational breakpoints) and for
    the degenerate cases with at most one root; otherwise a certified
    positive rational lower bound, obtained by refining the isolating
    intervals and converting x-interval separations into angle bounds (the
    derivative of 2 cos is at most 4 pi < 13, and near x = +-2 a square-root
    bound applies).  Defined as 1 full turn when at most one root exists.
    """
    ps = torus_factorization(d)
    if ps is not None:
        if not ps:
            return GapBound(Fraction(1), True)
        bps = sorted({b for p in ps for b in circle.generator_breakpoints(p)})
        if len(bps) <= 1:
            return GapBound(Fraction(1), True)
        best = bps[0] + 1 - bps[-1]
        for a, b in zip(bps, bps[1:]):
            best = min(best, b - a)
        return GapBound(best, True)
    iso = isolate_circle_roots(d)
    n_circle = iso.circle_root_count()
    if n_circle <= 1:
        return GapBound(Fraction(1), True)
    root0 = iso.root_at_zero_turn()
    root_half = iso.root_at_half_turn()
    if not iso.interior_intervals():
        # Only the two exact roots at turns 0 and 1/2 remain.
        return GapBound(HALF, True)
    while True:
        bounds = _gap_bounds(iso, root0, root_half)
        if all(b > 0 for b in bounds):
            return GapBound(min(bounds), False)
        width = min(hi - lo for lo, hi in iso.interior_intervals()) / 4
        iso = iso.refined(width)


def _gap_bounds(iso: RootIsolation, root0: bool, root_half: bool) -> list[Fraction]:
    interior = iso.interior_intervals()
    bounds: list[Fraction] = []
    # Consecutive angles in the lower half: x intervals in descending order,
    # |d theta| >= |d x| / (4 pi) and 4 pi < 13.
    desc = list(reversed(interior))
    for (a_lo, _a_hi), (_b_lo, b_hi) in zip(desc, desc[1:]):
        bounds.append((a_lo - b_hi) / 13)
    lo_min = interior[0][0]
    hi_max = interior[-1][1]
    # Gap bridging the half turn (between theta and 1 - theta, or to an exact
    # root at 1/2): 1 - 2 theta >= sqrt(x + 2) / pi.
    bounds.append(_sqrt_lower(lo_min + 2) / (8 if root_half else 4))
    # Gap wrapping through zero: 2 theta >= sqrt(2 - x) / pi.
    bounds.append(_sqrt_lower(2 - hi_max) / (7 if root0 else 4))
    return bounds


def eval_formal_signature(knot, theta) -> int:
    """Sum over the generators of +-(1 - Sign(D_p)) at the given turn.

    Works lazily for arbitrarily large p.  At a breakpoint of a constituent
    the per-generator average convention applies automatically, since the
    sign there is 0 and 1 - 0 is the average of the adjacent values 0 and 2.
    """
    total = 0
    for g in knot.generators:
        contribution = 1 - circle.generator_sign_at(g.p, theta)
        total += -contribution if g.mirrored else contribution
    return total
