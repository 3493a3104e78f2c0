"""Exact arc-set algebra on the circle with rational turn angles.

Angles are measured in turns (1 turn = a full revolution) and represented by
Fractions normalized into [0, 1).  An ArcSet is a finite union of open arcs
kept in regularized canonical form: overlapping or touching arcs are merged,
so the represented sets form a Boolean algebra in which De Morgan and double
complement hold exactly.

The generator arc machinery works two ways: small p materializes the sign
arcs of the torus polynomial D_p, while arbitrarily large p is served by the
closed-form sign formula and the constructive witness search, which never
materialize anything.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import ceil, lcm
from typing import Iterable, Sequence

from .errors import DomainError, SpacingError
from .laurent import _check_odd_p
from .limits import describe, guard_error, materialization_limit

Turn = Fraction
HALF = Fraction(1, 2)


def as_turn(value) -> Turn:
    """Normalize a rational angle into [0, 1) turns."""
    return Fraction(value) % 1


def _arc_pieces(lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Split the open arc travelled counterclockwise from lo to hi into
    segments of [0, 1]; raises for lo = hi, which is ambiguous."""
    lo = as_turn(lo)
    length = as_turn(hi - lo)
    if length == 0:
        raise DomainError("arc endpoints must differ")
    hi = lo + length
    if hi <= 1:
        return [(lo, hi)]
    return [(lo, Fraction(1)), (Fraction(0), hi - 1)]


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class ArcSet:
    """Finite union of open arcs in canonical (sorted, merged) form.

    arcs is a tuple of (lo, hi) pairs with 0 <= lo < 1 and lo < hi <= lo + 1;
    the final arc may have hi > 1, meaning it wraps past a full turn.  The
    full circle is the distinguished value with full=True and no arcs.
    """

    arcs: tuple[tuple[Fraction, Fraction], ...]
    full: bool

    def __init__(self, arcs: Iterable[tuple[Fraction, Fraction]] = (), full: bool = False):
        if full:
            self.arcs = ()
            self.full = True
            return
        segs: list[tuple[Fraction, Fraction]] = []
        for lo, hi in arcs:
            segs.extend(_arc_pieces(Fraction(lo), Fraction(hi)))
        segs.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in segs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        if len(merged) == 1 and merged[0] == [0, 1]:
            self.arcs = ()
            self.full = True
            return
        if len(merged) >= 2 and merged[0][0] == 0 and merged[-1][1] == 1:
            first = merged.pop(0)
            merged[-1][1] = 1 + first[1]
        self.arcs = tuple((lo, hi) for lo, hi in merged)
        self.full = False

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls()

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls(full=True)

    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def witness(self) -> Turn | None:
        """Midpoint of the leftmost arc, None when empty, 0 for the full circle."""
        if self.full:
            return Fraction(0)
        if not self.arcs:
            return None
        lo, hi = self.arcs[0]
        return as_turn((lo + hi) / 2)

    def measure(self) -> Fraction:
        """Total turn length."""
        if self.full:
            return Fraction(1)
        return sum((hi - lo for lo, hi in self.arcs), Fraction(0))

    def contains(self, theta) -> bool:
        if self.full:
            return True
        t = as_turn(theta)
        for lo, hi in self.arcs:
            if lo < t < hi or lo < t + 1 < hi:
                return True
        return False

    def complement(self) -> "ArcSet":
        """Interior of the set complement (the gaps between the arcs)."""
        if self.full:
            return ArcSet.empty()
        if not self.arcs:
            return ArcSet.full_circle()
        gaps = []
        for i, (_, hi) in enumerate(self.arcs):
            nxt_lo = self.arcs[(i + 1) % len(self.arcs)][0]
            gaps.append((as_turn(hi), nxt_lo))
        return ArcSet(gaps)

    __invert__ = complement

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """By De Morgan, exact in this regularized algebra."""
        return ~(~self | ~other)

    __and__ = intersect

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return ArcSet.full_circle()
        return ArcSet(self.arcs + other.arcs)

    __or__ = union

    def __str__(self) -> str:
        if self.full:
            return "(full circle)"
        if not self.arcs:
            return "(empty)"
        return " ".join(f"({lo},{as_turn(hi)})" for lo, hi in self.arcs)

    def __repr__(self) -> str:
        return f"ArcSet({str(self)!r})"


def intersect(*sets: ArcSet) -> ArcSet:
    out = ArcSet.full_circle()
    for s in sets:
        out = out.intersect(s)
    return out


def complement(s: ArcSet) -> ArcSet:
    return s.complement()


def is_empty(s: ArcSet) -> tuple[bool, Turn | None]:
    """Emptiness flag together with a witness point when nonempty."""
    return s.is_empty(), s.witness()


def breakpoint(p: int, k: int) -> Fraction:
    """The k-th breakpoint (2k+1)/(2p) of generator p; k may exceed p (unwrapped)."""
    return Fraction(2 * k + 1, 2 * p)


def generator_breakpoints(p: int) -> list[Fraction]:
    """All circle roots of D_p in ascending order: (2k+1)/(2p) without 1/2."""
    n, grid = breakpoint_grid([p])
    return [Fraction(x, n) for x, _ in grid]


def breakpoint_grid(ps: Iterable[int]) -> tuple[int, list[tuple[int, int]]]:
    """The circle roots of the D_p, p in ps, on one integer grid.

    Returns n = 2 lcm(ps) and the pairs (x, p), sorted, such that x/n is a
    root of D_p: x = (2k+1) lcm(ps)/p for 0 <= k < p, skipping the half turn
    k = (p-1)/2.  A repeated p counts once; a turn that is a root of several
    D_p appears once for each of them.
    """
    ps = sorted(set(ps))
    for p in ps:
        _check_odd_p(p)
    if sum(ps) > materialization_limit():
        raise guard_error(f"merging breakpoints of generators [{', '.join(map(describe, ps))}]")
    half = lcm(*ps)
    grid = []
    for p in ps:
        step = half // p
        grid.extend((x, p) for x in range(step, 2 * half, 2 * step) if x != half)
    grid.sort()
    return 2 * half, grid


def min_breakpoint_gap(ps: Iterable[int]) -> Fraction:
    """Smallest circular distance between distinct circle roots of the D_p,
    p in ps: 1 / max lcm(p, q) over p, q in the set P of distinct p, and
    1 full turn when P is empty.  Nothing is materialized.

    Proof.  Roots (2k+1)/(2p) of D_p and (2j+1)/(2q) of D_q differ by
    ((2k+1)q - (2j+1)p) / (2pq) modulo 1.  With g = gcd(p, q) the numerator
    is a multiple of 2g, nonzero for distinct roots, so no gap is below
    2g / (2pq) = 1/lcm(p, q).  Write p = g p', q = g q' with p', q' odd and
    coprime, so the numerator 2g is reached.  A pair reaching it with
    2k+1 = p has p' dividing 2, so p | q; one with 2j+1 = q has q | p.  So
    when neither divides the other, 1/lcm(p, q) is a gap between roots off
    the half turn, where no D_p vanishes.  Otherwise, say p | q, the roots
    k = 0 and k = q - 1 of D_q are 1/q = 1/lcm(p, q) apart across turn 0.
    """
    distinct = set(ps)
    for p in distinct:
        _check_odd_p(p)
    return Fraction(1, max((lcm(p, q) for p in distinct for q in distinct), default=1))


def arcs_of_generator(p: int) -> ArcSet:
    """The subset of the circle where the signature of generator p equals 2.

    Breakpoints are the rational turns (2k+1)/(2p) excluding 1/2; the sign of
    D_p alternates across them starting positive on the arc containing 0, and
    the returned set collects the negative arcs.
    """
    bps = generator_breakpoints(p)
    # The wrap arc (last breakpoint, first breakpoint) contains 0 and is
    # positive; signs then alternate at every remaining breakpoint.
    return ArcSet(zip(bps[::2], bps[1::2]))


def generator_sign_at(p: int, theta) -> int:
    """Sign of D_p at e^(2 pi i theta): -1, 0 on a root, or +1.

    Works for arbitrarily large odd p; nothing is materialized.  See
    sign_at_turn, which does the work on the integer pair of as_turn(theta).
    """
    t = as_turn(theta)
    return sign_at_turn(p, t.numerator, t.denominator)


def sign_at_turn(p: int, num: int, den: int) -> int:
    """Sign of D_p at the turn num/den, 0 <= num < den, not necessarily in
    lowest terms: -1, 0 on a root, or +1, in integer arithmetic only.

    D_p is positive at turn 0.  The roots (2k+1)/(2p) below num/den number
    floor((2p num + den) / (2 den)), and the sign flips at each of them
    except at the half turn, where D_p does not vanish: D_p(-1) is
    (-1)^((p-1)/2) p.
    """
    _check_odd_p(p)
    if not 0 <= num < den:
        raise DomainError("sign_at_turn needs 0 <= num < den")
    if 2 * num == den:
        return -1 if ((p - 1) // 2) % 2 else 1
    crossings, r = divmod(2 * p * num + den, 2 * den)
    if not r:
        return 0
    return -1 if (crossings - (2 * num > den)) % 2 else 1


def _leftmost_maximal_arc(p: int, sign: int) -> tuple[Fraction, Fraction]:
    """The maximal sign arc of generator p with the smallest left endpoint.
    Arc k, from breakpoint k to k+1, has the sign at its midpoint (k+1)/p."""
    if sign == -1:
        k = 0
    else:
        k = 1 if p >= 5 else 2
    assert sign_at_turn(p, (k + 1) % p, p) == sign
    hi_index = k + 2 if 2 * k + 3 == p else k + 1  # breakpoint k+1 is the half turn
    return breakpoint(p, k), breakpoint(p, hi_index)


def independence_witness(ps: Sequence[int], signs: Sequence[int]) -> Turn:
    """A rational turn theta with generator_sign_at(ps[i], theta) == signs[i].

    ps must be strictly increasing odd integers; the construction is
    guaranteed when successive ratios are at least 3 (the canonical generator
    sequence has ratios 2n+1).  It maintains a rational interval certified
    inside the intersection so far, shrinking it to a full sign arc of each
    successive generator, and returns the midpoint of the final interval.
    Materialization-free, so double-factorial p is fine.
    """
    if len(ps) != len(signs):
        raise DomainError("ps and signs must have equal length")
    if not ps:
        raise DomainError("at least one generator is required")
    for s in signs:
        if s not in (-1, 1):
            raise DomainError(f"signs must be +1 or -1, got {s!r}")
    for i, p in enumerate(ps):
        _check_odd_p(p)
        if i and ps[i] <= ps[i - 1]:
            raise DomainError("ps must be strictly increasing")

    lo, hi = _leftmost_maximal_arc(ps[0], signs[0])
    for p, want in zip(ps[1:], signs[1:]):
        k_start = ceil(p * lo - HALF)
        for k in (k_start, k_start + 1, k_start + 2):
            sign = sign_at_turn(p, (k + 1) % p, p)  # cheaper than the two breakpoints
            if sign == want and breakpoint(p, k) >= lo and breakpoint(p, k + 1) <= hi:
                lo, hi = breakpoint(p, k), breakpoint(p, k + 1)
                break
        else:
            raise SpacingError(
                f"no full sign {want:+d} arc of generator {describe(p)} fits inside "
                f"({describe(lo)}, {describe(hi)}); "
                "successive ratios below 3 violate the spacing precondition"
            )
    return as_turn((lo + hi) / 2)
