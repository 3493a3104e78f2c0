"""Formal knots: multisets of signed gordian generators.

A formal knot is an iterated connected sum of generators K_p (one for each
odd p >= 3) and their mirror images.  Connected sum is multiset union, the
unknot is the empty multiset, and no cancellation between a generator and its
mirror ever happens: those are genuinely distinct knots.  Signatures add over
the generators and the Alexander polynomial is the product of the torus
polynomials D_p, which yields two computable bounds on the gordian distance.

The model identifies a knot with its generator multiset.  That is faithful
for everything built here (distinctness is always certified through a
signature value or an Alexander polynomial), but it is not a model of all
knots.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Iterable, Iterator

from . import circle, laurent
from .errors import DomainError
from .laurent import LaurentPoly, _check_odd_p
from .limits import decimal, describe, guard_error, materialization_limit


@dataclasses.dataclass(frozen=True, order=True)
class GeneratorId:
    """One gordian generator: the parameter p and whether it is mirrored."""

    p: int
    mirrored: bool = False

    def __post_init__(self):
        _check_odd_p(self.p)

    def mirror(self) -> "GeneratorId":
        return GeneratorId(self.p, not self.mirrored)


GeneratorLike = GeneratorId | tuple | int


def _as_generator(g: GeneratorLike) -> GeneratorId:
    if isinstance(g, GeneratorId):
        return g
    if isinstance(g, tuple):
        return GeneratorId(*g)
    return GeneratorId(g)


@dataclasses.dataclass(init=False, eq=True, unsafe_hash=True)
class FormalKnot:
    """Multiset of signed generators; the empty multiset is the unknot."""

    generators: tuple[GeneratorId, ...]

    def __init__(self, generators: Iterable[GeneratorLike] = ()):
        self.generators = tuple(sorted(_as_generator(g) for g in generators))

    def __iter__(self) -> Iterator[GeneratorId]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __add__(self, other: "FormalKnot") -> "FormalKnot":
        return FormalKnot(self.generators + other.generators)

    def mirror(self) -> "FormalKnot":
        return FormalKnot(g.mirror() for g in self.generators)

    def is_unknot(self) -> bool:
        return not self.generators

    def records(self) -> list[dict]:
        """Serialized form: sorted {p, mirrored, multiplicity} records with p
        as a decimal string (arbitrary precision)."""
        out: list[dict] = []
        for g in self.generators:
            p = decimal(g.p)
            if out and out[-1]["p"] == p and out[-1]["mirrored"] == g.mirrored:
                out[-1]["multiplicity"] += 1
            else:
                out.append({"p": p, "mirrored": g.mirrored, "multiplicity": 1})
        return out

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "FormalKnot":
        gens = []
        for rec in records:
            count = rec.get("multiplicity", 1)
            if count < 1:
                raise DomainError(f"multiplicity must be positive, got {count}")
            gens.extend([GeneratorId(int(rec["p"]), bool(rec["mirrored"]))] * count)
        return cls(gens)

    def to_json(self) -> str:
        return json.dumps(self.records())

    @classmethod
    def from_json(cls, text: str) -> "FormalKnot":
        return cls.from_records(json.loads(text))

    def __str__(self) -> str:
        if not self.generators:
            return "U"
        parts = []
        for g in self.generators:
            p = decimal(g.p)
            parts.append(f"mirror(K_{p})" if g.mirrored else f"K_{p}")
        return " # ".join(parts)

    def __repr__(self) -> str:
        return f"FormalKnot({str(self)!r})"


UNKNOT = FormalKnot()


def generator_knot(p: int, mirrored: bool = False) -> FormalKnot:
    return FormalKnot([GeneratorId(p, mirrored)])


def connected_sum(k1: FormalKnot, k2: FormalKnot) -> FormalKnot:
    """Multiset union; commutative and associative with the unknot as identity."""
    return k1 + k2


def mirror(k: FormalKnot) -> FormalKnot:
    return k.mirror()


_P_CACHE = [3]


def p_sequence(n: int) -> int:
    """The canonical generator parameter p_n = (2n+1)(2n-1)...3 for n >= 1; the
    memo keeps p_1..p_n, so an index past the guard is refused before it grows."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"p_sequence expects a positive integer index, got {n!r}")
    if n > materialization_limit():
        raise guard_error(f"generator index {describe(n)}")
    while len(_P_CACHE) < n:
        m = len(_P_CACHE) + 1
        _P_CACHE.append(_P_CACHE[-1] * (2 * m + 1))
    return _P_CACHE[n - 1]


def net_coefficients(k1: FormalKnot, k2: FormalKnot) -> dict[int, int]:
    """Net coefficient c_p of each p, zeros dropped: copies of K_p in k1 and of
    mirror(K_p) in k2, minus copies of mirror(K_p) in k1 and of K_p in k2.
    sigma_k1 - sigma_k2 = sum c_p (1 - Sign D_p), so shared generators cancel."""
    out: dict[int, int] = {}
    for knot, side in ((k1, 1), (k2, -1)):
        for g in knot.generators:
            out[g.p] = out.get(g.p, 0) + (-side if g.mirrored else side)
    return {p: c for p, c in out.items() if c}


def signed_multiplicities(k: FormalKnot) -> dict[int, int]:
    """Net coefficient of each p: unmirrored copies minus mirrored copies."""
    return net_coefficients(k, UNKNOT)


def multiplicities(k: FormalKnot) -> dict[int, int]:
    """Total number of copies of each p, mirrored or not."""
    out: dict[int, int] = {}
    for g in k.generators:
        out[g.p] = out.get(g.p, 0) + 1
    return out


def alexander(k: FormalKnot) -> LaurentPoly:
    """Product of the torus polynomials of the constituents (mirror-invariant)."""
    span = sum((g.p - 1) // 2 for g in k.generators)
    if span > materialization_limit():
        raise guard_error(f"Alexander polynomial of degree {describe(span)}")
    out = laurent.ONE
    for g in k.generators:
        out = out * laurent.torus_poly(g.p)
    return out


def sup_signature_difference(k1: FormalKnot, k2: FormalKnot) -> tuple[int, Fraction | None]:
    """Exact sup over the circle of |sigma_k1 - sigma_k2| with a witness turn.

    With c_p from net_coefficients, the difference is sum c_p (1 - Sign D_p):
    0 on the arc through turn 0, where every D_p is positive, and moved by
    +2 c_p or -2 c_p, alternately, at each breakpoint of p.  Its value at a
    breakpoint is the average of the adjacent arc values, so one sweep over
    the merged breakpoint grid attains the sup; the witness is the midpoint
    of the first arc that reaches it.
    """
    jump = {p: 2 * c for p, c in net_coefficients(k1, k2).items()}
    if not jump:
        return 0, None
    n, grid = circle.breakpoint_grid(jump)
    best = value = 0
    best_theta: Fraction | None = None
    i = 0
    while i < len(grid):
        x = grid[i][0]
        while i < len(grid) and grid[i][0] == x:
            p = grid[i][1]
            value += jump[p]
            jump[p] = -jump[p]
            i += 1
        # After the last breakpoint the difference is back to 0 on the arc
        # through turn 0, so an arc that raises the sup ends at grid[i].
        if abs(value) > best:
            best, best_theta = abs(value), Fraction(x + grid[i][0], 2 * n)
    return best, best_theta


def distance_lower_bound(k1: FormalKnot, k2: FormalKnot) -> int:
    """ceil(sup |sigma_k1 - sigma_k2| / 2), a lower bound for the gordian distance."""
    sup, _ = sup_signature_difference(k1, k2)
    return (sup + 1) // 2


def unknotting_upper_bound(k1: FormalKnot, k2: FormalKnot) -> int:
    """Size of the multiset symmetric difference; each extra generator is one
    crossing change away from the unknot."""
    remaining = list(k2.generators)
    extra = 0
    for g in k1.generators:
        if g in remaining:
            remaining.remove(g)
        else:
            extra += 1
    return extra + len(remaining)


def root_gap(k: FormalKnot) -> Fraction:
    """Minimal circular gap between breakpoints of the Alexander polynomial of k.

    Exact and lazy: 1 / max lcm(p, q) over the generator parameters, by
    circle.min_breakpoint_gap, so p of any size is fine.  1 full turn for
    the unknot.
    """
    return circle.min_breakpoint_gap(g.p for g in k.generators)
