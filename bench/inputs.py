"""Seeded input generators for the benchmark workloads.

Run as a script, this prints one JSON object {"warmup": [...], "items": [...]}
for a workload and seed.  The warm-up items do not depend on the seed, so
every run does the same set-up work.  The benchmark starts this script as a
child process so that sympy and mpmath, used here to reject inputs without a
defined answer and to precompute expected answers, never load into the
process whose memory and time are measured.  Nothing here imports gordian:
every input is built from its definition, so the generators double as
independent references for the oracles.

    python3 bench/inputs.py --workload general --seed 1 --count 100 --warmup 11
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

TREE_DEPTH = 6
GENERAL_DEGREES = range(4, 15)
GENERAL_COEFF = 5
GENERAL_TURNS = 2
ODD_PRIMES = tuple(p for p in range(3, 62, 2) if all(p % q for q in range(3, p, 2)))
TORUS_GENERATORS = (1, 2, 3)
TORUS_FORBIDDEN = 2


def format_vertex(path: tuple[int, ...]) -> str:
    return "root" if not path else ",".join(map(str, path))


def certify_items(rng: random.Random) -> list[dict]:
    """Every unordered pair of distinct vertices of the depth-6 binary tree,
    shuffled, each pair in a random order."""
    vertices = [()]
    frontier = [()]
    for _ in range(TREE_DEPTH):
        frontier = [v + (i,) for v in frontier for i in (0, 1)]
        vertices.extend(frontier)
    pairs = []
    for i, x in enumerate(vertices):
        for y in vertices[i + 1 :]:
            pairs.append((x, y) if rng.random() < 0.5 else (y, x))
    rng.shuffle(pairs)
    return [{"x": format_vertex(x), "y": format_vertex(y)} for x, y in pairs]


def basis_poly(a: list[int]) -> dict[int, int]:
    """Coefficients of 1 + a_0 (2 - t - 1/t) + sum_i a_i (t^i + t^-i)(2 - t - 1/t)."""
    out = {0: 1}

    def add(e: int, c: int) -> None:
        out[e] = out.get(e, 0) + c

    for i, ai in enumerate(a):
        for s in ({0} if i == 0 else {i, -i}):
            add(s, 2 * ai)
            add(s + 1, -ai)
            add(s - 1, -ai)
    return {e: c for e, c in sorted(out.items()) if c}


def poly_text(coeffs: dict[int, int]) -> str:
    """The `c t^e` text form, e.g. '-1t^-2+3t^-1-3+3t^1-1t^2'."""
    return "".join(f"{c:+d}" if e == 0 else f"{c:+d}t^{e}" for e, c in sorted(coeffs.items()))


class CircleRootCheck:
    """sympy and mpmath view of a symmetric polynomial d in x = t + 1/t,
    built from the Chebyshev identity t^i + t^-i = 2 T_i(x / 2).  It rejects
    inputs without a defined answer and precomputes the answers the general
    oracle compares against."""

    def __init__(self):
        import mpmath
        import sympy

        self.mpmath = mpmath
        self.sympy = sympy
        self.x = sympy.Symbol("x")
        self._basis: dict[int, object] = {}

    def chebyshev(self, coeffs: dict[int, int]):
        """The sympy polynomial Q with Q(t + 1/t) = d(t)."""
        sp, x = self.sympy, self.x
        q = sp.Poly(coeffs.get(0, 0), x)
        for e, c in coeffs.items():
            if e > 0:
                if e not in self._basis:
                    self._basis[e] = sp.Poly(sp.expand(2 * sp.chebyshevt(e, x / 2)), x)
                q += c * self._basis[e]
        return q

    def has_repeated_circle_root(self, q) -> bool:
        """A root at t = -1 (x = -2) is always double; otherwise a circle root
        is repeated exactly when gcd(Q, Q') has a root in [-2, 2]."""
        if q.eval(-2) == 0:
            return True
        g = self.sympy.gcd(q, q.diff(self.x))
        return g.degree() > 0 and g.count_roots(-2, 2) > 0

    def signature_at(self, coeffs: dict[int, int], theta: Fraction) -> int | None:
        """1 - Sign(d(e^(2 pi i theta))) at 30 digits, or None within 1e-12 of a root."""
        mp = self.mpmath
        with mp.workdps(30):
            turn = mp.mpf(theta.numerator) / theta.denominator
            value = coeffs.get(0, 0) + sum(2 * c * mp.cos(2 * mp.pi * e * turn) for e, c in coeffs.items() if e > 0)
            if abs(value) < mp.mpf(10) ** -12:
                return None
            return 1 - int(mp.sign(value))

    def gap_upper_bound(self, q) -> Fraction:
        """A rational upper bound for the smallest circular gap between circle
        roots.  sympy encloses each root of Q in [-2, 2] in an interval of
        width 1e-8; mapped to turns, the enclosures give, for every pair of
        neighbouring roots, a largest possible gap."""
        mp = self.mpmath
        with mp.workdps(30):
            enclosures = []
            for (a, b), _ in q.intervals(inf=-2, sup=2, eps=Fraction(1, 10**8)):
                lo = mp.acos(mp.mpf(b.p) / (2 * b.q)) / (2 * mp.pi)
                hi = mp.acos(mp.mpf(a.p) / (2 * a.q)) / (2 * mp.pi)
                enclosures += [(lo, hi), (1 - hi, 1 - lo)]
            if len(enclosures) <= 1:
                return Fraction(1)
            enclosures.sort()
            wrapped = enclosures[1:] + [(enclosures[0][0] + 1, enclosures[0][1] + 1)]
            gap = min(nxt[1] - cur[0] for cur, nxt in zip(enclosures, wrapped))
            return Fraction(mp.nstr(gap, 25)) + Fraction(1, 10**20)


def general_items(rng: random.Random, count: int) -> list[dict]:
    """Random normalized polynomials from_basis(a), a_i in [-5, 5], with a
    nonzero top coefficient and only simple circle roots.  Degrees 4 to 14
    come in shuffled blocks, so every run sees the same mix of degrees.

    Each item carries the answers its oracle expects: Q's coefficients, the
    number of breakpoints (two per root of Q in (-2, 2): Q(2) = d(1) = 1 and
    Q(-2) = 0 is rejected), the signature at GENERAL_TURNS rational turns
    away from roots, and an upper bound for the root gap."""
    check = CircleRootCheck()
    items: list[dict] = []
    block: list[int] = []
    while len(items) < count:
        if not block:
            block = list(GENERAL_DEGREES)
            rng.shuffle(block)
        n = block.pop()
        while True:
            a = [rng.randint(-GENERAL_COEFF, GENERAL_COEFF) for _ in range(n - 1)]
            a.append(rng.choice([c for c in range(-GENERAL_COEFF, GENERAL_COEFF + 1) if c]))
            coeffs = basis_poly(a)
            q = check.chebyshev(coeffs)
            if not check.has_repeated_circle_root(q):
                break
        turns: list[list] = []
        while len(turns) < GENERAL_TURNS:
            m = rng.choice((17, 29, 41))
            theta = Fraction(rng.randrange(1, m), m)
            value = check.signature_at(coeffs, theta)
            if value is not None:
                turns.append([str(theta), value])
        items.append({
            "poly": poly_text(coeffs),
            "basis": a,
            "expect": {
                "chebyshev": [int(c) for c in reversed(q.all_coeffs())],
                "breakpoints": 2 * int(q.count_roots(-2, 2)),
                "turns": turns,
                "gap_max": str(check.gap_upper_bound(q)),
            },
        })
    return items


def knot_json(gens: list[tuple[int, bool]]) -> str:
    """The serialized formal-knot records read by the `detour` subcommand."""
    return json.dumps([{"p": str(p), "mirrored": m, "multiplicity": 1} for p, m in sorted(gens)])


def random_knot(rng: random.Random, n: int) -> list[tuple[int, bool]]:
    return sorted((p, rng.random() < 0.5) for p in rng.sample(ODD_PRIMES, n))


class PrimeDeck:
    """Odd primes dealt from shuffled decks of all of ODD_PRIMES, so that in
    a run every prime appears about equally often whatever the seed, and the
    mix of knot sizes, which sets the slow items, hardly varies between seeds."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cards: list[int] = []

    def knot(self, n: int) -> list[tuple[int, bool]]:
        ps: list[int] = []
        while len(ps) < n:
            if all(c in ps for c in self.cards):
                deck = list(ODD_PRIMES)
                self.rng.shuffle(deck)
                self.cards = deck + self.cards
            top = max(j for j, c in enumerate(self.cards) if c not in ps)
            ps.append(self.cards.pop(top))
        return sorted((p, self.rng.random() < 0.5) for p in ps)


def torus_items(rng: random.Random, count: int) -> list[dict]:
    """Formal knots of 1-3 generators with distinct odd primes p <= 61, so the
    torus factors are pairwise coprime and every circle root is simple.
    Generator counts come in shuffled blocks and primes from a PrimeDeck.
    Item i's previous knot is item i - 1 (cyclically), and its forbidden
    knots are never that knot or its own."""
    knots: list[list[tuple[int, bool]]] = []
    block: list[int] = []
    deck = PrimeDeck(rng)
    while len(knots) < count:
        if not block:
            block = list(TORUS_GENERATORS)
            rng.shuffle(block)
        knots.append(deck.knot(block.pop()))
    items = []
    for i, k in enumerate(knots):
        prev = knots[i - 1]
        forbidden: list[list[tuple[int, bool]]] = []
        while len(forbidden) < TORUS_FORBIDDEN:
            f = random_knot(rng, rng.choice(TORUS_GENERATORS))
            if f not in (k, prev) and f not in forbidden:
                forbidden.append(f)
        items.append({
            "knot": knot_json(k),
            "prev": knot_json(prev),
            "forbidden": [knot_json(f) for f in forbidden],
        })
    return items


def generate(workload: str, rng: random.Random, count: int) -> list[dict]:
    if workload == "certify":
        return certify_items(rng)
    if workload == "general":
        return general_items(rng, count)
    if workload == "torus":
        return torus_items(rng, count)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    args = parser.parse_args()
    warmup = generate(args.workload, random.Random(f"{args.workload}:warmup"), args.warmup)[: args.warmup]
    items = generate(args.workload, random.Random(f"{args.workload}:{args.seed}"), args.count)
    print(json.dumps({"warmup": warmup, "items": items}))


if __name__ == "__main__":
    main()
