"""The three benchmark workloads and their output oracles.

Each workload drives one kind of item through gordian's public API the way
the matching CLI subcommand does, JSON documents included, without going
through argparse.  run() is the timed work for one item; check() is its
oracle, run outside the timed region, which returns a list of failure
messages.  Oracles compare against answers computed independently: from the
definitions, from floating-point formulas, or, for general polynomials, by
sympy and mpmath when the inputs are generated (see inputs.py).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import inputs


class Workload:
    name = ""
    # Items run in each set-up round, so caches are warm before timing.
    warmup = 0
    # Items in the traced run per second of --seconds: sized so that the
    # untraced and traced passes together last about --seconds.
    trace_rate = 1.0
    # Inputs generated per second of --seconds, above what a run gets through;
    # the item list repeats if a run uses them all.
    generated_per_s = 0

    def __init__(self, gordian, items: list[dict]):
        self.g = gordian
        self.items = items

    def item(self, i: int) -> dict:
        return self.items[i % len(self.items)]

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError


def _vertex(text: str) -> tuple[int, ...]:
    return () if text == "root" else tuple(int(c) for c in text.split(","))


class Certify(Workload):
    """One unordered pair of distinct depth-6 tree vertices per item, as in
    `gordian certify`: certify_pair, verify_certificate, and a payload round
    trip through JSON."""

    name = "certify"
    warmup = 200
    trace_rate = 150.0
    # The item list is always all 8001 tree pairs.

    def run(self, i):
        g = self.g
        item = self.item(i)
        cert = g.graph.certify_pair(g.graph.parse_vertex(item["x"]), g.graph.parse_vertex(item["y"]))
        doc = json.dumps({"certificate": cert.payload(), "valid": g.graph.verify_certificate(cert)})
        back = json.loads(doc)
        return cert, back["valid"], g.graph.IsometryCertificate.from_payload(back["certificate"])

    def check(self, i, out):
        cert, valid, again = out
        lower, upper, gap = cert.lower, cert.upper, cert.observed_gap
        x, y = (_vertex(self.item(i)[k]) for k in ("x", "y"))
        common = 0
        while common < min(len(x), len(y)) and x[common] == y[common]:
            common += 1
        d_t = len(x) + len(y) - 2 * common
        failures = []
        if (lower, upper, gap) != (d_t, 2 * d_t, 2 * d_t):
            failures.append(f"lower/upper/observed_gap {lower}/{upper}/{gap}, tree distance {d_t}")
        if not valid:
            failures.append("verify_certificate rejected the certificate")
        if again != cert:
            failures.append("payload round trip changed the certificate")
        return failures


class General(Workload):
    """One normalized polynomial, as text, per item, as in `gordian signature`
    and `gordian gap`: parse_poly, signature_of_poly, min_root_gap, and
    sup_distance against the previous item's signature."""

    name = "general"
    warmup = 4
    trace_rate = 5.0
    generated_per_s = 20

    def __init__(self, gordian, items):
        super().__init__(gordian, items)
        self.prev_sig = None

    def run(self, i):
        g = self.g
        d = g.laurent.parse_poly(self.item(i)["poly"])
        sig = g.signature.signature_of_poly(d)
        json.dumps({"poly": str(d), "signature": sig.payload()})
        gap = g.signature.min_root_gap(d)
        json.dumps({"poly": str(d), **gap.payload()})
        prev, self.prev_sig = self.prev_sig, sig
        sup = g.signature.sup_distance(sig, prev) if prev is not None else None
        return d, sig, gap, prev, sup

    def check(self, i, out):
        d, sig, gap, prev, sup = out
        item = self.item(i)
        expect = item["expect"]
        failures = []
        if dict(d.terms) != inputs.basis_poly(item["basis"]):
            failures.append("parse_poly disagrees with the basis expansion")
        if list(self.g.laurent.to_chebyshev(d)) != expect["chebyshev"]:
            failures.append("to_chebyshev disagrees with the Chebyshev expansion")
        if len(sig.breakpoints) != expect["breakpoints"]:
            failures.append(f"{len(sig.breakpoints)} breakpoints, expected {expect['breakpoints']}")
        for turn, value in expect["turns"]:
            theta = Fraction(turn)
            got = sig.value_at(theta)
            if got != value:
                failures.append(f"signature {got} at turn {theta}, expected {value}")
            if sup is not None and abs(got - prev.value_at(theta)) > sup:
                failures.append(f"sup_distance {sup} below the difference at turn {theta}")
        if not 0 < gap.value <= Fraction(expect["gap_max"]):
            failures.append(f"gap bound {gap.value} is not in (0, {expect['gap_max']}]")
        return failures


def _knot_gens(text: str) -> list[tuple[int, bool]]:
    return [(int(r["p"]), bool(r["mirrored"])) for r in json.loads(text) for _ in range(r["multiplicity"])]


def _torus_sign(p: int, theta: Fraction) -> int:
    """Sign of D_p(e^(2 pi i theta)) = cos(pi p theta) / cos(pi theta), away from roots."""
    if theta == Fraction(1, 2):
        return -1 if (p - 1) // 2 % 2 else 1
    value = math.cos(math.pi * p * theta) / math.cos(math.pi * theta)
    if abs(value) < 1e-9:
        raise ArithmeticError(f"turn {theta} is too close to a root of D_{p}")
    return 1 if value > 0 else -1


def _breakpoints(ps) -> list[Fraction]:
    return sorted({Fraction(2 * j + 1, 2 * p) for p in ps for j in range(p) if 2 * j + 1 != p})


def _midpoints(bps: list[Fraction]) -> list[Fraction]:
    return [((b + n) / 2) % 1 for b, n in zip(bps, bps[1:] + [bps[0] + 1])]


class Torus(Workload):
    """One formal knot per item: alexander, signature_of_poly and min_root_gap
    on the torus-product path, distance_lower_bound and
    unknotting_upper_bound against the previous knot, and a detour
    prev -> prev # knot -> knot around two forbidden knots, as in
    `gordian detour`."""

    name = "torus"
    warmup = 6
    trace_rate = 10.0
    generated_per_s = 150
    sample_turns = 2

    def run(self, i):
        g = self.g
        item = self.item(i)
        knot = g.knots.FormalKnot.from_json(item["knot"])
        prev = g.knots.FormalKnot.from_json(item["prev"])
        forbidden = [g.knots.FormalKnot.from_json(text) for text in item["forbidden"]]
        d = g.knots.alexander(knot)
        sig = g.signature.signature_of_poly(d)
        json.dumps({"poly": str(d), "signature": sig.payload()})
        gap = g.signature.min_root_gap(d)
        json.dumps({"poly": str(d), **gap.payload()})
        lower = g.knots.distance_lower_bound(prev, knot)
        upper = g.knots.unknotting_upper_bound(prev, knot)
        plan = g.graph.build_detour([prev, prev + knot, knot], forbidden)
        report = g.graph.verify_detour(plan)
        json.dumps({"plan": plan.payload(), "verified": report.ok, "report": report.payload()})
        return knot, sig, gap, lower, upper, report.ok

    def check(self, i, out):
        """The signature of the product polynomial is 1 - prod Sign(D_p), so
        arcs are checked against the lazy per-generator sign formula
        (circle.generator_sign_at) and a floating-point cosine formula.  It is
        not the additive knot signature eval_formal_signature, which agrees
        with it only for a single unmirrored generator."""
        knot, sig, gap, lower, upper, ok = out
        item = self.item(i)
        gens, prev_gens = _knot_gens(item["knot"]), _knot_gens(item["prev"])
        ps = [p for p, _ in gens]
        failures = []
        if len(sig.breakpoints) != sum(p - 1 for p in ps):
            failures.append(f"{len(sig.breakpoints)} breakpoints for generators {ps}")
        else:
            mids = _midpoints(list(sig.breakpoints))
            sample = set(random.Random(f"torus-oracle:{i}").sample(range(len(mids)), min(self.sample_turns, len(mids))))
            for j, mid in enumerate(mids):
                lazy = 1 - math.prod(self.g.circle.generator_sign_at(p, mid) for p in ps)
                cosine = 1 - math.prod(_torus_sign(p, mid) for p in ps)
                got = sig.value_at(mid) if j in sample else sig.values[j]
                if not got == lazy == cosine:
                    failures.append(f"signature {got} at turn {mid}, lazy {lazy}, cosine {cosine}")
        bps = _breakpoints(ps)
        own_gap = min(_gaps(bps)) if len(bps) > 1 else Fraction(1)
        root_gap = self.g.knots.root_gap(knot)
        if not (gap.exact and gap.value == own_gap == root_gap):
            failures.append(f"gap {gap.value} (exact {gap.exact}) and knots.root_gap {root_gap}, expected {own_gap}")
        net: Counter = Counter()
        for p, m in gens:
            net[p] += -1 if m else 1
        for p, m in prev_gens:
            net[p] -= -1 if m else 1
        net = {p: c for p, c in net.items() if c}
        sup = 0
        if net:
            for mid in _midpoints(_breakpoints(net)):
                sup = max(sup, abs(sum(c * (1 - _torus_sign(p, mid)) for p, c in net.items())))
        if lower != (sup + 1) // 2:
            failures.append(f"distance_lower_bound {lower}, expected {(sup + 1) // 2}")
        a, b = Counter(gens), Counter(prev_gens)
        symmetric_difference = (a - b).total() + (b - a).total()
        if upper != symmetric_difference:
            failures.append(f"unknotting_upper_bound {upper}, expected {symmetric_difference}")
        if not ok:
            failures.append("verify_detour rejected the detour")
        return failures


def _gaps(bps: list[Fraction]) -> list[Fraction]:
    return [n - b for b, n in zip(bps, bps[1:] + [bps[0] + 1])]


WORKLOADS = {w.name: w for w in (Certify, General, Torus)}
